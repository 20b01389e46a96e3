// Steepest-descent energy minimization with an adaptive step, used to
// relax the synthetically built structures before dynamics.
#pragma once

#include <functional>
#include <vector>

#include "util/vec3.hpp"

namespace repro::md {

struct MinimizeOptions {
  int max_steps = 200;
  double initial_step = 0.02;  // Å of maximum atomic displacement per step
  double max_step = 0.5;
  double force_tolerance = 1.0;  // kcal/mol/Å on the largest component
};

struct MinimizeResult {
  int steps = 0;
  double initial_energy = 0.0;
  double final_energy = 0.0;
  double max_force = 0.0;  // largest force component at the returned pos
  bool converged = false;
};

// `evaluate` computes the potential energy and fills `forces` (sized like
// pos) for the given positions.
using EnergyFunction = std::function<double(
    const std::vector<util::Vec3>& pos, std::vector<util::Vec3>& forces)>;

MinimizeResult minimize(const MinimizeOptions& opts,
                        const EnergyFunction& evaluate,
                        std::vector<util::Vec3>& pos);

}  // namespace repro::md
