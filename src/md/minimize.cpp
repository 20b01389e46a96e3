#include "md/minimize.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace repro::md {

namespace {

double max_component(const std::vector<util::Vec3>& forces) {
  double m = 0.0;
  for (const auto& f : forces) {
    m = std::max({m, std::abs(f.x), std::abs(f.y), std::abs(f.z)});
  }
  return m;
}

}  // namespace

MinimizeResult minimize(const MinimizeOptions& opts,
                        const EnergyFunction& evaluate,
                        std::vector<util::Vec3>& pos) {
  REPRO_REQUIRE(opts.max_steps >= 0, "bad max_steps");
  MinimizeResult res;
  std::vector<util::Vec3> forces(pos.size());
  std::vector<util::Vec3> trial(pos.size());
  std::vector<util::Vec3> trial_forces(pos.size());

  double energy = evaluate(pos, forces);
  res.initial_energy = energy;
  double step = opts.initial_step;

  for (res.steps = 0; res.steps < opts.max_steps; ++res.steps) {
    const double fmax = max_component(forces);
    if (fmax < opts.force_tolerance) {
      res.converged = true;
      break;
    }
    // Displace along the force, capped so no atom moves more than `step`.
    const double scale = step / fmax;
    for (std::size_t i = 0; i < pos.size(); ++i) {
      trial[i] = pos[i] + forces[i] * scale;
    }
    std::fill(trial_forces.begin(), trial_forces.end(), util::Vec3{});
    const double trial_energy = evaluate(trial, trial_forces);
    if (trial_energy < energy) {
      pos.swap(trial);
      forces.swap(trial_forces);
      energy = trial_energy;
      step = std::min(step * 1.2, opts.max_step);
    } else {
      step *= 0.5;
      if (step < 1e-8) break;  // stuck; accept the current structure
    }
  }
  res.final_energy = energy;
  res.max_force = max_component(forces);
  return res;
}

}  // namespace repro::md
