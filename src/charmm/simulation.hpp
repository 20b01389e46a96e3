// Sequential MD engine: the same physics as the parallel energy
// calculation, without the cluster simulator. Used by the examples, the
// validation tests (parallel-vs-sequential) and the NVE checks.
#pragma once

#include <cstdint>
#include <vector>

#include "md/energy.hpp"
#include "md/integrator.hpp"
#include "md/minimize.hpp"
#include "md/neighbor.hpp"
#include "md/nonbonded.hpp"
#include "pme/pme.hpp"
#include "sysbuild/builder.hpp"

namespace repro::charmm {

// Relaxes a freshly built system in place (steepest descent on the full
// force field, PME included, with relax_options), removing the residual
// close contacts of the synthetic builder. Returns the minimization
// summary.
md::MinimizeResult relax_system(sysbuild::BuiltSystem& sys, int max_steps);
md::MinimizeOptions relax_options(int max_steps);

// The physics of one MD run: the pair cutoffs, the neighbor list, the
// time step and the PME grid. Simulation runs on it alone; CharmmConfig
// (charmm/app.hpp) extends it with the parallel run's settings.
struct SimulationConfig {
  bool use_pme = true;
  double dt_ps = 0.0005;
  double cutoff = 10.0;     // Å, both vdW and real-space electrostatics
  double switch_on = 8.0;
  double skin = 2.0;
  int list_rebuild_interval = 5;  // CHARMM INBFRQ-style fixed interval
  pme::PmeParams pme{80, 36, 48, 4, 0.34};

  bool operator==(const SimulationConfig&) const = default;
};

// Rejects configurations the engine cannot meaningfully run (throws
// util::Error): non-positive dt/skin, switch_on >= cutoff, degenerate PME
// grid or spline order. Called by the Simulation constructor; the
// CharmmConfig overload lives in charmm/app.hpp and runs this one too.
void validate_config(const SimulationConfig& config);

// The pair-kernel options every CHARMM program runs with, Simulation and
// each decomposition's ranks alike: Ewald-direct electrostatics under PME,
// SHIFT otherwise, and a mixing table built once for `topo`.
md::NonbondedOptions nonbonded_options(const SimulationConfig& config,
                                       const md::Topology& topo);

class Simulation {
 public:
  Simulation(const sysbuild::BuiltSystem& sys, const SimulationConfig& config);

  // Full force/energy evaluation at the current positions.
  const md::EnergyTerms& evaluate();

  // Velocity-Verlet MD steps (forces are kept consistent across calls).
  void step(int nsteps = 1);

  // Steepest-descent relaxation of the current structure.
  md::MinimizeResult minimize(const md::MinimizeOptions& opts);

  void set_velocities_from_temperature(double temperature_k,
                                       std::uint64_t seed);

  const std::vector<util::Vec3>& positions() const { return pos_; }
  std::vector<util::Vec3>& positions() { return pos_; }
  const std::vector<util::Vec3>& velocities() const { return vel_; }
  const std::vector<util::Vec3>& forces() const { return forces_; }
  const md::EnergyTerms& energy() const { return energy_; }
  double kinetic_energy() const;
  double total_energy() const;
  std::size_t pairs_in_list() const { return nbl_.npairs(); }
  // Neighbor-list builds so far.
  int list_builds() const { return list_builds_; }

 private:
  void ensure_list();
  void compute_forces();

  const sysbuild::BuiltSystem& sys_;
  SimulationConfig config_;
  md::NonbondedOptions nb_;
  md::NeighborList nbl_;
  pme::SerialPme pme_;
  md::VelocityVerlet integrator_;
  std::vector<util::Vec3> pos_;
  std::vector<util::Vec3> vel_;
  std::vector<util::Vec3> forces_;
  md::EnergyTerms energy_;
  int steps_since_rebuild_ = -1;
  int list_builds_ = 0;
};

}  // namespace repro::charmm
