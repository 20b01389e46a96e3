// Sequential MD engine: the same physics as the parallel energy
// calculation, without the cluster simulator. Used by the examples, the
// validation tests (parallel-vs-sequential) and the NVE checks.
#pragma once

#include <vector>

#include <memory>
#include <optional>

#include "md/constraints.hpp"
#include "md/energy.hpp"
#include "md/integrator.hpp"
#include "md/minimize.hpp"
#include "md/neighbor.hpp"
#include "md/nonbonded.hpp"
#include "md/thermostat.hpp"
#include "pme/pme.hpp"
#include "sysbuild/builder.hpp"

namespace repro::charmm {

// Relaxes a freshly built system in place (steepest descent on the full
// force field, PME included, with relax_options), removing the residual
// close contacts of the synthetic builder. Returns the minimization
// summary.
md::MinimizeResult relax_system(sysbuild::BuiltSystem& sys, int max_steps);
md::MinimizeOptions relax_options(int max_steps);

struct SimulationConfig {
  bool use_pme = true;
  double dt_ps = 0.0005;
  double cutoff = 10.0;
  double switch_on = 8.0;
  double skin = 2.0;
  int list_rebuild_interval = 5;
  pme::PmeParams pme{80, 36, 48, 4, 0.34};

  // SHAKE on hydrogen bonds (CHARMM "SHAKE BONH"): removes the fastest
  // oscillations, enabling ~2 fs steps.
  bool shake_hydrogens = false;
  // Additionally make waters fully rigid (H-H constraint) — the CHARMM
  // convention for TIP3P solvent; implies shake_hydrogens.
  bool rigid_waters = false;

  // Optional temperature control.
  enum class Thermostat { kNone, kBerendsen, kLangevin };
  Thermostat thermostat = Thermostat::kNone;
  double thermostat_target_k = 300.0;
  double berendsen_tau_ps = 0.1;
  double langevin_friction_per_ps = 5.0;
  std::uint64_t thermostat_seed = 11;
};

// Rejects configurations the engine cannot meaningfully run (throws
// util::Error): non-positive dt/skin, switch_on >= cutoff, degenerate PME
// grid or spline order. Called by the Simulation constructor; the
// CharmmConfig overload lives in charmm/app.hpp.
void validate_config(const SimulationConfig& config);

// The pair-kernel options every CHARMM program runs with, Simulation and
// each decomposition's ranks alike: Ewald-direct electrostatics under PME,
// SHIFT otherwise, and a mixing table built once for `topo`. Config is a
// SimulationConfig or a CharmmConfig.
template <class Config>
md::NonbondedOptions nonbonded_options(const Config& config,
                                       const md::Topology& topo) {
  md::NonbondedOptions nb;
  nb.cutoff = config.cutoff;
  nb.switch_on = config.switch_on;
  nb.elec = config.use_pme ? md::NonbondedOptions::Elec::kEwaldDirect
                           : md::NonbondedOptions::Elec::kShift;
  nb.beta = config.pme.beta;
  nb.table = md::build_pair_table(topo);
  return nb;
}

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
  // Instantaneous temperature with the constrained degrees of freedom
  // removed.
  double current_temperature() const;
  int degrees_of_freedom() const;
  std::size_t pairs_in_list() const { return nbl_.npairs(); }
  // Neighbor-list builds so far.
  int list_builds() const { return list_builds_; }
  const md::Shake* shake() const { return shake_ ? &*shake_ : nullptr; }

 private:
  void ensure_list();
  void compute_forces();

  const sysbuild::BuiltSystem& sys_;
  SimulationConfig config_;
  md::NonbondedOptions nb_;
  md::NeighborList nbl_;
  pme::SerialPme pme_;
  md::VelocityVerlet integrator_;
  std::optional<md::Shake> shake_;
  std::optional<md::BerendsenThermostat> berendsen_;
  std::optional<md::LangevinThermostat> langevin_;
  std::vector<util::Vec3> pos_;
  std::vector<util::Vec3> vel_;
  std::vector<util::Vec3> forces_;
  md::EnergyTerms energy_;
  int steps_since_rebuild_ = -1;
  int list_builds_ = 0;
};

}  // namespace repro::charmm
