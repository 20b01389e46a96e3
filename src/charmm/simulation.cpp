#include "charmm/simulation.hpp"

#include "md/bonded.hpp"

namespace repro::charmm {

md::MinimizeOptions relax_options(int max_steps) {
  md::MinimizeOptions opts;
  opts.max_steps = max_steps;
  opts.force_tolerance = 25.0;
  return opts;
}

md::NonbondedOptions nonbonded_options(const SimulationConfig& config,
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

md::MinimizeResult relax_system(sysbuild::BuiltSystem& sys, int max_steps) {
  Simulation sim(sys, SimulationConfig{});
  const md::MinimizeResult res = sim.minimize(relax_options(max_steps));
  sys.positions = sim.positions();
  return res;
}

Simulation::Simulation(const sysbuild::BuiltSystem& sys,
                       const SimulationConfig& config)
    : sys_(sys),
      config_(config),
      nbl_(config.cutoff, config.skin),
      pme_(config.pme, sys.box),
      integrator_(config.dt_ps),
      pos_(sys.positions),
      vel_(sys.positions.size()),
      forces_(sys.positions.size()) {
  validate_config(config);
  nb_ = nonbonded_options(config, sys.topo);
}

void Simulation::ensure_list() {
  if (steps_since_rebuild_ < 0 ||
      steps_since_rebuild_ >= config_.list_rebuild_interval ||
      nbl_.needs_rebuild(sys_.box, pos_)) {
    nbl_.build(sys_.topo, sys_.box, pos_);
    steps_since_rebuild_ = 0;
    ++list_builds_;
  }
}

void Simulation::compute_forces() {
  ensure_list();
  std::fill(forces_.begin(), forces_.end(), util::Vec3{});
  energy_ = md::EnergyTerms{};
  md::bonded_energy(sys_.topo, sys_.box, pos_, forces_, energy_);
  md::nonbonded_energy(sys_.topo, sys_.box, pos_, nbl_, nb_, forces_,
                       energy_);
  if (config_.use_pme) {
    energy_.ewald_excl = pme::ewald_exclusion_correction(
        sys_.topo, sys_.box, pos_, config_.pme.beta, forces_);
    energy_.ewald_self = pme::ewald_self_energy(sys_.topo, config_.pme.beta);
    energy_.ewald_recip = pme_.reciprocal(sys_.topo, pos_, forces_);
  }
}

const md::EnergyTerms& Simulation::evaluate() {
  compute_forces();
  return energy_;
}

void Simulation::step(int nsteps) {
  compute_forces();
  for (int s = 0; s < nsteps; ++s) {
    integrator_.begin_step(sys_.topo, forces_, pos_, vel_);
    ++steps_since_rebuild_;
    compute_forces();
    integrator_.end_step(sys_.topo, forces_, vel_);
  }
}

// Minimizer steps are not MD steps, so the rebuild interval never fires
// here: the list is rebuilt only once some atom has moved more than skin/2
// since the last build. That list still holds every pair within the
// cutoff, and the pair kernel drops listed pairs beyond the cutoff before
// touching an accumulator, so energies and forces are bit-identical to a
// fresh build's.
md::MinimizeResult Simulation::minimize(const md::MinimizeOptions& opts) {
  auto evaluate = [this](const std::vector<util::Vec3>& p,
                         std::vector<util::Vec3>& f) {
    pos_ = p;
    compute_forces();
    f = forces_;
    return energy_.potential();
  };
  std::vector<util::Vec3> work = pos_;
  const md::MinimizeResult res = md::minimize(opts, evaluate, work);
  pos_ = work;
  compute_forces();
  return res;
}

void Simulation::set_velocities_from_temperature(double temperature_k,
                                                 std::uint64_t seed) {
  md::assign_velocities(sys_.topo, temperature_k, seed, vel_);
}

double Simulation::kinetic_energy() const {
  return md::kinetic_energy(sys_.topo, vel_);
}

double Simulation::total_energy() const {
  return energy_.potential() + kinetic_energy();
}

}  // namespace repro::charmm
