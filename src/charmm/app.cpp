#include "charmm/app.hpp"

#include "charmm/decomposition.hpp"
#include "charmm/simulation.hpp"
#include "md/integrator.hpp"

namespace repro::charmm {

SharedRunState::SharedRunState(const sysbuild::BuiltSystem& sys,
                               const CharmmConfig& config, int nprocs)
    : lists_(config.cutoff, config.skin),
      nb_(nonbonded_options(config, sys.topo)) {
  // Velocities are assigned replicated, so every rank (and every owned
  // slice) starts bitwise equal to the sequential run.
  md::assign_velocities(sys.topo, config.temperature_k, config.seed, vel_);
  // p = 1 runs the sequential reference program, which has no layout.
  if (config.decomp.kind == DecompKind::kSpatial && nprocs >= 2) {
    spatial_ = make_spatial_start(config.decomp, sys.box, sys.positions,
                                  config, nprocs);
  }
}

RankRunResult run_charmm_rank(const sysbuild::BuiltSystem& sys,
                              const CharmmConfig& config,
                              middleware::Middleware& mw,
                              SharedRunState& shared) {
  // The step program (work partitioning + communication schedule) lives
  // behind the Decomposition interface; the default spec reproduces the
  // paper's replicated-data atom decomposition byte-for-byte.
  return make_decomposition(config.decomp)->run(sys, config, mw, shared);
}

}  // namespace repro::charmm
