// The CHARMM-style parallel MD energy calculation (the workload of the
// paper), assembled per Figure 2:
//
//   classic routine : bonded + short-range non-bonded computation (atom
//                     decomposition), ending in the all-to-all *collective*
//                     force/energy reduction;
//   PME routine     : slab charge spreading, forward 3-D FFT (all-to-all
//                     *personalized* transpose), reciprocal convolution,
//                     backward FFT (second transpose), force interpolation.
//
// Replicated data: every rank holds all positions, computes a shard of the
// interactions, and integrates all atoms after the force reduction — the
// classic CHARMM parallelization this class of clusters ran.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "charmm/cost_model.hpp"
#include "charmm/decomp_spec.hpp"
#include "charmm/spatial.hpp"
#include "md/energy.hpp"
#include "md/neighbor.hpp"
#include "md/nonbonded.hpp"
#include "middleware/middleware.hpp"
#include "pme/pme.hpp"
#include "sysbuild/builder.hpp"
#include "util/vec3.hpp"

namespace repro::charmm {

struct CharmmConfig {
  bool use_pme = true;
  int nsteps = 10;          // the paper's reduced-step measurement runs
  double dt_ps = 0.0005;
  double temperature_k = 300.0;
  double cutoff = 10.0;     // Å, both vdW and real-space electrostatics
  double switch_on = 8.0;
  double skin = 2.0;
  int list_rebuild_interval = 5;  // CHARMM INBFRQ-style fixed interval
  pme::PmeParams pme{80, 36, 48, 4, 0.34};
  std::uint64_t seed = 2002;
  CostModel cost = CostModel::pentium3_1ghz();

  // CHARMM synchronizes before its global operations ("coherency
  // maintenance"). Turning this off lets skew flow into the data
  // operations instead — the decoupling question of the paper's §2.3
  // (their reference [21]); see bench/extension_decoupling.
  bool coherency_barriers = true;

  // Which parallelization runs the step program (work partitioning + the
  // per-step communication schedule); see charmm/decomposition.hpp. The
  // default reproduces the paper's replicated-data atom decomposition.
  DecompSpec decomp;

  bool operator==(const CharmmConfig&) const = default;
};

struct RankRunResult {
  md::EnergyTerms last_energy;   // after the global sum: total system terms
  double position_checksum = 0.0;  // sum of coordinates, cross-rank check
  std::size_t pairs_in_list = 0;
  // Spatial decomposition only: atoms that changed owner at a rebuild,
  // summed over ranks and the whole run (0 for the replicated strategies,
  // whose atoms have no owner to change).
  std::size_t atoms_migrated = 0;
  // Spatial + ldb only: work units the rebalancer moved over the run, and
  // an FNV-1a hash over every adopted unit→rank map (the balancer's full
  // trajectory). Both are computed from replicated data, so every rank
  // reports the same values — run_experiment asserts it.
  std::size_t units_moved = 0;
  std::uint64_t unit_map_hash = 0;
};

// The run-start state every rank of one run shares, built once per run
// and passed to each rank's step program. Ranks run as fibers on one
// thread, so a piece built on first use is built by the first rank that
// needs it; every later rank borrows it only after checking, byte for
// byte, that it would have built the same thing, and a mismatch fails
// loudly naming the rank. Ranks copy what they mutate. The state lives as
// long as its run and is never kept across runs.
class SharedRunState {
 public:
  // Draws the initial velocities and builds the pair-kernel options (and
  // their mixing table) of `sys` under `config`.
  SharedRunState(const sysbuild::BuiltSystem& sys,
                 const CharmmConfig& config);

  // The replicated-data ranks' neighbor lists: one build per rebuild
  // step (md::SharedNeighborList).
  md::SharedNeighborList& lists() { return lists_; }
  // The pair-kernel options every rank runs with.
  const md::NonbondedOptions& nonbonded() const { return nb_; }
  // The replicated initial velocities (md::assign_velocities at
  // config.temperature_k and config.seed).
  const std::vector<util::Vec3>& velocities() const { return vel_; }

  // The spatial decomposition's step-0 epoch, make_global_epoch(layout,
  // pos). The first caller computes it; a later caller whose layout's
  // cell grid and cell_rank or whose positions differ byte for byte from
  // the first caller's fails with a util::Error naming `rank`.
  const SpatialEpoch& spatial_epoch(const SpatialLayout& layout,
                                    const std::vector<util::Vec3>& pos,
                                    int rank);

 private:
  md::SharedNeighborList lists_;
  md::NonbondedOptions nb_;
  std::vector<util::Vec3> vel_;
  // The step-0 epoch and the inputs it was built from.
  std::optional<SpatialEpoch> epoch_;
  std::array<int, 3> epoch_grid_{};
  std::vector<int> epoch_cell_rank_;
  std::vector<util::Vec3> epoch_pos_;
};

// Runs the energy-calculation workload on one simulated rank under the
// decomposition selected by config.decomp. `sys` is the shared, read-only
// system; the middleware carries all communication. The recorder (inside
// comm) must be fresh. Every rank of one run passes the same `shared`,
// built from this `sys` and `config`.
RankRunResult run_charmm_rank(const sysbuild::BuiltSystem& sys,
                              const CharmmConfig& config,
                              middleware::Middleware& mw,
                              SharedRunState& shared);

// Rejects configurations the workload cannot meaningfully run (throws
// util::Error): non-positive nsteps/dt/skin, switch_on >= cutoff,
// degenerate PME grid or spline order, task decoupling without PME.
void validate_config(const CharmmConfig& config);

}  // namespace repro::charmm
