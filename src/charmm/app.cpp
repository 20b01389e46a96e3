#include "charmm/app.hpp"

#include <cstring>
#include <string>

#include "charmm/decomposition.hpp"
#include "charmm/simulation.hpp"
#include "md/integrator.hpp"
#include "util/error.hpp"

namespace repro::charmm {

SharedRunState::SharedRunState(const sysbuild::BuiltSystem& sys,
                               const CharmmConfig& config)
    : lists_(config.cutoff, config.skin),
      nb_(nonbonded_options(config, sys.topo)) {
  // Velocities are assigned replicated, so every rank (and every owned
  // slice) starts bitwise equal to the sequential run.
  md::assign_velocities(sys.topo, config.temperature_k, config.seed, vel_);
}

const SpatialEpoch& SharedRunState::spatial_epoch(
    const SpatialLayout& layout, const std::vector<util::Vec3>& pos,
    int rank) {
  const std::array<int, 3> grid = {layout.ncx, layout.ncy, layout.ncz};
  if (!epoch_) {
    epoch_ = make_global_epoch(layout, pos);
    epoch_grid_ = grid;
    epoch_cell_rank_ = layout.cell_rank;
    epoch_pos_ = pos;
    return *epoch_;
  }
  auto differs = [rank](const char* what) {
    return "spatial step-0 epoch: rank " + std::to_string(rank) + "'s " +
           what + " differ from the rank that built it";
  };
  REPRO_REQUIRE(grid == epoch_grid_ &&
                    layout.cell_rank.size() == epoch_cell_rank_.size() &&
                    std::memcmp(layout.cell_rank.data(),
                                epoch_cell_rank_.data(),
                                epoch_cell_rank_.size() * sizeof(int)) == 0,
                differs("cell layout and grid"));
  REPRO_REQUIRE(pos.size() == epoch_pos_.size() &&
                    std::memcmp(pos.data(), epoch_pos_.data(),
                                pos.size() * sizeof(util::Vec3)) == 0,
                differs("step-0 positions"));
  return *epoch_;
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
