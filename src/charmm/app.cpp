#include "charmm/app.hpp"

#include "charmm/decomposition.hpp"

namespace repro::charmm {

RankRunResult run_charmm_rank(const sysbuild::BuiltSystem& sys,
                              const CharmmConfig& config,
                              middleware::Middleware& mw,
                              md::SharedNeighborList& lists) {
  // The step program (work partitioning + communication schedule) lives
  // behind the Decomposition interface; the default spec reproduces the
  // paper's replicated-data atom decomposition byte-for-byte.
  return make_decomposition(config.decomp)->run(sys, config, mw, lists);
}

}  // namespace repro::charmm
