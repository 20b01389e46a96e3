// Decomposition strategies: the per-rank step program behind
// run_charmm_rank.
//
// A Decomposition owns both halves of a parallelization: *work
// partitioning* (which rank computes which interactions) and the *per-step
// communication schedule* (how partial forces/energies become the
// replicated total every rank integrates). Four strategies:
//
//   AtomReplicated — the paper's CHARMM parallelization, extracted
//       verbatim from the original run_charmm_rank: interleaved shards,
//       full-vector allreduce, replicated integration.
//   Force — each rank owns a block of the pair-interaction matrix
//       (pair (i, j) belongs to rank (block(i) + block(j)) mod p); the
//       reduction shrinks to a fold (reduce-scatter of per-block force
//       partials to their owners) + expand (allgather of owned totals).
//   TaskPme — task decoupling: the last `pme_ranks` ranks run only the
//       reciprocal-space PME work while the rest run only the classic
//       routine, overlapping in virtual time the two components the
//       default schedule serializes through coherency barriers; a
//       combine/broadcast joins the halves at the end of each step.
//   Spatial — domain decomposition: ranks own cells of a 3-D grid (cells
//       at least cutoff + skin wide, packed compactly by a minimum-
//       enlargement heuristic; charmm/spatial.hpp), each step exchanges
//       only border-cell positions with the ≤26-neighborhood and folds
//       ghost forces back, and atoms migrate between owners at
//       neighbor-list rebuilds. The only full-vector collectives left are
//       the small energy reduction and, under PME, the position gather +
//       reciprocal-force sum — the locality CHARMM's replicated-data
//       design never had.
//
// The replicated strategies end each step with bit-identical forces on
// all ranks; Spatial keeps state distributed but allreduces its
// energies/checksum, so every rank still reports identical results
// (run_experiment asserts this).
//
// Communication-schedule discipline: comm-wide collectives draw tags from
// a per-Comm sequence counter, so *every* rank must issue them in the same
// order. Strategies whose groups run different programs (TaskPme) may use
// only point-to-point messages inside a group, with tags below the
// collective tag space (mpi::Comm::kCollectiveTagBase); comm-wide
// collectives are reserved for points where all ranks participate.
#pragma once

#include <memory>

#include "charmm/app.hpp"

namespace repro::charmm {

class Decomposition {
 public:
  virtual ~Decomposition() = default;
  virtual const char* name() const = 0;
  // Runs the whole nsteps workload on this rank; see run_charmm_rank.
  virtual RankRunResult run(const sysbuild::BuiltSystem& sys,
                            const CharmmConfig& config,
                            middleware::Middleware& mw,
                            md::SharedNeighborList& lists) const = 0;
};

// Builds the strategy for `spec` (throws util::Error on specs the factory
// cannot satisfy, e.g. task decoupling with use_pme off at run time).
std::unique_ptr<Decomposition> make_decomposition(const DecompSpec& spec);

}  // namespace repro::charmm
