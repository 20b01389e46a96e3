// Decomposition selection: *which* parallelism, as a swept factor.
//
// The paper characterizes one parallelization — CHARMM's replicated-data
// atom decomposition — on many platforms. DecompSpec makes the
// decomposition itself a factor next to network/middleware/CPUs, so the
// title question ("is there any easy parallelism in CHARMM?") can be asked
// of alternative strategies under identical cluster models. The spec is a
// plain value (parsed from `--decomp=SPEC`, carried in CharmmConfig);
// the strategies themselves live in charmm/decomposition.hpp.
#pragma once

#include <cstddef>
#include <string>
#include <utility>

namespace repro::charmm {

enum class DecompKind {
  // Replicated data, atom decomposition: every rank holds all positions,
  // computes an interleaved shard, allreduces the full force array. The
  // paper's CHARMM parallelization and the default.
  kAtomReplicated,
  // Force decomposition (Plimpton-style): each rank owns a block of the
  // pair-interaction matrix; the reduction shrinks from all-atoms to a
  // fold (reduce-scatter of per-block partials) + expand (allgather of
  // owned totals).
  kForce,
  // Task decoupling (the paper's §2.3 question taken to its end): a
  // configurable subset of ranks runs only PME while the rest run only
  // the classic routine, overlapping the two components that otherwise
  // serialize through the coherency barriers.
  kTaskPme,
  // Spatial domain decomposition (the era's real answer, Beazley &
  // Lomdahl's multi-cell message-passing MD): the box is cut into a 3-D
  // grid of cells at least cutoff+skin wide, cells are packed onto ranks
  // by a minimum-enlargement heuristic, and each step exchanges only the
  // halo (ghost positions in, ghost force partials out) with the 26-cell
  // neighborhood instead of allreducing the full force array. Atoms
  // migrate to their new owner on neighbor-list rebuilds.
  kSpatial,
};

// How the spatial decomposition runs PME's reciprocal sum.
enum class PmeMode {
  // Replicated slab FFT fed by an all-to-all position gather and drained
  // by a full-array reciprocal-force allreduce — the PR 7 baseline whose
  // p^2 traffic is the paper's PME wall.
  kSlab,
  // 2-D pencil decomposition of the charge grid over a Py x Pz process
  // grid: charges are spread only onto locally-owned real-space planes,
  // B-spline ghost planes are exchanged with the pencil owners, and the
  // 3-D FFT runs as local 1-D lines with grouped pairwise X<->Y and
  // Y<->Z transposes. No position gather, no force allreduce.
  kPencil,
};

// Measurement-driven load balancing of the spatial decomposition's
// migratable work units (CHARM++-style overdecomposition: cell blocks
// ≫ ranks, remapped at neighbor-list rebuilds from measured per-unit
// phase costs).
enum class LdbPolicy {
  // One static unit per rank, exactly the pre-refactor schedule.
  kOff,
  // Rebuild the unit→rank map from scratch: units sorted by measured
  // cost, each assigned to the rank with the smallest speed-scaled load.
  kGreedy,
  // Start from the current map and move units off the bottleneck rank
  // while that lowers the predicted makespan — fewer migrations, and a
  // fixed point once the load stops drifting.
  kRefine,
};

struct DecompSpec {
  DecompKind kind = DecompKind::kAtomReplicated;
  // kTaskPme only: ranks dedicated to PME (0 = auto, max(1, p/4)).
  int pme_ranks = 0;
  // kSpatial only: explicit cell grid (0 = auto, floor(L / (cutoff +
  // skin)) per dimension). Either all three are set or none.
  int grid_x = 0;
  int grid_y = 0;
  int grid_z = 0;
  // kSpatial only: slab (replicated) or pencil (distributed) PME.
  PmeMode pme_mode = PmeMode::kSlab;
  // kPencil only: explicit Py x Pz pencil process grid (0 = auto, the
  // most-square factorization of nprocs). Either both are set or none.
  int pencil_y = 0;
  int pencil_z = 0;
  // kSpatial only: work-unit load balancing ("ldb=greedy|refine|off",
  // optionally ",units=K"). Off keeps the static one-unit-per-rank
  // schedule byte-identical to the pre-refactor code.
  LdbPolicy ldb = LdbPolicy::kOff;
  // Number of migratable work units when ldb != off (0 = auto,
  // min(4 * nprocs, ncells)). Must satisfy nprocs <= K <= ncells.
  int units = 0;

  bool operator==(const DecompSpec&) const = default;
};

// True when the rank program reads its own simulated timing, so the
// platform can change the trajectory: the load balancer (ldb != off)
// remaps work from measured phase times. Such runs cannot share one
// recorded trajectory across platforms (see core::SweepRunner).
inline bool timing_feeds_physics(const DecompSpec& spec) {
  return spec.ldb != LdbPolicy::kOff;
}

const char* to_string(DecompKind kind);
const char* to_string(LdbPolicy policy);
// "atom" | "force" | "task" | "task:pme=N" | "spatial" |
// "spatial:grid=AxBxC" | "spatial[:grid=AxBxC]:pme=pencil[:grid=PyxPz]"
// with an optional trailing ":ldb=greedy|refine[,units=K]" — round-trips
// parse_decomp_spec.
std::string to_string(const DecompSpec& spec);

// Parses "atom", "force", "task", "task:pme=N" (N >= 1), "spatial", or
// "spatial" followed by colon-separated options: "grid=AxBxC" (A, B, C
// >= 1; the cell grid) and "pme=pencil" optionally followed by its own
// "grid=PyxPz" (the pencil process grid; must come after "pme=pencil").
// Throws util::Error on anything else — including non-numeric or
// out-of-range values, which the former atoi-based parser silently
// folded to 0.
DecompSpec parse_decomp_spec(const std::string& text);

// Number of PME-dedicated ranks a task-decoupled run on `nprocs` uses:
// the explicit pme_ranks if set (must leave at least one classic rank),
// else max(1, nprocs / 4). Meaningful only for nprocs >= 2.
int resolved_pme_ranks(const DecompSpec& spec, int nprocs);

// The Py x Pz pencil process grid a pencil-PME run on `nprocs` uses: the
// explicit pencil_y/pencil_z if set (py * pz must not exceed nprocs),
// else the most-square factorization of nprocs (largest divisor d with
// d <= sqrt(nprocs), as (d, nprocs / d)). Either way each pencil
// dimension must fit in the FFT plane counts `ny`/`nz` so every pencil
// rank owns at least one plane. Meaningful only for nprocs >= 2.
std::pair<int, int> resolved_pencil_grid(const DecompSpec& spec, int nprocs,
                                         std::size_t ny, std::size_t nz);

// Number of migratable work units a load-balanced spatial run uses: the
// explicit units if set (must satisfy nprocs <= units <= ncells so every
// rank can hold a unit and every unit holds a cell), else
// min(4 * nprocs, ncells). Meaningful only when ldb != off; requires
// ncells >= nprocs (a grid too coarse to overdecompose fails loudly).
int resolved_units(const DecompSpec& spec, int nprocs, int ncells);

}  // namespace repro::charmm
