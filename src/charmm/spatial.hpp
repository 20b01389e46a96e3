// Spatial-domain layout for DecompKind::kSpatial: the 3-D cell grid, the
// cell→rank assignment, the frozen halo epoch, and the run's cold start
// that composes them.
//
// The layout is pure geometry — no communication — so the decomposition
// strategy (charmm/decomposition.cpp) and the analytic overhead predictor
// (core/model.cpp) share it: both derive the exact same per-step halo
// schedule from the same positions, which is what lets the predictor's
// message/byte counts be pinned against the simulator's channel counters.
//
// Invariants the correctness of the halo schedule rests on:
//   - every cell edge is at least cutoff + skin, so two atoms within the
//     pair-list range always sit in the same or 26-adjacent cells (under
//     the periodic wrap), and a bonded term's partners always sit within
//     one cell of its first atom;
//   - cell→rank assignment is deterministic, so every rank derives the
//     identical map with no communication.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "charmm/decomp_spec.hpp"
#include "charmm/simulation.hpp"
#include "md/box.hpp"
#include "pme/pme.hpp"
#include "util/vec3.hpp"

namespace repro::charmm {

struct SpatialLayout {
  int ncx = 1, ncy = 1, ncz = 1;
  int nprocs = 1;
  md::Box box;

  std::vector<int> cell_rank;                    // cell id -> owning rank
  std::vector<std::vector<int>> rank_cells;      // rank -> owned cells
  // rank -> sorted adjacent ranks (some owned cells are 26-neighbors).
  // Ranks owning no cells (p > ncells) have no neighbors; they idle
  // through the classic routine but still join every collective.
  std::vector<std::vector<int>> rank_neighbors;
  // cell -> sorted ranks (other than the owner) owning a 26-adjacent
  // cell: the ranks that need this cell's atoms as ghosts.
  std::vector<std::vector<int>> cell_border_ranks;

  int ncells() const { return ncx * ncy * ncz; }
  int cell_of(const util::Vec3& r) const;
};

// Builds the grid (spec override or floor(L/range) per dimension, range =
// cutoff + skin) and assigns cells to ranks with a minimum-enlargement
// heuristic: ranks are seeded along the Morton curve, then each remaining
// cell goes to the under-loaded rank whose cell-space bounding box grows
// the least (ties: smallest resulting box, then lightest rank, then
// lowest rank) — the choose_next_node selection of R-tree packing, which
// keeps domains compact and halo surfaces small.
//
// When `pos` is given, a rank's load is the atom population of its cells
// rather than the cell count: the paper's system is a solute blob in a
// mostly empty box, and balancing raw cell counts leaves one rank with
// several times the mean atom count (the pair work grows as density
// squared, so the imbalance on compute is worse still). The assignment
// stays deterministic for a given position set, and the decomposition
// freezes it for the whole run — atoms migrating between cells change
// ownership, never the cell->rank map.
//
// Throws util::Error when an explicit grid has cells thinner than
// `range`.
SpatialLayout make_spatial_layout(const DecompSpec& spec, const md::Box& box,
                                  double range, int nprocs,
                                  const std::vector<util::Vec3>* pos = nullptr);

// One halo epoch, frozen between neighbor-list rebuilds: who owns which
// atom and which atoms each rank ships to each of its neighbors every
// step. Computable from a full position set (the replicated step-0 state,
// or the predictor's view of the built system).
struct SpatialEpoch {
  std::vector<std::vector<int>> owned;   // rank -> sorted atom ids
  // send[r][k]: sorted ids of r's atoms in cells bordering
  // rank_neighbors[r][k] — the position halo r sends (and the force halo
  // r receives back) each step of the epoch.
  std::vector<std::vector<std::vector<int>>> send;
};

SpatialEpoch make_global_epoch(const SpatialLayout& layout,
                               const std::vector<util::Vec3>& pos);

// The migratable work-unit grid for ldb != off: the same cell grid, but
// cells are packed into `nunits` compact blocks (the identical Morton
// minimum-enlargement heuristic that packs cells onto ranks) so units ≫
// ranks can be remapped at rebuilds without re-cutting geometry. The
// cell→unit map is frozen for the run — only unit→rank migrates.
//
// Packing (and the cold-start unit→rank split) is weighted by estimated
// pair cost, not raw atom count: w_c = n_c² + ½·n_c·Σ_{c'∈26(c)} n_c' —
// the per-cell share of the O(n²) direct-space work the PR-4 cost model
// charges, which is what actually determines a rank's busy time. Raw
// population leaves the dense solute cells 1.3–3.2x hot.
struct UnitGrid {
  int nunits = 0;
  std::vector<int> cell_unit;                // cell id -> unit id
  std::vector<std::vector<int>> unit_cells;  // unit -> member cells
  std::vector<long> unit_weight;             // cold-start pair-cost weight
};

UnitGrid make_unit_grid(const SpatialLayout& layout, int nunits,
                        const std::vector<util::Vec3>& pos);

// Deterministic cold-start unit→rank map: units walked in Morton order
// of their first cell, split into `nprocs` contiguous runs with
// near-equal pair-cost weight (every rank gets at least one unit).
std::vector<int> initial_unit_map(const UnitGrid& grid, int nprocs);

// Re-derives a full layout (cell→rank, rank_cells, neighbor/border
// adjacency) from a unit→rank map over `base`'s cell grid. This is what
// the rebalancer adopts at a rebuild: the geometry is base's, only the
// ownership moved.
SpatialLayout layout_from_units(const SpatialLayout& base,
                                const UnitGrid& grid,
                                const std::vector<int>& unit_rank);

// Per-rank PME grid regions for the pencil decomposition: the wrapped box
// of charge-grid planes any atom a rank owns can touch during an epoch.
// Per dimension the owned cells' non-periodic bounding box is mapped to
// plane indices, then padded by the B-spline support on the low side
// (stencil points are k0 - j) and by the skin drift both sides (an atom
// stays owned until the rebuild migrates it, and the neighbor-list skin
// bounds how far it can drift in that window; +1 plane absorbs the
// floor/ceil rounding). A dimension whose padded extent reaches the full
// plane count collapses to the whole dimension. Cell-less ranks get an
// empty region. Regions depend only on the layout — never on positions —
// so the pencil message schedule is constant for the whole run and the
// predictor can pin it exactly.
std::vector<pme::GridRegion> make_pme_regions(const SpatialLayout& layout,
                                              const pme::PmeParams& params,
                                              double skin);

// A spatial run's cold start: every run constant the ranks begin from,
// computed once from the run's inputs.
struct SpatialStart {
  // The step-0 layout: make_spatial_layout's population-weighted packing
  // or, with ldb != off, layout_from_units over the cold-start map.
  SpatialLayout layout;
  // ldb != off only: the frozen work-unit grid and the cold-start
  // unit→rank map (initial_unit_map).
  std::optional<UnitGrid> units;
  std::vector<int> unit_rank;
  // Pencil PME only: the resolved Py x Pz grid and the layout's regions.
  std::pair<int, int> pencil_grid{0, 0};
  std::vector<pme::GridRegion> pme_regions;
  // The step-0 halo epoch of `pos` under `layout`.
  SpatialEpoch epoch;
};

// Composes the cold start for `nprocs` >= 2 ranks under `spec`, with
// cells at least physics.cutoff + physics.skin wide. Throws util::Error
// on a grid that is too fine, a unit count the grid cannot honor, or an
// infeasible pencil grid.
SpatialStart make_spatial_start(const DecompSpec& spec, const md::Box& box,
                                const std::vector<util::Vec3>& pos,
                                const SimulationConfig& physics, int nprocs);

}  // namespace repro::charmm
