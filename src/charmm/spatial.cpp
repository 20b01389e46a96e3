#include "charmm/spatial.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/error.hpp"

namespace repro::charmm {

namespace {

// Interleaves the low 10 bits of (x, y, z) into a Morton key. Grid
// dimensions are bounded by box_length / (cutoff + skin), far below 1024.
std::uint32_t morton3(int x, int y, int z) {
  auto spread = [](std::uint32_t v) {
    v &= 0x3ff;
    v = (v | (v << 16)) & 0x030000ff;
    v = (v | (v << 8)) & 0x0300f00f;
    v = (v | (v << 4)) & 0x030c30c3;
    v = (v | (v << 2)) & 0x09249249;
    return v;
  };
  return spread(static_cast<std::uint32_t>(x)) |
         (spread(static_cast<std::uint32_t>(y)) << 1) |
         (spread(static_cast<std::uint32_t>(z)) << 2);
}

struct CellCoord {
  int x, y, z;
};

// Axis-aligned bounding box in cell coordinates (non-periodic: the
// heuristic only needs a relative compactness measure, not exact wrapped
// extents).
struct CellBounds {
  int lo[3] = {std::numeric_limits<int>::max(),
               std::numeric_limits<int>::max(),
               std::numeric_limits<int>::max()};
  int hi[3] = {std::numeric_limits<int>::min(),
               std::numeric_limits<int>::min(),
               std::numeric_limits<int>::min()};

  long volume() const {
    if (hi[0] < lo[0]) return 0;
    long v = 1;
    for (int d = 0; d < 3; ++d) v *= hi[d] - lo[d] + 1;
    return v;
  }
  long volume_with(const CellCoord& c) const {
    long v = 1;
    const int coord[3] = {c.x, c.y, c.z};
    for (int d = 0; d < 3; ++d) {
      v *= std::max(hi[d], coord[d]) - std::min(lo[d], coord[d]) + 1;
    }
    return v;
  }
  void add(const CellCoord& c) {
    const int coord[3] = {c.x, c.y, c.z};
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], coord[d]);
      hi[d] = std::max(hi[d], coord[d]);
    }
  }
};

int auto_dim(double length, double range) {
  return std::max(1, static_cast<int>(length / range));
}

// Packs cells onto `ntargets` targets (ranks, or overdecomposed work
// units) with the Morton-seeded minimum-enlargement heuristic: targets
// are seeded along the curve, then each remaining cell goes to the
// under-loaded target whose cell-space bounding box grows the least
// (choose_next_node of R-tree packing). With ntargets >= ncells the
// assignment degenerates to one cell per target.
std::vector<int> pack_cells(const std::vector<CellCoord>& coords,
                            const std::vector<long>& weight, int ntargets) {
  const int ncells = static_cast<int>(coords.size());
  std::vector<int> assign(coords.size(), -1);
  if (ntargets >= ncells) {
    for (int c = 0; c < ncells; ++c) assign[static_cast<std::size_t>(c)] = c;
    return assign;
  }
  long total_weight = 0;
  for (long w : weight) total_weight += w;
  // A target stays admissible while its load is strictly below the even
  // share; the last cell it takes may overshoot by one cell's weight.
  const double target = static_cast<double>(total_weight) /
                        static_cast<double>(ntargets);
  std::vector<int> order(coords.size());
  for (int c = 0; c < ncells; ++c) order[static_cast<std::size_t>(c)] = c;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const std::uint32_t ka = morton3(coords[a].x, coords[a].y, coords[a].z);
    const std::uint32_t kb = morton3(coords[b].x, coords[b].y, coords[b].z);
    return ka != kb ? ka < kb : a < b;
  });
  std::vector<long> load(static_cast<std::size_t>(ntargets), 0);
  std::vector<CellBounds> bounds(static_cast<std::size_t>(ntargets));
  for (int r = 0; r < ntargets; ++r) {
    const int seed = order[static_cast<std::size_t>(
        (static_cast<long>(r) * ncells) / ntargets)];
    assign[static_cast<std::size_t>(seed)] = r;
    bounds[r].add(coords[static_cast<std::size_t>(seed)]);
    load[r] += weight[static_cast<std::size_t>(seed)];
  }
  for (int c : order) {
    if (assign[static_cast<std::size_t>(c)] >= 0) continue;
    const CellCoord& coord = coords[static_cast<std::size_t>(c)];
    auto pick = [&](bool only_underloaded) {
      int best = -1;
      long best_growth = 0;
      long best_volume = 0;
      for (int r = 0; r < ntargets; ++r) {
        if (only_underloaded &&
            static_cast<double>(load[r]) >= target) {
          continue;
        }
        const long vol = bounds[r].volume_with(coord);
        const long growth = vol - bounds[r].volume();
        if (best < 0 || growth < best_growth ||
            (growth == best_growth &&
             (vol < best_volume ||
              (vol == best_volume && load[r] < load[best])))) {
          best = r;
          best_growth = growth;
          best_volume = vol;
        }
      }
      return best;
    };
    int best = pick(true);
    // Every target can be at its share with zero-weight cells left over;
    // they go wherever the bounding boxes grow least.
    if (best < 0) best = pick(false);
    REPRO_REQUIRE(best >= 0, "spatial cell assignment ran out of capacity");
    assign[static_cast<std::size_t>(c)] = best;
    bounds[best].add(coord);
    load[best] += weight[static_cast<std::size_t>(c)];
  }
  return assign;
}

std::vector<CellCoord> cell_coords(const SpatialLayout& layout) {
  std::vector<CellCoord> coords(static_cast<std::size_t>(layout.ncells()));
  for (int x = 0; x < layout.ncx; ++x) {
    for (int y = 0; y < layout.ncy; ++y) {
      for (int z = 0; z < layout.ncz; ++z) {
        coords[static_cast<std::size_t>((x * layout.ncy + y) * layout.ncz +
                                        z)] = {x, y, z};
      }
    }
  }
  return coords;
}

// Fills rank_cells, cell_border_ranks, and rank_neighbors from a
// populated cell_rank, and asserts the adjacency is symmetric. Shared by
// the static layout and every rebalanced layout_from_units epoch.
void derive_adjacency(SpatialLayout& layout) {
  const int ncells = layout.ncells();
  const int nprocs = layout.nprocs;
  const int ncy = layout.ncy;
  const int ncz = layout.ncz;
  const std::vector<CellCoord> coords = cell_coords(layout);
  auto cell_id = [&](const CellCoord& c) {
    return (c.x * ncy + c.y) * ncz + c.z;
  };
  layout.rank_cells.assign(static_cast<std::size_t>(nprocs), {});
  for (int c = 0; c < ncells; ++c) {
    layout.rank_cells[static_cast<std::size_t>(layout.cell_rank[c])]
        .push_back(c);
  }

  // 26-neighborhood under the periodic wrap (deduplicated: a dimension
  // with fewer than three cells folds offsets onto each other).
  layout.cell_border_ranks.assign(static_cast<std::size_t>(ncells), {});
  std::vector<std::vector<int>> neighbor_sets(
      static_cast<std::size_t>(nprocs));
  for (int c = 0; c < ncells; ++c) {
    const CellCoord& coord = coords[static_cast<std::size_t>(c)];
    const int me = layout.cell_rank[c];
    std::vector<int>& border = layout.cell_border_ranks[c];
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dz = -1; dz <= 1; ++dz) {
          const CellCoord n{(coord.x + dx + layout.ncx) % layout.ncx,
                            (coord.y + dy + ncy) % ncy,
                            (coord.z + dz + ncz) % ncz};
          const int r = layout.cell_rank[cell_id(n)];
          if (r != me) border.push_back(r);
        }
      }
    }
    std::sort(border.begin(), border.end());
    border.erase(std::unique(border.begin(), border.end()), border.end());
    for (int r : border) {
      neighbor_sets[static_cast<std::size_t>(me)].push_back(r);
    }
  }
  layout.rank_neighbors.assign(static_cast<std::size_t>(nprocs), {});
  for (int r = 0; r < nprocs; ++r) {
    std::vector<int>& nbrs = neighbor_sets[static_cast<std::size_t>(r)];
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    layout.rank_neighbors[static_cast<std::size_t>(r)] = std::move(nbrs);
  }
  // Adjacency must be symmetric (s needs my border atoms exactly when I
  // need theirs) — guaranteed by construction, but the halo schedule
  // deadlocks if it ever breaks, so assert it cheaply here.
  for (int r = 0; r < nprocs; ++r) {
    for (int s : layout.rank_neighbors[static_cast<std::size_t>(r)]) {
      const auto& back = layout.rank_neighbors[static_cast<std::size_t>(s)];
      REPRO_REQUIRE(std::binary_search(back.begin(), back.end(), r),
                    "spatial rank adjacency is not symmetric");
    }
  }
}

}  // namespace

int SpatialLayout::cell_of(const util::Vec3& r) const {
  auto idx = [](double coord, double len, int n) {
    int c = static_cast<int>(
        std::floor(coord / len * static_cast<double>(n)));
    c %= n;
    if (c < 0) c += n;
    return c;
  };
  const int cx = idx(r.x, box.lx(), ncx);
  const int cy = idx(r.y, box.ly(), ncy);
  const int cz = idx(r.z, box.lz(), ncz);
  return (cx * ncy + cy) * ncz + cz;
}

SpatialLayout make_spatial_layout(const DecompSpec& spec, const md::Box& box,
                                  double range, int nprocs,
                                  const std::vector<util::Vec3>* pos) {
  REPRO_REQUIRE(spec.kind == DecompKind::kSpatial,
                "spatial layout requested for a non-spatial decomposition");
  REPRO_REQUIRE(nprocs >= 1 && range > 0.0, "bad spatial layout inputs");

  SpatialLayout layout;
  layout.box = box;
  layout.nprocs = nprocs;
  layout.ncx = spec.grid_x > 0 ? spec.grid_x : auto_dim(box.lx(), range);
  layout.ncy = spec.grid_y > 0 ? spec.grid_y : auto_dim(box.ly(), range);
  layout.ncz = spec.grid_z > 0 ? spec.grid_z : auto_dim(box.lz(), range);
  // A dimension with a single cell never splits a pair, so only multi-cell
  // dimensions must keep cells at least `range` wide (otherwise a pair
  // within range could span two non-adjacent cells and its interaction
  // would silently be dropped).
  auto check_dim = [&](int n, double length, const char* name) {
    REPRO_REQUIRE(n == 1 || length / n >= range,
                  std::string("spatial grid too fine in ") + name +
                      ": cells must be at least cutoff + skin wide");
  };
  check_dim(layout.ncx, box.lx(), "x");
  check_dim(layout.ncy, box.ly(), "y");
  check_dim(layout.ncz, box.lz(), "z");

  const int ncells = layout.ncells();
  const std::vector<CellCoord> coords = cell_coords(layout);
  if (nprocs >= ncells) {
    // One cell per rank; surplus ranks own nothing and idle through the
    // classic routine (they still join every comm-wide collective).
    layout.cell_rank.resize(static_cast<std::size_t>(ncells));
    for (int c = 0; c < ncells; ++c) layout.cell_rank[c] = c;
  } else {
    // Load is the cells' atom population when positions are available
    // (the solute blob leaves most of the box empty, so cell counts are
    // a poor proxy for work), one per cell otherwise.
    std::vector<long> weight(static_cast<std::size_t>(ncells), 1);
    if (pos != nullptr) {
      weight.assign(static_cast<std::size_t>(ncells), 0);
      for (const util::Vec3& r : *pos) {
        ++weight[static_cast<std::size_t>(layout.cell_of(r))];
      }
    }
    layout.cell_rank = pack_cells(coords, weight, nprocs);
  }
  derive_adjacency(layout);
  return layout;
}

UnitGrid make_unit_grid(const SpatialLayout& layout, int nunits,
                        const std::vector<util::Vec3>& pos) {
  const int ncells = layout.ncells();
  REPRO_REQUIRE(nunits >= 1 && nunits <= ncells,
                "work-unit count must be between 1 and the cell count");
  UnitGrid grid;
  grid.nunits = nunits;
  const std::vector<CellCoord> coords = cell_coords(layout);

  // Per-cell pair-cost weight: the self term n² plus half the cross term
  // against each 26-neighbor (each cross pair is counted once from each
  // side, so halving keeps the total proportional to the pair count).
  // Computed from the cold-start positions — the same information the
  // population-weighted rank packer uses, just squared the way the
  // direct-space work actually scales.
  std::vector<long> pop(static_cast<std::size_t>(ncells), 0);
  for (const util::Vec3& r : pos) {
    ++pop[static_cast<std::size_t>(layout.cell_of(r))];
  }
  std::vector<long> weight(static_cast<std::size_t>(ncells), 0);
  for (int c = 0; c < ncells; ++c) {
    const CellCoord& coord = coords[static_cast<std::size_t>(c)];
    long cross = 0;
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dz = -1; dz <= 1; ++dz) {
          if (dx == 0 && dy == 0 && dz == 0) continue;
          const int nx = (coord.x + dx + layout.ncx) % layout.ncx;
          const int ny = (coord.y + dy + layout.ncy) % layout.ncy;
          const int nz = (coord.z + dz + layout.ncz) % layout.ncz;
          cross += pop[static_cast<std::size_t>(
              (nx * layout.ncy + ny) * layout.ncz + nz)];
        }
      }
    }
    const long n = pop[static_cast<std::size_t>(c)];
    weight[static_cast<std::size_t>(c)] = n * n + (n * cross) / 2;
  }

  grid.cell_unit = pack_cells(coords, weight, nunits);
  grid.unit_cells.assign(static_cast<std::size_t>(nunits), {});
  grid.unit_weight.assign(static_cast<std::size_t>(nunits), 0);
  for (int c = 0; c < ncells; ++c) {
    const int u = grid.cell_unit[static_cast<std::size_t>(c)];
    grid.unit_cells[static_cast<std::size_t>(u)].push_back(c);
    grid.unit_weight[static_cast<std::size_t>(u)] +=
        weight[static_cast<std::size_t>(c)];
  }
  return grid;
}

std::vector<int> initial_unit_map(const UnitGrid& grid, int nprocs) {
  REPRO_REQUIRE(nprocs >= 1 && grid.nunits >= nprocs,
                "cold-start unit map needs at least one unit per rank");
  long total = 0;
  for (long w : grid.unit_weight) total += w;
  const double target =
      static_cast<double>(total) / static_cast<double>(nprocs);
  // Contiguous prefix split in unit-id order (unit ids are already
  // Morton-compact blocks from the packer): each rank takes units until
  // it reaches the even share, leaving enough units for the ranks after
  // it. Deterministic, and every rank ends up non-empty.
  std::vector<int> unit_rank(static_cast<std::size_t>(grid.nunits), 0);
  int rank = 0;
  int count = 0;  // units on the current rank
  long load = 0;
  for (int u = 0; u < grid.nunits; ++u) {
    // Advance once the rank holds its share — or when the remaining
    // units are exactly one-per-remaining-rank and the current rank
    // already has one (the forced tail).
    const bool forced = grid.nunits - u <= nprocs - rank - 1;
    if (rank < nprocs - 1 && count > 0 &&
        ((load > 0 && static_cast<double>(load) >= target) || forced)) {
      ++rank;
      count = 0;
      load = 0;
    }
    unit_rank[static_cast<std::size_t>(u)] = rank;
    ++count;
    load += grid.unit_weight[static_cast<std::size_t>(u)];
  }
  return unit_rank;
}

SpatialLayout layout_from_units(const SpatialLayout& base,
                                const UnitGrid& grid,
                                const std::vector<int>& unit_rank) {
  REPRO_REQUIRE(static_cast<int>(unit_rank.size()) == grid.nunits,
                "unit→rank map size mismatch");
  SpatialLayout layout;
  layout.ncx = base.ncx;
  layout.ncy = base.ncy;
  layout.ncz = base.ncz;
  layout.nprocs = base.nprocs;
  layout.box = base.box;
  layout.cell_rank.resize(static_cast<std::size_t>(base.ncells()));
  for (int c = 0; c < base.ncells(); ++c) {
    const int r =
        unit_rank[static_cast<std::size_t>(grid.cell_unit[c])];
    REPRO_REQUIRE(r >= 0 && r < base.nprocs, "unit mapped to a bad rank");
    layout.cell_rank[static_cast<std::size_t>(c)] = r;
  }
  derive_adjacency(layout);
  return layout;
}

SpatialEpoch make_global_epoch(const SpatialLayout& layout,
                               const std::vector<util::Vec3>& pos) {
  SpatialEpoch epoch;
  const std::size_t n = pos.size();
  const std::size_t p = static_cast<std::size_t>(layout.nprocs);
  epoch.owned.assign(p, {});
  epoch.send.assign(p, {});
  for (std::size_t r = 0; r < p; ++r) {
    epoch.send[r].assign(layout.rank_neighbors[r].size(), {});
  }
  for (std::size_t i = 0; i < n; ++i) {
    const int c = layout.cell_of(pos[i]);
    const int r = layout.cell_rank[static_cast<std::size_t>(c)];
    epoch.owned[static_cast<std::size_t>(r)].push_back(static_cast<int>(i));
    const auto& nbrs = layout.rank_neighbors[static_cast<std::size_t>(r)];
    for (int s : layout.cell_border_ranks[static_cast<std::size_t>(c)]) {
      const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), s);
      epoch.send[static_cast<std::size_t>(r)]
                [static_cast<std::size_t>(it - nbrs.begin())]
                    .push_back(static_cast<int>(i));
    }
  }
  return epoch;
}

std::vector<pme::GridRegion> make_pme_regions(const SpatialLayout& layout,
                                              const pme::PmeParams& params,
                                              double skin) {
  const long n[3] = {static_cast<long>(params.nx),
                     static_cast<long>(params.ny),
                     static_cast<long>(params.nz)};
  const long nc[3] = {layout.ncx, layout.ncy, layout.ncz};
  const double len[3] = {layout.box.lx(), layout.box.ly(), layout.box.lz()};
  std::vector<pme::GridRegion> regions(layout.rank_cells.size());
  for (std::size_t r = 0; r < layout.rank_cells.size(); ++r) {
    const auto& cells = layout.rank_cells[r];
    if (cells.empty()) continue;  // idle rank: empty region
    int lo[3] = {layout.ncx, layout.ncy, layout.ncz};
    int hi[3] = {-1, -1, -1};
    for (int c : cells) {
      const int coord[3] = {c / (layout.ncy * layout.ncz),
                            (c / layout.ncz) % layout.ncy, c % layout.ncz};
      for (int d = 0; d < 3; ++d) {
        lo[d] = std::min(lo[d], coord[d]);
        hi[d] = std::max(hi[d], coord[d]);
      }
    }
    std::size_t start[3];
    std::size_t count[3];
    for (int d = 0; d < 3; ++d) {
      const long pad =
          static_cast<long>(
              std::ceil(skin * static_cast<double>(n[d]) / len[d])) +
          1;
      // Lowest plane an atom at the cells' lower face can touch: its
      // k0 = floor(lo * n / nc), minus the spline support below it.
      const long lo_plane =
          lo[d] * n[d] / nc[d] - (params.order - 1) - pad;
      // Highest plane: k0 of an atom at the upper face, rounded up.
      const long hi_plane =
          ((hi[d] + 1) * n[d] + nc[d] - 1) / nc[d] - 1 + pad;
      const long c = hi_plane - lo_plane + 1;
      if (c >= n[d]) {
        start[d] = 0;
        count[d] = static_cast<std::size_t>(n[d]);
      } else {
        start[d] = static_cast<std::size_t>(((lo_plane % n[d]) + n[d]) %
                                            n[d]);
        count[d] = static_cast<std::size_t>(c);
      }
    }
    regions[r] = pme::GridRegion{start[0], count[0], start[1],
                                 count[1],  start[2], count[2]};
  }
  return regions;
}

SpatialStart make_spatial_start(const DecompSpec& spec, const md::Box& box,
                                const std::vector<util::Vec3>& pos,
                                const SimulationConfig& physics, int nprocs) {
  SpatialStart start;
  start.layout = make_spatial_layout(spec, box, physics.cutoff + physics.skin,
                                     nprocs, &pos);
  if (spec.ldb != LdbPolicy::kOff) {
    // The cold-start map replaces the packer's cell→rank assignment with
    // a pair-cost weighted one.
    start.units.emplace(make_unit_grid(
        start.layout, resolved_units(spec, nprocs, start.layout.ncells()),
        pos));
    start.unit_rank = initial_unit_map(*start.units, nprocs);
    start.layout = layout_from_units(start.layout, *start.units,
                                     start.unit_rank);
  }
  if (physics.use_pme && spec.pme_mode == PmeMode::kPencil) {
    start.pencil_grid = resolved_pencil_grid(spec, nprocs, physics.pme.ny,
                                             physics.pme.nz);
    start.pme_regions =
        make_pme_regions(start.layout, physics.pme, physics.skin);
  }
  start.epoch = make_global_epoch(start.layout, pos);
  return start;
}

}  // namespace repro::charmm
