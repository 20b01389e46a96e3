#include "md/neighbor.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "util/exact_memo.hpp"

namespace repro::md {

namespace {

struct CellGrid {
  int ncx, ncy, ncz;
  double lx, ly, lz;

  int cell_of(const util::Vec3& r) const {
    auto idx = [](double coord, double len, int n) {
      int c = static_cast<int>(std::floor(coord / len *
                                          static_cast<double>(n)));
      c %= n;
      if (c < 0) c += n;
      return c;
    };
    const int cx = idx(r.x, lx, ncx);
    const int cy = idx(r.y, ly, ncy);
    const int cz = idx(r.z, lz, ncz);
    return (cx * ncy + cy) * ncz + cz;
  }
};

// Counting-sorts (i, j) pairs into CSR rows over n atoms: count per row,
// exclusive prefix sum, scatter, then sort each row by ascending j.
void pairs_to_csr(const std::vector<std::pair<int, int>>& pairs,
                  std::size_t n, std::vector<std::size_t>& row_cursor,
                  std::vector<std::size_t>& offsets,
                  std::vector<int>& neighbors) {
  offsets.assign(n + 1, 0);
  for (const auto& [i, j] : pairs) {
    ++offsets[static_cast<std::size_t>(i) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  neighbors.resize(pairs.size());
  row_cursor.assign(offsets.begin(), offsets.end() - 1);
  for (const auto& [i, j] : pairs) {
    neighbors[row_cursor[static_cast<std::size_t>(i)]++] = j;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::sort(neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[i]),
              neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[i + 1]));
  }
}

// Every replicated-data rank builds the same list from the same
// coordinates, and a factorial sweep replays the same trajectory for every
// platform cell, so most builds repeat an earlier one exactly. The memo is
// keyed by the radii, the box lengths, and the positions and exclusion
// list byte for byte; a hit lends out the stored CSR arrays.
struct BuildKey {
  double cutoff;
  double skin;
  util::Vec3 box_len;
  bool operator==(const BuildKey&) const = default;
};

struct BuildResult {
  std::vector<std::size_t> offsets;
  std::vector<int> neighbors;
};

using BuildMemo = util::ExactMemo<BuildKey, BuildResult, util::Vec3,
                                  std::pair<int, int>>;

}  // namespace

void NeighborList::build(const Topology& topo, const Box& box,
                         const std::vector<util::Vec3>& pos) {
  REPRO_REQUIRE(static_cast<int>(pos.size()) == topo.natoms(),
                "position array size mismatch");
  REPRO_REQUIRE(2.0 * (cutoff_ + skin_) <= box.min_length() * 1.5,
                "cutoff too large for the box (minimum image unsafe)");
  // FIFO; a 10-step run rebuilds far fewer than 12 times.
  static BuildMemo memo(12);
  auto entry = memo.find_or_compute(
      BuildKey{cutoff_, skin_, box.lengths()},
      [&] {
        collect_pairs(topo, box, pos);
        BuildResult fresh;
        pairs_to_csr(pair_buf_, pos.size(), row_cursor_, fresh.offsets,
                     fresh.neighbors);
        return fresh;
      },
      pos, topo.excluded_pairs());
  // Hits and fresh builds alike read the memo entry's immutable arrays;
  // the keepalive pins the entry while the views point at it.
  offsets_view_ = &entry->value.offsets;
  neighbors_view_ = &entry->value.neighbors;
  built_pos_view_ = &std::get<0>(entry->inputs);
  built_box_ = box;
  cache_keepalive_ = std::move(entry);
}

void NeighborList::collect_pairs(const Topology& topo, const Box& box,
                                 const std::vector<util::Vec3>& pos) {
  const int n = topo.natoms();
  const double range = cutoff_ + skin_;
  const double range2 = range * range;
  const std::size_t un = static_cast<std::size_t>(n);

  const int ncx = std::max(1, static_cast<int>(box.lx() / range));
  const int ncy = std::max(1, static_cast<int>(box.ly() / range));
  const int ncz = std::max(1, static_cast<int>(box.lz() / range));

  // Pairs are appended flat and counting-sorted into CSR afterwards. The
  // final per-row sort makes the output independent of collection order,
  // so this produces the exact list the old per-atom-vector build did.
  pair_buf_.clear();
  auto consider = [&](int i, int j) {
    if (j <= i) std::swap(i, j);
    if (i == j) return;
    const util::Vec3 d = box.min_image(pos[static_cast<std::size_t>(i)] -
                                       pos[static_cast<std::size_t>(j)]);
    if (util::norm2(d) >= range2) return;
    if (topo.excluded(i, j)) return;
    pair_buf_.emplace_back(i, j);
  };

  if (ncx < 3 || ncy < 3 || ncz < 3) {
    // Too few cells for a half-stencil sweep; quadratic fallback (used by
    // small test systems only).
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) consider(i, j);
    }
  } else {
    CellGrid grid{ncx, ncy, ncz, box.lx(), box.ly(), box.lz()};
    const std::size_t ncells = static_cast<std::size_t>(ncx * ncy * ncz);
    // Counting-sort atoms into CSR cell lists (pass 1: bin + count, pass
    // 2: scatter). Atoms land in each cell in ascending index order, same
    // as the old push_back binning.
    atom_cell_.resize(un);
    cell_start_.assign(ncells + 1, 0);
    for (std::size_t i = 0; i < un; ++i) {
      const int c = grid.cell_of(pos[i]);
      atom_cell_[i] = c;
      ++cell_start_[static_cast<std::size_t>(c) + 1];
    }
    for (std::size_t c = 0; c < ncells; ++c) {
      cell_start_[c + 1] += cell_start_[c];
    }
    cell_cursor_.assign(cell_start_.begin(), cell_start_.end() - 1);
    cell_atoms_.resize(un);
    for (std::size_t i = 0; i < un; ++i) {
      cell_atoms_[cell_cursor_[static_cast<std::size_t>(atom_cell_[i])]++] =
          static_cast<int>(i);
    }
    // Half stencil: self cell plus 13 forward neighbor cells.
    static constexpr int kStencil[14][3] = {
        {0, 0, 0},  {1, 0, 0},   {0, 1, 0},  {0, 0, 1},  {1, 1, 0},
        {1, 0, 1},  {0, 1, 1},   {1, 1, 1},  {1, -1, 0}, {1, 0, -1},
        {0, 1, -1}, {1, -1, -1}, {1, -1, 1}, {1, 1, -1}};
    for (int cx = 0; cx < ncx; ++cx) {
      for (int cy = 0; cy < ncy; ++cy) {
        for (int cz = 0; cz < ncz; ++cz) {
          const std::size_t home = static_cast<std::size_t>(
              (cx * ncy + cy) * ncz + cz);
          const std::size_t h0 = cell_start_[home];
          const std::size_t h1 = cell_start_[home + 1];
          for (const auto& offs : kStencil) {
            const int ox = (cx + offs[0] + ncx) % ncx;
            const int oy = (cy + offs[1] + ncy) % ncy;
            const int oz = (cz + offs[2] + ncz) % ncz;
            const std::size_t other = static_cast<std::size_t>(
                (ox * ncy + oy) * ncz + oz);
            const std::size_t o0 = cell_start_[other];
            const std::size_t o1 = cell_start_[other + 1];
            const bool self = offs[0] == 0 && offs[1] == 0 && offs[2] == 0;
            for (std::size_t a = h0; a < h1; ++a) {
              const std::size_t b0 = self ? a + 1 : o0;
              for (std::size_t b = b0; b < o1; ++b) {
                consider(cell_atoms_[a], cell_atoms_[b]);
              }
            }
          }
        }
      }
    }
  }
}

void NeighborList::build_subset(const Topology& topo, const Box& box,
                                const std::vector<util::Vec3>& pos,
                                const std::vector<int>& candidates,
                                const std::vector<std::uint8_t>& row_mask) {
  const int n = topo.natoms();
  REPRO_REQUIRE(static_cast<int>(pos.size()) == n &&
                    row_mask.size() == pos.size(),
                "position/mask array size mismatch");
  const double range = cutoff_ + skin_;
  REPRO_REQUIRE(2.0 * range <= box.min_length() * 1.5,
                "cutoff too large for the box (minimum image unsafe)");
  const double range2 = range * range;
  const std::size_t un = static_cast<std::size_t>(n);
  const std::size_t nc = candidates.size();

  pair_buf_.clear();
  auto consider = [&](int i, int j) {
    if (j <= i) std::swap(i, j);
    if (i == j) return;
    if (!row_mask[static_cast<std::size_t>(i)]) return;
    const util::Vec3 d = box.min_image(pos[static_cast<std::size_t>(i)] -
                                       pos[static_cast<std::size_t>(j)]);
    if (util::norm2(d) >= range2) return;
    if (topo.excluded(i, j)) return;
    pair_buf_.emplace_back(i, j);
  };

  const int ncx = std::max(1, static_cast<int>(box.lx() / range));
  const int ncy = std::max(1, static_cast<int>(box.ly() / range));
  const int ncz = std::max(1, static_cast<int>(box.lz() / range));

  if (ncx < 3 || ncy < 3 || ncz < 3) {
    for (std::size_t a = 0; a < nc; ++a) {
      for (std::size_t b = a + 1; b < nc; ++b) {
        consider(candidates[a], candidates[b]);
      }
    }
  } else {
    // Same half-stencil sweep as build(), binning only the candidates.
    CellGrid grid{ncx, ncy, ncz, box.lx(), box.ly(), box.lz()};
    const std::size_t ncells = static_cast<std::size_t>(ncx * ncy * ncz);
    atom_cell_.resize(nc);
    cell_start_.assign(ncells + 1, 0);
    for (std::size_t s = 0; s < nc; ++s) {
      const int c = grid.cell_of(
          pos[static_cast<std::size_t>(candidates[s])]);
      atom_cell_[s] = c;
      ++cell_start_[static_cast<std::size_t>(c) + 1];
    }
    for (std::size_t c = 0; c < ncells; ++c) {
      cell_start_[c + 1] += cell_start_[c];
    }
    cell_cursor_.assign(cell_start_.begin(), cell_start_.end() - 1);
    cell_atoms_.resize(nc);
    for (std::size_t s = 0; s < nc; ++s) {
      cell_atoms_[cell_cursor_[static_cast<std::size_t>(atom_cell_[s])]++] =
          candidates[s];
    }
    static constexpr int kStencil[14][3] = {
        {0, 0, 0},  {1, 0, 0},   {0, 1, 0},  {0, 0, 1},  {1, 1, 0},
        {1, 0, 1},  {0, 1, 1},   {1, 1, 1},  {1, -1, 0}, {1, 0, -1},
        {0, 1, -1}, {1, -1, -1}, {1, -1, 1}, {1, 1, -1}};
    for (int cx = 0; cx < ncx; ++cx) {
      for (int cy = 0; cy < ncy; ++cy) {
        for (int cz = 0; cz < ncz; ++cz) {
          const std::size_t home = static_cast<std::size_t>(
              (cx * ncy + cy) * ncz + cz);
          const std::size_t h0 = cell_start_[home];
          const std::size_t h1 = cell_start_[home + 1];
          if (h0 == h1) continue;
          for (const auto& offs : kStencil) {
            const int ox = (cx + offs[0] + ncx) % ncx;
            const int oy = (cy + offs[1] + ncy) % ncy;
            const int oz = (cz + offs[2] + ncz) % ncz;
            const std::size_t other = static_cast<std::size_t>(
                (ox * ncy + oy) * ncz + oz);
            const std::size_t o0 = cell_start_[other];
            const std::size_t o1 = cell_start_[other + 1];
            const bool self = offs[0] == 0 && offs[1] == 0 && offs[2] == 0;
            for (std::size_t a = h0; a < h1; ++a) {
              const std::size_t b0 = self ? a + 1 : o0;
              for (std::size_t b = b0; b < o1; ++b) {
                consider(cell_atoms_[a], cell_atoms_[b]);
              }
            }
          }
        }
      }
    }
  }

  pairs_to_csr(pair_buf_, un, row_cursor_, offsets_, neighbors_);
  built_pos_ = pos;
  built_box_ = box;
  offsets_view_ = &offsets_;
  neighbors_view_ = &neighbors_;
  built_pos_view_ = &built_pos_;
  cache_keepalive_.reset();
}

bool NeighborList::needs_rebuild(const Box& box,
                                 const std::vector<util::Vec3>& pos) const {
  const std::vector<util::Vec3>& built = *built_pos_view_;
  if (built.size() != pos.size()) return true;
  if (box.lengths() != built_box_.lengths()) return true;
  const double limit2 = 0.25 * skin_ * skin_;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const util::Vec3 d = box.min_image(pos[i] - built[i]);
    if (util::norm2(d) > limit2) return true;
  }
  return false;
}

}  // namespace repro::md
