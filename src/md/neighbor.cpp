#include "md/neighbor.hpp"

#include <algorithm>
#include <bit>
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

// std::nearbyint(q) in the default rounding mode, as plain arithmetic so
// the candidate loop vectorizes on the baseline x86-64 target (which has no
// packed round instruction). Adding 1.5 * 2^52 leaves no fraction bits, so
// the sum rounds q half-to-even; subtracting it back is exact. Exact for
// |q| < 2^51; cell_of's int cast already bounds coordinates far tighter.
// Only the sign of a zero result can differ, which no square sees.
inline double round_half_even(double q) {
  constexpr double kShift = 0x1.8p52;
  return (q + kShift) - kShift;
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
  // FIFO; a 10-step run rebuilds far fewer than 12 times.
  static BuildMemo memo(12);
  auto entry = memo.find_or_compute(
      BuildKey{cutoff_, skin_, box.lengths()},
      [&] {
        BuildResult fresh;
        fresh.neighbors.reserve(npairs());  // the last list's size as a hint
        sweep(topo, box, pos, nullptr, nullptr, fresh.offsets,
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

void NeighborList::build_subset(const Topology& topo, const Box& box,
                                const std::vector<util::Vec3>& pos,
                                const std::vector<int>& candidates,
                                const std::vector<std::uint8_t>& row_mask) {
  REPRO_REQUIRE(row_mask.size() == pos.size(), "row mask size mismatch");
  sweep(topo, box, pos, &candidates, &row_mask, offsets_, neighbors_);
  built_pos_ = pos;
  built_box_ = box;
  offsets_view_ = &offsets_;
  neighbors_view_ = &neighbors_;
  built_pos_view_ = &built_pos_;
  cache_keepalive_.reset();
}

// Row-major sweep. Atoms are binned into cells of edge >= cutoff + skin and
// copied into cell-ordered coordinate arrays, each cell listing its atoms in
// ascending index order. Row i then scans the 27 cells around its own, but
// only the slots holding atoms j > i: cell_next_ tracks that boundary per
// cell and only moves forward, because rows run in ascending order. So
// every unordered pair is tested once, as a half stencil would, and rows
// come out in CSR order. Hits set bits in a one-bit-per-atom row map;
// clearing the row's exclusions and reading the set bits back in word order
// emits the row's j values ascending, without a sort.
void NeighborList::sweep(const Topology& topo, const Box& box,
                         const std::vector<util::Vec3>& pos,
                         const std::vector<int>* atoms,
                         const std::vector<std::uint8_t>* row_mask,
                         std::vector<std::size_t>& offsets,
                         std::vector<int>& neighbors) {
  const int n = topo.natoms();
  const std::size_t un = static_cast<std::size_t>(n);
  const double range = cutoff_ + skin_;
  const double range2 = range * range;
  REPRO_REQUIRE(pos.size() == un, "position array size mismatch");
  REPRO_REQUIRE(2.0 * range <= box.min_length() * 1.5,
                "cutoff too large for the box (minimum image unsafe)");

  // With fewer than three cells along any axis the 27 neighbor cells are
  // not distinct; one cell holding every atom then makes the sweep an
  // all-pairs test (small test systems only).
  int ncx = std::max(1, static_cast<int>(box.lx() / range));
  int ncy = std::max(1, static_cast<int>(box.ly() / range));
  int ncz = std::max(1, static_cast<int>(box.lz() / range));
  if (ncx < 3 || ncy < 3 || ncz < 3) ncx = ncy = ncz = 1;
  const CellGrid grid{ncx, ncy, ncz, box.lx(), box.ly(), box.lz()};
  const std::size_t ncells = static_cast<std::size_t>(ncx * ncy * ncz);
  const int reach = ncells == 1 ? 0 : 1;
  const std::size_t nstencil = ncells == 1 ? 1 : 27;

  cell_nbrs_.resize(ncells * nstencil);
  for (int cx = 0; cx < ncx; ++cx) {
    for (int cy = 0; cy < ncy; ++cy) {
      for (int cz = 0; cz < ncz; ++cz) {
        const std::size_t home =
            static_cast<std::size_t>((cx * ncy + cy) * ncz + cz);
        int* out = cell_nbrs_.data() + home * nstencil;
        for (int dx = -reach; dx <= reach; ++dx) {
          for (int dy = -reach; dy <= reach; ++dy) {
            for (int dz = -reach; dz <= reach; ++dz) {
              const int ox = (cx + dx + ncx) % ncx;
              const int oy = (cy + dy + ncy) % ncy;
              const int oz = (cz + dz + ncz) % ncz;
              *out++ = (ox * ncy + oy) * ncz + oz;
            }
          }
        }
      }
    }
  }

  // Counting-sort the binned atoms into cells; scattering in ascending
  // atom order keeps every cell's slots in ascending index order.
  atom_cell_.assign(un, -1);
  cell_start_.assign(ncells + 1, 0);
  std::size_t nbinned = 0;
  auto bin = [&](int i) {
    REPRO_REQUIRE(i >= 0 && i < n, "candidate atom out of range");
    int& c = atom_cell_[static_cast<std::size_t>(i)];
    REPRO_REQUIRE(c < 0, "duplicate candidate atom");
    c = grid.cell_of(pos[static_cast<std::size_t>(i)]);
    ++cell_start_[static_cast<std::size_t>(c) + 1];
    ++nbinned;
  };
  if (atoms) {
    for (const int i : *atoms) bin(i);
  } else {
    for (int i = 0; i < n; ++i) bin(i);
  }
  for (std::size_t c = 0; c < ncells; ++c) {
    cell_start_[c + 1] += cell_start_[c];
  }
  cell_next_.assign(cell_start_.begin(), cell_start_.end() - 1);
  slot_atom_.resize(nbinned);
  slot_x_.resize(nbinned);
  slot_y_.resize(nbinned);
  slot_z_.resize(nbinned);
  for (std::size_t i = 0; i < un; ++i) {
    if (atom_cell_[i] < 0) continue;
    const std::size_t s = cell_next_[static_cast<std::size_t>(atom_cell_[i])]++;
    slot_atom_[s] = static_cast<int>(i);
    slot_x_[s] = pos[i].x;
    slot_y_[s] = pos[i].y;
    slot_z_[s] = pos[i].z;
  }
  cell_next_.assign(cell_start_.begin(), cell_start_.end() - 1);
  r2_.resize(nbinned);
  row_bits_.assign(un / 64 + 1, 0);

  const double lx = box.lx(), ly = box.ly(), lz = box.lz();
  offsets.assign(un + 1, 0);
  neighbors.clear();
  for (std::size_t i = 0; i < un; ++i) {
    const int home = atom_cell_[i];
    if (home >= 0 && (!row_mask || (*row_mask)[i])) {
      const double xi = pos[i].x, yi = pos[i].y, zi = pos[i].z;
      std::size_t wlo = row_bits_.size(), whi = 0;
      const int* stencil =
          cell_nbrs_.data() + static_cast<std::size_t>(home) * nstencil;
      for (std::size_t t = 0; t < nstencil; ++t) {
        const std::size_t c = static_cast<std::size_t>(stencil[t]);
        const std::size_t end = cell_start_[c + 1];
        std::size_t b = cell_next_[c];
        while (b < end && static_cast<std::size_t>(slot_atom_[b]) <= i) ++b;
        cell_next_[c] = b;
        if (b == end) continue;
        const std::size_t m = end - b;
        const double* x = slot_x_.data() + b;
        const double* y = slot_y_.data() + b;
        const double* z = slot_z_.data() + b;
        double* r2 = r2_.data();
        // Box::min_image and util::norm2 on pos[i] - pos[j], operation
        // for operation, so the kept pairs match them bit for bit.
#pragma omp simd
        for (std::size_t k = 0; k < m; ++k) {
          double dx = xi - x[k];
          double dy = yi - y[k];
          double dz = zi - z[k];
          dx -= lx * round_half_even(dx / lx);
          dy -= ly * round_half_even(dy / ly);
          dz -= lz * round_half_even(dz / lz);
          r2[k] = dx * dx + dy * dy + dz * dz;
        }
        const int* js = slot_atom_.data() + b;
        for (std::size_t k = 0; k < m; ++k) {
          const std::size_t j = static_cast<std::size_t>(js[k]);
          row_bits_[j >> 6] |= static_cast<std::uint64_t>(r2[k] < range2)
                               << (j & 63);
        }
        wlo = std::min(wlo, static_cast<std::size_t>(js[0]) >> 6);
        whi = std::max(whi, static_cast<std::size_t>(js[m - 1]) >> 6);
      }
      for (const int j : topo.exclusions_of(static_cast<int>(i))) {
        const std::size_t sj = static_cast<std::size_t>(j);
        row_bits_[sj >> 6] &= ~(std::uint64_t{1} << (sj & 63));
      }
      for (std::size_t w = wlo; w <= whi; ++w) {
        std::uint64_t bits = row_bits_[w];
        row_bits_[w] = 0;
        while (bits != 0) {
          neighbors.push_back(
              static_cast<int>(w * 64 + static_cast<std::size_t>(
                                            std::countr_zero(bits))));
          bits &= bits - 1;
        }
      }
    }
    offsets[i + 1] = neighbors.size();
  }
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
