#include "pme/pme.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>

#include "pme/bspline.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace repro::pme {

namespace {

using md::Box;
using md::Topology;
using util::Vec3;

// Per-atom spline data in the three dimensions.
struct AtomSpline {
  int k0[3];                      // floor of the fractional grid coordinate
  double w[3][kMaxOrder];         // weights per dimension
  double dw[3][kMaxOrder];        // derivatives per dimension
};

// Fractional grid coordinate in [0, n).
double frac_coord(double x, double box_len, std::size_t n) {
  double u = x / box_len * static_cast<double>(n);
  u -= std::floor(u / static_cast<double>(n)) * static_cast<double>(n);
  if (u >= static_cast<double>(n)) u -= static_cast<double>(n);
  return u;
}

AtomSpline make_spline(const PmeParams& p, const Box& box, const Vec3& r) {
  AtomSpline s;
  const double lens[3] = {box.lx(), box.ly(), box.lz()};
  const std::size_t dims[3] = {p.nx, p.ny, p.nz};
  const double coords[3] = {r.x, r.y, r.z};
  for (int d = 0; d < 3; ++d) {
    const double u = frac_coord(coords[d], lens[d], dims[d]);
    const double k0 = std::floor(u);
    s.k0[d] = static_cast<int>(k0);
    bspline_weights(p.order, u - k0, s.w[d], s.dw[d]);
  }
  return s;
}

// Grid line index of stencil point j in dimension d.
inline std::size_t line(const AtomSpline& s, int d, int j, std::size_t n) {
  int k = s.k0[d] - j;
  if (k < 0) k += static_cast<int>(n);
  return static_cast<std::size_t>(k);
}

// Influence factor for wavevector (mx, my, mz):
//   kCoulomb/(pi V) * exp(-pi^2 mhat^2 / beta^2) / mhat^2 * B(m),
// the multiplier applied to |Q^(m)|^2 / 2 for the energy (Essmann eq. 4.7).
struct Influence {
  Influence(const PmeParams& p, const Box& box, const std::vector<double>& bx,
            const std::vector<double>& by, const std::vector<double>& bz)
      : p_(p), box_(box), bx_(bx), by_(by), bz_(bz) {}

  double operator()(std::size_t mx, std::size_t my, std::size_t mz) const {
    if (mx == 0 && my == 0 && mz == 0) return 0.0;
    auto wrap = [](std::size_t m, std::size_t n) {
      const auto mi = static_cast<double>(m);
      return m > n / 2 ? mi - static_cast<double>(n) : mi;
    };
    const double hx = wrap(mx, p_.nx) / box_.lx();
    const double hy = wrap(my, p_.ny) / box_.ly();
    const double hz = wrap(mz, p_.nz) / box_.lz();
    const double m2 = hx * hx + hy * hy + hz * hz;
    const double pi = std::numbers::pi;
    const double expo = std::exp(-pi * pi * m2 / (p_.beta * p_.beta));
    return units::kCoulomb / (pi * box_.volume()) * expo / m2 * bx_[mx] *
           by_[my] * bz_[mz];
  }

  // Factors of the wavevector block x in [x0, x0 + cx), y in [y0, y0 + cy),
  // all z, laid out [x][y][z] (the serial grid and stage-3 pencil order).
  std::vector<double> z_lines(std::size_t x0, std::size_t cx, std::size_t y0,
                              std::size_t cy) const {
    std::vector<double> table(cx * cy * p_.nz);
    for (std::size_t xl = 0; xl < cx; ++xl) {
      for (std::size_t yl = 0; yl < cy; ++yl) {
        for (std::size_t mz = 0; mz < p_.nz; ++mz) {
          table[(xl * cy + yl) * p_.nz + mz] = (*this)(x0 + xl, y0 + yl, mz);
        }
      }
    }
    return table;
  }

 private:
  const PmeParams& p_;
  const Box& box_;
  const std::vector<double>& bx_;
  const std::vector<double>& by_;
  const std::vector<double>& bz_;
};

}  // namespace

WrappedRuns wrapped_runs(std::size_t start, std::size_t count, std::size_t n,
                         std::size_t b, std::size_t e) {
  REPRO_REQUIRE(start < n && count <= n,
                "wrapped plane interval must start on the grid and span at "
                "most the whole dimension");
  WrappedRuns out;
  auto add = [&](std::size_t local, std::size_t plane, std::size_t hi) {
    if (hi > plane) out.runs[out.size++] = {local, plane, hi - plane};
  };
  // Before the wrap: k in [0, n - start) on planes start + k.
  const std::size_t head = std::min(count, n - start);
  const std::size_t lo = std::max(start, b);
  add(lo - start, lo, std::min(start + head, e));
  // After it: k in [n - start, count) on planes k - (n - start).
  if (count > head) add(n - start + b, b, std::min(count - head, e));
  return out;
}

std::size_t wrapped_overlap(std::size_t start, std::size_t count,
                            std::size_t n, std::size_t b, std::size_t e) {
  return wrapped_runs(start, count, n, b, e).total();
}

double ewald_self_energy(const Topology& topo, double beta) {
  double q2 = 0.0;
  for (int i = 0; i < topo.natoms(); ++i) {
    const double q = topo.atom(i).charge;
    q2 += q * q;
  }
  return -units::kCoulomb * beta / std::sqrt(std::numbers::pi) * q2;
}

double ewald_exclusion_correction(const Topology& topo, const Box& box,
                                  const std::vector<Vec3>& pos, double beta,
                                  std::vector<Vec3>& forces,
                                  const md::WorkSlice& slice) {
  slice.require_atoms(pos.size());
  double energy = 0.0;
  md::for_each_term(topo.excluded_pairs(), slice,
                    [&](const std::pair<int, int>& pair) {
    const auto [i, j] = pair;
    const double qq =
        units::kCoulomb * topo.atom(i).charge * topo.atom(j).charge;
    if (qq == 0.0) return;
    const Vec3 d = box.min_image(pos[static_cast<std::size_t>(i)] -
                                 pos[static_cast<std::size_t>(j)]);
    const double r = util::norm(d);
    const double br = beta * r;
    const double erf_br = std::erf(br);
    energy -= qq * erf_br / r;
    // E = -qq erf(br)/r; dE/dr = -qq [2b/sqrt(pi) e^{-b^2r^2}/r - erf/r^2].
    const double dEdr =
        -qq * (2.0 * beta / std::sqrt(std::numbers::pi) *
                   std::exp(-br * br) / r -
               erf_br / (r * r));
    const Vec3 f = d * (-dEdr / r);
    forces[static_cast<std::size_t>(i)] += f;
    forces[static_cast<std::size_t>(j)] -= f;
  });
  return energy;
}

// --- SerialPme --------------------------------------------------------------

SerialPme::SerialPme(const PmeParams& params, const Box& box,
                     util::KernelKind /*kind*/)
    : params_(params),
      box_(box),
      fft_(params.nx, params.ny, params.nz),
      modx_(bspline_moduli(params.nx, params.order)),
      mody_(bspline_moduli(params.ny, params.order)),
      modz_(bspline_moduli(params.nz, params.order)),
      grid_(params.nx * params.ny * params.nz) {
  influence_ = Influence(params_, box_, modx_, mody_, modz_)
                   .z_lines(0, params_.nx, 0, params_.ny);
}

// Spline construction is batched across atoms (bspline_weights_batch, SoA
// lanes), and spreading/interpolation go through a real staging grid with
// contiguous descending z-tap inner loops when the stencil does not wrap.
// Per atom, the arithmetic is that of a plain stencil loop term for term
// (q * wx * wy * wz when spreading; interpolation sums in jx, jy, jz
// order), which is what the digests in tests/pme_test.cpp pin.
double SerialPme::reciprocal(const Topology& topo,
                             const std::vector<Vec3>& pos,
                             std::vector<Vec3>& forces, PmeWork* work) {
  const auto n = static_cast<std::size_t>(topo.natoms());
  REPRO_REQUIRE(pos.size() == n, "position array size mismatch");
  const int order = params_.order;
  const std::size_t dims[3] = {params_.nx, params_.ny, params_.nz};
  const double lens[3] = {box_.lx(), box_.ly(), box_.lz()};
  const std::size_t ny = params_.ny;
  const std::size_t nz = params_.nz;

  for (int d = 0; d < 3; ++d) {
    sfrac_[d].resize(n);
    sk0_[d].resize(n);
    sw_[d].resize(static_cast<std::size_t>(kMaxOrder) * n);
    sdw_[d].resize(static_cast<std::size_t>(kMaxOrder) * n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double coords[3] = {pos[i].x, pos[i].y, pos[i].z};
    for (int d = 0; d < 3; ++d) {
      const double u = frac_coord(coords[d], lens[d], dims[d]);
      const double k0 = std::floor(u);
      sk0_[d][i] = static_cast<int>(k0);
      sfrac_[d][i] = u - k0;
    }
  }
  for (int d = 0; d < 3; ++d) {
    bspline_weights_batch(order, sfrac_[d].data(), n, sw_[d].data(),
                          sdw_[d].data());
  }

  // Charge spreading through the real staging grid.
  rgrid_.assign(grid_.size(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double q = topo.atom(static_cast<int>(i)).charge;
    if (q == 0.0) continue;
    const int k0z = sk0_[2][i];
    double wz[kMaxOrder];
    for (int jz = 0; jz < order; ++jz) {
      wz[jz] = sw_[2][static_cast<std::size_t>(jz) * n + i];
    }
    for (int jx = 0; jx < order; ++jx) {
      int kx = sk0_[0][i] - jx;
      if (kx < 0) kx += static_cast<int>(dims[0]);
      const double wxv = sw_[0][static_cast<std::size_t>(jx) * n + i];
      for (int jy = 0; jy < order; ++jy) {
        int ky = sk0_[1][i] - jy;
        if (ky < 0) ky += static_cast<int>(dims[1]);
        const double wxy =
            q * wxv * sw_[1][static_cast<std::size_t>(jy) * n + i];
        double* row =
            rgrid_.data() +
            (static_cast<std::size_t>(kx) * ny + static_cast<std::size_t>(ky)) *
                nz;
        if (k0z >= order - 1) {
          // Non-wrapping stencil: taps k0z, k0z-1, ... are contiguous.
          double* tap = row + k0z;
#pragma omp simd
          for (int jz = 0; jz < order; ++jz) tap[-jz] += wxy * wz[jz];
        } else {
          for (int jz = 0; jz < order; ++jz) {
            int kz = k0z - jz;
            if (kz < 0) kz += static_cast<int>(nz);
            row[kz] += wxy * wz[jz];
          }
        }
      }
    }
  }
#pragma omp simd
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    grid_[i] = fft::Complex(rgrid_[i], 0.0);
  }

  fft_.forward(grid_.data());

  // Convolution + energy. K compensates the normalized inverse so the
  // real-space grid is the unnormalized convolution (the potential phi).
  const auto K = static_cast<double>(grid_.size());
  double energy = 0.0;
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    const double f = influence_[i];
    energy += 0.5 * f * std::norm(grid_[i]);
    grid_[i] *= f * K;
  }

  fft_.inverse(grid_.data());

#pragma omp simd
  for (std::size_t i = 0; i < grid_.size(); ++i) rgrid_[i] = grid_[i].real();

  // Force interpolation from the real potential grid. The jz accumulation
  // stays a plain loop (no reduction pragma) so the three force sums add
  // in exactly the scalar order.
  const double sx = static_cast<double>(params_.nx) / box_.lx();
  const double sy = static_cast<double>(params_.ny) / box_.ly();
  const double sz = static_cast<double>(params_.nz) / box_.lz();
  for (std::size_t i = 0; i < n; ++i) {
    const double q = topo.atom(static_cast<int>(i)).charge;
    if (q == 0.0) continue;
    const int k0z = sk0_[2][i];
    double wz[kMaxOrder];
    double dwz[kMaxOrder];
    for (int jz = 0; jz < order; ++jz) {
      wz[jz] = sw_[2][static_cast<std::size_t>(jz) * n + i];
      dwz[jz] = sdw_[2][static_cast<std::size_t>(jz) * n + i];
    }
    Vec3 f{};
    for (int jx = 0; jx < order; ++jx) {
      int kx = sk0_[0][i] - jx;
      if (kx < 0) kx += static_cast<int>(dims[0]);
      const double wxv = sw_[0][static_cast<std::size_t>(jx) * n + i];
      const double dwxv = sdw_[0][static_cast<std::size_t>(jx) * n + i];
      for (int jy = 0; jy < order; ++jy) {
        int ky = sk0_[1][i] - jy;
        if (ky < 0) ky += static_cast<int>(dims[1]);
        const double wyv = sw_[1][static_cast<std::size_t>(jy) * n + i];
        const double dwyv = sdw_[1][static_cast<std::size_t>(jy) * n + i];
        const double* row =
            rgrid_.data() +
            (static_cast<std::size_t>(kx) * ny + static_cast<std::size_t>(ky)) *
                nz;
        if (k0z >= order - 1) {
          const double* tap = row + k0z;
          for (int jz = 0; jz < order; ++jz) {
            const double phi = tap[-jz];
            f.x += dwxv * wyv * wz[jz] * phi;
            f.y += wxv * dwyv * wz[jz] * phi;
            f.z += wxv * wyv * dwz[jz] * phi;
          }
        } else {
          for (int jz = 0; jz < order; ++jz) {
            int kz = k0z - jz;
            if (kz < 0) kz += static_cast<int>(nz);
            const double phi = row[kz];
            f.x += dwxv * wyv * wz[jz] * phi;
            f.y += wxv * dwyv * wz[jz] * phi;
            f.z += wxv * wyv * dwz[jz] * phi;
          }
        }
      }
    }
    forces[i] -= Vec3{f.x * sx, f.y * sy, f.z * sz} * q;
  }

  if (work != nullptr) {
    work->atoms_spread += n;
    work->stencil_points +=
        2 * n * static_cast<std::size_t>(order * order * order);
    work->mesh_points += grid_.size();
    work->fft_flops += 2.0 * fft_.flops();
  }
  return energy;
}

// --- ParallelPme -------------------------------------------------------------

ParallelPme::ParallelPme(const PmeParams& params, const Box& box,
                         middleware::Middleware& mw,
                         std::function<void(double)> charge_compute)
    : params_(params),
      box_(box),
      mw_(mw),
      charge_(std::move(charge_compute)),
      pfft_(params.nx, params.ny, params.nz, mw, charge_),
      modx_(bspline_moduli(params.nx, params.order)),
      mody_(bspline_moduli(params.ny, params.order)),
      modz_(bspline_moduli(params.nz, params.order)),
      xslab_(pfft_.x_slab_size()),
      zslab_(pfft_.z_slab_size()) {
  // Influence factors of my z-planes of k-space, in z-slab order.
  const Influence fac(params_, box_, modx_, mody_, modz_);
  const std::size_t zb = pfft_.z_slabs().begin(mw_.rank());
  influence_.resize(zslab_.size());
  for (std::size_t zl = 0; zl < pfft_.local_z_count(); ++zl) {
    for (std::size_t my = 0; my < params_.ny; ++my) {
      for (std::size_t mx = 0; mx < params_.nx; ++mx) {
        influence_[(zl * params_.ny + my) * params_.nx + mx] =
            fac(mx, my, zb + zl);
      }
    }
  }
}

double ParallelPme::reciprocal(const Topology& topo,
                               const std::vector<Vec3>& pos,
                               std::vector<Vec3>& forces, PmeWork* work) {
  const auto n = static_cast<std::size_t>(topo.natoms());
  REPRO_REQUIRE(pos.size() == n, "position array size mismatch");
  const int order = params_.order;
  const int me = mw_.rank();
  const std::size_t xb = pfft_.x_slabs().begin(me);
  const std::size_t xe = pfft_.x_slabs().end(me);
  const auto K =
      static_cast<double>(params_.nx * params_.ny * params_.nz);

  // Whether atom i's x-stencil intersects my slab: a cheap rejection on
  // the x coordinate before computing full splines.
  auto touches_slab = [&](std::size_t i) {
    const double ux = frac_coord(pos[i].x, box_.lx(), params_.nx);
    const int k0x = static_cast<int>(std::floor(ux));
    for (int jx = 0; jx < order; ++jx) {
      int kx = k0x - jx;
      if (kx < 0) kx += static_cast<int>(params_.nx);
      if (static_cast<std::size_t>(kx) >= xb &&
          static_cast<std::size_t>(kx) < xe) {
        return true;
      }
    }
    return false;
  };
  // Calls visit(slab index, jx, jy, jz) for the stencil points of s on my
  // x-planes, in (jx, jy, jz) order.
  auto for_each_slab_tap = [&](const AtomSpline& s, auto visit) {
    for (int jx = 0; jx < order; ++jx) {
      const std::size_t kx = line(s, 0, jx, params_.nx);
      if (kx < xb || kx >= xe) continue;
      const std::size_t lx = kx - xb;
      for (int jy = 0; jy < order; ++jy) {
        const std::size_t ky = line(s, 1, jy, params_.ny);
        for (int jz = 0; jz < order; ++jz) {
          const std::size_t kz = line(s, 2, jz, params_.nz);
          visit((lx * params_.ny + ky) * params_.nz + kz, jx, jy, jz);
        }
      }
    }
  };

  // Spread the charges of every atom whose x-stencil intersects my slab,
  // onto the owned x-planes only. Positions are replicated, so no
  // communication is needed here; boundary atoms are handled by the slabs
  // on both sides, each accumulating its own planes.
  std::fill(xslab_.begin(), xslab_.end(), fft::Complex(0, 0));
  std::size_t atoms_touched = 0;
  std::size_t stencil = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double q = topo.atom(static_cast<int>(i)).charge;
    if (q == 0.0) continue;
    if (!touches_slab(i)) continue;
    ++atoms_touched;
    const AtomSpline s = make_spline(params_, box_, pos[i]);
    for_each_slab_tap(s, [&](std::size_t at, int jx, int jy, int jz) {
      xslab_[at] += q * s.w[0][jx] * s.w[1][jy] * s.w[2][jz];
      ++stencil;
    });
  }
  if (charge_) {
    // ~6 flops per atom for the rejection test, ~20 per stencil update.
    charge_(6.0 * static_cast<double>(n) + 20.0 * static_cast<double>(stencil));
  }

  pfft_.forward(xslab_.data(), zslab_.data());

  // Convolution over my z-planes of k-space; z-slab layout is [lz][ny][nx].
  const std::size_t lz = pfft_.local_z_count();
  double energy = 0.0;
  for (std::size_t i = 0; i < zslab_.size(); ++i) {
    const double f = influence_[i];
    energy += 0.5 * f * std::norm(zslab_[i]);
    zslab_[i] *= f * K;
  }
  if (charge_) {
    charge_(12.0 * static_cast<double>(lz * params_.ny * params_.nx));
  }

  pfft_.backward(zslab_.data(), xslab_.data());

  // Force interpolation over owned x-planes; partial sums are completed by
  // the global force reduction.
  const double sx = static_cast<double>(params_.nx) / box_.lx();
  const double sy = static_cast<double>(params_.ny) / box_.ly();
  const double sz = static_cast<double>(params_.nz) / box_.lz();
  std::size_t interp_stencil = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double q = topo.atom(static_cast<int>(i)).charge;
    if (q == 0.0) continue;
    if (!touches_slab(i)) continue;
    const AtomSpline s = make_spline(params_, box_, pos[i]);
    Vec3 f{};
    for_each_slab_tap(s, [&](std::size_t at, int jx, int jy, int jz) {
      const double phi = xslab_[at].real();
      f.x += s.dw[0][jx] * s.w[1][jy] * s.w[2][jz] * phi;
      f.y += s.w[0][jx] * s.dw[1][jy] * s.w[2][jz] * phi;
      f.z += s.w[0][jx] * s.w[1][jy] * s.dw[2][jz] * phi;
      ++interp_stencil;
    });
    forces[i] -= Vec3{f.x * sx, f.y * sy, f.z * sz} * q;
  }
  if (charge_) {
    charge_(6.0 * static_cast<double>(n) +
            22.0 * static_cast<double>(interp_stencil));
  }

  if (work != nullptr) {
    work->atoms_spread += atoms_touched;
    work->stencil_points += stencil + interp_stencil;
    work->mesh_points += lz * params_.ny * params_.nx;
  }
  return energy;
}

// --- PencilPme ---------------------------------------------------------------

PencilPme::PencilPme(const PmeParams& params, const Box& box, mpi::Comm& comm,
                     int py, int pz, std::vector<GridRegion> regions,
                     std::function<void(double)> charge_compute)
    : params_(params),
      box_(box),
      comm_(comm),
      charge_(std::move(charge_compute)),
      pfft_(fft::PencilGrid(params.nx, params.ny, params.nz, py, pz), comm,
            charge_),
      regions_(std::move(regions)),
      modx_(bspline_moduli(params.nx, params.order)),
      mody_(bspline_moduli(params.ny, params.order)),
      modz_(bspline_moduli(params.nz, params.order)) {
  REPRO_REQUIRE(regions_.size() == static_cast<std::size_t>(comm_.size()),
                "pencil PME needs one grid region per rank");
  REPRO_REQUIRE(py * pz <= comm_.size(),
                "pencil process grid needs more ranks than the run has");
  const std::size_t dims[3] = {params.nx, params.ny, params.nz};
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const GridRegion& rr = regions_[r];
    if (rr.empty()) continue;
    const std::size_t starts[3] = {rr.x0, rr.y0, rr.z0};
    const std::size_t counts[3] = {rr.cx, rr.cy, rr.cz};
    for (int d = 0; d < 3; ++d) {
      REPRO_REQUIRE(starts[d] < dims[d] && counts[d] <= dims[d],
                    "pencil PME: rank " + std::to_string(r) +
                        "'s grid region leaves the grid in " +
                        "xyz"[d] + " (start " + std::to_string(starts[d]) +
                        ", count " + std::to_string(counts[d]) +
                        ", planes " + std::to_string(dims[d]) + ")");
    }
  }
  const int me = comm_.rank();
  const GridRegion& reg = my_region();
  region_.resize(reg.cx * reg.cy * reg.cz);
  stage1_.resize(pfft_.grid().stage1_size(me));
  stage3_.resize(pfft_.grid().stage3_size(me));
  // Influence factors of my stage-3 pencils (x in Xp(yc), y in Y2p(zc),
  // all z), in stage-3 order; empty on non-participants.
  const fft::PencilGrid& g = pfft_.grid();
  if (g.participates(me)) {
    const int yc = g.ycoord(me);
    const int zc = g.zcoord(me);
    influence_ = Influence(params_, box_, modx_, mody_, modz_)
                     .z_lines(g.xpart.begin(yc), g.xpart.count(yc),
                              g.y2part.begin(zc), g.y2part.count(zc));
  }
}

namespace {

// The overlap of region `rr` with pencil owner q's stage-1 (y, z) planes:
// all of the region's x extent times the wrapped y and z runs that land
// on q's pencil (none when rr is empty or q owns no pencil). for_each
// calls visit(ri, si) for every point in region-local (x, y, z) order:
// ri indexes the region buffer, si q's stage-1 pencils. It walks only the
// runs, so a call costs O(points shipped). Both plane exchanges size,
// pack and unpack through this one walk, so sender and receiver agree on
// the element count and order by construction.
class PlaneOverlap {
 public:
  PlaneOverlap(const fft::PencilGrid& g, const GridRegion& rr, int q)
      : g_(g), rr_(rr) {
    if (rr.empty() || !g.participates(q)) return;
    const int yc = g.ycoord(q);
    const int zc = g.zcoord(q);
    yb_ = g.ypart.begin(yc);
    zb_ = g.zpart.begin(zc);
    lz1_ = g.zpart.count(zc);
    y_ = wrapped_runs(rr.y0, rr.cy, g.ny, yb_, g.ypart.end(yc));
    z_ = wrapped_runs(rr.z0, rr.cz, g.nz, zb_, g.zpart.end(zc));
  }

  // The number of points for_each visits (the predictor's count).
  std::size_t elems() const { return rr_.cx * y_.total() * z_.total(); }

  template <class Visit>
  void for_each(Visit&& visit) const {
    const std::size_t nx = g_.nx;
    for (std::size_t xl = 0; xl < rr_.cx; ++xl) {
      const std::size_t x = (rr_.x0 + xl) % nx;
      for (const WrappedRun& yr : y_) {
        for (std::size_t j = 0; j < yr.len; ++j) {
          const std::size_t row = (xl * rr_.cy + yr.local + j) * rr_.cz;
          const std::size_t plane = (yr.plane + j - yb_) * lz1_;
          for (const WrappedRun& zr : z_) {
            const std::size_t ri = row + zr.local;
            const std::size_t si = (plane + zr.plane - zb_) * nx + x;
            for (std::size_t k = 0; k < zr.len; ++k) {
              visit(ri + k, si + k * nx);
            }
          }
        }
      }
    }
  }

 private:
  const fft::PencilGrid& g_;
  const GridRegion& rr_;
  std::size_t yb_ = 0, zb_ = 0, lz1_ = 0;
  WrappedRuns y_, z_;
};

// Packs value(ri, si) over `ov` into buf, sized once; returns the element
// count.
template <class Value>
std::size_t pack_overlap(const PlaneOverlap& ov, std::vector<double>& buf,
                         Value value) {
  const std::size_t n = ov.elems();
  if (buf.size() < n) buf.resize(n);
  std::size_t i = 0;
  ov.for_each([&](std::size_t ri, std::size_t si) { buf[i++] = value(ri, si); });
  return n;
}

// Hands buf's elements, in walk order, to store(ri, si, value); returns
// the element count.
template <class Store>
std::size_t unpack_overlap(const PlaneOverlap& ov,
                           const std::vector<double>& buf, Store store) {
  std::size_t i = 0;
  ov.for_each([&](std::size_t ri, std::size_t si) { store(ri, si, buf[i++]); });
  return i;
}

}  // namespace

// Charge plane exchange: every rank ships, for each stage-1 pencil owner
// q, the part of its spread region that lands on q's (y, z) planes.
// Receivers ACCUMULATE: neighbor regions overlap by the stencil pad, and
// each atom is spread exactly once (by its owner), so summing the blocks
// reconstructs the full charge grid. Self blocks are local copies; the
// all-sends-then-all-recvs order is deadlock-free under eager sends.
void PencilPme::exchange_charges(int tag) {
  const int me = comm_.rank();
  const int nprocs = comm_.size();
  const fft::PencilGrid& g = pfft_.grid();
  const GridRegion& reg = my_region();
  std::fill(stage1_.begin(), stage1_.end(), fft::Complex(0, 0));
  std::size_t moved = 0;

  const PlaneOverlap self(g, reg, me);
  self.for_each([&](std::size_t ri, std::size_t si) {
    stage1_[si] += region_[ri];
  });
  moved += 2 * self.elems();
  if (!reg.empty()) {
    for (int q = 0; q < nprocs; ++q) {
      if (q == me) continue;
      const PlaneOverlap ov(g, reg, q);
      if (ov.elems() == 0) continue;
      const std::size_t n = pack_overlap(
          ov, msgbuf_,
          [&](std::size_t ri, std::size_t) { return region_[ri]; });
      comm_.send(q, tag, msgbuf_.data(), n * sizeof(double));
      moved += n;
    }
  }
  if (g.participates(me)) {
    for (int r = 0; r < nprocs; ++r) {
      if (r == me) continue;
      const PlaneOverlap ov(g, regions_[static_cast<std::size_t>(r)], me);
      const std::size_t n = ov.elems();
      if (n == 0) continue;
      if (msgbuf_.size() < n) msgbuf_.resize(n);
      comm_.recv(r, tag, msgbuf_.data(), n * sizeof(double));
      moved += unpack_overlap(
          ov, msgbuf_,
          [&](std::size_t, std::size_t si, double v) { stage1_[si] += v; });
    }
  }
  charge(static_cast<double>(moved));  // ~1 flop per packed/unpacked element
}

// Potential plane exchange: the reverse direction with identical block
// geometry — each stage-1 owner returns the real part of the transformed
// grid to every region that overlaps its pencils. The (y, z) pencils tile
// the grid, so every region point is WRITTEN by exactly one owner and the
// receiver assigns instead of accumulating.
void PencilPme::return_potential(int tag) {
  const int me = comm_.rank();
  const int nprocs = comm_.size();
  const fft::PencilGrid& g = pfft_.grid();
  const GridRegion& reg = my_region();
  std::size_t moved = 0;

  const PlaneOverlap self(g, reg, me);
  self.for_each([&](std::size_t ri, std::size_t si) {
    region_[ri] = stage1_[si].real();
  });
  moved += 2 * self.elems();
  if (g.participates(me)) {
    for (int r = 0; r < nprocs; ++r) {
      if (r == me) continue;
      const PlaneOverlap ov(g, regions_[static_cast<std::size_t>(r)], me);
      if (ov.elems() == 0) continue;
      const std::size_t n = pack_overlap(
          ov, msgbuf_,
          [&](std::size_t, std::size_t si) { return stage1_[si].real(); });
      comm_.send(r, tag, msgbuf_.data(), n * sizeof(double));
      moved += n;
    }
  }
  if (!reg.empty()) {
    for (int q = 0; q < nprocs; ++q) {
      if (q == me) continue;
      const PlaneOverlap ov(g, reg, q);
      const std::size_t n = ov.elems();
      if (n == 0) continue;
      if (msgbuf_.size() < n) msgbuf_.resize(n);
      comm_.recv(q, tag, msgbuf_.data(), n * sizeof(double));
      moved += unpack_overlap(
          ov, msgbuf_,
          [&](std::size_t ri, std::size_t, double v) { region_[ri] = v; });
    }
  }
  charge(static_cast<double>(moved));
}

double PencilPme::reciprocal(const Topology& topo,
                             const std::vector<Vec3>& pos,
                             const std::vector<int>& owned,
                             std::vector<Vec3>& forces, int tag_base,
                             PmeWork* work) {
  REPRO_REQUIRE(pos.size() == static_cast<std::size_t>(topo.natoms()),
                "position array size mismatch");
  const int order = params_.order;
  const fft::PencilGrid& g = pfft_.grid();
  const int me = comm_.rank();
  const GridRegion& reg = my_region();
  const auto K = static_cast<double>(params_.nx * params_.ny * params_.nz);
  const std::size_t dims[3] = {params_.nx, params_.ny, params_.nz};
  const std::size_t starts[3] = {reg.x0, reg.y0, reg.z0};
  const std::size_t counts[3] = {reg.cx, reg.cy, reg.cz};

  // Spread the owned atoms onto my region planes. The region was sized so
  // an owned atom's whole stencil fits (cell extent + spline support +
  // skin drift pad); the REQUIRE turns a violated pad into a loud failure
  // instead of silently wrong physics.
  std::fill(region_.begin(), region_.end(), 0.0);
  std::vector<AtomSpline> splines(owned.size());
  std::size_t atoms_touched = 0;
  std::size_t stencil = 0;
  for (std::size_t oi = 0; oi < owned.size(); ++oi) {
    const int i = owned[oi];
    const double q = topo.atom(i).charge;
    if (q == 0.0) continue;
    ++atoms_touched;
    const AtomSpline s =
        make_spline(params_, box_, pos[static_cast<std::size_t>(i)]);
    splines[oi] = s;
    std::size_t off[3][kMaxOrder];
    for (int d = 0; d < 3; ++d) {
      for (int j = 0; j < order; ++j) {
        const std::size_t k = line(s, d, j, dims[d]);
        const std::size_t o = (k + dims[d] - starts[d]) % dims[d];
        REPRO_REQUIRE(o < counts[d],
                      "owned atom's PME stencil left its rank's grid region "
                      "(stencil pad too small for this drift)");
        off[d][j] = o;
      }
    }
    for (int jx = 0; jx < order; ++jx) {
      for (int jy = 0; jy < order; ++jy) {
        const double wxy = q * s.w[0][jx] * s.w[1][jy];
        const std::size_t base = (off[0][jx] * reg.cy + off[1][jy]) * reg.cz;
        for (int jz = 0; jz < order; ++jz) {
          region_[base + off[2][jz]] += wxy * s.w[2][jz];
          ++stencil;
        }
      }
    }
  }
  charge(6.0 * static_cast<double>(owned.size()) +
         20.0 * static_cast<double>(stencil));

  exchange_charges(tag_base + 0);
  pfft_.forward(stage1_.data(), stage3_.data(), tag_base + 1, tag_base + 2);

  // Convolution + partial energy over my stage-3 pencils: x in Xp(yc),
  // y in Y2p(zc), all z — each wavevector on exactly one rank.
  double energy = 0.0;
  std::size_t mesh = 0;
  if (g.participates(me)) {
    for (std::size_t i = 0; i < stage3_.size(); ++i) {
      const double f = influence_[i];
      energy += 0.5 * f * std::norm(stage3_[i]);
      stage3_[i] *= f * K;
    }
    mesh = stage3_.size();
    charge(12.0 * static_cast<double>(mesh));
  }

  pfft_.backward(stage3_.data(), stage1_.data(), tag_base + 3, tag_base + 4);
  return_potential(tag_base + 5);

  // Force interpolation for owned atoms only: the whole stencil is inside
  // the region, so the force on an owned atom is complete right here — no
  // reciprocal-force reduction follows.
  const double sx = static_cast<double>(params_.nx) / box_.lx();
  const double sy = static_cast<double>(params_.ny) / box_.ly();
  const double sz = static_cast<double>(params_.nz) / box_.lz();
  std::size_t interp_stencil = 0;
  for (std::size_t oi = 0; oi < owned.size(); ++oi) {
    const int i = owned[oi];
    const double q = topo.atom(i).charge;
    if (q == 0.0) continue;
    const AtomSpline& s = splines[oi];
    Vec3 f{};
    for (int jx = 0; jx < order; ++jx) {
      const std::size_t ox =
          (line(s, 0, jx, params_.nx) + params_.nx - reg.x0) % params_.nx;
      for (int jy = 0; jy < order; ++jy) {
        const std::size_t oy =
            (line(s, 1, jy, params_.ny) + params_.ny - reg.y0) % params_.ny;
        const std::size_t base = (ox * reg.cy + oy) * reg.cz;
        for (int jz = 0; jz < order; ++jz) {
          const std::size_t oz =
              (line(s, 2, jz, params_.nz) + params_.nz - reg.z0) % params_.nz;
          const double phi = region_[base + oz];
          f.x += s.dw[0][jx] * s.w[1][jy] * s.w[2][jz] * phi;
          f.y += s.w[0][jx] * s.dw[1][jy] * s.w[2][jz] * phi;
          f.z += s.w[0][jx] * s.w[1][jy] * s.dw[2][jz] * phi;
          ++interp_stencil;
        }
      }
    }
    forces[static_cast<std::size_t>(i)] -=
        Vec3{f.x * sx, f.y * sy, f.z * sz} * q;
  }
  charge(6.0 * static_cast<double>(owned.size()) +
         22.0 * static_cast<double>(interp_stencil));

  if (work != nullptr) {
    work->atoms_spread += atoms_touched;
    work->stencil_points += stencil + interp_stencil;
    work->mesh_points += mesh;
    work->fft_flops += 2.0 * pfft_.local_fft_flops();
  }
  return energy;
}

}  // namespace repro::pme
