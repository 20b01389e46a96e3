#include "pme/pme.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>
#include <string>

#include "pme/bspline.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace repro::pme {

namespace {

using md::Box;
using md::Topology;
using util::Vec3;

// Fractional grid coordinate in [0, n) of coordinate x of `atom` along
// `axis`. Checked before the caller casts its floor to a grid line: a NaN
// or infinite x wraps to NaN, whose cast is undefined.
double grid_coord(double x, double box_len, std::size_t n, int atom,
                  int axis) {
  const auto fn = static_cast<double>(n);
  double u = x / box_len * fn;
  u -= std::floor(u / fn) * fn;
  if (u >= fn) u -= fn;
  REPRO_REQUIRE(u >= 0.0 && u < fn,
                "PME: atom " + std::to_string(atom) + "'s " + "xyz"[axis] +
                    " coordinate (" + std::to_string(x) +
                    ") does not map onto the charge grid");
  return u;
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
  // z in [0, cz), laid out [x][y][z] (the serial half spectrum's order with
  // cz = nz/2 + 1, the stage-3 pencils' with cz = nz).
  std::vector<double> z_lines(std::size_t x0, std::size_t cx, std::size_t y0,
                              std::size_t cy, std::size_t cz) const {
    std::vector<double> table(cx * cy * cz);
    for (std::size_t xl = 0; xl < cx; ++xl) {
      for (std::size_t yl = 0; yl < cy; ++yl) {
        for (std::size_t mz = 0; mz < cz; ++mz) {
          table[(xl * cy + yl) * cz + mz] = (*this)(x0 + xl, y0 + yl, mz);
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

// --- SplineStencil ----------------------------------------------------------

SplineStencil::SplineStencil(const PmeParams& params, const Box& box)
    : order_(params.order),
      dims_{params.nx, params.ny, params.nz},
      lens_{box.lx(), box.ly(), box.lz()} {}

void SplineStencil::load(const Topology& topo, const std::vector<Vec3>& pos,
                         const std::vector<int>& atoms) {
  atom_.clear();
  q_.clear();
  for (const int i : atoms) {
    const double q = topo.atom(i).charge;
    if (q == 0.0) continue;
    atom_.push_back(i);
    q_.push_back(q);
  }
  const std::size_t n = size();
  frac_.resize(n);
  for (int d = 0; d < 3; ++d) {
    k0_[d].resize(n);
    w_[d].resize(static_cast<std::size_t>(order_) * n);
    dw_[d].resize(static_cast<std::size_t>(order_) * n);
    for (std::size_t a = 0; a < n; ++a) {
      const double u =
          grid_coord(pos[static_cast<std::size_t>(atom_[a])][d], lens_[d],
                     dims_[d], atom_[a], d);
      const double k0 = std::floor(u);
      k0_[d][a] = static_cast<int>(k0);
      frac_[a] = u - k0;
    }
    bspline_weights_batch(order_, frac_.data(), n, w_[d].data(),
                          dw_[d].data());
  }
}

// The taps of loaded atom a inside a region, per dimension d: count[d]
// taps, the k-th on spline row row[d][k] (ascending) at region-local
// offset off[d][k] — line (k0 - row) mod n less the region's start, mod n.
// z_run: all `order` z taps are in the region and descend from off[2][0]
// without wrapping there, so they are one contiguous run.
struct SplineStencil::Taps {
  int count[3] = {};
  int row[3][kMaxOrder];             // entries [0, count[d]) are set
  std::size_t off[3][kMaxOrder];
  bool z_run = false;
};

SplineStencil::Taps SplineStencil::taps(std::size_t a,
                                        const GridRegion& region) const {
  const std::size_t starts[3] = {region.x0, region.y0, region.z0};
  const std::size_t counts[3] = {region.cx, region.cy, region.cz};
  Taps t;
  for (int d = 0; d < 3; ++d) {
    const auto n = static_cast<int>(dims_[d]);
    int o = k0_[d][a] - static_cast<int>(starts[d]);
    if (o < 0) o += n;
    int c = 0;
    for (int j = 0; j < order_; ++j) {
      if (static_cast<std::size_t>(o) < counts[d]) {
        t.row[d][c] = j;
        t.off[d][c++] = static_cast<std::size_t>(o);
      }
      o = (o == 0 ? n : o) - 1;
    }
    t.count[d] = c;
  }
  t.z_run = t.count[2] == order_ &&
            t.off[2][0] >= static_cast<std::size_t>(order_ - 1);
  return t;
}

std::size_t SplineStencil::spread(const GridRegion& region,
                                  double* grid) const {
  if (region.empty()) return 0;
  const int order = order_;
  std::size_t applied = 0;
  for (std::size_t a = 0; a < size(); ++a) {
    const Taps t = taps(a, region);
    const double q = q_[a];
    double wz[kMaxOrder];
    for (int k = 0; k < t.count[2]; ++k) wz[k] = w(2, t.row[2][k], a);
    for (int kx = 0; kx < t.count[0]; ++kx) {
      const double wxv = w(0, t.row[0][kx], a);
      for (int ky = 0; ky < t.count[1]; ++ky) {
        const double wxy = q * wxv * w(1, t.row[1][ky], a);
        double* line =
            grid + (t.off[0][kx] * region.cy + t.off[1][ky]) * region.cz;
        if (t.z_run) {
          double* tap = line + t.off[2][0];
#pragma omp simd
          for (int jz = 0; jz < order; ++jz) tap[-jz] += wxy * wz[jz];
        } else {
          for (int k = 0; k < t.count[2]; ++k) line[t.off[2][k]] += wxy * wz[k];
        }
      }
    }
    applied += static_cast<std::size_t>(t.count[0] * t.count[1] * t.count[2]);
  }
  return applied;
}

// The z accumulation stays a plain loop (no reduction pragma) so the
// three force sums add in exactly the scalar order.
std::size_t SplineStencil::interpolate(const GridRegion& region,
                                       const double* grid,
                                       std::vector<Vec3>& forces) const {
  if (region.empty()) return 0;
  const double sx = static_cast<double>(dims_[0]) / lens_[0];
  const double sy = static_cast<double>(dims_[1]) / lens_[1];
  const double sz = static_cast<double>(dims_[2]) / lens_[2];
  std::size_t applied = 0;
  for (std::size_t a = 0; a < size(); ++a) {
    const Taps t = taps(a, region);
    double wz[kMaxOrder];
    double dwz[kMaxOrder];
    for (int k = 0; k < t.count[2]; ++k) {
      wz[k] = w(2, t.row[2][k], a);
      dwz[k] = dw(2, t.row[2][k], a);
    }
    Vec3 f{};
    for (int kx = 0; kx < t.count[0]; ++kx) {
      const double wxv = w(0, t.row[0][kx], a);
      const double dwxv = dw(0, t.row[0][kx], a);
      for (int ky = 0; ky < t.count[1]; ++ky) {
        const double wyv = w(1, t.row[1][ky], a);
        const double dwyv = dw(1, t.row[1][ky], a);
        const double* line =
            grid + (t.off[0][kx] * region.cy + t.off[1][ky]) * region.cz;
        for (int k = 0; k < t.count[2]; ++k) {
          const double phi = line[t.off[2][k]];
          f.x += dwxv * wyv * wz[k] * phi;
          f.y += wxv * dwyv * wz[k] * phi;
          f.z += wxv * wyv * dwz[k] * phi;
        }
      }
    }
    forces[static_cast<std::size_t>(atom_[a])] -=
        Vec3{f.x * sx, f.y * sy, f.z * sz} * q_[a];
    applied += static_cast<std::size_t>(t.count[0] * t.count[1] * t.count[2]);
  }
  return applied;
}

// --- SerialPme --------------------------------------------------------------

SerialPme::SerialPme(const PmeParams& params, const Box& box,
                     util::KernelKind /*kind*/)
    : params_(params),
      box_(box),
      fft_(params.nx, params.ny, params.nz),
      fft_flops_(fft::Fft3D(params.nx, params.ny, params.nz).flops()),
      modx_(bspline_moduli(params.nx, params.order)),
      mody_(bspline_moduli(params.ny, params.order)),
      modz_(bspline_moduli(params.nz, params.order)),
      spectrum_(fft_.spectrum_size()),
      stencil_(params, box) {
  influence_ = Influence(params_, box_, modx_, mody_, modz_)
                   .z_lines(0, params_.nx, 0, params_.ny, fft_.half_nz());
}

// Spreading and interpolation run the shared stencil over a real staging
// grid, the whole-grid region, which the real-to-complex FFT transforms
// directly; the digests in tests/pme_test.cpp pin the result.
double SerialPme::reciprocal(const Topology& topo,
                             const std::vector<Vec3>& pos,
                             std::vector<Vec3>& forces, PmeWork* work) {
  const auto n = static_cast<std::size_t>(topo.natoms());
  REPRO_REQUIRE(pos.size() == n, "position array size mismatch");
  const GridRegion whole{0, params_.nx, 0, params_.ny, 0, params_.nz};
  atoms_.resize(n);
  std::iota(atoms_.begin(), atoms_.end(), 0);
  stencil_.load(topo, pos, atoms_);

  const std::size_t volume = params_.nx * params_.ny * params_.nz;
  rgrid_.assign(volume, 0.0);
  stencil_.spread(whole, rgrid_.data());

  fft_.forward(rgrid_.data(), spectrum_.data());

  // Convolution + energy on the half spectrum. The influence factor is
  // even in m, so the kz in (nz/2, nz) the half spectrum leaves out
  // repeat the energy of kz in (0, nz/2): those planes count twice, the
  // self-conjugate kz = 0 (and nz/2, nz even) once. K compensates the
  // normalized inverse so the real-space grid is the unnormalized
  // convolution (the potential phi).
  const auto K = static_cast<double>(volume);
  const std::size_t nzh = fft_.half_nz();
  double energy = 0.0;
  for (std::size_t line = 0; line < params_.nx * params_.ny; ++line) {
    fft::Complex* q = spectrum_.data() + line * nzh;
    const double* f = influence_.data() + line * nzh;
    for (std::size_t kz = 0; kz < nzh; ++kz) {
      const double half = kz == 0 || 2 * kz == params_.nz ? 0.5 : 1.0;
      energy += half * f[kz] * std::norm(q[kz]);
      q[kz] *= f[kz] * K;
    }
  }

  fft_.inverse(spectrum_.data(), rgrid_.data());
  stencil_.interpolate(whole, rgrid_.data(), forces);

  if (work != nullptr) {
    const int order = params_.order;
    work->atoms_spread += n;
    work->stencil_points +=
        2 * n * static_cast<std::size_t>(order * order * order);
    // The charge model counts the full complex transform and mesh.
    work->mesh_points += volume;
    work->fft_flops += 2.0 * fft_flops_;
  }
  return energy;
}

// --- ParallelPme -------------------------------------------------------------

ParallelPme::ParallelPme(const PmeParams& params, const Box& box,
                         middleware::Transport& transport,
                         std::function<void(double)> charge_compute)
    : params_(params),
      box_(box),
      transport_(transport),
      charge_(std::move(charge_compute)),
      pfft_(params.nx, params.ny, params.nz, transport, charge_),
      slab_{pfft_.x_slabs().begin(transport.rank()), pfft_.local_x_count(), 0,
            params.ny, 0, params.nz},
      stencil_(params, box),
      modx_(bspline_moduli(params.nx, params.order)),
      mody_(bspline_moduli(params.ny, params.order)),
      modz_(bspline_moduli(params.nz, params.order)),
      xslab_(pfft_.x_slab_size()),
      zslab_(pfft_.z_slab_size()) {
  // Influence factors of my half-spectrum planes, in z-slab order.
  const Influence fac(params_, box_, modx_, mody_, modz_);
  const std::size_t kz0 = pfft_.kz_begin(transport_.rank());
  influence_.resize(zslab_.size());
  for (std::size_t kl = 0; kl < pfft_.local_kz_count(); ++kl) {
    for (std::size_t my = 0; my < params_.ny; ++my) {
      for (std::size_t mx = 0; mx < params_.nx; ++mx) {
        influence_[(kl * params_.ny + my) * params_.nx + mx] =
            fac(mx, my, kz0 + kl);
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
  const std::size_t xb = slab_.x0;
  const std::size_t xe = slab_.x0 + slab_.cx;
  const auto K =
      static_cast<double>(params_.nx * params_.ny * params_.nz);

  // Whether atom i's x-stencil intersects my slab: a cheap rejection on
  // the x coordinate before computing full splines.
  auto touches_slab = [&](std::size_t i) {
    const double ux = grid_coord(pos[i].x, box_.lx(), params_.nx,
                                 static_cast<int>(i), 0);
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

  // Spread the charges of every atom whose x-stencil intersects my slab,
  // onto the owned x-planes only (the stencil clips the rest). Positions
  // are replicated, so no communication is needed here; boundary atoms
  // are handled by the slabs on both sides, each accumulating its own
  // planes.
  atoms_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (topo.atom(static_cast<int>(i)).charge == 0.0) continue;
    if (touches_slab(i)) atoms_.push_back(static_cast<int>(i));
  }
  stencil_.load(topo, pos, atoms_);
  std::fill(xslab_.begin(), xslab_.end(), 0.0);
  const std::size_t stencil = stencil_.spread(slab_, xslab_.data());
  if (charge_) {
    // ~6 flops per atom for the rejection test, ~20 per stencil update.
    charge_(6.0 * static_cast<double>(n) + 20.0 * static_cast<double>(stencil));
  }

  pfft_.forward(xslab_.data(), zslab_.data());

  // Convolution over my half-spectrum planes, z-slab layout [lkz][ny][nx],
  // with SerialPme's energy weights: the self-conjugate kz = 0 (and nz/2,
  // nz even) count once, every other plane twice, for its mirror
  // nz - kz. The charge model counts my complex z-planes.
  const std::size_t lz = pfft_.local_z_count();
  const std::size_t kz0 = pfft_.kz_begin(transport_.rank());
  const std::size_t plane = params_.ny * params_.nx;
  double energy = 0.0;
  for (std::size_t kl = 0; kl < pfft_.local_kz_count(); ++kl) {
    const std::size_t kz = kz0 + kl;
    const double half = kz == 0 || 2 * kz == params_.nz ? 0.5 : 1.0;
    for (std::size_t i = kl * plane; i < (kl + 1) * plane; ++i) {
      const double f = influence_[i];
      energy += half * f * std::norm(zslab_[i]);
      zslab_[i] *= f * K;
    }
  }
  if (charge_) {
    charge_(12.0 * static_cast<double>(lz * params_.ny * params_.nx));
  }

  pfft_.backward(zslab_.data(), xslab_.data());

  // Force interpolation over owned x-planes; partial sums are completed by
  // the global force reduction.
  const std::size_t interp_stencil =
      stencil_.interpolate(slab_, xslab_.data(), forces);
  if (charge_) {
    charge_(6.0 * static_cast<double>(n) +
            22.0 * static_cast<double>(interp_stencil));
  }

  if (work != nullptr) {
    work->atoms_spread += stencil_.size();
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
      stencil_(params, box),
      modx_(bspline_moduli(params.nx, params.order)),
      mody_(bspline_moduli(params.ny, params.order)),
      modz_(bspline_moduli(params.nz, params.order)) {
  REPRO_REQUIRE(py * pz <= comm_.size(),
                "pencil process grid needs more ranks than the run has");
  set_regions(std::move(regions));
  const int me = comm_.rank();
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
                              g.y2part.begin(zc), g.y2part.count(zc),
                              params_.nz);
  }
}

void PencilPme::set_regions(std::vector<GridRegion> regions) {
  REPRO_REQUIRE(regions.size() == static_cast<std::size_t>(comm_.size()),
                "pencil PME needs one grid region per rank");
  const std::size_t dims[3] = {params_.nx, params_.ny, params_.nz};
  for (std::size_t r = 0; r < regions.size(); ++r) {
    const GridRegion& rr = regions[r];
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
  regions_ = std::move(regions);
  const GridRegion& reg = my_region();
  region_.resize(reg.cx * reg.cy * reg.cz);
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

  // Spread the owned atoms onto my region planes. The region was sized so
  // an owned atom's whole stencil fits (cell extent + spline support +
  // skin drift pad); the REQUIRE turns a violated pad (a clipped tap)
  // into a loud failure instead of silently wrong physics.
  stencil_.load(topo, pos, owned);
  std::fill(region_.begin(), region_.end(), 0.0);
  const std::size_t stencil = stencil_.spread(reg, region_.data());
  REPRO_REQUIRE(stencil == stencil_.size() *
                               static_cast<std::size_t>(order * order * order),
                "owned atom's PME stencil left its rank's grid region "
                "(stencil pad too small for this drift)");
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
  const std::size_t interp_stencil =
      stencil_.interpolate(reg, region_.data(), forces);
  charge(6.0 * static_cast<double>(owned.size()) +
         22.0 * static_cast<double>(interp_stencil));

  if (work != nullptr) {
    work->atoms_spread += stencil_.size();
    work->stencil_points += stencil + interp_stencil;
    work->mesh_points += mesh;
    work->fft_flops += 2.0 * pfft_.local_fft_flops();
  }
  return energy;
}

}  // namespace repro::pme
