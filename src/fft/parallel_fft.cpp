#include "fft/parallel_fft.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace repro::fft {

SlabPartition::SlabPartition(std::size_t n, int p) {
  REPRO_REQUIRE(p >= 1, "partition needs at least one rank");
  begins_.resize(static_cast<std::size_t>(p) + 1);
  const std::size_t base = n / static_cast<std::size_t>(p);
  const std::size_t rem = n % static_cast<std::size_t>(p);
  std::size_t at = 0;
  for (int r = 0; r < p; ++r) {
    begins_[static_cast<std::size_t>(r)] = at;
    at += base + (static_cast<std::size_t>(r) < rem ? 1 : 0);
  }
  begins_[static_cast<std::size_t>(p)] = at;
}

int SlabPartition::owner(std::size_t plane) const {
  for (std::size_t r = 0; r + 1 < begins_.size(); ++r) {
    if (plane >= begins_[r] && plane < begins_[r + 1]) {
      return static_cast<int>(r);
    }
  }
  REPRO_UNREACHABLE("plane outside partition");
}

ParallelFft3D::ParallelFft3D(std::size_t nx, std::size_t ny, std::size_t nz,
                             middleware::Transport& transport,
                             std::function<void(double)> charge)
    : nx_(nx),
      ny_(ny),
      nz_(nz),
      nzh_(nz / 2 + 1),
      transport_(transport),
      charge_(std::move(charge)),
      xpart_(nx, transport.size()),
      zpart_(nz, transport.size()),
      xz_(layout(true)),
      zx_(layout(false)),
      fx_(nx),
      fy_(ny),
      fz_(nz),
      xblocks_(local_x_count() * ny * nz),
      zblocks_(nx * ny * local_z_count()),
      half_(local_x_count() * ny * nzh_) {}

// The forward transpose ships my x-planes of rank d's z-planes to every d
// and receives rank s's x-planes of mine; the backward one is its mirror.
ParallelFft3D::TransposeLayout ParallelFft3D::layout(bool forward) const {
  const int p = transport_.size();
  const int me = transport_.rank();
  TransposeLayout l;
  std::size_t at = 0, rat = 0;
  for (int r = 0; r < p; ++r) {
    const std::size_t out = forward ? xpart_.count(me) * ny_ * zpart_.count(r)
                                    : xpart_.count(r) * ny_ * zpart_.count(me);
    const std::size_t in = forward ? xpart_.count(r) * ny_ * zpart_.count(me)
                                   : xpart_.count(me) * ny_ * zpart_.count(r);
    l.send_displs.push_back(at * sizeof(Complex));
    l.send_counts.push_back(out * sizeof(Complex));
    l.recv_displs.push_back(rat * sizeof(Complex));
    l.recv_counts.push_back(in * sizeof(Complex));
    at += out;
    rat += in;
  }
  l.elements = at + rat;
  return l;
}

void ParallelFft3D::transpose_xz(Complex* zslab) {
  const int p = transport_.size();
  const int me = transport_.rank();
  const std::size_t lx = xpart_.count(me);

  // Pack the front of each destination's block, ordered (kz, y, x) with x
  // innermost over my x-range, so the receiver can place runs
  // contiguously in [lkz][ny][nx].
  for (int d = 0; d < p; ++d) {
    Complex* out = xblocks_.data() +
                   xz_.send_displs[static_cast<std::size_t>(d)] /
                       sizeof(Complex);
    for (std::size_t kz = kz_begin(d); kz < kz_begin(d) + kz_count(d); ++kz) {
      for (std::size_t y = 0; y < ny_; ++y) {
        for (std::size_t x = 0; x < lx; ++x) {
          *out++ = half_[(x * ny_ + y) * nzh_ + kz];
        }
      }
    }
  }
  charge(static_cast<double>(xz_.elements));  // ~1 flop per packed element
  transport_.transpose(xblocks_.data(), xz_.send_counts, xz_.send_displs,
                zblocks_.data(), xz_.recv_counts, xz_.recv_displs);

  // Unpack: block from src s covers x in [s.x0, s.x1), all y, kz in my
  // half-spectrum range, ordered (kz, y, x).
  for (int s = 0; s < p; ++s) {
    const Complex* in =
        zblocks_.data() + xz_.recv_displs[static_cast<std::size_t>(s)] /
                              sizeof(Complex);
    const std::size_t sx0 = xpart_.begin(s);
    const std::size_t slx = xpart_.count(s);
    for (std::size_t kl = 0; kl < local_kz_count(); ++kl) {
      for (std::size_t y = 0; y < ny_; ++y) {
        Complex* out = zslab + (kl * ny_ + y) * nx_ + sx0;
        for (std::size_t x = 0; x < slx; ++x) out[x] = *in++;
      }
    }
  }
}

void ParallelFft3D::transpose_zx(const Complex* zslab) {
  const int p = transport_.size();
  const int me = transport_.rank();
  const std::size_t lkz = local_kz_count();

  // Pack for dst d: x in d's range, all y, kz in my range; ordered
  // (x, y, kz) with kz innermost so the receiver writes contiguous runs.
  for (int d = 0; d < p; ++d) {
    Complex* out = zblocks_.data() +
                   zx_.send_displs[static_cast<std::size_t>(d)] /
                       sizeof(Complex);
    for (std::size_t x = xpart_.begin(d); x < xpart_.end(d); ++x) {
      for (std::size_t y = 0; y < ny_; ++y) {
        for (std::size_t kl = 0; kl < lkz; ++kl) {
          *out++ = zslab[(kl * ny_ + y) * nx_ + x];
        }
      }
    }
  }
  charge(static_cast<double>(zx_.elements));
  transport_.transpose(zblocks_.data(), zx_.send_counts, zx_.send_displs,
                xblocks_.data(), zx_.recv_counts, zx_.recv_displs);

  for (int s = 0; s < p; ++s) {
    const Complex* in =
        xblocks_.data() + zx_.recv_displs[static_cast<std::size_t>(s)] /
                              sizeof(Complex);
    for (std::size_t x = 0; x < xpart_.count(me); ++x) {
      for (std::size_t y = 0; y < ny_; ++y) {
        Complex* out = half_.data() + (x * ny_ + y) * nzh_ + kz_begin(s);
        for (std::size_t k = 0; k < kz_count(s); ++k) out[k] = *in++;
      }
    }
  }
}

void ParallelFft3D::forward(const double* xslab, Complex* zslab) {
  // Local 2-D transforms over (y, z) for each owned x-plane: real z-lines
  // to their half spectra, then y.
  const std::size_t lx = local_x_count();
  const std::size_t plane = ny_ * nzh_;
  fz_.forward_many(xslab, lx * ny_, half_.data());
  for (std::size_t x = 0; x < lx; ++x) {
    fy_.forward_many(half_.data() + x * plane, nzh_, nzh_, 1);
  }
  charge(static_cast<double>(lx) *
         (static_cast<double>(ny_) * fz_.complex_plan().flops() +
          static_cast<double>(nz_) * fy_.flops()));

  transpose_xz(zslab);

  // Finish with x-direction transforms (x is contiguous in the z-slab).
  const std::size_t lz = local_z_count();
  fx_.forward_many(zslab, local_kz_count() * ny_, 1, nx_);
  charge(static_cast<double>(lz * ny_) * fx_.flops());
}

void ParallelFft3D::backward(Complex* zslab, double* xslab) {
  const std::size_t lz = local_z_count();
  fx_.inverse_many(zslab, local_kz_count() * ny_, 1, nx_);
  charge(static_cast<double>(lz * ny_) * fx_.flops());

  transpose_zx(zslab);

  const std::size_t lx = local_x_count();
  const std::size_t plane = ny_ * nzh_;
  for (std::size_t x = 0; x < lx; ++x) {
    fy_.inverse_many(half_.data() + x * plane, nzh_, nzh_, 1);
  }
  fz_.inverse_many(half_.data(), lx * ny_, xslab);
  charge(static_cast<double>(lx) *
         (static_cast<double>(ny_) * fz_.complex_plan().flops() +
          static_cast<double>(nz_) * fy_.flops()));
}

// --- 2-D pencil decomposition -----------------------------------------------

PencilGrid::PencilGrid(std::size_t nx_, std::size_t ny_, std::size_t nz_,
                       int py_, int pz_)
    : nx(nx_),
      ny(ny_),
      nz(nz_),
      py(py_),
      pz(pz_),
      ypart(ny_, py_),
      zpart(nz_, pz_),
      xpart(nx_, py_),
      y2part(ny_, pz_) {
  REPRO_REQUIRE(py >= 1 && pz >= 1, "pencil grid needs positive dimensions");
  REPRO_REQUIRE(static_cast<std::size_t>(py) <= ny,
                "pencil grid Py exceeds the y plane count");
  REPRO_REQUIRE(static_cast<std::size_t>(pz) <= nz,
                "pencil grid Pz exceeds the z plane count");
}

std::size_t PencilGrid::stage1_size(int rank) const {
  if (!participates(rank)) return 0;
  return ypart.count(ycoord(rank)) * zpart.count(zcoord(rank)) * nx;
}

std::size_t PencilGrid::stage2_size(int rank) const {
  if (!participates(rank)) return 0;
  return xpart.count(ycoord(rank)) * zpart.count(zcoord(rank)) * ny;
}

std::size_t PencilGrid::stage3_size(int rank) const {
  if (!participates(rank)) return 0;
  return xpart.count(ycoord(rank)) * y2part.count(zcoord(rank)) * nz;
}

PencilFft3D::PencilFft3D(const PencilGrid& grid, mpi::Comm& comm,
                         std::function<void(double)> charge)
    : grid_(grid),
      comm_(comm),
      charge_(std::move(charge)),
      fx_(grid.nx),
      fy_(grid.ny),
      fz_(grid.nz) {
  const int me = comm_.rank();
  if (!grid_.participates(me)) return;
  // A transpose round holds one block. Each transpose's blocks are its
  // inverse's in reverse, so the blocks I receive in the four (their
  // `incoming` sizes) are every block I send or receive.
  const std::size_t lz = grid_.zpart.count(grid_.zcoord(me));
  const std::size_t ly1 = grid_.ypart.count(grid_.ycoord(me));
  const std::size_t lx2 = grid_.xpart.count(grid_.ycoord(me));
  const std::size_t ly3 = grid_.y2part.count(grid_.zcoord(me));
  std::size_t block = 0;
  for (int m = 0; m < grid_.py; ++m) {
    block = std::max({block, lx2 * grid_.ypart.count(m) * lz,
                      ly1 * grid_.xpart.count(m) * lz});
  }
  for (int m = 0; m < grid_.pz; ++m) {
    block = std::max({block, lx2 * ly3 * grid_.zpart.count(m),
                      lx2 * grid_.y2part.count(m) * lz});
  }
  sendbuf_.resize(block);
  recvbuf_.resize(block);
  work_ends_.resize(std::max(grid_.stage1_size(me), grid_.stage3_size(me)));
  work_mid_.resize(grid_.stage2_size(me));
}

// The round schedule shared by the four transposes, over a process-grid
// group of `size` members in which I am member `me` and member m is rank
// peer(m). My own block moves locally; then round k = 1 .. size-1 sends
// my block for member me + k (when non-empty) and receives member me - k's
// block of incoming(me - k) elements (when non-empty). pack_to(m) fills
// sendbuf_ with the block for member m and returns its length;
// unpack_from(m, in) stores member m's block.
template <class Peer, class Pack, class Incoming, class Unpack>
void PencilFft3D::pairwise_rounds(int size, int me, int tag, Peer peer,
                                  Pack pack_to, Incoming incoming,
                                  Unpack unpack_from) {
  if (pack_to(me) > 0) unpack_from(me, sendbuf_.data());
  for (int k = 1; k < size; ++k) {
    const int b = (me + k) % size;
    const int a = (me - k + size) % size;
    const std::size_t sn = pack_to(b);
    if (sn > 0) {
      comm_.send(peer(b), tag, sendbuf_.data(), sn * sizeof(Complex),
                 /*exchange=*/true);
    }
    const std::size_t rn = incoming(a);
    if (rn > 0) {
      comm_.recv(peer(a), tag, recvbuf_.data(), rn * sizeof(Complex));
      unpack_from(a, recvbuf_.data());
    }
  }
}

// X<->Y transpose, forward direction: stage-1 x-pencils -> stage-2
// y-pencils within the Py-rank group sharing my z coordinate. Pairwise
// rounds (pairwise_rounds) k = 1..Py-1 send to row (yc+k) mod Py while
// receiving from row (yc-k) mod Py; the diagonal block is a local copy.
// All sends are eager (buffered), so send-then-recv per round cannot
// deadlock.
void PencilFft3D::transpose_xy(const Complex* stage1, Complex* stage2,
                               int tag) {
  const int me = comm_.rank();
  if (!grid_.participates(me)) return;
  const int yc = grid_.ycoord(me);
  const int zc = grid_.zcoord(me);
  const std::size_t lz = grid_.zpart.count(zc);
  const std::size_t ly1 = grid_.ypart.count(yc);
  const std::size_t lx2 = grid_.xpart.count(yc);

  // Block I ship to row b: {x in Xp(b), y in Yp(yc), z in Zp(zc)}, packed
  // (x, z, y) with y innermost so the receiver writes contiguous y-runs.
  auto pack_to = [&](int b) {
    const std::size_t bx0 = grid_.xpart.begin(b);
    const std::size_t bxc = grid_.xpart.count(b);
    std::size_t at = 0;
    for (std::size_t xl = 0; xl < bxc; ++xl) {
      for (std::size_t zl = 0; zl < lz; ++zl) {
        for (std::size_t yl = 0; yl < ly1; ++yl) {
          sendbuf_[at++] = stage1[(yl * lz + zl) * grid_.nx + bx0 + xl];
        }
      }
    }
    return at;
  };
  // Block row a ships to me: {x in Xp(yc), y in Yp(a), z in Zp(zc)}.
  auto unpack_from = [&](int a, const Complex* in) {
    const std::size_t ay0 = grid_.ypart.begin(a);
    const std::size_t ayc = grid_.ypart.count(a);
    std::size_t i = 0;
    for (std::size_t xl = 0; xl < lx2; ++xl) {
      for (std::size_t zl = 0; zl < lz; ++zl) {
        Complex* out = stage2 + (xl * lz + zl) * grid_.ny + ay0;
        for (std::size_t yl = 0; yl < ayc; ++yl) out[yl] = in[i++];
      }
    }
    return i;
  };

  pairwise_rounds(
      grid_.py, yc, tag, [&](int b) { return grid_.rank_of(b, zc); }, pack_to,
      [&](int a) { return lx2 * grid_.ypart.count(a) * lz; }, unpack_from);
  charge(static_cast<double>(ly1 * lz * grid_.nx + lx2 * lz * grid_.ny));
}

// X<->Y transpose, inverse direction: stage-2 -> stage-1.
void PencilFft3D::transpose_yx(const Complex* stage2, Complex* stage1,
                               int tag) {
  const int me = comm_.rank();
  if (!grid_.participates(me)) return;
  const int yc = grid_.ycoord(me);
  const int zc = grid_.zcoord(me);
  const std::size_t lz = grid_.zpart.count(zc);
  const std::size_t ly1 = grid_.ypart.count(yc);
  const std::size_t lx2 = grid_.xpart.count(yc);

  // Block I ship to row b: {x in Xp(yc), y in Yp(b), z in Zp(zc)}, packed
  // (y, z, x) with x innermost so the receiver writes contiguous x-runs.
  auto pack_to = [&](int b) {
    const std::size_t by0 = grid_.ypart.begin(b);
    const std::size_t byc = grid_.ypart.count(b);
    std::size_t at = 0;
    for (std::size_t yl = 0; yl < byc; ++yl) {
      for (std::size_t zl = 0; zl < lz; ++zl) {
        for (std::size_t xl = 0; xl < lx2; ++xl) {
          sendbuf_[at++] = stage2[(xl * lz + zl) * grid_.ny + by0 + yl];
        }
      }
    }
    return at;
  };
  auto unpack_from = [&](int a, const Complex* in) {
    const std::size_t ax0 = grid_.xpart.begin(a);
    const std::size_t axc = grid_.xpart.count(a);
    std::size_t i = 0;
    for (std::size_t yl = 0; yl < ly1; ++yl) {
      for (std::size_t zl = 0; zl < lz; ++zl) {
        Complex* out = stage1 + (yl * lz + zl) * grid_.nx + ax0;
        for (std::size_t xl = 0; xl < axc; ++xl) out[xl] = in[i++];
      }
    }
    return i;
  };

  pairwise_rounds(
      grid_.py, yc, tag, [&](int b) { return grid_.rank_of(b, zc); }, pack_to,
      [&](int a) { return ly1 * grid_.xpart.count(a) * lz; }, unpack_from);
  charge(static_cast<double>(lx2 * lz * grid_.ny + ly1 * lz * grid_.nx));
}

// Y<->Z transpose, forward direction: stage-2 y-pencils -> stage-3
// z-pencils within the Pz-rank group sharing my y coordinate.
void PencilFft3D::transpose_yz(const Complex* stage2, Complex* stage3,
                               int tag) {
  const int me = comm_.rank();
  if (!grid_.participates(me)) return;
  const int yc = grid_.ycoord(me);
  const int zc = grid_.zcoord(me);
  const std::size_t lz = grid_.zpart.count(zc);
  const std::size_t lx2 = grid_.xpart.count(yc);
  const std::size_t ly3 = grid_.y2part.count(zc);

  // Block I ship to column d: {x in Xp(yc), y in Y2p(d), z in Zp(zc)},
  // packed (x, y, z) with z innermost for contiguous z-runs.
  auto pack_to = [&](int d) {
    const std::size_t dy0 = grid_.y2part.begin(d);
    const std::size_t dyc = grid_.y2part.count(d);
    std::size_t at = 0;
    for (std::size_t xl = 0; xl < lx2; ++xl) {
      for (std::size_t yl = 0; yl < dyc; ++yl) {
        for (std::size_t zl = 0; zl < lz; ++zl) {
          sendbuf_[at++] = stage2[(xl * lz + zl) * grid_.ny + dy0 + yl];
        }
      }
    }
    return at;
  };
  // Block column c ships to me: {x in Xp(yc), y in Y2p(zc), z in Zp(c)}.
  auto unpack_from = [&](int c, const Complex* in) {
    const std::size_t cz0 = grid_.zpart.begin(c);
    const std::size_t czc = grid_.zpart.count(c);
    std::size_t i = 0;
    for (std::size_t xl = 0; xl < lx2; ++xl) {
      for (std::size_t yl = 0; yl < ly3; ++yl) {
        Complex* out = stage3 + (xl * ly3 + yl) * grid_.nz + cz0;
        for (std::size_t zl = 0; zl < czc; ++zl) out[zl] = in[i++];
      }
    }
    return i;
  };

  pairwise_rounds(
      grid_.pz, zc, tag, [&](int d) { return grid_.rank_of(yc, d); }, pack_to,
      [&](int c) { return lx2 * ly3 * grid_.zpart.count(c); }, unpack_from);
  charge(static_cast<double>(lx2 * lz * grid_.ny + lx2 * ly3 * grid_.nz));
}

// Y<->Z transpose, inverse direction: stage-3 -> stage-2.
void PencilFft3D::transpose_zy(const Complex* stage3, Complex* stage2,
                               int tag) {
  const int me = comm_.rank();
  if (!grid_.participates(me)) return;
  const int yc = grid_.ycoord(me);
  const int zc = grid_.zcoord(me);
  const std::size_t lz = grid_.zpart.count(zc);
  const std::size_t lx2 = grid_.xpart.count(yc);
  const std::size_t ly3 = grid_.y2part.count(zc);

  // Block I ship to column d: {x in Xp(yc), y in Y2p(zc), z in Zp(d)},
  // packed (x, z, y) with y innermost for contiguous y-runs.
  auto pack_to = [&](int d) {
    const std::size_t dz0 = grid_.zpart.begin(d);
    const std::size_t dzc = grid_.zpart.count(d);
    std::size_t at = 0;
    for (std::size_t xl = 0; xl < lx2; ++xl) {
      for (std::size_t zl = 0; zl < dzc; ++zl) {
        for (std::size_t yl = 0; yl < ly3; ++yl) {
          sendbuf_[at++] = stage3[(xl * ly3 + yl) * grid_.nz + dz0 + zl];
        }
      }
    }
    return at;
  };
  auto unpack_from = [&](int c, const Complex* in) {
    const std::size_t cy0 = grid_.y2part.begin(c);
    const std::size_t cyc = grid_.y2part.count(c);
    std::size_t i = 0;
    for (std::size_t xl = 0; xl < lx2; ++xl) {
      for (std::size_t zl = 0; zl < lz; ++zl) {
        Complex* out = stage2 + (xl * lz + zl) * grid_.ny + cy0;
        for (std::size_t yl = 0; yl < cyc; ++yl) out[yl] = in[i++];
      }
    }
    return i;
  };

  pairwise_rounds(
      grid_.pz, zc, tag, [&](int d) { return grid_.rank_of(yc, d); }, pack_to,
      [&](int c) { return lx2 * grid_.y2part.count(c) * lz; }, unpack_from);
  charge(static_cast<double>(lx2 * ly3 * grid_.nz + lx2 * lz * grid_.ny));
}

double PencilFft3D::local_fft_flops() const {
  const int me = comm_.rank();
  if (!grid_.participates(me)) return 0.0;
  const int yc = grid_.ycoord(me);
  const int zc = grid_.zcoord(me);
  const std::size_t lz = grid_.zpart.count(zc);
  return static_cast<double>(grid_.ypart.count(yc) * lz) * fx_.flops() +
         static_cast<double>(grid_.xpart.count(yc) * lz) * fy_.flops() +
         static_cast<double>(grid_.xpart.count(yc) * grid_.y2part.count(zc)) *
             fz_.flops();
}

void PencilFft3D::forward(const Complex* stage1, Complex* stage3, int tag_xy,
                          int tag_yz) {
  const int me = comm_.rank();
  if (!grid_.participates(me)) return;
  const int yc = grid_.ycoord(me);
  const int zc = grid_.zcoord(me);
  const std::size_t lz = grid_.zpart.count(zc);
  const std::size_t ly1 = grid_.ypart.count(yc);
  const std::size_t lx2 = grid_.xpart.count(yc);
  const std::size_t ly3 = grid_.y2part.count(zc);

  Complex* work1 = work_ends_.data();
  std::copy(stage1, stage1 + grid_.stage1_size(me), work1);
  fx_.forward_many(work1, ly1 * lz, 1, grid_.nx);
  charge(static_cast<double>(ly1 * lz) * fx_.flops());

  Complex* work2 = work_mid_.data();
  transpose_xy(work1, work2, tag_xy);
  fy_.forward_many(work2, lx2 * lz, 1, grid_.ny);
  charge(static_cast<double>(lx2 * lz) * fy_.flops());

  transpose_yz(work2, stage3, tag_yz);
  fz_.forward_many(stage3, lx2 * ly3, 1, grid_.nz);
  charge(static_cast<double>(lx2 * ly3) * fz_.flops());
}

void PencilFft3D::backward(const Complex* stage3, Complex* stage1, int tag_zy,
                           int tag_yx) {
  const int me = comm_.rank();
  if (!grid_.participates(me)) return;
  const int yc = grid_.ycoord(me);
  const int zc = grid_.zcoord(me);
  const std::size_t lz = grid_.zpart.count(zc);
  const std::size_t ly1 = grid_.ypart.count(yc);
  const std::size_t lx2 = grid_.xpart.count(yc);
  const std::size_t ly3 = grid_.y2part.count(zc);

  Complex* work3 = work_ends_.data();
  std::copy(stage3, stage3 + grid_.stage3_size(me), work3);
  fz_.inverse_many(work3, lx2 * ly3, 1, grid_.nz);
  charge(static_cast<double>(lx2 * ly3) * fz_.flops());

  Complex* work2 = work_mid_.data();
  transpose_zy(work3, work2, tag_zy);
  fy_.inverse_many(work2, lx2 * lz, 1, grid_.ny);
  charge(static_cast<double>(lx2 * lz) * fy_.flops());

  transpose_yx(work2, stage1, tag_yx);
  fx_.inverse_many(stage1, ly1 * lz, 1, grid_.nx);
  charge(static_cast<double>(ly1 * lz) * fx_.flops());
}

}  // namespace repro::fft
