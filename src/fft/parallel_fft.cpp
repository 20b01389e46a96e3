#include "fft/parallel_fft.hpp"

#include <algorithm>
#include <utility>

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

SlabPartition SlabPartition::clipped(std::size_t n) const {
  SlabPartition part = *this;
  for (std::size_t& b : part.begins_) b = std::min(b, n);
  return part;
}

namespace {

// The block one rank sends another: the sender's u-planes [u0, u0 + nu)
// of the receiver's v-planes [v0, v0 + nv), all of w.
struct Block {
  std::size_t u0, nu, v0, nv;
};

// The shape every transpose shares. In the source, axis v is whole and
// contiguous and a rank holds its own range of u; in the destination, u
// is whole and contiguous and a rank holds its own range of v. Axis w is
// whole on both sides. Strides count values. A block is packed in the
// destination's axis order: (v, w, u), or (w, v, u) when `w_outer`.
struct Geometry {
  const SlabPartition* u;    // u's and v's planes over the ranks taking part
  const SlabPartition* v;
  std::size_t nw;            // length of w
  std::size_t src_u, src_w;  // source strides (v's is 1)
  std::size_t dst_v, dst_w;  // destination strides (u's is 1)
  bool w_outer;

  // The transpose back: u and v, and source and destination, swap roles.
  Geometry inverse() const {
    return {v, u, nw, dst_v, dst_w, src_u, src_w, w_outer};
  }
  // The block rank (or group member) `from` sends `to`.
  Block block(int from, int to) const {
    return {u->begin(from), u->count(from), v->begin(to), v->count(to)};
  }
};

std::size_t values(const Geometry& g, const Block& b) {
  return b.nu * b.nv * g.nw;
}

// Copies nu x nv x nw values, value (u, v, w) from
// from[u * fu + v * fv + w * fw] to to[u + v * tv + w * tw]. The u loop is
// innermost, so the destination side runs contiguously.
void copy_block(const Complex* from, std::size_t fu, std::size_t fv,
                std::size_t fw, Complex* to, std::size_t tv, std::size_t tw,
                std::size_t nu, std::size_t nv, std::size_t nw) {
  for (std::size_t v = 0; v < nv; ++v) {
    for (std::size_t w = 0; w < nw; ++w) {
      const Complex* in = from + v * fv + w * fw;
      Complex* out = to + v * tv + w * tw;
      for (std::size_t u = 0; u < nu; ++u) out[u] = in[u * fu];
    }
  }
}

// The strides of v and w in a packed block.
std::pair<std::size_t, std::size_t> packed_strides(const Geometry& g,
                                                   const Block& b) {
  if (g.w_outer) return {b.nu, b.nv * b.nu};
  return {g.nw * b.nu, b.nu};
}

// Packs block b of the sender's source `src` into `buf` and returns its
// length. An empty block touches neither buffer.
std::size_t pack(const Geometry& g, const Block& b, const Complex* src,
                 Complex* buf) {
  const std::size_t n = values(g, b);
  if (n == 0) return 0;
  const auto [pv, pw] = packed_strides(g, b);
  copy_block(src + b.v0, g.src_u, 1, g.src_w, buf, pv, pw, b.nu, b.nv,
             g.nw);
  return n;
}

// Stores packed block b into the receiver's destination `dst`.
void unpack(const Geometry& g, const Block& b, const Complex* buf,
            Complex* dst) {
  if (values(g, b) == 0) return;
  const auto [pv, pw] = packed_strides(g, b);
  copy_block(buf, 1, pv, pw, dst + b.u0, g.dst_v, g.dst_w, b.nu, b.nv,
             g.nw);
}

}  // namespace

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
      kzpart_(zpart_.clipped(nzh_)),
      fx_(nx),
      fy_(ny),
      fz_(nz),
      xblocks_(local_x_count() * ny * nz),
      zblocks_(nx * ny * local_z_count()),
      half_(local_x_count() * ny * nzh_) {
  const int me = transport_.rank();
  for (int r = 0; r < transport_.size(); ++r) {
    xside_.push(xpart_.count(me) * ny_ * zpart_.count(r));
    zside_.push(xpart_.count(r) * ny_ * zpart_.count(me));
  }
}

void ParallelFft3D::Blocks::push(std::size_t values) {
  displs.push_back(displs.empty() ? 0 : displs.back() + counts.back());
  counts.push_back(values * sizeof(Complex));
}

void ParallelFft3D::transpose(bool forward, const Complex* src,
                              Complex* dst) {
  const int p = transport_.size();
  const int me = transport_.rank();
  // Forward: half_ [lx][ny][nzh] (u = x, v = kz, w = y) to the z-slab
  // [lkz][ny][nx]; backward the reverse.
  Geometry g{&xpart_, &kzpart_, ny_, ny_ * nzh_, nzh_, ny_ * nx_, nx_, false};
  Complex* out = xblocks_.data();
  Complex* in = zblocks_.data();
  const Blocks* send = &xside_;
  const Blocks* recv = &zside_;
  if (!forward) {
    g = g.inverse();
    std::swap(out, in);
    std::swap(send, recv);
  }
  for (int d = 0; d < p; ++d) {
    pack(g, g.block(me, d), src,
         out + send->displs[static_cast<std::size_t>(d)] / sizeof(Complex));
  }
  // ~1 flop per value packed or unpacked: every value of both buffers.
  charge(static_cast<double>(xblocks_.size() + zblocks_.size()));
  transport_.transpose(out, send->counts, send->displs, in, recv->counts,
                       recv->displs);
  for (int s = 0; s < p; ++s) {
    unpack(g, g.block(s, me),
           in + recv->displs[static_cast<std::size_t>(s)] / sizeof(Complex),
           dst);
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

  transpose(true, half_.data(), zslab);

  // Finish with x-direction transforms (x is contiguous in the z-slab).
  const std::size_t lz = local_z_count();
  fx_.forward_many(zslab, local_kz_count() * ny_, 1, nx_);
  charge(static_cast<double>(lz * ny_) * fx_.flops());
}

void ParallelFft3D::backward(Complex* zslab, double* xslab) {
  const std::size_t lz = local_z_count();
  fx_.inverse_many(zslab, local_kz_count() * ny_, 1, nx_);
  charge(static_cast<double>(lz * ny_) * fx_.flops());

  transpose(false, zslab, half_.data());

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

namespace {

// One pencil transpose: the process-grid group it runs in, of `size`
// members in which I am member `me` and member m is rank first + m * step,
// and its geometry over that group.
struct PencilRoute {
  int size, me, first, step;
  Geometry g;

  int peer(int m) const { return first + m * step; }
};

PencilRoute route(const PencilGrid& grid, int rank,
                  PencilFft3D::Transpose which) {
  using T = PencilFft3D::Transpose;
  const int yc = grid.ycoord(rank);
  const int zc = grid.zcoord(rank);
  const std::size_t lz = grid.zpart.count(zc);
  PencilRoute r;
  if (which == T::kXY || which == T::kYX) {
    // Stage 1 [ly1][lz][nx] (u = y, v = x, w = z) to stage 2 [lx2][lz][ny],
    // within the Py ranks sharing zc.
    r = {grid.py, yc, zc, grid.pz,
         {&grid.ypart, &grid.xpart, lz, lz * grid.nx, grid.nx, lz * grid.ny,
          grid.ny, false}};
  } else {
    // Stage 2 [lx2][lz][ny] (u = z, v = y, w = x) to stage 3
    // [lx2][ly3][nz], within the Pz ranks sharing yc.
    const std::size_t ly3 = grid.y2part.count(zc);
    r = {grid.pz, zc, yc * grid.pz, 1,
         {&grid.zpart, &grid.y2part, grid.xpart.count(yc), grid.ny,
          lz * grid.ny, grid.nz, ly3 * grid.nz, true}};
  }
  if (which == T::kYX || which == T::kZY) r.g = r.g.inverse();
  return r;
}

}  // namespace

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
  // A transpose round holds one block. The inverse transposes move the
  // blocks of X<->Y and Y<->Z the other way, so those two's blocks, sent
  // and received, are all there are.
  std::size_t block = 0;
  for (const Transpose t : {Transpose::kXY, Transpose::kYZ}) {
    const PencilRoute r = route(grid_, me, t);
    for (int m = 0; m < r.size; ++m) {
      block = std::max({block, values(r.g, r.g.block(r.me, m)),
                        values(r.g, r.g.block(m, r.me))});
    }
  }
  sendbuf_.resize(block);
  recvbuf_.resize(block);
  work_ends_.resize(std::max(grid_.stage1_size(me), grid_.stage3_size(me)));
  work_mid_.resize(grid_.stage2_size(me));
}

// My own block moves locally; then round k = 1 .. size-1 sends my block
// for member me + k and receives member me - k's, each only when it is
// non-empty. Sends are eager (buffered), so send-then-receive in every
// round cannot deadlock.
void PencilFft3D::transpose(Transpose which, const Complex* src,
                            Complex* dst, int tag) {
  const int me = comm_.rank();
  if (!grid_.participates(me)) return;
  const PencilRoute r = route(grid_, me, which);
  const Block own = r.g.block(r.me, r.me);
  pack(r.g, own, src, sendbuf_.data());
  unpack(r.g, own, sendbuf_.data(), dst);
  for (int k = 1; k < r.size; ++k) {
    const int b = (r.me + k) % r.size;
    const int a = (r.me - k + r.size) % r.size;
    const std::size_t sn =
        pack(r.g, r.g.block(r.me, b), src, sendbuf_.data());
    if (sn > 0) {
      comm_.send(r.peer(b), tag, sendbuf_.data(), sn * sizeof(Complex),
                 /*exchange=*/true);
    }
    const Block in = r.g.block(a, r.me);
    const std::size_t rn = values(r.g, in);
    if (rn > 0) {
      comm_.recv(r.peer(a), tag, recvbuf_.data(), rn * sizeof(Complex));
      unpack(r.g, in, recvbuf_.data(), dst);
    }
  }
  // ~1 flop per value of the source and destination stages.
  charge(static_cast<double>(
      r.g.nw * (own.nu * r.g.v->total() + r.g.u->total() * own.nv)));
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
  transpose(Transpose::kXY, work1, work2, tag_xy);
  fy_.forward_many(work2, lx2 * lz, 1, grid_.ny);
  charge(static_cast<double>(lx2 * lz) * fy_.flops());

  transpose(Transpose::kYZ, work2, stage3, tag_yz);
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
  transpose(Transpose::kZY, work3, work2, tag_zy);
  fy_.inverse_many(work2, lx2 * lz, 1, grid_.ny);
  charge(static_cast<double>(lx2 * lz) * fy_.flops());

  transpose(Transpose::kYX, work2, stage1, tag_yx);
  fx_.inverse_many(stage1, ly1 * lz, 1, grid_.nx);
  charge(static_cast<double>(ly1 * lz) * fx_.flops());
}

}  // namespace repro::fft
