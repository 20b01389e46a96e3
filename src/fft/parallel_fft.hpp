// Slab-decomposed parallel real-to-complex 3-D FFT (the PME communication
// kernel).
//
// The real grid is distributed in x-slabs: rank r owns x-planes
// [x_begin(r), x_end(r)) of a row-major real [nx][ny][nz] grid. A forward
// transform runs the real-to-complex z pass (RealFft1D) and the y FFTs
// locally per owned plane, giving each plane's half spectrum
// [ny][nz/2+1], then performs an all-to-all personalized transpose into
// z-slabs of the half spectrum (layout [lkz][ny][nx]) and finishes with
// the x-direction FFTs. This is exactly the structure the paper
// attributes to PME: "a FFT adds a communication step with an all-to-all
// personalized communication pattern."
//
// Rank r owns the half-spectrum planes kz in zpart(r) ∩ [0, nz/2+1): the
// z-planes of the complex transform less those conjugate symmetry leaves
// out, so the ranks past the middle own none.
//
// The simulator times the complex transform: each transpose block from
// rank s to rank d holds lx(s) * ny * lz(d) complex values, with the
// half-spectrum values at its front and zeros behind them, and the local
// stages charge the complex 1-D transforms' Fft1D::flops(). So simulated
// time and message bytes are those of the complex slab FFT.
//
// Computation is charged through a caller-provided hook (flops -> virtual
// time); communication goes through a middleware::Transport (rank, size
// and transpose alone), so the middleware factor of the experiment shapes
// the transpose.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "fft/fft.hpp"
#include "middleware/middleware.hpp"
#include "mpi/comm.hpp"

namespace repro::fft {

// Plane partition of n planes over p ranks: front ranks get the remainder.
struct SlabPartition {
  SlabPartition(std::size_t n, int p);

  std::size_t begin(int rank) const {
    return begins_[static_cast<std::size_t>(rank)];
  }
  std::size_t end(int rank) const {
    return begins_[static_cast<std::size_t>(rank) + 1];
  }
  std::size_t count(int rank) const { return end(rank) - begin(rank); }
  int owner(std::size_t plane) const;

 private:
  std::vector<std::size_t> begins_;
};

class ParallelFft3D {
 public:
  // `charge` converts kernel flops into simulated compute time; it may be
  // empty (tests that only check numerics).
  ParallelFft3D(std::size_t nx, std::size_t ny, std::size_t nz,
                middleware::Transport& transport,
                std::function<void(double flops)> charge = {});

  const SlabPartition& x_slabs() const { return xpart_; }
  std::size_t local_x_count() const { return xpart_.count(transport_.rank()); }
  // My z-planes of the complex transform (what the charges count).
  std::size_t local_z_count() const { return zpart_.count(transport_.rank()); }
  // Rank r's half-spectrum planes [kz_begin(r), kz_begin(r) + kz_count(r)).
  std::size_t kz_begin(int rank) const {
    return std::min(zpart_.begin(rank), nzh_);
  }
  std::size_t kz_count(int rank) const {
    return std::min(zpart_.end(rank), nzh_) - kz_begin(rank);
  }
  std::size_t local_kz_count() const { return kz_count(transport_.rank()); }

  // x-slab: [local_x][ny][nz] reals; z-slab: [local_kz][ny][nx] values.
  std::size_t x_slab_size() const { return local_x_count() * ny_ * nz_; }
  std::size_t z_slab_size() const { return local_kz_count() * ny_ * nx_; }

  // Forward: real x-slab -> my half-spectrum z-slab, which must hold
  // z_slab_size() values.
  void forward(const double* xslab, Complex* zslab);
  // Backward: z-slab -> real x-slab, including the 1/N normalization so
  // backward(forward(x)) == x. Overwrites `zslab` on the way.
  void backward(Complex* zslab, double* xslab);

 private:
  void charge(double flops) const {
    if (charge_) charge_(flops);
  }
  // One transpose's per-peer byte counts and displacements (the complex
  // model's blocks), fixed by the two partitions and so built once;
  // `elements` is the number of values packed plus unpacked, the
  // transpose's charge.
  struct TransposeLayout {
    std::vector<std::size_t> send_counts, send_displs;
    std::vector<std::size_t> recv_counts, recv_displs;
    std::size_t elements = 0;
  };
  TransposeLayout layout(bool forward) const;
  // Ships half_ to every rank's z-slab (`forward` direction) and back.
  void transpose_xz(Complex* zslab);
  void transpose_zx(const Complex* zslab);

  std::size_t nx_, ny_, nz_, nzh_;
  middleware::Transport& transport_;
  std::function<void(double)> charge_;
  SlabPartition xpart_;
  SlabPartition zpart_;
  TransposeLayout xz_, zx_;
  Fft1D fx_, fy_;
  RealFft1D fz_;
  // The transpose buffers, zero-initialized. The forward transpose sends
  // from xblocks_ (block d: my x-planes of d's z-planes) into zblocks_
  // (block s: s's x-planes of mine), the backward one the other way, so
  // each buffer keeps one block layout. Blocks carry values only at their
  // front, and the zeros behind them are only ever copied onto zeros.
  std::vector<Complex> xblocks_;
  std::vector<Complex> zblocks_;
  std::vector<Complex> half_;  // my planes' half spectra, [lx][ny][nz/2+1]
};

// --- 2-D pencil decomposition -----------------------------------------------
//
// The slab transform above runs out of parallelism at p = min(nx, nz)
// ranks and its transpose is a full p x p all-to-all. The pencil plan
// distributes the grid over a Py x Pz process grid instead (the
// GROMACS-era fix for the PME wall): rank q < Py*Pz sits at pencil
// coordinate (yc, zc) = (q / Pz, q % Pz) and the transform moves through
// three 1-D stages, each followed by a transpose confined to one row or
// column of the process grid:
//
//   stage 1 (x-pencils): owns y in Yp(yc), z in Zp(zc), all x
//       local 1-D FFTs along x
//   == X<->Y transpose, Py-rank group sharing zc, pairwise rounds ==
//   stage 2 (y-pencils): owns x in Xp(yc), z in Zp(zc), all y
//       local 1-D FFTs along y
//   == Y<->Z transpose, Pz-rank group sharing yc, pairwise rounds ==
//   stage 3 (z-pencils): owns x in Xp(yc), y in Y2p(zc), all z
//       local 1-D FFTs along z
//
// so each transpose exchanges only 1/Pz (or 1/Py) of the grid in groups
// of Py (or Pz) ranks, instead of the slab's whole-grid p x p exchange.
// Ranks >= Py*Pz own nothing and all calls no-op on them.
struct PencilGrid {
  PencilGrid(std::size_t nx, std::size_t ny, std::size_t nz, int py, int pz);

  std::size_t nx, ny, nz;
  int py, pz;
  SlabPartition ypart;   // ny planes over the Py process-grid rows
  SlabPartition zpart;   // nz planes over the Pz process-grid columns
  SlabPartition xpart;   // nx planes over Py (stage-2/3 x ownership)
  SlabPartition y2part;  // ny planes over Pz (stage-3 y ownership)

  bool participates(int rank) const { return rank < py * pz; }
  int ycoord(int rank) const { return rank / pz; }
  int zcoord(int rank) const { return rank % pz; }
  int rank_of(int yc, int zc) const { return yc * pz + zc; }

  // Per-rank stage extents (all zero for non-participants).
  // Stage-1 buffer layout: [ly1][lz1][nx], x contiguous.
  std::size_t stage1_size(int rank) const;
  // Stage-2 buffer layout: [lx2][lz1][ny], y contiguous.
  std::size_t stage2_size(int rank) const;
  // Stage-3 buffer layout: [lx2][ly3][nz], z contiguous.
  std::size_t stage3_size(int rank) const;
};

// Pencil-decomposed 3-D FFT over the raw Comm (the decomposition's
// explicit-tag schedule idiom: the caller owns the tag space, so the
// predictor can pin every message).
class PencilFft3D {
 public:
  PencilFft3D(const PencilGrid& grid, mpi::Comm& comm,
              std::function<void(double flops)> charge = {});

  const PencilGrid& grid() const { return grid_; }

  // Forward: stage-1 x-pencils (real space) -> stage-3 z-pencils
  // (k-space). `tag_xy` / `tag_yz` tag the two transposes' messages.
  void forward(const Complex* stage1, Complex* stage3, int tag_xy,
               int tag_yz);
  // Backward: stage-3 -> stage-1, including the 1/N normalization so
  // backward(forward(x)) == x.
  void backward(const Complex* stage3, Complex* stage1, int tag_zy,
                int tag_yx);

  // The four grouped pairwise transposes, public for the property-test
  // harness. Buffers use the stage layouts documented on PencilGrid.
  void transpose_xy(const Complex* stage1, Complex* stage2, int tag);
  void transpose_yx(const Complex* stage2, Complex* stage1, int tag);
  void transpose_yz(const Complex* stage2, Complex* stage3, int tag);
  void transpose_zy(const Complex* stage3, Complex* stage2, int tag);

  // Total 1-D FFT flops this rank charges for one forward (== one
  // backward) pass; the predictor's compute model uses the same value.
  double local_fft_flops() const;

 private:
  void charge(double flops) const {
    if (charge_) charge_(flops);
  }
  template <class Peer, class Pack, class Incoming, class Unpack>
  void pairwise_rounds(int size, int me, int tag, Peer peer, Pack pack_to,
                       Incoming incoming, Unpack unpack_from);

  PencilGrid grid_;
  mpi::Comm& comm_;
  std::function<void(double)> charge_;
  Fft1D fx_, fy_, fz_;
  std::vector<Complex> sendbuf_;  // one transpose block, the largest
  std::vector<Complex> recvbuf_;
  // The local stages' work buffers, sized at construction: the copy of the
  // const stage-1 (forward) or stage-3 (backward) input, and stage 2.
  std::vector<Complex> work_ends_;
  std::vector<Complex> work_mid_;
};

}  // namespace repro::fft
