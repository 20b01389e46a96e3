// Complex-to-complex FFTs (from scratch; no external FFT dependency).
//
// Fft1D is a reusable plan for a fixed size n. Any n is supported: mixed
// radix for smooth sizes (the PME grid 80 x 36 x 48 factors into 2/3/5),
// Bluestein's chirp-z algorithm for sizes with large prime factors.
// Fft3D applies 1-D plans along the three axes of a row-major
// [nx][ny][nz] grid.
//
// There is one mixed-radix kernel, and it is batched: forward_many() and
// inverse_many() gather up to kBatch lines into lane-contiguous real and
// imaginary scratch, run the decimation-in-time recursion over all lanes
// at once and scatter the results back, so every twiddle load and index
// step serves the whole block. Sizes factor as 4, 2, 3, 5, then 7..31
// (80 = 4*4*5, 48 = 4*4*3, 36 = 4*3*3). Radix 2, 3, 4 and 5 levels run
// butterflies: twiddle inputs j >= 1 by W_n^{j*k2}, then a fixed small DFT
// with exact constants. Larger radixes run a generic O(r) combine per
// output. The inverse uses conjugated twiddles, flips the sine terms and
// scales by 1/n afterwards. Every lane runs the same operation sequence,
// so a line's result does not depend on its batch position or width.
// Bluestein sizes transform line by line through a power-of-two helper
// plan. tests/fft_test.cpp pins output digests of this kernel and checks
// its accuracy against a long-double DFT.
//
// Fft3D still accepts a util::KernelKind because the perfbench driver
// passes one; it selects nothing (util/kernel.hpp).
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

#include "util/kernel.hpp"

namespace repro::fft {

using Complex = std::complex<double>;

class Fft1D {
 public:
  // Lines transformed together by one pass of the batched kernel. A
  // shorter tail block runs at its real width.
  static constexpr std::size_t kBatch = 8;

  explicit Fft1D(std::size_t n);

  std::size_t size() const { return n_; }

  // In-place transforms. inverse() includes the 1/n scaling, so
  // inverse(forward(x)) == x.
  void forward(Complex* data) const { forward_many(data, 1, 1, n_); }
  void inverse(Complex* data) const { inverse_many(data, 1, 1, n_); }

  // In-place transforms of `count` lines: element i of line l lives at
  // base[l * line_stride + i * elem_stride]. Each line's result is
  // bit-identical to forward()/inverse() on that line alone.
  void forward_many(Complex* base, std::size_t count, std::size_t elem_stride,
                    std::size_t line_stride) const;
  void inverse_many(Complex* base, std::size_t count, std::size_t elem_stride,
                    std::size_t line_stride) const;

  // Nominal floating-point work of one transform (the classic 5 n log2 n),
  // used by the simulator's compute-cost model.
  double flops() const;

 private:
  void transform_many(Complex* base, std::size_t count,
                      std::size_t elem_stride, std::size_t line_stride,
                      int sign) const;
  // Radix recursion for a size-n level over a block of lanes: kW lanes
  // when kW > 0 (a full block), else the runtime width w.
  template <std::size_t kW>
  void rec_many(std::size_t level, std::size_t n, std::size_t stride,
                const double* in_re, const double* in_im, double* out_re,
                double* out_im, double* scr_re, double* scr_im,
                std::size_t w, int sign) const;
  void bluestein(Complex* data, int sign) const;

  std::size_t n_;
  std::vector<std::size_t> radices_;   // radix of each recursion level
                                       // (empty => Bluestein)
  std::vector<Complex> twiddle_;       // exp(-2 pi i k / n), k in [0, n)
  std::vector<Complex> twiddle_conj_;  // conj(twiddle_[k]) (exact), for the
                                       // inverse transform
  // Bluestein machinery (only allocated when needed).
  struct BluesteinPlan;
  std::shared_ptr<BluesteinPlan> blue_;
};

class Fft3D {
 public:
  // `kind` is accepted for source compatibility and ignored (see above).
  Fft3D(std::size_t nx, std::size_t ny, std::size_t nz,
        util::KernelKind kind = util::default_kernel_kind());

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t nz() const { return nz_; }
  std::size_t volume() const { return nx_ * ny_ * nz_; }

  // In-place transform of a row-major [nx][ny][nz] grid.
  void forward(Complex* grid) const;
  void inverse(Complex* grid) const;

  double flops() const;  // one full 3-D transform

 private:
  std::size_t nx_, ny_, nz_;
  Fft1D fx_, fy_, fz_;
};

}  // namespace repro::fft
