#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace repro::fft {

namespace {

// Factor n into small radixes, in the order the recursion consumes them:
// level i transforms size n / (radix_0 * ... * radix_{i-1}) with radix i.
// Radix 4 first keeps the recursion shallow; 2, 3, 4 and 5 have
// butterflies. Returns empty when a prime factor > 31 remains, signalling
// the Bluestein path.
std::vector<std::size_t> factorize(std::size_t n) {
  std::vector<std::size_t> factors;
  for (std::size_t radix : {4, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}) {
    while (n % radix == 0) {
      factors.push_back(radix);
      n /= radix;
    }
    if (n == 1) break;
  }
  if (n != 1) return {};
  return factors;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// One column k2 of a radix-R level: y_j = W_n^{j*k2} * x_j for j >= 1
// (y_0 = x_0; column 0 skips the unit twiddles), then the R-point DFT
// X[k1] = sum_j W_R^{j*k1} * y_j with exact constants. x_j is at
// x + j * in_step and X[k1] goes to y + k1 * out_step, both lane-
// contiguous. The inverse passes conjugated twiddles and s = -1, which
// flips only the sine terms (a sign flip, so exact). Lanes are
// independent lines and each runs the same operation sequence, so a
// line's bits do not depend on the block width.
template <std::size_t R, std::size_t kW, bool kTwiddle>
void butterfly(const double* xr, const double* xi, std::size_t in_step,
               double* yr, double* yi, std::size_t out_step,
               const double* wr, const double* wi, std::size_t w, double s) {
  const std::size_t lanes = kW > 0 ? kW : w;
#pragma omp simd
  for (std::size_t l = 0; l < lanes; ++l) {
    double ar[R], ai[R];
    ar[0] = xr[l];
    ai[0] = xi[l];
    for (std::size_t j = 1; j < R; ++j) {
      const double re = xr[j * in_step + l];
      const double im = xi[j * in_step + l];
      if constexpr (kTwiddle) {
        ar[j] = wr[j] * re - wi[j] * im;
        ai[j] = wr[j] * im + wi[j] * re;
      } else {
        ar[j] = re;
        ai[j] = im;
      }
    }
    if constexpr (R == 2) {
      yr[l] = ar[0] + ar[1];
      yi[l] = ai[0] + ai[1];
      yr[out_step + l] = ar[0] - ar[1];
      yi[out_step + l] = ai[0] - ai[1];
    } else if constexpr (R == 3) {
      constexpr double kSin60 = 0.86602540378443864676;  // sqrt(3)/2
      const double sr = ar[1] + ar[2], si = ai[1] + ai[2];
      const double dr = s * kSin60 * (ar[1] - ar[2]);
      const double di = s * kSin60 * (ai[1] - ai[2]);
      const double mr = ar[0] - 0.5 * sr, mi = ai[0] - 0.5 * si;
      yr[l] = ar[0] + sr;
      yi[l] = ai[0] + si;
      // X1 = m - i*d, X2 = m + i*d.
      yr[out_step + l] = mr + di;
      yi[out_step + l] = mi - dr;
      yr[2 * out_step + l] = mr - di;
      yi[2 * out_step + l] = mi + dr;
    } else if constexpr (R == 4) {
      const double s0r = ar[0] + ar[2], s0i = ai[0] + ai[2];
      const double s1r = ar[0] - ar[2], s1i = ai[0] - ai[2];
      const double s2r = ar[1] + ar[3], s2i = ai[1] + ai[3];
      const double s3r = s * (ar[1] - ar[3]), s3i = s * (ai[1] - ai[3]);
      yr[l] = s0r + s2r;
      yi[l] = s0i + s2i;
      // X1 = s1 - i*s3, X3 = s1 + i*s3.
      yr[out_step + l] = s1r + s3i;
      yi[out_step + l] = s1i - s3r;
      yr[2 * out_step + l] = s0r - s2r;
      yi[2 * out_step + l] = s0i - s2i;
      yr[3 * out_step + l] = s1r - s3i;
      yi[3 * out_step + l] = s1i + s3r;
    } else {
      static_assert(R == 5, "butterflies exist for radix 2, 3, 4 and 5");
      constexpr double kC1 = 0.30901699437494742410;   // cos(2 pi / 5)
      constexpr double kC2 = -0.80901699437494742410;  // cos(4 pi / 5)
      constexpr double kS1 = 0.95105651629515357212;   // sin(2 pi / 5)
      constexpr double kS2 = 0.58778525229247312917;   // sin(4 pi / 5)
      const double t1r = ar[1] + ar[4], t1i = ai[1] + ai[4];
      const double t2r = s * (ar[1] - ar[4]), t2i = s * (ai[1] - ai[4]);
      const double t3r = ar[2] + ar[3], t3i = ai[2] + ai[3];
      const double t4r = s * (ar[2] - ar[3]), t4i = s * (ai[2] - ai[3]);
      const double m1r = ar[0] + kC1 * t1r + kC2 * t3r;
      const double m1i = ai[0] + kC1 * t1i + kC2 * t3i;
      const double m2r = ar[0] + kC2 * t1r + kC1 * t3r;
      const double m2i = ai[0] + kC2 * t1i + kC1 * t3i;
      const double n1r = kS1 * t2r + kS2 * t4r, n1i = kS1 * t2i + kS2 * t4i;
      const double n2r = kS2 * t2r - kS1 * t4r, n2i = kS2 * t2i - kS1 * t4i;
      yr[l] = ar[0] + t1r + t3r;
      yi[l] = ai[0] + t1i + t3i;
      // X1 = m1 - i*n1, X4 = m1 + i*n1, X2 = m2 - i*n2, X3 = m2 + i*n2.
      yr[out_step + l] = m1r + n1i;
      yi[out_step + l] = m1i - n1r;
      yr[4 * out_step + l] = m1r - n1i;
      yi[4 * out_step + l] = m1i + n1r;
      yr[2 * out_step + l] = m2r + n2i;
      yi[2 * out_step + l] = m2i - n2r;
      yr[3 * out_step + l] = m2r - n2i;
      yi[3 * out_step + l] = m2i + n2r;
    }
  }
}

// All m columns of a radix-R level. Column k2's inputs x_j[k2] sit at
// x + (k2 + j * x_rows) * lanes and its outputs X[k2 + m * k1] go to
// out + (k2 + m * k1) * lanes.
template <std::size_t R, std::size_t kW>
void butterflies(const double* x_re, const double* x_im, std::size_t x_rows,
                 double* out_re, double* out_im, std::size_t m,
                 const Complex* tw, std::size_t tw_step, std::size_t w,
                 double s) {
  const std::size_t lanes = kW > 0 ? kW : w;
  const std::size_t in_step = x_rows * lanes;
  const std::size_t out_step = m * lanes;
  double wr[R] = {};
  double wi[R] = {};
  butterfly<R, kW, false>(x_re, x_im, in_step, out_re, out_im, out_step, wr,
                          wi, w, s);
  for (std::size_t k2 = 1; k2 < m; ++k2) {
    // j * k2 < n, so W_n^{j*k2} needs no wrap.
    for (std::size_t j = 1; j < R; ++j) {
      wr[j] = tw[j * k2 * tw_step].real();
      wi[j] = tw[j * k2 * tw_step].imag();
    }
    butterfly<R, kW, true>(x_re + k2 * lanes, x_im + k2 * lanes, in_step,
                           out_re + k2 * lanes, out_im + k2 * lanes, out_step,
                           wr, wi, w, s);
  }
}

}  // namespace

struct Fft1D::BluesteinPlan {
  explicit BluesteinPlan(std::size_t n)
      : m(next_pow2(2 * n - 1)), fft_m(m), chirp(n), b_fwd(m), b_inv(m) {
    // chirp[k] = exp(-i pi k^2 / n); the quadratic phase of the chirp-z
    // identity jk = (j^2 + k^2 - (k-j)^2) / 2.
    for (std::size_t k = 0; k < n; ++k) {
      // k^2 mod 2n keeps the angle argument small for large n.
      const auto k2 = static_cast<double>((k * k) % (2 * n));
      const double angle = std::numbers::pi * k2 / static_cast<double>(n);
      chirp[k] = Complex(std::cos(angle), -std::sin(angle));
    }
    // b[j] = conj(chirp[|j|]) zero-padded and wrapped, pre-transformed.
    std::vector<Complex> b(m, Complex(0, 0));
    for (std::size_t k = 0; k < n; ++k) {
      b[k] = std::conj(chirp[k]);
      if (k > 0) b[m - k] = std::conj(chirp[k]);
    }
    b_fwd = b;
    fft_m.forward(b_fwd.data());
    // For the inverse transform the chirp conjugates; precompute that too.
    std::vector<Complex> bi(m, Complex(0, 0));
    for (std::size_t k = 0; k < n; ++k) {
      bi[k] = chirp[k];
      if (k > 0) bi[m - k] = chirp[k];
    }
    b_inv = bi;
    fft_m.forward(b_inv.data());
  }

  std::size_t m;
  Fft1D fft_m;  // power-of-two helper plan (never recurses into Bluestein)
  std::vector<Complex> chirp;
  std::vector<Complex> b_fwd;
  std::vector<Complex> b_inv;
};

Fft1D::Fft1D(std::size_t n) : n_(n) {
  REPRO_REQUIRE(n >= 1, "FFT size must be positive");
  twiddle_.resize(n);
  if (n == 1) return;  // identity transform; no radixes or Bluestein needed
  radices_ = factorize(n);
  twiddle_conj_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double angle =
        -2.0 * std::numbers::pi * static_cast<double>(k) /
        static_cast<double>(n);
    twiddle_[k] = Complex(std::cos(angle), std::sin(angle));
    // std::conj only flips a sign bit, so the inverse loads exactly the
    // values a per-pair conjugation would produce.
    twiddle_conj_[k] = std::conj(twiddle_[k]);
  }
  if (radices_.empty()) {
    // Large prime factor: Bluestein's chirp-z (the helper plan is a power
    // of two, so this never recurses more than one level).
    blue_ = std::make_shared<BluesteinPlan>(n);
  }
}

double Fft1D::flops() const {
  if (n_ <= 1) return 0.0;
  const double n = static_cast<double>(n_);
  double work = 5.0 * n * std::log2(n);
  if (blue_) work *= 4.0;  // three pow-2 transforms of ~2n plus chirps
  return work;
}

void Fft1D::forward_many(Complex* base, std::size_t count,
                         std::size_t elem_stride,
                         std::size_t line_stride) const {
  transform_many(base, count, elem_stride, line_stride, +1);
}

void Fft1D::inverse_many(Complex* base, std::size_t count,
                         std::size_t elem_stride,
                         std::size_t line_stride) const {
  transform_many(base, count, elem_stride, line_stride, -1);
}

void Fft1D::transform_many(Complex* base, std::size_t count,
                           std::size_t elem_stride, std::size_t line_stride,
                           int sign) const {
  if (n_ == 1 || count == 0) return;  // inverse scale 1/1 is the identity
  const double scale = 1.0 / static_cast<double>(n_);
  if (blue_) {
    // Per-line fallback. bluestein() runs its helper plan through the
    // batched kernel, so this line buffer is distinct from that scratch.
    static thread_local std::vector<Complex> line;
    line.resize(n_);
    for (std::size_t l = 0; l < count; ++l) {
      Complex* p = base + l * line_stride;
      for (std::size_t i = 0; i < n_; ++i) line[i] = p[i * elem_stride];
      bluestein(line.data(), sign);
      for (std::size_t i = 0; i < n_; ++i) {
        p[i * elem_stride] = sign < 0 ? line[i] * scale : line[i];
      }
    }
    return;
  }
  // Persistent per-thread block scratch: input, output and recursion
  // scratch, each n x kBatch lane-contiguous doubles for real and
  // imaginary parts. rec_many() writes each sub-result fully before
  // reading it, and no transform nests inside a block, so reuse is safe.
  static thread_local std::vector<double> buf;
  const std::size_t plane = n_ * kBatch;
  if (buf.size() < 6 * plane) buf.resize(6 * plane);
  double* in_re = buf.data();
  double* in_im = in_re + plane;
  double* out_re = in_im + plane;
  double* out_im = out_re + plane;
  double* scr_re = out_im + plane;
  double* scr_im = scr_re + plane;
  for (std::size_t b0 = 0; b0 < count; b0 += kBatch) {
    const std::size_t w = std::min(kBatch, count - b0);
    Complex* block = base + b0 * line_stride;
    for (std::size_t i = 0; i < n_; ++i) {
      const Complex* p = block + i * elem_stride;
      for (std::size_t l = 0; l < w; ++l) {
        in_re[i * w + l] = p[l * line_stride].real();
        in_im[i * w + l] = p[l * line_stride].imag();
      }
    }
    // Full blocks get a fixed-width lane loop the compiler unrolls and
    // vectorizes (~1.4x faster than the runtime width on the 80 x 36 x 48
    // grid, g++ 12 -O3 on an x86-64 Xeon); tail blocks run at their real
    // width.
    const auto rec =
        w == kBatch ? &Fft1D::rec_many<kBatch> : &Fft1D::rec_many<0>;
    (this->*rec)(0, n_, 1, in_re, in_im, out_re, out_im, scr_re, scr_im, w,
                 sign);
    for (std::size_t i = 0; i < n_; ++i) {
      Complex* p = block + i * elem_stride;
      for (std::size_t l = 0; l < w; ++l) {
        const double re = out_re[i * w + l];
        const double im = out_im[i * w + l];
        p[l * line_stride] =
            sign < 0 ? Complex(re * scale, im * scale) : Complex(re, im);
      }
    }
  }
}

template <std::size_t kW>
void Fft1D::rec_many(std::size_t level, std::size_t n, std::size_t stride,
                     const double* in_re, const double* in_im, double* out_re,
                     double* out_im, double* scr_re, double* scr_im,
                     std::size_t w, int sign) const {
  const std::size_t lanes = kW > 0 ? kW : w;
  const std::size_t r = radices_[level];
  const std::size_t m = n / r;
  const std::size_t tw_step = n_ / n;
  const Complex* tw = sign < 0 ? twiddle_conj_.data() : twiddle_.data();

  // Sub-transform j handles inputs j, j+r, j+2r, ... (decimation in time);
  // its result lands in scratch rows [j*m, (j+1)*m). A leaf level (m == 1)
  // reads its inputs in place: input j is row j * stride.
  const double* x_re = in_re;
  const double* x_im = in_im;
  std::size_t x_rows = stride;
  if (m > 1) {
    for (std::size_t j = 0; j < r; ++j) {
      const std::size_t in_off = j * stride * lanes;
      const std::size_t sub_off = j * m * lanes;
      rec_many<kW>(level + 1, m, stride * r, in_re + in_off, in_im + in_off,
                   scr_re + sub_off, scr_im + sub_off, out_re + sub_off,
                   out_im + sub_off, w, sign);
    }
    x_re = scr_re;
    x_im = scr_im;
    x_rows = m;
  }
  const double s = sign < 0 ? -1.0 : 1.0;
  switch (r) {
    case 2:
      return butterflies<2, kW>(x_re, x_im, x_rows, out_re, out_im, m, tw,
                                tw_step, w, s);
    case 3:
      return butterflies<3, kW>(x_re, x_im, x_rows, out_re, out_im, m, tw,
                                tw_step, w, s);
    case 4:
      return butterflies<4, kW>(x_re, x_im, x_rows, out_re, out_im, m, tw,
                                tw_step, w, s);
    case 5:
      return butterflies<5, kW>(x_re, x_im, x_rows, out_re, out_im, m, tw,
                                tw_step, w, s);
    default:
      break;
  }
  // Generic combine for radix 7..31: X[k2 + m*k1] = sum_j W_n^{j*(k2 +
  // m*k1)} * Y_j[k2], with W_n^t == root[t * (n_/n)]. The exponents
  // t_j(k) = (j*k) mod n step by j with one wrap, and k2 = k mod m steps
  // by one, so the loop carries counters instead of computing modulos.
  std::size_t tvals[32] = {};  // per-j exponent; factorize() caps r at 31
  std::size_t k2 = 0;
  double acc_re[kBatch] = {};
  double acc_im[kBatch] = {};
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t l = 0; l < lanes; ++l) {
      acc_re[l] = 0.0;
      acc_im[l] = 0.0;
    }
    for (std::size_t j = 0; j < r; ++j) {
      const double wr = tw[tvals[j] * tw_step].real();
      const double wi = tw[tvals[j] * tw_step].imag();
      const double* xr = x_re + (j * x_rows + k2) * lanes;
      const double* xi = x_im + (j * x_rows + k2) * lanes;
#pragma omp simd
      for (std::size_t l = 0; l < lanes; ++l) {
        acc_re[l] += wr * xr[l] - wi * xi[l];
        acc_im[l] += wr * xi[l] + wi * xr[l];
      }
      tvals[j] += j;  // j < n, so a single conditional wrap suffices
      if (tvals[j] >= n) tvals[j] -= n;
    }
#pragma omp simd
    for (std::size_t l = 0; l < lanes; ++l) {
      out_re[k * lanes + l] = acc_re[l];
      out_im[k * lanes + l] = acc_im[l];
    }
    if (++k2 == m) k2 = 0;
  }
}

void Fft1D::bluestein(Complex* data, int sign) const {
  const BluesteinPlan& bp = *blue_;
  const std::size_t m = bp.m;
  // Separate from the batched kernel's block scratch: bp.fft_m's
  // transforms below run while `a` is live. The helper plan is a power of
  // two, so it never reaches this function recursively.
  static thread_local std::vector<Complex> a;
  a.assign(m, Complex(0, 0));
  for (std::size_t k = 0; k < n_; ++k) {
    const Complex c = sign > 0 ? bp.chirp[k] : std::conj(bp.chirp[k]);
    a[k] = data[k] * c;
  }
  bp.fft_m.forward(a.data());
  const auto& b = sign > 0 ? bp.b_fwd : bp.b_inv;
  for (std::size_t i = 0; i < m; ++i) a[i] *= b[i];
  bp.fft_m.inverse(a.data());
  for (std::size_t k = 0; k < n_; ++k) {
    const Complex c = sign > 0 ? bp.chirp[k] : std::conj(bp.chirp[k]);
    data[k] = a[k] * c;
  }
}

// --- 3-D -------------------------------------------------------------------

Fft3D::Fft3D(std::size_t nx, std::size_t ny, std::size_t nz,
             util::KernelKind /*kind*/)
    : nx_(nx), ny_(ny), nz_(nz), fx_(nx), fy_(ny), fz_(nz) {}

double Fft3D::flops() const {
  const auto dx = static_cast<double>(nx_);
  const auto dy = static_cast<double>(ny_);
  const auto dz = static_cast<double>(nz_);
  return dy * dz * fx_.flops() + dx * dz * fy_.flops() + dx * dy * fz_.flops();
}

// Axis passes: z-lines are contiguous rows; y-lines run across one
// x-plane at stride nz; x-lines run across the whole grid at stride ny*nz,
// with the (y, z) positions as adjacent lanes.
void Fft3D::forward(Complex* grid) const {
  const std::size_t plane = ny_ * nz_;
  fz_.forward_many(grid, nx_ * ny_, 1, nz_);
  for (std::size_t x = 0; x < nx_; ++x) {
    fy_.forward_many(grid + x * plane, nz_, nz_, 1);
  }
  fx_.forward_many(grid, plane, plane, 1);
}

void Fft3D::inverse(Complex* grid) const {
  const std::size_t plane = ny_ * nz_;
  fx_.inverse_many(grid, plane, plane, 1);
  for (std::size_t x = 0; x < nx_; ++x) {
    fy_.inverse_many(grid + x * plane, nz_, nz_, 1);
  }
  fz_.inverse_many(grid, nx_ * ny_, 1, nz_);
}

// --- real-to-complex lines -------------------------------------------------

RealFft1D::RealFft1D(std::size_t n)
    : n_(n), nh_(n / 2 + 1), f_(n), lines_(Fft1D::kBatch * n) {}

// Real lines 2p and 2p+1 of a block become one complex line z = a + i b,
// so one complex transform Z serves both; with m = (n - k) mod n,
// A[k] = (Z[k] + conj Z[m]) / 2 and B[k] = (Z[k] - conj Z[m]) / 2i.
void RealFft1D::forward_many(const double* in, std::size_t count,
                             Complex* out) {
  const std::size_t n = n_;
  for (std::size_t l0 = 0; l0 < count; l0 += 2 * Fft1D::kBatch) {
    const std::size_t pairs = std::min(Fft1D::kBatch, (count - l0 + 1) / 2);
    for (std::size_t p = 0; p < pairs; ++p) {
      const double* a = in + (l0 + 2 * p) * n;
      Complex* z = lines_.data() + p * n;
      if (l0 + 2 * p + 1 < count) {
        const double* b = a + n;
        for (std::size_t j = 0; j < n; ++j) z[j] = Complex(a[j], b[j]);
      } else {
        for (std::size_t j = 0; j < n; ++j) z[j] = Complex(a[j], 0.0);
      }
    }
    f_.forward_many(lines_.data(), pairs, 1, n);
    for (std::size_t p = 0; p < pairs; ++p) {
      const Complex* z = lines_.data() + p * n;
      Complex* a = out + (l0 + 2 * p) * nh_;
      const bool has_b = l0 + 2 * p + 1 < count;
      Complex* b = a + nh_;
      // k = 0 is its own mirror (as is k = n/2 for even n, which the loop
      // gets right with m = k): A = Re Z, B = Im Z.
      a[0] = Complex(z[0].real(), 0.0);
      if (has_b) b[0] = Complex(z[0].imag(), 0.0);
      for (std::size_t k = 1; k < nh_; ++k) {
        const double zr = z[k].real(), zi = z[k].imag();
        const double mr = z[n - k].real(), mi = z[n - k].imag();
        a[k] = Complex(0.5 * (zr + mr), 0.5 * (zi - mi));
        if (has_b) b[k] = Complex(0.5 * (zi + mi), 0.5 * (mr - zr));
      }
    }
  }
}

// The mirror of forward_many(): each pair of half spectra A, B is rebuilt
// into the full spectrum of z = a + i b, Z[k] = A[k] + i B[k] and
// Z[n - k] = conj A[k] + i conj B[k], whose inverse holds a in its real
// and b in its imaginary part. The imaginary parts of A and B at k = 0
// (and k = n/2 for even n) are dropped.
void RealFft1D::inverse_many(const Complex* in, std::size_t count,
                             double* out) {
  const std::size_t n = n_;
  for (std::size_t l0 = 0; l0 < count; l0 += 2 * Fft1D::kBatch) {
    const std::size_t pairs = std::min(Fft1D::kBatch, (count - l0 + 1) / 2);
    for (std::size_t p = 0; p < pairs; ++p) {
      const Complex* a = in + (l0 + 2 * p) * nh_;
      const bool has_b = l0 + 2 * p + 1 < count;
      const Complex* b = a + nh_;
      Complex* z = lines_.data() + p * n;
      z[0] = Complex(a[0].real(), has_b ? b[0].real() : 0.0);
      for (std::size_t k = 1; 2 * k < n; ++k) {
        const double ar = a[k].real(), ai = a[k].imag();
        const double br = has_b ? b[k].real() : 0.0;
        const double bi = has_b ? b[k].imag() : 0.0;
        z[k] = Complex(ar - bi, ai + br);
        z[n - k] = Complex(ar + bi, br - ai);
      }
      if (n % 2 == 0) {
        const std::size_t h = n / 2;
        z[h] = Complex(a[h].real(), has_b ? b[h].real() : 0.0);
      }
    }
    f_.inverse_many(lines_.data(), pairs, 1, n);
    for (std::size_t p = 0; p < pairs; ++p) {
      const Complex* z = lines_.data() + p * n;
      double* a = out + (l0 + 2 * p) * n;
      for (std::size_t j = 0; j < n; ++j) a[j] = z[j].real();
      if (l0 + 2 * p + 1 < count) {
        double* b = a + n;
        for (std::size_t j = 0; j < n; ++j) b[j] = z[j].imag();
      }
    }
  }
}

// --- 3-D real-to-complex ---------------------------------------------------

RealFft3D::RealFft3D(std::size_t nx, std::size_t ny, std::size_t nz)
    : nx_(nx), ny_(ny), nzh_(nz / 2 + 1), fx_(nx), fy_(ny), fz_(nz) {}

void RealFft3D::forward(const double* in, Complex* out) {
  fz_.forward_many(in, nx_ * ny_, out);
  const std::size_t plane = ny_ * nzh_;
  for (std::size_t x = 0; x < nx_; ++x) {
    fy_.forward_many(out + x * plane, nzh_, nzh_, 1);
  }
  fx_.forward_many(out, plane, plane, 1);
}

void RealFft3D::inverse(Complex* in, double* out) {
  const std::size_t plane = ny_ * nzh_;
  fx_.inverse_many(in, plane, plane, 1);
  for (std::size_t x = 0; x < nx_; ++x) {
    fy_.inverse_many(in + x * plane, nzh_, nzh_, 1);
  }
  fz_.inverse_many(in, nx_ * ny_, out);
}

}  // namespace repro::fft
