#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numbers>
#include <string>
#include <type_traits>
#include <vector>

#include "fft/fft.hpp"
#include "fft/parallel_fft.hpp"
#include "middleware/middleware.hpp"
#include "net/cluster.hpp"
#include "perf/recorder.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace repro::fft {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& c : v) c = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return v;
}

// O(n^2) reference DFT summed in long double: the forward transform for
// sign = +1, the inverse (with its 1/n) for sign = -1.
std::vector<std::complex<long double>> naive_dft(const std::vector<Complex>& x,
                                                 int sign = +1) {
  const std::size_t n = x.size();
  std::vector<std::complex<long double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<long double> acc(0, 0);
    for (std::size_t j = 0; j < n; ++j) {
      const long double ang = -2.0L * sign * std::numbers::pi_v<long double> *
                              static_cast<long double>(j * k % n) /
                              static_cast<long double>(n);
      acc += std::complex<long double>(x[j].real(), x[j].imag()) *
             std::complex<long double>(std::cos(ang), std::sin(ang));
    }
    out[k] = sign > 0 ? acc : acc / static_cast<long double>(n);
  }
  return out;
}

class Fft1DTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1DTest, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  Fft1D plan(n);
  auto x = random_signal(n, 10 + n);
  const auto expect = naive_dft(x);
  plan.forward(x.data());
  for (std::size_t k = 0; k < n; ++k) {
    const std::complex<long double> got(x[k].real(), x[k].imag());
    EXPECT_NEAR(static_cast<double>(std::abs(got - expect[k])), 0.0,
                1e-8 * std::sqrt(n))
        << "n=" << n << " k=" << k;
  }
}

TEST_P(Fft1DTest, RoundTrip) {
  const std::size_t n = GetParam();
  Fft1D plan(n);
  const auto orig = random_signal(n, n);
  auto x = orig;
  plan.forward(x.data());
  plan.inverse(x.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(x[i] - orig[i]), 0.0, 1e-10);
  }
}

TEST_P(Fft1DTest, ParsevalIdentity) {
  const std::size_t n = GetParam();
  Fft1D plan(n);
  auto x = random_signal(n, 3 * n + 1);
  double time_energy = 0.0;
  for (const auto& c : x) time_energy += std::norm(c);
  plan.forward(x.data());
  double freq_energy = 0.0;
  for (const auto& c : x) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-8 * time_energy * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, Fft1DTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 12, 15,
                                           16, 30, 36, 48, 64, 80, 97, 101,
                                           120));

TEST(Fft1DBasicsTest, ImpulseGivesFlatSpectrum) {
  Fft1D plan(16);
  std::vector<Complex> x(16, Complex(0, 0));
  x[0] = Complex(1, 0);
  plan.forward(x.data());
  for (const auto& c : x) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(Fft1DBasicsTest, DcGivesDeltaAtZero) {
  Fft1D plan(12);
  std::vector<Complex> x(12, Complex(2, 0));
  plan.forward(x.data());
  EXPECT_NEAR(x[0].real(), 24.0, 1e-12);
  for (std::size_t k = 1; k < 12; ++k) {
    EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-12);
  }
}

TEST(Fft1DBasicsTest, Linearity) {
  const std::size_t n = 48;
  Fft1D plan(n);
  auto a = random_signal(n, 1);
  auto b = random_signal(n, 2);
  std::vector<Complex> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  plan.forward(a.data());
  plan.forward(b.data());
  plan.forward(sum.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(sum[i] - (2.0 * a[i] + 3.0 * b[i])), 0.0, 1e-9);
  }
}

TEST(Fft1DBasicsTest, FlopsEstimatePositive) {
  EXPECT_GT(Fft1D(80).flops(), 0.0);
  EXPECT_GT(Fft1D(97).flops(), Fft1D(96).flops());  // Bluestein overhead
  EXPECT_EQ(Fft1D(1).flops(), 0.0);
}

// The nominal 5 n log2 n feeds the simulated compute-cost model, so it is
// pinned exactly: a kernel rewrite must not move simulated time.
TEST(Fft1DBasicsTest, FlopsArePinned) {
  EXPECT_EQ(Fft1D(80).flops(), 2528.7712379549453);
  EXPECT_EQ(Fft1D(48).flops(), 1340.3910001730774);
  EXPECT_EQ(Fft1D(36).flops(), 930.58650025961617);
  EXPECT_EQ(Fft3D(80, 36, 48).flops(), 11803494.940681534);
}

// Accuracy oracle: forward() and inverse() against the long-double DFT, to
// within 1e-15 of the largest output magnitude. 97 takes the Bluestein
// path.
class Fft1DAccuracyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1DAccuracyTest, WithinOneEMinus15OfLongDoubleDft) {
  const std::size_t n = GetParam();
  const Fft1D plan(n);
  const auto input = random_signal(n, 555 + n);
  for (const int sign : {+1, -1}) {
    auto got = input;
    sign > 0 ? plan.forward(got.data()) : plan.inverse(got.data());
    const auto want = naive_dft(input, sign);
    long double max_err = 0, max_mag = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::complex<long double> g(got[k].real(), got[k].imag());
      max_err = std::max(max_err, std::abs(g - want[k]));
      max_mag = std::max(max_mag, std::abs(want[k]));
    }
    EXPECT_LE(max_err, 1e-15L * max_mag)
        << (sign > 0 ? "forward" : "inverse") << " n=" << n
        << " relative error " << static_cast<double>(max_err / max_mag);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, Fft1DAccuracyTest,
                         ::testing::Values(36, 48, 80, 97),
                         [](const auto& info) {
                           return std::string("n").append(
                               std::to_string(info.param));
                         });

TEST(Fft1DBasicsTest, CircularShiftTheorem) {
  // x[(j - s) mod n] transforms to X[k] * exp(-2 pi i k s / n).
  const std::size_t n = 48;
  const std::size_t shift = 7;
  Fft1D plan(n);
  auto x = random_signal(n, 99);
  std::vector<Complex> shifted(n);
  for (std::size_t j = 0; j < n; ++j) shifted[(j + shift) % n] = x[j];
  plan.forward(x.data());
  plan.forward(shifted.data());
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = -2.0 * std::numbers::pi *
                       static_cast<double>(k * shift % n) /
                       static_cast<double>(n);
    const Complex phase(std::cos(ang), std::sin(ang));
    EXPECT_NEAR(std::abs(shifted[k] - x[k] * phase), 0.0, 1e-9);
  }
}

TEST(Fft1DBasicsTest, RealInputHasConjugateSymmetry) {
  const std::size_t n = 36;
  Fft1D plan(n);
  util::Rng rng(5);
  std::vector<Complex> x(n);
  for (auto& c : x) c = Complex(rng.uniform(-1, 1), 0.0);
  plan.forward(x.data());
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_NEAR(std::abs(x[k] - std::conj(x[n - k])), 0.0, 1e-10);
  }
}

struct GridCase {
  std::size_t nx, ny, nz;
};

class Fft3DGridTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(Fft3DGridTest, RoundTripAndParseval) {
  const auto [nx, ny, nz] = GetParam();
  Fft3D plan(nx, ny, nz);
  auto grid = random_signal(nx * ny * nz, nx * 1000 + ny * 10 + nz);
  const auto orig = grid;
  double time_energy = 0.0;
  for (const auto& c : grid) time_energy += std::norm(c);
  plan.forward(grid.data());
  double freq_energy = 0.0;
  for (const auto& c : grid) freq_energy += std::norm(c);
  const auto volume = static_cast<double>(nx * ny * nz);
  EXPECT_NEAR(freq_energy, time_energy * volume,
              1e-8 * time_energy * volume);
  plan.inverse(grid.data());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_NEAR(std::abs(grid[i] - orig[i]), 0.0, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, Fft3DGridTest,
    ::testing::Values(GridCase{80, 36, 48},  // the paper's PME grid
                      GridCase{1, 1, 1}, GridCase{2, 3, 5},
                      GridCase{16, 16, 16}, GridCase{7, 9, 11},
                      GridCase{32, 4, 10}));

TEST(Fft3DTest, RoundTripPaperGrid) {
  Fft3D plan(20, 9, 12);
  auto grid = random_signal(20 * 9 * 12, 55);
  const auto orig = grid;
  plan.forward(grid.data());
  plan.inverse(grid.data());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_NEAR(std::abs(grid[i] - orig[i]), 0.0, 1e-10);
  }
}

TEST(Fft3DTest, SingleModeTransformsToDelta) {
  const std::size_t nx = 8;
  const std::size_t ny = 6;
  const std::size_t nz = 10;
  Fft3D plan(nx, ny, nz);
  std::vector<Complex> grid(nx * ny * nz);
  // Plane wave exp(+2 pi i (2x/nx + y/ny + 3z/nz)) -> delta at (2,1,3)
  // under the e^{-i} forward convention.
  for (std::size_t x = 0; x < nx; ++x) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t z = 0; z < nz; ++z) {
        const double phase =
            2.0 * std::numbers::pi *
            (2.0 * x / nx + 1.0 * y / ny + 3.0 * z / nz);
        grid[(x * ny + y) * nz + z] =
            Complex(std::cos(phase), std::sin(phase));
      }
    }
  }
  plan.forward(grid.data());
  const double total = static_cast<double>(nx * ny * nz);
  for (std::size_t x = 0; x < nx; ++x) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t z = 0; z < nz; ++z) {
        const double expect =
            (x == 2 && y == 1 && z == 3) ? total : 0.0;
        EXPECT_NEAR(std::abs(grid[(x * ny + y) * nz + z]), expect, 1e-8);
      }
    }
  }
}

// --- real-to-complex 3-D ----------------------------------------------------

std::vector<double> random_real_grid(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

// The half spectrum [nx][ny][nz/2+1] of a real [nx][ny][nz] grid by the
// O(N^2) 3-D DFT summed in long double.
std::vector<std::complex<long double>> naive_half_spectrum(
    const std::vector<double>& grid, std::size_t nx, std::size_t ny,
    std::size_t nz) {
  const std::size_t nzh = nz / 2 + 1;
  const long double two_pi = 2.0L * std::numbers::pi_v<long double>;
  std::vector<std::complex<long double>> out(nx * ny * nzh);
  for (std::size_t kx = 0; kx < nx; ++kx) {
    for (std::size_t ky = 0; ky < ny; ++ky) {
      for (std::size_t kz = 0; kz < nzh; ++kz) {
        std::complex<long double> acc(0, 0);
        for (std::size_t x = 0; x < nx; ++x) {
          for (std::size_t y = 0; y < ny; ++y) {
            for (std::size_t z = 0; z < nz; ++z) {
              const long double turns =
                  static_cast<long double>(kx * x % nx) / nx +
                  static_cast<long double>(ky * y % ny) / ny +
                  static_cast<long double>(kz * z % nz) / nz;
              acc += static_cast<long double>(grid[(x * ny + y) * nz + z]) *
                     std::polar(1.0L, -two_pi * turns);
            }
          }
        }
        out[(kx * ny + ky) * nzh + kz] = acc;
      }
    }
  }
  return out;
}

// Grids with even and odd nz, an odd line count (the lone last z-line is
// packed with zero) and more lines than one batch of pairs.
class RealFft3DTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(RealFft3DTest, ForwardMatchesLongDoubleDft) {
  const auto [nx, ny, nz] = GetParam();
  RealFft3D plan(nx, ny, nz);
  ASSERT_EQ(plan.half_nz(), nz / 2 + 1);
  const auto grid = random_real_grid(nx * ny * nz, 7 * nx + 3 * ny + nz);
  std::vector<Complex> spec(plan.spectrum_size());
  plan.forward(grid.data(), spec.data());
  const auto want = naive_half_spectrum(grid, nx, ny, nz);
  long double max_err = 0, max_mag = 0;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const std::complex<long double> g(spec[i].real(), spec[i].imag());
    max_err = std::max(max_err, std::abs(g - want[i]));
    max_mag = std::max(max_mag, std::abs(want[i]));
  }
  EXPECT_LE(max_err, 1e-15L * max_mag)
      << "relative error " << static_cast<double>(max_err / max_mag);
}

// The inverse of the oracle's half spectrum (rounded to double) is the
// grid it came from: the c2r transform against the long-double DFT.
TEST_P(RealFft3DTest, InverseMatchesLongDoubleDft) {
  const auto [nx, ny, nz] = GetParam();
  RealFft3D plan(nx, ny, nz);
  const auto grid = random_real_grid(nx * ny * nz, 11 * nx + ny + 5 * nz);
  const auto half = naive_half_spectrum(grid, nx, ny, nz);
  std::vector<Complex> spec(half.size());
  for (std::size_t i = 0; i < half.size(); ++i) {
    spec[i] = Complex(static_cast<double>(half[i].real()),
                      static_cast<double>(half[i].imag()));
  }
  std::vector<double> got(grid.size());
  plan.inverse(spec.data(), got.data());
  double max_err = 0, max_mag = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    max_err = std::max(max_err, std::abs(got[i] - grid[i]));
    max_mag = std::max(max_mag, std::abs(grid[i]));
  }
  EXPECT_LE(max_err, 1e-15 * max_mag) << "relative error "
                                      << max_err / max_mag;
}

TEST_P(RealFft3DTest, RoundTrip) {
  const auto [nx, ny, nz] = GetParam();
  RealFft3D plan(nx, ny, nz);
  const auto grid = random_real_grid(nx * ny * nz, nx + 13 * ny + 17 * nz);
  std::vector<Complex> spec(plan.spectrum_size());
  std::vector<double> back(grid.size());
  plan.forward(grid.data(), spec.data());
  plan.inverse(spec.data(), back.data());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_NEAR(back[i], grid[i], 1e-13) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, RealFft3DTest,
    ::testing::Values(GridCase{4, 3, 6}, GridCase{3, 5, 7},
                      GridCase{6, 5, 8}, GridCase{7, 5, 9},
                      GridCase{5, 3, 1}, GridCase{2, 2, 2}));

// --- slab partition ---------------------------------------------------------

TEST(SlabPartitionTest, CoversAllPlanes) {
  for (std::size_t n : {1u, 5u, 48u, 80u}) {
    for (int p : {1, 2, 3, 7, 8, 16}) {
      SlabPartition part(n, p);
      std::size_t covered = 0;
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(part.begin(r), covered);
        covered += part.count(r);
      }
      EXPECT_EQ(covered, n);
      for (std::size_t plane = 0; plane < n; ++plane) {
        const int owner = part.owner(plane);
        EXPECT_GE(plane, part.begin(owner));
        EXPECT_LT(plane, part.end(owner));
      }
    }
  }
}

TEST(SlabPartitionTest, BalancedWithinOne) {
  SlabPartition part(48, 7);
  std::size_t lo = 48;
  std::size_t hi = 0;
  for (int r = 0; r < 7; ++r) {
    lo = std::min(lo, part.count(r));
    hi = std::max(hi, part.count(r));
  }
  EXPECT_LE(hi - lo, 1u);
}

// --- parallel FFT -----------------------------------------------------------

// Runs the slab transform of a random real nx x ny x nz grid on p ranks
// over the `kind` middleware and holds every rank's half-spectrum z-slab
// (layout [lkz][ny][nx]) to RealFft3D's half spectrum within 1e-8, and
// the round trip back to its x-slab within 1e-10. Returns each rank's
// half-spectrum plane count.
std::vector<std::size_t> check_slab_transform(
    std::size_t nx, std::size_t ny, std::size_t nz, int p, std::uint64_t seed,
    middleware::Kind kind = middleware::Kind::kMpi) {
  const auto full = random_real_grid(nx * ny * nz, seed);
  RealFft3D serial(nx, ny, nz);
  std::vector<Complex> reference(serial.spectrum_size());
  serial.forward(full.data(), reference.data());
  const std::size_t nzh = serial.half_nz();

  net::ClusterConfig config;
  config.nranks = p;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
  std::vector<std::size_t> planes(static_cast<std::size_t>(p));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster,
                   recs[static_cast<std::size_t>(ctx.rank())]);
    const auto mw = middleware::make_middleware(kind, comm);
    ParallelFft3D pfft(nx, ny, nz, *mw);
    const int me = comm.rank();
    const std::size_t x0 = pfft.x_slabs().begin(me);
    const std::vector<double> xslab(
        full.begin() + static_cast<long>(x0 * ny * nz),
        full.begin() + static_cast<long>(x0 * ny * nz + pfft.x_slab_size()));
    std::vector<Complex> zslab(pfft.z_slab_size());
    pfft.forward(xslab.data(), zslab.data());

    const std::size_t kz0 = pfft.kz_begin(me);
    planes[static_cast<std::size_t>(me)] = pfft.local_kz_count();
    for (std::size_t kl = 0; kl < pfft.local_kz_count(); ++kl) {
      for (std::size_t y = 0; y < ny; ++y) {
        for (std::size_t x = 0; x < nx; ++x) {
          const Complex got = zslab[(kl * ny + y) * nx + x];
          const Complex want = reference[(x * ny + y) * nzh + kz0 + kl];
          EXPECT_NEAR(std::abs(got - want), 0.0, 1e-8)
              << "p=" << p << " x=" << x << " y=" << y << " kz=" << kz0 + kl;
        }
      }
    }

    std::vector<double> back(pfft.x_slab_size());
    pfft.backward(zslab.data(), back.data());
    for (std::size_t i = 0; i < back.size(); ++i) {
      EXPECT_NEAR(back[i], xslab[i], 1e-10) << "p=" << p << " i=" << i;
    }
  });
  return planes;
}

class ParallelFftTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFftTest, MatchesSerial3D) {
  const int p = GetParam();
  const auto planes = check_slab_transform(20, 9, 12, p, 123);
  // The ranks own the half spectrum's 7 planes between them.
  std::size_t total = 0;
  for (const std::size_t n : planes) total += n;
  EXPECT_EQ(total, 7u) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParallelFftTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST(ParallelFftTest2, OddMixedRadixGridMatchesSerial) {
  // Fully odd/mixed-radix extents: every axis hits the odd factor paths,
  // the slab partition is uneven on both transposed dimensions, odd nz
  // leaves no kz = nz/2 plane and the 4 half-spectrum planes fall to
  // ranks 0 and 1.
  const auto planes = check_slab_transform(15, 9, 7, 4, 77);
  EXPECT_EQ(planes, (std::vector<std::size_t>{2, 2, 0, 0}));
}

TEST(ParallelFftTest2, WorksWithEmptySlabs) {
  // More ranks than z-planes, and past the middle of the spectrum: ranks
  // 3-7 own no half-spectrum plane, and ranks 4-7 no z-plane at all, so
  // their transpose blocks are empty. Both middlewares' transposes run.
  for (const auto kind : {middleware::Kind::kMpi, middleware::Kind::kCmpi}) {
    SCOPED_TRACE(middleware::to_string(kind));
    const auto planes = check_slab_transform(16, 4, 4, 8, 9, kind);
    EXPECT_EQ(planes, (std::vector<std::size_t>{1, 1, 1, 0, 0, 0, 0, 0}));
  }
}

// The element type of the slab transform's x-slab, read off forward(), so
// the traffic and charge pins below hold whatever the real-space input is.
template <class Plan, class X, class Z>
X x_cell_of(void (Plan::*)(X*, Z*));
using XCell = std::remove_const_t<decltype(x_cell_of(&ParallelFft3D::forward))>;

// Hands every transpose to the raw-MPI personality, recording its byte
// counts and displacements on the way.
class RecordingTransport final : public middleware::Transport {
 public:
  struct Layout {
    std::vector<std::size_t> send_counts, send_displs, recv_counts,
        recv_displs;
  };

  explicit RecordingTransport(mpi::Comm& comm) : inner_(comm) {}

  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }
  void transpose(const void* send, const std::vector<std::size_t>& sc,
                 const std::vector<std::size_t>& sd, void* recv,
                 const std::vector<std::size_t>& rc,
                 const std::vector<std::size_t>& rd) override {
    layouts.push_back({sc, sd, rc, rd});
    inner_.transpose(send, sc, sd, recv, rc, rd);
  }

  std::vector<Layout> layouts;

 private:
  middleware::MpiMiddleware inner_;
};

// Byte counts block(0 .. p-1) with displacements packed in rank order.
RecordingTransport::Layout complex_blocks(
    int p, const std::function<std::size_t(int)>& block,
    const std::function<std::size_t(int)>& incoming) {
  RecordingTransport::Layout l;
  std::size_t at = 0, rat = 0;
  for (int r = 0; r < p; ++r) {
    l.send_counts.push_back(block(r));
    l.send_displs.push_back(at);
    at += block(r);
    l.recv_counts.push_back(incoming(r));
    l.recv_displs.push_back(rat);
    rat += incoming(r);
  }
  return l;
}

// The simulated traffic of the slab transform is the complex model's: the
// forward transpose ships lx(me) * ny * lz(d) complex values (16 bytes)
// to every rank d and receives lx(s) * ny * lz(me) from every rank s; the
// backward transpose ships and receives the mirror blocks.
TEST(ParallelFftTest2, TransposesShipTheComplexModelsBlocks) {
  const std::size_t nx = 20, ny = 9, nz = 12;
  const int p = 3;
  const SlabPartition xs(nx, p), zs(nz, p);
  constexpr std::size_t kComplexBytes = 16;
  net::ClusterConfig config;
  config.nranks = p;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
  std::vector<std::vector<RecordingTransport::Layout>> got(
      static_cast<std::size_t>(p));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster, recs[static_cast<std::size_t>(ctx.rank())]);
    RecordingTransport transport(comm);
    ParallelFft3D pfft(nx, ny, nz, transport);
    std::vector<XCell> x(pfft.x_slab_size());
    std::vector<Complex> z(pfft.z_slab_size());
    pfft.forward(x.data(), z.data());
    pfft.backward(z.data(), x.data());
    got[static_cast<std::size_t>(ctx.rank())] = transport.layouts;
  });
  for (int me = 0; me < p; ++me) {
    SCOPED_TRACE(::testing::Message() << "rank " << me);
    const auto& layouts = got[static_cast<std::size_t>(me)];
    ASSERT_EQ(layouts.size(), 2u);
    // Planes x of rank a times planes z of rank b, as complex bytes.
    auto block = [&](int a, int b) {
      return xs.count(a) * ny * zs.count(b) * kComplexBytes;
    };
    const auto forward = complex_blocks(
        p, [&](int d) { return block(me, d); },
        [&](int s) { return block(s, me); });
    const auto backward = complex_blocks(
        p, [&](int d) { return block(d, me); },
        [&](int s) { return block(me, s); });
    const RecordingTransport::Layout* want[2] = {&forward, &backward};
    for (int t = 0; t < 2; ++t) {
      EXPECT_EQ(layouts[t].send_counts, want[t]->send_counts) << "t=" << t;
      EXPECT_EQ(layouts[t].send_displs, want[t]->send_displs) << "t=" << t;
      EXPECT_EQ(layouts[t].recv_counts, want[t]->recv_counts) << "t=" << t;
      EXPECT_EQ(layouts[t].recv_displs, want[t]->recv_displs) << "t=" << t;
    }
  }
}

// The flops a rank charges for one forward and one backward transform are
// the complex model's (the 1-D stages' Fft1D::flops() and one flop per
// packed element), pinned exactly: simulated time follows from them.
TEST(ParallelFftTest2, ChargesComputeTime) {
  net::ClusterConfig config;
  config.nranks = 2;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(2);
  std::vector<double> forward(2), total(2);
  sim::Engine engine(2);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster,
                   recs[static_cast<std::size_t>(ctx.rank())]);
    middleware::MpiMiddleware mw(comm);
    double charged = 0.0;
    ParallelFft3D pfft(12, 6, 8, mw,
                       [&](double flops) { charged += flops; });
    std::vector<XCell> x(pfft.x_slab_size());
    std::vector<Complex> z(pfft.z_slab_size());
    pfft.forward(x.data(), z.data());
    forward[static_cast<std::size_t>(ctx.rank())] = charged;
    pfft.backward(z.data(), x.data());
    total[static_cast<std::size_t>(ctx.rank())] = charged;
  });
  // 6 x-planes and 4 z-planes a rank: 6 (6 fz + 8 fy) + 576 packed + 24 fx
  // a direction.
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(forward[r], 13780.692002076928) << "rank " << r;
    EXPECT_EQ(total[r], 27561.384004153857) << "rank " << r;
  }
}

// --- bit-identity pins -------------------------------------------------------
//
// Every transform's output bytes are pinned by a 64-bit digest of this
// kernel (radix-2/3/4/5 butterflies, the generic combine above 5,
// Bluestein for large primes), so any change to its rounding shows up
// here and must be re-pinned on purpose. Accuracy is Fft1DAccuracyTest's
// job; the goldens print simulated time and modelled energy, which do not
// depend on FFT rounding. The pins hold for the baseline x86-64 and the
// AVX2 build alike, since neither contracts to FMA (no_fused_multiply_add
// guards that); the -march=native CI leg filters them out.

// Byte-wise 64-bit FNV-1a, kept local so the pins do not move with
// util::fnv1a_bytes. Its offset basis is this repo's 1469598103934665603,
// one digit short of FNV-1a's 14695981039346656037; it is kept because
// every digest pin depends on it.
template <class T>
std::uint64_t digest(const std::vector<T>& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, h);
  return buf;
}

#define EXPECT_DIGEST(got, want) EXPECT_EQ(hex(got), hex(want))

struct Fft1DPin {
  std::size_t n;
  std::uint64_t forward, inverse;
};

class Fft1DBitIdentityTest : public ::testing::TestWithParam<Fft1DPin> {};

TEST_P(Fft1DBitIdentityTest, MatchesPinnedDigests) {
  const Fft1DPin pin = GetParam();
  const Fft1D plan(pin.n);
  const auto input = random_signal(pin.n, 4242 + pin.n);
  auto fwd = input;
  plan.forward(fwd.data());
  auto inv = input;
  plan.inverse(inv.data());
  EXPECT_DIGEST(digest(fwd), pin.forward) << "forward n=" << pin.n;
  EXPECT_DIGEST(digest(inv), pin.inverse) << "inverse n=" << pin.n;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, Fft1DBitIdentityTest,
    ::testing::Values(
        Fft1DPin{1, 0x25218542a263b8e8ULL, 0x25218542a263b8e8ULL},
        Fft1DPin{2, 0xe00f493534f1a5cbULL, 0x47faf2941b0dec4bULL},
        Fft1DPin{3, 0x869df77903b29689ULL, 0xb5471938b57792b4ULL},
        Fft1DPin{4, 0xf4651e8467c6a572ULL, 0xa37f204a610c987eULL},
        Fft1DPin{5, 0x59b07d715e1cbab1ULL, 0xe819885130b62bf6ULL},
        Fft1DPin{7, 0x60d10120f123862eULL, 0x074a520ad8edaf29ULL},
        Fft1DPin{8, 0x5522374a9c361214ULL, 0x73b3964d6d6a8629ULL},
        Fft1DPin{9, 0x6634818c01dbe101ULL, 0xbf7760a9b07b15fcULL},
        Fft1DPin{12, 0x9aa438669dc20fecULL, 0xf2c71149072e2186ULL},
        Fft1DPin{15, 0x0466754191c2b85eULL, 0xfa074a26e3ee9999ULL},
        Fft1DPin{16, 0xd8c05473fe329c25ULL, 0xe2920a40dd5bfd35ULL},
        Fft1DPin{36, 0xa5a80cf6a5ff94a0ULL, 0x55f1adcd93b9dc79ULL},
        Fft1DPin{48, 0x2764832d8ff9e421ULL, 0x3e0c100c86a8a57aULL},
        Fft1DPin{80, 0x1b8133946a8c8df7ULL, 0xb767e530d6493aafULL},
        // 97 takes the Bluestein path.
        Fft1DPin{97, 0xdd9f6fa16ac1090aULL, 0xfda4094f39d6cb25ULL}),
    [](const auto& info) {
      return std::string("n").append(std::to_string(info.param.n));
    });

struct Fft3DPin {
  std::size_t nx, ny, nz;
  std::uint64_t forward, inverse;
};

class Fft3DBitIdentityTest : public ::testing::TestWithParam<Fft3DPin> {};

TEST_P(Fft3DBitIdentityTest, MatchesPinnedDigests) {
  const Fft3DPin pin = GetParam();
  const Fft3D plan(pin.nx, pin.ny, pin.nz);
  const auto input = random_signal(plan.volume(), 77 + plan.volume());
  auto fwd = input;
  plan.forward(fwd.data());
  auto inv = input;
  plan.inverse(inv.data());
  EXPECT_DIGEST(digest(fwd), pin.forward);
  EXPECT_DIGEST(digest(inv), pin.inverse);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, Fft3DBitIdentityTest,
    ::testing::Values(Fft3DPin{80, 36, 48, 0x96d73a7537135817ULL,
                               0x21443dfc4480e6e1ULL},  // the PME grid
                      Fft3DPin{15, 9, 7, 0x9a95eedcd2a2a45cULL,
                               0xb75cbb3440139022ULL}),
    [](const auto& info) {
      return std::to_string(info.param.nx) + "x" +
             std::to_string(info.param.ny) + "x" +
             std::to_string(info.param.nz);
    });

// Batch shapes: every line of a forward_many()/inverse_many() call equals
// its own single-line transform bit for bit, for counts around the block
// width (tail blocks run at their real width) in both the strided layout
// (lines interleaved, as Fft3D's y and x axes) and the contiguous one (as
// its z axis). 97 takes the per-line Bluestein path.
struct BatchCase {
  std::size_t n;
  bool strided;
};

class BatchShapeTest : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchShapeTest, EachLineMatchesItsSingleLineTransform) {
  const auto [n, strided] = GetParam();
  const Fft1D plan(n);
  constexpr std::size_t kB = Fft1D::kBatch;
  for (std::size_t count : {std::size_t{1}, kB - 1, kB, kB + 1, 2 * kB + 3}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n << " count=" << count);
    const std::size_t elem_stride = strided ? count : 1;
    const std::size_t line_stride = strided ? 1 : n;
    const auto input = random_signal(n * count, 100 * n + count);
    for (const bool fwd : {true, false}) {
      auto batch = input;
      if (fwd) {
        plan.forward_many(batch.data(), count, elem_stride, line_stride);
      } else {
        plan.inverse_many(batch.data(), count, elem_stride, line_stride);
      }
      for (std::size_t l = 0; l < count; ++l) {
        std::vector<Complex> line(n);
        for (std::size_t i = 0; i < n; ++i) {
          line[i] = input[l * line_stride + i * elem_stride];
        }
        fwd ? plan.forward(line.data()) : plan.inverse(line.data());
        for (std::size_t i = 0; i < n; ++i) {
          const Complex got = batch[l * line_stride + i * elem_stride];
          ASSERT_EQ(std::memcmp(&got, &line[i], sizeof(Complex)), 0)
              << (fwd ? "forward" : "inverse") << " line " << l << " bin "
              << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, BatchShapeTest,
    ::testing::Values(BatchCase{36, true}, BatchCase{36, false},
                      BatchCase{80, true}, BatchCase{80, false},
                      BatchCase{7, true}, BatchCase{97, true},
                      BatchCase{97, false}),
    [](const auto& info) {
      return std::string("n")
          .append(std::to_string(info.param.n))
          .append(info.param.strided ? "_strided" : "_contiguous");
    });

TEST(BatchShapeTest2, ZeroCountTouchesNothing) {
  const Fft1D plan(48);
  plan.forward_many(nullptr, 0, 1, 48);
  plan.inverse_many(nullptr, 0, 1, 48);
}

// Slab transform of a real 20 x 9 x 12 grid: the concatenated half-spectrum
// z-slabs after forward() and the concatenated x-slabs after backward()
// of that result. The z pass pairs the real lines of each rank's slab, so
// the bits depend on p.
void run_parallel_pin(int p, std::uint64_t want_forward,
                      std::uint64_t want_backward) {
  const std::size_t nx = 20, ny = 9, nz = 12;
  const auto full = random_real_grid(nx * ny * nz, 2024);
  net::ClusterConfig config;
  config.nranks = p;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
  std::vector<std::vector<Complex>> zslabs(static_cast<std::size_t>(p));
  std::vector<std::vector<double>> xslabs(static_cast<std::size_t>(p));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster, recs[static_cast<std::size_t>(ctx.rank())]);
    middleware::MpiMiddleware mw(comm);
    ParallelFft3D pfft(nx, ny, nz, mw);
    const auto me = static_cast<std::size_t>(comm.rank());
    const std::size_t x0 = pfft.x_slabs().begin(comm.rank());
    const std::vector<double> xslab(
        full.begin() + static_cast<long>(x0 * ny * nz),
        full.begin() + static_cast<long>(x0 * ny * nz + pfft.x_slab_size()));
    zslabs[me].resize(pfft.z_slab_size());
    pfft.forward(xslab.data(), zslabs[me].data());
    xslabs[me].resize(pfft.x_slab_size());
    auto kspace = zslabs[me];  // backward() overwrites its input
    pfft.backward(kspace.data(), xslabs[me].data());
  });
  std::vector<Complex> kspace;
  std::vector<double> back;
  for (int r = 0; r < p; ++r) {
    const auto& z = zslabs[static_cast<std::size_t>(r)];
    const auto& x = xslabs[static_cast<std::size_t>(r)];
    kspace.insert(kspace.end(), z.begin(), z.end());
    back.insert(back.end(), x.begin(), x.end());
  }
  EXPECT_DIGEST(digest(kspace), want_forward) << "p=" << p;
  EXPECT_DIGEST(digest(back), want_backward) << "p=" << p;
}

TEST(ParallelFftBitIdentityTest, OneRankMatchesPinnedDigests) {
  run_parallel_pin(1, 0xa60443f17a2c586eULL, 0x89a24ca092894abfULL);
}

TEST(ParallelFftBitIdentityTest, ThreeRanksMatchPinnedDigests) {
  run_parallel_pin(3, 0x96931683bdd90844ULL, 0x585fadf2c2695194ULL);
}

// Pencil transform on a 20 x 9 x 12 grid over a 2 x 3 process grid: the
// concatenated stage-3 pencils after forward() and the stage-1 pencils
// after backward() of that result.
TEST(PencilFftBitIdentityTest, MatchesPinnedDigests) {
  const PencilGrid grid(20, 9, 12, 2, 3);
  const int p = 6;
  const auto full = random_signal(20 * 9 * 12, 31337);
  net::ClusterConfig config;
  config.nranks = p;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
  std::vector<std::vector<Complex>> stage3(static_cast<std::size_t>(p));
  std::vector<std::vector<Complex>> stage1(static_cast<std::size_t>(p));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    const int me = ctx.rank();
    const auto slot = static_cast<std::size_t>(me);
    mpi::Comm comm(ctx, cluster, recs[slot]);
    PencilFft3D pfft(grid, comm);
    const std::size_t ly1 = grid.ypart.count(grid.ycoord(me));
    const std::size_t lz1 = grid.zpart.count(grid.zcoord(me));
    const std::size_t y0 = grid.ypart.begin(grid.ycoord(me));
    const std::size_t z0 = grid.zpart.begin(grid.zcoord(me));
    std::vector<Complex> in(grid.stage1_size(me));
    for (std::size_t yl = 0; yl < ly1; ++yl) {
      for (std::size_t zl = 0; zl < lz1; ++zl) {
        for (std::size_t x = 0; x < grid.nx; ++x) {
          in[(yl * lz1 + zl) * grid.nx + x] =
              full[(x * grid.ny + y0 + yl) * grid.nz + z0 + zl];
        }
      }
    }
    stage3[slot].resize(grid.stage3_size(me));
    pfft.forward(in.data(), stage3[slot].data(), 1, 2);
    stage1[slot].resize(grid.stage1_size(me));
    pfft.backward(stage3[slot].data(), stage1[slot].data(), 3, 4);
  });
  std::vector<Complex> kspace, back;
  for (int r = 0; r < p; ++r) {
    const auto& s3 = stage3[static_cast<std::size_t>(r)];
    const auto& s1 = stage1[static_cast<std::size_t>(r)];
    kspace.insert(kspace.end(), s3.begin(), s3.end());
    back.insert(back.end(), s1.begin(), s1.end());
  }
  EXPECT_DIGEST(digest(kspace), 0xafce7f50e7fb657aULL);
  EXPECT_DIGEST(digest(back), 0xdbd107de3344ac94ULL);
}

// The same grid and process grid with one idle extra rank (p = 7): each
// rank's flops charged for one forward and one backward transform, and a
// digest of its send and receive ops (kind, peer, tag, bytes) in issue
// order. Simulated time and message bytes follow from these.
TEST(PencilFftBitIdentityTest, ChargesAndMessagesMatchPins) {
  const PencilGrid grid(20, 9, 12, 2, 3);
  const int p = 7;
  net::ClusterConfig config;
  config.nranks = p;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
  std::vector<perf::RankTrace> traces(static_cast<std::size_t>(p));
  std::vector<double> flops(static_cast<std::size_t>(p));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    const int me = ctx.rank();
    const auto slot = static_cast<std::size_t>(me);
    mpi::Comm comm(ctx, cluster, recs[slot]);
    comm.recorder().attach_trace(&traces[slot]);
    PencilFft3D pfft(grid, comm, [&](double f) { flops[slot] += f; });
    const auto in = random_signal(grid.stage1_size(me), 7 + slot);
    std::vector<Complex> stage3(grid.stage3_size(me));
    std::vector<Complex> stage1(grid.stage1_size(me));
    pfft.forward(in.data(), stage3.data(), 1, 2);
    pfft.backward(stage3.data(), stage1.data(), 3, 4);
  });
  std::vector<std::string> ops;
  for (const perf::RankTrace& trace : traces) {
    std::vector<std::uint64_t> fields;
    for (const perf::TraceOp& op : trace.ops) {
      if (op.kind != perf::TraceOp::Kind::kSend &&
          op.kind != perf::TraceOp::Kind::kRecv) {
        continue;
      }
      fields.insert(fields.end(), {static_cast<std::uint64_t>(op.kind),
                                   static_cast<std::uint64_t>(op.peer),
                                   static_cast<std::uint64_t>(op.tag),
                                   op.size});
    }
    ops.push_back(hex(digest(fields)));
  }
  EXPECT_EQ(flops, (std::vector<double>{
                       44565.307387337933, 44565.307387337933,
                       44565.307387337933, 40947.764911428043,
                       40947.764911428043, 40947.764911428043, 0.0}));
  EXPECT_EQ(ops, (std::vector<std::string>{
                     "0xf6e92acca0f0df8b", "0x693ab3c476679cff",
                     "0x3f463793acd79f7b", "0x083c4b4613a0d01b",
                     "0x3e91c68d5fc024ef", "0xaf3548e9efc47b73",
                     "0x14650fb0739d0383"}));
}

}  // namespace
}  // namespace repro::fft
