#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numbers>
#include <string>
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

// O(n^2) reference DFT.
std::vector<Complex> naive_dft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0, 0);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * std::numbers::pi *
                         static_cast<double>(j * k % n) /
                         static_cast<double>(n);
      acc += x[j] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
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
    EXPECT_NEAR(std::abs(x[k] - expect[k]), 0.0, 1e-8 * std::sqrt(n))
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

class ParallelFftTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFftTest, MatchesSerial3D) {
  const int p = GetParam();
  const std::size_t nx = 20;
  const std::size_t ny = 9;
  const std::size_t nz = 12;
  auto full = random_signal(nx * ny * nz, 123);

  // Serial reference.
  auto reference = full;
  Fft3D serial(nx, ny, nz);
  serial.forward(reference.data());

  // Distributed run: forward then backward, checking both against the
  // reference and the round trip.
  net::ClusterConfig config;
  config.nranks = p;
  config.network = net::Network::kMyrinetGM;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster,
                   recs[static_cast<std::size_t>(ctx.rank())]);
    middleware::MpiMiddleware mw(comm);
    ParallelFft3D pfft(nx, ny, nz, mw);
    const int me = comm.rank();
    const std::size_t x0 = pfft.x_slabs().begin(me);
    const std::size_t lx = pfft.x_slabs().count(me);

    std::vector<Complex> xslab(full.begin() + static_cast<long>(x0 * ny * nz),
                               full.begin() +
                                   static_cast<long>((x0 + lx) * ny * nz));
    std::vector<Complex> zslab(pfft.z_slab_size());
    pfft.forward(xslab.data(), zslab.data());

    // Check my z-slab of k-space against the serial transform:
    // z-slab layout is [lz][ny][nx].
    const std::size_t z0 = pfft.z_slabs().begin(me);
    for (std::size_t zl = 0; zl < pfft.local_z_count(); ++zl) {
      for (std::size_t y = 0; y < ny; ++y) {
        for (std::size_t x = 0; x < nx; ++x) {
          const Complex got = zslab[(zl * ny + y) * nx + x];
          const Complex want = reference[(x * ny + y) * nz + (z0 + zl)];
          EXPECT_NEAR(std::abs(got - want), 0.0, 1e-8)
              << "p=" << p << " x=" << x << " y=" << y << " z=" << z0 + zl;
        }
      }
    }

    // Round trip back to the x-slab.
    std::vector<Complex> back(pfft.x_slab_size());
    pfft.backward(zslab.data(), back.data());
    for (std::size_t i = 0; i < back.size(); ++i) {
      EXPECT_NEAR(std::abs(back[i] - full[x0 * ny * nz + i]), 0.0, 1e-10);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParallelFftTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST(ParallelFftTest2, OddMixedRadixGridMatchesSerial) {
  // Fully odd/mixed-radix extents: every axis hits the Bluestein/odd
  // factor paths and the slab partition is uneven on both transposed
  // dimensions.
  const std::size_t nx = 15;
  const std::size_t ny = 9;
  const std::size_t nz = 7;
  const int p = 4;
  auto full = random_signal(nx * ny * nz, 77);
  auto reference = full;
  Fft3D serial(nx, ny, nz);
  serial.forward(reference.data());

  net::ClusterConfig config;
  config.nranks = p;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster,
                   recs[static_cast<std::size_t>(ctx.rank())]);
    middleware::MpiMiddleware mw(comm);
    ParallelFft3D pfft(nx, ny, nz, mw);
    const int me = comm.rank();
    const std::size_t x0 = pfft.x_slabs().begin(me);
    std::vector<Complex> xslab(
        full.begin() + static_cast<long>(x0 * ny * nz),
        full.begin() + static_cast<long>(pfft.x_slabs().end(me) * ny * nz));
    std::vector<Complex> zslab(pfft.z_slab_size());
    pfft.forward(xslab.data(), zslab.data());
    const std::size_t z0 = pfft.z_slabs().begin(me);
    for (std::size_t zl = 0; zl < pfft.local_z_count(); ++zl) {
      for (std::size_t y = 0; y < ny; ++y) {
        for (std::size_t x = 0; x < nx; ++x) {
          const Complex got = zslab[(zl * ny + y) * nx + x];
          const Complex want = reference[(x * ny + y) * nz + (z0 + zl)];
          EXPECT_NEAR(std::abs(got - want), 0.0, 1e-8);
        }
      }
    }
    std::vector<Complex> back(pfft.x_slab_size());
    pfft.backward(zslab.data(), back.data());
    for (std::size_t i = 0; i < back.size(); ++i) {
      EXPECT_NEAR(std::abs(back[i] - xslab[i]), 0.0, 1e-10);
    }
  });
}

TEST(ParallelFftTest2, WorksWithEmptySlabs) {
  // More ranks than z-planes: some ranks own zero planes in k-space.
  const std::size_t nx = 16;
  const std::size_t ny = 4;
  const std::size_t nz = 4;
  const int p = 8;
  auto full = random_signal(nx * ny * nz, 9);
  auto reference = full;
  Fft3D serial(nx, ny, nz);
  serial.forward(reference.data());

  net::ClusterConfig config;
  config.nranks = p;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster,
                   recs[static_cast<std::size_t>(ctx.rank())]);
    middleware::MpiMiddleware mw(comm);
    ParallelFft3D pfft(nx, ny, nz, mw);
    const int me = comm.rank();
    const std::size_t x0 = pfft.x_slabs().begin(me);
    std::vector<Complex> xslab(
        full.begin() + static_cast<long>(x0 * ny * nz),
        full.begin() +
            static_cast<long>(pfft.x_slabs().end(me) * ny * nz));
    std::vector<Complex> zslab(pfft.z_slab_size());
    std::vector<Complex> back(pfft.x_slab_size());
    pfft.forward(xslab.data(), zslab.data());
    pfft.backward(zslab.data(), back.data());
    for (std::size_t i = 0; i < back.size(); ++i) {
      EXPECT_NEAR(std::abs(back[i] - xslab[i]), 0.0, 1e-10);
    }
  });
}

TEST(ParallelFftTest2, ChargesComputeTime) {
  net::ClusterConfig config;
  config.nranks = 2;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(2);
  sim::Engine engine(2);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster,
                   recs[static_cast<std::size_t>(ctx.rank())]);
    middleware::MpiMiddleware mw(comm);
    double charged = 0.0;
    ParallelFft3D pfft(12, 6, 8, mw,
                       [&](double flops) { charged += flops; });
    std::vector<Complex> x(pfft.x_slab_size());
    std::vector<Complex> z(pfft.z_slab_size());
    pfft.forward(x.data(), z.data());
    EXPECT_GT(charged, 0.0);
  });
}

// --- bit-identity pins -------------------------------------------------------
//
// Every transform's output bytes are pinned by a 64-bit digest recorded
// from the original one-line-at-a-time scalar kernel, so a kernel rewrite
// must reproduce it bit for bit, not merely to within rounding. The PME
// energies and forces, and with them every golden file, depend on this.
// The pins hold for the default build (no -march flags, hence no FMA
// contraction); the -march=native CI leg does not run fft_test.

// Canonical byte-wise 64-bit FNV-1a, kept local so the pins do not move
// with util::fnv1a_bytes.
std::uint64_t digest(const std::vector<Complex>& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < v.size() * sizeof(Complex); ++i) {
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
        Fft1DPin{3, 0x9bec0f7a40d38b52ULL, 0xebd4c1ff37f314c9ULL},
        Fft1DPin{4, 0xf129c9d65ea6d282ULL, 0xdcaae79757690360ULL},
        Fft1DPin{5, 0xc1415db034db2306ULL, 0xc36cc36817ab1d14ULL},
        Fft1DPin{7, 0x60d10120f123862eULL, 0x074a520ad8edaf29ULL},
        Fft1DPin{8, 0x687ec008d809aff8ULL, 0x598d310d0c348b84ULL},
        Fft1DPin{9, 0x679bd7aed149fe91ULL, 0x069032a1cb6b854fULL},
        Fft1DPin{12, 0xa93c1aefc0e9c610ULL, 0x9864af1464b39ea9ULL},
        Fft1DPin{15, 0x536544e1d10f3f8aULL, 0xec92f4e5d4028ff9ULL},
        Fft1DPin{16, 0x848e692695cadfcfULL, 0x053e7c4de59962edULL},
        Fft1DPin{36, 0x8acb5949717cd567ULL, 0xf20844b70df60663ULL},
        Fft1DPin{48, 0x43629b844476a8ddULL, 0x680e62a6ee138c8fULL},
        Fft1DPin{80, 0x21158edfe0f2b93eULL, 0xe14a65b0e80e7d0fULL},
        // 97 takes the Bluestein path.
        Fft1DPin{97, 0xd5690f32653452f0ULL, 0xddefb5453272add7ULL}),
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
    ::testing::Values(Fft3DPin{80, 36, 48, 0x42126488740107eaULL,
                               0x635a2fc7befabae9ULL},  // the PME grid
                      Fft3DPin{15, 9, 7, 0x70d94ccb3415ed23ULL,
                               0x2ebe9c7f74c42423ULL}),
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

// Slab transform on a 20 x 9 x 12 grid: the concatenated z-slabs after
// forward() and the concatenated x-slabs after backward() of that result.
void run_parallel_pin(int p, std::uint64_t want_forward,
                      std::uint64_t want_backward) {
  const std::size_t nx = 20, ny = 9, nz = 12;
  const auto full = random_signal(nx * ny * nz, 2024);
  net::ClusterConfig config;
  config.nranks = p;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
  std::vector<std::vector<Complex>> zslabs(static_cast<std::size_t>(p));
  std::vector<std::vector<Complex>> xslabs(static_cast<std::size_t>(p));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster, recs[static_cast<std::size_t>(ctx.rank())]);
    middleware::MpiMiddleware mw(comm);
    ParallelFft3D pfft(nx, ny, nz, mw);
    const auto me = static_cast<std::size_t>(comm.rank());
    const std::size_t x0 = pfft.x_slabs().begin(comm.rank());
    const std::vector<Complex> xslab(
        full.begin() + static_cast<long>(x0 * ny * nz),
        full.begin() + static_cast<long>(x0 * ny * nz + pfft.x_slab_size()));
    zslabs[me].resize(pfft.z_slab_size());
    pfft.forward(xslab.data(), zslabs[me].data());
    xslabs[me].resize(pfft.x_slab_size());
    pfft.backward(zslabs[me].data(), xslabs[me].data());
  });
  std::vector<Complex> kspace, back;
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
  run_parallel_pin(1, 0x0c03e5f04f5e6eceULL, 0xa4505c1ddefd7575ULL);
}

TEST(ParallelFftBitIdentityTest, ThreeRanksMatchPinnedDigests) {
  run_parallel_pin(3, 0x0c03e5f04f5e6eceULL, 0xa4505c1ddefd7575ULL);
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
  EXPECT_DIGEST(digest(kspace), 0x5e6d9545d315876aULL);
  EXPECT_DIGEST(digest(back), 0xf51eb32592880d08ULL);
}

}  // namespace
}  // namespace repro::fft
