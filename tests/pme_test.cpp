#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "md/nonbonded.hpp"
#include "middleware/middleware.hpp"
#include "net/cluster.hpp"
#include "pme/bspline.hpp"
#include "pme/pme.hpp"
#include "sim/engine.hpp"
#include "sysbuild/builder.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

#include "ewald_oracle.hpp"
#include "pair_oracle.hpp"

namespace repro::pme {
namespace {

using oracle::ewald_reference;
using oracle::EwaldRefOptions;
using oracle::EwaldRefResult;
using util::Vec3;

// --- B-splines ---------------------------------------------------------------

class BsplineOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(BsplineOrderTest, PartitionOfUnity) {
  const int order = GetParam();
  for (double w : {0.0, 0.1, 0.37, 0.5, 0.77, 0.999}) {
    double vals[kMaxOrder];
    double derivs[kMaxOrder];
    bspline_weights(order, w, vals, derivs);
    double sum = 0.0;
    double dsum = 0.0;
    for (int j = 0; j < order; ++j) {
      EXPECT_GE(vals[j], -1e-14);
      sum += vals[j];
      dsum += derivs[j];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12) << "order " << order << " w " << w;
    // Derivatives of a partition of unity sum to zero.
    EXPECT_NEAR(dsum, 0.0, 1e-12);
  }
}

TEST_P(BsplineOrderTest, DerivativeMatchesFiniteDifference) {
  const int order = GetParam();
  const double w = 0.4;
  const double h = 1e-7;
  double v0[kMaxOrder], v1[kMaxOrder], d[kMaxOrder];
  bspline_weights(order, w - h, v0, nullptr);
  bspline_weights(order, w + h, v1, nullptr);
  double vals[kMaxOrder];
  bspline_weights(order, w, vals, d);
  for (int j = 0; j < order; ++j) {
    EXPECT_NEAR(d[j], (v1[j] - v0[j]) / (2 * h), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, BsplineOrderTest,
                         ::testing::Values(2, 3, 4, 5, 6, 8));

TEST(BsplineTest, KnownValuesOrder2) {
  double vals[kMaxOrder];
  bspline_weights(2, 0.25, vals, nullptr);
  // M2(x) = x on [0,1], 2-x on [1,2]: M2(0.25) = 0.25, M2(1.25) = 0.75.
  EXPECT_NEAR(vals[0], 0.25, 1e-15);
  EXPECT_NEAR(vals[1], 0.75, 1e-15);
}

TEST(BsplineTest, KnownValuesOrder4AtHalf) {
  double vals[kMaxOrder];
  bspline_weights(4, 0.5, vals, nullptr);
  // Cubic B-spline at x = 0.5, 1.5, 2.5, 3.5: 1/48, 23/48, 23/48, 1/48.
  EXPECT_NEAR(vals[0], 1.0 / 48.0, 1e-12);
  EXPECT_NEAR(vals[1], 23.0 / 48.0, 1e-12);
  EXPECT_NEAR(vals[2], 23.0 / 48.0, 1e-12);
  EXPECT_NEAR(vals[3], 1.0 / 48.0, 1e-12);
}

TEST(BsplineTest, ModuliPositiveAndPatched) {
  for (int order : {4, 6}) {
    for (std::size_t n : {16u, 36u, 48u, 80u}) {
      const auto mod = bspline_moduli(n, order);
      ASSERT_EQ(mod.size(), n);
      for (double m : mod) EXPECT_GT(m, 0.0);
      EXPECT_NEAR(mod[0], 1.0, 1e-9);  // b(0) = 1
    }
  }
}

// --- Ewald identities ----------------------------------------------------------

TEST(EwaldTest, SelfEnergyFormula) {
  md::Topology topo(2);
  topo.atom(0).charge = 1.0;
  topo.atom(1).charge = -2.0;
  const double beta = 0.4;
  EXPECT_NEAR(ewald_self_energy(topo, beta),
              -units::kCoulomb * beta / std::sqrt(std::numbers::pi) * 5.0,
              1e-9);
}

TEST(EwaldTest, ReferenceBetaIndependence) {
  // The full Ewald energy must not depend on the splitting parameter.
  auto sys = sysbuild::build_random_charges(16, md::Box(12, 12, 12), 1);
  EwaldRefOptions o1;
  o1.beta = 0.55;
  o1.kmax = 14;
  EwaldRefOptions o2;
  o2.beta = 0.75;
  o2.kmax = 18;
  const double e1 = ewald_reference(sys.topo, sys.box, sys.positions, o1)
                        .total();
  const double e2 = ewald_reference(sys.topo, sys.box, sys.positions, o2)
                        .total();
  EXPECT_NEAR(e1, e2, std::abs(e1) * 1e-4 + 1e-3);
}

TEST(EwaldTest, ReferenceForcesMatchGradient) {
  auto sys = sysbuild::build_random_charges(8, md::Box(10, 10, 10), 2);
  EwaldRefOptions opts;
  opts.beta = 0.6;
  opts.kmax = 10;
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> fd(n), fr(n);
  ewald_reference(sys.topo, sys.box, sys.positions, opts, &fd, &fr);
  const double h = 1e-5;
  for (int i = 0; i < 4; ++i) {
    for (int d = 0; d < 3; ++d) {
      auto plus = sys.positions;
      auto minus = sys.positions;
      plus[static_cast<std::size_t>(i)][d] += h;
      minus[static_cast<std::size_t>(i)][d] -= h;
      const double ep =
          ewald_reference(sys.topo, sys.box, plus, opts).total();
      const double em =
          ewald_reference(sys.topo, sys.box, minus, opts).total();
      const double numeric = -(ep - em) / (2 * h);
      EXPECT_NEAR(fd[static_cast<std::size_t>(i)][d] +
                      fr[static_cast<std::size_t>(i)][d],
                  numeric, 5e-3);
    }
  }
}

// --- serial PME vs brute-force Ewald ------------------------------------------

TEST(SerialPmeTest, ReciprocalMatchesKspaceSum) {
  auto sys = sysbuild::build_random_charges(20, md::Box(14, 11, 9), 3);
  const double beta = 0.5;
  PmeParams params;
  params.nx = 28;
  params.ny = 24;
  params.nz = 20;
  params.order = 6;
  params.beta = beta;
  SerialPme pme(params, sys.box);
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> f(n);
  const double recip = pme.reciprocal(sys.topo, sys.positions, f);

  EwaldRefOptions opts;
  opts.beta = beta;
  opts.kmax = 12;
  const EwaldRefResult ref =
      ewald_reference(sys.topo, sys.box, sys.positions, opts);
  EXPECT_NEAR(recip, ref.reciprocal, std::abs(ref.reciprocal) * 2e-3 + 1e-3);
}

TEST(SerialPmeTest, ForcesMatchNumericalGradient) {
  auto sys = sysbuild::build_random_charges(10, md::Box(10, 10, 10), 4);
  PmeParams params;
  params.nx = 24;
  params.ny = 24;
  params.nz = 24;
  params.order = 4;
  params.beta = 0.45;
  SerialPme pme(params, sys.box);
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> f(n);
  pme.reciprocal(sys.topo, sys.positions, f);
  const double h = 1e-4;
  for (int i = 0; i < 5; ++i) {
    for (int d = 0; d < 3; ++d) {
      auto plus = sys.positions;
      auto minus = sys.positions;
      plus[static_cast<std::size_t>(i)][d] += h;
      minus[static_cast<std::size_t>(i)][d] -= h;
      std::vector<Vec3> tmp(n);
      const double ep = pme.reciprocal(sys.topo, plus, tmp);
      const double em = pme.reciprocal(sys.topo, minus, tmp);
      EXPECT_NEAR(f[static_cast<std::size_t>(i)][d], -(ep - em) / (2 * h),
                  2e-2);
    }
  }
}

TEST(SerialPmeTest, NetForceSmallAndShrinksWithOrder) {
  // Smooth PME does not conserve momentum exactly (the B-spline
  // interpolation breaks translation invariance); the residual net force
  // must be small and must shrink rapidly with the interpolation order.
  auto sys = sysbuild::build_random_charges(30, md::Box(15, 12, 10), 5);
  auto net_force = [&](int order) {
    PmeParams params;
    params.nx = 30;
    params.ny = 24;
    params.nz = 20;
    params.beta = 0.5;
    params.order = order;
    SerialPme pme(params, sys.box);
    std::vector<Vec3> f(static_cast<std::size_t>(sys.topo.natoms()));
    pme.reciprocal(sys.topo, sys.positions, f);
    Vec3 net;
    double fmax = 0.0;
    for (const auto& v : f) {
      net += v;
      fmax = std::max(fmax, util::norm(v));
    }
    return std::pair<double, double>(util::norm(net), fmax);
  };
  const auto [net4, fmax4] = net_force(4);
  const auto [net6, fmax6] = net_force(6);
  EXPECT_LT(net4, 0.02 * fmax4);
  EXPECT_LT(net6, 0.1 * net4);
}

TEST(SerialPmeTest, TotalElectrostaticBetaIndependent) {
  // direct(erfc) + recip + self must be invariant under the split.
  auto sys = sysbuild::build_random_charges(12, md::Box(12, 12, 12), 6);
  auto total_for = [&](double beta) {
    PmeParams params;
    params.nx = 32;
    params.ny = 32;
    params.nz = 32;
    params.order = 6;
    params.beta = beta;
    SerialPme pme(params, sys.box);
    const auto n = static_cast<std::size_t>(sys.topo.natoms());
    std::vector<Vec3> f(n);
    double total = pme.reciprocal(sys.topo, sys.positions, f);
    total += ewald_self_energy(sys.topo, beta);
    // Direct part via the libm pair oracle (full pair loop).
    md::NonbondedOptions opts;
    opts.cutoff = 5.9;
    opts.elec = md::NonbondedOptions::Elec::kEwaldDirect;
    opts.beta = beta;
    md::EnergyTerms e;
    oracle::nonbonded_energy_reference(sys.topo, sys.box, sys.positions, opts,
                                       f, e);
    return total + e.elec;
  };
  const double e1 = total_for(0.65);
  const double e2 = total_for(0.85);
  EXPECT_NEAR(e1, e2, std::abs(e1) * 5e-3 + 0.05);
}

TEST(SerialPmeTest, SpreadingConservesCharge) {
  // The k=0 mode of the spread grid is the total charge; with the net
  // charge zero the reciprocal energy is finite and the influence function
  // kills k=0 regardless. Verify via a directly constructed system with a
  // known non-zero total: Q^(0) = sum q.
  md::Topology topo(3);
  topo.atom(0).charge = 1.0;
  topo.atom(1).charge = 2.0;
  topo.atom(2).charge = -0.5;
  md::Box box(8, 8, 8);
  std::vector<Vec3> pos{{1.2, 3.4, 5.6}, {7.9, 0.1, 2.2}, {4.0, 4.0, 4.0}};
  PmeParams params;
  params.nx = 16;
  params.ny = 16;
  params.nz = 16;
  SerialPme pme(params, box);
  std::vector<Vec3> f(3);
  pme.reciprocal(topo, pos, f);  // exercises spreading internally
  // Spreading conservation is verified through the b-spline partition of
  // unity (tested above); here we check the reciprocal energy is finite
  // and forces are finite for a charged system (neutralizing background).
  for (const auto& v : f) {
    EXPECT_TRUE(std::isfinite(v.x + v.y + v.z));
  }
}

TEST(ExclusionCorrectionTest, MatchesAnalyticPair) {
  md::Topology topo(2);
  topo.atom(0).charge = 0.6;
  topo.atom(1).charge = -0.4;
  md::Bond b;
  b.i = 0;
  b.j = 1;
  topo.bonds().push_back(b);
  topo.build_exclusions();
  md::Box box(20, 20, 20);
  std::vector<Vec3> pos{{5, 5, 5}, {6.2, 5, 5}};
  std::vector<Vec3> f(2);
  const double beta = 0.4;
  const double e = ewald_exclusion_correction(topo, box, pos, beta, f);
  const double qq = units::kCoulomb * 0.6 * -0.4;
  EXPECT_NEAR(e, -qq * std::erf(beta * 1.2) / 1.2, 1e-12);
}

TEST(ExclusionCorrectionTest, ForcesMatchGradient) {
  auto sys = sysbuild::build_test_chain(8, 12);
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> f(n);
  const double beta = 0.34;
  ewald_exclusion_correction(sys.topo, sys.box, sys.positions, beta, f);
  const double h = 1e-6;
  for (int i = 0; i < sys.topo.natoms(); ++i) {
    for (int d = 0; d < 3; ++d) {
      auto plus = sys.positions;
      auto minus = sys.positions;
      plus[static_cast<std::size_t>(i)][d] += h;
      minus[static_cast<std::size_t>(i)][d] -= h;
      std::vector<Vec3> tmp(n);
      const double ep =
          ewald_exclusion_correction(sys.topo, sys.box, plus, beta, tmp);
      const double em =
          ewald_exclusion_correction(sys.topo, sys.box, minus, beta, tmp);
      EXPECT_NEAR(f[static_cast<std::size_t>(i)][d], -(ep - em) / (2 * h),
                  1e-4);
    }
  }
}

TEST(ExclusionCorrectionTest, ShardsPartition) {
  auto sys = sysbuild::build_test_chain(16, 8);
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> full(n);
  const double efull = ewald_exclusion_correction(sys.topo, sys.box,
                                                  sys.positions, 0.34, full);
  // Interleaved shards, and three disjoint owned-atom masks (atom i in
  // mask (i / 4) % 3) selecting pairs by their first atom.
  std::vector<std::vector<std::uint8_t>> masks(
      3, std::vector<std::uint8_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i) masks[(i / 4) % 3][i] = 1;
  std::vector<std::vector<md::WorkSlice>> parts(2);
  for (int shard = 0; shard < 4; ++shard) {
    parts[0].push_back(md::WorkSlice::interleaved(shard, 4));
  }
  for (const auto& mask : masks) {
    parts[1].push_back(md::WorkSlice::owned_atoms(mask));
  }
  for (const auto& slices : parts) {
    std::vector<Vec3> acc(n);
    double eacc = 0.0;
    for (const md::WorkSlice& slice : slices) {
      eacc += ewald_exclusion_correction(sys.topo, sys.box, sys.positions,
                                         0.34, acc, slice);
    }
    EXPECT_NEAR(eacc, efull, 1e-10);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(util::norm(acc[i] - full[i]), 0.0, 1e-10);
    }
  }
}

// PME error vs. the exact k-space sum must fall as the mesh refines and as
// the interpolation order rises.
TEST(SerialPmeTest, AccuracyConvergesWithGridAndOrder) {
  auto sys = sysbuild::build_random_charges(16, md::Box(10, 10, 10), 44);
  const double beta = 0.45;
  EwaldRefOptions opts;
  opts.beta = beta;
  opts.kmax = 12;
  const double exact =
      ewald_reference(sys.topo, sys.box, sys.positions, opts).reciprocal;

  auto error_for = [&](std::size_t n, int order) {
    PmeParams params;
    params.nx = n;
    params.ny = n;
    params.nz = n;
    params.order = order;
    params.beta = beta;
    SerialPme pme(params, sys.box);
    std::vector<Vec3> f(static_cast<std::size_t>(sys.topo.natoms()));
    return std::abs(pme.reciprocal(sys.topo, sys.positions, f) - exact);
  };

  const double coarse = error_for(10, 4);
  const double fine = error_for(20, 4);
  const double finer = error_for(32, 4);
  EXPECT_LT(fine, coarse);
  EXPECT_LT(finer, fine);
  // Higher order at a fixed (adequate) mesh is more accurate.
  EXPECT_LT(error_for(20, 6), error_for(20, 4) * 1.01);
  // And the finest result is genuinely accurate.
  EXPECT_LT(finer, std::abs(exact) * 1e-3 + 1e-4);
}

// --- parallel PME ---------------------------------------------------------------

class ParallelPmeTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelPmeTest, MatchesSerial) {
  const int p = GetParam();
  auto sys = sysbuild::build_random_charges(40, md::Box(16, 10, 12), 21);
  PmeParams params;
  params.nx = 20;
  params.ny = 12;
  params.nz = 16;
  params.order = 4;
  params.beta = 0.4;

  SerialPme serial(params, sys.box);
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> serial_forces(n);
  const double serial_energy =
      serial.reciprocal(sys.topo, sys.positions, serial_forces);

  net::ClusterConfig config;
  config.nranks = p;
  config.network = net::Network::kScoreGigE;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
  std::vector<double> energies(static_cast<std::size_t>(p));
  std::vector<std::vector<Vec3>> forces(static_cast<std::size_t>(p),
                                        std::vector<Vec3>(n));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster,
                   recs[static_cast<std::size_t>(ctx.rank())]);
    middleware::MpiMiddleware mw(comm);
    ParallelPme pme(params, sys.box, mw);
    energies[static_cast<std::size_t>(ctx.rank())] = pme.reciprocal(
        sys.topo, sys.positions,
        forces[static_cast<std::size_t>(ctx.rank())]);
  });

  double energy = 0.0;
  std::vector<Vec3> total(n);
  for (int r = 0; r < p; ++r) {
    energy += energies[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < n; ++i) {
      total[i] += forces[static_cast<std::size_t>(r)][i];
    }
  }
  EXPECT_NEAR(energy, serial_energy, std::abs(serial_energy) * 1e-9 + 1e-9);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(util::norm(total[i] - serial_forces[i]), 0.0, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParallelPmeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(ParallelPmeTest2, OddMixedRadixGridMatchesSerial) {
  // Odd extents on every axis: the slab FFT's odd-factor paths, the
  // B-spline moduli at odd n, and an uneven slab partition all at once.
  const int p = 3;
  auto sys = sysbuild::build_random_charges(24, md::Box(11, 9, 7), 61);
  PmeParams params;
  params.nx = 15;
  params.ny = 9;
  params.nz = 7;
  params.order = 4;
  params.beta = 0.5;

  SerialPme serial(params, sys.box);
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> serial_forces(n);
  const double serial_energy =
      serial.reciprocal(sys.topo, sys.positions, serial_forces);

  net::ClusterConfig config;
  config.nranks = p;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(p));
  std::vector<double> energies(static_cast<std::size_t>(p));
  std::vector<std::vector<Vec3>> forces(static_cast<std::size_t>(p),
                                        std::vector<Vec3>(n));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster,
                   recs[static_cast<std::size_t>(ctx.rank())]);
    middleware::MpiMiddleware mw(comm);
    ParallelPme pme(params, sys.box, mw);
    energies[static_cast<std::size_t>(ctx.rank())] = pme.reciprocal(
        sys.topo, sys.positions,
        forces[static_cast<std::size_t>(ctx.rank())]);
  });

  double energy = 0.0;
  std::vector<Vec3> total(n);
  for (int r = 0; r < p; ++r) {
    energy += energies[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < n; ++i) {
      total[i] += forces[static_cast<std::size_t>(r)][i];
    }
  }
  EXPECT_NEAR(energy, serial_energy, std::abs(serial_energy) * 1e-9 + 1e-9);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(util::norm(total[i] - serial_forces[i]), 0.0, 1e-8);
  }
}

TEST(ParallelPmeTest2, WorkCountersPopulated) {
  auto sys = sysbuild::build_random_charges(20, md::Box(10, 10, 10), 30);
  PmeParams params;
  params.nx = 16;
  params.ny = 16;
  params.nz = 16;
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
    ParallelPme pme(params, sys.box, mw,
                    [&](double flops) { charged += flops; });
    PmeWork work;
    std::vector<Vec3> f(static_cast<std::size_t>(sys.topo.natoms()));
    pme.reciprocal(sys.topo, sys.positions, f, &work);
    EXPECT_GT(work.atoms_spread, 0u);
    EXPECT_GT(work.stencil_points, 0u);
    EXPECT_GT(work.mesh_points, 0u);
    EXPECT_GT(charged, 0.0);
  });
}

// --- wrapped plane runs -------------------------------------------------------

// Every interval on every small dimension: the runs are disjoint and
// ascending in the local index, map local index l to plane
// (start + l) mod n, cover exactly the brute-force set of local indices
// whose plane falls in [b, e), and sum to wrapped_overlap.
TEST(WrappedRunsTest, MatchBruteForceExhaustively) {
  for (std::size_t n = 1; n <= 10; ++n) {
    for (std::size_t start = 0; start < n; ++start) {
      for (std::size_t count = 0; count <= n; ++count) {
        for (std::size_t b = 0; b <= n; ++b) {
          for (std::size_t e = b; e <= n; ++e) {
            std::vector<std::size_t> want;
            for (std::size_t l = 0; l < count; ++l) {
              const std::size_t plane = (start + l) % n;
              if (plane >= b && plane < e) want.push_back(l);
            }
            const WrappedRuns runs = wrapped_runs(start, count, n, b, e);
            std::vector<std::size_t> got;
            bool ok = runs.size <= 2;
            std::size_t next = 0;  // first local index a run may start at
            for (const WrappedRun& r : runs) {
              ok = ok && r.len > 0 && r.local >= next;
              next = r.local + r.len;
              for (std::size_t j = 0; j < r.len; ++j) {
                ok = ok && r.plane + j == (start + r.local + j) % n;
                got.push_back(r.local + j);
              }
            }
            ASSERT_TRUE(ok && got == want &&
                        runs.total() == want.size() &&
                        wrapped_overlap(start, count, n, b, e) == want.size())
                << "n " << n << " start " << start << " count " << count
                << " [" << b << ", " << e << ")";
          }
        }
      }
    }
  }
}

TEST(WrappedRunsTest, RejectIntervalsOffTheGrid) {
  EXPECT_THROW(wrapped_runs(8, 1, 8, 0, 8), util::Error);
  EXPECT_THROW(wrapped_runs(0, 9, 8, 0, 8), util::Error);
  EXPECT_THROW(wrapped_overlap(9, 2, 8, 0, 8), util::Error);
  EXPECT_EQ(wrapped_overlap(7, 8, 8, 0, 8), 8u);
}

// A caller-built region that starts past its dimension or spans more than
// it would make the plane walk and the message sizes disagree; the
// constructor rejects it, naming the rank, before anything is shipped.
TEST(PencilPmeTest, RejectsRegionsOffTheGrid) {
  PmeParams params;
  params.nx = 8;
  params.ny = 6;
  params.nz = 5;
  const md::Box box(10, 10, 10);
  const GridRegion whole{0, 8, 0, 6, 0, 5};
  const GridRegion bad[] = {
      {8, 2, 0, 6, 0, 5},   // x starts past the grid
      {0, 9, 0, 6, 0, 5},   // x spans more than the grid
      {0, 8, 6, 1, 0, 5},   // y starts past the grid
      {0, 8, 0, 6, 2, 6},   // z spans more than the grid
  };
  for (const GridRegion& region : bad) {
    net::ClusterConfig config;
    config.nranks = 2;
    net::ClusterNetwork cluster(config);
    std::vector<perf::RankRecorder> recs(2);
    sim::Engine engine(2);
    try {
      engine.run([&](sim::RankCtx& ctx) {
        mpi::Comm comm(ctx, cluster,
                       recs[static_cast<std::size_t>(ctx.rank())]);
        PencilPme pencil(params, box, comm, 1, 1, {whole, region});
      });
      FAIL() << "a region off the grid was accepted";
    } catch (const util::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    }
  }
  // An empty region's start is never read.
  net::ClusterConfig config;
  config.nranks = 2;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(2);
  sim::Engine engine(2);
  EXPECT_NO_THROW(engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, cluster, recs[static_cast<std::size_t>(ctx.rank())]);
    PencilPme pencil(params, box, comm, 1, 1,
                     {whole, GridRegion{99, 0, 0, 6, 0, 5}});
  }));
}

// An owned atom whose stencil reaches past its rank's region would lose
// the clipped taps' charge; the spread counts its taps and fails loudly.
TEST(PencilPmeTest, StencilOutsideRegionFailsLoudly) {
  const PmeParams params{16, 16, 16, 4, 0.34};
  const sysbuild::BuiltSystem water = sysbuild::build_water_box(3);
  const auto n = static_cast<std::size_t>(water.topo.natoms());
  const GridRegion whole{0, 16, 0, 16, 0, 16};
  const GridRegion sliver{0, 16, 0, 16, 3, 2};  // two z planes
  net::ClusterConfig config;
  config.nranks = 2;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(2);
  sim::Engine engine(2);
  try {
    engine.run([&](sim::RankCtx& ctx) {
      mpi::Comm comm(ctx, cluster,
                     recs[static_cast<std::size_t>(ctx.rank())]);
      PencilPme pme(params, water.box, comm, 1, 2, {whole, sliver});
      std::vector<int> owned;
      for (std::size_t i = 0; i < n; ++i) {
        if (static_cast<int>(i % 2) == ctx.rank()) {
          owned.push_back(static_cast<int>(i));
        }
      }
      std::vector<Vec3> forces(n);
      pme.reciprocal(water.topo, water.positions, owned, forces, 100);
    });
    FAIL() << "a clipped pencil stencil was accepted";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("left its rank's grid region"), std::string::npos)
        << what;
  }
}

// --- bit-identity pins -------------------------------------------------------

// SerialPme has one spread/interpolate path. Its energy and force bytes
// are pinned by 64-bit FNV-1a digests, so a change to the spread, the
// influence table or the FFT's rounding shows up here and must be
// re-pinned on purpose; the k-space-sum and gradient tests above hold the
// accuracy. The pins hold for the baseline x86-64 and the AVX2 build
// alike, since neither contracts to FMA; the -march=native CI leg filters
// them out.
std::uint64_t fnv1a(const void* data, std::size_t nbytes,
                    std::uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < nbytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t serial_pme_digest(const PmeParams& params) {
  static const sysbuild::BuiltSystem water = sysbuild::build_water_box(6);
  SerialPme pme(params, water.box);
  std::vector<Vec3> forces(static_cast<std::size_t>(water.topo.natoms()));
  const double energy = pme.reciprocal(water.topo, water.positions, forces);
  return fnv1a(forces.data(), forces.size() * sizeof(Vec3),
               fnv1a(&energy, sizeof energy));
}

TEST(SerialPmeBitIdentityTest, MatchesPinnedDigest) {
  const PmeParams params{32, 32, 32, 4, 0.34};
  EXPECT_EQ(serial_pme_digest(params), 0xda1cec6fb85e55e1ULL);
}

TEST(SerialPmeBitIdentityTest, OrderSixMatchesPinnedDigest) {
  // Order 6 exercises the wider stencil and the wrapped spread path on a
  // grid the paper never used.
  const PmeParams params{20, 24, 20, 6, 0.30};
  EXPECT_EQ(serial_pme_digest(params), 0x2d8dbad1255a65bcULL);
}

// ParallelPme's per-rank partial energies, then its per-rank partial
// forces, in rank order: the slab spread and interpolation clip the shared
// stencil to each rank's x-planes, so these bytes pin the clipping too.
std::uint64_t parallel_pme_digest(const PmeParams& params, int p) {
  static const sysbuild::BuiltSystem water = sysbuild::build_water_box(6);
  const auto n = static_cast<std::size_t>(water.topo.natoms());
  const auto np = static_cast<std::size_t>(p);
  net::ClusterConfig config;
  config.nranks = p;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(np);
  std::vector<double> energies(np);
  std::vector<std::vector<Vec3>> forces(np, std::vector<Vec3>(n));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    mpi::Comm comm(ctx, cluster, recs[r]);
    middleware::MpiMiddleware mw(comm);
    ParallelPme pme(params, water.box, mw);
    energies[r] = pme.reciprocal(water.topo, water.positions, forces[r]);
  });
  std::uint64_t h = fnv1a(energies.data(), energies.size() * sizeof(double));
  for (const std::vector<Vec3>& f : forces) {
    h = fnv1a(f.data(), f.size() * sizeof(Vec3), h);
  }
  return h;
}

TEST(ParallelPmeBitIdentityTest, OneRankMatchesPinnedDigest) {
  const PmeParams params{32, 32, 32, 4, 0.34};
  EXPECT_EQ(parallel_pme_digest(params, 1), 0x4525ac8c80c0d42dULL);
}

TEST(ParallelPmeBitIdentityTest, ThreeRanksMatchPinnedDigest) {
  // 32 planes over 3 ranks: uneven slabs, and stencils clipped at both
  // slab faces.
  const PmeParams params{32, 32, 32, 4, 0.34};
  EXPECT_EQ(parallel_pme_digest(params, 3), 0x3e16eacb4b32c37fULL);
}

TEST(ParallelPmeBitIdentityTest, OrderSixThreeRanksMatchPinnedDigest) {
  const PmeParams params{20, 24, 20, 6, 0.30};
  EXPECT_EQ(parallel_pme_digest(params, 3), 0x0dfbdca699c8ea09ULL);
}

// --- non-finite coordinates ----------------------------------------------------

// A NaN coordinate has no grid line: the spline setup rejects it, naming
// the atom, before the floor is cast to an index.
void expect_names_bad_atom(const std::function<void()>& run) {
  try {
    run();
    FAIL() << "a NaN coordinate reached the charge grid";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("atom 5"), std::string::npos) << what;
  }
}

sysbuild::BuiltSystem water_with_nan_atom() {
  sysbuild::BuiltSystem water = sysbuild::build_water_box(3);
  water.positions[5].y = std::numeric_limits<double>::quiet_NaN();
  return water;
}

TEST(NonFiniteCoordinateTest, SerialPmeRejects) {
  const sysbuild::BuiltSystem water = water_with_nan_atom();
  ASSERT_NE(water.topo.atom(5).charge, 0.0);
  SerialPme pme(PmeParams{16, 16, 16, 4, 0.34}, water.box);
  std::vector<Vec3> forces(static_cast<std::size_t>(water.topo.natoms()));
  expect_names_bad_atom(
      [&] { pme.reciprocal(water.topo, water.positions, forces); });
}

TEST(NonFiniteCoordinateTest, ParallelPmeRejects) {
  const sysbuild::BuiltSystem water = water_with_nan_atom();
  const auto n = static_cast<std::size_t>(water.topo.natoms());
  net::ClusterConfig config;
  config.nranks = 2;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(2);
  sim::Engine engine(2);
  expect_names_bad_atom([&] {
    engine.run([&](sim::RankCtx& ctx) {
      mpi::Comm comm(ctx, cluster,
                     recs[static_cast<std::size_t>(ctx.rank())]);
      middleware::MpiMiddleware mw(comm);
      ParallelPme pme(PmeParams{16, 16, 16, 4, 0.34}, water.box, mw);
      std::vector<Vec3> forces(n);
      pme.reciprocal(water.topo, water.positions, forces);
    });
  });
}

TEST(NonFiniteCoordinateTest, PencilPmeRejects) {
  const sysbuild::BuiltSystem water = water_with_nan_atom();
  const auto n = static_cast<std::size_t>(water.topo.natoms());
  const PmeParams params{16, 16, 16, 4, 0.34};
  const GridRegion whole{0, 16, 0, 16, 0, 16};
  net::ClusterConfig config;
  config.nranks = 2;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(2);
  sim::Engine engine(2);
  expect_names_bad_atom([&] {
    engine.run([&](sim::RankCtx& ctx) {
      mpi::Comm comm(ctx, cluster,
                     recs[static_cast<std::size_t>(ctx.rank())]);
      PencilPme pme(params, water.box, comm, 1, 2, {whole, whole});
      // Rank 0 owns the even atoms, rank 1 the odd ones (atom 5 too).
      std::vector<int> owned;
      for (std::size_t i = 0; i < n; ++i) {
        if (static_cast<int>(i % 2) == ctx.rank()) {
          owned.push_back(static_cast<int>(i));
        }
      }
      std::vector<Vec3> forces(n);
      pme.reciprocal(water.topo, water.positions, owned, forces, 100);
    });
  });
}

}  // namespace
}  // namespace repro::pme
