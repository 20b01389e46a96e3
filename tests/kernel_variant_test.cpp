// Tests for the pair kernel against its libm oracle (tests/pair_oracle.hpp),
// run_experiment's check on the energy model's watts, and the batched
// B-spline and FFT kernels:
//  - negative watts built in code are refused;
//  - the precomputed LJ mixing table is bit-identical to per-pair mixing;
//  - the pair kernel matches the oracle to 1e-10 relative under every
//    work-selection rule, reports exactly the oracle's work counters, and
//    is deterministic across reruns;
//  - the pair kernel's output bits are pinned by digest under every rule;
//  - batched B-spline weights are bit-identical per lane and keep the
//    partition of unity;
//  - the batched FFT matches a naive DFT.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>

#include "core/experiment.hpp"
#include "fft/fft.hpp"
#include "md/neighbor.hpp"
#include "md/nonbonded.hpp"
#include "perf/power.hpp"
#include "pme/bspline.hpp"
#include "sysbuild/builder.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

#include "pair_oracle.hpp"

namespace repro {
namespace {

using util::Vec3;

// --- power backstop --------------------------------------------------------

// The parse layer rejects bad flag strings; this backstop guards specs
// built in code (sweep drivers, tests) against skipping the parsers.
TEST(BackstopTest, RunExperimentRejectsNegativeWattsBuiltInCode) {
  core::ExperimentSpec spec;
  spec.nprocs = 1;
  spec.charmm.nsteps = 1;
  perf::PowerModel model;
  model.static_watts_per_node = 55.0;
  model.dynamic_watts = 25.0;
  model.phase_watts["pme_fft"] = -1.0;
  spec.power = model;
  const sysbuild::BuiltSystem sys = sysbuild::build_water_box(3);
  EXPECT_THROW(core::run_experiment(sys, spec), util::Error);
}

// --- pair table ------------------------------------------------------------

const sysbuild::BuiltSystem& water() {
  static const sysbuild::BuiltSystem sys = sysbuild::build_water_box(6);
  return sys;
}

TEST(PairTableTest, MixesExactlyLikePerPairMath) {
  const auto& sys = water();
  const auto table = md::build_pair_table(sys.topo);
  ASSERT_GT(table->ntypes, 0);
  ASSERT_EQ(table->type_of.size(),
            static_cast<std::size_t>(sys.topo.natoms()));
  ASSERT_EQ(table->charge.size(),
            static_cast<std::size_t>(sys.topo.natoms()));
  const int nt = table->ntypes;
  for (int i = 0; i < std::min(sys.topo.natoms(), 200); ++i) {
    for (int j = 0; j < std::min(sys.topo.natoms(), 200); ++j) {
      const auto& ai = sys.topo.atom(i);
      const auto& aj = sys.topo.atom(j);
      const std::size_t idx = static_cast<std::size_t>(
          table->type_of[static_cast<std::size_t>(i)] * nt +
          table->type_of[static_cast<std::size_t>(j)]);
      // Bitwise: sqrt on identical inputs is correctly rounded, so the
      // table entry must equal the per-pair expression exactly.
      EXPECT_EQ(table->eps[idx], std::sqrt(ai.eps * aj.eps));
      EXPECT_EQ(table->rmin[idx], ai.rmin_half + aj.rmin_half);
    }
    EXPECT_EQ(table->charge[static_cast<std::size_t>(i)],
              sys.topo.atom(i).charge);
  }
}

md::NonbondedOptions water_options(md::NonbondedOptions::Elec elec) {
  md::NonbondedOptions opts;
  opts.cutoff = 9.0;
  opts.switch_on = 7.0;
  opts.elec = elec;
  return opts;
}

const md::NeighborList& water_list() {
  static const md::NeighborList nbl = [] {
    md::NeighborList list(9.0, 2.0);
    list.build(water().topo, water().box, water().positions);
    return list;
  }();
  return nbl;
}

struct PairRun {
  std::vector<Vec3> forces;
  md::EnergyTerms energy;
  md::NonbondedWork work;
};

// The production kernel on the water box's list.
PairRun run_pair_kernel(const md::NonbondedOptions& opts,
                        const md::WorkSlice& slice = {}) {
  const auto& sys = water();
  PairRun run;
  run.forces.assign(static_cast<std::size_t>(sys.topo.natoms()), Vec3{});
  run.work = md::nonbonded_energy(sys.topo, sys.box, sys.positions,
                                  water_list(), opts, run.forces, run.energy,
                                  slice);
  return run;
}

// The libm oracle on the same list and slice.
PairRun run_oracle(const md::NonbondedOptions& opts,
                   const md::WorkSlice& slice = {}) {
  const auto& sys = water();
  PairRun run;
  run.forces.assign(static_cast<std::size_t>(sys.topo.natoms()), Vec3{});
  run.work = oracle::nonbonded_energy_listed(sys.topo, sys.box, sys.positions,
                                             water_list(), opts, run.forces,
                                             run.energy, slice);
  return run;
}

double max_force_norm(const std::vector<Vec3>& forces) {
  double m = 0.0;
  for (const Vec3& f : forces) m = std::max(m, std::sqrt(dot(f, f)));
  return m;
}

void expect_forces_close(const std::vector<Vec3>& a,
                         const std::vector<Vec3>& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  const double scale = std::max(max_force_norm(a), 1.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].x, b[i].x, tol * scale) << "atom " << i;
    EXPECT_NEAR(a[i].y, b[i].y, tol * scale) << "atom " << i;
    EXPECT_NEAR(a[i].z, b[i].z, tol * scale) << "atom " << i;
  }
}

// The kernel against the oracle on one slice: work counters exactly (the
// cost model charges simulated time from them), energies and forces to
// 1e-10 relative.
void expect_matches_oracle(const md::NonbondedOptions& opts,
                           const md::WorkSlice& slice) {
  const PairRun kernel = run_pair_kernel(opts, slice);
  const PairRun ref = run_oracle(opts, slice);
  EXPECT_EQ(kernel.work.pairs_listed, ref.work.pairs_listed);
  EXPECT_EQ(kernel.work.pairs_in_cutoff, ref.work.pairs_in_cutoff);
  const double e_scale =
      std::max({std::abs(ref.energy.lj), std::abs(ref.energy.elec), 1.0});
  EXPECT_NEAR(kernel.energy.lj, ref.energy.lj, 1e-10 * e_scale);
  EXPECT_NEAR(kernel.energy.elec, ref.energy.elec, 1e-10 * e_scale);
  expect_forces_close(ref.forces, kernel.forces, 1e-10);
}

TEST(PairTableTest, TabledKernelIsBitIdentical) {
  // Hoisting sqrt(eps_i eps_j) into the per-type table once at setup must
  // not move a single bit against the table the kernel builds per call.
  for (const auto elec : {md::NonbondedOptions::Elec::kShift,
                          md::NonbondedOptions::Elec::kEwaldDirect}) {
    md::NonbondedOptions with = water_options(elec);
    with.table = md::build_pair_table(water().topo);
    const PairRun a = run_pair_kernel(with);
    const PairRun b = run_pair_kernel(water_options(elec));
    EXPECT_EQ(a.energy.lj, b.energy.lj);
    EXPECT_EQ(a.energy.elec, b.energy.elec);
    for (std::size_t i = 0; i < a.forces.size(); ++i) {
      EXPECT_EQ(a.forces[i].x, b.forces[i].x);
      EXPECT_EQ(a.forces[i].y, b.forces[i].y);
      EXPECT_EQ(a.forces[i].z, b.forces[i].z);
    }
  }
}

// --- pair kernel against the libm oracle ------------------------------------

class PairKernelTest
    : public ::testing::TestWithParam<md::NonbondedOptions::Elec> {};

TEST_P(PairKernelTest, MatchesLibmOracle) {
  const md::NonbondedOptions opts = water_options(GetParam());
  expect_matches_oracle(opts, {});
  // The cutoff must actually drop pairs, or pairs_in_cutoff pins nothing.
  const PairRun ref = run_oracle(opts);
  EXPECT_GT(ref.work.pairs_in_cutoff, 0u);
  EXPECT_LT(ref.work.pairs_in_cutoff, ref.work.pairs_listed);
}

TEST_P(PairKernelTest, InterleavedSlicesMatchOracle) {
  for (int shard = 0; shard < 4; ++shard) {
    SCOPED_TRACE(shard);
    expect_matches_oracle(water_options(GetParam()),
                          md::WorkSlice::interleaved(shard, 4));
  }
}

TEST_P(PairKernelTest, OwnedAtomSlicesMatchOracle) {
  const auto natoms = static_cast<std::size_t>(water().topo.natoms());
  for (int owner = 0; owner < 3; ++owner) {
    SCOPED_TRACE(owner);
    std::vector<std::uint8_t> mask(natoms);
    for (std::size_t i = 0; i < natoms; ++i) {
      mask[i] = static_cast<std::uint8_t>((i / 10) % 3 ==
                                          static_cast<std::size_t>(owner));
    }
    expect_matches_oracle(water_options(GetParam()),
                          md::WorkSlice::owned_atoms(mask));
  }
}

TEST_P(PairKernelTest, PairBlockSlicesMatchOracle) {
  const auto natoms = static_cast<std::size_t>(water().topo.natoms());
  std::vector<int> block(natoms);
  for (std::size_t i = 0; i < natoms; ++i) {
    block[i] = static_cast<int>(i * 4 / natoms);
  }
  for (int owner = 0; owner < 4; ++owner) {
    SCOPED_TRACE(owner);
    expect_matches_oracle(water_options(GetParam()),
                          md::WorkSlice::pair_blocks(block, owner, 4));
  }
}

TEST_P(PairKernelTest, ShardsSumToWhole) {
  const PairRun whole = run_pair_kernel(water_options(GetParam()));
  std::vector<Vec3> sum(whole.forces.size(), Vec3{});
  double lj = 0.0, elec = 0.0;
  std::size_t pairs = 0;
  for (int shard = 0; shard < 4; ++shard) {
    const PairRun part = run_pair_kernel(water_options(GetParam()),
                                         md::WorkSlice::interleaved(shard, 4));
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += part.forces[i];
    lj += part.energy.lj;
    elec += part.energy.elec;
    pairs += part.work.pairs_listed;
  }
  EXPECT_EQ(pairs, whole.work.pairs_listed);
  EXPECT_NEAR(lj, whole.energy.lj, 1e-9 * std::max(std::abs(lj), 1.0));
  EXPECT_NEAR(elec, whole.energy.elec,
              1e-9 * std::max(std::abs(elec), 1.0));
  expect_forces_close(whole.forces, sum, 1e-9);
}

TEST_P(PairKernelTest, IsDeterministicAcrossReruns) {
  const PairRun first = run_pair_kernel(water_options(GetParam()));
  const PairRun second = run_pair_kernel(water_options(GetParam()));
  EXPECT_EQ(first.energy.lj, second.energy.lj);
  EXPECT_EQ(first.energy.elec, second.energy.elec);
  for (std::size_t i = 0; i < first.forces.size(); ++i) {
    EXPECT_EQ(first.forces[i].x, second.forces[i].x);
    EXPECT_EQ(first.forces[i].y, second.forces[i].y);
    EXPECT_EQ(first.forces[i].z, second.forces[i].z);
  }
}

// FNV-1a digest of a run's output bits: every force component, then the
// lj and elec sums.
std::uint64_t output_digest(const PairRun& run) {
  std::uint64_t h = util::fnv1a_bytes(run.forces.data(),
                                      run.forces.size() * sizeof(Vec3));
  h = util::hash_combine(h, std::bit_cast<std::uint64_t>(run.energy.lj));
  return util::hash_combine(h,
                            std::bit_cast<std::uint64_t>(run.energy.elec));
}

// The kernel's output bits, pinned directly: the oracle tests above hold
// it to 1e-10, so a change in the lane arithmetic or the fixed summation
// order would pass them and only move a relax digest. One case per slice
// rule, each in both electrostatics modes.
TEST_P(PairKernelTest, OutputBitsPinned) {
  struct Pin {
    const char* slice;
    std::uint64_t digest;
    std::size_t listed, in_cutoff;
  };
  const bool ewald = GetParam() == md::NonbondedOptions::Elec::kEwaldDirect;
  const Pin pins[2][4] = {
      {{"whole", 0x0cccb647d0fa786aULL, 158300, 95282},
       {"interleaved 1/3", 0x4a60da4d1e234444ULL, 53224, 31940},
       {"owned atoms", 0xf1dc317ccf453647ULL, 52828, 31839},
       {"pair blocks 2/4", 0xab3cb34a0897cc01ULL, 38152, 22467}},
      {{"whole", 0xaf5b150b61e7946eULL, 158300, 95282},
       {"interleaved 1/3", 0xc15adad05579f180ULL, 53224, 31940},
       {"owned atoms", 0x7aeafdaab5d72f88ULL, 52828, 31839},
       {"pair blocks 2/4", 0x94589018e50fe626ULL, 38152, 22467}}};
  const auto natoms = static_cast<std::size_t>(water().topo.natoms());
  std::vector<std::uint8_t> mask(natoms);
  std::vector<int> block(natoms);
  for (std::size_t i = 0; i < natoms; ++i) {
    mask[i] = static_cast<std::uint8_t>((i / 10) % 3 == 1);
    block[i] = static_cast<int>(i * 4 / natoms);
  }
  const md::WorkSlice slices[4] = {
      md::WorkSlice{}, md::WorkSlice::interleaved(1, 3),
      md::WorkSlice::owned_atoms(mask),
      md::WorkSlice::pair_blocks(block, 2, 4)};
  for (int c = 0; c < 4; ++c) {
    const Pin& pin = pins[ewald ? 1 : 0][c];
    SCOPED_TRACE(pin.slice);
    const PairRun run = run_pair_kernel(water_options(GetParam()), slices[c]);
    EXPECT_EQ(run.work.pairs_listed, pin.listed);
    EXPECT_EQ(run.work.pairs_in_cutoff, pin.in_cutoff);
    EXPECT_EQ(output_digest(run), pin.digest)
        << std::hex << "0x" << output_digest(run);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Elec, PairKernelTest,
    ::testing::Values(md::NonbondedOptions::Elec::kShift,
                      md::NonbondedOptions::Elec::kEwaldDirect),
    [](const auto& info) {
      return info.param == md::NonbondedOptions::Elec::kShift ? "shift"
                                                              : "ewald";
    });

// --- B-spline batch --------------------------------------------------------

TEST(BsplineBatchTest, BatchIsBitIdenticalPerLane) {
  util::Rng rng(41);
  for (const int order : {2, 4, 6}) {
    constexpr std::size_t kN = 37;  // odd, exercises the loop remainder
    std::vector<double> w(kN);
    for (double& v : w) v = rng.uniform();
    std::vector<double> vals(static_cast<std::size_t>(order) * kN);
    std::vector<double> derivs(static_cast<std::size_t>(order) * kN);
    pme::bspline_weights_batch(order, w.data(), kN, vals.data(),
                               derivs.data());
    for (std::size_t a = 0; a < kN; ++a) {
      double sv[pme::kMaxOrder], sd[pme::kMaxOrder];
      pme::bspline_weights(order, w[a], sv, sd);
      for (int j = 0; j < order; ++j) {
        EXPECT_EQ(vals[static_cast<std::size_t>(j) * kN + a], sv[j])
            << "order " << order << " lane " << a << " tap " << j;
        EXPECT_EQ(derivs[static_cast<std::size_t>(j) * kN + a], sd[j])
            << "order " << order << " lane " << a << " tap " << j;
      }
    }
  }
}

TEST(BsplineBatchTest, PartitionOfUnity) {
  util::Rng rng(43);
  constexpr std::size_t kN = 16;
  std::vector<double> w(kN);
  for (double& v : w) v = rng.uniform();
  for (const int order : {4, 6}) {
    std::vector<double> vals(static_cast<std::size_t>(order) * kN);
    std::vector<double> derivs(static_cast<std::size_t>(order) * kN);
    pme::bspline_weights_batch(order, w.data(), kN, vals.data(),
                               derivs.data());
    for (std::size_t a = 0; a < kN; ++a) {
      double vsum = 0.0, dsum = 0.0;
      for (int j = 0; j < order; ++j) {
        vsum += vals[static_cast<std::size_t>(j) * kN + a];
        dsum += derivs[static_cast<std::size_t>(j) * kN + a];
      }
      EXPECT_NEAR(vsum, 1.0, 1e-12);  // weights spread the whole charge
      EXPECT_NEAR(dsum, 0.0, 1e-12);  // translating the grid changes nothing
    }
  }
}

// --- FFT variants ----------------------------------------------------------

std::vector<fft::Complex> random_signal(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<fft::Complex> x(n);
  for (auto& v : x) v = {rng.uniform() - 0.5, rng.uniform() - 0.5};
  return x;
}

std::vector<fft::Complex> naive_dft(const std::vector<fft::Complex>& x) {
  const std::size_t n = x.size();
  std::vector<fft::Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    fft::Complex acc{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * std::numbers::pi *
                         static_cast<double>(j * k % n) /
                         static_cast<double>(n);
      acc += x[j] * fft::Complex{std::cos(ang), std::sin(ang)};
    }
    out[k] = acc;
  }
  return out;
}

class FftKernelTest : public ::testing::TestWithParam<std::size_t> {};

// The FFT has one batched kernel whose bytes are pinned by digests in
// fft_test, which the vectorized (-march=native) build does not run; this
// keeps a tolerance check on that kernel in every build.
TEST_P(FftKernelTest, SimdMatchesNaiveDft) {
  const std::size_t n = GetParam();
  const fft::Fft1D plan(n);
  const auto x = random_signal(n, 11 + n);
  const auto ref = naive_dft(x);
  auto y = x;
  plan.forward(y.data());
  double scale = 0.0;
  for (const auto& v : ref) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), ref[i].real(), 1e-12 * std::max(scale, 1.0));
    EXPECT_NEAR(y[i].imag(), ref[i].imag(), 1e-12 * std::max(scale, 1.0));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftKernelTest,
                         ::testing::Values(8, 36, 48, 60, 80, 97, 128));

}  // namespace
}  // namespace repro
