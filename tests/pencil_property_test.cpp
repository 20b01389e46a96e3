// Property-test harness for the pencil-decomposed FFT and PME.
//
// Every transpose in the pencil chain is checked three ways:
//   - identity: transpose followed by its inverse returns the input
//     exactly (the transposes only move values, never do arithmetic);
//   - content: the distributed stages are a permutation of the global
//     grid — assembling every rank's pencils reconstructs each point
//     exactly once, and forward k-space matches the serial Fft3D;
//   - round trip: backward(forward(x)) == x to 1e-12.
// Grid sizes, pencil shapes, and rank counts are swept over divisible,
// non-divisible, odd/mixed-radix, degenerate (1 x Pz), and
// idle-extra-rank combinations, plus randomized cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "fft/fft.hpp"
#include "fft/parallel_fft.hpp"
#include "md/box.hpp"
#include "middleware/middleware.hpp"
#include "net/cluster.hpp"
#include "perf/recorder.hpp"
#include "pme/pme.hpp"
#include "sim/engine.hpp"
#include "sysbuild/builder.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace repro::fft {
namespace {

using util::Vec3;

std::vector<Complex> random_grid(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& c : v) c = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return v;
}

struct PencilCase {
  std::size_t nx, ny, nz;
  int py, pz;
  int nranks;  // >= py * pz; extras are idle non-participants
};

// Global grid index convention shared with the serial Fft3D: (x*ny+y)*nz+z.
std::size_t gidx(const PencilCase& c, std::size_t x, std::size_t y,
                 std::size_t z) {
  return (x * c.ny + y) * c.nz + z;
}

// Runs the full property battery for one configuration.
void run_pencil_case(const PencilCase& c) {
  SCOPED_TRACE(::testing::Message()
               << "grid " << c.nx << "x" << c.ny << "x" << c.nz
               << " pencils " << c.py << "x" << c.pz << " ranks "
               << c.nranks);
  const std::size_t volume = c.nx * c.ny * c.nz;
  const auto full =
      random_grid(volume, 1000 * c.nx + 100 * c.ny + 10 * c.nz +
                              static_cast<std::uint64_t>(c.py * c.pz));
  auto reference = full;
  Fft3D serial(c.nx, c.ny, c.nz);
  serial.forward(reference.data());

  const PencilGrid grid(c.nx, c.ny, c.nz, c.py, c.pz);

  // Stage sizes tile the grid exactly (each point owned once per stage).
  std::size_t s1 = 0, s2 = 0, s3 = 0;
  for (int r = 0; r < c.nranks; ++r) {
    s1 += grid.stage1_size(r);
    s2 += grid.stage2_size(r);
    s3 += grid.stage3_size(r);
  }
  EXPECT_EQ(s1, volume);
  EXPECT_EQ(s2, volume);
  EXPECT_EQ(s3, volume);

  net::ClusterConfig config;
  config.nranks = c.nranks;
  config.network = net::Network::kMyrinetGM;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(c.nranks));
  // Per-rank forward k-space pencils, gathered after the run to check the
  // global permutation property.
  std::vector<std::vector<Complex>> kspace(
      static_cast<std::size_t>(c.nranks));

  sim::Engine engine(c.nranks);
  engine.run([&](sim::RankCtx& ctx) {
    const int me = ctx.rank();
    mpi::Comm comm(ctx, cluster, recs[static_cast<std::size_t>(me)]);
    PencilFft3D pfft(grid, comm);

    if (!grid.participates(me)) {
      // Idle ranks: every call must be a no-op on empty buffers.
      EXPECT_EQ(grid.stage1_size(me), 0u);
      pfft.forward(nullptr, nullptr, 901, 902);
      pfft.backward(nullptr, nullptr, 903, 904);
      return;
    }
    const int yc = grid.ycoord(me);
    const int zc = grid.zcoord(me);
    const std::size_t ly1 = grid.ypart.count(yc);
    const std::size_t lz1 = grid.zpart.count(zc);
    const std::size_t y0 = grid.ypart.begin(yc);
    const std::size_t z0 = grid.zpart.begin(zc);

    // Fill my stage-1 x-pencils from the global grid.
    std::vector<Complex> stage1(grid.stage1_size(me));
    for (std::size_t yl = 0; yl < ly1; ++yl) {
      for (std::size_t zl = 0; zl < lz1; ++zl) {
        for (std::size_t x = 0; x < c.nx; ++x) {
          stage1[(yl * lz1 + zl) * c.nx + x] =
              full[gidx(c, x, y0 + yl, z0 + zl)];
        }
      }
    }

    // --- transpose o inverse-transpose identity (exact: data movement
    // only, no arithmetic) --------------------------------------------
    std::vector<Complex> stage2(grid.stage2_size(me));
    std::vector<Complex> stage3(grid.stage3_size(me));
    using T = PencilFft3D::Transpose;
    pfft.transpose(T::kXY, stage1.data(), stage2.data(), 911);
    std::vector<Complex> back1(stage1.size());
    pfft.transpose(T::kYX, stage2.data(), back1.data(), 912);
    for (std::size_t i = 0; i < stage1.size(); ++i) {
      ASSERT_EQ(back1[i], stage1[i]) << "X<->Y identity at " << i;
    }
    pfft.transpose(T::kYZ, stage2.data(), stage3.data(), 913);
    std::vector<Complex> back2(stage2.size());
    pfft.transpose(T::kZY, stage3.data(), back2.data(), 914);
    for (std::size_t i = 0; i < stage2.size(); ++i) {
      ASSERT_EQ(back2[i], stage2[i]) << "Y<->Z identity at " << i;
    }

    // --- stage-2 content: a permutation of the (y-transformed?) no —
    // transposes carry raw values, so stage 2 must hold exactly the
    // global points (x in Xp(yc), z in Zp(zc), all y) -------------------
    const std::size_t lx2 = grid.xpart.count(yc);
    const std::size_t x20 = grid.xpart.begin(yc);
    for (std::size_t xl = 0; xl < lx2; ++xl) {
      for (std::size_t zl = 0; zl < lz1; ++zl) {
        for (std::size_t y = 0; y < c.ny; ++y) {
          ASSERT_EQ(stage2[(xl * lz1 + zl) * c.ny + y],
                    full[gidx(c, x20 + xl, y, z0 + zl)])
              << "stage-2 content at x=" << x20 + xl << " y=" << y
              << " z=" << z0 + zl;
        }
      }
    }

    // --- forward matches the serial transform ------------------------
    std::vector<Complex> kpencil(grid.stage3_size(me));
    pfft.forward(stage1.data(), kpencil.data(), 921, 922);
    const std::size_t ly3 = grid.y2part.count(zc);
    const std::size_t y30 = grid.y2part.begin(zc);
    for (std::size_t xl = 0; xl < lx2; ++xl) {
      for (std::size_t yl = 0; yl < ly3; ++yl) {
        for (std::size_t z = 0; z < c.nz; ++z) {
          const Complex got = kpencil[(xl * ly3 + yl) * c.nz + z];
          const Complex want = reference[gidx(c, x20 + xl, y30 + yl, z)];
          ASSERT_NEAR(std::abs(got - want), 0.0, 1e-8)
              << "k-space at x=" << x20 + xl << " y=" << y30 + yl
              << " z=" << z;
        }
      }
    }
    kspace[static_cast<std::size_t>(me)] = kpencil;

    // --- round trip: backward(forward(x)) == x to 1e-12 ---------------
    std::vector<Complex> round(stage1.size());
    pfft.backward(kpencil.data(), round.data(), 931, 932);
    for (std::size_t i = 0; i < stage1.size(); ++i) {
      ASSERT_NEAR(std::abs(round[i] - stage1[i]), 0.0, 1e-12)
          << "round trip at " << i;
    }
  });

  // --- global permutation property: every k-space point is produced by
  // exactly one rank, and the assembled grid equals the serial result --
  std::vector<int> owners(volume, 0);
  std::vector<Complex> assembled(volume);
  for (int r = 0; r < c.nranks; ++r) {
    if (!grid.participates(r)) continue;
    const int yc = grid.ycoord(r);
    const int zc = grid.zcoord(r);
    const std::size_t lx2 = grid.xpart.count(yc);
    const std::size_t ly3 = grid.y2part.count(zc);
    const std::size_t x20 = grid.xpart.begin(yc);
    const std::size_t y30 = grid.y2part.begin(zc);
    ASSERT_EQ(kspace[static_cast<std::size_t>(r)].size(),
              lx2 * ly3 * c.nz);
    for (std::size_t xl = 0; xl < lx2; ++xl) {
      for (std::size_t yl = 0; yl < ly3; ++yl) {
        for (std::size_t z = 0; z < c.nz; ++z) {
          const std::size_t g = gidx(c, x20 + xl, y30 + yl, z);
          owners[g] += 1;
          assembled[g] =
              kspace[static_cast<std::size_t>(r)][(xl * ly3 + yl) * c.nz +
                                                  z];
        }
      }
    }
  }
  for (std::size_t g = 0; g < volume; ++g) {
    ASSERT_EQ(owners[g], 1) << "k-space point " << g
                            << " owned by != 1 rank";
    EXPECT_NEAR(std::abs(assembled[g] - reference[g]), 0.0, 1e-8);
  }
}

TEST(PencilFftPropertyTest, DivisibleGrids) {
  run_pencil_case({16, 8, 8, 2, 4, 8});
  run_pencil_case({20, 12, 16, 2, 2, 4});
  run_pencil_case({8, 4, 4, 4, 4, 16});
}

TEST(PencilFftPropertyTest, NonDivisibleGrids) {
  run_pencil_case({20, 9, 12, 2, 5, 10});
  run_pencil_case({14, 10, 6, 3, 4, 12});
  run_pencil_case({80, 36, 48, 3, 5, 15});  // the paper's PME grid
}

TEST(PencilFftPropertyTest, OddAndMixedRadixGrids) {
  run_pencil_case({15, 9, 7, 3, 2, 6});
  run_pencil_case({7, 5, 11, 2, 3, 6});
  run_pencil_case({9, 3, 5, 3, 5, 15});
}

TEST(PencilFftPropertyTest, DegeneratePencilShapes) {
  run_pencil_case({12, 6, 8, 1, 1, 1});   // serial in pencil clothing
  run_pencil_case({12, 6, 8, 1, 4, 4});   // row of z-pencils
  run_pencil_case({12, 6, 8, 4, 1, 4});   // column of y-pencils
  run_pencil_case({10, 4, 6, 4, 6, 24});  // every plane its own rank
}

TEST(PencilFftPropertyTest, IdleExtraRanks) {
  // More ranks than pencils: the extras join the engine but own nothing.
  run_pencil_case({16, 8, 8, 2, 2, 7});
  run_pencil_case({15, 9, 7, 2, 2, 9});
}

TEST(PencilFftPropertyTest, RandomizedConfigurations) {
  util::Rng rng(2002);
  for (int iter = 0; iter < 6; ++iter) {
    PencilCase c;
    c.nx = 2 + rng.uniform_index(14);
    c.ny = 2 + rng.uniform_index(10);
    c.nz = 2 + rng.uniform_index(10);
    c.py = 1 + static_cast<int>(rng.uniform_index(
                   std::min<std::uint64_t>(4, c.ny)));
    c.pz = 1 + static_cast<int>(rng.uniform_index(
                   std::min<std::uint64_t>(4, c.nz)));
    c.nranks = c.py * c.pz + static_cast<int>(rng.uniform_index(3));
    run_pencil_case(c);
  }
}

// --- pencil PME against the serial reference --------------------------------

// Runs PencilPme on `nranks` ranks, atom i owned by rank owner[i] and rank
// r spreading into regions[r]; the summed partial energies and the
// owned-atom forces must come back identical to the serial PME.
void check_pencil_pme(const pme::PmeParams& params,
                      const sysbuild::BuiltSystem& sys, int py, int pz,
                      int nranks, const std::vector<int>& owner,
                      const std::vector<pme::GridRegion>& regions) {
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  pme::SerialPme serial(params, sys.box);
  std::vector<Vec3> serial_forces(n);
  const double serial_energy =
      serial.reciprocal(sys.topo, sys.positions, serial_forces);

  net::ClusterConfig config;
  config.nranks = nranks;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(nranks));
  std::vector<double> energies(static_cast<std::size_t>(nranks));
  std::vector<std::vector<Vec3>> forces(static_cast<std::size_t>(nranks),
                                        std::vector<Vec3>(n));

  sim::Engine engine(nranks);
  engine.run([&](sim::RankCtx& ctx) {
    const int me = ctx.rank();
    mpi::Comm comm(ctx, cluster, recs[static_cast<std::size_t>(me)]);
    pme::PencilPme pencil(params, sys.box, comm, py, pz, regions);
    std::vector<int> owned;
    for (std::size_t i = 0; i < n; ++i) {
      if (owner[i] == me) owned.push_back(static_cast<int>(i));
    }
    energies[static_cast<std::size_t>(me)] = pencil.reciprocal(
        sys.topo, sys.positions, owned,
        forces[static_cast<std::size_t>(me)], 500);
  });

  double energy = 0.0;
  std::vector<Vec3> total(n);
  for (int r = 0; r < nranks; ++r) {
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

// Whole-grid regions on every rank: the plane exchange ships everything.
void run_pencil_pme_case(const pme::PmeParams& params, int py, int pz,
                         int nranks, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "pme grid " << params.nx << "x" << params.ny << "x"
               << params.nz << " pencils " << py << "x" << pz << " ranks "
               << nranks);
  auto sys = sysbuild::build_random_charges(36, md::Box(13, 11, 9), seed);
  // Round-robin atom ownership; every rank's region is the whole grid.
  std::vector<int> owner(static_cast<std::size_t>(sys.topo.natoms()));
  for (std::size_t i = 0; i < owner.size(); ++i) {
    owner[i] = static_cast<int>(i % static_cast<std::size_t>(nranks));
  }
  check_pencil_pme(
      params, sys, py, pz, nranks, owner,
      std::vector<pme::GridRegion>(
          static_cast<std::size_t>(nranks),
          pme::GridRegion{0, params.nx, 0, params.ny, 0, params.nz}));
}

// Partial regions that wrap across the periodic boundary: the atoms sit
// in a cube of half-width `half` around the box corner, so the owned
// stencils reach across plane 0 in each dimension. Each rank's region is the
// wrapped interval of the planes its own atoms touch, padded by one plane
// a side; rank 0's x extent is widened to the whole dimension from a
// nonzero start. The last rank owns no atoms and has an empty region when
// `idle_last` is set.
struct CornerLayout {
  explicit CornerLayout(std::uint64_t seed)
      : sys(sysbuild::build_random_charges(36, md::Box(13, 11, 9), seed)) {}

  sysbuild::BuiltSystem sys;
  std::vector<int> owner;
  std::vector<pme::GridRegion> regions;
};

void corner_layout(const pme::PmeParams& params, int nranks, double half,
                   bool idle_last, std::uint64_t seed, CornerLayout& out) {
  sysbuild::BuiltSystem& sys = out.sys;
  util::Rng rng(seed);
  for (auto& r : sys.positions) {
    r = Vec3{rng.uniform(-half, half), rng.uniform(-half, half),
             rng.uniform(-half, half)};
  }
  const int owners = idle_last ? nranks - 1 : nranks;
  std::vector<int>& owner = out.owner;
  owner.assign(sys.positions.size(), 0);
  for (std::size_t i = 0; i < owner.size(); ++i) {
    owner[i] = static_cast<int>(i % static_cast<std::size_t>(owners));
  }

  const std::size_t dims[3] = {params.nx, params.ny, params.nz};
  const double lens[3] = {sys.box.lx(), sys.box.ly(), sys.box.lz()};
  std::vector<pme::GridRegion>& regions = out.regions;
  regions.assign(static_cast<std::size_t>(nranks), pme::GridRegion{});
  int wrapping[3] = {0, 0, 0};  // ranks whose region wraps, per dimension
  for (int r = 0; r < owners; ++r) {
    std::size_t start[3];
    std::size_t count[3];
    for (int d = 0; d < 3; ++d) {
      // Stencil planes of an atom at fractional coordinate u are
      // floor(u) - order + 1 .. floor(u), taken modulo n.
      long lo = 1L << 30;
      long hi = -(1L << 30);
      for (std::size_t i = 0; i < owner.size(); ++i) {
        if (owner[i] != r) continue;
        const double u =
            sys.positions[i][d] / lens[d] * static_cast<double>(dims[d]);
        const auto k0 = static_cast<long>(std::floor(u));
        lo = std::min(lo, k0 - params.order + 1 - 1);
        hi = std::max(hi, k0 + 1);
      }
      const auto n = static_cast<long>(dims[d]);
      ASSERT_LT(hi - lo + 1, n) << "region would not be partial";
      start[d] = static_cast<std::size_t>(((lo % n) + n) % n);
      count[d] = static_cast<std::size_t>(hi - lo + 1);
      if (start[d] + count[d] > dims[d]) ++wrapping[d];
    }
    if (r == 0) count[0] = dims[0];
    regions[static_cast<std::size_t>(r)] = pme::GridRegion{
        start[0], count[0], start[1], count[1], start[2], count[2]};
  }
  ASSERT_GT(wrapping[1], 0) << "no region wraps in y";
  ASSERT_GT(wrapping[2], 0) << "no region wraps in z";
}

void run_corner_case(const pme::PmeParams& params, int py, int pz,
                     int nranks, double half, bool idle_last,
                     std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "corner pme grid " << params.nx << "x" << params.ny
               << "x" << params.nz << " pencils " << py << "x" << pz
               << " ranks " << nranks << " half-width " << half);
  CornerLayout c(seed);
  corner_layout(params, nranks, half, idle_last, seed, c);
  if (::testing::Test::HasFatalFailure()) return;
  check_pencil_pme(params, c.sys, py, pz, nranks, c.owner, c.regions);
}

TEST(PencilPmePropertyTest, MatchesSerialAcrossShapes) {
  pme::PmeParams params;
  params.nx = 20;
  params.ny = 12;
  params.nz = 16;
  params.order = 4;
  params.beta = 0.4;
  run_pencil_pme_case(params, 1, 1, 1, 71);
  run_pencil_pme_case(params, 2, 2, 4, 72);
  run_pencil_pme_case(params, 2, 4, 8, 73);
  run_pencil_pme_case(params, 3, 2, 8, 74);  // two idle ranks
}

TEST(PencilPmePropertyTest, OddGridMatchesSerial) {
  pme::PmeParams params;
  params.nx = 15;
  params.ny = 9;
  params.nz = 7;
  params.order = 4;
  params.beta = 0.45;
  run_pencil_pme_case(params, 3, 2, 6, 75);
  run_pencil_pme_case(params, 2, 3, 6, 76);
}

TEST(PencilPmePropertyTest, WrappedPartialRegionsMatchSerial) {
  pme::PmeParams params;
  params.nx = 20;
  params.ny = 12;
  params.nz = 16;
  params.order = 4;
  params.beta = 0.4;
  run_corner_case(params, 1, 1, 2, 1.5, false, 81);
  run_corner_case(params, 2, 2, 4, 1.5, false, 82);
  run_corner_case(params, 3, 4, 12, 1.5, false, 83);
  run_corner_case(params, 2, 4, 9, 1.2, true, 84);   // idle ninth rank
  params.nx = 15;
  params.ny = 9;
  params.nz = 14;
  params.beta = 0.45;
  run_corner_case(params, 3, 2, 7, 1.0, true, 85);
}

// Each rank's partial energy and force bytes from one reciprocal call on
// a PencilPme built with regions `built` and, when `used` differs, warmed
// with one call and then switched to `used` by set_regions.
struct PencilBytes {
  std::vector<double> energy;
  std::vector<Vec3> forces;  // rank-major
};

PencilBytes pencil_bytes(const pme::PmeParams& params,
                         const sysbuild::BuiltSystem& sys, int py, int pz,
                         int nranks, const std::vector<int>& owner,
                         const std::vector<pme::GridRegion>& built,
                         const std::vector<pme::GridRegion>& used) {
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  net::ClusterConfig config;
  config.nranks = nranks;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(nranks));
  PencilBytes out;
  out.energy.resize(static_cast<std::size_t>(nranks));
  out.forces.resize(static_cast<std::size_t>(nranks) * n);
  sim::Engine engine(nranks);
  engine.run([&](sim::RankCtx& ctx) {
    const int me = ctx.rank();
    mpi::Comm comm(ctx, cluster, recs[static_cast<std::size_t>(me)]);
    pme::PencilPme pencil(params, sys.box, comm, py, pz, built);
    std::vector<int> owned;
    for (std::size_t i = 0; i < n; ++i) {
      if (owner[i] == me) owned.push_back(static_cast<int>(i));
    }
    std::vector<Vec3> forces(n);
    if (used != built) {
      pencil.reciprocal(sys.topo, sys.positions, owned, forces, 500);
      pencil.set_regions(used);
      std::fill(forces.begin(), forces.end(), Vec3{});
    }
    out.energy[static_cast<std::size_t>(me)] =
        pencil.reciprocal(sys.topo, sys.positions, owned, forces, 600);
    std::copy(forces.begin(), forces.end(),
              out.forces.begin() + static_cast<std::ptrdiff_t>(
                                       static_cast<std::size_t>(me) * n));
  });
  return out;
}

// A rebalance swaps regions on a live PencilPme (set_regions) instead of
// rebuilding it; the result must be the bytes a fresh PencilPme on the new
// regions gives, and the new regions must pass the constructor's check.
TEST(PencilPmePropertyTest, SetRegionsMatchesFreshConstruction) {
  pme::PmeParams params;
  params.nx = 15;
  params.ny = 12;
  params.nz = 16;
  params.order = 4;
  params.beta = 0.4;
  const int nranks = 5;
  const int py = 2;
  const int pz = 2;
  auto sys = sysbuild::build_random_charges(36, md::Box(13, 11, 9), 91);
  // The last rank owns no atoms: whole-grid regions start unwrapped, then
  // switch to whole-grid regions that wrap from a nonzero start, and to an
  // empty region on the idle rank.
  std::vector<int> owner(static_cast<std::size_t>(sys.topo.natoms()));
  for (std::size_t i = 0; i < owner.size(); ++i) {
    owner[i] = static_cast<int>(i % static_cast<std::size_t>(nranks - 1));
  }
  const std::vector<pme::GridRegion> whole(
      static_cast<std::size_t>(nranks),
      pme::GridRegion{0, params.nx, 0, params.ny, 0, params.nz});
  std::vector<pme::GridRegion> shifted(
      static_cast<std::size_t>(nranks),
      pme::GridRegion{4, params.nx, 7, params.ny, 3, params.nz});
  shifted.back() = pme::GridRegion{};

  const PencilBytes fresh =
      pencil_bytes(params, sys, py, pz, nranks, owner, shifted, shifted);
  const PencilBytes swapped =
      pencil_bytes(params, sys, py, pz, nranks, owner, whole, shifted);
  ASSERT_EQ(fresh.energy.size(), swapped.energy.size());
  ASSERT_EQ(fresh.forces.size(), swapped.forces.size());
  EXPECT_EQ(std::memcmp(fresh.energy.data(), swapped.energy.data(),
                        fresh.energy.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(fresh.forces.data(), swapped.forces.data(),
                        fresh.forces.size() * sizeof(Vec3)),
            0);

  // An off-grid region fails set_regions as it fails the constructor.
  std::vector<pme::GridRegion> bad = whole;
  bad[1] = pme::GridRegion{0, params.nx, params.ny, 1, 0, params.nz};
  net::ClusterConfig config;
  config.nranks = nranks;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(nranks));
  sim::Engine engine(nranks);
  try {
    engine.run([&](sim::RankCtx& ctx) {
      mpi::Comm comm(ctx, cluster,
                     recs[static_cast<std::size_t>(ctx.rank())]);
      pme::PencilPme pencil(params, sys.box, comm, py, pz, whole);
      pencil.set_regions(bad);
    });
    FAIL() << "set_regions accepted a region off the grid";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  }
}

// --- bit-identity pin -----------------------------------------------------

// PencilPme's per-rank partial energies, then its rank-major forces, on a
// 2 x 2 pencil grid whose partial regions wrap in y and z, pinned by a
// 64-bit FNV-1a digest: the region spread, the plane exchanges and the
// pencil FFT's rounding all show up here. The pin holds for the baseline
// x86-64 and the AVX2 build alike, since neither contracts to FMA. The
// offset basis is this repo's 1469598103934665603, one digit short of
// FNV-1a's 14695981039346656037; it is kept because every digest pin
// depends on it.
std::uint64_t fnv1a(const void* data, std::size_t nbytes,
                    std::uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < nbytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(PencilPmeBitIdentityTest, WrappedPartialRegionsMatchPinnedDigest) {
  pme::PmeParams params;
  params.nx = 20;
  params.ny = 12;
  params.nz = 16;
  params.order = 4;
  params.beta = 0.4;
  CornerLayout c(82);
  corner_layout(params, 4, 1.5, false, 82, c);
  ASSERT_FALSE(HasFatalFailure());
  const PencilBytes b =
      pencil_bytes(params, c.sys, 2, 2, 4, c.owner, c.regions, c.regions);
  const std::uint64_t h = fnv1a(b.energy.data(),
                                b.energy.size() * sizeof(double));
  EXPECT_EQ(fnv1a(b.forces.data(), b.forces.size() * sizeof(Vec3), h),
            0x44b0d697dce9bfe3ULL);
}

}  // namespace
}  // namespace repro::fft
