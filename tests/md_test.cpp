#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <set>

#include "charmm/simulation.hpp"
#include "md/bonded.hpp"
#include "md/box.hpp"
#include "md/integrator.hpp"
#include "md/minimize.hpp"
#include "md/neighbor.hpp"
#include "md/nonbonded.hpp"
#include "md/topology.hpp"
#include "sysbuild/builder.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

#include "pair_oracle.hpp"

namespace repro::md {
namespace {

using util::Vec3;

constexpr double kPi = std::numbers::pi;

TEST(BoxTest, MinImage) {
  Box box(10, 20, 30);
  EXPECT_EQ(box.min_image(Vec3{1, 2, 3}), Vec3(1, 2, 3));
  const Vec3 wrapped = box.min_image(Vec3{9, 19, 29});
  EXPECT_NEAR(wrapped.x, -1.0, 1e-12);
  EXPECT_NEAR(wrapped.y, -1.0, 1e-12);
  EXPECT_NEAR(wrapped.z, -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(box.volume(), 6000.0);
}

TEST(BoxTest, Wrap) {
  Box box(10, 10, 10);
  const Vec3 w = box.wrap(Vec3{-1.0, 11.0, 25.0});
  EXPECT_NEAR(w.x, 9.0, 1e-12);
  EXPECT_NEAR(w.y, 1.0, 1e-12);
  EXPECT_NEAR(w.z, 5.0, 1e-12);
}

TEST(TopologyTest, ExclusionsFromBondGraph) {
  // Chain 0-1-2-3-4: 1-2 and 1-3 neighbors excluded, 1-4 not.
  Topology topo(5);
  for (int i = 0; i + 1 < 5; ++i) {
    Bond b;
    b.i = i;
    b.j = i + 1;
    topo.bonds().push_back(b);
  }
  topo.build_exclusions();
  EXPECT_TRUE(topo.excluded(0, 1));   // 1-2
  EXPECT_TRUE(topo.excluded(0, 2));   // 1-3
  EXPECT_FALSE(topo.excluded(0, 3));  // 1-4 interacts
  EXPECT_FALSE(topo.excluded(0, 4));
  EXPECT_TRUE(topo.excluded(2, 4));
  EXPECT_TRUE(topo.excluded(4, 3));   // symmetric
  EXPECT_EQ(topo.excluded_pairs().size(), 4u + 3u);
}

TEST(TopologyTest, ExclusionPolicies) {
  // Chain 0-1-2-3-4 under each NBXMOD level.
  auto make = [](ExclusionPolicy policy) {
    Topology topo(5);
    for (int i = 0; i + 1 < 5; ++i) {
      Bond b;
      b.i = i;
      b.j = i + 1;
      topo.bonds().push_back(b);
    }
    topo.build_exclusions(policy);
    return topo;
  };
  const Topology nbx2 = make(ExclusionPolicy::kBonds);
  EXPECT_TRUE(nbx2.excluded(0, 1));
  EXPECT_FALSE(nbx2.excluded(0, 2));
  EXPECT_EQ(nbx2.excluded_pairs().size(), 4u);

  const Topology nbx4 = make(ExclusionPolicy::kBondsAnglesDihedrals);
  EXPECT_TRUE(nbx4.excluded(0, 3));   // 1-4 excluded too
  EXPECT_FALSE(nbx4.excluded(0, 4));  // 1-5 interacts
  EXPECT_EQ(nbx4.excluded_pairs().size(), 4u + 3u + 2u);
}

TEST(TopologyTest, TotalChargeAndMass) {
  Topology topo(2);
  topo.atom(0) = AtomParams{12.0, 0.5, 0.1, 2.0};
  topo.atom(1) = AtomParams{1.0, -0.5, 0.05, 1.0};
  EXPECT_DOUBLE_EQ(topo.total_charge(), 0.0);
  EXPECT_DOUBLE_EQ(topo.total_mass(), 13.0);
}

// --- bonded terms against hand-computed values ------------------------------

TEST(BondedTest, BondEnergyAndForce) {
  Topology topo(2);
  Bond b;
  b.i = 0;
  b.j = 1;
  b.kb = 100.0;
  b.b0 = 1.5;
  topo.bonds().push_back(b);
  Box box(50, 50, 50);
  std::vector<Vec3> pos{{0, 0, 0}, {2.0, 0, 0}};
  std::vector<Vec3> f(2);
  EnergyTerms e;
  bonded_energy(topo, box, pos, f, e);
  EXPECT_NEAR(e.bond, 100.0 * 0.25, 1e-12);
  // dE/dr = 2*100*0.5 = 100 pulling the atoms together.
  EXPECT_NEAR(f[0].x, 100.0, 1e-10);
  EXPECT_NEAR(f[1].x, -100.0, 1e-10);
}

TEST(BondedTest, AngleEnergyAtRightAngle) {
  Topology topo(3);
  Angle a;
  a.i = 0;
  a.j = 1;
  a.k = 2;
  a.ktheta = 50.0;
  a.theta0 = kPi / 2.0;
  topo.angles().push_back(a);
  Box box(50, 50, 50);
  // 60-degree angle.
  std::vector<Vec3> pos{{1, 0, 0}, {0, 0, 0},
                        {std::cos(kPi / 3), std::sin(kPi / 3), 0}};
  std::vector<Vec3> f(3);
  EnergyTerms e;
  bonded_energy(topo, box, pos, f, e);
  const double dt = kPi / 3 - kPi / 2;
  EXPECT_NEAR(e.angle, 50.0 * dt * dt, 1e-10);
  // Net force and torque vanish.
  EXPECT_NEAR(util::norm(f[0] + f[1] + f[2]), 0.0, 1e-10);
}

TEST(BondedTest, UreyBradleyAddsOneThreeTerm) {
  Topology topo(3);
  Angle a;
  a.i = 0;
  a.j = 1;
  a.k = 2;
  a.ktheta = 0.0;
  a.theta0 = kPi / 2;
  a.kub = 30.0;
  a.s0 = 2.0;
  topo.angles().push_back(a);
  Box box(50, 50, 50);
  std::vector<Vec3> pos{{1.5, 0, 0}, {0, 0, 0}, {0, 1.5, 0}};
  std::vector<Vec3> f(3);
  EnergyTerms e;
  bonded_energy(topo, box, pos, f, e);
  const double s = std::sqrt(4.5);
  EXPECT_NEAR(e.angle, 30.0 * (s - 2.0) * (s - 2.0), 1e-10);
}

TEST(BondedTest, DihedralEnergyAtKnownAngle) {
  Topology topo(4);
  Dihedral d;
  d.i = 0;
  d.j = 1;
  d.k = 2;
  d.l = 3;
  d.kchi = 2.0;
  d.n = 1;
  d.delta = 0.0;
  topo.dihedrals().push_back(d);
  Box box(50, 50, 50);
  // Planar trans conformation: phi = pi (with the atan2 convention used).
  std::vector<Vec3> pos{{0, 1, 0}, {0, 0, 0}, {1, 0, 0}, {1, -1, 0}};
  std::vector<Vec3> f(4);
  EnergyTerms e;
  bonded_energy(topo, box, pos, f, e);
  // E = k (1 + cos(phi)); at phi = +-pi this is 0.
  EXPECT_NEAR(e.dihedral, 0.0, 1e-10);
  // Cis conformation: phi = 0 -> E = 2k.
  pos[3] = Vec3{1, 1, 0};
  std::fill(f.begin(), f.end(), Vec3{});
  EnergyTerms e2;
  bonded_energy(topo, box, pos, f, e2);
  EXPECT_NEAR(e2.dihedral, 4.0, 1e-10);
}

// Numerical-gradient check on a realistic random chain covering every
// bonded term type at once.
TEST(BondedTest, ForcesMatchNumericalGradient) {
  auto sys = sysbuild::build_test_chain(12, 77);
  const double h = 1e-6;
  std::vector<Vec3> f(static_cast<std::size_t>(sys.topo.natoms()));
  EnergyTerms e;
  bonded_energy(sys.topo, sys.box, sys.positions, f, e);
  for (int i = 0; i < sys.topo.natoms(); ++i) {
    for (int d = 0; d < 3; ++d) {
      auto plus = sys.positions;
      auto minus = sys.positions;
      plus[static_cast<std::size_t>(i)][d] += h;
      minus[static_cast<std::size_t>(i)][d] -= h;
      std::vector<Vec3> tmp(static_cast<std::size_t>(sys.topo.natoms()));
      EnergyTerms ep, em;
      bonded_energy(sys.topo, sys.box, plus, tmp, ep);
      bonded_energy(sys.topo, sys.box, minus, tmp, em);
      const double numeric =
          -(ep.bonded() - em.bonded()) / (2.0 * h);
      EXPECT_NEAR(f[static_cast<std::size_t>(i)][d], numeric, 2e-4)
          << "atom " << i << " dim " << d;
    }
  }
}

// Three disjoint owned-atom masks covering natoms atoms: atom i goes to
// mask (i / 4) % 3, in runs of four, so no mask lines up with an
// interleaved share.
std::vector<std::vector<std::uint8_t>> three_owned_masks(std::size_t natoms) {
  std::vector<std::vector<std::uint8_t>> masks(
      3, std::vector<std::uint8_t>(natoms, 0));
  for (std::size_t i = 0; i < natoms; ++i) masks[(i / 4) % 3][i] = 1;
  return masks;
}

// The partitions every kernel is checked against: interleaved shards over
// `p`, and the three owned-atom masks.
std::vector<std::vector<WorkSlice>> term_partitions(
    int p, const std::vector<std::vector<std::uint8_t>>& masks) {
  std::vector<std::vector<WorkSlice>> parts(2);
  for (int shard = 0; shard < p; ++shard) {
    parts[0].push_back(WorkSlice::interleaved(shard, p));
  }
  for (const auto& mask : masks) {
    parts[1].push_back(WorkSlice::owned_atoms(mask));
  }
  return parts;
}

TEST(BondedTest, ShardsPartitionTheWork) {
  auto sys = sysbuild::build_test_chain(20, 5);
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> full(n);
  EnergyTerms efull;
  const BondedWork wfull =
      bonded_energy(sys.topo, sys.box, sys.positions, full, efull);

  const auto masks = three_owned_masks(n);
  for (const auto& slices : term_partitions(3, masks)) {
    std::vector<Vec3> acc(n);
    EnergyTerms eacc;
    BondedWork sum;
    for (const WorkSlice& slice : slices) {
      const BondedWork w =
          bonded_energy(sys.topo, sys.box, sys.positions, acc, eacc, slice);
      sum.bonds += w.bonds;
      sum.angles += w.angles;
      sum.dihedrals += w.dihedrals;
      sum.impropers += w.impropers;
    }
    EXPECT_EQ(sum.bonds, wfull.bonds);
    EXPECT_EQ(sum.angles, wfull.angles);
    EXPECT_EQ(sum.dihedrals, wfull.dihedrals);
    EXPECT_EQ(sum.impropers, wfull.impropers);
    EXPECT_NEAR(eacc.bonded(), efull.bonded(), 1e-9);
    for (std::size_t i = 0; i < full.size(); ++i) {
      EXPECT_NEAR(util::norm(acc[i] - full[i]), 0.0, 1e-9);
    }
  }
}

TEST(BondedTest, RejectsPairBlockSlices) {
  auto sys = sysbuild::build_test_chain(4, 1);
  const std::vector<int> block(static_cast<std::size_t>(sys.topo.natoms()),
                               0);
  std::vector<Vec3> f(block.size());
  EnergyTerms e;
  EXPECT_THROW(bonded_energy(sys.topo, sys.box, sys.positions, f, e,
                             WorkSlice::pair_blocks(block, 0, 1)),
               util::Error);
}

// --- neighbor list -----------------------------------------------------------

// 200 random atoms in a 24 x 30 x 36 box, 20 bonded pairs. A 6 + 1 list
// range gives a 3 x 4 x 5 cell grid, so the cell sweep runs.
sysbuild::BuiltSystem random_atoms() {
  util::Rng rng(31);
  const int n = 200;
  sysbuild::BuiltSystem sys(n, Box(24, 30, 36), "random");
  for (int i = 0; i < n; ++i) {
    sys.topo.atom(i) = AtomParams{12.0, 0.0, 0.1, 2.0};
    sys.positions.push_back(Vec3{rng.uniform(0, sys.box.lx()),
                                 rng.uniform(0, sys.box.ly()),
                                 rng.uniform(0, sys.box.lz())});
  }
  for (int i = 0; i < 20; ++i) {
    Bond b;
    b.i = 2 * i;
    b.j = 2 * i + 1;
    sys.topo.bonds().push_back(b);
  }
  sys.topo.build_exclusions();
  return sys;
}

// Row i of a list, in stored order.
std::vector<int> row_of(const NeighborList& nbl, std::size_t i) {
  const auto b = static_cast<std::ptrdiff_t>(nbl.offsets()[i]);
  const auto e = static_cast<std::ptrdiff_t>(nbl.offsets()[i + 1]);
  return {nbl.neighbors().begin() + b, nbl.neighbors().begin() + e};
}

// Order-sensitive digest of a list's CSR arrays.
std::uint64_t csr_digest(const NeighborList& nbl) {
  return util::hash_combine(
      util::fnv1a_bytes(nbl.offsets().data(),
                        nbl.offsets().size() * sizeof(std::size_t)),
      util::fnv1a_bytes(nbl.neighbors().data(),
                        nbl.neighbors().size() * sizeof(int)));
}

TEST(NeighborListTest, MatchesBruteForce) {
  const sysbuild::BuiltSystem sys = random_atoms();
  const int n = sys.topo.natoms();
  const auto& pos = sys.positions;
  NeighborList nbl(6.0, 1.0);
  nbl.build(sys.topo, sys.box, pos);

  // Rows ascend in j, and each row holds exactly the brute-force partners.
  std::vector<std::vector<int>> brute(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (sys.topo.excluded(i, j)) continue;
      const double r2 = util::norm2(
          sys.box.min_image(pos[static_cast<std::size_t>(i)] -
                            pos[static_cast<std::size_t>(j)]));
      if (r2 < 49.0) brute[static_cast<std::size_t>(i)].push_back(j);
    }
  }
  for (std::size_t i = 0; i < brute.size(); ++i) {
    EXPECT_EQ(row_of(nbl, i), brute[i]) << "row " << i;
  }
}

// The exact CSR arrays of a box too small for three cells per axis, which
// takes the all-pairs path (digest recorded before the single-sweep
// rewrite).
TEST(NeighborListTest, SmallBoxArraysPinned) {
  const auto sys = sysbuild::build_water_box(4);
  NeighborList nbl(5.5, 1.0);
  nbl.build(sys.topo, sys.box, sys.positions);
  EXPECT_EQ(nbl.npairs(), 9996u);
  EXPECT_EQ(csr_digest(nbl), 0xa2cb24ec3f81defaULL);
}

// Spatial decomposition relies on this: build_subset over disjoint row
// masks, each with candidates covering its rows' neighborhoods (listed in
// any order), reproduces build()'s arrays row for row.
TEST(NeighborListTest, SubsetUnionEqualsBuild) {
  struct Case {
    sysbuild::BuiltSystem sys;
    double cutoff, skin;
  };
  std::vector<Case> cases;
  cases.push_back({random_atoms(), 6.0, 1.0});
  cases.push_back({sysbuild::build_water_box(4), 5.5, 1.0});  // all-pairs
  for (const Case& c : cases) {
    const auto& sys = c.sys;
    const int n = sys.topo.natoms();
    const auto un = static_cast<std::size_t>(n);
    NeighborList full(c.cutoff, c.skin);
    full.build(sys.topo, sys.box, sys.positions);

    constexpr int kParts = 3;
    std::vector<std::vector<int>> rows(un);
    util::Rng rng(5);
    for (int part = 0; part < kParts; ++part) {
      // Rows split by slabs along x; candidates are the slab's atoms plus
      // every atom within the list range of one, in shuffled order.
      std::vector<std::uint8_t> mask(un, 0);
      for (std::size_t i = 0; i < un; ++i) {
        mask[i] = static_cast<int>(sys.box.wrap(sys.positions[i]).x /
                                   sys.box.lx() * kParts) == part;
      }
      const double range2 = (c.cutoff + c.skin) * (c.cutoff + c.skin);
      std::vector<int> candidates;
      for (std::size_t j = 0; j < un; ++j) {
        bool near = mask[j] != 0;
        for (std::size_t i = 0; i < un && !near; ++i) {
          near = mask[i] && util::norm2(sys.box.min_image(
                                sys.positions[i] - sys.positions[j])) <
                                range2;
        }
        if (near) candidates.push_back(static_cast<int>(j));
      }
      for (std::size_t k = candidates.size(); k > 1; --k) {
        std::swap(candidates[k - 1], candidates[rng.uniform_index(k)]);
      }
      NeighborList sub(c.cutoff, c.skin);
      sub.build_subset(sys.topo, sys.box, sys.positions, candidates, mask);
      ASSERT_EQ(sub.offsets().size(), un + 1);
      for (std::size_t i = 0; i < un; ++i) {
        if (mask[i]) {
          rows[i] = row_of(sub, i);
        } else {
          EXPECT_TRUE(row_of(sub, i).empty()) << "row " << i;
        }
      }
    }
    std::vector<std::size_t> offsets{0};
    std::vector<int> neighbors;
    for (const std::vector<int>& row : rows) {
      neighbors.insert(neighbors.end(), row.begin(), row.end());
      offsets.push_back(neighbors.size());
    }
    EXPECT_EQ(offsets, full.offsets()) << sys.name;
    EXPECT_EQ(neighbors, full.neighbors()) << sys.name;
  }
}

TEST(NeighborListTest, RebuildTrigger) {
  auto sys = sysbuild::build_water_box(4);
  NeighborList nbl(4.0, 2.0);
  nbl.build(sys.topo, sys.box, sys.positions);
  EXPECT_FALSE(nbl.needs_rebuild(sys.box, sys.positions));
  auto moved = sys.positions;
  moved[0].x += 0.9;  // below skin/2
  EXPECT_FALSE(nbl.needs_rebuild(sys.box, moved));
  moved[0].x += 0.2;  // beyond skin/2
  EXPECT_TRUE(nbl.needs_rebuild(sys.box, moved));
}

TEST(SharedNeighborListTest, FirstRankBuildsTheRestBorrow) {
  auto sys = sysbuild::build_water_box(4);
  SharedNeighborList shared(4.0, 2.0);
  NeighborList a(4.0, 2.0);
  NeighborList b(4.0, 2.0);
  shared.build(a, sys.topo, sys.box, sys.positions, 0, 0);
  shared.build(b, sys.topo, sys.box, sys.positions, 1, 0);
  // b borrowed a's arrays rather than building its own copy.
  EXPECT_EQ(&a.neighbors(), &b.neighbors());
  EXPECT_EQ(csr_digest(a), csr_digest(b));

  // The next rebuild step builds a fresh list and leaves the borrowed
  // step-0 arrays intact for ranks that have not rebuilt yet.
  const std::uint64_t step0 = csr_digest(b);
  auto moved = sys.positions;
  moved[0].x += 1.5;
  shared.build(a, sys.topo, sys.box, moved, 0, 5);
  EXPECT_NE(&a.neighbors(), &b.neighbors());
  EXPECT_EQ(csr_digest(b), step0);
  NeighborList fresh(4.0, 2.0);
  fresh.build(sys.topo, sys.box, moved);
  EXPECT_EQ(csr_digest(a), csr_digest(fresh));
}

TEST(SharedNeighborListTest, DivergedPositionsFailNamingRankAndStep) {
  auto sys = sysbuild::build_water_box(4);
  SharedNeighborList shared(4.0, 2.0);
  NeighborList a(4.0, 2.0);
  NeighborList b(4.0, 2.0);
  shared.build(a, sys.topo, sys.box, sys.positions, 0, 5);
  auto diverged = sys.positions;
  diverged[7].y = std::nextafter(diverged[7].y, 1e9);
  try {
    shared.build(b, sys.topo, sys.box, diverged, 3, 5);
    FAIL() << "diverged replicated positions were accepted";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 3"), std::string::npos) << what;
    EXPECT_NE(what.find("step 5"), std::string::npos) << what;
  }
}

// --- non-bonded kernels -------------------------------------------------------

TEST(NonbondedTest, ListedMatchesReference) {
  auto sys = sysbuild::build_water_box(4);
  NonbondedOptions opts;
  opts.cutoff = 5.0;
  opts.switch_on = 4.0;
  NeighborList nbl(opts.cutoff, 1.0);
  nbl.build(sys.topo, sys.box, sys.positions);

  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> f1(n), f2(n);
  EnergyTerms e1, e2;
  nonbonded_energy(sys.topo, sys.box, sys.positions, nbl, opts, f1, e1);
  oracle::nonbonded_energy_reference(sys.topo, sys.box, sys.positions, opts,
                                     f2, e2);
  EXPECT_NEAR(e1.lj, e2.lj, 1e-9);
  EXPECT_NEAR(e1.elec, e2.elec, 1e-9);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(util::norm(f1[i] - f2[i]), 0.0, 1e-9);
  }
}

class ElecMethodTest
    : public ::testing::TestWithParam<NonbondedOptions::Elec> {};

TEST_P(ElecMethodTest, ForcesMatchNumericalGradient) {
  auto sys = sysbuild::build_water_box(2);
  NonbondedOptions opts;
  opts.cutoff = 3.0;
  opts.switch_on = 2.2;
  opts.elec = GetParam();
  opts.beta = 0.4;
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<Vec3> f(n);
  EnergyTerms e;
  oracle::nonbonded_energy_reference(sys.topo, sys.box, sys.positions, opts,
                                     f, e);
  const double h = 1e-6;
  for (int i = 0; i < sys.topo.natoms(); i += 3) {
    for (int d = 0; d < 3; ++d) {
      auto plus = sys.positions;
      auto minus = sys.positions;
      plus[static_cast<std::size_t>(i)][d] += h;
      minus[static_cast<std::size_t>(i)][d] -= h;
      std::vector<Vec3> tmp(n);
      EnergyTerms ep, em;
      oracle::nonbonded_energy_reference(sys.topo, sys.box, plus, opts, tmp,
                                         ep);
      oracle::nonbonded_energy_reference(sys.topo, sys.box, minus, opts, tmp,
                                         em);
      const double numeric =
          -((ep.lj + ep.elec) - (em.lj + em.elec)) / (2.0 * h);
      EXPECT_NEAR(f[static_cast<std::size_t>(i)][d], numeric, 5e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, ElecMethodTest,
                         ::testing::Values(NonbondedOptions::Elec::kShift,
                                           NonbondedOptions::Elec::kEwaldDirect));

TEST(NonbondedTest, ShiftElectrostaticsVanishAtCutoff) {
  Topology topo(2);
  topo.atom(0) = AtomParams{1.0, 1.0, 0.0, 1.0};
  topo.atom(1) = AtomParams{1.0, -1.0, 0.0, 1.0};
  topo.build_exclusions();
  Box box(60, 60, 60);
  NonbondedOptions opts;
  opts.cutoff = 10.0;
  std::vector<Vec3> f(2);

  // Just inside the cutoff: energy is ~0 (continuous to zero).
  std::vector<Vec3> pos{{0, 0, 0}, {9.999, 0, 0}};
  EnergyTerms e;
  oracle::nonbonded_energy_reference(topo, box, pos, opts, f, e);
  EXPECT_NEAR(e.elec, 0.0, 1e-5);
  // Well inside: attractive and close to plain Coulomb modified by shift.
  pos[1].x = 2.0;
  EnergyTerms e2;
  oracle::nonbonded_energy_reference(topo, box, pos, opts, f, e2);
  const double shift = std::pow(1.0 - 4.0 / 100.0, 2);
  EXPECT_NEAR(e2.elec, -units::kCoulomb / 2.0 * shift, 1e-9);
}

TEST(NonbondedTest, SwitchingFunctionContinuity) {
  Topology topo(2);
  topo.atom(0) = AtomParams{1.0, 0.0, 0.2, 1.9};
  topo.atom(1) = AtomParams{1.0, 0.0, 0.2, 1.9};
  topo.build_exclusions();
  Box box(60, 60, 60);
  NonbondedOptions opts;
  opts.cutoff = 10.0;
  opts.switch_on = 8.0;
  auto energy_at = [&](double r) {
    std::vector<Vec3> f(2);
    std::vector<Vec3> pos{{0, 0, 0}, {r, 0, 0}};
    EnergyTerms e;
    oracle::nonbonded_energy_reference(topo, box, pos, opts, f, e);
    return e.lj;
  };
  // Continuous at the switch-on radius and zero at the cutoff.
  EXPECT_NEAR(energy_at(7.9999), energy_at(8.0001), 1e-6);
  EXPECT_NEAR(energy_at(9.9999), 0.0, 1e-8);
  // LJ minimum at rmin: E = -eps.
  EXPECT_NEAR(energy_at(3.8), -0.2, 1e-10);
}

TEST(NonbondedTest, ShardsPartitionPairs) {
  auto sys = sysbuild::build_water_box(4);
  NonbondedOptions opts;
  opts.cutoff = 5.0;
  opts.switch_on = 4.0;
  NeighborList nbl(opts.cutoff, 1.0);
  nbl.build(sys.topo, sys.box, sys.positions);
  const auto n = static_cast<std::size_t>(sys.topo.natoms());

  std::vector<Vec3> full(n);
  EnergyTerms efull;
  const NonbondedWork wfull =
      nonbonded_energy(sys.topo, sys.box, sys.positions, nbl, opts, full,
                       efull);
  const auto masks = three_owned_masks(n);
  auto parts = term_partitions(5, masks);
  // The force decomposition's pair matrix: three contiguous atom blocks,
  // pair (i, j) owned by (block[i] + block[j]) % 3.
  std::vector<int> block(n);
  for (std::size_t i = 0; i < n; ++i) block[i] = static_cast<int>(i * 3 / n);
  parts.emplace_back();
  for (int owner = 0; owner < 3; ++owner) {
    parts.back().push_back(WorkSlice::pair_blocks(block, owner, 3));
  }
  for (const auto& slices : parts) {
    std::vector<Vec3> acc(n);
    EnergyTerms eacc;
    std::size_t pairs = 0;
    std::size_t in_cutoff = 0;
    for (const WorkSlice& slice : slices) {
      const NonbondedWork w = nonbonded_energy(
          sys.topo, sys.box, sys.positions, nbl, opts, acc, eacc, slice);
      pairs += w.pairs_listed;
      in_cutoff += w.pairs_in_cutoff;
    }
    EXPECT_EQ(pairs, wfull.pairs_listed);
    EXPECT_EQ(in_cutoff, wfull.pairs_in_cutoff);
    EXPECT_NEAR(eacc.lj, efull.lj, 1e-9);
    EXPECT_NEAR(eacc.elec, efull.elec, 1e-9);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(util::norm(acc[i] - full[i]), 0.0, 1e-9);
    }
  }
}

// --- integrator ----------------------------------------------------------------

TEST(IntegratorTest, HarmonicOscillatorPeriod) {
  // Single particle on a spring to a fixed point via a bond to a huge mass.
  Topology topo(2);
  topo.atom(0) = AtomParams{1.0, 0, 0, 0};
  topo.atom(1) = AtomParams{1e12, 0, 0, 0};
  Bond b;
  b.i = 0;
  b.j = 1;
  b.kb = 10.0;  // E = k (r - r0)^2 -> omega = sqrt(2k/m)
  b.b0 = 2.0;
  topo.bonds().push_back(b);
  Box box(100, 100, 100);
  std::vector<Vec3> pos{{52.5, 50, 50}, {50, 50, 50}};
  std::vector<Vec3> vel{{0, 0, 0}, {0, 0, 0}};
  std::vector<Vec3> f(2);

  const double omega = std::sqrt(2.0 * 10.0 * units::kForceToAccel / 1.0);
  const double period = 2.0 * kPi / omega;
  const double dt = period / 2000.0;
  VelocityVerlet vv(dt);

  auto eval = [&] {
    std::fill(f.begin(), f.end(), Vec3{});
    EnergyTerms e;
    bonded_energy(topo, box, pos, f, e);
  };
  eval();
  for (int s = 0; s < 2000; ++s) {
    vv.begin_step(topo, f, pos, vel);
    eval();
    vv.end_step(topo, f, vel);
  }
  // After one period the oscillator returns to its start.
  EXPECT_NEAR(pos[0].x, 52.5, 1e-3);
  EXPECT_NEAR(vel[0].x, 0.0, 0.05);
}

TEST(IntegratorTest, KineticEnergyAndTemperature) {
  Topology topo(2);
  topo.atom(0) = AtomParams{2.0, 0, 0, 0};
  topo.atom(1) = AtomParams{3.0, 0, 0, 0};
  std::vector<Vec3> vel{{1, 0, 0}, {0, 2, 0}};
  const double ke = kinetic_energy(topo, vel);
  EXPECT_NEAR(ke, 0.5 * (2.0 + 12.0) / units::kForceToAccel, 1e-12);
  EXPECT_GT(temperature(topo, vel), 0.0);
}

TEST(IntegratorTest, AssignVelocitiesHitsTemperature) {
  auto sys = sysbuild::build_water_box(4);
  std::vector<Vec3> vel;
  assign_velocities(sys.topo, 300.0, 99, vel);
  EXPECT_NEAR(temperature(sys.topo, vel), 300.0, 15.0);
  // No net momentum.
  Vec3 momentum;
  for (int i = 0; i < sys.topo.natoms(); ++i) {
    momentum += vel[static_cast<std::size_t>(i)] * sys.topo.atom(i).mass;
  }
  EXPECT_NEAR(util::norm(momentum), 0.0, 1e-9);
}

TEST(MinimizeTest, QuadraticBowlConverges) {
  MinimizeOptions opts;
  opts.max_steps = 500;
  opts.force_tolerance = 1e-3;
  std::vector<Vec3> pos{{5, -3, 2}};
  auto eval = [](const std::vector<Vec3>& p, std::vector<Vec3>& f) {
    f[0] = -2.0 * p[0];
    return util::norm2(p[0]);
  };
  const MinimizeResult res = minimize(opts, eval, pos);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.final_energy, 1e-4);
  EXPECT_LT(res.final_energy, res.initial_energy);
}

// max_force describes the structure minimize() returns, whichever way it
// stops.
TEST(MinimizeTest, MaxForceDescribesReturnedStructure) {
  auto eval = [](const std::vector<Vec3>& p, std::vector<Vec3>& f) {
    f[0] = -2.0 * p[0];
    return util::norm2(p[0]);
  };
  auto max_component = [](const Vec3& f) {
    return std::max({std::abs(f.x), std::abs(f.y), std::abs(f.z)});
  };
  MinimizeOptions opts;
  opts.force_tolerance = 1e-3;
  // Zero steps: the returned structure is the input.
  opts.max_steps = 0;
  std::vector<Vec3> pos{{5, -3, 2}};
  MinimizeResult res = minimize(opts, eval, pos);
  EXPECT_EQ(res.steps, 0);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.max_force, 10.0);
  // Stopped at max_steps after accepted steps: the force at the final
  // position, not at the one before the last step.
  opts.max_steps = 3;
  res = minimize(opts, eval, pos);
  EXPECT_EQ(res.steps, 3);
  EXPECT_FALSE(res.converged);
  EXPECT_LT(res.final_energy, res.initial_energy);
  EXPECT_EQ(res.max_force, max_component(-2.0 * pos[0]));
  EXPECT_LT(res.max_force, 10.0);
}

TEST(MinimizeTest, NeverIncreasesEnergy) {
  auto sys = sysbuild::build_test_chain(16, 3);
  // Perturb to create strain.
  util::Rng rng(4);
  for (auto& r : sys.positions) {
    r += Vec3{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
              rng.uniform(-0.3, 0.3)};
  }
  auto eval = [&](const std::vector<Vec3>& p, std::vector<Vec3>& f) {
    EnergyTerms e;
    std::fill(f.begin(), f.end(), Vec3{});
    bonded_energy(sys.topo, sys.box, p, f, e);
    return e.bonded();
  };
  MinimizeOptions opts;
  opts.max_steps = 100;
  auto pos = sys.positions;
  const MinimizeResult res = minimize(opts, eval, pos);
  EXPECT_LE(res.final_energy, res.initial_energy);
}

TEST(ReversibilityTest, VelocityVerletRunsBackward) {
  // Velocity Verlet is time-reversible: integrate forward, negate the
  // velocities, integrate the same number of steps, and the system returns
  // to its starting point (up to floating-point roundoff). This exercises
  // integrator + kernels + neighbor-list determinism at once.
  static const sysbuild::BuiltSystem water = sysbuild::build_water_box(3);
  charmm::SimulationConfig config;
  config.pme = pme::PmeParams{12, 12, 12, 4, 0.7};
  config.cutoff = 4.2;
  config.switch_on = 3.5;
  config.dt_ps = 0.0005;
  charmm::Simulation sim(water, config);
  sim.set_velocities_from_temperature(150.0, 13);

  const auto pos0 = sim.positions();
  sim.step(20);
  auto& vel = const_cast<std::vector<Vec3>&>(sim.velocities());
  for (auto& v : vel) v = -v;
  sim.step(20);

  double worst = 0.0;
  for (std::size_t i = 0; i < pos0.size(); ++i) {
    worst = std::max(worst, util::norm(sim.positions()[i] - pos0[i]));
  }
  EXPECT_LT(worst, 1e-7);
}

}  // namespace
}  // namespace repro::md
