#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "charmm/simulation.hpp"
#include "md/neighbor.hpp"
#include "sysbuild/builder.hpp"
#include "sysbuild/io.hpp"
#include "util/error.hpp"

namespace repro::sysbuild {
namespace {

using util::Vec3;

// The full system is expensive to build; share one instance.
const BuiltSystem& myoglobin() {
  static const BuiltSystem sys = build_myoglobin_like();
  return sys;
}

TEST(MyoglobinTest, PaperCompositionExact) {
  const auto& sys = myoglobin();
  EXPECT_EQ(sys.topo.natoms(), kTotalAtoms);
  EXPECT_EQ(sys.topo.natoms(), 3552);
  EXPECT_EQ(static_cast<int>(sys.positions.size()), 3552);
  // Box matches the PME grid of the paper (80 x 36 x 48 at ~1 Å).
  EXPECT_DOUBLE_EQ(sys.box.lx(), 80.0);
  EXPECT_DOUBLE_EQ(sys.box.ly(), 36.0);
  EXPECT_DOUBLE_EQ(sys.box.lz(), 48.0);
  // The paper's 337 waters: oxygens bonded to exactly two hydrogens.
  std::vector<int> degree(3552, 0), hydrogens(3552, 0);
  for (const md::Bond& b : sys.topo.bonds()) {
    const auto i = static_cast<std::size_t>(b.i);
    const auto j = static_cast<std::size_t>(b.j);
    ++degree[i];
    ++degree[j];
    if (sys.topo.atom(b.j).mass < 2.0) ++hydrogens[i];
    if (sys.topo.atom(b.i).mass < 2.0) ++hydrogens[j];
  }
  int waters = 0;
  for (int i = 0; i < sys.topo.natoms(); ++i) {
    const auto s = static_cast<std::size_t>(i);
    const double m = sys.topo.atom(i).mass;
    if (m > 10.0 && m < 20.0 && degree[s] == 2 && hydrogens[s] == 2) ++waters;
  }
  EXPECT_EQ(waters, kWaterCount);
  EXPECT_EQ(waters, 337);
}

TEST(MyoglobinTest, ChargeNeutral) {
  EXPECT_NEAR(myoglobin().topo.total_charge(), 0.0, 1e-9);
}

TEST(MyoglobinTest, RealisticTermCounts) {
  const auto& topo = myoglobin().topo;
  // All-atom protein + waters: counts in the range of real CHARMM systems.
  EXPECT_GT(topo.bonds().size(), 3000u);
  EXPECT_LT(topo.bonds().size(), 4200u);
  EXPECT_GT(topo.angles().size(), 3500u);
  EXPECT_GT(topo.dihedrals().size(), 4000u);
  EXPECT_EQ(topo.impropers().size(), 152u);  // one per peptide carbonyl
}

TEST(MyoglobinTest, RoughlyHalfHydrogens) {
  const auto& topo = myoglobin().topo;
  int hydrogens = 0;
  for (int i = 0; i < topo.natoms(); ++i) {
    if (topo.atom(i).mass < 2.0) ++hydrogens;
  }
  const double frac = static_cast<double>(hydrogens) / topo.natoms();
  EXPECT_GT(frac, 0.30);
  EXPECT_LT(frac, 0.60);
}

TEST(MyoglobinTest, NoCatastrophicContacts) {
  const auto& sys = myoglobin();
  double worst = 1e30;
  // Cell-assisted scan via the neighbor list with a small cutoff.
  md::NeighborList nbl(3.0, 0.0);
  nbl.build(sys.topo, sys.box, sys.positions);
  for (int i = 0; i < sys.topo.natoms(); ++i) {
    for (std::size_t t = nbl.offsets()[static_cast<std::size_t>(i)];
         t < nbl.offsets()[static_cast<std::size_t>(i) + 1]; ++t) {
      const int j = nbl.neighbors()[t];
      worst = std::min(
          worst, util::norm(sys.box.min_image(
                     sys.positions[static_cast<std::size_t>(i)] -
                     sys.positions[static_cast<std::size_t>(j)])));
    }
  }
  // Non-bonded pairs must never be inside the hard floor where the r^-12
  // wall dominates the total energy.
  EXPECT_GT(worst, 0.7);
}

TEST(MyoglobinTest, BondsAtEquilibrium) {
  // Self-consistent parameterization: b0 equals the built length.
  const auto& sys = myoglobin();
  for (const auto& b : sys.topo.bonds()) {
    const double r = util::norm(sys.box.min_image(
        sys.positions[static_cast<std::size_t>(b.i)] -
        sys.positions[static_cast<std::size_t>(b.j)]));
    EXPECT_NEAR(r, b.b0, 1e-9);
  }
}

TEST(MyoglobinTest, DeterministicForSeed) {
  const auto a = build_myoglobin_like(123);
  const auto b = build_myoglobin_like(123);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i], b.positions[i]);
  }
  const auto c = build_myoglobin_like(124);
  bool any_differ = false;
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    if (!(a.positions[i] == c.positions[i])) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(MyoglobinTest, AtomsInsideBox) {
  const auto& sys = myoglobin();
  for (const auto& r : sys.positions) {
    EXPECT_GE(r.x, 0.0);
    EXPECT_LT(r.x, sys.box.lx());
    EXPECT_GE(r.y, 0.0);
    EXPECT_LT(r.y, sys.box.ly());
    EXPECT_GE(r.z, 0.0);
    EXPECT_LT(r.z, sys.box.lz());
  }
}

TEST(WaterBoxTest, CompositionAndDensity) {
  const auto sys = build_water_box(4);
  EXPECT_EQ(sys.topo.natoms(), 4 * 4 * 4 * 3);
  EXPECT_EQ(sys.topo.bonds().size(), 2u * 64u);
  EXPECT_EQ(sys.topo.angles().size(), 64u);
  // ~1 g/cm^3: 64 waters * 18 amu in the box volume.
  const double density_amu_per_a3 =
      sys.topo.total_mass() / sys.box.volume();
  EXPECT_NEAR(density_amu_per_a3, 0.60, 0.05);  // 1 g/cm^3 = 0.602 amu/Å^3
  EXPECT_NEAR(sys.topo.total_charge(), 0.0, 1e-9);
}

TEST(WaterBoxTest, GeometryIsTip3pLike) {
  const auto sys = build_water_box(2);
  for (const auto& b : sys.topo.bonds()) {
    EXPECT_NEAR(b.b0, 0.9572, 1e-6);
  }
  for (const auto& a : sys.topo.angles()) {
    EXPECT_NEAR(a.theta0, 104.52 * std::numbers::pi / 180.0, 1e-6);
  }
}

TEST(RandomChargesTest, NeutralAndInBox) {
  const md::Box box(9, 11, 13);
  const auto sys = build_random_charges(24, box, 5);
  EXPECT_EQ(sys.topo.natoms(), 24);
  EXPECT_NEAR(sys.topo.total_charge(), 0.0, 1e-12);
  EXPECT_TRUE(sys.topo.bonds().empty());
  for (const auto& r : sys.positions) {
    EXPECT_GE(r.x, 0.0);
    EXPECT_LT(r.x, 9.0);
  }
  EXPECT_THROW(build_random_charges(7, box, 1), util::Error);
}

TEST(TestChainTest, HasAllBondedTermTypes) {
  const auto sys = build_test_chain(10, 2);
  EXPECT_EQ(sys.topo.natoms(), 10);
  EXPECT_EQ(sys.topo.bonds().size(), 9u);
  EXPECT_EQ(sys.topo.angles().size(), 8u);
  EXPECT_EQ(sys.topo.dihedrals().size(), 7u);
  EXPECT_EQ(sys.topo.impropers().size(), 1u);
}

TEST(PdbExportTest, WellFormedRecords) {
  const auto sys = build_water_box(2);
  std::stringstream out;
  write_pdb(out, sys);
  const std::string pdb = out.str();
  EXPECT_EQ(pdb.rfind("CRYST1", 0), 0u);  // starts with the cell
  std::size_t atom_lines = 0;
  std::size_t conect_lines = 0;
  std::istringstream lines(pdb);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("ATOM", 0) == 0) {
      ++atom_lines;
      EXPECT_GE(line.size(), 54u);  // through the z coordinate
    }
    if (line.rfind("CONECT", 0) == 0) ++conect_lines;
  }
  EXPECT_EQ(atom_lines, 24u);
  EXPECT_EQ(conect_lines, sys.topo.bonds().size());
  EXPECT_NE(pdb.find("END"), std::string::npos);
}

// --- system text I/O ---------------------------------------------------------

TEST(SystemIoTest, RoundTripPreservesEverything) {
  const auto sys = build_test_chain(20, 6);
  std::stringstream buffer;
  write_system(buffer, sys);
  const BuiltSystem back = read_system(buffer);

  ASSERT_EQ(back.topo.natoms(), sys.topo.natoms());
  EXPECT_EQ(back.name, sys.name);
  EXPECT_DOUBLE_EQ(back.box.lx(), sys.box.lx());
  for (int i = 0; i < sys.topo.natoms(); ++i) {
    EXPECT_DOUBLE_EQ(back.topo.atom(i).mass, sys.topo.atom(i).mass);
    EXPECT_DOUBLE_EQ(back.topo.atom(i).charge, sys.topo.atom(i).charge);
    EXPECT_EQ(back.positions[static_cast<std::size_t>(i)],
              sys.positions[static_cast<std::size_t>(i)]);
  }
  ASSERT_EQ(back.topo.bonds().size(), sys.topo.bonds().size());
  for (std::size_t t = 0; t < sys.topo.bonds().size(); ++t) {
    EXPECT_EQ(back.topo.bonds()[t].i, sys.topo.bonds()[t].i);
    EXPECT_DOUBLE_EQ(back.topo.bonds()[t].b0, sys.topo.bonds()[t].b0);
  }
  ASSERT_EQ(back.topo.angles().size(), sys.topo.angles().size());
  ASSERT_EQ(back.topo.dihedrals().size(), sys.topo.dihedrals().size());
  ASSERT_EQ(back.topo.impropers().size(), sys.topo.impropers().size());
  // Exclusions were rebuilt and must agree.
  EXPECT_EQ(back.topo.excluded_pairs(), sys.topo.excluded_pairs());
}

TEST(SystemIoTest, RoundTripEnergyIdentical) {
  auto sys = build_water_box(3);
  std::stringstream buffer;
  write_system(buffer, sys);
  BuiltSystem back = read_system(buffer);

  charmm::SimulationConfig config;
  config.pme = pme::PmeParams{12, 12, 12, 4, 0.7};
  config.cutoff = 4.2;
  config.switch_on = 3.5;
  charmm::Simulation a(sys, config);
  charmm::Simulation b(back, config);
  EXPECT_EQ(a.evaluate().potential(), b.evaluate().potential());
}

TEST(SystemIoTest, FileRoundTrip) {
  const auto sys = build_test_chain(8, 1);
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_sys_test.rsys")
          .string();
  save_system(path, sys);
  const BuiltSystem back = load_system(path);
  EXPECT_EQ(back.topo.natoms(), sys.topo.natoms());
  std::filesystem::remove(path);
}

TEST(SystemIoTest, RejectsGarbage) {
  std::stringstream buffer("RSYS 2 whatever");
  EXPECT_THROW(read_system(buffer), util::Error);
  std::stringstream buffer2("not even close");
  EXPECT_THROW(read_system(buffer2), util::Error);
}

// Hostile input: a valid file with one line replaced (or cut short) must
// fail loudly with util::Error, never allocate by a declared count, loop,
// or hand an out-of-range index to the exclusion builder.
class HostileSystemFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto sys = build_test_chain(8, 1);
    std::stringstream out;
    write_system(out, sys);
    std::string line;
    while (std::getline(out, line)) lines_.push_back(line);
    natoms_ = sys.topo.natoms();
  }

  // Index of the first line starting with `prefix`.
  std::size_t find(const std::string& prefix) const {
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      if (lines_[i].rfind(prefix, 0) == 0) return i;
    }
    ADD_FAILURE() << "no line starts with " << prefix;
    return 0;
  }

  void expect_rejected(std::size_t keep_lines = SIZE_MAX) const {
    std::stringstream in;
    for (std::size_t i = 0; i < lines_.size() && i < keep_lines; ++i) {
      in << lines_[i] << "\n";
    }
    EXPECT_THROW(read_system(in), util::Error);
  }

  std::vector<std::string> lines_;
  int natoms_ = 0;
};

TEST_F(HostileSystemFileTest, ValidFileStillLoads) {
  std::stringstream in;
  for (const auto& l : lines_) in << l << "\n";
  EXPECT_EQ(read_system(in).topo.natoms(), natoms_);
}

TEST_F(HostileSystemFileTest, HugeCountsFailAtTheFirstMissingRecord) {
  lines_[find("bonds ")] = "bonds 1000000000000";
  expect_rejected();
  lines_.clear();
  SetUp();
  lines_[find("atoms ")] = "atoms 2000000000";
  expect_rejected();
}

TEST_F(HostileSystemFileTest, IndexAtOrPastNatomsIsRejected) {
  lines_[find("bonds ") + 1] = "0 " + std::to_string(natoms_) + " 300 1.5";
  expect_rejected();
}

TEST_F(HostileSystemFileTest, NegativeIndexIsRejected) {
  lines_[find("angles ") + 1] = "0 -1 2 50 1.9 0 0";
  expect_rejected();
}

TEST_F(HostileSystemFileTest, NonFiniteCoordinateIsRejected) {
  lines_[find("atoms ") + 1] = "12 0 0.1 1.9 nan 0 0";
  expect_rejected();
  lines_[find("atoms ") + 1] = "12 0 0.1 1.9 1e999 0 0";
  expect_rejected();
}

TEST_F(HostileSystemFileTest, ZeroBoxIsRejected) {
  lines_[find("box ")] = "box 0 10 10";
  expect_rejected();
}

TEST_F(HostileSystemFileTest, TruncatedFileIsRejected) {
  expect_rejected(find("dihedrals ") + 1);
  expect_rejected(find("atoms ") + 3);
}

}  // namespace
}  // namespace repro::sysbuild
