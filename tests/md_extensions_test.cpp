// Tests for the MD extensions: SHAKE/RATTLE constraints, thermostats,
// and their integration into the Simulation front-end.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "charmm/simulation.hpp"
#include "md/constraints.hpp"
#include "md/thermostat.hpp"
#include "sysbuild/builder.hpp"
#include "sysbuild/io.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace repro::md {
namespace {

using util::Vec3;

// --- SHAKE -------------------------------------------------------------------

TEST(ShakeTest, HydrogenBondsAreCollected) {
  const auto sys = sysbuild::build_water_box(2);
  const Shake shake = Shake::hydrogen_bonds(sys.topo);
  // Every water contributes two O-H constraints.
  EXPECT_EQ(shake.size(), 2u * 8u);
  EXPECT_EQ(shake.removed_dof(), 16);
}

TEST(ShakeTest, RestoresConstraintAfterDrift) {
  const auto sys = sysbuild::build_water_box(2);
  const Shake shake = Shake::hydrogen_bonds(sys.topo);
  auto ref = sys.positions;
  auto pos = sys.positions;
  // Perturb every atom randomly: constraints now violated.
  util::Rng rng(3);
  for (auto& r : pos) {
    r += Vec3{rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
              rng.uniform(-0.05, 0.05)};
  }
  EXPECT_GT(shake.max_violation(sys.box, pos), 1e-3);
  const int iters =
      shake.apply_positions(sys.topo, sys.box, ref, pos, nullptr, 0.001);
  EXPECT_GT(iters, 0);
  EXPECT_LT(shake.max_violation(sys.box, pos), 1e-7);
}

TEST(ShakeTest, PositionCorrectionConservesMomentum) {
  const auto sys = sysbuild::build_water_box(2);
  const Shake shake = Shake::hydrogen_bonds(sys.topo);
  auto ref = sys.positions;
  auto pos = sys.positions;
  util::Rng rng(9);
  for (auto& r : pos) {
    r += Vec3{rng.uniform(-0.04, 0.04), rng.uniform(-0.04, 0.04),
              rng.uniform(-0.04, 0.04)};
  }
  // Mass-weighted displacement before/after must be unchanged (the SHAKE
  // correction applies equal and opposite impulses).
  Vec3 before;
  for (int i = 0; i < sys.topo.natoms(); ++i) {
    before += (pos[static_cast<std::size_t>(i)] -
               ref[static_cast<std::size_t>(i)]) *
              sys.topo.atom(i).mass;
  }
  shake.apply_positions(sys.topo, sys.box, ref, pos, nullptr, 0.001);
  Vec3 after;
  for (int i = 0; i < sys.topo.natoms(); ++i) {
    after += (pos[static_cast<std::size_t>(i)] -
              ref[static_cast<std::size_t>(i)]) *
             sys.topo.atom(i).mass;
  }
  EXPECT_NEAR(util::norm(after - before), 0.0, 1e-9);
}

TEST(ShakeTest, VelocityStageRemovesRadialComponents) {
  const auto sys = sysbuild::build_water_box(2);
  const Shake shake = Shake::hydrogen_bonds(sys.topo);
  std::vector<Vec3> vel;
  assign_velocities(sys.topo, 300.0, 5, vel);
  shake.apply_velocities(sys.topo, sys.box, sys.positions, vel);
  for (const Constraint& c : shake.constraints()) {
    const Vec3 r = sys.box.min_image(
        sys.positions[static_cast<std::size_t>(c.i)] -
        sys.positions[static_cast<std::size_t>(c.j)]);
    const Vec3 v = vel[static_cast<std::size_t>(c.i)] -
                   vel[static_cast<std::size_t>(c.j)];
    EXPECT_NEAR(util::dot(r, v), 0.0, 1e-6);
  }
}

TEST(ShakeTest, RejectsBadConstraints) {
  EXPECT_THROW(Shake({Constraint{1, 1, 1.0}}), util::Error);
  EXPECT_THROW(Shake({Constraint{0, 1, -1.0}}), util::Error);
}

TEST(ShakeTest, EnablesLargerTimeStepsInSimulation) {
  static const sysbuild::BuiltSystem water = sysbuild::build_water_box(3);
  charmm::SimulationConfig config;
  config.pme = pme::PmeParams{12, 12, 12, 4, 0.7};
  config.cutoff = 4.2;
  config.switch_on = 3.5;
  config.dt_ps = 0.002;  // 2 fs: stable only because X-H bonds are rigid
  config.shake_hydrogens = true;
  charmm::Simulation sim(water, config);
  sim.set_velocities_from_temperature(300.0, 21);
  // The first velocity projection removes the constrained degrees of
  // freedom's kinetic energy (a one-time change); conservation is measured
  // once the constrained dynamics is underway.
  sim.step(2);
  const double e0 = sim.total_energy();
  sim.step(25);
  const double e1 = sim.total_energy();
  EXPECT_LT(std::abs(e1 - e0) / std::abs(e0), 0.03);
  // Constraints hold along the whole trajectory.
  EXPECT_LT(sim.shake()->max_violation(water.box, sim.positions()), 1e-6);
  // Degrees of freedom reflect the constraints.
  EXPECT_EQ(sim.degrees_of_freedom(),
            3 * water.topo.natoms() - sim.shake()->removed_dof());
}

TEST(ShakeTest, RigidWatersAddHHConstraints) {
  const auto sys = sysbuild::build_water_box(2);
  const Shake shake = Shake::rigid_waters(sys.topo);
  // 8 waters: two O-H plus one H-H constraint each.
  EXPECT_EQ(shake.size(), 3u * 8u);
  // The built geometry already satisfies every constraint (H-H length is
  // derived from the same angle the builder used).
  EXPECT_LT(shake.max_violation(sys.box, sys.positions), 1e-9);
}

TEST(ShakeTest, RigidWatersConserveAtTwoFemtoseconds) {
  static const sysbuild::BuiltSystem water = sysbuild::build_water_box(3);
  charmm::SimulationConfig config;
  config.pme = pme::PmeParams{12, 12, 12, 4, 0.7};
  config.cutoff = 4.2;
  config.switch_on = 3.5;
  config.dt_ps = 0.002;
  config.rigid_waters = true;
  charmm::Simulation sim(water, config);
  md::MinimizeOptions min_opts;
  min_opts.max_steps = 30;
  sim.minimize(min_opts);
  sim.set_velocities_from_temperature(300.0, 21);
  sim.step(4);
  const double e0 = sim.total_energy();
  sim.step(40);
  const double e1 = sim.total_energy();
  EXPECT_LT(std::abs(e1 - e0) / std::abs(e0), 5e-3);
  EXPECT_LT(sim.shake()->max_violation(water.box, sim.positions()), 1e-6);
}

TEST(ShakeTest, RigidWatersSkipNonWaterMolecules) {
  // The test chain has no waters: rigid_waters degenerates to
  // hydrogen_bonds (and the chain has no hydrogens either).
  const auto chain = sysbuild::build_test_chain(10, 4);
  EXPECT_EQ(Shake::rigid_waters(chain.topo).size(), 0u);
}

// --- thermostats --------------------------------------------------------------

TEST(ThermostatTest, BerendsenDrivesTowardTarget) {
  const auto sys = sysbuild::build_water_box(3);
  std::vector<Vec3> vel;
  assign_velocities(sys.topo, 150.0, 2, vel);
  const BerendsenThermostat thermostat(300.0, 0.02);
  const int dof = 3 * sys.topo.natoms();
  for (int i = 0; i < 200; ++i) {
    thermostat.apply(sys.topo, 0.001, dof, vel);
  }
  EXPECT_NEAR(temperature(sys.topo, vel), 300.0, 10.0);
}

TEST(ThermostatTest, BerendsenLeavesTargetAlone) {
  const auto sys = sysbuild::build_water_box(3);
  std::vector<Vec3> vel;
  assign_velocities(sys.topo, 300.0, 2, vel);
  const double t0 = temperature(sys.topo, vel);
  const BerendsenThermostat thermostat(t0, 0.1);
  const double lambda =
      thermostat.apply(sys.topo, 0.001, 3 * sys.topo.natoms(), vel);
  EXPECT_NEAR(lambda, 1.0, 1e-6);
}

TEST(ThermostatTest, LangevinEquilibratesFromCold) {
  const auto sys = sysbuild::build_water_box(3);
  std::vector<Vec3> vel(static_cast<std::size_t>(sys.topo.natoms()));
  LangevinThermostat thermostat(300.0, 50.0, 7);
  util::RunningStats temps;
  for (int i = 0; i < 600; ++i) {
    thermostat.apply(sys.topo, 0.001, vel);
    if (i > 200) temps.add(temperature(sys.topo, vel));
  }
  EXPECT_NEAR(temps.mean(), 300.0, 20.0);
}

TEST(ThermostatTest, LangevinIsDeterministicPerSeed) {
  const auto sys = sysbuild::build_water_box(2);
  auto run = [&](std::uint64_t seed) {
    std::vector<Vec3> vel(static_cast<std::size_t>(sys.topo.natoms()));
    LangevinThermostat thermostat(300.0, 10.0, seed);
    for (int i = 0; i < 10; ++i) thermostat.apply(sys.topo, 0.001, vel);
    return vel;
  };
  EXPECT_EQ(run(4), run(4));
  EXPECT_NE(run(4), run(5));
}

TEST(ThermostatTest, SimulationIntegrationHeatsSystem) {
  static const sysbuild::BuiltSystem water = sysbuild::build_water_box(3);
  charmm::SimulationConfig config;
  config.pme = pme::PmeParams{12, 12, 12, 4, 0.7};
  config.cutoff = 4.2;
  config.switch_on = 3.5;
  config.thermostat = charmm::SimulationConfig::Thermostat::kBerendsen;
  config.thermostat_target_k = 250.0;
  config.berendsen_tau_ps = 0.01;
  charmm::Simulation sim(water, config);
  // Relax first so potential-energy release does not swamp the kinetic
  // temperature during the measurement window.
  md::MinimizeOptions min_opts;
  min_opts.max_steps = 40;
  sim.minimize(min_opts);
  sim.set_velocities_from_temperature(50.0, 3);
  sim.step(200);
  EXPECT_NEAR(sim.current_temperature(), 250.0, 60.0);
}

}  // namespace
}  // namespace repro::md

// --- system text I/O -------------------------------------------------------------

namespace repro::sysbuild {
namespace {

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
