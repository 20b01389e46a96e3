#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <tuple>

#include "charmm/simulation.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "sysbuild/builder.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace repro::charmm {
namespace {

// Shared, relaxed full-size system (expensive: built once per binary).
const sysbuild::BuiltSystem& system_fixture() {
  static const sysbuild::BuiltSystem sys = [] {
    sysbuild::BuiltSystem s = sysbuild::build_myoglobin_like();
    relax_system(s, 60);
    return s;
  }();
  return sys;
}

CharmmConfig short_config() {
  CharmmConfig config;
  config.nsteps = 4;
  return config;
}

core::ExperimentResult run(const core::Platform& platform, int nprocs,
                           const CharmmConfig& config) {
  core::ExperimentSpec spec;
  spec.platform = platform;
  spec.nprocs = nprocs;
  spec.charmm = config;
  return core::run_experiment(system_fixture(), spec);
}

// short_config() runs on the platforms the parallel-correctness checks
// compare, run once as one sweep (so the cells of a physics class share
// one trajectory; see core::SweepRunner) and cached.
const core::ExperimentResult& short_run(const core::Platform& platform,
                                        int nprocs) {
  using Key = std::tuple<net::Network, middleware::Kind, int, int>;
  static const std::map<Key, core::ExperimentResult> cache = [] {
    std::vector<core::ExperimentSpec> specs;
    auto add = [&specs](const core::Platform& pl, int p) {
      core::ExperimentSpec spec;
      spec.platform = pl;
      spec.nprocs = p;
      spec.charmm = short_config();
      specs.push_back(spec);
    };
    for (int p : {1, 2, 4, 8}) add(core::reference_platform(), p);
    for (net::Network n :
         {net::Network::kScoreGigE, net::Network::kMyrinetGM}) {
      add(core::Platform{n, middleware::Kind::kMpi, 1}, 4);
    }
    add(core::Platform{net::Network::kTcpGigE, middleware::Kind::kCmpi, 1},
        4);
    add(core::Platform{net::Network::kTcpGigE, middleware::Kind::kMpi, 2},
        4);
    std::vector<core::ExperimentResult> results =
        core::run_experiments(system_fixture(), specs);
    std::map<Key, core::ExperimentResult> out;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const core::Platform& pl = specs[i].platform;
      out.emplace(Key{pl.network, pl.middleware, pl.cpus_per_node,
                      specs[i].nprocs},
                  std::move(results[i]));
    }
    return out;
  }();
  return cache.at(Key{platform.network, platform.middleware,
                      platform.cpus_per_node, nprocs});
}

TEST(RelaxTest, ProducesReasonableStructure) {
  SimulationConfig config;
  Simulation sim(system_fixture(), config);
  const md::EnergyTerms& e = sim.evaluate();
  EXPECT_TRUE(std::isfinite(e.potential()));
  EXPECT_LT(std::abs(e.potential()), 1.0e5);
  EXPECT_LT(e.lj, 2.0e4);  // no residual clashes
  double fmax = 0.0;
  for (const auto& f : sim.forces()) fmax = std::max(fmax, util::norm(f));
  EXPECT_LT(fmax, 2000.0);
}

TEST(SequentialTest, EnergyComponentsAllPresent) {
  SimulationConfig config;
  Simulation sim(system_fixture(), config);
  const md::EnergyTerms& e = sim.evaluate();
  EXPECT_GT(e.bond, 0.0);
  EXPECT_GT(e.angle, 0.0);
  EXPECT_GT(e.dihedral, 0.0);
  EXPECT_NE(e.ewald_recip, 0.0);
  EXPECT_LT(e.ewald_self, 0.0);
  EXPECT_NE(e.ewald_excl, 0.0);
  EXPECT_GT(sim.pairs_in_list(), 400000u);
}

TEST(SequentialTest, ClassicModeHasNoEwaldTerms) {
  SimulationConfig config;
  config.use_pme = false;
  Simulation sim(system_fixture(), config);
  const md::EnergyTerms& e = sim.evaluate();
  EXPECT_EQ(e.ewald_recip, 0.0);
  EXPECT_EQ(e.ewald_self, 0.0);
  EXPECT_EQ(e.ewald_excl, 0.0);
  EXPECT_NE(e.elec, 0.0);
}

TEST(SequentialTest, NveEnergyConservationOnWaterBox) {
  static const sysbuild::BuiltSystem water = sysbuild::build_water_box(4);
  SimulationConfig config;
  config.use_pme = true;
  // beta*cutoff ~ 3.3 so the truncated erfc tail is ~3e-6 (a smaller beta
  // would make the real-space cutoff discontinuity dominate the drift).
  config.pme = pme::PmeParams{16, 16, 16, 4, 0.6};
  config.cutoff = 5.5;
  config.switch_on = 4.5;
  config.dt_ps = 0.0005;
  Simulation sim(water, config);
  sim.set_velocities_from_temperature(300.0, 7);
  sim.evaluate();
  const double e0 = sim.total_energy();
  sim.step(40);
  const double e1 = sim.total_energy();
  // Velocity Verlet at 0.5 fs on a lattice water box: tight conservation.
  EXPECT_LT(std::abs(e1 - e0) / std::abs(e0), 5e-3);
}

TEST(SequentialTest, MinimizerReducesEnergy) {
  static const sysbuild::BuiltSystem water = sysbuild::build_water_box(3);
  SimulationConfig config;
  config.cutoff = 4.0;
  config.switch_on = 3.2;
  config.pme = pme::PmeParams{12, 12, 12, 4, 0.4};
  Simulation sim(water, config);
  md::MinimizeOptions opts;
  opts.max_steps = 30;
  const md::MinimizeResult res = sim.minimize(opts);
  EXPECT_LE(res.final_energy, res.initial_energy);
}

// Pins Simulation::step bit for bit: the positions, velocities and total
// energy after 20 velocity-Verlet steps (the NVE check above holds step()
// only to a tolerance).
TEST(SequentialTest, StepBitsPinned) {
  static const sysbuild::BuiltSystem water = sysbuild::build_water_box(3);
  SimulationConfig config;
  config.pme = pme::PmeParams{12, 12, 12, 4, 0.7};
  config.cutoff = 4.2;
  config.switch_on = 3.5;
  Simulation sim(water, config);
  sim.set_velocities_from_temperature(300.0, 21);
  sim.step(20);
  const double total = sim.total_energy();
  std::uint64_t h = util::fnv1a_bytes(
      sim.positions().data(), sim.positions().size() * sizeof(util::Vec3));
  h = util::hash_combine(
      h, util::fnv1a_bytes(sim.velocities().data(),
                           sim.velocities().size() * sizeof(util::Vec3)));
  h = util::hash_combine(h, util::fnv1a_bytes(&total, sizeof total));
  EXPECT_EQ(h, 0x6de6d1bda5da5ee4ULL);
}

// --- prepared system ----------------------------------------------------------

std::uint64_t positions_digest(const std::vector<util::Vec3>& pos) {
  return util::fnv1a_bytes(pos.data(), pos.size() * sizeof(util::Vec3));
}

std::uint64_t csr_digest(const md::NeighborList& nbl) {
  return util::hash_combine(
      util::fnv1a_bytes(nbl.offsets().data(),
                        nbl.offsets().size() * sizeof(std::size_t)),
      util::fnv1a_bytes(nbl.neighbors().data(),
                        nbl.neighbors().size() * sizeof(int)));
}

// The bench binaries' system: builder seed 2002 and a 100-step relax
// (relax_system's options), run on a Simulation so the list builds can be
// counted.
struct Relaxed100 {
  sysbuild::BuiltSystem sys = sysbuild::build_myoglobin_like();
  md::MinimizeResult res;
  int list_builds = 0;
};

const Relaxed100& relaxed100() {
  static const Relaxed100 r = [] {
    Relaxed100 out;
    Simulation sim(out.sys, SimulationConfig{});
    out.res = sim.minimize(relax_options(100));
    out.list_builds = sim.list_builds();
    out.sys.positions = sim.positions();
    return out;
  }();
  return r;
}

// The relaxed coordinates of the prepared systems, as `build-system
// --relax 60` and `--relax 100` write them. They pin the minimizer's skin/2
// list-reuse rule under the one pair kernel: the kernel drops listed pairs
// beyond the cutoff before its lanes are packed, so a reused list must give
// the positions of a fresh list bit for bit.
TEST(PreparedSystemTest, RelaxedPositionsPinned) {
  EXPECT_EQ(positions_digest(system_fixture().positions),
            0x69fbd969cf63dd83ULL);  // relax_system(.., 60)
  EXPECT_EQ(positions_digest(relaxed100().sys.positions),
            0x10eef939e9ae5b92ULL);
}

TEST(PreparedSystemTest, RelaxReusesTheNeighborList) {
  const Relaxed100& r = relaxed100();
  EXPECT_EQ(r.res.steps, 100);
  // At least res.steps + 1 evaluations; at most one build per four.
  EXPECT_GE(r.list_builds, 1);
  EXPECT_LE(4 * r.list_builds, r.res.steps + 1);
}

TEST(PreparedSystemTest, NeighborListArraysPinned) {
  const sysbuild::BuiltSystem& sys = relaxed100().sys;
  const SimulationConfig config;
  md::NeighborList nbl(config.cutoff, config.skin);
  nbl.build(sys.topo, sys.box, sys.positions);
  EXPECT_EQ(nbl.npairs(), 583341u);
  EXPECT_EQ(csr_digest(nbl), 0x56799019b8a23320ULL);

  // Shifting atoms by whole box lengths (unwrapped coordinates) leaves
  // every minimum-image distance in range, so the arrays do not change.
  std::vector<util::Vec3> pos = sys.positions;
  const md::Box& b = sys.box;
  pos[0] += util::Vec3{b.lx(), 0, 0};
  pos[17] += util::Vec3{0, -2 * b.ly(), 0};
  pos[1000] += util::Vec3{-b.lx(), b.ly(), 3 * b.lz()};
  pos[2500] += util::Vec3{0, 0, -b.lz()};
  pos[3551] += util::Vec3{2 * b.lx(), -b.ly(), b.lz()};
  md::NeighborList unwrapped(config.cutoff, config.skin);
  unwrapped.build(sys.topo, sys.box, pos);
  EXPECT_EQ(csr_digest(unwrapped), 0x56799019b8a23320ULL);
}

// --- configuration validation ------------------------------------------------

TEST(ValidateConfigTest, AcceptsTheDefaults) {
  EXPECT_NO_THROW(validate_config(CharmmConfig{}));
  EXPECT_NO_THROW(validate_config(SimulationConfig{}));
}

TEST(ValidateConfigTest, RejectsBadCharmmConfigs) {
  // Mirrors net_test's validate_params coverage: one bad field at a time.
  {
    CharmmConfig c;
    c.nsteps = 0;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.dt_ps = 0.0;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.switch_on = c.cutoff;  // switching must start inside the cutoff
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.skin = -1.0;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.list_rebuild_interval = 0;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.temperature_k = -1.0;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.pme.order = 1;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.pme.ny = 2;  // smaller than the spline order: degenerate grid
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.pme.beta = 0.0;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.use_pme = false;
    c.decomp.kind = DecompKind::kTaskPme;  // task decoupling needs PME
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    CharmmConfig c;
    c.decomp.pme_ranks = -1;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    // A degenerate grid is fine when PME is off — nothing consumes it.
    CharmmConfig c;
    c.use_pme = false;
    c.pme.order = 1;
    EXPECT_NO_THROW(validate_config(c));
  }
}

TEST(ValidateConfigTest, RejectsBadSimulationConfigs) {
  {
    SimulationConfig c;
    c.cutoff = -2.0;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    SimulationConfig c;
    c.switch_on = 0.0;
    EXPECT_THROW(validate_config(c), util::Error);
  }
  {
    SimulationConfig c;
    c.skin = 0.0;
    EXPECT_THROW(Simulation(system_fixture(), c), util::Error);
  }
}

TEST(ValidateConfigTest, RunExperimentRejectsBadSpecs) {
  core::ExperimentSpec spec;
  spec.charmm.nsteps = -4;
  EXPECT_THROW(core::run_experiment(system_fixture(), spec),
               util::Error);
  // A task spec whose explicit pme_ranks leaves no classic rank fails
  // before any rank spins up.
  core::ExperimentSpec task;
  task.nprocs = 4;
  task.charmm = short_config();
  task.charmm.decomp.kind = DecompKind::kTaskPme;
  task.charmm.decomp.pme_ranks = 4;
  EXPECT_THROW(core::run_experiment(system_fixture(), task),
               util::Error);
}

// --- parallel correctness across the factor space ---------------------------

TEST(ParallelCorrectnessTest, MatchesSequentialAcrossRankCounts) {
  const auto& ref = short_run(core::reference_platform(), 1);
  ASSERT_TRUE(std::isfinite(ref.energy.potential()));
  for (int p : {2, 4, 8}) {
    const auto& par = short_run(core::reference_platform(), p);
    EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
                std::abs(ref.energy.potential()) * 1e-6 + 1e-4)
        << "p=" << p;
    EXPECT_NEAR(par.position_checksum, ref.position_checksum,
                std::abs(ref.position_checksum) * 1e-9)
        << "p=" << p;
  }
}

// The network and CPUs-per-node factors only time a run, which is what
// lets a sweep replay one trajectory for all of them; sweep_test checks
// every replayed cell against a full run_experiment.
TEST(ParallelCorrectnessTest, NetworkNeverChangesPhysics) {
  core::Platform platform;
  const auto& tcp = short_run(platform, 4);
  platform.network = net::Network::kScoreGigE;
  const auto& score = short_run(platform, 4);
  platform.network = net::Network::kMyrinetGM;
  const auto& myri = short_run(platform, 4);
  // Identical arithmetic, different clocks: results are bit-identical.
  EXPECT_EQ(tcp.energy.potential(), score.energy.potential());
  EXPECT_EQ(tcp.energy.potential(), myri.energy.potential());
  EXPECT_EQ(tcp.position_checksum, myri.position_checksum);
  // But the performance differs.
  EXPECT_GT(tcp.total_seconds(), myri.total_seconds());
}

TEST(ParallelCorrectnessTest, MiddlewareNeverChangesPhysics) {
  core::Platform platform;
  const auto& mpi_run = short_run(platform, 4);
  platform.middleware = middleware::Kind::kCmpi;
  const auto& cmpi_run = short_run(platform, 4);
  // Different reduction orders: equal within floating-point reassociation.
  EXPECT_NEAR(cmpi_run.energy.potential(), mpi_run.energy.potential(),
              std::abs(mpi_run.energy.potential()) * 1e-6 + 1e-4);
}

TEST(ParallelCorrectnessTest, DualProcessorNeverChangesPhysics) {
  core::Platform platform;
  const auto& uni = short_run(platform, 4);
  platform.cpus_per_node = 2;
  const auto& dual = short_run(platform, 4);
  EXPECT_EQ(uni.energy.potential(), dual.energy.potential());
}

TEST(ParallelCorrectnessTest, ClassicOnlyModeRuns) {
  CharmmConfig config = short_config();
  config.use_pme = false;
  const auto seq = run(core::reference_platform(), 1, config);
  const auto par = run(core::reference_platform(), 4, config);
  EXPECT_NEAR(par.energy.potential(), seq.energy.potential(),
              std::abs(seq.energy.potential()) * 1e-6 + 1e-4);
  EXPECT_DOUBLE_EQ(par.breakdown.pme_wall.total(), 0.0);
  EXPECT_GT(par.breakdown.classic_wall.total(), 0.0);
}

TEST(ParallelCorrectnessTest, ListRebuildIntervalNeverChangesPhysics) {
  // Forces are a pure function of positions (the kernel re-checks the
  // cutoff), so the neighbor-list refresh cadence must not perturb the
  // trajectory at all.
  CharmmConfig every_step = short_config();
  every_step.list_rebuild_interval = 1;
  CharmmConfig rarely = short_config();
  rarely.list_rebuild_interval = 4;
  const auto a = run(core::reference_platform(), 2, every_step);
  const auto b = run(core::reference_platform(), 2, rarely);
  EXPECT_EQ(a.energy.potential(), b.energy.potential());
  EXPECT_EQ(a.position_checksum, b.position_checksum);
  // But it does change the modeled cost (list construction time).
  EXPECT_GT(a.breakdown.classic_wall.comp, b.breakdown.classic_wall.comp);
}

TEST(ParallelCorrectnessTest, CoherencyBarriersNeverChangePhysics) {
  CharmmConfig with = short_config();
  CharmmConfig without = short_config();
  without.coherency_barriers = false;
  const auto a = run(core::reference_platform(), 4, with);
  const auto b = run(core::reference_platform(), 4, without);
  EXPECT_EQ(a.energy.potential(), b.energy.potential());
  EXPECT_EQ(a.position_checksum, b.position_checksum);
  // Without barriers the synchronization share collapses.
  EXPECT_LT(b.breakdown.total_wall().sync,
            a.breakdown.total_wall().sync + 1e-12);
}

TEST(ParallelScalingTest, ComputationDividesAcrossRanks) {
  const auto& p1 = short_run(core::reference_platform(), 1);
  const auto& p8 = short_run(core::reference_platform(), 8);
  const double ratio = p1.breakdown.classic_wall.comp /
                       p8.breakdown.classic_wall.comp;
  EXPECT_GT(ratio, 4.0);  // near-perfect division of classic computation
  EXPECT_LT(ratio, 10.0);
  // Sequential run has zero communication and synchronization.
  EXPECT_DOUBLE_EQ(p1.breakdown.classic_wall.overhead(), 0.0);
  EXPECT_DOUBLE_EQ(p1.breakdown.pme_wall.overhead(), 0.0);
}

TEST(ParallelScalingTest, StepSamplesRecorded) {
  const auto& r = short_run(core::reference_platform(), 4);
  EXPECT_GT(r.breakdown.comm_speed.samples, 0u);
  EXPECT_GT(r.pairs_in_list, 400000u);
  EXPECT_GT(r.engine_events, 0u);
}

TEST(ExperimentTest, TimelinesRecordedWhenRequested) {
  core::ExperimentSpec spec;
  spec.nprocs = 2;
  spec.charmm = short_config();
  spec.record_timelines = true;
  const auto r = core::run_experiment(system_fixture(), spec);
  ASSERT_EQ(r.timelines.size(), 2u);
  EXPECT_GT(r.timelines[0].size(), 10u);
  // Events must lie within the run's span and be well-formed.
  for (const auto& e : r.timelines[1].events()) {
    EXPECT_LE(e.begin, e.end);
    EXPECT_GE(e.begin, 0.0);
  }
  const std::string art = perf::render_timelines(r.timelines);
  EXPECT_NE(art.find("rank 1"), std::string::npos);
}

TEST(ExperimentTest, FullFactorialEnumerates12Cells) {
  const auto cells = core::full_factorial();
  EXPECT_EQ(cells.size(), 12u);
  // Spot-check the focal point is among them.
  bool found_ref = false;
  for (const auto& c : cells) {
    if (c.network == net::Network::kTcpGigE &&
        c.middleware == middleware::Kind::kMpi && c.cpus_per_node == 1) {
      found_ref = true;
    }
  }
  EXPECT_TRUE(found_ref);
  EXPECT_FALSE(core::reference_platform().to_string().empty());
}

}  // namespace
}  // namespace repro::charmm
