// Tests for the decomposition-strategy layer: spec parsing, physics
// invariance of every strategy across rank counts and networks, the
// task-decoupling overlap, the spatial domain decomposition (halo
// schedule, migration, idle ranks, topology/grid invariance), and the
// extended analytic predictor (times within tolerance, message/byte
// counts exact against channel counters).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "charmm/app.hpp"
#include "charmm/decomp_spec.hpp"
#include "charmm/simulation.hpp"
#include "charmm/spatial.hpp"
#include "core/experiment.hpp"
#include "core/model.hpp"
#include "core/replay.hpp"
#include "core/sweep.hpp"
#include "md/integrator.hpp"
#include "net/topology.hpp"
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

CharmmConfig short_config(DecompKind kind = DecompKind::kAtomReplicated) {
  CharmmConfig config;
  config.nsteps = 4;
  config.decomp.kind = kind;
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

// The p=1 atom-decomposition reference everything is compared against.
const core::ExperimentResult& reference_run() {
  static const core::ExperimentResult ref =
      run(core::reference_platform(), 1, short_config());
  return ref;
}

// --- spec parsing ----------------------------------------------------------

TEST(DecompSpecTest, ParsesEveryKind) {
  EXPECT_EQ(parse_decomp_spec("").kind, DecompKind::kAtomReplicated);
  EXPECT_EQ(parse_decomp_spec("atom").kind, DecompKind::kAtomReplicated);
  EXPECT_EQ(parse_decomp_spec("replicated").kind,
            DecompKind::kAtomReplicated);
  EXPECT_EQ(parse_decomp_spec("force").kind, DecompKind::kForce);
  EXPECT_EQ(parse_decomp_spec("task").kind, DecompKind::kTaskPme);
  EXPECT_EQ(parse_decomp_spec("task").pme_ranks, 0);
  const DecompSpec explicit_pme = parse_decomp_spec("task:pme=3");
  EXPECT_EQ(explicit_pme.kind, DecompKind::kTaskPme);
  EXPECT_EQ(explicit_pme.pme_ranks, 3);
  EXPECT_EQ(parse_decomp_spec("spatial").kind, DecompKind::kSpatial);
  EXPECT_EQ(parse_decomp_spec("spatial").grid_x, 0);  // auto grid
  const DecompSpec grid = parse_decomp_spec("spatial:grid=6x3x4");
  EXPECT_EQ(grid.kind, DecompKind::kSpatial);
  EXPECT_EQ(grid.grid_x, 6);
  EXPECT_EQ(grid.grid_y, 3);
  EXPECT_EQ(grid.grid_z, 4);
}

TEST(DecompSpecTest, ToStringRoundTrips) {
  for (const char* text :
       {"atom", "force", "task", "task:pme=2", "spatial",
        "spatial:grid=6x3x4", "spatial:pme=pencil",
        "spatial:pme=pencil:grid=4x8",
        "spatial:grid=6x3x4:pme=pencil",
        "spatial:grid=6x3x4:pme=pencil:grid=2x4"}) {
    EXPECT_EQ(to_string(parse_decomp_spec(text)), text);
  }
}

TEST(DecompSpecTest, ParsesPencilPme) {
  const DecompSpec plain = parse_decomp_spec("spatial:pme=pencil");
  EXPECT_EQ(plain.kind, DecompKind::kSpatial);
  EXPECT_EQ(plain.pme_mode, PmeMode::kPencil);
  EXPECT_EQ(plain.pencil_y, 0);  // auto pencil grid
  EXPECT_EQ(plain.pencil_z, 0);

  const DecompSpec grid = parse_decomp_spec("spatial:pme=pencil:grid=4x8");
  EXPECT_EQ(grid.pme_mode, PmeMode::kPencil);
  EXPECT_EQ(grid.pencil_y, 4);
  EXPECT_EQ(grid.pencil_z, 8);

  // A grid= before pme=pencil is the cell grid; after, the pencil grid.
  const DecompSpec both =
      parse_decomp_spec("spatial:grid=6x3x4:pme=pencil:grid=2x4");
  EXPECT_EQ(both.grid_x, 6);
  EXPECT_EQ(both.grid_y, 3);
  EXPECT_EQ(both.grid_z, 4);
  EXPECT_EQ(both.pencil_y, 2);
  EXPECT_EQ(both.pencil_z, 4);

  // Slab is the default and has no spelled form.
  EXPECT_EQ(parse_decomp_spec("spatial").pme_mode, PmeMode::kSlab);
}

TEST(DecompSpecTest, RejectsMalformedPencilSpecs) {
  EXPECT_THROW(parse_decomp_spec("spatial:pme=slab"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencils"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme="), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:pme=pencil"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencilx"), util::Error);
  // Pencil grids are strictly positive Py x Pz — exactly two dimensions.
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:grid=0x4"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:grid=4x0"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:grid=4"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:grid=4x"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:grid=2x2x2"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:grid=2x2:grid=2x2"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:grid=axb"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:pme=pencil:grid=2x2junk"),
               util::Error);
  EXPECT_THROW(
      parse_decomp_spec("spatial:pme=pencil:grid=99999999999999999999x2"),
      util::Error);
  // The pencil option belongs to spatial only.
  EXPECT_THROW(parse_decomp_spec("atom:pme=pencil"), util::Error);
  EXPECT_THROW(parse_decomp_spec("force:pme=pencil"), util::Error);
}

TEST(DecompSpecTest, ResolvesPencilGrid) {
  DecompSpec spec = parse_decomp_spec("spatial:pme=pencil");
  // Auto: the most-square factorization of the rank count.
  EXPECT_EQ(resolved_pencil_grid(spec, 2, 36, 48), (std::pair{1, 2}));
  EXPECT_EQ(resolved_pencil_grid(spec, 4, 36, 48), (std::pair{2, 2}));
  EXPECT_EQ(resolved_pencil_grid(spec, 8, 36, 48), (std::pair{2, 4}));
  EXPECT_EQ(resolved_pencil_grid(spec, 27, 36, 48), (std::pair{3, 9}));
  EXPECT_EQ(resolved_pencil_grid(spec, 100, 36, 48), (std::pair{10, 10}));
  EXPECT_EQ(resolved_pencil_grid(spec, 128, 36, 48), (std::pair{8, 16}));
  EXPECT_EQ(resolved_pencil_grid(spec, 7, 36, 48), (std::pair{1, 7}));

  // Explicit grids may leave ranks outside the FFT but never exceed the
  // rank count or the plane counts.
  spec = parse_decomp_spec("spatial:pme=pencil:grid=3x5");
  EXPECT_EQ(resolved_pencil_grid(spec, 16, 36, 48), (std::pair{3, 5}));
  EXPECT_THROW(resolved_pencil_grid(spec, 14, 36, 48), util::Error);
  EXPECT_THROW(resolved_pencil_grid(spec, 1, 36, 48), util::Error);
  // Pencil counts beyond the FFT plane counts cannot be laid out.
  spec = parse_decomp_spec("spatial:pme=pencil:grid=40x2");
  EXPECT_THROW(resolved_pencil_grid(spec, 128, 36, 48), util::Error);
  spec = parse_decomp_spec("spatial:pme=pencil:grid=2x50");
  EXPECT_THROW(resolved_pencil_grid(spec, 128, 36, 48), util::Error);
}

TEST(DecompSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_decomp_spec("spatia"), util::Error);
  EXPECT_THROW(parse_decomp_spec("task:pme=0"), util::Error);
  EXPECT_THROW(parse_decomp_spec("task:pme=-1"), util::Error);
  EXPECT_THROW(parse_decomp_spec("task:pme=two"), util::Error);
  EXPECT_THROW(parse_decomp_spec("task:pme="), util::Error);
  EXPECT_THROW(parse_decomp_spec("force:pme=2"), util::Error);
  // std::atoi would silently accept every one of these: trailing garbage,
  // overflow past int, and a number with a unit glued on.
  EXPECT_THROW(parse_decomp_spec("task:pme=2x"), util::Error);
  EXPECT_THROW(parse_decomp_spec("task:pme=99999999999999999999"),
               util::Error);
  EXPECT_THROW(parse_decomp_spec("task:pme=2k"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:foo=1"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:grid="), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:grid=4x2"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:grid=4x2x"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:grid=4x2x2x2"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:grid=0x2x2"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:grid=axbxc"), util::Error);
  EXPECT_THROW(parse_decomp_spec("spatial:grid=99999999999999999999x2x2"),
               util::Error);
}

TEST(DecompSpecTest, ResolvesPmeRankCount) {
  DecompSpec spec;
  spec.kind = DecompKind::kTaskPme;
  EXPECT_EQ(resolved_pme_ranks(spec, 2), 1);   // auto: max(1, p/4)
  EXPECT_EQ(resolved_pme_ranks(spec, 8), 2);
  EXPECT_EQ(resolved_pme_ranks(spec, 16), 4);
  spec.pme_ranks = 3;
  EXPECT_EQ(resolved_pme_ranks(spec, 8), 3);
  EXPECT_THROW(resolved_pme_ranks(spec, 3), util::Error);  // no classic rank
  EXPECT_THROW(resolved_pme_ranks(spec, 1), util::Error);
}

// --- physics invariance ----------------------------------------------------

TEST(DecompositionPhysicsTest, SingleProcessIsBitIdenticalAcrossKinds) {
  // At p=1 every strategy degenerates to the same sequential step
  // program, so the results must match to the bit, not just to tolerance.
  const auto& atom = reference_run();
  const auto force = run(core::reference_platform(), 1,
                         short_config(DecompKind::kForce));
  const auto task = run(core::reference_platform(), 1,
                        short_config(DecompKind::kTaskPme));
  const auto spatial = run(core::reference_platform(), 1,
                           short_config(DecompKind::kSpatial));
  EXPECT_EQ(force.energy.potential(), atom.energy.potential());
  EXPECT_EQ(force.position_checksum, atom.position_checksum);
  EXPECT_EQ(task.energy.potential(), atom.energy.potential());
  EXPECT_EQ(task.position_checksum, atom.position_checksum);
  EXPECT_EQ(spatial.energy.potential(), atom.energy.potential());
  EXPECT_EQ(spatial.position_checksum, atom.position_checksum);
  EXPECT_EQ(spatial.pairs_in_list, atom.pairs_in_list);
}

TEST(DecompositionPhysicsTest, EveryDecompositionMatchesSequential) {
  const auto& ref = reference_run();
  ASSERT_TRUE(std::isfinite(ref.energy.potential()));
  for (DecompKind kind :
       {DecompKind::kAtomReplicated, DecompKind::kForce,
        DecompKind::kTaskPme, DecompKind::kSpatial}) {
    for (int p : {2, 3, 5, 8}) {
      const auto par = run(core::reference_platform(), p, short_config(kind));
      EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
                  std::abs(ref.energy.potential()) * 1e-6 + 1e-4)
          << to_string(kind) << " p=" << p;
      EXPECT_NEAR(par.position_checksum, ref.position_checksum,
                  std::abs(ref.position_checksum) * 1e-9)
          << to_string(kind) << " p=" << p;
    }
  }
}

TEST(DecompositionPhysicsTest, ExplicitPmeRanksMatchSequential) {
  const auto& ref = reference_run();
  CharmmConfig config = short_config(DecompKind::kTaskPme);
  config.decomp.pme_ranks = 3;
  const auto par = run(core::reference_platform(), 5, config);
  EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
              std::abs(ref.energy.potential()) * 1e-6 + 1e-4);
  EXPECT_NEAR(par.position_checksum, ref.position_checksum,
              std::abs(ref.position_checksum) * 1e-9);
}

// The network factor only times a run, which is what lets a sweep replay
// one trajectory for every network; sweep_test checks every replayed cell
// against a full run_experiment.
TEST(DecompositionPhysicsTest, NetworkNeverChangesPhysics) {
  // Same arithmetic under different clocks: bit-identical results.
  for (DecompKind kind : {DecompKind::kForce, DecompKind::kTaskPme}) {
    core::ExperimentSpec spec;
    spec.nprocs = 4;
    spec.charmm = short_config(kind);
    core::ExperimentSpec myri_spec = spec;
    myri_spec.platform.network = net::Network::kMyrinetGM;
    const auto results =
        core::run_experiments(system_fixture(), {spec, myri_spec});
    const auto& tcp = results[0];
    const auto& myri = results[1];
    EXPECT_EQ(tcp.energy.potential(), myri.energy.potential())
        << to_string(kind);
    EXPECT_EQ(tcp.position_checksum, myri.position_checksum)
        << to_string(kind);
  }
}

// --- schedule / overlap behavior -------------------------------------------

TEST(DecompositionScheduleTest, TaskDecouplingOverlapsClassicAndPme) {
  // With dedicated PME ranks the two components run concurrently: the
  // run's wall clock must be shorter than the serialized sum the
  // replicated decompositions pay.
  const auto task = run(core::reference_platform(), 8,
                        short_config(DecompKind::kTaskPme));
  EXPECT_GT(task.breakdown.classic_wall.total(), 0.0);
  EXPECT_GT(task.breakdown.pme_wall.total(), 0.0);
  EXPECT_LT(task.metrics.makespan,
            task.breakdown.classic_wall.total() +
                task.breakdown.pme_wall.total());
}

TEST(DecompositionScheduleTest, PhaseAttributionCoversTheSchedule) {
  const auto force = run(core::reference_platform(), 4,
                         short_config(DecompKind::kForce));
  EXPECT_GT(force.metrics.phase_seconds.count("fold"), 0u);
  EXPECT_GT(force.metrics.phase_seconds.count("expand"), 0u);
  EXPECT_GT(force.metrics.phase_seconds.count("nonbonded"), 0u);
  const auto task = run(core::reference_platform(), 8,
                        short_config(DecompKind::kTaskPme));
  EXPECT_GT(task.metrics.phase_seconds.count("pme_recip"), 0u);
  EXPECT_GT(task.metrics.phase_seconds.count("result_bcast"), 0u);
}

// --- spatial domain decomposition ------------------------------------------

TEST(SpatialDecompositionTest, MatchesSequentialAtLargerCounts) {
  // p=27 spreads the 72-cell grid thin (2-3 cells per rank), the hardest
  // halo schedule that still keeps every rank owning atoms or cells.
  const auto& ref = reference_run();
  for (int p : {4, 27}) {
    const auto par = run(core::reference_platform(), p,
                         short_config(DecompKind::kSpatial));
    EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
                std::abs(ref.energy.potential()) * 1e-6 + 1e-4)
        << "spatial p=" << p;
    EXPECT_NEAR(par.position_checksum, ref.position_checksum,
                std::abs(ref.position_checksum) * 1e-9)
        << "spatial p=" << p;
    // Within one epoch (nsteps < list_rebuild_interval) every subset list
    // is built from the same replicated step-0 positions, so the summed
    // local pair counts must partition the replicated list exactly.
    EXPECT_EQ(par.pairs_in_list, ref.pairs_in_list) << "spatial p=" << p;
    EXPECT_EQ(par.atoms_migrated, 0u) << "spatial p=" << p;
  }
}

TEST(SpatialDecompositionTest, TopologyNeverChangesPhysics) {
  // The fabric changes clocks, never arithmetic: bit-identical results
  // across single switch, fat-tree, and torus.
  core::ExperimentSpec spec;
  spec.nprocs = 8;
  spec.charmm = short_config(DecompKind::kSpatial);
  std::vector<core::ExperimentSpec> specs{spec, spec, spec};
  specs[1].topology = net::parse_topology_spec("fattree:radix=4");
  specs[2].topology = net::parse_topology_spec("torus");
  const auto results = core::run_experiments(system_fixture(), specs);
  const auto& single = results[0];
  const auto& fattree = results[1];
  const auto& torus = results[2];
  EXPECT_EQ(fattree.energy.potential(), single.energy.potential());
  EXPECT_EQ(fattree.position_checksum, single.position_checksum);
  EXPECT_EQ(torus.energy.potential(), single.energy.potential());
  EXPECT_EQ(torus.position_checksum, single.position_checksum);
}

TEST(SpatialDecompositionTest, ExplicitGridMatchesSequential) {
  const auto& ref = reference_run();
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.decomp = parse_decomp_spec("spatial:grid=4x3x4");
  const auto par = run(core::reference_platform(), 8, config);
  EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
              std::abs(ref.energy.potential()) * 1e-6 + 1e-4);
  EXPECT_NEAR(par.position_checksum, ref.position_checksum,
              std::abs(ref.position_checksum) * 1e-9);
}

TEST(SpatialDecompositionTest, RejectsGridsFinerThanTheCutoff) {
  // 80 / 7 < cutoff + skin = 12: a pair within range could span two
  // non-adjacent cells, so the layout must refuse to run.
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.decomp = parse_decomp_spec("spatial:grid=7x3x4");
  try {
    run(core::reference_platform(), 8, config);
    FAIL() << "a grid finer than cutoff + skin ran";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spatial grid too fine in x"), std::string::npos)
        << what;
  }
}

TEST(SpatialDecompositionTest, IdleRanksBeyondTheCellCount) {
  // p=100 > 72 cells: 28 ranks own nothing, idle through the classic
  // routine, and still join every collective — results unchanged.
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.nsteps = 2;
  CharmmConfig ref_config = short_config();
  ref_config.nsteps = 2;
  const auto ref = run(core::reference_platform(), 1, ref_config);
  const auto par = run(core::reference_platform(), 100, config);
  EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
              std::abs(ref.energy.potential()) * 1e-6 + 1e-4);
  EXPECT_NEAR(par.position_checksum, ref.position_checksum,
              std::abs(ref.position_checksum) * 1e-9);
}

TEST(SpatialDecompositionTest, MigratesAtomsAcrossARebuild) {
  // Eight steps cross the rebuild at step 5, where atoms that drifted
  // over a cell border change owner; ownership must follow them and the
  // physics must not care. (The fixture is only lightly relaxed, so the
  // default timestep already produces a healthy migration count.)
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.nsteps = 8;
  CharmmConfig ref_config = short_config();
  ref_config.nsteps = 8;
  const auto ref = run(core::reference_platform(), 1, ref_config);
  const auto par = run(core::reference_platform(), 8, config);
  EXPECT_GT(par.atoms_migrated, 0u);
  EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
              std::abs(ref.energy.potential()) * 1e-6 + 1e-4);
  EXPECT_NEAR(par.position_checksum, ref.position_checksum,
              std::abs(ref.position_checksum) * 1e-9);
}

// --- shared run-start state ------------------------------------------------

// A small water box (12.4 Å) cut into 3x3x3 cells of 4 Å (cutoff 3 +
// skin 1) over a 16^3 PME mesh.
CharmmConfig small_box_config(const char* decomp) {
  CharmmConfig config;
  config.cutoff = 3.0;
  config.switch_on = 2.5;
  config.skin = 1.0;
  config.pme = pme::PmeParams{16, 16, 16, 4, 0.4};
  config.decomp = parse_decomp_spec(decomp);
  return config;
}

TEST(SharedRunStateTest, SharesVelocitiesAndBuildsOnlySpatialStarts) {
  const auto sys = sysbuild::build_water_box(4);
  const CharmmConfig config;
  const SharedRunState shared(sys, config, 4);

  // The velocities are the replicated draw every rank used to make.
  std::vector<util::Vec3> vel;
  md::assign_velocities(sys.topo, config.temperature_k, config.seed, vel);
  ASSERT_EQ(shared.velocities().size(), vel.size());
  EXPECT_EQ(std::memcmp(shared.velocities().data(), vel.data(),
                        vel.size() * sizeof(util::Vec3)),
            0);
  EXPECT_NE(shared.nonbonded().table, nullptr);

  // Only a parallel spatial run has a layout to start from.
  for (const char* decomp : {"atom", "force", "task"}) {
    const SharedRunState other(sys, small_box_config(decomp), 4);
    EXPECT_FALSE(other.spatial_start().has_value()) << decomp;
  }
  const CharmmConfig spatial = small_box_config("spatial");
  EXPECT_FALSE(SharedRunState(sys, spatial, 1).spatial_start().has_value());
  EXPECT_TRUE(SharedRunState(sys, spatial, 4).spatial_start().has_value());
}

// The cold start equals the per-function composition of its parts, field
// for field.
TEST(SharedRunStateTest, SpatialStartMatchesThePerFunctionComposition) {
  const auto sys = sysbuild::build_water_box(4);
  constexpr int p = 4;
  for (const char* decomp : {"spatial", "spatial:pme=pencil:ldb=greedy"}) {
    SCOPED_TRACE(decomp);
    const CharmmConfig config = small_box_config(decomp);
    const DecompSpec& spec = config.decomp;
    SpatialLayout layout = make_spatial_layout(
        spec, sys.box, config.cutoff + config.skin, p, &sys.positions);
    std::vector<int> unit_rank;
    if (spec.ldb != LdbPolicy::kOff) {
      const UnitGrid units = make_unit_grid(
          layout, resolved_units(spec, p, layout.ncells()), sys.positions);
      unit_rank = initial_unit_map(units, p);
      layout = layout_from_units(layout, units, unit_rank);
    }
    const SpatialEpoch epoch = make_global_epoch(layout, sys.positions);

    const SharedRunState shared(sys, config, p);
    ASSERT_TRUE(shared.spatial_start().has_value());
    const SpatialStart& start = *shared.spatial_start();
    ASSERT_EQ(start.layout.ncells(), 27);
    EXPECT_EQ(start.layout.cell_rank, layout.cell_rank);
    EXPECT_EQ(start.layout.rank_neighbors, layout.rank_neighbors);
    EXPECT_EQ(start.layout.cell_border_ranks, layout.cell_border_ranks);
    EXPECT_EQ(start.unit_rank, unit_rank);
    EXPECT_EQ(start.units.has_value(), spec.ldb != LdbPolicy::kOff);
    EXPECT_EQ(start.epoch.owned, epoch.owned);
    EXPECT_EQ(start.epoch.send, epoch.send);
    if (spec.pme_mode == PmeMode::kPencil) {
      EXPECT_EQ(start.pencil_grid,
                resolved_pencil_grid(spec, p, config.pme.ny, config.pme.nz));
      EXPECT_EQ(start.pme_regions,
                make_pme_regions(layout, config.pme, config.skin));
    } else {
      EXPECT_TRUE(start.pme_regions.empty());
    }
  }
}

// --- pencil-decomposed PME -------------------------------------------------

TEST(PencilDecompositionTest, SingleProcessIsBitIdenticalToSlab) {
  // p=1 runs the sequential reference program under either PME mode, so
  // pencil must match the slab spatial run (and the atom reference) to
  // the bit.
  const auto& atom = reference_run();
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.decomp = parse_decomp_spec("spatial:pme=pencil");
  const auto pencil = run(core::reference_platform(), 1, config);
  EXPECT_EQ(pencil.energy.potential(), atom.energy.potential());
  EXPECT_EQ(pencil.position_checksum, atom.position_checksum);
  EXPECT_EQ(pencil.pairs_in_list, atom.pairs_in_list);
}

TEST(PencilDecompositionTest, MatchesSequentialAcrossRankCounts) {
  // Auto pencil grids: p=2 -> 1x2, 4 -> 2x2, 8 -> 2x4, 16 -> 4x4. The
  // pencil reciprocal sums partial energies over disjoint wavevector
  // sets and writes owned-atom forces directly, so the trajectory must
  // track the sequential reference at the same tolerance as the other
  // decompositions.
  const auto& ref = reference_run();
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.decomp = parse_decomp_spec("spatial:pme=pencil");
  for (int p : {2, 4, 8, 16}) {
    const auto par = run(core::reference_platform(), p, config);
    EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
                std::abs(ref.energy.potential()) * 1e-6 + 1e-4)
        << "pencil p=" << p;
    EXPECT_NEAR(par.position_checksum, ref.position_checksum,
                std::abs(ref.position_checksum) * 1e-9)
        << "pencil p=" << p;
    EXPECT_EQ(par.pairs_in_list, ref.pairs_in_list) << "pencil p=" << p;
  }
}

TEST(PencilDecompositionTest, NonDivisiblePencilGridMatchesSequential) {
  // 3x5 pencils over the 36x48 grid: both plane partitions are uneven
  // (36/3 even but 48/5 ragged), and one of the 16 ranks sits outside
  // the 15-rank pencil grid entirely.
  const auto& ref = reference_run();
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.decomp = parse_decomp_spec("spatial:pme=pencil:grid=3x5");
  const auto par = run(core::reference_platform(), 16, config);
  EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
              std::abs(ref.energy.potential()) * 1e-6 + 1e-4);
  EXPECT_NEAR(par.position_checksum, ref.position_checksum,
              std::abs(ref.position_checksum) * 1e-9);
}

TEST(PencilDecompositionTest, IdleRanksBeyondTheCellCount) {
  // p=100 > 72 cells: 28 ranks own no cells (empty PME regions, no plane
  // traffic of their own) while the auto 10x10 pencil grid still uses
  // them for FFT stages.
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.decomp = parse_decomp_spec("spatial:pme=pencil");
  config.nsteps = 2;
  CharmmConfig ref_config = short_config();
  ref_config.nsteps = 2;
  const auto ref = run(core::reference_platform(), 1, ref_config);
  const auto par = run(core::reference_platform(), 100, config);
  EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
              std::abs(ref.energy.potential()) * 1e-6 + 1e-4);
  EXPECT_NEAR(par.position_checksum, ref.position_checksum,
              std::abs(ref.position_checksum) * 1e-9);
}

TEST(PencilDecompositionTest, MigratesAtomsAcrossARebuild) {
  // The PME regions are padded by the neighbor-list skin, so an atom
  // drifting within an epoch must never leave its rank's region; eight
  // steps cross the rebuild at step 5 where ownership changes hands.
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.decomp = parse_decomp_spec("spatial:pme=pencil");
  config.nsteps = 8;
  CharmmConfig ref_config = short_config();
  ref_config.nsteps = 8;
  const auto ref = run(core::reference_platform(), 1, ref_config);
  const auto par = run(core::reference_platform(), 8, config);
  EXPECT_GT(par.atoms_migrated, 0u);
  EXPECT_NEAR(par.energy.potential(), ref.energy.potential(),
              std::abs(ref.energy.potential()) * 1e-6 + 1e-4);
  EXPECT_NEAR(par.position_checksum, ref.position_checksum,
              std::abs(ref.position_checksum) * 1e-9);
}

TEST(PencilDecompositionTest, RejectsInfeasiblePencilGrids) {
  // More pencils than ranks, and pencil counts exceeding the FFT plane
  // counts, must fail fast before any rank spins up.
  CharmmConfig config = short_config(DecompKind::kSpatial);
  config.decomp = parse_decomp_spec("spatial:pme=pencil:grid=4x4");
  EXPECT_THROW(run(core::reference_platform(), 8, config), util::Error);
  config.decomp = parse_decomp_spec("spatial:pme=pencil:grid=40x2");
  EXPECT_THROW(run(core::reference_platform(), 80, config), util::Error);
  config.decomp = parse_decomp_spec("spatial:pme=pencil:grid=2x50");
  EXPECT_THROW(run(core::reference_platform(), 100, config), util::Error);
  // Pencil PME requires PME: with use_pme off the spec is contradictory.
  config.decomp = parse_decomp_spec("spatial:pme=pencil");
  config.use_pme = false;
  EXPECT_THROW(run(core::reference_platform(), 8, config), util::Error);
}

TEST(PencilDecompositionTest, MessageAndByteCountsAreExact) {
  // The pencil schedule — plane exchanges both ways plus the four
  // grouped transposes — is a fixed function of the layout and pencil
  // grid, so the predictor pins it exactly, like the halo schedule.
  core::Platform platform;
  platform.network = net::Network::kScoreGigE;
  const net::NetworkParams params = net::params_for(platform.network);
  for (const char* spec_text :
       {"spatial:pme=pencil", "spatial:pme=pencil:grid=3x5"}) {
    for (int p : {2, 4, 8, 16, 27}) {
      if (std::string(spec_text).find("3x5") != std::string::npos &&
          p < 16) {
        continue;  // 3x5 pencils need at least 15 ranks
      }
      CharmmConfig config = short_config(DecompKind::kSpatial);
      config.decomp = parse_decomp_spec(spec_text);
      config.coherency_barriers = false;
      const auto sim = run(platform, p, config);
      const core::OverheadPrediction pred = core::predict_step_overheads(
          params, p, system_fixture(), config);
      double sim_messages = 0.0;
      double sim_bytes = 0.0;
      for (const auto& ch : sim.metrics.channels) {
        sim_messages += static_cast<double>(ch.messages);
        sim_bytes += ch.bytes;
      }
      const double epilogue_messages = 2.0 * (p - 1);
      const double epilogue_bytes = 2.0 * (p - 1) * 24.0;
      EXPECT_DOUBLE_EQ(
          pred.messages_per_step() * config.nsteps + epilogue_messages,
          sim_messages)
          << spec_text << " p=" << p;
      EXPECT_DOUBLE_EQ(pred.bytes_per_step() * config.nsteps + epilogue_bytes,
                       sim_bytes)
          << spec_text << " p=" << p;
    }
  }
}

// --- analytic predictor ----------------------------------------------------

TEST(DecompositionModelTest, PredictsContentionFreeCommTimes) {
  // Same tolerance discipline as AnalyticModelTest in core_test: on the
  // deterministic stacks the closed-form model must land within 0.3x-3x
  // of the simulator's per-step communication time. Task decoupling is
  // checked on the combined schedule (its classic/pme split does not line
  // up with the breakdown's component attribution under overlap).
  const pme::PmeParams grid{80, 36, 48, 4, 0.34};
  for (net::Network network :
       {net::Network::kScoreGigE, net::Network::kMyrinetGM}) {
    core::Platform platform;
    platform.network = network;
    for (int p : {2, 4, 8}) {
      {
        const auto sim = run(platform, p, short_config(DecompKind::kForce));
        const core::OverheadPrediction pred = core::predict_step_overheads(
            net::params_for(network), p, sysbuild::kTotalAtoms, grid,
            DecompSpec{DecompKind::kForce, 0});
        const double sim_classic = sim.breakdown.classic_wall.comm / 4.0;
        const double sim_pme = sim.breakdown.pme_wall.comm / 4.0;
        EXPECT_GT(pred.classic_comm_per_step, 0.3 * sim_classic)
            << "force " << net::to_string(network) << " p=" << p;
        EXPECT_LT(pred.classic_comm_per_step, 3.0 * sim_classic)
            << "force " << net::to_string(network) << " p=" << p;
        EXPECT_GT(pred.pme_comm_per_step, 0.3 * sim_pme);
        EXPECT_LT(pred.pme_comm_per_step, 3.0 * sim_pme);
      }
      {
        const auto sim = run(platform, p, short_config(DecompKind::kTaskPme));
        const core::OverheadPrediction pred = core::predict_step_overheads(
            net::params_for(network), p, sysbuild::kTotalAtoms, grid,
            DecompSpec{DecompKind::kTaskPme, 0});
        const double sim_comm = (sim.breakdown.classic_wall.comm +
                                 sim.breakdown.pme_wall.comm) /
                                4.0;
        const double pred_comm =
            pred.classic_comm_per_step + pred.pme_comm_per_step;
        EXPECT_GT(pred_comm, 0.3 * sim_comm)
            << "task " << net::to_string(network) << " p=" << p;
        EXPECT_LT(pred_comm, 3.0 * sim_comm)
            << "task " << net::to_string(network) << " p=" << p;
      }
    }
  }
}

TEST(DecompositionModelTest, MessageAndByteCountsAreExact) {
  // The predicted schedule shape is not a model but a count: with the
  // coherency barriers off (their zero-byte rounds are excluded from the
  // prediction) the per-step message and byte totals must match the
  // simulator's channel counters exactly.
  const pme::PmeParams grid{80, 36, 48, 4, 0.34};
  core::Platform platform;
  platform.network = net::Network::kScoreGigE;
  for (DecompKind kind :
       {DecompKind::kAtomReplicated, DecompKind::kForce,
        DecompKind::kTaskPme}) {
    for (int p : {3, 8}) {
      CharmmConfig config = short_config(kind);
      config.coherency_barriers = false;
      const auto sim = run(platform, p, config);
      const core::OverheadPrediction pred = core::predict_step_overheads(
          net::params_for(platform.network), p, sysbuild::kTotalAtoms, grid,
          DecompSpec{kind, 0});
      double sim_messages = 0.0;
      double sim_bytes = 0.0;
      for (const auto& ch : sim.metrics.channels) {
        sim_messages += static_cast<double>(ch.messages);
        sim_bytes += ch.bytes;
      }
      EXPECT_DOUBLE_EQ(pred.messages_per_step() * config.nsteps,
                       sim_messages)
          << to_string(kind) << " p=" << p;
      EXPECT_DOUBLE_EQ(pred.bytes_per_step() * config.nsteps, sim_bytes)
          << to_string(kind) << " p=" << p;
    }
  }
}

TEST(DecompositionModelTest, SpatialMessageAndByteCountsAreExact) {
  // The system-aware overload reproduces the simulator's own layout and
  // step-0 epoch, so within one epoch the halo schedule is an exact
  // count, not an estimate. The only traffic outside the per-step
  // schedule is the one-time 3-double result allreduce after the loop:
  // 2(p-1) messages of 24 bytes.
  core::Platform platform;
  platform.network = net::Network::kScoreGigE;
  const net::NetworkParams params = net::params_for(platform.network);
  for (bool use_pme : {true, false}) {
    for (int p : {2, 4, 8, 27}) {
      if (!use_pme && p != 8) continue;  // one PME-off pin is enough
      CharmmConfig config = short_config(DecompKind::kSpatial);
      config.coherency_barriers = false;
      config.use_pme = use_pme;
      const auto sim = run(platform, p, config);
      const core::OverheadPrediction pred = core::predict_step_overheads(
          params, p, system_fixture(), config);
      double sim_messages = 0.0;
      double sim_bytes = 0.0;
      for (const auto& ch : sim.metrics.channels) {
        sim_messages += static_cast<double>(ch.messages);
        sim_bytes += ch.bytes;
      }
      const double epilogue_messages = 2.0 * (p - 1);
      const double epilogue_bytes = 2.0 * (p - 1) * 24.0;
      EXPECT_DOUBLE_EQ(
          pred.messages_per_step() * config.nsteps + epilogue_messages,
          sim_messages)
          << "spatial p=" << p << " pme=" << use_pme;
      EXPECT_DOUBLE_EQ(pred.bytes_per_step() * config.nsteps + epilogue_bytes,
                       sim_bytes)
          << "spatial p=" << p << " pme=" << use_pme;
      if (!use_pme) {
        EXPECT_EQ(pred.pme_messages_per_step, 0.0);
        EXPECT_EQ(pred.pme_bytes_per_step, 0.0);
      }
    }
  }
}

TEST(DecompositionModelTest, SpatialPredictionNeedsTheBuiltSystem) {
  // The halo volumes are the border-cell populations, which an atom count
  // cannot capture — the natoms-only overload must refuse loudly rather
  // than return a wrong schedule.
  EXPECT_THROW(core::predict_step_overheads(
                   net::params_for(net::Network::kScoreGigE), 8,
                   sysbuild::kTotalAtoms, pme::PmeParams{80, 36, 48, 4, 0.34},
                   DecompSpec{DecompKind::kSpatial, 0}),
               util::Error);
}

TEST(DecompositionModelTest, SequentialHasNoScheduleTraffic) {
  const core::OverheadPrediction pred = core::predict_step_overheads(
      net::params_for(net::Network::kScoreGigE), 1, 3552,
      pme::PmeParams{80, 36, 48, 4, 0.34},
      DecompSpec{DecompKind::kForce, 0});
  EXPECT_EQ(pred.total_per_step(), 0.0);
  EXPECT_EQ(pred.messages_per_step(), 0.0);
  EXPECT_EQ(pred.bytes_per_step(), 0.0);
}


// --- op-stream pins --------------------------------------------------------

// FNV digest over every rank's recorded operations: kind, component,
// phase, peer, tag, size, received, the sync/exchange flags and the bits
// of the charged seconds. Two runs agree on it only if every rank issued
// the same operations and messages (those inside the collectives too)
// with the same compute charges under the same phase names.
std::uint64_t op_stream_digest(const core::CellTrace& trace) {
  std::uint64_t h = 0;
  auto mix = [&h](const void* data, std::size_t n) {
    h = util::hash_combine(h, util::fnv1a_bytes(data, n));
  };
  for (const perf::RankTrace& rank : trace) {
    for (const perf::TraceOp& op : rank.ops) {
      const std::uint64_t fields[] = {
          static_cast<std::uint64_t>(op.kind),
          static_cast<std::uint64_t>(op.component),
          static_cast<std::uint64_t>(op.exchange),
          static_cast<std::uint64_t>(op.sync),
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(op.peer)),
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(op.tag)),
          op.size,
          op.received};
      mix(fields, sizeof fields);
      mix(&op.seconds, sizeof op.seconds);
      const std::string phase = op.phase == nullptr ? "" : op.phase;
      mix(phase.data(), phase.size() + 1);
    }
    h = util::hash_combine(h, rank.ops.size());
  }
  return h;
}

// Every strategy's op stream on a small water box at p=4, over 6 steps so
// the rebuild at step 5 puts migration, ghost renegotiation and the
// balancer's unit handoff in the stream (and, under pencil PME, the
// regions the rebalance re-derives). The digests cover every message,
// the collectives' included, and equal the stream the run issued before
// recording moved to the Comm boundary alone: any change to a rank's
// operations, messages, phase names or compute charges moves them.
TEST(DecompositionOpStreamTest, DigestsArePinned) {
  static const sysbuild::BuiltSystem water = sysbuild::build_water_box(8);
  const struct {
    const char* spec;
    std::uint64_t digest;
  } cases[] = {
      {"atom", 0xf64f2a69413c3bceULL},
      {"force", 0x727a80f3d2e5aad8ULL},
      {"task", 0x491c8e1f9c1c5f4bULL},
      {"spatial", 0x3e5aecf825ffe241ULL},
      {"spatial:pme=pencil", 0xcdea625751868149ULL},
      {"spatial:ldb=greedy", 0xe30934a09ecf31e8ULL},
      {"spatial:pme=pencil:ldb=greedy", 0x87eaf698a22b27a7ULL},
  };
  for (const auto& c : cases) {
    core::ExperimentSpec spec;
    spec.nprocs = 4;
    spec.charmm.nsteps = 6;
    spec.charmm.pme = pme::PmeParams{24, 24, 24, 4, 0.4};
    spec.charmm.cutoff = 9.0;
    spec.charmm.switch_on = 7.5;
    spec.charmm.decomp = parse_decomp_spec(c.spec);
    core::CellTrace trace;
    const core::ExperimentResult r =
        core::record_experiment(water, spec, trace);
    ASSERT_EQ(trace.size(), 4u) << c.spec;
    if (spec.charmm.decomp.kind == DecompKind::kSpatial) {
      EXPECT_GT(r.metrics.phase_seconds.count("migrate"), 0u) << c.spec;
      EXPECT_GT(r.metrics.phase_seconds.count("ghost_exchange"), 0u)
          << c.spec;
    }
    if (spec.charmm.decomp.ldb != LdbPolicy::kOff) {
      EXPECT_GT(r.units_moved, 0u) << c.spec;
    }
    EXPECT_EQ(op_stream_digest(trace), c.digest)
        << c.spec << ": 0x" << std::hex << op_stream_digest(trace);
  }
}

}  // namespace
}  // namespace repro::charmm
