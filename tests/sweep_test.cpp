// SweepRunner: concurrent execution of independent experiment cells must
// be bit-identical to sequential execution, must capture per-cell errors
// without killing the sweep, and must report progress for every cell.
// Replayed cells (one recorded trajectory per physics class, timed again
// for every platform) must equal run_experiment on their spec, field for
// field. This suite runs under TSan in CI — it is the concurrency audit
// for everything reachable from run_experiment and for the hand-off of a
// recording to replays on other workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/replay.hpp"
#include "core/sweep.hpp"
#include "net/faults.hpp"
#include "net/topology.hpp"
#include "perf/metrics.hpp"
#include "perf/power.hpp"
#include "perf/trace_export.hpp"
#include "sysbuild/builder.hpp"
#include "util/error.hpp"

#include "booked_time.hpp"

namespace repro::core {
namespace {

// A small system keeps the cells cheap enough for TSan's ~10x slowdown.
const sysbuild::BuiltSystem& small_system() {
  static const sysbuild::BuiltSystem sys = sysbuild::build_water_box(8);
  return sys;
}

ExperimentSpec small_spec(net::Network network, int nprocs) {
  ExperimentSpec spec;
  spec.platform.network = network;
  spec.nprocs = nprocs;
  spec.charmm.nsteps = 2;
  spec.charmm.pme = pme::PmeParams{24, 24, 24, 4, 0.4};
  spec.charmm.cutoff = 9.0;
  spec.charmm.switch_on = 7.5;
  return spec;
}

std::vector<ExperimentSpec> small_sweep() {
  std::vector<ExperimentSpec> specs;
  for (net::Network network :
       {net::Network::kTcpGigE, net::Network::kScoreGigE}) {
    for (int p : {1, 2, 4}) {
      specs.push_back(small_spec(network, p));
    }
  }
  return specs;
}

TEST(SweepRunnerTest, JobsResolution) {
  EXPECT_GE(SweepRunner(0).jobs(), 1);
  EXPECT_GE(SweepRunner(-3).jobs(), 1);
  EXPECT_EQ(SweepRunner(1).jobs(), 1);
  EXPECT_EQ(SweepRunner(7).jobs(), 7);
}

TEST(SweepRunnerTest, ParallelMatchesSequential) {
  const std::vector<ExperimentSpec> specs = small_sweep();
  const auto seq = SweepRunner(1).run(small_system(), specs);
  const auto par = SweepRunner(4).run(small_system(), specs);
  ASSERT_EQ(seq.size(), specs.size());
  ASSERT_EQ(par.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(seq[i].ok()) << seq[i].error;
    ASSERT_TRUE(par[i].ok()) << par[i].error;
    // Results arrive in submission order...
    EXPECT_EQ(par[i].spec.nprocs, specs[i].nprocs);
    // ...and are bit-identical to the sequential run: energies, times,
    // and the full metrics export.
    EXPECT_EQ(seq[i].result.energy.potential(),
              par[i].result.energy.potential());
    EXPECT_EQ(seq[i].result.position_checksum,
              par[i].result.position_checksum);
    EXPECT_EQ(seq[i].result.total_seconds(), par[i].result.total_seconds());
    EXPECT_EQ(perf::metrics_json(seq[i].result.metrics),
              perf::metrics_json(par[i].result.metrics));
  }
}

TEST(SweepRunnerTest, CapturesPerCellErrors) {
  std::vector<ExperimentSpec> specs;
  specs.push_back(small_spec(net::Network::kScoreGigE, 2));
  specs.push_back(small_spec(net::Network::kScoreGigE, 0));  // invalid
  specs.push_back(small_spec(net::Network::kScoreGigE, 4));
  const auto outcomes = SweepRunner(4).run(small_system(), specs);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok()) << outcomes[0].error;
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_NE(outcomes[1].error.find("at least one process"),
            std::string::npos);
  EXPECT_TRUE(outcomes[2].ok()) << outcomes[2].error;
  // The throwing variant refuses the whole sweep, naming the cell.
  EXPECT_THROW(run_experiments(small_system(), specs, 4), util::Error);
}

TEST(SweepRunnerTest, ProgressCoversEveryCell) {
  const std::vector<ExperimentSpec> specs = small_sweep();
  std::atomic<std::size_t> calls{0};
  std::set<std::size_t> seen_done;
  std::set<int> seen_procs;
  const auto outcomes = SweepRunner(4).run(
      small_system(), specs,
      [&](std::size_t done, std::size_t total, const SweepOutcome& cell) {
        // Callbacks are serialized by the runner, so plain containers are
        // safe to touch here.
        calls.fetch_add(1);
        EXPECT_EQ(total, specs.size());
        seen_done.insert(done);
        seen_procs.insert(cell.spec.nprocs);
        EXPECT_TRUE(cell.ok()) << cell.error;
      });
  EXPECT_EQ(calls.load(), specs.size());
  // `done` counts 1..total with no duplicates or gaps.
  EXPECT_EQ(seen_done.size(), specs.size());
  EXPECT_EQ(*seen_done.begin(), 1u);
  EXPECT_EQ(*seen_done.rbegin(), specs.size());
  EXPECT_EQ(seen_procs, (std::set<int>{1, 2, 4}));
  ASSERT_EQ(outcomes.size(), specs.size());
}

TEST(SweepRunnerTest, MoreJobsThanCells) {
  std::vector<ExperimentSpec> specs{small_spec(net::Network::kScoreGigE, 2)};
  const auto outcomes = SweepRunner(16).run(small_system(), specs);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].ok()) << outcomes[0].error;
}

// --- physics-class replay ------------------------------------------------------

// Replay cells run six steps, so the step-5 neighbor-list rebuild (shared
// list, spatial migration, load-balancer remap) is part of every trace.
// The short cutoff and coarse PME grid keep the many cells cheap and cut
// the box into 3x3x3 spatial cells.
ExperimentSpec replay_spec(net::Network network, int nprocs) {
  ExperimentSpec spec = small_spec(network, nprocs);
  spec.charmm.nsteps = 6;
  spec.charmm.cutoff = 6.0;
  spec.charmm.switch_on = 5.0;
  spec.charmm.skin = 1.0;
  spec.charmm.pme = pme::PmeParams{16, 16, 16, 4, 0.5};
  return spec;
}

// The factor combinations the golden figures sweep, on the small system:
// Figure 2's traced runs with PME on and off, the full factorial at the
// paper's processor counts (Figures 3-9) plus Fast Ethernet, the
// decomposition study (force, task, spatial slab and pencil; traced, so
// the group middleware's phases reach the timelines), the
// load-balance study (ldb with stragglers and custom network params), the
// conclusion's power model and fabrics, a fault sweep over seeds, and the
// collective and network-mechanism ablations.
std::vector<ExperimentSpec> golden_figure_cells() {
  std::vector<ExperimentSpec> specs;
  for (bool pme : {true, false}) {
    ExperimentSpec spec = replay_spec(net::Network::kScoreGigE, 4);
    spec.charmm.use_pme = pme;
    spec.record_timelines = true;
    specs.push_back(spec);
  }
  for (const Platform& platform : full_factorial()) {
    for (int p : paper_processor_counts()) {
      ExperimentSpec spec = replay_spec(platform.network, p);
      spec.platform = platform;
      specs.push_back(spec);
    }
  }
  for (int p : {2, 4}) {
    specs.push_back(replay_spec(net::Network::kTcpFastEthernet, p));
  }
  for (net::Network network :
       {net::Network::kTcpGigE, net::Network::kMyrinetGM}) {
    for (const char* decomp :
         {"force", "task", "spatial", "spatial:pme=pencil"}) {
      for (int p : {2, 8}) {
        ExperimentSpec spec = replay_spec(network, p);
        spec.charmm.decomp = charmm::parse_decomp_spec(decomp);
        spec.record_timelines = true;
        specs.push_back(spec);
      }
    }
  }
  for (const char* decomp :
       {"spatial", "spatial:ldb=greedy", "spatial:ldb=refine"}) {
    for (const char* faults : {"", "straggler=1,x=1.5"}) {
      ExperimentSpec spec = replay_spec(net::Network::kTcpGigE, 4);
      spec.charmm.use_pme = false;
      spec.charmm.list_rebuild_interval = 2;
      spec.charmm.decomp = charmm::parse_decomp_spec(decomp);
      net::NetworkParams params = net::params_for(spec.platform.network);
      params.jitter_prob_per_rank = 0.0;
      spec.network_params = params;
      if (*faults != '\0') spec.faults = net::parse_fault_spec(faults);
      specs.push_back(spec);
    }
  }
  for (const char* decomp : {"atom", "spatial"}) {
    for (const char* fabric : {"single", "fattree:radix=4", "torus"}) {
      ExperimentSpec spec = replay_spec(net::Network::kMyrinetGM, 8);
      spec.charmm.use_pme = false;
      spec.charmm.decomp = charmm::parse_decomp_spec(decomp);
      spec.topology = net::parse_topology_spec(fabric);
      spec.power = perf::parse_power_spec("static=55,dynamic=25");
      specs.push_back(spec);
    }
  }
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    ExperimentSpec spec = replay_spec(net::Network::kTcpGigE, 4);
    spec.seed = seed;
    spec.faults = net::parse_fault_spec(
        "loss=0.02,recovery=timeout;straggler=0,x=1.5;stall=1,at=0.01,"
        "dur=0.005");
    specs.push_back(spec);
  }
  for (net::Network network :
       {net::Network::kTcpGigE, net::Network::kScoreGigE}) {
    for (mpi::AllreduceAlgorithm algo :
         {mpi::AllreduceAlgorithm::kRecursiveDoubling,
          mpi::AllreduceAlgorithm::kRing}) {
      ExperimentSpec spec = replay_spec(network, 4);
      spec.collectives.allreduce = algo;
      specs.push_back(spec);
    }
  }
  const net::NetworkParams base = net::params_for(net::Network::kTcpGigE);
  net::NetworkParams no_packets = base;
  no_packets.packet_cost_send = 0.0;
  no_packets.packet_cost_recv = 0.0;
  net::NetworkParams rendezvous = base;
  rendezvous.rendezvous_threshold = 16 * 1024;
  net::NetworkParams no_smp = base;
  no_smp.smp_bandwidth_factor = 1.0;
  no_smp.smp_host_penalty = 1.0;
  no_smp.smp_compute_penalty = 1.0;
  for (const net::NetworkParams& params : {no_packets, rendezvous, no_smp}) {
    for (int cpus : {1, 2}) {
      ExperimentSpec spec = replay_spec(net::Network::kTcpGigE, 8);
      spec.platform.cpus_per_node = cpus;
      spec.network_params = params;
      specs.push_back(spec);
    }
  }
  return specs;
}

// Field-for-field equality of two results of the same cell.
void expect_same_result(const ExperimentResult& a, const ExperimentResult& b,
                        const std::string& label) {
  auto same = [](const perf::Breakdown& x, const perf::Breakdown& y) {
    return x.comp == y.comp && x.comm == y.comm && x.sync == y.sync;
  };
  const perf::RunBreakdown& x = a.breakdown;
  const perf::RunBreakdown& y = b.breakdown;
  EXPECT_TRUE(same(x.classic_wall, y.classic_wall) &&
              same(x.pme_wall, y.pme_wall) &&
              same(x.classic_mean, y.classic_mean) &&
              same(x.pme_mean, y.pme_mean))
      << label;
  EXPECT_EQ(x.comm_speed.avg_mb_per_s, y.comm_speed.avg_mb_per_s) << label;
  EXPECT_EQ(x.comm_speed.min_mb_per_s, y.comm_speed.min_mb_per_s) << label;
  EXPECT_EQ(x.comm_speed.max_mb_per_s, y.comm_speed.max_mb_per_s) << label;
  EXPECT_EQ(x.comm_speed.samples, y.comm_speed.samples) << label;
  EXPECT_EQ(x.total_bytes, y.total_bytes) << label;
  EXPECT_EQ(perf::metrics_json(a.metrics), perf::metrics_json(b.metrics))
      << label;
  EXPECT_EQ(perf::chrome_trace_json(a.timelines),
            perf::chrome_trace_json(b.timelines))
      << label;
  EXPECT_EQ(a.energy.to_array(), b.energy.to_array()) << label;
  EXPECT_EQ(a.position_checksum, b.position_checksum) << label;
  EXPECT_EQ(a.pairs_in_list, b.pairs_in_list) << label;
  EXPECT_EQ(a.atoms_migrated, b.atoms_migrated) << label;
  EXPECT_EQ(a.units_moved, b.units_moved) << label;
  EXPECT_EQ(a.unit_map_hash, b.unit_map_hash) << label;
  EXPECT_EQ(a.engine_events, b.engine_events) << label;
  EXPECT_EQ(a.engine_context_switches, b.engine_context_switches) << label;
}

TEST(SweepReplayTest, GoldenFigureCellsMatchRunExperiment) {
  const std::vector<ExperimentSpec> specs = golden_figure_cells();
  const auto par = SweepRunner(4).run(small_system(), specs);
  const auto seq = SweepRunner(1).run(small_system(), specs);
  // Every cell on its own through the full path, four cells at a time.
  std::vector<ExperimentResult> direct_results(specs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < specs.size();) {
        direct_results[i] = run_experiment(small_system(), specs[i]);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  ASSERT_EQ(par.size(), specs.size());
  ASSERT_EQ(seq.size(), specs.size());
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string label = spec_label(specs[i]);
    ASSERT_TRUE(par[i].ok()) << label << ": " << par[i].error;
    ASSERT_TRUE(seq[i].ok()) << label << ": " << seq[i].error;
    EXPECT_EQ(par[i].replayed, seq[i].replayed) << label;
    if (par[i].replayed) ++replayed;
    const ExperimentResult& direct = direct_results[i];
    expect_same_result(par[i].result, direct, label + " (jobs=4)");
    expect_same_result(seq[i].result, direct, label + " (jobs=1)");
  }
  // Most cells share a class-mate's trajectory.
  EXPECT_GT(replayed, specs.size() / 2);
}

// A replayed cell books every interval of a rank's clock once, as a
// recorded one does: each rank's timeline events are disjoint, and the
// longest rank's summed events equal the makespan (the slowest rank's
// recorder total). Faulted cells, eager and with rendezvous.
TEST(SweepReplayTest, ReplayedTimelinesPartitionTheClock) {
  std::vector<ExperimentSpec> specs;
  for (const std::size_t threshold : {std::size_t{0}, std::size_t{1024}}) {
    for (net::Network network :
         {net::Network::kTcpGigE, net::Network::kScoreGigE}) {
      ExperimentSpec spec = replay_spec(network, 4);
      spec.record_timelines = true;
      spec.faults = net::parse_fault_spec(
          "loss=0.02,recovery=timeout;straggler=0,x=1.5,period=1e-3,"
          "dur=1e-4;stall=1,at=0.01,dur=0.005");
      net::NetworkParams params = net::params_for(network);
      params.rendezvous_threshold = threshold;
      spec.network_params = params;
      specs.push_back(spec);
    }
  }
  const auto outcomes = SweepRunner(1).run(small_system(), specs);
  ASSERT_EQ(outcomes.size(), specs.size());
  std::size_t replayed = 0;
  for (const SweepOutcome& cell : outcomes) {
    ASSERT_TRUE(cell.ok()) << cell.error;
    SCOPED_TRACE(spec_label(cell.spec));
    replayed += cell.replayed ? 1 : 0;
    ASSERT_EQ(cell.result.timelines.size(), 4u);
    double longest = 0.0;
    for (const perf::Timeline& timeline : cell.result.timelines) {
      longest = std::max(longest, testutil::booked_span(timeline));
    }
    const double makespan = cell.result.metrics.makespan;
    EXPECT_NEAR(longest, makespan, 1e-12 * makespan);
  }
  EXPECT_EQ(replayed, specs.size() - 1);
}

TEST(SweepReplayTest, LdbCellsAndSingletonClassesNeverReplay) {
  std::vector<ExperimentSpec> specs;
  for (net::Network network :
       {net::Network::kTcpGigE, net::Network::kMyrinetGM}) {
    ExperimentSpec spec = replay_spec(network, 4);
    spec.charmm.use_pme = false;
    spec.charmm.decomp = charmm::parse_decomp_spec("spatial:ldb=greedy");
    specs.push_back(spec);
  }
  specs.push_back(replay_spec(net::Network::kTcpGigE, 2));  // singleton
  specs.push_back(replay_spec(net::Network::kTcpGigE, 4));
  specs.push_back(replay_spec(net::Network::kScoreGigE, 4));
  const auto outcomes = SweepRunner(4).run(small_system(), specs);
  ASSERT_EQ(outcomes.size(), specs.size());
  for (const SweepOutcome& out : outcomes) {
    ASSERT_TRUE(out.ok()) << spec_label(out.spec) << ": " << out.error;
  }
  EXPECT_FALSE(outcomes[0].replayed);  // ldb: timing feeds the balancer
  EXPECT_FALSE(outcomes[1].replayed);
  EXPECT_FALSE(outcomes[2].replayed);  // alone in its class
  EXPECT_FALSE(outcomes[3].replayed);  // records its class
  EXPECT_TRUE(outcomes[4].replayed);
}

TEST(SweepReplayTest, EveryKeyFieldSplitsAClass) {
  const ExperimentSpec base = replay_spec(net::Network::kTcpGigE, 4);
  // Fields that reach the trajectory: any change starts a new class.
  std::vector<std::pair<const char*, ExperimentSpec>> key_changes;
  auto key = [&](const char* name, auto&& mutate) {
    ExperimentSpec spec = base;
    mutate(spec);
    key_changes.emplace_back(name, spec);
  };
  key("nprocs", [](ExperimentSpec& s) { s.nprocs = 8; });
  key("middleware",
      [](ExperimentSpec& s) { s.platform.middleware = middleware::Kind::kCmpi; });
  key("allreduce", [](ExperimentSpec& s) {
    s.collectives.allreduce = mpi::AllreduceAlgorithm::kRing;
  });
  key("bcast", [](ExperimentSpec& s) {
    s.collectives.bcast = mpi::BcastAlgorithm::kRingPipeline;
  });
  key("nsteps", [](ExperimentSpec& s) { s.charmm.nsteps = 5; });
  key("use_pme", [](ExperimentSpec& s) { s.charmm.use_pme = false; });
  key("cutoff", [](ExperimentSpec& s) { s.charmm.cutoff = 8.5; });
  key("pme grid", [](ExperimentSpec& s) { s.charmm.pme.nx = 20; });
  key("charmm seed", [](ExperimentSpec& s) { s.charmm.seed = 7; });
  key("cost", [](ExperimentSpec& s) { s.charmm.cost.seconds_per_pair *= 2; });
  key("coherency barriers",
      [](ExperimentSpec& s) { s.charmm.coherency_barriers = false; });
  key("decomposition", [](ExperimentSpec& s) {
    s.charmm.decomp = charmm::parse_decomp_spec("force");
  });
  for (const auto& [name, spec] : key_changes) {
    EXPECT_FALSE(same_physics(base, spec)) << name;
  }

  // Fields that only time the run: the class holds.
  std::vector<std::pair<const char*, ExperimentSpec>> timing_changes;
  auto timing = [&](const char* name, auto&& mutate) {
    ExperimentSpec spec = base;
    mutate(spec);
    timing_changes.emplace_back(name, spec);
  };
  timing("network",
         [](ExperimentSpec& s) { s.platform.network = net::Network::kMyrinetGM; });
  timing("cpus_per_node", [](ExperimentSpec& s) { s.platform.cpus_per_node = 2; });
  timing("network_params", [](ExperimentSpec& s) {
    net::NetworkParams params = net::params_for(s.platform.network);
    params.latency *= 2;
    s.network_params = params;
  });
  timing("faults", [](ExperimentSpec& s) {
    s.faults = net::parse_fault_spec("straggler=0,x=2");
  });
  timing("topology", [](ExperimentSpec& s) {
    s.topology = net::parse_topology_spec("torus");
  });
  timing("seed", [](ExperimentSpec& s) { s.seed = 99; });
  timing("power", [](ExperimentSpec& s) {
    s.power = perf::parse_power_spec("static=55,dynamic=25");
  });
  timing("record_timelines", [](ExperimentSpec& s) { s.record_timelines = true; });
  for (const auto& [name, spec] : timing_changes) {
    EXPECT_TRUE(same_physics(base, spec)) << name;
  }

  // Through the runner: a key change never replays, a timing change does.
  const auto outcomes = SweepRunner(2).run(
      small_system(),
      {base, key_changes[0].second, key_changes[1].second,
       timing_changes[0].second});
  ASSERT_EQ(outcomes.size(), 4u);
  for (const SweepOutcome& out : outcomes) {
    ASSERT_TRUE(out.ok()) << spec_label(out.spec) << ": " << out.error;
  }
  EXPECT_FALSE(outcomes[1].replayed);
  EXPECT_FALSE(outcomes[2].replayed);
  EXPECT_TRUE(outcomes[3].replayed);
}

TEST(SweepReplayTest, RecorderFailureRunsClassMatesInFull) {
  // The class's first cell fails on its own platform (a parameter set the
  // network model rejects), so no trace exists: its class-mates must run
  // in full, and succeed.
  ExperimentSpec broken = replay_spec(net::Network::kTcpGigE, 4);
  net::NetworkParams params = net::params_for(broken.platform.network);
  params.mtu = 0;
  broken.network_params = params;
  const std::vector<ExperimentSpec> specs{
      broken, replay_spec(net::Network::kScoreGigE, 4),
      replay_spec(net::Network::kMyrinetGM, 4)};
  for (int jobs : {1, 4}) {
    const auto outcomes = SweepRunner(jobs).run(small_system(), specs);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_FALSE(outcomes[0].ok());
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
      ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
      EXPECT_FALSE(outcomes[i].replayed) << "jobs=" << jobs;
      expect_same_result(outcomes[i].result,
                         run_experiment(small_system(), specs[i]),
                         spec_label(specs[i]));
    }
  }
}

TEST(SweepReplayTest, BrokenTracesFailLoudly) {
  // Every message of a run is in its trace, the collectives' included;
  // the force decomposition's fold/expand exchanges give every rank
  // point-to-point sends and receives of several sizes to break.
  ExperimentSpec spec = replay_spec(net::Network::kTcpGigE, 4);
  spec.charmm.decomp = charmm::parse_decomp_spec("force");
  CellTrace trace;
  const ExperimentResult recorded =
      record_experiment(small_system(), spec, trace);
  expect_same_result(replay_experiment(spec, trace, recorded), recorded,
                     "intact trace");

  // Rank 1 never posts its last receive: a message stays undelivered.
  CellTrace unreceived = trace;
  auto& ops1 = unreceived[1].ops;
  const auto last_recv = std::find_if(
      ops1.rbegin(), ops1.rend(), [](const perf::TraceOp& op) {
        return op.kind == perf::TraceOp::Kind::kRecv;
      });
  ASSERT_NE(last_recv, ops1.rend());
  ops1.erase(std::next(last_recv).base());
  EXPECT_THROW(replay_experiment(spec, unreceived, recorded), util::Error);

  // Rank 2's first send is shorter than what the receiver recorded.
  CellTrace resized = trace;
  auto& ops2 = resized[2].ops;
  const auto first_send = std::find_if(
      ops2.begin(), ops2.end(), [](const perf::TraceOp& op) {
        return op.kind == perf::TraceOp::Kind::kSend && op.size > 0;
      });
  ASSERT_NE(first_send, ops2.end());
  first_send->size -= 8;
  EXPECT_THROW(replay_experiment(spec, resized, recorded), util::Error);

  // Rank 3 never sends its first message: its peer waits forever.
  CellTrace unsent = trace;
  auto& ops3 = unsent[3].ops;
  const auto send3 = std::find_if(
      ops3.begin(), ops3.end(), [](const perf::TraceOp& op) {
        return op.kind == perf::TraceOp::Kind::kSend;
      });
  ASSERT_NE(send3, ops3.end());
  ops3.erase(send3);
  EXPECT_THROW(replay_experiment(spec, unsent, recorded), util::Error);

  // A trace for a different rank count.
  CellTrace short_trace = trace;
  short_trace.pop_back();
  EXPECT_THROW(replay_experiment(spec, short_trace, recorded), util::Error);
}

TEST(SweepReplayTest, TraceHoldsEveryNetworkMessage) {
  // A recorded trace is the run's whole message stream, the messages
  // inside the middleware's collectives (allreduce, barrier, CMPI's
  // neighbor sync, the FFT transposes) included: on every src != dst
  // channel, the sender's traced sends and the receiver's traced receives
  // both equal the network's own message and byte counters. A run's
  // critical path is built from these matched send/receive pairs.
  using Kind = perf::TraceOp::Kind;
  // (src, dst) -> (messages, bytes)
  using Counts =
      std::map<std::pair<int, int>, std::pair<std::uint64_t, double>>;
  const ExperimentSpec mpi = replay_spec(net::Network::kTcpGigE, 4);
  ExperimentSpec cmpi = mpi;
  cmpi.platform.middleware = middleware::Kind::kCmpi;
  ExperimentSpec task = mpi;
  task.charmm.decomp = charmm::parse_decomp_spec("task");
  for (const ExperimentSpec& spec : {mpi, cmpi, task}) {
    CellTrace trace;
    const ExperimentResult r = record_experiment(small_system(), spec, trace);
    ASSERT_EQ(trace.size(), static_cast<std::size_t>(spec.nprocs));
    Counts sent;
    Counts received;
    for (int rank = 0; rank < spec.nprocs; ++rank) {
      for (const perf::TraceOp& op :
           trace[static_cast<std::size_t>(rank)].ops) {
        ASSERT_TRUE(op.kind == Kind::kCompute || op.kind == Kind::kSend ||
                    op.kind == Kind::kRecv || op.kind == Kind::kEndStep)
            << spec_label(spec);
        if (op.peer == rank) continue;
        if (op.kind == Kind::kSend) {
          auto& [n, bytes] = sent[{rank, op.peer}];
          ++n;
          bytes += static_cast<double>(op.size);
        } else if (op.kind == Kind::kRecv) {
          auto& [n, bytes] = received[{op.peer, rank}];
          ++n;
          bytes += static_cast<double>(op.received);
        }
      }
    }
    Counts network;
    for (const perf::ChannelMetrics& ch : r.metrics.channels) {
      if (ch.src == ch.dst) continue;
      network[{ch.src, ch.dst}] = {ch.messages, ch.bytes};
    }
    EXPECT_FALSE(network.empty()) << spec_label(spec);
    EXPECT_EQ(sent, network) << spec_label(spec);
    EXPECT_EQ(received, network) << spec_label(spec);
  }
}

TEST(SweepReplayTest, SyncScopedMessagesReplayAsSynchronization) {
  // Messages a rank program sends inside an mpi::Comm::SyncScope (as the
  // task decomposition's group middleware may) are synchronization, and
  // must replay as such rather than as data transfer.
  const int p = 2;
  net::ClusterConfig config;
  config.nranks = p;
  auto run = [&](const auto& rank_main) {
    net::ClusterNetwork network(config);
    std::vector<perf::RankRecorder> recs(p);
    sim::Engine engine(p);
    engine.run([&](sim::RankCtx& ctx) {
      mpi::Comm comm(ctx, network,
                     recs[static_cast<std::size_t>(ctx.rank())]);
      rank_main(comm);
    });
    return recs;
  };
  std::vector<perf::RankTrace> traces(p);
  const auto recorded = run([&](mpi::Comm& comm) {
    comm.recorder().attach_trace(
        &traces[static_cast<std::size_t>(comm.rank())]);
    const int peer = 1 - comm.rank();
    double x = 1.0;
    {
      mpi::Comm::SyncScope sync(comm);
      comm.send(peer, 7, &x, sizeof x);
      comm.recv(peer, 7, &x, sizeof x);
    }
    comm.send(peer, 8, &x, sizeof x);
    comm.recv(peer, 8, &x, sizeof x);
    comm.recorder().end_step();
  });
  const auto replayed = run([&](mpi::Comm& comm) {
    replay_rank(traces[static_cast<std::size_t>(comm.rank())], comm);
  });
  for (std::size_t r = 0; r < recorded.size(); ++r) {
    EXPECT_GT(recorded[r].time(perf::Component::kOther, perf::Kind::kSync),
              0.0);
    for (int c = 0; c < perf::kNumComponents; ++c) {
      for (int k = 0; k < perf::kNumKinds; ++k) {
        const auto comp = static_cast<perf::Component>(c);
        const auto kind = static_cast<perf::Kind>(k);
        EXPECT_EQ(recorded[r].time(comp, kind), replayed[r].time(comp, kind))
            << "rank " << r << " " << perf::to_string(comp) << " "
            << perf::to_string(kind);
      }
    }
    EXPECT_EQ(recorded[r].total_bytes(), replayed[r].total_bytes());
    EXPECT_EQ(replayed[r].steps().size(), 1u);
  }
}

TEST(SpecLabelTest, NamesCollectivesAndCustomNetworkParams) {
  const ExperimentSpec base = small_spec(net::Network::kTcpGigE, 8);
  ExperimentSpec ring = base;
  ring.collectives.allreduce = mpi::AllreduceAlgorithm::kRing;
  ExperimentSpec pipeline = base;
  pipeline.collectives.bcast = mpi::BcastAlgorithm::kRingPipeline;
  ExperimentSpec no_packets = base;
  no_packets.network_params = net::params_for(base.platform.network);
  no_packets.network_params->packet_cost_send = 0.0;
  no_packets.network_params->packet_cost_recv = 0.0;
  ExperimentSpec no_jitter = base;
  no_jitter.network_params = net::params_for(base.platform.network);
  no_jitter.network_params->jitter_prob_per_rank = 0.0;
  ExperimentSpec same_params = base;
  same_params.network_params = net::params_for(base.platform.network);

  const std::vector<std::string> labels{
      spec_label(base), spec_label(ring), spec_label(pipeline),
      spec_label(no_packets), spec_label(no_jitter)};
  EXPECT_EQ(std::set<std::string>(labels.begin(), labels.end()).size(),
            labels.size());
  EXPECT_NE(labels[1].find("allreduce=ring"), std::string::npos) << labels[1];
  EXPECT_NE(labels[2].find("bcast=ring_pipeline"), std::string::npos)
      << labels[2];
  EXPECT_NE(labels[3].find("packet_cost_send=0"), std::string::npos)
      << labels[3];
  EXPECT_NE(labels[4].find("jitter_prob_per_rank=0"), std::string::npos)
      << labels[4];
  // The calibrated parameters, passed explicitly, are no custom set.
  EXPECT_EQ(spec_label(same_params), labels[0]);
}

}  // namespace
}  // namespace repro::core
