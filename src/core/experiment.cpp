#include "core/experiment.hpp"

#include <algorithm>

#include "core/replay.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"

namespace repro::core {

std::string Platform::to_string() const {
  return net::to_string(network) + std::string(" / ") +
         middleware::to_string(middleware) + " / " +
         (cpus_per_node == 1 ? "uni" : "dual") + "-processor";
}

Platform reference_platform() { return Platform{}; }

namespace {

// Snapshots the network's shared resources and channel counters into a
// RunMetrics. The makespan (utilization denominator) is the slowest rank's
// total recorded virtual time — every advance of a rank clock is mirrored
// in its recorder, so this equals the run's virtual wall clock.
perf::RunMetrics collect_metrics(
    const perf::RunBreakdown& breakdown,
    const std::vector<perf::RankRecorder>& recorders,
    const net::ClusterNetwork& network) {
  perf::RunMetrics m;
  m.breakdown = breakdown;
  for (const auto& rec : recorders) {
    m.makespan = std::max(m.makespan, rec.total_breakdown().total());
    for (const auto& [phase, seconds] : rec.phase_times()) {
      m.phase_seconds[phase] += seconds;
    }
  }
  // Load-imbalance factors (max/mean over ranks): compute (busy) time
  // overall plus every schedule phase. Multi-rank phased runs only, so
  // unphased and single-rank reports stay byte-identical.
  if (recorders.size() >= 2 && !m.phase_seconds.empty()) {
    const auto nranks = static_cast<double>(recorders.size());
    for (const auto& rec : recorders) {
      const double comp = rec.total_breakdown().comp;
      m.compute_imbalance.max_seconds =
          std::max(m.compute_imbalance.max_seconds, comp);
      m.compute_imbalance.mean_seconds += comp / nranks;
      for (const auto& [phase, seconds] : rec.phase_times()) {
        perf::ImbalanceMetrics& im = m.phase_imbalance[phase];
        im.max_seconds = std::max(im.max_seconds, seconds);
        im.mean_seconds += seconds / nranks;
      }
    }
  }
  auto add_resource = [&m](const sim::Resource& res) {
    perf::ResourceMetrics rm;
    rm.name = res.name();
    rm.busy_time = res.busy_time();
    rm.queue_wait = res.queue_wait_time();
    rm.max_queue_wait = res.max_queue_wait();
    rm.acquisitions = res.acquisitions();
    rm.utilization = res.utilization(m.makespan);
    m.resources.push_back(std::move(rm));
  };
  for (const sim::Resource* res : network.resources()) add_resource(*res);
  // Fabric hop links (fat-tree uplinks/downlinks, torus links). Only links
  // that carried traffic are reported: a torus allocates 6 links per grid
  // slot and most stay idle. Empty on the single switch, so its metrics
  // JSON is byte-identical to the pre-topology model.
  for (const sim::Resource* res : network.fabric_links()) {
    if (res->acquisitions() > 0) add_resource(*res);
  }
  // Sparse channel iteration: only pairs that exchanged messages exist,
  // visited in deterministic (src, dst) order.
  network.for_each_channel(
      [&m](int src, int dst, const net::ChannelStats& ch) {
        perf::ChannelMetrics cm;
        cm.src = src;
        cm.dst = dst;
        cm.messages = ch.messages;
        cm.bytes = ch.bytes;
        cm.stall_time = ch.stall_time;
        cm.wire_time = ch.wire_time;
        m.channels.push_back(cm);
      });
  if (const net::FaultCounters* fc = network.fault_counters()) {
    perf::FaultMetrics& f = m.faults;
    f.enabled = true;
    f.packets_lost = fc->packets_lost;
    f.retransmits = fc->retransmits;
    f.retransmitted_bytes = fc->retransmitted_bytes;
    f.retransmit_delay = fc->retransmit_delay;
    f.degraded_messages = fc->degraded_messages;
    f.degradation_delay = fc->degradation_delay;
    f.noise_bursts = fc->noise_bursts;
    f.noise_delay = fc->noise_delay;
    f.straggler_delay = fc->straggler_delay;
    f.stall_events = fc->stall_events;
    f.stall_delay = fc->stall_delay;
    f.absorbed_classic = fc->absorbed[0];
    f.absorbed_pme = fc->absorbed[1];
    f.absorbed_other = fc->absorbed[2];
  }
  return m;
}

// Converts the run's virtual-time accounting into joules (see
// perf/power.hpp): static draw per node over the makespan, dynamic draw
// per rank-second of phase time. Unphased runs (the sequential reference
// program sets no phase labels) charge dynamic power against the ranks'
// compute time as a single "compute" pseudo-phase, so the joules column
// is still meaningful at p = 1.
void apply_power_model(perf::RunMetrics& m, const perf::PowerModel& model,
                       const std::vector<perf::RankRecorder>& recorders,
                       int cpus_per_node) {
  // parse_power_spec already rejects negative watt rates; this backstop
  // guards models built in code.
  REPRO_REQUIRE(model.static_watts_per_node >= 0.0 &&
                    model.dynamic_watts >= 0.0,
                "power model watt rates must be non-negative");
  for (const auto& [phase, watts] : model.phase_watts) {
    REPRO_REQUIRE(watts >= 0.0, "power model phase override for '" + phase +
                                    "' must be non-negative");
  }
  perf::PowerMetrics& pw = m.power;
  pw.enabled = true;
  pw.static_watts_per_node = model.static_watts_per_node;
  pw.dynamic_watts = model.dynamic_watts;
  const int nranks = static_cast<int>(recorders.size());
  pw.nodes = (nranks + cpus_per_node - 1) / cpus_per_node;
  pw.static_joules =
      model.static_watts_per_node * static_cast<double>(pw.nodes) * m.makespan;
  auto watts_for = [&model](const std::string& phase) {
    const auto it = model.phase_watts.find(phase);
    return it != model.phase_watts.end() ? it->second : model.dynamic_watts;
  };
  if (!m.phase_seconds.empty()) {
    for (const auto& [phase, seconds] : m.phase_seconds) {
      pw.phase_joules[phase] = watts_for(phase) * seconds;
    }
  } else {
    double comp = 0.0;
    for (const auto& rec : recorders) comp += rec.total_breakdown().comp;
    pw.phase_joules["compute"] = watts_for("compute") * comp;
  }
  for (const auto& [phase, joules] : pw.phase_joules) {
    (void)phase;
    pw.dynamic_joules += joules;
  }
}

}  // namespace

std::vector<Platform> full_factorial() {
  std::vector<Platform> cells;
  for (auto network : {net::Network::kTcpGigE, net::Network::kScoreGigE,
                       net::Network::kMyrinetGM}) {
    for (auto mw : {middleware::Kind::kMpi, middleware::Kind::kCmpi}) {
      for (int cpus : {1, 2}) {
        cells.push_back(Platform{network, mw, cpus});
      }
    }
  }
  return cells;
}

namespace {

// Fails fast on configurations the workload cannot run, before any rank
// is spun up. A spatial run's layout errors come from building its
// SharedRunState, which also precedes the ranks.
void validate_spec(const ExperimentSpec& spec) {
  REPRO_REQUIRE(spec.nprocs >= 1, "experiment needs at least one process");
  charmm::validate_config(spec.charmm);
  if (spec.charmm.decomp.kind == charmm::DecompKind::kTaskPme &&
      spec.nprocs >= 2) {
    // Fails fast on a pme_ranks/nprocs mismatch before spinning up ranks.
    charmm::resolved_pme_ranks(spec.charmm.decomp, spec.nprocs);
  }
}

// Runs `rank_main(comm)` on every rank of a fresh simulated cluster
// built from the spec's platform factors, and fills in the result's
// timing fields: breakdown, metrics, timelines and engine counters.
template <typename RankMain>
ExperimentResult run_platform(const ExperimentSpec& spec,
                              RankMain&& rank_main) {
  net::ClusterConfig cluster_config;
  cluster_config.nranks = spec.nprocs;
  cluster_config.cpus_per_node = spec.platform.cpus_per_node;
  cluster_config.network = spec.platform.network;
  cluster_config.seed = spec.seed;
  cluster_config.topology = spec.topology;
  net::ClusterNetwork network(
      cluster_config,
      spec.network_params ? *spec.network_params
                          : net::params_for(cluster_config.network),
      spec.faults ? *spec.faults : net::FaultSpec{});

  std::vector<perf::RankRecorder> recorders(
      static_cast<std::size_t>(spec.nprocs));
  std::vector<perf::Timeline> timelines;
  if (spec.record_timelines) {
    timelines.resize(static_cast<std::size_t>(spec.nprocs));
    for (int r = 0; r < spec.nprocs; ++r) {
      timelines[static_cast<std::size_t>(r)].set_rank(r);
      recorders[static_cast<std::size_t>(r)].attach_timeline(
          &timelines[static_cast<std::size_t>(r)]);
    }
  }

  sim::Engine engine(spec.nprocs);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, network,
                   recorders[static_cast<std::size_t>(ctx.rank())],
                   spec.collectives);
    rank_main(comm);
  });
  // Every message a rank sends must be consumed by the end of the run; a
  // leftover means the schedule sent more than it received.
  const std::size_t undelivered = engine.undelivered();
  REPRO_REQUIRE(undelivered == 0,
                std::to_string(undelivered) +
                    " message(s) undelivered or unconsumed at end of run");

  ExperimentResult result;
  result.breakdown =
      perf::aggregate(recorders, spec.platform.cpus_per_node);
  result.metrics = collect_metrics(result.breakdown, recorders, network);
  if (spec.power) {
    apply_power_model(result.metrics, *spec.power, recorders,
                      spec.platform.cpus_per_node);
  }
  result.timelines = std::move(timelines);
  result.engine_events = engine.events_processed();
  result.engine_context_switches = engine.context_switches();
  return result;
}

// The full path: the CHARMM rank program on every rank, recording each
// rank's operations into `trace` when it is non-null.
ExperimentResult run_physics(const sysbuild::BuiltSystem& sys,
                             const ExperimentSpec& spec, CellTrace* trace) {
  validate_spec(spec);
  if (trace != nullptr) {
    trace->assign(static_cast<std::size_t>(spec.nprocs), {});
  }
  std::vector<charmm::RankRunResult> rank_results(
      static_cast<std::size_t>(spec.nprocs));
  // Run-start state (lists, velocities, pair options, the spatial cold
  // start) is built once for the run's ranks and dropped with the run.
  charmm::SharedRunState shared(sys, spec.charmm, spec.nprocs);
  ExperimentResult result = run_platform(spec, [&](mpi::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    if (trace != nullptr) comm.recorder().attach_trace(&(*trace)[r]);
    auto mw = middleware::make_middleware(spec.platform.middleware, comm);
    rank_results[r] = charmm::run_charmm_rank(sys, spec.charmm, *mw, shared);
  });

  const charmm::RankRunResult& first = rank_results.front();
  result.energy = first.last_energy;
  result.position_checksum = first.position_checksum;
  result.pairs_in_list = first.pairs_in_list;
  result.atoms_migrated = first.atoms_migrated;
  result.units_moved = first.units_moved;
  result.unit_map_hash = first.unit_map_hash;

  // Replication invariant: every rank must end with identical state,
  // and with ldb on, the identical balancer trajectory.
  for (const auto& rr : rank_results) {
    REPRO_REQUIRE(rr.position_checksum == result.position_checksum,
                  "replicated trajectories diverged across ranks");
    REPRO_REQUIRE(rr.units_moved == result.units_moved &&
                      rr.unit_map_hash == result.unit_map_hash,
                  "load-balancer unit maps diverged across ranks");
  }
  return result;
}

}  // namespace

ExperimentResult run_experiment(const sysbuild::BuiltSystem& sys,
                                const ExperimentSpec& spec) {
  return run_physics(sys, spec, nullptr);
}

ExperimentResult record_experiment(const sysbuild::BuiltSystem& sys,
                                   const ExperimentSpec& spec,
                                   CellTrace& trace) {
  return run_physics(sys, spec, &trace);
}

ExperimentResult replay_experiment(const ExperimentSpec& spec,
                                   const CellTrace& trace,
                                   const ExperimentResult& recorded) {
  REPRO_REQUIRE(trace.size() == static_cast<std::size_t>(spec.nprocs),
                "replay: the trace has " + std::to_string(trace.size()) +
                    " ranks, the cell " + std::to_string(spec.nprocs));
  ExperimentResult result = run_platform(spec, [&](mpi::Comm& comm) {
    replay_rank(trace[static_cast<std::size_t>(comm.rank())], comm);
  });
  result.energy = recorded.energy;
  result.position_checksum = recorded.position_checksum;
  result.pairs_in_list = recorded.pairs_in_list;
  result.atoms_migrated = recorded.atoms_migrated;
  result.units_moved = recorded.units_moved;
  result.unit_map_hash = recorded.unit_map_hash;
  return result;
}

}  // namespace repro::core
