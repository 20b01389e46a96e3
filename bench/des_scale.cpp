// DES scalability benchmark: thousands of simulated ranks.
//
// The paper's cluster stops at 16 processors; this benchmark drives the
// discrete-event engine itself to p=4096 fiber ranks to pin the
// scheduler's scaling behaviour (indexed ready heap, pooled fiber stacks,
// sparse channel accounting — see docs/ARCHITECTURE.md).
//
// Two sections:
//   throughput — a ring sendrecv workload (every rank exchanges with both
//       neighbors each step, then computes) on the single-switch fabric,
//       reporting engine events/sec versus p. The workload is message-
//       dominated, so events/sec measures scheduler+network bookkeeping
//       cost, not MD kernels.
//   fabric     — a fig5-style comparison on a 256-node cluster: allreduce
//       and neighbor-exchange virtual completion times on the single
//       switch versus a two-level fat-tree (full bisection and 4:1
//       oversubscribed) versus a derived 2-D torus. Simulated seconds, so
//       the numbers are exactly reproducible.
//
// usage: des_scale [--smoke] [--steps=N] [--json=FILE]
//   --smoke   CI mode: p=256 on a fat-tree, seconds of wall clock.
//   --json    write BENCH_des_scale.json-style output (includes the
//             recorded pre-change baseline for the speedup table).
#include <sys/resource.h>

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mpi/comm.hpp"
#include "net/cluster.hpp"
#include "net/topology.hpp"
#include "perf/recorder.hpp"
#include "sim/engine.hpp"
#include "util/parse.hpp"

using namespace repro;

namespace {

constexpr const char* kUsage =
    "usage: des_scale [--smoke] [--steps=N] [--json=FILE]\n";

double max_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Recorded pre-change baseline: same ring workload (64 steps, the
// default below), same single-vCPU container, measured on the
// linear-scan engine with dense channel arrays and glibc swapcontext
// immediately before this change. regen.sh re-measures only the "after"
// numbers; the baseline is a constant of record (the pre-change engine
// no longer exists in the tree).
struct BaselinePoint {
  int p;
  double events_per_sec;
};
constexpr BaselinePoint kBaseline[] = {
    {512, 160264.0},
    {1024, 85520.0},
    {2048, 52673.0},
    {4096, 25237.0},
};
constexpr double kBaselineRssMb4096 = 669.0;

double baseline_for(int p) {
  for (const auto& b : kBaseline) {
    if (b.p == p) return b.events_per_sec;
  }
  return 0.0;
}

struct RunStats {
  int p = 0;
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  double wall = 0.0;
  double events_per_sec = 0.0;
  double virtual_makespan = 0.0;  // max rank virtual clock at completion
  double rss_mb = 0.0;
};

// Ring exchange: rank r sends to r+1 and receives from r-1 each step,
// then advances its clock by a small compute cost. Message-dominated, so
// events/sec isolates the engine+network hot path.
RunStats run_ring(int p, int steps, const net::TopologySpec& topo) {
  net::ClusterConfig cfg;
  cfg.nranks = p;
  cfg.cpus_per_node = 1;
  cfg.network = net::Network::kScoreGigE;
  cfg.topology = topo;
  net::ClusterNetwork net(cfg);
  sim::Engine engine(p);
  std::vector<perf::RankRecorder> recorders(static_cast<std::size_t>(p));
  std::vector<double> finish(static_cast<std::size_t>(p), 0.0);
  const auto t0 = std::chrono::steady_clock::now();
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, net, recorders[static_cast<std::size_t>(ctx.rank())]);
    const int r = ctx.rank();
    const int n = ctx.size();
    double out[8] = {static_cast<double>(r)};
    double in[8] = {};
    for (int s = 0; s < steps; ++s) {
      comm.sendrecv((r + 1) % n, 7, out, sizeof out, (r - 1 + n) % n, 7, in,
                    sizeof in);
      comm.compute(1e-6);
    }
    finish[static_cast<std::size_t>(r)] = ctx.now();
  });
  const auto t1 = std::chrono::steady_clock::now();
  RunStats st;
  st.p = p;
  st.events = engine.events_processed();
  st.switches = engine.context_switches();
  st.wall = std::chrono::duration<double>(t1 - t0).count();
  st.events_per_sec =
      st.wall > 0 ? static_cast<double>(st.events) / st.wall : 0.0;
  for (double f : finish) st.virtual_makespan = std::max(st.virtual_makespan, f);
  st.rss_mb = max_rss_mb();
  return st;
}

// Fig5-style collective patterns on one fabric.
enum class Pattern { kAllreduce, kNeighbor };

RunStats run_pattern(int p, int iters, Pattern pattern,
                     const net::TopologySpec& topo) {
  net::ClusterConfig cfg;
  cfg.nranks = p;
  cfg.cpus_per_node = 1;
  cfg.network = net::Network::kScoreGigE;
  cfg.topology = topo;
  net::ClusterNetwork net(cfg);
  sim::Engine engine(p);
  std::vector<perf::RankRecorder> recorders(static_cast<std::size_t>(p));
  std::vector<double> finish(static_cast<std::size_t>(p), 0.0);
  const auto t0 = std::chrono::steady_clock::now();
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, net, recorders[static_cast<std::size_t>(ctx.rank())]);
    const int r = ctx.rank();
    const int n = ctx.size();
    std::vector<double> data(64, static_cast<double>(r));
    std::vector<double> out(1024, static_cast<double>(r));
    std::vector<double> in(1024, 0.0);
    for (int s = 0; s < iters; ++s) {
      if (pattern == Pattern::kAllreduce) {
        comm.allreduce_sum(data.data(), data.size());
      } else {
        comm.sendrecv((r + 1) % n, 3, out.data(),
                      out.size() * sizeof(double), (r - 1 + n) % n, 3,
                      in.data(), in.size() * sizeof(double));
      }
      comm.compute(5e-6);
    }
    finish[static_cast<std::size_t>(r)] = ctx.now();
  });
  const auto t1 = std::chrono::steady_clock::now();
  RunStats st;
  st.p = p;
  st.events = engine.events_processed();
  st.switches = engine.context_switches();
  st.wall = std::chrono::duration<double>(t1 - t0).count();
  st.events_per_sec =
      st.wall > 0 ? static_cast<double>(st.events) / st.wall : 0.0;
  for (double f : finish) st.virtual_makespan = std::max(st.virtual_makespan, f);
  st.rss_mb = max_rss_mb();
  return st;
}

const char* pattern_name(Pattern p) {
  return p == Pattern::kAllreduce ? "allreduce" : "neighbor-exchange";
}

struct FabricResult {
  std::string topology;
  Pattern pattern;
  double virtual_seconds = 0.0;  // per iteration
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int steps = 64;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--steps=", 0) == 0) {
      const std::optional<int> v =
          util::parse_int(std::string_view(arg).substr(8), 1, INT_MAX);
      if (!v) {
        std::fprintf(stderr, "bad --steps value: %s\n", arg.c_str());
        std::fputs(kUsage, stdout);
        return 2;
      }
      steps = *v;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      std::fputs(kUsage, stdout);
      return 2;
    }
  }

  std::printf("DES scalability: ring sendrecv throughput vs p (fiber "
              "backend, ScoreGigE, %d steps)\n",
              steps);
  std::printf("%6s %12s %12s %9s %12s %10s %9s\n", "p", "events",
              "switches", "wall_s", "events/s", "speedup", "rss_MB");

  std::vector<RunStats> throughput;
  const std::vector<int> ps =
      smoke ? std::vector<int>{256} : std::vector<int>{512, 1024, 2048, 4096};
  for (int p : ps) {
    // Smoke runs the fat-tree so CI exercises the hop-resource path; the
    // full sweep measures the single switch (the baseline's condition).
    net::TopologySpec topo;
    if (smoke) topo = net::parse_topology_spec("fattree:radix=16,over=4");
    const RunStats st = run_ring(p, steps, topo);
    const double base = baseline_for(p);
    throughput.push_back(st);
    std::printf("%6d %12llu %12llu %9.3f %12.0f %9.2fx %9.1f\n", st.p,
                static_cast<unsigned long long>(st.events),
                static_cast<unsigned long long>(st.switches), st.wall,
                st.events_per_sec,
                base > 0 ? st.events_per_sec / base : 0.0, st.rss_mb);
    std::fflush(stdout);
  }

  std::printf("\nfabric comparison: 256 nodes, virtual seconds per "
              "iteration (simulated time, exactly reproducible)\n");
  std::printf("%-26s %-18s %14s\n", "topology", "pattern", "virt_s/iter");
  std::vector<FabricResult> fabric;
  const int fp = 256;
  const int fiters = smoke ? 4 : 8;
  const std::vector<std::string> topos =
      smoke ? std::vector<std::string>{"single", "fattree:radix=16,over=4"}
            : std::vector<std::string>{"single", "fattree:radix=16,over=1",
                                       "fattree:radix=16,over=4", "torus"};
  for (const std::string& tname : topos) {
    const net::TopologySpec topo = net::parse_topology_spec(tname);
    for (Pattern pat : {Pattern::kAllreduce, Pattern::kNeighbor}) {
      const RunStats st = run_pattern(fp, fiters, pat, topo);
      FabricResult fr;
      fr.topology = net::to_string(topo);
      fr.pattern = pat;
      fr.virtual_seconds = st.virtual_makespan / fiters;
      fabric.push_back(fr);
      std::printf("%-26s %-18s %14.6f\n", fr.topology.c_str(),
                  pattern_name(pat), fr.virtual_seconds);
      std::fflush(stdout);
    }
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(
        f,
        "  \"benchmark\": \"DES scalability (this PR): indexed ready heap + "
        "pooled fiber stacks + sparse channels; ring sendrecv, fiber "
        "backend, ScoreGigE, %d steps\",\n",
        steps);
    std::fprintf(f,
                 "  \"machine\": { \"hardware_threads\": 1, \"note\": "
                 "\"single-vCPU container, same box as the recorded "
                 "baseline\" },\n");
    std::fprintf(f,
                 "  \"baseline_note\": \"pre-change engine (O(p) ready scan, "
                 "dense p^2 channel arrays) measured on this box on the "
                 "identical workload; %.0f MB RSS at p=4096\",\n",
                 kBaselineRssMb4096);
    std::fprintf(f, "  \"throughput\": [\n");
    for (std::size_t i = 0; i < throughput.size(); ++i) {
      const RunStats& st = throughput[i];
      const double base = baseline_for(st.p);
      std::fprintf(
          f,
          "    { \"p\": %d, \"events\": %llu, \"context_switches\": %llu, "
          "\"wall_s\": %.3f, \"events_per_sec\": %.0f, "
          "\"baseline_events_per_sec\": %.0f, \"speedup\": %.2f, "
          "\"rss_mb\": %.1f }%s\n",
          st.p, static_cast<unsigned long long>(st.events),
          static_cast<unsigned long long>(st.switches), st.wall,
          st.events_per_sec, base,
          base > 0 ? st.events_per_sec / base : 0.0, st.rss_mb,
          i + 1 < throughput.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"fabric_256_nodes\": {\n    \"note\": \"virtual "
                 "seconds per iteration on 256 nodes (simulated time, "
                 "exactly reproducible); allreduce = 64 doubles, "
                 "neighbor-exchange = 8 KiB ring sendrecv\",\n"
                 "    \"results\": [\n");
    for (std::size_t i = 0; i < fabric.size(); ++i) {
      std::fprintf(f,
                   "      { \"topology\": \"%s\", \"pattern\": \"%s\", "
                   "\"virtual_s_per_iter\": %.9f }%s\n",
                   fabric[i].topology.c_str(), pattern_name(fabric[i].pattern),
                   fabric[i].virtual_seconds,
                   i + 1 < fabric.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
