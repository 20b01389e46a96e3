// Command-line front end for the library — the shape of tool a cluster
// operator would actually run:
//
//   charmm_cluster_cli build-system [--seed N] [--out sys.rsys] [--pdb x.pdb]
//   charmm_cluster_cli run [--system sys.rsys] [--procs P] [--network N]
//                          [--middleware mpi|cmpi] [--cpus 1|2] [--steps S]
//                          [--timeline] [--trace-out=FILE]
//                          [--metrics-out=FILE] [--faults=SPEC]
//   charmm_cluster_cli predict --procs P [--network N]
//   charmm_cluster_cli sweep [--network N] [--middleware M] [--cpus C]
//                            [--jobs N] [--faults=SPEC]
//
// `run` and `sweep` build+relax the paper's system when --system is not
// given. `predict` uses the closed-form LogGP model (no simulation).
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "charmm/simulation.hpp"
#include "core/experiment.hpp"
#include "core/model.hpp"
#include "core/sweep.hpp"
#include "perf/metrics.hpp"
#include "perf/trace_export.hpp"
#include "perf/power.hpp"
#include "sysbuild/builder.hpp"
#include "sysbuild/io.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

using namespace repro;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  bool has(const std::string& key) const { return options.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  // An integer flag's value; parse() has already checked its range.
  std::uint64_t get_uint(const std::string& key,
                         std::uint64_t fallback) const {
    const auto it = options.find(key);
    return it == options.end()
               ? fallback
               : *util::parse_int<std::uint64_t>(it->second, 0, UINT64_MAX);
  }
  int get_int(const std::string& key, int fallback) const {
    return static_cast<int>(
        get_uint(key, static_cast<std::uint64_t>(fallback)));
  }
};

// The flags each command accepts. All take a value ("--key value" or
// "--key=value") except the switches in kSwitches.
const std::map<std::string, std::set<std::string>>& command_flags() {
  static const std::map<std::string, std::set<std::string>> flags{
      {"build-system", {"seed", "relax", "out", "pdb"}},
      {"run",
       {"system", "seed", "relax", "procs", "network", "middleware", "cpus",
        "steps", "pme", "decomp", "power", "faults", "topology", "timeline",
        "trace-out", "metrics-out"}},
      {"predict", {"system", "seed", "relax", "procs", "network", "decomp"}},
      {"sweep",
       {"system", "seed", "relax", "network", "middleware", "cpus", "decomp",
        "power", "faults", "topology", "jobs"}},
  };
  return flags;
}

const std::set<std::string> kSwitches{"timeline"};

// The integer flags and the values each accepts.
const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>&
integer_flags() {
  static const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
      ranges{{"seed", {0, UINT64_MAX}}, {"relax", {0, INT_MAX}},
             {"procs", {1, INT_MAX}},   {"cpus", {1, INT_MAX}},
             {"steps", {1, INT_MAX}},   {"jobs", {0, INT_MAX}}};
  return ranges;
}

// Parses argv into `args`. Returns what is wrong with the command line
// (an unknown flag, a stray argument, an unknown network or middleware),
// or "" when a known command's arguments are well formed.
std::string parse(int argc, char** argv, Args& args) {
  if (argc > 1) args.command = argv[1];
  const auto known = command_flags().find(args.command);
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return "unexpected argument '" + key + "'";
    key = key.substr(2);
    // Both --key value and --key=value are accepted.
    const std::size_t eq = key.find('=');
    std::string value = "true";
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (kSwitches.count(key) == 0 && i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    if (known != command_flags().end() && known->second.count(key) == 0) {
      return "unknown option '--" + key + "' for " + args.command;
    }
    const auto range = integer_flags().find(key);
    if (range != integer_flags().end() &&
        !util::parse_int(value, range->second.first, range->second.second)) {
      return "bad value '" + value + "' for --" + key +
             " (expected an integer in [" +
             std::to_string(range->second.first) + ", " +
             std::to_string(range->second.second) + "])";
    }
    args.options[key] = value;
  }
  if (args.has("network") && !net::parse_network(args.get("network", ""))) {
    return "unknown network '" + args.get("network", "") +
           "' (tcp, score, myrinet, faste)";
  }
  const std::string mw = args.get("middleware", "mpi");
  if (!middleware::parse_middleware(mw)) {
    return "unknown middleware '" + mw + "' (mpi, cmpi)";
  }
  return "";
}

net::Network network_of(const Args& args) {
  return *net::parse_network(args.get("network", "tcp"));
}

middleware::Kind middleware_of(const Args& args) {
  return *middleware::parse_middleware(args.get("middleware", "mpi"));
}

sysbuild::BuiltSystem obtain_system(const Args& args) {
  if (args.has("system")) {
    std::printf("loading %s...\n", args.get("system", "").c_str());
    return sysbuild::load_system(args.get("system", ""));
  }
  std::printf("building + relaxing the paper's 3552-atom system...\n");
  sysbuild::BuiltSystem sys = sysbuild::build_myoglobin_like(
      args.get_uint("seed", 2002));
  charmm::relax_system(sys, args.get_int("relax", 80));
  return sys;
}

void print_result(const core::ExperimentResult& r,
                  const core::ExperimentSpec& spec) {
  std::printf("\n%s, %d processes, %d steps, %s decomposition\n",
              spec.platform.to_string().c_str(), spec.nprocs,
              spec.charmm.nsteps,
              charmm::to_string(spec.charmm.decomp).c_str());
  auto line = [](const char* name, const perf::Breakdown& b) {
    std::printf("  %-10s %7.3f s   comp %5.1f%%  comm %5.1f%%  sync %5.1f%%\n",
                name, b.total(), 100 * b.comp / std::max(b.total(), 1e-12),
                100 * b.comm / std::max(b.total(), 1e-12),
                100 * b.sync / std::max(b.total(), 1e-12));
  };
  line("classic", r.breakdown.classic_wall);
  line("pme", r.breakdown.pme_wall);
  line("total", r.breakdown.total_wall());
  if (r.breakdown.comm_speed.samples > 0) {
    std::printf("  comm speed %.1f MB/s per node [%.1f .. %.1f]\n",
                r.breakdown.comm_speed.avg_mb_per_s,
                r.breakdown.comm_speed.min_mb_per_s,
                r.breakdown.comm_speed.max_mb_per_s);
  }
  std::printf("  potential energy %.2f kcal/mol\n", r.energy.potential());
  if (r.metrics.power.enabled) {
    const perf::PowerMetrics& pw = r.metrics.power;
    std::printf(
        "  energy to solution %.1f J (%d nodes: static %.1f J + "
        "dynamic %.1f J)\n",
        pw.total_joules(), pw.nodes, pw.static_joules, pw.dynamic_joules);
  }
  if (r.atoms_migrated > 0) {
    std::printf("  atoms migrated between domains: %zu\n", r.atoms_migrated);
  }
  if (r.metrics.faults.enabled) {
    const perf::FaultMetrics& f = r.metrics.faults;
    std::printf(
        "  faults: %llu packets lost, %llu retransmits (%.0f bytes), "
        "%.3f s injected\n",
        static_cast<unsigned long long>(f.packets_lost),
        static_cast<unsigned long long>(f.retransmits),
        f.retransmitted_bytes, f.total_delay());
    std::printf(
        "          absorbed by classic %.3f s, pme %.3f s, other %.3f s\n",
        f.absorbed_classic, f.absorbed_pme, f.absorbed_other);
  }
}

int cmd_build_system(const Args& args) {
  sysbuild::BuiltSystem sys = sysbuild::build_myoglobin_like(
      args.get_uint("seed", 2002));
  if (args.get_int("relax", 80) > 0) {
    const md::MinimizeResult res =
        charmm::relax_system(sys, args.get_int("relax", 80));
    std::printf("relaxed: E %.1f -> %.1f kcal/mol\n", res.initial_energy,
                res.final_energy);
  }
  const std::string out = args.get("out", "myoglobin_like.rsys");
  sysbuild::save_system(out, sys);
  std::printf("wrote %s (%d atoms)\n", out.c_str(), sys.topo.natoms());
  if (args.has("pdb")) {
    sysbuild::save_pdb(args.get("pdb", ""), sys);
    std::printf("wrote %s\n", args.get("pdb", "").c_str());
  }
  return 0;
}

int cmd_run(const Args& args) {
  const sysbuild::BuiltSystem sys = obtain_system(args);
  core::ExperimentSpec spec;
  spec.platform.network = network_of(args);
  spec.platform.middleware = middleware_of(args);
  spec.platform.cpus_per_node = args.get_int("cpus", 1);
  spec.nprocs = args.get_int("procs", 8);
  spec.charmm.nsteps = args.get_int("steps", 10);
  spec.charmm.use_pme = args.get("pme", "on") != "off";
  spec.charmm.decomp = charmm::parse_decomp_spec(args.get("decomp", "atom"));
  if (args.has("power")) {
    spec.power = perf::parse_power_spec(args.get("power", ""));
  }
  if (args.has("faults")) {
    spec.faults = net::parse_fault_spec(args.get("faults", ""));
  }
  if (args.has("topology")) {
    spec.topology = net::parse_topology_spec(args.get("topology", "single"));
  }
  // The Chrome trace needs the per-rank timelines recorded.
  spec.record_timelines = args.has("timeline") || args.has("trace-out");
  const core::ExperimentResult r = core::run_experiment(sys, spec);
  print_result(r, spec);
  if (args.has("timeline")) {
    std::printf("\n%s", perf::render_timelines(r.timelines).c_str());
  }
  if (args.has("trace-out")) {
    const std::string path = args.get("trace-out", "trace.json");
    perf::write_chrome_trace(path, r.timelines,
                             r.metrics.faults.enabled ? &r.metrics.faults
                                                      : nullptr);
    std::printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n",
                path.c_str());
  }
  if (args.has("metrics-out")) {
    const std::string path = args.get("metrics-out", "metrics.json");
    perf::write_metrics(path, r.metrics);
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

int cmd_predict(const Args& args) {
  const net::NetworkParams params =
      net::params_for(network_of(args));
  const int procs = args.get_int("procs", 8);
  const charmm::DecompSpec decomp =
      charmm::parse_decomp_spec(args.get("decomp", "atom"));
  core::OverheadPrediction pred;
  if (decomp.kind == charmm::DecompKind::kSpatial) {
    // Spatial halo volumes are the border-cell populations, so the
    // prediction needs the actual system, not just the atom count.
    const sysbuild::BuiltSystem sys = obtain_system(args);
    charmm::CharmmConfig config;
    config.decomp = decomp;
    pred = core::predict_step_overheads(params, procs, sys, config);
  } else {
    pred = core::predict_step_overheads(params, procs, sysbuild::kTotalAtoms,
                                        pme::PmeParams{80, 36, 48}, decomp);
  }
  std::printf(
      "analytic prediction for %s, %d processes, %s decomposition "
      "(per MD step):\n",
      params.name.c_str(), procs, charmm::to_string(decomp).c_str());
  std::printf("  classic communication : %8.2f ms\n",
              pred.classic_comm_per_step * 1e3);
  std::printf("  pme communication     : %8.2f ms\n",
              pred.pme_comm_per_step * 1e3);
  std::printf("  synchronization       : %8.2f ms\n",
              pred.sync_per_step * 1e3);
  std::printf("  total overhead        : %8.2f ms\n",
              pred.total_per_step() * 1e3);
  std::printf("  schedule: %.0f classic + %.0f pme messages/step, "
              "%.0f + %.0f bytes/step\n",
              pred.classic_messages_per_step, pred.pme_messages_per_step,
              pred.classic_bytes_per_step, pred.pme_bytes_per_step);
  if (pred.run_messages > 0.0) {
    // ldb != off: the replayed balancer trajectory gives whole-run totals
    // (every adopted epoch's per-step schedule + the rebuild events).
    std::printf("  balancer (whole run)  : %.0f messages, %.0f bytes "
                "(%.0f msgs / %.0f B at rebuilds), %.0f units moved\n",
                pred.run_messages, pred.run_bytes, pred.rebalance_messages,
                pred.rebalance_bytes, pred.units_moved);
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  const sysbuild::BuiltSystem sys = obtain_system(args);
  core::ExperimentSpec base;
  base.platform.network = network_of(args);
  base.platform.middleware = middleware_of(args);
  base.platform.cpus_per_node = args.get_int("cpus", 1);
  base.charmm.decomp = charmm::parse_decomp_spec(args.get("decomp", "atom"));
  if (args.has("power")) {
    base.power = perf::parse_power_spec(args.get("power", ""));
  }
  if (args.has("faults")) {
    base.faults = net::parse_fault_spec(args.get("faults", ""));
  }
  if (args.has("topology")) {
    base.topology = net::parse_topology_spec(args.get("topology", "single"));
  }

  std::vector<core::ExperimentSpec> specs;
  for (int p : {1, 2, 4, 8, 16}) {
    core::ExperimentSpec spec = base;
    spec.nprocs = p;
    specs.push_back(spec);
  }
  // --jobs=1 preserves the old sequential behaviour; the default (0) uses
  // one worker per hardware thread. Results are identical either way.
  const core::SweepRunner runner(args.get_int("jobs", 0));
  const auto outcomes = runner.run(
      sys, specs,
      [](std::size_t done, std::size_t total, const core::SweepOutcome& cell) {
        std::fprintf(stderr, "[sweep %zu/%zu] %s%s\n", done, total,
                     core::spec_label(cell.spec).c_str(),
                     cell.ok() ? "" : (" FAILED: " + cell.error).c_str());
      });

  util::Table table({"procs", "classic (s)", "pme (s)", "total (s)",
                     "speedup"});
  double seq = 0.0;
  for (const core::SweepOutcome& out : outcomes) {
    if (!out.ok()) {
      std::fprintf(stderr, "error: %s failed: %s\n",
                   core::spec_label(out.spec).c_str(), out.error.c_str());
      return 1;
    }
    const core::ExperimentResult& r = out.result;
    if (out.spec.nprocs == 1) seq = r.total_seconds();
    table.add_row({std::to_string(out.spec.nprocs),
                   util::Table::num(r.classic_seconds(), 2),
                   util::Table::num(r.pme_seconds(), 2),
                   util::Table::num(r.total_seconds(), 2),
                   util::Table::num(seq / r.total_seconds(), 2)});
  }
  std::printf("\n%s on %s:\n%s", base.platform.to_string().c_str(),
              "the paper's workload", table.to_string().c_str());
  return 0;
}

void usage() {
  std::printf(
      "usage: charmm_cluster_cli <command> [options]\n"
      "commands:\n"
      "  build-system  [--seed N] [--relax STEPS] [--out F.rsys] [--pdb F]\n"
      "  run           [--system F.rsys] [--procs P] [--network "
      "tcp|score|myrinet|faste]\n"
      "                [--middleware mpi|cmpi] [--cpus 1|2] [--steps S]\n"
      "                [--pme on|off]\n"
      "                [--decomp atom|force|task[:pme=N]|\n"
      "                    spatial[:grid=AxBxC][:pme=pencil[:grid=PyxPz]]\n"
      "                    [:ldb=greedy|refine|off[,units=K]]]\n"
      "                [--power=SPEC]  energy-to-solution model, e.g.\n"
      "                    'static=55,dynamic=25,phase:pme_recip=18' (watts)\n"
      "                [--timeline]\n"
      "                [--trace-out=F.json]    Chrome trace (Perfetto)\n"
      "                [--metrics-out=F.json]  resource-utilization report\n"
      "                [--faults=SPEC]         fault injection "
      "(docs/FAULTS.md), e.g.\n"
      "                    "
      "'loss=0.01,recovery=timeout;straggler=0,x=1.5;stall=1,at=0.5,dur=0.2'"
      "\n"
      "                [--topology=SPEC]       fabric between nodes:\n"
      "                    single (default) | "
      "fattree[:radix=N][,over=F] | torus[:x=N][,y=N][,z=N]\n"
      "  predict       [--procs P] [--network ...] [--decomp D]   "
      "(closed-form model;\n"
      "                    spatial builds the system to derive its halo "
      "schedule)\n"
      "  sweep         [--system F.rsys] [--network ...] [--middleware ...]"
      " [--cpus C]\n"
      "                [--decomp atom|force|task[:pme=N]|\n"
      "                    spatial[:grid=AxBxC][:pme=pencil[:grid=PyxPz]]\n"
      "                    [:ldb=greedy|refine|off[,units=K]]]\n"
      "                [--jobs N]  concurrent cells (default: hardware "
      "threads; 1 = sequential)\n"
      "                [--power=SPEC]  energy model for every cell\n"
      "                [--faults=SPEC]  fault injection for every cell\n"
      "                [--topology=SPEC]  fabric for every cell "
      "(single|fattree|torus)\n"
      "run, predict and sweep build and relax the system unless --system "
      "is given:\n"
      "                [--seed N] [--relax STEPS]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const std::string bad = parse(argc, argv, args);
  if (!bad.empty()) {
    std::fprintf(stderr, "error: %s\n", bad.c_str());
    usage();
    return 2;
  }
  try {
    if (args.command == "build-system") return cmd_build_system(args);
    if (args.command == "run") return cmd_run(args);
    if (args.command == "predict") return cmd_predict(args);
    if (args.command == "sweep") return cmd_sweep(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return args.command.empty() ? 0 : 1;
}
