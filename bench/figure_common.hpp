// Shared scaffolding for the figure-regeneration binaries.
//
// Every bench binary prepares the paper's molecular system (built
// synthetically, then relaxed), sweeps the relevant factor, and prints the
// same rows/series the corresponding figure plots. Absolute values are
// simulator output (calibrated to the paper's scale); EXPERIMENTS.md
// records the paper-vs-measured comparison.
#pragma once

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "charmm/simulation.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "sysbuild/builder.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace repro::bench {

// Figure-wide knobs, settable from the command line (parse_figure_args).
// The defaults reproduce the paper's figures exactly; the golden-file
// regression harness shortens runs with --steps to keep CI fast.
struct BenchOptions {
  int steps = 10;  // MD steps per cell (the paper's measurement runs)
  // Sweep concurrency: --jobs, else REPRO_JOBS, else 0 (SweepRunner's
  // hardware-concurrency default).
  int jobs = 0;
  // CI mode: benches with large sweeps (e.g. the conclusion's 128-rank
  // scaling study) cut their factor grids down to a fast subset that
  // still exercises every code path.
  bool smoke = false;
};

inline BenchOptions& options() {
  static BenchOptions opts;
  return opts;
}

// The integer in `text` (the value of `what`, a flag or an environment
// variable) within [lo, hi]. Anything else prints the error and `usage`
// and exits 2, before the binary prepares a system.
inline int int_value(const char* what, const std::string& text, int lo,
                     int hi, const std::string& usage) {
  const std::optional<int> v = util::parse_int(text, lo, hi);
  if (!v) {
    std::fprintf(stderr,
                 "bad %s value '%s' (expected an integer in [%d, %d])\n",
                 what, text.c_str(), lo, hi);
    std::fputs(usage.c_str(), stdout);
    std::exit(2);
  }
  return *v;
}

// The sweep concurrency REPRO_JOBS asks for (0 when unset).
inline int env_jobs(const std::string& usage) {
  const char* env = std::getenv("REPRO_JOBS");
  return env == nullptr ? 0 : int_value("REPRO_JOBS", env, 0, INT_MAX, usage);
}

// Accepts --steps=N, --jobs=N and --smoke; anything else exits 2 with the
// usage text, so a typo cannot silently produce a full-length run in CI.
inline void parse_figure_args(int argc, char** argv) {
  const std::string usage = std::string("usage: ") + argv[0] +
                            " [--steps=N] [--jobs=N] [--smoke]\n";
  options().jobs = env_jobs(usage);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--steps=", 0) == 0) {
      options().steps = int_value("--steps", arg.substr(8), 1, INT_MAX, usage);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      options().jobs = int_value("--jobs", arg.substr(7), 0, INT_MAX, usage);
    } else if (arg == "--smoke") {
      options().smoke = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      std::fputs(usage.c_str(), stdout);
      std::exit(2);
    }
  }
}

inline const sysbuild::BuiltSystem& prepared_system() {
  static const sysbuild::BuiltSystem sys = [] {
    std::fprintf(stderr,
                 "[bench] building + relaxing the 3552-atom system...\n");
    sysbuild::BuiltSystem s = sysbuild::build_myoglobin_like();
    charmm::relax_system(s, 100);
    return s;
  }();
  return sys;
}

// Worker count for the bench sweeps (BenchOptions::jobs).
inline int default_jobs() { return options().jobs; }

namespace detail {
using CellKey = std::tuple<net::Network, middleware::Kind, int, int>;

inline std::map<CellKey, core::ExperimentResult>& cell_cache() {
  static std::map<CellKey, core::ExperimentResult> cache;
  return cache;
}

inline CellKey cell_key(const core::Platform& p, int nprocs) {
  return CellKey{p.network, p.middleware, p.cpus_per_node, nprocs};
}
}  // namespace detail

// Runs every not-yet-cached cell concurrently on a SweepRunner and fills
// the cache, so the subsequent run_cached() calls (which print the figure
// in a fixed order) are pure lookups. Results are identical to sequential
// execution; only wall-clock changes.
inline void prewarm(const std::vector<std::pair<core::Platform, int>>& cells) {
  auto& cache = detail::cell_cache();
  std::vector<core::ExperimentSpec> specs;
  for (const auto& [platform, nprocs] : cells) {
    if (cache.count(detail::cell_key(platform, nprocs)) > 0) continue;
    core::ExperimentSpec spec;
    spec.platform = platform;
    spec.nprocs = nprocs;
    spec.charmm.nsteps = options().steps;
    specs.push_back(spec);
  }
  if (specs.empty()) return;
  const std::vector<core::ExperimentResult> results =
      core::run_experiments(prepared_system(), specs, default_jobs());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    cache.emplace(detail::cell_key(specs[i].platform, specs[i].nprocs),
                  results[i]);
  }
}

inline const core::ExperimentResult& run_cached(const core::Platform& p,
                                                int nprocs) {
  auto& cache = detail::cell_cache();
  auto it = cache.find(detail::cell_key(p, nprocs));
  if (it == cache.end()) {
    core::ExperimentSpec spec;
    spec.platform = p;
    spec.nprocs = nprocs;
    spec.charmm.nsteps = options().steps;
    it = cache.emplace(detail::cell_key(p, nprocs),
                       core::run_experiment(prepared_system(), spec))
             .first;
  }
  return it->second;
}

inline void print_header(const std::string& figure,
                         const std::string& caption) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), caption.c_str());
  std::printf("(%d MD steps of the 3552-atom myoglobin-like system, PME grid"
              " 80x36x48)\n",
              options().steps);
  std::printf("================================================================\n");
}

inline std::string fmt_breakdown_pct(const perf::Breakdown& b) {
  char buf[128];
  const double t = b.total() > 0 ? b.total() : 1.0;
  std::snprintf(buf, sizeof(buf), "%5.1f%% / %5.1f%% / %5.1f%%",
                100.0 * b.comp / t, 100.0 * b.comm / t, 100.0 * b.sync / t);
  return buf;
}

}  // namespace repro::bench
