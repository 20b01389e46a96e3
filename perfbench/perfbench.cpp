// The repository benchmark: host wall-clock of the simulator, end to end
// and per layer.
//
// One invocation prepares the 3552-atom system, runs one workload's sweep
// cells for a fixed measuring time, checks every cell's simulated output,
// and prints its metrics; the last stdout line is one JSON object. It
// drives the library only through public entry points, so every span is
// recorded here, around a call into one of the src/ modules (layers are
// named after them). See README.md for the workloads and the metric map.
//
//   perfbench --workload factorial|scaling|serial --seed N --seconds S
//             --trace 0|1 [--reference FILE] [--trace-out FILE]
//             [--git-sha SHA]
//   perfbench --write-reference FILE
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "charmm/simulation.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "fft/fft.hpp"
#include "md/bonded.hpp"
#include "md/neighbor.hpp"
#include "md/nonbonded.hpp"
#include "middleware/middleware.hpp"
#include "mpi/comm.hpp"
#include "net/cluster.hpp"
#include "net/topology.hpp"
#include "pme/pme.hpp"
#include "sim/engine.hpp"
#include "sysbuild/builder.hpp"
#include "sysbuild/io.hpp"
#include "util/kernel.hpp"
#include "util/rng.hpp"

namespace {

using namespace repro;
using Clock = std::chrono::steady_clock;

// --seed 0 is the default seed: it builds the system every bench binary
// uses (builder seed 2002, ExperimentSpec seed 0x1234), and only its cells
// have a stored reference to match bit for bit.
constexpr std::uint64_t kDefaultSeed = 0;
constexpr std::uint64_t kBuilderSeed = 2002;
constexpr std::uint64_t kSpecSeed = 0x1234;
constexpr int kRelaxSteps = 100;
// Setup prepares this many systems, concurrently, each from its own builder
// seed, and reports the median time. Passes rotate over the systems. A pass
// of any workload inserts at least a third of each memo cache's FIFO
// capacity (12 neighbor lists, 256 bonded entries, 1024 FFT stages) or
// bypasses it, so when a system comes round again its entries are gone:
// every pass starts as cold as in a fresh bench process.
constexpr int kSystems = 3;

// Workload sizes. Each pass runs every cell of the workload once; a run
// repeats passes for --seconds and reports medians over passes.
constexpr int kFactorialSteps = 10;
constexpr int kScalingSteps = 6;  // list rebuilds (and ldb) at steps 0, 5
constexpr int kSerialSteps = 100;

// Tolerances of tests/decomposition_test.cpp.
bool energy_close(double got, double want) {
  return std::abs(got - want) <= std::abs(want) * 1e-6 + 1e-4;
}
bool checksum_close(double got, double want) {
  return std::abs(got - want) <= std::abs(want) * 1e-9;
}
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- machine fingerprint ----------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    unsigned int regs[12] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    if (first != std::string::npos) return s.substr(first);
  }
#endif
  return "unknown";
}

std::string fingerprint_json(const std::string& git_sha) {
  std::ostringstream o;
  o << "{\"nproc\": " << online_cpus() << ", \"cpu\": \""
    << json_escape(cpu_model()) << "\", \"compiler\": \""
    << json_escape(PERFBENCH_COMPILER) << "\", \"flags\": \""
    << json_escape(PERFBENCH_CXX_FLAGS) << "\", \"build_type\": \""
    << json_escape(PERFBENCH_BUILD_TYPE) << "\", \"git_sha\": \""
    << json_escape(git_sha) << "\", \"kernel\": \""
    << util::to_string(util::default_kernel_kind()) << "\", \"engine\": \""
    << sim::to_string(sim::default_engine_backend()) << "\"}";
  return o.str();
}

// Environment switches that change the measured program. The benchmark
// refuses to run under any of them rather than time a different program.
const char* const kProgramSwitches[] = {
    "REPRO_ENGINE",    "REPRO_KERNEL",      "REPRO_JOBS",
    "REPRO_NBL_CACHE", "REPRO_FFT_MEMO",    "REPRO_BONDED_MEMO",
    "REPRO_FIBER_UCONTEXT", "REPRO_FIBER_STACK_KB"};

// --- tracing ----------------------------------------------------------------

struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  int thread = 0;
  double start = 0.0;
  double end = 0.0;
};

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next++;
  return index;
}

// In-memory span recorder: name, start, end, parent span and thread. Off
// means begin() records nothing and returns -1.
class Tracer {
 public:
  explicit Tracer(Clock::time_point t0) : t0_(t0) {}

  void set_on(bool on) { on_ = on; }

  int begin(const std::string& name, int parent) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.thread = thread_index();
    s.start = seconds_since(t0_);
    std::lock_guard<std::mutex> lock(mu_);
    s.id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void end(int id) {
    if (id < 0) return;
    const double t = seconds_since(t0_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  // Single-threaded use only (after every worker has joined).
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point t0_;
  bool on_ = false;
  std::mutex mu_;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, const std::string& name, int parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ~SpanScope() { tracer_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// Self time: a span's duration minus the part of it its children cover.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, spans[i].start);
      hi = std::min(hi, spans[i].end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

// --- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  int jobs = 1;
  std::vector<core::ExperimentSpec> cells;
};

core::ExperimentSpec base_spec(std::uint64_t seed, int steps) {
  core::ExperimentSpec spec;
  spec.seed = kSpecSeed + seed;
  spec.charmm.nsteps = steps;
  spec.charmm.use_pme = true;
  return spec;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, int nproc) {
  Workload w;
  w.name = name;
  if (name == "factorial") {
    // §3.1: 12 platforms x p in {2,4,8}, atom decomposition, PME on, with
    // the sweep using every core.
    w.jobs = nproc;
    for (const core::Platform& platform : core::full_factorial()) {
      for (int p : {2, 4, 8}) {
        core::ExperimentSpec spec = base_spec(seed, kFactorialSteps);
        spec.platform = platform;
        spec.nprocs = p;
        w.cells.push_back(spec);
      }
    }
  } else if (name == "scaling") {
    // The conclusion-bench regime: Myrinet on an oversubscribed fat tree,
    // one cell at a time. p=128 runs without ldb, which needs more cells
    // than the 72 the box has.
    w.jobs = 1;
    const std::pair<int, const char*> cells[] = {
        {32, "spatial:pme=pencil:ldb=greedy"},
        {64, "spatial:pme=pencil:ldb=greedy"},
        {128, "spatial:pme=pencil"}};
    for (const auto& [p, decomp] : cells) {
      core::ExperimentSpec spec = base_spec(seed, kScalingSteps);
      spec.platform.network = net::Network::kMyrinetGM;
      spec.topology = net::parse_topology_spec("fattree:radix=16,over=4");
      spec.charmm.decomp = charmm::parse_decomp_spec(decomp);
      spec.nprocs = p;
      w.cells.push_back(spec);
    }
  } else if (name == "serial") {
    // The single-threaded baseline: p=1 on the reference platform.
    w.jobs = 1;
    core::ExperimentSpec spec = base_spec(seed, kSerialSteps);
    spec.platform = core::reference_platform();
    spec.nprocs = 1;
    w.cells.push_back(spec);
  } else {
    return std::nullopt;
  }
  return w;
}

std::string cell_key(const core::ExperimentSpec& spec) {
  std::string key = net::to_string(spec.platform.network) + "|" +
                    middleware::to_string(spec.platform.middleware) + "|cpus" +
                    std::to_string(spec.platform.cpus_per_node) + "|p" +
                    std::to_string(spec.nprocs) + "|" +
                    charmm::to_string(spec.charmm.decomp) + "|" +
                    net::to_string(spec.topology) + "|steps" +
                    std::to_string(spec.charmm.nsteps);
  std::replace(key.begin(), key.end(), ' ', '_');
  return key;
}

// --- output checks ----------------------------------------------------------

// The checked outputs of one cell: simulated times and DES/network counts
// (exact), potential energy and position checksum (within tolerance).
struct CellRecord {
  std::string key;
  double classic = 0.0;
  double pme = 0.0;
  double makespan = 0.0;
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  std::uint64_t messages = 0;
  double bytes = 0.0;
  double potential = 0.0;
  double checksum = 0.0;
};

CellRecord record_of(const core::ExperimentSpec& spec,
                     const core::ExperimentResult& r) {
  CellRecord c;
  c.key = cell_key(spec);
  c.classic = r.classic_seconds();
  c.pme = r.pme_seconds();
  c.makespan = r.metrics.makespan;
  c.events = r.engine_events;
  c.switches = r.engine_context_switches;
  for (const perf::ChannelMetrics& ch : r.metrics.channels) {
    c.messages += ch.messages;
    c.bytes += ch.bytes;
  }
  c.potential = r.energy.potential();
  c.checksum = r.position_checksum;
  return c;
}

// Empty when `got` matches `want`; otherwise names the first mismatch.
std::string compare_physics(const CellRecord& got, const CellRecord& want) {
  if (!std::isfinite(got.potential) || !energy_close(got.potential, want.potential)) {
    return "potential energy " + num(got.potential) + " vs " + num(want.potential);
  }
  if (!checksum_close(got.checksum, want.checksum)) {
    return "position checksum " + num(got.checksum) + " vs " + num(want.checksum);
  }
  return "";
}

std::string compare_full(const CellRecord& got, const CellRecord& want) {
  if (got.key != want.key) return "cell " + got.key + " vs " + want.key;
  if (!same_bits(got.classic, want.classic)) return "classic seconds differ";
  if (!same_bits(got.pme, want.pme)) return "PME seconds differ";
  if (!same_bits(got.makespan, want.makespan)) return "makespan differs";
  if (got.events != want.events) return "sim.events differ";
  if (got.switches != want.switches) return "sim.context_switches differ";
  if (got.messages != want.messages) return "net.messages differ";
  if (!same_bits(got.bytes, want.bytes)) return "net.bytes differ";
  return compare_physics(got, want);
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string reference_key(const std::string& workload, std::size_t system,
                          const std::string& cell) {
  return workload + ' ' + std::to_string(system) + ' ' + cell;
}

std::string reference_line(const std::string& workload, std::size_t system,
                           const CellRecord& c) {
  std::ostringstream o;
  o << reference_key(workload, system, c.key) << ' ' << hex(c.classic) << ' ' << hex(c.pme)
    << ' ' << hex(c.makespan) << ' ' << c.events << ' ' << c.switches << ' '
    << c.messages << ' ' << hex(c.bytes) << ' ' << hex(c.potential) << ' '
    << hex(c.checksum);
  return o.str();
}

// Reads the default-seed reference: one line per (workload, system, cell),
// '#' comments.
std::map<std::string, CellRecord> read_reference(const std::string& path) {
  std::map<std::string, CellRecord> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload, classic, pme, makespan, bytes, potential, checksum;
    std::size_t system = 0;
    CellRecord c;
    ls >> workload >> system >> c.key >> classic >> pme >> makespan >> c.events >>
        c.switches >> c.messages >> bytes >> potential >> checksum;
    if (!ls) continue;  // a malformed line leaves its cell unmatched
    c.classic = std::strtod(classic.c_str(), nullptr);
    c.pme = std::strtod(pme.c_str(), nullptr);
    c.makespan = std::strtod(makespan.c_str(), nullptr);
    c.bytes = std::strtod(bytes.c_str(), nullptr);
    c.potential = std::strtod(potential.c_str(), nullptr);
    c.checksum = std::strtod(checksum.c_str(), nullptr);
    out[reference_key(workload, system, c.key)] = c;
  }
  return out;
}

// Decides whether each cell's output is right. With the default seed the
// stored reference is the oracle. With any other seed, a cell must repeat
// its first run on the same system bit for bit, and its physics must match
// the p=1 run of that system (when the workload has one).
class Checker {
 public:
  Checker(std::string workload, std::map<std::string, CellRecord> reference)
      : workload_(std::move(workload)), reference_(std::move(reference)) {}

  // Returns true when the cell is correct; logs the reason otherwise.
  bool check(std::size_t system, const CellRecord& got,
             const std::optional<CellRecord>& p1) {
    const std::string key = reference_key(workload_, system, got.key);
    std::string why;
    if (!reference_.empty()) {
      const auto it = reference_.find(key);
      why = it != reference_.end() ? compare_full(got, it->second)
                                   : "no reference for this cell";
    } else {
      const auto [it, first] = first_.emplace(key, got);
      if (!first) why = compare_full(got, it->second);
      if (why.empty() && p1) why = compare_physics(got, *p1);
    }
    if (!why.empty()) {
      std::fprintf(stderr, "perfbench: cell %s failed its check: %s\n",
                   key.c_str(), why.c_str());
      return false;
    }
    return true;
  }

 private:
  std::string workload_;
  std::map<std::string, CellRecord> reference_;
  std::map<std::string, CellRecord> first_;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// --- setup ------------------------------------------------------------------

struct SetupTiming {
  double total_s = 0.0;
  int relax_steps = 0;
};

// Builds and relaxes kSystems systems on min(kSystems, nproc) threads.
// System 0 uses the workload's builder seed.
std::vector<sysbuild::BuiltSystem> prepare_systems(
    std::uint64_t builder_seed, Tracer& tracer,
    std::vector<SetupTiming>& timings) {
  SpanScope setup(tracer, "setup");
  timings.assign(kSystems, SetupTiming{});
  std::vector<std::optional<sysbuild::BuiltSystem>> built(kSystems);
  std::vector<std::exception_ptr> errors(kSystems);
  std::atomic<int> next{0};
  auto worker = [&] {
    for (int k = next++; k < kSystems; k = next++) {
      const auto i = static_cast<std::size_t>(k);
      try {
        const auto t0 = Clock::now();
        {
          SpanScope s(tracer, "sysbuild.build", setup.id());
          built[i].emplace(sysbuild::build_myoglobin_like(
              builder_seed + static_cast<std::uint64_t>(k) * 1000003));
        }
        {
          SpanScope s(tracer, "charmm.relax", setup.id());
          timings[i].relax_steps =
              charmm::relax_system(*built[i], kRelaxSteps).steps;
        }
        timings[i].total_s = seconds_since(t0);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const int nthreads = std::min(kSystems, online_cpus());
  std::vector<std::thread> threads;
  for (int t = 1; t < nthreads; ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<sysbuild::BuiltSystem> systems;
  for (auto& b : built) systems.push_back(std::move(*b));
  return systems;
}

// --- probe pass: kernel and comm entry points on the workload's inputs -----

constexpr int kProbeRepeats = 7;

struct ProbeContext {
  const sysbuild::BuiltSystem& sys;
  const Workload& workload;
  std::uint64_t seed;
  Tracer& tracer;
  Tally& tally;
  std::map<std::string, double>& counts;
};

void probe_kernels(ProbeContext& ctx, int parent) {
  const sysbuild::BuiltSystem& sys = ctx.sys;
  const charmm::CharmmConfig& config = ctx.workload.cells.front().charmm;
  md::NonbondedOptions opts;
  opts.cutoff = config.cutoff;
  opts.switch_on = config.switch_on;
  opts.elec = md::NonbondedOptions::Elec::kEwaldDirect;
  opts.beta = config.pme.beta;
  opts.kernel = util::default_kernel_kind();
  opts.table = md::build_pair_table(sys.topo);

  md::NeighborList nbl(config.cutoff, config.skin);
  {
    // Cold builds: nudging one coordinate per call makes every build miss
    // the neighbor-list memo, as a fresh trajectory does.
    std::vector<util::Vec3> pos = sys.positions;
    for (int i = 0; i < kProbeRepeats; ++i) {
      pos[0].x += 1e-9;
      SpanScope s(ctx.tracer, "md.neighbor_build", parent);
      nbl.build(sys.topo, sys.box, pos);
    }
  }
  nbl.build(sys.topo, sys.box, sys.positions);
  ctx.counts["md.pairs"] = static_cast<double>(nbl.npairs());
  const std::size_t pairs = nbl.npairs();
  for (int i = 0; i < kProbeRepeats; ++i) {
    // Identical inputs: every call is a memo hit.
    SpanScope s(ctx.tracer, "md.neighbor_hit", parent);
    nbl.build(sys.topo, sys.box, sys.positions);
  }
  ctx.tally.add(nbl.npairs() == pairs);

  const std::size_t n = sys.positions.size();
  std::vector<util::Vec3> forces(n);
  std::vector<double> lj;
  for (int i = 0; i < kProbeRepeats; ++i) {
    std::fill(forces.begin(), forces.end(), util::Vec3{});
    md::EnergyTerms e;
    SpanScope s(ctx.tracer, "md.nonbonded", parent);
    md::nonbonded_energy(sys.topo, sys.box, sys.positions, nbl, opts, forces,
                         e);
    lj.push_back(e.lj);
  }
  ctx.tally.add(std::isfinite(lj.front()) &&
                std::all_of(lj.begin(), lj.end(),
                            [&](double v) { return same_bits(v, lj.front()); }));

  for (int i = 0; i < kProbeRepeats; ++i) {
    // Distinct incoming forces per call, so the bonded memo never hits.
    std::fill(forces.begin(), forces.end(),
              util::Vec3{1e-12 * static_cast<double>(i + 1), 0.0, 0.0});
    md::EnergyTerms e;
    SpanScope s(ctx.tracer, "md.bonded", parent);
    md::bonded_energy(sys.topo, sys.box, sys.positions, forces, e);
  }

  pme::SerialPme pme(config.pme, sys.box, util::default_kernel_kind());
  std::vector<double> recip;
  for (int i = 0; i < kProbeRepeats; ++i) {
    std::fill(forces.begin(), forces.end(), util::Vec3{});
    SpanScope s(ctx.tracer, "pme.reciprocal", parent);
    recip.push_back(pme.reciprocal(sys.topo, sys.positions, forces));
  }
  ctx.tally.add(std::isfinite(recip.front()) &&
                std::all_of(recip.begin(), recip.end(), [&](double v) {
                  return same_bits(v, recip.front());
                }));

  fft::Fft3D plan(config.pme.nx, config.pme.ny, config.pme.nz,
                  util::default_kernel_kind());
  std::vector<fft::Complex> input(plan.volume());
  util::Rng rng(util::mix_seed(ctx.seed, 0x666674));
  for (fft::Complex& c : input) {
    c = fft::Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  }
  std::vector<fft::Complex> grid;
  for (int i = 0; i < kProbeRepeats; ++i) {
    grid = input;
    SpanScope s(ctx.tracer, "fft.fft3d", parent);
    plan.forward(grid.data());
  }
  // The k=0 coefficient of a forward transform is the plain sum.
  fft::Complex sum{};
  for (const fft::Complex& c : input) sum += c;
  ctx.tally.add(std::abs(grid[0] - sum) <= 1e-9 * static_cast<double>(input.size()));
}

// Runs `rank_main` on a fresh p-rank cluster of the workload's network.
void run_cluster(const core::ExperimentSpec& like, int p,
                 const std::function<void(mpi::Comm&)>& rank_main) {
  net::ClusterConfig config;
  config.nranks = p;
  config.network = like.platform.network;
  config.topology = like.topology;
  config.seed = like.seed;
  net::ClusterNetwork network(config, net::params_for(config.network));
  std::vector<perf::RankRecorder> recorders(static_cast<std::size_t>(p));
  sim::Engine engine(p);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, network,
                   recorders[static_cast<std::size_t>(ctx.rank())]);
    rank_main(comm);
  });
}

void probe_comm(ProbeContext& ctx, int parent) {
  const core::ExperimentSpec& like = ctx.workload.cells.front();
  const pme::PmeParams& grid = like.charmm.pme;

  // The slab FFT transpose pattern at p=64: one block per rank pair, sized
  // so the whole PME grid moves once.
  constexpr int kAllToAllRanks = 64;
  const std::size_t block =
      grid.nx * grid.ny * grid.nz * sizeof(fft::Complex) /
      (kAllToAllRanks * kAllToAllRanks);
  for (int i = 0; i < 3; ++i) {
    std::atomic<int> bad{0};
    SpanScope s(ctx.tracer, "mpi.alltoallv", parent);
    run_cluster(like, kAllToAllRanks, [&](mpi::Comm& comm) {
      const auto p = static_cast<std::size_t>(comm.size());
      std::vector<std::size_t> counts(p, block);
      std::vector<std::size_t> displs(p);
      for (std::size_t r = 0; r < p; ++r) displs[r] = r * block;
      std::vector<unsigned char> send(p * block);
      for (std::size_t r = 0; r < p; ++r) {
        std::fill_n(send.begin() + static_cast<std::ptrdiff_t>(r * block),
                    block, static_cast<unsigned char>(comm.rank() + 3 * r));
      }
      std::vector<unsigned char> recv(p * block);
      comm.alltoallv(send.data(), counts, displs, recv.data(), counts, displs);
      for (std::size_t r = 0; r < p; ++r) {
        if (recv[r * block] != static_cast<unsigned char>(
                                   r + 3 * static_cast<std::size_t>(comm.rank()))) {
          ++bad;
        }
      }
    });
    ctx.tally.add(bad == 0);
  }

  // The classic routine's force reduction at p=8: 3 doubles per atom.
  constexpr int kReduceRanks = 8;
  const std::size_t nvalues = 3 * ctx.sys.positions.size();
  for (const auto kind : {middleware::Kind::kMpi, middleware::Kind::kCmpi}) {
    const std::string name = kind == middleware::Kind::kMpi
                                 ? "middleware.mpi_allreduce"
                                 : "middleware.cmpi_allreduce";
    for (int i = 0; i < kProbeRepeats; ++i) {
      std::atomic<int> bad{0};
      SpanScope s(ctx.tracer, name, parent);
      run_cluster(like, kReduceRanks, [&](mpi::Comm& comm) {
        auto mw = middleware::make_middleware(kind, comm);
        std::vector<double> data(nvalues, static_cast<double>(comm.rank() + 1));
        mw->global_sum(data.data(), data.size());
        const double want = kReduceRanks * (kReduceRanks + 1) / 2.0;
        if (data.front() != want || data.back() != want) ++bad;
      });
      ctx.tally.add(bad == 0);
    }
  }
}

// RSYS save -> load round trip; the reload must reproduce the system
// bit for bit.
void probe_load(ProbeContext& ctx, int parent) {
  std::ostringstream original;
  sysbuild::write_system(original, ctx.sys);
  for (int i = 0; i < 3; ++i) {
    std::optional<sysbuild::BuiltSystem> loaded;
    {
      SpanScope s(ctx.tracer, "sysbuild.load", parent);
      std::ostringstream out;
      sysbuild::write_system(out, ctx.sys);
      std::istringstream in(out.str());
      loaded.emplace(sysbuild::read_system(in));
    }
    std::ostringstream again;
    sysbuild::write_system(again, *loaded);
    const bool same_positions =
        loaded->positions.size() == ctx.sys.positions.size() &&
        std::memcmp(loaded->positions.data(), ctx.sys.positions.data(),
                    ctx.sys.positions.size() * sizeof(util::Vec3)) == 0;
    ctx.tally.add(same_positions && again.str() == original.str());
  }
}

// --- the run ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string reference = "perfbench/reference.txt";
  std::string trace_out;
  std::string git_sha = "unknown";
  std::string write_reference;
};

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool traced = false;
};

// One cell run to be checked: the system it ran on and its outputs.
struct Observed {
  std::size_t system = 0;
  CellRecord record;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// The physics reference of a parallel workload: its first cell run at p=1
// (the sequential program) on the reference platform. None for workloads
// that are p=1 already.
std::optional<CellRecord> p1_reference(const sysbuild::BuiltSystem& sys,
                                       const Workload& w) {
  const bool parallel = std::any_of(
      w.cells.begin(), w.cells.end(),
      [](const core::ExperimentSpec& s) { return s.nprocs > 1; });
  if (!parallel) return std::nullopt;
  core::ExperimentSpec spec = w.cells.front();
  spec.platform = core::reference_platform();
  spec.topology = net::TopologySpec{};
  spec.charmm.decomp = charmm::DecompSpec{};
  spec.nprocs = 1;
  return record_of(spec, core::run_experiment(sys, spec));
}

std::uint64_t rank_steps(const Workload& w) {
  std::uint64_t total = 0;
  for (const core::ExperimentSpec& s : w.cells) {
    total += static_cast<std::uint64_t>(s.nprocs) *
             static_cast<std::uint64_t>(s.charmm.nsteps);
  }
  return total;
}

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                num(metrics[i].value).c_str(), metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void write_trace(const Options& opt, const std::string& fingerprint,
                 const Tracer& tracer, const std::vector<Metric>& metrics) {
  std::ofstream out(opt.trace_out);
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = self_times(spans);
  out << "{\"fingerprint\": " << fingerprint << ",\n \"workload\": \""
      << opt.workload << "\", \"seed\": " << opt.seed << ",\n \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << '"' << metrics[i].name << "\": "
        << num(metrics[i].value);
  }
  out << "},\n \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << s.id
        << ", \"name\": \"" << s.name << "\", \"parent\": " << s.parent
        << ", \"thread\": " << s.thread << ", \"start_s\": " << num(s.start)
        << ", \"end_s\": " << num(s.end) << ", \"self_s\": " << num(self[i])
        << "}";
  }
  out << "\n ]}\n";
  if (!out) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 opt.trace_out.c_str());
  }
}

int run_workload(const Options& opt, const std::string& fingerprint) {
  const auto t_start = Clock::now();
  const int nproc = online_cpus();
  const std::optional<Workload> maybe = make_workload(opt.workload, opt.seed, nproc);
  if (!maybe) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' "
                 "(factorial, scaling, serial)\n", opt.workload.c_str());
    return 2;
  }
  const Workload& w = *maybe;
  std::map<std::string, CellRecord> reference;
  if (opt.seed == kDefaultSeed) reference = read_reference(opt.reference);

  Tracer tracer(t_start);
  tracer.set_on(opt.trace);
  Tally tally;
  std::vector<SetupTiming> setups;
  const std::vector<sysbuild::BuiltSystem> systems =
      prepare_systems(kBuilderSeed + opt.seed, tracer, setups);

  // Measured phase: whole passes over the workload's cells until --seconds
  // have elapsed, pass k on system k mod kSystems. A traced run alternates
  // untraced and traced passes, so the tracing overhead is measured within
  // one process. Outputs are checked after the phase.
  const core::SweepRunner runner(w.jobs);
  std::vector<Pass> passes;
  std::vector<Observed> observed;
  std::map<std::string, double> counts;  // of the first pass (system 0)
  double untraced_s = 0.0;
  const auto t_phase = Clock::now();
  const std::size_t min_passes = opt.trace ? 2 : 1;
  double rss_mb = 0.0;  // after the first pass, so it does not grow with
                        // the number of passes that fit in --seconds
  while (passes.size() < min_passes || seconds_since(t_phase) < opt.seconds) {
    const std::size_t system = passes.size() % systems.size();
    Pass pass;
    pass.traced = opt.trace && passes.size() % 2 == 1;
    tracer.set_on(pass.traced);
    std::vector<core::SweepOutcome> outcomes;
    {
      SpanScope s(tracer, "core.sweep");
      const double cpu0 = process_cpu_seconds();
      const auto t0 = Clock::now();
      outcomes = runner.run(systems[system], w.cells);
      pass.wall_s = seconds_since(t0);
      pass.cpu_s = process_cpu_seconds() - cpu0;
    }
    if (!pass.traced) untraced_s += pass.wall_s;
    for (const core::SweepOutcome& o : outcomes) {
      if (!o.ok()) {
        std::fprintf(stderr, "perfbench: cell %s threw: %s\n",
                     cell_key(o.spec).c_str(), o.error.c_str());
        tally.add(false);
        continue;
      }
      observed.push_back({system, record_of(o.spec, o.result)});
      if (!passes.empty()) continue;
      const CellRecord& rec = observed.back().record;
      counts["sim.events"] += static_cast<double>(rec.events);
      counts["sim.context_switches"] += static_cast<double>(rec.switches);
      counts["net.messages"] += static_cast<double>(rec.messages);
      counts["net.bytes"] += rec.bytes;
    }
    passes.push_back(pass);
    if (passes.size() == 1) rss_mb = peak_rss_mb();
    std::fprintf(stderr, "perfbench: pass %zu (system %zu)%s: %.4f s wall, "
                 "%.4f s cpu\n", passes.size(), system,
                 pass.traced ? " traced" : "", pass.wall_s, pass.cpu_s);
  }
  tracer.set_on(opt.trace);

  // Traced runs also time each cell alone, on the next system in turn, and
  // run the probe pass on system 0.
  std::vector<double> cell_s;
  double cell_events = 0.0;
  if (opt.trace) {
    const std::size_t system = passes.size() % systems.size();
    for (const core::ExperimentSpec& spec : w.cells) {
      try {
        const auto t0 = Clock::now();
        std::optional<core::ExperimentResult> r;
        {
          SpanScope s(tracer, "core.cell");
          r.emplace(core::run_experiment(systems[system], spec));
        }
        cell_s.push_back(seconds_since(t0));
        cell_events += static_cast<double>(r->engine_events);
        observed.push_back({system, record_of(spec, *r)});
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: cell %s threw: %s\n",
                     cell_key(spec).c_str(), e.what());
        tally.add(false);
      }
    }
    ProbeContext ctx{systems.front(), w, opt.seed, tracer, tally, counts};
    SpanScope probe(tracer, "probe");
    probe_load(ctx, probe.id());
    probe_kernels(ctx, probe.id());
    probe_comm(ctx, probe.id());
  }

  {
    SpanScope s(tracer, "check");
    std::vector<std::optional<CellRecord>> p1(systems.size());
    if (opt.seed != kDefaultSeed) {
      std::vector<bool> used(systems.size(), false);
      for (const Observed& o : observed) used[o.system] = true;
      for (std::size_t k = 0; k < systems.size(); ++k) {
        if (used[k]) p1[k] = p1_reference(systems[k], w);
      }
    }
    Checker checker(w.name, std::move(reference));
    for (const Observed& o : observed) {
      tally.add(checker.check(o.system, o.record, p1[o.system]));
    }
  }

  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> traced_walls;
  for (const Pass& p : passes) {
    (p.traced ? traced_walls : walls).push_back(p.wall_s);
    if (!p.traced) cpus.push_back(p.cpu_s);
  }
  const double run_s = median(walls);
  std::vector<double> setup_s;
  for (const SetupTiming& t : setups) setup_s.push_back(t.total_s);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"run_s", run_s, "s"},
        {"rank_steps_per_s", static_cast<double>(rank_steps(w)) / run_s, "1/s"},
        {"cpu_s", median(cpus), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    const std::vector<Span>& spans = tracer.spans();
    const std::vector<double> self = self_times(spans);
    auto self_median = [&](const std::string& name) {
      std::vector<double> v;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name == name) v.push_back(self[i]);
      }
      return median(v);
    };
    double cell_total = 0.0;
    for (const double c : cell_s) cell_total += c;
    const double traced_run_s = median(traced_walls);
    // Share of the traced run's wall time inside top-level spans. The
    // untraced comparison passes are left out: they are untraced on
    // purpose.
    double covered = 0.0;
    for (const Span& s : spans) {
      if (s.parent < 0) covered += s.end - s.start;
    }
    const double coverage = covered / (seconds_since(t_start) - untraced_s);
    if (coverage < 0.95) {
      std::fprintf(stderr, "perfbench: spans cover only %.1f%% of the run\n",
                   100.0 * coverage);
      tally.add(false);
    }
    metrics = {
        {"sysbuild.build_s", self_median("sysbuild.build"), "s"},
        {"sysbuild.load_s", self_median("sysbuild.load"), "s"},
        {"charmm.relax_s", self_median("charmm.relax"), "s"},
        {"charmm.relax_steps", static_cast<double>(setups.front().relax_steps),
         "count"},
        {"md.neighbor_build_s", self_median("md.neighbor_build"), "s"},
        {"md.neighbor_hit_s", self_median("md.neighbor_hit"), "s"},
        {"md.nonbonded_s", self_median("md.nonbonded"), "s"},
        {"md.bonded_s", self_median("md.bonded"), "s"},
        {"md.pairs", counts["md.pairs"], "count"},
        {"pme.reciprocal_s", self_median("pme.reciprocal"), "s"},
        {"fft.fft3d_s", self_median("fft.fft3d"), "s"},
        {"sim.events", counts["sim.events"], "count"},
        {"sim.context_switches", counts["sim.context_switches"], "count"},
        {"sim.events_per_s", cell_total > 0 ? cell_events / cell_total : 0.0,
         "1/s"},
        {"net.messages", counts["net.messages"], "count"},
        {"net.bytes", counts["net.bytes"], "B"},
        {"mpi.alltoallv_s", self_median("mpi.alltoallv"), "s"},
        {"middleware.mpi_allreduce_s", self_median("middleware.mpi_allreduce"),
         "s"},
        {"middleware.cmpi_allreduce_s",
         self_median("middleware.cmpi_allreduce"), "s"},
        {"core.cell_s_p50", median(cell_s), "s"},
        {"core.cell_s_max",
         cell_s.empty() ? 0.0 : *std::max_element(cell_s.begin(), cell_s.end()),
         "s"},
        {"core.sweep_efficiency", cell_total / (w.jobs * traced_run_s),
         "ratio"},
        {"trace.overhead_s", traced_run_s - run_s, "s"},
        {"trace.coverage", coverage, "ratio"},
    };
  }

  const bool correct = tally.failed == 0;
  std::printf("perfbench %s seed=%llu passes=%zu cells/pass=%zu jobs=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              passes.size(), w.cells.size(), w.jobs);
  std::printf("  %-28s %18.6f %s\n", "fail_ratio",
              static_cast<double>(tally.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, tally.attempted)),
              "ratio");
  if (opt.trace && !opt.trace_out.empty()) {
    write_trace(opt, fingerprint, tracer, metrics);
  }
  print_result(correct, tally, metrics);
  return correct ? 0 : 1;
}

// Runs every workload's cells once on each default-seed system, checks them
// against the p=1 run of that system, and writes the reference file.
int write_reference(const std::string& path) {
  Tracer tracer(Clock::now());
  std::vector<SetupTiming> setups;
  const std::vector<sysbuild::BuiltSystem> systems =
      prepare_systems(kBuilderSeed + kDefaultSeed, tracer, setups);
  std::ostringstream out;
  out << "# perfbench reference for --seed 0 (written by perfbench "
         "--write-reference).\n"
      << "# workload system cell classic_s pme_s makespan_s events switches "
         "messages bytes potential checksum\n";
  for (const char* name : {"factorial", "scaling", "serial"}) {
    const Workload w = *make_workload(name, kDefaultSeed, online_cpus());
    Checker checker(name, {});
    for (std::size_t k = 0; k < systems.size(); ++k) {
      const std::optional<CellRecord> p1 = p1_reference(systems[k], w);
      const auto outcomes = core::SweepRunner(w.jobs).run(systems[k], w.cells);
      for (const core::SweepOutcome& o : outcomes) {
        if (!o.ok()) {
          std::fprintf(stderr, "perfbench: %s threw: %s\n",
                       cell_key(o.spec).c_str(), o.error.c_str());
          return 1;
        }
        const CellRecord rec = record_of(o.spec, o.result);
        if (!checker.check(k, rec, p1)) return 1;
        out << reference_line(name, k, rec) << '\n';
      }
    }
  }
  std::ofstream file(path);
  file << out.str();
  return file ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload factorial|scaling|serial "
               "--seed N --seconds S --trace 0|1\n"
               "                 [--reference FILE] [--trace-out FILE] "
               "[--git-sha SHA]\n"
               "       perfbench --write-reference FILE\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string value = argv[++i];
    bool ok = true;
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      ok = !value.empty() && value[0] != '-' && *end == '\0';
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      ok = !value.empty() && *end == '\0' && opt.seconds > 0.0;
    } else if (arg == "--trace") {
      opt.trace = value == "1";
      ok = value == "0" || value == "1";
    } else if (arg == "--reference") {
      opt.reference = value;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else if (arg == "--git-sha") {
      opt.git_sha = value;
    } else if (arg == "--write-reference") {
      opt.write_reference = value;
    } else {
      usage();
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", arg.c_str(),
                   value.c_str());
      return 2;
    }
  }
  for (const char* name : kProgramSwitches) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: %s is set; it changes the measured program, "
                   "so the benchmark refuses to run\n",
                   name);
      return 2;
    }
  }
  try {
    if (!opt.write_reference.empty()) return write_reference(opt.write_reference);
    if (opt.workload.empty()) {
      usage();
      return 2;
    }
    const std::string fingerprint = fingerprint_json(opt.git_sha);
    std::printf("{\"fingerprint\": %s}\n", fingerprint.c_str());
    return run_workload(opt, fingerprint);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
