// Grid extrapolation: the paper's closing point — "the detailed
// performance figures ... allow to derive good estimates about the
// benefits of moving applications to novel computing platforms such as
// widely distributed computers (grid)".
//
// This example sweeps the network latency/bandwidth from SAN-class to
// WAN-class while keeping the workload fixed, and reports where the
// parallel energy calculation stops beating a single processor. It uses
// the lower-level API (custom NetworkParams + hand-assembled run) rather
// than core::run_experiment, demonstrating how to model *any* platform.
#include <cstdio>

#include "charmm/app.hpp"
#include "charmm/simulation.hpp"
#include "perf/report.hpp"
#include "sim/engine.hpp"
#include "sysbuild/builder.hpp"
#include "util/table.hpp"

using namespace repro;
using repro::util::Table;

namespace {

struct PlatformPoint {
  const char* name;
  double latency;    // seconds
  double bandwidth;  // bytes/second
};

perf::RunBreakdown run_on(const sysbuild::BuiltSystem& sys,
                          const net::NetworkParams& params, int nprocs) {
  net::ClusterConfig config;
  config.nranks = nprocs;
  net::ClusterNetwork network(config, params);
  std::vector<perf::RankRecorder> recorders(
      static_cast<std::size_t>(nprocs));
  const charmm::CharmmConfig charmm_config;
  charmm::SharedRunState shared(sys, charmm_config, nprocs);
  sim::Engine engine(nprocs);
  engine.run([&](sim::RankCtx& ctx) {
    mpi::Comm comm(ctx, network,
                   recorders[static_cast<std::size_t>(ctx.rank())]);
    middleware::MpiMiddleware mw(comm);
    charmm::run_charmm_rank(sys, charmm_config, mw, shared);
  });
  return perf::aggregate(recorders, 1);
}

}  // namespace

int main() {
  std::printf("preparing the molecular system...\n");
  sysbuild::BuiltSystem sys = sysbuild::build_myoglobin_like();
  charmm::relax_system(sys, 60);

  // From the CoPs cluster to a metropolitan grid: each point keeps the
  // clean SCore-like software stack and degrades only distance/bandwidth,
  // isolating the platform question from protocol artifacts.
  const PlatformPoint points[] = {
      {"SAN (Myrinet-class)", 11e-6, 120e6},
      {"LAN (switched GigE)", 60e-6, 50e6},
      {"campus (routed)", 500e-6, 20e6},
      {"metro grid (~50 km)", 3e-3, 10e6},
      {"wide-area grid", 20e-3, 5e6},
  };

  const perf::RunBreakdown seq =
      run_on(sys, net::params_for(net::Network::kScoreGigE), 1);
  const double seq_total =
      seq.classic_wall.total() + seq.pme_wall.total();
  std::printf("sequential energy calculation: %.2f s (10 MD steps)\n\n",
              seq_total);

  Table table({"platform", "latency", "bandwidth", "procs", "total (s)",
               "speedup"});
  for (const auto& point : points) {
    net::NetworkParams params = net::params_for(net::Network::kScoreGigE);
    params.name = point.name;
    params.latency = point.latency;
    params.bandwidth = point.bandwidth;
    params.send_buffer_time = 256e3 / point.bandwidth;
    for (int p : {4, 8}) {
      const perf::RunBreakdown r = run_on(sys, params, p);
      const double total = r.classic_wall.total() + r.pme_wall.total();
      char lat[32], bw[32];
      std::snprintf(lat, sizeof(lat), "%.0f us", point.latency * 1e6);
      std::snprintf(bw, sizeof(bw), "%.0f MB/s", point.bandwidth / 1e6);
      table.add_row({point.name, lat, bw, std::to_string(p),
                     Table::num(total, 2),
                     Table::num(seq_total / total, 2)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Once latency reaches grid scale the data-parallel energy calculation\n"
      "is slower than a single workstation: on such platforms CHARMM should\n"
      "fall back to task parallelism (many independent calculations), as the\n"
      "paper concludes.\n");
  return 0;
}
