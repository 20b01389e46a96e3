// Physics once, timing many: trace-driven replay of a recorded run.
//
// Every rank program charges simulated time only through its operations
// at the Middleware/Comm boundary — computation seconds, point-to-point
// messages and the four platform-middleware calls — and none of those
// depend on the platform unless the program reads its own timing. So two
// experiments that agree on everything reaching the trajectory (the
// physics class, same_physics below) issue identical operation sequences:
// one run records them per rank (perf::RankTrace), and its class-mates
// replay the traces through their own network, middleware and engine with
// zero-filled payloads, skipping the physics. core::SweepRunner applies
// this to sweeps; docs/ARCHITECTURE.md §6 states the contract.
#pragma once

#include <vector>

#include "core/experiment.hpp"
#include "middleware/middleware.hpp"
#include "perf/recorder.hpp"

namespace repro::core {

// One trace per rank of a recorded run.
using CellTrace = std::vector<perf::RankTrace>;

// True when a and b share one trajectory and one operation sequence per
// rank: they agree on the whole CharmmConfig, nprocs, the middleware
// (MPI and CMPI sum in different orders) and the collective algorithms.
// Everything else in a spec (network, CPUs per node, network params,
// faults, topology, seed, power, record_timelines) only times the run.
bool same_physics(const ExperimentSpec& a, const ExperimentSpec& b);

// True unless the rank program reads its own simulated timing
// (charmm::timing_feeds_physics), in which case every platform cell must
// run in full.
bool replayable(const ExperimentSpec& spec);

// run_experiment that also records each rank's operations into `trace`.
// The result is identical to run_experiment's.
ExperimentResult record_experiment(const sysbuild::BuiltSystem& sys,
                                   const ExperimentSpec& spec,
                                   CellTrace& trace);

// Times `spec` by replaying `trace`, recorded by a run of the same
// physics class whose result is `recorded`. The breakdown, metrics,
// timelines and engine counters come from the replay; the energy,
// checksum, pair count and migration/balancer fields from `recorded`.
// Equal to run_experiment(sys, spec). Throws util::Error when the trace
// does not fit the cell: a rank count other than spec.nprocs, a message
// left undelivered, a receive of another size than recorded, or a rank
// that cannot consume its whole trace (it blocks, and the engine reports
// the deadlock).
ExperimentResult replay_experiment(const ExperimentSpec& spec,
                                   const CellTrace& trace,
                                   const ExperimentResult& recorded);

// Middleware decorator for a recording run: appends each platform-
// middleware call to the rank's trace and mutes the trace while the
// platform's own algorithm runs, so its internal messages are not
// recorded (the replay calls the platform middleware again).
class TracingMiddleware final : public middleware::Middleware {
 public:
  explicit TracingMiddleware(middleware::Middleware& platform)
      : Middleware(platform.comm()), platform_(platform) {}

  int rank() const override { return platform_.rank(); }
  int size() const override { return platform_.size(); }

  void global_sum(double* data, std::size_t n) override;
  void synchronize() override;
  void transpose(const void* send,
                 const std::vector<std::size_t>& send_counts,
                 const std::vector<std::size_t>& send_displs, void* recv,
                 const std::vector<std::size_t>& recv_counts,
                 const std::vector<std::size_t>& recv_displs) override;
  void broadcast(void* data, std::size_t bytes, int root) override;

 private:
  middleware::Middleware& platform_;
};

// Issues one rank's recorded operations, in order, through `mw` (the
// platform middleware) and its Comm.
void replay_rank(const perf::RankTrace& trace, middleware::Middleware& mw);

}  // namespace repro::core
