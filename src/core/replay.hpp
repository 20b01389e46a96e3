// Physics once, timing many: trace-driven replay of a recorded run.
//
// Every rank program charges simulated time only through its operations
// at the mpi::Comm boundary — computation seconds and point-to-point
// messages, the messages inside the platform middleware's and SimMPI's
// collectives included — and none of those depend on the platform unless
// the program reads its own timing. So two experiments that agree on
// everything reaching the trajectory and the message stream (the physics
// class, same_physics below) issue identical operation sequences: one run
// records them per rank (perf::RankTrace), and its class-mates replay the
// traces through their own network and engine with zero-filled payloads,
// skipping the physics. core::SweepRunner applies this to sweeps;
// docs/ARCHITECTURE.md §6 states the contract.
#pragma once

#include <vector>

#include "core/experiment.hpp"
#include "mpi/comm.hpp"
#include "perf/recorder.hpp"

namespace repro::core {

// One trace per rank of a recorded run.
using CellTrace = std::vector<perf::RankTrace>;

// True when a and b share one trajectory and one operation sequence per
// rank: they agree on the whole CharmmConfig, nprocs, the middleware
// (MPI and CMPI sum in different orders) and the collective algorithms
// (the middleware and the collectives also fix the messages recorded
// inside them). Everything else in a spec (network, CPUs per node,
// network params, faults, topology, seed, power, record_timelines) only
// times the run.
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

// Issues one rank's recorded operations, in order, through `comm`.
void replay_rank(const perf::RankTrace& trace, mpi::Comm& comm);

}  // namespace repro::core
