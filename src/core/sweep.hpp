// Parallel sweep execution.
//
// The paper's evaluation is a full-factorial sweep: dozens of DES runs
// (one per platform cell and processor count) that vary only timing
// factors around one workload. SweepRunner groups the cells into physics
// classes (core/replay.hpp): the first cell of a class, in submission
// order, runs in full and records its ranks' operations, and every other
// cell of the class replays that trace through its own platform instead
// of recomputing the trajectory. Cells run on a bounded thread pool, each
// with its own ClusterNetwork, recorders, engine and seeded RNG, while the
// sequential contract stays intact: every outcome equals run_experiment
// on its spec, results come back in submission order and are identical at
// any jobs count, and one failed cell reports its error without killing
// the rest of the sweep.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace repro::core {

// Short human-readable cell description ("TCP/GigE / MPI / uni-processor
// p=8"), used in progress lines and error reports. Names every factor
// that differs from the defaults, so distinct cells get distinct labels.
std::string spec_label(const ExperimentSpec& spec);

// One finished cell of a sweep. `result` is valid iff ok().
struct SweepOutcome {
  ExperimentSpec spec;
  ExperimentResult result;
  std::string error;  // what() of the exception that killed the cell
  // True when the timing was replayed from a class-mate's recording
  // instead of running the physics (the result is the same either way).
  bool replayed = false;

  bool ok() const { return error.empty(); }
};

// Called after each cell finishes. `done` counts finished cells (in
// completion order, which under jobs>1 is not submission order). The
// runner serializes callback invocations, but they may arrive on a worker
// thread — do not touch thread-affine state inside.
using SweepProgress = std::function<void(
    std::size_t done, std::size_t total, const SweepOutcome& cell)>;

class SweepRunner {
 public:
  // jobs <= 0 selects the hardware concurrency; jobs == 1 runs every cell
  // inline on the calling thread (exactly the pre-runner behaviour).
  explicit SweepRunner(int jobs = 0);

  int jobs() const { return jobs_; }

  // Runs every spec against `sys` (shared read-only across cells) and
  // returns one outcome per spec, in submission order regardless of the
  // order cells finished in. Recording and full cells run first, then the
  // replays; a class whose recording failed runs its other cells in full.
  std::vector<SweepOutcome> run(const sysbuild::BuiltSystem& sys,
                                const std::vector<ExperimentSpec>& specs,
                                const SweepProgress& progress = {}) const;

 private:
  int jobs_ = 1;
};

// Convenience for sweeps that treat any cell failure as fatal: runs the
// specs (default jobs = hardware concurrency) and either returns one
// result per spec, in order, or throws util::Error naming the first
// failed cell.
std::vector<ExperimentResult> run_experiments(
    const sysbuild::BuiltSystem& sys, const std::vector<ExperimentSpec>& specs,
    int jobs = 0, const SweepProgress& progress = {});

}  // namespace repro::core
