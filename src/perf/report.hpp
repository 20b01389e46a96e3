// Aggregation of per-rank recorders into run-level results.
#pragma once

#include <vector>

#include "perf/recorder.hpp"
#include "util/stats.hpp"

namespace repro::perf {

// Communication-speed statistics per node (Figure 7): for every MD step and
// node, speed = bytes moved by the node's ranks / their transfer time.
struct CommSpeedStats {
  double avg_mb_per_s = 0.0;
  double min_mb_per_s = 0.0;
  double max_mb_per_s = 0.0;
  std::size_t samples = 0;
};

struct RunBreakdown {
  // Wall clock = max over ranks of the component's total (the slowest rank
  // determines the observed time, as with real wall-clock timing).
  Breakdown classic_wall;
  Breakdown pme_wall;
  // Mean over ranks, used for the percentage charts (the paper reports one
  // percentage split per configuration).
  Breakdown classic_mean;
  Breakdown pme_mean;

  Breakdown total_wall() const { return classic_wall + pme_wall; }

  CommSpeedStats comm_speed;
  double total_bytes = 0.0;
  int nranks = 1;
};

// Aggregates rank recorders; `cpus_per_node` controls how ranks are grouped
// into nodes for the per-node communication-speed statistics.
RunBreakdown aggregate(const std::vector<RankRecorder>& recorders,
                       int cpus_per_node);

}  // namespace repro::perf
