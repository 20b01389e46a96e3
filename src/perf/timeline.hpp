// Per-rank virtual-time timelines.
//
// When attached to a RankRecorder, every charged interval (computation,
// data transfer, synchronization) is also stored as a timeline event with
// its virtual start/end. The renderer turns the per-rank event streams
// into an ASCII Gantt chart — the visual form of the paper's
// computation / communication / synchronization decomposition, useful for
// seeing *where* in the step the overheads sit (e.g. the two PME
// transposes vs. the final force reduction).
#pragma once

#include <string>
#include <vector>

#include "perf/recorder.hpp"

namespace repro::perf {

struct TimelineEvent {
  double begin = 0.0;
  double end = 0.0;
  Component component = Component::kOther;
  Kind kind = Kind::kComp;
  // Metadata for structured export (see perf/trace_export.hpp): the MD
  // step the interval belongs to (-1 when unknown) and a short static
  // label naming the operation ("compute", "send", "stall", "recv",
  // "handshake").
  int step = -1;
  const char* label = "";
};

class Timeline {
 public:
  void add(double begin, double end, Component c, Kind k,
           const char* label = "", int step = -1) {
    if (end > begin) {
      events_.push_back(TimelineEvent{begin, end, c, k, step, label});
    }
  }
  const std::vector<TimelineEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  double span_end() const;

  // The rank this timeline belongs to (set by whoever owns the per-rank
  // timeline vector; -1 when unassigned).
  void set_rank(int rank) { rank_ = rank; }
  int rank() const { return rank_; }

 private:
  std::vector<TimelineEvent> events_;
  int rank_ = -1;
};

struct RenderOptions {
  int columns = 100;          // characters across the time axis
  double begin = 0.0;         // time window start
  double end = -1.0;          // window end (<0: max over timelines)
};

// Renders one row per rank. Glyphs: '#' computation, '=' communication,
// '~' synchronization, '.' idle/blocked outside recorded intervals. When
// several kinds fall into one column, the most severe (sync > comm > comp)
// wins, making overhead bands stand out.
std::string render_timelines(const std::vector<Timeline>& timelines,
                             const RenderOptions& options = {});

}  // namespace repro::perf
