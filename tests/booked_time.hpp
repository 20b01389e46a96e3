// The clock-partition check on a rank's timeline (ARCHITECTURE §2, "One
// booking per interval"): mpi::Comm books every interval of a rank's
// clock once, so the rank's timeline events are disjoint and their
// durations sum to the clock.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "perf/timeline.hpp"

namespace repro::testutil {

// The summed durations of `timeline`'s events. Fails the calling test
// where an event begins before the previous one ends.
inline double booked_span(const perf::Timeline& timeline) {
  double span = 0.0;
  double last_end = 0.0;
  const auto& events = timeline.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_GE(events[i].begin, last_end)
        << "event " << i << " (" << events[i].label
        << ") overlaps the one before it";
    span += events[i].end - events[i].begin;
    last_end = events[i].end;
  }
  return span;
}

}  // namespace repro::testutil
