#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "perf/metrics.hpp"
#include "perf/power.hpp"
#include "perf/recorder.hpp"
#include "perf/report.hpp"
#include "perf/timeline.hpp"
#include "perf/trace_export.hpp"
#include "util/error.hpp"

#include "spec_verdicts.hpp"

namespace repro::perf {
namespace {

TEST(RecorderTest, TimesAccumulatePerComponentAndKind) {
  RankRecorder rec;
  rec.set_component(Component::kClassic);
  rec.record(Kind::kComp, 1.0);
  rec.record(Kind::kComm, 0.5);
  rec.set_component(Component::kPme);
  rec.record(Kind::kComp, 2.0);
  rec.record(Kind::kSync, 0.25);

  EXPECT_DOUBLE_EQ(rec.time(Component::kClassic, Kind::kComp), 1.0);
  EXPECT_DOUBLE_EQ(rec.time(Component::kClassic, Kind::kComm), 0.5);
  EXPECT_DOUBLE_EQ(rec.time(Component::kPme, Kind::kComp), 2.0);
  EXPECT_DOUBLE_EQ(rec.time(Component::kPme, Kind::kSync), 0.25);
  EXPECT_DOUBLE_EQ(rec.time(Component::kClassic, Kind::kSync), 0.0);
}

TEST(RecorderTest, BreakdownSumsAndFractions) {
  RankRecorder rec;
  rec.set_component(Component::kClassic);
  rec.record(Kind::kComp, 3.0);
  rec.record(Kind::kComm, 1.0);
  rec.record(Kind::kSync, 1.0);
  const Breakdown b = rec.breakdown(Component::kClassic);
  EXPECT_DOUBLE_EQ(b.total(), 5.0);
  EXPECT_DOUBLE_EQ(b.overhead(), 2.0);
  EXPECT_DOUBLE_EQ(b.overhead_fraction(), 0.4);
  const Breakdown total = rec.total_breakdown();
  EXPECT_DOUBLE_EQ(total.total(), 5.0);
}

TEST(RecorderTest, RejectsNegativeTime) {
  RankRecorder rec;
  EXPECT_THROW(rec.record(Kind::kComp, -1.0), util::Error);
}

TEST(RecorderTest, StepCommSamples) {
  RankRecorder rec;
  rec.set_component(Component::kClassic);
  rec.record(Kind::kComm, 0.5);
  rec.record_bytes(5.0e6);
  rec.end_step();
  rec.record(Kind::kComm, 1.0);
  rec.record_bytes(2.0e6);
  rec.end_step();

  ASSERT_EQ(rec.steps().size(), 2u);
  EXPECT_DOUBLE_EQ(rec.steps()[0].speed_mb_per_s(), 10.0);
  EXPECT_DOUBLE_EQ(rec.steps()[1].speed_mb_per_s(), 2.0);
  EXPECT_DOUBLE_EQ(rec.total_bytes(), 7.0e6);
}

TEST(RecorderTest, SyncTimeDoesNotCountAsTransfer) {
  RankRecorder rec;
  rec.record(Kind::kSync, 2.0);
  rec.end_step();
  EXPECT_DOUBLE_EQ(rec.steps()[0].comm_time, 0.0);
}

TEST(AggregateTest, WallTakesSlowestRankPerComponent) {
  std::vector<RankRecorder> recs(2);
  recs[0].set_component(Component::kClassic);
  recs[0].record(Kind::kComp, 5.0);
  recs[1].set_component(Component::kClassic);
  recs[1].record(Kind::kComp, 3.0);
  recs[1].record(Kind::kComm, 1.0);

  const RunBreakdown rb = aggregate(recs, 1);
  // Rank 0 has the larger classic total (5 > 4): its split is reported.
  EXPECT_DOUBLE_EQ(rb.classic_wall.total(), 5.0);
  EXPECT_DOUBLE_EQ(rb.classic_wall.comm, 0.0);
  EXPECT_DOUBLE_EQ(rb.classic_mean.comp, 4.0);
  EXPECT_DOUBLE_EQ(rb.classic_mean.comm, 0.5);
  EXPECT_EQ(rb.nranks, 2);
}

TEST(AggregateTest, CommSpeedGroupsRanksByNode) {
  std::vector<RankRecorder> recs(4);
  for (auto& r : recs) {
    r.record(Kind::kComm, 1.0);
    r.record_bytes(10.0e6);
    r.end_step();
  }
  // Uni-processor: 4 node samples of 10 MB/s.
  const RunBreakdown uni = aggregate(recs, 1);
  EXPECT_EQ(uni.comm_speed.samples, 4u);
  EXPECT_DOUBLE_EQ(uni.comm_speed.avg_mb_per_s, 10.0);
  // Dual-processor: 2 node samples of 20 MB / 2 s = 10 MB/s still, but
  // only 2 samples.
  const RunBreakdown dual = aggregate(recs, 2);
  EXPECT_EQ(dual.comm_speed.samples, 2u);
  EXPECT_DOUBLE_EQ(dual.comm_speed.avg_mb_per_s, 10.0);
}

TEST(AggregateTest, EmptyCommStepsYieldNoSamples) {
  std::vector<RankRecorder> recs(1);
  recs[0].record(Kind::kComp, 1.0);
  recs[0].end_step();
  const RunBreakdown rb = aggregate(recs, 1);
  EXPECT_EQ(rb.comm_speed.samples, 0u);
}

TEST(AggregateTest, RejectsEmpty) {
  std::vector<RankRecorder> recs;
  EXPECT_THROW(aggregate(recs, 1), util::Error);
}

TEST(TimelineTest, CollectsEvents) {
  Timeline t;
  t.add(0.0, 1.0, Component::kClassic, Kind::kComp);
  t.add(1.0, 1.5, Component::kClassic, Kind::kComm);
  t.add(2.0, 2.0, Component::kPme, Kind::kSync);  // zero width: dropped
  EXPECT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t.span_end(), 1.5);
}

TEST(TimelineTest, RecorderSinkIsOptional) {
  RankRecorder rec;
  EXPECT_EQ(rec.timeline(), nullptr);
  Timeline t;
  rec.attach_timeline(&t);
  EXPECT_EQ(rec.timeline(), &t);
}

TEST(TimelineTest, RenderShowsKindsWithSeverityOrder) {
  std::vector<Timeline> rows(2);
  rows[0].add(0.0, 0.5, Component::kClassic, Kind::kComp);
  rows[0].add(0.5, 1.0, Component::kClassic, Kind::kComm);
  rows[1].add(0.0, 1.0, Component::kPme, Kind::kSync);
  RenderOptions opts;
  opts.columns = 10;
  const std::string art = render_timelines(rows, opts);
  EXPECT_NE(art.find("rank 0"), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find('='), std::string::npos);
  EXPECT_NE(art.find('~'), std::string::npos);
}

TEST(TimelineTest, RenderHandlesEmpty) {
  std::vector<Timeline> rows(1);
  EXPECT_NE(render_timelines(rows).find("empty"), std::string::npos);
}

TEST(TimelineTest, RenderWindowClips) {
  std::vector<Timeline> rows(1);
  rows[0].add(0.0, 10.0, Component::kClassic, Kind::kComp);
  rows[0].add(10.0, 20.0, Component::kClassic, Kind::kSync);
  RenderOptions opts;
  opts.columns = 10;
  opts.begin = 0.0;
  opts.end = 10.0;
  // Skip the legend line; inspect the rank rows only.
  const std::string art = render_timelines(rows, opts);
  const std::string rows_only = art.substr(art.find("rank"));
  EXPECT_NE(rows_only.find('#'), std::string::npos);
  EXPECT_EQ(rows_only.find('~'), std::string::npos);
}

TEST(RecorderTest, StallIsSyncButCountsInStepTransferTime) {
  // Back-pressure stalls are control transfer (sync column), yet they
  // elapse inside the transfer call, so Figure 7's per-step transfer time
  // keeps them in its denominator.
  RankRecorder rec;
  rec.set_component(Component::kClassic);
  rec.record(Kind::kComm, 1.0);
  rec.record_stall(0.5);
  rec.record_bytes(3.0e6);
  rec.end_step();
  EXPECT_DOUBLE_EQ(rec.time(Component::kClassic, Kind::kSync), 0.5);
  EXPECT_DOUBLE_EQ(rec.time(Component::kClassic, Kind::kComm), 1.0);
  ASSERT_EQ(rec.steps().size(), 1u);
  EXPECT_DOUBLE_EQ(rec.steps()[0].comm_time, 1.5);
  EXPECT_DOUBLE_EQ(rec.steps()[0].speed_mb_per_s(), 2.0);
}

// --- Chrome trace export ----------------------------------------------------

// Minimal structural JSON validation: braces/brackets must balance outside
// string literals, strings must terminate, escapes must be consumed.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // consume the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(TraceExportTest, BalancedJsonWithOneTrackPerRank) {
  std::vector<Timeline> rows(3);
  rows[0].add(0.0, 1.0, Component::kClassic, Kind::kComp, "compute", 0);
  rows[1].add(0.5, 2.0, Component::kPme, Kind::kComm, "send", 1);
  rows[2].add(1.0, 3.0, Component::kOther, Kind::kSync, "stall", 2);
  const std::string json = chrome_trace_json(rows);
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One thread_name metadata record per rank, using the index as the rank
  // when none was assigned.
  EXPECT_EQ(count_occurrences(json, "\"thread_name\""), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_NE(json.find("\"rank " + std::to_string(r) + "\""),
              std::string::npos);
  }
  // Kind-coded colors: comp green, comm orange, sync red.
  EXPECT_NE(json.find("\"thread_state_running\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_state_iowait\""), std::string::npos);
  EXPECT_NE(json.find("\"terrible\""), std::string::npos);
}

TEST(TraceExportTest, SlicesUseMicrosecondsAndAssignedRank) {
  std::vector<Timeline> rows(1);
  rows[0].set_rank(7);
  rows[0].add(0.5, 2.0, Component::kPme, Kind::kComm, "send", 3);
  const std::string json = chrome_trace_json(rows);
  // 0.5 s -> 500000 us, 1.5 s -> 1500000 us, on the assigned rank's track.
  EXPECT_NE(json.find("\"ts\":500000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1500000"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
  EXPECT_NE(json.find("\"rank 7\""), std::string::npos);
  EXPECT_NE(json.find("\"step\":3"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"pme,comm\""), std::string::npos);
}

TEST(TraceExportTest, SlicesAreMonotonicWithNonnegativeDurations) {
  std::vector<Timeline> rows(1);
  double t = 0.0;
  for (int i = 0; i < 20; ++i) {
    const double dt = 0.1 + 0.01 * i;
    rows[0].add(t, t + dt, Component::kClassic,
                static_cast<Kind>(i % kNumKinds));
    t += dt;
  }
  const std::string json = chrome_trace_json(rows);
  // Extract the ts series in emission order; it must be nondecreasing (one
  // track, recorded in virtual-time order) with nonnegative durations.
  std::vector<double> ts;
  std::vector<double> dur;
  for (std::size_t at = json.find("\"ts\":"); at != std::string::npos;
       at = json.find("\"ts\":", at + 1)) {
    ts.push_back(std::strtod(json.c_str() + at + 5, nullptr));
  }
  for (std::size_t at = json.find("\"dur\":"); at != std::string::npos;
       at = json.find("\"dur\":", at + 1)) {
    dur.push_back(std::strtod(json.c_str() + at + 6, nullptr));
  }
  ASSERT_EQ(ts.size(), 20u);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
  for (double d : dur) EXPECT_GE(d, 0.0);
}

TEST(TraceExportTest, EscapesHostileLabels) {
  std::vector<Timeline> rows(1);
  rows[0].add(0.0, 1.0, Component::kOther, Kind::kComp, "a\"b\\c\nd");
  const std::string json = chrome_trace_json(rows);
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos);
}

TEST(TraceExportTest, EmptyTimelinesStillValid) {
  const std::string none = chrome_trace_json({});
  EXPECT_TRUE(json_balanced(none));
  std::vector<Timeline> rows(2);  // ranks with no recorded events
  const std::string empty_rows = chrome_trace_json(rows);
  EXPECT_TRUE(json_balanced(empty_rows));
  EXPECT_EQ(count_occurrences(empty_rows, "\"thread_name\""), 2u);
  EXPECT_EQ(count_occurrences(empty_rows, "\"ph\":\"X\""), 0u);
}

// --- run metrics ------------------------------------------------------------

RunMetrics sample_metrics() {
  RunMetrics m;
  m.breakdown.nranks = 2;
  m.makespan = 10.0;
  m.resources.push_back(
      ResourceMetrics{"node0/nic_tx", 4.0, 1.0, 0.75, 4, 0.4});
  m.resources.push_back(
      ResourceMetrics{"node0/nic_rx", 2.0, 3.0, 2.0, 2, 0.2});
  m.resources.push_back(
      ResourceMetrics{"node1/nic_rx", 1.0, 0.5, 0.5, 2, 0.1});
  m.resources.push_back(ResourceMetrics{"node1/irq_cpu", 0.0, 0.0, 0.0, 0, 0.0});
  m.channels.push_back(ChannelMetrics{0, 1, 5, 5.0e6, 0.25, 1.5});
  m.channels.push_back(ChannelMetrics{1, 0, 3, 1.0e6, 0.5, 0.3});
  return m;
}

TEST(MetricsTest, DerivedSummaries) {
  const RunMetrics m = sample_metrics();
  // 4.5 s of queue wait over 8 acquisitions.
  EXPECT_DOUBLE_EQ(m.mean_queue_wait(), 4.5 / 8.0);
  EXPECT_DOUBLE_EQ(m.max_queue_wait(), 2.0);
  EXPECT_DOUBLE_EQ(m.total_stall_time(), 0.75);
  const ResourceMetrics* hot = m.incast_hot_spot();
  ASSERT_NE(hot, nullptr);
  // The most-queued inbound link wins; tx links never qualify.
  EXPECT_EQ(hot->name, "node0/nic_rx");
}

TEST(MetricsTest, HotSpotRequiresInboundTraffic) {
  RunMetrics m;
  m.resources.push_back(
      ResourceMetrics{"node0/nic_tx", 4.0, 9.0, 9.0, 4, 0.4});
  m.resources.push_back(
      ResourceMetrics{"node0/nic_rx", 0.0, 0.0, 0.0, 0, 0.0});
  EXPECT_EQ(m.incast_hot_spot(), nullptr);
  EXPECT_DOUBLE_EQ(m.total_stall_time(), 0.0);
}

TEST(MetricsTest, JsonCarriesResourcesChannelsAndSummary) {
  const std::string json = metrics_json(sample_metrics());
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"nranks\":2"), std::string::npos);
  EXPECT_NE(json.find("\"makespan_s\":10"), std::string::npos);
  EXPECT_NE(json.find("\"node0/nic_rx\""), std::string::npos);
  EXPECT_NE(json.find("\"src\":0,\"dst\":1,\"messages\":5"),
            std::string::npos);
  EXPECT_NE(json.find("\"total_stall_s\":0.75"), std::string::npos);
  EXPECT_NE(json.find("\"incast_hot_spot\""), std::string::npos);
  // Every resource appears exactly once.
  EXPECT_EQ(count_occurrences(json, "\"name\":"), 5u);  // 4 + hot-spot
}

TEST(BreakdownTest, Addition) {
  Breakdown a{1, 2, 3};
  Breakdown b{10, 20, 30};
  const Breakdown c = a + b;
  EXPECT_DOUBLE_EQ(c.comp, 11);
  EXPECT_DOUBLE_EQ(c.comm, 22);
  EXPECT_DOUBLE_EQ(c.sync, 33);
}

// --- power spec -----------------------------------------------------------

TEST(PowerSpecTest, ParsesAndRoundTrips) {
  const perf::PowerModel m =
      perf::parse_power_spec("static=55,dynamic=25.5,phase:pme_fft=18");
  EXPECT_DOUBLE_EQ(m.static_watts_per_node, 55.0);
  EXPECT_DOUBLE_EQ(m.dynamic_watts, 25.5);
  ASSERT_EQ(m.phase_watts.size(), 1u);
  EXPECT_DOUBLE_EQ(m.phase_watts.at("pme_fft"), 18.0);
  EXPECT_EQ(perf::to_string(m), "static=55,dynamic=25.5,phase:pme_fft=18");
  EXPECT_EQ(perf::to_string(perf::parse_power_spec(perf::to_string(m))),
            perf::to_string(m));
}

TEST(PowerSpecTest, RejectsGarbage) {
  EXPECT_THROW(perf::parse_power_spec(""), util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=55"), util::Error);
  EXPECT_THROW(perf::parse_power_spec("dynamic=25"), util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=55,dynamic=25,"), util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=55,dynamic=25,junk"),
               util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=55,static=1,dynamic=2"),
               util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=-5,dynamic=25"), util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=5x,dynamic=25"), util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=5,dynamic=2.5.1"), util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=5,dynamic=2,phase:=3"),
               util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=5,dynamic=2,phase:a=1,phase:a=2"),
               util::Error);
  EXPECT_THROW(perf::parse_power_spec("static=1e3,dynamic=2"), util::Error);
}

// Every accepted input with its canonical form, every refused one as
// refused.
TEST(PowerSpecTest, VerdictTable) {
  expect_verdicts(
      {
          {"static=55,dynamic=25,phase:pme_recip=18",
           "static=55,dynamic=25,phase:pme_recip=18"},
          {"dynamic=25.5,static=55", "static=55,dynamic=25.5"},
          {"static=0,dynamic=0", "static=0,dynamic=0"},
          {"static=.5,dynamic=5.", "static=0.5,dynamic=5"},
          {"static=1,dynamic=2,phase:b=1,phase:a=2",
           "static=1,dynamic=2,phase:a=2,phase:b=1"},
          {"static=0.00005,dynamic=9999999",
           "static=0.00005,dynamic=9999999"},
          {"static=1,dynamic=2,", nullptr},
          {"static=1,,dynamic=2", nullptr},
          {",static=1,dynamic=2", nullptr},
          {"", nullptr},
          {"static,dynamic=2", nullptr},
          {"static=1e3,dynamic=2", nullptr},
          {"static=1,dynamic=2,phase:=3", nullptr},
          {"static=1,dynamic=2,phase:a", nullptr},
          {"static=1,dynamic=2,phase:a=b=1", nullptr},
      },
      [](const char* text) {
        return perf::to_string(perf::parse_power_spec(text));
      });
}

}  // namespace
}  // namespace repro::perf
