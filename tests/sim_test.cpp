#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "sim/resource.hpp"
#include "util/error.hpp"

namespace repro::sim {
namespace {

// The engine tests carry their integer in the packet's tag.
Packet tagged(int tag) {
  Packet packet;
  packet.tag = tag;
  return packet;
}

TEST(ResourceTest, FifoQueueing) {
  Resource r("nic");
  const Interval a = r.acquire(0.0, 2.0);
  EXPECT_DOUBLE_EQ(a.begin, 0.0);
  EXPECT_DOUBLE_EQ(a.end, 2.0);
  // Requested during occupancy: queued behind.
  const Interval b = r.acquire(1.0, 3.0);
  EXPECT_DOUBLE_EQ(b.begin, 2.0);
  EXPECT_DOUBLE_EQ(b.end, 5.0);
  EXPECT_DOUBLE_EQ(b.wait(1.0), 1.0);
  // Requested after it frees: immediate.
  const Interval c = r.acquire(10.0, 1.0);
  EXPECT_DOUBLE_EQ(c.begin, 10.0);
  EXPECT_DOUBLE_EQ(r.busy_time(), 6.0);
  EXPECT_EQ(r.acquisitions(), 3u);
}

TEST(ResourceTest, RejectsNegativeDuration) {
  Resource r;
  EXPECT_THROW(r.acquire(0.0, -1.0), util::Error);
}

TEST(ResourceTest, UtilizationCounters) {
  Resource r("nic");
  r.acquire(0.0, 1.0);  // idle: no wait
  r.acquire(0.5, 1.0);  // queued until 1.0: waits 0.5
  r.acquire(1.0, 2.0);  // queued until 2.0: waits 1.0
  EXPECT_DOUBLE_EQ(r.busy_time(), 4.0);
  EXPECT_EQ(r.acquisitions(), 3u);
  EXPECT_DOUBLE_EQ(r.queue_wait_time(), 1.5);
  EXPECT_DOUBLE_EQ(r.max_queue_wait(), 1.0);
  EXPECT_DOUBLE_EQ(r.mean_queue_wait(), 0.5);
  // 4 busy seconds over an 8-second run: half utilized.
  EXPECT_DOUBLE_EQ(r.utilization(8.0), 0.5);
  EXPECT_DOUBLE_EQ(r.utilization(0.0), 0.0);
}

TEST(ResourceTest, ResetClearsUtilizationCounters) {
  Resource r("nic");
  r.acquire(0.0, 2.0);
  r.acquire(0.0, 1.0);
  ASSERT_GT(r.queue_wait_time(), 0.0);
  r.reset();
  EXPECT_DOUBLE_EQ(r.busy_time(), 0.0);
  EXPECT_EQ(r.acquisitions(), 0u);
  EXPECT_DOUBLE_EQ(r.queue_wait_time(), 0.0);
  EXPECT_DOUBLE_EQ(r.max_queue_wait(), 0.0);
  EXPECT_DOUBLE_EQ(r.mean_queue_wait(), 0.0);
}

TEST(EngineTest, SingleRankRunsToCompletion) {
  Engine engine(1);
  double end_time = -1.0;
  engine.run([&](RankCtx& ctx) {
    ctx.advance(1.5);
    ctx.advance(0.5);
    end_time = ctx.now();
  });
  EXPECT_DOUBLE_EQ(end_time, 2.0);
}

TEST(EngineTest, MessageDeliveryWakesBlockedRank) {
  Engine engine(2);
  double received_at = -1.0;
  int received_tag = 0;
  engine.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.advance(1.0);
      ctx.checkpoint();
      ctx.post(3.0, 1, tagged(42));
    } else {
      ctx.checkpoint();
      while (ctx.inbox().empty()) ctx.block();
      received_at = ctx.now();
      received_tag = ctx.inbox().front().packet.tag;
      ctx.inbox().pop_front();
    }
  });
  EXPECT_DOUBLE_EQ(received_at, 3.0);
  EXPECT_EQ(received_tag, 42);
}

TEST(EngineTest, MinClockRankRunsFirst) {
  // Rank 1 (behind in virtual time) must observe shared state before rank 0
  // acts at a later virtual time: both post to rank 2, arrival order must
  // be by virtual send time, not thread scheduling.
  Engine engine(3);
  std::vector<int> order;
  engine.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.advance(5.0);
      ctx.checkpoint();
      ctx.post(ctx.now(), 2, tagged(100));
    } else if (ctx.rank() == 1) {
      ctx.advance(1.0);
      ctx.checkpoint();
      ctx.post(ctx.now(), 2, tagged(200));
    } else {
      ctx.checkpoint();
      while (order.size() < 2) {
        while (ctx.inbox().empty()) ctx.block();
        order.push_back(ctx.inbox().front().packet.tag);
        ctx.inbox().pop_front();
      }
    }
  });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 200);  // sent at t=1
  EXPECT_EQ(order[1], 100);  // sent at t=5
}

TEST(EngineTest, DeliveriesArriveInTimeOrder) {
  Engine engine(2);
  std::vector<double> times;
  engine.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.checkpoint();
      // Post out of order; the engine must deliver in time order.
      ctx.post(5.0, 1, tagged(1));
      ctx.post(2.0, 1, tagged(2));
      ctx.post(9.0, 1, tagged(3));
    } else {
      ctx.advance(0.5);
      ctx.checkpoint();
      while (times.size() < 3) {
        while (ctx.inbox().empty()) ctx.block();
        times.push_back(ctx.inbox().front().time);
        ctx.inbox().pop_front();
      }
    }
  });
  ASSERT_EQ(times.size(), 3u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_DOUBLE_EQ(times[0], 2.0);
}

TEST(EngineTest, EqualTimeDeliveriesKeepPostOrder) {
  // Ranks 0 and 1 take turns posting to rank 2 (post k at virtual time
  // k + 1), all for the same arrival time. Equal-time deliveries must
  // reach the inbox in global post order: the (time, seq) tie-break.
  constexpr int kPosts = 6;
  constexpr double kArrival = 10.0;
  Engine engine(3);
  std::vector<int> order;
  std::vector<double> times;
  engine.run([&](RankCtx& ctx) {
    if (ctx.rank() < 2) {
      for (int k = ctx.rank(); k < kPosts; k += 2) {
        ctx.advance(k + 1.0 - ctx.now());
        ctx.checkpoint();
        ctx.post(kArrival, 2, tagged(k));
      }
    } else {
      ctx.checkpoint();
      while (order.size() < kPosts) {
        while (ctx.inbox().empty()) ctx.block();
        order.push_back(ctx.inbox().front().packet.tag);
        times.push_back(ctx.inbox().front().time);
        ctx.inbox().pop_front();
      }
    }
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(times, std::vector<double>(kPosts, kArrival));
}

TEST(EngineTest, WokenRankClockAdvancesToArrival) {
  Engine engine(2);
  double woken_clock = -1.0;
  engine.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.advance(1.0);
      ctx.checkpoint();
      ctx.post(7.5, 1, tagged(0));
    } else {
      ctx.checkpoint();
      while (ctx.inbox().empty()) ctx.block();
      woken_clock = ctx.now();
    }
  });
  EXPECT_DOUBLE_EQ(woken_clock, 7.5);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine engine(4);
    std::vector<double> finish(4);
    engine.run([&](RankCtx& ctx) {
      // Ping-pong chain: rank r sends to r+1 after computing.
      ctx.advance(0.1 * (ctx.rank() + 1));
      ctx.checkpoint();
      if (ctx.rank() < 3) {
        ctx.post(ctx.now() + 0.05, ctx.rank() + 1, tagged(0));
      }
      if (ctx.rank() > 0) {
        while (ctx.inbox().empty()) ctx.block();
      }
      finish[static_cast<std::size_t>(ctx.rank())] = ctx.now();
    });
    return finish;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(EngineTest, DeadlockIsDetected) {
  Engine engine(2);
  EXPECT_THROW(engine.run([&](RankCtx& ctx) {
    ctx.advance(1.0);
    ctx.checkpoint();
    ctx.block();  // nobody will ever wake anyone
  }),
               util::Error);

  // Teardown leaves the engine reusable: the rerun sees fresh clocks and
  // an empty inbox.
  std::vector<double> start(2, -1.0);
  std::vector<std::size_t> leftovers(2, 1);
  engine.run([&](RankCtx& ctx) {
    start[static_cast<std::size_t>(ctx.rank())] = ctx.now();
    leftovers[static_cast<std::size_t>(ctx.rank())] = ctx.inbox().size();
  });
  EXPECT_EQ(start, (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(leftovers, (std::vector<std::size_t>{0, 0}));
}

TEST(EngineTest, RankExceptionPropagates) {
  Engine engine(3);
  EXPECT_THROW(engine.run([&](RankCtx& ctx) {
    if (ctx.rank() == 1) {
      throw util::Error("rank 1 exploded");
    }
    ctx.checkpoint();
    ctx.block();  // would deadlock, but the abort tears it down
  }),
               util::Error);
}

TEST(EngineTest, AdvanceRejectsNegative) {
  Engine engine(1);
  EXPECT_THROW(
      engine.run([&](RankCtx& ctx) { ctx.advance(-1.0); }),
      util::Error);
}

TEST(EngineTest, ManyRanksStress) {
  constexpr int kRanks = 32;
  Engine engine(kRanks);
  std::vector<int> received(kRanks, 0);
  engine.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    ctx.checkpoint();
    // Everyone sends to everyone (including a ring of dependencies).
    for (int d = 0; d < kRanks; ++d) {
      if (d != r) ctx.post(ctx.now() + 0.001 * (d + 1), d, tagged(r));
    }
    while (received[static_cast<std::size_t>(r)] < kRanks - 1) {
      while (ctx.inbox().empty()) ctx.block();
      ctx.inbox().pop_front();
      ++received[static_cast<std::size_t>(r)];
    }
  });
  for (int r = 0; r < kRanks; ++r) EXPECT_EQ(received[static_cast<std::size_t>(r)], kRanks - 1);
  EXPECT_EQ(engine.events_processed(), static_cast<std::uint64_t>(kRanks * (kRanks - 1)));
}

// Fuzz: random compute/send interleavings must execute deterministically —
// identical clocks and identical message-consumption orders across runs.
class EngineFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineFuzzTest, RandomWorkloadIsDeterministic) {
  const int nranks = GetParam();
  const int kMessages = std::min(nranks - 1, 6);
  auto run_once = [&](std::uint64_t seed) {
    Engine engine(nranks);
    std::vector<double> finish(static_cast<std::size_t>(nranks));
    std::vector<std::vector<int>> orders(static_cast<std::size_t>(nranks));
    engine.run([&](RankCtx& ctx) {
      util::Rng rng(util::mix_seed(seed, ctx.rank()));
      const int r = ctx.rank();
      // Send kMessages with random compute gaps and random network delays;
      // each rank also receives exactly kMessages (ring destinations).
      for (int k = 1; k <= kMessages; ++k) {
        ctx.advance(rng.uniform(0.0, 0.5));
        ctx.checkpoint();
        ctx.post(ctx.now() + rng.uniform(0.01, 0.3), (r + k) % nranks,
                 tagged(r * 100 + k));
      }
      for (int k = 0; k < kMessages; ++k) {
        ctx.checkpoint();
        while (ctx.inbox().empty()) ctx.block();
        orders[static_cast<std::size_t>(r)].push_back(
            ctx.inbox().front().packet.tag);
        ctx.inbox().pop_front();
      }
      finish[static_cast<std::size_t>(r)] = ctx.now();
    });
    return std::pair(finish, orders);
  };
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto a = run_once(seed);
    const auto b = run_once(seed);
    EXPECT_EQ(a.first, b.first) << "seed " << seed;
    EXPECT_EQ(a.second, b.second) << "seed " << seed;
    // Every rank consumed the full set.
    for (const auto& order : a.second) {
      EXPECT_EQ(order.size(), static_cast<std::size_t>(kMessages));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EngineFuzzTest,
                         ::testing::Values(2, 3, 5, 9, 16));

TEST(EngineTest, ContextSwitchesAreCounted) {
  Engine engine(2);
  engine.run([&](RankCtx& ctx) {
    ctx.checkpoint();
    ctx.checkpoint();
  });
  EXPECT_GE(engine.context_switches(), 4u);
}

TEST(EngineTest, RerunAfterAbortStartsClean) {
  Engine engine(3);
  // First run dies in rank 1 with a message in flight to rank 2, which
  // sits in block() at the time; the abort must unwind it.
  bool blocked_rank_unwound = false;
  EXPECT_THROW(engine.run([&](RankCtx& ctx) {
                 if (ctx.rank() == 2) {
                   try {
                     ctx.block();
                   } catch (const AbortRun&) {
                     blocked_rank_unwound = true;
                     throw;
                   }
                   return;
                 }
                 ctx.advance(1.0);
                 ctx.checkpoint();
                 if (ctx.rank() == 1) {
                   ctx.post(ctx.now() + 100.0, 2, tagged(42));
                   throw util::Error("boom");
                 }
               }),
               util::Error);
  EXPECT_TRUE(blocked_rank_unwound);

  // The rerun must not see the aborted run's event, abort flag, or error,
  // and the statistics must be this run's alone.
  std::vector<int> ran(3, 0);
  std::vector<std::size_t> leftovers(3, 0);
  engine.run([&](RankCtx& ctx) {
    ctx.advance(200.0);  // past the stale event's delivery time
    ctx.checkpoint();
    ran[static_cast<std::size_t>(ctx.rank())] = 1;
    leftovers[static_cast<std::size_t>(ctx.rank())] = ctx.inbox().size();
    EXPECT_DOUBLE_EQ(ctx.now(), 200.0);  // clocks restarted at zero
  });
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(leftovers, (std::vector<std::size_t>{0, 0, 0}));
  EXPECT_EQ(engine.events_processed(), 0u);
}

TEST(EngineTest, RerunResetsStatistics) {
  Engine engine(2);
  engine.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) ctx.post(ctx.now(), 1, tagged(1));
    ctx.checkpoint();
  });
  const std::uint64_t events_first = engine.events_processed();
  EXPECT_GE(events_first, 1u);

  // A rerun that posts nothing must report zero events, not a cumulative
  // count across runs.
  engine.run([&](RankCtx& ctx) { ctx.advance(1.0); });
  EXPECT_EQ(engine.events_processed(), 0u);
  EXPECT_LT(engine.context_switches(), 100u);
}

TEST(EngineTest, UndeliveredCountsLeftoverMessages) {
  Engine engine(2);
  // Delivered to rank 1's inbox, which rank 1 never reads.
  engine.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) ctx.post(ctx.now(), 1, tagged(7));
  });
  EXPECT_EQ(engine.undelivered(), 1u);

  // Due after every rank has finished, so it never leaves the event heap.
  engine.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) ctx.post(ctx.now() + 10.0, 1, tagged(7));
  });
  EXPECT_EQ(engine.undelivered(), 1u);

  engine.run([&](RankCtx& ctx) { ctx.advance(1.0); });
  EXPECT_EQ(engine.undelivered(), 0u);
}

TEST(EngineTest, DeadlockReportSummarizesLargeRankCounts) {
  // 20 ranks all block forever: the report must carry the state counts
  // but list only the first 8 offenders, not all 20.
  constexpr int kRanks = 20;
  Engine engine(kRanks);
  try {
    engine.run([](RankCtx& ctx) { ctx.block(); });
    FAIL() << "expected deadlock";
  } catch (const util::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("simulation deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("20 ranks: 0 ready, 20 blocked, 0 done"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("[rank 0:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[rank 7:"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("[rank 8:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(+12 more)"), std::string::npos) << msg;
  }
}

TEST(EngineTest, DeadlockReportListsAllRanksWhenFew) {
  Engine engine(2);
  try {
    engine.run([](RankCtx& ctx) { ctx.block(); });
    FAIL() << "expected deadlock";
  } catch (const util::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2 ranks: 0 ready, 2 blocked, 0 done"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("[rank 1:"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("more)"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace repro::sim
