#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "mpi/comm.hpp"
#include "net/cluster.hpp"
#include "net/faults.hpp"
#include "perf/recorder.hpp"
#include "perf/timeline.hpp"
#include "sim/engine.hpp"

#include "booked_time.hpp"
#include "byte_digest.hpp"

namespace repro::mpi {
namespace {

// Runs `body` on a simulated cluster and returns the per-rank recorders.
std::vector<perf::RankRecorder> run_cluster(
    int nranks, const std::function<void(Comm&)>& body,
    net::Network network = net::Network::kScoreGigE) {
  net::ClusterConfig config;
  config.nranks = nranks;
  config.network = network;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recorders(
      static_cast<std::size_t>(nranks));
  sim::Engine engine(nranks);
  engine.run([&](sim::RankCtx& ctx) {
    Comm comm(ctx, cluster,
              recorders[static_cast<std::size_t>(ctx.rank())]);
    body(comm);
  });
  return recorders;
}

TEST(P2PTest, SendRecvDeliversBytes) {
  run_cluster(2, [](Comm& comm) {
    const std::vector<int> data{1, 2, 3, 4, 5};
    if (comm.rank() == 0) {
      comm.send(1, 7, data.data(), data.size() * sizeof(int));
    } else {
      std::vector<int> got(5);
      const std::size_t n = comm.recv(0, 7, got.data(), 5 * sizeof(int));
      EXPECT_EQ(n, 5 * sizeof(int));
      EXPECT_EQ(got, data);
    }
  });
}

TEST(P2PTest, TagMatching) {
  run_cluster(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const int a = 10;
      const int b = 20;
      comm.send(1, /*tag=*/1, &a, sizeof(a));
      comm.send(1, /*tag=*/2, &b, sizeof(b));
    } else {
      int got = 0;
      // Receive tag 2 first even though tag 1 arrived first.
      comm.recv(0, 2, &got, sizeof(got));
      EXPECT_EQ(got, 20);
      comm.recv(0, 1, &got, sizeof(got));
      EXPECT_EQ(got, 10);
    }
  });
}

TEST(P2PTest, AnySourceMatchesEarliestArrival) {
  run_cluster(3, [](Comm& comm) {
    if (comm.rank() == 2) {
      int got = 0;
      comm.recv(kAnySource, 5, &got, sizeof(got));
      // rank 1's message was sent at an earlier virtual time.
      EXPECT_EQ(got, 111);
      comm.recv(kAnySource, 5, &got, sizeof(got));
      EXPECT_EQ(got, 222);
    } else if (comm.rank() == 1) {
      const int v = 111;
      comm.send(2, 5, &v, sizeof(v));
    } else {
      comm.compute(1.0);  // rank 0 sends much later
      const int v = 222;
      comm.send(2, 5, &v, sizeof(v));
    }
  });
}

TEST(P2PTest, ChannelFifoOrder) {
  run_cluster(2, [](Comm& comm) {
    constexpr int kN = 20;
    if (comm.rank() == 0) {
      for (int i = 0; i < kN; ++i) comm.send(1, 3, &i, sizeof(i));
    } else {
      for (int i = 0; i < kN; ++i) {
        int got = -1;
        comm.recv(0, 3, &got, sizeof(got));
        EXPECT_EQ(got, i);
      }
    }
  });
}

// A message has one owner from send to receive: copying one is a compile
// error, and moving one through the event heap cannot throw.
static_assert(!std::is_copy_constructible_v<Packet> &&
              !std::is_copy_assignable_v<Packet>);
static_assert(std::is_nothrow_move_constructible_v<Packet> &&
              std::is_nothrow_move_assignable_v<Packet>);

TEST(P2PTest, MessagesEitherSideOfInlineBoundaryArriveIntact) {
  // A message keeps up to MsgBuf::kInline (16) bytes inline and puts
  // larger ones on the heap. Ranks 0 and 1 send every size to rank 2, in
  // opposite orders, so some messages posted later arrive earlier and the
  // event heap reorders them. Each byte pattern depends on (src, size).
  const std::vector<std::size_t> sizes{0, 1, 16, 17, 4096};
  auto pattern = [](int src, std::size_t n) {
    std::vector<unsigned char> bytes(n);
    for (std::size_t i = 0; i < n; ++i) {
      bytes[i] = static_cast<unsigned char>(src * 97 + n * 13 + i * 7 + 1);
    }
    return bytes;
  };
  run_cluster(3, [&](Comm& comm) {
    const int me = comm.rank();
    if (me < 2) {
      for (std::size_t k = 0; k < sizes.size(); ++k) {
        const std::size_t i = me == 0 ? sizes.size() - 1 - k : k;
        const std::vector<unsigned char> bytes = pattern(me, sizes[i]);
        comm.send(2, static_cast<int>(i), bytes.data(), bytes.size());
      }
      return;
    }
    comm.compute(1.0);  // long after every message has arrived
    comm.ctx().checkpoint();
    // The inbox is in arrival order and posts happen in send-time order,
    // so a send time that goes down means the heap reordered two posts.
    std::vector<double> sent_at;
    for (const sim::Delivery& d : comm.ctx().inbox()) {
      sent_at.push_back(d.packet.sent_at);
    }
    ASSERT_EQ(sent_at.size(), 2 * sizes.size());
    EXPECT_FALSE(std::is_sorted(sent_at.begin(), sent_at.end()));
    // Receive in a third order: rank 1 first, largest size first.
    for (const int src : {1, 0}) {
      for (std::size_t i = sizes.size(); i-- > 0;) {
        std::vector<unsigned char> got(sizes.back() + 1, 0xee);
        got.resize(comm.recv(src, static_cast<int>(i), got.data(), got.size()));
        EXPECT_EQ(got, pattern(src, sizes[i]))
            << "src " << src << ", " << sizes[i] << " bytes";
      }
    }
  });
}

TEST(P2PTest, SelfSend) {
  run_cluster(1, [](Comm& comm) {
    const double x = 3.5;
    comm.send(0, 9, &x, sizeof(x));
    double got = 0.0;
    comm.recv(0, 9, &got, sizeof(got));
    EXPECT_DOUBLE_EQ(got, 3.5);
  });
}

TEST(P2PTest, RecvWaitIsCommunicationTime) {
  auto recs = run_cluster(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.compute(1.0);  // make the receiver wait
      const int v = 1;
      comm.send(1, 8, &v, sizeof(v));
    } else {
      int got;
      comm.recv(0, 8, &got, sizeof(got));
    }
  });
  // The receiver's blocked second shows up as communication (data-op time).
  EXPECT_GT(recs[1].time(perf::Component::kOther, perf::Kind::kComm), 0.9);
}

TEST(P2PTest, OversizeMessageRejected) {
  EXPECT_THROW(run_cluster(2,
                           [](Comm& comm) {
                             if (comm.rank() == 0) {
                               const std::vector<char> big(100);
                               comm.send(1, 1, big.data(), big.size());
                             } else {
                               char small[10];
                               comm.recv(0, 1, small, sizeof(small));
                             }
                           }),
               util::Error);
}

// --- collectives over a sweep of communicator sizes -----------------------

class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, Barrier) {
  const int p = GetParam();
  auto recs = run_cluster(p, [](Comm& comm) {
    comm.compute(0.01 * comm.rank());
    comm.barrier();
    comm.barrier();
  });
  // Barrier time is synchronization, not communication.
  for (const auto& r : recs) {
    EXPECT_EQ(r.time(perf::Component::kOther, perf::Kind::kComm), 0.0);
    if (recs.size() > 1) {
      EXPECT_GE(r.time(perf::Component::kOther, perf::Kind::kSync), 0.0);
    }
  }
}

TEST_P(CollectiveTest, BcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    run_cluster(p, [root](Comm& comm) {
      std::vector<double> data(17, comm.rank() == root ? 42.0 : 0.0);
      comm.bcast(data.data(), data.size() * sizeof(double), root);
      for (double v : data) EXPECT_DOUBLE_EQ(v, 42.0);
    });
  }
}

TEST_P(CollectiveTest, ReduceSumToRoot) {
  const int p = GetParam();
  run_cluster(p, [p](Comm& comm) {
    std::vector<double> data(8);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = comm.rank() + static_cast<double>(i) * 10.0;
    }
    comm.reduce_sum(data.data(), data.size());
    if (comm.rank() == 0) {
      const double rank_sum = p * (p - 1) / 2.0;
      for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_DOUBLE_EQ(data[i], rank_sum + p * static_cast<double>(i) * 10.0);
      }
    }
  });
}

TEST_P(CollectiveTest, AllreduceSum) {
  const int p = GetParam();
  run_cluster(p, [p](Comm& comm) {
    std::vector<double> data(33, static_cast<double>(comm.rank() + 1));
    comm.allreduce_sum(data.data(), data.size());
    const double expect = p * (p + 1) / 2.0;
    for (double v : data) EXPECT_DOUBLE_EQ(v, expect);
  });
}

TEST_P(CollectiveTest, AlltoallvPersonalized) {
  const int p = GetParam();
  run_cluster(p, [p](Comm& comm) {
    // Rank r sends value 100*r + d to rank d.
    std::vector<std::size_t> counts(static_cast<std::size_t>(p),
                                    sizeof(double));
    std::vector<std::size_t> displs(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      displs[static_cast<std::size_t>(d)] =
          static_cast<std::size_t>(d) * sizeof(double);
    }
    std::vector<double> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      send[static_cast<std::size_t>(d)] = 100.0 * comm.rank() + d;
    }
    std::vector<double> recv(static_cast<std::size_t>(p), -1.0);
    comm.alltoallv(send.data(), counts, displs, recv.data(), counts, displs);
    for (int s = 0; s < p; ++s) {
      EXPECT_DOUBLE_EQ(recv[static_cast<std::size_t>(s)],
                       100.0 * s + comm.rank());
    }
  });
}

TEST_P(CollectiveTest, ConsecutiveCollectivesDoNotInterfere) {
  const int p = GetParam();
  run_cluster(p, [](Comm& comm) {
    for (int round = 0; round < 5; ++round) {
      std::vector<double> d(3, 1.0);
      comm.allreduce_sum(d.data(), d.size());
      EXPECT_DOUBLE_EQ(d[0], static_cast<double>(comm.size()));
      comm.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

// --- algorithm variants -----------------------------------------------------

struct AlgoCase {
  AllreduceAlgorithm allreduce;
  BcastAlgorithm bcast;
  int nranks;
};

class CollectiveAlgorithmTest : public ::testing::TestWithParam<AlgoCase> {};

TEST_P(CollectiveAlgorithmTest, AllreduceCorrectAndConsistent) {
  const AlgoCase c = GetParam();
  net::ClusterConfig config;
  config.nranks = c.nranks;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(c.nranks));
  std::vector<std::vector<double>> results(
      static_cast<std::size_t>(c.nranks));
  CollectiveConfig cc;
  cc.allreduce = c.allreduce;
  cc.bcast = c.bcast;
  sim::Engine engine(c.nranks);
  engine.run([&](sim::RankCtx& ctx) {
    Comm comm(ctx, cluster, recs[static_cast<std::size_t>(ctx.rank())], cc);
    std::vector<double> v(37);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = 1.0 / (comm.rank() + 2.0) + 0.001 * static_cast<double>(i);
    }
    comm.allreduce_sum(v.data(), v.size());
    results[static_cast<std::size_t>(comm.rank())] = v;
  });
  // Numerically correct...
  double expect0 = 0.0;
  for (int r = 0; r < c.nranks; ++r) expect0 += 1.0 / (r + 2.0);
  EXPECT_NEAR(results[0][0], expect0, 1e-12);
  // ...and bit-identical on every rank (the replicated-data invariant).
  for (int r = 1; r < c.nranks; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], results[0])
        << "rank " << r;
  }
}

TEST_P(CollectiveAlgorithmTest, BcastDeliversLargePayload) {
  const AlgoCase c = GetParam();
  net::ClusterConfig config;
  config.nranks = c.nranks;
  net::ClusterNetwork cluster(config);
  std::vector<perf::RankRecorder> recs(static_cast<std::size_t>(c.nranks));
  CollectiveConfig cc;
  cc.allreduce = c.allreduce;
  cc.bcast = c.bcast;
  sim::Engine engine(c.nranks);
  engine.run([&](sim::RankCtx& ctx) {
    Comm comm(ctx, cluster, recs[static_cast<std::size_t>(ctx.rank())], cc);
    // Larger than one ring segment, not a multiple of it.
    std::vector<double> v(7013, comm.rank() == 1 ? 2.5 : 0.0);
    comm.bcast(v.data(), v.size() * sizeof(double), 1);
    for (double x : v) ASSERT_DOUBLE_EQ(x, 2.5);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, CollectiveAlgorithmTest,
    ::testing::Values(
        AlgoCase{AllreduceAlgorithm::kReduceBcast,
                 BcastAlgorithm::kBinomialTree, 8},
        AlgoCase{AllreduceAlgorithm::kRecursiveDoubling,
                 BcastAlgorithm::kBinomialTree, 8},
        AlgoCase{AllreduceAlgorithm::kRecursiveDoubling,
                 BcastAlgorithm::kBinomialTree, 6},
        AlgoCase{AllreduceAlgorithm::kRing, BcastAlgorithm::kRingPipeline, 8},
        AlgoCase{AllreduceAlgorithm::kRing, BcastAlgorithm::kRingPipeline, 5},
        AlgoCase{AllreduceAlgorithm::kRing, BcastAlgorithm::kBinomialTree,
                 3}));

// --- rendezvous protocol ----------------------------------------------------

// One run's booked time: each rank's recorder, its timeline and its clock
// when its program returned.
struct BookedRun {
  std::vector<perf::RankRecorder> recs;
  std::vector<perf::Timeline> timelines;
  std::vector<double> clocks;
};

// Runs `body` on a SCore/GigE cluster with the given rendezvous threshold
// (0: eager only) and faults, with a timeline on every rank.
BookedRun run_booked(int nranks, std::size_t rendezvous_threshold,
                     const std::function<void(Comm&)>& body,
                     const std::string& faults = "") {
  net::ClusterConfig config;
  config.nranks = nranks;
  config.network = net::Network::kScoreGigE;
  net::NetworkParams params = net::params_for(config.network);
  params.rendezvous_threshold = rendezvous_threshold;
  net::ClusterNetwork cluster(config, params, net::parse_fault_spec(faults));
  const auto n = static_cast<std::size_t>(nranks);
  BookedRun run{std::vector<perf::RankRecorder>(n),
                std::vector<perf::Timeline>(n), std::vector<double>(n)};
  for (std::size_t r = 0; r < n; ++r) {
    run.recs[r].attach_timeline(&run.timelines[r]);
  }
  sim::Engine engine(nranks);
  engine.run([&](sim::RankCtx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    Comm comm(ctx, cluster, run.recs[r]);
    body(comm);
    run.clocks[r] = comm.now();
  });
  return run;
}

TEST(RendezvousTest, LargeMessageDeliveredCorrectly) {
  run_booked(2, 1024, [](Comm& comm) {
    std::vector<double> data(1000, 1.5);  // 8000 bytes > threshold
    if (comm.rank() == 0) {
      comm.send(1, 5, data.data(), data.size() * sizeof(double));
    } else {
      std::vector<double> got(1000);
      comm.recv(0, 5, got.data(), got.size() * sizeof(double));
      EXPECT_EQ(got, data);
    }
  });
}

TEST(RendezvousTest, HandshakeAddsRoundTrip) {
  auto elapsed_with = [](std::size_t threshold) {
    double sender_end = 0.0;
    run_booked(2, threshold, [&](Comm& comm) {
      std::vector<double> data(10000);
      if (comm.rank() == 0) {
        comm.send(1, 5, data.data(), data.size() * sizeof(double));
        sender_end = comm.now();
      } else {
        comm.compute(0.5);  // receiver enters MPI late
        std::vector<double> got(10000);
        comm.recv(0, 5, got.data(), got.size() * sizeof(double));
      }
    });
    return sender_end;
  };
  // Eager: the sender fires and forgets. Rendezvous: it must wait for the
  // receiver to reach the library and answer the RTS.
  const double eager = elapsed_with(0);
  const double rndv = elapsed_with(1024);
  EXPECT_GT(rndv, 0.4);
  EXPECT_LT(eager, 0.1);
}

TEST(RendezvousTest, SymmetricExchangeDoesNotDeadlock) {
  run_booked(4, 64, [](Comm& comm) {
    // Everyone sends a large message to everyone else simultaneously.
    const int p = comm.size();
    std::vector<double> data(500, static_cast<double>(comm.rank()));
    for (int k = 1; k < p; ++k) {
      comm.send((comm.rank() + k) % p, 9, data.data(),
                data.size() * sizeof(double));
    }
    std::vector<double> got(500);
    for (int k = 1; k < p; ++k) {
      const int src = (comm.rank() - k + p) % p;
      comm.recv(src, 9, got.data(), got.size() * sizeof(double));
      EXPECT_DOUBLE_EQ(got[0], static_cast<double>(src));
    }
  });
}

TEST(RendezvousTest, CollectivesStillCorrect) {
  run_booked(8, 128, [](Comm& comm) {
    std::vector<double> v(200, 1.0);
    comm.allreduce_sum(v.data(), v.size());
    for (double x : v) ASSERT_DOUBLE_EQ(x, 8.0);
    comm.barrier();
    std::vector<double> b(512, comm.rank() == 2 ? 7.0 : 0.0);
    comm.bcast(b.data(), b.size() * sizeof(double), 2);
    EXPECT_DOUBLE_EQ(b[511], 7.0);
  });
}

TEST(RendezvousTest, SmallMessagesStayEager) {
  run_booked(2, 1 << 20, [](Comm& comm) {
    // Below threshold: no handshake, sender returns immediately.
    double x = 1.0;
    if (comm.rank() == 0) {
      comm.send(1, 3, &x, sizeof(x));
      EXPECT_LT(comm.now(), 1e-3);
    } else {
      comm.compute(0.2);
      comm.recv(0, 3, &x, sizeof(x));
    }
  });
}

TEST(RendezvousTest, MalformedClearToSendRejected) {
  // Regression: a corrupt packet on the CTS control tag (null payload)
  // used to be memcpy'd without validation. The protocol layer must
  // reject it instead of dereferencing it.
  run_booked(2, 1024, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.ctx().checkpoint();
      // Forge a corrupt CTS from rank 1 into our own inbox; the
      // rendezvous send below scans the control channel and must reject
      // it before reading the payload.
      comm.ctx().post(comm.now(), 0,
                      Packet{1, Comm::kCtsTag, MsgBuf{}, 0.0, 0.0});
      std::vector<double> data(1000);
      EXPECT_THROW(
          comm.send(1, 5, data.data(), data.size() * sizeof(double)),
          util::Error);
    }
  });
}

TEST(AccountingTest, SenderBackPressureStallIsSynchronization) {
  // Regression: back-to-back eager 1 MB sends overrun the socket-buffer
  // window, so the sender blocks while the NIC queue drains. That blocked
  // time is control transfer and must land in the sync column — but it
  // elapses inside the send call, so it still counts toward the step's
  // transfer time (the denominator of Figure 7's per-node speed).
  const BookedRun run = run_booked(2, /*eager=*/0, [](Comm& comm) {
    std::vector<char> big(1 << 20);
    if (comm.rank() == 0) {
      for (int i = 0; i < 6; ++i) comm.send(1, 1, big.data(), big.size());
      comm.recorder().end_step();
    } else {
      for (int i = 0; i < 6; ++i) comm.recv(0, 1, big.data(), big.size());
    }
  });
  const double sync =
      run.recs[0].time(perf::Component::kOther, perf::Kind::kSync);
  const double comm_t =
      run.recs[0].time(perf::Component::kOther, perf::Kind::kComm);
  EXPECT_GT(sync, 0.0);  // pre-fix, stalls were booked as communication
  ASSERT_EQ(run.recs[0].steps().size(), 1u);
  EXPECT_NEAR(run.recs[0].steps()[0].comm_time, comm_t + sync, 1e-12);
}

TEST(AccountingTest, BytesCountedOnDataOpsOnly) {
  auto recs = run_cluster(2, [](Comm& comm) {
    std::vector<double> d(1000, 1.0);
    comm.allreduce_sum(d.data(), d.size());
    comm.barrier();  // sync traffic must not count as data bytes
  });
  EXPECT_GT(recs[0].total_bytes(), 0.0);
  // Each rank moves ~8000 bytes once or twice; far below 1 MB.
  EXPECT_LT(recs[0].total_bytes(), 1e6);
}

TEST(AccountingTest, SelfSendBooksNoFigure7Bytes) {
  // A self-send is a local copy, not network traffic: neither the send nor
  // the matching receive may contribute to the Figure-7 byte totals.
  auto recs = run_cluster(1, [](Comm& comm) {
    std::vector<double> d(64, 1.0);
    comm.send(0, 3, d.data(), d.size() * sizeof(double));
    std::vector<double> got(64);
    const std::size_t n =
        comm.recv(0, 3, got.data(), got.size() * sizeof(double));
    EXPECT_EQ(n, 64 * sizeof(double));
    EXPECT_EQ(got, d);
  });
  EXPECT_DOUBLE_EQ(recs[0].total_bytes(), 0.0);
}

TEST(AccountingTest, CrossRankBytesSymmetric) {
  // Send and receive sides of a cross-rank transfer book the same bytes.
  auto recs = run_cluster(2, [](Comm& comm) {
    std::vector<unsigned char> buf(128, 7);
    if (comm.rank() == 0) {
      comm.send(1, 9, buf.data(), buf.size());
    } else {
      comm.recv(0, 9, buf.data(), buf.size());
    }
  });
  EXPECT_DOUBLE_EQ(recs[0].total_bytes(), 128.0);
  EXPECT_DOUBLE_EQ(recs[1].total_bytes(), 128.0);
}

TEST(AccountingTest, ComputeChargesActiveComponent) {
  auto recs = run_cluster(1, [](Comm& comm) {
    comm.recorder().set_component(perf::Component::kPme);
    comm.compute(2.5);
    comm.recorder().set_component(perf::Component::kClassic);
    comm.compute(1.0);
  });
  EXPECT_DOUBLE_EQ(recs[0].time(perf::Component::kPme, perf::Kind::kComp),
                   2.5);
  EXPECT_DOUBLE_EQ(
      recs[0].time(perf::Component::kClassic, perf::Kind::kComp), 1.0);
}

// --- booked time -------------------------------------------------------------

// A rank program that reaches every booking site over two steps: compute
// under two components, an exchange under a phase label, a self-send,
// back-pressured sends, SyncScope traffic, a barrier and an allreduce.
void booked_program(Comm& comm) {
  perf::RankRecorder& rec = comm.recorder();
  const int p = comm.size();
  const int r = comm.rank();
  std::vector<double> data(300, 1.0 + r);
  std::vector<double> got(300);
  std::vector<char> big(1 << 20);
  const std::size_t bytes = data.size() * sizeof(double);
  for (int step = 0; step < 2; ++step) {
    rec.set_component(perf::Component::kClassic);
    comm.compute(1e-4 * (r + 1));
    {
      perf::PhaseScope phase(rec, "halo");
      comm.sendrecv((r + 1) % p, 3, data.data(), bytes, (r - 1 + p) % p, 3,
                    got.data(), bytes);
    }
    comm.send(r, 4, data.data(), bytes);
    comm.recv(r, 4, got.data(), bytes);
    // Back-to-back 1 MB sends overrun the socket window: sender stalls.
    for (int i = 0; i < 4; ++i) {
      comm.send((r + 1) % p, 6, big.data(), big.size());
    }
    for (int i = 0; i < 4; ++i) {
      comm.recv((r - 1 + p) % p, 6, big.data(), big.size());
    }
    rec.set_component(perf::Component::kPme);
    comm.compute(2e-4);
    {
      Comm::SyncScope sync(comm);
      comm.send((r + 2) % p, 5, data.data(), bytes);
      comm.recv((r - 2 + p) % p, 5, got.data(), bytes);
    }
    comm.barrier();
    comm.allreduce_sum(data.data(), data.size());
    rec.end_step();
  }
}

// One rank's booked time as a digest: its final clock, every timeline
// event (bounds, component, kind, step, label) and every recorder sum
// (the breakdown, the per-step transfer samples, the phase times).
std::string booked_digest(const BookedRun& run, std::size_t r) {
  using testutil::fnv1a;
  std::uint64_t h = fnv1a(&run.clocks[r], sizeof(double));
  for (const perf::TimelineEvent& e : run.timelines[r].events()) {
    const int fields[] = {static_cast<int>(e.component),
                          static_cast<int>(e.kind), e.step};
    h = fnv1a(&e.begin, sizeof e.begin, h);
    h = fnv1a(&e.end, sizeof e.end, h);
    h = fnv1a(fields, sizeof fields, h);
    h = fnv1a(e.label, std::strlen(e.label) + 1, h);
  }
  const perf::RankRecorder& rec = run.recs[r];
  for (int c = 0; c < perf::kNumComponents; ++c) {
    for (int k = 0; k < perf::kNumKinds; ++k) {
      const double t =
          rec.time(static_cast<perf::Component>(c), static_cast<perf::Kind>(k));
      h = fnv1a(&t, sizeof t, h);
    }
  }
  for (const perf::StepComm& s : rec.steps()) {
    h = fnv1a(&s, sizeof s, h);
  }
  for (const auto& [name, t] : rec.phase_times()) {
    h = fnv1a(name.c_str(), name.size() + 1, h);
    h = fnv1a(&t, sizeof t, h);
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, h);
  return buf;
}

// Eager runs book their time bit for bit as pinned here: each rank's
// events, recorder sums and clock, plain and with perturbed compute (a
// noisy straggler and a node stall).
TEST(BookedTimeTest, EagerBookingBitsPinned) {
  const struct {
    const char* faults;
    std::vector<std::string> digests;
  } cases[] = {
      {"", {"0xbaa698ab979d281a", "0x752289c69d6bc357", "0x59c7822d9a66e519",
            "0x46931a0987f2e8c9"}},
      {"straggler=1,x=1.5,period=2e-4,dur=3e-5;stall=2,at=1e-4,dur=2e-4",
       {"0x9b9c79b6fa279685", "0xbbbee9b52efee4fe", "0xb766fe73c985abef",
        "0xa2623a9a4b64bd04"}},
  };
  std::set<std::string> labels;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.faults);
    const BookedRun run = run_booked(4, 0, booked_program, c.faults);
    std::vector<std::string> got;
    for (std::size_t r = 0; r < run.recs.size(); ++r) {
      got.push_back(booked_digest(run, r));
      for (const perf::TimelineEvent& e : run.timelines[r].events()) {
        labels.insert(e.label);
      }
    }
    EXPECT_EQ(got, c.digests);
  }
  // The pins cover every eager booking site.
  EXPECT_EQ(labels, (std::set<std::string>{"compute", "copy", "halo",
                                           "os_noise", "recv", "send",
                                           "stall"}));
}

// Booked time partitions each rank's clock: the recorder total equals the
// final clock, and the timeline's events are disjoint and sum to it. A
// rendezvous handshake serviced inside a wait is booked once, as its own
// interval.
TEST(RendezvousTest, TimelinesCoverEveryBooking) {
  const auto all_to_all = [](Comm& comm) {
    const int p = comm.size();
    std::vector<double> data(500, 1.0);
    std::vector<double> got(500);
    comm.compute(1e-3 * comm.rank());
    for (int k = 1; k < p; ++k) {
      comm.send((comm.rank() + k) % p, 9, data.data(),
                data.size() * sizeof(double));
    }
    for (int k = 1; k < p; ++k) {
      comm.recv((comm.rank() - k + p) % p, 9, got.data(),
                got.size() * sizeof(double));
    }
    comm.allreduce_sum(data.data(), data.size());
    comm.barrier();
  };
  const auto sync_traffic = [](Comm& comm) {
    const int peer = comm.rank() ^ 1;
    std::vector<double> data(500, 1.0);
    comm.compute(1e-4 * comm.rank());
    Comm::SyncScope sync(comm);
    comm.send(peer, 2, data.data(), data.size() * sizeof(double));
    comm.recv(peer, 2, data.data(), data.size() * sizeof(double));
  };
  const auto self_send = [](Comm& comm) {
    std::vector<double> data(500, 1.0);
    comm.send(comm.rank(), 1, data.data(), data.size() * sizeof(double));
    comm.recv(comm.rank(), 1, data.data(), data.size() * sizeof(double));
  };
  const struct {
    const char* name;
    std::size_t threshold;
    std::function<void(Comm&)> body;
  } cases[] = {
      {"eager", 0, booked_program},
      {"eager all-to-all", 0, all_to_all},
      {"rendezvous", 64, booked_program},
      {"rendezvous all-to-all", 64, all_to_all},
      {"rendezvous SyncScope", 64, sync_traffic},
      {"self-send", 64, self_send},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const BookedRun run = run_booked(4, c.threshold, c.body);
    for (std::size_t r = 0; r < run.recs.size(); ++r) {
      const double clock = run.clocks[r];
      EXPECT_GT(clock, 0.0) << "rank " << r;
      EXPECT_NEAR(run.recs[r].total_breakdown().total(), clock,
                  1e-12 * clock)
          << "rank " << r;
      EXPECT_NEAR(testutil::booked_span(run.timelines[r]), clock,
                  1e-12 * clock)
          << "rank " << r;
    }
  }
}

}  // namespace
}  // namespace repro::mpi
