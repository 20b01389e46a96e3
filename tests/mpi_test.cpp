#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <type_traits>
#include <vector>

#include "mpi/comm.hpp"
#include "net/cluster.hpp"
#include "perf/recorder.hpp"
#include "sim/engine.hpp"

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

std::vector<perf::RankRecorder> run_rendezvous_cluster(
    int nranks, std::size_t threshold,
    const std::function<void(Comm&)>& body) {
  net::ClusterConfig config;
  config.nranks = nranks;
  config.network = net::Network::kScoreGigE;
  net::NetworkParams params = net::params_for(config.network);
  params.rendezvous_threshold = threshold;
  net::ClusterNetwork cluster(config, params);
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

TEST(RendezvousTest, LargeMessageDeliveredCorrectly) {
  run_rendezvous_cluster(2, 1024, [](Comm& comm) {
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
    run_rendezvous_cluster(2, threshold, [&](Comm& comm) {
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
  run_rendezvous_cluster(4, 64, [](Comm& comm) {
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
  run_rendezvous_cluster(8, 128, [](Comm& comm) {
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
  auto recs = run_rendezvous_cluster(2, 1 << 20, [](Comm& comm) {
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
  (void)recs;
}

TEST(RendezvousTest, MalformedClearToSendRejected) {
  // Regression: a corrupt packet on the CTS control tag (null payload)
  // used to be memcpy'd without validation. The protocol layer must
  // reject it instead of dereferencing it.
  run_rendezvous_cluster(2, 1024, [](Comm& comm) {
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
  auto recs = run_rendezvous_cluster(2, /*eager=*/0, [](Comm& comm) {
    std::vector<char> big(1 << 20);
    if (comm.rank() == 0) {
      for (int i = 0; i < 6; ++i) comm.send(1, 1, big.data(), big.size());
      comm.recorder().end_step();
    } else {
      for (int i = 0; i < 6; ++i) comm.recv(0, 1, big.data(), big.size());
    }
  });
  const double sync =
      recs[0].time(perf::Component::kOther, perf::Kind::kSync);
  const double comm_t =
      recs[0].time(perf::Component::kOther, perf::Kind::kComm);
  EXPECT_GT(sync, 0.0);  // pre-fix, stalls were booked as communication
  ASSERT_EQ(recs[0].steps().size(), 1u);
  EXPECT_NEAR(recs[0].steps()[0].comm_time, comm_t + sync, 1e-12);
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

}  // namespace
}  // namespace repro::mpi
