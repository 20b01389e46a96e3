// SimMPI: an MPI-like message-passing layer running on the simulated
// cluster.
//
// Point-to-point semantics follow MPI with eager (buffered) sends: send()
// never waits for a matching receive, but pays host costs and NIC
// back-pressure per the network model. Collectives are built from
// point-to-point using the algorithms of MPICH-1-era implementations
// (binomial trees, dissemination barrier, ring reduce-scatter +
// allgather allreduce, pairwise all-to-all), so their cost structure
// emerges from the network model rather than being modeled directly.
//
// Time accounting: time inside data-transfer calls (host protocol work,
// copies, blocked receive waits) is recorded as communication; control
// transfer — everything inside barrier() and sender back-pressure stalls
// — as synchronization. This matches the paper's split of "general
// communication overhead" into data transfer and control transfer (see
// perf/recorder.hpp for the full taxonomy).
//
// reduce_sum and alltoallv also come in a form over a contiguous rank
// range on a caller-given tag. A program that splits the communicator
// into groups (charmm's task decomposition) runs them inside one group:
// only the range's ranks call them, so they cannot draw from the
// comm-wide collective counter, and ranks outside the range take no part.
// The whole-communicator forms are the range forms over every rank on
// the next collective tag.
#pragma once

#include <cstddef>
#include <vector>

#include "net/cluster.hpp"
#include "perf/recorder.hpp"
#include "perf/timeline.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"

namespace repro::mpi {

inline constexpr int kAnySource = -1;

// Collective algorithm selection. MPICH-1 (the era default) implemented
// allreduce as reduce-to-root + broadcast; later libraries switched to
// recursive doubling (latency-bound) or ring/Rabenseifner schemes
// (bandwidth-bound). Exposed so the middleware/ablation layers can study
// how much the algorithm (i.e. communication *software*) matters.
enum class AllreduceAlgorithm {
  kReduceBcast,        // MPICH-1 default: binomial reduce + binomial bcast
  kRecursiveDoubling,  // log2(p) full-vector exchanges
  kRing,               // reduce-scatter + allgather rings (bandwidth-optimal)
};

enum class BcastAlgorithm {
  kBinomialTree,  // MPICH-1 default
  kRingPipeline,  // pipelined around the ring
};

const char* to_string(AllreduceAlgorithm algo);
const char* to_string(BcastAlgorithm algo);

struct CollectiveConfig {
  AllreduceAlgorithm allreduce = AllreduceAlgorithm::kReduceBcast;
  BcastAlgorithm bcast = BcastAlgorithm::kBinomialTree;

  bool operator==(const CollectiveConfig&) const = default;
};

// The contiguous ranks [base, base + size) of a communicator.
struct RankRange {
  int base = 0;
  int size = 0;
};

// The engine's message types (sim/packet.hpp), used here by name.
using sim::MsgBuf;
using sim::Packet;

class Comm {
 public:
  Comm(sim::RankCtx& ctx, net::ClusterNetwork& net, perf::RankRecorder& rec,
       const CollectiveConfig& collectives = {})
      : ctx_(ctx), net_(net), rec_(rec), collectives_(collectives) {}

  const CollectiveConfig& collectives() const { return collectives_; }

  int rank() const { return ctx_.rank(); }
  int size() const { return ctx_.size(); }
  double now() const { return ctx_.now(); }
  perf::RankRecorder& recorder() { return rec_; }
  sim::RankCtx& ctx() { return ctx_; }

  // Charges modeled computation time to the active component (scaled by
  // the node's SMP contention factor on dual-CPU nodes; stretched further
  // by injected stragglers / OS noise / stalls when faults are armed).
  void compute(double seconds) {
    rec_.trace_op({.kind = perf::TraceOp::Kind::kCompute, .seconds = seconds});
    const double t = seconds * net_.compute_factor(rank());
    const double t0 = ctx_.now();
    const double perturb = net_.compute_perturbation(rank(), t0, t);
    if (perturb > 0.0) {
      net_.attribute_fault_delay(static_cast<int>(rec_.component()), perturb);
    }
    rec_.record(perf::Kind::kComp, t + perturb);
    ctx_.advance(t + perturb);
    if (rec_.timeline() != nullptr) {
      rec_.timeline()->add(t0, t0 + t, rec_.component(), perf::Kind::kComp,
                           event_label("compute"), rec_.step_index());
      if (perturb > 0.0) {
        rec_.timeline()->add(t0 + t, ctx_.now(), rec_.component(),
                             perf::Kind::kComp, "os_noise",
                             rec_.step_index());
      }
    }
  }

  // --- point to point --------------------------------------------------
  // `exchange` marks sends that are half of a bidirectional exchange (the
  // network model may apply a duplex penalty; see NetworkParams).
  void send(int dst, int tag, const void* data, std::size_t bytes,
            bool exchange = false);
  // Returns the number of bytes received (<= max_bytes).
  std::size_t recv(int src, int tag, void* data, std::size_t max_bytes);

  void sendrecv(int dst, int send_tag, const void* send_data,
                std::size_t send_bytes, int src, int recv_tag,
                void* recv_data, std::size_t recv_bytes);

  // --- collectives (MPICH-1-era algorithms) ----------------------------
  void barrier();  // dissemination; time counted as synchronization
  void bcast(void* data, std::size_t bytes, int root);
  // Binomial-tree sum to rank 0; only rank 0's `data` holds the total.
  void reduce_sum(double* data, std::size_t n);
  // Algorithm chosen by the CollectiveConfig (MPICH-1 reduce+bcast by
  // default); all variants produce identical results on every rank.
  void allreduce_sum(double* data, std::size_t n);
  // Personalized all-to-all over byte blocks (pairwise exchange).
  // send_counts/send_displs index into `send`; recv sides likewise.
  void alltoallv(const void* send, const std::vector<std::size_t>& send_counts,
                 const std::vector<std::size_t>& send_displs, void* recv_buf,
                 const std::vector<std::size_t>& recv_counts,
                 const std::vector<std::size_t>& recv_displs);

  // The range forms (see the header note): the same algorithms over the
  // ranks of `range` only, on `tag`. The sum goes to range.base, and the
  // counts and displacements have one entry per range rank, in range
  // order. Only the range's ranks may call them.
  void reduce_sum(double* data, std::size_t n, RankRange range, int tag);
  void alltoallv(const void* send, const std::vector<std::size_t>& send_counts,
                 const std::vector<std::size_t>& send_displs, void* recv_buf,
                 const std::vector<std::size_t>& recv_counts,
                 const std::vector<std::size_t>& recv_displs, RankRange range,
                 int tag);

  // While a SyncScope is active, all point-to-point time (and the bytes) of
  // this rank is recorded as synchronization — used for barriers and for
  // middleware-level synchronization traffic.
  class SyncScope {
   public:
    explicit SyncScope(Comm& comm) : comm_(comm), saved_(comm.sync_mode_) {
      comm_.sync_mode_ = true;
    }
    ~SyncScope() { comm_.sync_mode_ = saved_; }
    SyncScope(const SyncScope&) = delete;
    SyncScope& operator=(const SyncScope&) = delete;

   private:
    Comm& comm_;
    bool saved_;
  };

 private:
  friend class SyncScope;

  perf::Kind transfer_kind() const {
    return sync_mode_ ? perf::Kind::kSync : perf::Kind::kComm;
  }
  // Timeline event name: the decomposition's phase label when one is
  // active (see perf::RankRecorder::set_phase), the generic operation
  // name otherwise.
  const char* event_label(const char* fallback) const {
    return rec_.phase() != nullptr ? rec_.phase() : fallback;
  }
  // Fresh tag for one collective operation; all ranks call collectives in
  // the same order, so counters stay aligned. Tags must never repeat within
  // a run: a wrapped sequence would let a slow rank's round-k packet match
  // a fast rank's round-(k + window) receive and silently corrupt the
  // collective. The window is far beyond any realistic run (the CHARMM
  // workload issues a handful of collectives per step), so instead of
  // wrapping we fail loudly if it is ever exhausted.
  int next_collective_tag() {
    REPRO_REQUIRE(coll_seq_ < kCollectiveTagWindow,
                  "collective tag space exhausted; tags would alias");
    return kCollectiveTagBase + static_cast<int>(coll_seq_++);
  }

  bool matches(const Packet& p, int src, int tag) const {
    return (src == kAnySource || p.src == src) && p.tag == tag;
  }
  // Removes and returns the earliest-arriving matching packet, if any.
  bool try_match(int src, int tag, Packet& out, double& arrival);

  void bcast_binomial(void* data, std::size_t bytes, int root, int tag);
  void bcast_ring(void* data, std::size_t bytes, int root, int tag);
  void allreduce_recursive_doubling(double* data, std::size_t n);
  void allreduce_ring(double* data, std::size_t n);

 public:
  // Base of the collective tag space. Application-level point-to-point
  // schedules (e.g. the charmm decomposition layer) must keep their tags
  // below this so they can never collide with a collective round.
  static constexpr int kCollectiveTagBase = 1 << 20;

 private:
  // One unique tag per collective for the lifetime of a Comm. The window
  // must stay clear of the rendezvous control tags above it.
  static constexpr unsigned kCollectiveTagWindow = 1u << 21;
  static_assert(kCollectiveTagBase + static_cast<int>(kCollectiveTagWindow) <=
                    (1 << 22),
                "collective tag window overlaps the control-channel tags");

 public:
  // Rendezvous control channel (never visible to user matching). Public so
  // protocol-robustness tests can forge control packets.
  static constexpr int kRtsTag = 1 << 22;
  static constexpr int kCtsTag = (1 << 22) + 1;

 private:

  struct RendezvousToken {
    int orig_tag = 0;
    unsigned token = 0;
  };

  void send_control(int dst, int tag, const RendezvousToken& body);
  // Replies CTS to every pending RTS in the inbox (progress while blocked
  // inside a wait, mirroring MPI's inside-the-library progress rule).
  void service_rendezvous_requests();
  // Blocks until the CTS for `token` arrives from dst.
  void await_clear_to_send(int dst, unsigned token);
  // Adds a network send's timeline events, when a timeline is attached:
  // the sender's busy interval from `sent_at`, then its back-pressure
  // stall up to now.
  void timeline_send(double sent_at, double busy, perf::Kind kind,
                     const char* label);

  sim::RankCtx& ctx_;
  net::ClusterNetwork& net_;
  perf::RankRecorder& rec_;
  CollectiveConfig collectives_;
  bool sync_mode_ = false;
  unsigned coll_seq_ = 0;
  unsigned rendezvous_seq_ = 0;
};

}  // namespace repro::mpi
