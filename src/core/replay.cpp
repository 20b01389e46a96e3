#include "core/replay.hpp"

#include <algorithm>
#include <optional>

#include "util/error.hpp"

namespace repro::core {

namespace {

using Op = perf::TraceOp;

// Detaches the rank's trace for the lifetime of the scope.
class TraceMute {
 public:
  explicit TraceMute(perf::RankRecorder& rec)
      : rec_(rec), saved_(rec.trace()) {
    rec_.attach_trace(nullptr);
  }
  ~TraceMute() { rec_.attach_trace(saved_); }
  TraceMute(const TraceMute&) = delete;
  TraceMute& operator=(const TraceMute&) = delete;

 private:
  perf::RankRecorder& rec_;
  perf::RankTrace* saved_;
};

std::size_t blocks_end(const std::vector<std::size_t>& counts,
                       const std::vector<std::size_t>& displs) {
  std::size_t end = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    end = std::max(end, displs[i] + counts[i]);
  }
  return end;
}

}  // namespace

bool same_physics(const ExperimentSpec& a, const ExperimentSpec& b) {
  return a.charmm == b.charmm && a.nprocs == b.nprocs &&
         a.platform.middleware == b.platform.middleware &&
         a.collectives == b.collectives;
}

bool replayable(const ExperimentSpec& spec) {
  return !charmm::timing_feeds_physics(spec.charmm.decomp);
}

void TracingMiddleware::global_sum(double* data, std::size_t n) {
  perf::RankRecorder& rec = comm_.recorder();
  rec.trace_op({.kind = Op::Kind::kGlobalSum, .size = n});
  TraceMute mute(rec);
  platform_.global_sum(data, n);
}

void TracingMiddleware::synchronize() {
  perf::RankRecorder& rec = comm_.recorder();
  rec.trace_op({.kind = Op::Kind::kSynchronize});
  TraceMute mute(rec);
  platform_.synchronize();
}

void TracingMiddleware::transpose(const void* send,
                                  const std::vector<std::size_t>& send_counts,
                                  const std::vector<std::size_t>& send_displs,
                                  void* recv,
                                  const std::vector<std::size_t>& recv_counts,
                                  const std::vector<std::size_t>& recv_displs) {
  perf::RankRecorder& rec = comm_.recorder();
  if (perf::RankTrace* trace = rec.trace()) {
    trace->transposes.push_back(
        {send_counts, send_displs, recv_counts, recv_displs});
    rec.trace_op({.kind = Op::Kind::kTranspose,
                  .shape = trace->transposes.size() - 1});
  }
  TraceMute mute(rec);
  platform_.transpose(send, send_counts, send_displs, recv, recv_counts,
                      recv_displs);
}

void TracingMiddleware::broadcast(void* data, std::size_t bytes, int root) {
  perf::RankRecorder& rec = comm_.recorder();
  rec.trace_op({.kind = Op::Kind::kBroadcast, .peer = root, .size = bytes});
  TraceMute mute(rec);
  platform_.broadcast(data, bytes, root);
}

void replay_rank(const perf::RankTrace& trace, middleware::Middleware& mw) {
  mpi::Comm& comm = mw.comm();
  perf::RankRecorder& rec = comm.recorder();

  // Payloads are zeros of the recorded sizes: sends read `zeros`, and
  // everything received lands in `sink` (which therefore stays zero, so
  // the broadcast root and global sums may read it too). Whole doubles,
  // so global_sum sees aligned elements; growing keeps them zero.
  std::vector<double> zeros;
  std::vector<double> sink;
  auto fit = [](std::vector<double>& buf, std::size_t bytes) {
    const std::size_t n = (bytes + sizeof(double) - 1) / sizeof(double);
    if (buf.size() < n) buf.resize(n);
    return buf.data();
  };
  for (const Op& op : trace.ops) {
    rec.set_component(op.component);
    rec.set_phase(op.phase);
    std::optional<mpi::Comm::SyncScope> sync;
    if (op.sync) sync.emplace(comm);
    switch (op.kind) {
      case Op::Kind::kCompute:
        comm.compute(op.seconds);
        break;
      case Op::Kind::kSend:
        comm.send(op.peer, op.tag, fit(zeros, op.size), op.size,
                  op.exchange);
        break;
      case Op::Kind::kRecv: {
        const std::size_t n =
            comm.recv(op.peer, op.tag, fit(sink, op.size), op.size);
        REPRO_REQUIRE(n == op.received,
                      "replay: rank " + std::to_string(comm.rank()) +
                          " received " + std::to_string(n) +
                          " bytes where the recording received " +
                          std::to_string(op.received));
        break;
      }
      case Op::Kind::kGlobalSum:
        mw.global_sum(fit(sink, op.size * sizeof(double)), op.size);
        break;
      case Op::Kind::kSynchronize:
        mw.synchronize();
        break;
      case Op::Kind::kTranspose: {
        const perf::TransposeShape& t = trace.transposes.at(op.shape);
        void* send = fit(zeros, blocks_end(t.send_counts, t.send_displs));
        void* recv = fit(sink, blocks_end(t.recv_counts, t.recv_displs));
        mw.transpose(send, t.send_counts, t.send_displs, recv,
                     t.recv_counts, t.recv_displs);
        break;
      }
      case Op::Kind::kBroadcast:
        mw.broadcast(fit(sink, op.size), op.size, op.peer);
        break;
      case Op::Kind::kEndStep:
        rec.end_step();
        break;
    }
  }
}

}  // namespace repro::core
