#include "core/replay.hpp"

#include <optional>

#include "util/error.hpp"

namespace repro::core {

bool same_physics(const ExperimentSpec& a, const ExperimentSpec& b) {
  return a.charmm == b.charmm && a.nprocs == b.nprocs &&
         a.platform.middleware == b.platform.middleware &&
         a.collectives == b.collectives;
}

bool replayable(const ExperimentSpec& spec) {
  return !charmm::timing_feeds_physics(spec.charmm.decomp);
}

void replay_rank(const perf::RankTrace& trace, mpi::Comm& comm) {
  using Op = perf::TraceOp;
  perf::RankRecorder& rec = comm.recorder();

  // Payloads are zeros of the recorded sizes: sends read `zeros`, and
  // everything received lands in `sink`.
  std::vector<unsigned char> zeros;
  std::vector<unsigned char> sink;
  auto fit = [](std::vector<unsigned char>& buf, std::size_t bytes) {
    if (buf.size() < bytes) buf.resize(bytes);
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
      case Op::Kind::kEndStep:
        rec.end_step();
        break;
    }
  }
}

}  // namespace repro::core
