#include "mpi/comm.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace repro::mpi {

const char* to_string(AllreduceAlgorithm algo) {
  switch (algo) {
    case AllreduceAlgorithm::kReduceBcast:
      return "reduce_bcast";
    case AllreduceAlgorithm::kRecursiveDoubling:
      return "recursive_doubling";
    case AllreduceAlgorithm::kRing:
      return "ring";
  }
  return "?";
}

const char* to_string(BcastAlgorithm algo) {
  switch (algo) {
    case BcastAlgorithm::kBinomialTree:
      return "binomial";
    case BcastAlgorithm::kRingPipeline:
      return "ring_pipeline";
  }
  return "?";
}

bool Comm::try_match(int src, int tag, Packet& out, double& arrival) {
  auto& inbox = ctx_.inbox();
  // Deliveries sit in (time, seq) order, so the first match is the
  // earliest-arriving one — the MPI matching rule for a given (src, tag).
  for (auto it = inbox.begin(); it != inbox.end(); ++it) {
    if (matches(it->packet, src, tag)) {
      out = std::move(it->packet);
      arrival = it->time;
      inbox.erase(it);
      return true;
    }
  }
  return false;
}

void Comm::send_control(int dst, int tag, const RendezvousToken& body) {
  // Control messages are tiny eager sends on the reserved tags; their cost
  // flows through the normal network model.
  MsgBuf payload(&body, sizeof(body));
  const double sent_at = ctx_.now();
  const net::MessageTiming t =
      net_.message(rank(), dst, sizeof(body), ctx_.now(), false);
  if (t.fault_delay > 0.0) {
    net_.attribute_fault_delay(static_cast<int>(rec_.component()),
                               t.fault_delay);
  }
  rec_.record(transfer_kind(), t.sender_busy);
  // Back-pressure on the control channel is control transfer, like any
  // other stall (see perf/recorder.hpp's taxonomy).
  rec_.record_stall(t.sender_stall);
  ctx_.advance(t.sender_busy + t.sender_stall);
  timeline_send(sent_at, t.sender_busy, transfer_kind(), "handshake");
  ctx_.post(t.arrival, dst,
            Packet{rank(), tag, std::move(payload), t.recv_copy, sent_at});
}

void Comm::service_rendezvous_requests() {
  for (;;) {
    Packet rts;
    double arrival = 0.0;
    if (!try_match(kAnySource, kRtsTag, rts, arrival)) return;
    RendezvousToken body;
    REPRO_REQUIRE(rts.data.size() == sizeof(body),
                  "malformed rendezvous request");
    std::memcpy(&body, rts.data.data(), sizeof(body));
    send_control(rts.src, kCtsTag, body);
  }
}

void Comm::await_clear_to_send(int dst, unsigned token) {
  const double t0 = ctx_.now();
  for (;;) {
    service_rendezvous_requests();  // avoid exchange deadlocks
    auto& inbox = ctx_.inbox();
    bool found = false;
    for (auto it = inbox.begin(); it != inbox.end(); ++it) {
      const Packet& pkt = it->packet;
      if (pkt.src != dst || pkt.tag != kCtsTag) continue;
      // A CTS carries exactly one RendezvousToken; anything else on the
      // control tag is a protocol violation — reject it before reading
      // (the payload may be short).
      REPRO_REQUIRE(pkt.data.size() == sizeof(RendezvousToken),
                    "malformed clear-to-send packet");
      RendezvousToken body;
      std::memcpy(&body, pkt.data.data(), sizeof(body));
      if (body.token != token) continue;
      inbox.erase(it);
      found = true;
      break;
    }
    if (found) break;
    ctx_.block();
  }
  // The handshake wait happens inside the send call: data-transfer time.
  rec_.record(transfer_kind(), ctx_.now() - t0);
  if (rec_.timeline() != nullptr) {
    rec_.timeline()->add(t0, ctx_.now(), rec_.component(), transfer_kind(),
                         event_label("handshake"), rec_.step_index());
  }
}

void Comm::timeline_send(double sent_at, double busy, perf::Kind kind,
                         const char* label) {
  if (rec_.timeline() == nullptr) return;
  rec_.timeline()->add(sent_at, sent_at + busy, rec_.component(), kind,
                       event_label(label), rec_.step_index());
  rec_.timeline()->add(sent_at + busy, ctx_.now(), rec_.component(),
                       perf::Kind::kSync, "stall", rec_.step_index());
}

void Comm::send(int dst, int tag, const void* data, std::size_t bytes,
                bool exchange) {
  REPRO_REQUIRE(dst >= 0 && dst < size(), "send: bad destination");
  rec_.trace_op({.kind = perf::TraceOp::Kind::kSend,
                 .exchange = exchange,
                 .sync = sync_mode_,
                 .peer = dst,
                 .tag = tag,
                 .size = bytes});
  ctx_.checkpoint();
  const std::size_t rndv = net_.params().rendezvous_threshold;
  if (rndv > 0 && bytes >= rndv && dst != rank()) {
    const RendezvousToken body{tag, rendezvous_seq_++};
    send_control(dst, kRtsTag, body);
    await_clear_to_send(dst, body.token);
  }
  MsgBuf payload(data, bytes);

  const perf::Kind kind = transfer_kind();
  const double sent_at = ctx_.now();
  if (dst == rank()) {
    // Self-send: a local copy, available immediately.
    const double copy =
        static_cast<double>(bytes) / net_.params().copy_bandwidth;
    rec_.record(kind, copy);
    ctx_.advance(copy);
    if (rec_.timeline() != nullptr) {
      rec_.timeline()->add(sent_at, ctx_.now(), rec_.component(), kind,
                           event_label("copy"), rec_.step_index());
    }
    ctx_.post(ctx_.now(), dst,
              Packet{rank(), tag, std::move(payload), copy, sent_at});
    return;
  }

  const net::MessageTiming t =
      net_.message(rank(), dst, bytes, ctx_.now(), exchange);
  // Injected-fault delay is attributed to the component issuing the send:
  // that is the code path stretched by the perturbation.
  if (t.fault_delay > 0.0) {
    net_.attribute_fault_delay(static_cast<int>(rec_.component()),
                               t.fault_delay);
  }
  rec_.record(kind, t.sender_busy);
  // Back-pressure stalls are control transfer (the sender blocks until the
  // NIC queue drains): synchronization, per perf/recorder.hpp's taxonomy.
  rec_.record_stall(t.sender_stall);
  if (!sync_mode_) rec_.record_bytes(static_cast<double>(bytes));
  ctx_.advance(t.sender_busy + t.sender_stall);
  timeline_send(sent_at, t.sender_busy, kind, "send");
  ctx_.post(t.arrival, dst,
            Packet{rank(), tag, std::move(payload), t.recv_copy, sent_at});
}

std::size_t Comm::recv(int src, int tag, void* data, std::size_t max_bytes) {
  ctx_.checkpoint();
  const double t0 = ctx_.now();
  Packet pkt;
  double arrival = 0.0;
  for (;;) {
    if (net_.params().rendezvous_threshold > 0) {
      service_rendezvous_requests();
    }
    if (try_match(src, tag, pkt, arrival)) break;
    ctx_.block();
  }
  // Classification follows the paper's instrumentation: all time inside a
  // data-transfer call (including the blocked wait for the message) is
  // communication; control transfer shows up only in the explicit
  // synchronization operations (barriers, CMPI's one-byte exchanges),
  // which is where load imbalance is absorbed because CHARMM synchronizes
  // before its global operations.
  const double waited = ctx_.now() - t0;
  const perf::Kind kind = transfer_kind();
  rec_.record(kind, waited);
  rec_.record(kind, pkt.recv_copy);
  // Byte accounting must mirror the send side: self-sends are local copies,
  // not network traffic, so they book no Figure-7 bytes on either end.
  if (!sync_mode_ && pkt.src != rank()) {
    rec_.record_bytes(static_cast<double>(pkt.data.size()));
  }
  ctx_.advance(pkt.recv_copy);
  if (rec_.timeline() != nullptr) {
    rec_.timeline()->add(t0, ctx_.now(), rec_.component(), kind,
                         event_label("recv"), rec_.step_index());
  }

  const std::size_t n = pkt.data.size();
  REPRO_REQUIRE(n <= max_bytes, "recv: message larger than buffer");
  if (n > 0) std::memcpy(data, pkt.data.data(), n);
  rec_.trace_op({.kind = perf::TraceOp::Kind::kRecv,
                 .sync = sync_mode_,
                 .peer = src,
                 .tag = tag,
                 .size = max_bytes,
                 .received = n});
  return n;
}

void Comm::sendrecv(int dst, int send_tag, const void* send_data,
                    std::size_t send_bytes, int src, int recv_tag,
                    void* recv_data, std::size_t recv_bytes) {
  send(dst, send_tag, send_data, send_bytes, /*exchange=*/true);
  recv(src, recv_tag, recv_data, recv_bytes);
}

void Comm::barrier() {
  if (size() == 1) return;
  SyncScope sync(*this);
  const int tag = next_collective_tag();
  const int p = size();
  const int r = rank();
  // Dissemination barrier: ceil(log2 p) rounds; in round k each rank
  // signals (rank + k) and waits for (rank - k).
  for (int k = 1; k < p; k <<= 1) {
    send((r + k) % p, tag, nullptr, 0);
    recv((r - k + p) % p, tag, nullptr, 0);
  }
}

void Comm::bcast(void* data, std::size_t bytes, int root) {
  if (size() == 1) return;
  const int tag = next_collective_tag();
  switch (collectives_.bcast) {
    case BcastAlgorithm::kBinomialTree:
      bcast_binomial(data, bytes, root, tag);
      return;
    case BcastAlgorithm::kRingPipeline:
      bcast_ring(data, bytes, root, tag);
      return;
  }
  REPRO_UNREACHABLE("bad bcast algorithm");
}

void Comm::bcast_binomial(void* data, std::size_t bytes, int root, int tag) {
  const int p = size();
  const int vrank = (rank() - root + p) % p;
  // Binomial tree (MPICH-1): receive from the parent, then forward to
  // children in decreasing subtree order.
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      const int parent = (vrank - mask + root) % p;
      recv(parent, tag, data, bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < p) {
      const int child = (vrank + mask + root) % p;
      send(child, tag, data, bytes);
    }
    mask >>= 1;
  }
}

void Comm::bcast_ring(void* data, std::size_t bytes, int root, int tag) {
  // Pipelined around the ring in fixed segments: each rank forwards a
  // segment as soon as it arrives, so large messages stream.
  const int p = size();
  const int r = rank();
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  constexpr std::size_t kSegment = 16 * 1024;
  auto* bytes_ptr = static_cast<unsigned char*>(data);
  for (std::size_t at = 0; at < bytes || at == 0; at += kSegment) {
    const std::size_t n = std::min(kSegment, bytes - at);
    if (r != root) recv(left, tag, bytes_ptr + at, n);
    if (right != root) send(right, tag, bytes_ptr + at, n);
    if (bytes == 0) break;
  }
}

void Comm::reduce_sum(double* data, std::size_t n) {
  reduce_sum(data, n, {0, size()}, next_collective_tag());
}

void Comm::reduce_sum(double* data, std::size_t n, RankRange range, int tag) {
  const int p = range.size;
  const int vrank = rank() - range.base;
  REPRO_REQUIRE(vrank >= 0 && vrank < p, "reduce_sum: rank outside its range");
  if (p == 1) return;
  std::vector<double> tmp(n);
  // Binomial tree, leaves to root, full vector per hop (as MPICH-1 did).
  int mask = 1;
  while (mask < p) {
    if ((vrank & mask) == 0) {
      const int peer = vrank | mask;
      if (peer < p) {
        recv(range.base + peer, tag, tmp.data(), n * sizeof(double));
        for (std::size_t i = 0; i < n; ++i) data[i] += tmp[i];
      }
    } else {
      send(range.base + (vrank & ~mask), tag, data, n * sizeof(double));
      break;
    }
    mask <<= 1;
  }
}

void Comm::allreduce_sum(double* data, std::size_t n) {
  if (size() == 1) return;
  switch (collectives_.allreduce) {
    case AllreduceAlgorithm::kReduceBcast:
      // MPICH-1 allreduce: reduce to rank 0, then broadcast the result.
      reduce_sum(data, n);
      bcast(data, n * sizeof(double), 0);
      return;
    case AllreduceAlgorithm::kRecursiveDoubling:
      allreduce_recursive_doubling(data, n);
      return;
    case AllreduceAlgorithm::kRing:
      allreduce_ring(data, n);
      return;
  }
  REPRO_UNREACHABLE("bad allreduce algorithm");
}

void Comm::allreduce_recursive_doubling(double* data, std::size_t n) {
  const int p = size();
  const int r = rank();
  const int tag = next_collective_tag();
  std::vector<double> tmp(n);
  // Power-of-two core: non-power ranks fold into a lower partner first
  // (the standard pre/post step), then log2(p') full-vector exchanges.
  int pof2 = 1;
  while (pof2 * 2 <= p) pof2 *= 2;
  const int rem = p - pof2;
  int newrank;
  if (r < 2 * rem) {
    if (r % 2 == 0) {
      send(r + 1, tag, data, n * sizeof(double));
      newrank = -1;  // idle during the core exchange
    } else {
      recv(r - 1, tag, tmp.data(), n * sizeof(double));
      for (std::size_t i = 0; i < n; ++i) data[i] += tmp[i];
      newrank = r / 2;
    }
  } else {
    newrank = r - rem;
  }
  if (newrank >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int newpeer = newrank ^ mask;
      const int peer = newpeer < rem ? newpeer * 2 + 1 : newpeer + rem;
      sendrecv(peer, tag, data, n * sizeof(double), peer, tag, tmp.data(),
               n * sizeof(double));
      for (std::size_t i = 0; i < n; ++i) data[i] += tmp[i];
    }
  }
  if (r < 2 * rem) {
    if (r % 2 == 1) {
      send(r - 1, tag, data, n * sizeof(double));
    } else {
      recv(r + 1, tag, data, n * sizeof(double));
    }
  }
}

void Comm::allreduce_ring(double* data, std::size_t n) {
  const int p = size();
  const int r = rank();
  if (n < static_cast<std::size_t>(p)) {
    // Too small to segment; fall back to the tree scheme.
    reduce_sum(data, n);
    bcast(data, n * sizeof(double), 0);
    return;
  }
  const int tag = next_collective_tag();
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  // Segment boundaries (p chunks, front-loaded remainder).
  std::vector<std::size_t> begin(static_cast<std::size_t>(p) + 1, 0);
  for (int c = 0; c < p; ++c) {
    begin[static_cast<std::size_t>(c) + 1] =
        begin[static_cast<std::size_t>(c)] + n / static_cast<std::size_t>(p) +
        (static_cast<std::size_t>(c) < n % static_cast<std::size_t>(p) ? 1
                                                                       : 0);
  }
  std::vector<double> tmp(n);
  // Reduce-scatter phase: after p-1 steps rank r owns the full sum of
  // chunk (r+1) mod p.
  for (int step = 0; step < p - 1; ++step) {
    const auto send_chunk = static_cast<std::size_t>((r - step + p) % p);
    const auto recv_chunk = static_cast<std::size_t>((r - step - 1 + 2 * p) % p);
    const std::size_t sb = begin[send_chunk];
    const std::size_t rb = begin[recv_chunk];
    const std::size_t sn = begin[send_chunk + 1] - sb;
    const std::size_t rn = begin[recv_chunk + 1] - rb;
    sendrecv(right, tag, data + sb, sn * sizeof(double), left, tag,
             tmp.data(), rn * sizeof(double));
    for (std::size_t i = 0; i < rn; ++i) data[rb + i] += tmp[i];
  }
  // Allgather phase: circulate the finished chunks.
  for (int step = 0; step < p - 1; ++step) {
    const auto send_chunk = static_cast<std::size_t>((r + 1 - step + 2 * p) % p);
    const auto recv_chunk = static_cast<std::size_t>((r - step + 2 * p) % p);
    const std::size_t sb = begin[send_chunk];
    const std::size_t rb = begin[recv_chunk];
    sendrecv(right, tag, data + sb,
             (begin[send_chunk + 1] - sb) * sizeof(double), left, tag,
             data + rb, (begin[recv_chunk + 1] - rb) * sizeof(double));
  }
}

void Comm::alltoallv(const void* send_buf,
                     const std::vector<std::size_t>& send_counts,
                     const std::vector<std::size_t>& send_displs,
                     void* recv_buf,
                     const std::vector<std::size_t>& recv_counts,
                     const std::vector<std::size_t>& recv_displs) {
  alltoallv(send_buf, send_counts, send_displs, recv_buf, recv_counts,
            recv_displs, {0, size()}, next_collective_tag());
}

void Comm::alltoallv(const void* send_buf,
                     const std::vector<std::size_t>& send_counts,
                     const std::vector<std::size_t>& send_displs,
                     void* recv_buf,
                     const std::vector<std::size_t>& recv_counts,
                     const std::vector<std::size_t>& recv_displs,
                     RankRange range, int tag) {
  const int p = range.size;
  const int r = rank() - range.base;
  REPRO_REQUIRE(r >= 0 && r < p, "alltoallv: rank outside its range");
  REPRO_REQUIRE(send_counts.size() == static_cast<std::size_t>(p) &&
                    recv_counts.size() == static_cast<std::size_t>(p),
                "alltoallv: counts must have one entry per rank");
  const auto* in = static_cast<const unsigned char*>(send_buf);
  auto* out = static_cast<unsigned char*>(recv_buf);
  // Local block (skipped when empty: memcpy/pointer arithmetic on a null
  // buffer is UB even for zero bytes).
  if (send_counts[static_cast<std::size_t>(r)] > 0) {
    std::memcpy(out + recv_displs[static_cast<std::size_t>(r)],
                in + send_displs[static_cast<std::size_t>(r)],
                send_counts[static_cast<std::size_t>(r)]);
  }
  // Pairwise exchange: in step k, talk to ranks at distance k.
  for (int k = 1; k < p; ++k) {
    const auto dst = static_cast<std::size_t>((r + k) % p);
    const auto src = static_cast<std::size_t>((r - k + p) % p);
    send(range.base + static_cast<int>(dst), tag, in + send_displs[dst],
         send_counts[dst], /*exchange=*/true);
    recv(range.base + static_cast<int>(src), tag, out + recv_displs[src],
         recv_counts[src]);
  }
}

}  // namespace repro::mpi
