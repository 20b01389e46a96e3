#include "middleware/middleware.hpp"

#include <cstring>

#include "util/error.hpp"

namespace repro::middleware {

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kMpi:
      return "MPI";
    case Kind::kCmpi:
      return "CMPI";
  }
  return "?";
}

std::unique_ptr<Middleware> make_middleware(Kind kind, mpi::Comm& comm) {
  switch (kind) {
    case Kind::kMpi:
      return std::make_unique<MpiMiddleware>(comm);
    case Kind::kCmpi:
      return std::make_unique<CmpiMiddleware>(comm);
  }
  REPRO_UNREACHABLE("bad middleware kind");
}

// --- MPI ------------------------------------------------------------------

void MpiMiddleware::global_sum(double* data, std::size_t n) {
  comm_.allreduce_sum(data, n);
}

void MpiMiddleware::synchronize() { comm_.barrier(); }

void MpiMiddleware::transpose(const void* send,
                              const std::vector<std::size_t>& send_counts,
                              const std::vector<std::size_t>& send_displs,
                              void* recv,
                              const std::vector<std::size_t>& recv_counts,
                              const std::vector<std::size_t>& recv_displs) {
  comm_.alltoallv(send, send_counts, send_displs, recv, recv_counts,
                  recv_displs);
}

void MpiMiddleware::broadcast(void* data, std::size_t bytes, int root) {
  comm_.bcast(data, bytes, root);
}

// --- CMPI -----------------------------------------------------------------

void CmpiMiddleware::neighbor_sync() {
  const int p = size();
  if (p == 1) return;
  mpi::Comm::SyncScope sync(comm_);
  const int r = rank();
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  const unsigned char token = 1;
  unsigned char in = 0;
  // "A single synchronization call is built upon repeated send and receive
  // calls transmitting a single byte with the neighbor-nodes and this
  // operation is repeated p-1 times" (§4.2). Each repetition is a ring
  // shift; p-1 shifts give barrier semantics transitively. Each split
  // receive/send pair runs as an eager send and a blocking receive.
  for (int step = 1; step < p; ++step) {
    comm_.send(right, 9990 + step, &token, 1, /*exchange=*/true);
    comm_.recv(left, 9990 + step, &in, 1);
  }
}

void CmpiMiddleware::synchronize() { neighbor_sync(); }

void CmpiMiddleware::global_sum(double* data, std::size_t n) {
  const int p = size();
  if (p == 1) return;
  // Portable ring "global combine": circulate every rank's original vector
  // around the ring with split send/receive calls (an eager send and a
  // blocking receive a hop), accumulating locally.
  // (p-1) full-vector hops per rank — far more traffic than a tree — and a
  // neighbor synchronization after every round ("coherency maintenance" in
  // the portable layer), which is exactly the pattern §4.2 blames for the
  // loss of scalability on per-packet-overhead stacks.
  const int r = rank();
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  const std::size_t bytes = n * sizeof(double);
  std::vector<double> circulating(data, data + n);
  std::vector<double> incoming(n);
  for (int step = 1; step < p; ++step) {
    comm_.send(right, 9900, circulating.data(), bytes, /*exchange=*/true);
    comm_.recv(left, 9900, incoming.data(), bytes);
    for (std::size_t i = 0; i < n; ++i) data[i] += incoming[i];
    circulating.swap(incoming);
    neighbor_sync();
  }
  // The master's result is rebroadcast so every rank holds a bit-identical
  // vector (ring accumulation order differs per rank otherwise).
  broadcast(data, bytes, 0);
}

void CmpiMiddleware::transpose(const void* send,
                               const std::vector<std::size_t>& send_counts,
                               const std::vector<std::size_t>& send_displs,
                               void* recv,
                               const std::vector<std::size_t>& recv_counts,
                               const std::vector<std::size_t>& recv_displs) {
  const int p = size();
  const int r = rank();
  const auto* in = static_cast<const unsigned char*>(send);
  auto* out = static_cast<unsigned char*>(recv);
  // Local block (skipped when empty: memcpy on a null buffer is UB even
  // for zero bytes).
  if (send_counts[static_cast<std::size_t>(r)] > 0) {
    std::memcpy(out + recv_displs[static_cast<std::size_t>(r)],
                in + send_displs[static_cast<std::size_t>(r)],
                send_counts[static_cast<std::size_t>(r)]);
  }
  if (p == 1) return;
  // CMPI posts all split receives, then all sends, then waits on the
  // receives, and brackets the exchange with its neighbor synchronization.
  // Simulated, the posts are free, the sends go out eagerly and the waits
  // are the blocking receives.
  neighbor_sync();
  for (int k = 1; k < p; ++k) {
    const auto dst = static_cast<std::size_t>((r + k) % p);
    comm_.send(static_cast<int>(dst), 9901, in + send_displs[dst],
               send_counts[dst], /*exchange=*/true);
  }
  for (int k = 1; k < p; ++k) {
    const auto src = static_cast<std::size_t>((r - k + p) % p);
    comm_.recv(static_cast<int>(src), 9901, out + recv_displs[src],
               recv_counts[src]);
  }
  neighbor_sync();
}

void CmpiMiddleware::broadcast(void* data, std::size_t bytes, int root) {
  const int p = size();
  if (p == 1) return;
  // Ring pipeline from the root, split calls, guarded by a neighbor sync.
  neighbor_sync();
  const int r = rank();
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  if (r != root) comm_.recv(left, 9902, data, bytes);
  if (right != root) comm_.send(right, 9902, data, bytes);
}

}  // namespace repro::middleware
