// Communication middleware personalities (the paper's second factor).
//
// The MD application talks to a Middleware, never to the MPI layer
// directly, mirroring how CHARMM's energy code goes through its
// communication wrappers. Two implementations:
//
//  - MpiMiddleware: the "standard implementation [using] raw MPI calls" —
//    blocking point-to-point underneath MPI collectives, global
//    synchronization via MPI barriers.
//
//  - CmpiMiddleware: CHARMM MPI, the portable layer that "relies heavily on
//    nonblocking communication using split send/receive calls" and
//    implements synchronization "by repeated exchanges of empty messages
//    (or one byte) among nearest neighbor-processes", repeated p-1 times —
//    the style §4.2 shows to be disastrous on per-packet-overhead stacks.
//    The simulated split calls are eager sends and blocking receives, issued
//    in the order CMPI completes them.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "mpi/comm.hpp"

namespace repro::middleware {

enum class Kind { kMpi, kCmpi };

const char* to_string(Kind kind);
// The middleware by its command-line name (mpi, cmpi), or nullopt.
std::optional<Kind> parse_middleware(std::string_view name);

// The three calls the slab FFT and the slab PME make (fft/parallel_fft.hpp,
// pme/pme.hpp): this rank's place in the group of ranks that shares the
// grid, and the personalized all-to-all that transposes it. A Middleware
// is the transport over the whole communicator; the task decomposition's
// PME ranks have one over their own group (charmm/decomposition.cpp).
class Transport {
 public:
  virtual int rank() const = 0;
  virtual int size() const = 0;

  // Personalized all-to-all over byte blocks (the FFT transpose).
  virtual void transpose(const void* send,
                         const std::vector<std::size_t>& send_counts,
                         const std::vector<std::size_t>& send_displs,
                         void* recv,
                         const std::vector<std::size_t>& recv_counts,
                         const std::vector<std::size_t>& recv_displs) = 0;

 protected:
  ~Transport() = default;
};

class Middleware : public Transport {
 public:
  explicit Middleware(mpi::Comm& comm) : comm_(comm) {}
  virtual ~Middleware() = default;

  int rank() const final { return comm_.rank(); }
  int size() const final { return comm_.size(); }
  mpi::Comm& comm() { return comm_; }

  // Global sum of a double vector on every rank (the all-to-all collective
  // that ends the classic energy calculation).
  virtual void global_sum(double* data, std::size_t n) = 0;

  // Global barrier ("coherency maintenance" between phases).
  virtual void synchronize() = 0;

  virtual void broadcast(void* data, std::size_t bytes, int root) = 0;

 protected:
  mpi::Comm& comm_;
};

std::unique_ptr<Middleware> make_middleware(Kind kind, mpi::Comm& comm);

// Raw-MPI personality.
class MpiMiddleware final : public Middleware {
 public:
  using Middleware::Middleware;
  void global_sum(double* data, std::size_t n) override;
  void synchronize() override;
  void transpose(const void* send,
                 const std::vector<std::size_t>& send_counts,
                 const std::vector<std::size_t>& send_displs, void* recv,
                 const std::vector<std::size_t>& recv_counts,
                 const std::vector<std::size_t>& recv_displs) override;
  void broadcast(void* data, std::size_t bytes, int root) override;
};

// CHARMM-MPI personality.
class CmpiMiddleware final : public Middleware {
 public:
  using Middleware::Middleware;
  void global_sum(double* data, std::size_t n) override;
  void synchronize() override;
  void transpose(const void* send,
                 const std::vector<std::size_t>& send_counts,
                 const std::vector<std::size_t>& send_displs, void* recv,
                 const std::vector<std::size_t>& recv_counts,
                 const std::vector<std::size_t>& recv_displs) override;
  void broadcast(void* data, std::size_t bytes, int root) override;

 private:
  // One CMPI synchronization call: p-1 repetitions of a one-byte exchange
  // with the ring neighbors.
  void neighbor_sync();
};

}  // namespace repro::middleware
