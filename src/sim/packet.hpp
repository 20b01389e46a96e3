// The one message type the engine carries: every simulated MPI message
// (see mpi/comm.hpp) travels through the event heap and into a rank's
// inbox as a Packet, moved and never copied.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>

namespace repro::sim {

// Message bytes with small-buffer storage. The high-frequency messages of
// the CHARMM workload are tiny — zero-byte barrier signals and 8-byte
// rendezvous control tokens — so they live inline and a send allocates
// nothing; a larger message owns one heap array, which makes MsgBuf (and
// Packet) move-only: a message has one owner at a time.
class MsgBuf {
 public:
  static constexpr std::size_t kInline = 16;

  MsgBuf() = default;
  MsgBuf(const void* src, std::size_t n) : size_(n) {
    unsigned char* dst = inline_;
    if (n > kInline) {
      heap_ = std::make_unique_for_overwrite<unsigned char[]>(n);
      dst = heap_.get();
    }
    if (n > 0) std::memcpy(dst, src, n);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const unsigned char* data() const {
    return size_ <= kInline ? inline_ : heap_.get();
  }

 private:
  std::size_t size_ = 0;
  unsigned char inline_[kInline] = {};
  std::unique_ptr<unsigned char[]> heap_;
};

// A message from rank `src`, matched by (src, tag) on receive.
struct Packet {
  int src = 0;
  int tag = 0;
  MsgBuf data;
  double recv_copy = 0.0;  // receiver CPU cost on consume
  double sent_at = 0.0;    // sender virtual time at the send call
};

}  // namespace repro::sim
