// Byte hashing for util::ExactMemo (util/exact_memo.hpp), the exact-input
// memo behind the neighbor-list build and the parallel-FFT local stages.
// The hash is only ever a cheap pre-filter: a hit is decided by exact byte
// comparison of the full inputs, so a collision can cost a memcmp, never a
// wrong result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace repro::util {

// FNV-1a processed 8 bytes at a time (tail bytes folded one at a time).
// Not the canonical byte-wise FNV stream — a fixed, process-local variant
// chosen for speed on multi-megabyte buffers.
inline std::uint64_t fnv1a_bytes(const void* data, std::size_t nbytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ULL;
  std::size_t i = 0;
  for (; i + 8 <= nbytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h ^= w;
    h *= 1099511628211ULL;
  }
  for (; i < nbytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// Mixes a second hash (or any 64-bit tag) into an existing one.
inline std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace repro::util
