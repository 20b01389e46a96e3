// The byte-wise 64-bit FNV-1a digest behind the tests' bit-identity pins.
//
// It is kept apart from util::fnv1a_bytes, which folds in 8 bytes at a
// time and so gives other digests: the pins must not move with it. The
// offset basis is this repo's 1469598103934665603, one digit short of
// FNV-1a's 14695981039346656037; it is kept because every digest pin
// depends on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace repro::testutil {

inline constexpr std::uint64_t kDigestBasis = 1469598103934665603ULL;

// Folds `nbytes` bytes at `data` into `h`; chain calls to digest several
// buffers as one stream.
inline std::uint64_t fnv1a(const void* data, std::size_t nbytes,
                           std::uint64_t h = kDigestBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < nbytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

template <class T>
std::uint64_t fnv1a(const std::vector<T>& v, std::uint64_t h = kDigestBasis) {
  return fnv1a(v.data(), v.size() * sizeof(T), h);
}

}  // namespace repro::testutil
