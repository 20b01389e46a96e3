// Exact-input memoization for pure kernels whose inputs repeat byte for
// byte: replicated-data ranks build the same neighbor list and transform
// the same FFT slabs, and a factorial sweep replays the same trajectory
// once per platform cell (docs/ARCHITECTURE.md §6).
//
// An entry is keyed by a small `Key` of scalars (compared with ==) and by
// one input buffer per type in `Ts...` (compared byte for byte, so -0.0
// and 0.0 differ and NaNs never match away). The hash of the buffers is
// only a pre-filter, so a returned entry holds exactly the value the
// computation would produce. Entries are immutable and shared: a caller
// may keep one alive after the FIFO evicts it.
//
// One instance is shared by every thread of a process. The mutex guards
// only the entry deque: a lookup scans hashes, key scalars and buffer
// sizes under it and copies out the candidate pointers; the byte
// comparisons and the computation itself run after it is released.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace repro::util {

template <typename Key, typename Value, typename... Ts>
class ExactMemo {
 public:
  struct Entry {
    Key key;
    std::uint64_t hash = 0;
    std::tuple<std::vector<Ts>...> inputs;
    Value value;
  };

  explicit ExactMemo(std::size_t capacity) : capacity_(capacity) {}

  // Returns the entry for (key, inputs...), calling compute() -> Value on
  // a miss and storing the result (evicting the oldest entry at capacity).
  // Inputs of zero total length are never stored: compute() runs and the
  // returned entry is the caller's alone.
  template <typename Compute>
  std::shared_ptr<const Entry> find_or_compute(const Key& key,
                                               Compute&& compute,
                                               std::span<const Ts>... inputs) {
    const bool empty = (inputs.empty() && ...);
    const std::uint64_t hash = empty ? 0 : hash_of(inputs...);
    if (!empty) {
      if (auto hit = find(key, hash, inputs...)) return hit;
    }
    auto entry = std::make_shared<Entry>(Entry{
        key, hash, {std::vector<Ts>(inputs.begin(), inputs.end())...},
        compute()});
    if (!empty) {
      std::lock_guard<std::mutex> lock(mu_);
      if (entries_.size() >= capacity_) entries_.pop_front();
      entries_.push_back(entry);
    }
    return entry;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  static std::uint64_t hash_of(std::span<const Ts>... inputs) {
    std::uint64_t h = 0;
    ((h = hash_combine(h, fnv1a_bytes(inputs.data(), inputs.size_bytes()))),
     ...);
    return h;
  }

  template <typename T>
  static bool same_bytes(const std::vector<T>& stored,
                         std::span<const T> input) {
    // A zero-length buffer may have a null data pointer; memcmp must not
    // see it even with a zero count.
    return input.empty() ||
           std::memcmp(stored.data(), input.data(), input.size_bytes()) == 0;
  }

  std::shared_ptr<const Entry> find(const Key& key, std::uint64_t hash,
                                    std::span<const Ts>... inputs) const {
    // Hash, key and sizes normally single out one entry, but a hash
    // collision can put other entries ahead of the one that matches.
    std::vector<std::shared_ptr<const Entry>> candidates;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& e : entries_) {
        if (e->hash == hash && e->key == key &&
            std::apply(
                [&](const auto&... stored) {
                  return ((stored.size() == inputs.size()) && ...);
                },
                e->inputs)) {
          candidates.push_back(e);
        }
      }
    }
    for (const auto& c : candidates) {
      if (std::apply(
              [&](const auto&... stored) {
                return (same_bytes(stored, inputs) && ...);
              },
              c->inputs)) {
        return c;
      }
    }
    return nullptr;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::deque<std::shared_ptr<const Entry>> entries_;
};

}  // namespace repro::util
