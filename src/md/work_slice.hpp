// Which slice of a force kernel's work one call evaluates.
//
// Every decomposition evaluates the same kernels; they differ only in which
// terms a rank takes. A WorkSlice names that choice with one of three
// rules:
//   interleaved(shard, stride) — terms (pair-list rows for the pair
//       kernel) with index % stride == shard; the replicated-data
//       strategies' rule, and the whole set at (0, 1);
//   owned_atoms(mask)          — terms whose FIRST atom (rows i for the
//       pair kernel) has its mask entry set; the spatial decomposition's
//       rule, where masks are disjoint across ranks;
//   pair_blocks(block, owner, nowners) — pair (i, j) iff
//       (block[i] + block[j]) % nowners == owner; the force
//       decomposition's pair-matrix rule, for the pair kernel only.
// Disjoint slices of one rule partition the terms, so summing the calls
// reproduces the whole-set evaluation's counts, energies and forces (to
// summation order). The pair kernel resolves the rule per row, outside its
// pair loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace repro::md {

class WorkSlice {
 public:
  enum class Rule { kInterleaved, kOwnedAtoms, kPairBlocks };

  // The whole set.
  WorkSlice() = default;

  static WorkSlice interleaved(int shard, int stride) {
    REPRO_REQUIRE(stride >= 1 && shard >= 0 && shard < stride,
                  "bad shard/stride");
    WorkSlice s;
    s.shard_ = shard;
    s.stride_ = stride;
    return s;
  }

  // `mask` (one entry per atom) must outlive the slice.
  static WorkSlice owned_atoms(const std::vector<std::uint8_t>& mask) {
    WorkSlice s;
    s.rule_ = Rule::kOwnedAtoms;
    s.mask_ = &mask;
    return s;
  }

  // `block` (one entry per atom, values in [0, nowners)) must outlive the
  // slice.
  static WorkSlice pair_blocks(const std::vector<int>& block, int owner,
                               int nowners) {
    REPRO_REQUIRE(nowners >= 1 && owner >= 0 && owner < nowners,
                  "bad owner/nowners");
    WorkSlice s;
    s.rule_ = Rule::kPairBlocks;
    s.shard_ = owner;
    s.stride_ = nowners;
    s.block_ = &block;
    return s;
  }

  Rule rule() const { return rule_; }
  // Interleaved share, or the pair-block owner and owner count.
  int shard() const { return shard_; }
  int stride() const { return stride_; }
  const std::vector<std::uint8_t>& mask() const { return *mask_; }
  const std::vector<int>& block() const { return *block_; }

  // Fails unless the slice's per-atom map covers `natoms` atoms.
  void require_atoms(std::size_t natoms) const {
    REPRO_REQUIRE(rule_ != Rule::kOwnedAtoms || mask_->size() == natoms,
                  "ownership mask size mismatch");
    REPRO_REQUIRE(rule_ != Rule::kPairBlocks || block_->size() == natoms,
                  "block map must cover every atom");
  }

 private:
  Rule rule_ = Rule::kInterleaved;
  int shard_ = 0;
  int stride_ = 1;
  const std::vector<std::uint8_t>* mask_ = nullptr;
  const std::vector<int>* block_ = nullptr;
};

// First (owning) atom of a term: bonded terms and excluded pairs alike.
template <class Term>
int first_atom(const Term& t) {
  return t.i;
}
inline int first_atom(const std::pair<int, int>& p) { return p.first; }

// Calls fn(term) for each term of `terms` in `slice`, in index order: a
// strided index loop for an interleaved slice, a first-atom test for an
// owned-atom one. Pair-block slices apply to pair lists only.
template <class Term, class Fn>
void for_each_term(const std::vector<Term>& terms, const WorkSlice& slice,
                   Fn&& fn) {
  REPRO_REQUIRE(slice.rule() != WorkSlice::Rule::kPairBlocks,
                "pair-block slices select pairs of a pair list only");
  if (slice.rule() == WorkSlice::Rule::kOwnedAtoms) {
    for (const Term& term : terms) {
      if (slice.mask()[static_cast<std::size_t>(first_atom(term))]) fn(term);
    }
    return;
  }
  for (std::size_t t = static_cast<std::size_t>(slice.shard());
       t < terms.size(); t += static_cast<std::size_t>(slice.stride())) {
    fn(terms[t]);
  }
}

}  // namespace repro::md
