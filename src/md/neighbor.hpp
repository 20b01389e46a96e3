// Verlet pair list built with a cell grid under periodic boundaries.
//
// Pairs (i < j) within cutoff + skin, with excluded pairs removed, stored
// in CSR form. The list is valid until some atom moves more than skin/2
// from its position at build time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "md/box.hpp"
#include "md/topology.hpp"
#include "util/vec3.hpp"

namespace repro::md {

class NeighborList {
 public:
  NeighborList(double cutoff, double skin) : cutoff_(cutoff), skin_(skin) {
    REPRO_REQUIRE(cutoff > 0.0 && skin >= 0.0, "bad neighbor-list radii");
  }

  void build(const Topology& topo, const Box& box,
             const std::vector<util::Vec3>& pos);

  // Spatial-decomposition build: the same CSR list restricted to a rank's
  // atoms. Only atoms in `candidates` (a rank's owned + ghost set;
  // distinct atoms, in any order) are binned, and a pair (i < j) is kept iff row_mask[i] is set — so the
  // union over ranks of disjoint row masks reproduces build()'s arrays
  // row for row when every candidate list covers the mask's range
  // neighborhood. Entries of `pos` outside `candidates` are never read.
  // Offsets still span all natoms rows (non-candidate rows are empty), so
  // the nonbonded kernels run unchanged.
  void build_subset(const Topology& topo, const Box& box,
                    const std::vector<util::Vec3>& pos,
                    const std::vector<int>& candidates,
                    const std::vector<std::uint8_t>& row_mask);

  bool needs_rebuild(const Box& box,
                     const std::vector<util::Vec3>& pos) const;

  // Makes this list share `lender`'s current arrays instead of building
  // (no copy). A later build() of either list leaves the other intact.
  void borrow(const NeighborList& lender) { arrays_ = lender.arrays_; }

  // CSR access: neighbors of atom i are neighbors()[offsets()[i] ..
  // offsets()[i+1]).
  const std::vector<std::size_t>& offsets() const { return arrays_->offsets; }
  const std::vector<int>& neighbors() const { return arrays_->neighbors; }
  std::size_t npairs() const { return arrays_->neighbors.size(); }
  // The coordinates the list was last built from.
  const std::vector<util::Vec3>& built_positions() const {
    return arrays_->built_pos;
  }

  double cutoff() const { return cutoff_; }
  double skin() const { return skin_; }

 private:
  // The built list, possibly shared with lists that borrowed it.
  struct Arrays {
    std::vector<std::size_t> offsets;
    std::vector<int> neighbors;
    std::vector<util::Vec3> built_pos;
    util::Vec3 built_box;
  };

  // The arrays a build may overwrite: the current ones when no other list
  // shares them, fresh ones otherwise.
  Arrays& writable_arrays();

  // The one cell sweep behind build() and build_subset(): bins `atoms`
  // (every atom when null) and writes the CSR list of pairs (i < j) within
  // cutoff + skin, excluded pairs removed, whose row i passes `row_mask`
  // (every row when null).
  void sweep(const Topology& topo, const Box& box,
             const std::vector<util::Vec3>& pos,
             const std::vector<int>* atoms,
             const std::vector<std::uint8_t>* row_mask,
             std::vector<std::size_t>& offsets, std::vector<int>& neighbors);

  double cutoff_;
  double skin_;
  std::shared_ptr<Arrays> arrays_ = std::make_shared<Arrays>();

  // Persistent sweep scratch. A rebuild runs every few steps on the hot
  // path; keeping these as members means it allocates nothing once
  // capacities have warmed up (contents are meaningless between calls).
  std::vector<int> atom_cell_;            // per atom; -1 when not binned
  std::vector<std::size_t> cell_start_;   // CSR cell lists over the slots
  std::vector<std::size_t> cell_next_;    // per cell: first slot with j > i
  std::vector<int> cell_nbrs_;            // per cell: its stencil cells
  std::vector<int> slot_atom_;            // cell-ordered atom indices
  std::vector<double> slot_x_, slot_y_, slot_z_;  // and their coordinates
  std::vector<double> r2_;                // one cell's candidate distances
  std::vector<std::uint64_t> row_bits_;   // one bit per atom; zero between rows
};

// One neighbor list per rebuild step for the replicated-data ranks of one
// experiment. Those ranks hold identical positions and run as fibers on
// one thread, so the first rank to reach a rebuild step builds the list
// and the others borrow its arrays — after checking, byte for byte, that
// their positions are the ones it was built from. A mismatch means the
// replicated-data invariant broke and fails loudly.
class SharedNeighborList {
 public:
  SharedNeighborList(double cutoff, double skin) : list_(cutoff, skin) {}

  // Points `nbl` at the list for (box, pos) at `step`, building it if
  // this is the first request for `step`. `rank` names the caller in the
  // mismatch error.
  void build(NeighborList& nbl, const Topology& topo, const Box& box,
             const std::vector<util::Vec3>& pos, int rank, int step);

 private:
  NeighborList list_;
  int step_ = -1;
};

}  // namespace repro::md
