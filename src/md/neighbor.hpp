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
  // the nonbonded kernels run unchanged. Bypasses the build memo: the
  // inputs are rank-local, never shared.
  void build_subset(const Topology& topo, const Box& box,
                    const std::vector<util::Vec3>& pos,
                    const std::vector<int>& candidates,
                    const std::vector<std::uint8_t>& row_mask);

  bool needs_rebuild(const Box& box,
                     const std::vector<util::Vec3>& pos) const;

  // CSR access: neighbors of atom i are neighbors()[offsets()[i] ..
  // offsets()[i+1]).
  const std::vector<std::size_t>& offsets() const { return *offsets_view_; }
  const std::vector<int>& neighbors() const { return *neighbors_view_; }
  std::size_t npairs() const { return neighbors_view_->size(); }

  double cutoff() const { return cutoff_; }
  double skin() const { return skin_; }

  // The views may point into a shared build-memo entry (see build() in
  // neighbor.cpp), so copying a list would alias or dangle.
  NeighborList(const NeighborList&) = delete;
  NeighborList& operator=(const NeighborList&) = delete;

 private:
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
  std::vector<std::size_t> offsets_;
  std::vector<int> neighbors_;
  std::vector<util::Vec3> built_pos_;
  Box built_box_;

  // build() borrows the memo entry's arrays instead of copying ~MBs of
  // CSR data; the keepalive pins the entry while views point at it. After
  // build_subset() the views point at the members above.
  std::shared_ptr<const void> cache_keepalive_;
  const std::vector<std::size_t>* offsets_view_ = &offsets_;
  const std::vector<int>* neighbors_view_ = &neighbors_;
  const std::vector<util::Vec3>* built_pos_view_ = &built_pos_;

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

}  // namespace repro::md
