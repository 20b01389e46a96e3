// Bonded energy/force kernels (bonds, angles + Urey-Bradley, dihedrals,
// impropers).
//
// Every kernel evaluates the terms of one WorkSlice (md/work_slice.hpp):
// an interleaved share of each term list for the replicated-data
// strategies, or the terms whose first atom a spatial rank owns. Forces
// accumulate into a full-size array (partner rows of owned terms may be
// ghosts, which the caller's force halo ships home). Each kernel returns
// the number of terms it evaluated so the simulator's cost model can
// charge virtual compute time.
#pragma once

#include <cstddef>
#include <vector>

#include "md/box.hpp"
#include "md/energy.hpp"
#include "md/topology.hpp"
#include "md/work_slice.hpp"
#include "util/vec3.hpp"

namespace repro::md {

struct BondedWork {
  std::size_t bonds = 0;
  std::size_t angles = 0;
  std::size_t dihedrals = 0;
  std::size_t impropers = 0;
  std::size_t total() const { return bonds + angles + dihedrals + impropers; }
};

// Evaluates the bonded terms of `topo` in `slice`, adding to `energy` and
// `forces` (forces must be sized natoms and zeroed or pre-accumulated by
// the caller). Positions of every atom of a selected term must be valid.
BondedWork bonded_energy(const Topology& topo, const Box& box,
                         const std::vector<util::Vec3>& pos,
                         std::vector<util::Vec3>& forces, EnergyTerms& energy,
                         const WorkSlice& slice = {});

}  // namespace repro::md
