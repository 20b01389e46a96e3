// Bonded energy/force kernels (bonds, angles + Urey-Bradley, dihedrals,
// impropers).
//
// Every kernel computes the terms with index % stride == shard (atom- or
// term-decomposition for the replicated-data parallelization: forces are
// accumulated into a full-size array and globally summed afterwards).
// Each kernel returns the number of terms it evaluated so the simulator's
// cost model can charge virtual compute time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "md/box.hpp"
#include "md/energy.hpp"
#include "md/topology.hpp"
#include "util/vec3.hpp"

namespace repro::md {

struct BondedWork {
  std::size_t bonds = 0;
  std::size_t angles = 0;
  std::size_t dihedrals = 0;
  std::size_t impropers = 0;
  std::size_t total() const { return bonds + angles + dihedrals + impropers; }
};

// Evaluates all bonded terms of `topo` belonging to this shard, adding to
// `energy` and `forces` (forces must be sized natoms and zeroed or
// pre-accumulated by the caller).
BondedWork bonded_energy(const Topology& topo, const Box& box,
                         const std::vector<util::Vec3>& pos,
                         std::vector<util::Vec3>& forces, EnergyTerms& energy,
                         int shard = 0, int stride = 1);

// Spatial-decomposition variant: evaluates exactly the terms whose FIRST
// atom (b.i / a.i / d.i / im.i) has owned_mask set, so disjoint ownership
// masks partition the term set across ranks. Positions of every partner
// atom of an owned term must be valid (owned or ghost); forces may land on
// ghost rows and are shipped home by the caller's force halo.
BondedWork bonded_energy_owned(const Topology& topo, const Box& box,
                               const std::vector<util::Vec3>& pos,
                               const std::vector<std::uint8_t>& owned_mask,
                               std::vector<util::Vec3>& forces,
                               EnergyTerms& energy);

}  // namespace repro::md
