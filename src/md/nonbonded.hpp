// Non-bonded energy/force kernels.
//
// Lennard-Jones uses CHARMM's Emin/Rmin form with an energy switching
// function between switch_on and cutoff (VSWITCH). Electrostatics is one
// of:
//   kShift       — CHARMM SHIFT: qq/r (1 - r^2/rc^2)^2, the paper's
//                  "electrostatic interactions shifted to zero at 10 Å"
//                  (the classic, non-PME model), and
//   kEwaldDirect — the real-space Ewald term qq erfc(beta r)/r used for the
//                  direct sum when PME handles the long-range part.
//
// There is one pair kernel, and one pair-row driver for every
// decomposition: a WorkSlice (md/work_slice.hpp) says which rows or pairs a
// call takes, and the rule is resolved outside the pair loop. The row is
// SoA-staged into width-agnostic vector lanes (#pragma omp simd) with a
// chunked gather/compact/compute structure and Hermite-table erfc/exp, and
// its forces and energies are summed in a fixed lane order, so the output
// does not depend on the vector width. The straight libm form of the same
// physics lives in tests/pair_oracle.hpp, which holds this kernel to 1e-10
// relative and its work counters to exact equality.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "md/box.hpp"
#include "md/energy.hpp"
#include "md/neighbor.hpp"
#include "md/topology.hpp"
#include "md/work_slice.hpp"
#include "util/kernel.hpp"
#include "util/vec3.hpp"

namespace repro::md {

// Precomputed LJ mixing table: atoms are deduplicated into LJ types by
// their exact (eps, rmin_half) values and the CHARMM combining rules are
// applied once per type pair instead of once per interaction
// (sqrt(eps_i eps_j) on identical inputs is correctly rounded, so each
// table entry is bit-identical to the per-pair math it replaces). charge
// is the SoA copy the kernel's gather loop reads.
struct PairTable {
  int ntypes = 0;
  std::vector<int> type_of;    // natoms -> LJ type id
  std::vector<double> eps;     // ntypes^2: sqrt(eps_i * eps_j)
  std::vector<double> rmin;    // ntypes^2: rmin_half_i + rmin_half_j
  std::vector<double> charge;  // natoms (e)
};

// Builds the table once at topology setup; callers stash it on
// NonbondedOptions::table so per-step kernel calls skip the dedup pass.
std::shared_ptr<const PairTable> build_pair_table(const Topology& topo);

struct NonbondedOptions {
  double cutoff = 10.0;     // Å (ctofnb)
  double switch_on = 8.0;   // Å (ctonnb, vdW switching)
  enum class Elec { kShift, kEwaldDirect } elec = Elec::kShift;
  double beta = 0.34;       // Ewald splitting parameter, 1/Å
  // Read by nothing: kept so the perfbench driver, which sets it, still
  // compiles; goes with the next change to the benchmark (util/kernel.hpp).
  util::KernelKind kernel = util::default_kernel_kind();
  // Optional precomputed mixing table; when null the kernel builds a
  // local one per call (identical results, just repeated setup work).
  std::shared_ptr<const PairTable> table;
};

struct NonbondedWork {
  std::size_t pairs_listed = 0;   // pairs examined from the list
  std::size_t pairs_in_cutoff = 0;
  double lj = 0.0;
  double elec = 0.0;
};

// Evaluates the pairs of the list in `slice` (md/work_slice.hpp): the
// rows i of an interleaved or owned-atom slice, or the pairs (i, j) a
// pair-block slice assigns to its owner, accumulating into forces/energy.
// pairs_listed counts the selected pairs.
NonbondedWork nonbonded_energy(const Topology& topo, const Box& box,
                               const std::vector<util::Vec3>& pos,
                               const NeighborList& nbl,
                               const NonbondedOptions& opts,
                               std::vector<util::Vec3>& forces,
                               EnergyTerms& energy,
                               const WorkSlice& slice = {});

}  // namespace repro::md
