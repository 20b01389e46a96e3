// Measurement-driven load balancing of the spatial decomposition's
// migratable work units (CHARM++/NAMD-style: overdecompose into units ≫
// ranks, measure each unit's cost, periodically recompute unit→rank).
//
// Everything here is deterministic pure computation shared by the
// decomposition (charmm/decomposition.cpp) and the analytic predictor
// (core/model.cpp): both must derive bit-identical unit costs and
// identical rebalance decisions from the same inputs, which is what lets
// the predictor pin the migration message/byte schedule exactly. The
// predictor replays with unit rank-speeds of 1.0 and zero drift — the
// fault-free contract under which a simulated run's measured speeds are
// exactly 1.0 too (the recorder accumulates the very seconds the cost
// model charges).
#pragma once

#include <vector>

#include "charmm/cost_model.hpp"
#include "charmm/decomp_spec.hpp"
#include "charmm/spatial.hpp"
#include "md/neighbor.hpp"
#include "md/topology.hpp"

namespace repro::charmm {

// Per-unit integer work counts for one epoch. Every term is attributed
// to the unit of its first (owning) atom's build-time cell — the same
// first-atom rule as the owned-atom WorkSlice (md/work_slice.hpp) the
// spatial ranks evaluate under, and the subset pair list's row rule — so
// a unit's cost is counted by exactly one rank and survives migration
// unchanged.
struct UnitWork {
  std::vector<long> pairs;   // neighbor-list CSR rows
  std::vector<long> bonded;  // bond + angle + dihedral + improper terms
  std::vector<long> excl;    // excluded pairs (ewald_corr phase)
};

// Accumulates the counts for rows whose `unit_of_row` entry is >= 0
// (entries of -1 mark atoms outside the caller's view: a rank passes its
// owned atoms only, the predictor passes every atom). The neighbor list
// may be a full build or a subset build — the selected rows' contents
// are identical by build_subset's contract.
UnitWork count_unit_work(int nunits, const md::Topology& topo,
                         const md::NeighborList& nbl,
                         const std::vector<int>& unit_of_row);

// The per-step compute seconds the decomposition charges for a unit's
// share of the bonded/nonbonded/ewald_corr phases. One canonical
// expression — simulator measurement basis and predictor replay must
// agree bitwise.
inline double unit_cost_seconds(const CostModel& cost, long pairs,
                                long bonded, long excl, bool use_pme) {
  return cost.seconds_per_pair * static_cast<double>(pairs) +
         cost.seconds_per_bonded_term *
             static_cast<double>(bonded + (use_pme ? excl : 0));
}

// Recomputes the unit→rank map from measured inputs. `unit_cost` is the
// per-step model cost of each unit; `rank_speed` is each rank's measured
// slowdown (measured busy time / model busy time, 1.0 when healthy, > 1
// for stragglers — a unit on rank r is predicted to take cost · speed).
//   kGreedy: sort units by cost (desc, id tiebreak), assign each to the
//            rank whose speed-scaled finish time is smallest.
//   kRefine: start from `current` and repeatedly move the best unit off
//            the bottleneck rank while that strictly lowers the predicted
//            makespan — fewer migrations, fixed point under steady load.
// Deterministic: identical inputs give identical maps on every rank.
std::vector<int> rebalance_units(LdbPolicy policy,
                                 const std::vector<double>& unit_cost,
                                 const std::vector<double>& rank_speed,
                                 const std::vector<int>& current);

// Zero-drift, fault-free replay of the whole balancer trajectory from
// `start` (which must have a unit grid): the maps a run adopts at the
// cold start and at each of `nrebalances` rebuild-time rebalances,
// computed from a full neighbor list over the initial positions with
// every rank speed 1.0. result[0] is start.unit_rank; result[k] the map
// adopted at the k-th rebalance.
std::vector<std::vector<int>> replay_unit_maps(
    const SpatialStart& start, const md::Topology& topo,
    const md::NeighborList& nbl, const std::vector<util::Vec3>& pos,
    const CostModel& cost, bool use_pme, LdbPolicy policy, int nrebalances);

}  // namespace repro::charmm
