#include "charmm/ldb.hpp"

#include <algorithm>
#include <numeric>

#include "md/work_slice.hpp"
#include "util/error.hpp"

namespace repro::charmm {

UnitWork count_unit_work(int nunits, const md::Topology& topo,
                         const md::NeighborList& nbl,
                         const std::vector<int>& unit_of_row) {
  REPRO_REQUIRE(unit_of_row.size() ==
                    static_cast<std::size_t>(topo.natoms()),
                "unit_of_row must have one entry per atom");
  UnitWork work;
  work.pairs.assign(static_cast<std::size_t>(nunits), 0);
  work.bonded.assign(static_cast<std::size_t>(nunits), 0);
  work.excl.assign(static_cast<std::size_t>(nunits), 0);
  const std::vector<std::size_t>& offsets = nbl.offsets();
  for (std::size_t i = 0; i < unit_of_row.size(); ++i) {
    const int u = unit_of_row[i];
    if (u < 0) continue;
    work.pairs[static_cast<std::size_t>(u)] +=
        static_cast<long>(offsets[i + 1] - offsets[i]);
  }
  auto count_by_first_atom = [&](const auto& terms, std::vector<long>& n) {
    for (const auto& t : terms) {
      const int u = unit_of_row[static_cast<std::size_t>(md::first_atom(t))];
      if (u >= 0) ++n[static_cast<std::size_t>(u)];
    }
  };
  count_by_first_atom(topo.bonds(), work.bonded);
  count_by_first_atom(topo.angles(), work.bonded);
  count_by_first_atom(topo.dihedrals(), work.bonded);
  count_by_first_atom(topo.impropers(), work.bonded);
  count_by_first_atom(topo.excluded_pairs(), work.excl);
  return work;
}

namespace {

std::vector<int> rebalance_greedy(const std::vector<double>& unit_cost,
                                  const std::vector<double>& rank_speed) {
  const int nunits = static_cast<int>(unit_cost.size());
  const int nprocs = static_cast<int>(rank_speed.size());
  std::vector<int> order(unit_cost.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return unit_cost[a] != unit_cost[b] ? unit_cost[a] > unit_cost[b]
                                        : a < b;
  });
  std::vector<int> unit_rank(unit_cost.size(), 0);
  std::vector<double> load(rank_speed.size(), 0.0);
  for (int u : order) {
    int best = 0;
    double best_finish =
        (load[0] + unit_cost[static_cast<std::size_t>(u)]) * rank_speed[0];
    for (int r = 1; r < nprocs; ++r) {
      const double finish =
          (load[static_cast<std::size_t>(r)] +
           unit_cost[static_cast<std::size_t>(u)]) *
          rank_speed[static_cast<std::size_t>(r)];
      if (finish < best_finish) {
        best = r;
        best_finish = finish;
      }
    }
    unit_rank[static_cast<std::size_t>(u)] = best;
    load[static_cast<std::size_t>(best)] +=
        unit_cost[static_cast<std::size_t>(u)];
  }
  (void)nunits;
  return unit_rank;
}

std::vector<int> rebalance_refine(const std::vector<double>& unit_cost,
                                  const std::vector<double>& rank_speed,
                                  const std::vector<int>& current) {
  const int nunits = static_cast<int>(unit_cost.size());
  const int nprocs = static_cast<int>(rank_speed.size());
  std::vector<int> unit_rank = current;
  std::vector<double> load(rank_speed.size(), 0.0);
  for (int u = 0; u < nunits; ++u) {
    load[static_cast<std::size_t>(unit_rank[u])] +=
        unit_cost[static_cast<std::size_t>(u)];
  }
  auto finish = [&](int r) {
    return load[static_cast<std::size_t>(r)] *
           rank_speed[static_cast<std::size_t>(r)];
  };
  // Each pass moves one unit off the bottleneck rank; the makespan
  // strictly decreases every pass, so nunits · nprocs bounds the loop
  // comfortably (each unit visits a rank at most once on the way down).
  for (int pass = 0; pass < nunits * nprocs; ++pass) {
    int bottleneck = 0;
    for (int r = 1; r < nprocs; ++r) {
      if (finish(r) > finish(bottleneck)) bottleneck = r;
    }
    const double old_makespan = finish(bottleneck);
    int best_unit = -1;
    int best_rank = -1;
    double best_peak = old_makespan;
    for (int u = 0; u < nunits; ++u) {
      if (unit_rank[u] != bottleneck) continue;
      const double c = unit_cost[static_cast<std::size_t>(u)];
      const double src_after =
          (load[static_cast<std::size_t>(bottleneck)] - c) *
          rank_speed[static_cast<std::size_t>(bottleneck)];
      for (int r = 0; r < nprocs; ++r) {
        if (r == bottleneck) continue;
        const double dst_after =
            (load[static_cast<std::size_t>(r)] + c) *
            rank_speed[static_cast<std::size_t>(r)];
        const double peak = std::max(src_after, dst_after);
        if (peak < best_peak) {
          best_peak = peak;
          best_unit = u;
          best_rank = r;
        }
      }
    }
    if (best_unit < 0) break;  // local optimum: no strictly improving move
    load[static_cast<std::size_t>(bottleneck)] -=
        unit_cost[static_cast<std::size_t>(best_unit)];
    load[static_cast<std::size_t>(best_rank)] +=
        unit_cost[static_cast<std::size_t>(best_unit)];
    unit_rank[static_cast<std::size_t>(best_unit)] = best_rank;
  }
  return unit_rank;
}

}  // namespace

std::vector<int> rebalance_units(LdbPolicy policy,
                                 const std::vector<double>& unit_cost,
                                 const std::vector<double>& rank_speed,
                                 const std::vector<int>& current) {
  REPRO_REQUIRE(current.size() == unit_cost.size(),
                "rebalance: unit map and cost vector size mismatch");
  REPRO_REQUIRE(!rank_speed.empty(), "rebalance: no ranks");
  switch (policy) {
    case LdbPolicy::kOff:
      return current;
    case LdbPolicy::kGreedy:
      return rebalance_greedy(unit_cost, rank_speed);
    case LdbPolicy::kRefine:
      return rebalance_refine(unit_cost, rank_speed, current);
  }
  REPRO_UNREACHABLE("bad ldb policy");
}

std::vector<std::vector<int>> replay_unit_maps(
    const SpatialStart& start, const md::Topology& topo,
    const md::NeighborList& nbl, const std::vector<util::Vec3>& pos,
    const CostModel& cost, bool use_pme, LdbPolicy policy, int nrebalances) {
  REPRO_REQUIRE(start.units.has_value(),
                "balancer replay needs a start with a work-unit grid");
  const UnitGrid& grid = *start.units;
  std::vector<int> unit_of_row(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    unit_of_row[i] = grid.cell_unit[static_cast<std::size_t>(
        start.layout.cell_of(pos[i]))];
  }
  const UnitWork work = count_unit_work(grid.nunits, topo, nbl, unit_of_row);
  std::vector<double> unit_cost(static_cast<std::size_t>(grid.nunits));
  for (int u = 0; u < grid.nunits; ++u) {
    unit_cost[static_cast<std::size_t>(u)] = unit_cost_seconds(
        cost, work.pairs[static_cast<std::size_t>(u)],
        work.bonded[static_cast<std::size_t>(u)],
        work.excl[static_cast<std::size_t>(u)], use_pme);
  }
  const std::vector<double> speed(
      static_cast<std::size_t>(start.layout.nprocs), 1.0);
  std::vector<std::vector<int>> maps;
  maps.push_back(start.unit_rank);
  for (int k = 0; k < nrebalances; ++k) {
    maps.push_back(rebalance_units(policy, unit_cost, speed, maps.back()));
  }
  return maps;
}

}  // namespace repro::charmm
