// Microbenchmarks for the MD kernels (regression guards; not a paper
// figure). The non-bonded kernel and the list builder run on a realistic
// water box at bulk density.
#include <benchmark/benchmark.h>

#include "md/bonded.hpp"
#include "md/neighbor.hpp"
#include "md/nonbonded.hpp"
#include "sysbuild/builder.hpp"

namespace {

using namespace repro;

const sysbuild::BuiltSystem& water() {
  static const sysbuild::BuiltSystem sys = sysbuild::build_water_box(8);
  return sys;
}

void BM_NeighborListBuild(benchmark::State& state) {
  const auto& sys = water();
  md::NeighborList nbl(9.0, 2.0);
  for (auto _ : state) {
    nbl.build(sys.topo, sys.box, sys.positions);
    benchmark::DoNotOptimize(nbl.npairs());
  }
  state.counters["pairs"] = static_cast<double>(nbl.npairs());
}
BENCHMARK(BM_NeighborListBuild)->Unit(benchmark::kMillisecond);

void BM_NonbondedKernel(benchmark::State& state) {
  const auto& sys = water();
  md::NonbondedOptions opts;
  opts.cutoff = 9.0;
  opts.switch_on = 7.0;
  opts.elec = md::NonbondedOptions::Elec::kEwaldDirect;
  opts.table = md::build_pair_table(sys.topo);
  md::NeighborList nbl(opts.cutoff, 2.0);
  nbl.build(sys.topo, sys.box, sys.positions);
  std::vector<util::Vec3> forces(
      static_cast<std::size_t>(sys.topo.natoms()));
  std::size_t pairs = 0;
  for (auto _ : state) {
    std::fill(forces.begin(), forces.end(), util::Vec3{});
    md::EnergyTerms e;
    pairs = md::nonbonded_energy(sys.topo, sys.box, sys.positions, nbl,
                                 opts, forces, e)
                .pairs_listed;
    benchmark::DoNotOptimize(e.lj);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(pairs));
}
BENCHMARK(BM_NonbondedKernel)->Unit(benchmark::kMillisecond);

void BM_BondedKernel(benchmark::State& state) {
  const auto sys = sysbuild::build_test_chain(500, 9);
  std::vector<util::Vec3> forces(
      static_cast<std::size_t>(sys.topo.natoms()));
  for (auto _ : state) {
    std::fill(forces.begin(), forces.end(), util::Vec3{});
    md::EnergyTerms e;
    md::bonded_energy(sys.topo, sys.box, sys.positions, forces, e);
    benchmark::DoNotOptimize(e.bond);
  }
}
BENCHMARK(BM_BondedKernel);

void BM_SystemBuilder(benchmark::State& state) {
  for (auto _ : state) {
    const auto sys = sysbuild::build_myoglobin_like(7);
    benchmark::DoNotOptimize(sys.topo.natoms());
  }
}
BENCHMARK(BM_SystemBuilder)->Unit(benchmark::kMillisecond)->Iterations(2);

}  // namespace

BENCHMARK_MAIN();
