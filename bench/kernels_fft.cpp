// Microbenchmarks for the FFT substrate (regression guards; not a paper
// figure). Sizes match the paper's PME grid dimensions 80 x 36 x 48.
#include <benchmark/benchmark.h>

#include "fft/fft.hpp"
#include "util/rng.hpp"

namespace {

using repro::fft::Complex;

std::vector<Complex> random_signal(std::size_t n) {
  repro::util::Rng rng(n);
  std::vector<Complex> v(n);
  for (auto& c : v) c = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return v;
}

void BM_Fft1D(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  repro::fft::Fft1D plan(n);
  auto data = random_signal(n);
  for (auto _ : state) {
    plan.forward(data.data());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_Fft1D)->Arg(36)->Arg(48)->Arg(80)->Arg(97)->Arg(128);

void BM_Fft1DInverseRoundTrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  repro::fft::Fft1D plan(n);
  auto data = random_signal(n);
  for (auto _ : state) {
    plan.forward(data.data());
    plan.inverse(data.data());
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_Fft1DInverseRoundTrip)->Arg(80);

void BM_Fft3DPaperGrid(benchmark::State& state) {
  repro::fft::Fft3D plan(80, 36, 48);
  auto grid = random_signal(80 * 36 * 48);
  for (auto _ : state) {
    plan.forward(grid.data());
    benchmark::DoNotOptimize(grid.data());
  }
  state.SetItemsProcessed(state.iterations() * 80 * 36 * 48);
}
BENCHMARK(BM_Fft3DPaperGrid)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
