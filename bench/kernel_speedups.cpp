// Host timings of the three physics hot paths: the LJ/Ewald pair kernel,
// the serial PME reciprocal solve (B-spline spread + interpolate + FFT) and
// the 3-D FFT on the paper's 80 x 36 x 48 grid.
//
// This is a hand-timed binary rather than a google-benchmark one so it
// can take --json=FILE and write BENCH_kernels.json directly (the
// BENCHMARK_MAIN driver rejects unknown flags). Each kernel is timed
// best-of-N to shave scheduler noise. The pair kernel's accuracy is the
// tests' job: kernel_variant_test holds it to the libm oracle in
// tests/pair_oracle.hpp, and fft_test holds the FFT to a long-double DFT.
//
// usage: kernel_speedups [--smoke] [--json=FILE]
//   --smoke   CI mode: one rep per kernel, seconds of wall clock total.
//   --json    write BENCH_kernels.json-style output.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "fft/fft.hpp"
#include "md/neighbor.hpp"
#include "md/nonbonded.hpp"
#include "pme/pme.hpp"
#include "sysbuild/builder.hpp"
#include "util/rng.hpp"

using namespace repro;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Best-of-reps wall time per call of fn (which runs `iters` calls).
template <typename Fn>
double best_of(int reps, int iters, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    for (int i = 0; i < iters; ++i) fn();
    const double dt = (now_s() - t0) / iters;
    if (dt < best) best = dt;
  }
  return best;
}

// One kernel: best-of per-call time.
struct KernelResult {
  std::string name;
  std::string unit;    // what items/sec counts
  double items = 0.0;  // items per call
  double seconds = 0.0;
};

// --- pair kernel: LJ + Ewald direct on a bulk water box ------------------

KernelResult run_pair(int reps, int iters) {
  const sysbuild::BuiltSystem sys = sysbuild::build_water_box(8);
  md::NonbondedOptions opts;
  opts.cutoff = 9.0;
  opts.switch_on = 7.0;
  opts.elec = md::NonbondedOptions::Elec::kEwaldDirect;
  opts.table = md::build_pair_table(sys.topo);
  md::NeighborList nbl(opts.cutoff, 2.0);
  nbl.build(sys.topo, sys.box, sys.positions);
  std::vector<util::Vec3> forces(static_cast<std::size_t>(sys.topo.natoms()));

  std::size_t pairs = 0;
  auto run = [&] {
    std::fill(forces.begin(), forces.end(), util::Vec3{});
    md::EnergyTerms e;
    pairs = md::nonbonded_energy(sys.topo, sys.box, sys.positions, nbl, opts,
                                 forces, e)
                .pairs_listed;
  };

  KernelResult kr;
  kr.name = "pair_lj_ewald";
  kr.unit = "listed pairs";
  run();  // warm caches
  kr.items = static_cast<double>(pairs);
  kr.seconds = best_of(reps, iters, run);
  return kr;
}

// --- PME reciprocal: spread + 3-D FFT + convolve + interpolate -----------

KernelResult run_pme(int reps, int iters) {
  const sysbuild::BuiltSystem sys = sysbuild::build_myoglobin_like();
  const pme::PmeParams params{80, 36, 48, 4, 0.34};
  pme::SerialPme pme(params, sys.box);
  std::vector<util::Vec3> forces(static_cast<std::size_t>(sys.topo.natoms()));

  KernelResult pr;
  pr.name = "pme_reciprocal";
  pr.unit = "atoms";
  pr.items = static_cast<double>(sys.topo.natoms());
  pr.seconds = best_of(reps, iters, [&] {
    std::fill(forces.begin(), forces.end(), util::Vec3{});
    pme.reciprocal(sys.topo, sys.positions, forces);
  });
  return pr;
}

// --- 3-D FFT on the paper's PME grid -------------------------------------

KernelResult run_fft(int reps, int iters) {
  constexpr int nx = 80, ny = 36, nz = 48;
  constexpr std::size_t n = static_cast<std::size_t>(nx) * ny * nz;
  util::Rng rng(1138);
  std::vector<fft::Complex> ref(n);
  for (auto& c : ref) c = fft::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  const fft::Fft3D plan(nx, ny, nz);

  KernelResult pr;
  pr.name = "fft3d_80x36x48";
  pr.unit = "grid points";
  pr.items = static_cast<double>(n);
  std::vector<fft::Complex> work = ref;
  pr.seconds = best_of(reps, iters, [&] {
    work = ref;
    plan.forward(work.data());
  });
  return pr;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "unknown option: %s (supported: --smoke --json=FILE)\n",
                   arg.c_str());
      return 2;
    }
  }

  const int reps = smoke ? 2 : 5;
  const int iters = smoke ? 1 : 3;

  std::printf("kernel timings (best of %d x %d calls)\n", reps, iters);
  const std::vector<KernelResult> kernels = {
      run_pair(reps, iters), run_pme(reps, iters), run_fft(reps, iters)};
  std::printf("%-16s %12s %14s\n", "kernel", "ms", "items/s");
  for (const auto& kr : kernels) {
    std::printf("%-16s %12.3f %14.3e\n", kr.name.c_str(), kr.seconds * 1e3,
                kr.seconds > 0 ? kr.items / kr.seconds : 0.0);
  }
  std::fflush(stdout);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"benchmark\": \"Physics hot paths, one kernel each: the pair "
        "kernel (branch-free #pragma omp simd with tabulated erfc/exp), the "
        "serial PME reciprocal solve and the 3-D FFT (batched multi-line "
        "FFT with radix-2/3/4/5 butterflies, per-plan influence "
        "table)\",\n");
    std::fprintf(f,
                 "  \"machine\": { \"hardware_threads\": %u, \"note\": "
                 "\"-O3, no -march flags; best-of-%d timing over %d calls "
                 "per rep\" },\n",
                 std::thread::hardware_concurrency(), reps, iters);
    std::fprintf(f,
                 "  \"accuracy_note\": \"tests/kernel_variant_test.cpp "
                 "holds the pair kernel to the libm oracle in "
                 "tests/pair_oracle.hpp (1e-10 relative, identical work "
                 "counters). The 1.8x pair speedup this file used to show "
                 "was this kernel against that scalar libm code, when both "
                 "were production kernels. tests/fft_test.cpp holds the FFT "
                 "to a long-double naive DFT (max error <= 1e-15 of the "
                 "largest output for n = 36, 48, 80, 97); the butterflies "
                 "measure 1.5e-16 to 5.8e-16 there, the generic combine "
                 "they replaced 4.0e-16 to 8.1e-16. The PME and FFT output "
                 "bytes are pinned by digests in tests/fft_test.cpp and "
                 "tests/pme_test.cpp.\",\n");
    std::fprintf(f, "  \"kernels\": [");
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      const KernelResult& kr = kernels[k];
      std::fprintf(f,
                   "%s\n    { \"kernel\": \"%s\", \"ms\": %.3f, "
                   "\"items\": \"%s\", \"items_per_sec\": %.3e }",
                   k == 0 ? "" : ",", kr.name.c_str(), kr.seconds * 1e3,
                   kr.unit.c_str(),
                   kr.seconds > 0 ? kr.items / kr.seconds : 0.0);
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
