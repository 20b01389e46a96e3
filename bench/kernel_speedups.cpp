// Host timings of the three physics hot paths: the LJ/Ewald pair kernel
// under --kernel=scalar and --kernel=simd, and the serial PME reciprocal
// solve (B-spline spread + interpolate + FFT) and the 3-D FFT on the
// paper's 80 x 36 x 48 grid, which have one kernel each.
//
// This is a hand-timed binary rather than a google-benchmark one so it
// can take --json=FILE and write BENCH_kernels.json directly (the
// BENCHMARK_MAIN driver rejects unknown flags). Each kernel is timed
// best-of-N to shave scheduler noise, and the simd pair kernel's energy is
// checked against the scalar one before any timing is trusted.
//
// usage: kernel_speedups [--smoke] [--json=FILE]
//   --smoke   CI mode: one rep per kernel, seconds of wall clock total.
//   --json    write BENCH_kernels.json-style output.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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

// The pair kernel: the one variant pair, timed side by side.
struct FamilyResult {
  std::string name;
  std::string unit;       // what items/sec counts
  double items = 0.0;     // items per call
  double scalar_s = 0.0;  // best-of per-call seconds
  double simd_s = 0.0;
  double max_rel_err = 0.0;  // simd vs scalar energy
  double speedup() const { return simd_s > 0 ? scalar_s / simd_s : 0.0; }
};

double rel_err(double a, double b) {
  const double denom = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) / denom;
}

// --- pair kernel: LJ + Ewald direct on a bulk water box ------------------

FamilyResult run_pair(int reps, int iters) {
  const sysbuild::BuiltSystem sys = sysbuild::build_water_box(8);
  md::NonbondedOptions opts;
  opts.cutoff = 9.0;
  opts.switch_on = 7.0;
  opts.elec = md::NonbondedOptions::Elec::kEwaldDirect;
  opts.table = md::build_pair_table(sys.topo);
  md::NeighborList nbl(opts.cutoff, 2.0);
  nbl.build(sys.topo, sys.box, sys.positions);
  std::vector<util::Vec3> forces(static_cast<std::size_t>(sys.topo.natoms()));

  double energy[2] = {0.0, 0.0};
  std::size_t pairs = 0;
  auto run = [&](util::KernelKind kind, int slot) {
    opts.kernel = kind;
    std::fill(forces.begin(), forces.end(), util::Vec3{});
    md::EnergyTerms e;
    pairs = md::nonbonded_energy(sys.topo, sys.box, sys.positions, nbl, opts,
                                 forces, e)
                .pairs_listed;
    energy[slot] = e.lj + e.elec;
  };

  FamilyResult fr;
  fr.name = "pair_lj_ewald";
  fr.unit = "listed pairs";
  run(util::KernelKind::kScalar, 0);  // warm caches + record reference
  run(util::KernelKind::kSimd, 1);
  fr.max_rel_err = rel_err(energy[0], energy[1]);
  fr.items = static_cast<double>(pairs);
  fr.scalar_s =
      best_of(reps, iters, [&] { run(util::KernelKind::kScalar, 0); });
  fr.simd_s = best_of(reps, iters, [&] { run(util::KernelKind::kSimd, 1); });
  return fr;
}

// A kernel with a single implementation: best-of per-call time.
struct PlainResult {
  std::string name;
  std::string unit;    // what items/sec counts
  double items = 0.0;  // items per call
  double seconds = 0.0;
};

// --- PME reciprocal: spread + 3-D FFT + convolve + interpolate -----------

PlainResult run_pme(int reps, int iters) {
  const sysbuild::BuiltSystem sys = sysbuild::build_myoglobin_like();
  const pme::PmeParams params{80, 36, 48, 4, 0.34};
  pme::SerialPme pme(params, sys.box);
  std::vector<util::Vec3> forces(static_cast<std::size_t>(sys.topo.natoms()));

  PlainResult pr;
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

PlainResult run_fft(int reps, int iters) {
  constexpr int nx = 80, ny = 36, nz = 48;
  constexpr std::size_t n = static_cast<std::size_t>(nx) * ny * nz;
  util::Rng rng(1138);
  std::vector<fft::Complex> ref(n);
  for (auto& c : ref) c = fft::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  const fft::Fft3D plan(nx, ny, nz);

  PlainResult pr;
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
  const FamilyResult pair = run_pair(reps, iters);
  std::printf("%-16s %12s %12s %9s %14s %12s\n", "kernel", "scalar_ms",
              "simd_ms", "speedup", "simd_items/s", "max_rel_err");
  std::printf("%-16s %12.3f %12.3f %8.2fx %14.3e %12.2e\n", pair.name.c_str(),
              pair.scalar_s * 1e3, pair.simd_s * 1e3, pair.speedup(),
              pair.simd_s > 0 ? pair.items / pair.simd_s : 0.0,
              pair.max_rel_err);
  const bool ok = pair.max_rel_err <= 1e-10;
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s simd disagrees with scalar (%.3e)\n",
                 pair.name.c_str(), pair.max_rel_err);
  }

  const std::vector<PlainResult> plain = {run_pme(reps, iters),
                                          run_fft(reps, iters)};
  std::printf("%-16s %12s %14s\n", "kernel", "ms", "items/s");
  for (const auto& pr : plain) {
    std::printf("%-16s %12.3f %14.3e\n", pr.name.c_str(), pr.seconds * 1e3,
                pr.seconds > 0 ? pr.items / pr.seconds : 0.0);
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
        "  \"benchmark\": \"Physics hot paths: the pair kernel under "
        "--kernel=scalar|simd (branch-free #pragma omp simd with tabulated "
        "erfc/exp; scalar is the golden reference), and the serial PME "
        "reciprocal solve and 3-D FFT, which have one kernel each (batched "
        "multi-line FFT, per-plan influence table)\",\n");
    std::fprintf(f,
                 "  \"machine\": { \"hardware_threads\": %u, \"note\": "
                 "\"-O3, no -march flags; best-of-%d timing over %d calls "
                 "per rep\" },\n",
                 std::thread::hardware_concurrency(), reps, iters);
    std::fprintf(f,
                 "  \"tolerance_note\": \"simd pair energies are checked "
                 "against scalar to 1e-10 relative before timing; both pair "
                 "variants report identical work counters, so simulated time "
                 "is kernel-independent. The PME and FFT outputs are pinned "
                 "bit for bit by digests in tests/fft_test.cpp and "
                 "tests/pme_test.cpp.\",\n");
    std::fprintf(f,
                 "  \"kernels\": [\n"
                 "    { \"kernel\": \"%s\", \"scalar_ms\": %.3f, "
                 "\"simd_ms\": %.3f, \"speedup\": %.2f, "
                 "\"items\": \"%s\", \"simd_items_per_sec\": %.3e, "
                 "\"max_rel_err\": %.2e }",
                 pair.name.c_str(), pair.scalar_s * 1e3, pair.simd_s * 1e3,
                 pair.speedup(), pair.unit.c_str(),
                 pair.simd_s > 0 ? pair.items / pair.simd_s : 0.0,
                 pair.max_rel_err);
    for (const auto& pr : plain) {
      std::fprintf(f,
                   ",\n    { \"kernel\": \"%s\", \"ms\": %.3f, "
                   "\"items\": \"%s\", \"items_per_sec\": %.3e }",
                   pr.name.c_str(), pr.seconds * 1e3, pr.unit.c_str(),
                   pr.seconds > 0 ? pr.items / pr.seconds : 0.0);
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
