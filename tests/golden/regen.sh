#!/bin/sh
# Regenerates the golden figure outputs from a built tree.
#
#   tests/golden/regen.sh [build-dir]
#
# Run this ONLY after an intentional model/calibration change, and review
# the resulting diffs — the goldens pin the exact simulator output (fixed
# seeds, --steps=4 short mode) so accidental behaviour changes fail CI.
set -eu
build="${1:-build}"
here="$(cd "$(dirname "$0")" && pwd)"

for fig in fig2_structure fig3_reference_case fig4_breakdown_reference \
           fig5_networks fig6_breakdown_networks fig7_comm_speed \
           fig8_middleware fig9_smp extension_decomposition; do
  bin="$build/bench/$fig"
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (cmake --build $build first)" >&2
    exit 1
  fi
  echo "regenerating $fig.txt..."
  "$bin" --steps=4 > "$here/$fig.txt" 2>/dev/null
done

# The conclusion sweep's golden runs the trimmed --smoke grids (the full
# processor sweep to 128 is a bench, not a regression test).
bin="$build/bench/conclusion_scalability_limits"
if [ ! -x "$bin" ]; then
  echo "error: $bin not built (cmake --build $build first)" >&2
  exit 1
fi
echo "regenerating conclusion_scalability_limits.txt..."
"$bin" --smoke --steps=2 > "$here/conclusion_scalability_limits.txt" 2>/dev/null

# The load-balance extension's golden also runs --smoke, but at --steps=4
# so the run crosses a rebuild-time rebalance (rebuilds every 2 steps).
bin="$build/bench/extension_load_balance"
if [ ! -x "$bin" ]; then
  echo "error: $bin not built (cmake --build $build first)" >&2
  exit 1
fi
echo "regenerating extension_load_balance.txt..."
"$bin" --smoke --steps=4 > "$here/extension_load_balance.txt" 2>/dev/null

# The examples at their default arguments: quickstart (sequential engine:
# evaluate, minimize, step), cluster_scaling (core::run_experiment) and
# grid_extrapolation (runs assembled by hand on mpi::Comm).
for ex in quickstart cluster_scaling grid_extrapolation; do
  bin="$build/examples/$ex"
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (cmake --build $build first)" >&2
    exit 1
  fi
  echo "regenerating $ex.txt..."
  "$bin" > "$here/$ex.txt" 2>/dev/null
done

# The ablation and extension binaries at their default arguments.
for b in ablation_network_mechanisms ablation_collectives \
         extension_decoupling extension_fault_tolerance \
         extension_problem_size; do
  bin="$build/bench/$b"
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (cmake --build $build first)" >&2
    exit 1
  fi
  echo "regenerating $b.txt..."
  "$bin" > "$here/$b.txt" 2>/dev/null
done

# The full factorial, trimmed to two steps and p=2,4,8.
bin="$build/bench/full_factorial"
if [ ! -x "$bin" ]; then
  echo "error: $bin not built (cmake --build $build first)" >&2
  exit 1
fi
echo "regenerating full_factorial.txt..."
"$bin" --steps=2 --procs=2,4,8 > "$here/full_factorial.txt" 2>/dev/null

# DES scalability record (wall-clock, so not a byte-compared golden):
# re-measures events/sec up to p=4096 and rewrites BENCH_des_scale.json
# at the repo root. Skipped unless the bench binary is built.
if [ -x "$build/bench/des_scale" ]; then
  echo "regenerating BENCH_des_scale.json (p up to 4096; takes a few min)..."
  "$build/bench/des_scale" --json="$here/../../BENCH_des_scale.json"
fi

# Pair-kernel, PME and FFT timings (wall-clock, so not a byte-compared
# golden): rewrites BENCH_kernels.json at the repo root.
if [ -x "$build/bench/kernel_speedups" ]; then
  echo "regenerating BENCH_kernels.json..."
  "$build/bench/kernel_speedups" --json="$here/../../BENCH_kernels.json"
fi
echo "done; review with: git diff tests/golden/ BENCH_des_scale.json BENCH_kernels.json"
