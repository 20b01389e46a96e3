#!/usr/bin/env python3
"""Self-test of the benchmark.

Usage, from the repository root:
    python3 perfbench/selftest.py [WORKLOAD ...]

Runs every workload (or the named ones) at its smallest measuring time,
untraced and traced, with the default seed, and prints each run's metrics.
It asserts that each run is correct and prints every metric BENCHMARK.json
names, with its unit. Then it runs the factorial workload against a
deliberately perturbed reference and asserts that the run reports failed
cells and exits nonzero. Exits 0 when every assertion holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, HERE)
from run import build_dir  # noqa: E402


def run(workload, trace, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)] + list(extra)
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    print("\n".join(line for line in lines if not line.startswith("{")))
    return res.returncode, json.loads(lines[-1]) if lines else None


def expect(cond, what, failures):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def perturbed_reference(workload):
    """The stored reference with one cell's classic seconds nudged."""
    out = []
    done = False
    with open(os.path.join(HERE, "reference.txt")) as f:
        for line in f:
            fields = line.split()
            # workload system cell classic_s ...
            if not done and fields and fields[0] == workload:
                fields[3] = float.hex(float.fromhex(fields[3]) * (1 + 1e-12))
                line = " ".join(fields) + "\n"
                done = True
            out.append(line)
    os.makedirs(build_dir(), exist_ok=True)
    path = os.path.join(build_dir(), "perturbed-reference.txt")
    with open(path, "w") as f:
        f.writelines(out)
    return path


def main(names):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = names or [w["name"] for w in spec["workloads"]]
    failures = []
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            what = "%s --trace %d" % (workload, trace)
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0, what + ": correct, exit 0",
                   failures)
            metrics = result["metrics"] if result else {}
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in metrics.items()}
            expect(got == want, what + ": every %s metric with its unit" % key,
                   failures)
    code, result = run("factorial", 0,
                       ["--reference", perturbed_reference("factorial")])
    expect(code != 0 and result is not None and result["failed"] > 0
           and not result["correct"],
           "factorial against a perturbed reference: fail_ratio > 0, "
           "exit nonzero", failures)
    print("selftest: %s" % ("FAILED: " + "; ".join(failures) if failures
                            else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
