#!/usr/bin/env python3
"""Build the benchmark driver from source, then run one workload.

Usage, from the repository root:
    python3 perfbench/run.py --workload factorial|scaling|serial \
        --seed N --seconds S --trace 0|1

The driver is compiled into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) together with the library sources under src/.
Build output goes to stderr; the driver's last stdout line is the JSON
result. The exit status is the driver's, or 1 when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main(argv):
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    opts = dict(zip(argv[::2], argv[1::2]))
    args = [os.path.join(out, "perfbench")] + argv + ["--git-sha", git_sha()]
    if "--reference" not in opts:
        args += ["--reference", os.path.join(HERE, "reference.txt")]
    if opts.get("--trace") == "1":
        name = "trace-%s.json" % opts.get("--workload", "run")
        args += ["--trace-out", os.path.join(out, name)]
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
