#!/usr/bin/env python3
"""Build and run the layer benchmark for one workload.

Usage, from the root of a checkout:

    python3 layerbench/run.py --workload fem_blocked --seed 1 --seconds 15 --trace 0

The first call configures and compiles the library and the benchmark into
the directory named by CARGO_TARGET_DIR (default `.bench_build`); later
calls only re-check the build. The benchmark binary prints informational
lines starting with `#` and, as its last line, one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. The exit code is the
binary's: non-zero when any result failed the correctness gate.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# BENCHMARK.json lists the first two; serve_mixed and dist_halo are run by
# hand (README.md says why).
WORKLOADS = ("fem_blocked", "graph_irregular", "serve_mixed", "dist_halo")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("tiny", "small"), default="small",
                   help="suite scale; tiny is for the self-test only")
    p.add_argument("--corrupt", action="store_true",
                   help="perturb one checked result (self-test of the gate)")
    return p.parse_args(argv)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configure once, then (re)build the benchmark target. Output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("layerbench: no library sources next to the benchmark "
                 "(expected src/CMakeLists.txt in the checkout)")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", bdir, "--target", "layerbench",
                    "-j", jobs], check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(bdir, "layerbench")


def main(argv):
    args = parse_args(argv)
    bdir = build_dir()
    try:
        exe = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"layerbench: build failed: {e}")
    run_dir = os.path.join(bdir, "run")
    os.makedirs(run_dir, exist_ok=True)
    # Relative paths keep the Unix socket names short (108-byte limit).
    cmd = [exe,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--scale", args.scale,
           "--profile", os.path.relpath(
               os.path.join(HERE, "machine_profile.json"), ROOT),
           "--out-dir", os.path.relpath(run_dir, ROOT)]
    if args.corrupt:
        cmd.append("--corrupt")
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
