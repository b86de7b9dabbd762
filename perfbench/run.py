#!/usr/bin/env python3
"""Builds and runs the sweep-cell benchmark (see perfbench/NOTES.md).

Run from the repository root:

    python3 perfbench/run.py --workload mesh8_membound --seed 12648430 \\
        --seconds 36 --trace 0

The first call configures and builds perfbench/ (which compiles the
simulator libraries from src/) into .bench_build/perfbench; later calls
rebuild incrementally. Build output goes to stderr. The last line of stdout
is the result JSON: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics of BENCHMARK.json for --trace 0 and its per-layer
metrics for --trace 1.

After an intentional change to simulated results, regenerate the reference
outputs (the digests and pareto.json for the reference seed) with:

    python3 perfbench/run.py --write-reference

Exit status: 0 with a result line; non-zero, without one, when the sources
are missing, the build or the allocation-counter self-test fails, the
benchmark binary fails or its metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference")
BUILD_JOBS = "4"
# A run must end within 180 s. The timed rounds take --seconds plus at most
# one cell or DSE job (one round on a traced run), and the output checks a
# few seconds more.
RUN_TIMEOUT_S = 170
WRITE_REFERENCE_TIMEOUT_S = 600


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, what, timeout=None):
    """Runs a build or test step with its output on stderr."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out")
    if proc.returncode != 0:
        fail(f"{what} failed (exit {proc.returncode})")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "cmake configure")
    run_checked(["cmake", "--build", BUILD, "-j", BUILD_JOBS, "--target",
                 "perfbench", "alloc_counter_test"], "build")
    run_checked([os.path.join(BUILD, "alloc_counter_test")],
                "allocation-counter self-test", timeout=60)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate perfbench/reference and exit")
    args = parser.parse_args()
    if not args.write_reference and None in (args.workload, args.seed,
                                             args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.write_reference and (args.seed < 0 or args.seconds < 1):
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    work = os.path.join(BUILD, f"work-{os.getpid()}")
    cmd = [os.path.join(BUILD, "perfbench"), "--work-dir", work,
           "--reference-dir", REFERENCE]
    if args.write_reference:
        cmd.append("--write-reference")
        timeout = WRITE_REFERENCE_TIMEOUT_S
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace]
        timeout = RUN_TIMEOUT_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"benchmark failed (exit {proc.returncode})")
    if args.write_reference:
        return

    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(args.trace == "1")
    if got != want:
        wrong_unit = sorted(k for k in got.keys() & want.keys()
                            if got[k] != want[k])
        fail("metrics do not match BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"unexpected {sorted(set(got) - set(want))}, "
             f"wrong unit {wrong_unit}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
