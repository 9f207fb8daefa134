#!/usr/bin/env python3
"""Build bench_e2e from source, run one workload, print one JSON line.

Run from the repository root:

    python3 bench_e2e/run.py --workload pr-O --seed 1 --seconds 30 --trace 0

The build goes to .bench_build/bench_e2e (configured once, then
incremental). The binary's own report goes to stderr; the last line of
stdout is {"correct", "attempted", "failed", "metrics"}, where metrics
holds the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1). Exits nonzero, without printing a
result, when the build or the run produces no result.

Every run uses the same inputs, those of the binary's default seed,
whatever --seed says: the simulated makespan moves ~6% with any seed,
so only fixed inputs let simulated metrics repeat exactly and carry a
tight bound. Runs with different --seed values are repeated
measurements of the same work.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "bench_e2e"
BENCHMARK = ROOT / "BENCHMARK.json"
MIN_REPS = 2


def build():
    generated = ("build.ninja", "Makefile")
    if not any((BUILD / name).exists() for name in generated):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        *generator, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="accepted, but the inputs are fixed (see above)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads(BENCHMARK.read_text())
    try:
        build()
    except subprocess.CalledProcessError as err:
        sys.exit(f"building bench_e2e failed: {err}")

    out = BUILD / f"result-{args.workload}.json"
    out.unlink(missing_ok=True)
    # A traced first round already gives every input two cells (the
    # untraced one and its traced twin), enough for the digest check.
    cmd = [str(BUILD / "bench_e2e"), f"--workload={args.workload}",
           f"--seconds={args.seconds}",
           f"--reps={1 if args.trace else MIN_REPS}", f"--out={out}",
           f"--declared={BENCHMARK}"]
    if args.trace:
        cmd.append(f"--trace={BUILD / 'trace'}")
    proc = subprocess.run(cmd, stdout=sys.stderr)
    if not out.exists():
        sys.exit(f"bench_e2e exited {proc.returncode} without a result")

    doc = json.loads(out.read_text())
    measured = doc["workloads"][args.workload]
    cell = doc["cells"][args.workload]
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": cell["correct"] and proc.returncode == 0,
        "attempted": cell["attempted"],
        "failed": cell["failed"],
        "metrics": {n: {"value": measured[n]["value"],
                        "unit": measured[n]["unit"]} for n in names},
    }
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
