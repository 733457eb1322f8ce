#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload engine_churn --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (the slabgraph library from
src/ plus the benchmark program) into $CARGO_TARGET_DIR, default
.bench_build, on first use, then runs one workload and forwards its output:
a "# record {...}" line and, last, the JSON result line. Build output and
progress go to stderr. Exits non-zero, printing no result, when the build
or the run fails.

With --trace 1 the program reports the per-layer metrics its workload
measures. The result line must carry every per-layer metric of
BENCHMARK.json, so the ones the workload does not exercise are added with
value 0 and named under "unmeasured_layers" in the record line
(perfbench/README.md lists them per workload).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("engine_churn", "tier_serve", "window_stream")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return binary


def complete_layers(lines):
    """Adds the per-layer metrics the workload does not measure (value 0)
    to the result line and names them in the record line."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        layers = json.load(f)["per_layer"]
    result = json.loads(lines[-1])
    record = json.loads(lines[-2][len("# record "):])
    unmeasured = [m["name"] for m in layers if m["name"] not in result["metrics"]]
    for m in layers:
        if m["name"] in unmeasured:
            result["metrics"][m["name"]] = {"value": 0, "unit": m["unit"]}
    record["unmeasured_layers"] = unmeasured
    lines[-2] = "# record " + json.dumps(record)
    lines[-1] = json.dumps(result)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, f"work.{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: run exited with {proc.returncode}", file=sys.stderr)
        return 1
    lines = proc.stdout.decode().strip().splitlines()
    if args.trace:
        complete_layers(lines)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
