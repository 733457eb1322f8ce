#!/usr/bin/env python3
"""Checks of the benchmark itself, run from the repository root.

    python3 perfbench/check.py spread [--runs 10] [--workloads a,b] [--seconds 10]
    python3 perfbench/check.py determinism [--workloads a,b] [--seconds 2]

spread: runs each workload --runs times with seeds 1..N and prints, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median,
with quartiles from statistics.quantiles(values, n=4), next to the bound in
BENCHMARK.json. Exits 1 if a spread exceeds its bound.

determinism: runs each workload twice with seed 1 and once with seed 2 and
checks that the same seed repeats the input digest and every exact count
(record keys starting with "exact."), and that seed 2 changes the digest.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, check=True).stdout.decode()
    lines = out.strip().splitlines()
    record = json.loads(lines[-2][len("# record "):])
    return record, json.loads(lines[-1])


def spread(args, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in args.workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            _, res = run(w, seed, args.seconds)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            rel = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flag = "" if rel <= bound / 3 else (" ABOVE 1/3 BOUND" if rel <= bound else " ABOVE BOUND")
            if rel > bound:
                ok = False
            print(f"{w:14s} {name:16s} median {med:12.6g}  spread {rel:7.4f}  bound {bound}{flag}")
    return 0 if ok else 1


def determinism(args):
    ok = True
    for w in args.workloads:
        a, ra = run(w, 1, args.seconds)
        b, rb = run(w, 1, args.seconds)
        c, _ = run(w, 2, args.seconds)
        exact = sorted(k for k in a if k.startswith("exact."))
        same = a["input_digest"] == b["input_digest"] and all(a[k] == b[k] for k in exact)
        differs = a["input_digest"] != c["input_digest"]
        correct = ra["correct"] and rb["correct"]
        print(f"{w}: digest repeats={same} seed-2 digest differs={differs} correct={correct}")
        for k in exact:
            print(f"    {k}: {a[k]} / {b[k]}")
        ok = ok and same and differs and correct
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("spread", "determinism"))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--workloads")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    args.workloads = args.workloads.split(",") if args.workloads else names
    if args.mode == "spread":
        args.seconds = args.seconds or bench["run_seconds"]
        return spread(args, bench)
    args.seconds = args.seconds or 2
    return determinism(args)


if __name__ == "__main__":
    sys.exit(main())
