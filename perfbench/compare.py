#!/usr/bin/env python3
"""Steadiness check and A/B comparison for perfbench.

Run from the root of checkout A:

    python3 perfbench/compare.py --runs 10                   # steadiness of A
    python3 perfbench/compare.py --b ../parent --runs 10     # A/B pairs

Each run uses its own seed (--seed0, --seed0+1, ...). With --b, run i of
both checkouts uses the same seed and the side that runs first alternates.
For every workload x end-to-end metric it prints each side's median and
quartiles, the quartile spread as a share of the median (against the
metric's bound from BENCHMARK.json) and, with --b, the fraction of pairs B
wins (ties count for neither). Output digests (eval_serial, idle_bus) are
compared pairwise: a seed whose outputs differ between A and B is reported.
--perf-compare-out PREFIX writes PREFIX.a.json / PREFIX.b.json in the flat
{section: {field: value}} shape tools/perf_compare reads, one section per
workload holding the metric medians.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

DIGEST = re.compile(r"^(\w+) digest seed=(\d+) (\w+)$")


def run_once(checkout, workload, seed, seconds):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} exited {p.returncode}")
    result = json.loads(lines[-1])
    digests = [m.group(3) for m in map(DIGEST.match, lines) if m]
    return result, digests


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--b", help="root of checkout B")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--perf-compare-out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    sides = {"A": os.getcwd()}
    if args.b:
        sides["B"] = os.path.abspath(args.b)

    values = {s: {w: {m["name"]: [] for m in metrics} for w in workloads}
              for s in sides}
    incorrect = []
    digest_mismatch = []
    for w in workloads:
        for i in range(args.runs):
            seed = args.seed0 + i
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            digests = {}
            for s in order:
                result, digests[s] = run_once(sides[s], w, seed, seconds)
                if not result["correct"]:
                    incorrect.append((s, w, seed))
                for m in metrics:
                    values[s][w][m["name"]].append(
                        result["metrics"][m["name"]]["value"])
            if "B" in digests and digests["A"] != digests["B"]:
                digest_mismatch.append((w, seed))
            print(f"# {w} seed {seed} done", file=sys.stderr, flush=True)

    print(f"{'workload':12} {'metric':12} {'side':4} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
          + ("  B wins" if "B" in sides else ""))
    steady = True
    for w in workloads:
        for m in metrics:
            name = m["name"]
            for s in sides:
                v = values[s][w][name]
                q1, med, q3 = quartiles(v)
                spread = (q3 - q1) / med if med else float("inf")
                if name != "setup_s" and spread > m["bound"]:
                    steady = False
                line = (f"{w:12} {name:12} {s:4} {med:12.6g} {q1:12.6g} "
                        f"{q3:12.6g} {spread:7.3f} {m['bound']:6.2f}")
                if s == "B":
                    a, b = values["A"][w][name], v
                    lower = m["better"] == "lower"
                    wins = sum((y < x) if lower else (y > x)
                               for x, y in zip(a, b))
                    line += f"  {wins}/{len(a)}"
                print(line)
    for s, w, seed in incorrect:
        print(f"INCORRECT: side {s} {w} seed {seed}")
    for w, seed in digest_mismatch:
        print(f"OUTPUT DIFFERS between A and B: {w} seed {seed}")
    print("spreads within bounds" if steady else "SPREAD EXCEEDS A BOUND")

    if args.perf_compare_out:
        for s in sides:
            report = {w: {m["name"]: statistics.median(values[s][w][m["name"]])
                          for m in metrics} for w in workloads}
            with open(f"{args.perf_compare_out}.{s.lower()}.json", "w") as f:
                json.dump(report, f, indent=1)
    return 0 if steady and not incorrect and not digest_mismatch else 1


if __name__ == "__main__":
    sys.exit(main())
