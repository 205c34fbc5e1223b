#!/usr/bin/env python3
"""Steadiness check: runs one workload untraced on seeds 1..N, each for
BENCHMARK.json's run_seconds, and prints, per metric, the median,
quartiles, spread and range.

    python3 perfbench/steady.py --workload <name> [--runs 10]

The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4). For end-to-end metrics the table also
shows the bound from BENCHMARK.json and flags a spread above a third of it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])

    values, shares = {}, []
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        shares.append(f"{result['failed']}/{result['attempted']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"seed {seed}: ok", file=sys.stderr)

    print(f"workload {args.workload}, {args.runs} runs, seeds 1..{args.runs}, "
          f"failed/attempted {sorted(set(shares))}")
    print(f"| metric | unit | median | Q1 | Q3 | spread | min | max | bound |")
    print(f"|---|---|---|---|---|---|---|---|---|")
    for name, (unit, xs) in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else " (!)"
        print(f"| {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f}{flag} | "
              f"{min(xs):.6g} | {max(xs):.6g} | {'' if bound is None else bound} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
