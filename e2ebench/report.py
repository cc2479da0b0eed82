#!/usr/bin/env python3
"""Run every workload untraced and traced and print one report.

Usage, from the root of the repository:

    python3 e2ebench/report.py [--seed N] [--seconds S] [--out results.json]

For each workload the report prints the run accounting, every
end-to-end metric from the untraced run beside the same metric from the
traced run (the difference is the cost of tracing), and the per-layer
metrics of the traced run. --out also writes every result as JSON.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def run(workload, seed, seconds, trace):
    """Run one invocation and return its log lines and result."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} trace={trace} failed:\n{out.stderr}")
    return lines[:-1], json.loads(lines[-1])


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="also write every result to this JSON file")
    args = ap.parse_args()

    results = {}
    ok = True
    for wl in spec["workloads"]:
        name = wl["name"]
        log0, plain = run(name, args.seed, args.seconds, 0)
        log1, traced = run(name, args.seed, args.seconds, 1)
        results[name] = {"untraced": plain, "traced": traced, "log": log0 + log1}
        ok = ok and plain["correct"] and traced["correct"]
        print(f"== {name}: {wl['why']}")
        for line in log0:
            if line.startswith(("env ", "accounting:", "rounds:", "named ", "reference speed:", "raw ")):
                print("  " + line)
        for line in log1:
            if line.startswith(("accounting:", "tiling")):
                print("  traced " + line)
        print(f"  {'end-to-end metric':<22}{'untraced':>14}{'traced':>14}{'tracing cost':>14}")
        for m in spec["end_to_end"]:
            u = plain["metrics"][m["name"]]["value"]
            t = traced["metrics"]["traced." + m["name"]]["value"]
            cost = (t - u) / u if m["better"] == "lower" else (u - t) / u
            print(f"  {m['name'] + ' (' + m['unit'] + ')':<22}{u:>14.6g}{t:>14.6g}{cost:>+13.1%}")
        print(f"  {'per-layer metric (traced)':<34}{'value':>14}")
        for m in spec["per_layer"]:
            if m["name"].startswith("traced."):
                continue
            v = traced["metrics"][m["name"]]["value"]
            print(f"  {m['name'] + ' (' + m['unit'] + ')':<34}{v:>14.6g}")
        print()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    print("all outputs correct" if ok else "SOME OUTPUTS WRONG")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
