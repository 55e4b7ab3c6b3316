#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

Run from the repository root:

    python3 benchmark/spread.py [--seeds 10] [--sets 2] [--workload NAME ...]

For every workload of BENCHMARK.json it runs the declared command with
--trace 0 once per seed (1..seeds), then reports for each end-to-end metric
the median and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.
A metric passes when its spread is within its bound (setup_s is exempt
from the spread rule) and, with --sets 2, when the second set's median is
not worse than the first's by more than the bound. Exits non-zero otherwise.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workload", action="append", help="restrict to these workloads")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    medians = {}  # (workload, metric) -> median per set
    for s in range(args.sets):
        for w in names:
            runs = [run(bench["command"], w, seed, bench["run_seconds"]) for seed in range(1, args.seeds + 1)]
            for m in bench["end_to_end"]:
                values = [r[m["name"]] for r in runs]
                med = statistics.median(values)
                q = statistics.quantiles(values, n=4)
                spread = (q[2] - q[0]) / med
                verdict = ""
                if m["name"] != "setup_s" and spread > m["bound"]:
                    verdict, ok = "SPREAD EXCEEDS BOUND", False
                elif m["name"] != "setup_s" and spread > m["bound"] / 3:
                    verdict = "spread above a third of the bound"
                prev = medians.setdefault((w, m["name"]), [])
                if prev:
                    worse = (med - prev[0]) / prev[0] * (1 if m["better"] == "lower" else -1)
                    verdict += f" second median {worse:+.2%} worse"
                    if worse > m["bound"]:
                        verdict, ok = verdict + " EXCEEDS BOUND", False
                prev.append(med)
                print(f"set {s + 1} {w:12s} {m['name']:16s} median {med:12.6g} {m['unit']:7s}"
                      f" spread {spread:7.2%} bound {m['bound']:5.0%} {verdict}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
