#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload trace-long --seeds 1-10

Runs `perfbench/run.py --trace 0` once per seed (one after another, never
concurrently) and prints, per end-to-end metric, the median, the quartile
spread (Q3 - Q1) / median, and that spread as a share of the metric's bound
in BENCHMARK.json. `--json FILE` also saves every run's result line so two
sets of runs can be compared later with `--compare A.json B.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import ROOT, quartile_spread


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["run_seconds"], {m["name"]: m for m in spec["end_to_end"]}


def collect(workload, seed_list, seconds):
    runs = []
    for seed in seed_list:
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            sys.exit(f"seed {seed}: run failed ({done.returncode}): {result}")
        runs.append(result)
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}"
                                          for k, v in result["metrics"].items()), flush=True)
    return runs


def summarize(runs, metrics):
    for name, m in metrics.items():
        values = [r["metrics"][name]["value"] for r in runs]
        spread = quartile_spread(values)
        print(f"  {name:18s} median={statistics.median(values):<12.6g} spread={spread:.4f} "
              f"bound={m['bound']} spread/bound={spread / m['bound']:.2f}")


def compare(path_a, path_b, metrics):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    for name, m in metrics.items():
        ma = statistics.median(r["metrics"][name]["value"] for r in a)
        mb = statistics.median(r["metrics"][name]["value"] for r in b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
        print(f"  {name:18s} first={ma:<12.6g} second={mb:<12.6g} worse_by={worse:+.4f} "
              f"bound={m['bound']} {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--json", help="save the result lines to this file")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    run_seconds, metrics = bounds()
    if args.compare:
        compare(args.compare[0], args.compare[1], metrics)
        return
    runs = collect(args.workload, seeds(args.seeds), run_seconds)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f)
    summarize(runs, metrics)


if __name__ == "__main__":
    main()
