#!/usr/bin/env python3
"""Runs the end-to-end benchmark on several seeds and reports how steady it is.

For every workload and every seed it runs the command from BENCHMARK.json,
then prints, per metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) next to the
metric's bound. Run from the repository root:

    python3 e2ebench/steadiness.py --seeds 1-10
    python3 e2ebench/steadiness.py --workloads distinct-cold-l4 --seeds 1-5
    python3 e2ebench/steadiness.py --seeds 1-10 --json e2e.json
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)}: {result['failed']} of {result['attempted']} operations failed")
    return result


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="seeds, e.g. 1-10 or 3,7,11")
    ap.add_argument("--workloads", default="", help="comma-separated workloads (default: all)")
    ap.add_argument("--seconds", type=int, default=0, help="run length (default: run_seconds)")
    ap.add_argument("--trace", type=int, default=0, help="0: end-to-end metrics, 1: per-layer")
    ap.add_argument("--json", default="", help="write medians and quartiles to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    out = {"seeds": seeds, "run_seconds": seconds, "trace": args.trace,
           "host": {"machine": platform.machine(), "python": platform.python_version()},
           "workloads": {}}
    worst = None
    for wl in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(bench, wl, seed, seconds, args.trace))
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(runs[-1]["metrics"].items())), flush=True)
        metrics = {}
        for name in sorted(runs[0]["metrics"]):
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = s
        out["workloads"][wl] = metrics
        print(f"\n{wl}: {len(seeds)} runs of {seconds}s")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, s in metrics.items():
            b = bounds.get(name)
            flag = ""
            if b is not None and name != "setup_s":
                worst = max(worst or 0.0, s["spread"] / b)
                flag = " OK" if s["spread"] < b / 3 else (" within bound" if s["spread"] <= b else " TOO WIDE")
            print(f"  {name:<34} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} "
                  f"{s['spread']:>8.4f} {b if b is not None else '':>6}{flag}")
        print()
    if worst is not None:
        print(f"largest spread as a share of its bound: {worst:.3f} (steady below 0.333)")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(out, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
