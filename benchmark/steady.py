#!/usr/bin/env python3
"""Steadiness check: run every workload k times and compare spreads to bounds.

Usage, from the root of a checkout:

    python3 benchmark/steady.py [--runs K]

Runs `python3 benchmark/run.py` K times (default 10; 5 for a quick look
while tuning) on every workload of BENCHMARK.json, with seeds 1..K,
alternating the workload order between repetitions so a slow phase of the
host does not land on one workload. For each end-to-end metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json, plus the
share of failed operations. It prints the same figures for the `work.*`
fields of each run's info line (the size of the work the seeded inputs
asked for), so the inputs' share of a metric's spread can be told from the
host's. Exits non-zero if any run fails, any check fails or any spread
exceeds its bound. A summary is written to benchmark/out/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    t0 = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        return None, wall
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    result["work"] = {k: v for k, v in info.items() if k.startswith("work.")}
    return result, wall


def spread_of(values):
    """Median, Q1, Q3 and (Q3 - Q1) / median of the values."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {n: [] for n in names}
    walls = {n: [] for n in names}
    ok = True
    for rep in range(args.runs):
        order = names if rep % 2 == 0 else list(reversed(names))
        for name in order:
            seed = FIRST_SEED + rep
            res, wall = run_once(name, seed, bench["run_seconds"])
            walls[name].append(wall)
            if res is None or not res["correct"]:
                print(f"{name} seed {seed}: FAILED run", flush=True)
                ok = False
                continue
            results[name].append(res)
            print(
                f"{name} seed {seed}: {wall:.1f} s, attempted {res['attempted']}, "
                f"failed {res['failed']}: "
                + ", ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True,
            )

    summary = {}
    print()
    for name in names:
        runs = results[name]
        if not runs:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(
            f"== {name}: {len(runs)} runs, wall {min(walls[name]):.1f}-{max(walls[name]):.1f} s, "
            f"failed share {shares}"
        )
        summary[name] = {"failed_shares": shares, "wall_s": walls[name], "metrics": {}}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3, spread = spread_of(values)
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread <= bound else "OVER BOUND"
                if spread > bound:
                    ok = False
                if spread > bound / 3:
                    verdict += " (above bound/3)"
            print(
                f"  {metric:28s} median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
                f"spread {spread:.4f}"
                + (f"  bound {bound}  {verdict}" if bound is not None else "")
            )
            summary[name]["metrics"][metric] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": bound,
                "values": values,
            }
        for field in runs[0]["work"]:
            values = [r["work"][field] for r in runs]
            med, q1, q3, spread = spread_of(values)
            print(
                f"  {field:28s} median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
                f"spread {spread:.4f}  (input, not gated)"
            )
            summary[name]["metrics"][field] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "values": values,
            }
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as f:
        json.dump(summary, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
