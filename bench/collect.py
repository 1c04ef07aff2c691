#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the runs in one file.

    python3 bench/collect.py --out bench/results/BENCH_<name>.json

For every workload of BENCHMARK.json: one end-to-end run on each of the seeds
1 to 10, then one traced run on seed 1.  Each end-to-end metric gets its
values, median, quartiles and spread (quartile distance over median, from
``statistics.quantiles(values, n=4)``), next to its bound in BENCHMARK.json.
A metric counts as steady when its spread is below a third of its bound.  The
same summary of the wall-clock figures (``wall``) shows what measuring CPU
time removes.  Compare two commits by collecting both on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
WALL = ("setup_s", "items_per_s", "request_ms_p90")


def run(workload, seed, seconds, trace):
    """(result, detail) of one run; the detail gains the run's duration."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT), timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:  # a run that checks wrong outputs still prints its result
        raise SystemExit(f"error: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    detail = json.loads(lines[-2])["detail"]
    detail["run_s"] = elapsed
    return json.loads(lines[-1]), detail


def summarise(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results, details = [], []
        for seed in SEEDS:
            result, detail = run(workload, seed, spec["run_seconds"], 0)
            results.append(result)
            details.append(detail)
            print(workload, seed, json.dumps({k: round(v["value"], 4)
                                              for k, v in result["metrics"].items()}),
                  file=sys.stderr, flush=True)
        metrics = {}
        for name, bound in bounds.items():
            metrics[name] = summarise([r["metrics"][name]["value"] for r in results], bound)
            metrics[name]["steady"] = metrics[name]["spread"] < bound / 3
        wall = {name: summarise([d["wall"][name] for d in details], bounds[name])
                for name in WALL}
        traced, trace_detail = run(workload, SEEDS[0], spec["run_seconds"], 1)
        summary["provenance"] = details[0].pop("provenance")
        trace_detail.pop("provenance")
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "run_s": [d["run_s"] for d in details] + [trace_detail["run_s"]],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "failed_requests": sorted({k for d in details for k in d["failed_requests"]}),
            "metrics": metrics,
            "wall": wall,
            "named": [d["named"] for d in details],
            "trace": {"correct": traced["correct"],
                      "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
                      **trace_detail},
        }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for workload, entry in summary["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:8s} {name:15s} median {m['median']:12.4f}  spread {m['spread']:.3f}"
                  f"  bound {m['bound']}{'' if m['steady'] else '  NOT STEADY'}")
        for name, m in entry["wall"].items():
            print(f"{workload:8s} wall {name:10s} median {m['median']:12.4f}  spread {m['spread']:.3f}")
    print(f"{sum(sum(e['run_s']) for e in summary['workloads'].values()):.0f} s in all runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
