"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --seeds 1-10 [--workload pose-ablation ...] [--out FILE]

Runs are sequential, one process at a time. For each workload and metric it
prints the median over the seeds, the quartiles (``statistics.quantiles``,
n=4), the spread (q3 - q1) / median, and the metric's bound from
BENCHMARK.json; a spread above a third of the bound is flagged. ``--out``
writes the same summary, with machine info, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--out")
    args = p.parse_args()
    seeds = parse_seeds(args.seeds)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            details, result = run_once(name, seed, spec["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: incorrect: {details['problems']}", file=sys.stderr)
            runs.append(result)
            summary["machine"] = details["machine"]
        metrics = {}
        for metric in runs[0]["metrics"]:
            s = summarise([r["metrics"][metric]["value"] for r in runs])
            metrics[metric] = s
            flag = "  SPREAD > bound/3" if s["spread"] > bounds[metric] / 3 else ""
            print(f"{name:18s} {metric:26s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {bounds[metric]}{flag}", flush=True)
        summary["workloads"][name] = {
            "correct_runs": sum(1 for r in runs if r["correct"]),
            "metrics": metrics,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
