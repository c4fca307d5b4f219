"""mvor benchmark: scenes/s, scene latency and accuracy per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload pose-ablation --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``pose-ablation``, ``completion-noisy``,
``cli-roundtrip``. The run builds its inputs from ``--seed`` and sizes its
work from ``--seconds`` with a nominal cost per scene, so the work (and so
every accuracy metric and output file) is a pure function of (workload,
seed, seconds) and takes about ``--seconds`` on a 2-core machine.

``--trace 0`` prints the end-to-end metrics. Their times are scaled to a
reference host speed by a probe before and after each scene and set-up
(hostspeed.py); the raw times are in the details line.

``--trace 1`` runs half the work untraced and then the same work again with
layer spans installed (spans.py), checks that both passes wrote
byte-identical outputs, and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run's
details (machine, scene seeds, tail percentile and sample count, output
problems). The exit code is 0 when a result was printed, 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

# Fixed BLAS thread count, set before numpy loads; never above nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import hostspeed  # noqa: E402  (perfbench/ is on sys.path: it holds this script)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("scenes_per_s", "1/s"),
    ("scene_latency_p50_s", "s"),
    ("scene_latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("median_dtheta_deg", "deg"),
    ("median_dt_cm", "cm"),
    ("accept_rate", "ratio"),
    ("multi_step_completion", "ratio"),
    ("one_step_completion", "ratio"),
    ("manipulations_per_object", "moves/object"),
]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (the
    median when there are fewer than twenty samples)."""
    if n < 20:
        return 50
    return max(50, math.floor(100 * (n - 10) / n))


def nearest_rank(values, pct: int) -> float:
    """Smallest sample with at least ``pct`` percent of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def run_units(workload, seeds, workdir):
    """Run one unit per scene seed; returns the results and the seconds
    spent inside mvor's entry points (the benchmark's own checks excluded)."""
    results = [workload.run_unit(s, workdir) for s in seeds]
    return results, sum(r.program_s for r in results)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mvor", "__init__.py")):
        print(f"error: no mvor sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    before = hostspeed.probe()
    t0 = time.perf_counter()
    import mvor.bench  # noqa: F401  (timed: the program's imports are set-up)
    import mvor.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    import_scaled = import_s * hostspeed.scale(before, hostspeed.probe())

    import spans
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # a traced run is half untraced, half traced over the same scenes
    budget = args.seconds / 2 if args.trace else args.seconds
    units = max(1, round(budget / workload.nominal_unit_s))
    anchor, own = workloads.pick_scenes(args.seed, units)
    seeds = anchor + own

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench_work"))
    tracer = spans.Tracer() if args.trace else None
    try:
        setup_times, setup_scaled = [], []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            before = hostspeed.probe()
            t = time.perf_counter()
            workload.setup(workdir, [anchor, own])
            setup_times.append(time.perf_counter() - t)
            setup_scaled.append(setup_times[-1] * hostspeed.scale(before, hostspeed.probe()))
        if args.trace:
            # untimed warm-up, so that neither timed pass pays first-call costs
            workload.run_unit(seeds[0], workdir)
        results, wall = run_units(workload, seeds, workdir)
        if args.trace:
            tracer.install()
            try:
                traced, traced_wall = run_units(workload, seeds, workdir)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rows = [r for res in results for r in res.rows]
    _, problems = workload.evaluate(rows, seeds)
    accuracy, _ = workload.evaluate([r for r in rows if r["scene_seed"] in anchor], anchor)
    problems.extend(e for res in results for e in res.errors)
    if args.trace:
        differ = [s for s, a, b in zip(seeds, results, traced) if a.digest != b.digest]
        if differ:
            problems.append(f"traced outputs differ from untraced ones for scene seeds {differ}")
        problems.extend(e for res in traced for e in res.errors)
        results = traced

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    latencies = [t for r in results for t in r.latencies]
    pct = tail_percentile(len(latencies))
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "anchor_seeds": anchor,
        "own_seeds": own,
        "scenes_timed": len(latencies),
        "scene_latencies_s": [round(t, 4) for t in latencies],
        "raw_scene_latencies_s": [round(t, 4) for r in results for t in r.raw_latencies],
        "raw_setup_s": import_s + statistics.median(setup_times),
        "skipped_scenes": sum(r.skipped for r in results),
        "scene_latency_tail_percentile": pct,
        "program_s": traced_wall if args.trace else wall,
        "machine": machine_info(),
        "problems": problems,
    }

    if args.trace:
        metrics = tracer.metrics(traced_wall, wall)
        units_of = {name: unit for name, unit, _ in spans.PER_LAYER}
        details["spans"] = sorted({s[0] for s in tracer.spans})
    else:
        p50 = statistics.median(latencies) if latencies else 0.0
        values = {
            "setup_s": import_scaled + statistics.median(setup_scaled),
            "scenes_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
            "scene_latency_p50_s": p50,
            "scene_latency_tail_s": nearest_rank(latencies, pct) if pct > 50 else p50,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        values.update(accuracy)
        # completion metrics have no meaning without a planner; a neutral
        # 1.0 keeps the key set identical across workloads
        details["not_applicable"] = [m for m in workloads.COMPLETION_ONLY if m not in values]
        for m in details["not_applicable"]:
            values[m] = 1.0
        metrics = values
        units_of = dict(END_TO_END)

    result = {
        "correct": not problems and failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted > 0 else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_of.items()},
    }
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
