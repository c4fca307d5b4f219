"""The three benchmark workloads: their inputs, one unit of work, and the
checks and accuracy metrics of their outputs.

Inputs come only from the run seed. A run's scenes are the first seeds,
counting up from a window start, whose scene holds ``OBJECTS`` objects:
half of them from the anchor window (start 0, the same in every run), half
from the run's own window (start ``SEED_STRIDE * (seed + 1)``).

- The default SimConfig draws the object count uniformly from 1..9, and a
  scene's cost grows with it (about 0.5 s per object on ``pose-ablation``);
  with counts mixed, a latency percentile falls between scenes of different
  sizes and jumps from run to run. Holding the count at the mean of 1..9
  keeps the scenes comparable, so the percentiles measure the pipeline's
  own variation (rejections, re-observations).
- The accuracy metrics are taken on the anchor scenes only. A median over
  the few hundred objects a run can afford moves by 10-20 % from one
  sample of scenes to the next; on a fixed sample it is exact, so any
  change in behaviour shows in it. The output checks cover every scene.

A unit is one call into mvor's public entry points for one scene seed:
``run_pose_bench`` / ``run_completion_bench`` with ``scenes=1`` (the same
call ``mvor bench-pose`` / ``mvor bench-completion`` makes), or the
``build-db`` + ``localize`` pair through ``mvor.cli.main``. Scene latency
is taken at scene boundaries: the bench drivers call ``generate_instance``
once per (regime, seed), so a scene runs from that call to the next one or
to the driver's return. The library and backend the driver regenerates at
the start of each call therefore fall outside every scene.

Every scene is timed between two host-speed probes (hostspeed.py): one at
its start boundary and one at its end boundary, both outside the scene, and
its latency is reported both raw and scaled to the reference host speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from mvor import bench, cli
from mvor.errors import PlacementFailure
from mvor.localization import LocalizationConfig
from mvor.perception import PerceptionConfig
from mvor.sim import SimConfig, generate_instance, generate_model_library

import hostspeed

OBJECTS = 5
SEED_STRIDE = 1000
ANCHOR_START = 0

# Acceptance bounds on the multi-view medians (criterion 2).
POSE_MAX_DTHETA_DEG = 0.5
POSE_MAX_DT_CM = 0.5

COMPLETION_ONLY = ("multi_step_completion", "one_step_completion", "manipulations_per_object")


@dataclass
class UnitResult:
    latencies: list = field(default_factory=list)  # s at reference speed, one per completed scene
    raw_latencies: list = field(default_factory=list)  # the same, as measured
    program_s: float = 0.0  # time inside mvor's entry points, probes excluded
    attempted: int = 0
    failed: int = 0
    skipped: int = 0
    digest: str = ""  # hash of the unit's machine-readable outputs
    rows: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def scene_seeds(start: int, count: int, library, sim: SimConfig) -> list[int]:
    """The first ``count`` seeds from ``start`` on whose scene holds OBJECTS
    objects. Seeds whose generation hits PlacementFailure are never picked."""
    chosen = []
    candidate = start
    while len(chosen) < count:
        try:
            if generate_instance(sim, library, seed=candidate).initial.num_objects == OBJECTS:
                chosen.append(candidate)
        except PlacementFailure:
            pass
        candidate += 1
    return chosen


def pick_scenes(seed: int, units: int) -> tuple[list[int], list[int]]:
    """(anchor scene seeds, the run's own scene seeds) for ``units`` scenes."""
    sim = SimConfig()
    library = generate_model_library(sim)
    anchor = (units + 1) // 2
    return (
        scene_seeds(ANCHOR_START, anchor, library, sim),
        scene_seeds(SEED_STRIDE * (seed + 1), units - anchor, library, sim),
    )


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


class SceneClock:
    """Marks scene boundaries at the bench driver's generate_instance calls,
    with a host-speed probe at each boundary, between the end of the
    previous scene and the start of the next."""

    def __init__(self):
        # [end of the previous scene, probe, start of this scene, instance generated]
        self.marks: list[list] = []

    def __enter__(self):
        self._original = original = bench.generate_instance
        marks = self.marks

        def marked(*args, **kwargs):
            stop = time.perf_counter()
            speed = hostspeed.probe()
            marks.append([stop, speed, time.perf_counter(), False])
            inst = original(*args, **kwargs)
            marks[-1][3] = True
            return inst

        bench.generate_instance = marked
        return self

    def __exit__(self, *exc):
        bench.generate_instance = self._original

    def probe_s(self) -> float:
        """Seconds the boundary probes took inside the driver's call."""
        return sum(start - stop for stop, _, start, _ in self.marks)

    def latencies(self, end: float, end_speed: float) -> tuple[list[float], list[float]]:
        """(scaled, raw) latencies of the scenes whose instance was generated;
        the last scene ends at ``end``, followed by the probe ``end_speed``."""
        scaled, raw = [], []
        bounds = [(stop, speed) for stop, speed, _, _ in self.marks[1:]] + [(end, end_speed)]
        for (_, speed, start, generated), (stop, after) in zip(self.marks, bounds):
            if generated:
                raw.append(stop - start)
                scaled.append(raw[-1] * hostspeed.scale(speed, after))
        return scaled, raw


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class BenchDriverWorkload:
    """A workload that calls one of mvor.bench's drivers per scene seed."""

    name = ""
    nominal_unit_s = 1.0
    regimes: list = []

    def bench_config(self, seed: int) -> bench.BenchConfig:
        raise NotImplementedError

    def driver(self):
        """The mvor.bench function to call, looked up at call time so that
        the tracer's wrapper is the one called."""
        raise NotImplementedError

    def setup(self, workdir: str, groups: list[list[int]]) -> None:
        library = generate_model_library(SimConfig())
        PerceptionConfig().make_backend(library)

    def run_unit(self, seed: int, workdir: str) -> UnitResult:
        res = UnitResult(attempted=len(self.regimes))
        clock = SceneClock()
        cfg = self.bench_config(seed)
        start = time.perf_counter()
        try:
            with clock:
                report = self.driver()(cfg)
        except Exception:
            res.failed = res.attempted
            res.errors.append(traceback.format_exc())
            return res
        end = time.perf_counter()
        res.program_s = end - start - clock.probe_s()
        res.skipped = report.skipped_scenes
        res.attempted -= report.skipped_scenes
        res.latencies, res.raw_latencies = clock.latencies(end, hostspeed.probe())
        out = os.path.join(workdir, "report")
        bench.write_report(report, out)
        res.digest = _digest(os.path.join(out, "records.tsv"), os.path.join(out, "summary.json"))
        shutil.rmtree(out)
        res.rows = report.rows
        return res


class PoseAblation(BenchDriverWorkload):
    name = "pose-ablation"
    nominal_unit_s = 3.2
    regimes = ["minor", "full"]

    def bench_config(self, seed):
        return bench.BenchConfig(
            scenes=1,
            base_seed=seed,
            regimes=list(self.regimes),
            include_single_view=True,
            localization=LocalizationConfig(sigma_px=1.0, outlier_rate=0.2),
        )

    def driver(self):
        return bench.run_pose_bench

    def evaluate(self, rows, seeds):
        problems = []
        groups = bench.compute_pose_summary(rows)["groups"]
        for regime in self.regimes:
            g = groups.get(f"{regime}/multi")
            if g is None:
                problems.append(f"no {regime}/multi records")
            elif g["median_dtheta_deg"] > POSE_MAX_DTHETA_DEG or g["median_dt_cm"] > POSE_MAX_DT_CM:
                problems.append(
                    f"{regime}/multi medians {g['median_dtheta_deg']:.4f} deg / "
                    f"{g['median_dt_cm']:.4f} cm exceed {POSE_MAX_DTHETA_DEG} / {POSE_MAX_DT_CM}"
                )
        multi = [r for r in rows if r["view_mode"] == "multi"]
        accuracy = {
            "median_dtheta_deg": _median([r["dtheta_deg"] for r in multi]),
            "median_dt_cm": _median([r["dt_cm"] for r in multi]),
            "accept_rate": float(np.mean([r["accepted"] for r in multi])) if multi else 0.0,
        }
        return accuracy, problems


class CompletionNoisy(BenchDriverWorkload):
    name = "completion-noisy"
    nominal_unit_s = 1.5
    regimes = ["full"]

    def bench_config(self, seed):
        return bench.BenchConfig(
            scenes=1,
            base_seed=seed,
            regimes=list(self.regimes),
            sim=SimConfig(actuation_sigma=0.003),
        )

    def driver(self):
        return bench.run_completion_bench

    def evaluate(self, rows, seeds):
        problems = []
        scenes = {r["scene_seed"] for r in rows}
        for s in scenes:
            sel = [r for r in rows if r["scene_seed"] == s]
            if sorted(r["object"] for r in sel) != list(range(len(sel))):
                problems.append(f"scene {s}: object records are not 0..{len(sel) - 1}")
        if not rows:
            keys = ("median_dtheta_deg", "median_dt_cm", "accept_rate") + COMPLETION_ONLY
            return dict.fromkeys(keys, 0.0), problems + ["no completion records"]
        g = bench.compute_completion_summary(rows)["groups"]["full"]
        accuracy = {
            "median_dtheta_deg": g["median_final_dtheta_deg"],
            "median_dt_cm": g["median_final_dt_cm"],
            "accept_rate": float(np.mean([r["accepted"] for r in rows])),
            "multi_step_completion": g["multi_step_completion"],
            "one_step_completion": g["one_step_completion"],
            "manipulations_per_object": float(
                np.mean([r["goal_moves"] + r["buffer_moves"] for r in rows])
            ),
        }
        return accuracy, problems


class CliRoundtrip:
    """``mvor gen`` at set-up, then ``build-db`` + ``localize`` per scene.

    ``localize`` runs with 1 px keypoint noise and no outliers: a clean
    matcher recovers poses to ~1e-12 deg, and medians at rounding level
    would make the accuracy metrics meaningless.
    """

    name = "cli-roundtrip"
    nominal_unit_s = 1.5
    config = {"localization": {"sigma_px": 1.0}}

    def _paths(self, workdir):
        return (
            os.path.join(workdir, "dataset"),
            os.path.join(workdir, "config.json"),
            os.path.join(workdir, "db.npz"),
            os.path.join(workdir, "poses.json"),
        )

    def setup(self, workdir: str, groups: list[list[int]]) -> None:
        """Library and backend, then one ``mvor gen`` per seed window, each
        writing every instance from the window's first to its last seed."""
        dataset, config, _, _ = self._paths(workdir)
        library = generate_model_library(SimConfig())
        PerceptionConfig().make_backend(library)
        with open(config, "w", encoding="utf-8") as f:
            json.dump(self.config, f)
        for seeds in filter(None, groups):
            count = max(seeds) - min(seeds) + 1
            argv = ["gen", "--count", str(count), "--seed", str(min(seeds)), "--out", dataset]
            rc = _call_cli(argv, [])
            if rc != 0:
                raise RuntimeError(f"mvor gen exited with {rc}")

    def run_unit(self, seed: int, workdir: str) -> UnitResult:
        dataset, config, db, poses = self._paths(workdir)
        instance = os.path.join(dataset, f"instance_{seed:08d}.json")
        res = UnitResult(attempted=1)
        before = hostspeed.probe()
        t0 = time.perf_counter()
        rc = _call_cli(
            ["build-db", "--config", config, "--instance", instance, "--out", db], res.errors
        )
        if rc == 0:
            rc = _call_cli(
                ["localize", "--config", config, "--db", db, "--instance", instance,
                 "--out", poses],
                res.errors,
            )
        end = time.perf_counter()
        res.program_s = end - t0
        if rc != 0:
            res.failed = 1
            res.errors.append(f"scene {seed}: mvor exited with {rc}")
            return res
        res.raw_latencies = [end - t0]
        res.latencies = [res.raw_latencies[0] * hostspeed.scale(before, hostspeed.probe())]
        res.digest = _digest(poses)
        with open(poses, encoding="utf-8") as f:
            report = json.load(f)
        with open(instance, encoding="utf-8") as f:
            objects = len(json.load(f)["initial"])
        res.rows = [dict(r, scene_seed=seed, scene_objects=objects) for r in report["objects"]]
        if not res.rows:  # keep the scene visible to evaluate() even with no estimates
            res.rows = [{"scene_seed": seed, "scene_objects": objects}]
        os.remove(poses)
        return res

    def evaluate(self, rows, seeds):
        problems = []
        for s in seeds:
            sel = [r for r in rows if r["scene_seed"] == s]
            if not sel:
                continue  # failed scene, already counted
            matched = sorted(r["matched_object"] for r in sel if "matched_object" in r)
            if matched != list(range(sel[0]["scene_objects"])):
                problems.append(
                    f"scene {s}: poses.json matches objects {matched}, "
                    f"instance has {sel[0]['scene_objects']}"
                )
        est = [r for r in rows if "matched_object" in r]
        accuracy = {
            "median_dtheta_deg": _median([r["dtheta_deg"] for r in est]),
            "median_dt_cm": _median([r["dt_cm"] for r in est]),
            "accept_rate": float(np.mean([r["accepted"] for r in est])) if est else 0.0,
        }
        return accuracy, problems


def _call_cli(argv, errors) -> int:
    """mvor.cli.main in-process, its console output captured; a raised
    exception or an argparse exit counts as a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) and e.code else 2
    except Exception:
        errors.append(traceback.format_exc())
        return 1
    if rc != 0:
        errors.append(f"mvor {' '.join(argv)}: {err.getvalue().strip()}")
    return rc


WORKLOADS = {w.name: w for w in (PoseAblation(), CompletionNoisy(), CliRoundtrip())}

