"""Per-scene pipeline and the dataset-scale benchmark drivers.

The stages of a scene are shared by the drivers, the CLI and the demos.
Each takes the model library (``generate_model_library``), whose point
descriptors a region's descriptor pools, and the BenchConfig:
``build_scene_database`` (the initial scene captured from the ring or the
home viewpoint, then associated into the region database),
``scene_goal_regions`` (the goal scene captured from the home viewpoint,
once per seed for every regime and database) and ``localize_scene``
(``estimate_all`` on the goal regions, and the instance-to-object
pairing). ``complete_scene`` runs the database and localization stages on
the goal regions it is given, and then the planner, whose re-observer
(``make_reobserver``) captures the current scene from the home viewpoint;
``scene_outcome`` judges its result. Every view the robot takes goes
through ``capture``: the one render here, and its frames through
``perception.prepare_goal_regions``, which describes the regions of all
of them in one batch. Both drivers run one loop over seeds
and, within a seed, its regimes (``_run_scenes``), and differ only in the
records they make.

Pose benchmark: per seeded scene, build the multi-view database of the
initial scene, estimate every object's relative pose from the goal frame,
and accumulate planar errors against the generator's true offsets. The
single-view ablation rebuilds the database from the home-viewpoint frame
alone, on the same seeds and the same goal regions, so comparisons are
paired. Rejected estimates contribute their best-effort error (an object
with no usable estimate counts as "assumed unmoved"), never get dropped
from the medians.

Completion benchmark: ``complete_scene`` per scene, recorded through its
``scene_outcome``.

All machine-readable outputs are pure functions of (config, seed): loops
are ordered, every stochastic component is seeded per (regime, mode, scene),
and wall-clock timing appears only in the human-readable report. The
matcher's noise comes from ``scene_matcher`` alone, so ``mvor localize``
and ``mvor rearrange`` reproduce the bench rows of their scene.
"""

from __future__ import annotations

import os
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import PlacementFailure, ReobservationFailed
from .geometry import PlanarTransform, planar_compose, planar_distance
from .localization import LocalizationConfig, PoseEstimate, estimate_all, estimate_object
from .perception import PerceptionConfig, associate, prepare_goal_regions
from .planner import ExecutionResult, PlannerConfig, plan_and_execute
from .serialize import ConfigSection, dump_json, make_dirs, setting, write_text
from .sim import SimConfig, generate_instance, generate_model_library, render
from .sim.config import ROTATION_REGIMES


def estimate_counters(est: PoseEstimate | None) -> dict:
    """An estimate's search and solve counters, keyed (and ordered) as
    records.tsv and poses.json write them; all zero without an estimate."""
    est = est if est is not None else PoseEstimate()
    return {
        "inliers": est.inlier_count,
        "inlier_ratio": est.inlier_ratio,
        "correspondences": est.num_correspondences,
        "candidates_visited": est.candidates_visited,
        # one matcher call per candidate visited (ROADMAP item 6)
        "matcher_invocations": est.candidates_visited,
    }


POSE_COLUMNS = [
    "regime", "view_mode", "scene_seed", "object", "model_id", "accepted",
    "dtheta_deg", "dt_cm", *estimate_counters(None),
]

COMPLETION_COLUMNS = [
    "regime", "scene_seed", "object", "model_id", "accepted",
    "final_dtheta_deg", "final_dt_cm", "goal_moves", "buffer_moves",
    "scene_completed", "scene_one_step",
]


@dataclass(frozen=True)
class BenchConfig(ConfigSection):
    scenes: int = setting(50, 1)
    base_seed: int = setting(0, 0)
    regimes: tuple = ("minor", "full")
    include_single_view: bool = True
    sim: SimConfig = field(default_factory=SimConfig)
    perception: PerceptionConfig = field(default_factory=PerceptionConfig)
    localization: LocalizationConfig = field(default_factory=LocalizationConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)

    def __post_init__(self):
        # a list, JSON's form, is kept as a tuple: it cannot change in place
        object.__setattr__(self, "regimes", tuple(self.regimes))
        super().__post_init__()

    def validate(self) -> None:
        unknown = [r for r in self.regimes if r not in ROTATION_REGIMES]
        if unknown:
            raise ValueError(f"unknown rotation regimes {unknown}")
        if not self.regimes:
            raise ValueError("regimes is empty")
        if len(set(self.regimes)) != len(self.regimes):
            raise ValueError(f"repeated rotation regimes in {self.regimes}")


@dataclass
class MetricsReport:
    rows: list  # record dicts, one per object
    summary: dict  # machine-readable aggregate (no timing)
    wall_clock_s: float

    @property
    def kind(self) -> str:  # 'pose' | 'completion'
        return self.summary["kind"]

    @property
    def skipped_scenes(self) -> int:
        return self.summary["skipped_scenes"]


def match_instances_to_objects(db, scene) -> dict:
    """Greedy one-to-one pairing of database instances to scene objects by
    planar distance between instance centroid and footprint center."""
    pairs = []
    for u in range(db.num_instances):
        cx, cy = db.instance_centroids[u][:2]
        for i, p in enumerate(scene.placements):
            d = float(np.hypot(cx - p.pose.tx, cy - p.pose.ty))
            pairs.append((d, u, i))
    pairs.sort()
    used_u, used_i, out = set(), set(), {}
    for _, u, i in pairs:
        if u in used_u or i in used_i:
            continue
        out[u] = i
        used_u.add(u)
        used_i.add(i)
    return out


def best_effort_error(est: PoseEstimate | None, truth: PlanarTransform) -> tuple[float, float]:
    """Planar error of an estimate; without one, the assume-unmoved error."""
    if est is not None:
        return planar_distance(est.offset, truth)
    return planar_distance(truth, PlanarTransform.identity())


def _scene_rng(tag: str, *parts) -> np.random.Generator:
    # crc32, not hash(): string hashing is salted per process and would
    # break run-to-run byte determinism
    return np.random.default_rng([zlib.crc32(tag.encode()), *[int(p) for p in parts]])


class ViewMode(NamedTuple):
    view: str  # its name in build-db's --view and a database header
    viewpoints: Callable  # instance -> the viewpoints its database is captured from


# the view modes: the ring database and the home-view database. A mode's
# position keys its matcher noise stream (scene_matcher).
VIEW_MODES = {
    "multi": ViewMode("ring", lambda inst: inst.config.ring_viewpoints),
    "single": ViewMode("home", lambda inst: [inst.config.home_viewpoint]),
}


def scene_matcher(inst, mode: str, library, cfg: BenchConfig):
    """The matcher for localizing ``inst`` against its ``mode`` database.
    Its noise stream is keyed by the scene alone (rotation regime, view
    mode, seed), so the benches and the CLI draw the same noise for the
    same scene."""
    rng = _scene_rng(
        "matcher",
        ROTATION_REGIMES.index(inst.config.rotation_regime),
        list(VIEW_MODES).index(mode),
        inst.seed,
    )
    return cfg.localization.make_matcher(library, rng)


def capture(scene, viewpoints, inst, library, cfg: BenchConfig) -> list[list]:
    """Every view the robot takes: ``scene`` rendered from ``viewpoints``
    through ``inst``'s camera, and the frames segmented, cut and described
    as one capture (``prepare_goal_regions``: one descriptor batch for all
    the views); one list of regions per view, in order."""
    frames = render(scene, viewpoints, inst.config.intrinsics, library)
    return prepare_goal_regions(frames, library, cfg.perception)


def build_scene_database(inst, mode: str, library, cfg: BenchConfig):
    """Database stage: the capture of the initial scene from the views of
    ``mode``, one of VIEW_MODES (the ring, or the home viewpoint alone),
    associated into instances."""
    views = VIEW_MODES[mode].viewpoints(inst)
    return associate(capture(inst.initial, views, inst, library, cfg))


@dataclass
class SceneEstimates:
    by_instance: dict  # database instance -> PoseEstimate, as estimate_all returns it
    object_of: dict  # database instance -> scene object (match_instances_to_objects)

    @property
    def by_object(self) -> dict:
        """Scene object -> PoseEstimate, for the paired instances."""
        return {self.object_of[u]: e for u, e in self.by_instance.items() if u in self.object_of}


def scene_goal_regions(inst, library, cfg: BenchConfig) -> list:
    """The goal scene's capture from the home viewpoint. The regions are
    only read (each derives its matching index once, on first use), so one
    list serves every database of the scene and every regime of its seed:
    the rotation regime draws only the initial yaws, so the regimes of one
    seed share its goal scene."""
    (regions,) = capture(inst.goal, [inst.config.home_viewpoint], inst, library, cfg)
    return regions


def localize_scene(inst, db, goal_regions, matcher, cfg: BenchConfig) -> SceneEstimates:
    """Localization stage: every object's relative pose from the goal
    regions (``scene_goal_regions``)."""
    by_instance = estimate_all(
        goal_regions, db, matcher, inst.config.intrinsics, cfg.localization
    )
    return SceneEstimates(by_instance, match_instances_to_objects(db, inst.initial))


def complete_scene(
    inst, library, cfg: BenchConfig, goal_regions
) -> tuple[SceneEstimates, ExecutionResult]:
    """The full-scene run: the ring database of the initial scene, every
    object localized from the goal regions (``scene_goal_regions``; a
    rejected identity estimate for an object with none) with the scene's
    multi-view matcher, then the planner.
    When ``inst.config.actuation_sigma > 0`` the planner re-observes an
    object from the home viewpoint, with the same matcher, before a goal
    move, if the robot has moved that object since it last re-observed it
    (a buffer move, in practice)."""
    db = build_scene_database(inst, "multi", library, cfg)
    matcher = scene_matcher(inst, "multi", library, cfg)
    found = localize_scene(inst, db, goal_regions, matcher, cfg)
    estimates = {i: PoseEstimate() for i in range(inst.initial.num_objects)} | found.by_object
    reobserve = None
    if inst.config.actuation_sigma > 0:
        reobserve = make_reobserver(
            inst, library, db, matcher, cfg, {i: u for u, i in found.object_of.items()}
        )
    return found, plan_and_execute(inst, estimates, library, cfg.planner, reobserve)


@dataclass
class SceneOutcome:
    objects: list  # per object: final error against the goal, executed moves
    completed: bool  # every object ends within the success thresholds
    one_step: bool  # completed, with at most one goal move per object


def scene_outcome(inst, result: ExecutionResult, config: PlannerConfig) -> SceneOutcome:
    """How a run of ``complete_scene`` ended, judged by ``config``'s
    success thresholds. The per-object entries are keyed (and ordered) as
    the completion records and the CLI's ``result.json`` write them."""
    goal_moves, buffer_moves = result.goal_moves, result.buffer_moves
    objects = []
    for i, (p, g) in enumerate(zip(result.final_scene.placements, inst.goal.placements)):
        dtheta, dt = planar_distance(p.pose, g.pose)
        objects.append({
            "object": i,
            "final_dtheta_deg": dtheta,
            "final_dt_cm": dt,
            "goal_moves": goal_moves[i],
            "buffer_moves": buffer_moves[i],
        })
    completed = all(
        config.within_success(o["final_dtheta_deg"], o["final_dt_cm"]) for o in objects
    )
    one_step = completed and all(o["goal_moves"] <= 1 for o in objects)
    return SceneOutcome(objects, completed, one_step)


def _run_scenes(cfg: BenchConfig, scene_rows, summarize) -> MetricsReport:
    """The drivers' one scene loop: over seeds, and within a seed over its
    regimes, ``scene_rows(inst, library, cfg, goal_regions)`` per scene that
    generates. The regimes of a seed share its goal scene, so the goal is
    captured again only when a regime's goal scene differs from the one
    last captured for the seed. The rows are joined regime by regime, in
    ``cfg.regimes`` order, and by seed within a regime."""
    t0 = time.perf_counter()
    library = generate_model_library(cfg.sim)
    sims = [replace(cfg.sim, rotation_regime=regime) for regime in cfg.regimes]
    rows = {regime: [] for regime in cfg.regimes}
    skipped = 0
    for seed in range(cfg.base_seed, cfg.base_seed + cfg.scenes):
        goal = goal_regions = None
        for sim in sims:
            try:
                inst = generate_instance(sim, library, seed=seed)
            except PlacementFailure:
                skipped += 1
                continue
            if inst.goal != goal:
                goal, goal_regions = inst.goal, scene_goal_regions(inst, library, cfg)
            rows[sim.rotation_regime] += scene_rows(inst, library, cfg, goal_regions)
    rows = [row for regime in cfg.regimes for row in rows[regime]]
    return MetricsReport(rows, summarize(rows, skipped), time.perf_counter() - t0)


def _pose_rows(inst, library, cfg: BenchConfig, goal_regions) -> list[dict]:
    modes = list(VIEW_MODES) if cfg.include_single_view else ["multi"]
    rows = []
    for mode in modes:
        db = build_scene_database(inst, mode, library, cfg)
        matcher = scene_matcher(inst, mode, library, cfg)
        by_object = localize_scene(inst, db, goal_regions, matcher, cfg).by_object
        for i, p in enumerate(inst.initial.placements):
            est = by_object.get(i)
            dtheta, dt = best_effort_error(est, inst.true_offsets[i])
            rows.append({
                "regime": inst.config.rotation_regime,
                "view_mode": mode,
                "scene_seed": inst.seed,
                "object": i,
                "model_id": p.model_id,
                "accepted": int(est.accepted) if est else 0,
                "dtheta_deg": dtheta,
                "dt_cm": dt,
                **estimate_counters(est),
            })
    return rows


def run_pose_bench(cfg: BenchConfig) -> MetricsReport:
    return _run_scenes(cfg, _pose_rows, compute_pose_summary)


def compute_pose_summary(rows, skipped_scenes=0) -> dict:
    summary = {"kind": "pose", "skipped_scenes": skipped_scenes, "groups": {}}
    groups = sorted({(r["regime"], r["view_mode"]) for r in rows})
    for regime, mode in groups:
        sel = [r for r in rows if r["regime"] == regime and r["view_mode"] == mode]
        summary["groups"][f"{regime}/{mode}"] = {
            "objects": len(sel),
            "median_dtheta_deg": float(np.median([r["dtheta_deg"] for r in sel])),
            "median_dt_cm": float(np.median([r["dt_cm"] for r in sel])),
            "accept_rate": float(np.mean([r["accepted"] for r in sel])),
            "mean_matcher_invocations": float(np.mean([r["matcher_invocations"] for r in sel])),
        }
    return summary


def make_reobserver(inst, library, db, matcher, cfg: BenchConfig, object_instance):
    """Home-viewpoint re-estimation hook for the planner (noisy actuation),
    which calls it only for an object it has moved since the object's last
    successful re-observation.

    Captures the current scene from the home viewpoint, picks the region
    nearest the dead-reckoned guess, and estimates its motion relative to
    the database (built on the initial scene), restricted to the object's
    own instance list.
    """

    def reobserve(scene, i, guess):
        u = object_instance.get(i)
        if u is None:
            raise ReobservationFailed(f"object {i} has no database instance")
        (regions,) = capture(scene, [inst.config.home_viewpoint], inst, library, cfg)
        if not regions:
            raise ReobservationFailed("home frame sees nothing")
        dists = [np.hypot(r.centroid[0] - guess.tx, r.centroid[1] - guess.ty) for r in regions]
        region = regions[int(np.argmin(dists))]
        excluded = frozenset(set(range(db.num_instances)) - {u})
        est = estimate_object(
            region, db, matcher, inst.config.intrinsics, cfg.localization, excluded
        )
        if not est.accepted:
            raise ReobservationFailed(est.note or "re-estimation rejected")
        return planar_compose(est.offset, inst.initial.placements[i].pose)

    return reobserve


def _completion_rows(inst, library, cfg: BenchConfig, goal_regions) -> list[dict]:
    found, result = complete_scene(inst, library, cfg, goal_regions)
    outcome = scene_outcome(inst, result, cfg.planner)
    by_object = found.by_object
    rows = []
    for i, (o, p) in enumerate(zip(outcome.objects, inst.initial.placements)):
        est = by_object.get(i)
        rows.append({
            "regime": inst.config.rotation_regime,
            "scene_seed": inst.seed,
            "model_id": p.model_id,
            "accepted": int(est.accepted) if est else 0,
            **o,
            "scene_completed": int(outcome.completed),
            "scene_one_step": int(outcome.one_step),
        })
    return rows


def run_completion_bench(cfg: BenchConfig) -> MetricsReport:
    return _run_scenes(cfg, _completion_rows, compute_completion_summary)


def compute_completion_summary(rows, skipped_scenes=0) -> dict:
    summary = {"kind": "completion", "skipped_scenes": skipped_scenes, "groups": {}}
    for regime in sorted({r["regime"] for r in rows}):
        sel = [r for r in rows if r["regime"] == regime]
        scenes = sorted({r["scene_seed"] for r in sel})
        per_scene = {
            s: next(r for r in sel if r["scene_seed"] == s) for s in scenes
        }
        hist = dict(Counter(str(r["goal_moves"] + r["buffer_moves"]) for r in sel))
        summary["groups"][regime] = {
            "scenes": len(scenes),
            "objects": len(sel),
            "multi_step_completion": float(
                np.mean([per_scene[s]["scene_completed"] for s in scenes])
            ),
            "one_step_completion": float(
                np.mean([per_scene[s]["scene_one_step"] for s in scenes])
            ),
            "median_final_dtheta_deg": float(np.median([r["final_dtheta_deg"] for r in sel])),
            "median_final_dt_cm": float(np.median([r["final_dt_cm"] for r in sel])),
            "manipulations_histogram": hist,
        }
    return summary


def write_report(report: MetricsReport, out_dir) -> None:
    """records.tsv + summary.json are machine-readable and deterministic;
    report.txt is the human summary and carries the wall clock."""
    make_dirs(out_dir)
    columns = POSE_COLUMNS if report.kind == "pose" else COMPLETION_COLUMNS
    lines = ["\t".join(columns)]
    for r in report.rows:
        lines.append("\t".join(repr(r[c]) if isinstance(r[c], float) else str(r[c]) for c in columns))
    write_text("\n".join(lines) + "\n", os.path.join(out_dir, "records.tsv"))
    dump_json(report.summary, os.path.join(out_dir, "summary.json"))
    write_text(format_report(report), os.path.join(out_dir, "report.txt"))


def format_report(report: MetricsReport) -> str:
    out = [f"{report.kind} benchmark"]
    out.append(f"wall clock: {report.wall_clock_s:.1f} s")
    out.append(f"skipped scenes: {report.skipped_scenes}")
    for name, g in report.summary["groups"].items():
        out.append(f"[{name}]")
        for k, v in g.items():
            out.append(f"  {k}: {v}")
    return "\n".join(out) + "\n"
