"""Layer spans recorded from outside the mvor package.

``Tracer.install()`` replaces each traced public function of mvor with a
wrapper that records a span (name, start, end, parent) and the counters of
that boundary, everywhere the package holds a reference to the function
(its defining module and every module that imported it by name). The
original functions are put back by ``uninstall()``. Nothing under
``src/mvor`` is edited, and a wrapper never changes arguments, results or
exceptions, so traced runs produce the same outputs as untraced ones.

Spans are kept in memory; ``Tracer.metrics()`` turns them into the
per-layer metrics listed in ``PER_LAYER``. A span's self time is its
duration minus the durations of its direct children (calls are sequential,
so children never overlap).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# Spans around the drivers: every layer span of a scene nests inside one.
DRIVERS = {
    "bench.run_pose_bench": ("mvor.bench", "run_pose_bench"),
    "bench.run_completion_bench": ("mvor.bench", "run_completion_bench"),
    "cli.main": ("mvor.cli", "main"),
}

# span name -> (module, attribute or Class.method) of the wrapped functions
LAYERS = {
    "sim.generate_model_library": [("mvor.sim.models", "generate_model_library")],
    "sim.generate_instance": [("mvor.sim.scene", "generate_instance")],
    "sim.render": [("mvor.sim.render", "render")],
    "sim.segment": [("mvor.sim.render", "segment")],
    "sim.apply_move": [("mvor.sim.scene", "apply_move")],
    "sim.io.load_instance": [("mvor.sim.io", "load_instance")],
    "perception.extract_regions": [("mvor.perception.regions", "extract_regions")],
    "perception.make_backend": [("mvor.perception.database", "PerceptionConfig.make_backend")],
    "perception.descriptor": [("mvor.perception.descriptor", "GridPooledDescriptor.extract")],
    "perception.associate": [("mvor.perception.database", "associate")],
    "perception.build_database": [("mvor.perception.database", "build_database")],
    "perception.prepare_goal_regions": [("mvor.perception.database", "prepare_goal_regions")],
    "perception.save_database": [("mvor.perception.database", "save_database")],
    "perception.load_database": [("mvor.perception.database", "load_database")],
    "localization.estimate_object": [("mvor.localization.pipeline", "estimate_object")],
    "localization.retrieve": [("mvor.localization.pipeline", "retrieve_candidates")],
    "localization.prune": [("mvor.localization.pipeline", "prune_after_rejection")],
    "localization.lift": [("mvor.localization.pipeline", "lift_to_3d")],
    "localization.match": [
        ("mvor.localization.matching", "FeatureIdMatcher.match"),
        ("mvor.localization.matching", "DescriptorNNMatcher.match"),
    ],
    "localization.ransac_pnp": [("mvor.localization.pnp", "ransac_pnp")],
    "localization.epnp": [("mvor.localization.pnp", "epnp")],
    "localization.refine_pose": [("mvor.localization.pnp", "refine_pose")],
    "planner.plan_and_execute": [("mvor.planner", "plan_and_execute")],
    "planner.check_collision": [("mvor.planner", "check_collision")],
    "planner.find_buffer_pose": [("mvor.planner", "find_buffer_pose")],
}

# The planner's re-observation hook is a closure built per scene by
# mvor.bench.make_reobserver; the span wraps the closure it returns.
REOBSERVE = "planner.reobserve"

# (metric name, unit, better); the smoke test checks BENCHMARK.json against it
PER_LAYER = [
    ("localization.ransac_pnp.calls", "count", "lower"),
    ("localization.ransac_pnp.self_s", "s", "lower"),
    ("localization.ransac_pnp.inlier_ratio", "ratio", "higher"),
    ("localization.epnp.calls", "count", "lower"),
    ("localization.epnp.self_s", "s", "lower"),
    ("localization.epnp.calls_per_solve", "count", "lower"),
    ("localization.refine_pose.calls", "count", "lower"),
    ("localization.refine_pose.self_s", "s", "lower"),
    ("localization.estimate_object.calls", "count", "lower"),
    ("localization.estimate_object.accept_ratio", "ratio", "higher"),
    ("localization.match.calls", "count", "lower"),
    ("localization.match.self_s", "s", "lower"),
    ("localization.match.calls_per_object", "count", "lower"),
    ("localization.match.pairs_per_call", "count", "higher"),
    ("localization.retrieve.calls", "count", "lower"),
    ("localization.retrieve.self_s", "s", "lower"),
    ("localization.prune.calls", "count", "lower"),
    ("localization.prune.pruned", "count", "higher"),
    ("localization.lift.self_s", "s", "lower"),
    ("perception.make_backend.calls", "count", "lower"),
    ("perception.make_backend.self_s", "s", "lower"),
    ("perception.descriptor.calls", "count", "lower"),
    ("perception.descriptor.self_s", "s", "lower"),
    ("perception.extract_regions.calls", "count", "lower"),
    ("perception.extract_regions.self_s", "s", "lower"),
    ("perception.extract_regions.regions", "count", "higher"),
    ("perception.associate.self_s", "s", "lower"),
    ("perception.build_database.self_s", "s", "lower"),
    ("perception.prepare_goal_regions.calls", "count", "lower"),
    ("perception.prepare_goal_regions.self_s", "s", "lower"),
    ("perception.save_database.self_s", "s", "lower"),
    ("perception.save_database.bytes", "bytes", "lower"),
    ("perception.load_database.self_s", "s", "lower"),
    ("sim.io.load_instance.self_s", "s", "lower"),
    ("sim.render.calls", "count", "lower"),
    ("sim.render.self_s", "s", "lower"),
    ("sim.segment.self_s", "s", "lower"),
    ("sim.generate_instance.self_s", "s", "lower"),
    ("sim.generate_model_library.calls", "count", "lower"),
    ("sim.generate_model_library.self_s", "s", "lower"),
    ("planner.plan_and_execute.self_s", "s", "lower"),
    ("planner.reobserve.calls", "count", "lower"),
    ("planner.reobserve.self_s", "s", "lower"),
    ("planner.reobserve.fail_ratio", "ratio", "lower"),
    ("planner.check_collision.calls", "count", "lower"),
    ("planner.check_collision.collision_ratio", "ratio", "lower"),
    ("planner.find_buffer_pose.calls", "count", "lower"),
    ("planner.find_buffer_pose.fail_ratio", "ratio", "lower"),
    ("sim.apply_move.calls", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
]


def span_names() -> set[str]:
    """Every span name the tracer can record."""
    return set(DRIVERS) | set(LAYERS) | {REOBSERVE}


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *cls, name = attr.split(".")
    if cls:
        owner = getattr(owner, cls[0])
    return owner, name


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _wrap(self, name: str, fn, observe=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name, time.perf_counter(), 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(counters, lambda: fn(*args, **kwargs), *args, **kwargs)
            finally:
                stack.pop()
                n, t0, _, parent = spans[idx]
                spans[idx] = (n, t0, time.perf_counter(), parent)

        return traced

    def _replace_everywhere(self, original, wrapper) -> None:
        """Point every mvor module attribute bound to ``original`` at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mvor" or mod_name.startswith("mvor.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        targets = [(n, m, a) for n, (m, a) in DRIVERS.items()]
        targets += [(n, m, a) for n, places in LAYERS.items() for m, a in places]
        for name, module, attr in targets:
            owner, fname = _resolve(module, attr)
            original = getattr(owner, fname)
            wrapper = self._wrap(name, original, _OBSERVERS.get(name))
            if isinstance(owner, type):
                self._undo.append((owner, fname, original))
                setattr(owner, fname, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        self._install_reobserve()

    def _install_reobserve(self) -> None:
        bench = sys.modules["mvor.bench"]
        make = bench.make_reobserver
        wrap = self._wrap

        @functools.wraps(make)
        def make_traced(*args, **kwargs):
            return wrap(REOBSERVE, make(*args, **kwargs), _observe_reobserve)

        self._replace_everywhere(make, make_traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reporting ------------------------------------------------------
    def layer_times(self):
        """name -> [calls, self seconds]; plus the seconds covered by layer
        spans directly under a driver (or at top level)."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        covered = 0.0
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            s = stats[name]
            s[0] += 1
            s[1] += t1 - t0 - child[i]
            if name not in DRIVERS and (parent < 0 or self.spans[parent][0] in DRIVERS):
                covered += t1 - t0
        return stats, covered

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        stats, covered = self.layer_times()
        c = self.counters

        def calls(name):
            return stats[name][0] if name in stats else 0

        def self_s(name):
            return stats[name][1] if name in stats else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for metric, _, _ in PER_LAYER:
            span, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls(span)
            elif field == "self_s":
                out[metric] = self_s(span)
        out.update({
            "localization.ransac_pnp.inlier_ratio": ratio(
                c["ransac.inliers"], c["ransac.correspondences"]),
            "localization.epnp.calls_per_solve": ratio(
                calls("localization.epnp"), calls("localization.ransac_pnp")),
            "localization.estimate_object.accept_ratio": ratio(
                c["estimate.accepted"], calls("localization.estimate_object")),
            "localization.match.calls_per_object": ratio(
                calls("localization.match"), calls("localization.estimate_object")),
            "localization.match.pairs_per_call": ratio(
                c["match.pairs"], calls("localization.match")),
            "localization.prune.pruned": c["prune.pruned"],
            "perception.extract_regions.regions": c["regions"],
            "perception.save_database.bytes": c["db.bytes"],
            "planner.reobserve.fail_ratio": ratio(c["reobserve.failed"], calls(REOBSERVE)),
            "planner.check_collision.collision_ratio": ratio(
                c["collisions"], calls("planner.check_collision")),
            "planner.find_buffer_pose.fail_ratio": ratio(
                c["buffer.failed"], calls("planner.find_buffer_pose")),
            "trace.coverage": ratio(covered, traced_wall_s),
            "trace.overhead": ratio(traced_wall_s, untraced_wall_s),
        })
        return out


# -- counters recorded at the wrapped boundaries --------------------------
# Each observer receives the counters, a thunk running the original call,
# and the call's arguments; it returns (or raises) what the call did.

def _observe_ransac(c, call, world, *args, **kwargs):
    r, t, mask = out = call()
    c["ransac.inliers"] += int(mask.sum())
    c["ransac.correspondences"] += len(world)
    return out


def _observe_estimate(c, call, *args, **kwargs):
    est = call()
    c["estimate.accepted"] += int(est.accepted)
    return est


def _observe_match(c, call, *args, **kwargs):
    m2d = call()
    c["match.pairs"] += len(m2d)
    return m2d


def _observe_prune(c, call, cands, *args, **kwargs):
    before = int(cands.pruned.sum())
    out = call()
    c["prune.pruned"] += int(cands.pruned.sum()) - before
    return out


def _observe_regions(c, call, *args, **kwargs):
    regions = call()
    c["regions"] += len(regions)
    return regions


def _observe_save(c, call, db, path, *args, **kwargs):
    out = call()
    c["db.bytes"] += os.path.getsize(path)
    return out


def _observe_collision(c, call, *args, **kwargs):
    hit = call()
    c["collisions"] += int(bool(hit))
    return hit


def _observe_raises(counter, error_name):
    def observe(c, call, *args, **kwargs):
        try:
            return call()
        except getattr(sys.modules["mvor.errors"], error_name):
            c[counter] += 1
            raise

    return observe


_observe_reobserve = _observe_raises("reobserve.failed", "ReobservationFailed")

_OBSERVERS = {
    "localization.ransac_pnp": _observe_ransac,
    "localization.estimate_object": _observe_estimate,
    "localization.match": _observe_match,
    "localization.prune": _observe_prune,
    "perception.extract_regions": _observe_regions,
    "perception.save_database": _observe_save,
    "planner.check_collision": _observe_collision,
    "planner.find_buffer_pose": _observe_raises("buffer.failed", "NoBufferSpace"),
}
