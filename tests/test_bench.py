import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvor import geometry as geo
from mvor import bench
from mvor.bench import (
    BenchConfig,
    best_effort_error,
    compute_pose_summary,
    make_reobserver,
    match_instances_to_objects,
    run_completion_bench,
    run_pose_bench,
    write_report,
)
from mvor.cli import load_config, main as cli_main
from mvor.errors import ConfigParseError, ReobservationFailed
from mvor.geometry import PlanarTransform
from mvor.localization import LocalizationConfig, PoseEstimate, estimate_object
from mvor.localization.pipeline import MAX_REPROJ_THRESHOLD_PX, MAX_SIGMA_PX
from mvor.perception import (
    GridPooledDescriptor,
    PerceptionConfig,
    associate,
    build_database,
    extract_regions,
    load_database,
    prepare_goal_regions,
    save_database,
)
from mvor.planner import PlannerConfig
from mvor.sim import (
    Placement,
    SceneState,
    SimConfig,
    apply_move,
    generate_instance,
    generate_model_library,
    render,
    segment,
)
from mvor.serialize import from_dict, load_json, to_dict
from mvor.sim.config import MAX_IMAGE_SIDE, MIN_MODEL_POINTS
from mvor.sim.models import FAMILIES
from mvor.sim.io import FORMAT_VERSION, INSTANCE_FORMAT, instance_from_dict, instance_to_dict

SMALL = dict(scenes=3, base_seed=0)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def pose_report():
    return run_pose_bench(BenchConfig(**SMALL))


@pytest.fixture(scope="module")
def completion_report():
    return run_completion_bench(BenchConfig(**SMALL, regimes=["full"]))


class TestMetrics:
    def test_median_midpoint_rule(self):
        rows = [
            {"regime": "full", "view_mode": "multi", "dtheta_deg": v, "dt_cm": v,
             "accepted": 1, "matcher_invocations": 1}
            for v in (1.0, 3.0)
        ]
        s = compute_pose_summary(rows)
        assert s["groups"]["full/multi"]["median_dtheta_deg"] == 2.0
        rows.append({"regime": "full", "view_mode": "multi", "dtheta_deg": 2.0, "dt_cm": 2.0,
                     "accepted": 1, "matcher_invocations": 1})
        s = compute_pose_summary(rows)
        assert s["groups"]["full/multi"]["median_dtheta_deg"] == 2.0

    def test_median_matches_sort_oracle(self, pose_report):
        for key, g in pose_report.summary["groups"].items():
            regime, mode = key.split("/")
            vals = sorted(
                r["dtheta_deg"] for r in pose_report.rows
                if r["regime"] == regime and r["view_mode"] == mode
            )
            n = len(vals)
            oracle = vals[n // 2] if n % 2 else (vals[n // 2 - 1] + vals[n // 2]) / 2.0
            assert g["median_dtheta_deg"] == oracle

    def test_best_effort_fallback(self):
        truth = PlanarTransform(np.radians(120), 0.3, -0.4)
        dtheta, dt = best_effort_error(None, truth)
        assert dtheta == pytest.approx(120.0)
        assert dt == pytest.approx(50.0)
        est = PoseEstimate(offset=PlanarTransform(np.radians(123), 0.3, -0.4))
        assert best_effort_error(est, truth) == pytest.approx((3.0, 0.0))


def test_import_leaves_out_scipy_ndimage_and_special():
    """Importing the bench and the CLI loads no scipy module, scipy.ndimage
    and scipy.special included: the package depends on numpy alone."""
    code = (
        "import sys, mvor.bench, mvor.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestPoseBench:
    def test_all_scenes_skipped_empty_report(self, tmp_path):
        """Every scene needs 3 models of a 2-model library, so both regimes
        skip both scenes and the report has no rows."""
        sim = SimConfig(library_size=2, object_count_min=3, object_count_max=3)
        rep = run_pose_bench(BenchConfig(scenes=2, sim=sim))
        assert rep.rows == [] and rep.summary["groups"] == {}
        assert rep.skipped_scenes == 4
        write_report(rep, tmp_path / "empty")  # must not crash
        assert (tmp_path / "empty" / "records.tsv").read_text().count("\n") == 1

    def test_paired_seeds_across_groups(self, pose_report):
        seeds = {}
        for r in pose_report.rows:
            seeds.setdefault((r["regime"], r["view_mode"]), set()).add(r["scene_seed"])
        assert len(set(map(frozenset, seeds.values()))) == 1

    def test_rejections_still_counted(self):
        rep = run_pose_bench(
            BenchConfig(scenes=2, regimes=["full"], include_single_view=True)
        )
        singles = [r for r in rep.rows if r["view_mode"] == "single"]
        multis = [r for r in rep.rows if r["view_mode"] == "multi"]
        assert len(singles) == len(multis)  # every object contributes a row

    def test_goal_regions_prepared_once_per_scene(self, monkeypatch):
        """Every capture goes through ``prepare_goal_regions`` once, with
        all its frames: the goal frame, then the ring views and the home
        view of the two databases."""
        calls = []

        def counting(frames, *args, **kwargs):
            calls.append(len(frames))
            return prepare_goal_regions(frames, *args, **kwargs)

        monkeypatch.setattr(bench, "prepare_goal_regions", counting)
        rep = run_pose_bench(BenchConfig(scenes=1, regimes=["minor"], include_single_view=True))
        assert {r["view_mode"] for r in rep.rows} == {"multi", "single"}
        assert calls == [1, SimConfig().ring_count, 1]

    def test_single_view_degrades_on_full_rotation(self, pose_report):
        g = pose_report.summary["groups"]
        assert g["full/single"]["median_dtheta_deg"] > g["full/multi"]["median_dtheta_deg"]

    def test_report_files(self, pose_report, tmp_path):
        out = tmp_path / "rep"
        write_report(pose_report, out)
        lines = (out / "records.tsv").read_text().splitlines()
        assert len(lines) == len(pose_report.rows) + 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["groups"].keys() == pose_report.summary["groups"].keys()
        assert "wall clock" in (out / "report.txt").read_text()
        assert "wall" not in (out / "summary.json").read_text()


class TestCompletionBench:
    def test_noiseless_suite_completes(self, completion_report):
        g = completion_report.summary["groups"]["full"]
        assert g["multi_step_completion"] == 1.0
        assert g["one_step_completion"] <= g["multi_step_completion"]

    def test_one_step_never_exceeds_multi_step(self, completion_report):
        for r in completion_report.rows:
            assert r["scene_one_step"] <= r["scene_completed"]

    def test_drop_rate_degrades_completion(self):
        base = BenchConfig(scenes=4, regimes=["full"])
        degraded = BenchConfig(
            scenes=4,
            regimes=["full"],
            localization=LocalizationConfig(drop_rate=0.995),
        )
        a = run_completion_bench(base).summary["groups"]["full"]
        b = run_completion_bench(degraded).summary["groups"]["full"]
        assert b["multi_step_completion"] <= a["multi_step_completion"]
        assert b["multi_step_completion"] < 1.0


class TestInstanceObjectMatching:
    def test_greedy_assignment_correct(self):
        cfg = SimConfig(object_count_min=6, object_count_max=6)
        library = generate_model_library(cfg)
        pcfg = PerceptionConfig()
        inst = generate_instance(cfg, library, seed=3)
        intr = cfg.intrinsics
        frames = render(inst.initial, inst.config.ring_viewpoints, intr, library)
        db = build_database(frames, library, pcfg)
        mapping = match_instances_to_objects(db, inst.initial)
        assert len(mapping) == 6
        for u, i in mapping.items():
            labels = set(db.source_instance[np.flatnonzero(db.region_instance == u)].tolist())
            assert labels == {i}


class TestNoiseModeCorrection:
    def test_reobserved_correction_reaches_goal(self):
        """After a noisy displacement, the re-observed pose and a noisy move to
        the goal both land within the success thresholds in >=95% of 200
        trials."""
        sigma = 0.005
        cfg = SimConfig(object_count_min=1, object_count_max=1, actuation_sigma=sigma)
        bcfg = BenchConfig(sim=cfg)
        library = generate_model_library(cfg)
        intr = cfg.intrinsics
        ok = 0
        trials = 0
        for scene_seed in range(20):
            inst = generate_instance(cfg, library, seed=scene_seed)
            frames = render(inst.initial, inst.config.ring_viewpoints, intr, library)
            db = build_database(frames, library, bcfg.perception)
            matcher = bcfg.localization.make_matcher(library)
            reobserve = make_reobserver(inst, library, db, matcher, bcfg, {0: 0})
            goal_pose = inst.goal.placements[0].pose
            for noise_seed in range(10):
                trials += 1
                rng = np.random.default_rng(900 + noise_seed)
                # a prior noisy manipulation leaves the dead-reckoned pose stale
                waypoint = PlanarTransform(0.4, 0.05, 0.05)
                scene1 = apply_move(inst.initial, library, 0, waypoint, sigma, rng)
                try:
                    tracked = reobserve(scene1, 0, waypoint)
                except Exception:
                    continue
                # the planner trusts the re-observed pose to tell whether the
                # object is already placed, and targets the goal belief
                seen = geo.planar_distance(tracked, scene1.placements[0].pose)
                scene2 = apply_move(scene1, library, 0, goal_pose, sigma, rng)
                placed = geo.planar_distance(scene2.placements[0].pose, goal_pose)
                if all(dyaw < 5.0 and dt < 2.0 for dyaw, dt in (seen, placed)):
                    ok += 1
        assert trials == 200
        assert ok >= 190


class TestReobserver:
    def test_describes_the_home_regions_in_one_batch(self, monkeypatch):
        cfg = SimConfig(object_count_min=4, object_count_max=4)
        bcfg = BenchConfig(sim=cfg)
        pcfg, lcfg = bcfg.perception, bcfg.localization
        library = generate_model_library(cfg)
        intr = cfg.intrinsics
        inst = generate_instance(cfg, library, seed=7)
        frames = render(inst.initial, inst.config.ring_viewpoints, intr, library)
        db = build_database(frames, library, pcfg)
        object_instance = {i: u for u, i in match_instances_to_objects(db, inst.initial).items()}
        guess = inst.goal.placements[0].pose
        scene = apply_move(inst.initial, library, 0, guess, 0.003, np.random.default_rng(1))

        batch_sizes = []
        extract = GridPooledDescriptor.extract

        def counting(self, regions):
            batch_sizes.append(len(regions))
            return extract(self, regions)

        view_counts = []

        def rendering(scene, viewpoints, *args):
            view_counts.append(len(viewpoints))
            return render(scene, viewpoints, *args)

        monkeypatch.setattr(GridPooledDescriptor, "extract", counting)
        monkeypatch.setattr(bench, "render", rendering)
        reobserve = make_reobserver(
            inst, library, db, lcfg.make_matcher(library), bcfg, object_instance
        )
        tracked = reobserve(scene, 0, guess)
        # one render of the home view, and every home region described in
        # one batch
        assert view_counts == [1]
        (described,) = batch_sizes

        (frame,) = render(scene, [inst.config.home_viewpoint], intr, library)
        (regions,) = prepare_goal_regions([frame], library, pcfg)
        assert len(regions) > 1
        assert described == len(regions)
        region = min(
            regions,
            key=lambda r: np.hypot(r.centroid[0] - guess.tx, r.centroid[1] - guess.ty),
        )
        excluded = frozenset(set(range(db.num_instances)) - {object_instance[0]})
        est = estimate_object(region, db, lcfg.make_matcher(library), intr, lcfg, excluded)
        assert est.accepted
        expected = geo.planar_compose(est.offset, inst.initial.placements[0].pose)
        assert tracked == expected

    def test_home_frame_seeing_nothing_fails_as_a_reobservation(self):
        """A scene the home view misses entirely raises ReobservationFailed,
        which the planner counts as a failure."""
        cfg = SimConfig(actuation_sigma=0.003)
        bcfg = BenchConfig(sim=cfg)
        library = generate_model_library(cfg)
        inst = generate_instance(cfg, library, seed=1)
        frames = render(inst.initial, inst.config.ring_viewpoints, cfg.intrinsics, library)
        db = build_database(frames, library, bcfg.perception)
        object_instance = {i: u for u, i in match_instances_to_objects(db, inst.initial).items()}
        reobserve = make_reobserver(
            inst, library, db, bcfg.localization.make_matcher(library), bcfg, object_instance
        )
        away = SceneState(
            inst.initial.table_bounds,
            tuple(
                Placement(p.model_id, PlanarTransform(p.pose.yaw, p.pose.tx + 50.0, p.pose.ty))
                for p in inst.initial.placements
            ),
        )
        with pytest.raises(ReobservationFailed, match="home frame sees nothing"):
            reobserve(away, 0, away.placements[0].pose)


@pytest.fixture(scope="module")
def default_library():
    return generate_model_library(SimConfig())


def record_renders(monkeypatch) -> list:
    """Record the (scene, viewpoints) of every ``bench.render`` call."""
    calls = []

    def recording(scene, viewpoints, *args):
        calls.append((scene, list(viewpoints)))
        return render(scene, viewpoints, *args)

    monkeypatch.setattr(bench, "render", recording)
    return calls


def assert_captures(renders: list, expected: list) -> None:
    """Each recorded render is of the expected scene from the expected
    viewpoints: the very objects the instance holds."""
    assert len(renders) == len(expected)
    for (scene, views), (want_scene, want_views) in zip(renders, expected):
        assert scene is want_scene
        assert len(views) == len(want_views)
        assert all(a is b for a, b in zip(views, want_views))


class TestCapture:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 50),
        objects=st.integers(1, 6),
        which=st.sampled_from(["initial", "goal"]),
        cameras=st.sampled_from(["ring", "home", "random"]),
        eye=st.tuples(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8), st.floats(0.01, 1.2)),
        target=st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4), st.floats(-0.2, 0.3)),
        camera=st.one_of(
            st.just({}),
            st.builds(
                lambda w, h, f: {"image_width": w, "image_height": h, "focal_px": f},
                st.integers(8, 640), st.integers(8, 480), st.floats(40.0, 1200.0),
            ),
        ),
    )
    def test_matches_the_render_segment_extract_describe_chain(
        self, default_library, seed, objects, which, cameras, eye, target, camera
    ):
        """A capture equals the chain it replaced, bit for bit: render,
        ``segment`` and ``extract_regions`` per frame, then every region of
        every frame described in one ``GridPooledDescriptor`` batch. A view
        that sees nothing gives no regions on both."""
        library = default_library
        eye, target = np.array(eye), np.array(target)
        assume(np.linalg.norm(eye - target) > 1e-3)
        sim = SimConfig(object_count_min=objects, object_count_max=objects, **camera)
        cfg = BenchConfig(sim=sim)
        inst = generate_instance(sim, library, seed=seed)
        scene = getattr(inst, which)
        views = {
            "ring": inst.config.ring_viewpoints,
            "home": [inst.config.home_viewpoint],
            "random": [geo.look_at(eye, target)],
        }[cameras]
        frames = render(scene, views, sim.intrinsics, library)
        expected = [extract_regions(f, segment(f), cfg.perception) for f in frames]
        flat = [r for frame_regions in expected for r in frame_regions]
        for r, descriptor in zip(flat, GridPooledDescriptor(library).extract(flat)):
            r.descriptor = descriptor
        captured = bench.capture(scene, views, inst, library, cfg)
        assert [len(regions) for regions in captured] == [len(regions) for regions in expected]
        for got, want in zip((r for regions in captured for r in regions), flat):
            for name in ("feature_ids", "px", "world", "view_local", "descriptor"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            assert got.viewpoint is want.viewpoint
            assert got.source_instance == want.source_instance

    def test_ring_capture_is_one_descriptor_batch(self, default_library, monkeypatch):
        """A ring capture describes every region of every view in one
        ``GridPooledDescriptor.extract`` call, in view order."""
        library = default_library
        inst = generate_instance(SimConfig(), library, seed=3)
        batches = []
        extract = GridPooledDescriptor.extract

        def recording(self, regions):
            batches.append(list(regions))
            return extract(self, regions)

        monkeypatch.setattr(GridPooledDescriptor, "extract", recording)
        views = inst.config.ring_viewpoints
        captured = bench.capture(inst.initial, views, inst, library, BenchConfig())
        assert len(captured) == len(views)
        (batch,) = batches
        flat = [r for regions in captured for r in regions]
        assert len(flat) > len(views)
        assert len(batch) == len(flat) and all(a is b for a, b in zip(batch, flat))

    def test_complete_scene_cameras(self, default_library, monkeypatch):
        """On criterion 5's swap with 3 mm actuation, ``complete_scene``
        captures the initial scene from the ring, the goal scene from the
        home view, and each scene it re-observes from the home view alone."""
        library = default_library
        inst = instance_from_dict(swap_instance_doc())
        reobserved = []
        make = bench.make_reobserver

        def tracking(*args):
            reobserve = make(*args)

            def tracked(scene, i, guess):
                reobserved.append(scene)
                return reobserve(scene, i, guess)

            return tracked

        monkeypatch.setattr(bench, "make_reobserver", tracking)
        renders = record_renders(monkeypatch)
        cfg = BenchConfig(sim=inst.config)
        bench.complete_scene(inst, library, cfg, bench.scene_goal_regions(inst, library, cfg))
        assert reobserved
        home = [inst.config.home_viewpoint]
        assert_captures(renders, [
            (inst.goal, home),
            (inst.initial, inst.config.ring_viewpoints),
            *((scene, home) for scene in reobserved),
        ])

    def test_one_goal_capture_serves_both_databases(self, default_library, monkeypatch):
        """A pose-bench scene with the single-view ablation captures the
        goal once, then the initial scene from the ring and from the home
        view."""
        library = default_library
        cfg = BenchConfig(scenes=1, regimes=["minor"], include_single_view=True)
        inst = generate_instance(replace(cfg.sim, rotation_regime="minor"), library, seed=0)
        renders = record_renders(monkeypatch)
        rows = bench._pose_rows(inst, library, cfg, bench.scene_goal_regions(inst, library, cfg))
        assert {r["view_mode"] for r in rows} == {"multi", "single"}
        home = [inst.config.home_viewpoint]
        assert_captures(renders, [
            (inst.goal, home), (inst.initial, inst.config.ring_viewpoints), (inst.initial, home),
        ])


def turned_in_place(scene, yaw):
    """``scene`` with every object turned by ``yaw`` about its own centre;
    footprints are discs, so it stays valid."""
    return SceneState(scene.table_bounds, tuple(
        replace(p, pose=replace(p.pose, yaw=p.pose.yaw + yaw)) for p in scene.placements
    ))


DRIVERS = {"pose": run_pose_bench, "completion": run_completion_bench}


@pytest.fixture(scope="module", params=list(DRIVERS))
def watched_run(request):
    """A driver's run over 3 seeds and both regimes, with every instance
    ``bench.generate_instance`` returns and every scene ``bench.capture``
    renders recorded in call order."""
    generated, captured = [], []
    generate, capture = bench.generate_instance, bench.capture

    def generating(*args, **kwargs):
        generated.append(generate(*args, **kwargs))
        return generated[-1]

    def capturing(scene, *args):
        captured.append(scene)
        return capture(scene, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "generate_instance", generating)
        mp.setattr(bench, "capture", capturing)
        report = DRIVERS[request.param](BenchConfig(**SMALL))
    return request.param, report, generated, captured


class TestSceneLoop:
    """``_run_scenes`` loops over seeds and, within a seed, over its regimes.
    The regimes of a seed share its goal scene (the regime draws only the
    initial yaws), which is captured once for all of them."""

    def test_rows_join_the_one_scene_runs_in_regime_order(self, watched_run):
        driver, report, _, _ = watched_run
        cfg = BenchConfig(**SMALL)
        joined = [
            row
            for regime in cfg.regimes
            for seed in range(cfg.base_seed, cfg.base_seed + cfg.scenes)
            for row in DRIVERS[driver](
                BenchConfig(scenes=1, base_seed=seed, regimes=[regime])
            ).rows
        ]
        assert report.rows and report.rows == joined

    def test_generates_once_per_regime_and_seed(self, watched_run):
        _, _, generated, _ = watched_run
        assert [(inst.seed, inst.config.rotation_regime) for inst in generated] == [
            (seed, regime) for seed in range(3) for regime in ("minor", "full")
        ]

    def test_captures_each_seeds_goal_once(self, watched_run):
        _, _, generated, captured = watched_run
        minor, full = generated[0::2], generated[1::2]
        assert all(a.goal == b.goal and a.goal is not b.goal for a, b in zip(minor, full))
        goals = [scene for scene in captured if any(scene is inst.goal for inst in generated)]
        assert len(goals) == 3
        assert all(got is inst.goal for got, inst in zip(goals, minor))

    def test_a_goal_that_differs_is_captured_again(self, default_library, monkeypatch):
        """A ``full`` goal turned in place is not the ``minor`` goal, so the
        driver captures both, and the ``full`` rows are those of the turned
        goal's own regions."""
        library = default_library
        generated, captured = [], []
        generate, capture = bench.generate_instance, bench.capture

        def generating(sim, *args, **kwargs):
            inst = generate(sim, *args, **kwargs)
            if sim.rotation_regime == "full":
                inst = replace(inst, goal=turned_in_place(inst.goal, 0.3))
            generated.append(inst)
            return inst

        def capturing(scene, *args):
            captured.append(scene)
            return capture(scene, *args)

        monkeypatch.setattr(bench, "generate_instance", generating)
        monkeypatch.setattr(bench, "capture", capturing)
        cfg = BenchConfig(scenes=1)
        report = run_pose_bench(cfg)
        minor, full = generated
        goals = [scene for scene in captured if scene is minor.goal or scene is full.goal]
        assert len(goals) == 2 and goals[0] is minor.goal and goals[1] is full.goal
        monkeypatch.undo()
        want = bench._pose_rows(full, library, cfg, bench.scene_goal_regions(full, library, cfg))
        assert [r for r in report.rows if r["regime"] == "full"] == want


# two objects on a 6 m table: most scenes place them where some or all of
# the default cameras see nothing
WIDE_TABLE = {"table_width": 6.0, "table_depth": 6.0, "object_count_min": 2, "object_count_max": 2}


class TestEmptyViews:
    """A view that sees nothing renders a frame with no hits, which adds no
    region: it once raised EmptyFrame and voided the views that did see an
    object, so ``mvor rearrange`` exited 2 on 8 of seeds 0-9 of the 6 m
    table."""

    def test_ring_capture_builds_its_database_from_the_views_that_see(self, default_library):
        library, sim = default_library, SimConfig(**WIDE_TABLE)
        cfg = BenchConfig(sim=sim)
        inst = generate_instance(sim, library, seed=8)
        frames = render(inst.initial, sim.ring_viewpoints, sim.intrinsics, library)
        assert all(f.viewpoint is vp for f, vp in zip(frames, sim.ring_viewpoints))
        empty = [k for k, f in enumerate(frames) if len(f.feature_ids) == 0]
        assert 0 < len(empty) < len(frames)
        captured = bench.capture(inst.initial, sim.ring_viewpoints, inst, library, cfg)
        assert all(captured[k] == [] for k in empty)
        db = bench.build_scene_database(inst, "multi", library, cfg)
        sizes = [len(regions) for regions in captured]
        assert db.region_frame.tolist() == np.repeat(np.arange(len(frames)), sizes).tolist()
        assert not set(db.region_frame.tolist()) & set(empty)
        # the views that see build the same database, but for the frame
        # positions
        seen = associate([regions for regions in captured if regions])
        assert db.region_instance.tolist() == seen.region_instance.tolist()
        assert db.descriptors.tobytes() == seen.descriptors.tobytes()
        assert db.crop_world.tobytes() == seen.crop_world.tobytes()

    def test_rearrange_sees_with_the_views_it_has(self, tmp_path, capsys):
        """Seed 1 has its objects seen by two ring views only; seed 0 by
        none of them, which exits 2 with one line."""
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"sim": WIDE_TABLE}))
        argv = ["rearrange", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert cli_main([*argv, "--seed", "1"]) == 0
        capsys.readouterr()
        assert cli_main([*argv, "--seed", "0"]) == 2
        assert capsys.readouterr().err == "error: no regions in any frame\n"


class TestCliDeterminism:
    def _run(self, tmp_path, name):
        out = tmp_path / name
        rc = cli_main(
            ["bench-pose", "--seed", "3", "--out", str(out), "--config", str(tmp_path / "cfg.json")]
        )
        assert rc == 0
        return (out / "records.tsv").read_bytes(), (out / "summary.json").read_bytes()

    def test_bench_pose_byte_identical(self, tmp_path):
        (tmp_path / "cfg.json").write_text(
            json.dumps({"scenes": 2, "regimes": ["full"], "include_single_view": False})
        )
        a = self._run(tmp_path, "a")
        b = self._run(tmp_path, "b")
        assert a == b

    def test_cli_error_paths(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["bench-pose", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        missing = cli_main(
            ["localize", "--db", str(tmp_path / "none.npz"), "--instance", str(tmp_path / "none.json")]
        )
        assert missing == 2
        for stale in (
            {"setting": "both"},
            {"planner": {"actuation_sigma": 0.003}},
            {"localization": {"planar_filter": False}},
            {"localization": {"planar_max_tilt_deg": 10.0, "planar_max_dz": 0.02}},
            {"localization": {"instance_fallback": True}},
            {"perception": {"cloud_cap": 700}},
            {"sim": {"seed": 0}},
            {"localization": {"matcher_seed": 0}},
        ):
            cfg = tmp_path / "stale.json"
            cfg.write_text(json.dumps(stale))
            assert cli_main(["bench-pose", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        for out_of_range in (
            {"actuation_sigma": -1},
            {"library_size": 0},
            {"min_clearance": -5},
            {"point_descriptor_dim": 0},
            {"point_descriptor_dim": 1},
            {"model_points": 0},
            {"placement_margin": -0.3},
            {"placement_attempts": 0},
            {"table_width": 0},
            {"table_depth": -1},
            {"ring_radius": 0},
            {"home_radius": -0.5},
            {"ring_elevation_deg": 90},
            {"ring_elevation_deg": 0},
            {"home_elevation_deg": -50},
            {"home_elevation_deg": 120},
        ):
            cfg = tmp_path / "range.json"
            cfg.write_text(json.dumps({"sim": out_of_range}))
            args = ["rearrange", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "r")]
            assert cli_main(args) == 2


def swap_instance_doc() -> dict:
    """Criterion 5's two-object swap as an instance file: models 0 and 1
    trade places along the x axis, with 3 mm actuation."""

    def placed(xs):
        return [{"model_id": m, "yaw": 0.0, "tx": x, "ty": 0.0} for m, x in enumerate(xs)]

    return {
        "format": INSTANCE_FORMAT,
        "version": FORMAT_VERSION,
        "seed": 0,
        "initial": placed((-0.15, 0.15)),
        "goal": placed((0.15, -0.15)),
        "config": to_dict(SimConfig(actuation_sigma=0.003)),
    }


class TestCliRearrange:
    def test_noisy_rearrange(self, tmp_path, monkeypatch):
        """Noisy actuation re-observes the buffer-moved object alone, once,
        completes, and gives the same bytes whether the instance is the
        hand-written swap or the run's own instance file, whose sim config
        carries the noise."""
        calls = []
        make = bench.make_reobserver

        def counting(*args):
            reobserve = make(*args)

            def counted(scene, i, guess):
                calls.append(i)
                return reobserve(scene, i, guess)

            return counted

        monkeypatch.setattr(bench, "make_reobserver", counting)
        swap = tmp_path / "swap.json"
        swap.write_text(json.dumps(swap_instance_doc()))
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["rearrange", "--instance", str(swap), "--out", str(a)]) == 0
        moves = json.loads((a / "moves.json").read_text())
        assert [m["step"] for m in moves] == list(range(1, len(moves) + 1))
        assert all(m["executed"] == (not m["collision"]) for m in moves)
        assert {m["executed"] for m in moves} == {True, False}
        (buffered,) = {m["object"] for m in moves if m["kind"] == "buffer-move" and m["executed"]}
        assert calls == [buffered]
        assert cli_main(["rearrange", "--instance", str(a / "instance.json"), "--out", str(b)]) == 0
        assert calls == [buffered, buffered]
        for name in ("moves.json", "result.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert json.loads((a / "result.json").read_text())["completed"]

    @pytest.mark.parametrize("seed", [2, 5])
    def test_matches_completion_bench(self, seed, tmp_path):
        """``rearrange`` and ``bench-completion`` run one full-scene pipeline
        with the scene's own matcher noise and judge completion alike: the
        same final errors, moves and completed flag, bit for bit, with a
        clean and with a noisy matcher."""
        for name, localization in (
            ("clean", {}),
            ("noisy", {"sigma_px": 1.0, "outlier_rate": 0.2}),
        ):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({
                "scenes": 1, "regimes": ["full"], "sim": {"actuation_sigma": 0.003},
                "localization": localization,
            }))
            run, rec = tmp_path / f"{name}_rearrange", tmp_path / f"{name}_bench"
            for command, out in (("rearrange", run), ("bench-completion", rec)):
                argv = [command, "--config", str(cfg), "--seed", str(seed), "--out", str(out)]
                assert cli_main(argv) == 0
            result = json.loads((run / "result.json").read_text())
            header, *lines = (rec / "records.tsv").read_text().splitlines()
            records = [dict(zip(header.split("\t"), line.split("\t"))) for line in lines]
            assert len(records) == len(result["objects"]) > 0
            for o, r in zip(result["objects"], records):
                assert int(r["object"]) == o["object"]
                assert float(r["final_dtheta_deg"]) == o["final_dtheta_deg"]
                assert float(r["final_dt_cm"]) == o["final_dt_cm"]
                assert int(r["goal_moves"]) == o["goal_moves"]
                assert int(r["buffer_moves"]) == o["buffer_moves"]
                assert int(r["scene_completed"]) == result["completed"]

    def test_poor_landing_is_incomplete(self, tmp_path, capsys):
        """Completed means every object ends within the success thresholds,
        not that the planner attempted every goal move: 5 cm actuation noise
        leaves the objects centimetres off their goals."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sim": {"actuation_sigma": 0.05}}))
        out = tmp_path / "r"
        assert cli_main(["rearrange", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
        assert "rearrangement INCOMPLETE" in capsys.readouterr().out
        result = json.loads((out / "result.json").read_text())
        assert result["completed"] is False
        success = PlannerConfig()
        assert not all(
            success.within_success(o["final_dtheta_deg"], o["final_dt_cm"])
            for o in result["objects"]
        )

    def test_overflowing_matcher_noise(self, tmp_path):
        """A sigma_px of 1e308 once overflowed the goal pixels to inf, and
        rearrange printed numpy's RuntimeWarnings; such noise is now refused
        (test_config_value), and the largest allowed noise runs clean."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"localization": {"sigma_px": MAX_SIGMA_PX}}))
        assert cli_main(["rearrange", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0


class TestCliLocalize:
    @pytest.mark.parametrize("seed", [2, 5])
    def test_matches_pose_bench(self, seed, tmp_path):
        """``gen`` + ``build-db --view ring|home`` + ``localize`` give every
        matched object the pose bench's row of its scene and view mode, bit
        for bit, under a noisy matcher: both draw the scene's matcher noise
        (``bench.scene_matcher``)."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenes": 1, "regimes": ["minor"], "sim": {"rotation_regime": "minor"},
            "localization": {"sigma_px": 1.0, "outlier_rate": 0.2},
        }))
        common = ["--config", str(cfg), "--seed", str(seed)]
        assert cli_main(["bench-pose", *common, "--out", str(tmp_path / "bench")]) == 0
        assert cli_main(["gen", *common, "--count", "1", "--out", str(tmp_path / "ds")]) == 0
        inst = str(tmp_path / "ds" / f"instance_{seed:08d}.json")
        header, *lines = (tmp_path / "bench" / "records.tsv").read_text().splitlines()
        records = [dict(zip(header.split("\t"), line.split("\t"))) for line in lines]
        compared = 0
        for view, mode in (("ring", "multi"), ("home", "single")):
            db, poses = tmp_path / f"{view}.npz", tmp_path / f"{view}.json"
            argv = ["build-db", *common, "--instance", inst, "--view", view, "--out", str(db)]
            assert cli_main(argv) == 0
            argv = ["localize", *common, "--db", str(db), "--instance", inst, "--out", str(poses)]
            assert cli_main(argv) == 0
            rows = {int(r["object"]): r for r in records if r["view_mode"] == mode}
            for o in json.loads(poses.read_text())["objects"]:
                if "matched_object" not in o:
                    continue
                r = rows[o["matched_object"]]
                assert int(r["accepted"]) == o["accepted"]
                for key in ("dtheta_deg", "dt_cm", *bench.estimate_counters(None)):
                    assert float(r[key]) == o[key], key
                compared += 1
        assert compared >= 2

    def test_rejects_database_of_another_instance(self, tmp_path, capsys):
        """A database built from the seed-3 instance was once localized
        against the seed-4 instance without an error."""
        ds, db = tmp_path / "ds", tmp_path / "db.npz"
        assert cli_main(["gen", "--seed", "3", "--count", "2", "--out", str(ds)]) == 0
        argv = ["build-db", "--instance", str(ds / "instance_00000003.json"), "--out", str(db)]
        assert cli_main(argv) == 0
        argv = ["localize", "--db", str(db), "--instance", str(ds / "instance_00000004.json"),
                "--out", str(tmp_path / "poses.json")]
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert "instance_seed" in capsys.readouterr().err

    def test_rejects_database_of_another_scene_of_its_seed(self, tmp_path, capsys):
        """Two datasets' seed-0 instances, of 1 and 3 objects, share every
        key the header once held: localizing one against the other's
        database exited 0, "estimated 3 objects (0 accepted)", pairing an
        instance with an object 117 deg and 43 cm away."""
        three = tmp_path / "b.json"
        three.write_text(json.dumps({"sim": {"object_count_min": 3, "object_count_max": 3}}))
        a, b, db = tmp_path / "A", tmp_path / "B", tmp_path / "dbA.npz"
        assert cli_main(["gen", "--count", "1", "--out", str(a)]) == 0
        assert cli_main(["gen", "--count", "1", "--out", str(b), "--config", str(three)]) == 0
        argv = ["build-db", "--instance", str(a / "instance_00000000.json"), "--out", str(db)]
        assert cli_main(argv) == 0
        argv = ["localize", "--db", str(db), "--instance", str(b / "instance_00000000.json"),
                "--config", str(three), "--out", str(tmp_path / "poses.json")]
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: database built against instance_sha256 ")
        assert err.count("\n") == 1
        assert not (tmp_path / "poses.json").exists()

    def test_header_holds_the_instance_file_digest(self, tmp_path):
        """``build-db`` records the SHA-256 of the instance file as
        ``save_instance`` writes it, whether it read the file or generated
        the instance from config and seed."""
        ds = tmp_path / "ds"
        assert cli_main(["gen", "--seed", "3", "--count", "1", "--out", str(ds)]) == 0
        path = ds / "instance_00000003.json"
        want = hashlib.sha256(path.read_bytes()).hexdigest()
        for source in (["--instance", str(path)], ["--seed", "3"]):
            db = tmp_path / "db.npz"
            assert cli_main(["build-db", *source, "--out", str(db)]) == 0
            assert load_database(db)[1]["instance_sha256"] == want

    @pytest.mark.parametrize("view", ["side", None, ["ring"]])
    def test_rejects_unknown_view(self, view, tmp_path, capsys):
        ds, db = tmp_path / "ds", tmp_path / "db.npz"
        assert cli_main(["gen", "--seed", "3", "--count", "1", "--out", str(ds)]) == 0
        inst = str(ds / "instance_00000003.json")
        assert cli_main(["build-db", "--instance", inst, "--out", str(db)]) == 0
        database, header = load_database(db)
        save_database(database, db, extra_meta=dict(header, view=view))
        argv = ["localize", "--db", str(db), "--instance", inst,
                "--out", str(tmp_path / "poses.json")]
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert "view" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["instance_centroids", "crop_world"])
    def test_rejects_non_finite_database(self, column, tmp_path, capsys):
        """A database whose instance centroids, or whose hits' world
        points, were NaN was once localized to exit 0, pairing instances
        through NaN distances."""
        ds, db = tmp_path / "ds", tmp_path / "db.npz"
        assert cli_main(["gen", "--seed", "3", "--count", "1", "--out", str(ds)]) == 0
        inst = str(ds / "instance_00000003.json")
        assert cli_main(["build-db", "--instance", inst, "--out", str(db)]) == 0
        with np.load(db) as npz:
            members = {name: npz[name] for name in npz.files}
        members[column] = np.full_like(members[column], np.nan)
        np.savez(db, **members)
        argv = ["localize", "--db", str(db), "--instance", inst,
                "--out", str(tmp_path / "poses.json")]
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and column in err


class TestCliDatasetLibrary:
    """``gen`` saves the model library into the dataset; ``build-db``,
    ``localize`` and ``rearrange`` memory-map it for an instance inside the
    dataset and give the bytes they give for a copy of the instance outside
    it, where the library is generated."""

    CONFIG = {
        "sim": {"actuation_sigma": 0.003, "object_count_min": 3, "object_count_max": 3},
        "localization": {"sigma_px": 1.0},
    }

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """A one-instance dataset, a copy of its instance outside it, the
        copy's ring database and the config of all three."""
        tmp = tmp_path_factory.mktemp("dataset_library")
        (tmp / "cfg.json").write_text(json.dumps(self.CONFIG))
        argv = ["gen", "--config", str(tmp / "cfg.json"), "--count", "1",
                "--out", str(tmp / "dataset")]
        assert cli_main(argv) == 0
        (tmp / "outside").mkdir()
        shutil.copy(tmp / "dataset" / "instance_00000000.json", tmp / "outside")
        assert cli_main(["build-db", "--instance", str(tmp / "outside" / "instance_00000000.json"),
                         "--out", str(tmp / "outside" / "db.npz")]) == 0
        return tmp

    @staticmethod
    def _forbid_generating(monkeypatch):
        def no_library(config):
            raise AssertionError("model library generated")

        monkeypatch.setattr(bench, "generate_model_library", no_library)
        monkeypatch.setattr("mvor.cli.generate_model_library", no_library)
        monkeypatch.setattr("mvor.sim.io.generate_model_library", no_library)

    def _outputs(self, files, instance, out):
        """The bytes of every file ``build-db``, ``localize`` and
        ``rearrange`` of ``instance`` write into the new directory ``out``."""
        cfg, db = str(files / "cfg.json"), str(out / "db.npz")
        out.mkdir()
        for argv in (
            ["build-db", "--instance", str(instance), "--out", db],
            ["localize", "--db", db, "--instance", str(instance), "--out", str(out / "poses.json")],
            ["rearrange", "--instance", str(instance), "--out", str(out / "rearrange")],
        ):
            assert cli_main([*argv, "--config", cfg]) == 0
        return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    def test_dataset_library_gives_the_generated_bytes(self, files, tmp_path, monkeypatch):
        outside = self._outputs(files, files / "outside" / "instance_00000000.json",
                                tmp_path / "outside")
        self._forbid_generating(monkeypatch)
        inside = self._outputs(files, files / "dataset" / "instance_00000000.json",
                               tmp_path / "inside")
        assert sorted(inside) == ["db.npz", "poses.json", "rearrange/instance.json",
                                  "rearrange/moves.json", "rearrange/result.json"]
        assert inside == outside

    def test_gen_writes_the_library(self, tmp_path):
        library = tmp_path / "dataset" / "library"
        gen = ["gen", "--count", "1", "--out", str(tmp_path / "dataset")]
        assert cli_main(gen) == 0
        saved = {p.name: p.read_bytes() for p in library.iterdir()}
        assert sorted(saved) == ["footprint_radius.npy", "header.json", "normals.npy",
                                 "point_descriptors.npy", "points.npy"]
        assert cli_main([*gen, "--seed", "4"]) == 0
        assert {p.name: p.read_bytes() for p in library.iterdir()} == saved
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"sim": {"library_seed": 8}}))
        assert cli_main([*gen, "--config", str(other)]) == 0
        assert json.loads((library / "header.json").read_text())["library_seed"] == 8
        expected = generate_model_library(SimConfig(library_seed=8)).point_descriptors
        assert np.array_equal(np.load(library / "point_descriptors.npy"), expected)
        assert sorted(os.listdir(tmp_path / "dataset")) == [
            "instance_00000000.json", "instance_00000004.json", "library", "manifest.json"
        ]

    def test_failed_gen_keeps_the_library(self, tmp_path, capsys, monkeypatch):
        """A gen whose scenes cannot be placed (3 objects from 2 models)
        into an existing dataset once removed the library it had written,
        and the one it replaced with it. It exits 2 and leaves the dataset
        as it was, so build-db of its instance still maps the library."""
        ds = tmp_path / "ds"
        assert cli_main(["gen", "--count", "1", "--out", str(ds)]) == 0
        before = {str(p): p.read_bytes() for p in ds.rglob("*") if p.is_file()}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"sim": {"library_size": 2, "object_count_min": 3, "object_count_max": 3}}
        ))
        capsys.readouterr()
        assert cli_main(["gen", "--config", str(cfg), "--out", str(ds)]) == 2
        assert "scene needs 3 distinct models" in capsys.readouterr().err
        assert {str(p): p.read_bytes() for p in ds.rglob("*") if p.is_file()} == before
        assert sorted(os.listdir(ds)) == ["instance_00000000.json", "library", "manifest.json"]
        self._forbid_generating(monkeypatch)
        argv = ["build-db", "--instance", str(ds / "instance_00000000.json"),
                "--out", str(tmp_path / "db.npz")]
        assert cli_main(argv) == 0

    @staticmethod
    def _damage(library, how):
        """Damage the saved library as ``how`` says; the name the error
        must carry."""
        if how == "other_version":
            header = json.loads((library / "header.json").read_text())
            header["version"] += 1
            (library / "header.json").write_text(json.dumps(header))
            return "version"
        if how == "other_seed":
            header = json.loads((library / "header.json").read_text())
            header["library_seed"] += 1
            (library / "header.json").write_text(json.dumps(header))
            return "library_seed"
        if how == "header_not_json":
            (library / "header.json").write_text("{not json")
            return "header.json"
        if how == "truncated":
            data = (library / "point_descriptors.npy").read_bytes()
            (library / "point_descriptors.npy").write_bytes(data[: len(data) // 2])
            return "point_descriptors.npy"
        if how == "shape":
            points = np.load(library / "points.npy")
            np.save(library / "points.npy", points[:, :2])
            return "points.npy"
        if how == "dtype":
            radius = np.load(library / "footprint_radius.npy")
            np.save(library / "footprint_radius.npy", radius.astype(np.float32))
            return "footprint_radius.npy"
        # a library as version 2 saved it: the two derived columns beside
        # the four, and version 2 in the header
        size = len(np.load(library / "footprint_radius.npy"))
        rows = len(np.load(library / "points.npy"))
        np.save(library / "family.npy", np.array([FAMILIES[m % 3] for m in range(size)]))
        np.save(library / "point_offsets.npy", np.arange(size + 1) * (rows // size))
        header = json.loads((library / "header.json").read_text())
        header["version"] = 2
        (library / "header.json").write_text(json.dumps(header))
        return "library saved with version 2, expected 3"

    @pytest.mark.parametrize(
        "how", ["other_version", "other_seed", "header_not_json", "truncated", "shape", "dtype",
                "version_2"]
    )
    @pytest.mark.parametrize("command", ["build-db", "localize", "rearrange"])
    def test_damaged_library_exits_2(self, files, how, command, tmp_path, capsys):
        dataset = tmp_path / "dataset"
        shutil.copytree(files / "dataset", dataset)
        named = self._damage(dataset / "library", how)
        instance = str(dataset / "instance_00000000.json")
        argv = [command, "--instance", instance, "--out", str(tmp_path / "out")]
        if command == "localize":
            argv += ["--db", str(files / "outside" / "db.npz")]
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert str(dataset / "library") in err


class TestCliGenWrites:
    """``gen`` streams the library to disk, and one that fails writes
    nothing."""

    def test_memory_does_not_hold_the_descriptor_column(self, tmp_path):
        """The default library's float32 descriptor column is 19.7 MB; a gen
        that built it in memory peaked above that."""
        sim = SimConfig()
        column = sim.library_size * sim.model_points * sim.point_descriptor_dim * 4
        tracemalloc.start()
        try:
            assert cli_main(["gen", "--count", "1", "--out", str(tmp_path / "ds")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < column

    def _fails(self, config, tmp_path, capsys):
        """stderr of a gen of ``config`` into a new directory, which must
        exit 2 and leave no directory behind."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli_main(["gen", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        return capsys.readouterr().err

    def test_too_few_models(self, tmp_path, capsys):
        config = {"sim": {"library_size": 2, "object_count_min": 3, "object_count_max": 3}}
        assert "scene needs 3 distinct models" in self._fails(config, tmp_path, capsys)

    def test_library_past_the_free_space(self, tmp_path, capsys):
        """The descriptor column of 2**60 models is refused before its
        first row is drawn."""
        err = self._fails({"sim": {"library_size": 2**60}}, tmp_path, capsys)
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"sim.library_size {2**60}" in err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_refusal_names_the_dataset_library(self, tmp_path, capsys):
        """A refused library in an existing dataset is reported under the
        dataset's library/, not the stage it was to be written into, and
        the library/ already there keeps its bytes."""
        small = {"library_size": 3, "model_points": 50, "point_descriptor_dim": 8,
                 "object_count_max": 3}
        ds, path = tmp_path / "ds", tmp_path / "cfg.json"
        path.write_text(json.dumps({"sim": small}))
        assert cli_main(["gen", "--config", str(path), "--count", "1", "--out", str(ds)]) == 0
        before = {p.name: p.read_bytes() for p in (ds / "library").iterdir()}
        path.write_text(json.dumps({"sim": {**small, "library_size": 2**60}}))
        capsys.readouterr()
        assert cli_main(["gen", "--config", str(path), "--count", "1", "--out", str(ds)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {ds / 'library'}: " in err and ".library-" not in err
        assert {p.name: p.read_bytes() for p in (ds / "library").iterdir()} == before


class TestCliInstanceFiles:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("instances")
        cfg = SimConfig(object_count_min=1, object_count_max=1)
        inst = generate_instance(cfg, generate_model_library(cfg), seed=0)
        no_config = instance_to_dict(inst)
        del no_config["config"]
        (tmp / "list.json").write_text("[]")
        (tmp / "no_config.json").write_text(json.dumps(no_config))
        (tmp / "instance.json").write_text(json.dumps(instance_to_dict(inst)))
        (tmp / "cfg.json").write_text(json.dumps({"sim": {"object_count_max": 1}}))
        db = tmp / "db.npz"
        assert cli_main(["build-db", "--config", str(tmp / "cfg.json"), "--out", str(db)]) == 0
        return tmp

    @pytest.mark.parametrize("doc", ["list.json", "no_config.json"])
    @pytest.mark.parametrize("command", ["build-db", "localize", "rearrange"])
    def test_malformed_instance_exits_2(self, files, doc, command, capsys):
        argv = [command, "--instance", str(files / doc), "--out", str(files / "out")]
        if command == "localize":
            argv += ["--db", str(files / "db.npz")]
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("command", ["build-db", "rearrange"])
    def test_old_version_instance_exits_2(self, files, version, command, tmp_path, capsys):
        """A version-1 file echoes the deleted ``sim.seed`` and a version-2
        file stores the viewpoints, table and true offsets its config and
        placements give; each is refused by its version, not by a member."""
        doc = json.loads((files / "instance.json").read_text())
        doc["version"] = version
        if version == 1:
            doc["config"]["seed"] = 0
        path = tmp_path / f"v{version}.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main([command, "--instance", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"unsupported instance version {version}" in capsys.readouterr().err

    @staticmethod
    def _given(files, command, seed, sim, tmp_path):
        """``command`` on the fixture's instance, with ``--seed`` and a
        ``--config`` holding the ``sim`` section when they are not None."""
        argv = [command, "--instance", str(files / "instance.json"),
                "--out", str(tmp_path / "out")]
        if command == "localize":
            argv += ["--db", str(files / "db.npz")]
        if seed is not None:
            argv += ["--seed", str(seed)]
        if sim is not None:
            (tmp_path / "given.json").write_text(json.dumps({"sim": sim}))
            argv += ["--config", str(tmp_path / "given.json")]
        return argv

    @pytest.mark.parametrize(
        "seed, sim, named",
        [
            (1, None, "--seed 1"),
            (None, {"actuation_sigma": 0.003}, "sim.actuation_sigma"),
            # the default, given explicitly, differs from the instance's 1
            (0, {"object_count_min": 1, "object_count_max": 9}, "sim.object_count_max"),
        ],
    )
    @pytest.mark.parametrize("command", ["build-db", "localize", "rearrange"])
    def test_value_the_instance_overrides_exits_2(self, files, command, seed, sim, named,
                                                   tmp_path, capsys):
        """An instance fixes the scene's seed and sim config; a --seed or a
        --config sim value that differs from it was once dropped silently."""
        capsys.readouterr()
        assert cli_main(self._given(files, command, seed, sim, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["build-db", "localize", "rearrange"])
    def test_values_equal_to_the_instance_are_accepted(self, files, command, tmp_path):
        sim = {"object_count_min": 1, "object_count_max": 1}
        assert cli_main(self._given(files, command, 0, sim, tmp_path)) == 0

    @pytest.mark.parametrize("command", ["build-db", "localize", "rearrange"])
    def test_config_file_is_read_once(self, files, command, tmp_path, monkeypatch):
        """The ``--config`` file was once read a second time, to learn which
        sim values the user gave."""
        read = []

        def counted(path):
            read.append(path)
            return load_json(path)

        monkeypatch.setattr("mvor.cli.load_json", counted)
        sim = {"object_count_min": 1, "object_count_max": 1}
        assert cli_main(self._given(files, command, None, sim, tmp_path)) == 0
        assert read == [str(tmp_path / "given.json")]

    def test_localize_rejects_other_library_size(self, files, tmp_path, capsys):
        """The database comes from the 12-model library of seed 7; an
        instance on a 4-model library of the same seed once reached
        descriptors_for with the database's feature ids."""
        cfg = SimConfig(library_size=4, object_count_min=1, object_count_max=1)
        inst = generate_instance(cfg, generate_model_library(cfg), seed=0)
        path = tmp_path / "small.json"
        path.write_text(json.dumps(instance_to_dict(inst)))
        nn = tmp_path / "nn.json"
        nn.write_text(json.dumps({"localization": {"matcher": "descriptor_nn"}}))
        argv = ["localize", "--config", str(nn), "--db", str(files / "db.npz"),
                "--instance", str(path), "--out", str(tmp_path / "poses.json")]
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert "library_size" in capsys.readouterr().err

    @pytest.mark.parametrize("shift", ["negative", "past the last row"])
    @pytest.mark.parametrize("matcher", ["feature_id", "descriptor_nn"])
    def test_localize_rejects_ids_naming_no_row(self, files, matcher, shift, tmp_path, capsys):
        """A current-version database whose feature ids name no row of the
        instance's library exits 2, rather than gathering the descriptors of
        other points (descriptor_nn) or rejecting every estimate with exit 0
        (feature_id, which matches ids without reading the library)."""
        db, header = load_database(files / "db.npz")
        rows = len(generate_model_library(SimConfig()).points)
        db.crop_feature_ids = db.crop_feature_ids + (-rows if shift == "negative" else rows)
        save_database(db, tmp_path / "db.npz", header)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"localization": {"matcher": matcher}}))
        argv = ["localize", "--config", str(cfg), "--db", str(tmp_path / "db.npz"),
                "--instance", str(files / "instance.json"), "--out", str(tmp_path / "poses.json")]
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert "name no point" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("model_points", 800), ("point_descriptor_dim", 128)])
    def test_localize_rejects_other_model_sampling(self, files, key, value, tmp_path, capsys):
        """The database comes from 1600-point models with 256-wide point
        descriptors. Against an instance whose library of the same seed
        samples 800 points, or 128-wide descriptors, localize once exited 0
        with an estimate 63 deg and 31 cm off (128 deg and 56 cm)."""
        cfg = SimConfig(**{key: value}, object_count_min=1, object_count_max=1)
        inst = generate_instance(cfg, generate_model_library(cfg), seed=0)
        path = tmp_path / "other.json"
        path.write_text(json.dumps(instance_to_dict(inst)))
        argv = ["localize", "--db", str(files / "db.npz"), "--instance", str(path),
                "--out", str(tmp_path / "poses.json")]
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sim,perception",
        [({"library_size": 4}, {}), ({"point_descriptor_dim": 128}, {"min_region_points": 1})],
    )
    def test_localize_checks_database_before_the_library(self, files, sim, perception,
                                                         tmp_path, capsys, monkeypatch):
        """A database built against another library, or another descriptor
        width, exits 2, with the same message, before the model library is
        generated; the perception settings, which the database does not
        record, change nothing."""
        cfg = SimConfig(**sim, object_count_min=1, object_count_max=1)
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(instance_to_dict(
            generate_instance(cfg, generate_model_library(cfg), seed=0)
        )))
        settings = tmp_path / "cfg.json"
        settings.write_text(json.dumps({"perception": perception}))
        argv = ["localize", "--config", str(settings), "--db", str(files / "db.npz"),
                "--instance", str(inst), "--out", str(tmp_path / "poses.json")]
        capsys.readouterr()
        assert cli_main(argv) == 2
        message = capsys.readouterr().err
        assert message.startswith("error: database built against ")

        def no_library(sim):
            raise AssertionError("model library generated")

        monkeypatch.setattr("mvor.cli.generate_model_library", no_library)
        monkeypatch.setattr("mvor.sim.io.generate_model_library", no_library)
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == message

    def test_localize_accepts_its_own_descriptor_settings(self, files, tmp_path):
        argv = ["localize", "--db", str(files / "db.npz"),
                "--instance", str(files / "instance.json"), "--out", str(tmp_path / "poses.json")]
        assert cli_main(argv) == 0
        objects = json.loads((tmp_path / "poses.json").read_text())["objects"]
        assert objects and all(o["accepted"] for o in objects)

    def test_localize_rejects_other_descriptor_dim(self, files, tmp_path, capsys):
        """A dump whose descriptors column was cut to another width than the
        header's sim.point_descriptor_dim (256) loads, and once reached
        retrieval and failed there with a ValueError traceback."""
        with np.load(files / "db.npz") as npz:
            members = {name: npz[name] for name in npz.files}
        for width in (0, 128):
            cut = tmp_path / f"cut{width}.npz"
            np.savez(cut, **dict(members, descriptors=members["descriptors"][:, :width]))
            argv = ["localize", "--db", str(cut), "--instance", str(files / "instance.json"),
                    "--out", str(tmp_path / "poses.json")]
            capsys.readouterr()
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"width {width}" in err and "sim.point_descriptor_dim is 256" in err


# values that replace one member of a valid instance document when fuzzing
FUZZ_VALUES = st.sampled_from(
    [None, True, -1, 0, 7, 10**400, 2.5, -0.5, float("nan"), float("inf"), -float("inf"),
     "x", [], {}, [0.5, 0.5, -0.5, -0.5]]
)


class TestCliMalformedValues:
    """Out-of-range or ill-typed values raise ConfigParseError when the
    instance or config is loaded, and the CLI exits 2 with a diagnostic."""

    @pytest.fixture(scope="class")
    def instance_doc(self):
        cfg = SimConfig(object_count_min=2, object_count_max=2)
        return instance_to_dict(generate_instance(cfg, generate_model_library(cfg), seed=0))

    def _exits_2(self, argv, capsys):
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "member, key, value",
        [
            ("initial", "model_id", 999),
            ("initial", "model_id", -1),
            ("goal", "model_id", 12),  # library_size 12: ids 0..11
            ("config", "image_width", "abc"),
            ("config", "focal_px", -5.0),
            ("config", "table_width", float("nan")),
            ("config", "image_width", 10**400),  # was an OverflowError
            ("initial", "yaw", float("nan")),  # was accepted, exit 0
            ("goal", "tx", float("inf")),
            ("config", "ring_count", 10**400),  # was loaded: the stored views were used
            ("config", "image_width", 10**30),  # was an OverflowError in the renderer
            ("config", "image_height", 10**20),  # was a database of overflowed pixel rows
            ("initial", "model_id", True),  # a bool is not a number
            ("initial", "color", "red"),  # a placement holds exactly its four members
        ],
    )
    def test_instance_value(self, instance_doc, member, key, value, tmp_path, capsys):
        doc = copy.deepcopy(instance_doc)
        (doc[member][1] if member != "config" else doc[member])[key] = value
        with pytest.raises(ConfigParseError, match=member):
            instance_from_dict(doc)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "db.npz")
        self._exits_2(["build-db", "--instance", str(path), "--out", out], capsys)

    @pytest.mark.parametrize("case", ["swapped", "repeated"])
    def test_inconsistent_model_ids(self, instance_doc, case, tmp_path, capsys):
        """An instance whose goal object places another model than its
        initial object, or that places one model twice, exits 2 from
        ``rearrange`` and ``localize``; both once ran to exit 0."""
        good = tmp_path / "good.json"
        good.write_text(json.dumps(instance_doc))
        db = str(tmp_path / "db.npz")
        assert cli_main(["build-db", "--instance", str(good), "--out", db]) == 0
        doc = copy.deepcopy(instance_doc)
        first, second = doc["goal"]
        if case == "swapped":
            first["model_id"], second["model_id"] = second["model_id"], first["model_id"]
        else:
            doc["initial"][1]["model_id"] = second["model_id"] = first["model_id"]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        inst = str(path)
        self._exits_2(["rearrange", "--instance", inst, "--out", str(tmp_path / "r")], capsys)
        out = str(tmp_path / "poses.json")
        self._exits_2(["localize", "--db", db, "--instance", inst, "--out", out], capsys)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_instance_raises_only_config_parse_error(self, instance_doc, data):
        """Replace or delete one entry anywhere in a valid document: loading
        either succeeds or raises ConfigParseError, never anything else."""
        doc = copy.deepcopy(instance_doc)
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else range(len(node))
            key = data.draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
                node = child
            elif isinstance(node, dict) and data.draw(st.booleans()):
                del node[key]
                break
            else:
                node[key] = data.draw(FUZZ_VALUES)
                break
        try:
            instance_from_dict(doc)
        except ConfigParseError:
            pass

    @pytest.mark.parametrize(
        "config",
        [
            {"sim": {"image_width": "abc"}},
            {"sim": {"focal_px": -5.0}},
            {"sim": {"object_count_min": 5, "object_count_max": 2}},
            {"sim": 3},
            {"regimes": ["full", "sideways"]},
            {"localization": {"matcher": "sift"}},
            {"scenes": 2.5},
            {"include_single_view": 1},
            {"localization": {"sigma_px": True}},
            {"perception": {"min_region_points": 0}},
            {"perception": {"kmeans_restarts": 0}},  # a removed setting: an unknown field
            {"sim": {"ring_radius": 1e308}},  # was numpy overflow warnings, then exit 2
            {"sim": {"home_radius": 100.5}},  # at most MAX_CAMERA_RADIUS
            {"localization": {"top_n": 0}},  # was a ValueError from bincount
            {"localization": {"ransac_confidence": 1.0}},
            {"localization": {"outlier_rate": 1.5}},
            {"base_seed": -1},
            {"sim": {"ring_count": 0}},
            {"sim": {"library_seed": -1}},
            {"sim": {"table_width": float("nan")}},  # was an OverflowError from the sampler
            {"localization": {"sigma_px": float("inf")}},  # was accepted
            {"scenes": 0},  # was an empty report
            {"scenes": -3},
            {"regimes": []},
            {"regimes": ["minor", "minor"]},  # was one group, each object twice
            {"planner": {"thres_fail": -1}},
            {"planner": {"outer_factor": 0}},  # -1 ended INCOMPLETE after 1 pass
            {"planner": {"buffer_attempts": 0}},
            {"planner": {"collision_margin": -0.3}},  # apply_move refused the planned move
            {"planner": {"success_yaw_deg": -1}},
            {"planner": {"success_t_cm": 0}},
            {"sim": {"ring_count": 361}},  # at most one view per degree of azimuth
            {"sim": {"ring_count": 10**400}},  # was an OverflowError drawing the views
            {"sim": {"image_width": 10**30}},  # at most MAX_IMAGE_SIDE
            {"sim": {"image_height": 10**20}},
            # was a ValueError from the sampler: high is out of bounds for int64
            {"sim": {"object_count_max": 10**23}},
            {"sim": {"object_count_min": 0}},
            {"sim": {"table_depth": 0}},
            {"sim": {"min_clearance": -0.01}},
            {"sim": {"placement_margin": -0.1}},
            {"sim": {"placement_attempts": 0}},
            {"sim": {"rotation_regime": "sideways"}},
            {"sim": {"ring_elevation_deg": 90}},
            {"sim": {"home_elevation_deg": 0}},
            {"sim": {"library_size": 0}},
            {"sim": {"model_points": 0}},
            {"sim": {"point_descriptor_dim": 0}},
            {"sim": {"actuation_sigma": -0.003}},
            {"localization": {"theta_prune": -0.1}},
            {"localization": {"match_resolution": 0}},
            {"localization": {"min_correspondences": -1}},
            {"localization": {"drop_rate": 1.5}},
            {"localization": {"sigma_px": -1.0}},
            {"localization": {"max_view_angle_deg": 181}},
            {"localization": {"ratio_test": -0.5}},
            {"localization": {"max_matches": 0}},
            {"localization": {"ransac_iterations": 0}},
            {"localization": {"reproj_threshold_px": -2.0}},
            {"localization": {"ransac_seed": -1}},
            {"localization": {"refine_iters": -1}},
            {"localization": {"min_inliers": -1}},
            {"localization": {"min_inlier_ratio": 1.5}},
            {"localization": {"sigma_px": 1e308}},  # at most MAX_SIGMA_PX
        ],
    )
    def test_config_value(self, config, tmp_path, capsys):
        with pytest.raises(ConfigParseError):
            from_dict(BenchConfig, config)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = str(tmp_path / "db.npz")
        self._exits_2(["build-db", "--config", str(path), "--out", out], capsys)

    @staticmethod
    def _only_error_line(argv, config, tmp_path) -> str:
        """The stderr of ``mvor`` run in its own process on ``argv`` and a
        ``--config`` holding ``config``, which must exit 2 with one
        ``error:`` line and nothing else: no traceback and no warning."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        proc = subprocess.run(
            [sys.executable, "-m", "mvor.cli", *argv, "--config", str(path)],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        return proc.stderr

    @pytest.mark.parametrize("key", ["ring_radius", "home_radius"])
    def test_camera_radius_past_the_bound(self, key, tmp_path):
        """A radius near the float maximum once made build-db print numpy's
        overflow warnings before it exited 2; now the config is refused
        first, and stderr holds only the error line."""
        argv = ["build-db", "--out", str(tmp_path / "db.npz")]
        assert key in self._only_error_line(argv, {"sim": {key: 1e308}}, tmp_path)

    @pytest.mark.parametrize("key", ["ring_radius", "home_radius"])
    def test_camera_radius_near_zero(self, key, tmp_path):
        """A radius of 1e-300 puts the camera at the table centre: its view
        direction once divided by a zero distance, and rearrange printed
        numpy's warnings before "no model points project into the image".
        Now the config is refused when it is built."""
        argv = ["rearrange", "--seed", "3", "--out", str(tmp_path / "out")]
        err = self._only_error_line(argv, {"sim": {key: 1e-300}}, tmp_path)
        assert f"{key}=1e-300" in err and "has no direction" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "localization",
        [
            # was an OverflowError scaling the matcher noise
            {"sigma_px": 1.0, "match_resolution": 10**400},
            # was an OverflowError squaring the threshold in RANSAC
            {"reproj_threshold_px": 1e300},
        ],
        ids=["match_resolution", "reproj_threshold_px"],
    )
    def test_localization_value_past_the_bound(self, localization, tmp_path):
        """Past MAX_IMAGE_SIDE or MAX_REPROJ_THRESHOLD_PX the config is
        refused before any scene is drawn; the largest allowed values run
        (``test_largest_localization_values_run``)."""
        argv = ["rearrange", "--seed", "3", "--out", str(tmp_path / "out")]
        err = self._only_error_line(argv, {"localization": localization}, tmp_path)
        assert f"{list(localization)[-1]}=" in err
        assert not (tmp_path / "out").exists()

    def test_largest_localization_values_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"localization": {
            "sigma_px": 1.0, "match_resolution": MAX_IMAGE_SIDE,
            "reproj_threshold_px": MAX_REPROJ_THRESHOLD_PX,
        }}))
        assert cli_main(["rearrange", "--config", str(cfg), "--seed", "3",
                         "--out", str(tmp_path / "r")]) == 0

    @pytest.mark.parametrize(
        "command, sim",
        [
            # rearrange exited 0 after numpy's overflow warning from the
            # planar error, and wrote "final_dt_cm": Infinity
            ("rearrange", {"actuation_sigma": 1e308}),
            # build-db printed numpy's overflow warnings from the renderer
            ("build-db", {"table_width": 1e308, "table_depth": 1e308}),
        ],
    )
    def test_sim_value_past_the_bound(self, command, sim, tmp_path):
        """Past MAX_ACTUATION_SIGMA or MAX_TABLE_SIDE the config is refused
        before any scene is drawn, and stderr holds only the error line."""
        argv = [command, "--seed", "1", "--out", str(tmp_path / "out")]
        assert next(iter(sim)) in self._only_error_line(argv, {"sim": sim}, tmp_path)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_gen_count_below_one(self, count, tmp_path, capsys):
        # --count 0 once wrote the config's 50 instances, -2 an empty dataset
        out = tmp_path / "ds"
        self._exits_2(["gen", "--count", count, "--out", str(out)], capsys)
        assert not out.exists()

    def test_negative_seed_flag(self, tmp_path, capsys):
        with pytest.raises(ConfigParseError, match="--seed"):
            load_config(None, -1)
        self._exits_2(["gen", "--seed", "-1", "--out", str(tmp_path / "ds")], capsys)

    @pytest.mark.parametrize(
        "case, named",
        [
            # rearrange once exited 0, INCOMPLETE, and build-db wrote a database
            ("same spot",
             "instance member 'initial': object 0 at ({x!r}, {y!r}): overlaps object 1"),
            # rearrange once exited 2 with "no model points project into the image"
            ("off the table", "instance member 'goal': object 1 at ({x!r}, 3.0): "
                              "footprint leaves the table"),
        ],
    )
    @pytest.mark.parametrize("command", ["build-db", "localize", "rearrange"])
    def test_scene_breaking_the_collision_model(self, instance_doc, case, named, command,
                                                tmp_path, capsys):
        """Two objects in one spot, or one off the table, break the
        collision model the planner and simulator rest on; such a file
        exits 2, naming the member, the object and what it runs into."""
        good = tmp_path / "good.json"
        good.write_text(json.dumps(instance_doc))
        doc = copy.deepcopy(instance_doc)
        if case == "same spot":
            first, second = doc["initial"]
            second["tx"], second["ty"] = first["tx"], first["ty"]
            x, y = first["tx"], first["ty"]
        else:
            doc["goal"][1]["ty"] = 3.0
            x, y = doc["goal"][1]["tx"], 3.0
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--instance", str(path), "--out", str(tmp_path / "out")]
        if command == "localize":
            db = str(tmp_path / "db.npz")
            assert cli_main(["build-db", "--instance", str(good), "--out", db]) == 0
            argv += ["--db", db]
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: {named.format(x=x, y=y)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["build-db", "localize", "rearrange"])
    def test_instance_with_no_objects(self, instance_doc, command, tmp_path, capsys):
        """An instance whose placement lists are both empty once exited 2
        with "no model points project into the image", which did not name
        the cause."""
        good = tmp_path / "good.json"
        good.write_text(json.dumps(instance_doc))
        doc = dict(instance_doc, initial=[], goal=[])
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--instance", str(path), "--out", str(tmp_path / "out")]
        if command == "localize":
            db = str(tmp_path / "db.npz")
            assert cli_main(["build-db", "--instance", str(good), "--out", db]) == 0
            argv += ["--db", db]
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == (
            "error: instance members 'initial' and 'goal' place no object\n"
        )
        assert not (tmp_path / "out").exists()

    def test_negative_instance_seed(self, instance_doc, tmp_path, capsys):
        doc = dict(instance_doc, seed=-1)
        with pytest.raises(ConfigParseError, match="seed"):
            instance_from_dict(doc)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "run")
        self._exits_2(["rearrange", "--instance", str(path), "--out", out], capsys)

    def test_model_points_below_the_bound(self, tmp_path, capsys):
        """Below MIN_MODEL_POINTS a model could sample more points than
        model_points; such a config is refused before anything is drawn."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sim": {"model_points": MIN_MODEL_POINTS - 1}}))
        capsys.readouterr()
        assert cli_main(["build-db", "--config", str(path), "--out", str(tmp_path / "db")]) == 2
        err = capsys.readouterr().err
        assert f"sim: model_points={MIN_MODEL_POINTS - 1} outside" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, config, setting",
        [
            ("build-db", {"sim": {"model_points": 2**60}}, "sim.model_points"),
            ("build-db", {"sim": {"point_descriptor_dim": 2**60}}, "sim.point_descriptor_dim"),
            ("gen", {"sim": {"point_descriptor_dim": 2**60}}, "sim.point_descriptor_dim"),
            ("build-db", {"sim": {"library_size": 2**60}}, "sim.library_size"),
            ("gen", {"sim": {"library_size": 2**60}}, "sim.library_size"),
        ],
    )
    def test_width_too_big_to_address(self, command, config, setting, tmp_path, capsys):
        """numpy's "array is too big" ValueError once ended in a traceback;
        a shape past the address space allocates nothing."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        capsys.readouterr()
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"{setting} {2**60}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, setting",
        [
            ("build-db", {"sim": {"point_descriptor_dim": 10**9}}, "sim.point_descriptor_dim"),
            ("gen", {"sim": {"point_descriptor_dim": 10**9}}, "sim.point_descriptor_dim"),
        ],
    )
    def test_width_out_of_memory(self, command, config, setting, tmp_path, capsys, monkeypatch):
        """numpy's MemoryError once ended in a traceback; the allocation is
        patched to fail as a real one of that width would."""
        empty = np.empty

        def no_memory(shape, *args, **kwargs):
            if isinstance(shape, tuple) and 10**9 in shape:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", no_memory)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        capsys.readouterr()
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{setting} {10**9}" in err and "Unable to allocate" in err

    def test_int_for_float_is_kept_as_written(self):
        cfg = from_dict(BenchConfig, {"sim": {"focal_px": 460, "actuation_sigma": 0}})
        assert cfg.sim.focal_px == 460 and type(cfg.sim.focal_px) is int
        echo = to_dict(SimConfig(focal_px=460, actuation_sigma=0))
        assert json.dumps(to_dict(cfg.sim)) == json.dumps(echo)


class TestCliOutNotADirectory:
    """An ``--out`` that names a file, or a path under one, cannot be the
    output directory: the command exits 2 with a diagnostic, not a
    traceback."""

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under a file"])
    @pytest.mark.parametrize("command", ["gen", "rearrange", "bench-pose", "bench-completion"])
    def test_exits_2(self, command, under, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenes": 1, "regimes": ["full"], "include_single_view": False,
            "sim": {"object_count_min": 2, "object_count_max": 2},
        }))
        out = tmp_path / "file"
        out.write_text("")
        argv = [command, "--config", str(cfg), "--out", str(out / "sub" if under else out)]
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == ""
