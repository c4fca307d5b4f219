"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a PASS line with the measured values (visible with ``pytest -s`` or
on failure). The heavyweight paired-seed benchmark is computed once and
shared.
"""

import json
import time

import numpy as np
import pytest

from mvor import geometry as geo
from mvor.bench import BenchConfig, World, run_completion_bench, run_pose_bench, scene_outcome
from mvor.cli import main as cli_main
from mvor.geometry import PlanarTransform, Pose3
from mvor.localization import (
    LocalizationConfig,
    PoseEstimate,
    ransac_planar,
    ransac_pnp,
    retrieve_candidates,
)
from mvor.perception import PerceptionConfig, build_database, prepare_goal_regions
from mvor.planner import PlannerConfig, plan_and_execute
from mvor.sim import (
    Placement,
    Rect,
    SceneState,
    SimConfig,
    generate_instance,
    generate_model_library,
    render,
)
from mvor.sim.scene import RearrangementInstance

SUITE_SCENES = 50


@pytest.fixture(scope="module")
def ablation_bench():
    """Paired-seed pose benchmark: both rotation regimes, multi-view and
    single-view databases, oracle matcher with sigma_px=1 and 20% outliers."""
    cfg = BenchConfig(
        scenes=SUITE_SCENES,
        regimes=["minor", "full"],
        include_single_view=True,
        localization=LocalizationConfig(sigma_px=1.0, outlier_rate=0.2),
    )
    t0 = time.monotonic()
    report = run_pose_bench(cfg)
    report.wall_clock_s = time.monotonic() - t0
    return report


def test_criterion_1_pnp_oracle_equivalence():
    """1000 seeded planar motions with >= 6 exact correspondences recover T
    to 1e-6 rad / 1e-6 m, 100% pass, in under 10 seconds of this process's
    CPU time (wall time would also count other processes on a loaded host)."""
    cfg = SimConfig()
    intr = cfg.intrinsics
    xi_q = cfg.home_viewpoint
    rng = np.random.default_rng(20240)
    worst_rot, worst_t = 0.0, 0.0
    cpu0, wall0 = time.process_time(), time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(6, 60))
        local = np.column_stack(
            [rng.uniform(-0.05, 0.05, n), rng.uniform(-0.05, 0.05, n), rng.uniform(0, 0.08, n)]
        )
        current = PlanarTransform(rng.uniform(-np.pi, np.pi), *rng.uniform(-0.3, 0.3, 2))
        world = geo.lift(current).apply(local)
        truth = PlanarTransform(rng.uniform(-np.pi, np.pi), *rng.uniform(-0.25, 0.25, 2))
        cam = geo.invert(xi_q).apply(geo.lift(truth).apply(world))
        uv, z = intr.project(cam), cam[:, 2]
        assert (z > 0).all()
        r, t, _ = ransac_pnp(world, uv, intr, seed=7)
        T = geo.compose(xi_q, Pose3(r, t))
        T_true = geo.lift(truth)
        worst_rot = max(worst_rot, geo.rotation_angle(T.rotation @ T_true.rotation.T))
        worst_t = max(worst_t, float(np.linalg.norm(T.translation - T_true.translation)))
    cpu, wall = time.process_time() - cpu0, time.monotonic() - wall0
    print(
        f"\nACCEPTANCE 1: PASS pnp oracle equivalence: worst rotation "
        f"{worst_rot:.2e} rad, worst translation {worst_t:.2e} m "
        f"(tol 1e-6), {cpu:.1f}s CPU (limit 10s), {wall:.1f}s wall"
    )
    assert worst_rot < 1e-6
    assert worst_t < 1e-6
    assert cpu < 10.0


def planar_oracle_cases(intr, xi_q):
    """Criterion 1's 1000 cases, drawn in its order from its seed: (world
    points, their exact pixels after the planar motion, the motion)."""
    rng = np.random.default_rng(20240)
    for _ in range(1000):
        n = int(rng.integers(6, 60))
        local = np.column_stack(
            [rng.uniform(-0.05, 0.05, n), rng.uniform(-0.05, 0.05, n), rng.uniform(0, 0.08, n)]
        )
        current = PlanarTransform(rng.uniform(-np.pi, np.pi), *rng.uniform(-0.3, 0.3, 2))
        world = geo.lift(current).apply(local)
        truth = PlanarTransform(rng.uniform(-np.pi, np.pi), *rng.uniform(-0.25, 0.25, 2))
        cam = geo.invert(xi_q).apply(geo.lift(truth).apply(world))
        uv, z = intr.project(cam), cam[:, 2]
        assert (z > 0).all()
        yield world, uv, truth


def test_planar_solver_oracle_equivalence():
    """The solver the pipeline runs, ``ransac_planar`` with the default
    LocalizationConfig, on criterion 1's cases: every motion recovered to
    1e-6 deg / 1e-6 cm, in under 10 seconds of this process's CPU time."""
    cfg = SimConfig()
    intr = cfg.intrinsics
    xi_q = cfg.home_viewpoint
    lcfg = LocalizationConfig()
    worst_deg, worst_cm = 0.0, 0.0
    cases = 0
    cpu0 = time.process_time()
    for world, uv, truth in planar_oracle_cases(intr, xi_q):
        est, inliers = ransac_planar(world, uv, intr, xi_q, lcfg)
        assert inliers.all()
        dtheta, dt = geo.planar_distance(est, truth)
        worst_deg, worst_cm = max(worst_deg, dtheta), max(worst_cm, dt)
        cases += 1
    cpu = time.process_time() - cpu0
    print(
        f"\nACCEPTANCE planar solver: PASS oracle equivalence on {cases} cases: worst "
        f"{worst_deg:.2e} deg, {worst_cm:.2e} cm (tol 1e-6), {cpu:.1f}s CPU (limit 10s)"
    )
    assert cases == 1000
    assert worst_deg < 1e-6
    assert worst_cm < 1e-6
    assert cpu < 10.0


def test_criterion_2_multi_view_accuracy(ablation_bench):
    """50-scene suite with sigma_px=1 and 20% outliers: multi-view medians
    <= 0.5 deg / 0.5 cm in both regimes, regimes consistent within 2x,
    under 3 minutes."""
    g = ablation_bench.summary["groups"]
    med = {reg: (g[f"{reg}/multi"]["median_dtheta_deg"], g[f"{reg}/multi"]["median_dt_cm"])
           for reg in ("minor", "full")}
    ratio_theta = max(med["minor"][0], med["full"][0]) / max(
        1e-12, min(med["minor"][0], med["full"][0])
    )
    ratio_t = max(med["minor"][1], med["full"][1]) / max(
        1e-12, min(med["minor"][1], med["full"][1])
    )
    print(
        f"\nACCEPTANCE 2: PASS multi-view accuracy: minor {med['minor'][0]:.3f} deg /"
        f" {med['minor'][1]:.3f} cm, full {med['full'][0]:.3f} deg / {med['full'][1]:.3f} cm"
        f" (tol 0.5 / 0.5), regime ratios {ratio_theta:.2f}, {ratio_t:.2f} (< 2),"
        f" wall clock {ablation_bench.wall_clock_s:.0f}s (limit 180s)"
    )
    for reg in ("minor", "full"):
        assert med[reg][0] <= 0.5
        assert med[reg][1] <= 0.5
    assert ratio_theta < 2.0
    assert ratio_t < 2.0
    assert ablation_bench.wall_clock_s < 180.0


def test_criterion_3_single_view_degradation(ablation_bench):
    """Paired-seed ablation: single-view full-rotation median rotation error
    at least 10x the multi-view median; single-view minor strictly below
    single-view full."""
    g = ablation_bench.summary["groups"]
    sv_full = g["full/single"]["median_dtheta_deg"]
    mv_full = g["full/multi"]["median_dtheta_deg"]
    sv_minor = g["minor/single"]["median_dtheta_deg"]
    print(
        f"\nACCEPTANCE 3: PASS single-view degradation: single/full "
        f"{sv_full:.2f} deg >= 10x multi/full {mv_full:.3f} deg; "
        f"single/minor {sv_minor:.3f} < single/full {sv_full:.2f}"
    )
    assert sv_full >= 10.0 * mv_full
    assert sv_minor < sv_full


def test_criterion_4_task_completion():
    """Noiseless matcher, exact actuation: multi-step completion 100%,
    one-step >= 90%, one-step <= multi-step on every paired seed."""
    cfg = BenchConfig(scenes=SUITE_SCENES, regimes=["full"])
    report = run_completion_bench(cfg)
    g = report.summary["groups"]["full"]
    by_scene = {}
    for r in report.rows:
        by_scene[r["scene_seed"]] = (r["scene_completed"], r["scene_one_step"])
    per_seed_ok = all(one <= multi for multi, one in by_scene.values())
    print(
        f"\nACCEPTANCE 4: PASS task completion: multi-step "
        f"{g['multi_step_completion']*100:.1f}% (need 100%), one-step "
        f"{g['one_step_completion']*100:.1f}% (need >= 90%), paired "
        f"one<=multi on all {len(by_scene)} seeds: {per_seed_ok}"
    )
    assert g["multi_step_completion"] == 1.0
    assert g["one_step_completion"] >= 0.9
    assert per_seed_ok


def _manual_instance(initial, goal, config):
    return RearrangementInstance(initial=initial, goal=goal, seed=0, config=config)


def test_criterion_5_planner_swap_and_conflict_free():
    """Two-object swap: exactly 3 manipulations (1 buffer + 2 goal moves).
    Conflict-free K-object scene: exactly K manipulations."""
    cfg = SimConfig()
    library = generate_model_library(cfg)
    bounds = Rect(-0.5, -0.5, 0.5, 0.5)

    swap_initial = SceneState(
        bounds,
        (
            Placement(0, PlanarTransform(0.0, -0.15, 0.0)),
            Placement(1, PlanarTransform(0.0, 0.15, 0.0)),
        ),
    )
    swap_goal = SceneState(
        bounds,
        (
            Placement(0, PlanarTransform(0.0, 0.15, 0.0)),
            Placement(1, PlanarTransform(0.0, -0.15, 0.0)),
        ),
    )
    inst = _manual_instance(swap_initial, swap_goal, cfg)
    estimates = {
        i: PoseEstimate(offset=off, accepted=True, inlier_count=100, num_correspondences=100)
        for i, off in enumerate(inst.true_offsets)
    }
    result = plan_and_execute(
        World(inst, library, BenchConfig()), estimates, library, PlannerConfig()
    )
    swap_ok = (
        scene_outcome(inst, result, PlannerConfig()).completed
        and result.total_manipulations == 3
        and sum(result.buffer_moves.values()) == 1
        and sum(result.goal_moves.values()) == 2
    )

    k = 4
    free_initial = SceneState(
        bounds, tuple(Placement(i, PlanarTransform(0.0, -0.36 + 0.24 * i, -0.3)) for i in range(k))
    )
    free_goal = SceneState(
        bounds, tuple(Placement(i, PlanarTransform(0.8, -0.36 + 0.24 * i, 0.3)) for i in range(k))
    )
    inst2 = _manual_instance(free_initial, free_goal, cfg)
    estimates2 = {
        i: PoseEstimate(offset=off, accepted=True, inlier_count=100, num_correspondences=100)
        for i, off in enumerate(inst2.true_offsets)
    }
    result2 = plan_and_execute(
        World(inst2, library, BenchConfig()), estimates2, library, PlannerConfig()
    )
    free_ok = (
        scene_outcome(inst2, result2, PlannerConfig()).completed
        and result2.total_manipulations == k
        and all(result2.executed_moves()[i] == 1 for i in range(k))
    )
    print(
        f"\nACCEPTANCE 5: PASS planner behavior: swap used "
        f"{result.total_manipulations} manipulations "
        f"({sum(result.buffer_moves.values())} buffer + {sum(result.goal_moves.values())} goal),"
        f" conflict-free K={k} used {result2.total_manipulations}"
    )
    assert swap_ok
    assert free_ok


def test_criterion_6_association_and_retrieval_exactness():
    """50 noiseless scenes: every instance list pure, and the retrieval vote
    picks the correct instance for every goal region."""
    cfg = SimConfig()
    pcfg = PerceptionConfig()
    lcfg = LocalizationConfig()
    library = generate_model_library(cfg)
    intr = cfg.intrinsics
    regions_total = 0
    retrieval_hits = 0
    pure = True
    for seed in range(SUITE_SCENES):
        inst = generate_instance(cfg, library, seed=seed)
        frames = render(inst.initial, inst.config.ring_viewpoints, intr, library)
        db = build_database(frames, library, pcfg)
        instance_label = {}
        for j in range(db.num_instances):
            labels = set(db.source_instance[np.flatnonzero(db.region_instance == j)].tolist())
            if len(labels) != 1:
                pure = False
                break
            instance_label[j] = labels.pop()
        if not pure:
            break
        (goal_frame,) = render(inst.goal, [inst.config.home_viewpoint], intr, library)
        (goal_regions,) = prepare_goal_regions([goal_frame], library, pcfg)
        for g in goal_regions:
            regions_total += 1
            cands = retrieve_candidates(g, db, lcfg.top_n)
            if instance_label[cands.instance_id] == g.source_instance:
                retrieval_hits += 1
    print(
        f"\nACCEPTANCE 6: PASS association and retrieval exactness: purity "
        f"{'100%' if pure else 'BROKEN'}, retrieval {retrieval_hits}/{regions_total}"
    )
    assert pure
    assert retrieval_hits == regions_total


def test_criterion_7_determinism(tmp_path):
    """Any bench command run twice with the same seed emits byte-identical
    machine-readable results."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "scenes": 3,
                "regimes": ["full"],
                "include_single_view": True,
                "localization": {"sigma_px": 1.0, "outlier_rate": 0.2},
            }
        )
    )
    outputs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        assert cli_main(["bench-pose", "--config", str(cfg_path), "--seed", "11", "--out", str(out)]) == 0
        outputs.append(
            ((out / "records.tsv").read_bytes(), (out / "summary.json").read_bytes())
        )
    pose_identical = outputs[0] == outputs[1]

    outputs = []
    for name in ("c1", "c2"):
        out = tmp_path / name
        assert cli_main(
            ["bench-completion", "--config", str(cfg_path), "--seed", "11", "--out", str(out)]
        ) == 0
        outputs.append(
            ((out / "records.tsv").read_bytes(), (out / "summary.json").read_bytes())
        )
    completion_identical = outputs[0] == outputs[1]
    print(
        f"\nACCEPTANCE 7: PASS determinism: bench-pose byte-identical={pose_identical},"
        f" bench-completion byte-identical={completion_identical}"
    )
    assert pose_identical
    assert completion_identical


def test_criterion_8_formula_unit_checks():
    """Angular distance and observation vector match hand/brute-force
    evaluations to 1e-9 on the tabulated example sets."""
    checks = []
    # observation direction examples
    e = geo.observation_vector(Pose3(np.eye(3), [0, 0, 1.0]), np.zeros((3, 3)).mean(axis=0))
    checks.append(np.linalg.norm(e - [0, 0, 1.0]) < 1e-9)
    e = geo.observation_vector(Pose3(np.eye(3), [1.0, 1.0, 0.0]), np.zeros((5, 3)).mean(axis=0))
    checks.append(np.linalg.norm(e - [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0]) < 1e-9)
    # viewing-direction distance examples
    checks.append(abs(geo.angular_distance([1, 0, 0], [1, 0, 0])) < 1e-9)
    checks.append(abs(geo.angular_distance([1, 0, 0], [0, 1, 0]) - np.pi / 2) < 1e-9)
    checks.append(abs(geo.angular_distance([0, 0, 1], [0, 0, -1]) - np.pi) < 1e-9)
    # brute-force cross-check on random pairs: numeric azimuth/polar recompute
    rng = np.random.default_rng(0)
    for _ in range(500):
        a, b = rng.normal(size=3), rng.normal(size=3)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        daz = np.arctan2(a[1], a[0]) - np.arctan2(b[1], b[0])
        while daz <= -np.pi:
            daz += 2 * np.pi
        while daz > np.pi:
            daz -= 2 * np.pi
        dpol = np.arccos(a[2]) - np.arccos(b[2])
        brute = np.sqrt(daz**2 + dpol**2)
        checks.append(abs(geo.angular_distance(a, b) - brute) < 1e-9)
    print(f"\nACCEPTANCE 8: PASS formula unit checks: {sum(checks)}/{len(checks)} exact")
    assert all(checks)
