import dataclasses
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvor import geometry as geo
from mvor import planner
from mvor.bench import scene_outcome
from mvor.errors import CollisionAtTarget, NoBufferSpace, ReobservationFailed, UnknownObject
from mvor.geometry import PlanarTransform
from mvor.localization import PoseEstimate
from mvor.planner import (
    MoveRecord,
    PlannerConfig,
    check_collision,
    find_buffer_pose,
    plan_and_execute,
)
from mvor.sim import (
    Placement,
    Rect,
    SceneState,
    SimConfig,
    apply_move,
    generate_instance,
    generate_model_library,
)
from mvor.sim.scene import RearrangementInstance, placement_conflict


@pytest.fixture(scope="module")
def library():
    return generate_model_library(SimConfig())


def fixed_radius_library(library, radius):
    return dataclasses.replace(library, footprint_radius=np.full(len(library), radius))


def scene_of(poses, bounds=Rect(-0.5, -0.5, 0.5, 0.5), model_ids=None):
    model_ids = model_ids or list(range(len(poses)))
    return SceneState(bounds, tuple(Placement(m, p) for m, p in zip(model_ids, poses)))


def instance_of(initial, goal, config=None):
    return RearrangementInstance(initial=initial, goal=goal, seed=0, config=config or SimConfig())


def completed(inst, result, config=PlannerConfig()):
    """Whether every object ended within ``config``'s success thresholds of
    its true goal: the completion test of the benches and the CLI."""
    return scene_outcome(inst, result, config).completed


def replay(inst, result, library):
    """The final scene of the log's executed moves re-applied without
    noise; raises CollisionAtTarget if any of them was unsafe."""
    scene = inst.initial
    for m in result.moves:
        if m.executed:
            scene = apply_move(scene, library, m.object_index, m.target, 0.0, None)
    return scene


def exact_estimates(inst):
    return {
        i: PoseEstimate(offset=off, accepted=True, inlier_count=100, num_correspondences=100)
        for i, off in enumerate(inst.true_offsets)
    }


class TestCheckCollision:
    def test_empty_table(self, library):
        scene = scene_of([PlanarTransform(0, 0, 0)])
        assert not check_collision(scene, library, 0, PlanarTransform(0, 0.2, 0.2), 0.01)

    def test_target_on_other_object(self, library):
        scene = scene_of([PlanarTransform(0, -0.2, 0), PlanarTransform(0, 0.2, 0)])
        assert check_collision(scene, library, 0, PlanarTransform(0, 0.2, 0), 0.01)

    def test_margin_arithmetic(self, library):
        lib5 = fixed_radius_library(library, 0.05)
        scene = scene_of([PlanarTransform(0, -0.2, 0), PlanarTransform(0, 0.2, 0)])
        # discs r=5cm at center distance 10.5cm with 1cm margin: 10.5 < 5+5+1
        target = PlanarTransform(0, 0.2 - 0.105, 0)
        assert check_collision(scene, lib5, 0, target, margin=0.01)
        # without margin they clear: 10.5 >= 10
        assert not check_collision(scene, lib5, 0, target, margin=0.0)

    def test_table_bounds(self, library):
        scene = scene_of([PlanarTransform(0, 0, 0)])
        assert check_collision(scene, library, 0, PlanarTransform(0, 0.49, 0), 0.01)

    def test_unknown_object(self, library):
        """placement_conflict refuses an index that names no object: -1 once
        reported the object overlapping itself (Python's last element), and
        the object count raised a bare IndexError."""
        scene = scene_of([PlanarTransform(0, 0, 0)])
        target = PlanarTransform(0, 0, 0)
        for index in (-1, scene.num_objects, 3):
            with pytest.raises(UnknownObject):
                placement_conflict(scene, library, index, target)
            with pytest.raises(UnknownObject):
                check_collision(scene, library, index, target, 0.01)
            # apply_move once raised CollisionAtTarget for index 3
            with pytest.raises(UnknownObject):
                apply_move(scene, library, index, target)

    @settings(max_examples=200, deadline=None)
    @given(
        centers=st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)), min_size=1, max_size=4),
        target=st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
        index=st.integers(0, 3),
        margin=st.floats(0.0, 0.05),
    )
    def test_agrees_with_apply_move(self, library, centers, target, index, margin):
        """A move the planner checks at zero margin is exactly a move
        ``apply_move`` executes, and a margin only adds collisions."""
        scene = scene_of([PlanarTransform(0.0, x, y) for x, y in centers])
        index %= scene.num_objects
        pose = PlanarTransform(0.3, *target)
        blocked = check_collision(scene, library, index, pose, 0.0)
        if blocked:
            conflict = placement_conflict(scene, library, index, pose)
            with pytest.raises(CollisionAtTarget, match=conflict):
                apply_move(scene, library, index, pose)
        else:
            assert apply_move(scene, library, index, pose).placements[index].pose == pose
        assert check_collision(scene, library, index, pose, margin) >= blocked


def assert_planar_close(a, b, tol=1e-12):
    assert abs(geo.wrap_angle(a.yaw - b.yaw)) < tol
    assert abs(a.tx - b.tx) < tol and abs(a.ty - b.ty) < tol


class TestGoalTarget:
    """A goal move targets the estimated offset applied to the initial pose,
    whatever moves the object made before."""

    def test_target_without_prior_moves(self, library):
        initial = scene_of([PlanarTransform(0.4, x, -0.3) for x in (-0.3, 0.0, 0.3)])
        goal = scene_of([PlanarTransform(-0.7, x, 0.3) for x in (-0.3, 0.0, 0.3)])
        inst = instance_of(initial, goal)
        result = plan_and_execute(inst, exact_estimates(inst), library, PlannerConfig())
        assert [m.kind for m in result.moves] == ["goal-move"] * 3
        for m in result.moves:
            i = m.object_index
            expect = geo.planar_compose(inst.true_offsets[i], initial.placements[i].pose)
            assert_planar_close(m.target, expect)

    def test_target_after_buffer_move(self, library):
        initial = scene_of([PlanarTransform(0.1, -0.15, 0.0), PlanarTransform(0.5, 0.15, 0.0)])
        goal = scene_of([PlanarTransform(0.9, 0.15, 0.0), PlanarTransform(-0.4, -0.15, 0.0)])
        inst = instance_of(initial, goal)
        result = plan_and_execute(inst, exact_estimates(inst), library, PlannerConfig())
        assert completed(inst, result)
        b, buffer = next((k, m) for k, m in enumerate(result.moves) if m.kind == "buffer-move")
        i = buffer.object_index
        goal_move = next(
            m for m in result.moves[b + 1:] if m.object_index == i and m.kind == "goal-move"
        )
        assert goal_move.executed
        expect = geo.planar_compose(inst.true_offsets[i], initial.placements[i].pose)
        assert_planar_close(goal_move.target, expect)


class TestFindBufferPose:
    def test_near_empty_table(self, library):
        scene = scene_of([PlanarTransform(0, 0, 0), PlanarTransform(0, 0.25, 0.25)])
        rng = np.random.default_rng(0)
        pose = find_buffer_pose(scene, library, 0, rng, PlannerConfig())
        assert not check_collision(scene, library, 0, pose, 0.01)

    def test_packed_table(self, library):
        lib_big = fixed_radius_library(library, 0.45)
        scene = scene_of(
            [PlanarTransform(0, 0, 0), PlanarTransform(0, 0, 0)], model_ids=[0, 1]
        )
        with pytest.raises(NoBufferSpace):
            find_buffer_pose(
                scene, lib_big, 1, np.random.default_rng(0), PlannerConfig(buffer_attempts=200)
            )

    def test_returned_pose_rechecks_clean(self, library):
        rng = np.random.default_rng(3)
        scene = scene_of(
            [PlanarTransform(0, -0.25, -0.25), PlanarTransform(0, 0.25, 0.25)]
        )
        for _ in range(50):
            pose = find_buffer_pose(scene, library, 0, rng, PlannerConfig())
            assert not check_collision(scene, library, 0, pose, 0.01)


class TestPlanAndExecute:
    def test_conflict_free_scene_k_moves(self, library):
        initial = scene_of(
            [PlanarTransform(0.0, x, -0.3) for x in (-0.3, 0.0, 0.3)]
        )
        goal = scene_of(
            [PlanarTransform(1.0, x, 0.3) for x in (-0.3, 0.0, 0.3)]
        )
        inst = instance_of(initial, goal)
        result = plan_and_execute(inst, exact_estimates(inst), library, PlannerConfig())
        assert completed(inst, result)
        assert result.total_manipulations == 3
        assert all(result.goal_moves[i] == 1 for i in range(3))
        assert all(result.buffer_moves[i] == 0 for i in range(3))
        # one-step accounting: exactly one manipulation per object
        assert all(result.executed_moves()[i] == 1 for i in range(3))

    def test_two_object_swap(self, library):
        initial = scene_of(
            [PlanarTransform(0.0, -0.15, 0.0), PlanarTransform(0.0, 0.15, 0.0)]
        )
        goal = scene_of(
            [PlanarTransform(0.0, 0.15, 0.0), PlanarTransform(0.0, -0.15, 0.0)]
        )
        inst = instance_of(initial, goal)
        result = plan_and_execute(inst, exact_estimates(inst), library, PlannerConfig())
        assert completed(inst, result)
        assert result.total_manipulations == 3
        assert sum(result.buffer_moves.values()) == 1
        assert sum(result.goal_moves.values()) == 2
        final = result.final_scene
        for p, g in zip(final.placements, goal.placements):
            assert abs(p.pose.tx - g.pose.tx) < 1e-9
            assert abs(p.pose.ty - g.pose.ty) < 1e-9

    def test_already_at_goal_no_moves(self, library):
        initial = scene_of([PlanarTransform(0.3, 0.1, 0.1), PlanarTransform(0, -0.2, -0.2)])
        inst = instance_of(initial, initial)
        result = plan_and_execute(inst, exact_estimates(inst), library, PlannerConfig())
        assert completed(inst, result)
        assert result.total_manipulations == 0

    @pytest.mark.parametrize("outer_factor", [1, 2])
    def test_rejected_estimates_fail_scene(self, library, outer_factor):
        initial = scene_of([PlanarTransform(0.0, -0.2, 0.0)])
        goal = scene_of([PlanarTransform(1.0, 0.2, 0.2)])
        inst = instance_of(initial, goal)
        estimates = {0: PoseEstimate(offset=PlanarTransform.identity(), accepted=False)}
        config = PlannerConfig(outer_factor=outer_factor)
        result = plan_and_execute(inst, estimates, library, config)
        # one failure per pass: the budget of outer_factor passes for the
        # one object ends the loop on the pass after it, before the failures
        # pass thres_fail (3), so nothing moves
        assert result.moves == []
        assert result.outer_iterations == outer_factor + 1
        assert not completed(inst, result, config)

    def test_move_log_replay_is_safe(self, library):
        for seed in range(8):
            cfg = SimConfig(object_count_min=4, object_count_max=7)
            inst = generate_instance(cfg, library, seed=seed)
            result = plan_and_execute(inst, exact_estimates(inst), library, PlannerConfig())
            assert completed(inst, result)
            final = replay(inst, result, library)  # must not raise
            for p, q in zip(final.placements, result.final_scene.placements):
                assert p.pose == q.pose

    def test_progress_on_generated_suite(self, library):
        cfg = SimConfig(object_count_min=1, object_count_max=9)
        for seed in range(25):
            inst = generate_instance(cfg, library, seed=seed)
            k = inst.initial.num_objects
            result = plan_and_execute(inst, exact_estimates(inst), library, PlannerConfig())
            assert completed(inst, result), f"seed {seed} did not complete"
            assert result.outer_iterations <= 2 * k + 1
            for i in range(k):
                goal = inst.goal.placements[i].pose
                got = result.final_scene.placements[i].pose
                assert abs(geo.wrap_angle(got.yaw - goal.yaw)) < 1e-9
                assert np.hypot(got.tx - goal.tx, got.ty - goal.ty) < 1e-9

    def test_every_executed_move_was_checked(self, library):
        initial = scene_of(
            [PlanarTransform(0.0, -0.15, 0.0), PlanarTransform(0.0, 0.15, 0.0)]
        )
        goal = scene_of(
            [PlanarTransform(0.0, 0.15, 0.0), PlanarTransform(0.0, -0.15, 0.0)]
        )
        inst = instance_of(initial, goal)
        config = PlannerConfig()
        result = plan_and_execute(inst, exact_estimates(inst), library, config)
        scene = inst.initial
        for m in result.moves:
            if m.executed:
                assert not check_collision(
                    scene, library, m.object_index, m.target, config.collision_margin
                )
                scene = apply_move(scene, library, m.object_index, m.target)

    def test_deterministic(self, library):
        cfg = SimConfig(object_count_min=5, object_count_max=5)
        inst = generate_instance(cfg, library, seed=17)
        a = plan_and_execute(inst, exact_estimates(inst), library, PlannerConfig())
        b = plan_and_execute(inst, exact_estimates(inst), library, PlannerConfig())
        assert a.moves == b.moves

    def test_failed_buffer_search_is_logged(self, library):
        # two discs of radius 0.45 on a 1 m table: every goal move collides
        # and no buffer pose exists
        lib_big = fixed_radius_library(library, 0.45)
        initial = scene_of([PlanarTransform(0.0, 0.0, 0.0), PlanarTransform(0.0, 0.0, 0.0)])
        goal = scene_of([PlanarTransform(1.0, 0.02, 0.0), PlanarTransform(-1.0, -0.02, 0.0)])
        inst = instance_of(initial, goal)
        config = PlannerConfig(buffer_attempts=50)
        result = plan_and_execute(inst, exact_estimates(inst), lib_big, config)
        assert not completed(inst, result, config)
        assert sum(result.buffer_moves.values()) == 0
        failed = [m for m in result.moves if m.kind == "buffer-move"]
        assert failed
        for m in failed:
            assert m.collision and not m.executed
            assert m.target == initial.placements[m.object_index].pose
            assert m.failure_count > config.thres_fail
        final = replay(inst, result, lib_big)
        assert final.placements == result.final_scene.placements


# The planner as it was when it kept a PlanState and per-kind counters
# beside the move log: the reference the move-log planner must reproduce
# move for move. Like the planner, it re-observes only objects with an
# executed move since their last successful re-observation (``moved``).
@dataclass
class ReferencePlanState:
    remaining: list
    failure_counts: dict
    outer_iterations: int
    tracked_poses: dict
    moved: set


@dataclass
class ReferenceResult:
    moves: list
    outer_iterations: int
    final_scene: SceneState
    goal_moves: dict
    buffer_moves: dict


def reference_within_success(current, goal, config):
    dyaw, dt = geo.planar_distance(current, goal)
    return dyaw < config.success_yaw_deg and dt < config.success_t_cm


def reference_plan_and_execute(instance, estimates, library, config=None, reobserve=None):
    config = config or PlannerConfig()
    sigma = instance.config.actuation_sigma
    rng = np.random.default_rng(instance.seed)
    scene = instance.initial
    k = scene.num_objects
    order = sorted(estimates.keys())
    state = ReferencePlanState(
        remaining=[i for i in order],
        failure_counts={i: 0 for i in order},
        outer_iterations=0,
        tracked_poses={i: instance.initial.placements[i].pose for i in order},
        moved=set(),
    )
    goal_beliefs = {}
    usable = {}
    for i in order:
        est = estimates[i]
        usable[i] = est.accepted
        if est.accepted:
            goal_beliefs[i] = geo.planar_compose(est.offset, state.tracked_poses[i])
    moves = []
    goal_moves = {i: 0 for i in order}
    buffer_moves = {i: 0 for i in order}
    thres_outer = config.outer_factor * max(1, k)
    while True:
        state.outer_iterations += 1
        for i in list(state.remaining):
            if not usable[i]:
                state.failure_counts[i] += 1
                if state.failure_counts[i] > config.thres_fail:
                    scene = reference_buffer_relocate(
                        scene, library, i, state, config, sigma, rng, moves, buffer_moves
                    )
                continue
            if reobserve is not None and i in state.moved:
                try:
                    state.tracked_poses[i] = reobserve(scene, i, state.tracked_poses[i])
                except ReobservationFailed:
                    state.failure_counts[i] += 1
                    continue
                state.moved.remove(i)
            target = goal_beliefs[i]
            if reference_within_success(state.tracked_poses[i], target, config):
                state.remaining.remove(i)
                continue
            collision = check_collision(scene, library, i, target, config.collision_margin)
            moves.append(MoveRecord(i, "goal-move", target, collision, state.failure_counts[i]))
            if not collision:
                scene = apply_move(scene, library, i, target, sigma, rng)
                state.tracked_poses[i] = target
                state.moved.add(i)
                goal_moves[i] += 1
                state.remaining.remove(i)
            else:
                state.failure_counts[i] += 1
                if state.failure_counts[i] > config.thres_fail:
                    scene = reference_buffer_relocate(
                        scene, library, i, state, config, sigma, rng, moves, buffer_moves
                    )
        if not state.remaining or state.outer_iterations > thres_outer:
            break
    return ReferenceResult(moves, state.outer_iterations, scene, goal_moves, buffer_moves)


def reference_buffer_relocate(scene, library, i, state, config, sigma, rng, moves, buffer_moves):
    try:
        pose = find_buffer_pose(scene, library, i, rng, config)
    except NoBufferSpace:
        tracked = state.tracked_poses[i]
        moves.append(MoveRecord(i, "buffer-move", tracked, True, state.failure_counts[i]))
        return scene
    moves.append(MoveRecord(i, "buffer-move", pose, False, state.failure_counts[i]))
    scene = apply_move(scene, library, i, pose, sigma, rng)
    state.tracked_poses[i] = pose
    state.moved.add(i)
    buffer_moves[i] += 1
    return scene


def seeded_reobserver(seed, fail_rate):
    """Re-observation that returns the object's true pose, and fails on a
    schedule drawn from ``seed``; each call of this factory replays it."""
    rng = np.random.default_rng(seed)

    def reobserve(scene, i, guess):
        if rng.random() < fail_rate:
            raise ReobservationFailed(f"scheduled failure of object {i}")
        return scene.placements[i].pose

    return reobserve


class TestMoveLogPlannerMatchesReference:
    """The move-log planner gives the reference planner's log, outcome,
    final placements and per-object counts, on generated scenes with a
    seeded mix of accepted and rejected estimates."""

    def _assert_same(self, inst, estimates, library, config, fail_rate=None):
        def reobserver():
            return None if fail_rate is None else seeded_reobserver(inst.seed, fail_rate)

        ref = reference_plan_and_execute(inst, estimates, library, config, reobserver())
        got = plan_and_execute(inst, estimates, library, config, reobserver())
        assert got.moves == ref.moves
        assert got.outer_iterations == ref.outer_iterations
        assert got.final_scene.placements == ref.final_scene.placements
        for i in estimates:
            assert got.goal_moves[i] == ref.goal_moves[i]
            assert got.buffer_moves[i] == ref.buffer_moves[i]
            assert got.executed_moves()[i] == ref.goal_moves[i] + ref.buffer_moves[i]
        assert got.total_manipulations == sum(ref.goal_moves.values()) + sum(
            ref.buffer_moves.values()
        )
        return ref

    @pytest.mark.parametrize("sigma", [0.0, 0.003])
    @pytest.mark.parametrize("buffer_attempts", [1000, 3])
    @pytest.mark.parametrize("fail_rate", [None, 0.3])
    def test_generated_scenes(self, library, sigma, buffer_attempts, fail_rate):
        cfg = SimConfig(object_count_min=3, object_count_max=8, actuation_sigma=sigma)
        config = PlannerConfig(buffer_attempts=buffer_attempts)
        kinds = set()
        for seed in range(8):
            inst = generate_instance(cfg, library, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            estimates = {
                i: PoseEstimate(offset=off, accepted=bool(rng.random() < 0.7))
                for i, off in enumerate(inst.true_offsets)
            }
            ref = self._assert_same(inst, estimates, library, config, fail_rate)
            kinds |= {(m.kind, m.executed) for m in ref.moves}
        # every move kind was both executed and blocked somewhere in the sweep,
        # except a buffer search only gives up when its attempts are few
        assert ("goal-move", True) in kinds and ("buffer-move", True) in kinds
        assert (("buffer-move", False) in kinds) == (buffer_attempts == 3)

    def test_empty_plan_makes_one_pass(self, library):
        inst = generate_instance(SimConfig(object_count_min=2, object_count_max=2), library, seed=4)
        ref = self._assert_same(inst, {}, library, PlannerConfig())
        assert ref.outer_iterations == 1 and not ref.moves


def planner_timeline(monkeypatch, inst, estimates, library, config, reobserve):
    """Run the planner with ``reobserve`` and return its events in order:
    ``("reobserve", i, ok)`` per re-observer call and ``("log", move)`` per
    move-log entry, with the result."""
    events = []

    def logged(*args):
        move = MoveRecord(*args)
        events.append(("log", move))
        return move

    def counted(scene, i, guess):
        try:
            pose = reobserve(scene, i, guess)
        except ReobservationFailed:
            events.append(("reobserve", i, False))
            raise
        events.append(("reobserve", i, True))
        return pose

    monkeypatch.setattr(planner, "MoveRecord", logged)
    result = plan_and_execute(inst, estimates, library, config, counted)
    return events, result


def event_object(event):
    return event[1] if event[0] == "reobserve" else event[1].object_index


class TestReobserveMovedOnly:
    """The planner re-observes an object only when the robot has moved it
    since its last successful re-observation, once per goal-move attempt of
    such an object; an object it has not moved keeps its tracked pose."""

    @pytest.mark.parametrize("sigma", [0.0, 0.003])
    @pytest.mark.parametrize("fail_rate", [0.0, 0.3])
    def test_generated_scenes(self, library, monkeypatch, sigma, fail_rate):
        cfg = SimConfig(object_count_min=3, object_count_max=8, actuation_sigma=sigma)
        config = PlannerConfig(thres_fail=1)
        calls = Counter()
        for seed in range(8):
            inst = generate_instance(cfg, library, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            estimates = {
                i: PoseEstimate(offset=off, accepted=bool(rng.random() < 0.7))
                for i, off in enumerate(inst.true_offsets)
            }
            events, result = planner_timeline(
                monkeypatch, inst, estimates, library, config, seeded_reobserver(seed, fail_rate)
            )
            moved = set()
            for n, event in enumerate(events):
                i = event_object(event)
                if event[0] == "reobserve":
                    assert i in moved, f"seed {seed}: object {i} re-observed unmoved"
                    ok = event[2]
                    calls[ok] += 1
                    if ok:
                        moved.remove(i)
                        # the goal-move attempt it serves follows, unless
                        # the object turned out to be placed already
                        later = [e for e in events[n + 1:] if event_object(e) == i]
                        assert not later or later[0][1].kind == "goal-move"
                    continue
                if event[1].kind == "goal-move":
                    assert i not in moved, f"seed {seed}: goal move of {i} not re-observed"
                if event[1].executed:
                    moved.add(i)
            assert [e[1] for e in events if e[0] == "log"] == result.moves
        # the sweep re-observed objects, and failed some re-observations
        # exactly when failures were scheduled
        assert calls[True] > 0
        assert (calls[False] > 0) == (fail_rate > 0)

    def test_swap_reobserves_the_buffer_moved_object(self, library, monkeypatch):
        """Criterion 5's swap with 3 mm actuation noise: one re-observation,
        of the buffer-moved object, before its goal move."""
        initial = scene_of([PlanarTransform(0.0, -0.15, 0.0), PlanarTransform(0.0, 0.15, 0.0)])
        goal = scene_of([PlanarTransform(0.0, 0.15, 0.0), PlanarTransform(0.0, -0.15, 0.0)])
        inst = instance_of(initial, goal, SimConfig(actuation_sigma=0.003))
        events, result = planner_timeline(
            monkeypatch, inst, exact_estimates(inst), library, PlannerConfig(),
            seeded_reobserver(0, 0.0),
        )
        assert completed(inst, result) and result.total_manipulations == 3
        (buffer,) = [m for m in result.moves if m.kind == "buffer-move"]
        i = buffer.object_index
        assert [e for e in events if e[0] == "reobserve"] == [("reobserve", i, True)]
        after = [e for e in events if e[0] == "reobserve" or e[1].executed]
        assert [(e[0], event_object(e)) for e in after] == [
            ("log", i), ("log", 1 - i), ("reobserve", i), ("log", i),
        ]
        assert after[-1][1].kind == "goal-move"
