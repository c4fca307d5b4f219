import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvor import geometry as geo
from mvor.errors import CollisionAtTarget, NoBufferSpace, UnknownObject
from mvor.geometry import PlanarTransform
from mvor.localization import PoseEstimate
from mvor.planner import (
    PlannerConfig,
    check_collision,
    find_buffer_pose,
    plan_and_execute,
    replay_moves,
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
    config = config or SimConfig()
    offsets = [
        geo.planar_compose(g.pose, geo.planar_invert(i.pose))
        for i, g in zip(initial.placements, goal.placements)
    ]
    return RearrangementInstance(
        initial=initial,
        goal=goal,
        true_offsets=offsets,
        home_viewpoint=config.home_viewpoint(),
        ring_viewpoints=config.ring_viewpoints(),
        seed=0,
        config=config,
    )


def exact_estimates(inst):
    return {
        i: PoseEstimate(offset=off, accepted=True, inlier_count=100, inlier_ratio=1.0)
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
        scene = scene_of([PlanarTransform(0, 0, 0)])
        with pytest.raises(UnknownObject):
            check_collision(scene, library, 3, PlanarTransform(0, 0, 0), 0.01)

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
        result = plan_and_execute(inst, exact_estimates(inst), library)
        assert [m.kind for m in result.moves] == ["goal-move"] * 3
        for m in result.moves:
            i = m.object_index
            expect = geo.planar_compose(inst.true_offsets[i], initial.placements[i].pose)
            assert_planar_close(m.target, expect)

    def test_target_after_buffer_move(self, library):
        initial = scene_of([PlanarTransform(0.1, -0.15, 0.0), PlanarTransform(0.5, 0.15, 0.0)])
        goal = scene_of([PlanarTransform(0.9, 0.15, 0.0), PlanarTransform(-0.4, -0.15, 0.0)])
        inst = instance_of(initial, goal)
        result = plan_and_execute(inst, exact_estimates(inst), library)
        assert result.completed
        buffer = next(m for m in result.moves if m.kind == "buffer-move")
        i = buffer.object_index
        goal_move = next(
            m for m in result.moves
            if m.step > buffer.step and m.object_index == i and m.kind == "goal-move"
        )
        assert goal_move.executed
        expect = geo.planar_compose(inst.true_offsets[i], initial.placements[i].pose)
        assert_planar_close(goal_move.target, expect)


class TestFindBufferPose:
    def test_near_empty_table(self, library):
        scene = scene_of([PlanarTransform(0, 0, 0), PlanarTransform(0, 0.25, 0.25)])
        rng = np.random.default_rng(0)
        pose = find_buffer_pose(scene, library, 0, rng)
        assert not check_collision(scene, library, 0, pose, 0.01)

    def test_packed_table(self, library):
        lib_big = fixed_radius_library(library, 0.45)
        scene = scene_of(
            [PlanarTransform(0, 0, 0), PlanarTransform(0, 0, 0)], model_ids=[0, 1]
        )
        with pytest.raises(NoBufferSpace):
            find_buffer_pose(scene, lib_big, 1, np.random.default_rng(0), attempts=200)

    def test_returned_pose_rechecks_clean(self, library):
        rng = np.random.default_rng(3)
        scene = scene_of(
            [PlanarTransform(0, -0.25, -0.25), PlanarTransform(0, 0.25, 0.25)]
        )
        for _ in range(50):
            pose = find_buffer_pose(scene, library, 0, rng)
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
        result = plan_and_execute(inst, exact_estimates(inst), library)
        assert result.completed
        assert result.total_manipulations == 3
        assert all(result.goal_moves[i] == 1 for i in range(3))
        assert all(result.buffer_moves[i] == 0 for i in range(3))
        # one-step accounting: exactly one manipulation per object
        assert all(result.manipulations(i) == 1 for i in range(3))

    def test_two_object_swap(self, library):
        initial = scene_of(
            [PlanarTransform(0.0, -0.15, 0.0), PlanarTransform(0.0, 0.15, 0.0)]
        )
        goal = scene_of(
            [PlanarTransform(0.0, 0.15, 0.0), PlanarTransform(0.0, -0.15, 0.0)]
        )
        inst = instance_of(initial, goal)
        result = plan_and_execute(inst, exact_estimates(inst), library)
        assert result.completed
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
        result = plan_and_execute(inst, exact_estimates(inst), library)
        assert result.completed
        assert result.total_manipulations == 0

    def test_rejected_estimates_fail_scene(self, library):
        initial = scene_of([PlanarTransform(0.0, -0.2, 0.0)])
        goal = scene_of([PlanarTransform(1.0, 0.2, 0.2)])
        inst = instance_of(initial, goal)
        estimates = {0: PoseEstimate(offset=PlanarTransform.identity(), accepted=False)}
        result = plan_and_execute(inst, estimates, library)
        assert not result.completed
        assert result.goal_moves[0] == 0
        # failures accrued each outer pass until the buffer threshold fired
        assert result.buffer_moves[0] >= 0
        assert result.outer_iterations > 1

    def test_move_log_replay_is_safe(self, library):
        for seed in range(8):
            cfg = SimConfig(object_count_min=4, object_count_max=7)
            inst = generate_instance(cfg, library, seed=seed)
            result = plan_and_execute(inst, exact_estimates(inst), library)
            assert result.completed
            final = replay_moves(inst, result.moves, library)  # must not raise
            for p, q in zip(final.placements, result.final_scene.placements):
                assert p.pose == q.pose

    def test_progress_on_generated_suite(self, library):
        cfg = SimConfig(object_count_min=1, object_count_max=9)
        for seed in range(25):
            inst = generate_instance(cfg, library, seed=seed)
            k = inst.initial.num_objects
            result = plan_and_execute(inst, exact_estimates(inst), library)
            assert result.completed, f"seed {seed} did not complete"
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
        result = plan_and_execute(inst, exact_estimates(inst), library)
        for m in result.moves:
            assert m.executed == (not m.collision)

    def test_deterministic(self, library):
        cfg = SimConfig(object_count_min=5, object_count_max=5)
        inst = generate_instance(cfg, library, seed=17)
        a = plan_and_execute(inst, exact_estimates(inst), library)
        b = plan_and_execute(inst, exact_estimates(inst), library)
        assert [m.as_dict() for m in a.moves] == [m.as_dict() for m in b.moves]

    def test_failed_buffer_search_is_logged(self, library):
        # two discs of radius 0.45 on a 1 m table: every goal move collides
        # and no buffer pose exists
        lib_big = fixed_radius_library(library, 0.45)
        initial = scene_of([PlanarTransform(0.0, 0.0, 0.0), PlanarTransform(0.0, 0.0, 0.0)])
        goal = scene_of([PlanarTransform(1.0, 0.02, 0.0), PlanarTransform(-1.0, -0.02, 0.0)])
        inst = instance_of(initial, goal)
        config = PlannerConfig(buffer_attempts=50)
        result = plan_and_execute(inst, exact_estimates(inst), lib_big, config)
        assert not result.completed
        assert sum(result.buffer_moves.values()) == 0
        failed = [m for m in result.moves if m.kind == "buffer-move"]
        assert failed
        for m in failed:
            assert m.collision and not m.executed
            assert m.target == initial.placements[m.object_index].pose
            assert m.failure_count > config.thres_fail
        assert [m.step for m in result.moves] == list(range(1, len(result.moves) + 1))
        final = replay_moves(inst, result.moves, lib_big)
        assert final.placements == result.final_scene.placements
