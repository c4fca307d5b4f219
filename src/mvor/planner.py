"""Iterative rearrangement execution.

The loop processes objects in a fixed order (index ascending). Per object
and outer pass: refresh the tracked pose (dead-reckoned, or re-observed
from the home viewpoint when a reobserver is supplied), skip objects
already within the success thresholds of their believed goal,
collision-check the goal move, execute on success, and on repeated failure
relocate the blocker to a random collision-free buffer pose. The loop ends
when nothing remains or the outer-iteration budget (2x object count by
default) is exhausted.

The planner operates on estimated offsets only. Each accepted estimate
fixes the object's believed goal once, as its planar ``offset`` applied
to the object's initial pose, and every goal move targets that belief.
The tracked pose, initialized from the initial scene, stands in for the
robot's perception of the current scene: it decides whether an object is
already within the success thresholds. Every attempted move is logged, including
blocked goal moves and buffer searches that give up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoBufferSpace, ReobservationFailed, UnknownObject
from .geometry import PlanarTransform, planar_compose, planar_distance
from .sim.models import ModelLibrary
from .sim.scene import RearrangementInstance, SceneState, apply_move, placement_conflict


@dataclass
class PlannerConfig:
    thres_fail: int = 3  # failures tolerated before a buffer relocation
    outer_factor: int = 2  # outer-iteration budget = factor * object count
    collision_margin: float = 0.01  # meters added around footprints
    success_yaw_deg: float = 5.0
    success_t_cm: float = 2.0
    buffer_attempts: int = 1000


@dataclass
class PlanState:
    remaining: list[int]
    failure_counts: dict[int, int]
    outer_iterations: int
    tracked_poses: dict[int, PlanarTransform]


@dataclass
class MoveRecord:
    step: int
    object_index: int
    kind: str  # 'goal-move' | 'buffer-move'
    target: PlanarTransform
    collision: bool  # pre-move check outcome (True means the move was blocked)
    executed: bool
    failure_count: int

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "object": self.object_index,
            "kind": self.kind,
            "yaw_deg": float(np.degrees(self.target.yaw)),
            "tx": self.target.tx,
            "ty": self.target.ty,
            "collision": self.collision,
            "executed": self.executed,
            "failure_count": self.failure_count,
        }


@dataclass
class ExecutionResult:
    moves: list[MoveRecord]
    completed: bool
    outer_iterations: int
    final_scene: SceneState
    goal_moves: dict[int, int] = field(default_factory=dict)
    buffer_moves: dict[int, int] = field(default_factory=dict)

    def manipulations(self, object_index: int) -> int:
        return self.goal_moves.get(object_index, 0) + self.buffer_moves.get(object_index, 0)

    @property
    def total_manipulations(self) -> int:
        return sum(self.goal_moves.values()) + sum(self.buffer_moves.values())


def check_collision(
    scene: SceneState,
    library: ModelLibrary,
    object_index: int,
    target: PlanarTransform,
    margin: float = 0.01,
) -> bool:
    """True iff placing the object at ``target`` (footprint inflated by
    ``margin``) would intersect another object or leave the table."""
    if not 0 <= object_index < scene.num_objects:
        raise UnknownObject(f"object index {object_index}")
    return placement_conflict(scene, library, object_index, target, margin) is not None


def find_buffer_pose(
    scene: SceneState,
    library: ModelLibrary,
    object_index: int,
    rng,
    margin: float = 0.01,
    attempts: int = 1000,
) -> PlanarTransform:
    """Random collision-free placement for a blocking object."""
    b = scene.table_bounds
    for _ in range(attempts):
        pose = PlanarTransform(
            rng.uniform(-np.pi, np.pi),
            rng.uniform(b.xmin, b.xmax),
            rng.uniform(b.ymin, b.ymax),
        )
        if not check_collision(scene, library, object_index, pose, margin):
            return pose
    raise NoBufferSpace(f"no buffer pose within {attempts} attempts")


def _within_success(current: PlanarTransform, goal: PlanarTransform, config: PlannerConfig) -> bool:
    dyaw, dt = planar_distance(current, goal)
    return dyaw < config.success_yaw_deg and dt < config.success_t_cm


def plan_and_execute(
    instance: RearrangementInstance,
    estimates: dict,
    library: ModelLibrary,
    config: PlannerConfig | None = None,
    reobserve=None,
) -> ExecutionResult:
    """Run the full rearrangement loop against the simulator.

    ``estimates`` maps object index -> PoseEstimate, whose ``offset`` is
    the object's estimated planar motion; objects with a not-accepted
    estimate are never moved toward a goal and accrue failures instead.
    ``reobserve(scene, object_index, tracked_guess)`` may return a fresh
    tracked pose (or raise ReobservationFailed); without it the planner
    dead-reckons. Actuation noise is the instance's
    ``config.actuation_sigma``; buffer poses and noise draw from an RNG
    seeded with the instance seed, so a run is deterministic per instance.
    """
    config = config or PlannerConfig()
    sigma = instance.config.actuation_sigma
    rng = np.random.default_rng(instance.seed)
    scene = instance.initial
    k = scene.num_objects
    order = sorted(estimates.keys())

    state = PlanState(
        remaining=[i for i in order],
        failure_counts={i: 0 for i in order},
        outer_iterations=0,
        tracked_poses={i: instance.initial.placements[i].pose for i in order},
    )
    # believed goal placement, fixed once from the initial estimate
    goal_beliefs = {}
    usable = {}
    for i in order:
        est = estimates[i]
        usable[i] = est.accepted
        if est.accepted:
            goal_beliefs[i] = planar_compose(est.offset, state.tracked_poses[i])

    moves: list[MoveRecord] = []
    goal_moves: dict[int, int] = {i: 0 for i in order}
    buffer_moves: dict[int, int] = {i: 0 for i in order}
    step = 0
    thres_outer = config.outer_factor * max(1, k)

    while True:
        state.outer_iterations += 1
        for i in list(state.remaining):
            if not usable[i]:
                state.failure_counts[i] += 1
                if state.failure_counts[i] > config.thres_fail:
                    scene, step = _buffer_relocate(
                        scene, library, i, state, config, sigma, rng, moves, buffer_moves, step
                    )
                continue
            if reobserve is not None:
                try:
                    state.tracked_poses[i] = reobserve(scene, i, state.tracked_poses[i])
                except ReobservationFailed:
                    state.failure_counts[i] += 1
                    continue
            # the goal belief is absolute, so buffer moves and actuation error
            # absorbed into the tracked pose need no correction of the target
            target = goal_beliefs[i]
            if _within_success(state.tracked_poses[i], target, config):
                state.remaining.remove(i)
                continue
            collision = check_collision(scene, library, i, target, config.collision_margin)
            step += 1
            moves.append(
                MoveRecord(step, i, "goal-move", target, collision, not collision,
                           state.failure_counts[i])
            )
            if not collision:
                scene = apply_move(scene, library, i, target, sigma, rng)
                state.tracked_poses[i] = target
                goal_moves[i] += 1
                state.remaining.remove(i)
            else:
                state.failure_counts[i] += 1
                if state.failure_counts[i] > config.thres_fail:
                    scene, step = _buffer_relocate(
                        scene, library, i, state, config, sigma, rng, moves, buffer_moves, step
                    )
        if not state.remaining or state.outer_iterations > thres_outer:
            break

    return ExecutionResult(
        moves=moves,
        completed=not state.remaining,
        outer_iterations=state.outer_iterations,
        final_scene=scene,
        goal_moves=goal_moves,
        buffer_moves=buffer_moves,
    )


def _buffer_relocate(scene, library, i, state, config, sigma, rng, moves, buffer_moves, step):
    """Move object ``i`` to a random collision-free buffer pose. A search
    that gives up is logged as a blocked buffer move at the tracked pose;
    the next outer pass tries again."""
    step += 1
    try:
        pose = find_buffer_pose(
            scene, library, i, rng, config.collision_margin, config.buffer_attempts
        )
    except NoBufferSpace:
        tracked = state.tracked_poses[i]
        moves.append(
            MoveRecord(step, i, "buffer-move", tracked, True, False, state.failure_counts[i])
        )
        return scene, step
    moves.append(MoveRecord(step, i, "buffer-move", pose, False, True, state.failure_counts[i]))
    scene = apply_move(scene, library, i, pose, sigma, rng)
    state.tracked_poses[i] = pose
    buffer_moves[i] += 1
    return scene, step


def replay_moves(
    instance: RearrangementInstance, moves: list[MoveRecord], library: ModelLibrary
) -> SceneState:
    """Re-execute the logged moves noiselessly; raises CollisionAtTarget if
    the log was ever unsafe."""
    scene = instance.initial
    for m in moves:
        if m.executed:
            scene = apply_move(scene, library, m.object_index, m.target, 0.0, None)
    return scene
