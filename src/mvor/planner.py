"""Iterative rearrangement execution.

The loop processes objects in a fixed order (index ascending). Per object
and outer pass: refresh the tracked pose (dead-reckoned; or, when a
reobserver is supplied and the robot has moved the object since its last
successful re-observation, re-observed from the home viewpoint), skip
objects already within the success thresholds of their believed goal,
collision-check the goal move, and execute it on success. An object whose
estimate is rejected or whose goal move is blocked counts a failure, and
past ``thres_fail`` failures that object itself (not the object in its
way) moves to a random collision-free buffer pose, on this and every later
pass that fails again. ROADMAP item 4 plans to move the blocker instead.
The loop ends when nothing remains or after ``outer_factor`` x n + 1 passes
for n objects (2n + 1 by default). An object leaves ``remaining`` once its
goal move executes, placed or not, so the loop's end says nothing about
success: ``bench.scene_outcome`` judges completion, from the final scene
against the true goal.

The planner operates on estimated offsets only, and reaches the simulator
only through its world (``bench.World``): ``world.execute`` makes each
move, the re-observer captures the world, and collision checks and buffer
searches read ``world.scene`` (ROADMAP item 13 plans on belief instead).
Each accepted estimate fixes the object's believed goal once, as its
planar ``offset`` applied to the object's initial pose, and every goal
move targets that belief. The tracked pose stands in for the robot's
perception of the current scene: it decides whether an object is already
within the success thresholds. Only the robot's own moves change a pose in
the world, so an object it has not moved keeps its tracked pose and is
never re-observed: re-observation costs one pass per move. Every attempted
move is logged, including blocked goal moves and buffer searches that give
up, and the log is the loop's only record: a move's step is its place in
the log, and every move count is read off the log's executed moves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import NoBufferSpace, ReobservationFailed
from .geometry import PlanarTransform, planar_compose, planar_distance
from .serialize import ConfigSection, setting
from .sim.models import ModelLibrary
from .sim.scene import SceneState, placement_conflict


@dataclass(frozen=True)
class PlannerConfig(ConfigSection):
    thres_fail: int = setting(3, 0)  # failures tolerated before a buffer relocation
    outer_factor: int = setting(2, 1)  # at most factor * object count + 1 outer passes
    collision_margin: float = setting(0.01, 0)  # meters added around footprints
    success_yaw_deg: float = setting(5.0, 0, open_range=True)
    success_t_cm: float = setting(2.0, 0, open_range=True)
    buffer_attempts: int = setting(1000, 1)

    def within_success(self, dtheta_deg: float, dt_cm: float) -> bool:
        """The success test: a planar error (degrees, cm) inside both
        thresholds."""
        return dtheta_deg < self.success_yaw_deg and dt_cm < self.success_t_cm


@dataclass
class MoveRecord:
    object_index: int
    kind: str  # 'goal-move' | 'buffer-move'
    target: PlanarTransform
    collision: bool  # pre-move check outcome (True means the move was blocked)
    failure_count: int

    @property
    def executed(self) -> bool:
        """A move is made unless its check found a collision."""
        return not self.collision

    def as_dict(self, step: int) -> dict:
        """The move log file's record; ``step`` is its 1-based place in the log."""
        return {
            "step": step,
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
    """The move log and the loop's outcome; every move count is read off
    the log's executed moves."""

    moves: list[MoveRecord]
    outer_iterations: int
    final_scene: SceneState

    def executed_moves(self, kind: str | None = None) -> Counter:
        """Executed moves per object index, of one kind or of every kind;
        an object with none counts 0."""
        return Counter(
            m.object_index for m in self.moves if m.executed and kind in (None, m.kind)
        )

    @property
    def goal_moves(self) -> Counter:
        return self.executed_moves("goal-move")

    @property
    def buffer_moves(self) -> Counter:
        return self.executed_moves("buffer-move")

    @property
    def total_manipulations(self) -> int:
        return sum(m.executed for m in self.moves)


def check_collision(
    scene: SceneState,
    library: ModelLibrary,
    object_index: int,
    target: PlanarTransform,
    margin: float,
) -> bool:
    """True iff placing the object at ``target`` (footprint inflated by
    ``margin``) would intersect another object or leave the table."""
    return placement_conflict(scene, library, object_index, target, margin) is not None


def find_buffer_pose(
    scene: SceneState,
    library: ModelLibrary,
    object_index: int,
    rng,
    config: PlannerConfig,
) -> PlanarTransform:
    """Random collision-free placement for object ``object_index``, the
    object that failed (a rejected estimate or a blocked goal move), not
    the object in its way: up to ``config.buffer_attempts`` draws, checked
    with ``config.collision_margin``."""
    b = scene.table_bounds
    for _ in range(config.buffer_attempts):
        pose = PlanarTransform(
            rng.uniform(-np.pi, np.pi),
            rng.uniform(b.xmin, b.xmax),
            rng.uniform(b.ymin, b.ymax),
        )
        if not check_collision(scene, library, object_index, pose, config.collision_margin):
            return pose
    raise NoBufferSpace(f"no buffer pose within {config.buffer_attempts} attempts")


def plan_and_execute(
    world,
    estimates: dict,
    library: ModelLibrary,
    config: PlannerConfig,
    reobserve=None,
) -> ExecutionResult:
    """Run the full rearrangement loop in ``world`` (``bench.World``).

    ``estimates`` maps object index -> PoseEstimate, whose ``offset`` is
    the object's estimated planar motion; objects with a not-accepted
    estimate are never moved toward a goal and accrue failures instead.
    ``reobserve(object_index, tracked_guess)`` returns a fresh tracked pose
    (or raises ReobservationFailed, which counts a failure but never
    relocates). It runs before a goal-move attempt, and only for an object
    with an executed move (goal or buffer) since its last successful
    re-observation; every other object keeps its tracked pose. Without it
    the planner dead-reckons. Buffer poses draw from ``world.rng``, the
    actuation stream, so a run is deterministic per instance.
    """
    order = sorted(estimates)
    remaining = list(order)
    failures = dict.fromkeys(order, 0)
    tracked = {i: world.scene.placements[i].pose for i in order}
    # objects with an executed move since their last successful
    # re-observation; only the robot's own moves change a pose
    moved: set[int] = set()
    # believed goal placement, fixed once from the initial estimate
    goal_beliefs = {
        i: planar_compose(estimates[i].offset, tracked[i])
        for i in order if estimates[i].accepted
    }
    moves: list[MoveRecord] = []
    thres_outer = config.outer_factor * max(1, world.scene.num_objects)
    outer_iterations = 0

    def attempt(i, kind, target, collision) -> bool:
        """Log a move, then make it unless ``collision`` blocked it."""
        moves.append(MoveRecord(i, kind, target, collision, failures[i]))
        if not collision:
            world.execute(i, target)
            tracked[i] = target
            moved.add(i)
        return not collision

    while True:
        outer_iterations += 1
        for i in list(remaining):
            if i in goal_beliefs:
                if reobserve is not None and i in moved:
                    try:
                        tracked[i] = reobserve(i, tracked[i])
                    except ReobservationFailed:
                        failures[i] += 1
                        continue
                    moved.remove(i)
                # the goal belief is absolute, so buffer moves and actuation
                # error absorbed into the tracked pose need no correction
                target = goal_beliefs[i]
                if config.within_success(*planar_distance(tracked[i], target)):
                    remaining.remove(i)
                    continue
                collision = check_collision(
                    world.scene, library, i, target, config.collision_margin
                )
                if attempt(i, "goal-move", target, collision):
                    remaining.remove(i)
                    continue
            # a rejected estimate or a blocked goal move: count a failure,
            # and past thres_fail move the object to a random buffer pose. A
            # search that gives up is logged as a blocked buffer move at the
            # tracked pose; the next outer pass tries again.
            failures[i] += 1
            if failures[i] <= config.thres_fail:
                continue
            try:
                pose = find_buffer_pose(world.scene, library, i, world.rng, config)
                collision = False
            except NoBufferSpace:
                pose, collision = tracked[i], True
            attempt(i, "buffer-move", pose, collision)
        if not remaining or outer_iterations > thres_outer:
            break

    return ExecutionResult(moves=moves, outer_iterations=outer_iterations, final_scene=world.scene)
