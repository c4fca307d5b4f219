"""Scene state, rearrangement instance generation, and simulated pick-and-place.

Collision model: every object occupies a vertical disc of its model's
footprint radius. A scene is valid when no two discs overlap and every
disc lies inside the table bounds; ``check_scenes`` checks both scenes of
an instance against a library.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import CollisionAtTarget, ConfigParseError, PlacementFailure, UnknownObject
from ..geometry import PlanarTransform, planar_compose, planar_invert
from .config import SimConfig
from .models import ModelLibrary


@dataclass(frozen=True)
class Rect:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def contains_disc(self, x: float, y: float, r: float) -> bool:
        return (
            self.xmin + r <= x <= self.xmax - r
            and self.ymin + r <= y <= self.ymax - r
        )

    def shrunk(self, by: float) -> "Rect":
        return Rect(self.xmin + by, self.ymin + by, self.xmax - by, self.ymax - by)


@dataclass(frozen=True)
class Placement:
    model_id: int
    pose: PlanarTransform


@dataclass(frozen=True)
class SceneState:
    table_bounds: Rect
    placements: tuple[Placement, ...]

    @property
    def num_objects(self) -> int:
        return len(self.placements)

    def with_placement(self, index: int, pose: PlanarTransform) -> "SceneState":
        new = list(self.placements)
        new[index] = replace(new[index], pose=pose)
        return SceneState(self.table_bounds, tuple(new))

    def footprints(self, library: ModelLibrary) -> list[tuple[float, float, float]]:
        """(x, y, radius) per object."""
        radii = library.footprint_radius[[p.model_id for p in self.placements]]
        return [(p.pose.tx, p.pose.ty, r) for p, r in zip(self.placements, radii.tolist())]


@dataclass(frozen=True)
class RearrangementInstance:
    """One task: the initial and goal placements drawn for ``seed`` under
    ``config``. Derived, not stored: ``true_offsets`` (per object, goal =
    offset o initial) from the two placement lists. The cameras are the
    config's (``config.intrinsics``, ``config.home_viewpoint`` and
    ``config.ring_viewpoints``).

    Building one checks the placements, so one that exists is valid: the
    scenes hold at least one object, both lie on the config's table, both
    lists have the same length, every model id lies in the config's
    library, object i places the same model in both lists, and no model is
    placed twice (a feature id is its library row, so a database could not
    tell the two apart). A violation raises ValueError. It is frozen and
    its derived sequences are tuples, so it stays valid: a field changes
    only through ``dataclasses.replace``, which checks the new instance."""

    initial: SceneState
    goal: SceneState
    seed: int
    config: SimConfig
    true_offsets: tuple[PlanarTransform, ...] = field(init=False)

    def __post_init__(self):
        self._check_placements()
        object.__setattr__(self, "true_offsets", tuple(
            planar_compose(g.pose, planar_invert(i.pose))
            for i, g in zip(self.initial.placements, self.goal.placements)
        ))

    def _check_placements(self) -> None:
        if not self.initial.placements and not self.goal.placements:
            raise ValueError("instance members 'initial' and 'goal' place no object")
        table = _table_rect(self.config)
        for name, scene in (("initial", self.initial), ("goal", self.goal)):
            if scene.table_bounds != table:
                raise ValueError(
                    f"instance member {name!r}: table bounds {scene.table_bounds} are not "
                    f"the config's table {table}"
                )
        initial, goal = self.initial.placements, self.goal.placements
        if len(initial) != len(goal):
            raise ValueError("instance members 'initial' and 'goal' differ in length")
        size = self.config.library_size
        for name, placements in (("initial", initial), ("goal", goal)):
            ids = [p.model_id for p in placements]
            if not all(0 <= i < size for i in ids):
                raise ValueError(
                    f"instance member {name!r}: model ids {ids} outside the library's "
                    f"[0, {size})"
                )
        first_object = {}
        for i, (p, g) in enumerate(zip(initial, goal)):
            if g.model_id != p.model_id:
                raise ValueError(
                    f"instance object {i}: initial model id {p.model_id}, "
                    f"goal model id {g.model_id}"
                )
            j = first_object.setdefault(p.model_id, i)
            if j != i:
                raise ValueError(f"instance objects {j} and {i} both place model id {p.model_id}")


def _table_rect(config: SimConfig) -> Rect:
    return Rect(
        -config.table_width / 2.0,
        -config.table_depth / 2.0,
        config.table_width / 2.0,
        config.table_depth / 2.0,
    )


class _PlacementSampler:
    """Rejection sampler with a shared attempt budget per instance."""

    def __init__(self, config: SimConfig, rng):
        self.config = config
        self.rng = rng
        self.attempts_left = config.placement_attempts

    def sample(self, area: Rect, radius: float, placed, yaw=None) -> PlanarTransform:
        clearance = self.config.min_clearance
        lo_x, hi_x = area.xmin + radius, area.xmax - radius
        lo_y, hi_y = area.ymin + radius, area.ymax - radius
        if lo_x > hi_x or lo_y > hi_y:
            raise PlacementFailure(f"footprint radius {radius:.3f} exceeds placement area")
        while self.attempts_left > 0:
            self.attempts_left -= 1
            x = self.rng.uniform(lo_x, hi_x)
            y = self.rng.uniform(lo_y, hi_y)
            ok = all(
                np.hypot(x - px, y - py) >= radius + pr + clearance
                for px, py, pr in placed
            )
            if ok:
                theta = self.rng.uniform(-np.pi, np.pi) if yaw is None else yaw
                return PlanarTransform(theta, x, y)
        raise PlacementFailure(
            f"no collision-free placement within {self.config.placement_attempts} attempts"
        )


def generate_instance(
    config: SimConfig, library: ModelLibrary, seed: int
) -> RearrangementInstance:
    """Sample one rearrangement task.

    The goal scene is placed first; the initial scene re-places every object
    at a fresh collision-free position with a yaw offset drawn from the
    configured rotation regime. Deterministic in (config, seed).
    """
    rng = np.random.default_rng(seed)
    bounds = _table_rect(config)
    area = bounds.shrunk(config.placement_margin)
    sampler = _PlacementSampler(config, rng)

    n = int(rng.integers(config.object_count_min, config.object_count_max + 1))
    if n > len(library):
        raise PlacementFailure(f"scene needs {n} distinct models, library has {len(library)}")
    model_ids = [int(m) for m in rng.choice(len(library), size=n, replace=False)]
    radii = library.footprint_radius[model_ids].tolist()

    goal_placed: list[tuple[float, float, float]] = []
    goal_poses: list[PlanarTransform] = []
    for r in radii:
        pose = sampler.sample(area, r, goal_placed)
        goal_poses.append(pose)
        goal_placed.append((pose.tx, pose.ty, r))

    yaw_lo, yaw_hi = config.yaw_range()
    init_placed: list[tuple[float, float, float]] = []
    init_poses: list[PlanarTransform] = []
    for r, goal_pose in zip(radii, goal_poses):
        dyaw = rng.uniform(yaw_lo, yaw_hi)
        pose = sampler.sample(area, r, init_placed, yaw=goal_pose.yaw - dyaw)
        init_poses.append(pose)
        init_placed.append((pose.tx, pose.ty, r))

    mk = lambda poses: SceneState(
        bounds,
        tuple(Placement(m, p) for m, p in zip(model_ids, poses)),
    )
    return RearrangementInstance(
        initial=mk(init_poses), goal=mk(goal_poses), seed=seed, config=config
    )


# what placement_conflict returns for a footprint that leaves the table
TABLE_EDGE = -1


def placement_conflict(
    scene: SceneState,
    library: ModelLibrary,
    object_index: int,
    target: PlanarTransform,
    margin: float = 0.0,
) -> int | None:
    """What placing the object at ``object_index`` on ``target``, its
    footprint grown by ``margin``, runs into: ``TABLE_EDGE`` when the
    footprint leaves the table, else the index of the first object whose
    footprint it overlaps, or None when the placement is free. An index
    that names none of the scene's objects raises UnknownObject."""
    if not 0 <= object_index < scene.num_objects:
        raise UnknownObject(f"object index {object_index}")
    grown = float(library.footprint_radius[scene.placements[object_index].model_id]) + margin
    if not scene.table_bounds.contains_disc(target.tx, target.ty, grown):
        return TABLE_EDGE
    for j, (x, y, r) in enumerate(scene.footprints(library)):
        if j != object_index and np.hypot(target.tx - x, target.ty - y) < grown + r:
            return j
    return None


def check_scenes(inst: RearrangementInstance, library: ModelLibrary) -> None:
    """Raise ConfigParseError unless both scenes of ``inst`` are valid under
    the collision model, with ``library``'s footprint radii: no footprint
    leaves the table or overlaps another (touching is allowed). The
    instance cannot check this itself, as the radii live in the library;
    its text names the member, the object and what the object runs into."""
    for name, scene in (("initial", inst.initial), ("goal", inst.goal)):
        for i, p in enumerate(scene.placements):
            conflict = placement_conflict(scene, library, i, p.pose)
            if conflict is None:
                continue
            what = (
                "footprint leaves the table" if conflict == TABLE_EDGE
                else f"overlaps object {conflict}"
            )
            raise ConfigParseError(
                f"instance member {name!r}: object {i} at ({p.pose.tx!r}, {p.pose.ty!r}): {what}"
            )


def apply_move(
    scene: SceneState,
    library: ModelLibrary,
    object_index: int,
    target: PlanarTransform,
    sigma: float = 0.0,
    rng=None,
) -> SceneState:
    """Pick-and-place the object at ``object_index`` to ``target``.

    The index must name one of the scene's objects (else UnknownObject),
    and the target must be collision-free against all other objects and
    inside the table bounds (else CollisionAtTarget); callers are expected
    to collision-check first. With sigma > 0 the final placement is the
    target perturbed by zero-mean Gaussian noise in (yaw, tx, ty), which may
    land short of the ideal pose (callers budget margins accordingly).
    """
    if sigma > 0.0 and rng is None:
        raise ValueError("apply_move: sigma > 0 needs an rng")
    conflict = placement_conflict(scene, library, object_index, target)
    if conflict == TABLE_EDGE:
        raise CollisionAtTarget("target footprint leaves the table")
    if conflict is not None:
        raise CollisionAtTarget(f"target overlaps object {conflict}")
    final = target
    if sigma > 0.0:
        noise = rng.normal(0.0, sigma, size=3)
        final = PlanarTransform(target.yaw + noise[0], target.tx + noise[1], target.ty + noise[2])
    return scene.with_placement(object_index, final)
