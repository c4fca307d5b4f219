"""Object pose estimation against the region database.

For each goal region: retrieve a candidate instance by descriptor vote,
walk its regions in similarity order, locally match, lift matches to 2D-3D
pairs through the candidate's stored world points, and solve the object's
pose. Rejected candidates prune their angular neighborhood (a rejection
usually means the wrong orientation was retrieved, so nearby viewing
directions are skipped).

The goal camera's pose is known and objects move flat on the table, so
the unknown is the planar motion (yaw, tx, ty) that carries the
current-scene world points to where the goal camera sees them. The
estimate is that motion itself, a ``PlanarTransform`` with the meaning of
the generator's true offsets (goal = offset o initial).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateGeometry, NoCandidates, TooFewCorrespondences
from ..geometry import PlanarTransform, Pose3, angular_distance
from ..perception.database import Database, RegionHits
from ..perception.regions import ObjectRegion
from ..serialize import check_settings, setting
from .matching import Correspondences2D, DescriptorNNMatcher, FeatureIdMatcher
from .pnp import ransac_planar


# the largest matcher noise, in matching-resolution pixels: it already moves
# goal pixels far off any image; far larger noise overflows the pose solver
MAX_SIGMA_PX = 1e6


@dataclass
class LocalizationConfig:
    # retrieval and traversal
    top_n: int = setting(10, 1)
    theta_prune: float = setting(np.pi / 6, 0)
    # matching
    matcher: str = setting("feature_id", choices=("feature_id", "descriptor_nn"))
    match_resolution: int = setting(256, 1)
    min_correspondences: int = setting(4, 0)
    drop_rate: float = setting(0.0, 0, 1)
    sigma_px: float = setting(0.0, 0, MAX_SIGMA_PX)  # matching-resolution pixels
    outlier_rate: float = setting(0.0, 0, 1)
    max_view_angle_deg: float = setting(35.0, 0, 180)
    ratio_test: float = setting(0.8, 0, 1)
    max_matches: int = setting(2000, 1)
    # pose solving
    ransac_iterations: int = setting(1000, 1)
    reproj_threshold_px: float = setting(2.0, 0)
    # an open range: the early exit takes log(1 - confidence)
    ransac_confidence: float = setting(0.999, 0, 1, open_range=True)
    ransac_seed: int = setting(0, 0)
    refine_iters: int = setting(20, 0)
    min_inliers: int = setting(12, 0)
    min_inlier_ratio: float = setting(0.3, 0, 1)

    def make_matcher(self, library, rng=None):
        check_settings(self)  # a config built in Python skips from_dict's checks
        if self.matcher == "feature_id":
            return FeatureIdMatcher(self, rng)
        return DescriptorNNMatcher(library, self)


@dataclass
class CandidateList:
    instance_id: int
    region_indices: np.ndarray  # db region indices, similarity-descending
    scores: np.ndarray
    pruned: np.ndarray = field(init=False)

    def __post_init__(self):
        self.pruned = np.zeros(len(self.region_indices), dtype=bool)


@dataclass
class Correspondences3D:
    goal_px: np.ndarray  # (N,2) goal-image coords
    world: np.ndarray  # (N,3) current-scene world points

    def __len__(self) -> int:
        return len(self.goal_px)


@dataclass
class PoseEstimate:
    offset: PlanarTransform  # the object's planar motion, initial -> goal
    inlier_count: int = 0
    num_correspondences: int = 0
    instance_id: int | None = None
    accepted: bool = False
    candidates_visited: int = 0  # matcher calls too: one per candidate visited
    note: str = ""

    @property
    def inlier_ratio(self) -> float:
        """Inliers per correspondence; 0.0 with none."""
        return self.inlier_count / self.num_correspondences if self.num_correspondences else 0.0


def retrieve_candidates(
    goal_region: ObjectRegion,
    db: Database,
    top_n: int,
    exclude: frozenset = frozenset(),
) -> CandidateList:
    """Vote an instance from the top-ranked regions, then return all of that
    instance's regions ordered by the original similarity."""
    if db.num_regions == 0:
        raise NoCandidates("database is empty")
    sims = db.descriptors @ goal_region.descriptor
    order = np.argsort(-sims, kind="stable")
    labels = db.region_instance[order]
    keep = np.isfinite(sims[order])
    for u in exclude:
        keep &= labels != u
    order, labels = order[keep], labels[keep]
    if len(order) == 0:
        raise NoCandidates("all instances excluded")
    top = labels[:top_n]
    votes = np.bincount(top)
    # a tie goes to the instance holding the best-ranked of the tied regions
    winner = int(top[np.argmax(votes[top] == votes.max())])
    members = order[labels == winner]
    return CandidateList(winner, members, sims[members])


def prune_after_rejection(
    cands: CandidateList, rejected_pos: int, db: Database, theta_prune: float
) -> CandidateList:
    """Mark the rejected candidate and every candidate whose observation
    direction lies within theta_prune of it."""
    e_rej = db.obs_dirs[cands.region_indices[rejected_pos]]
    cands.pruned[rejected_pos] = True
    cands.pruned |= angular_distance(db.obs_dirs[cands.region_indices], e_rej) < theta_prune
    return cands


def lift_to_3d(
    m2d: Correspondences2D, cand: RegionHits, min_correspondences: int
) -> Correspondences3D:
    """2D-2D matches -> (goal pixel, candidate world point) pairs.

    Each match names the candidate region's hit, so its 3D point is that
    hit's stored world point: a gather. The matchers pair each candidate
    hit and each goal coordinate at most once, so every pair is distinct.
    """
    if len(m2d) == 0:
        raise TooFewCorrespondences("no 2D matches")
    if len(m2d) < min_correspondences:
        raise TooFewCorrespondences(f"{len(m2d)} 2D-3D pairs")
    return Correspondences3D(m2d.goal_px, cand.world[m2d.cand_hits])


def solve_pose(
    m3d: Correspondences3D,
    intr,
    goal_viewpoint: Pose3,
    config: LocalizationConfig,
) -> PoseEstimate:
    """The object's planar motion (yaw, tx, ty): planar RANSAC
    (:func:`~mvor.localization.pnp.ransac_planar`) of the lifted
    correspondences against the known goal camera ``goal_viewpoint``.
    Acceptance needs enough inliers and enough inlier ratio.

    Raises TooFewCorrespondences (< 2 pairs) or DegenerateGeometry (no
    non-singular pair of pairs)."""
    p, mask = ransac_planar(m3d.world, m3d.goal_px, intr, goal_viewpoint, config)
    count = int(mask.sum())
    est = PoseEstimate(offset=p, inlier_count=count, num_correspondences=len(m3d))
    est.accepted = count >= config.min_inliers and est.inlier_ratio >= config.min_inlier_ratio
    return est


def estimate_object(
    goal_region: ObjectRegion,
    db: Database,
    matcher,
    intr,
    config: LocalizationConfig,
    excluded: frozenset = frozenset(),
) -> PoseEstimate:
    """Candidate traversal for one goal region.

    Walks the retrieved instance's regions in similarity order; the first
    accepted pose wins. On rejection the candidate's angular
    neighborhood is pruned. If the instance exhausts, falls back to the
    next most frequent instance in the retrieval vote. With nothing
    accepted, returns the highest-inlier attempt (or the identity offset)
    flagged not accepted.
    """
    if db.num_regions == 0:
        raise NoCandidates("database is empty")
    excluded = set(excluded)
    visited = 0
    best: PoseEstimate | None = None
    for _ in range(db.num_instances):
        try:
            cands = retrieve_candidates(goal_region, db, config.top_n, frozenset(excluded))
        except NoCandidates:
            break
        # a visited candidate is either accepted (and returned) or pruned,
        # so the walk goes forward over the positions still unpruned
        for pos in range(len(cands.region_indices)):
            if cands.pruned[pos]:
                continue
            visited += 1
            cand = db.hits(int(cands.region_indices[pos]))
            m2d = matcher.match(goal_region, cand)
            try:
                m3d = lift_to_3d(m2d, cand, config.min_correspondences)
                est = solve_pose(m3d, intr, goal_region.viewpoint, config)
            except (TooFewCorrespondences, DegenerateGeometry) as e:
                est = PoseEstimate(offset=PlanarTransform.identity(), note=str(e))
            est.instance_id = cands.instance_id
            if best is None or est.inlier_count > best.inlier_count:
                best = est
            if est.accepted:
                est.candidates_visited = visited
                return est
            prune_after_rejection(cands, pos, db, config.theta_prune)
        excluded.add(cands.instance_id)
    if best is None:
        best = PoseEstimate(offset=PlanarTransform.identity(), note="no candidates evaluated")
    best.candidates_visited = visited
    return best


def estimate_all(
    goal_regions: list[ObjectRegion],
    db: Database,
    matcher,
    intr,
    config: LocalizationConfig,
) -> dict[int, PoseEstimate]:
    """Estimate every goal region (``prepare_goal_regions``) against the
    database; returns instance -> estimate. ``intr`` are the goal camera's
    intrinsics.

    Two goal regions claiming the same instance are resolved by inlier
    ratio; the loser re-runs with that instance excluded. Goal regions are
    only read, so one prepared list serves several databases.
    """
    results: dict[int, tuple[int, PoseEstimate]] = {}
    pending: list[tuple[int, frozenset]] = [(i, frozenset()) for i in range(len(goal_regions))]
    while pending:
        ridx, excl = pending.pop(0)
        if len(excl) >= db.num_instances:
            continue
        est = estimate_object(goal_regions[ridx], db, matcher, intr, config, excl)
        u = est.instance_id
        if u is None:
            continue
        if u not in results:
            results[u] = (ridx, est)
            continue
        held_ridx, held = results[u]
        if (est.inlier_ratio, est.inlier_count) > (held.inlier_ratio, held.inlier_count):
            results[u] = (ridx, est)
            pending.append((held_ridx, excl | frozenset({u})))
        else:
            pending.append((ridx, excl | frozenset({u})))
    return {u: est for u, (_, est) in results.items()}
