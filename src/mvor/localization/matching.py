"""Local 2D-2D matching between a goal region and a candidate region's
hits.

A surface point is matchable across two observations only when the two
viewing directions, expressed in the object's local frame, agree within a
cone (``max_view_angle_deg``). This models how appearance-based matchers
degrade under viewpoint change: a feature seen from the object's far side
cannot be matched, no matter that it is nominally the same surface point.

Backends:
    FeatureIdMatcher   pairs view-compatible hits that observe the same
                       model surface point, then corrupts the pairs: a drop
                       rate, Gaussian noise on the goal-side coordinates,
                       and uniform outlier replacement. A learned matcher
                       errs at a common matching resolution (the goal
                       hits' pixel box, padded to a square of side
                       ``max(h, w)`` and resized to ``match_resolution``),
                       so ``sigma_px`` is in matching-resolution pixels:
                       in the goal image the noise is scaled by
                       ``side / match_resolution``, and an outlier lands
                       uniformly in the padded square.
    DescriptorNNMatcher mutual nearest neighbor over the per-hit point
                       descriptors with a ratio test; no ground-truth ids,
                       same view-compatibility physics. It adds no noise.

Both read only the candidate's ``feature_ids`` and ``view_local`` (a
database's ``RegionHits`` or any region), and name, per match, the
goal-image coordinates (uncorrupted, the goal hit's exact projection) and
the index of the candidate region's hit; ``lift_to_3d`` gathers that
hit's stored world point, and ``solve_pose`` takes the goal coordinates
and those points as two arrays in match order.
Every match has its own candidate hit and its own goal coordinates.
Every region holds at least one hit (``extract_regions`` drops smaller
ones, ``load_database`` refuses them), so neither matcher has a special
case: a call that finds no pair returns (0, 2) and (0,) arrays from its
general path, and a zero-size draw leaves the rng as it was.

FeatureIdMatcher reads the goal side through what the goal region derives
once and keeps (``ObjectRegion.id_index`` and ``pixel_box``), as a visual
localization pipeline indexes its query once for every database image it
is matched against: per call only the candidate's ids are looked up
(``common_hits``). Rows are gathered with ``ndarray.take``, which gives the
bytes of fancy indexing several times faster for (n, 2) and (n, 3) rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perception.regions import first_hits


@dataclass(eq=False)
class Correspondences2D:
    goal_px: np.ndarray  # (N,2) goal-image coords
    cand_hits: np.ndarray  # (N,) index of the candidate region's hit

    def __len__(self) -> int:
        return len(self.goal_px)


def common_hits(goal_index, cand_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The goal and candidate hits that hold a common feature id: per id
    held on both sides, in ascending order, the first goal hit and the first
    candidate hit holding it: the indices numpy's ``intersect1d`` of the
    two id arrays returns with ``return_indices=True``.

    ``goal_index`` is the goal's ``ObjectRegion.id_index``. Each candidate
    hit's id is looked up in it (one ``searchsorted``), and the hits found
    are indexed by their goal position (``first_hits``): in id order, the
    first candidate hit of each id."""
    goal_ids, goal_hits = goal_index
    if not len(goal_ids):  # no id to look up, nor a position to clip to
        return goal_hits, goal_hits
    pos = np.searchsorted(goal_ids, cand_ids)
    cand_hits = np.flatnonzero(goal_ids.take(pos, mode="clip") == cand_ids)
    pos, first = first_hits(pos[cand_hits])
    return goal_hits[pos], cand_hits[first]


class FeatureIdMatcher:
    """Reads ``match_resolution``, ``drop_rate``, ``sigma_px``, ``outlier_rate``
    and ``max_view_angle_deg`` from a ``LocalizationConfig``."""

    def __init__(self, config, rng=None):
        self.resolution = config.match_resolution
        self.drop_rate = config.drop_rate
        self.sigma_px = config.sigma_px
        self.outlier_rate = config.outlier_rate
        if rng is None and max(self.drop_rate, self.sigma_px, self.outlier_rate) > 0.0:
            raise ValueError("FeatureIdMatcher: drop, noise or outliers need an rng")
        self.cos_max = np.cos(np.radians(config.max_view_angle_deg))
        self.rng = rng

    def match(self, goal, cand) -> Correspondences2D:
        gi, ci = common_hits(goal.id_index, cand.feature_ids)
        compatible = (
            np.einsum(
                "ij,ij->i", goal.view_local.take(gi, axis=0), cand.view_local.take(ci, axis=0)
            )
            >= self.cos_max
        )
        gi, ci = gi[compatible], ci[compatible]
        if self.drop_rate > 0.0:
            keep = self.rng.uniform(size=len(gi)) >= self.drop_rate
            gi, ci = gi[keep], ci[keep]
        px = goal.px.take(gi, axis=0)
        if max(self.sigma_px, self.outlier_rate) > 0.0:
            low, size = goal.pixel_box  # the goal hits' pixel box, (u, v)
            side = size.max()
            if self.sigma_px > 0.0:
                noise = self.rng.normal(0.0, self.sigma_px, px.shape)
                px = px + noise * (side / self.resolution)
            if self.outlier_rate > 0.0:
                bad = self.rng.uniform(size=len(gi)) < self.outlier_rate
                # the top-left pixel edge of the padded square
                corner = low - (side - size) // 2
                px[bad] = corner - 0.5 + self.rng.uniform(0.0, side, (int(bad.sum()), 2))
        return Correspondences2D(px, ci)


class DescriptorNNMatcher:
    """Reads ``ratio_test``, ``max_matches`` and ``max_view_angle_deg``
    from a ``LocalizationConfig``."""

    def __init__(self, library, config):
        self.library = library
        self.ratio = config.ratio_test
        self.max_points = config.max_matches
        self.cos_max = np.cos(np.radians(config.max_view_angle_deg))

    def _features(self, region):
        """The hits of a goal region or a candidate's ``RegionHits``, evenly
        thinned to at most ``max_matches``, with their point descriptors and
        view directions. A feature id that names no library row, as one read
        from a database file may, raises UnknownFeature."""
        hits = np.arange(len(region.feature_ids))
        if len(hits) > self.max_points:
            hits = hits[:: int(np.ceil(len(hits) / self.max_points))]
        return hits, self.library.descriptors_for(region.feature_ids[hits]), region.view_local[hits]

    def match(self, goal, cand) -> Correspondences2D:
        g_hits, gd, g_view = self._features(goal)
        c_hits, cd, c_view = self._features(cand)
        sims = gd @ cd.T
        # appearance is only comparable inside the view cone
        sims[g_view @ c_view.T < self.cos_max] = -np.inf
        nn = np.argmax(sims, axis=1)
        best = sims[np.arange(len(gd)), nn]
        feasible = np.isfinite(best)
        nn_back = np.argmax(sims, axis=0)
        mutual = nn_back[nn] == np.arange(len(gd))
        # Lowe ratio on L2 distances between unit descriptors
        sims_masked = sims.copy()
        sims_masked[np.arange(len(gd)), nn] = -np.inf
        second = sims_masked.max(axis=1)
        d1 = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.clip(best, -1.0, 1.0)))
        d2 = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.clip(second, -1.0, 1.0)))
        no_second = ~np.isfinite(second)
        ok = feasible & mutual & (no_second | (d1 <= self.ratio * np.maximum(d2, 1e-12)))
        return Correspondences2D(goal.px[g_hits[ok]], c_hits[nn[ok]])
