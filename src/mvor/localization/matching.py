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
the index of the candidate region's hit; lift_to_3d gathers that hit's
stored world point.
Every match has its own candidate hit and its own goal coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import nearest_pixel


@dataclass
class Correspondences2D:
    goal_px: np.ndarray  # (N,2) goal-image coords
    cand_hits: np.ndarray  # (N,) index of the candidate region's hit

    def __len__(self) -> int:
        return len(self.goal_px)


def _empty_matches() -> Correspondences2D:
    return Correspondences2D(np.empty((0, 2)), np.empty(0, dtype=np.intp))


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
        _, gi, ci = np.intersect1d(goal.feature_ids, cand.feature_ids, return_indices=True)
        compatible = (
            np.einsum("ij,ij->i", goal.view_local[gi], cand.view_local[ci]) >= self.cos_max
        )
        gi, ci = gi[compatible], ci[compatible]
        n = len(gi)
        if n and self.drop_rate > 0.0:
            keep = self.rng.uniform(size=n) >= self.drop_rate
            gi, ci = gi[keep], ci[keep]
            n = len(gi)
        px = goal.px[gi]
        if n and max(self.sigma_px, self.outlier_rate) > 0.0:
            low = nearest_pixel(goal.px.min(axis=0))  # the goal hits' pixel box, (u, v)
            size = nearest_pixel(goal.px.max(axis=0)) - low + 1
            side = size.max()
            if self.sigma_px > 0.0:
                noise = self.rng.normal(0.0, self.sigma_px, px.shape)
                px = px + noise * (side / self.resolution)
            if self.outlier_rate > 0.0:
                bad = self.rng.uniform(size=n) < self.outlier_rate
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
        if len(gd) == 0 or len(cd) == 0:
            return _empty_matches()
        sims = gd @ cd.T
        # appearance is only comparable inside the view cone
        sims[g_view @ c_view.T < self.cos_max] = -np.inf
        nn = np.argmax(sims, axis=1)
        best = sims[np.arange(len(gd)), nn]
        feasible = np.isfinite(best)
        if not feasible.any():
            return _empty_matches()
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
