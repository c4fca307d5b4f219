"""Local 2D-2D matching between a goal region crop and a candidate region
crop, both expressed at a common matching resolution (pad to square, resize).

A surface point is matchable across two observations only when the two
viewing directions, expressed in the object's local frame, agree within a
cone (``max_view_angle_deg``). This models how appearance-based matchers
degrade under viewpoint change: a feature seen from the object's far side
cannot be matched, no matter that it is nominally the same surface point.

Backends:
    FeatureIdMatcher   pairs view-compatible pixels that observe the same
                       model surface point, then corrupts the pairs: a drop
                       rate, Gaussian noise on the goal-side coordinates,
                       and uniform outlier replacement. Noise parameters
                       are in matching-resolution pixels, where a learned
                       matcher would err.
    DescriptorNNMatcher mutual nearest neighbor over the per-pixel point
                       descriptors with a ratio test; no ground-truth ids,
                       same view-compatibility physics.

Both return coordinates in the matching-resolution frame; lift_to_3d maps
them back to source-image coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coords import crop_matching_coords


@dataclass
class Correspondences2D:
    goal_px: np.ndarray  # (N,2) matching-resolution coords
    cand_px: np.ndarray  # (N,2)

    def __len__(self) -> int:
        return len(self.goal_px)


def _empty_matches() -> Correspondences2D:
    return Correspondences2D(np.empty((0, 2)), np.empty((0, 2)))


class FeatureIdMatcher:
    """Reads ``drop_rate``, ``sigma_px``, ``outlier_rate`` and
    ``max_view_angle_deg`` from a ``LocalizationConfig``."""

    def __init__(self, config, rng=None):
        self.drop_rate = config.drop_rate
        self.sigma_px = config.sigma_px
        self.outlier_rate = config.outlier_rate
        if rng is None and max(self.drop_rate, self.sigma_px, self.outlier_rate) > 0.0:
            raise ValueError("FeatureIdMatcher: drop, noise or outliers need an rng")
        self.cos_max = np.cos(np.radians(config.max_view_angle_deg))
        self.rng = rng

    def match(self, goal_crop, cand_crop, resolution: int) -> Correspondences2D:
        g_ids, g_xy, g_view = crop_matching_coords(goal_crop, resolution)
        c_ids, c_xy, c_view = crop_matching_coords(cand_crop, resolution)
        _, gi, ci = np.intersect1d(g_ids, c_ids, return_indices=True)
        if len(gi) == 0:
            return _empty_matches()
        compatible = np.einsum("ij,ij->i", g_view[gi], c_view[ci]) >= self.cos_max
        goal = g_xy[gi][compatible]
        cand = c_xy[ci][compatible]
        n = len(goal)
        if n and self.drop_rate > 0.0:
            keep = self.rng.uniform(size=n) >= self.drop_rate
            goal, cand = goal[keep], cand[keep]
            n = len(goal)
        if n and self.sigma_px > 0.0:
            goal = goal + self.rng.normal(0.0, self.sigma_px, goal.shape)
        if n and self.outlier_rate > 0.0:
            bad = self.rng.uniform(size=n) < self.outlier_rate
            goal = goal.copy()
            goal[bad] = self.rng.uniform(-0.5, resolution - 0.5, (int(bad.sum()), 2))
        return Correspondences2D(goal, cand)


class DescriptorNNMatcher:
    """Reads ``ratio_test``, ``max_matches`` and ``max_view_angle_deg``
    from a ``LocalizationConfig``."""

    def __init__(self, library, config):
        self.library = library
        self.ratio = config.ratio_test
        self.max_points = config.max_matches
        self.cos_max = np.cos(np.radians(config.max_view_angle_deg))

    def _features(self, crop, resolution):
        ids, xy, view = crop_matching_coords(crop, resolution)
        if len(ids) > self.max_points:
            stride = int(np.ceil(len(ids) / self.max_points))
            ids, xy, view = ids[::stride], xy[::stride], view[::stride]
        return self.library.descriptors_for(ids), xy, view

    def match(self, goal_crop, cand_crop, resolution: int) -> Correspondences2D:
        gd, g_xy, g_view = self._features(goal_crop, resolution)
        cd, c_xy, c_view = self._features(cand_crop, resolution)
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
        return Correspondences2D(g_xy[ok], c_xy[nn[ok]])
