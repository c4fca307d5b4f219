"""Global region descriptors.

The retrieval contract is: descriptors are unit vectors, ranked by dot
product, computed after pad-and-resize scale normalization so that the same
object seen at different distances lands on nearly the same descriptor.

The backend here aggregates the fixed per-point descriptors of the
simulator's feature images holistically, combining global and local
structure: a whole-crop pooled block (a randomized histogram of the point
identities, robust to viewpoint change) is concatenated with per-cell
pooled blocks over a coarse spatial grid of the normalized crop (sensitive
to arrangement, sharpening the ranking among views of one object) and a
soft binned encoding of the observation direction. The concatenation goes
through a fixed seeded random projection and is normalized. Every
setting (dimension, normalized resolution, pooling grid and weight,
observation bins and weight, projection seed) is read from the
PerceptionConfig the backend is built from. Swappable: anything with an
``extract(regions) -> (n, d)`` method, one unit row per region, stands in.

A batch is pooled region by region and projected at once: its inputs are
the rows of one matrix, so the projection matrix is streamed once per
batch (one GEMM) rather than once per region. A one-region batch is the
same vector-matrix product as projecting that region alone.

Pooling is count-weighted over distinct (feature, cell) pairs: the filled
samples of the normalized grid repeat each visible feature many times, so
each distinct feature's point descriptor is looked up once, in one gather
from the library's descriptor column, and the cell sums are one
(cells x features) count matrix times those descriptors; the whole-crop
block is the sum of the cell blocks.
"""

from __future__ import annotations

import numpy as np

from ..errors import EmptyRegion
from .regions import ObjectRegion


class GridPooledDescriptor:
    """The descriptor backend of ``library``, with the dimension, pooling,
    observation encoding and projection seed of ``config``, a
    PerceptionConfig."""

    def __init__(self, library, config):
        self.library = library
        self.config = config
        d_pt = library.point_descriptors.shape[1]
        in_dim = d_pt + config.pool_grid * config.pool_grid * d_pt + config.obs_bins
        rng = np.random.default_rng(config.projection_seed)
        self.projection = rng.normal(size=(in_dim, config.descriptor_dim)) / np.sqrt(in_dim)
        self._bin_centers = 2.0 * np.pi * np.arange(config.obs_bins) / config.obs_bins

    def _pooled_appearance(self, region: ObjectRegion) -> np.ndarray:
        res, g = self.config.norm_resolution, self.config.pool_grid
        rr, cc = region.crop.pad_map(res).source_index_grid()
        hits = region.crop.hits_at(rr, cc)
        hit = hits >= 0
        if not hit.any():
            raise EmptyRegion("region mask has no filled pixels")
        rows, cols = np.nonzero(hit)
        step = res // g
        key = region.crop.feature_ids[hits[hit]] * (g * g) + (rows // step) * g + cols // step
        pairs, counts = np.unique(key, return_counts=True)
        features, column = np.unique(pairs // (g * g), return_inverse=True)
        weights = np.zeros((g * g, len(features)))
        weights[pairs % (g * g), column] = counts
        cells = weights @ self.library.descriptors_for(features)

        whole = cells.sum(axis=0)
        whole /= np.linalg.norm(whole)

        cells = cells.ravel()
        cells *= self.config.grid_weight / np.linalg.norm(cells)
        return np.concatenate([whole, cells])

    def _obs_encoding(self, obs_dir: np.ndarray) -> np.ndarray:
        az = np.arctan2(obs_dir[1], obs_dir[0])
        enc = np.maximum(0.0, np.cos(az - self._bin_centers)) ** 2
        n = np.linalg.norm(enc)
        return (enc / n if n > 0 else enc) * self.config.obs_weight

    def extract(self, regions: list[ObjectRegion]) -> np.ndarray:
        """The unit descriptors of ``regions``, one row per region."""
        in_dim = self.projection.shape[0]
        n_app = in_dim - self.config.obs_bins
        x = np.empty((len(regions), in_dim))
        for row, region in zip(x, regions):
            if region.obs_dir is None:
                raise ValueError("observation direction must be set before the descriptor")
            row[:n_app] = self._pooled_appearance(region)
            row[n_app:] = self._obs_encoding(region.obs_dir)
        y = x @ self.projection
        for row in y:
            # a row's own norm keeps a one-region batch's bits
            row /= np.linalg.norm(row)
        return y
