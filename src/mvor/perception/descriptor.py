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
through a fixed seeded random projection and is normalized. The backend
draws its projection in place when it is built, bit for bit the
``rng.normal(size=(in_dim, descriptor_dim)) / sqrt(in_dim)`` of its seed,
with no temporary array. Every
setting (dimension, normalized resolution, pooling grid and weight,
observation bins and weight, projection seed) is read from the
PerceptionConfig the backend is built from. Swappable: anything with an
``extract(regions) -> (n, d)`` method, one unit row per region, stands in.

Pooling sums one point descriptor per filled sample of the normalized grid
into the sample's cell, and a batch pools all its regions in one sparse
product. The grid samples rows and columns independently: each grid row
reads one crop row, each grid column one crop column. So the number of
samples of cell (a, b) that land on the hit at crop pixel (r, c) is
``R[a, r] * C[b, c]``, where ``R[a, r]`` counts the grid rows of cell row
``a`` that read crop row ``r`` and ``C`` likewise the columns; no grid of
samples is built. These counts are the entries of one (regions x cells,
library points) matrix, stored by column, which multiplies the library's
point-descriptor column once per batch. A product by columns reads each
library row once and adds it into every cell that sees it, so each cell sum
runs over library rows in ascending order whatever else is in the batch: a
region pools to the same bits alone or in any batch. The whole-crop block is
the sum of the cell blocks.

The pooled blocks are the rows of one matrix, projected at once: the
projection matrix is streamed once per batch (one GEMM) rather than once per
region. A one-region batch is the same vector-matrix product as projecting
that region alone.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..errors import EmptyRegion
from ..serialize import config_sized_empty
from .regions import ObjectRegion


def _line_counts(lengths: np.ndarray, sides: np.ndarray, resolution: int, grid: int):
    """How the grid lines of one axis read the crop lines of a batch.

    ``lengths`` are the crops' extents along the axis and ``sides`` their
    padded square sides. The normalized grid has ``resolution`` lines, cut
    into ``grid`` cells of equal width; each line reads the nearest line of
    the padded, resized crop, or padding. The crop lines of the batch are
    laid end to end, region by region; crop line ``l`` is read by
    ``count[starts[l]:starts[l + 1]]`` grid lines of cells
    ``cell[starts[l]:starts[l + 1]]``. Returns ``(starts, cell, count)``.
    """
    pad = (sides - lengths) // 2
    scale = resolution / sides
    line = np.arange(resolution)
    source = np.floor((line + 0.5) / scale[:, None] - pad[:, None]).astype(np.int64)
    inside = (source >= 0) & (source < lengths[:, None])
    key = (_firsts(lengths)[:, None] + source) * grid + line // (resolution // grid)
    counts = np.bincount(key[inside], minlength=int(lengths.sum()) * grid)
    nonzero = np.flatnonzero(counts)
    starts = np.searchsorted(nonzero, np.arange(len(counts) + 1, step=grid))
    return starts, nonzero % grid, counts[nonzero]


def _firsts(lengths: np.ndarray) -> np.ndarray:
    """Where each of a run of blocks of ``lengths`` starts."""
    return np.cumsum(lengths) - lengths


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices ``starts[i] .. starts[i] + lengths[i] - 1`` of every
    ``i``, laid end to end, each with the ``i`` it belongs to: ``(owner,
    index)``."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    index = np.arange(len(owner)) + (starts - _firsts(lengths))[owner]
    return owner, index


class GridPooledDescriptor:
    """The descriptor backend of ``library``, with the dimension, pooling,
    observation encoding and projection seed of ``config``, a
    PerceptionConfig. A projection the machine cannot hold raises
    ConfigParseError."""

    def __init__(self, library, config):
        self.library = library
        self.config = config
        d_pt = library.point_descriptors.shape[1]
        # one row per input (the whole-crop block, the cell blocks, the
        # observation bins), one column per descriptor dimension
        in_dim = d_pt + config.pool_grid * config.pool_grid * d_pt + config.obs_bins
        self.projection = config_sized_empty(
            (in_dim, config.descriptor_dim),
            f"the descriptor projection ({in_dim} rows from sim.point_descriptor_dim {d_pt} "
            f"and perception.pool_grid {config.pool_grid}, perception.descriptor_dim "
            f"{config.descriptor_dim} columns)",
        )
        rng = np.random.default_rng(config.projection_seed)
        rng.standard_normal(out=self.projection)
        # normal() adds its loc 0.0, which turns a -0.0 draw into 0.0
        self.projection += 0.0
        self.projection /= np.sqrt(in_dim)
        self._bin_centers = 2.0 * np.pi * np.arange(config.obs_bins) / config.obs_bins

    def _sample_counts(self, regions: list[ObjectRegion], slots: int) -> sparse.csc_matrix:
        """The (regions * slots, library points) matrix whose entry
        (k slots + 1 + a g + b, p) counts the samples of grid cell (a, b) of
        region ``k`` that land on its hit of library point ``p``; region
        ``k``'s other rows are empty. Raises EmptyRegion if no sample of
        some region lands on a hit."""
        res, g = self.config.norm_resolution, self.config.pool_grid
        shapes = np.array([r.crop.shape for r in regions])
        sides = shapes.max(axis=1)
        row_starts, row_cell, row_count = _line_counts(shapes[:, 0], sides, res, g)
        col_starts, col_cell, col_count = _line_counts(shapes[:, 1], sides, res, g)

        region = np.repeat(np.arange(len(regions)), [len(r.crop.rows) for r in regions])
        row = np.concatenate([r.crop.rows for r in regions]) + _firsts(shapes[:, 0])[region]
        col = np.concatenate([r.crop.cols for r in regions]) + _firsts(shapes[:, 1])[region]
        points = np.concatenate([r.crop.feature_ids for r in regions])
        # hits in library-row order, ties in batch order: the entries come
        # out column by column. Each hit array is dropped once read, as these
        # arrays set the peak memory of a batch.
        order = np.argsort(points, kind="stable")
        region, row, col, points = region[order], row[order], col[order], points[order]
        del order
        # a hit's entries: each cell row whose grid rows read its crop row,
        # by each cell column whose grid columns read its crop column
        hit, i_row = _ranges(row_starts[row], np.diff(row_starts)[row])
        del row
        col = col[hit]
        entry, i_col = _ranges(col_starts[col], np.diff(col_starts)[col])
        del col
        hit, i_row = hit[entry], i_row[entry]
        del entry
        region = region[hit]
        if not np.bincount(region, minlength=len(regions)).all():
            raise EmptyRegion("region mask has no filled pixels")
        cells = region * slots + 1 + row_cell[i_row] * g + col_cell[i_col]
        data = (row_count[i_row] * col_count[i_col]).astype(float)
        n_points = len(self.library.point_descriptors)
        indptr = np.searchsorted(points[hit], np.arange(n_points + 1))
        return sparse.csc_matrix(
            (data, cells.astype(np.int32), indptr.astype(np.int32)),
            shape=(len(regions) * slots, n_points),
        )

    def _obs_encoding(self, obs_dir: np.ndarray) -> np.ndarray:
        az = np.arctan2(obs_dir[1], obs_dir[0])
        enc = np.maximum(0.0, np.cos(az - self._bin_centers)) ** 2
        n = np.linalg.norm(enc)
        return (enc / n if n > 0 else enc) * self.config.obs_weight

    def _inputs(self, regions: list[ObjectRegion]) -> np.ndarray:
        """The projection inputs of ``regions``, one row per region: the
        normalized whole-crop block, the cell blocks scaled to norm
        ``grid_weight``, and the observation encoding."""
        if any(region.obs_dir is None for region in regions):
            raise ValueError("observation direction must be set before the descriptor")
        in_dim = self.projection.shape[0]
        if not regions:
            return np.empty((0, in_dim))
        d_pt = self.library.point_descriptors.shape[1]
        n_app = in_dim - self.config.obs_bins
        # the product is the input: a region's slots of d_pt columns hold its
        # whole-crop block, its cells, then its observation encoding, and x
        # reads each region's first in_dim columns
        slots = -(-in_dim // d_pt)
        pooled = self._sample_counts(regions, slots) @ self.library.point_descriptors
        pooled = pooled.reshape(len(regions), slots, d_pt)
        pooled[:, 1 : n_app // d_pt].sum(axis=1, out=pooled[:, 0])
        x = pooled.reshape(len(regions), slots * d_pt)[:, :in_dim]
        for row, region in zip(x, regions):
            whole, grid = row[:d_pt], row[d_pt:n_app]
            whole /= np.linalg.norm(whole)
            grid *= self.config.grid_weight / np.linalg.norm(grid)
            row[n_app:] = self._obs_encoding(region.obs_dir)
        return x

    def extract(self, regions: list[ObjectRegion]) -> np.ndarray:
        """The unit descriptors of ``regions``, one row per region."""
        y = self._inputs(regions) @ self.projection
        for row in y:
            # a row's own norm keeps a one-region batch's bits
            row /= np.linalg.norm(row)
        return y
