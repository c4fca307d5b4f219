"""Object regions: one segmented observation of one object in one frame.

A region keeps the tight crop of the feature image under its mask (the
segmentation), the world-frame point cloud back-projected from the frame's
masked hits, the observing viewpoint, and later gains a global descriptor
and an observation direction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..geometry import Pose3, back_project_pixels, invert

log = logging.getLogger(__name__)


class SquarePadMap:
    """Coordinate bookkeeping for pad-to-square + resize normalization.

    Maps between crop-local continuous coordinates (x right, y down, pixel
    centers at integers) and the normalized resolution x resolution grid.
    """

    def __init__(self, h: int, w: int, resolution: int):
        self.h, self.w, self.resolution = h, w, resolution
        self.side = max(h, w)
        self.pad_top = (self.side - h) // 2
        self.pad_left = (self.side - w) // 2
        self.scale = resolution / self.side

    def to_norm(self, xy: np.ndarray) -> np.ndarray:
        """Crop-local (x, y) -> normalized-grid (x, y); shape (...,2)."""
        xy = np.asarray(xy, dtype=float)
        out = np.empty_like(xy)
        out[..., 0] = (xy[..., 0] + self.pad_left + 0.5) * self.scale - 0.5
        out[..., 1] = (xy[..., 1] + self.pad_top + 0.5) * self.scale - 0.5
        return out

    def from_norm(self, xy: np.ndarray) -> np.ndarray:
        xy = np.asarray(xy, dtype=float)
        out = np.empty_like(xy)
        out[..., 0] = (xy[..., 0] + 0.5) / self.scale - 0.5 - self.pad_left
        out[..., 1] = (xy[..., 1] + 0.5) / self.scale - 0.5 - self.pad_top
        return out

    def source_index_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest source pixel per normalized-grid cell: (rows, cols, valid)."""
        g = np.arange(self.resolution)
        src_c = np.floor((g + 0.5) / self.scale - self.pad_left).astype(int)
        src_r = np.floor((g + 0.5) / self.scale - self.pad_top).astype(int)
        rr = np.repeat(src_r, self.resolution).reshape(self.resolution, self.resolution)
        cc = np.tile(src_c, self.resolution).reshape(self.resolution, self.resolution)
        valid = (rr >= 0) & (rr < self.h) & (cc >= 0) & (cc < self.w)
        return rr, cc, valid


@dataclass
class RegionCrop:
    """Tight crop of a frame under one mask. Out-of-mask pixels carry
    feature id -1 and NaN geometry."""

    row0: int
    col0: int
    feature_ids: np.ndarray  # (h,w) int64
    px: np.ndarray  # (h,w,2) exact (u,v) in the source image
    depth: np.ndarray  # (h,w)
    world: np.ndarray  # (h,w,3)
    view_local: np.ndarray  # (h,w,3) object-local viewing direction

    @property
    def shape(self) -> tuple[int, int]:
        return self.feature_ids.shape

    @property
    def mask(self) -> np.ndarray:
        return self.feature_ids >= 0

    def pad_map(self, resolution: int) -> SquarePadMap:
        h, w = self.shape
        return SquarePadMap(h, w, resolution)


@dataclass
class ObjectRegion:
    crop: RegionCrop
    cloud: np.ndarray  # (N,3) world frame
    viewpoint: Pose3
    frame_id: int
    source_instance: int  # segmenter label; diagnostics and tests only
    descriptor: np.ndarray | None = None
    obs_dir: np.ndarray | None = None

    @property
    def cloud_centroid(self) -> np.ndarray:
        return self.cloud.mean(axis=0)


def extract_regions(frame, masks, config) -> list[ObjectRegion]:
    """Cut one ObjectRegion per mask out of a frame.

    Masks are boolean masks over the frame's hits. The crop spans the masked
    hits' bounding box; the cloud is the back-projection of every masked hit
    through the frame's viewpoint, in the hits' row-major order, strided
    down to at most ``config.cloud_cap`` points when that is set. Masks
    with fewer than ``config.min_region_points`` hits are dropped.
    Descriptor and observation direction are left unset.
    """
    w2c = invert(frame.viewpoint)
    regions = []
    for label, mask in masks:
        count = int(np.count_nonzero(mask))
        if count < config.min_region_points:
            log.debug(
                "dropping region (label %s): %d px < %d", label, count, config.min_region_points
            )
            continue
        rr, cc = frame.rows[mask], frame.cols[mask]
        r0, c0 = rr.min(), cc.min()
        shape = (int(rr.max() - r0 + 1), int(cc.max() - c0 + 1))
        at = (rr - r0, cc - c0)
        uv, depth = frame.px[mask], frame.depth[mask]
        cloud = back_project_pixels(frame.intrinsics, w2c, uv, depth)
        crop = RegionCrop(
            int(r0),
            int(c0),
            _scatter(shape, at, frame.feature_ids[mask], -1),
            _scatter(shape, at, uv, np.nan),
            _scatter(shape, at, depth, np.nan),
            _scatter(shape, at, cloud, np.nan),
            _scatter(shape, at, frame.view_local[mask], np.nan),
        )
        if config.cloud_cap and len(cloud) > config.cloud_cap:
            stride = int(np.ceil(len(cloud) / config.cloud_cap))
            cloud = cloud[::stride]
        regions.append(
            ObjectRegion(
                crop=crop,
                cloud=cloud,
                viewpoint=frame.viewpoint,
                frame_id=frame.frame_id,
                source_instance=int(label),
            )
        )
    return regions


def _scatter(shape, at, values: np.ndarray, fill) -> np.ndarray:
    """A crop-sized array holding ``values`` at the pixels ``at`` and
    ``fill`` elsewhere."""
    out = np.full(shape + values.shape[1:], fill, dtype=values.dtype)
    out[at] = values
    return out
