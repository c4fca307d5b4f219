"""Object regions: one segmented observation of one object in one frame.

A region keeps the frame's hits under its mask (the segmentation), in the
frame's row-major order: each hit's feature id, exact projection, world
point back-projected through the frame's viewpoint and object-local
viewing direction, and the bounding box of their pixels. It also keeps
the observing viewpoint, and later gains a global descriptor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..geometry import Pose3, back_project_pixels, invert

log = logging.getLogger(__name__)


@dataclass
class ObjectRegion:
    """The hits of one region, in the frame's row-major order, the
    bounding box of their pixels (origin ``(row0, col0)``, ``shape``
    ``(h, w)``), and the frame that saw them."""

    row0: int
    col0: int
    shape: tuple[int, int]
    feature_ids: np.ndarray  # (n,) int64
    px: np.ndarray  # (n,2) exact (u,v) in the source image
    world: np.ndarray  # (n,3) back-projected world point
    view_local: np.ndarray  # (n,3) object-local viewing direction
    viewpoint: Pose3
    frame_id: int
    source_instance: int  # ground-truth instance label; diagnostics and tests only
    descriptor: np.ndarray | None = None

    @property
    def centroid(self) -> np.ndarray:
        """Mean world point of the region's hits."""
        return self.world.mean(axis=0)


def extract_regions(frame, masks, config) -> list[ObjectRegion]:
    """Cut one ObjectRegion per mask out of a frame.

    Masks are boolean masks over the frame's hits. The region keeps the
    masked hits, each with its world point back-projected through the
    frame's viewpoint, and the bounding box of their pixels. Masks with fewer
    than ``config.min_region_points`` hits are dropped. The descriptor is
    left unset.

    Every hit is back-projected once, in one product over the frame, and
    each mask is cut by its hits' indices. A row of that product has the
    same bits as in a product over the mask's hits alone, except for a
    single hit, whose one-row product takes another BLAS path (a
    matrix-vector product): a one-hit region is back-projected on its own.
    """
    w2c = invert(frame.viewpoint)
    world = back_project_pixels(frame.intrinsics, w2c, frame.px, frame.depth)
    regions = []
    for label, mask in masks:
        idx = np.flatnonzero(mask)
        if len(idx) < config.min_region_points:
            log.debug(
                "dropping region (label %s): %d px < %d", label, len(idx), config.min_region_points
            )
            continue
        rr, cc = frame.rows[idx], frame.cols[idx]
        r0, c0 = rr.min(), cc.min()
        uv = frame.px[idx]
        regions.append(
            ObjectRegion(
                row0=int(r0),
                col0=int(c0),
                shape=(int(rr.max() - r0 + 1), int(cc.max() - c0 + 1)),
                feature_ids=frame.feature_ids[idx],
                px=uv,
                world=(
                    world[idx]
                    if len(idx) > 1
                    else back_project_pixels(frame.intrinsics, w2c, uv, frame.depth[idx])
                ),
                view_local=frame.view_local[idx],
                viewpoint=frame.viewpoint,
                frame_id=frame.frame_id,
                source_instance=int(label),
            )
        )
    return regions
