"""Object regions: one segmented observation of one object in one frame.

A region keeps the frame's hits that its selector picks (the
segmentation), in the frame's order, which is row-major within one
instance's run: each hit's feature id, exact projection, world point
back-projected through the frame's viewpoint and object-local viewing
direction. It also keeps the observing viewpoint, and later gains a
global descriptor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..geometry import Pose3, back_project_pixels, invert

log = logging.getLogger(__name__)


@dataclass
class ObjectRegion:
    """The hits of one region, in the frame's order, and the viewpoint
    that saw them."""

    feature_ids: np.ndarray  # (n,) int64
    px: np.ndarray  # (n,2) exact (u,v) in the source image
    world: np.ndarray  # (n,3) back-projected world point
    view_local: np.ndarray  # (n,3) object-local viewing direction
    viewpoint: Pose3
    source_instance: int  # ground-truth instance label; diagnostics and tests only
    descriptor: np.ndarray | None = None

    @property
    def centroid(self) -> np.ndarray:
        """Mean world point of the region's hits."""
        return self.world.mean(axis=0)


def extract_regions(frame, selections, config) -> list[ObjectRegion]:
    """Cut one ObjectRegion per ``(label, selector)`` pair out of a frame.

    A selector picks the region's hits out of the frame's arrays by plain
    numpy indexing: a slice, as ``segment`` gives for the run of one
    instance's hits, or a boolean mask over the hits. Under a slice every
    field of the region is a view, with no copy. The region keeps the
    selected hits, each with its world point back-projected through the
    frame's viewpoint. Selections with fewer than ``config.min_region_points``
    hits are dropped. The descriptor is left unset.

    Every hit is back-projected once, in one product over the frame. A row
    of that product has the same bits as in a product over the region's
    hits alone, except for a single hit, whose one-row product takes
    another BLAS path (a matrix-vector product): a one-hit region is
    back-projected on its own.
    """
    w2c = invert(frame.viewpoint)
    world = back_project_pixels(frame.intrinsics, w2c, frame.px, frame.depth)
    regions = []
    for label, sel in selections:
        feature_ids = frame.feature_ids[sel]
        n = len(feature_ids)
        if n < config.min_region_points:
            log.debug("dropping region (label %s): %d px < %d", label, n, config.min_region_points)
            continue
        uv = frame.px[sel]
        regions.append(
            ObjectRegion(
                feature_ids=feature_ids,
                px=uv,
                world=(
                    world[sel]
                    if n > 1
                    else back_project_pixels(frame.intrinsics, w2c, uv, frame.depth[sel])
                ),
                view_local=frame.view_local[sel],
                viewpoint=frame.viewpoint,
                source_instance=int(label),
            )
        )
    return regions
