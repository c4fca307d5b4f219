"""Global region descriptors.

The retrieval contract is: descriptors are unit vectors, ranked by dot
product, and a region scores highest against the regions of the same
object that see the same points.

A region's descriptor is its pooled point codes: the normalized sum of the
model library's point descriptors over the region's feature ids. The point
descriptors are independent random unit vectors, so those of distinct
points are nearly orthogonal and the sum is a bag-of-words vector over the
library's points (Sivic & Zisserman, "Video Google", ICCV 2003). The dot
product of two regions' descriptors is then about the share of points
both see: high for overlapping views of one object, near zero across
objects. No crop is resized: the sum reads each hit once, whatever the
crop's extent in pixels. The width is the library's,
``sim.point_descriptor_dim``, and the backend has no settings of its own.

Each sum runs over a region's feature ids in ascending order, so a
region's descriptor has the same bits alone, in any batch, and whatever
the order of its hits.

The class keeps the name of the grid-pooled backend it replaced, under
which ``perfbench/spans.py`` times ``GridPooledDescriptor.extract``.
Swappable: anything with an ``extract(regions) -> (n, d)`` method, one unit
row per region, stands in.
"""

from __future__ import annotations

import numpy as np

from .regions import ObjectRegion


class GridPooledDescriptor:
    """The descriptor backend of ``library``, a ModelLibrary."""

    def __init__(self, library):
        self.library = library

    def extract(self, regions: list[ObjectRegion]) -> np.ndarray:
        """The unit descriptors of ``regions``, one row per region: the
        normalized sum of the library's point descriptors at the region's
        feature ids, taken in ascending id order. A region without hits
        raises ValueError: its sum has no direction."""
        codes = self.library.point_descriptors
        out = np.empty((len(regions), codes.shape[1]))
        for row, region in zip(out, regions):
            ids = region.crop.feature_ids
            if not len(ids):
                raise ValueError("a region without hits has no descriptor")
            codes[np.sort(ids)].sum(axis=0, out=row)
            row /= np.linalg.norm(row)
        return out
