"""Multi-view object rearrangement against a deterministic synthetic tabletop.

The library is organized around the pipeline stages:

    geometry       rigid/planar transforms, pinhole camera, viewing directions
    sim            procedural object models, scene generation, rendering,
                   segmentation, pick-and-place execution
    perception     object regions, descriptors, instance association, the
                   hierarchical region database
    localization   retrieval, local matching, planar RANSAC pose estimation
    planner        iterative collision-checked rearrangement execution
    bench          dataset-scale benchmark driver and metrics
    cli            command-line entry points
"""

__version__ = "0.1.0"

from . import geometry  # noqa: F401
from .errors import MvorError  # noqa: F401
