"""Simulator configuration. One SimConfig fully determines the model
library; with a scene's seed it determines the scene and every frame
rendered of it."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..geometry import CameraIntrinsics, Pose3, look_at
from ..serialize import ConfigSection, setting

ROTATION_REGIMES = ("minor", "full")
# the largest object count: the renderer's instance ids are int32
# placement indices
MAX_OBJECT_COUNT = np.iinfo(np.int32).max
# the largest ring and home camera radius, in metres
MAX_CAMERA_RADIUS = 100.0
# the largest table width and depth, in metres: the widest ring's
# diameter, past which the table holds objects no camera looks at; a side
# near the float maximum overflows in projection
MAX_TABLE_SIDE = 2 * MAX_CAMERA_RADIUS
# the largest actuation noise, one sigma for yaw (radians) and position
# (metres): a 1 rad (57 deg) yaw sigma already throws every placement far
# off its goal, and noise near the float maximum overflows the planar error
MAX_ACTUATION_SIGMA = 1.0
# the largest image width and height, in pixels: a row-major pixel index
# (rows * width + cols) then stays below 2**40, far inside the renderer's
# int64, where a side near 2**32 overflows it
MAX_IMAGE_SIDE = 1 << 20
# the fewest points per model, from which on every model has exactly
# model_points points. A model splits its T points over its faces by
# rounded area share, the top taking the rest, which falls below 1 only if
# the others' rounded shares reach T. Each rounding adds at most 0.5, and the
# top's share is at least 0.1239 for an L-prism (6 sides before it), 0.135
# for a box (4) and 0.135 for a cylinder (1) over the dimensions models.py
# draws: T * 0.1239 <= 3, T * 0.135 <= 2 or T * 0.135 <= 0.5 would be
# needed. From T = 25 the smallest side also gets 0.96 of a point or more,
# so no face is raised to its floor of one sample.
MIN_MODEL_POINTS = 25


@dataclass(frozen=True)
class SimConfig(ConfigSection):
    # scene content
    object_count_min: int = setting(1, 1, MAX_OBJECT_COUNT)
    object_count_max: int = setting(9, 1, MAX_OBJECT_COUNT)
    # open ranges: a zero-size table makes no scene
    table_width: float = setting(1.0, 0, MAX_TABLE_SIDE, open_range=True)
    table_depth: float = setting(1.0, 0, MAX_TABLE_SIDE, open_range=True)
    min_clearance: float = setting(0.02, 0)  # extra gap between footprint discs
    placement_margin: float = setting(0.10, 0)  # keep-out band along the table edge
    placement_attempts: int = setting(10000, 1)
    # 'minor': +/-60 deg, 'full': +/-180 deg
    rotation_regime: str = setting("full", choices=ROTATION_REGIMES)

    # viewpoints
    # a view is derived per ring step when the config is built: one per
    # degree of azimuth at most
    ring_count: int = setting(8, 1, 360)
    # Open ranges: a zero camera radius makes no view. A camera
    # MAX_CAMERA_RADIUS out sees a 10 cm object at under a pixel at the
    # default focal length, and a radius near the float maximum overflows in
    # projection. An elevation of 0 or below puts the camera at or under the
    # table, and 90 puts it at infinite height (tan of the elevation).
    ring_radius: float = setting(0.85, 0, MAX_CAMERA_RADIUS, open_range=True)
    ring_elevation_deg: float = setting(45.0, 0, 90, open_range=True)
    home_azimuth_deg: float = setting(-90.0, open_range=True)  # any finite angle
    home_radius: float = setting(0.95, 0, MAX_CAMERA_RADIUS, open_range=True)
    home_elevation_deg: float = setting(50.0, 0, 90, open_range=True)

    # camera
    image_width: int = setting(640, 1, MAX_IMAGE_SIDE)
    image_height: int = setting(480, 1, MAX_IMAGE_SIDE)
    focal_px: float = setting(460.0, 0, open_range=True)

    # model library
    library_size: int = setting(12, 1)
    library_seed: int = setting(7, 0)
    model_points: int = setting(1600, MIN_MODEL_POINTS)
    # 1-wide unit codes are +-1, whose sum over a region can be 0
    point_descriptor_dim: int = setting(256, 2)

    # actuation
    actuation_sigma: float = setting(0.0, 0, MAX_ACTUATION_SIGMA)

    def validate(self) -> None:
        if self.object_count_min > self.object_count_max:
            raise ValueError("object count range is empty")
        self.intrinsics  # raises ValueError on a bad focal length or image size
        # look_at raises ValueError for a radius so small that the camera
        # sits at the table centre
        for key, views in (("home_radius", "home_viewpoint"), ("ring_radius", "ring_viewpoints")):
            try:
                getattr(self, views)
            except ValueError as e:
                raise ValueError(f"{key}={getattr(self, key)!r}: {e}") from e

    def yaw_range(self) -> tuple[float, float]:
        if self.rotation_regime == "minor":
            return (-np.pi / 3.0, np.pi / 3.0)
        return (-np.pi, np.pi)

    # the cameras, derived once, by validate; not fields, so to_dict, ==,
    # hash and repr see only the settings
    @cached_property
    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(
            fx=self.focal_px,
            fy=self.focal_px,
            cx=(self.image_width - 1) / 2.0,
            cy=(self.image_height - 1) / 2.0,
            width=self.image_width,
            height=self.image_height,
        )

    def _viewpoint(self, azimuth_deg: float, radius: float, elevation_deg: float) -> Pose3:
        az = np.radians(azimuth_deg)
        eye = np.array(
            [
                radius * np.cos(az),
                radius * np.sin(az),
                radius * np.tan(np.radians(elevation_deg)),
            ]
        )
        return look_at(eye, np.zeros(3))

    @cached_property
    def home_viewpoint(self) -> Pose3:
        return self._viewpoint(self.home_azimuth_deg, self.home_radius, self.home_elevation_deg)

    @cached_property
    def ring_viewpoints(self) -> tuple[Pose3, ...]:
        step = 360.0 / self.ring_count
        return tuple(
            self._viewpoint(k * step, self.ring_radius, self.ring_elevation_deg)
            for k in range(self.ring_count)
        )
