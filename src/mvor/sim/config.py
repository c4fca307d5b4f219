"""Simulator configuration. One SimConfig fully determines the model
library; with a scene's seed it determines the scene and every frame
rendered of it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import CameraIntrinsics, Pose3, look_at
from ..serialize import check_bounds

ROTATION_REGIMES = ("minor", "full")
# the largest ring and home camera radius, in metres
MAX_CAMERA_RADIUS = 100.0


@dataclass
class SimConfig:
    # scene content
    object_count_min: int = 1
    object_count_max: int = 9
    table_width: float = 1.0
    table_depth: float = 1.0
    min_clearance: float = 0.02  # extra gap between footprint discs
    placement_margin: float = 0.10  # keep-out band along the table edge
    placement_attempts: int = 10000
    rotation_regime: str = "full"  # 'minor': +/-60 deg, 'full': +/-180 deg

    # viewpoints
    ring_count: int = 8
    ring_radius: float = 0.85
    ring_elevation_deg: float = 45.0
    home_azimuth_deg: float = -90.0
    home_radius: float = 0.95
    home_elevation_deg: float = 50.0

    # camera
    image_width: int = 640
    image_height: int = 480
    focal_px: float = 460.0

    # model library
    library_size: int = 12
    library_seed: int = 7
    model_points: int = 1600
    point_descriptor_dim: int = 256

    # actuation
    actuation_sigma: float = 0.0

    def validate(self) -> None:
        if not (1 <= self.object_count_min <= self.object_count_max):
            raise ValueError("object count range is empty")
        if self.rotation_regime not in ROTATION_REGIMES:
            raise ValueError(f"unknown rotation regime {self.rotation_regime!r}")
        # a view is derived per ring step whenever an instance is built or
        # loaded: one per degree of azimuth at most
        check_bounds(self, {
            "ring_count": (1, 360),
            "library_size": (1, None),
            "library_seed": (0, None),
            "min_clearance": (0, None),
            "placement_margin": (0, None),
            "placement_attempts": (1, None),
            "model_points": (1, None),
            "point_descriptor_dim": (1, None),
            "actuation_sigma": (0, None),
        })
        # open ranges: a zero-size table or zero camera radius makes no scene
        # or view; an elevation of 0 or below puts the camera at or under the
        # table, and 90 puts it at infinite height (tan of the elevation). A
        # camera MAX_CAMERA_RADIUS out sees a 10 cm object at under a pixel
        # at the default focal length, and a radius near the float maximum
        # overflows in projection
        for name, hi in (
            ("table_width", np.inf),
            ("table_depth", np.inf),
            ("ring_radius", MAX_CAMERA_RADIUS),
            ("home_radius", MAX_CAMERA_RADIUS),
            ("ring_elevation_deg", 90),
            ("home_elevation_deg", 90),
        ):
            value = getattr(self, name)
            if not 0 < value < hi:
                raise ValueError(f"{name}={value!r} outside (0, {hi})")
        self.intrinsics()  # raises ValueError on a bad focal length or image size

    def yaw_range(self) -> tuple[float, float]:
        if self.rotation_regime == "minor":
            return (-np.pi / 3.0, np.pi / 3.0)
        return (-np.pi, np.pi)

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

    def home_viewpoint(self) -> Pose3:
        return self._viewpoint(self.home_azimuth_deg, self.home_radius, self.home_elevation_deg)

    def ring_viewpoints(self) -> list[Pose3]:
        step = 360.0 / self.ring_count
        return [
            self._viewpoint(k * step, self.ring_radius, self.ring_elevation_deg)
            for k in range(self.ring_count)
        ]
