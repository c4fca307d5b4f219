"""Rigid transforms, planar tabletop motions, pinhole projection and the
spherical viewing-direction distance.

Conventions used project-wide:
    - A viewpoint pose is camera-in-world. The extrinsics passed to
      projection functions are world-to-camera, i.e. ``invert(viewpoint)``.
    - ``compose(a, b)`` applies ``b`` first: ``x -> a(b(x))``.
    - Planar transforms rotate about the world z axis (the table normal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateObservation

__all__ = [
    "Pose3",
    "PlanarTransform",
    "CameraIntrinsics",
    "wrap_angle",
    "rot_z",
    "axis_angle_to_matrix",
    "rotation_angle",
    "compose",
    "invert",
    "lift",
    "planar_compose",
    "planar_invert",
    "pose_yaw",
    "planar_distance",
    "observation_vector",
    "angular_distance",
    "nearest_pixel",
    "back_project_pixels",
    "look_at",
]


def wrap_angle(theta):
    """Wrap an angle in radians into (-pi, pi]."""
    return np.pi - np.mod(np.pi - theta, 2.0 * np.pi)


@dataclass(frozen=True)
class Pose3:
    """Rigid transform in SE(3): ``x_out = rotation @ x_in + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rotation = np.array(self.rotation, dtype=float)
        translation = np.array(self.translation, dtype=float).reshape(3)
        # read-only copies: a frozen pose cannot be moved in place either
        rotation.flags.writeable = translation.flags.writeable = False
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    @property
    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform an (N,3) array (or a single 3-vector): the bits of
        ``points @ rotation.T + translation``. The translation is added a
        column at a time, which is faster than broadcasting a 3-vector over
        the rows (an inner loop of 3 per row) and adds the same terms."""
        out = np.asarray(points, dtype=float) @ self.rotation.T
        for k in range(3):
            out[..., k] += self.translation[k]
        return out


@dataclass(frozen=True)
class PlanarTransform:
    """Rotation about the table normal plus in-plane translation (m)."""

    yaw: float
    tx: float
    ty: float

    def __post_init__(self):
        object.__setattr__(self, "yaw", float(wrap_angle(self.yaw)))
        object.__setattr__(self, "tx", float(self.tx))
        object.__setattr__(self, "ty", float(self.ty))

    @staticmethod
    def identity() -> "PlanarTransform":
        return PlanarTransform(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class CameraIntrinsics:
    """The pinhole camera that renders, back-projects and scores poses;
    pixel centres are integer (``nearest_pixel``), image edges at -0.5."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (0 < self.cx < self.width) or not (0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def project(self, cam: np.ndarray) -> np.ndarray:
        """The (N, 2) pixels of (N, 3) camera-frame points
        (:meth:`project_columns`), at or behind the camera too (callers
        filter on depth)."""
        uv = np.empty((len(cam), 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            self.project_columns(cam, uv[:, 0], uv[:, 1])
        return uv

    def project_columns(self, cam: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
        """Write the pixels ``f * x / z + c`` of (N, 3) camera-frame points
        into the (N,) arrays ``u`` and ``v``, one column at a time (several
        times faster than an (N, 2) broadcast). A point at zero depth
        divides by zero: a caller that passes one silences that in
        ``np.errstate``."""
        z = cam[:, 2]
        for out, k, f, c in ((u, 0, self.fx, self.cx), (v, 1, self.fy, self.cy)):
            np.multiply(cam[:, k], f, out=out)
            np.divide(out, z, out=out)
            np.add(out, c, out=out)

    def constraint_rows(self, uv: np.ndarray) -> np.ndarray:
        """The two rows ``[fx, 0, cx - u]`` and ``[0, fy, cy - v]`` per
        pixel (u, v), interleaved as (2N, 3): a camera-frame point projects
        to the pixel exactly when both rows' dot products with it are 0."""
        rows = np.zeros((len(uv), 2, 3))
        rows[:, 0, 0], rows[:, 1, 1] = self.fx, self.fy
        rows[:, :, 2] = np.array([self.cx, self.cy]) - uv
        return rows.reshape(-1, 3)


def rot_z(yaw: float) -> np.ndarray:
    c, s = np.cos(yaw), np.sin(yaw)
    # 0.0 - s, not -s: rot_z(0.0) is then exactly np.eye(3), with no -0.0
    # (for any other s the two are equal bit for bit)
    return np.array([[c, 0.0 - s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def axis_angle_to_matrix(w: np.ndarray) -> np.ndarray:
    """Rodrigues formula; ``w`` is the rotation vector (axis * angle)."""
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w)
    if theta < 1e-12:
        k = _skew(w)
        return np.eye(3) + k  # first-order term is exact enough below 1e-12
    k = _skew(w / theta)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def _skew(v):
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )


def rotation_angle(r: np.ndarray) -> float:
    """Magnitude of the rotation encoded by a 3x3 rotation matrix, in radians."""
    c = (np.trace(r) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def compose(a: Pose3, b: Pose3) -> Pose3:
    """a after b: ``compose(a, b).apply(x) == a.apply(b.apply(x))``."""
    return Pose3(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def invert(a: Pose3) -> Pose3:
    rt = a.rotation.T
    return Pose3(rt, -rt @ a.translation)


def lift(p: PlanarTransform) -> Pose3:
    """Embed a planar transform in SE(3) (rotation about z, zero lift)."""
    return Pose3(rot_z(p.yaw), np.array([p.tx, p.ty, 0.0]))


def planar_compose(a: PlanarTransform, b: PlanarTransform) -> PlanarTransform:
    """a after b, mirroring :func:`compose` on the lifted poses."""
    c, s = np.cos(a.yaw), np.sin(a.yaw)
    return PlanarTransform(
        a.yaw + b.yaw,
        c * b.tx - s * b.ty + a.tx,
        s * b.tx + c * b.ty + a.ty,
    )


def planar_invert(a: PlanarTransform) -> PlanarTransform:
    c, s = np.cos(a.yaw), np.sin(a.yaw)
    return PlanarTransform(-a.yaw, -(c * a.tx + s * a.ty), -(-s * a.tx + c * a.ty))


def pose_yaw(pose: Pose3) -> float:
    """Rotation of an SE(3) pose about the table normal, in [-pi, pi]; not
    re-wrapped as PlanarTransform does, so reports keep the exact value."""
    return float(np.arctan2(pose.rotation[1, 0], pose.rotation[0, 0]))


def planar_distance(a: PlanarTransform, b: PlanarTransform) -> tuple[float, float]:
    """(|yaw difference| in degrees, wrapped so that adding 2*pi to either
    yaw changes nothing; translation distance in cm). The yaw term is not
    bit-symmetric (``wrap_angle(-w)`` need not be ``-wrap_angle(w)``), so
    every record passes the estimate or final pose first and the truth or
    goal second: argument order is part of the byte contract."""
    dtheta = abs(float(np.degrees(wrap_angle(a.yaw - b.yaw))))
    return dtheta, float(np.hypot(a.tx - b.tx, a.ty - b.ty) * 100.0)


def observation_vector(viewpoint: Pose3, centroid: np.ndarray) -> np.ndarray:
    """Unit vector from a cloud's centroid toward the camera center."""
    v = viewpoint.translation - np.asarray(centroid, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-6:
        raise DegenerateObservation("viewpoint sits on the cloud centroid")
    return v / n


def angular_distance(e1: np.ndarray, e2: np.ndarray) -> float | np.ndarray:
    """Distance between unit viewing directions in spherical coordinates.

    Euclidean norm of (wrapped azimuth difference, polar angle difference);
    lies in [0, pi*sqrt(2)] and is symmetric in its arguments. Directions
    are the last axis and broadcast: two vectors give a float, a stack of
    them gives one distance per row.
    """
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    daz = wrap_angle(np.arctan2(e1[..., 1], e1[..., 0]) - np.arctan2(e2[..., 1], e2[..., 0]))
    dpol = np.arccos(np.clip(e1[..., 2], -1.0, 1.0)) - np.arccos(np.clip(e2[..., 2], -1.0, 1.0))
    d = np.hypot(daz, dpol)
    return float(d) if d.ndim == 0 else d


def nearest_pixel(x: np.ndarray) -> np.ndarray:
    """The integer pixel whose centre is nearest each exact coordinate,
    ``floor(x + 0.5)``: a half rounds up, so -0.5 maps to pixel 0."""
    return np.floor(x + 0.5).astype(np.int64)


def back_project_pixels(
    intr: CameraIntrinsics, world_to_cam: Pose3, uv: np.ndarray, depth: np.ndarray
) -> np.ndarray:
    """Inverse of ``intr.project(world_to_cam.apply(points))`` at known
    depths: (N,2) pixels and (N,) depths -> (N,3) world points."""
    uv = np.asarray(uv, dtype=float)
    depth = np.asarray(depth, dtype=float)
    cam = np.stack(
        [
            (uv[:, 0] - intr.cx) / intr.fx * depth,
            (uv[:, 1] - intr.cy) / intr.fy * depth,
            depth,
        ],
        axis=1,
    )
    return invert(world_to_cam).apply(cam)


def _cross(a, b) -> np.ndarray:
    """``np.cross`` of two 3-vectors, bit for bit: the same products and
    differences in float64, without its array set-up."""
    a0, a1, a2 = (float(x) for x in a)
    b0, b1, b2 = (float(x) for x in b)
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def look_at(eye: np.ndarray, target: np.ndarray) -> Pose3:
    """Camera-in-world pose looking from ``eye`` toward ``target``.

    Camera axes: +z forward, +x right, +y down (image v grows downward).
    An ``eye`` at ``target``, or so near it that the distance underflows
    to 0, gives no direction: ValueError, as does a non-finite one.
    """
    eye, target = np.asarray(eye, dtype=float), np.asarray(target, dtype=float)
    forward = target - eye
    distance = np.linalg.norm(forward)
    if not 0.0 < distance < np.inf:
        raise ValueError(f"a camera at {eye.tolist()} has no direction to {target.tolist()}")
    forward = forward / distance
    right = _cross(forward, (0.0, 0.0, 1.0))
    n = np.linalg.norm(right)
    if n < 1e-9:
        right = np.array([1.0, 0.0, 0.0])
    else:
        right = right / n
    down = _cross(forward, right)
    r = np.stack([right, down, forward], axis=1)
    return Pose3(r, eye)
