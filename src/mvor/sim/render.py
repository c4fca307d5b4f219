"""Point-splat rendering with a per-pixel z-buffer, plus ground-truth
instance segmentation.

A rendered Frame is the list of z-buffer winners, one hit per covered
pixel, grouped by instance: each instance's hits form one run, the runs
in ascending instance order, and the hits of a run in row-major pixel
order. Each hit keeps the winning point's feature id, instance id, exact
sub-pixel projection and exact depth; its pixel is ``nearest_pixel(px)``.
Back-projecting a hit's stored (u, v, depth) therefore recovers the
point's world position to floating-point precision, which is what makes
the downstream matching and pose-recovery paths testable against exact
ground truth. No full-resolution image is ever allocated: the
segmentation of an instance is the slice of its run, and its region is cut
from the run's hits.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import EmptyFrame
from ..geometry import CameraIntrinsics, Pose3, invert, nearest_pixel, rot_z
from .models import ModelLibrary
from .scene import SceneState


@dataclass
class Frame:
    """The z-buffer winners of one view, one entry per hit pixel, grouped
    by instance id in ascending order and, within one instance's run,
    sorted by the row-major index of the pixel ``nearest_pixel(px)``."""

    feature_ids: np.ndarray  # (n,) int64 library row of the winning point
    instance_ids: np.ndarray  # (n,) int32 index of its object in the scene
    px: np.ndarray  # (n,2) float64 exact (u,v) of the winning point
    depth: np.ndarray  # (n,) float64 camera-frame z
    view_local: np.ndarray  # (n,3) unit point->camera direction in the
    # observed object's local frame; appearance similarity proxy for matchers
    viewpoint: Pose3  # camera-in-world
    intrinsics: CameraIntrinsics


def empty_frame(viewpoint: Pose3, intr: CameraIntrinsics) -> Frame:
    """A frame with no hits."""
    return Frame(
        feature_ids=np.empty(0, dtype=np.int64),
        instance_ids=np.empty(0, dtype=np.int32),
        px=np.empty((0, 2)),
        depth=np.empty(0),
        view_local=np.empty((0, 3)),
        viewpoint=viewpoint,
        intrinsics=intr,
    )


class _PosedScene(NamedTuple):
    """Every placement's model points in the world, concatenated in
    placement order."""

    points: np.ndarray  # (P,3) world point
    columns: np.ndarray  # (3,P) the same points' x, y and z, each contiguous
    normals: np.ndarray  # (P,3) world normal
    feature_ids: np.ndarray  # (P,) int64 library row
    instance_ids: np.ndarray  # (P,) int32 placement index
    rotations: list  # per placement, its rot_z (object-local -> world)


def _pose(scene: SceneState, library: ModelLibrary) -> _PosedScene:
    offsets = library.point_offsets
    spans = [(offsets[p.model_id], offsets[p.model_id + 1]) for p in scene.placements]
    ends = np.cumsum([0, *(stop - start for start, stop in spans)])
    points, normals = np.empty((ends[-1], 3)), np.empty((ends[-1], 3))
    feature_ids = np.empty(ends[-1], dtype=np.int64)
    rotations = []
    for placement, (start, stop), a, b in zip(scene.placements, spans, ends[:-1], ends[1:]):
        rz = rot_z(placement.pose.yaw)
        np.matmul(library.points[start:stop], rz.T, out=points[a:b])
        points[a:b] += np.array([placement.pose.tx, placement.pose.ty, 0.0])
        np.matmul(library.normals[start:stop], rz.T, out=normals[a:b])
        feature_ids[a:b] = np.arange(start, stop)
        rotations.append(rz)
    return _PosedScene(
        points=points,
        columns=np.ascontiguousarray(points.T),
        normals=normals,
        feature_ids=feature_ids,
        instance_ids=np.repeat(np.arange(len(spans), dtype=np.int32), np.diff(ends)),
        rotations=rotations,
    )


def _winners(flat: np.ndarray, z: np.ndarray, fid: np.ndarray) -> np.ndarray:
    """The candidate that wins each pixel, in row-major pixel order: the
    nearest depth, then the smaller feature id, then the earlier candidate
    (candidates come in placement order).

    Distinct depths make (pixel, depth rank) a unique key, so one unstable
    sort of the key packed into an int64 orders the candidates as the
    stable three-key sort would. Exactly equal depths need that sort, and
    so does a pixel index too large to pack beside the rank.
    """
    n = len(z)
    bits = n.bit_length()
    by_depth = np.argsort(z)
    z_sorted = z[by_depth]
    if np.any(z_sorted[1:] == z_sorted[:-1]) or flat.max() >= 1 << (63 - bits):
        order = np.lexsort((fid, z, flat))
        flat_sorted = flat[order]
    else:
        key = np.sort((flat[by_depth] << bits) | np.arange(n))
        order = by_depth[key & ((1 << bits) - 1)]
        flat_sorted = key >> bits
    first = np.ones(n, dtype=bool)
    first[1:] = flat_sorted[1:] != flat_sorted[:-1]
    return order[first]


def _render_view(posed: _PosedScene, viewpoint: Pose3, intr: CameraIntrinsics) -> Frame:
    # point->camera vectors, written a column at a time: each element is
    # the one subtraction a broadcast over the rows would make
    cam_center = viewpoint.translation
    to_cam = np.empty_like(posed.points)
    for k in range(3):
        np.subtract(cam_center[k], posed.columns[k], out=to_cam[:, k])
    facing = np.flatnonzero(np.einsum("ij,ij->i", to_cam, posed.normals) > 0.0)

    # project_points, with the translation added and the pixel found one
    # contiguous column at a time; take gathers the rows several times
    # faster than fancy indexing does
    w2c = invert(viewpoint)
    cam = posed.points.take(facing, axis=0) @ w2c.rotation.T
    z = cam[:, 2] + w2c.translation[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intr.fx * (cam[:, 0] + w2c.translation[0]) / z + intr.cx
        v = intr.fy * (cam[:, 1] + w2c.translation[1]) / z + intr.cy
    ok = (
        (z > 1e-6)
        & (u >= -0.5)
        & (u < intr.width - 0.5)
        & (v >= -0.5)
        & (v < intr.height - 0.5)
    )
    if not ok.any():
        raise EmptyFrame("no model points project into the image")
    cand = facing[ok]
    u, v, z = u[ok], v[ok], z[ok]
    fid = posed.feature_ids[cand]
    win = _winners(nearest_pixel(v) * intr.width + nearest_pixel(u), z, fid)

    # group the winners by instance, each run in row-major pixel order
    inst = posed.instance_ids[cand[win]]
    by_inst = np.argsort(inst, kind="stable")
    win, inst = win[by_inst], inst[by_inst]

    # unit point->camera rays, a column at a time: np.linalg.norm sums a
    # row's three squares left to right, as the column sum below does
    hit = cand[win]
    dx, dy, dz = (cam_center[k] - posed.columns[k][hit] for k in range(3))
    norm = np.sqrt(dx * dx + dy * dy + dz * dz)
    rays = np.stack([dx / norm, dy / norm, dz / norm], axis=1)
    # viewing directions, one world->object-local product per instance run;
    # a run keeps its size, so a one-hit run stays a one-row product
    view = np.empty_like(rays)
    runs = np.searchsorted(inst, np.arange(len(posed.rotations) + 1))
    for idx, (start, stop) in enumerate(zip(runs[:-1], runs[1:])):
        if start < stop:
            view[start:stop] = rays[start:stop] @ posed.rotations[idx]

    return Frame(
        feature_ids=fid[win],
        instance_ids=inst,
        px=np.stack([u[win], v[win]], axis=1),
        depth=z[win],
        view_local=view,
        viewpoint=viewpoint,
        intrinsics=intr,
    )


def render(
    scene: SceneState,
    viewpoints: Sequence[Pose3],
    intr: CameraIntrinsics,
    library: ModelLibrary,
) -> list[Frame]:
    """Render all model points visible from each of ``viewpoints``: one
    Frame per viewpoint, in order; a frame's number is its list position.

    A point is visible iff its outward normal faces the camera and it wins
    the z-buffer at its pixel; occlusion between objects emerges from the
    depth comparison. The placements are posed once for all the views.
    Raises EmptyFrame when nothing projects into a view's image.
    """
    posed = _pose(scene, library)
    return [_render_view(posed, vp, intr) for vp in viewpoints]


def segment(frame: Frame) -> list[tuple[int, slice]]:
    """Ground-truth instance segmentation: one ``(label, slice)`` per
    instance the frame sees; the labels are the frame's distinct instance
    ids, in ascending order.

    A slice selects the run of the instance's hits in the frame's arrays,
    so the runs are disjoint by construction. Returns [] for an empty
    frame. Raises ValueError unless the hits are grouped by instance in
    ascending order, as ``render`` leaves them: the runs of any other
    order would not be the instances' hits.
    """
    ids = frame.instance_ids
    new = np.ones(len(ids), dtype=bool)
    new[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(new)
    labels = ids[starts]
    if np.any(labels[1:] <= labels[:-1]):
        raise ValueError("frame hits are not grouped by instance in ascending order")
    stops = np.append(starts[1:], len(ids))
    return [(int(label), slice(int(a), int(b))) for label, a, b in zip(labels, starts, stops)]
