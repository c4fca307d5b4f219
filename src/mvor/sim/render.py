"""Point-splat rendering with a per-pixel z-buffer, plus ground-truth
instance segmentation.

A rendered Frame is the list of z-buffer winners, one hit per covered
pixel, in row-major pixel order. Each hit keeps its pixel (row, col), the
winning point's feature id, instance id, exact sub-pixel projection and
exact depth. Back-projecting a hit's stored (u, v, depth) therefore
recovers the point's world position to floating-point precision, which is
what makes the downstream matching and pose-recovery paths testable against
exact ground truth. No full-resolution image is ever allocated: segmentation
masks are boolean masks over a frame's hits, and regions are cut from the
masked hits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyFrame
from ..geometry import CameraIntrinsics, Pose3, invert, project_points, rot_z
from .models import ModelLibrary
from .scene import SceneState


@dataclass
class Frame:
    """The z-buffer winners of one view, one entry per hit pixel, sorted by
    row-major pixel index (``rows * width + cols``)."""

    rows: np.ndarray  # (n,) int64 pixel row of each hit
    cols: np.ndarray  # (n,) int64 pixel column of each hit
    feature_ids: np.ndarray  # (n,) int64 library row of the winning point
    instance_ids: np.ndarray  # (n,) int32 index of its object in the scene
    px: np.ndarray  # (n,2) float64 exact (u,v) of the winning point
    depth: np.ndarray  # (n,) float64 camera-frame z
    view_local: np.ndarray  # (n,3) unit point->camera direction in the
    # observed object's local frame; appearance similarity proxy for matchers
    viewpoint: Pose3  # camera-in-world
    intrinsics: CameraIntrinsics
    frame_id: int = 0

    def instance_list(self) -> np.ndarray:
        return np.unique(self.instance_ids)


def empty_frame(viewpoint: Pose3, intr: CameraIntrinsics, frame_id: int = 0) -> Frame:
    """A frame with no hits."""
    return Frame(
        rows=np.empty(0, dtype=np.int64),
        cols=np.empty(0, dtype=np.int64),
        feature_ids=np.empty(0, dtype=np.int64),
        instance_ids=np.empty(0, dtype=np.int32),
        px=np.empty((0, 2)),
        depth=np.empty(0),
        view_local=np.empty((0, 3)),
        viewpoint=viewpoint,
        intrinsics=intr,
        frame_id=frame_id,
    )


def render(
    scene: SceneState,
    viewpoint: Pose3,
    intr: CameraIntrinsics,
    library: ModelLibrary,
    frame_id: int = 0,
) -> Frame:
    """Render all model points visible from ``viewpoint``.

    A point is visible iff its outward normal faces the camera and it wins
    the z-buffer at its pixel; occlusion between objects emerges from the
    depth comparison. Raises EmptyFrame when nothing projects into the image.
    """
    w2c = invert(viewpoint)
    cam_center = viewpoint.translation

    uv_all, z_all, fid_all, inst_all, view_all = [], [], [], [], []
    for idx, placement in enumerate(scene.placements):
        m = placement.model_id
        rows = slice(library.point_offsets[m], library.point_offsets[m + 1])
        rz = rot_z(placement.pose.yaw)
        shift = np.array([placement.pose.tx, placement.pose.ty, 0.0])
        pw = library.points[rows] @ rz.T + shift
        nw = library.normals[rows] @ rz.T
        facing = np.einsum("ij,ij->i", cam_center - pw, nw) > 0.0
        if not facing.any():
            continue
        pw = pw[facing]
        uv, z = project_points(intr, w2c, pw)
        ok = (
            (z > 1e-6)
            & (uv[:, 0] >= -0.5)
            & (uv[:, 0] < intr.width - 0.5)
            & (uv[:, 1] >= -0.5)
            & (uv[:, 1] < intr.height - 0.5)
        )
        if not ok.any():
            continue
        rays = cam_center - pw[ok]
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        uv_all.append(uv[ok])
        z_all.append(z[ok])
        fid_all.append(rows.start + np.flatnonzero(facing)[ok])
        inst_all.append(np.full(int(ok.sum()), idx, dtype=np.int32))
        view_all.append(rays @ rz)  # world->object-local rotation

    if not uv_all:
        raise EmptyFrame("no model points project into the image")

    uv = np.vstack(uv_all)
    z = np.concatenate(z_all)
    fid = np.concatenate(fid_all)
    inst = np.concatenate(inst_all)
    view = np.vstack(view_all)

    cols = np.floor(uv[:, 0] + 0.5).astype(np.int64)
    rows = np.floor(uv[:, 1] + 0.5).astype(np.int64)
    flat = rows * intr.width + cols
    # nearest depth wins each pixel; feature id breaks exact depth ties
    order = np.lexsort((fid, z, flat))
    flat_sorted = flat[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = flat_sorted[1:] != flat_sorted[:-1]
    win = order[first]  # one winner per pixel, in row-major pixel order

    return Frame(
        rows=rows[win],
        cols=cols[win],
        feature_ids=fid[win],
        instance_ids=inst[win],
        px=uv[win],
        depth=z[win],
        view_local=view[win],
        viewpoint=viewpoint,
        intrinsics=intr,
        frame_id=frame_id,
    )


def segment(frame: Frame) -> list[tuple[int, np.ndarray]]:
    """Ground-truth instance masks, one per instance the frame sees, in
    ``frame.instance_list()`` order.

    A mask is a boolean mask over the frame's hits. Masks are disjoint by
    construction. Returns [] for an empty frame.
    """
    return [(int(inst), frame.instance_ids == inst) for inst in frame.instance_list()]
