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

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

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


class _PosedScene(NamedTuple):
    """Every placement's model points in the world, concatenated in
    placement order."""

    points: np.ndarray  # (P,3) world point
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


def _render_view(
    posed: _PosedScene, viewpoint: Pose3, intr: CameraIntrinsics, frame_id: int
) -> Frame:
    cam_center = viewpoint.translation
    facing = np.einsum("ij,ij->i", cam_center - posed.points, posed.normals) > 0.0
    facing = np.flatnonzero(facing)
    uv, z = project_points(intr, invert(viewpoint), posed.points[facing])
    ok = (
        (z > 1e-6)
        & (uv[:, 0] >= -0.5)
        & (uv[:, 0] < intr.width - 0.5)
        & (uv[:, 1] >= -0.5)
        & (uv[:, 1] < intr.height - 0.5)
    )
    if not ok.any():
        raise EmptyFrame("no model points project into the image")
    cand = facing[ok]
    uv, z = uv[ok], z[ok]
    fid = posed.feature_ids[cand]
    cols = np.floor(uv[:, 0] + 0.5).astype(np.int64)
    rows = np.floor(uv[:, 1] + 0.5).astype(np.int64)
    win = _winners(rows * intr.width + cols, z, fid)

    # viewing directions for the winners alone, taken in candidate order,
    # where each placement's hits are one run, then put in pixel order
    is_win = np.zeros(len(cand), dtype=bool)
    is_win[win] = True
    hit = cand[is_win]
    inst = posed.instance_ids[hit]
    rays = cam_center - posed.points[hit]
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    view = np.empty_like(rays)
    runs = np.searchsorted(inst, np.arange(len(posed.rotations) + 1))
    for idx, (start, stop) in enumerate(zip(runs[:-1], runs[1:])):
        if start < stop:  # world->object-local rotation
            view[start:stop] = rays[start:stop] @ posed.rotations[idx]
    to_pixel_order = (np.cumsum(is_win) - 1)[win]

    return Frame(
        rows=rows[win],
        cols=cols[win],
        feature_ids=fid[win],
        instance_ids=inst[to_pixel_order],
        px=uv[win],
        depth=z[win],
        view_local=view[to_pixel_order],
        viewpoint=viewpoint,
        intrinsics=intr,
        frame_id=frame_id,
    )


def render(
    scene: SceneState,
    viewpoints: Sequence[Pose3],
    intr: CameraIntrinsics,
    library: ModelLibrary,
    first_id: int = 0,
) -> list[Frame]:
    """Render all model points visible from each of ``viewpoints``: one
    Frame per viewpoint, in order, with frame ids counting up from
    ``first_id``.

    A point is visible iff its outward normal faces the camera and it wins
    the z-buffer at its pixel; occlusion between objects emerges from the
    depth comparison. The placements are posed once for all the views.
    Raises EmptyFrame when nothing projects into a view's image.
    """
    posed = _pose(scene, library)
    return [_render_view(posed, vp, intr, first_id + k) for k, vp in enumerate(viewpoints)]


def segment(frame: Frame) -> list[tuple[int, np.ndarray]]:
    """Ground-truth instance masks, one per instance the frame sees, in
    ``frame.instance_list()`` order.

    A mask is a boolean mask over the frame's hits. Masks are disjoint by
    construction. Returns [] for an empty frame.
    """
    return [(int(inst), frame.instance_ids == inst) for inst in frame.instance_list()]
