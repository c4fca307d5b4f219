"""The hierarchical region database: every object region from every frame,
grouped into object instances. The frame with the most regions names the
instances, and every region joins the one whose named region is nearest.

A ``Database`` is the column arrays its dump holds, under the dump's
names: one row per region for the labels, descriptors and observation
directions, one row per instance for the centroids, and the regions' hits
(feature id, world point, view direction) concatenated into flat arrays
cut by offsets; a hit's feature id is its point's row in the model
library's point columns. Retrieval and pruning index these columns
directly; ``hits(i)`` views one region's hits, all a candidate is matched
and lifted by, without copying them.

Every captured frame (``bench.capture``) goes through one chain,
``prepare_goal_regions``: segment, cut the regions, describe them.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from ..errors import IOFailure, NoRegions
from ..geometry import observation_vector
from ..serialize import ConfigSection, setting
from ..sim.render import segment
from .descriptor import GridPooledDescriptor
from .regions import ObjectRegion, extract_regions

DB_FORMAT = "mvor-db"
DB_VERSION = 6


@dataclass(frozen=True)
class PerceptionConfig(ConfigSection):
    min_region_points: int = setting(10, 1)

    def make_backend(self, library) -> GridPooledDescriptor:
        """``GridPooledDescriptor(library)``. No mvor code calls it (ROADMAP item 11)."""
        return GridPooledDescriptor(library)


def _column(rows: str, tail: tuple = (), kind: str = "f"):
    """A Database field: ``rows`` names its length (``R`` regions, ``K``
    instances, ``R+1`` offsets, or ``hits``, the regions' total hits),
    ``tail`` its trailing shape (-1 for any) and ``kind`` its dtype kind."""
    return field(metadata={"rows": rows, "tail": tail, "kind": kind})


class RegionHits(NamedTuple):
    """One database region's hits, views of the flat hit columns."""

    feature_ids: np.ndarray  # (n,) int64
    world: np.ndarray  # (n,3) world point
    view_local: np.ndarray  # (n,3) object-local viewing direction


@dataclass(eq=False)
class Database:
    region_instance: np.ndarray = _column("R", kind="i")  # instance index per region
    region_frame: np.ndarray = _column("R", kind="i")  # position of its frame in the input
    # ground-truth instance label per region; diagnostics, tests
    source_instance: np.ndarray = _column("R", kind="i")
    descriptors: np.ndarray = _column("R", (-1,))
    obs_dirs: np.ndarray = _column("R", (3,))
    instance_centroids: np.ndarray = _column("K", (3,))  # mean of member region centroids
    crop_offsets: np.ndarray = _column("R+1", kind="i")  # region i: crop_*[o[i]:o[i+1]]
    crop_feature_ids: np.ndarray = _column("hits", kind="i")
    crop_world: np.ndarray = _column("hits", (3,))
    crop_view: np.ndarray = _column("hits", (3,))

    @property
    def num_instances(self) -> int:
        return len(self.instance_centroids)

    @property
    def num_regions(self) -> int:
        return len(self.region_instance)

    def hits(self, i: int) -> RegionHits:
        """Region ``i``'s hits (no copy)."""
        hits = slice(self.crop_offsets[i], self.crop_offsets[i + 1])
        return RegionHits(self.crop_feature_ids[hits], self.crop_world[hits], self.crop_view[hits])


# members of a dump, as save_database writes them
DB_ARRAYS = ("header", *(f.name for f in fields(Database)))


def associate(regions_by_frame: list[list[ObjectRegion]]) -> Database:
    """Group every region into the object instances the fullest frame names.

    A frame sees each object at most once, so the first frame with the most
    regions names the instances, one per region, and every region joins the
    instance whose named region has the nearest centroid. An object that
    frame misses gets no instance: its regions join the nearest named one.
    Instances are ordered by the mean of their member centroids (x, then y,
    then z) so the numbering is stable across runs. Each region's
    observation direction, from its centroid toward its camera, is taken
    here: only the database's pruning reads it.
    """
    sizes = [len(frame_regions) for frame_regions in regions_by_frame]
    k = max(sizes, default=0)
    if not k:
        raise NoRegions("no regions in any frame")
    regions = [r for frame_regions in regions_by_frame for r in frame_regions]
    centroids = np.stack([r.centroid for r in regions])
    first = sum(sizes[: sizes.index(k)])  # the fullest frame's first region
    named = centroids[first : first + k]
    labels = np.argmin(np.sum((centroids[:, None, :] - named[None, :, :]) ** 2, axis=2), axis=1)
    means = np.stack([centroids[labels == j].mean(axis=0) for j in range(k)])
    order = np.lexsort((means[:, 2], means[:, 1], means[:, 0]))
    relabel = np.empty(k, dtype=int)
    relabel[order] = np.arange(k)
    labels = relabel[labels]
    return Database(
        region_instance=labels.astype(np.int64),
        region_frame=np.repeat(np.arange(len(sizes), dtype=np.int64), sizes),
        source_instance=np.array([r.source_instance for r in regions], dtype=np.int64),
        descriptors=np.stack([r.descriptor for r in regions]),
        obs_dirs=np.stack(
            [observation_vector(r.viewpoint, c) for r, c in zip(regions, centroids)]
        ),
        instance_centroids=means[order],
        crop_offsets=np.concatenate([[0], np.cumsum([len(r.feature_ids) for r in regions])]),
        crop_feature_ids=np.concatenate([r.feature_ids for r in regions]),
        crop_world=np.concatenate([r.world for r in regions]),
        crop_view=np.concatenate([r.view_local for r in regions]),
    )


def build_database(frames, library, config: PerceptionConfig) -> Database:
    """Full database construction: every frame through
    ``prepare_goal_regions``, then ``associate``."""
    return associate([prepare_goal_regions(f, library, config) for f in frames])


def prepare_goal_regions(frame, library, config: PerceptionConfig) -> list[ObjectRegion]:
    """The one perception chain every captured frame goes through, goal,
    database and re-observation frames alike: segment the frame, cut its
    regions and describe them in one ``GridPooledDescriptor(library)``
    batch. A region's descriptor has the same bits in any batch, so frames
    described one at a time give the database one batch would."""
    regions = extract_regions(frame, segment(frame), config)
    for r, descriptor in zip(regions, GridPooledDescriptor(library).extract(regions)):
        r.descriptor = descriptor
    return regions


def save_database(db: Database, path, extra_meta: dict | None = None) -> None:
    """Binary dump (npz) of the database's columns with a versioned JSON
    header; loads back bit-exact."""
    header = {
        "format": DB_FORMAT,
        "version": DB_VERSION,
        "num_regions": db.num_regions,
        "num_instances": db.num_instances,
    }
    if extra_meta:
        header.update(extra_meta)
    columns = {f.name: getattr(db, f.name) for f in fields(Database)}
    try:
        with open(path, "wb") as f:
            np.savez(
                f,
                header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
                **columns,
            )
    except OSError as e:
        raise IOFailure(f"cannot write database {path}: {e}") from e


def load_database(path) -> tuple[Database, dict]:
    """Read a ``save_database`` dump. A file that is not one, lacks a
    member, or whose columns disagree with each other or with the header
    raises IOFailure."""
    try:
        # np.load reads a file that does not start as a zip archive does as
        # an array, or refuses it as a pickle with advice to load it unsafely
        with open(path, "rb") as f:
            if f.read(4) not in (b"PK\x03\x04", b"PK\x05\x06"):
                raise IOFailure(f"{path}: not a database dump")
        # an NpzFile re-reads a member from the archive on every access, so
        # read each one once
        with np.load(path) as npz:
            data = {name: npz[name] for name in npz.files}
    # EOFError, BadZipFile: a truncated archive; ValueError: a pickled
    # (object) member
    except (OSError, EOFError, zipfile.BadZipFile, ValueError) as e:
        raise IOFailure(f"cannot read database {path}: {e}") from e
    # NpzFile hands back a member that is not an .npy array as raw bytes
    missing = [name for name in DB_ARRAYS if not isinstance(data.get(name), np.ndarray)]
    if missing:
        raise IOFailure(f"{path}: not a database dump (missing {', '.join(missing)})")
    try:
        header = json.loads(bytes(data["header"]).decode("utf-8"))
    except ValueError as e:
        raise IOFailure(f"{path}: unreadable database header: {e}") from e
    if (
        not isinstance(header, dict)
        or header.get("format") != DB_FORMAT
        or header.get("version") != DB_VERSION
        or not {"num_regions", "num_instances"} <= header.keys()
    ):
        raise IOFailure(f"{path}: not a database dump or unsupported version")
    columns = {f.name: data[f.name] for f in fields(Database)}
    _check_columns(columns, header, path)
    return Database(**columns), header


def _check_columns(columns: dict, header: dict, path) -> None:
    """Raise IOFailure unless the columns form the database the header
    describes: every member has its field's dtype kind and shape, every
    float column holds finite values only, ``crop_offsets`` cuts the hit
    columns into one nonempty run per region, and every region's instance
    exists."""
    r, k = header["num_regions"], header["num_instances"]
    if not all(type(n) is int and n >= 0 for n in (r, k)):
        raise IOFailure(f"{path}: header region/instance counts are not counts")
    o = columns["crop_offsets"]
    if o.shape != (r + 1,) or o.dtype.kind != "i" or o[0] != 0 or np.any(np.diff(o) < 1):
        raise IOFailure(f"{path}: crop_offsets does not cut {r} nonempty regions")
    lengths = {"R": r, "K": k, "R+1": r + 1, "hits": int(o[-1])}
    for f in fields(Database):
        a, meta = columns[f.name], f.metadata
        tail = meta["tail"]
        if (
            a.dtype.kind != meta["kind"]
            or a.ndim != 1 + len(tail)
            or len(a) != lengths[meta["rows"]]
            or any(t not in (-1, n) for t, n in zip(tail, a.shape[1:]))
        ):
            raise IOFailure(
                f"{path}: {f.name} has shape {a.shape} ({a.dtype}), "
                f"expected {meta['rows']}={lengths[meta['rows']]} rows"
            )
        if meta["kind"] == "f" and not np.isfinite(a).all():
            raise IOFailure(f"{path}: {f.name} holds a non-finite value")
    labels = columns["region_instance"]
    if np.any((labels < 0) | (labels >= k)):
        raise IOFailure(f"{path}: region_instance outside [0, {k})")
