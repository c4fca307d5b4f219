"""The hierarchical region database: every object region from every frame,
grouped into per-object-instance lists via clustering of cloud centroids.

Retrieval queries rank all regions by descriptor dot product, so the
database keeps the stacked descriptor and observation-direction matrices
alongside the per-instance index lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import ClusterCountInfeasible, IOFailure, NoRegions
from ..geometry import Pose3, observation_vector
from .cluster import kmeans
from .regions import ObjectRegion, RegionCrop, extract_regions

DB_FORMAT = "mvor-db"
DB_VERSION = 1
# members of a dump, as save_database writes them
DB_ARRAYS = (
    "header", "region_instance", "region_frame", "source_instance", "descriptors",
    "obs_dirs", "viewpoints", "instance_centroids", "cloud_offsets", "cloud_points",
    "crop_origin", "crop_shape", "crop_offsets", "crop_feature_ids", "crop_px",
    "crop_depth", "crop_world", "crop_view",
)


@dataclass
class PerceptionConfig:
    min_region_points: int = 10
    cloud_cap: int = 0  # 0 = keep full region clouds
    descriptor_dim: int = 512
    norm_resolution: int = 64
    pool_grid: int = 4
    grid_weight: float = 0.4
    obs_bins: int = 8
    obs_weight: float = 0.1
    projection_seed: int = 20240
    kmeans_restarts: int = 10
    kmeans_iters: int = 100
    kmeans_seed: int = 5

    def make_backend(self, library):
        from .descriptor import GridPooledDescriptor

        return GridPooledDescriptor(
            library,
            dim=self.descriptor_dim,
            norm_resolution=self.norm_resolution,
            pool_grid=self.pool_grid,
            grid_weight=self.grid_weight,
            obs_bins=self.obs_bins,
            obs_weight=self.obs_weight,
            projection_seed=self.projection_seed,
        )


@dataclass
class Database:
    regions: list[ObjectRegion]
    region_instance: np.ndarray  # (R,) instance index per region
    instances: list[list[int]]  # per instance: region indices
    instance_centroids: np.ndarray  # (K,3) mean of member cloud centroids
    descriptor_matrix: np.ndarray = field(init=False)
    obs_dirs: np.ndarray = field(init=False)

    def __post_init__(self):
        self.descriptor_matrix = np.stack([r.descriptor for r in self.regions])
        self.obs_dirs = np.stack([r.obs_dir for r in self.regions])

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    def regions_of(self, instance: int) -> list[ObjectRegion]:
        return [self.regions[i] for i in self.instances[instance]]


def infer_k(regions_by_frame: list[list[ObjectRegion]]) -> int:
    """Instance count estimate: the most regions any single frame produced.

    A frame sees each object at most once, so this lower-bounds the true
    count and equals it whenever some frame sees every object.
    """
    counts = [len(rs) for rs in regions_by_frame]
    if not counts or max(counts) == 0:
        raise NoRegions("no regions in any frame")
    return max(counts)


def associate(regions: list[ObjectRegion], k: int, config: PerceptionConfig | None = None) -> Database:
    """Group regions into k object instances by clustering cloud centroids.

    Instance lists are ordered by centroid (x, then y, then z) so the
    numbering is stable across runs.
    """
    config = config or PerceptionConfig()
    if k < 1 or k > len(regions):
        raise ClusterCountInfeasible(f"k={k} with {len(regions)} regions")
    centroids = np.stack([r.cloud_centroid for r in regions])
    labels, _, _ = kmeans(
        centroids,
        k,
        seed=config.kmeans_seed,
        restarts=config.kmeans_restarts,
        max_iters=config.kmeans_iters,
    )
    means = np.stack([centroids[labels == j].mean(axis=0) for j in range(k)])
    order = np.lexsort((means[:, 2], means[:, 1], means[:, 0]))
    relabel = np.empty(k, dtype=int)
    relabel[order] = np.arange(k)
    labels = relabel[labels]
    instances = [[int(i) for i in np.nonzero(labels == j)[0]] for j in range(k)]
    return Database(
        regions=regions,
        region_instance=labels.astype(np.int64),
        instances=instances,
        instance_centroids=means[order],
    )


def describe_region(region: ObjectRegion, backend) -> None:
    """Set a region's observation direction, then its descriptor (which
    encodes that direction)."""
    region.obs_dir = observation_vector(region.viewpoint, region.cloud)
    region.descriptor = backend.extract(region)


def build_database(frames, segmenter, backend, config: PerceptionConfig | None = None) -> Database:
    """Full database construction: segment each frame, extract regions,
    fill observation directions and descriptors, infer the instance count,
    and associate."""
    config = config or PerceptionConfig()
    regions_by_frame = []
    for frame in frames:
        masks = segmenter(frame)
        regions_by_frame.append(
            extract_regions(
                frame, masks, min_points=config.min_region_points, cloud_cap=config.cloud_cap
            )
        )
    regions = [r for frame_regions in regions_by_frame for r in frame_regions]
    if not regions:
        raise NoRegions("no regions extracted from any frame")
    for r in regions:
        describe_region(r, backend)
    k = infer_k(regions_by_frame)
    return associate(regions, k, config)


def prepare_goal_regions(frame, segmenter, backend, config: PerceptionConfig | None = None):
    """Segment and featurize a goal frame the same way database frames are."""
    config = config or PerceptionConfig()
    regions = extract_regions(
        frame, segmenter(frame), min_points=config.min_region_points, cloud_cap=config.cloud_cap
    )
    for r in regions:
        describe_region(r, backend)
    return regions


def save_database(db: Database, path, extra_meta: dict | None = None) -> None:
    """Binary dump (npz) with a versioned JSON header; loads back bit-exact."""
    crops = [r.crop for r in db.regions]
    crop_sizes = np.array([c.feature_ids.size for c in crops], dtype=np.int64)
    crop_offsets = np.concatenate([[0], np.cumsum(crop_sizes)])
    cloud_sizes = np.array([len(r.cloud) for r in db.regions], dtype=np.int64)
    cloud_offsets = np.concatenate([[0], np.cumsum(cloud_sizes)])
    header = {
        "format": DB_FORMAT,
        "version": DB_VERSION,
        "num_regions": db.num_regions,
        "num_instances": db.num_instances,
    }
    if extra_meta:
        header.update(extra_meta)
    arrays = {
        "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        "region_instance": db.region_instance,
        "region_frame": np.array([r.frame_id for r in db.regions], dtype=np.int64),
        "source_instance": np.array([r.source_instance for r in db.regions], dtype=np.int64),
        "descriptors": db.descriptor_matrix,
        "obs_dirs": db.obs_dirs,
        "viewpoints": np.stack([r.viewpoint.matrix for r in db.regions]),
        "instance_centroids": db.instance_centroids,
        "cloud_offsets": cloud_offsets,
        "cloud_points": np.concatenate([r.cloud for r in db.regions]),
        "crop_origin": np.array([[c.row0, c.col0] for c in crops], dtype=np.int64),
        "crop_shape": np.array([c.shape for c in crops], dtype=np.int64),
        "crop_offsets": crop_offsets,
        "crop_feature_ids": np.concatenate([c.feature_ids.ravel() for c in crops]),
        "crop_px": np.concatenate([c.px.reshape(-1, 2) for c in crops]),
        "crop_depth": np.concatenate([c.depth.ravel() for c in crops]),
        "crop_world": np.concatenate([c.world.reshape(-1, 3) for c in crops]),
        "crop_view": np.concatenate([c.view_local.reshape(-1, 3) for c in crops]),
    }
    try:
        with open(path, "wb") as f:
            np.savez(f, **arrays)
    except OSError as e:
        raise IOFailure(f"cannot write database {path}: {e}") from e


def load_database(path) -> tuple[Database, dict]:
    """Read a ``save_database`` dump. A file that is not one, or lacks a
    member, raises IOFailure."""
    try:
        npz = np.load(path)
    except (OSError, ValueError) as e:
        raise IOFailure(f"cannot read database {path}: {e}") from e
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise IOFailure(f"{path}: not a database dump")
    # an NpzFile re-reads a member from the archive on every access, so read
    # each one once
    with npz:
        data = {name: npz[name] for name in npz.files}
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
    regions = []
    for i in range(header["num_regions"]):
        h, w = data["crop_shape"][i]
        o0, o1 = data["crop_offsets"][i], data["crop_offsets"][i + 1]
        c0, c1 = data["cloud_offsets"][i], data["cloud_offsets"][i + 1]
        crop = RegionCrop(
            row0=int(data["crop_origin"][i, 0]),
            col0=int(data["crop_origin"][i, 1]),
            feature_ids=data["crop_feature_ids"][o0:o1].reshape(h, w),
            px=data["crop_px"][o0:o1].reshape(h, w, 2),
            depth=data["crop_depth"][o0:o1].reshape(h, w),
            world=data["crop_world"][o0:o1].reshape(h, w, 3),
            view_local=data["crop_view"][o0:o1].reshape(h, w, 3),
        )
        regions.append(
            ObjectRegion(
                crop=crop,
                cloud=data["cloud_points"][c0:c1],
                viewpoint=Pose3.from_matrix(data["viewpoints"][i]),
                frame_id=int(data["region_frame"][i]),
                source_instance=int(data["source_instance"][i]),
                descriptor=data["descriptors"][i],
                obs_dir=data["obs_dirs"][i],
            )
        )
    labels = data["region_instance"]
    k = header["num_instances"]
    instances = [[int(i) for i in np.nonzero(labels == j)[0]] for j in range(k)]
    db = Database(
        regions=regions,
        region_instance=labels,
        instances=instances,
        instance_centroids=data["instance_centroids"],
    )
    return db, header
