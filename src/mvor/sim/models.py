"""Procedural tabletop object models, held as one set of columns.

Each model is a point-sampled surface: local-frame points with outward
normals and a fixed random unit descriptor per point, drawn and normalized
in float64, ``BLOCK_ROWS`` rows at a time, and stored rounded to float32,
which halves the bytes every region descriptor reads
(``perception.descriptor``). The feature ids and descriptors are what the
perception stack can observe and match on, geometry is what it must infer.

``ModelLibrary`` stores only what was drawn, as columns:
``footprint_radius`` holds one row per model, and ``points``, ``normals``
and ``point_descriptors`` concatenate every model's ``model_points``
points, model ``m`` holding rows ``m * model_points`` up to
``(m + 1) * model_points``. A point's feature id is its row in these
point columns. A model's family is ``FAMILIES[m % 3]``.

Models sit on the table plane: local z spans [0, height], the footprint
center is the local origin.

``generate_model_library`` builds a library in memory.
``save_model_library`` generates one and writes it as a new directory:
one ``.npy`` file per column and a ``header.json`` holding the format
name, ``LIBRARY_VERSION`` and the ``LIBRARY_KEYS`` settings it was
generated from. It writes each block of descriptor rows as soon as it is
drawn, so its memory grows with neither the library nor ``model_points``;
``io.write_dataset`` stages it and alone replaces a dataset's
``library/``. Both draw the models through one generator, so the saved
columns are the generated ones, bit for bit.
``load_model_library`` memory-maps the columns read-only, so a command that
loads a saved library reads only the rows it uses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..errors import IOFailure, MvorError, UnknownFeature
from ..serialize import config_sized_empty, dump_json, load_json

FAMILIES = ("box", "cylinder", "l_prism")

# The SimConfig settings a library is generated from: a saved library's
# header records them, and a database's header records them too.
LIBRARY_KEYS = ("library_seed", "library_size", "model_points", "point_descriptor_dim")

LIBRARY_FORMAT = "mvor-model-library"
# The version of the bits _draw_models draws for given LIBRARY_KEYS
# settings and of the saved layout: bump it whenever either changes, so a
# library saved before is refused rather than read as the new one. 3 since
# the family and point offset columns, both derived, are no longer saved.
LIBRARY_VERSION = 3


@dataclass
class ModelLibrary:
    footprint_radius: np.ndarray  # (L,) float64
    points: np.ndarray  # (L*n,3) local frame; model m: rows m*n:(m+1)*n
    normals: np.ndarray  # (L*n,3) unit rows
    point_descriptors: np.ndarray  # (L*n,d_pt) float32, unit rows rounded

    def __len__(self) -> int:
        return len(self.footprint_radius)

    @property
    def model_points(self) -> int:
        """The rows of each model, ``n`` above."""
        return len(self.points) // len(self)

    def check_feature_ids(self, feature_ids: np.ndarray) -> None:
        """Raise UnknownFeature if an id names no library row."""
        feature_ids = np.asarray(feature_ids)
        unknown = (feature_ids < 0) | (feature_ids >= len(self.points))
        if unknown.any():
            bad = feature_ids[unknown][:5].tolist()
            raise UnknownFeature(
                f"feature ids {bad} name no point of the {len(self)}-model library"
            )

    def descriptors_for(self, feature_ids: np.ndarray) -> np.ndarray:
        """The fixed per-point descriptors of an array of feature ids, as one
        gather widened to float64; an id that names no library row raises
        UnknownFeature."""
        self.check_feature_ids(feature_ids)
        return self.point_descriptors[feature_ids].astype(np.float64)


def _allocate(total: int, areas: np.ndarray) -> np.ndarray:
    """Split ``total`` samples across faces proportionally to area, >=1 each."""
    areas = np.asarray(areas, dtype=float)
    counts = np.maximum(1, np.round(total * areas / areas.sum()).astype(int))
    counts[-1] = max(1, total - int(counts[:-1].sum()))
    return counts


def _sample_rect_face(rng, origin, eu, ev, normal, count):
    u = rng.uniform(0.0, 1.0, count)
    v = rng.uniform(0.0, 1.0, count)
    pts = origin + u[:, None] * eu + v[:, None] * ev
    nrm = np.tile(normal, (count, 1))
    return pts, nrm


def _sample_box(rng, w, d, h, total):
    hw, hd = w / 2.0, d / 2.0
    faces = [
        # origin, edge-u, edge-v, normal, area  (bottom face omitted: rests on table)
        ([hw, -hd, 0], [0, d, 0], [0, 0, h], [1, 0, 0], d * h),
        ([-hw, -hd, 0], [0, d, 0], [0, 0, h], [-1, 0, 0], d * h),
        ([-hw, hd, 0], [w, 0, 0], [0, 0, h], [0, 1, 0], w * h),
        ([-hw, -hd, 0], [w, 0, 0], [0, 0, h], [0, -1, 0], w * h),
        ([-hw, -hd, h], [w, 0, 0], [0, d, 0], [0, 0, 1], w * d),
    ]
    counts = _allocate(total, [f[4] for f in faces])
    pts, nrms = [], []
    for (origin, eu, ev, normal, _), c in zip(faces, counts):
        p, n = _sample_rect_face(
            rng, np.array(origin, float), np.array(eu, float), np.array(ev, float), np.array(normal, float), c
        )
        pts.append(p)
        nrms.append(n)
    radius = float(np.hypot(hw, hd))
    return np.vstack(pts), np.vstack(nrms), radius


def _sample_cylinder(rng, r, h, total):
    lateral_area = 2 * np.pi * r * h
    top_area = np.pi * r * r
    n_lat, n_top = _allocate(total, [lateral_area, top_area])
    phi = rng.uniform(0.0, 2 * np.pi, n_lat)
    z = rng.uniform(0.0, h, n_lat)
    lat = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    lat_n = np.stack([np.cos(phi), np.sin(phi), np.zeros(n_lat)], axis=1)
    rad = r * np.sqrt(rng.uniform(0.0, 1.0, n_top))
    ang = rng.uniform(0.0, 2 * np.pi, n_top)
    top = np.stack([rad * np.cos(ang), rad * np.sin(ang), np.full(n_top, h)], axis=1)
    top_n = np.tile([0.0, 0.0, 1.0], (n_top, 1))
    return np.vstack([lat, top]), np.vstack([lat_n, top_n]), float(r)


def _sample_l_prism(rng, a, b, ta, tb, h, total):
    # L cross-section: union of [0,a]x[0,tb] and [0,ta]x[0,b], both in xy,
    # recentered so the bounding-box center is the origin.
    verts = np.array(
        [[0, 0], [a, 0], [a, tb], [ta, tb], [ta, b], [0, b]], dtype=float
    )
    center = np.array([a / 2.0, b / 2.0])
    verts -= center

    edges = [(verts[i], verts[(i + 1) % 6]) for i in range(6)]
    side_areas = [np.linalg.norm(q - p) * h for p, q in edges]
    top_area = a * tb + ta * b - ta * tb
    counts = _allocate(total, side_areas + [top_area])

    pts, nrms = [], []
    for (p, q), c in zip(edges, counts[:-1]):
        t = rng.uniform(0.0, 1.0, c)
        z = rng.uniform(0.0, h, c)
        xy = p + t[:, None] * (q - p)
        pts.append(np.column_stack([xy, z]))
        d = q - p
        # CCW polygon: outward normal is the edge direction rotated -90 deg
        n = np.array([d[1], -d[0], 0.0])
        n /= np.linalg.norm(n)
        nrms.append(np.tile(n, (c, 1)))

    # top face by rejection inside the L
    need = counts[-1]
    top = np.empty((need, 2))
    got = 0
    while got < need:
        cand = rng.uniform([0.0, 0.0], [a, b], size=(need * 2, 2))
        inside = (cand[:, 1] <= tb) | (cand[:, 0] <= ta)
        cand = cand[inside][: need - got]
        top[got : got + len(cand)] = cand
        got += len(cand)
    top -= center
    pts.append(np.column_stack([top, np.full(need, h)]))
    nrms.append(np.tile([0.0, 0.0, 1.0], (need, 1)))

    radius = float(np.max(np.linalg.norm(verts, axis=1)))
    return np.vstack(pts), np.vstack(nrms), radius


# The rows of a model's codes drawn, normalized and rounded at a time: the
# float64 scratch, and the squares each row norm reads, stay this size
# whatever sim.model_points is.
BLOCK_ROWS = 128


def _block_text(config) -> str:
    return (
        f"the descriptor scratch block (at most {BLOCK_ROWS} rows, sim.point_descriptor_dim "
        f"{config.point_descriptor_dim} columns)"
    )


def _draw_models(config, models: list):
    """Draw the models of ``config`` in library order, deterministic in
    ``config.library_seed``: an iterator of the library's unit descriptor
    rows in blocks of at most ``BLOCK_ROWS`` rows, each model's
    ``model_points`` rows (see ``config.MIN_MODEL_POINTS``) in blocks of
    their own, each drawn and normalized in float64 and yielded rounded to
    float32. As each model is drawn, its ``(points, normals, footprint
    radius)`` is appended to ``models``, before its first block.

    The two block-sized scratch arrays are allocated here, when
    ``_draw_models`` is called, so a width the machine cannot hold raises
    ConfigParseError before anything else is done; each yielded block is a
    view of one of them, valid until the next block is drawn."""
    shape = (min(BLOCK_ROWS, config.model_points), config.point_descriptor_dim)
    scratch = config_sized_empty(shape, _block_text(config))
    rounded = config_sized_empty(shape, _block_text(config), np.float32)
    rng = np.random.default_rng(config.library_seed)

    def blocks():
        for mid in range(config.library_size):
            family = FAMILIES[mid % 3]
            if family == "box":
                w, d = rng.uniform(0.05, 0.09, 2)
                h = rng.uniform(0.04, 0.08)
                models.append(_sample_box(rng, w, d, h, config.model_points))
            elif family == "cylinder":
                r = rng.uniform(0.025, 0.045)
                h = rng.uniform(0.04, 0.08)
                models.append(_sample_cylinder(rng, r, h, config.model_points))
            else:
                a, b = rng.uniform(0.06, 0.09, 2)
                ta, tb = rng.uniform(0.025, 0.04, 2)
                h = rng.uniform(0.035, 0.07)
                models.append(_sample_l_prism(rng, a, b, ta, tb, h, config.model_points))
            for start in range(0, config.model_points, BLOCK_ROWS):
                block = scratch[: config.model_points - start]
                rng.standard_normal(out=block)
                # a row's norm reads its own row alone, so the bits are
                # those of normalizing the model's rows at once
                block /= np.linalg.norm(block, axis=1, keepdims=True)
                rounded[: len(block)] = block
                yield rounded[: len(block)]

    return blocks()


def _small_columns(models: list) -> dict:
    """Every column but ``point_descriptors`` of the ``(points, normals,
    footprint radius)`` of each model, in library order."""
    points, normals, radius = zip(*models)
    return {
        "footprint_radius": np.array(radius),
        "points": np.vstack(points),
        "normals": np.vstack(normals),
    }


def _column_text(config) -> str:
    return (
        f"the model library's descriptor column (sim.library_size {config.library_size} x "
        f"sim.model_points {config.model_points} rows, sim.point_descriptor_dim "
        f"{config.point_descriptor_dim} columns)"
    )


def generate_model_library(config) -> ModelLibrary:
    """Build the fixed model set used by every scene of a run.

    Deterministic in config.library_seed. Families cycle box / cylinder /
    L-prism so the set contains both rotationally symmetric geometry
    (cylinders, identifiable only through surface features) and asymmetric
    geometry. The descriptor column, the bulk of the library, is allocated
    once, ``library_size x model_points`` rows, and model ``m``'s rounded
    blocks are copied into rows ``m * model_points:(m + 1) * model_points``
    as they are drawn. A column the machine cannot hold raises
    ConfigParseError.
    """
    descriptors = config_sized_empty(
        (config.library_size * config.model_points, config.point_descriptor_dim),
        _column_text(config),
        np.float32,
    )
    models, row = [], 0
    for block in _draw_models(config, models):
        descriptors[row : row + len(block)] = block
        row += len(block)
    return ModelLibrary(**_small_columns(models), point_descriptors=descriptors)


def save_model_library(path, config, shown_as=None) -> None:
    """Generate the library of ``config`` (a SimConfig) and write it as the
    new directory ``path``: ``<column>.npy`` for each column, the bytes
    ``np.save`` writes, and ``header.json`` with the format name,
    ``LIBRARY_VERSION`` and the ``LIBRARY_KEYS`` settings of ``config``.

    The models are drawn as ``generate_model_library`` draws them, and each
    block of at most ``BLOCK_ROWS`` rounded descriptor rows is written as
    soon as it is drawn, after a header for all the column's rows: the
    memory used grows with neither the library nor ``model_points``. A
    scratch block the machine cannot hold raises ConfigParseError, and
    then a descriptor column larger than the free space where ``path``
    lies raises IOFailure, both before anything is written.
    A write that fails, or a ``path`` that already exists, raises
    IOFailure; what was written stays for the caller to remove
    (``io.write_dataset`` writes into a stage it removes). The IOFailure
    names ``shown_as``, by default ``path``: ``io.write_dataset`` names the
    ``library/`` its stage is for, not the stage."""
    shown_as = path if shown_as is None else shown_as
    rows, dim = config.library_size * config.model_points, config.point_descriptor_dim
    # drawn before the free-space check: a width the machine cannot hold is
    # reported as that, not as a column too large for the disk
    models = []
    blocks, code = _draw_models(config, models), np.dtype(np.float32)
    try:
        stat = os.statvfs(os.path.dirname(os.path.abspath(path)))
        needed, free = rows * dim * code.itemsize, stat.f_bavail * stat.f_frsize
        if needed > free:
            raise IOFailure(
                f"cannot write {shown_as}: {_column_text(config)} needs {needed} bytes, "
                f"{free} are free"
            )
        os.mkdir(path)
        with open(os.path.join(path, "point_descriptors.npy"), "wb") as f:
            np.lib.format.write_array_header_1_0(f, {
                "descr": np.lib.format.dtype_to_descr(code),
                "fortran_order": False,
                "shape": (rows, dim),
            })
            for block in blocks:
                f.write(block)
        for name, column in _small_columns(models).items():
            np.save(os.path.join(path, f"{name}.npy"), column, allow_pickle=False)
        dump_json({"format": LIBRARY_FORMAT, "version": LIBRARY_VERSION,
                   **{key: getattr(config, key) for key in LIBRARY_KEYS}},
                  os.path.join(path, "header.json"))
    except OSError as e:
        # strerror alone: the OSError's own file name may lie in a stage
        raise IOFailure(f"cannot write {shown_as}: {e.strerror or e}") from e


def _load_column(path, name: str, dtype, shape: tuple) -> np.ndarray:
    """Column ``name`` of the library saved at ``path``, memory-mapped
    read-only."""
    file = os.path.join(path, f"{name}.npy")
    try:
        # a plain ndarray view: the memmap subclass runs Python hooks on every slice
        array = np.asarray(np.load(file, mmap_mode="r", allow_pickle=False))
    except (OSError, ValueError, EOFError) as e:
        raise IOFailure(f"cannot read {file}: {e}") from e
    if array.dtype != dtype or array.shape != shape:
        raise IOFailure(
            f"{file}: {array.dtype} array of shape {array.shape}, "
            f"expected {np.dtype(dtype)} of shape {shape}"
        )
    return array


def load_model_library(path, config) -> ModelLibrary:
    """The library that ``save_model_library`` wrote as directory ``path``,
    its columns memory-mapped read-only; ``config``, a SimConfig, names the
    library expected. A header whose ``version`` is not ``LIBRARY_VERSION``,
    or whose ``LIBRARY_KEYS`` settings differ from ``config``'s, raises
    MvorError naming the key and the header's path; a header that is not
    JSON raises ConfigParseError, and one of another format IOFailure. A
    file that cannot be read, or a column whose dtype or shape is not that
    of the library of ``config``, raises IOFailure naming the file. No
    column value is read; each is trusted to be what was saved."""
    header_path = os.path.join(path, "header.json")
    header = load_json(header_path)
    if not isinstance(header, dict) or header.get("format") != LIBRARY_FORMAT:
        raise IOFailure(f"{header_path}: not a model library header")
    if header.get("version") != LIBRARY_VERSION:
        raise MvorError(
            f"{header_path}: library saved with version {header.get('version')!r}, "
            f"expected {LIBRARY_VERSION}"
        )
    for key in LIBRARY_KEYS:
        if header.get(key) != getattr(config, key):
            raise MvorError(
                f"{header_path}: library generated with {key} {header.get(key)!r}, "
                f"expected {getattr(config, key)!r}"
            )
    n, rows = config.library_size, config.library_size * config.model_points
    return ModelLibrary(
        footprint_radius=_load_column(path, "footprint_radius", np.float64, (n,)),
        points=_load_column(path, "points", np.float64, (rows, 3)),
        normals=_load_column(path, "normals", np.float64, (rows, 3)),
        point_descriptors=_load_column(
            path, "point_descriptors", np.float32, (rows, config.point_descriptor_dim)
        ),
    )
