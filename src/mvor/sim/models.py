"""Procedural tabletop object models, held as one set of columns.

Each model is a point-sampled surface: local-frame points with outward
normals and a fixed random unit descriptor per point, drawn and normalized
in float64, ``BLOCK_ROWS`` rows at a time, and stored rounded to float32,
which halves the bytes every region descriptor reads
(``perception.descriptor``). The feature ids and descriptors are what the
perception stack can observe and match on, geometry is what it must infer.

``ModelLibrary`` stores the models as columns: ``family`` and
``footprint_radius`` hold one row per model, and ``points``, ``normals``
and ``point_descriptors`` concatenate every model's ``model_points``
points, model ``m`` holding rows ``point_offsets[m] = m * model_points``
up to ``point_offsets[m + 1]``. A point's feature id is its row in these
point columns.

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
# library saved before is refused rather than read as the new one.
LIBRARY_VERSION = 2


@dataclass
class ModelLibrary:
    family: np.ndarray  # (L,) str
    footprint_radius: np.ndarray  # (L,) float64
    point_offsets: np.ndarray  # (L+1,) int64; model m: rows o[m]:o[m+1]
    points: np.ndarray  # (P,3) local frame
    normals: np.ndarray  # (P,3) unit rows
    point_descriptors: np.ndarray  # (P,d_pt) float32, unit rows rounded

    def __len__(self) -> int:
        return len(self.family)

    def check_feature_ids(self, feature_ids: np.ndarray) -> None:
        """Raise UnknownFeature if an id names no library row."""
        feature_ids = np.asarray(feature_ids)
        unknown = (feature_ids < 0) | (feature_ids >= self.point_offsets[-1])
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


def _draw_models(config):
    """Draw the models of ``config`` in library order, deterministic in
    ``config.library_seed``: an iterator of ``(family, points, normals,
    footprint radius), codes`` per model, where ``codes`` iterates over
    the model's ``model_points`` unit descriptor rows (see
    ``config.MIN_MODEL_POINTS``) in blocks of at most ``BLOCK_ROWS`` rows,
    each drawn and normalized in float64 and yielded rounded to float32.
    A model's ``codes`` must be exhausted before the next model is drawn:
    the order of the draws fixes the library's bits, and drawing block by
    block consumes the generator as one fill of the model's rows would.

    The two block-sized scratch arrays are allocated here, when
    ``_draw_models`` is called, so a width the machine cannot hold raises
    ConfigParseError before anything else is done; each yielded block is a
    view of one of them, valid until the next block is drawn."""
    shape = (min(BLOCK_ROWS, config.model_points), config.point_descriptor_dim)
    scratch = config_sized_empty(shape, _block_text(config))
    rounded = config_sized_empty(shape, _block_text(config), np.float32)
    rng = np.random.default_rng(config.library_seed)

    def codes():
        for start in range(0, config.model_points, BLOCK_ROWS):
            block = scratch[: config.model_points - start]
            rng.standard_normal(out=block)
            # a row's norm reads its own row alone, so the bits are those
            # of normalizing the model's rows at once
            block /= np.linalg.norm(block, axis=1, keepdims=True)
            rounded[: len(block)] = block
            yield rounded[: len(block)]

    def models():
        for mid in range(config.library_size):
            family = FAMILIES[mid % 3]
            if family == "box":
                w, d = rng.uniform(0.05, 0.09, 2)
                h = rng.uniform(0.04, 0.08)
                pts, nrms, radius = _sample_box(rng, w, d, h, config.model_points)
            elif family == "cylinder":
                r = rng.uniform(0.025, 0.045)
                h = rng.uniform(0.04, 0.08)
                pts, nrms, radius = _sample_cylinder(rng, r, h, config.model_points)
            else:
                a, b = rng.uniform(0.06, 0.09, 2)
                ta, tb = rng.uniform(0.025, 0.04, 2)
                h = rng.uniform(0.035, 0.07)
                pts, nrms, radius = _sample_l_prism(rng, a, b, ta, tb, h, config.model_points)
            yield (family, pts, nrms, radius), codes()

    return models()


def _small_columns(models: list) -> dict:
    """Every column but ``point_descriptors`` of the ``(family, points,
    normals, footprint radius)`` of each model, in library order."""
    family, points, normals, radius = zip(*models)
    offsets = np.zeros(len(models) + 1, dtype=np.int64)
    np.cumsum([len(pts) for pts in points], out=offsets[1:])
    return {
        "family": np.array(family),
        "footprint_radius": np.array(radius),
        "point_offsets": offsets,
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
    for model, codes in _draw_models(config):
        for block in codes:
            descriptors[row : row + len(block)] = block
            row += len(block)
        models.append(model)
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
    draws, code = _draw_models(config), np.dtype(np.float32)
    try:
        stat = os.statvfs(os.path.dirname(os.path.abspath(path)))
        needed, free = rows * dim * code.itemsize, stat.f_bavail * stat.f_frsize
        if needed > free:
            raise IOFailure(
                f"cannot write {shown_as}: {_column_text(config)} needs {needed} bytes, "
                f"{free} are free"
            )
        os.mkdir(path)
        models = []
        with open(os.path.join(path, "point_descriptors.npy"), "wb") as f:
            np.lib.format.write_array_header_1_0(f, {
                "descr": np.lib.format.dtype_to_descr(code),
                "fortran_order": False,
                "shape": (rows, dim),
            })
            for model, codes in draws:
                for block in codes:
                    f.write(block)
                models.append(model)
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
    read-only; ``dtype`` "U" accepts a str array of any width."""
    file = os.path.join(path, f"{name}.npy")
    try:
        # a plain ndarray view: the memmap subclass runs Python hooks on every slice
        array = np.asarray(np.load(file, mmap_mode="r", allow_pickle=False))
    except (OSError, ValueError, EOFError) as e:
        raise IOFailure(f"cannot read {file}: {e}") from e
    if dtype == "U":
        dtype_ok, dtype = array.dtype.kind == "U", "str"
    else:
        dtype_ok, dtype = array.dtype == dtype, np.dtype(dtype)
    if not dtype_ok or array.shape != shape:
        raise IOFailure(
            f"{file}: {array.dtype} array of shape {array.shape}, expected {dtype} of shape {shape}"
        )
    return array


def load_model_library(path, config) -> ModelLibrary:
    """The library that ``save_model_library`` wrote as directory ``path``,
    its columns memory-mapped read-only; ``config``, a SimConfig, names the
    library expected. A header whose ``version`` is not ``LIBRARY_VERSION``,
    or whose ``LIBRARY_KEYS`` settings differ from ``config``'s, raises
    MvorError naming the key and the header's path; a header that is not
    JSON raises ConfigParseError, and one of another format IOFailure. A file that cannot be
    read, a column whose dtype or shape is not that of the library of
    ``config``, or ``point_offsets`` other than ``model_points`` apart from
    0 raise IOFailure naming the file. Of the column values only
    the offsets are read; the rest are trusted to be what was saved."""
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
    offsets = _load_column(path, "point_offsets", np.int64, (n + 1,))
    if not np.array_equal(offsets, np.arange(n + 1) * config.model_points):
        raise IOFailure(
            f"{os.path.join(path, 'point_offsets.npy')}: offsets do not split the point "
            f"rows into {n} models of sim.model_points {config.model_points} rows each"
        )
    return ModelLibrary(
        family=_load_column(path, "family", "U", (n,)),
        footprint_radius=_load_column(path, "footprint_radius", np.float64, (n,)),
        point_offsets=offsets,
        points=_load_column(path, "points", np.float64, (rows, 3)),
        normals=_load_column(path, "normals", np.float64, (rows, 3)),
        point_descriptors=_load_column(
            path, "point_descriptors", np.float32, (rows, config.point_descriptor_dim)
        ),
    )
