"""Instance and dataset files.

A dataset, as ``mvor gen`` writes it, is a directory holding
``manifest.json`` (format, version, count, seeds, file names and the sim
config echo), one ``instance_<seed:08d>.json`` per scene and ``library/``,
the model library the instances were generated with, as written by
``models.save_model_library`` (about 40 MB at the default config); each
``gen`` writes it anew, replacing any ``library/`` already there.
``build-db``, ``localize`` and ``rearrange`` given an instance file
memory-map the ``library/`` beside it instead of generating the library;
its header must carry ``models.LIBRARY_VERSION`` and name the instance's
config.

An instance file is a single JSON document carrying the table bounds, a
model-library reference (seed + size), initial and goal placements, the
per-object true planar offsets, the viewpoint poses as 4x4 row-major
matrices, and a full config echo. Floats round-trip bit-exactly through
JSON because Python serializes them via repr. Loading checks the presence
and type of every member, that every number is finite, that the table
bounds are ordered, the config's values, that the library reference is the
config's ``library_seed``/``library_size`` and that every model id lies in
the library, and raises ConfigParseError on a malformed document.
"""

from __future__ import annotations

import numbers
import os

import numpy as np

from ..errors import ConfigParseError
from ..geometry import PlanarTransform, Pose3
from ..serialize import dump_json, from_dict, is_finite, load_json, make_dirs, to_dict
from .config import SimConfig
from .scene import Placement, RearrangementInstance, Rect, SceneState

INSTANCE_FORMAT = "mvor-instance"
DATASET_FORMAT = "mvor-dataset"
FORMAT_VERSION = 2
LIBRARY_DIR = "library"


def _pose_to_rows(p: Pose3):
    return [[float(v) for v in row] for row in p.matrix]


def _placements_to_list(scene: SceneState):
    return [
        {"model_id": p.model_id, "yaw": p.pose.yaw, "tx": p.pose.tx, "ty": p.pose.ty}
        for p in scene.placements
    ]


def _placements_from_list(items, bounds: Rect) -> SceneState:
    return SceneState(
        bounds,
        tuple(
            Placement(int(i["model_id"]), PlanarTransform(i["yaw"], i["tx"], i["ty"]))
            for i in items
        ),
    )


def instance_to_dict(inst: RearrangementInstance) -> dict:
    b = inst.initial.table_bounds
    return {
        "format": INSTANCE_FORMAT,
        "version": FORMAT_VERSION,
        "seed": inst.seed,
        "library": {"seed": inst.config.library_seed, "size": inst.config.library_size},
        "table_bounds": [b.xmin, b.ymin, b.xmax, b.ymax],
        "initial": _placements_to_list(inst.initial),
        "goal": _placements_to_list(inst.goal),
        "true_offsets": [
            {"yaw": o.yaw, "tx": o.tx, "ty": o.ty} for o in inst.true_offsets
        ],
        "home_viewpoint": _pose_to_rows(inst.home_viewpoint),
        "ring_viewpoints": [_pose_to_rows(p) for p in inst.ring_viewpoints],
        "config": to_dict(inst.config),
    }


def _conforms(value, schema) -> bool:
    """``schema``: a type, a dict of member schemas, a tuple (fixed-length
    list) or a one-item list (list of any length). A float must be finite:
    Python's json reads NaN and Infinity."""
    if isinstance(schema, dict):
        return isinstance(value, dict) and all(_conforms(value.get(k), schema[k]) for k in schema)
    if isinstance(schema, (tuple, list)):
        if not isinstance(value, list):
            return False
        items = schema if isinstance(schema, tuple) else schema * len(value)
        return len(value) == len(items) and all(map(_conforms, value, items))
    kind = {int: numbers.Integral, float: numbers.Real}.get(schema, schema)
    return (
        isinstance(value, kind)
        and not isinstance(value, bool)
        and (schema is not float or is_finite(value))
    )


_PLANAR = {"yaw": float, "tx": float, "ty": float}
_MATRIX = ((float,) * 4,) * 4
_MEMBERS = {
    "config": dict,
    "library": {"seed": int, "size": int},
    "table_bounds": (float,) * 4,
    "initial": [{"model_id": int, **_PLANAR}],
    "goal": [{"model_id": int, **_PLANAR}],
    "true_offsets": [_PLANAR],
    "home_viewpoint": _MATRIX,
    "ring_viewpoints": [_MATRIX],
    "seed": int,
}


def instance_from_dict(data: dict) -> RearrangementInstance:
    """Rebuild an instance; a document that is not a well-formed instance
    raises ConfigParseError."""
    if not isinstance(data, dict):
        raise ConfigParseError(f"not an instance file (a JSON {type(data).__name__})")
    if data.get("format") != INSTANCE_FORMAT:
        raise ConfigParseError(f"not an instance file (format={data.get('format')!r})")
    if data.get("version") != FORMAT_VERSION:
        raise ConfigParseError(f"unsupported instance version {data.get('version')!r}")
    for name, schema in _MEMBERS.items():
        if not _conforms(data.get(name), schema):
            raise ConfigParseError(f"instance member {name!r} is missing, malformed or not finite")
    xmin, ymin, xmax, ymax = data["table_bounds"]
    if not (xmin < xmax and ymin < ymax):
        raise ConfigParseError(
            f"instance member 'table_bounds' {data['table_bounds']} is not "
            "[xmin, ymin, xmax, ymax] with xmin < xmax and ymin < ymax"
        )
    if data["seed"] < 0:
        raise ConfigParseError(f"instance member 'seed' is negative ({data['seed']})")
    if not len(data["initial"]) == len(data["goal"]) == len(data["true_offsets"]):
        raise ConfigParseError("instance placements and true offsets differ in length")
    config = from_dict(SimConfig, data["config"], "config")
    library = {"seed": config.library_seed, "size": config.library_size}
    if data["library"] != library:
        raise ConfigParseError(
            f"instance member 'library' {data['library']} disagrees with its config's {library}"
        )
    for name in ("initial", "goal"):
        ids = [p["model_id"] for p in data[name]]
        if not all(0 <= i < config.library_size for i in ids):
            raise ConfigParseError(
                f"instance member {name!r}: model ids {ids} outside the library's "
                f"[0, {config.library_size})"
            )
    bounds = Rect(*data["table_bounds"])
    return RearrangementInstance(
        initial=_placements_from_list(data["initial"], bounds),
        goal=_placements_from_list(data["goal"], bounds),
        true_offsets=[
            PlanarTransform(o["yaw"], o["tx"], o["ty"]) for o in data["true_offsets"]
        ],
        home_viewpoint=Pose3.from_matrix(np.array(data["home_viewpoint"])),
        ring_viewpoints=[Pose3.from_matrix(np.array(m)) for m in data["ring_viewpoints"]],
        seed=int(data["seed"]),
        config=config,
    )


def save_instance(inst: RearrangementInstance, path) -> None:
    dump_json(instance_to_dict(inst), path)


def load_instance(path) -> RearrangementInstance:
    return instance_from_dict(load_json(path))


def save_dataset(instances: list[RearrangementInstance], out_dir, config: SimConfig) -> None:
    """Write one instance file per scene plus a manifest."""
    make_dirs(out_dir)
    files = []
    for inst in instances:
        name = f"instance_{inst.seed:08d}.json"
        save_instance(inst, os.path.join(out_dir, name))
        files.append(name)
    dump_json(
        {
            "format": DATASET_FORMAT,
            "version": FORMAT_VERSION,
            "count": len(instances),
            "seeds": [inst.seed for inst in instances],
            "files": files,
            "config": to_dict(config),
        },
        os.path.join(out_dir, "manifest.json"),
    )

