"""Instance and dataset files.

A dataset, as ``mvor gen`` writes it, is a directory holding
``manifest.json`` (format, version, count, seeds, file names and the sim
config echo), one ``instance_<seed:08d>.json`` per scene and ``library/``,
the model library the instances were generated with, as
``models.save_model_library`` generates and writes it, in blocks of at most
``models.BLOCK_ROWS`` descriptor rows (about 20 MB at the default config). ``write_dataset`` is the one writer
of the directory: it stages the library, places every instance against
it, and only then renames it over any ``library/`` already there, so a
failed ``gen`` keeps the library it would have replaced.
``instance_library`` gives ``build-db``, ``localize`` and ``rearrange``
the ``library/`` beside an instance file, memory-mapped, instead of
generating the library; its header must carry ``models.LIBRARY_VERSION``
and name the instance's config.

An instance file is a single JSON document holding only what was drawn:
``format``, ``version``, ``seed``, the ``initial`` and ``goal`` placements
and the full ``config`` echo. The table bounds and the true offsets are
derived from the config and the placements when the file is loaded, and
the cameras are the config's own, so the config echo governs them.
Floats round-trip bit-exactly through JSON because Python serializes them
via repr. A placement holds
exactly ``model_id``, ``yaw``, ``tx`` and ``ty``. Loading checks the
presence and type of every member and that every number is finite; the
config's values and the placement rules (``RearrangementInstance``) check
themselves as they are built. A malformed document raises
ConfigParseError.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass

from ..errors import ConfigParseError, IOFailure
from ..geometry import PlanarTransform
from ..serialize import dump_json, from_dict, json_text, load_json, make_dirs, to_dict
from .config import SimConfig
from .models import ModelLibrary, generate_model_library, load_model_library, save_model_library
from .scene import (
    Placement,
    RearrangementInstance,
    Rect,
    SceneState,
    _table_rect,
    generate_instance,
)

INSTANCE_FORMAT = "mvor-instance"
DATASET_FORMAT = "mvor-dataset"
FORMAT_VERSION = 3
LIBRARY_DIR = "library"


@dataclass
class _PlacementEntry:
    """One placement as an instance file writes it."""

    model_id: int
    yaw: float
    tx: float
    ty: float


def _placements_to_list(scene: SceneState):
    return [
        {"model_id": p.model_id, "yaw": p.pose.yaw, "tx": p.pose.tx, "ty": p.pose.ty}
        for p in scene.placements
    ]


def _placements_from_doc(data: dict, name: str) -> list[_PlacementEntry]:
    """The entries of placement list ``name``."""
    items = data.get(name)
    if not isinstance(items, list):
        raise ConfigParseError(f"instance member {name!r} is missing or not a list")
    return [from_dict(_PlacementEntry, item, f"{name}[{i}]") for i, item in enumerate(items)]


def _placements_from_list(entries: list[_PlacementEntry], bounds: Rect) -> SceneState:
    return SceneState(
        bounds,
        tuple(Placement(e.model_id, PlanarTransform(e.yaw, e.tx, e.ty)) for e in entries),
    )


def instance_to_dict(inst: RearrangementInstance) -> dict:
    return {
        "format": INSTANCE_FORMAT,
        "version": FORMAT_VERSION,
        "seed": inst.seed,
        "initial": _placements_to_list(inst.initial),
        "goal": _placements_to_list(inst.goal),
        "config": to_dict(inst.config),
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
    seed = data.get("seed")
    if type(seed) is not int or seed < 0:
        raise ConfigParseError(f"instance member 'seed' {seed!r} is not a non-negative integer")
    config = from_dict(SimConfig, data.get("config"), "config")
    initial, goal = _placements_from_doc(data, "initial"), _placements_from_doc(data, "goal")
    bounds = _table_rect(config)
    try:
        return RearrangementInstance(
            initial=_placements_from_list(initial, bounds),
            goal=_placements_from_list(goal, bounds),
            seed=seed,
            config=config,
        )
    except ValueError as e:
        raise ConfigParseError(str(e)) from e


def save_instance(inst: RearrangementInstance, path) -> None:
    dump_json(instance_to_dict(inst), path)


def instance_sha256(inst: RearrangementInstance) -> str:
    """The SHA-256 of the instance file ``save_instance`` writes for
    ``inst``; a file it wrote loads back to an instance with the same
    digest."""
    return hashlib.sha256(json_text(instance_to_dict(inst)).encode()).hexdigest()


def load_instance(path) -> RearrangementInstance:
    return instance_from_dict(load_json(path))


def instance_library(instance_path, sim: SimConfig) -> ModelLibrary:
    """The model library of the instance file at ``instance_path``, whose
    config is ``sim``: the dataset's ``library/`` beside the instance,
    memory-mapped, if there is one; else it is generated."""
    saved = os.path.join(os.path.dirname(instance_path), LIBRARY_DIR)
    if not os.path.lexists(saved):
        return generate_model_library(sim)
    return load_model_library(saved, sim)


def write_dataset(out_dir, sim: SimConfig, seeds) -> None:
    """Write the dataset of ``sim`` with one instance per seed into
    ``out_dir``: the library is written into a stage inside ``out_dir``
    and memory-mapped to place every instance, and only then renamed over
    ``library/``; the instance files and the manifest follow. A failure
    before that rename removes the stage, and ``out_dir`` if this call
    created it, and leaves any ``library/`` already there untouched; its
    IOFailure names ``library/``, not the stage."""
    library_dir = os.path.join(out_dir, LIBRARY_DIR)
    created = not os.path.lexists(out_dir)
    make_dirs(out_dir)
    try:
        with tempfile.TemporaryDirectory(
            prefix=".library-", dir=out_dir, ignore_cleanup_errors=True
        ) as stage:
            staged = os.path.join(stage, LIBRARY_DIR)
            save_model_library(staged, sim, shown_as=library_dir)
            # generate_instance reads only the footprint radii, so no
            # descriptor page of the mapped library is read
            library = load_model_library(staged, sim)
            instances = [generate_instance(sim, library, seed=seed) for seed in seeds]
            if os.path.lexists(library_dir):
                os.rename(library_dir, os.path.join(stage, "replaced"))
            os.rename(staged, library_dir)
    except BaseException as e:
        if created:
            shutil.rmtree(out_dir, ignore_errors=True)
        if isinstance(e, OSError):
            raise IOFailure(f"cannot write {library_dir}: {e}") from e
        raise
    files = [f"instance_{inst.seed:08d}.json" for inst in instances]
    for inst, name in zip(instances, files):
        save_instance(inst, os.path.join(out_dir, name))
    dump_json(
        {
            "format": DATASET_FORMAT,
            "version": FORMAT_VERSION,
            "count": len(instances),
            "seeds": [inst.seed for inst in instances],
            "files": files,
            "config": to_dict(sim),
        },
        os.path.join(out_dir, "manifest.json"),
    )
