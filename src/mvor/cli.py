"""Command-line interface.

Subcommands mirror the pipeline stages: ``gen`` (dataset), ``build-db``,
``localize``, ``rearrange``, ``bench-pose``, ``bench-completion``. Every
command takes ``--config`` (a JSON file mirroring BenchConfig), ``--seed``
and ``--out``; the MVOR_OUT environment variable supplies the default
output directory. Machine-readable outputs are byte-deterministic for a
fixed (config, seed).

``gen`` writes a dataset directory: ``manifest.json``, one
``instance_<seed:08d>.json`` per scene and ``library/``, the model library
the instances were generated with (one ``.npy`` per column and a
``header.json`` naming its format version and ``LIBRARY_KEYS`` settings;
about 20 MB at the default config), through ``sim.io.write_dataset``:
each ``gen`` stages the library anew, memory-maps it to place the
instances, and only then renames it over a ``library/`` already in the
directory. It writes each block of at most 128 descriptor rows as soon
as it is drawn, so its memory grows with neither the library nor
``sim.model_points``. A ``gen`` that fails
leaves no new directory behind and keeps the ``library/`` it would have
replaced.
``build-db``, ``localize`` and ``rearrange`` given ``--instance`` memory-map
the ``library/`` beside the instance file rather than generating the
library; one whose header carries another version or differs from the
instance's config exits 2, naming the key and the header's path. An
instance file outside a dataset has its library generated, with the same
bits. Either way the instance's scenes are checked against the library
(``sim.scene.check_scenes``): a footprint that leaves the table or
overlaps another exits 2, as does an instance that places no object. The
instance fixes the seed and the sim config: a ``--seed`` or ``--config``
sim value that differs from the instance's exits 2.

A view that sees nothing adds no region; a capture in which none sees an
object exits 2 ("no regions in any frame"). ``localize`` refuses a
database whose header names another library, view, seed or instance file
(``instance_sha256``: the SHA-256 of the text ``save_instance`` writes),
and one with more instances than the instance has objects; every row of
its ``poses.json`` names the object its instance is paired with.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .bench import (
    VIEW_MODES,
    BenchConfig,
    World,
    build_scene_database,
    complete_scene,
    estimate_counters,
    format_report,
    localize_scene,
    run_completion_bench,
    run_pose_bench,
    scene_goal_regions,
    scene_matcher,
    scene_outcome,
    write_report,
)
from .errors import ConfigParseError, MvorError
from .geometry import lift, planar_distance, pose_yaw
from .perception import load_database, save_database
from .serialize import dump_json, from_dict, load_json, make_dirs
from .sim import (
    generate_instance,
    generate_model_library,
    load_instance,
    save_instance,
    write_dataset,
)
from .sim.io import instance_library, instance_sha256
from .sim.scene import check_scenes
from .sim.models import LIBRARY_KEYS


# build-db's --view choices, recorded in the header
VIEWS = [m.view for m in VIEW_MODES.values()]


def _view_mode(view: str) -> str:
    """The view mode of a database built on ``view``: what build-db
    captures and the matcher noise localize draws."""
    return next(mode for mode, m in VIEW_MODES.items() if m.view == view)


def load_config(path: str | None, seed: int | None) -> tuple[BenchConfig, list]:
    """The config ``--config`` and ``--seed`` give, and the ``sim`` keys
    the ``--config`` file sets."""
    data = load_json(path) if path else {}
    cfg = from_dict(BenchConfig, data)
    if seed is not None:
        try:
            cfg = replace(cfg, base_seed=seed)
        except ValueError as e:
            raise ConfigParseError(f"--seed: {e}") from e
    return cfg, list(data.get("sim", {}))


def _out_dir(args, default_name: str) -> str:
    if args.out:
        return args.out
    return os.path.join(os.environ.get("MVOR_OUT", "."), default_name)


def _load_instance(args, cfg: BenchConfig, sim_keys: list):
    """The ``--instance`` file; a ``--seed`` or a ``--config`` sim value
    (``sim_keys`` names those the user gave) that differs from the
    instance's is refused."""
    inst = load_instance(args.instance)
    if args.seed is not None and args.seed != inst.seed:
        raise ConfigParseError(f"--seed {args.seed}: the instance has seed {inst.seed}")
    for key in sim_keys:
        ours, theirs = getattr(cfg.sim, key), getattr(inst.config, key)
        if ours != theirs:
            raise ConfigParseError(f"--config sim.{key} {ours!r}: the instance has {theirs!r}")
    return inst


def _scene_setup(cfg: BenchConfig, args, sim_keys: list):
    """(instance, its model library), the instance loaded from
    ``--instance``, its scenes checked against the library, or generated
    from config and seed."""
    if args.instance:
        inst = _load_instance(args, cfg, sim_keys)
        library = instance_library(args.instance, inst.config)
        check_scenes(inst, library)
    else:
        library = generate_model_library(cfg.sim)
        inst = generate_instance(cfg.sim, library, seed=cfg.base_seed)
    return inst, library


def cmd_gen(args) -> int:
    cfg, _ = load_config(args.config, args.seed)
    count = cfg.scenes if args.count is None else args.count
    if count < 1:
        raise ConfigParseError(f"--count: gen needs at least 1 instance, got {count}")
    out = _out_dir(args, "dataset")
    write_dataset(out, cfg.sim, range(cfg.base_seed, cfg.base_seed + count))
    print(f"wrote {count} instances to {out}")
    return 0


def _database_provenance(inst, view: str) -> dict:
    """What a database header records of the scene it was built from, which
    ``localize`` checks: the settings its descriptors depend on (they pool
    the point descriptors of the library these generate), the view, the
    instance's seed and the SHA-256 of its instance file as
    ``save_instance`` writes it, which tells apart two scenes of one seed."""
    return {
        **{key: getattr(inst.config, key) for key in LIBRARY_KEYS},
        "view": view,
        "instance_seed": inst.seed,
        "instance_sha256": instance_sha256(inst),
    }


def _check_provenance(header: dict, expected: dict) -> None:
    """Raise MvorError naming the first key of ``expected`` whose value the
    database header does not hold."""
    for key, value in expected.items():
        # compared by ==: a header value need not be hashable
        if header.get(key) != value:
            raise MvorError(f"database built against {key} {header.get(key)}, instance has {value}")


def cmd_build_db(args) -> int:
    cfg, sim_keys = load_config(args.config, args.seed)
    inst, library = _scene_setup(cfg, args, sim_keys)
    db = build_scene_database(World(inst, library, cfg), _view_mode(args.view))
    out = _out_dir(args, "db.npz")
    save_database(db, out, extra_meta=_database_provenance(inst, args.view))
    print(f"wrote database ({db.num_instances} instances, {db.num_regions} regions) to {out}")
    return 0


def _pose_report_rows(inst, estimates: dict) -> list:
    """poses.json's rows: one per estimate a goal region claimed, in
    instance order, each naming its matched object and its error."""
    rows = []
    claimed = [(est.instance_id, i) for i, est in estimates.items() if est.instance_id is not None]
    for u, i in sorted(claimed):
        est = estimates[i]
        # yaw_deg is read back off the matrix: degrees(offset.yaw) differs
        # from it in the last bit for some yaws
        T = lift(est.offset)
        dtheta, dt = planar_distance(est.offset, inst.true_offsets[i])
        rows.append({
            "instance": u,
            "accepted": bool(est.accepted),
            "yaw_deg": float(np.degrees(pose_yaw(T))),
            "tx_cm": float(est.offset.tx * 100),
            "ty_cm": float(est.offset.ty * 100),
            "T": [[float(v) for v in r] for r in T.matrix],
            **estimate_counters(est),
            "note": est.note,
            "matched_object": i,
            "dtheta_deg": dtheta,
            "dt_cm": dt,
        })
    return rows


def cmd_localize(args) -> int:
    cfg, sim_keys = load_config(args.config, args.seed)
    db, header = load_database(args.db)
    inst = _load_instance(args, cfg, sim_keys)
    # a mismatched database fails before the library is loaded, but for
    # the instance digest: an instance that breaks the collision model is
    # refused as such (check_scenes), not as another scene
    if header.get("view") not in VIEWS:
        raise MvorError(f"database built against view {header.get('view')!r}, not one of {VIEWS}")
    provenance = _database_provenance(inst, header["view"])
    digest = {"instance_sha256": provenance.pop("instance_sha256")}
    _check_provenance(header, provenance)
    # the header records the width, but the column itself may disagree
    width = inst.config.point_descriptor_dim
    if db.descriptors.shape[1] != width:
        raise MvorError(
            f"database descriptors have width {db.descriptors.shape[1]}, "
            f"instance's sim.point_descriptor_dim is {width}"
        )
    library = instance_library(args.instance, inst.config)
    check_scenes(inst, library)
    _check_provenance(header, digest)
    # a built database names at most one instance per object: each pairs with one
    objects = inst.initial.num_objects
    if db.num_instances > objects:
        raise MvorError(
            f"database has {db.num_instances} instances, the instance has {objects} objects"
        )
    # checked once here: the feature_id matcher never reads the library, so
    # ids naming no row would only ever fail to match
    library.check_feature_ids(db.crop_feature_ids)
    matcher = scene_matcher(inst, _view_mode(header["view"]), library, cfg)
    goal_regions = scene_goal_regions(inst, library, cfg)
    rows = _pose_report_rows(inst, localize_scene(inst, db, goal_regions, matcher, cfg))
    path = _out_dir(args, "poses.json")
    dump_json({"instance_seed": inst.seed, "objects": rows}, path)
    accepted = sum(r["accepted"] for r in rows)
    print(f"estimated {len(rows)} objects ({accepted} accepted); report at {path}")
    return 0


def cmd_rearrange(args) -> int:
    cfg, sim_keys = load_config(args.config, args.seed)
    inst, library = _scene_setup(cfg, args, sim_keys)
    _, result = complete_scene(inst, library, cfg, scene_goal_regions(inst, library, cfg))
    outcome = scene_outcome(inst, result, cfg.planner)
    out_dir = _out_dir(args, "rearrange")
    make_dirs(out_dir)
    save_instance(inst, os.path.join(out_dir, "instance.json"))
    moves = [m.as_dict(step) for step, m in enumerate(result.moves, 1)]
    dump_json(moves, os.path.join(out_dir, "moves.json"))
    dump_json(
        {
            "completed": outcome.completed,
            "outer_iterations": result.outer_iterations,
            "total_manipulations": result.total_manipulations,
            "objects": outcome.objects,
        },
        os.path.join(out_dir, "result.json"),
    )
    print(
        f"rearrangement {'completed' if outcome.completed else 'INCOMPLETE'} in "
        f"{result.total_manipulations} manipulations; outputs in {out_dir}"
    )
    return 0


def cmd_bench(args) -> int:
    report = args.driver(load_config(args.config, args.seed)[0])
    out = _out_dir(args, f"bench_{report.kind}")
    write_report(report, out)
    print(format_report(report), end="")
    print(f"outputs in {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mvor", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out_help):
        sp.add_argument("--config", help="JSON config file (BenchConfig schema)")
        sp.add_argument("--seed", type=int, help="override the base seed")
        sp.add_argument("--out", help=out_help)

    sp = sub.add_parser("gen", help="generate a dataset of rearrangement instances")
    common(sp, "output dataset directory")
    sp.add_argument("--count", type=int, help="number of instances (default: config scenes)")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("build-db", help="build a region database for an instance")
    common(sp, "output .npz path")
    sp.add_argument("--instance", help="instance JSON (default: generate from config+seed)")
    sp.add_argument("--view", choices=VIEWS, default="ring")
    sp.set_defaults(func=cmd_build_db)

    sp = sub.add_parser("localize", help="estimate object poses from a goal frame")
    common(sp, "output report JSON path")
    sp.add_argument("--db", required=True, help="database .npz from build-db")
    sp.add_argument("--instance", required=True, help="instance JSON")
    sp.set_defaults(func=cmd_localize)

    sp = sub.add_parser("rearrange", help="run the full perceive-and-rearrange loop")
    common(sp, "output directory")
    sp.add_argument("--instance", help="instance JSON (default: generate from config+seed)")
    sp.set_defaults(func=cmd_rearrange)

    sp = sub.add_parser("bench-pose", help="pose-estimation benchmark")
    common(sp, "output directory")
    sp.set_defaults(func=cmd_bench, driver=run_pose_bench)

    sp = sub.add_parser("bench-completion", help="task-completion benchmark")
    common(sp, "output directory")
    sp.set_defaults(func=cmd_bench, driver=run_completion_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MvorError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
