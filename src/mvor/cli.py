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
about 40 MB at the default config). Each ``gen`` generates the library and
writes it anew, replacing a ``library/`` already in the directory.
``build-db``, ``localize`` and ``rearrange`` given ``--instance`` memory-map
the ``library/`` beside the instance file rather than generating the
library; one whose header carries another version or differs from the
instance's config exits 2, naming the key and the header's path. An
instance file outside a dataset has its library generated, with the same
bits.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .bench import (
    BenchConfig,
    best_effort_error,
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
from .geometry import lift, pose_yaw
from .perception import load_database, save_database
from .serialize import dump_json, from_dict, load_json, make_dirs
from .sim import (
    generate_instance,
    generate_model_library,
    load_instance,
    load_model_library,
    save_dataset,
    save_instance,
    save_model_library,
)
from .sim.io import LIBRARY_DIR
from .sim.models import LIBRARY_KEYS


# build-db's --view, recorded in the header, and the view mode localize
# draws the scene's matcher noise for
VIEW_MODE_OF = {"ring": "multi", "home": "single"}


def load_config(path: str | None, seed: int | None) -> BenchConfig:
    cfg = from_dict(BenchConfig, load_json(path)) if path else BenchConfig()
    if seed is not None:
        cfg = replace(cfg, base_seed=seed)
        try:
            cfg.validate()
        except ValueError as e:
            raise ConfigParseError(f"--seed: {e}") from e
    return cfg


def _out_dir(args, default_name: str) -> str:
    if args.out:
        return args.out
    return os.path.join(os.environ.get("MVOR_OUT", "."), default_name)


def _instance_library(instance_path: str, sim):
    """The model library of the instance file at ``instance_path``, whose
    config is ``sim``: the dataset's ``library/`` beside the instance,
    memory-mapped, if there is one; else it is generated."""
    saved = os.path.join(os.path.dirname(instance_path), LIBRARY_DIR)
    if not os.path.lexists(saved):
        return generate_model_library(sim)
    return load_model_library(saved, sim)


def _scene_setup(cfg: BenchConfig, args):
    """(instance, its model library, the library's descriptor backend), the
    instance loaded from ``--instance`` or generated from config and seed."""
    if args.instance:
        inst = load_instance(args.instance)
        library = _instance_library(args.instance, inst.config)
    else:
        library = generate_model_library(cfg.sim)
        inst = generate_instance(cfg.sim, library, seed=cfg.base_seed)
    return inst, library, cfg.perception.make_backend(library)


def cmd_gen(args) -> int:
    cfg = load_config(args.config, args.seed)
    count = cfg.scenes if args.count is None else args.count
    if count < 1:
        raise ConfigParseError(f"--count: gen needs at least 1 instance, got {count}")
    library = generate_model_library(cfg.sim)
    instances = [
        generate_instance(cfg.sim, library, seed=cfg.base_seed + i) for i in range(count)
    ]
    out = _out_dir(args, "dataset")
    save_dataset(instances, out, cfg.sim)
    save_model_library(library, os.path.join(out, LIBRARY_DIR), cfg.sim)
    print(f"wrote {count} instances to {out}")
    return 0


def cmd_build_db(args) -> int:
    cfg = load_config(args.config, args.seed)
    inst, library, backend = _scene_setup(cfg, args)
    views = [inst.home_viewpoint] if args.view == "home" else inst.ring_viewpoints
    db = build_scene_database(inst, views, library, backend, cfg)
    out = _out_dir(args, "db.npz")
    save_database(
        db,
        out,
        extra_meta={
            # the settings the database depends on: its descriptors pool the
            # point descriptors of the library these generate
            **{key: getattr(inst.config, key) for key in LIBRARY_KEYS},
            "view": args.view,
            "instance_seed": inst.seed,
        },
    )
    print(f"wrote database ({db.num_instances} instances, {db.num_regions} regions) to {out}")
    return 0


def _pose_report_rows(inst, found):
    rows = []
    for u in sorted(found.by_instance):
        est = found.by_instance[u]
        # yaw_deg is read back off the matrix: degrees(offset.yaw) differs
        # from it in the last bit for some yaws
        T = lift(est.offset)
        row = {
            "instance": u,
            "accepted": bool(est.accepted),
            "yaw_deg": float(np.degrees(pose_yaw(T))),
            "tx_cm": float(est.offset.tx * 100),
            "ty_cm": float(est.offset.ty * 100),
            "T": [[float(v) for v in r] for r in T.matrix],
            **estimate_counters(est),
            "note": est.note,
        }
        if u in found.object_of:
            i = found.object_of[u]
            row["matched_object"] = i
            dtheta, dt = best_effort_error(est, inst.true_offsets[i])
            row["dtheta_deg"] = dtheta
            row["dt_cm"] = dt
        rows.append(row)
    return rows


def cmd_localize(args) -> int:
    cfg = load_config(args.config, args.seed)
    db, header = load_database(args.db)
    inst = load_instance(args.instance)
    # a mismatched database fails before the library is loaded
    for key in LIBRARY_KEYS:
        if header.get(key) != getattr(inst.config, key):
            raise MvorError(
                f"database built against {key} {header.get(key)}, "
                f"instance uses {getattr(inst.config, key)}"
            )
    if header.get("instance_seed") != inst.seed:
        raise MvorError(
            f"database built against instance_seed {header.get('instance_seed')}, "
            f"instance has seed {inst.seed}"
        )
    views = list(VIEW_MODE_OF)  # compared by ==: a header value need not be hashable
    if header.get("view") not in views:
        raise MvorError(f"database built against view {header.get('view')!r}, not one of {views}")
    # the header records the width, but the column itself may disagree
    width = inst.config.point_descriptor_dim
    if db.descriptors.shape[1] != width:
        raise MvorError(
            f"database descriptors have width {db.descriptors.shape[1]}, "
            f"instance's sim.point_descriptor_dim is {width}"
        )
    library = _instance_library(args.instance, inst.config)
    # checked once here: the feature_id matcher never reads the library, so
    # ids naming no row would only ever fail to match
    library.check_feature_ids(db.crop_feature_ids)
    backend = cfg.perception.make_backend(library)
    matcher = scene_matcher(inst, VIEW_MODE_OF[header["view"]], library, cfg)
    goal_regions = scene_goal_regions(inst, library, backend, cfg)
    found = localize_scene(inst, db, goal_regions, matcher, cfg)
    path = _out_dir(args, "poses.json")
    dump_json({"instance_seed": inst.seed, "objects": _pose_report_rows(inst, found)}, path)
    accepted = sum(1 for e in found.by_instance.values() if e.accepted)
    print(f"estimated {len(found.by_instance)} objects ({accepted} accepted); report at {path}")
    return 0


def cmd_rearrange(args) -> int:
    cfg = load_config(args.config, args.seed)
    inst, library, backend = _scene_setup(cfg, args)
    _, result = complete_scene(inst, library, backend, cfg)
    outcome = scene_outcome(inst, result, cfg.planner)
    out_dir = _out_dir(args, "rearrange")
    make_dirs(out_dir)
    save_instance(inst, os.path.join(out_dir, "instance.json"))
    dump_json([m.as_dict() for m in result.moves], os.path.join(out_dir, "moves.json"))
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
    report = args.driver(load_config(args.config, args.seed))
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
    sp.add_argument("--view", choices=list(VIEW_MODE_OF), default="ring")
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
