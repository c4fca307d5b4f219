"""SHA-256 of every machine-readable output of a fixed set of CLI runs.

Usage: ``python3 scripts/output_digests.py`` (no flags). Runs, through
``mvor.cli.main`` in a temporary directory and with the sources of the
checkout that holds this script:

- ``bench-pose``: 3 scenes, minor and full, multi- and single-view, with a
  noisy matcher (1 px, 20 % outliers);
- ``bench-completion``: 3 scenes, minor and full, 3 mm actuation;
- ``gen`` of 2 instances (3 mm actuation in their config), then for each
  instance ``build-db`` on the ring and on the home view, ``localize``
  against both databases, and ``rearrange``;
- ``localize`` of the first instance against its ring database with the
  ``descriptor_nn`` matcher, which reads the library's point descriptors;
- with ``tuned.json``, which sets a non-default value for every retrieval,
  matching, RANSAC, region and planner setting the pipeline
  functions read from their config section: ``build-db``, ``localize``
  (``feature_id``, then ``descriptor_nn`` with its own ratio test and
  match cap) and ``rearrange`` of the first instance, and a 2-scene
  ``bench-pose``. A setting lost on its way to the function that reads it
  changes these outputs, where the default runs would still match. Each
  tuned value was checked to move some output when put back to its
  default. The descriptor has no settings of its own: it reads the
  library's point descriptors;
- ``build-db`` on the ring view and ``localize`` of the first instance
  copied into ``outside/``, away from the dataset's ``library/``, so its
  model library is generated rather than memory-mapped.

It prints ``sha256  path`` for every file written, except the
human-readable ``report.txt`` (it carries the wall clock). Two checkouts
produce the same outputs when this script prints the same lines in both;
compare them with ``diff``. The run fails unless some home-view
``poses.json`` holds an estimate that was never solved, so the identity
fallback is always covered, and unless the ``outside/`` database and
poses are byte for byte those of the same commands run inside the dataset.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from mvor import cli  # noqa: E402

TUNED = {
    "scenes": 2,
    "perception": {"min_region_points": 400},
    "localization": {
        "top_n": 60, "match_resolution": 200, "min_correspondences": 300,
        "max_view_angle_deg": 50.0,
        "drop_rate": 0.1, "sigma_px": 0.7, "outlier_rate": 0.25,
        "ransac_iterations": 3, "reproj_threshold_px": 2.5, "ransac_confidence": 0.8,
        "ransac_seed": 13, "refine_iters": 1,
    },
    "planner": {"collision_margin": 0.03, "buffer_attempts": 3},
}
CONFIGS = {
    "pose.json": {
        "scenes": 3,
        "localization": {"sigma_px": 1.0, "outlier_rate": 0.2},
    },
    "completion.json": {"scenes": 3, "sim": {"actuation_sigma": 0.003}},
    "scene.json": {"sim": {"actuation_sigma": 0.003}},
    "nn.json": {"localization": {"matcher": "descriptor_nn"}},
    "tuned.json": TUNED,
    "tuned_nn.json": {
        **TUNED,
        "localization": {
            **TUNED["localization"],
            "matcher": "descriptor_nn", "ratio_test": 0.99, "max_matches": 700,
        },
    },
}
INSTANCES = 2
OUTSIDE = "outside"  # a copy of the first instance with no library beside it


def commands() -> list[list[str]]:
    cmds = [
        ["bench-pose", "--config", "pose.json", "--out", "bench_pose"],
        ["bench-completion", "--config", "completion.json", "--out", "bench_completion"],
        ["gen", "--config", "scene.json", "--count", str(INSTANCES), "--out", "dataset"],
    ]
    for seed in range(INSTANCES):
        inst = f"dataset/instance_{seed:08d}.json"
        for view in ("ring", "home"):
            db = f"db_{seed}_{view}.npz"
            cmds.append(["build-db", "--config", "scene.json", "--instance", inst,
                         "--view", view, "--out", db])
            cmds.append(["localize", "--config", "scene.json", "--db", db,
                         "--instance", inst, "--out", f"poses_{seed}_{view}.json"])
        cmds.append(["rearrange", "--config", "scene.json", "--instance", inst,
                     "--out", f"rearrange_{seed}"])
    inst = "dataset/instance_00000000.json"
    cmds.append(["localize", "--config", "nn.json", "--db", "db_0_ring.npz",
                 "--instance", inst, "--out", "poses_0_ring_nn.json"])
    cmds += [
        ["build-db", "--config", "tuned.json", "--instance", inst, "--out", "tuned_db.npz"],
        ["localize", "--config", "tuned.json", "--db", "tuned_db.npz", "--instance", inst,
         "--out", "tuned_poses.json"],
        ["localize", "--config", "tuned_nn.json", "--db", "tuned_db.npz", "--instance", inst,
         "--out", "tuned_poses_nn.json"],
        ["rearrange", "--config", "tuned.json", "--instance", inst, "--out", "tuned_rearrange"],
        ["bench-pose", "--config", "tuned.json", "--out", "tuned_bench_pose"],
    ]
    return cmds


def outside_commands() -> list[list[str]]:
    inst = f"{OUTSIDE}/instance_00000000.json"
    db = f"{OUTSIDE}/db_0_ring.npz"
    return [
        ["build-db", "--config", "scene.json", "--instance", inst, "--view", "ring",
         "--out", db],
        ["localize", "--config", "scene.json", "--db", db, "--instance", inst,
         "--out", f"{OUTSIDE}/poses_0_ring.json"],
    ]


def run(cmds: list[list[str]]) -> bool:
    for argv in cmds:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            print(f"mvor {' '.join(argv)} exited with {rc}", file=sys.stderr)
            return False
    return True


def same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def never_solved(path: str) -> bool:
    with open(path, encoding="utf-8") as f:
        objects = json.load(f)["objects"]
    return any(o["inliers"] == 0 and o["correspondences"] == 0 for o in objects)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in CONFIGS.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as f:
                json.dump(cfg, f)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            if not run(commands()):
                return 1
            os.mkdir(OUTSIDE)
            shutil.copy("dataset/instance_00000000.json", OUTSIDE)
            if not run(outside_commands()):
                return 1
            for name in ("db_0_ring.npz", "poses_0_ring.json"):
                if not same_bytes(name, os.path.join(OUTSIDE, name)):
                    print(f"{OUTSIDE}/{name} differs from {name}: the library saved "
                          "in the dataset and the one generated disagree", file=sys.stderr)
                    return 1
        finally:
            os.chdir(cwd)
        paths = sorted(
            os.path.relpath(os.path.join(root, name), tmp)
            for root, _, names in os.walk(tmp)
            for name in names
            if name != "report.txt" and name not in CONFIGS
        )
        for rel in paths:
            with open(os.path.join(tmp, rel), "rb") as f:
                print(f"{hashlib.sha256(f.read()).hexdigest()}  {rel}")
        home = [os.path.join(tmp, p) for p in paths if p.endswith("_home.json")]
        if not any(never_solved(p) for p in home):
            print("no home-view estimate was left unsolved", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
