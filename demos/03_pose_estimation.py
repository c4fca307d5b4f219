"""Estimate every object's relative pose from a single goal image.

Retrieval narrows each goal region to one candidate instance; its regions
are matched locally in similarity order; matches lift to 2D-3D pairs
through the stored candidate geometry; a RANSAC over 2-pair planar
solves against the known goal camera recovers each object's motion on the
table (yaw, tx, ty). Each estimate carries that motion as its planar
``offset``, compared directly against the generator's true offset. Under
the slightly adversarial matcher below, every estimate is accepted, each
within 0.1 degree and 0.05 cm of the truth.

The database is the ring capture of the scene's ``World``, the true scene
the robot senses and acts through, before any move. The goal image is an
input of the task, so ``scene_goal_regions`` captures the goal scene itself.
"""

import numpy as np

from mvor import geometry as geo
from mvor.bench import (
    BenchConfig,
    World,
    build_scene_database,
    localize_scene,
    scene_goal_regions,
    scene_matcher,
)
from mvor.localization import LocalizationConfig
from mvor.sim import SimConfig, generate_instance, generate_model_library

cfg = BenchConfig(
    sim=SimConfig(object_count_min=5, object_count_max=5, rotation_regime="full"),
    # a slightly adversarial matcher: pixel noise plus 20% injected outliers
    localization=LocalizationConfig(sigma_px=1.0, outlier_rate=0.2),
)

library = generate_model_library(cfg.sim)

instance = generate_instance(cfg.sim, library, seed=3)
db = build_scene_database(World(instance, library, cfg), "multi")
# the scene's own noise stream: the pose bench and `mvor localize` draw the same
matcher = scene_matcher(instance, "multi", library, cfg)
goal_regions = scene_goal_regions(instance, library, cfg)
by_object = localize_scene(instance, db, goal_regions, matcher, cfg).by_object

print(f"{'object':>6s} {'true dyaw':>10s} {'est dyaw':>10s} {'err deg':>8s} {'err cm':>7s} "
      f"{'inliers':>7s} {'visited':>7s}")
for i in range(instance.initial.num_objects):
    est = by_object[i]
    truth = instance.true_offsets[i]
    dtheta, dt = geo.planar_distance(est.offset, truth)
    est_yaw = np.degrees(est.offset.yaw)
    print(
        f"{i:>6d} {np.degrees(truth.yaw):>9.1f}  {est_yaw:>9.1f}  {dtheta:>8.3f} {dt:>7.3f} "
        f"{est.inlier_count:>7d} {est.candidates_visited:>7d}"
    )
print("\nall estimates accepted:", all(e.accepted for e in by_object.values()))
