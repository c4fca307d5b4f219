"""Close the loop: perceive the scene, then move objects until it matches
the goal image (``scene_goal_regions``, then ``complete_scene``). The
robot senses and acts only through the scene's ``World``: its captures
build the database, and every executed move in the log below is one
``World.execute``, with the instance's actuation noise. The
scene counts as completed when every object ends within the planner's
success thresholds (``scene_outcome``), as in the completion benchmark and
``mvor rearrange``.

Uses a deliberately entangled two-object swap on top of a generated scene.
Each of the pair blocks the other's goal, so both goal moves fail. Past
``thres_fail`` failures the planner moves the blocked object itself to a
buffer pose, which frees the other's goal, and the direct moves then
succeed. (ROADMAP item 4 plans to move the blocker instead.)
"""

import numpy as np

from mvor.bench import BenchConfig, complete_scene, scene_goal_regions, scene_outcome
from mvor.geometry import PlanarTransform
from mvor.sim import Placement, Rect, SceneState, SimConfig, generate_model_library
from mvor.sim.scene import RearrangementInstance

config = SimConfig()
cfg = BenchConfig(sim=config)
library = generate_model_library(config)

# objects 0 and 1 trade places (non-monotone: someone must yield first);
# objects 2 and 3 have plain independent moves
bounds = Rect(-0.5, -0.5, 0.5, 0.5)
initial_scene = SceneState(
    bounds,
    (
        Placement(0, PlanarTransform(0.0, -0.15, 0.00)),
        Placement(1, PlanarTransform(0.5, 0.15, 0.00)),
        Placement(2, PlanarTransform(1.0, -0.25, -0.30)),
        Placement(3, PlanarTransform(-0.8, 0.25, -0.30)),
    ),
)
goal_scene = SceneState(
    bounds,
    (
        Placement(0, PlanarTransform(0.9, 0.15, 0.00)),
        Placement(1, PlanarTransform(-0.4, -0.15, 0.00)),
        Placement(2, PlanarTransform(0.2, 0.25, 0.30)),
        Placement(3, PlanarTransform(1.4, -0.25, 0.30)),
    ),
)
instance = RearrangementInstance(
    initial=initial_scene, goal=goal_scene, seed=12, config=config
)
goal_regions = scene_goal_regions(instance, library, cfg)
_, result = complete_scene(instance, library, cfg, goal_regions)
outcome = scene_outcome(instance, result, cfg.planner)
print(f"completed: {outcome.completed} in {result.outer_iterations} outer iterations")
print(f"manipulations: {result.total_manipulations} "
      f"({sum(result.goal_moves.values())} goal, {sum(result.buffer_moves.values())} buffer)\n")
print("move log:")
for step, m in enumerate(result.moves, 1):
    status = "ok" if m.executed else "BLOCKED"
    print(
        f"  step {step:>2d}: object {m.object_index} {m.kind:<11s} -> "
        f"({m.target.tx * 100:+6.1f}, {m.target.ty * 100:+6.1f}) cm @ "
        f"{np.degrees(m.target.yaw):+7.1f} deg  [{status}]"
    )

print("\nfinal placement error per object:")
for o in outcome.objects:
    print(f"  object {o['object']}: {o['final_dtheta_deg']:.4f} deg, {o['final_dt_cm']:.4f} cm")
