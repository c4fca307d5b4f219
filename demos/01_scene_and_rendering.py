"""Build the procedural world and look at what the cameras see.

Walks through: model library generation, sampling a rearrangement task
(goal scene first, then a shuffled initial scene), rendering the ring of
viewpoints, and checking that the stored hits back-project onto the true
object surfaces. The cameras belong to the config: ``config.intrinsics``,
``config.home_viewpoint`` and ``config.ring_viewpoints`` are derived once,
when the config is built, and every instance of it reads them there.
"""

import numpy as np

from mvor import geometry as geo
from mvor.sim import SimConfig, generate_instance, generate_model_library, render, segment
from mvor.sim.models import FAMILIES

config = SimConfig(object_count_min=4, object_count_max=6)
library = generate_model_library(config)

print(f"model library: {len(library)} models (seed {config.library_seed})")
# the library stores only what was drawn, as columns: the per-model
# footprint radius, and every model's points concatenated, model_points
# rows each. The family is not stored: it cycles box, cylinder, L-prism
print(f"  {library.model_points} surface points per model")
for m in range(4):
    print(
        f"  model {m} [{FAMILIES[m % 3]:8s}] "
        f"footprint radius {library.footprint_radius[m] * 100:.1f} cm"
    )

instance = generate_instance(config, library, seed=42)
print(f"\nscene with {instance.initial.num_objects} objects; per-object true offsets:")
for i, off in enumerate(instance.true_offsets):
    print(
        f"  object {i}: rotate {np.degrees(off.yaw):+7.1f} deg, "
        f"move ({off.tx * 100:+.1f}, {off.ty * 100:+.1f}) cm"
    )

# render the ring of database viewpoints around the initial scene, in one
# call: the models are posed once, and the frames come back in view order
intr = config.intrinsics
frames = render(instance.initial, config.ring_viewpoints, intr, library)
print(f"\nrendered {len(frames)} ring frames at {intr.width}x{intr.height}")
for k, f in enumerate(frames[:3]):
    print(
        f"  frame {k}: {len(f.feature_ids)} pixels hit, "
        f"{len(segment(f))} objects visible, "
        f"depth range {f.depth.min():.2f}..{f.depth.max():.2f} m"
    )

# a frame is the list of z-buffer winners, one per hit pixel: every hit
# carries its exact projection, whose nearest pixel is the one it won, and
# its depth, so back-projecting recovers the world point that won the
# z-buffer
f = frames[0]
cols, rows = geo.nearest_pixel(f.px).T
print(f"\nframe 0 hits rows {rows.min()}..{rows.max()}, columns {cols.min()}..{cols.max()}")
world = geo.back_project_pixels(intr, geo.invert(f.viewpoint), f.px, f.depth)
print(f"back-projected {len(world)} pixels from frame 0")
print(f"  world z range: {world[:, 2].min():.3f}..{world[:, 2].max():.3f} m (table is z=0)")

# a camera that sees no object renders a frame with no hits, which keeps
# its viewpoint and segments into nothing: it adds no region to a database
away = geo.look_at([2.0, 0.0, 0.5], [3.0, 0.0, 0.5])
(empty,) = render(instance.initial, [away], intr, library)
print(f"\na camera facing away: {len(empty.feature_ids)} pixels hit, "
      f"{len(segment(empty))} objects visible")
