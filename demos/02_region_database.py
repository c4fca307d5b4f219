"""Build the hierarchical region database and poke at retrieval.

The ring frames are one capture (``prepare_goal_regions``, which
``build_database`` runs before associating): each frame is segmented and
cut, and every region of every frame is described in one batch, visited
model by model. Every region becomes one row of the database's columns
(descriptor, observation direction) and adds its hits (feature id, world
point, view direction) to the hit columns. The frame with the most
regions names the object instances, and every region joins the instance
whose named region has the nearest centroid (the mean world point of its
hits); a frame that sees nothing adds no region, and the other frames
keep their positions in ``region_frame``. A goal region retrieves
candidates by descriptor dot product.
"""

import numpy as np

from mvor.geometry import look_at
from mvor.localization import retrieve_candidates
from mvor.perception import PerceptionConfig, build_database, prepare_goal_regions
from mvor.sim import SimConfig, generate_instance, generate_model_library, render

config = SimConfig(object_count_min=4, object_count_max=4)
perception = PerceptionConfig()
library = generate_model_library(config)
intr = config.intrinsics

instance = generate_instance(config, library, seed=7)
frames = render(instance.initial, config.ring_viewpoints, intr, library)
db = build_database(frames, library, perception)

print(f"database: {db.num_regions} regions grouped into {db.num_instances} instances")
for j in range(db.num_instances):
    members = np.flatnonzero(db.region_instance == j)
    views = sorted(db.region_frame[members].tolist())
    c = db.instance_centroids[j]
    print(f"  instance {j}: {len(members)} regions from frames {views}, centroid ({c[0]:+.2f}, {c[1]:+.2f})")

# a frame that sees nothing adds no region: put a camera facing away from
# the table first, and the database keeps its regions, numbered from frame 1
away = look_at([2.0, 0.0, 0.5], [3.0, 0.0, 0.5])
padded = build_database(
    render(instance.initial, [away, *config.ring_viewpoints], intr, library), library, perception
)
print(
    f"with an empty frame 0 first: {padded.num_regions} regions from frames "
    f"{sorted(set(padded.region_frame.tolist()))}"
)

# descriptors of the same instance agree far more than across instances
sims = db.descriptors @ db.descriptors.T
same = [sims[i, j] for i in range(db.num_regions) for j in range(i + 1, db.num_regions)
        if db.region_instance[i] == db.region_instance[j]]
cross = [sims[i, j] for i in range(db.num_regions) for j in range(i + 1, db.num_regions)
         if db.region_instance[i] != db.region_instance[j]]
print(f"\ndescriptor cosine: same-instance mean {np.mean(same):.3f}, cross-instance mean {np.mean(cross):.3f}")

# retrieval from the goal image of the (rearranged) goal scene
(goal_frame,) = render(instance.goal, [config.home_viewpoint], intr, library)
(goal_regions,) = prepare_goal_regions([goal_frame], library, perception)
print(f"\ngoal frame has {len(goal_regions)} regions; retrieval votes:")
for g in goal_regions:
    cands = retrieve_candidates(g, db, top_n=10)
    top = ", ".join(f"{s:.2f}" for s in cands.scores[:3])
    print(
        f"  goal region of object {g.source_instance} -> instance {cands.instance_id} "
        f"({len(cands.region_indices)} candidates, top scores {top})"
    )
