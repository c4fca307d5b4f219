from .matching import Correspondences2D, DescriptorNNMatcher, FeatureIdMatcher
from .pipeline import (
    CandidateList,
    LocalizationConfig,
    PoseEstimate,
    estimate_all,
    estimate_object,
    lift_to_3d,
    prune_after_rejection,
    retrieve_candidates,
    solve_pose,
)
from .pnp import epnp, ransac_planar, ransac_pnp, refine_pose, reprojection_sq_errors

__all__ = [
    "Correspondences2D",
    "DescriptorNNMatcher",
    "FeatureIdMatcher",
    "CandidateList",
    "LocalizationConfig",
    "PoseEstimate",
    "estimate_all",
    "estimate_object",
    "lift_to_3d",
    "prune_after_rejection",
    "retrieve_candidates",
    "solve_pose",
    "epnp",
    "ransac_planar",
    "ransac_pnp",
    "refine_pose",
    "reprojection_sq_errors",
]
