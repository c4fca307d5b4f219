"""Every tunable has one home: its config dataclass.

The pipeline functions take their config section, or the value itself as a
required argument, so no signature keeps a second copy of a config default
that could drift from the dataclass (as a k-means ``seed=0`` default once
did beside a ``PerceptionConfig`` seed of 5).
"""

import dataclasses
import inspect

import pytest

from mvor.errors import ConfigParseError
from mvor.localization import (
    DescriptorNNMatcher,
    FeatureIdMatcher,
    LocalizationConfig,
    lift_to_3d,
    ransac_planar,
    retrieve_candidates,
)
from mvor.perception import (
    PerceptionConfig,
    build_database,
    extract_regions,
    prepare_goal_regions,
)
from mvor.planner import check_collision, find_buffer_pose, plan_and_execute
from mvor.serialize import from_dict
from mvor.sim import SimConfig, generate_instance

# function -> the parameters that carry a config value
CONFIG_VALUED = {
    FeatureIdMatcher: ["config"],
    DescriptorNNMatcher: ["config"],
    ransac_planar: ["config"],
    retrieve_candidates: ["top_n"],
    lift_to_3d: ["min_correspondences"],
    extract_regions: ["config"],
    build_database: ["config"],
    prepare_goal_regions: ["config"],
    check_collision: ["margin"],
    find_buffer_pose: ["config"],
    plan_and_execute: ["config"],
    generate_instance: ["seed"],
}

# the defaults these functions may keep: none of them is a config value
NOT_CONFIG = {"rng", "exclude", "reobserve"}


@pytest.mark.parametrize("fn", CONFIG_VALUED, ids=lambda fn: fn.__name__)
def test_config_values_are_required(fn):
    params = inspect.signature(fn).parameters
    defaulted = {n for n, p in params.items() if p.default is not inspect.Parameter.empty}
    assert set(CONFIG_VALUED[fn]) <= set(params)
    assert defaulted <= NOT_CONFIG, f"{fn.__name__} defaults {sorted(defaulted - NOT_CONFIG)}"


def test_instance_fallback_is_gone():
    assert "instance_fallback" not in {f.name for f in dataclasses.fields(LocalizationConfig)}
    with pytest.raises(ConfigParseError, match="instance_fallback"):
        from_dict(LocalizationConfig, {"instance_fallback": False})


def test_kmeans_settings_are_gone():
    names = {f.name for f in dataclasses.fields(PerceptionConfig)}
    for name in ("kmeans_restarts", "kmeans_iters", "kmeans_seed"):
        assert name not in names
        with pytest.raises(ConfigParseError, match=name):
            from_dict(PerceptionConfig, {name: 1})


def test_grid_pooling_settings_are_gone():
    """The descriptor pools the library's point descriptors and has no
    settings: region extraction's threshold is all perception holds."""
    assert [f.name for f in dataclasses.fields(PerceptionConfig)] == ["min_region_points"]
    for name in ("descriptor_dim", "norm_resolution", "pool_grid", "grid_weight",
                 "obs_bins", "obs_weight", "projection_seed"):
        with pytest.raises(ConfigParseError, match=name):
            from_dict(PerceptionConfig, {name: 1})


def test_generate_instance_seed_is_required():
    seed = inspect.signature(generate_instance).parameters["seed"]
    assert seed.default is inspect.Parameter.empty


@pytest.mark.parametrize(
    "cls, name", [(LocalizationConfig, "matcher_seed"), (SimConfig, "seed")]
)
def test_unread_seeds_are_gone(cls, name):
    """The matcher's noise stream is its scene's (``bench.scene_matcher``),
    and no code read ``sim.seed``: a config that sets either is refused."""
    assert name not in {f.name for f in dataclasses.fields(cls)}
    with pytest.raises(ConfigParseError, match=rf"unknown fields \['{name}'\]"):
        from_dict(cls, {name: 0})
