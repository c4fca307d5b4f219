"""Every tunable has one home: its config dataclass.

The pipeline functions take their config section, or the value itself as a
required argument, so no signature keeps a second copy of a config default
that could drift from the dataclass (as a k-means ``seed=0`` default once
did beside a ``PerceptionConfig`` seed of 5).
"""

import dataclasses
import importlib
import math
import inspect
import pkgutil
import typing

import numpy as np
import pytest

import mvor
from mvor.bench import BenchConfig, World, capture
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
from mvor.geometry import CameraIntrinsics, PlanarTransform, Pose3
from mvor.planner import PlannerConfig, check_collision, find_buffer_pose, plan_and_execute
from mvor.serialize import ConfigSection, from_dict
from mvor.sim import (
    SimConfig,
    generate_instance,
    generate_model_library,
    load_instance,
    save_instance,
)
from mvor.geometry import look_at
from mvor.sim import config as sim_config
from mvor.sim.config import MAX_ACTUATION_SIGMA, MAX_TABLE_SIDE, MIN_MODEL_POINTS
from mvor.sim.io import instance_from_dict, instance_to_dict
from mvor.sim.scene import (
    TABLE_EDGE,
    Placement,
    RearrangementInstance,
    Rect,
    SceneState,
    placement_conflict,
)

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
    capture: ["cfg"],
    World: ["cfg"],
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


SECTIONS = [SimConfig, PerceptionConfig, LocalizationConfig, PlannerConfig, BenchConfig]

# values tried, in order, for a value a setting refuses: every bounded
# range starts at 0 or above
OUTSIDE = {int: [-1, 2**62], float: [-1.0, 1e300], str: ["no-such-choice"]}


def _refused_values():
    """(section, field, a value its setting refuses), for every setting."""
    cases = []
    for cls in SECTIONS:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if "allowed" in f.metadata:
                allowed, _ = f.metadata["allowed"]
                bad = next((v for v in OUTSIDE[hints[f.name]] if not allowed(v)), None)
                if bad is None:
                    # a setting that allows every finite value refuses only
                    # values from_dict refuses first, as not finite
                    # (test_non_finite_camera_settings_refused)
                    continue
                cases.append(pytest.param(cls, f.name, bad, id=f"{cls.__name__}.{f.name}"))
    return cases


@pytest.mark.parametrize("cls, name, bad", _refused_values())
def test_section_refuses_value_when_built(cls, name, bad):
    """Built in Python, a section refuses a value its setting does not
    allow, naming the field; from_dict refuses it with the same text."""
    with pytest.raises(ValueError, match=rf"^{name}=") as built:
        cls(**{name: bad})
    with pytest.raises(ConfigParseError) as parsed:
        from_dict(cls, {name: bad})
    assert str(parsed.value) == f"config: {built.value}"


@pytest.mark.parametrize(
    "build, name",
    [
        # completion read 0.0 for a scene whose objects all ended ~1e-14 deg off
        (lambda: PlannerConfig(success_yaw_deg=-5.0), "success_yaw_deg"),
        (lambda: BenchConfig(scenes=-2), "scenes"),  # an empty report
        (lambda: BenchConfig(regimes=[]), "regimes is empty"),
        (lambda: SimConfig(object_count_min=5, object_count_max=2), "object count range"),
    ],
)
def test_invalid_section_cannot_be_built(build, name):
    with pytest.raises(ValueError, match=name):
        build()


@pytest.mark.parametrize("cls", SECTIONS, ids=lambda cls: cls.__name__)
def test_sections_are_frozen(cls):
    """A setting changes only through ``dataclasses.replace``, which checks
    the section it builds."""
    obj = cls()
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, getattr(obj, name))


def test_regimes_cannot_change_in_place():
    """``regimes.append("sideways")`` once left a built BenchConfig holding
    a regime its check refuses; a list, as JSON gives it, is kept as a
    tuple."""
    cfg = BenchConfig(regimes=["minor", "full"])
    assert cfg.regimes == ("minor", "full")
    with pytest.raises(AttributeError):
        cfg.regimes.append("sideways")
    assert from_dict(BenchConfig, {"regimes": ["full"]}).regimes == ("full",)
    with pytest.raises(ConfigParseError, match="regimes: expected tuple, got str"):
        from_dict(BenchConfig, {"regimes": "full"})


def test_replace_checks_the_new_section():
    with pytest.raises(ValueError, match="outer_factor=0"):
        dataclasses.replace(PlannerConfig(), outer_factor=0)


def test_every_setting_is_checked_when_built():
    """Every dataclass in mvor that declares a ``setting`` field derives
    from ConfigSection, so it is checked when it is built."""
    declaring = set()
    for info in pkgutil.walk_packages(mvor.__path__, "mvor."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
                and any("allowed" in f.metadata for f in dataclasses.fields(cls))
            ):
                declaring.add(cls)
    assert declaring == set(SECTIONS)
    assert all(issubclass(cls, ConfigSection) for cls in declaring)


@pytest.mark.parametrize(
    "sim, value",
    [
        ("table_width", 1.0),
        ("table_depth", MAX_TABLE_SIDE / 2),
        ("actuation_sigma", 0.2),
        ("actuation_sigma", MAX_ACTUATION_SIGMA),
        ("model_points", MIN_MODEL_POINTS),
    ],
)
def test_bounded_sim_values_in_range(sim, value):
    assert getattr(SimConfig(**{sim: value}), sim) == value


@pytest.mark.parametrize(
    "sim, value",
    [
        ("table_width", MAX_TABLE_SIDE),  # an open range
        ("table_depth", 1e308),
        ("actuation_sigma", 2 * MAX_ACTUATION_SIGMA),
        ("actuation_sigma", 1e308),
        # below it a model could sample more than model_points points
        ("model_points", MIN_MODEL_POINTS - 1),
    ],
)
def test_bounded_sim_values_past_the_bound(sim, value):
    with pytest.raises(ValueError, match=rf"^{sim}="):
        SimConfig(**{sim: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("sim", ["focal_px", "home_azimuth_deg"])
def test_non_finite_camera_settings_refused(sim, value):
    """A NaN or infinite focal length or home azimuth once built a
    SimConfig, an infinite azimuth warning in np.cos; the camera itself
    refuses a focal length that is not finite."""
    with pytest.raises(ValueError, match=rf"^{sim}="):
        SimConfig(**{sim: value})
    if sim == "focal_px":
        intr = dataclasses.asdict(SimConfig().intrinsics)
        for axis in ("fx", "fy"):
            with pytest.raises(ValueError, match="positive and finite"):
                CameraIntrinsics(**{**intr, axis: value})


def _scene(models):
    return SceneState(
        Rect(-0.5, -0.5, 0.5, 0.5),
        tuple(Placement(m, PlanarTransform(0.0, 0.1 * k, 0.0)) for k, m in enumerate(models)),
    )


@pytest.mark.parametrize(
    "initial, goal, message",
    [
        # was judged completed on 7 objects
        (range(8), range(7), "'initial' and 'goal' differ in length"),
        ([0, 12], [0, 12], r"'initial': model ids \[0, 12\] outside the library's \[0, 12\)"),
        ([0, 1], [0, -1], r"'goal': model ids \[0, -1\] outside"),
        ([0, 1], [1, 0], "instance object 0: initial model id 0, goal model id 1"),
        ([3, 5, 3], [3, 5, 3], "instance objects 0 and 2 both place model id 3"),
        # rendered nothing, and failed later as "no regions in any frame"
        ([], [], "'initial' and 'goal' place no object"),
    ],
)
def test_invalid_instance_cannot_be_built(initial, goal, message):
    with pytest.raises(ValueError, match=message):
        RearrangementInstance(_scene(initial), _scene(goal), seed=0, config=SimConfig())


def test_instance_scenes_lie_on_the_config_table(tmp_path):
    """Scenes on a +-0.2 m table under a config of a +-0.5 m one were once
    built: placement_conflict refused (0, 0.35) as off the table, and
    accepted it on the instance saved and loaded, whose bounds come from
    the config."""
    small_table = dataclasses.replace(_scene([0]), table_bounds=Rect(-0.2, -0.2, 0.2, 0.2))
    with pytest.raises(ValueError, match=r"'initial': table bounds Rect\(xmin=-0.2"):
        RearrangementInstance(small_table, small_table, seed=0, config=SimConfig())
    with pytest.raises(ValueError, match="'goal': table bounds"):
        RearrangementInstance(_scene([0]), small_table, seed=0, config=SimConfig())
    narrow = SimConfig(table_width=0.4, table_depth=0.4)
    inst = RearrangementInstance(small_table, small_table, seed=0, config=narrow)
    save_instance(inst, tmp_path / "inst.json")
    loaded = load_instance(tmp_path / "inst.json")
    assert loaded.initial.table_bounds == loaded.goal.table_bounds == inst.initial.table_bounds
    library = generate_model_library(SimConfig(library_size=1, point_descriptor_dim=2))
    target = PlanarTransform(0.0, 0.35, 0.0)
    for scene in (inst.initial, loaded.initial):
        assert placement_conflict(scene, library, 0, target) == TABLE_EDGE


def test_instance_cannot_change_in_place():
    """``inst.goal = other.goal`` was once accepted, leaving 5 initial and
    8 goal objects and 5 stale true offsets; a field changes only through
    ``dataclasses.replace``, which checks the new instance."""
    inst = RearrangementInstance(_scene(range(5)), _scene(range(5)), seed=0, config=SimConfig())
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.goal = _scene(range(8))
    for derived in (inst.true_offsets, inst.config.ring_viewpoints):
        with pytest.raises(AttributeError):
            derived.append(derived[0])
        with pytest.raises(AttributeError):
            derived.clear()
    assert inst.goal.num_objects == len(inst.true_offsets) == 5
    with pytest.raises(ValueError, match="'initial' and 'goal' differ in length"):
        dataclasses.replace(inst, goal=_scene(range(8)))
    turned = SceneState(inst.goal.table_bounds, tuple(
        dataclasses.replace(p, pose=PlanarTransform(0.5, p.pose.tx, p.pose.ty))
        for p in inst.goal.placements
    ))
    assert [o.yaw for o in dataclasses.replace(inst, goal=turned).true_offsets] == [0.5] * 5


def test_instance_equals_its_saved_copy(tmp_path):
    """Two camera copies of ``Pose3`` arrays once made ``==`` between
    instances raise ValueError and ``hash`` raise TypeError."""
    cfg = SimConfig(object_count_min=3, object_count_max=3)
    library = generate_model_library(dataclasses.replace(cfg, model_points=MIN_MODEL_POINTS))
    inst = generate_instance(cfg, library, seed=1)
    assert inst == generate_instance(cfg, library, seed=1)
    assert inst != generate_instance(cfg, library, seed=2)
    save_instance(inst, tmp_path / "inst.json")
    loaded = load_instance(tmp_path / "inst.json")
    assert loaded == inst and hash(loaded) == hash(inst)
    assert loaded.config == cfg and hash(loaded.config) == hash(cfg)
    assert repr(loaded.config) == repr(cfg)
    assert "viewpoint" not in repr(inst)


def test_cameras_are_derived_once_per_config(monkeypatch):
    """Each instance built or loaded once derived all nine cameras again,
    after its config had derived and dropped them: the config now derives
    them once, when it is built, and every instance reads the config's."""
    calls = []

    def counting(eye, target):
        calls.append(1)
        return look_at(eye, target)

    monkeypatch.setattr(sim_config, "look_at", counting)
    cfg = SimConfig(ring_count=5)
    assert len(calls) == 1 + 5
    library = generate_model_library(dataclasses.replace(cfg, model_points=MIN_MODEL_POINTS))
    calls.clear()
    inst = generate_instance(cfg, library, seed=0)
    again = dataclasses.replace(inst, seed=7)
    for built in (inst, again):
        assert built.config.home_viewpoint is cfg.home_viewpoint
        assert built.config.ring_viewpoints is cfg.ring_viewpoints
        assert built.config.intrinsics is cfg.intrinsics
    assert calls == []
    # loading builds the config the file echoes, and nothing more
    loaded = instance_from_dict(instance_to_dict(inst))
    assert len(calls) == 1 + 5
    assert loaded.config.ring_viewpoints is loaded.config.ring_viewpoints
    assert len(calls) == 1 + 5


def test_instance_parts_cannot_change_in_place():
    """``inst.true_offsets[0].yaw = 1.0`` once changed a frozen instance's
    offset and ``inst.ring_viewpoints[0].translation[0] = 5.0`` moved its
    camera: a ``PlanarTransform`` is frozen and a ``Pose3`` holds read-only
    copies of the arrays it was built from. The cameras are now the
    config's derived properties, which a frozen config cannot have
    assigned or deleted."""
    inst = RearrangementInstance(_scene(range(2)), _scene(range(2)), seed=0, config=SimConfig())
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.true_offsets[0].yaw = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.goal.placements[0].pose.tx = 1.0
    config = inst.config
    for name in ("intrinsics", "home_viewpoint", "ring_viewpoints"):
        kept = getattr(config, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(config, name)
        assert getattr(config, name) is kept
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.intrinsics.fx = 1.0
    with pytest.raises(TypeError):
        config.ring_viewpoints[0] = config.home_viewpoint
    for pose in (config.ring_viewpoints[0], config.home_viewpoint):
        with pytest.raises(ValueError, match="read-only"):
            pose.translation[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            pose.rotation[0, 0] = 5.0
    translation = np.zeros(3)
    pose = Pose3(np.eye(3), translation)
    translation[0] = 5.0  # the caller's array stays writeable and unshared
    assert pose.translation[0] == 0.0
