import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvor import geometry as geo
from mvor.cli import main as cli_main
from mvor.errors import (
    CollisionAtTarget,
    ConfigParseError,
    IOFailure,
    MvorError,
    PlacementFailure,
    UnknownFeature,
)
from mvor.geometry import PlanarTransform, Pose3
from mvor.bench import BenchConfig, World, build_scene_database, scene_goal_regions
from mvor.localization import retrieve_candidates
from mvor.perception import PerceptionConfig, build_database, extract_regions, load_database
from mvor.sim import (
    Frame,
    ModelLibrary,
    Placement,
    RearrangementInstance,
    Rect,
    SceneState,
    SimConfig,
    apply_move,
    empty_frame,
    generate_instance,
    generate_model_library,
    load_model_library,
    render,
    save_model_library,
    segment,
)
from mvor.sim.io import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    write_dataset,
)
from mvor.sim import models
from mvor.sim.config import MIN_MODEL_POINTS
from mvor.sim.models import LIBRARY_VERSION
from mvor.sim.render import _winners as pick_winners
from mvor.sim.scene import check_scenes, placement_conflict


@pytest.fixture(scope="module")
def config():
    return SimConfig()


@pytest.fixture(scope="module")
def library(config):
    return generate_model_library(config)


def single_object_scene(library, model_id=0, pose=None):
    pose = pose or PlanarTransform(0.0, 0.0, 0.0)
    return SceneState(
        Rect(-0.5, -0.5, 0.5, 0.5), (Placement(model_id, pose),)
    )


def conflicts(scene, library):
    """Whether each placed object's own placement conflicts with the rest
    of ``scene``: its footprint leaves the table or overlaps another."""
    return [
        placement_conflict(scene, library, i, p.pose) is not None
        for i, p in enumerate(scene.placements)
    ]


def model_rows(library, m):
    """The slice of model ``m``'s rows in the library's point columns."""
    return slice(m * library.model_points, (m + 1) * library.model_points)


def owning_model(library, feature_ids):
    """The model whose row slice holds each feature id."""
    return feature_ids // library.model_points


def models_of(library, family):
    """The ids of the library's models of ``family``."""
    return [m for m in range(len(library)) if models.FAMILIES[m % 3] == family]


def reference_descriptors_for(library, feature_ids):
    """The lookup as a per-model loop: one masked gather per model, from
    that model's block of the descriptor column."""
    model_ids = owning_model(library, feature_ids)
    local = feature_ids - model_ids * library.model_points
    out = np.empty((feature_ids.shape[0], library.point_descriptors.shape[1]))
    for mid in np.unique(model_ids):
        sel = model_ids == mid
        out[sel] = library.point_descriptors[model_rows(library, mid)][local[sel]]
    return out


class TestModelLibrary:
    COLUMNS = ("footprint_radius", "points", "normals", "point_descriptors")

    def test_deterministic(self, config):
        a = generate_model_library(config)
        b = generate_model_library(config)
        for name in self.COLUMNS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_columns_cover_every_model(self, config, library):
        assert len(library) == len(library.footprint_radius) == config.library_size
        assert library.model_points == config.model_points
        for column in (library.points, library.normals, library.point_descriptors):
            assert len(column) == config.library_size * config.model_points

    def test_box_normals_axis_aligned(self, library):
        boxes = models_of(library, "box")
        assert len(boxes)
        for m in boxes:
            normals = library.normals[model_rows(library, m)]
            np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
            # each normal equals +/- a basis vector
            assert np.all(np.sum(np.abs(normals) > 1e-12, axis=1) == 1)

    def test_all_normals_unit(self, library):
        np.testing.assert_allclose(np.linalg.norm(library.normals, axis=1), 1.0, atol=1e-9)

    def test_feature_ids_globally_unique(self, library):
        all_ids = np.concatenate(
            [np.arange(len(library.points))[model_rows(library, m)] for m in range(len(library))]
        )
        np.testing.assert_array_equal(all_ids, np.arange(len(library.points)))
        np.testing.assert_array_equal(
            owning_model(library, all_ids),
            np.repeat(np.arange(len(library)), library.model_points),
        )
        # every point's id looks up that point's own descriptor row
        np.testing.assert_array_equal(library.descriptors_for(all_ids), library.point_descriptors)

    def test_footprint_covers_points(self, library):
        for m in range(len(library)):
            extent = np.linalg.norm(library.points[model_rows(library, m), :2], axis=1).max()
            assert library.footprint_radius[m] >= extent - 1e-12

    def test_three_families_present(self, library):
        """Model m has the geometry of family FAMILIES[m % 3]: a box's points
        lie on 5 face planes, an L-prism's on 7 (six sides and the top), and
        a cylinder's side points on its footprint circle."""
        faces = {"box": 5, "l_prism": 7}
        for m in range(len(library)):
            family = models.FAMILIES[m % 3]
            rows = model_rows(library, m)
            if family in faces:
                normals = library.normals[rows]
                offsets = np.einsum("ij,ij->i", library.points[rows], normals)
                planes = np.unique(np.column_stack([normals, offsets]).round(9), axis=0)
                assert len(planes) == faces[family], (m, family)
            else:
                side = library.normals[rows, 2] == 0.0
                np.testing.assert_allclose(
                    np.hypot(*library.points[rows][side, :2].T), library.footprint_radius[m]
                )
        assert {models.FAMILIES[m % 3] for m in range(len(library))} == set(models.FAMILIES)

    def test_descriptor_lookup(self, library):
        local = np.array([5, 17, 3])
        np.testing.assert_array_equal(
            library.descriptors_for(2 * library.model_points + local),
            library.point_descriptors[model_rows(library, 2)][local],
        )

    @settings(max_examples=40, deadline=None)
    @given(picks=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=300))
    def test_lookup_matches_per_model_loop(self, library, picks):
        models = np.array([m % len(library) for m, _ in picks], dtype=np.int64)
        local = np.array([r % library.model_points for _, r in picks], dtype=np.int64)
        ids = models * library.model_points + local
        np.testing.assert_array_equal(
            library.descriptors_for(ids), reference_descriptors_for(library, ids)
        )

    @pytest.mark.parametrize("case", ["negative id", "past the last row"])
    def test_id_naming_no_point_raises(self, library, case):
        fid = {
            # a bare gather at -1 would read the last row
            "negative id": -1,
            "past the last row": len(library.points),
        }[case]
        with pytest.raises(UnknownFeature, match=rf"\[{fid}\]"):
            library.descriptors_for(np.array([2, fid]))

    @settings(max_examples=60, deadline=None)
    @given(
        total=st.sampled_from([MIN_MODEL_POINTS, MIN_MODEL_POINTS + 1, 50, 1600]),
        seed=st.integers(0, 2**32 - 1),
        box=st.tuples(*[st.floats(0.05, 0.09)] * 2, st.floats(0.04, 0.08)),
        cylinder=st.tuples(st.floats(0.025, 0.045), st.floats(0.04, 0.08)),
        l_prism=st.tuples(*[st.floats(0.06, 0.09)] * 2, *[st.floats(0.025, 0.04)] * 2,
                          st.floats(0.035, 0.07)),
    )
    def test_every_family_samples_exactly_model_points(self, total, seed, box, cylinder,
                                                       l_prism):
        """Anywhere in the dimension ranges _draw_models draws from, each
        family samples exactly ``total`` points: the bound MIN_MODEL_POINTS
        rests on, so a library is library_size x model_points rows."""
        rng = np.random.default_rng(seed)
        for sample, dims in ((models._sample_box, box), (models._sample_cylinder, cylinder),
                             (models._sample_l_prism, l_prism)):
            pts, nrms, _ = sample(rng, *dims, total)
            assert pts.shape == nrms.shape == (total, 3), sample.__name__


def float64_reference_library(config):
    """The library as it was generated while its point codes were float64:
    one RNG, each model's geometry then its code rows, drawn into a float64
    column and normalized in place."""
    rng = np.random.default_rng(config.library_seed)
    columns = {"footprint_radius": [], "points": [], "normals": [], "point_descriptors": []}
    for mid in range(config.library_size):
        family = models.FAMILIES[mid % 3]
        if family == "box":
            w, d = rng.uniform(0.05, 0.09, 2)
            h = rng.uniform(0.04, 0.08)
            pts, nrms, radius = models._sample_box(rng, w, d, h, config.model_points)
        elif family == "cylinder":
            r = rng.uniform(0.025, 0.045)
            h = rng.uniform(0.04, 0.08)
            pts, nrms, radius = models._sample_cylinder(rng, r, h, config.model_points)
        else:
            a, b = rng.uniform(0.06, 0.09, 2)
            ta, tb = rng.uniform(0.025, 0.04, 2)
            h = rng.uniform(0.035, 0.07)
            pts, nrms, radius = models._sample_l_prism(rng, a, b, ta, tb, h, config.model_points)
        codes = np.empty((len(pts), config.point_descriptor_dim))
        rng.standard_normal(out=codes)
        codes /= np.linalg.norm(codes, axis=1, keepdims=True)
        for name, value in zip(columns, (radius, pts, nrms, codes)):
            columns[name].append(value)
    return ModelLibrary(
        footprint_radius=np.array(columns["footprint_radius"]),
        **{name: np.vstack(columns[name]) for name in ("points", "normals", "point_descriptors")},
    )


class TestFloat32Codes:
    """The point codes are the float64 unit rows of the reference generator
    rounded to float32; the draw, the instances and retrieval are those of
    the reference library."""

    @pytest.mark.parametrize(
        "sim",
        [SimConfig(), SimConfig(library_size=2, model_points=50, point_descriptor_dim=8),
         SimConfig(library_size=3, model_points=25), SimConfig(library_size=3, model_points=300)],
        # the codes are drawn in blocks of 128 rows: 1600 points end in a
        # 64-row block, 300 in a 44-row one, and 50 and 25 fit in one
        ids=["default", "small", "25 points", "300 points"],
    )
    def test_draw_is_unchanged(self, sim, tmp_path):
        """The generated library and the one saved and loaded back."""
        reference = float64_reference_library(sim)
        save_model_library(tmp_path / "library", sim)
        for library in (generate_model_library(sim), load_model_library(tmp_path / "library", sim)):
            for name in ("footprint_radius", "points", "normals"):
                a, b = getattr(library, name), getattr(reference, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert library.point_descriptors.dtype == np.float32
            assert library.point_descriptors.tobytes() == (
                reference.point_descriptors.astype(np.float32).tobytes()
            )

    def test_gen_instance_is_unchanged(self, config, tmp_path):
        assert cli_main(["gen", "--count", "1", "--seed", "5", "--out", str(tmp_path / "ds")]) == 0
        save_instance(generate_instance(config, float64_reference_library(config), seed=5),
                      tmp_path / "reference.json")
        assert (tmp_path / "ds" / "instance_00000005.json").read_bytes() == (
            (tmp_path / "reference.json").read_bytes()
        )

    def test_retrieval_is_unchanged(self, config, library):
        """Every goal region of 10 scenes retrieves the same ring-database
        regions, in the same order, whether the descriptors pool the float32
        codes or sum the reference's float64 codes (the same descriptor
        code, run on a float64 column)."""
        reference = float64_reference_library(config)
        bench_cfg = BenchConfig()
        top_n = bench_cfg.localization.top_n
        checked = 0
        for seed in range(10):
            inst = generate_instance(config, library, seed=seed)
            db, db64 = (build_scene_database(World(inst, lib, bench_cfg), "multi")
                        for lib in (library, reference))
            goals, goals64 = (scene_goal_regions(inst, lib, bench_cfg)
                              for lib in (library, reference))
            # the descriptors differ, so the retrievals compared are two
            assert db.descriptors.shape == db64.descriptors.shape
            assert not np.array_equal(db.descriptors, db64.descriptors)
            assert len(goals) == len(goals64)
            for goal, goal64 in zip(goals, goals64):
                assert np.array_equal(retrieve_candidates(goal, db, top_n).region_indices,
                                      retrieve_candidates(goal64, db64, top_n).region_indices)
                checked += 1
        assert checked >= 30


class TestBlockedDraw:
    """The point codes are drawn, normalized and rounded in blocks of at
    most 128 rows (their bits: ``TestFloat32Codes``), so the memory used to
    make them does not grow with ``model_points``."""

    def test_memory_does_not_grow_with_model_points(self, tmp_path):
        """At 2 models of 20,000 points one model's float64 codes are 41 MB;
        drawn a whole model at a time, generation traced 45 MB beyond the
        descriptor column and a save 65 MB. The geometry columns, 1.9 MB
        here, are what still grows with ``model_points``."""
        sim = SimConfig(library_size=2, model_points=20000)
        bound = 8e6
        tracemalloc.start()
        try:
            library = generate_model_library(sim)
            _, peak = tracemalloc.get_traced_memory()
            generated = peak - library.point_descriptors.nbytes
            del library
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            save_model_library(tmp_path / "library", sim)
            _, peak = tracemalloc.get_traced_memory()
            saved = peak - before
        finally:
            tracemalloc.stop()
        assert generated < bound and saved < bound, (generated, saved)


class TestSavedLibrary:
    """A saved library loads back column for column, memory-mapped
    read-only, and only for the version and settings it was saved with."""

    @pytest.mark.parametrize(
        "sim",
        [SimConfig(), SimConfig(library_size=2, model_points=50, point_descriptor_dim=8)],
        ids=["default", "small"],
    )
    def test_roundtrip(self, sim, tmp_path):
        generated = generate_model_library(sim)
        save_model_library(tmp_path / "library", sim)
        loaded = load_model_library(tmp_path / "library", sim)
        for name in TestModelLibrary.COLUMNS:
            a, b = getattr(loaded, name), getattr(generated, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name
            assert not a.flags.writeable, name
        assert sorted(os.listdir(tmp_path)) == ["library"]  # nothing written beside it

    def test_save_replaces_a_library(self, tmp_path):
        """A dataset written again with another library (write_dataset)
        has its library/ replaced, with no stage and no old copy left."""
        small = SimConfig(library_size=2, model_points=50, point_descriptor_dim=8,
                          object_count_max=2)
        other = dataclasses.replace(small, library_seed=small.library_seed + 1)
        write_dataset(tmp_path, small, [0])
        write_dataset(tmp_path, other, [0])
        loaded = load_model_library(tmp_path / "library", other)
        assert np.array_equal(loaded.points, generate_model_library(other).points)
        assert sorted(os.listdir(tmp_path)) == ["instance_00000000.json", "library",
                                                "manifest.json"]
        assert "replaced" not in os.listdir(tmp_path / "library")

    @pytest.mark.parametrize(
        "key, value", [("library_seed", 1), ("library_size", 3), ("model_points", 60),
                       ("point_descriptor_dim", 4)]
    )
    def test_other_settings_rejected(self, key, value, tmp_path):
        small = SimConfig(library_size=2, model_points=50, point_descriptor_dim=8)
        save_model_library(tmp_path / "library", small)
        with pytest.raises(MvorError, match=f"header.json: library generated with {key}"):
            load_model_library(tmp_path / "library", dataclasses.replace(small, **{key: value}))

    @pytest.mark.parametrize(
        "member, value, error, match",
        [("version", LIBRARY_VERSION + 1, MvorError,
          f"library saved with version {LIBRARY_VERSION + 1}, expected {LIBRARY_VERSION}"),
         ("format", "mvor-db", IOFailure, "not a model library header")],
    )
    def test_other_header_rejected(self, member, value, error, match, tmp_path):
        small = SimConfig(library_size=2, model_points=50, point_descriptor_dim=8)
        save_model_library(tmp_path / "library", small)
        header_path = tmp_path / "library" / "header.json"
        header = json.loads(header_path.read_text())
        assert header["format"] == "mvor-model-library" and header["version"] == LIBRARY_VERSION
        header[member] = value
        header_path.write_text(json.dumps(header))
        with pytest.raises(error, match=f"header.json: {match}"):
            load_model_library(tmp_path / "library", small)

    @pytest.mark.parametrize(
        "sim",
        [SimConfig(), SimConfig(library_size=2, model_points=50, point_descriptor_dim=8)],
        ids=["default", "small"],
    )
    def test_files_are_np_save_bytes(self, sim, tmp_path):
        """The streamed descriptor file, its header written first for
        library_size x model_points rows, holds the bytes np.save writes for
        the generated column."""
        save_model_library(tmp_path / "library", sim)
        generated = generate_model_library(sim)
        for name in TestModelLibrary.COLUMNS:
            expected = tmp_path / f"expected_{name}.npy"
            np.save(expected, getattr(generated, name), allow_pickle=False)
            written = (tmp_path / "library" / f"{name}.npy").read_bytes()
            assert written == expected.read_bytes(), name

    def test_failed_write_leaves_the_library(self, tmp_path, monkeypatch):
        """A descriptor write that fails after the first model raises
        IOFailure out of write_dataset, naming the dataset's library/; the
        library, instance and manifest keep their bytes and no stage is
        left."""
        small = SimConfig(library_size=3, model_points=50, point_descriptor_dim=8,
                          object_count_max=3)
        write_dataset(tmp_path, small, [0])
        before = {str(p): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

        class FailsAfterFirstModel:
            def __init__(self, file):
                self.file, self.blocks = file, 0

            def write(self, data):
                if isinstance(data, np.ndarray):  # a descriptor block, one per 50-row model
                    self.blocks += 1
                    if self.blocks > 1:
                        raise OSError(28, "No space left on device")
                return self.file.write(data)

            def __getattr__(self, name):
                return getattr(self.file, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

        def failing_open(file, *args, **kwargs):
            return FailsAfterFirstModel(open(file, *args, **kwargs))

        monkeypatch.setattr(models, "open", failing_open, raising=False)
        other = dataclasses.replace(small, library_seed=small.library_seed + 1)
        with pytest.raises(IOFailure) as failure:
            write_dataset(tmp_path, other, [0])
        # named as the library/ the stage was for
        assert str(failure.value) == f"cannot write {tmp_path / 'library'}: No space left on device"
        assert {str(p): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert sorted(os.listdir(tmp_path)) == ["instance_00000000.json", "library",
                                                "manifest.json"]


class TestGenerateInstance:
    def test_deterministic(self, config, library):
        a = generate_instance(config, library, seed=11)
        b = generate_instance(config, library, seed=11)
        assert instance_to_dict(a) == instance_to_dict(b)

    def test_nine_small_objects_fit(self, library):
        cfg = SimConfig(object_count_min=9, object_count_max=9)
        assert library.footprint_radius.max() <= 0.08
        inst = generate_instance(cfg, library, seed=3)
        assert inst.initial.num_objects == 9

    def test_oversized_footprint_fails(self, config, library):
        big = dataclasses.replace(library, footprint_radius=np.full(len(library), 0.5))
        cfg = SimConfig(object_count_min=9, object_count_max=9)
        with pytest.raises(PlacementFailure):
            generate_instance(cfg, big, seed=0)

    def test_collision_free_scenes(self, config, library):
        for seed in range(20):
            check_scenes(generate_instance(config, library, seed=seed), library)

    def test_check_scenes_names_the_conflict(self, config, library):
        """Touching footprints pass; an overlap or a footprint off the
        table raises, naming the member, the object and the conflict."""
        table = Rect(-0.5, -0.5, 0.5, 0.5)
        initial = SceneState(table, (Placement(0, PlanarTransform(0.0, -0.2, 0.0)),
                                     Placement(1, PlanarTransform(0.0, 0.2, 0.0))))
        touching = float(library.footprint_radius[0] + library.footprint_radius[1])
        for tx, ty, error in [(touching, 0.0, None),
                              (np.nextafter(touching, 0.0), 0.0, "object 0 at .*: overlaps object 1"),
                              (0.0, 0.5, "object 1 at .*: footprint leaves the table")]:
            goal = SceneState(table, (Placement(0, PlanarTransform(0.0, 0.0, 0.0)),
                                      Placement(1, PlanarTransform(0.0, tx, ty))))
            inst = RearrangementInstance(initial, goal, seed=0, config=config)
            if error is None:
                check_scenes(inst, library)
                continue
            with pytest.raises(ConfigParseError, match=f"member 'goal': {error}"):
                check_scenes(inst, library)

    def test_true_offsets_exact(self, config, library):
        for seed in range(10):
            inst = generate_instance(config, library, seed=seed)
            for off, pi, pg in zip(
                inst.true_offsets, inst.initial.placements, inst.goal.placements
            ):
                lhs = geo.lift(pg.pose).matrix
                rhs = geo.compose(geo.lift(off), geo.lift(pi.pose)).matrix
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_minor_regime_bounds_offset_yaw(self, library):
        cfg = SimConfig(rotation_regime="minor")
        for seed in range(30):
            inst = generate_instance(cfg, library, seed=seed)
            for off in inst.true_offsets:
                assert abs(off.yaw) <= np.pi / 3 + 1e-12

    def test_object_count_range(self, config, library):
        counts = {
            generate_instance(config, library, seed=s).initial.num_objects
            for s in range(40)
        }
        assert min(counts) >= 1 and max(counts) <= 9 and len(counts) > 3

    def test_models_distinct_within_scene(self, config, library):
        inst = generate_instance(config, library, seed=1)
        mids = [p.model_id for p in inst.initial.placements]
        assert len(set(mids)) == len(mids)


def pixel_index(frame):
    """Row-major pixel index of each hit."""
    cols, rows = geo.nearest_pixel(frame.px).T
    return rows * frame.intrinsics.width + cols


FRAME_ARRAYS = ("feature_ids", "instance_ids", "px", "depth", "view_local")


def reference_render(scene, viewpoint, intr, library):
    """Reference: one view rendered object by object, as a loop that poses
    each placement for this view alone, projects its facing points, picks
    each pixel's winner with the stable three-key sort (pixel, depth,
    feature id; placement order last), and sorts the winners by (instance,
    pixel)."""
    w2c = geo.invert(viewpoint)
    cam_center = viewpoint.translation
    uv_all, z_all, fid_all, inst_all, view_all = [], [], [], [], []
    for idx, placement in enumerate(scene.placements):
        rows = model_rows(library, placement.model_id)
        rz = geo.rot_z(placement.pose.yaw)
        shift = np.array([placement.pose.tx, placement.pose.ty, 0.0])
        pw = library.points[rows] @ rz.T + shift
        nw = library.normals[rows] @ rz.T
        facing = np.einsum("ij,ij->i", cam_center - pw, nw) > 0.0
        if not facing.any():
            continue
        pw = pw[facing]
        cam = w2c.apply(pw)
        uv, z = intr.project(cam), cam[:, 2]
        ok = (
            (z > 1e-6)
            & (uv[:, 0] >= -0.5)
            & (uv[:, 0] < intr.width - 0.5)
            & (uv[:, 1] >= -0.5)
            & (uv[:, 1] < intr.height - 0.5)
        )
        if not ok.any():
            continue
        rays = cam_center - pw[ok]
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        uv_all.append(uv[ok])
        z_all.append(z[ok])
        fid_all.append(rows.start + np.flatnonzero(facing)[ok])
        inst_all.append(np.full(int(ok.sum()), idx, dtype=np.int32))
        view_all.append(rays @ rz)
    if not uv_all:
        return empty_frame(viewpoint, intr)
    uv = np.vstack(uv_all)
    z = np.concatenate(z_all)
    fid = np.concatenate(fid_all)
    cols, rows = geo.nearest_pixel(uv).T
    flat = rows * intr.width + cols
    inst = np.concatenate(inst_all)
    order = np.lexsort((fid, z, flat))
    first = np.ones(len(order), dtype=bool)
    first[1:] = flat[order][1:] != flat[order][:-1]
    win = order[first]
    win = win[np.lexsort((flat[win], inst[win]))]
    return Frame(
        feature_ids=fid[win],
        instance_ids=inst[win],
        px=uv[win],
        depth=z[win],
        view_local=np.vstack(view_all)[win],
        viewpoint=viewpoint,
        intrinsics=intr,
    )


def assert_same_frame(a, b):
    assert a.viewpoint is b.viewpoint
    for name in FRAME_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name


def one_point_library(points, normals):
    """A hand-built library of one-point models: model m is point m."""
    n = len(points)
    return ModelLibrary(
        footprint_radius=np.full(n, 0.05),
        points=np.array(points, dtype=float),
        normals=np.array(normals, dtype=float),
        point_descriptors=np.eye(n),
    )


class TestRender:
    def test_top_down_sees_only_top_faces(self, library):
        m = models_of(library, "box")[0]
        scene = single_object_scene(library, m)
        cam = geo.look_at([0.0, 0.0, 0.9], [0.0, 0.0, 0.0])
        (frame,) = render(scene, [cam], SimConfig().intrinsics, library)
        seen = frame.feature_ids
        # oracle: points whose normal faces a straight-down camera
        up = library.normals[model_rows(library, m), 2] > 1e-9
        top_ids = set((m * library.model_points + np.flatnonzero(up)).tolist())
        assert len(seen) > 50
        assert set(seen.tolist()) <= top_ids

    def test_hits_are_distinct_pixels_in_row_major_order(self, config, library):
        """Distinct pixels, grouped by instance in ascending order, each
        instance's run in row-major pixel order."""
        inst = generate_instance(config, library, seed=5)
        intr = config.intrinsics
        (frame,) = render(inst.initial, [inst.config.ring_viewpoints[2]], intr, library)
        assert len(np.unique(pixel_index(frame))) == len(frame.feature_ids)
        runs = segment(frame)
        assert len(runs) > 1
        assert [label for label, _ in runs] == np.unique(frame.instance_ids).tolist()
        for _, run in runs:
            assert np.all(np.diff(pixel_index(frame)[run]) > 0)
        # each hit's pixel, the one its exact projection falls in, is inside
        # the image
        cols, rows = geo.nearest_pixel(frame.px).T
        assert rows.min() >= 0 and rows.max() < intr.height
        assert cols.min() >= 0 and cols.max() < intr.width

    def test_frame_holds_no_full_resolution_array(self, config, library):
        intr = config.intrinsics
        assert (intr.width, intr.height) == (640, 480)
        inst = generate_instance(config, library, seed=5)
        for vp in (inst.config.ring_viewpoints[0], inst.config.home_viewpoint):
            (frame,) = render(inst.initial, [vp], intr, library)
            assert [f.name for f in dataclasses.fields(frame)] == [
                *FRAME_ARRAYS, "viewpoint", "intrinsics",
            ]
            arrays = [v for v in vars(frame).values() if isinstance(v, np.ndarray)]
            assert len(arrays) == 5
            assert max(a.size for a in arrays) < intr.width * intr.height
            assert sum(a.nbytes for a in arrays) < 1_000_000

    def test_nearer_object_wins_contested_pixels(self, config, library):
        intr = config.intrinsics
        cam = geo.look_at([1.1, 0.0, 0.25], [0.0, 0.0, 0.0])
        bounds = Rect(-0.5, -0.5, 0.5, 0.5)
        far = SceneState(bounds, (Placement(0, PlanarTransform(0.0, -0.12, 0.0)),))
        near = SceneState(bounds, (Placement(3, PlanarTransform(0.0, 0.12, 0.0)),))
        both = SceneState(bounds, far.placements + near.placements)

        (f_far,) = render(far, [cam], intr, library)
        (f_near,) = render(near, [cam], intr, library)
        (f_both,) = render(both, [cam], intr, library)

        contested, i_far, i_near = np.intersect1d(
            pixel_index(f_far), pixel_index(f_near), return_indices=True
        )
        assert len(contested) > 20
        expect_near = f_near.depth[i_near] < f_far.depth[i_far]
        _, _, i_both = np.intersect1d(contested, pixel_index(f_both), return_indices=True)
        np.testing.assert_array_equal(pixel_index(f_both)[i_both], contested)
        got_near = f_both.instance_ids[i_both] == 1
        np.testing.assert_array_equal(got_near, expect_near)

    def test_camera_facing_away_empty(self, config, library):
        """A view that sees nothing is a frame with no hits, which keeps its
        camera and segments into nothing."""
        scene = single_object_scene(library)
        cam = geo.look_at([1.0, 0.0, 0.5], [2.0, 0.0, 0.5])
        (frame,) = render(scene, [cam], config.intrinsics, library)
        assert_same_frame(frame, empty_frame(cam, config.intrinsics))
        assert frame.intrinsics is config.intrinsics
        assert segment(frame) == []

    def test_backprojection_recovers_world_points(self, config, library):
        inst = generate_instance(config, library, seed=5)
        intr = config.intrinsics
        (frame,) = render(inst.initial, [inst.config.ring_viewpoints[2]], intr, library)
        w2c = geo.invert(frame.viewpoint)
        world = geo.back_project_pixels(intr, w2c, frame.px, frame.depth)
        # each recovered point must coincide with an actual surface point
        n = len(frame.feature_ids)
        for k in range(0, n, max(1, n // 200)):
            placement = inst.initial.placements[frame.instance_ids[k]]
            fid = frame.feature_ids[k]
            rows = model_rows(library, placement.model_id)
            assert rows.start <= fid < rows.stop
            pt = geo.lift(placement.pose).apply(library.points[fid])
            np.testing.assert_allclose(world[k], pt, atol=1e-9)

    def test_ids_stay_distinct_past_a_million_points_per_model(self):
        # two models of 1,000,001 points: ids that encoded (model, point)
        # with a stride of 1,000,000 would give model 0's last point and
        # model 1's first the same id, and name model 1's points off by one
        config = SimConfig(
            model_points=1_000_001, library_size=2, point_descriptor_dim=2,
            object_count_min=2, object_count_max=2,
        )
        big = generate_model_library(config)
        inst = generate_instance(config, big, seed=0)
        intr = config.intrinsics
        (frame,) = render(inst.initial, [inst.config.ring_viewpoints[0]], intr, big)
        world = geo.back_project_pixels(intr, geo.invert(frame.viewpoint), frame.px, frame.depth)
        seen = [frame.instance_ids == i for i in range(2)]
        assert seen[0].any() and seen[1].any()
        assert not np.intersect1d(frame.feature_ids[seen[0]], frame.feature_ids[seen[1]]).size
        for hits, placement in zip(seen, inst.initial.placements):
            ids = frame.feature_ids[hits]
            rows = model_rows(big, placement.model_id)
            assert np.all((ids >= rows.start) & (ids < rows.stop))
            posed = geo.lift(placement.pose).apply(big.points[ids])
            np.testing.assert_allclose(world[hits], posed, atol=1e-9)

    @pytest.mark.parametrize("regime", ["full", "minor"])
    def test_matches_reference_bit_for_bit(self, config, library, regime):
        """Every ring and home view of initial and goal scenes, rendered in
        one call, equals the per-view reference field by field."""
        sim = dataclasses.replace(config, rotation_regime=regime)
        intr = sim.intrinsics
        for seed in (3, 4):
            inst = generate_instance(sim, library, seed=seed)
            views = [*inst.config.ring_viewpoints, inst.config.home_viewpoint]
            for scene in (inst.initial, inst.goal):
                frames = render(scene, views, intr, library)
                assert len(frames) == len(views)
                for frame, vp in zip(frames, views):
                    assert_same_frame(frame, reference_render(scene, vp, intr, library))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 50),
        eye=st.tuples(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8), st.floats(0.01, 1.2)),
        target=st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4), st.floats(-0.2, 0.3)),
        size=st.tuples(st.integers(8, 640), st.integers(8, 480)),
        focal=st.floats(40.0, 1200.0),
    )
    def test_random_cameras_match_reference(self, library, seed, eye, target, size, focal):
        """Cameras anywhere over and among the objects, with any image size
        and focal length, leave points behind the camera and off the image:
        each view equals the reference field by field, a frame with no hits
        included."""
        sim = SimConfig(image_width=size[0], image_height=size[1], focal_px=focal)
        eye, target = np.array(eye), np.array(target)
        assume(np.linalg.norm(eye - target) > 1e-3)
        inst = generate_instance(sim, library, seed=seed)
        cam, intr = geo.look_at(eye, target), sim.intrinsics
        (frame,) = render(inst.initial, [cam], intr, library)
        assert_same_frame(frame, reference_render(inst.initial, cam, intr, library))

    @pytest.mark.parametrize("eye", [(0.4, 0.1, None), (None, 0.5, 0.3)])
    def test_camera_in_a_face_plane_matches_reference(self, config, library, eye):
        """A camera in the plane of the box's top face (z) or of its +x
        face (x): those points' facing value is exactly 0, so they are not
        seen, as in the reference."""
        m = models_of(library, "box")[0]
        rows = model_rows(library, m)
        pts, nrm = library.points[rows], library.normals[rows]
        plane = {0: pts[nrm[:, 0] > 0.5, 0], 2: pts[nrm[:, 2] > 0.5, 2]}
        axis = eye.index(None)
        assert len(np.unique(plane[axis])) == 1
        eye = np.array([plane[axis][0] if e is None else e for e in eye])
        scene = single_object_scene(library, m)
        cam = geo.look_at(eye, [0.0, 0.0, 0.03])
        facing = np.einsum("ij,ij->i", eye - pts, nrm)
        assert np.count_nonzero(facing == 0.0) > 10
        intr = config.intrinsics
        (frame,) = render(scene, [cam], intr, library)
        assert len(frame.feature_ids) > 50
        assert_same_frame(frame, reference_render(scene, cam, intr, library))

    def test_batched_call_equals_one_call_per_view(self, config, library):
        inst = generate_instance(config, library, seed=6)
        intr = config.intrinsics
        views = [inst.config.home_viewpoint, *inst.config.ring_viewpoints[:3]]
        batched = render(inst.initial, views, intr, library)
        for frame, vp in zip(batched, views):
            (alone,) = render(inst.initial, [vp], intr, library)
            assert_same_frame(frame, alone)
        assert render(inst.initial, [], intr, library) == []

    def test_exact_depth_tie_goes_to_the_smaller_feature_id(self, config):
        """Two one-point models at the same pose hit one pixel at exactly
        the same depth: feature id 0 wins although its placement is the
        later one."""
        tiny = one_point_library([[0.0, 0.0, 0.05]] * 2, [[0.0, 0.0, 1.0]] * 2)
        pose = PlanarTransform(0.3, 0.01, -0.02)
        scene = SceneState(Rect(-0.5, -0.5, 0.5, 0.5), (Placement(1, pose), Placement(0, pose)))
        cam = geo.look_at([0.05, 0.02, 0.9], [0.0, 0.0, 0.0])
        intr = config.intrinsics
        (frame,) = render(scene, [cam], intr, tiny)
        assert frame.feature_ids.tolist() == [0]
        assert frame.instance_ids.tolist() == [1]
        assert_same_frame(frame, reference_render(scene, cam, intr, tiny))

    def test_coincident_placements_go_to_the_first(self, config, library):
        """Two placements of one model at one pose tie at every candidate
        (depth and feature id): every hit belongs to placement 0, and the
        frame is the one placement's frame."""
        pose = PlanarTransform(0.4, 0.02, 0.01)
        alone = single_object_scene(library, 2, pose)
        twice = SceneState(alone.table_bounds, alone.placements * 2)
        intr = config.intrinsics
        views = config.ring_viewpoints[:2]
        singles, doubles = render(alone, views, intr, library), render(twice, views, intr, library)
        for k, (single, double) in enumerate(zip(singles, doubles)):
            assert len(double.feature_ids) > 50
            assert np.all(double.instance_ids == 0)
            assert_same_frame(double, single)
            assert_same_frame(double, reference_render(twice, views[k], intr, library))

    def test_pixel_index_too_large_to_pack(self):
        """Pixel indices about 2**50, as a 2**25-wide image has at row
        2**25, leave no room in an int64 beside a 13-bit depth rank: the
        winners are still those of the stable three-key sort."""
        rng = np.random.default_rng(0)
        n = 5000
        flat = 2**50 + rng.integers(-300, 300, n)
        z = rng.permutation(n) + 1.0
        fid = np.arange(n)
        order = np.lexsort((fid, z, flat))
        first = np.ones(n, dtype=bool)
        first[1:] = flat[order][1:] != flat[order][:-1]
        np.testing.assert_array_equal(pick_winners(flat, z, fid), order[first])

    def test_render_deterministic(self, config, library):
        inst = generate_instance(config, library, seed=8)
        intr = config.intrinsics
        (a,) = render(inst.initial, [inst.config.ring_viewpoints[0]], intr, library)
        (b,) = render(inst.initial, [inst.config.ring_viewpoints[0]], intr, library)
        for name in FRAME_ARRAYS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestSegment:
    def test_noiseless_masks_match_ground_truth(self, config, library):
        inst = generate_instance(config, library, seed=9)
        (frame,) = render(inst.initial, [config.ring_viewpoints[1]], config.intrinsics, library)
        runs = segment(frame)
        assert len(runs) == len(np.unique(frame.instance_ids))
        hits = np.arange(len(frame.instance_ids))
        for inst_id, run in runs:
            np.testing.assert_array_equal(hits[run], np.flatnonzero(frame.instance_ids == inst_id))

    def test_empty_frame_has_no_masks(self, config):
        frame = empty_frame(Pose3(np.eye(3), np.zeros(3)), config.intrinsics)
        assert segment(frame) == []

    @pytest.mark.parametrize("ids", [[1, 1, 0, 0], [0, 1, 0], [2, 2, 2, 1]])
    def test_ungrouped_frame_rejected(self, config, ids):
        """Hits not grouped by instance in ascending order have no runs
        that are the instances' hits: segment refuses them."""
        n = len(ids)
        frame = dataclasses.replace(
            empty_frame(Pose3(np.eye(3), np.zeros(3)), config.intrinsics),
            px=np.stack([np.arange(n), np.zeros(n)], axis=1),
            instance_ids=np.array(ids, dtype=np.int32),
        )
        with pytest.raises(ValueError, match="not grouped"):
            segment(frame)

    def test_masks_disjoint(self, config, library):
        inst = generate_instance(config, library, seed=12)
        (frame,) = render(inst.initial, [config.ring_viewpoints[3]], config.intrinsics, library)
        acc = np.zeros(frame.instance_ids.shape, dtype=int)
        for _, run in segment(frame):
            acc[run] += 1
        assert acc.max() <= 1


class TestApplyMove:
    def test_noiseless_exact(self, library):
        scene = single_object_scene(library)
        target = PlanarTransform(0.8, 0.2, -0.1)
        out = apply_move(scene, library, 0, target)
        assert out.placements[0].pose == target
        # original scene untouched
        assert scene.placements[0].pose == PlanarTransform(0.0, 0.0, 0.0)

    def test_collision_at_target(self, library):
        bounds = Rect(-0.5, -0.5, 0.5, 0.5)
        scene = SceneState(
            bounds,
            (
                Placement(0, PlanarTransform(0.0, -0.2, 0.0)),
                Placement(1, PlanarTransform(0.0, 0.2, 0.0)),
            ),
        )
        with pytest.raises(CollisionAtTarget):
            apply_move(scene, library, 0, PlanarTransform(0.0, 0.2, 0.0))

    def test_has_collisions(self, library):
        def scene(*xs):
            poses = (PlanarTransform(0.0, x, 0.0) for x in xs)
            return SceneState(Rect(-0.5, -0.5, 0.5, 0.5), tuple(map(Placement, range(len(xs)), poses)))

        assert conflicts(scene(-0.2, 0.2), library) == [False, False]
        assert conflicts(scene(-0.02, 0.02), library) == [True, True]
        assert conflicts(scene(-0.2, 0.49), library) == [False, True]

    def test_off_table_rejected(self, library):
        scene = single_object_scene(library)
        with pytest.raises(CollisionAtTarget):
            apply_move(scene, library, 0, PlanarTransform(0.0, 0.49, 0.0))

    def test_noise_without_rng_raises(self, library):
        scene = single_object_scene(library)
        with pytest.raises(ValueError, match="rng"):
            apply_move(scene, library, 0, PlanarTransform(0.0, 0.1, 0.0), sigma=0.01)

    def test_noise_statistics(self, library):
        rng = np.random.default_rng(42)
        sigma = 0.01
        target = PlanarTransform(0.3, 0.05, -0.05)
        errs = []
        for _ in range(1000):
            out = apply_move(single_object_scene(library), library, 0, target, sigma=sigma, rng=rng)
            p = out.placements[0].pose
            errs.append([p.yaw - target.yaw, p.tx - target.tx, p.ty - target.ty])
        errs = np.abs(np.array(errs))
        assert (errs < 4 * sigma).mean() > 0.995
        assert np.mean(errs) == pytest.approx(sigma * np.sqrt(2 / np.pi), rel=0.1)


class TestInstanceIO:
    def test_roundtrip_bit_exact(self, config, library, tmp_path):
        inst = generate_instance(config, library, seed=21)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert instance_to_dict(loaded) == instance_to_dict(inst)
        # bytes stable across re-save
        path2 = tmp_path / "inst2.json"
        save_instance(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_dict_fields(self, config, library):
        """A version-3 document holds only what was drawn."""
        inst = generate_instance(config, library, seed=2)
        d = instance_to_dict(inst)
        assert sorted(d) == ["config", "format", "goal", "initial", "seed", "version"]
        assert d["format"] == "mvor-instance" and d["version"] == 3
        assert len(d["initial"]) == len(d["goal"]) == inst.initial.num_objects
        json.dumps(d)  # JSON-able throughout
        back = instance_from_dict(d)
        assert back.seed == inst.seed

    MEMBERS = ["config", "initial", "goal", "seed"]

    @pytest.mark.parametrize(
        "key, value, views, half_width", [("ring_count", 4, 4, 0.5), ("table_width", 0.6, 8, 0.3)]
    )
    def test_config_echo_governs(self, config, library, key, value, views, half_width, tmp_path):
        """The viewpoints and the table are the config echo's: a stored copy
        once kept 8 views (``build-db`` wrote 64 regions) for ``ring_count``
        4 and a +-0.5 m table for ``table_width`` 0.6. The objects are placed
        0.2 m in from the edge, so each footprint lies on the 0.6 m table
        too: the CLI refuses a scene with one off its table."""
        placed = dataclasses.replace(config, placement_margin=0.2)
        d = instance_to_dict(generate_instance(placed, library, seed=2))
        d["config"][key] = value
        inst = instance_from_dict(d)
        edited = dataclasses.replace(placed, **{key: value})
        assert inst.initial.table_bounds == inst.goal.table_bounds
        assert inst.initial.table_bounds.xmax == half_width == -inst.initial.table_bounds.xmin
        assert len(inst.config.ring_viewpoints) == views
        for got, want in zip([inst.config.home_viewpoint, *inst.config.ring_viewpoints],
                             [edited.home_viewpoint, *edited.ring_viewpoints]):
            assert np.array_equal(got.matrix, want.matrix)
        path, out = tmp_path / "inst.json", tmp_path / "db.npz"
        path.write_text(json.dumps(d))
        assert cli_main(["build-db", "--instance", str(path), "--out", str(out)]) == 0
        db, _ = load_database(out)
        # a region's frame is its view's position, for the views rendered in
        # one call (build-db) and for frames rendered one call per view
        intr, perception = inst.config.intrinsics, PerceptionConfig()
        frames = [
            render(inst.initial, [vp], intr, library)[0] for vp in inst.config.ring_viewpoints
        ]
        sizes = [len(extract_regions(f, segment(f), perception)) for f in frames]
        positions = np.repeat(np.arange(views), sizes).tolist()
        assert db.region_frame.tolist() == positions
        assert build_database(frames, library, perception).region_frame.tolist() == positions

    def test_true_offsets_follow_edited_placements(self, config, library):
        """The true offsets are the placements': editing a goal yaw by 1 rad
        once left the stored offset, and a 57.3 deg error, in place."""
        d = instance_to_dict(generate_instance(config, library, seed=2))
        d["goal"][0]["yaw"] += 1.0
        inst = instance_from_dict(d)
        assert inst.true_offsets == tuple(
            geo.planar_compose(g.pose, geo.planar_invert(i.pose))
            for i, g in zip(inst.initial.placements, inst.goal.placements)
        )
        assert inst.goal.placements[0].pose.yaw == d["goal"][0]["yaw"]

    @pytest.mark.parametrize("doc", [[], "instance", 3, None])
    def test_non_mapping_rejected(self, doc):
        with pytest.raises(ConfigParseError):
            instance_from_dict(doc)

    @pytest.mark.parametrize("member", MEMBERS)
    def test_missing_member_rejected(self, config, library, member):
        d = instance_to_dict(generate_instance(config, library, seed=2))
        del d[member]
        with pytest.raises(ConfigParseError, match=member):
            instance_from_dict(d)

    @pytest.mark.parametrize(
        "member, value",
        [
            ("config", [1, 2]),
            ("seed", 1.5),
            ("seed", True),
            ("initial", [{"model_id": 0, "yaw": 0.0, "tx": 0.0}]),
            ("initial", [{"model_id": "0", "yaw": 0.0, "tx": 0.0, "ty": 0.0}]),
            ("goal", {"model_id": 0}),
            ("goal", 7),
        ],
    )
    def test_ill_typed_member_rejected(self, config, library, member, value):
        d = instance_to_dict(generate_instance(config, library, seed=2))
        d[member] = value
        with pytest.raises(ConfigParseError, match=member):
            instance_from_dict(d)

    def test_length_mismatch_rejected(self, config, library):
        d = instance_to_dict(generate_instance(config, library, seed=2))
        d["goal"] = d["goal"][:-1]
        with pytest.raises(ConfigParseError):
            instance_from_dict(d)

    def test_goal_model_differs_from_initial_rejected(self, config, library):
        """Goal object i places initial object i's model: with two goal ids
        swapped, ``mvor rearrange`` once ran to INCOMPLETE with exit 0."""
        d = instance_to_dict(generate_instance(config, library, seed=2))
        first, second = d["goal"][:2]
        m0, m1 = first["model_id"], second["model_id"]
        first["model_id"], second["model_id"] = m1, m0
        with pytest.raises(
            ConfigParseError, match=f"object 0: initial model id {m0}, goal model id {m1}"
        ):
            instance_from_dict(d)

    def test_repeated_model_rejected(self, config, library):
        """No model is placed twice: a hit's feature id is its library row,
        so the database could not tell the two placements apart."""
        d = instance_to_dict(generate_instance(config, library, seed=2))
        m = d["initial"][0]["model_id"]
        d["initial"][1]["model_id"] = d["goal"][1]["model_id"] = m
        with pytest.raises(ConfigParseError, match=f"objects 0 and 1 both place model id {m}"):
            instance_from_dict(d)


class TestDatasetIO:
    def test_roundtrip(self, config, library, tmp_path):
        """write_dataset's manifest lists each instance's file and seed, and
        each file loads back to the instance placed against the library in
        memory."""
        insts = [generate_instance(config, library, seed=s) for s in (1, 2)]
        write_dataset(tmp_path, config, (1, 2))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["count"] == len(insts)
        assert manifest["seeds"] == [i.seed for i in insts]
        loaded = [load_instance(tmp_path / name) for name in manifest["files"]]
        assert [instance_to_dict(i) for i in loaded] == [instance_to_dict(i) for i in insts]
