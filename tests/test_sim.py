import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from mvor import geometry as geo
from mvor.errors import CollisionAtTarget, ConfigParseError, EmptyFrame, PlacementFailure
from mvor.geometry import PlanarTransform, Pose3
from mvor.sim import (
    FEATURE_ID_STRIDE,
    Frame,
    ModelLibrary,
    Placement,
    Rect,
    SceneState,
    SimConfig,
    apply_move,
    empty_frame,
    generate_instance,
    generate_model_library,
    ground_truth_segmenter,
    render,
    segment,
)
from mvor.sim.io import (
    instance_from_dict,
    instance_to_dict,
    load_dataset,
    load_instance,
    save_dataset,
    save_instance,
)


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


class TestModelLibrary:
    def test_deterministic(self, config):
        a = generate_model_library(config)
        b = generate_model_library(config)
        for ma, mb in zip(a.models, b.models):
            np.testing.assert_array_equal(ma.points, mb.points)
            np.testing.assert_array_equal(ma.normals, mb.normals)
            np.testing.assert_array_equal(ma.point_feature_ids, mb.point_feature_ids)
            np.testing.assert_array_equal(ma.point_descriptors, mb.point_descriptors)
            assert ma.footprint_radius == mb.footprint_radius

    def test_box_normals_axis_aligned(self, library):
        boxes = [m for m in library.models if m.family == "box"]
        assert boxes
        for m in boxes:
            np.testing.assert_allclose(np.linalg.norm(m.normals, axis=1), 1.0, atol=1e-12)
            # each normal equals +/- a basis vector
            assert np.all(np.sum(np.abs(m.normals) > 1e-12, axis=1) == 1)

    def test_all_normals_unit(self, library):
        for m in library.models:
            np.testing.assert_allclose(np.linalg.norm(m.normals, axis=1), 1.0, atol=1e-9)

    def test_feature_ids_globally_unique(self, library):
        all_ids = np.concatenate([m.point_feature_ids for m in library.models])
        assert len(np.unique(all_ids)) == len(all_ids)
        for m in library.models:
            assert np.all(m.point_feature_ids // FEATURE_ID_STRIDE == m.model_id)

    def test_footprint_covers_points(self, library):
        for m in library.models:
            extent = np.linalg.norm(m.points[:, :2], axis=1).max()
            assert m.footprint_radius >= extent - 1e-12

    def test_three_families_present(self, library):
        assert {m.family for m in library.models} == {"box", "cylinder", "l_prism"}

    def test_descriptor_lookup(self, library):
        m = library.models[2]
        ids = m.point_feature_ids[[5, 17, 3]]
        np.testing.assert_array_equal(
            library.descriptors_for(ids), m.point_descriptors[[5, 17, 3]]
        )


class TestGenerateInstance:
    def test_deterministic(self, config, library):
        a = generate_instance(config, library, seed=11)
        b = generate_instance(config, library, seed=11)
        assert instance_to_dict(a) == instance_to_dict(b)

    def test_nine_small_objects_fit(self, library):
        cfg = SimConfig(object_count_min=9, object_count_max=9)
        assert library.max_footprint_radius() <= 0.08
        inst = generate_instance(cfg, library, seed=3)
        assert inst.initial.num_objects == 9

    def test_oversized_footprint_fails(self, config, library):
        big = ModelLibrary(
            models=[
                type(m)(
                    model_id=m.model_id,
                    family=m.family,
                    points=m.points,
                    normals=m.normals,
                    point_feature_ids=m.point_feature_ids,
                    point_descriptors=m.point_descriptors,
                    footprint_radius=0.5,
                )
                for m in library.models
            ],
            seed=library.seed,
        )
        cfg = SimConfig(object_count_min=9, object_count_max=9)
        with pytest.raises(PlacementFailure):
            generate_instance(cfg, big, seed=0)

    def test_collision_free_scenes(self, config, library):
        for seed in range(20):
            inst = generate_instance(config, library, seed=seed)
            assert not inst.initial.has_collisions(library)
            assert not inst.goal.has_collisions(library)

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
    return frame.rows * frame.intrinsics.width + frame.cols


def frame_from_labels(labels, intr=None):
    """A frame whose hits are the pixels of ``labels`` >= 0, in row-major
    order, with those labels as instance ids."""
    h, w = labels.shape
    intr = intr or geo.CameraIntrinsics(100.0, 100.0, w / 2, h / 2, w, h)
    rows, cols = np.nonzero(labels >= 0)
    n = len(rows)
    return Frame(
        rows=rows,
        cols=cols,
        feature_ids=np.ones(n, dtype=np.int64),
        instance_ids=labels[rows, cols].astype(np.int32),
        px=np.stack([cols, rows], axis=1).astype(float),
        depth=np.ones(n),
        view_local=np.zeros((n, 3)),
        viewpoint=Pose3.identity(),
        intrinsics=intr,
    )


class TestRender:
    def test_top_down_sees_only_top_faces(self, library):
        model = next(m for m in library.models if m.family == "box")
        scene = single_object_scene(library, model.model_id)
        cam = geo.look_at([0.0, 0.0, 0.9], [0.0, 0.0, 0.0])
        frame = render(scene, cam, SimConfig().intrinsics(), library)
        seen = frame.feature_ids
        # oracle: points whose normal faces a straight-down camera
        up = model.normals[:, 2] > 1e-9
        top_ids = set(model.point_feature_ids[up].tolist())
        assert len(seen) > 50
        assert set(seen.tolist()) <= top_ids

    def test_hits_are_distinct_pixels_in_row_major_order(self, config, library):
        inst = generate_instance(config, library, seed=5)
        intr = config.intrinsics()
        frame = render(inst.initial, inst.ring_viewpoints[2], intr, library)
        assert np.all(np.diff(pixel_index(frame)) > 0)
        assert frame.rows.min() >= 0 and frame.rows.max() < intr.height
        assert frame.cols.min() >= 0 and frame.cols.max() < intr.width
        # each hit's pixel is the one its exact projection falls in
        np.testing.assert_array_equal(frame.cols, np.floor(frame.px[:, 0] + 0.5))
        np.testing.assert_array_equal(frame.rows, np.floor(frame.px[:, 1] + 0.5))

    def test_frame_holds_no_full_resolution_array(self, config, library):
        intr = config.intrinsics()
        assert (intr.width, intr.height) == (640, 480)
        inst = generate_instance(config, library, seed=5)
        for vp in (inst.ring_viewpoints[0], inst.home_viewpoint):
            frame = render(inst.initial, vp, intr, library)
            arrays = [v for v in vars(frame).values() if isinstance(v, np.ndarray)]
            assert len(arrays) == 7
            assert max(a.size for a in arrays) < intr.width * intr.height
            assert sum(a.nbytes for a in arrays) < 1_000_000

    def test_nearer_object_wins_contested_pixels(self, config, library):
        intr = config.intrinsics()
        cam = geo.look_at([1.1, 0.0, 0.25], [0.0, 0.0, 0.0])
        bounds = Rect(-0.5, -0.5, 0.5, 0.5)
        far = SceneState(bounds, (Placement(0, PlanarTransform(0.0, -0.12, 0.0)),))
        near = SceneState(bounds, (Placement(3, PlanarTransform(0.0, 0.12, 0.0)),))
        both = SceneState(bounds, far.placements + near.placements)

        f_far = render(far, cam, intr, library)
        f_near = render(near, cam, intr, library)
        f_both = render(both, cam, intr, library)

        contested, i_far, i_near = np.intersect1d(
            pixel_index(f_far), pixel_index(f_near), return_indices=True
        )
        assert len(contested) > 20
        expect_near = f_near.depth[i_near] < f_far.depth[i_far]
        i_both = np.searchsorted(pixel_index(f_both), contested)
        np.testing.assert_array_equal(pixel_index(f_both)[i_both], contested)
        got_near = f_both.instance_ids[i_both] == 1
        np.testing.assert_array_equal(got_near, expect_near)

    def test_camera_facing_away_empty(self, config, library):
        scene = single_object_scene(library)
        cam = geo.look_at([1.0, 0.0, 0.5], [2.0, 0.0, 0.5])
        with pytest.raises(EmptyFrame):
            render(scene, cam, config.intrinsics(), library)

    def test_backprojection_recovers_world_points(self, config, library):
        inst = generate_instance(config, library, seed=5)
        intr = config.intrinsics()
        frame = render(inst.initial, inst.ring_viewpoints[2], intr, library)
        w2c = geo.invert(frame.viewpoint)
        world = geo.back_project_pixels(intr, w2c, frame.px, frame.depth)
        # each recovered point must coincide with an actual surface point
        n = len(frame.feature_ids)
        for k in range(0, n, max(1, n // 200)):
            placement = inst.initial.placements[frame.instance_ids[k]]
            model = library.model(placement.model_id)
            local = model.point_feature_ids == frame.feature_ids[k]
            pt = geo.lift(placement.pose).apply(model.points[local][0])
            np.testing.assert_allclose(world[k], pt, atol=1e-9)

    def test_render_deterministic(self, config, library):
        inst = generate_instance(config, library, seed=8)
        intr = config.intrinsics()
        a = render(inst.initial, inst.ring_viewpoints[0], intr, library)
        b = render(inst.initial, inst.ring_viewpoints[0], intr, library)
        for name in ("rows", "cols", "feature_ids", "instance_ids", "px", "depth", "view_local"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestSegment:
    def test_noiseless_masks_match_ground_truth(self, config, library):
        inst = generate_instance(config, library, seed=9)
        frame = render(inst.initial, inst.ring_viewpoints[1], config.intrinsics(), library)
        masks = segment(frame)
        assert len(masks) == len(frame.instance_list())
        for inst_id, mask in masks:
            np.testing.assert_array_equal(mask, frame.instance_ids == inst_id)

    def test_drop_all(self, config, library):
        inst = generate_instance(config, library, seed=9)
        frame = render(inst.initial, inst.ring_viewpoints[1], config.intrinsics(), library)
        assert segment(frame, p_drop=1.0, rng=np.random.default_rng(0)) == []

    def test_drop_without_rng_raises(self, config, library):
        inst = generate_instance(config, library, seed=9)
        frame = render(inst.initial, inst.ring_viewpoints[1], config.intrinsics(), library)
        with pytest.raises(ValueError, match="rng"):
            segment(frame, p_drop=0.5)
        with pytest.raises(ValueError, match="rng"):
            ground_truth_segmenter(p_drop=0.5)(frame)

    def test_empty_frame_has_no_masks(self, config):
        frame = empty_frame(Pose3.identity(), config.intrinsics())
        assert segment(frame) == [] and segment(frame, erode_radius=2) == []

    def test_erosion_matches_bruteforce(self, config):
        intr = config.intrinsics()
        labels = np.full((intr.height, intr.width), -1)
        labels[100:110, 200:210] = 0
        frame = frame_from_labels(labels, intr)
        r = 2
        masks = segment(frame, erode_radius=r)
        assert len(masks) == 1
        got = masks[0][1]
        # brute force: pixel survives iff the full (2r+1)^2 neighborhood is set
        full = labels == 0
        expect = np.zeros_like(full)
        h, w = full.shape
        for i in range(h):
            for j in range(w):
                if full[max(0, i - r) : i + r + 1, max(0, j - r) : j + r + 1].sum() == (2 * r + 1) ** 2:
                    expect[i, j] = True
        np.testing.assert_array_equal(got, expect[frame.rows, frame.cols])
        assert got.sum() == expect.sum() == 36

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
        labels=st.integers(1, 3),
        density=st.floats(0.3, 1.0),
        radius=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_box_erosion_equals_full_frame_erosion(self, shape, labels, density, radius, seed):
        # random blobs on a small image; dense ones cover the image border
        rng = np.random.default_rng(seed)
        image = np.where(
            rng.uniform(size=shape) < density, rng.integers(0, labels, size=shape), -1
        )
        frame = frame_from_labels(image)
        got = dict(segment(frame, erode_radius=radius))
        for inst_id in np.unique(image[image >= 0]):
            full = ndimage.binary_erosion(
                image == inst_id, structure=np.ones((3, 3), dtype=bool), iterations=radius
            )
            expect = full[frame.rows, frame.cols]
            assert full.sum() == expect.sum()
            if expect.any():
                np.testing.assert_array_equal(got[int(inst_id)], expect)
            else:
                assert int(inst_id) not in got

    def test_masks_disjoint(self, config, library):
        inst = generate_instance(config, library, seed=12)
        frame = render(inst.initial, inst.ring_viewpoints[3], config.intrinsics(), library)
        masks = segment(frame)
        acc = np.zeros(frame.instance_ids.shape, dtype=int)
        for _, m in masks:
            acc += m
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

        assert not scene(-0.2, 0.2).has_collisions(library)
        assert scene(-0.02, 0.02).has_collisions(library)
        assert scene(-0.2, 0.49).has_collisions(library)

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
        inst = generate_instance(config, library, seed=2)
        d = instance_to_dict(inst)
        assert d["format"] == "mvor-instance"
        assert len(d["ring_viewpoints"]) == config.ring_count
        assert len(d["initial"]) == len(d["goal"]) == len(d["true_offsets"])
        json.dumps(d)  # JSON-able throughout
        back = instance_from_dict(d)
        assert back.seed == inst.seed

    MEMBERS = [
        "config", "table_bounds", "initial", "goal", "true_offsets",
        "home_viewpoint", "ring_viewpoints", "seed",
    ]

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
            ("table_bounds", [-0.5, -0.5, 0.5]),
            ("table_bounds", "abcd"),
            ("initial", [{"model_id": 0, "yaw": 0.0, "tx": 0.0}]),
            ("initial", [{"model_id": "0", "yaw": 0.0, "tx": 0.0, "ty": 0.0}]),
            ("goal", {"model_id": 0}),
            ("goal", 7),
            ("true_offsets", [{"yaw": "0", "tx": 0.0, "ty": 0.0}]),
            ("home_viewpoint", [[1.0, 0.0, 0.0, 0.0]] * 3),
            ("ring_viewpoints", [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, True, 1]]]),
            ("seed", 1.5),
            ("seed", True),
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


class TestDatasetIO:
    def test_roundtrip(self, config, library, tmp_path):
        insts = [generate_instance(config, library, seed=s) for s in (1, 2)]
        save_dataset(insts, tmp_path, config)
        loaded = load_dataset(tmp_path)
        assert [instance_to_dict(i) for i in loaded] == [instance_to_dict(i) for i in insts]

    @pytest.mark.parametrize(
        "files",
        [
            "absent",
            None,
            "instance_00000001.json",
            {"a": "instance_00000001.json"},
            ["instance_00000001.json", 2],
            [["instance_00000001.json"]],
        ],
    )
    def test_malformed_files_rejected(self, config, library, tmp_path, files):
        save_dataset([generate_instance(config, library, seed=1)], tmp_path, config)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        if files == "absent":
            del manifest["files"]
        else:
            manifest["files"] = files
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigParseError, match="files"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("doc", [[], "mvor-dataset", {"format": "mvor-instance"}])
    def test_not_a_manifest_rejected(self, tmp_path, doc):
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigParseError, match="not a dataset"):
            load_dataset(tmp_path)
