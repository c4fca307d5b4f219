import json
import zipfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from mvor import geometry as geo
from mvor.cli import main as cli_main
from mvor.errors import IOFailure, NoRegions
from mvor.geometry import PlanarTransform
from mvor.localization import reprojection_sq_errors
from mvor.perception import (
    GridPooledDescriptor,
    PerceptionConfig,
    associate,
    build_database,
    extract_regions,
    load_database,
    prepare_goal_regions,
    save_database,
)
from mvor.perception.database import DB_ARRAYS, Database
from mvor.perception.regions import ObjectRegion
from mvor.sim import (
    Placement,
    Rect,
    SceneState,
    SimConfig,
    empty_frame,
    generate_instance,
    generate_model_library,
    render,
    segment,
)

CFG = SimConfig()
PCFG = PerceptionConfig()


@pytest.fixture(scope="module")
def library():
    return generate_model_library(CFG)


@pytest.fixture(scope="module")
def descriptor(library):
    return GridPooledDescriptor(library)


def make_scene(placements):
    return SceneState(Rect(-0.5, -0.5, 0.5, 0.5), tuple(placements))


def three_object_scene():
    return make_scene(
        [
            Placement(1, PlanarTransform(0.0, -0.3, -0.2)),
            Placement(3, PlanarTransform(0.7, 0.25, 0.2)),
            Placement(6, PlanarTransform(-1.2, 0.0, 0.0)),
        ]
    )


def ring_frames(scene, library, config=CFG):
    intr = config.intrinsics
    return render(scene, config.ring_viewpoints, intr, library)


def db_for(scene, library, frames=None):
    frames = frames if frames is not None else ring_frames(scene, library)
    return build_database(frames, library, PCFG)


class TestExtractRegions:
    def test_cloud_matches_visible_world_points(self, library):
        scene = make_scene([Placement(1, PlanarTransform(0.4, 0.05, -0.08))])
        frame = ring_frames(scene, library)[2]
        regions = extract_regions(frame, segment(frame), PCFG)
        assert len(regions) == 1
        reg = regions[0]
        n = library.model_points
        world_pts = geo.lift(scene.placements[0].pose).apply(library.points[n : 2 * n])
        seen_ids = frame.feature_ids
        assert np.all((seen_ids >= n) & (seen_ids < 2 * n))
        expect = world_pts[seen_ids - n]
        got = reg.world
        assert got.shape == expect.shape
        d = np.linalg.norm(np.sort(got, axis=0) - np.sort(expect, axis=0), axis=1)
        assert d.max() < 1e-6

    def test_min_points_drop(self, library):
        scene = make_scene([Placement(0, PlanarTransform(0, 0, 0))])
        frame = ring_frames(scene, library)[0]
        [(_, full)] = segment(frame)
        assert full.stop - full.start > 10
        small = slice(full.start, full.start + 5)
        assert extract_regions(frame, [(0, small)], PerceptionConfig(min_region_points=10)) == []

    def test_multi_hit_region_shares_memory_with_its_frame(self, library):
        """Under segment's slices a region's hit arrays are views of its
        frame's arrays, not copies."""
        scene = make_scene(
            [
                Placement(0, PlanarTransform(0, -0.09, 0.0)),
                Placement(3, PlanarTransform(0, 0.09, 0.0)),
            ]
        )
        frame = ring_frames(scene, library)[0]
        regions = extract_regions(frame, segment(frame), PCFG)
        assert len(regions) == 2
        for reg in regions:
            assert len(reg.feature_ids) > 1
            for name in ("feature_ids", "px", "view_local"):
                assert np.shares_memory(getattr(reg, name), getattr(frame, name)), name
        # both world arrays are views of the frame's one back-projection
        assert regions[0].world.base is regions[1].world.base is not None

    def test_one_hit_region_is_back_projected_alone(self, library):
        """A one-hit region's world point is its own one-row back-projection,
        which can differ in the last bit from that row of the frame's (with
        OpenBLAS on AVX-512 it does for 12 of this frame's 739 hits)."""
        scene = make_scene([Placement(0, PlanarTransform(0, 0, 0))])
        frame = ring_frames(scene, library)[1]
        w2c = geo.invert(frame.viewpoint)
        for i in range(len(frame.depth)):
            mask = np.zeros(len(frame.depth), dtype=bool)
            mask[i] = True
            alone = geo.back_project_pixels(frame.intrinsics, w2c, frame.px[[i]], frame.depth[[i]])
            for sel in (mask, slice(i, i + 1)):
                (reg,) = extract_regions(frame, [(0, sel)], PerceptionConfig(min_region_points=1))
                assert reg.world.tobytes() == alone.tobytes()

    def test_one_camera_end_to_end(self, library):
        """The renderer's projection, the region cut's back-projection and
        the pose solver's scoring are one camera model: at its frame's own
        camera pose, every hit's back-projected world point reprojects onto
        its stored pixel to rounding (at most 1.6e-26 px^2 over the 184,769
        hits of these scenes when this test was written)."""
        hits = 0
        for seed in range(5):
            inst = generate_instance(CFG, library, seed=seed)
            views = [*inst.config.ring_viewpoints, inst.config.home_viewpoint]
            for frame in render(inst.initial, views, CFG.intrinsics, library):
                w2c = geo.invert(frame.viewpoint)
                for region in extract_regions(frame, segment(frame), PCFG):
                    err = reprojection_sq_errors(
                        region.world, region.px, frame.intrinsics, w2c.rotation, w2c.translation
                    )
                    assert err.max() < 1e-20
                    hits += len(err)
        assert hits > 100_000

    def test_empty_mask_list(self, library):
        scene = make_scene([Placement(0, PlanarTransform(0, 0, 0))])
        frame = ring_frames(scene, library)[0]
        assert extract_regions(frame, [], PCFG) == []

    def test_crop_excludes_other_instances(self, library):
        scene = make_scene(
            [
                Placement(0, PlanarTransform(0, -0.09, 0.0)),
                Placement(3, PlanarTransform(0, 0.09, 0.0)),
            ]
        )
        frame = ring_frames(scene, library)[0]
        regions = extract_regions(frame, segment(frame), PCFG)
        for reg in regions:
            fids = reg.feature_ids
            models = np.unique(fids // library.model_points)
            assert len(models) == 1


def dense_planes(frame):
    """The frame's hits scattered into full-resolution planes, the layout
    frames had before they became hit lists."""
    h, w = frame.intrinsics.height, frame.intrinsics.width
    planes = {
        "feature_ids": np.full((h, w), -1, dtype=np.int64),
        "instance_ids": np.full((h, w), -1, dtype=np.int32),
        "px": np.full((h, w, 2), np.nan),
        "depth": np.full((h, w), np.nan),
        "view_local": np.full((h, w, 3), np.nan),
    }
    cols, rows = geo.nearest_pixel(frame.px).T
    for name, plane in planes.items():
        plane[rows, cols] = getattr(frame, name)
    return planes


def dense_segment(planes, erode_radius):
    """Full-frame ground-truth segmentation: one pixel mask per instance."""
    ids = np.unique(planes["instance_ids"])
    out = []
    for inst in ids[ids >= 0]:
        mask = planes["instance_ids"] == inst
        if erode_radius > 0:
            mask = ndimage.binary_erosion(
                mask, structure=np.ones((3, 3), dtype=bool), iterations=erode_radius
            )
        if mask.any():
            out.append((int(inst), mask))
    return out


def dense_extract_regions(frame, planes, masks, min_points):
    """Region extraction over full-resolution planes (the reference): each
    region's dense crop grids, feature id -1 and NaN geometry off its
    mask."""
    w2c = geo.invert(frame.viewpoint)
    filled = planes["feature_ids"] >= 0
    out = []
    for label, mask in masks:
        mask = mask & filled
        if int(mask.sum()) < min_points:
            continue
        rr, cc = np.nonzero(mask)
        r0, r1 = rr.min(), rr.max() + 1
        c0, c1 = cc.min(), cc.max() + 1
        sub = np.s_[r0:r1, c0:c1]
        keep = mask[sub]
        fids = np.where(keep, planes["feature_ids"][sub], -1)
        px = np.where(keep[..., None], planes["px"][sub], np.nan)
        view = np.where(keep[..., None], planes["view_local"][sub], np.nan)
        world = np.full((*keep.shape, 3), np.nan)
        world[rr - r0, cc - c0] = geo.back_project_pixels(
            frame.intrinsics, w2c, planes["px"][rr, cc], planes["depth"][rr, cc]
        )
        out.append((int(r0), int(c0), label, (fids, px, world, view)))
    return out


def crop_pixels(region):
    """The crop of a region's hit pixels, ``nearest_pixel(px)``: each hit's
    crop-local row and column, the crop's origin (row0, col0) and its
    shape (h, w)."""
    cols, rows = geo.nearest_pixel(region.px).T
    r0, c0 = rows.min(), cols.min()
    shape = (int(rows.max() - r0 + 1), int(cols.max() - c0 + 1))
    return rows - r0, cols - c0, (int(r0), int(c0)), shape


def densify(region):
    """A region's hits scattered back to its dense (h, w) grids of feature
    ids, projections, world points and view directions: feature id -1 and
    NaN geometry off the hits."""
    rows, cols, _, (h, w) = crop_pixels(region)
    grids = []
    for values, fill in (
        (region.feature_ids, -1), (region.px, np.nan), (region.world, np.nan),
        (region.view_local, np.nan),
    ):
        grid = np.full((h, w) + values.shape[1:], fill, dtype=values.dtype)
        grid[rows, cols] = values
        grids.append(grid)
    return grids


def sparsify(feature_ids, px, world, view_local):
    """The hit fields of a region over dense grids: one hit per pixel whose
    feature id is set, in row-major order."""
    rr, cc = np.nonzero(feature_ids >= 0)
    return dict(
        feature_ids=feature_ids[rr, cc], px=px[rr, cc], world=world[rr, cc],
        view_local=view_local[rr, cc],
    )


class TestHitFrameRegions:
    """Regions cut from a frame's hits, scattered back to dense crop grids,
    are byte-identical to regions cut from full-resolution planes holding
    the same hits."""

    @pytest.mark.parametrize("erode_radius", [0, 1])
    def test_matches_dense_reference(self, library, erode_radius):
        cfg = SimConfig(object_count_min=5, object_count_max=5)
        intr = cfg.intrinsics
        checked = 0
        for seed in (0, 3):
            inst = generate_instance(cfg, library, seed=seed)
            views = [
                (inst.initial, inst.config.ring_viewpoints[0]),
                (inst.initial, inst.config.ring_viewpoints[5]),
                (inst.initial, inst.config.home_viewpoint),
                (inst.goal, inst.config.home_viewpoint),
            ]
            for scene, vp in views:
                (frame,) = render(scene, [vp], intr, library)
                planes = dense_planes(frame)
                dense_masks = dense_segment(planes, erode_radius)
                # eroded masks, taken at the frame's hits, cut object edges
                # the ground-truth segmentation never cuts
                cols, rows = geo.nearest_pixel(frame.px).T
                masks = segment(frame) if erode_radius == 0 else [
                    (label, m[rows, cols]) for label, m in dense_masks
                ]
                got = extract_regions(frame, masks, PCFG)
                expect = dense_extract_regions(frame, planes, dense_masks, PCFG.min_region_points)
                assert len(got) == len(expect) > 0
                for reg, (r0, c0, label, arrays) in zip(got, expect):
                    rows, cols, origin, (_, w) = crop_pixels(reg)
                    assert (*origin, reg.source_instance) == (r0, c0, label)
                    assert np.all(np.diff(rows * w + cols) > 0)  # row-major
                    for a, b in zip(densify(reg), arrays):
                        assert (a.dtype, a.shape) == (b.dtype, b.shape)
                        assert a.tobytes() == b.tobytes()
                    checked += 1
        assert checked >= 30


def reference_descriptor(library, region):
    """A region's pooled point codes as the descriptor is defined: the
    float32 sum of the point descriptors at its sorted feature ids,
    normalized in float64."""
    pooled = library.point_descriptors[np.sort(region.feature_ids)].sum(0, dtype=np.float32)
    pooled = pooled.astype(np.float64)
    return pooled / np.linalg.norm(pooled)


def float32_sum_bound(counts, codes):
    """A bound on the distance between the unit vectors of the float32
    sum of ``codes`` rows taken ``counts`` times and of the exact sum
    ``y``: a recursive sum of n terms errs by at most gamma_(n-1) times
    the sum of the terms' magnitudes in each component (Higham, "Accuracy
    and Stability of Numerical Algorithms", 2002, section 4.2), and
    normalizing at most doubles an error e relative to ``y``: 2|e|/|y|."""
    n = counts.sum()
    u = np.finfo(np.float32).eps / 2
    gamma = (n - 1) * u / (1 - (n - 1) * u)
    y = counts @ codes
    return 2 * gamma * np.linalg.norm(counts @ np.abs(codes)) / np.linalg.norm(y)


def fid_region(feature_ids):
    """A region carrying only the hits of a dense feature-id grid, all
    the descriptor reads."""
    h, w = feature_ids.shape
    hits = sparsify(feature_ids, np.zeros((h, w, 2)), np.zeros((h, w, 3)), np.zeros((h, w, 3)))
    return ObjectRegion(
        **hits, viewpoint=geo.Pose3(np.eye(3), np.zeros(3)), source_instance=0
    )


def random_fids(library, rng, h, w, hole_rate):
    """An (h, w) feature-id grid drawn from the points of two random models,
    with holes (-1) at ``hole_rate`` and at least one hit; ids may repeat."""
    models = rng.integers(len(library), size=2)
    which = models[rng.integers(2, size=(h, w))]
    n = library.model_points
    rows = which * n + (rng.random((h, w)) * n).astype(np.int64)
    holes = rng.random((h, w)) < hole_rate
    holes.flat[rng.integers(h * w)] = False
    return np.where(holes, -1, rows)


def shuffled_hits(region, rng):
    """``region`` with its hits in a random order."""
    order = rng.permutation(len(region.feature_ids))
    return replace(
        region, feature_ids=region.feature_ids[order], px=region.px[order],
        world=region.world[order], view_local=region.view_local[order],
    )


def described_bytes(descriptor, regions):
    return [row.tobytes() for row in descriptor.extract(regions)]


class TestDescriptor:
    def _region(self, library, scene, view_idx=1, which=0):
        frame = ring_frames(scene, library)[view_idx]
        return extract_regions(frame, segment(frame), PCFG)[which]

    def test_deterministic(self, library, descriptor):
        scene = make_scene([Placement(2, PlanarTransform(0.3, 0.0, 0.1))])
        reg = self._region(library, scene)
        a = descriptor.extract([reg])[0]
        b = descriptor.extract([reg])[0]
        np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-6)

    def test_settings_come_from_the_config(self, library):
        """The descriptor has no settings of its own: it is the
        config's ``sim.point_descriptor_dim`` wide and of unit norm, for the
        default library and a narrow one."""
        scene = make_scene([Placement(2, PlanarTransform(0.3, 0.0, 0.1))])
        narrow = generate_model_library(SimConfig(point_descriptor_dim=8))
        for width, lib in ((CFG.point_descriptor_dim, library), (8, narrow)):
            y = GridPooledDescriptor(lib).extract([self._region(lib, scene)])
            assert y.shape == (1, width)
            assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self, library, descriptor):
        scene = make_scene([Placement(4, PlanarTransform(-0.2, 0.0, 0.0))])
        reg = self._region(library, scene)
        up = replace(reg, **sparsify(*(np.repeat(np.repeat(g, 2, 0), 2, 1) for g in densify(reg))))
        a, b = descriptor.extract([reg, up])
        sim = float(a @ b)
        assert sim > 0.995

    def test_same_instance_beats_cross_instance(self, library, descriptor):
        scene = make_scene(
            [
                Placement(0, PlanarTransform(0.1, -0.15, 0.0)),
                Placement(5, PlanarTransform(-0.4, 0.15, 0.0)),
            ]
        )
        frames = ring_frames(scene, library)
        same, cross = [], []
        descs = []
        for f in frames:
            regs = extract_regions(f, segment(f), PCFG)
            descs += zip((r.source_instance for r in regs), descriptor.extract(regs))
        for i in range(len(descs)):
            for j in range(i + 1, len(descs)):
                sim = float(descs[i][1] @ descs[j][1])
                (same if descs[i][0] == descs[j][0] else cross).append(sim)
        assert np.mean(same) > np.mean(cross) + 0.1


class TestDescriptorBatch:
    """Each row of a batch has the bits of its region described alone."""

    @pytest.fixture(scope="class")
    def regions(self, library):
        scene = three_object_scene()
        regions = [
            r for f in ring_frames(scene, library) for r in extract_regions(f, segment(f), PCFG)
        ]
        assert len(regions) >= 20
        return regions

    def test_rows_are_single_region_descriptors(self, descriptor, regions):
        batch = descriptor.extract(regions)
        assert batch.shape == (len(regions), CFG.point_descriptor_dim)
        assert described_bytes(descriptor, regions) == [
            descriptor.extract([r])[0].tobytes() for r in regions
        ]

    def test_permuted_batch_permutes_rows(self, descriptor, regions):
        order = np.random.default_rng(0).permutation(len(regions))
        alone = described_bytes(descriptor, regions)
        permuted = described_bytes(descriptor, [regions[i] for i in order])
        assert permuted == [alone[i] for i in order]

    def test_hit_order_keeps_the_bits(self, descriptor, regions):
        rng = np.random.default_rng(1)
        shuffled = [shuffled_hits(r, rng) for r in regions]
        assert described_bytes(descriptor, shuffled) == described_bytes(descriptor, regions)

    def test_inputs_keep_their_bytes_in_any_batch(self, descriptor, regions):
        """Sorting a region's ids copies them: the regions' hit columns,
        aligned hit by hit, and the library's codes keep their bytes."""
        def snapshot():
            return [
                getattr(r, name).tobytes()
                for r in regions for name in ("feature_ids", "px", "world", "view_local")
            ] + [descriptor.library.point_descriptors.tobytes()]

        before = snapshot()
        descriptor.extract(regions)
        descriptor.extract(regions[::-1])
        for r in regions[:5]:
            descriptor.extract([r])
        assert snapshot() == before

    def test_one_region_batch_is_the_vector_product(self, descriptor, regions):
        """A one-row batch is the bag-of-words vector product: the region's
        hit counts per library point times the point codes, normalized, up
        to the rounding of the float32 sum."""
        codes = descriptor.library.point_descriptors.astype(np.float64)
        for r in regions[:5]:
            counts = np.bincount(r.feature_ids, minlength=len(codes)).astype(float)
            y = counts @ codes
            error = np.linalg.norm(descriptor.extract([r])[0] - y / np.linalg.norm(y))
            assert error <= float32_sum_bound(counts, codes) + 1e-12

    def test_empty_batch(self, descriptor):
        assert descriptor.extract([]).shape == (0, CFG.point_descriptor_dim)
        # a frame whose every region is dropped describes an empty batch
        frame = ring_frames(three_object_scene(), descriptor.library)[0]
        never = PerceptionConfig(min_region_points=10**9)
        assert prepare_goal_regions(frame, descriptor.library, never) == []

    def test_empty_region_in_batch_raises(self, descriptor, regions):
        empty = fid_region(np.full((7, 5), -1, dtype=np.int64))
        with pytest.raises(ValueError, match="without hits"):
            descriptor.extract([regions[0], empty, regions[1]])


class TestPooling:
    """A region's descriptor has the bits of ``reference_descriptor``."""

    @pytest.fixture(scope="class")
    def rendered(self, library):
        """Regions of the default camera, and of a long focal length whose
        crops are several times larger."""
        scene = three_object_scene()
        frames = ring_frames(scene, library) + ring_frames(
            scene, library, SimConfig(focal_px=1100.0)
        )
        return [r for f in frames for r in extract_regions(f, segment(f), PCFG)]

    # crops under and over 64 px, which a fixed 64 px grid would up- and
    # downsample; the pooled sum reads each hit once at any size
    @pytest.mark.parametrize("resample", ["up", "down"])
    def test_rendered_crops(self, descriptor, rendered, resample):
        sides = [max(crop_pixels(r)[3]) for r in rendered]
        picked = [
            r for r, side in zip(rendered, sides) if (side < 64 if resample == "up" else side > 64)
        ]
        assert picked
        assert described_bytes(descriptor, picked) == [
            reference_descriptor(descriptor.library, r).tobytes() for r in picked
        ]

    def test_one_pixel_region(self, library, descriptor):
        point = 3 * library.model_points + 17
        region = fid_region(np.array([[point]]))
        # the stored code, a float64 unit row rounded to float32, renormalized
        code = library.point_descriptors[point].astype(np.float64)
        np.testing.assert_allclose(descriptor.extract([region])[0], code, rtol=0,
                                   atol=np.finfo(np.float32).eps)
        assert descriptor.extract([region])[0].tobytes() == (
            reference_descriptor(library, region).tobytes()
        )

    def test_empty_crop_raises(self, descriptor):
        with pytest.raises(ValueError, match="without hits"):
            descriptor.extract([fid_region(np.full((7, 5), -1, dtype=np.int64))])

    @settings(max_examples=15, deadline=None)
    @given(
        h=st.integers(1, 150),
        w=st.integers(1, 150),
        hole_rate=st.floats(0.0, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_feature_grids(self, descriptor, h, w, hole_rate, seed):
        rng = np.random.default_rng(seed)
        region = fid_region(random_fids(descriptor.library, rng, h, w, hole_rate))
        expected = reference_descriptor(descriptor.library, region)
        assert descriptor.extract([region])[0].tobytes() == expected.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 150), st.integers(1, 150)), min_size=1, max_size=6
        ),
        hole_rate=st.floats(0.0, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shapes=[(1, 1), (150, 20), (20, 150), (64, 64), (100, 130)], hole_rate=0.3, seed=0)
    def test_random_batches(self, descriptor, shapes, hole_rate, seed):
        """A batch of mixed crops, and the same crops with their hits
        shuffled, give each crop's reference bits."""
        rng = np.random.default_rng(seed)
        lib = descriptor.library
        batch = [fid_region(random_fids(lib, rng, h, w, hole_rate)) for h, w in shapes]
        expected = [reference_descriptor(descriptor.library, r).tobytes() for r in batch]
        assert described_bytes(descriptor, batch) == expected
        assert described_bytes(descriptor, [shuffled_hits(r, rng) for r in batch]) == expected


class TestAssociate:
    def test_two_objects_recover_ground_truth(self, library):
        scene = make_scene(
            [
                Placement(0, PlanarTransform(0.0, -0.15, 0.0)),
                Placement(1, PlanarTransform(0.0, 0.15, 0.0)),
            ]
        )
        db = db_for(scene, library)
        assert db.num_instances == 2
        for j in range(db.num_instances):
            members = np.flatnonzero(db.region_instance == j)
            assert len(set(db.source_instance[members].tolist())) == 1

    def test_ring_recovers_object_count(self, library):
        cfg = SimConfig(object_count_min=5, object_count_max=5)
        inst = generate_instance(cfg, library, seed=4)
        db = db_for(inst.initial, library, ring_frames(inst.initial, library, cfg))
        assert db.num_instances == 5

    def test_undercount_when_every_ring_frame_misses_an_object(self, library):
        """Known failure mode: instance undercounting under occlusion.

        The frame with the most regions names the instances, so an object
        that no frame sees whole enough to segment is never counted. Three
        objects stand in a row along x, viewed only from the two ring
        cameras on that axis (azimuths 0 and 180 deg, 6 deg elevation, far
        enough that the near object's splats cover it densely). The short
        middle cylinder hides behind the tall box nearest each camera, so
        every frame yields two regions and the database has two instances,
        not three. A fix to the instance count has to change this test.
        """
        cfg = SimConfig(ring_count=2, ring_elevation_deg=6.0, ring_radius=3.0)
        scene = make_scene(
            [
                Placement(9, PlanarTransform(0.0, -0.35, 0.0)),
                Placement(1, PlanarTransform(0.0, 0.0, 0.0)),
                Placement(9, PlanarTransform(0.0, 0.35, 0.0)),
            ]
        )
        frames = ring_frames(scene, library, cfg)
        regions_by_frame = [extract_regions(f, segment(f), PCFG) for f in frames]
        assert [sorted(r.source_instance for r in rs) for rs in regions_by_frame] == [[0, 2]] * 2
        db = build_database(frames, library, PCFG)
        assert db.num_instances == 2 < scene.num_objects
        assert 1 not in db.source_instance

    def test_undercount_when_no_frame_sees_every_object(self, library):
        """Known failure mode, and a fixable one: every object is seen, yet
        the database holds fewer instances than the scene has objects.

        Three objects stand in a row along x, viewed from the two ring
        cameras on that axis. Each camera sees the middle object and the
        one nearest it; the far one hides behind them. Frame 0 names two
        instances, so frame 1's regions join those two, and the object
        only frame 1 sees joins the nearer named instance. Chaining each
        frame's regions to the next frame's would count all three objects,
        since the regions of one frame cannot be one object. A fix to
        association has to change this test.
        """
        cfg = SimConfig(ring_count=2, ring_elevation_deg=6.0, ring_radius=3.0)
        scene = make_scene(
            [
                Placement(1, PlanarTransform(0.0, 0.3, 0.0)),
                Placement(0, PlanarTransform(0.0, 0.0, 0.0)),
                Placement(4, PlanarTransform(0.0, -0.3, 0.0)),
            ]
        )
        frames = ring_frames(scene, library, cfg)
        regions_by_frame = [extract_regions(f, segment(f), PCFG) for f in frames]
        assert [sorted(r.source_instance for r in rs) for rs in regions_by_frame] == [
            [0, 1],
            [1, 2],
        ]
        db = build_database(frames, library, PCFG)
        assert db.num_instances == 2 < scene.num_objects
        assert set(db.source_instance.tolist()) == {0, 1, 2}
        # objects 1 and 2 share the instance named by object 1's region
        assert len(set(db.region_instance[db.source_instance > 0].tolist())) == 1

    @pytest.mark.parametrize(
        "regions_by_frame", [[], [[]], [[], [], []]],
        ids=["no-frames", "one-empty-frame", "all-empty-frames"],
    )
    def test_no_regions(self, regions_by_frame):
        with pytest.raises(NoRegions):
            associate(regions_by_frame)

    def test_tie_first_fullest_frame_names_instances(self):
        """Frames 0 and 2 both hold the most regions; frame 0 names the
        instances, and frame 2's regions join its nearer one."""

        def frame(xs):
            return [point_region(label, x) for label, x in enumerate(xs)]

        frames = [frame([0.0, 1.0]), frame([0.3]), frame([0.4, 0.45])]
        db = associate(frames)
        assert db.region_instance.tolist() == [0, 1, 0, 0, 0]
        np.testing.assert_allclose(db.instance_centroids[:, 0], [0.2875, 1.0])
        # with frame 2 first, its two regions name the instances instead
        db = associate(frames[::-1])
        assert db.region_instance.tolist() == [0, 1, 0, 0, 1]
        # a region's frame is its frame's position in the list
        assert db.region_frame.tolist() == [0, 0, 1, 2, 2]
        np.testing.assert_allclose(db.instance_centroids[:, 0], [0.7 / 3, 0.725])


def point_region(label, x):
    """A described one-hit region whose centroid is (x, 0, 0), seen from
    a camera 1 m above the origin."""
    return ObjectRegion(
        np.zeros(1, dtype=np.int64), np.zeros((1, 2)),
        np.array([[x, 0.0, 0.0]]), np.zeros((1, 3)),
        geo.Pose3(np.eye(3), np.array([0.0, 0.0, 1.0])), label,
        descriptor=np.ones(4) / 2.0,
    )


class TestRecordsCompareByIdentity:
    def test_equal_captures_are_distinct_records(self, library):
        """Records holding arrays compare by identity: two captures of one
        scene hold equal arrays but are two records. Their dataclass ``==``
        once compared the arrays and raised ValueError ("truth value of an
        array ... is ambiguous"), so ``!=`` and ``in`` raised too."""
        scene = three_object_scene()
        frames_a, frames_b = ring_frames(scene, library), ring_frames(scene, library)
        a = prepare_goal_regions(frames_a[0], library, PCFG)
        b = prepare_goal_regions(frames_b[0], library, PCFG)
        assert a[0].feature_ids.tobytes() == b[0].feature_ids.tobytes()
        db_a, db_b = db_for(scene, library, frames_a), db_for(scene, library, frames_b)
        for x, y, members in ((a[0], b[0], a), (frames_a[0], frames_b[0], frames_a),
                              (db_a, db_b, [db_a])):
            assert x == x
            assert x != y
            assert x in members and y not in members


class TestBuildDatabase:
    def test_three_object_ring(self, library):
        cfg = SimConfig(object_count_min=3, object_count_max=3)
        inst = generate_instance(cfg, library, seed=6)
        db = db_for(inst.initial, library, ring_frames(inst.initial, library, cfg))
        assert db.num_instances == 3
        for j in range(db.num_instances):
            assert len(np.flatnonzero(db.region_instance == j)) >= 6

    def test_single_frame_database(self, library):
        cfg = SimConfig(object_count_min=3, object_count_max=3)
        inst = generate_instance(cfg, library, seed=6)
        frames = render(inst.initial, [inst.config.home_viewpoint], cfg.intrinsics, library)
        db = build_database(frames, library, PCFG)
        assert db.num_instances == 3
        assert all(len(np.flatnonzero(db.region_instance == j)) == 1 for j in range(3))

    def test_no_regions(self, library):
        frames = [empty_frame(vp, CFG.intrinsics) for vp in CFG.ring_viewpoints]
        with pytest.raises(NoRegions):
            build_database(frames, library, PCFG)

    def test_no_frames(self, library):
        with pytest.raises(NoRegions):
            build_database([], library, PCFG)

    @pytest.mark.parametrize(
        "sim, view, seed",
        [
            *(
                pytest.param(
                    {"object_count_min": n, "object_count_max": n, "rotation_regime": regime},
                    "ring", n, id=f"{regime}-{n}-objects",
                )
                for regime in ("minor", "full")
                for n in range(1, 10)
            ),
            *(
                pytest.param({"object_count_min": 7}, "ring", seed, id=f"7-9-objects-{seed}")
                for seed in (20, 21, 22)
            ),
            *(
                pytest.param({"ring_count": rings}, "ring", seed, id=f"{rings}-view-ring-{seed}")
                for rings in (2, 3)
                for seed in (30, 31, 32)
            ),
            *(pytest.param({}, "home", seed, id=f"home-{seed}") for seed in (40, 41, 42)),
        ],
    )
    def test_instances_are_segmenter_labels(self, library, sim, view, seed):
        """The fullest frame's regions name the instances: every instance
        holds the regions of one ground-truth label, and each label falls in
        one instance."""
        cfg = SimConfig(**sim)
        inst = generate_instance(cfg, library, seed=seed)
        if view == "home":
            frames = render(inst.initial, [inst.config.home_viewpoint], cfg.intrinsics, library)
        else:
            frames = ring_frames(inst.initial, library, cfg)
        db = db_for(inst.initial, library, frames)
        pairs = set(zip(db.source_instance.tolist(), db.region_instance.tolist()))
        assert len({label for label, _ in pairs}) == len(pairs) == db.num_instances
        assert len({j for _, j in pairs}) == db.num_instances

    def test_invariants(self, library):
        inst = generate_instance(SimConfig(object_count_min=4, object_count_max=4), library, seed=13)
        frames = ring_frames(inst.initial, library)
        regions_by_frame = [prepare_goal_regions(f, library, PCFG) for f in frames]
        regions = [r for frame_regions in regions_by_frame for r in frame_regions]
        db = associate(regions_by_frame)
        # the viewpoint is gone once associate keeps the observation direction
        expected = [geo.observation_vector(r.viewpoint, r.world.mean(axis=0)) for r in regions]
        for obs_dir, e in zip(db.obs_dirs, expected):
            np.testing.assert_allclose(obs_dir, e, atol=1e-9)
        assert db.obs_dirs.tobytes() == np.stack(expected).tobytes()
        np.testing.assert_allclose(np.linalg.norm(db.descriptors, axis=1), 1.0, atol=1e-6)
        # association purity with well-separated objects
        for j in range(db.num_instances):
            members = np.flatnonzero(db.region_instance == j)
            assert len(set(db.source_instance[members].tolist())) == 1
        # centroid = mean of member region centroids, each the mean of the
        # region's world points
        region_world = np.split(db.crop_world, db.crop_offsets[1:-1])
        for j in range(db.num_instances):
            members = np.flatnonzero(db.region_instance == j)
            mean = np.mean([region_world[i].mean(axis=0) for i in members], axis=0)
            np.testing.assert_allclose(db.instance_centroids[j], mean, atol=1e-12)

    def test_batch_equals_region_by_region(self, library):
        """Describing the build's regions a frame at a time
        (``build_database``) gives the database that describing every
        region in one batch, or each region alone, gives, bit for bit in
        every column: a region's descriptor pools its own hits only."""
        inst = generate_instance(SimConfig(object_count_min=4, object_count_max=4), library, seed=13)
        frames = ring_frames(inst.initial, library)
        db = build_database(frames, library, PCFG)
        for one_batch in (True, False):
            regions_by_frame = [extract_regions(f, segment(f), PCFG) for f in frames]
            regions = [r for frame_regions in regions_by_frame for r in frame_regions]
            for batch in [regions] if one_batch else [[r] for r in regions]:
                for r, descriptor in zip(batch, GridPooledDescriptor(library).extract(batch)):
                    r.descriptor = descriptor
            other = associate(regions_by_frame)
            for f in fields(Database):
                a, b = getattr(db, f.name), getattr(other, f.name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
                assert a.tobytes() == b.tobytes(), f.name

    def test_deterministic(self, library):
        inst = generate_instance(SimConfig(object_count_min=2, object_count_max=2), library, seed=14)
        frames = ring_frames(inst.initial, library)
        a = build_database(frames, library, PCFG)
        b = build_database(frames, library, PCFG)
        np.testing.assert_array_equal(a.region_instance, b.region_instance)
        np.testing.assert_array_equal(a.descriptors, b.descriptors)


def _header(m, **changes):
    header = json.loads(bytes(m["header"]).decode("utf-8"))
    header.update(changes)
    return {**m, "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)}


def _with(m, name, value):
    return {**m, name: value}


def _decreasing(offsets):
    out = offsets.copy()
    out[1] = out[2] + 1
    return out


def _first_set(column, value):
    """A copy of ``column`` with its first entry set to ``value``."""
    out = column.copy()
    out.flat[0] = value
    return out


# dumps whose members disagree with each other or with the header, or
# whose float columns hold a non-finite value
BAD_DUMPS = {
    "header_claims_one_more_region": lambda m: _header(
        m, num_regions=len(m["region_instance"]) + 1
    ),
    "header_claims_one_more_instance": lambda m: _header(
        m, num_instances=len(m["instance_centroids"]) + 1
    ),
    "header_count_not_an_int": lambda m: _header(m, num_regions=str(len(m["region_instance"]))),
    "truncated_crop_offsets": lambda m: _with(m, "crop_offsets", m["crop_offsets"][:-1]),
    "crop_offsets_not_from_zero": lambda m: _with(m, "crop_offsets", m["crop_offsets"] + 1),
    "crop_offsets_decrease": lambda m: _with(m, "crop_offsets", _decreasing(m["crop_offsets"])),
    "crop_world_short": lambda m: _with(m, "crop_world", m["crop_world"][:-1]),
    "region_instance_out_of_range": lambda m: _with(
        m, "region_instance", m["region_instance"] + len(m["instance_centroids"])
    ),
    "negative_region_instance": lambda m: _with(m, "region_instance", m["region_instance"] - 1),
    "descriptor_rows_short": lambda m: _with(m, "descriptors", m["descriptors"][:-1]),
    "obs_dirs_wrong_shape": lambda m: _with(m, "obs_dirs", m["obs_dirs"][:, :2]),
    "crop_feature_ids_float": lambda m: _with(
        m, "crop_feature_ids", m["crop_feature_ids"].astype(float)
    ),
    "nan_instance_centroids": lambda m: _with(
        m, "instance_centroids", np.full_like(m["instance_centroids"], np.nan)
    ),
    "nan_crop_world": lambda m: _with(m, "crop_world", _first_set(m["crop_world"], np.nan)),
    "inf_descriptor": lambda m: _with(m, "descriptors", _first_set(m["descriptors"], np.inf)),
    "inf_obs_dirs": lambda m: _with(m, "obs_dirs", _first_set(m["obs_dirs"], -np.inf)),
}


class TestDatabaseIO:
    def test_roundtrip_bit_exact(self, library, tmp_path):
        inst = generate_instance(SimConfig(object_count_min=3, object_count_max=3), library, seed=15)
        db = db_for(inst.initial, library)
        path = tmp_path / "db.npz"
        save_database(db, path, extra_meta={"library_seed": CFG.library_seed})
        loaded, header = load_database(path)
        assert header["library_seed"] == CFG.library_seed
        assert loaded.num_instances == db.num_instances
        for f in fields(Database):
            a, b = getattr(loaded, f.name), getattr(db, f.name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name

    @pytest.fixture
    def members(self, library, tmp_path):
        path = tmp_path / "db.npz"
        db = db_for(make_scene([Placement(2, PlanarTransform(0, 0, 0))]), library)
        save_database(db, path)
        with np.load(path) as npz:
            return {name: npz[name] for name in npz.files}

    def test_dump_members(self, members):
        assert set(members) == set(DB_ARRAYS)

    @pytest.mark.parametrize("garbled", [False, True])
    @pytest.mark.parametrize("member", ["header", "crop_world"])
    def test_missing_member(self, members, member, garbled, tmp_path, capsys):
        path = tmp_path / "partial.npz"
        np.savez(path, **{k: v for k, v in members.items() if k != member})
        if garbled:
            with zipfile.ZipFile(path, "a") as z:
                z.writestr(f"{member}.npy", b"not an array")
        with pytest.raises(IOFailure, match=member):
            load_database(path)
        rc = cli_main(["localize", "--db", str(path), "--instance", str(tmp_path / "inst.json")])
        assert rc == 2
        # the dump is refused before the (missing) instance is read: only
        # the database error names the dump
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("case", sorted(BAD_DUMPS))
    def test_inconsistent_dump(self, members, case, tmp_path, capsys):
        path = tmp_path / "bad.npz"
        np.savez(path, **BAD_DUMPS[case](members))
        with pytest.raises(IOFailure):
            load_database(path)
        rc = cli_main(["localize", "--db", str(path), "--instance", str(tmp_path / "inst.json")])
        assert rc == 2
        # the dump is refused before the (missing) instance is read: only
        # the database error names the dump
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_version_dump_unsupported(self, members, version, tmp_path, capsys):
        path = tmp_path / f"v{version}.npz"
        if version == 2:
            # the region and hit columns version 3 dropped
            r, n = len(members["region_instance"]), len(members["crop_world"])
            members = {
                **members,
                "viewpoints": np.tile(np.eye(4), (r, 1, 1)),
                "crop_origin": np.zeros((r, 2), dtype=np.int64),
                "crop_shape": np.ones((r, 2), dtype=np.int64),
                "crop_pixels": np.zeros(n, dtype=np.int64),
                "crop_px": np.zeros((n, 2)),
            }
        np.savez(path, **_header(members, version=version))
        with pytest.raises(IOFailure, match="unsupported version"):
            load_database(path)
        rc = cli_main(["localize", "--db", str(path), "--instance", str(tmp_path / "inst.json")])
        assert rc == 2
        assert "unsupported version" in capsys.readouterr().err

    def test_not_an_archive(self, tmp_path, capsys):
        """A file that is not a zip archive is not a database dump; numpy
        once read a JSON file as a pickle and advised loading it unsafely."""
        path = tmp_path / "array.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(IOFailure, match="not a database dump"):
            load_database(path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"format": "mvor-dataset"}))
        with pytest.raises(IOFailure, match="not a database dump"):
            load_database(manifest)
        rc = cli_main(["localize", "--db", str(manifest), "--instance", str(tmp_path / "i.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "not a database dump" in err and "pickle" not in err

    def test_goal_region_prep(self, library):
        cfg = SimConfig(object_count_min=2, object_count_max=2)
        inst = generate_instance(cfg, library, seed=16)
        (frame,) = render(inst.goal, [inst.config.home_viewpoint], cfg.intrinsics, library)
        regions = prepare_goal_regions(frame, library, PCFG)
        assert len(regions) == 2
        for r in regions:
            assert r.descriptor is not None
        # the observation directions live in the database, one per region
        db = build_database([frame], library, PCFG)
        assert db.obs_dirs.shape == (2, 3)
        np.testing.assert_allclose(np.linalg.norm(db.obs_dirs, axis=1), 1.0, atol=1e-12)


# replacement dtypes and shapes for one member of a dump when fuzzing
FUZZ_DTYPES = [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_, np.complex128,
               "U3", object]
FUZZ_SHAPES = [
    lambda a: a.reshape(-1),
    lambda a: a[..., None],
    lambda a: a[None],
    lambda a: a.reshape(-1)[:1].reshape(()),
    lambda a: a.T,
    lambda a: a[:0],
]
FUZZ_HEADER_VALUES = st.sampled_from(
    [None, True, -1, 0, 1, 10**400, 2.5, float("nan"), "x", "mvor-db", [], {}]
)


class TestDatabaseLoadFuzz:
    @pytest.fixture(scope="class")
    def dump(self, library, tmp_path_factory):
        """(members, file bytes, scratch path) of a two-object dump."""
        path = tmp_path_factory.mktemp("db_fuzz") / "db.npz"
        scene = make_scene([
            Placement(2, PlanarTransform(0, -0.15, 0)), Placement(5, PlanarTransform(1, 0.15, 0))
        ])
        save_database(db_for(scene, library), path, extra_meta={"library_seed": 7})
        with np.load(path) as npz:
            members = {name: npz[name] for name in npz.files}
        return members, path.read_bytes(), path

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_dump_loads_or_raises_io_failure(self, dump, data):
        """Drop one member, change its dtype or shape, truncate it, edit or
        delete a header key, or truncate the file: loading either succeeds
        or raises IOFailure, never anything else."""
        members, raw, path = dump
        m = dict(members)
        name = data.draw(st.sampled_from(sorted(m)))
        how = data.draw(st.sampled_from(["drop", "dtype", "shape", "truncate", "header", "file"]))
        if how == "drop":
            del m[name]
        elif how == "dtype":
            with np.errstate(invalid="ignore"):  # NaN cast to an integer type
                m[name] = m[name].astype(data.draw(st.sampled_from(FUZZ_DTYPES)))
        elif how == "shape":
            m[name] = data.draw(st.sampled_from(FUZZ_SHAPES))(m[name])
        elif how == "truncate":
            m[name] = m[name][: data.draw(st.integers(0, len(m[name]) - 1))]
        elif how == "header":
            header = json.loads(bytes(m["header"]).decode("utf-8"))
            key = data.draw(st.sampled_from(sorted(header)))
            if data.draw(st.booleans()):
                del header[key]
            else:
                header[key] = data.draw(FUZZ_HEADER_VALUES)
            m["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
        if how == "file":
            path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
        else:
            np.savez(path, **m)
        try:
            load_database(path)
        except IOFailure:
            pass

