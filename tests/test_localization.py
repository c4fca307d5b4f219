import numpy as np
import pytest

from mvor import geometry as geo
from mvor.errors import DegenerateGeometry, TooFewCorrespondences
from mvor.geometry import PlanarTransform, Pose3
from mvor.localization import (
    Correspondences2D,
    FeatureIdMatcher,
    LocalizationConfig,
    estimate_all,
    estimate_object,
    lift_to_3d,
    prune_after_rejection,
    ransac_pnp,
    reprojection_sq_errors,
    retrieve_candidates,
    solve_pose,
)
from mvor.perception import (
    Database,
    PerceptionConfig,
    build_database,
    prepare_goal_regions,
)
from mvor.perception.regions import ObjectRegion, RegionCrop
from mvor.sim import (
    Placement,
    Rect,
    SceneState,
    SimConfig,
    generate_instance,
    generate_model_library,
    ground_truth_segmenter,
    render,
)

CFG = SimConfig()
PCFG = PerceptionConfig()
LCFG = LocalizationConfig()
INTR = CFG.intrinsics()


@pytest.fixture(scope="module")
def library():
    return generate_model_library(CFG)


@pytest.fixture(scope="module")
def backend(library):
    return PCFG.make_backend(library)


def make_scene(placements):
    return SceneState(Rect(-0.5, -0.5, 0.5, 0.5), tuple(placements))


def ring_db(scene, library, backend):
    frames = [
        render(scene, vp, INTR, library, frame_id=i)
        for i, vp in enumerate(CFG.ring_viewpoints())
    ]
    return build_database(frames, ground_truth_segmenter(), backend, PCFG)


def goal_regions_of(scene, library, backend):
    frame = render(scene, CFG.home_viewpoint(), INTR, library, frame_id=99)
    return frame, prepare_goal_regions(frame, ground_truth_segmenter(), backend, PCFG)


def apply_offsets(scene, offsets):
    placements = tuple(
        Placement(p.model_id, geo.planar_compose(off, p.pose))
        for p, off in zip(scene.placements, offsets)
    )
    return SceneState(scene.table_bounds, placements)


def fake_database(descriptors, instances_of, obs_dirs=None):
    """Database with fabricated descriptors; geometry is a stub."""
    regions = []
    for i, (d, inst) in enumerate(zip(descriptors, instances_of)):
        crop = RegionCrop(
            0, 0,
            np.full((4, 4), i, dtype=np.int64),
            np.zeros((4, 4, 2)),
            np.ones((4, 4)),
            np.zeros((4, 4, 3)),
            np.zeros((4, 4, 3)),
        )
        e = obs_dirs[i] if obs_dirs is not None else np.array([0.0, 0.0, 1.0])
        regions.append(
            ObjectRegion(
                crop=crop,
                cloud=np.zeros((1, 3)) + i,
                viewpoint=Pose3.identity(),
                frame_id=i,
                source_instance=inst,
                descriptor=np.asarray(d, dtype=float),
                obs_dir=np.asarray(e, dtype=float),
            )
        )
    k = max(instances_of) + 1
    labels = np.array(instances_of)
    return Database(
        regions=regions,
        region_instance=labels,
        instances=[[int(i) for i in np.nonzero(labels == j)[0]] for j in range(k)],
        instance_centroids=np.zeros((k, 3)),
    )


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestRetrieveCandidates:
    def test_single_instance_forced_choice(self, library, backend):
        scene = make_scene([Placement(0, PlanarTransform(0.2, 0.0, 0.0))])
        db = ring_db(scene, library, backend)
        _, goals = goal_regions_of(scene, library, backend)
        cands = retrieve_candidates(goals[0], db, top_n=10)
        assert cands.instance_id == 0
        assert len(cands.region_indices) == db.num_regions
        assert np.all(np.diff(cands.scores) <= 1e-12)

    def test_majority_vote(self):
        # instance 0 holds six of the top ten, instance 1 the other four
        q = np.zeros(4)
        q[0] = 1.0
        descs, insts = [], []
        for i in range(6):
            descs.append(unit([0.9 - 0.01 * i, 1.0, 0, 0]))
            insts.append(0)
        for i in range(4):
            descs.append(unit([0.95 - 0.01 * i, 0, 1.0, 0]))
            insts.append(1)
        db = fake_database(descs, insts)
        cands = retrieve_candidates(_fake_goal(q), db, top_n=10)
        assert cands.instance_id == 0

    def test_tie_prefers_best_single_region(self):
        q = np.zeros(4)
        q[0] = 1.0
        descs, insts = [], []
        for i in range(5):  # instance 0: five moderate regions
            descs.append(unit([0.80 - 0.01 * i, 1.0, 0, 0]))
            insts.append(0)
        for i in range(5):  # instance 1: five regions, contains the single best
            descs.append(unit([(0.99 if i == 0 else 0.70 - 0.01 * i), 0, 1.0, 0]))
            insts.append(1)
        db = fake_database(descs, insts)
        cands = retrieve_candidates(_fake_goal(q), db, top_n=10)
        assert cands.instance_id == 1

    def test_correct_instance_on_real_scenes(self, library, backend):
        cfg = SimConfig(object_count_min=5, object_count_max=5)
        for seed in range(5):
            inst = generate_instance(cfg, library, seed=seed)
            db = ring_db(inst.initial, library, backend)
            _, goals = goal_regions_of(inst.goal, library, backend)
            i2s = {j: db.regions[m[0]].source_instance for j, m in enumerate(db.instances)}
            for g in goals:
                cands = retrieve_candidates(g, db, top_n=LCFG.top_n)
                assert i2s[cands.instance_id] == g.source_instance


def _fake_goal(descriptor):
    crop = RegionCrop(
        0, 0,
        np.zeros((2, 2), dtype=np.int64),
        np.zeros((2, 2, 2)),
        np.ones((2, 2)),
        np.zeros((2, 2, 3)),
        np.zeros((2, 2, 3)),
    )
    return ObjectRegion(
        crop=crop,
        cloud=np.zeros((1, 3)),
        viewpoint=Pose3.identity(),
        frame_id=0,
        source_instance=0,
        descriptor=np.asarray(descriptor, dtype=float),
        obs_dir=np.array([0.0, 0.0, 1.0]),
    )


class TestPruning:
    def _ring_candidates(self, library, backend):
        scene = make_scene([Placement(1, PlanarTransform(0.0, 0.0, 0.0))])
        db = ring_db(scene, library, backend)
        _, goals = goal_regions_of(scene, library, backend)
        return db, retrieve_candidates(goals[0], db, top_n=10)

    def test_zero_radius_prunes_only_rejected(self, library, backend):
        db, cands = self._ring_candidates(library, backend)
        prune_after_rejection(cands, 0, db, theta_prune=0.0)
        assert cands.pruned[0]
        assert cands.pruned.sum() == 1

    def test_max_radius_prunes_all(self, library, backend):
        db, cands = self._ring_candidates(library, backend)
        prune_after_rejection(cands, 0, db, theta_prune=np.pi * np.sqrt(2))
        assert cands.pruned.all()

    def test_default_radius_spares_ring_neighbors(self, library, backend):
        db, cands = self._ring_candidates(library, backend)
        # find the candidate observed from ring azimuth 0 (frame 0)
        pos0 = next(
            p for p, idx in enumerate(cands.region_indices) if db.regions[idx].frame_id == 0
        )
        prune_after_rejection(cands, pos0, db, theta_prune=np.pi / 6)
        for p, idx in enumerate(cands.region_indices):
            fid = db.regions[idx].frame_id
            if fid in (1, 7):  # +/-45 deg azimuth neighbors survive a 30 deg ball
                assert not cands.pruned[p]
            if fid == 0:
                assert cands.pruned[p]

    def test_visited_candidates_not_marked(self, library, backend):
        db, cands = self._ring_candidates(library, backend)
        cands.visited[1] = True
        prune_after_rejection(cands, 0, db, theta_prune=np.pi * np.sqrt(2))
        assert not cands.pruned[1]


class TestLiftTo3D:
    def _matched_pair(self, library, backend, scene=None):
        scene = scene or make_scene([Placement(2, PlanarTransform(0.5, 0.05, -0.1))])
        db = ring_db(scene, library, backend)
        _, goals = goal_regions_of(scene, library, backend)
        cand = db.regions[retrieve_candidates(goals[0], db).region_indices[0]]
        m2d = FeatureIdMatcher().match(goals[0].crop, cand.crop, 256)
        return goals[0], cand, m2d

    def test_all_depth_pixels_lift(self, library, backend):
        goal, cand, m2d = self._matched_pair(library, backend)
        m3d = lift_to_3d(m2d, goal, cand, 256)
        assert len(m3d) == len(m2d)

    def test_too_few_pairs(self, library, backend):
        goal, cand, m2d = self._matched_pair(library, backend)
        small = Correspondences2D(m2d.goal_px[:3], m2d.cand_px[:3])
        with pytest.raises(TooFewCorrespondences):
            lift_to_3d(small, goal, cand, 256)

    def test_lifted_points_on_true_surface(self, library, backend):
        scene = make_scene([Placement(2, PlanarTransform(0.5, 0.05, -0.1))])
        goal, cand, m2d = self._matched_pair(library, backend, scene)
        m3d = lift_to_3d(m2d, goal, cand, 256)
        model = library.model(2)
        surface = geo.lift(scene.placements[0].pose).apply(model.points)
        for w in m3d.world[:: max(1, len(m3d) // 50)]:
            assert np.min(np.linalg.norm(surface - w, axis=1)) < 1e-6


class TestSolvePose:
    def test_unmoved_object_identity(self, library, backend):
        scene = make_scene([Placement(3, PlanarTransform(-0.3, 0.1, 0.05))])
        db = ring_db(scene, library, backend)
        _, goals = goal_regions_of(scene, library, backend)
        cand = db.regions[retrieve_candidates(goals[0], db).region_indices[0]]
        m2d = FeatureIdMatcher().match(goals[0].crop, cand.crop, 256)
        m3d = lift_to_3d(m2d, goals[0], cand, 256)
        est = solve_pose(m3d, INTR, goals[0].viewpoint, LCFG)
        assert est.accepted
        np.testing.assert_allclose(est.T.rotation, np.eye(3), atol=1e-6)
        np.testing.assert_allclose(est.T.translation, 0.0, atol=1e-6)

    def test_known_planar_motion(self, library, backend):
        offset = PlanarTransform(np.radians(40.0), 0.1, 0.0)
        initial = make_scene([Placement(4, PlanarTransform(0.2, -0.1, -0.05))])
        goal_scene = apply_offsets(initial, [offset])
        db = ring_db(initial, library, backend)
        _, goals = goal_regions_of(goal_scene, library, backend)
        est = estimate_object(goals[0], db, FeatureIdMatcher(), INTR, LCFG)
        assert est.accepted
        dtheta, dt = geo.planar_error(est.T, offset)
        assert np.radians(dtheta) < 1e-6
        assert dt / 100.0 < 1e-6

    def test_outlier_noise_monte_carlo(self, library, backend):
        # corruption at the matcher: sigma_px=1 (matching-res), 40% outliers
        passed = 0
        trials = 0
        for scene_seed in range(10):
            inst = generate_instance(
                SimConfig(object_count_min=1, object_count_max=1), library, seed=scene_seed
            )
            db = ring_db(inst.initial, library, backend)
            _, goals = goal_regions_of(inst.goal, library, backend)
            for noise_seed in range(10):
                trials += 1
                matcher = FeatureIdMatcher(
                    sigma_px=1.0, outlier_rate=0.4, rng=np.random.default_rng(1000 + noise_seed)
                )
                est = estimate_object(goals[0], db, matcher, INTR, LCFG)
                if not est.accepted:
                    continue
                dtheta, dt = geo.planar_error(est.T, inst.true_offsets[0])
                if dtheta < 1.0 and dt < 0.5:
                    passed += 1
        assert trials == 100
        assert passed >= 95

    def test_collinear_points_degenerate(self):
        t = np.linspace(0, 0.2, 12)
        world = np.column_stack([t, t * 0.5, np.zeros_like(t)])
        w2c = geo.look_at([0.0, -0.8, 0.8], [0.0, 0.0, 0.0])
        uv, _ = geo.project_points(INTR, geo.invert(w2c), world)
        with pytest.raises(DegenerateGeometry):
            ransac_pnp(world, uv, INTR, seed=0)

    def test_reported_inliers_verify(self, library, backend):
        inst = generate_instance(
            SimConfig(object_count_min=1, object_count_max=1), library, seed=3
        )
        db = ring_db(inst.initial, library, backend)
        _, goals = goal_regions_of(inst.goal, library, backend)
        matcher = FeatureIdMatcher(sigma_px=1.0, outlier_rate=0.3, rng=np.random.default_rng(5))
        cand = db.regions[retrieve_candidates(goals[0], db).region_indices[0]]
        m2d = matcher.match(goals[0].crop, cand.crop, 256)
        m3d = lift_to_3d(m2d, goals[0], cand, 256)
        r, t, mask = ransac_pnp(m3d.world, m3d.goal_px, INTR, seed=0)
        err = reprojection_sq_errors(m3d.world, m3d.goal_px, INTR, r, t)
        assert np.all(err[mask] <= LCFG.reproj_threshold_px**2 + 1e-9)


class TestPnPOracleEquivalence:
    def test_exact_planar_motions(self):
        rng = np.random.default_rng(7)
        xi_q = CFG.home_viewpoint()
        for _ in range(200):
            n = rng.integers(6, 40)
            local = np.column_stack(
                [rng.uniform(-0.05, 0.05, n), rng.uniform(-0.05, 0.05, n), rng.uniform(0, 0.08, n)]
            )
            cur = PlanarTransform(rng.uniform(-np.pi, np.pi), *rng.uniform(-0.3, 0.3, 2))
            world = geo.lift(cur).apply(local)
            truth = PlanarTransform(rng.uniform(-np.pi, np.pi), *rng.uniform(-0.25, 0.25, 2))
            goal_pts = geo.lift(truth).apply(world)
            uv, z = geo.project_points(INTR, geo.invert(xi_q), goal_pts)
            assert (z > 0).all()
            r, t, mask = ransac_pnp(world, uv, INTR, seed=11)
            T = geo.compose(xi_q, Pose3(r, t))
            dtheta, dt = geo.planar_error(T, truth)
            assert np.radians(dtheta) < 1e-6
            assert dt / 100.0 < 1e-6
            assert mask.all()


class _RecordingMatcher:
    def __init__(self, inner):
        self.inner = inner
        self.cand_crops = []

    def match(self, goal_crop, cand_crop, resolution):
        self.cand_crops.append(cand_crop)
        return self.inner.match(goal_crop, cand_crop, resolution)


class TestEstimateObject:
    def test_noiseless_first_candidate_accepted(self, library, backend):
        inst = generate_instance(
            SimConfig(object_count_min=2, object_count_max=2), library, seed=8
        )
        db = ring_db(inst.initial, library, backend)
        _, goals = goal_regions_of(inst.goal, library, backend)
        for g in goals:
            est = estimate_object(g, db, FeatureIdMatcher(), INTR, LCFG)
            assert est.accepted
            assert est.matcher_invocations == 1
            assert est.candidates_visited == 1

    def test_hidden_side_single_view_not_accepted(self, library, backend):
        model_id = 0  # box: opposite sides share no visible points
        initial = make_scene([Placement(model_id, PlanarTransform(0.0, 0.0, 0.0))])
        goal_scene = apply_offsets(initial, [PlanarTransform(np.pi, 0.0, 0.0)])
        home = render(initial, CFG.home_viewpoint(), INTR, library, frame_id=0)
        db = build_database([home], ground_truth_segmenter(), backend, PCFG)
        _, goals = goal_regions_of(goal_scene, library, backend)
        est = estimate_object(goals[0], db, FeatureIdMatcher(), INTR, LCFG)
        assert not est.accepted

    def test_full_prune_single_invocation(self, library, backend):
        scene = make_scene([Placement(1, PlanarTransform(0.0, 0.0, 0.0))])
        db = ring_db(scene, library, backend)
        _, goals = goal_regions_of(scene, library, backend)
        cfg = LocalizationConfig(theta_prune=np.pi * np.sqrt(2))
        # drop every match so the first candidate is rejected
        matcher = FeatureIdMatcher(drop_rate=1.0, rng=np.random.default_rng(0))
        est = estimate_object(goals[0], db, matcher, INTR, cfg)
        assert not est.accepted
        assert est.matcher_invocations == 1

    def test_traversal_monotone_and_unpruned(self, library, backend):
        scene = make_scene([Placement(5, PlanarTransform(0.3, 0.0, 0.0))])
        db = ring_db(scene, library, backend)
        _, goals = goal_regions_of(scene, library, backend)
        cfg = LocalizationConfig(theta_prune=0.0)  # visit everything, in order
        rec = _RecordingMatcher(FeatureIdMatcher(drop_rate=1.0, rng=np.random.default_rng(0)))
        est = estimate_object(goals[0], db, rec, INTR, cfg)
        assert not est.accepted
        assert len(rec.cand_crops) == db.num_regions
        cands = retrieve_candidates(goals[0], db, cfg.top_n)
        expected = [db.regions[i].crop for i in cands.region_indices]
        assert all(a is b for a, b in zip(rec.cand_crops, expected))


class TestDescriptorNNMatcher:
    def test_descriptor_matching_recovers_pose(self, library, backend):
        from mvor.localization import DescriptorNNMatcher

        offset = PlanarTransform(np.radians(-75.0), -0.08, 0.12)
        initial = make_scene([Placement(2, PlanarTransform(0.4, 0.05, -0.1))])
        goal_scene = apply_offsets(initial, [offset])
        db = ring_db(initial, library, backend)
        _, goals = goal_regions_of(goal_scene, library, backend)
        matcher = DescriptorNNMatcher(library)
        est = estimate_object(goals[0], db, matcher, INTR, LCFG)
        assert est.accepted
        dtheta, dt = geo.planar_error(est.T, offset)
        assert dtheta < 0.5 and dt < 0.5

    def test_matches_are_id_consistent(self, library, backend):
        from mvor.localization import DescriptorNNMatcher
        from mvor.localization.coords import matching_to_source_pixels

        scene = make_scene([Placement(4, PlanarTransform(0.0, 0.0, 0.0))])
        db = ring_db(scene, library, backend)
        _, goals = goal_regions_of(scene, library, backend)
        cand = db.regions[retrieve_candidates(goals[0], db).region_indices[0]]
        m2d = DescriptorNNMatcher(library).match(goals[0].crop, cand.crop, 256)
        assert len(m2d) >= 12
        gr, gc, gok = matching_to_source_pixels(goals[0].crop, m2d.goal_px, 256)
        cr, cc, cok = matching_to_source_pixels(cand.crop, m2d.cand_px, 256)
        gids = goals[0].crop.feature_ids[gr[gok & cok], gc[gok & cok]]
        cids = cand.crop.feature_ids[cr[gok & cok], cc[gok & cok]]
        # unique per-point descriptors make mutual NN equivalent to id pairing
        assert (gids == cids).mean() > 0.99


class TestEstimateAll:
    def test_three_objects_noiseless(self, library, backend):
        cfg3 = SimConfig(object_count_min=3, object_count_max=3)
        inst = generate_instance(cfg3, library, seed=9)
        db = ring_db(inst.initial, library, backend)
        goal_frame = render(inst.goal, inst.home_viewpoint, INTR, library, frame_id=99)
        goals = prepare_goal_regions(goal_frame, ground_truth_segmenter(), backend, PCFG)
        out = estimate_all(goals, db, FeatureIdMatcher(), INTR, LCFG)
        assert len(out) == 3
        i2s = {j: db.regions[m[0]].source_instance for j, m in enumerate(db.instances)}
        for u, est in out.items():
            assert est.accepted
            dtheta, dt = geo.planar_error(est.T, inst.true_offsets[i2s[u]])
            assert dtheta < 1e-4 and dt < 1e-4

    def test_twin_models_resolved_to_distinct_instances(self, library, backend):
        initial = make_scene(
            [
                Placement(0, PlanarTransform(0.0, -0.2, 0.0)),
                Placement(0, PlanarTransform(0.0, 0.2, 0.0)),
            ]
        )
        goal_scene = apply_offsets(
            initial,
            [PlanarTransform(0.3, 0.05, 0.1), PlanarTransform(-0.2, -0.05, -0.1)],
        )
        db = ring_db(initial, library, backend)
        _, goals = goal_regions_of(goal_scene, library, backend)
        out = estimate_all(goals, db, FeatureIdMatcher(), INTR, LCFG)
        assert len(out) == 2
        assert set(out.keys()) == {0, 1}

    def test_empty_goal_frame(self, library, backend):
        from mvor.sim import empty_frame

        frame = empty_frame(CFG.home_viewpoint(), INTR, frame_id=99)
        goals = prepare_goal_regions(frame, ground_truth_segmenter(), backend, PCFG)
        assert goals == []
        out = estimate_all(goals, _EmptyDb(), FeatureIdMatcher(), INTR, LCFG)
        assert out == {}


class _EmptyDb:
    num_instances = 0
    num_regions = 0
