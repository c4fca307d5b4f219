import dataclasses
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from mvor import geometry as geo
from mvor.bench import BenchConfig, World, build_scene_database, scene_goal_regions
from mvor.errors import DegenerateGeometry, NoCandidates, TooFewCorrespondences
from mvor.geometry import PlanarTransform, Pose3, nearest_pixel
from mvor.localization import pipeline, pnp
from mvor.localization.matching import common_hits
from mvor.localization import (
    Correspondences2D,
    DescriptorNNMatcher,
    FeatureIdMatcher,
    LocalizationConfig,
    PoseEstimate,
    epnp,
    estimate_all,
    estimate_object,
    lift_to_3d,
    prune_after_rejection,
    ransac_planar,
    ransac_pnp,
    refine_pose,
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
from mvor.perception.regions import ObjectRegion
from mvor.sim import (
    Placement,
    Rect,
    SceneState,
    SimConfig,
    generate_instance,
    generate_model_library,
    render,
)

CFG = SimConfig()
PCFG = PerceptionConfig()
LCFG = LocalizationConfig()
INTR = CFG.intrinsics
VIEWS = [CFG.home_viewpoint, *CFG.ring_viewpoints]


@pytest.fixture(scope="module")
def library():
    return generate_model_library(CFG)


def make_scene(placements):
    return SceneState(Rect(-0.5, -0.5, 0.5, 0.5), tuple(placements))


def ring_db(scene, library):
    frames = render(scene, CFG.ring_viewpoints, INTR, library)
    return build_database(frames, library, PCFG)


def goal_regions_of(scene, library):
    (frame,) = render(scene, [CFG.home_viewpoint], INTR, library)
    (regions,) = prepare_goal_regions([frame], library, PCFG)
    return frame, regions


def apply_offsets(scene, offsets):
    placements = tuple(
        Placement(p.model_id, geo.planar_compose(off, p.pose))
        for p, off in zip(scene.placements, offsets)
    )
    return SceneState(scene.table_bounds, placements)


def fake_database(descriptors, instances_of, obs_dirs=None):
    """Database with fabricated descriptors; geometry is a stub: region i
    has 16 hits that carry feature id i."""
    r = len(descriptors)
    k = max(instances_of) + 1
    n = 16 * r
    if obs_dirs is None:
        obs_dirs = np.tile([0.0, 0.0, 1.0], (r, 1))
    return Database(
        region_instance=np.array(instances_of, dtype=np.int64),
        region_frame=np.arange(r),
        source_instance=np.array(instances_of, dtype=np.int64),
        descriptors=np.array(descriptors, dtype=float),
        obs_dirs=np.array(obs_dirs, dtype=float),
        instance_centroids=np.zeros((k, 3)),
        crop_offsets=16 * np.arange(r + 1),
        crop_feature_ids=np.repeat(np.arange(r), 16),
        crop_world=np.zeros((n, 3)),
        crop_view=np.zeros((n, 3)),
    )


def source_of_instance(db):
    """Instance -> ground-truth instance label of its first region."""
    return {
        j: int(db.source_instance[np.flatnonzero(db.region_instance == j)[0]])
        for j in range(db.num_instances)
    }


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestRetrieveCandidates:
    def test_single_instance_forced_choice(self, library):
        scene = make_scene([Placement(0, PlanarTransform(0.2, 0.0, 0.0))])
        db = ring_db(scene, library)
        _, goals = goal_regions_of(scene, library)
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

    def test_correct_instance_on_real_scenes(self, library):
        cfg = SimConfig(object_count_min=5, object_count_max=5)
        for seed in range(5):
            inst = generate_instance(cfg, library, seed=seed)
            db = ring_db(inst.initial, library)
            _, goals = goal_regions_of(inst.goal, library)
            i2s = source_of_instance(db)
            for g in goals:
                cands = retrieve_candidates(g, db, top_n=LCFG.top_n)
                assert i2s[cands.instance_id] == g.source_instance


def _fake_goal(descriptor):
    return ObjectRegion(
        np.zeros(4, dtype=np.int64),
        np.zeros((4, 2)),
        np.zeros((4, 3)),
        np.zeros((4, 3)),
        viewpoint=Pose3(np.eye(3), np.zeros(3)),
        source_instance=0,
        descriptor=np.asarray(descriptor, dtype=float),
    )


def loop_retrieve(goal_region, db, top_n=10, exclude=frozenset()):
    """Reference: the per-region loop retrieval that the column version
    replaced. Returns (winner, members, scores)."""
    if db.num_regions == 0:
        raise NoCandidates("database is empty")
    sims = db.descriptors @ goal_region.descriptor
    if exclude:
        sims = sims.copy()
        for u in exclude:
            sims[db.region_instance == u] = -np.inf
    order = np.argsort(-sims, kind="stable")
    order = order[np.isfinite(sims[order])]
    if len(order) == 0:
        raise NoCandidates("all instances excluded")
    top = order[:top_n]
    counts: dict[int, int] = {}
    for i in top:
        u = int(db.region_instance[i])
        counts[u] = counts.get(u, 0) + 1
    most = max(counts.values())
    tied = {u for u, c in counts.items() if c == most}
    if len(tied) == 1:
        winner = tied.pop()
    else:
        winner = next(int(db.region_instance[i]) for i in top if int(db.region_instance[i]) in tied)
    members = [int(i) for i in order if int(db.region_instance[i]) == winner]
    return winner, members, sims[members]


def loop_prune(region_indices, pruned, rejected_pos, db, theta_prune):
    """Reference: the per-candidate loop pruning, on a copy of ``pruned``."""
    pruned = pruned.copy()
    e_rej = db.obs_dirs[region_indices[rejected_pos]]
    pruned[rejected_pos] = True
    for pos, idx in enumerate(region_indices):
        if geo.angular_distance(db.obs_dirs[idx], e_rej) < theta_prune:
            pruned[pos] = True
    return pruned


def loop_next_unpruned(pruned):
    for i in range(len(pruned)):
        if not pruned[i]:
            return i
    return None


def reject_walk(cands, members, db, theta_prune):
    """``estimate_object``'s forward walk with every candidate rejected,
    checked step by step: each candidate it visits is the first unpruned
    one, and each rejection prunes as the loop reference does."""
    for pos in range(len(cands.region_indices)):
        if cands.pruned[pos]:
            continue
        assert pos == loop_next_unpruned(cands.pruned)
        expected = loop_prune(members, cands.pruned, pos, db, theta_prune)
        prune_after_rejection(cands, pos, db, theta_prune)
        np.testing.assert_array_equal(cands.pruned, expected)
    assert loop_next_unpruned(cands.pruned) is None


@st.composite
def retrieval_cases(draw):
    """Random small databases. Small integer descriptor entries make equal
    similarities common; the tie branch gives every region the same
    descriptor and round-robin labels, so the top-n vote is an exact tie."""
    r = draw(st.integers(1, 24))
    k = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 4))
    entry = st.integers(-2, 2)
    query = draw(st.lists(entry, min_size=dim, max_size=dim))
    if draw(st.booleans()):
        descs = [[1] * dim] * r
        labels = [i % k for i in range(r)]
        top_n = k * draw(st.integers(1, max(1, r // k)))
    else:
        descs = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=r, max_size=r))
        labels = draw(st.lists(st.integers(0, k - 1), min_size=r, max_size=r))
        top_n = draw(st.integers(1, 12))
    axis = st.floats(-1.0, 1.0)
    obs_dirs = draw(st.lists(st.tuples(axis, axis, axis), min_size=r, max_size=r))
    exclude = draw(st.frozensets(st.integers(0, k - 1), max_size=k))
    db = fake_database(descs, labels, obs_dirs)
    return db, _fake_goal(np.array(query, dtype=float)), top_n, exclude


class TestColumnLocalizationEquivalence:
    """The column (array) retrieval and pruning against the loops they
    replaced: same winner, members, scores and pruned marks."""

    @settings(max_examples=200, deadline=None)
    @given(case=retrieval_cases(), data=st.data())
    def test_matches_loop_reference(self, case, data):
        db, goal, top_n, exclude = case
        try:
            want = loop_retrieve(goal, db, top_n, exclude)
        except NoCandidates:
            with pytest.raises(NoCandidates):
                retrieve_candidates(goal, db, top_n, exclude)
            return
        cands = retrieve_candidates(goal, db, top_n, exclude)
        assert cands.instance_id == want[0]
        assert cands.region_indices.tolist() == want[1]
        np.testing.assert_array_equal(cands.scores, want[2])

        n = len(cands.region_indices)
        cands.pruned[:] = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        rejected = data.draw(st.integers(0, n - 1))
        theta = data.draw(st.floats(0.0, 4.5))
        expected = loop_prune(want[1], cands.pruned, rejected, db, theta)
        prune_after_rejection(cands, rejected, db, theta)
        np.testing.assert_array_equal(cands.pruned, expected)
        reject_walk(cands, want[1], db, theta)

    def test_real_database_walk_matches(self, library):
        inst = generate_instance(SimConfig(object_count_min=4, object_count_max=4), library, seed=2)
        db = ring_db(inst.initial, library)
        _, goals = goal_regions_of(inst.goal, library)
        for g in goals:
            for excl in (frozenset(), frozenset({0}), frozenset({1, 2})):
                winner, members, scores = loop_retrieve(g, db, LCFG.top_n, excl)
                cands = retrieve_candidates(g, db, LCFG.top_n, excl)
                assert (cands.instance_id, cands.region_indices.tolist()) == (winner, members)
                np.testing.assert_array_equal(cands.scores, scores)
                # reject candidates in order until none is left
                reject_walk(cands, members, db, LCFG.theta_prune)


class TestPruning:
    def _ring_candidates(self, library):
        scene = make_scene([Placement(1, PlanarTransform(0.0, 0.0, 0.0))])
        db = ring_db(scene, library)
        _, goals = goal_regions_of(scene, library)
        return db, retrieve_candidates(goals[0], db, top_n=10)

    def test_zero_radius_prunes_only_rejected(self, library):
        db, cands = self._ring_candidates(library)
        assert not cands.pruned.any()
        # it marks cands.pruned in place and returns nothing
        assert prune_after_rejection(cands, 0, db, theta_prune=0.0) is None
        assert cands.pruned[0]
        assert cands.pruned.sum() == 1

    def test_max_radius_prunes_all(self, library):
        db, cands = self._ring_candidates(library)
        prune_after_rejection(cands, 0, db, theta_prune=np.pi * np.sqrt(2))
        assert cands.pruned.all()

    def test_default_radius_spares_ring_neighbors(self, library):
        db, cands = self._ring_candidates(library)
        # find the candidate observed from ring azimuth 0 (frame 0)
        pos0 = next(
            p for p, idx in enumerate(cands.region_indices) if db.region_frame[idx] == 0
        )
        prune_after_rejection(cands, pos0, db, theta_prune=np.pi / 6)
        for p, idx in enumerate(cands.region_indices):
            fid = db.region_frame[idx]
            if fid in (1, 7):  # +/-45 deg azimuth neighbors survive a 30 deg ball
                assert not cands.pruned[p]
            if fid == 0:
                assert cands.pruned[p]


class TestFeatureIdMatcher:
    @pytest.mark.parametrize(
        "noise", [{"drop_rate": 0.1}, {"sigma_px": 1.0}, {"outlier_rate": 0.2}]
    )
    def test_noise_without_rng_raises(self, noise):
        with pytest.raises(ValueError, match="rng"):
            FeatureIdMatcher(LocalizationConfig(**noise))

    def test_noiseless_needs_no_rng(self):
        assert FeatureIdMatcher(LCFG).rng is None

    @pytest.mark.parametrize("bad", [{"matcher": "sift"}, {"top_n": 0}])
    def test_config_checks_settings(self, bad):
        """A config built in Python checks its settings as it is built, so
        no matcher is ever made from a bad one; the error names the
        setting."""
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            LocalizationConfig(**bad)

    def test_no_pair_in_the_view_cone_draws_nothing(self, library):
        """With every common hit outside the view cone, drop, noise and
        outliers all on, ``match`` returns no pair and leaves the rng as it
        was: its zero-size draws draw nothing, so it needs no empty case."""
        scene = make_scene([Placement(4, PlanarTransform(0.0, 0.0, 0.0))])
        db = ring_db(scene, library)
        _, goals = goal_regions_of(scene, library)
        cand = db.hits(retrieve_candidates(goals[0], db, LCFG.top_n).region_indices[0])
        assert len(common_hits(goals[0].id_index, cand.feature_ids)[0]) >= 200
        cfg = LocalizationConfig(
            max_view_angle_deg=0.0, drop_rate=0.1, sigma_px=1.0, outlier_rate=0.2
        )
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        m2d = FeatureIdMatcher(cfg, rng).match(goals[0], cand)
        assert len(m2d) == 0
        assert m2d.goal_px.shape == (0, 2) and m2d.cand_hits.shape == (0,)
        assert rng.bit_generator.state == state

    def test_corruption_model(self, library):
        """Clean, a match's goal side is its goal hit's projection. Noise of
        ``sigma_px`` matching-resolution pixels moves it by ``sigma_px * side
        / match_resolution`` goal pixels, and an outlier lands anywhere in
        the goal region's padded square of side ``side``."""
        scene = make_scene([Placement(4, PlanarTransform(0.0, 0.0, 0.0))])
        db = ring_db(scene, library)
        _, goals = goal_regions_of(scene, library)
        goal = goals[0]
        cand = db.hits(retrieve_candidates(goals[0], db, LCFG.top_n).region_indices[0])
        clean = FeatureIdMatcher(LCFG).match(goal, cand)
        assert len(clean) >= 200
        hit_of = {f: i for i, f in enumerate(goal.feature_ids.tolist())}
        goal_hits = [hit_of[f] for f in cand.feature_ids[clean.cand_hits].tolist()]
        assert clean.goal_px.tobytes() == goal.px[goal_hits].tobytes()

        # the box of the goal hits' pixels
        cols, rows = nearest_pixel(goal.px).T
        h, w = rows.max() - rows.min() + 1, cols.max() - cols.min() + 1
        side = max(h, w)
        assert h != w  # the square pads one axis
        sigma = 2.0
        cfg = LocalizationConfig(sigma_px=sigma)
        noisy = FeatureIdMatcher(cfg, np.random.default_rng(0)).match(goal, cand)
        np.testing.assert_array_equal(noisy.cand_hits, clean.cand_hits)
        std = np.std(noisy.goal_px - clean.goal_px)
        assert abs(std / (sigma * side / cfg.match_resolution) - 1.0) < 0.1

        cfg = LocalizationConfig(outlier_rate=0.5)
        bad = FeatureIdMatcher(cfg, np.random.default_rng(0)).match(goal, cand)
        np.testing.assert_array_equal(bad.cand_hits, clean.cand_hits)
        moved = np.any(bad.goal_px != clean.goal_px, axis=1)
        assert 0.4 < moved.mean() < 0.6
        # the padded square's top-left pixel edge, (u, v)
        corner = np.array([cols.min() - (side - w) // 2, rows.min() - (side - h) // 2]) - 0.5
        local = bad.goal_px[moved] - corner
        assert np.all((local >= 0.0) & (local <= side))
        # spread over the whole square, padding included
        assert np.all(local.min(axis=0) < 0.05 * side)
        assert np.all(local.max(axis=0) > 0.95 * side)


def reference_match(matcher, goal, cand) -> Correspondences2D:
    """``FeatureIdMatcher.match`` as it was before the goal side was indexed
    once: both id arrays sorted on every call (``np.intersect1d``), rows
    gathered by fancy indexing and the goal's pixel box found on every
    call. It draws from ``matcher``'s rng."""
    _, gi, ci = np.intersect1d(goal.feature_ids, cand.feature_ids, return_indices=True)
    compatible = (
        np.einsum("ij,ij->i", goal.view_local[gi], cand.view_local[ci]) >= matcher.cos_max
    )
    gi, ci = gi[compatible], ci[compatible]
    n = len(gi)
    if n and matcher.drop_rate > 0.0:
        keep = matcher.rng.uniform(size=n) >= matcher.drop_rate
        gi, ci = gi[keep], ci[keep]
        n = len(gi)
    px = goal.px[gi]
    if n and max(matcher.sigma_px, matcher.outlier_rate) > 0.0:
        low = nearest_pixel(goal.px.min(axis=0))
        size = nearest_pixel(goal.px.max(axis=0)) - low + 1
        side = size.max()
        if matcher.sigma_px > 0.0:
            noise = matcher.rng.normal(0.0, matcher.sigma_px, px.shape)
            px = px + noise * (side / matcher.resolution)
        if matcher.outlier_rate > 0.0:
            bad = matcher.rng.uniform(size=n) < matcher.outlier_rate
            corner = low - (side - size) // 2
            px[bad] = corner - 0.5 + matcher.rng.uniform(0.0, side, (int(bad.sum()), 2))
    return Correspondences2D(px, ci)


class _ReferenceCheckedMatcher:
    """``FeatureIdMatcher`` and ``reference_match``, each with its own rng
    of one seed, compared call by call."""

    def __init__(self, config, seed):
        self.matcher = FeatureIdMatcher(config, np.random.default_rng(seed))
        self.reference = FeatureIdMatcher(config, np.random.default_rng(seed))
        self.calls = 0

    def match(self, goal, cand):
        got = self.matcher.match(goal, cand)
        want = reference_match(self.reference, goal, cand)
        for a, b in ((got.goal_px, want.goal_px), (got.cand_hits, want.cand_hits)):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        self.calls += 1
        return got


feature_ids = st.lists(
    st.one_of(st.integers(-3, 24), st.integers(-(2**63), 2**63 - 1)), max_size=40
).map(lambda ids: np.array(ids, dtype=np.int64))


class TestCommonHits:
    """The matcher's common-hit step looks each candidate id up in the goal
    region's index (``ObjectRegion.id_index``, built once per region) in
    place of ``np.intersect1d``, which sorted both sides on every call."""

    @settings(max_examples=300, deadline=None)
    @given(goal_ids=feature_ids, cand_ids=feature_ids, disjoint=st.booleans())
    @example(goal_ids=np.empty(0, np.int64), cand_ids=np.empty(0, np.int64), disjoint=False)
    @example(goal_ids=np.empty(0, np.int64), cand_ids=np.array([3, 1, 3]), disjoint=False)
    @example(goal_ids=np.array([3, 1, 3]), cand_ids=np.empty(0, np.int64), disjoint=False)
    @example(goal_ids=np.array([5, 2, 5, 2, 9]), cand_ids=np.array([9, 2, 2, 5, 9]), disjoint=False)
    def test_names_the_hits_intersect1d_names(self, goal_ids, cand_ids, disjoint):
        """Unsorted ids, repeated on either side, an empty side and sides
        sharing no id: per common id, in ascending order, the first hit on
        each side, with intersect1d's dtype."""
        if disjoint:  # even ids on the goal side, odd on the candidate's
            goal_ids, cand_ids = goal_ids * 2, cand_ids * 2 + 1
        n = len(goal_ids)
        goal = ObjectRegion(
            goal_ids, np.zeros((n, 2)), np.zeros((n, 3)), np.zeros((n, 3)),
            viewpoint=Pose3(np.eye(3), np.zeros(3)), source_instance=0,
        )
        want = np.intersect1d(goal_ids, cand_ids, return_indices=True)[1:]
        got = common_hits(goal.id_index, cand_ids)
        for a, b in zip(got, want):
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())

    def test_region_indexes_its_ids_once(self, library):
        """``id_index`` and ``pixel_box`` are derived on first use and kept;
        they are not fields, so ``repr`` and ``fields`` do not show them."""
        scene = make_scene([Placement(4, PlanarTransform(0.0, 0.0, 0.0))])
        _, (goal,) = goal_regions_of(scene, library)
        assert goal.id_index is goal.id_index and goal.pixel_box is goal.pixel_box
        ids, hits = goal.id_index
        np.testing.assert_array_equal(ids, np.unique(goal.feature_ids))
        np.testing.assert_array_equal(goal.feature_ids[hits], ids)
        low, size = goal.pixel_box
        np.testing.assert_array_equal(low, nearest_pixel(goal.px).min(axis=0))
        np.testing.assert_array_equal(low + size - 1, nearest_pixel(goal.px).max(axis=0))
        assert not {"id_index", "pixel_box"} & {f.name for f in fields(ObjectRegion)}
        assert "id_index" not in repr(goal) and "pixel_box" not in repr(goal)

    def test_noisy_matches_keep_their_bytes(self, library):
        """Over every goal and candidate region the walk visits in 5 seeds
        under both rotation regimes and both view modes, the noisy matcher
        (1 px, 20 % outliers, 10 % dropped) gives, call by call, the bytes
        of ``reference_match`` drawing from the same seed."""
        cfg = BenchConfig(
            localization=LocalizationConfig(sigma_px=1.0, outlier_rate=0.2, drop_rate=0.1)
        )
        calls = 0
        for regime in ("minor", "full"):
            for seed in range(5):
                inst = generate_instance(SimConfig(rotation_regime=regime), library, seed)
                goals = scene_goal_regions(inst, library, cfg)
                for mode in ("multi", "single"):
                    db = build_scene_database(World(inst, library, cfg), mode)
                    matcher = _ReferenceCheckedMatcher(cfg.localization, seed)
                    estimate_all(goals, db, matcher, INTR, cfg.localization)
                    calls += matcher.calls
        assert calls >= 100


class TestPoseEstimate:
    def test_built_once(self):
        """An estimate is built whole and never changed: its default is the
        identity offset, and a field changes only through ``replace``."""
        est = PoseEstimate()
        assert est.offset == PlanarTransform.identity() and not est.accepted
        for f in fields(PoseEstimate):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(est, f.name, getattr(est, f.name))
        assert dataclasses.replace(est, instance_id=3).instance_id == 3
        assert est.instance_id is None

    def test_solve_pose_accepts_by_inlier_ratio(self, library):
        """``solve_pose`` accepts from the count and the pair total, the
        quotient ``inlier_ratio`` reports."""
        scene = make_scene([Placement(3, PlanarTransform(-0.3, 0.1, 0.05))])
        db = ring_db(scene, library)
        _, goals = goal_regions_of(scene, library)
        cand = db.hits(retrieve_candidates(goals[0], db, LCFG.top_n).region_indices[0])
        noisy = LocalizationConfig(outlier_rate=0.3)
        m2d = FeatureIdMatcher(noisy, np.random.default_rng(5)).match(goals[0], cand)
        world = lift_to_3d(m2d, cand, LCFG.min_correspondences)
        est = solve_pose(m2d.goal_px, world, INTR, goals[0].viewpoint, LCFG)
        assert est.num_correspondences == len(m2d) and est.instance_id is None
        assert 0.5 < est.inlier_ratio < 1.0
        strict = dataclasses.replace(LCFG, min_inlier_ratio=np.nextafter(est.inlier_ratio, 2.0))
        assert est.accepted
        assert not solve_pose(m2d.goal_px, world, INTR, goals[0].viewpoint, strict).accepted


class TestLiftTo3D:
    def _matched_pair(self, library, scene=None):
        scene = scene or make_scene([Placement(2, PlanarTransform(0.5, 0.05, -0.1))])
        db = ring_db(scene, library)
        _, goals = goal_regions_of(scene, library)
        cand = db.hits(retrieve_candidates(goals[0], db, LCFG.top_n).region_indices[0])
        m2d = FeatureIdMatcher(LCFG).match(goals[0], cand)
        return cand, m2d

    def test_all_depth_pixels_lift(self, library):
        cand, m2d = self._matched_pair(library)
        world = lift_to_3d(m2d, cand, LCFG.min_correspondences)
        assert world.shape == (len(m2d), 3)

    def test_too_few_pairs(self, library):
        cand, m2d = self._matched_pair(library)
        small = Correspondences2D(m2d.goal_px[:3], m2d.cand_hits[:3])
        with pytest.raises(TooFewCorrespondences):
            lift_to_3d(small, cand, LCFG.min_correspondences)

    def test_lifted_points_on_true_surface(self, library):
        scene = make_scene([Placement(2, PlanarTransform(0.5, 0.05, -0.1))])
        cand, m2d = self._matched_pair(library, scene)
        world = lift_to_3d(m2d, cand, LCFG.min_correspondences)
        n = library.model_points
        surface = geo.lift(scene.placements[0].pose).apply(library.points[2 * n : 3 * n])
        for w in world[:: max(1, len(world) // 50)]:
            assert np.min(np.linalg.norm(surface - w, axis=1)) < 1e-6


class TestSolvePose:
    def test_unmoved_object_identity(self, library):
        scene = make_scene([Placement(3, PlanarTransform(-0.3, 0.1, 0.05))])
        db = ring_db(scene, library)
        _, goals = goal_regions_of(scene, library)
        cand = db.hits(retrieve_candidates(goals[0], db, LCFG.top_n).region_indices[0])
        m2d = FeatureIdMatcher(LCFG).match(goals[0], cand)
        world = lift_to_3d(m2d, cand, LCFG.min_correspondences)
        est = solve_pose(m2d.goal_px, world, INTR, goals[0].viewpoint, LCFG)
        assert est.accepted
        np.testing.assert_allclose([est.offset.yaw, est.offset.tx, est.offset.ty], 0.0, atol=1e-6)

    def test_known_planar_motion(self, library):
        offset = PlanarTransform(np.radians(40.0), 0.1, 0.0)
        initial = make_scene([Placement(4, PlanarTransform(0.2, -0.1, -0.05))])
        goal_scene = apply_offsets(initial, [offset])
        db = ring_db(initial, library)
        _, goals = goal_regions_of(goal_scene, library)
        est = estimate_object(goals[0], db, FeatureIdMatcher(LCFG), INTR, LCFG)
        assert est.accepted
        dtheta, dt = geo.planar_distance(est.offset, offset)
        assert np.radians(dtheta) < 1e-6
        assert dt / 100.0 < 1e-6

    def test_outlier_noise_monte_carlo(self, library):
        # corruption at the matcher: sigma_px=1 (matching-res), 40% outliers
        passed = 0
        trials = 0
        for scene_seed in range(10):
            inst = generate_instance(
                SimConfig(object_count_min=1, object_count_max=1), library, seed=scene_seed
            )
            db = ring_db(inst.initial, library)
            _, goals = goal_regions_of(inst.goal, library)
            for noise_seed in range(10):
                trials += 1
                matcher = FeatureIdMatcher(
                    LocalizationConfig(sigma_px=1.0, outlier_rate=0.4),
                    np.random.default_rng(1000 + noise_seed),
                )
                est = estimate_object(goals[0], db, matcher, INTR, LCFG)
                if not est.accepted:
                    continue
                dtheta, dt = geo.planar_distance(est.offset, inst.true_offsets[0])
                if dtheta < 1.0 and dt < 0.5:
                    passed += 1
        assert trials == 100
        assert passed >= 95

    def test_collinear_points_degenerate(self):
        t = np.linspace(0, 0.2, 12)
        world = np.column_stack([t, t * 0.5, np.zeros_like(t)])
        w2c = geo.look_at([0.0, -0.8, 0.8], [0.0, 0.0, 0.0])
        uv = INTR.project(geo.invert(w2c).apply(world))
        with pytest.raises(DegenerateGeometry):
            ransac_pnp(world, uv, INTR, seed=0)

    def test_reported_inliers_verify(self, library):
        inst = generate_instance(
            SimConfig(object_count_min=1, object_count_max=1), library, seed=3
        )
        db = ring_db(inst.initial, library)
        _, goals = goal_regions_of(inst.goal, library)
        matcher = FeatureIdMatcher(
            LocalizationConfig(sigma_px=1.0, outlier_rate=0.3), np.random.default_rng(5)
        )
        cand = db.hits(retrieve_candidates(goals[0], db, LCFG.top_n).region_indices[0])
        m2d = matcher.match(goals[0], cand)
        world = lift_to_3d(m2d, cand, LCFG.min_correspondences)
        r, t, mask = ransac_pnp(world, m2d.goal_px, INTR, seed=0)
        err = reprojection_sq_errors(world, m2d.goal_px, INTR, r, t)
        assert np.all(err[mask] <= LCFG.reproj_threshold_px**2 + 1e-9)


class TestPnPOracleEquivalence:
    def test_exact_planar_motions(self):
        rng = np.random.default_rng(7)
        xi_q = CFG.home_viewpoint
        for _ in range(200):
            n = rng.integers(6, 40)
            local = np.column_stack(
                [rng.uniform(-0.05, 0.05, n), rng.uniform(-0.05, 0.05, n), rng.uniform(0, 0.08, n)]
            )
            cur = PlanarTransform(rng.uniform(-np.pi, np.pi), *rng.uniform(-0.3, 0.3, 2))
            world = geo.lift(cur).apply(local)
            truth = PlanarTransform(rng.uniform(-np.pi, np.pi), *rng.uniform(-0.25, 0.25, 2))
            goal_pts = geo.lift(truth).apply(world)
            cam = geo.invert(xi_q).apply(goal_pts)
            uv, z = INTR.project(cam), cam[:, 2]
            assert (z > 0).all()
            r, t, mask = ransac_pnp(world, uv, INTR, seed=11)
            T = geo.compose(xi_q, Pose3(r, t))
            T_true = geo.lift(truth)
            assert geo.rotation_angle(T.rotation @ T_true.rotation.T) < 1e-6
            assert np.linalg.norm(T.translation - T_true.translation) < 1e-6
            assert mask.all()


def planar_pairs(view, truth, n, seed):
    """``n`` points of a 10 x 10 x 8 cm object at a random table pose, and
    their exact pixels in the camera at ``view`` after the planar motion
    ``truth``."""
    rng = np.random.default_rng(seed)
    local = np.column_stack(
        [rng.uniform(-0.05, 0.05, n), rng.uniform(-0.05, 0.05, n), rng.uniform(0, 0.08, n)]
    )
    current = PlanarTransform(rng.uniform(-np.pi, np.pi), *rng.uniform(-0.3, 0.3, 2))
    world = geo.lift(current).apply(local)
    cam = geo.invert(view).apply(geo.lift(truth).apply(world))
    uv, z = INTR.project(cam), cam[:, 2]
    assert (z > 0).all()
    return world, uv


planar_motions = st.builds(
    PlanarTransform,
    st.floats(-np.pi, np.pi),
    st.floats(-0.25, 0.25),
    st.floats(-0.25, 0.25),
)


class TestPlanarSolver:
    @settings(max_examples=100, deadline=None)
    @given(
        view=st.sampled_from(VIEWS),
        truth=planar_motions,
        n=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_pairs_recover_motion(self, view, truth, n, seed):
        world, uv = planar_pairs(view, truth, n, seed)
        p, mask = ransac_planar(world, uv, INTR, view, LocalizationConfig(ransac_seed=seed))
        assert abs(geo.wrap_angle(p.yaw - truth.yaw)) < 1e-9
        assert abs(p.tx - truth.tx) < 1e-9 and abs(p.ty - truth.ty) < 1e-9
        assert mask.all()

    @settings(max_examples=40, deadline=None)
    @given(
        view=st.sampled_from(VIEWS),
        truth=planar_motions,
        n=st.integers(10, 80),
        seed=st.integers(0, 2**32 - 1),
    )
    # no unpolished 2-pair solve reprojects a single pair within 2 px here
    @example(view=VIEWS[0], truth=PlanarTransform(1.125, 0.0, 0.0), n=10, seed=2460)
    def test_reported_inliers_verify(self, view, truth, n, seed):
        world, uv = planar_pairs(view, truth, n, seed)
        rng = np.random.default_rng(seed)
        uv = uv + rng.normal(0.0, 1.0, uv.shape)
        outliers = rng.random(n) < 0.3
        uv[outliers] = rng.uniform([0, 0], [INTR.width, INTR.height], (int(outliers.sum()), 2))
        p, mask = ransac_planar(world, uv, INTR, view, LocalizationConfig(ransac_seed=seed))
        w2c = geo.compose(geo.invert(view), geo.lift(p))
        err = reprojection_sq_errors(world, uv, INTR, w2c.rotation, w2c.translation)
        assert mask.any()
        assert np.all(err[mask] <= LCFG.reproj_threshold_px**2 + 1e-9)

    def test_shared_xy_is_degenerate(self, monkeypatch):
        view = VIEWS[0]
        world = np.column_stack([np.full(12, 0.1), np.full(12, -0.05), np.linspace(0, 0.1, 12)])
        uv = INTR.project(geo.invert(view).apply(world))
        scored = []
        score = pnp._inlier_mask
        monkeypatch.setattr(pnp, "_inlier_mask", lambda *a: scored.append(a) or score(*a))
        with pytest.raises(DegenerateGeometry):
            ransac_planar(world, uv, INTR, view, LCFG)
        assert scored == []  # every sample was skipped as singular, none was scored

    def test_too_few_pairs(self):
        with pytest.raises(TooFewCorrespondences):
            ransac_planar(np.zeros((1, 3)), np.zeros((1, 2)), INTR, VIEWS[0], LCFG)

    def test_estimate_object_rejects_degenerate_candidates(self, library):
        scene = make_scene([Placement(2, PlanarTransform(0.4, 0.05, -0.1))])
        db = ring_db(scene, library)
        db.crop_world[:, :2] = [0.05, -0.1]  # every stored point on one vertical line
        _, goals = goal_regions_of(scene, library)
        est = estimate_object(goals[0], db, FeatureIdMatcher(LCFG), INTR, LCFG)
        assert not est.accepted
        assert est.inlier_count == 0
        assert "non-degenerate" in est.note
        assert est.candidates_visited >= 1

    def test_solve_pose_is_planar_by_construction(self, library):
        inst = generate_instance(
            SimConfig(object_count_min=1, object_count_max=1), library, seed=3
        )
        db = ring_db(inst.initial, library)
        _, goals = goal_regions_of(inst.goal, library)
        matcher = FeatureIdMatcher(
            LocalizationConfig(sigma_px=1.0, outlier_rate=0.3), np.random.default_rng(5)
        )
        cand = db.hits(retrieve_candidates(goals[0], db, LCFG.top_n).region_indices[0])
        m2d = matcher.match(goals[0], cand)
        world = lift_to_3d(m2d, cand, LCFG.min_correspondences)
        est = solve_pose(m2d.goal_px, world, INTR, goals[0].viewpoint, LCFG)
        assert est.accepted
        assert isinstance(est.offset, PlanarTransform)
        T = geo.lift(est.offset)  # the 4 x 4 matrix pose reports print
        assert T.rotation[2].tolist() == [0.0, 0.0, 1.0]
        assert T.rotation[:, 2].tolist() == [0.0, 0.0, 1.0]
        assert T.translation[2] == 0.0
        dtheta, dt = geo.planar_distance(est.offset, inst.true_offsets[0])
        assert dtheta < 0.5 and dt < 0.5


def reference_sq_errors(world, pixels, intr, r, t):
    """Reference: reprojection scoring through the depth mask for every
    hypothesis, as it was before the one-pass path."""
    cam = world @ r.T + t
    z = cam[:, 2]
    err = np.full(len(world), np.inf)
    ok = z > 1e-9
    u = intr.fx * cam[ok, 0] / z[ok] + intr.cx
    v = intr.fy * cam[ok, 1] / z[ok] + intr.cy
    err[ok] = (u - pixels[ok, 0]) ** 2 + (v - pixels[ok, 1]) ** 2
    return err


def reference_planar_equations(world, pixels, intr, w2c):
    """Reference: the planar equations from n stacked 2 x 3 products."""
    n = len(world)
    e = np.zeros((n, 2, 3))
    e[:, 0, 0] = intr.fx
    e[:, 0, 2] = intr.cx - pixels[:, 0]
    e[:, 1, 1] = intr.fy
    e[:, 1, 2] = intr.cy - pixels[:, 1]
    g = e @ w2c.rotation
    x, y, z = world[:, 0, None], world[:, 1, None], world[:, 2, None]
    coeff = np.stack(
        [g[..., 0] * x + g[..., 1] * y, g[..., 1] * x - g[..., 0] * y, g[..., 0], g[..., 1]],
        axis=-1,
    )
    return coeff, -(g[..., 2] * z + e @ w2c.translation)


def reference_reprojection_terms(cam, pixels, intr):
    """Reference: the Gauss-Newton terms of the reprojection error, built
    fresh: residuals (2n,), u and v interleaved, and the (n, 3) derivatives
    of u and of v by the camera coordinates."""
    n = len(cam)
    z = cam[:, 2]
    u = intr.fx * cam[:, 0] / z + intr.cx
    v = intr.fy * cam[:, 1] / z + intr.cy
    resid = np.empty(2 * n)
    resid[0::2] = u - pixels[:, 0]
    resid[1::2] = v - pixels[:, 1]
    inv_z = 1.0 / z
    ju = np.column_stack([intr.fx * inv_z, np.zeros(n), -intr.fx * cam[:, 0] * inv_z**2])
    jv = np.column_stack([np.zeros(n), intr.fy * inv_z, -intr.fy * cam[:, 1] * inv_z**2])
    return resid, ju, jv


def reference_refine_pose(world, pixels, intr, r, t, iters):
    """Reference: SE(3) Gauss-Newton building fresh terms every step."""
    n = len(world)
    for _ in range(iters):
        cam = world @ r.T + t
        if np.any(cam[:, 2] <= 1e-9):
            break
        resid, ju, jv = reference_reprojection_terms(cam, pixels, intr)
        jac = np.empty((2 * n, 6))
        jac[0::2, :3] = np.cross(cam, ju)
        jac[1::2, :3] = np.cross(cam, jv)
        jac[0::2, 3:] = ju
        jac[1::2, 3:] = jv
        try:
            delta = np.linalg.solve(jac.T @ jac, -(jac.T @ resid))
        except np.linalg.LinAlgError:
            break
        dr = geo.axis_angle_to_matrix(delta[:3])
        r = dr @ r
        t = dr @ t + delta[3:]
        if np.linalg.norm(delta) < 1e-14:
            break
    return r, t


def reference_refine_planar(world, pixels, intr, w2c, p, iters):
    """Reference: planar Gauss-Newton building fresh terms every step."""
    p = p.copy()
    n = len(world)
    d_yaw_world = np.column_stack([-world[:, 1], world[:, 0], np.zeros(n)])
    d_txy = w2c.rotation[:, :2]
    for _ in range(iters):
        r, t = pnp._planar_extrinsics(p, w2c)
        cam = world @ r.T + t
        if np.any(cam[:, 2] <= 1e-9):
            break
        resid, ju, jv = reference_reprojection_terms(cam, pixels, intr)
        d_yaw = d_yaw_world @ r.T
        jac = np.empty((2 * n, 3))
        jac[0::2, 0] = np.einsum("ij,ij->i", ju, d_yaw)
        jac[1::2, 0] = np.einsum("ij,ij->i", jv, d_yaw)
        jac[0::2, 1:] = ju @ d_txy
        jac[1::2, 1:] = jv @ d_txy
        try:
            delta = np.linalg.solve(jac.T @ jac, -(jac.T @ resid))
        except np.linalg.LinAlgError:
            break
        p += delta
        if np.linalg.norm(delta) < 1e-14:
            break
    return p


def reference_ransac_planar(world, pixels, intr, viewpoint, config):
    """Reference: the planar solver built from the parts above, in the
    shared RANSAC loop."""
    w2c = geo.invert(viewpoint)
    coeff, rhs = reference_planar_equations(world, pixels, intr, w2c)
    model = pnp._Model(
        2,
        lambda sample: pnp._planar_minimal(coeff[sample].reshape(4, 4), rhs[sample].reshape(4)),
        lambda p, thr2: reference_sq_errors(world, pixels, intr, *pnp._planar_extrinsics(p, w2c))
        <= thr2,
        lambda p, mask: reference_refine_planar(
            world[mask], pixels[mask], intr, w2c, p, config.refine_iters
        ),
    )
    p, mask = pnp._ransac(
        model, len(world), config.ransac_iterations, config.reproj_threshold_px,
        config.ransac_confidence, config.ransac_seed,
    )
    return PlanarTransform(*p), mask


class TestPlanarSolverReference:
    @settings(max_examples=80, deadline=None)
    @given(
        view=st.sampled_from(VIEWS),
        truth=planar_motions,
        n=st.integers(2, 150),
        seed=st.integers(0, 2**32 - 1),
        sigma_px=st.floats(0.0, 3.0),
        outlier_rate=st.floats(0.0, 0.6),
        refine_iters=st.sampled_from([1, 5, 20]),
    )
    def test_matches_reference_bit_for_bit(
        self, view, truth, n, seed, sigma_px, outlier_rate, refine_iters
    ):
        world, uv = planar_pairs(view, truth, n, seed)
        rng = np.random.default_rng(seed)
        uv = uv + rng.normal(0.0, sigma_px, uv.shape)
        outliers = rng.random(n) < outlier_rate
        uv[outliers] = rng.uniform([0, 0], [INTR.width, INTR.height], (int(outliers.sum()), 2))
        config = LocalizationConfig(ransac_seed=seed, refine_iters=refine_iters)
        try:
            p0, mask0 = reference_ransac_planar(world, uv, INTR, view, config)
        except DegenerateGeometry as e:
            with pytest.raises(DegenerateGeometry, match=str(e)):
                ransac_planar(world, uv, INTR, view, config)
            return
        p, mask = ransac_planar(world, uv, INTR, view, config)
        assert np.array([p.yaw, p.tx, p.ty]).tobytes() == np.array([p0.yaw, p0.tx, p0.ty]).tobytes()
        assert mask.tobytes() == mask0.tobytes()


class TestReprojectionSqErrors:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 60), seed=st.integers(0, 2**32 - 1))
    def test_at_or_behind_camera_is_inf(self, n, seed):
        """Pairs at depth <= 1e-9 score +inf; the others score what they
        score with the pairs behind left out. Rotating about the camera's
        z axis keeps every depth exact; the first two pairs are in front,
        as a one-row product takes another BLAS path than a product of
        several rows."""
        rng = np.random.default_rng(seed)
        r = geo.rot_z(rng.uniform(-np.pi, np.pi))
        t = np.array([*rng.uniform(-0.5, 0.5, 2), 0.0])
        depth = rng.choice([-1.0, -1e-12, 0.0, 1e-9, 2e-9, 0.5, 1.0, 2.0], n) * rng.uniform(1, 2, n)
        depth[:2] = rng.uniform(0.5, 2.0, 2)
        depth[2] = rng.choice([-1.0, 0.0, 1e-9])
        world = np.column_stack([rng.uniform(-0.5, 0.5, (n, 2)), depth])
        pixels = rng.uniform([0, 0], [INTR.width, INTR.height], (n, 2))
        err = reprojection_sq_errors(world, pixels, INTR, r, t)
        front = depth > 1e-9
        assert np.all(err[~front] == np.inf)
        alone = reprojection_sq_errors(world[front], pixels[front], INTR, r, t)
        assert np.all(np.isfinite(alone))
        assert err[front].tobytes() == alone.tobytes()


class TestInlierMask:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 60), seed=st.integers(0, 2**32 - 1))
    def test_equals_thresholded_sq_errors(self, n, seed):
        """The solvers' scoring kernel gives the bits of
        ``reprojection_sq_errors(...) <= thr2``: pairs at depths -1, 0,
        1e-9 and 2e-9 are never inliers, pairs in front are inliers
        exactly when their squared error is within ``thr2``, and pixels
        that overflowed to +-inf never are. Rotating about the camera's z
        axis keeps every depth exact."""
        rng = np.random.default_rng(seed)
        r = geo.rot_z(rng.uniform(-np.pi, np.pi))
        t = np.array([*rng.uniform(-0.5, 0.5, 2), 0.0])
        depth = rng.choice([-1.0, 0.0, 1e-9, 2e-9, 0.5, 1.0, 2.0], n)
        depth[:2] = rng.uniform(0.5, 2.0, 2)
        depth[2] = rng.choice([-1.0, 0.0, 1e-9, 2e-9])
        world = np.column_stack([rng.uniform(-0.5, 0.5, (n, 2)), depth])
        # pixels near the pairs' projections, behind the camera too; a pair
        # at depth 0 projects to +-inf, so its pixel is a finite one
        pixels = rng.uniform([0, 0], [INTR.width, INTR.height], (n, 2))
        nonzero = depth != 0
        cam = world[nonzero] @ r.T + t
        pixels[nonzero] = INTR.project(cam) + rng.normal(0.0, 2.0, (int(nonzero.sum()), 2))
        overflowed = nonzero & (rng.random(n) < 0.2)
        pixels[overflowed] = rng.choice([-np.inf, np.inf], (int(overflowed.sum()), 2))
        thr2 = rng.choice([1.0, 4.0, 25.0])
        pix = np.ascontiguousarray(pixels.T)
        mask = pnp._inlier_mask(world, pix, INTR, r, t, thr2, np.empty_like(pix))
        assert not mask[depth <= 1e-9].any()
        assert not mask[overflowed].any()
        expected = reprojection_sq_errors(world, pixels, INTR, r, t) <= thr2
        assert mask.tobytes() == expected.tobytes()


def reference_ransac_pnp(world, pixels, intr, iterations=1000, threshold_px=2.0,
                         confidence=0.999, refine_iters=20, seed=0):
    """Reference: the EPnP RANSAC loop as it was before the loop was shared
    with the planar model."""
    world = np.asarray(world, dtype=float)
    pixels = np.asarray(pixels, dtype=float)
    n = len(world)
    if n < 4:
        raise TooFewCorrespondences(f"{n} correspondences, need >= 4")
    rng = np.random.default_rng(seed)
    thr2 = threshold_px**2
    best_mask, best_count, best_rt = None, 0, None
    needed = iterations
    it = 0
    while it < min(iterations, needed):
        it += 1
        sample = rng.choice(n, size=4, replace=False)
        sol = epnp(world[sample], pixels[sample], intr)
        if sol is None:
            continue
        mask = reprojection_sq_errors(world, pixels, intr, *sol) <= thr2
        count = int(mask.sum())
        if count > best_count:
            best_count, best_mask, best_rt = count, mask, sol
            w = count / n
            if w >= 1.0:
                needed = it
            else:
                needed = int(np.ceil(np.log(1.0 - confidence) / np.log(1.0 - w**4)))
    if best_rt is None:
        raise DegenerateGeometry("no non-degenerate 4-point sample found")
    r, t = best_rt
    mask = best_mask
    slack = max(2, int(0.02 * n))
    for _ in range(3):
        if mask.sum() < 4:
            break
        refit = epnp(world[mask], pixels[mask], intr, polish_iters=0)
        rr, tt = refit if refit is not None else (r, t)
        rr, tt = refine_pose(world[mask], pixels[mask], intr, rr, tt, iters=refine_iters)
        new_mask = reprojection_sq_errors(world, pixels, intr, rr, tt) <= thr2
        if new_mask.sum() + slack < mask.sum():
            break
        changed = not np.array_equal(new_mask, mask)
        r, t, mask = rr, tt, new_mask
        if not changed:
            break
    return r, t, mask


class TestRansacPnP:
    def test_shared_loop_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(31)
        for k in range(40):
            n = int(rng.integers(4, 60))
            truth = PlanarTransform(rng.uniform(-np.pi, np.pi), *rng.uniform(-0.25, 0.25, 2))
            world, uv = planar_pairs(VIEWS[k % len(VIEWS)], truth, n, k)
            uv = uv + rng.normal(0.0, 1.0, uv.shape)
            outliers = rng.random(n) < 0.3
            uv[outliers] = rng.uniform(0, 480, (int(outliers.sum()), 2))
            r, t, mask = ransac_pnp(world, uv, INTR, seed=k)
            r0, t0, mask0 = reference_ransac_pnp(world, uv, INTR, seed=k)
            assert r.tobytes() == r0.tobytes()
            assert t.tobytes() == t0.tobytes()
            assert np.array_equal(mask, mask0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(6, 60), seed=st.integers(0, 2**32 - 1),
           iters=st.sampled_from([1, 5, 20]))
    def test_refine_pose_matches_reference_bit_for_bit(self, n, seed, iters):
        """refine_pose, which fills its terms in buffers allocated once,
        gives the bits of the same steps on freshly built terms, from a
        start up to 0.3 rad and 5 cm off on noisy pairs."""
        rng = np.random.default_rng(seed)
        truth = PlanarTransform(rng.uniform(-np.pi, np.pi), *rng.uniform(-0.25, 0.25, 2))
        view = VIEWS[seed % len(VIEWS)]
        world, uv = planar_pairs(view, truth, n, seed)
        uv = uv + rng.normal(0.0, 1.0, uv.shape)
        w2c = geo.compose(geo.invert(view), geo.lift(truth))
        r0 = geo.axis_angle_to_matrix(rng.uniform(-0.3, 0.3, 3)) @ w2c.rotation
        t0 = w2c.translation + rng.uniform(-0.05, 0.05, 3)
        r, t = refine_pose(world, uv, INTR, r0, t0, iters=iters)
        r_ref, t_ref = reference_refine_pose(world, uv, INTR, r0, t0, iters)
        assert r.tobytes() == r_ref.tobytes()
        assert t.tobytes() == t_ref.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(6, 60), seed=st.integers(0, 2**32 - 1))
    def test_exact_6dof_pairs_recover_pose(self, n, seed):
        """Random rotation, points spread through a box in front of the
        camera (no near-line or near-plane sets)."""
        rng = np.random.default_rng(seed)
        cam = np.column_stack(
            [rng.uniform(-0.4, 0.4, n), rng.uniform(-0.3, 0.3, n), rng.uniform(0.8, 2.0, n)]
        )
        r_true = geo.axis_angle_to_matrix(rng.uniform(-np.pi, np.pi) * unit(rng.normal(size=3)))
        t_true = rng.uniform(-1.0, 1.0, 3)
        world = (cam - t_true) @ r_true  # cam = r_true @ world + t_true
        uv = np.column_stack(
            [INTR.fx * cam[:, 0] / cam[:, 2] + INTR.cx, INTR.fy * cam[:, 1] / cam[:, 2] + INTR.cy]
        )
        for r, t in (epnp(world, uv, INTR), ransac_pnp(world, uv, INTR, seed=seed)[:2]):
            assert geo.rotation_angle(r @ r_true.T) < 1e-6
            assert np.linalg.norm(t - t_true) < 1e-6


class _RecordingMatcher:
    def __init__(self, inner):
        self.inner = inner
        self.cands = []

    def match(self, goal, cand):
        self.cands.append(cand)
        return self.inner.match(goal, cand)


class TestEstimateObject:
    def test_noiseless_first_candidate_accepted(self, library):
        inst = generate_instance(
            SimConfig(object_count_min=2, object_count_max=2), library, seed=8
        )
        db = ring_db(inst.initial, library)
        _, goals = goal_regions_of(inst.goal, library)
        for g in goals:
            matcher = _RecordingMatcher(FeatureIdMatcher(LCFG))
            est = estimate_object(g, db, matcher, INTR, LCFG)
            assert est.accepted
            assert len(matcher.cands) == 1
            assert est.candidates_visited == 1

    def test_hidden_side_single_view_not_accepted(self, library):
        model_id = 0  # box: opposite sides share no visible points
        initial = make_scene([Placement(model_id, PlanarTransform(0.0, 0.0, 0.0))])
        goal_scene = apply_offsets(initial, [PlanarTransform(np.pi, 0.0, 0.0)])
        home = render(initial, [CFG.home_viewpoint], INTR, library)
        db = build_database(home, library, PCFG)
        _, goals = goal_regions_of(goal_scene, library)
        est = estimate_object(goals[0], db, FeatureIdMatcher(LCFG), INTR, LCFG)
        assert not est.accepted

    def test_full_prune_single_invocation(self, library):
        scene = make_scene([Placement(1, PlanarTransform(0.0, 0.0, 0.0))])
        db = ring_db(scene, library)
        _, goals = goal_regions_of(scene, library)
        cfg = LocalizationConfig(theta_prune=np.pi * np.sqrt(2))
        # drop every match so the first candidate is rejected
        matcher = _RecordingMatcher(
            FeatureIdMatcher(LocalizationConfig(drop_rate=1.0), np.random.default_rng(0))
        )
        est = estimate_object(goals[0], db, matcher, INTR, cfg)
        assert not est.accepted
        assert len(matcher.cands) == 1
        assert est.candidates_visited == 1

    def test_traversal_monotone_and_unpruned(self, library):
        scene = make_scene([Placement(5, PlanarTransform(0.3, 0.0, 0.0))])
        db = ring_db(scene, library)
        _, goals = goal_regions_of(scene, library)
        cfg = LocalizationConfig(theta_prune=0.0)  # visit everything, in order
        rec = _RecordingMatcher(
            FeatureIdMatcher(LocalizationConfig(drop_rate=1.0), np.random.default_rng(0))
        )
        est = estimate_object(goals[0], db, rec, INTR, cfg)
        assert not est.accepted
        assert len(rec.cands) == db.num_regions
        cands = retrieve_candidates(goals[0], db, cfg.top_n)
        expected = [db.hits(i) for i in cands.region_indices]
        # each visit hands the matcher a view of that candidate's stored hits
        assert all(
            len(a.feature_ids) == len(b.feature_ids)
            and np.shares_memory(a.feature_ids, b.feature_ids)
            for a, b in zip(rec.cands, expected)
        )


class TestDescriptorNNMatcher:
    def test_descriptor_matching_recovers_pose(self, library):
        from mvor.localization import DescriptorNNMatcher

        offset = PlanarTransform(np.radians(-75.0), -0.08, 0.12)
        initial = make_scene([Placement(2, PlanarTransform(0.4, 0.05, -0.1))])
        goal_scene = apply_offsets(initial, [offset])
        db = ring_db(initial, library)
        _, goals = goal_regions_of(goal_scene, library)
        matcher = DescriptorNNMatcher(library, LCFG)
        est = estimate_object(goals[0], db, matcher, INTR, LCFG)
        assert est.accepted
        dtheta, dt = geo.planar_distance(est.offset, offset)
        assert dtheta < 0.5 and dt < 0.5


    def test_no_pair_in_the_view_cone(self, library):
        """At a 0-degree view cone no pair is feasible, and the general path
        returns the empty pair a match of no hits has: (0, 2) float64
        pixels and (0,) intp hits, with no RuntimeWarning."""
        scene = make_scene([Placement(4, PlanarTransform(0.0, 0.0, 0.0))])
        db = ring_db(scene, library)
        _, goals = goal_regions_of(scene, library)
        cand = db.hits(retrieve_candidates(goals[0], db, LCFG.top_n).region_indices[0])
        matcher = DescriptorNNMatcher(library, LocalizationConfig(max_view_angle_deg=0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m2d = matcher.match(goals[0], cand)
        assert m2d.goal_px.shape == (0, 2) and m2d.goal_px.dtype == np.float64
        assert m2d.cand_hits.shape == (0,) and m2d.cand_hits.dtype == np.intp


class TestRegionRecord:
    def test_goal_region_holds_its_hits(self, library):
        """A region is one record holding its hits, with no ``RegionCrop``
        inside, and both matchers take the goal region itself."""
        from mvor import perception
        from mvor.perception import regions

        assert not hasattr(perception, "RegionCrop") and not hasattr(regions, "RegionCrop")
        assert [f.name for f in fields(ObjectRegion)] == [
            "feature_ids", "px", "world", "view_local", "viewpoint", "source_instance",
            "descriptor",
        ]
        scene = make_scene([Placement(4, PlanarTransform(0.0, 0.0, 0.0))])
        db = ring_db(scene, library)
        _, goals = goal_regions_of(scene, library)
        goal = goals[0]
        cand = db.hits(retrieve_candidates(goal, db, LCFG.top_n).region_indices[0])
        for matcher in (FeatureIdMatcher(LCFG), DescriptorNNMatcher(library, LCFG)):
            m2d = matcher.match(goal, cand)
            assert len(m2d) >= 12
            hit_of = {f: i for i, f in enumerate(goal.feature_ids.tolist())}
            goal_hits = [hit_of[f] for f in cand.feature_ids[m2d.cand_hits].tolist()]
            assert m2d.goal_px.tobytes() == goal.px[goal_hits].tobytes()


class TestMatchesNameHits:
    """Both matchers name, per match, the goal-image coordinates and the
    candidate region's hit; nothing maps a match back through pixels."""

    CASES = {
        "feature_id-noiseless": ("feature_id", {}),
        "feature_id-noisy": (
            "feature_id", {"drop_rate": 0.1, "sigma_px": 1.0, "outlier_rate": 0.2}
        ),
        "descriptor_nn-noiseless": ("descriptor_nn", {}),
        "descriptor_nn-subsampled": ("descriptor_nn", {"max_matches": 300}),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_are_one_to_one_and_id_consistent(self, case, library):
        kind, overrides = self.CASES[case]
        scene = make_scene([Placement(4, PlanarTransform(0.0, 0.0, 0.0))])
        db = ring_db(scene, library)
        _, goals = goal_regions_of(scene, library)
        goal = goals[0]
        cand = db.hits(retrieve_candidates(goals[0], db, LCFG.top_n).region_indices[0])
        cfg = LocalizationConfig(matcher=kind, **overrides)
        m2d = cfg.make_matcher(library, np.random.default_rng(3)).match(goal, cand)
        assert len(m2d) >= 12
        # one-to-one, so lift_to_3d needs no dedupe
        assert len(np.unique(m2d.cand_hits)) == len(m2d)
        assert len(np.unique(m2d.goal_px, axis=0)) == len(m2d)
        if "sigma_px" in overrides:
            # a subset of the clean matches, moved on the goal side only
            clean = LocalizationConfig(matcher=kind).make_matcher(library).match(goal, cand)
            clean_at = dict(zip(clean.cand_hits.tolist(), clean.goal_px))
            assert set(m2d.cand_hits.tolist()) <= set(clean_at)
            moved = [np.linalg.norm(p - clean_at[h]) for p, h in zip(m2d.goal_px, m2d.cand_hits)]
            assert np.median(moved) < 1.0
            return
        dist, goal_hits = cKDTree(goal.px).query(m2d.goal_px)
        assert dist.max() < 1e-9  # the goal hits' own projections
        # descriptor_nn too: each library point has its own descriptor
        np.testing.assert_array_equal(
            goal.feature_ids[goal_hits], cand.feature_ids[m2d.cand_hits]
        )
        if "max_matches" in overrides:
            stride = int(np.ceil(len(cand.feature_ids) / overrides["max_matches"]))
            assert stride > 1
            assert np.all(m2d.cand_hits % stride == 0)


class TestEstimateAll:
    def test_three_objects_noiseless(self, library):
        cfg3 = SimConfig(object_count_min=3, object_count_max=3)
        inst = generate_instance(cfg3, library, seed=9)
        db = ring_db(inst.initial, library)
        (goal_frame,) = render(inst.goal, [inst.config.home_viewpoint], INTR, library)
        (goals,) = prepare_goal_regions([goal_frame], library, PCFG)
        out = estimate_all(goals, db, FeatureIdMatcher(LCFG), INTR, LCFG)
        assert len(out) == 3
        i2s = source_of_instance(db)
        for u, est in out.items():
            assert est.accepted
            dtheta, dt = geo.planar_distance(est.offset, inst.true_offsets[i2s[u]])
            assert dtheta < 1e-4 and dt < 1e-4

    def test_twin_models_resolved_to_distinct_instances(self, library):
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
        db = ring_db(initial, library)
        _, goals = goal_regions_of(goal_scene, library)
        out = estimate_all(goals, db, FeatureIdMatcher(LCFG), INTR, LCFG)
        assert len(out) == 2
        assert set(out.keys()) == {0, 1}

    def test_region_excluded_from_every_instance_is_dropped(self, library):
        """Two goal regions claim the one instance; the loser re-runs with
        it excluded, so it retrieves nothing, makes no matcher call, names
        no instance and is dropped."""
        scene = make_scene([Placement(2, PlanarTransform(0.4, 0.05, -0.1))])
        db = ring_db(scene, library)
        _, goals = goal_regions_of(scene, library)
        matcher = _RecordingMatcher(FeatureIdMatcher(LCFG))
        out = estimate_all([goals[0], goals[0]], db, matcher, INTR, LCFG)
        assert list(out) == [0] and out[0].accepted
        assert len(matcher.cands) == 2  # one accepted candidate per claim
        est = estimate_object(goals[0], db, matcher, INTR, LCFG, frozenset({0}))
        assert len(matcher.cands) == 2
        assert (est.instance_id, est.candidates_visited) == (None, 0)

    def test_evicted_claim_reruns_with_its_own_exclusions(self, monkeypatch):
        """A region evicted once (r0, then excluding instance 0) wins
        instance 1 from r2, which excluded nothing: r2 re-runs excluding
        instance 1 alone. It once re-ran with r0's exclusions added, barred
        from instance 0, which it never contested."""
        script = {
            ("r0", frozenset()): (0, 0.5),
            ("r1", frozenset()): (0, 0.9),
            ("r2", frozenset()): (1, 0.5),
            ("r0", frozenset({0})): (1, 0.9),
            ("r2", frozenset({1})): (2, 0.5),
        }
        calls = []

        def scripted(goal_region, db, matcher, intr, config, excluded=frozenset()):
            calls.append((goal_region, excluded))
            if (goal_region, excluded) not in script:
                return PoseEstimate()
            u, ratio = script[goal_region, excluded]
            return PoseEstimate(inlier_count=int(ratio * 100), num_correspondences=100,
                                instance_id=u, accepted=True)

        monkeypatch.setattr(pipeline, "estimate_object", scripted)
        out = estimate_all(["r0", "r1", "r2"], None, None, INTR, LCFG)
        assert calls == list(script)
        assert {u: est.inlier_ratio for u, est in out.items()} == {0: 0.9, 1: 0.9, 2: 0.5}

    def test_empty_goal_frame(self, library):
        from mvor.sim import empty_frame

        frame = empty_frame(CFG.home_viewpoint, INTR)
        (goals,) = prepare_goal_regions([frame], library, PCFG)
        assert goals == []
        out = estimate_all(goals, _EmptyDb(), FeatureIdMatcher(LCFG), INTR, LCFG)
        assert out == {}


class _EmptyDb:
    num_instances = 0
    num_regions = 0
