import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvor import geometry as geo
from mvor.errors import DegenerateObservation
from mvor.geometry import CameraIntrinsics, PlanarTransform, Pose3


def random_pose(rng):
    w = rng.normal(size=3)
    return Pose3(geo.axis_angle_to_matrix(w), rng.normal(size=3))


INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


class TestObservationVector:
    def test_axis_aligned(self):
        vp = Pose3(np.eye(3), [0.0, 0.0, 1.0])
        cloud = np.array([[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]])  # centroid at origin
        e = geo.observation_vector(vp, cloud.mean(axis=0))
        np.testing.assert_allclose(e, [0.0, 0.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        vp = Pose3(np.eye(3), [1.0, 1.0, 0.0])
        cloud = np.zeros((5, 3))
        e = geo.observation_vector(vp, cloud.mean(axis=0))
        np.testing.assert_allclose(e, [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0], atol=1e-12)

    def test_degenerate(self):
        vp = Pose3(np.eye(3), [0.2, 0.3, 0.4])
        cloud = np.array([[0.2, 0.3, 0.4]])
        with pytest.raises(DegenerateObservation):
            geo.observation_vector(vp, cloud.mean(axis=0))

    def test_unit_norm_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            vp = Pose3(np.eye(3), rng.normal(size=3) * 2)
            cloud = rng.normal(size=(7, 3))
            e = geo.observation_vector(vp, cloud.mean(axis=0))
            assert abs(np.linalg.norm(e) - 1.0) < 1e-9


class TestAngularDistance:
    def test_identical(self):
        e = np.array([0.3, -0.4, np.sqrt(1 - 0.25)])
        assert geo.angular_distance(e, e) == 0.0

    def test_quarter_turn_azimuth(self):
        # azimuths 0 and pi/2, equal polar angles
        assert geo.angular_distance([1, 0, 0], [0, 1, 0]) == pytest.approx(np.pi / 2, abs=1e-9)

    def test_poles(self):
        # both azimuths zero, polar angles 0 and pi
        assert geo.angular_distance([0, 0, 1], [0, 0, -1]) == pytest.approx(np.pi, abs=1e-9)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            d_ab = geo.angular_distance(a, b)
            d_ba = geo.angular_distance(b, a)
            assert d_ab == pytest.approx(d_ba, abs=1e-12)
            assert 0.0 <= d_ab <= np.pi * np.sqrt(2) + 1e-12
            assert geo.angular_distance(a, a) == 0.0

    def test_azimuth_wrap(self):
        # azimuths at +/- 179 deg differ by 2 deg, not 358
        az1, az2 = np.radians(179), np.radians(-179)
        e1 = [np.cos(az1) * 0.5, np.sin(az1) * 0.5, np.sqrt(0.75)]
        e2 = [np.cos(az2) * 0.5, np.sin(az2) * 0.5, np.sqrt(0.75)]
        assert geo.angular_distance(e1, e2) == pytest.approx(np.radians(2), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), min_size=1, max_size=20),
        e=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    )
    def test_broadcast_equals_scalar_rows(self, rows, e):
        d = geo.angular_distance(np.array(rows), e)
        assert d.shape == (len(rows),)
        assert d.tolist() == [geo.angular_distance(r, e) for r in rows]


IDENTITY = Pose3(np.eye(3), np.zeros(3))


class TestProjection:
    def test_principal_point(self):
        cam = IDENTITY.apply([[0.0, 0.0, 1.0]])
        uv, z = INTR.project(cam), cam[:, 2]
        assert uv.tolist() == [[320.0, 240.0]] and z.tolist() == [1.0]

    def test_pinhole_formula(self):
        cam = IDENTITY.apply([[0.1, 0.0, 1.0], [0.0, -0.2, 2.0]])
        uv, z = INTR.project(cam), cam[:, 2]
        np.testing.assert_allclose(uv, [[370.0, 240.0], [320.0, 190.0]], atol=1e-12)
        assert z.tolist() == [1.0, 2.0]

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            w2c = random_pose(rng)
            cam_pts = np.column_stack(
                [rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5), rng.uniform(0.2, 5, 5)]
            )
            world = geo.invert(w2c).apply(cam_pts)
            cam = w2c.apply(world)
            uv, z = INTR.project(cam), cam[:, 2]
            back = geo.back_project_pixels(INTR, w2c, uv, z)
            np.testing.assert_allclose(back, world, atol=1e-9)

    def test_nearest_pixel(self):
        """A coordinate's pixel is the one whose centre is nearest; a half
        rounds up, so the image's left edge, -0.5, is pixel 0."""
        x = np.array([[-0.5, -0.2], [0.49, 0.5], [1.5, 2.5], [639.49, -0.51]])
        got = geo.nearest_pixel(x)
        assert got.dtype == np.int64
        assert got.tolist() == [[0, 0], [0, 1], [2, 3], [639, -1]]


class TestPoseAlgebra:
    def test_compose_invert_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = random_pose(rng)
            np.testing.assert_allclose(p.rotation.T @ p.rotation, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(p.rotation) - 1.0) < 1e-9
            ident = geo.compose(p, geo.invert(p))
            np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-9)
            np.testing.assert_allclose(ident.translation, 0.0, atol=1e-9)

    def test_compose_order(self):
        a = geo.lift(PlanarTransform(np.pi / 2, 1.0, 0.0))
        b = geo.lift(PlanarTransform(0.0, 1.0, 0.0))
        # b first: (1,0,0) -> (2,0,0); then a: rotate 90deg and shift -> (1,2,0)
        np.testing.assert_allclose(geo.compose(a, b).apply([1.0, 0.0, 0.0]), [1.0, 2.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (2, 3), (5000, 3), (2, 4, 3)])
    def test_apply_is_the_broadcast_sum(self, shape):
        """``apply`` has the bits of ``points @ R.T + t``, for a single
        3-vector, one row, two rows and many, and leaves its input as it
        was."""
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_pose(rng)
            points = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e3])
            before = points.tobytes()
            got = p.apply(points)
            want = points @ p.rotation.T + p.translation
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
            assert points.tobytes() == before

    def test_matrix_roundtrip(self):
        p = random_pose(np.random.default_rng(5))
        m = p.matrix
        np.testing.assert_array_equal(m[3], [0.0, 0.0, 0.0, 1.0])
        q = Pose3(m[:3, :3], m[:3, 3])
        np.testing.assert_array_equal(q.rotation, p.rotation)
        np.testing.assert_array_equal(q.translation, p.translation)


class TestPlanar:
    def test_lift_matches_compose(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = PlanarTransform(rng.uniform(-4, 4), rng.normal(), rng.normal())
            b = PlanarTransform(rng.uniform(-4, 4), rng.normal(), rng.normal())
            lhs = geo.lift(geo.planar_compose(a, b)).matrix
            rhs = geo.compose(geo.lift(a), geo.lift(b)).matrix
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_planar_invert(self):
        a = PlanarTransform(0.7, 0.2, -0.3)
        ident = geo.planar_compose(a, geo.planar_invert(a))
        assert ident.yaw == pytest.approx(0.0, abs=1e-12)
        assert ident.tx == pytest.approx(0.0, abs=1e-12)
        assert ident.ty == pytest.approx(0.0, abs=1e-12)

    def test_yaw_wrapped_into_range(self):
        assert PlanarTransform(3 * np.pi, 0, 0).yaw == pytest.approx(np.pi)
        assert PlanarTransform(-np.pi, 0, 0).yaw == pytest.approx(np.pi)


class TestPlanarDistance:
    def test_exact_recovery(self):
        t = PlanarTransform(0.5, 0.1, -0.2)
        assert geo.planar_distance(t, t) == (0.0, 0.0)

    def test_yaw_offset(self):
        truth = PlanarTransform(np.radians(30), 0.0, 0.0)
        est = PlanarTransform(np.radians(33), 0.0, 0.0)
        dtheta, dt = geo.planar_distance(est, truth)
        assert dtheta == pytest.approx(3.0, abs=1e-9)
        assert dt == pytest.approx(0.0, abs=1e-12)

    def test_wraparound(self):
        truth = PlanarTransform(np.radians(-179), 0.0, 0.0)
        est = PlanarTransform(np.radians(179), 0.0, 0.0)
        dtheta, _ = geo.planar_distance(est, truth)
        assert dtheta == pytest.approx(2.0, abs=1e-9)

    def test_invariant_to_full_turns(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            yaw = rng.uniform(-np.pi, np.pi)
            truth = PlanarTransform(yaw, 0.05, 0.05)
            est = PlanarTransform(yaw + 2 * np.pi, 0.05, 0.05)
            dtheta, dt = geo.planar_distance(est, truth)
            assert dtheta == pytest.approx(0.0, abs=1e-9)
            assert dt == pytest.approx(0.0, abs=1e-9)

    def test_translation_in_cm(self):
        truth = PlanarTransform(0.0, 0.0, 0.0)
        est = PlanarTransform(0.0, 0.03, 0.04)
        _, dt = geo.planar_distance(est, truth)
        assert dt == pytest.approx(5.0, abs=1e-9)


_planar = st.builds(
    PlanarTransform,
    st.floats(-10.0, 10.0),
    st.floats(-5.0, 5.0),
    st.floats(-5.0, 5.0),
)


def _assert_same_motion(a, b):
    dtheta, dt = geo.planar_distance(a, b)
    assert dtheta < 1e-9 and dt < 1e-9


class TestPlanarProperties:
    @settings(max_examples=200, deadline=None)
    @given(a=_planar, b=_planar)
    def test_compose_invert_round_trips(self, a, b):
        ident = PlanarTransform.identity()
        _assert_same_motion(geo.planar_compose(a, geo.planar_invert(a)), ident)
        _assert_same_motion(geo.planar_compose(geo.planar_invert(a), a), ident)
        _assert_same_motion(geo.planar_invert(geo.planar_invert(a)), a)
        _assert_same_motion(geo.planar_compose(geo.planar_compose(a, b), geo.planar_invert(b)), a)
        _assert_same_motion(
            geo.planar_invert(geo.planar_compose(a, b)),
            geo.planar_compose(geo.planar_invert(b), geo.planar_invert(a)),
        )

    @settings(max_examples=200, deadline=None)
    @given(yaw=st.floats(-10.0, 10.0))
    def test_rot_z_negates_sine_exactly(self, yaw):
        r = geo.rot_z(yaw)
        s = np.sin(yaw)
        assert r[1, 0] == s
        if s != 0.0:
            assert r[0, 1].tobytes() == (-s).tobytes()

    def test_rot_z_of_zero_is_identity_bit_for_bit(self):
        assert geo.rot_z(0.0).tobytes() == np.eye(3).tobytes()

    def test_lifted_identity_has_no_negative_zero(self):
        assert not np.signbit(geo.lift(PlanarTransform.identity()).matrix).any()

    @settings(max_examples=500, deadline=None)
    @given(
        yaw=st.floats(-10.0, 10.0)
        | st.floats(-1e-300, 1e-300)
        | st.sampled_from([np.pi, -np.pi, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.9]),
        tx=st.floats(-5.0, 5.0),
        ty=st.floats(-5.0, 5.0),
    )
    def test_distance_to_identity_agrees_both_ways(self, yaw, tx, ty):
        """The identity's distance to a transform, the error a record of an
        object with no estimate reads, is the transform's distance to the
        identity: the translation bit for bit, the yaw to 1e-12 degrees.
        Not the yaw bit for bit: ``wrap_angle(-w)`` need not be ``-w`` for a
        wrapped yaw ``w`` (pi + w rounds where pi - w does not; w = 1.9)."""
        t, ident = PlanarTransform(yaw, tx, ty), PlanarTransform.identity()
        (yaw_a, dt_a), (yaw_b, dt_b) = geo.planar_distance(ident, t), geo.planar_distance(t, ident)
        assert dt_a == dt_b
        assert abs(yaw_a - yaw_b) <= 1e-12


# 3-vectors whose components include signed zeros and exact ones
VEC3 = st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1.0]), min_size=3, max_size=3)


class TestLookAt:
    def test_forward_axis_points_at_target(self):
        pose = geo.look_at([0.8, 0.0, 0.8], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(pose.rotation.T @ pose.rotation, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-9
        fwd = pose.rotation[:, 2]
        expect = -np.array([0.8, 0.0, 0.8]) / np.linalg.norm([0.8, 0.0, 0.8])
        np.testing.assert_allclose(fwd, expect, atol=1e-12)

    def test_target_projects_to_principal_point(self):
        pose = geo.look_at([0.5, -0.7, 0.9], [0.1, 0.0, 0.0])
        uv = INTR.project(geo.invert(pose).apply([[0.1, 0.0, 0.0]]))
        np.testing.assert_allclose(uv, [[INTR.cx, INTR.cy]], atol=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(a=VEC3, b=VEC3)
    def test_cross_is_np_cross_bit_for_bit(self, a, b):
        a, b = np.array(a), np.array(b)
        assert geo._cross(a, b).tobytes() == np.cross(a, b).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        eye=st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)),
        target=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
        above=st.booleans(),
    )
    def test_matches_np_cross_reference_bit_for_bit(self, eye, target, above):
        """look_at equals its np.cross form; ``above`` puts the eye straight
        over the target, where the fallback right axis is taken."""
        eye, target = np.array(eye), np.array(target)
        if above:
            eye[:2] = target[:2]
        if np.linalg.norm(eye - target) < 1e-6:
            return
        forward = (target - eye) / np.linalg.norm(target - eye)
        right = np.cross(forward, np.array([0.0, 0.0, 1.0]))
        n = np.linalg.norm(right)
        right = np.array([1.0, 0.0, 0.0]) if n < 1e-9 else right / n
        expect = np.stack([right, np.cross(forward, right), forward], axis=1)
        pose = geo.look_at(eye, target)
        assert pose.rotation.tobytes() == expect.tobytes()
        assert pose.translation.tobytes() == eye.tobytes()

    @pytest.mark.parametrize(
        "eye",
        [[0.0, 0.0, 0.0], [1e-300, 0.0, 1e-300], [np.inf, 0.0, 1.0], [np.nan, 0.0, 1.0]],
        ids=["at the target", "distance underflows", "infinite", "nan"],
    )
    def test_no_view_direction_raises(self, eye):
        """An eye at the target, so near it that the distance is 0, or not
        finite, once gave a NaN rotation with numpy's RuntimeWarnings."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="has no direction"):
                geo.look_at(eye, [0.0, 0.0, 0.0])
