"""Rotation, camera, and pose contracts."""

import numpy as np
import pytest

from defmap import geom, tape
from defmap.errors import BehindCamera, DegenerateInput, DimMismatch, WrongCameraKind


class TestRotationFrom6D:
    def test_canonical_6d_gives_identity(self):
        R = geom.rotation_from_6d(np.array([1.0, 0, 0, 0, 1.0, 0]))
        np.testing.assert_allclose(R, np.eye(3), atol=1e-12)

    def test_random_6d_is_special_orthogonal(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            raw = rng.standard_normal(6)
            R = geom.rotation_from_6d(raw)
            np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-10)
            assert np.linalg.det(R) > 0.999999

    def test_scale_invariance_of_first_vector(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal(6)
        scaled = raw.copy()
        scaled[:3] *= 7.5
        np.testing.assert_allclose(
            geom.rotation_from_6d(raw)[:, 0],
            geom.rotation_from_6d(scaled)[:, 0],
            atol=1e-12,
        )

    def test_zero_first_vector_raises(self):
        with pytest.raises(DegenerateInput):
            geom.rotation_from_6d(np.array([0.0, 0, 0, 0, 1.0, 0]))

    def test_collinear_vectors_raise(self):
        with pytest.raises(DegenerateInput):
            geom.rotation_from_6d(np.array([1.0, 0, 0, 2.0, 0, 0]))

    def test_var_version_matches_and_gradchecks(self):
        rng = np.random.default_rng(2)
        raw = rng.standard_normal(6)
        R_np = geom.rotation_from_6d(raw)
        R_var = geom.rotation_from_6d_var(tape.Var(raw))
        np.testing.assert_allclose(R_var.data, R_np, atol=1e-12)

        w = rng.standard_normal((3, 3))

        def f(v):
            return tape.vsum(geom.rotation_from_6d_var(v) * w)

        assert tape.grad_check(f, raw, h=1e-6) < 1e-6


class TestRotationHelpers:
    def test_rotation_about_fixes_axis_and_turns_by_angle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            ax = rng.standard_normal(3)
            ax /= np.linalg.norm(ax)
            ang = rng.uniform(0.05, np.pi - 0.05)
            R = geom.rotation_about(ax, ang)
            np.testing.assert_allclose(R @ ax, ax, atol=1e-12)
            assert np.arccos((np.trace(R) - 1.0) / 2.0) == pytest.approx(
                ang, abs=1e-9)
            np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)

    def test_quat_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            R = geom.rotation_from_6d(rng.standard_normal(6))
            w, x, y, z = geom.quat_from_matrix(R)
            # rebuild the matrix from the quaternion
            Rq = np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ])
            np.testing.assert_allclose(Rq, R, atol=1e-9)
            assert w >= 0


def rotation_distance(A, B):
    return float(geom.rotation_distance_var(tape.Var(A), B).data)


class TestRotationDistance:
    def test_identity_distance_zero(self):
        R = geom.rotation_from_6d(np.random.default_rng(5).standard_normal(6))
        assert rotation_distance(R, R) == pytest.approx(0.0, abs=1e-12)

    def test_half_turn_about_z_is_two(self):
        R = geom.rotation_about(np.array([0.0, 0.0, 1.0]), np.pi)
        assert rotation_distance(R, np.eye(3)) == pytest.approx(2.0, abs=1e-12)

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            A = geom.rotation_from_6d(rng.standard_normal(6))
            B = geom.rotation_from_6d(rng.standard_normal(6))
            d = rotation_distance(A, B)
            assert -1e-12 <= d <= 2.0 + 1e-12
            assert d == pytest.approx(rotation_distance(B, A), abs=1e-12)

    def test_var_version_matches(self):
        rng = np.random.default_rng(7)
        A = geom.rotation_from_6d(rng.standard_normal(6))
        B = geom.rotation_from_6d(rng.standard_normal(6))
        d = geom.rotation_distance_var(tape.Var(A), B)
        assert float(d.data) == pytest.approx(
            (3.0 - np.trace(A.T @ B)) / 2.0, abs=1e-12)


class TestProjection:
    def test_orthographic_drops_z(self):
        cam = geom.CameraIntrinsics(geom.ORTHOGRAPHIC)
        np.testing.assert_allclose(cam.K, np.eye(3))
        out = geom.project(cam, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_perspective_divides_by_depth(self):
        K = np.diag([2.0, 2.0, 1.0])
        cam = geom.CameraIntrinsics(geom.PERSPECTIVE, K)
        out = geom.project(cam, np.array([1.0, 2.0, 4.0]))
        np.testing.assert_allclose(out, [0.5, 1.0])

    def test_principal_point_offset(self):
        K = np.array([[2.0, 0, 0.3], [0, 2.0, -0.1], [0, 0, 1.0]])
        cam = geom.CameraIntrinsics(geom.PERSPECTIVE, K)
        out = geom.project(cam, np.array([[0.0, 0.0, 1.0]]))
        np.testing.assert_allclose(out[0], [0.3, -0.1])

    def test_behind_camera_raises(self):
        cam = geom.CameraIntrinsics(geom.PERSPECTIVE, np.eye(3))
        with pytest.raises(BehindCamera):
            geom.project(cam, np.array([[0.0, 0.0, -1.0]]))
        with pytest.raises(BehindCamera):
            geom.project(cam, np.array([[0.0, 0.0, 0.0]]))

    def test_bad_shape_raises(self):
        cam = geom.CameraIntrinsics(geom.ORTHOGRAPHIC)
        with pytest.raises(DimMismatch):
            geom.project(cam, np.zeros((4, 2)))

    def test_project_var_matches_numpy(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 3))
        X[:, 2] += 5.0
        for cam in (
            geom.CameraIntrinsics(geom.ORTHOGRAPHIC),
            geom.CameraIntrinsics(geom.PERSPECTIVE, np.diag([1.5, 1.5, 1.0])),
        ):
            np.testing.assert_allclose(
                geom.project_var(cam, tape.Var(X), min_depth=1e-3).data,
                geom.project(cam, X),
                atol=1e-12,
            )

    def test_project_var_depth_clamp(self):
        cam = geom.CameraIntrinsics(geom.PERSPECTIVE, np.eye(3))
        X = np.array([[0.5, 0.5, -2.0]])
        out = geom.project_var(cam, tape.Var(X), min_depth=1e-3)
        np.testing.assert_allclose(out.data, [[500.0, 500.0]])


class TestRays:
    def test_identity_K_center_ray(self):
        cam = geom.CameraIntrinsics(geom.PERSPECTIVE, np.eye(3))
        d = geom.ray_direction(cam, np.array([0.0, 0.0]))
        np.testing.assert_allclose(d, [0.0, 0.0, 1.0], atol=1e-12)

    def test_rays_are_unit_and_hit_pixels(self):
        K = np.array([[2.0, 0, 0.2], [0, 1.7, -0.3], [0, 0, 1.0]])
        cam = geom.CameraIntrinsics(geom.PERSPECTIVE, K)
        rng = np.random.default_rng(9)
        y = rng.uniform(-1, 1, size=(50, 2))
        d = geom.ray_direction(cam, y)
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
        # scaling each ray to z=1 and projecting must return the input pixel
        back = geom.project(cam, d / d[:, 2:3])
        np.testing.assert_allclose(back, y, atol=1e-9)

    def test_orthographic_rays_rejected(self):
        cam = geom.CameraIntrinsics(geom.ORTHOGRAPHIC)
        with pytest.raises(WrongCameraKind):
            geom.ray_direction(cam, np.zeros(2))


class TestPoses:
    def test_similarity_apply(self):
        rng = np.random.default_rng(12)
        R = geom.rotation_from_6d(rng.standard_normal(6))
        t = rng.standard_normal(3)
        X = rng.standard_normal((6, 3))
        want = np.stack([2.0 * R @ x + t for x in X])
        np.testing.assert_allclose(
            geom.SimilarityTransform(2.0, R, t).apply(X), want, atol=1e-12
        )
