"""Loss contracts: analytic values, independent oracles, gradient checks."""

import dataclasses
import itertools

import numpy as np
import pytest

from defmap import geom, losses, model, nets, tape, train
from defmap.errors import EmptyVisibleSet, KTooLarge, SingularSystem

CFG = losses.LossConfig()


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


class TestPseudoHuber:
    def test_zero_residual(self):
        assert float(losses.pseudo_huber_rows(np.zeros(3), 0.01).data) == 0.0

    def test_matches_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.standard_normal(4)
            eps = rng.uniform(0.01, 1.0)
            got = float(losses.pseudo_huber_rows(z, eps).data)
            want = eps * (np.sqrt(1 + (np.linalg.norm(z) / eps) ** 2) - 1)
            assert got == pytest.approx(want, rel=1e-12)

    def test_large_residual_asymptote(self):
        # for |z| >> eps the penalty approaches |z| - eps from below
        z = np.array([100.0, 0.0])
        got = float(losses.pseudo_huber_rows(z, 0.01).data)
        assert abs(got - (100.0 - 0.01)) < 1e-3

    def test_gradient_norm_bounded_by_one(self):
        rng = np.random.default_rng(1)
        for scale in (1e-3, 1.0, 1e3, 1e6):
            z = tape.Var(unit(rng.standard_normal(3)) * scale)
            out = losses.pseudo_huber_rows(z, 0.01)
            tape.backward(out)
            assert np.linalg.norm(z.grad) <= 1.0 + 1e-9

    def test_rows_variant_matches_scalar(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((6, 3))
        rows = losses.pseudo_huber_rows(z, 0.05).data
        for i in range(6):
            assert rows[i] == pytest.approx(
                float(losses.pseudo_huber_rows(z[i], 0.05).data), rel=1e-12
            )

    def test_grad_check(self):
        rng = np.random.default_rng(3)

        def f(v):
            return losses.pseudo_huber_rows(v, 0.02)

        assert tape.grad_check(f, rng.standard_normal(5)) < 1e-6


class TestPriorLoss:
    def _labels(self, rng, K=5, D=4, visible=None):
        vis = np.ones(K, bool) if visible is None else np.asarray(visible)
        return losses.NrsfmLabels(
            basis=rng.standard_normal((K, 3, D)),
            visible=vis,
            alpha=rng.standard_normal(D),
            rotation=geom.rotation_from_6d(rng.standard_normal(6)),
        )

    def test_exact_match_is_zero(self):
        rng = np.random.default_rng(4)
        lab = self._labels(rng)
        vis = np.flatnonzero(lab.visible)
        out = losses.prior_loss(
            tape.Var(lab.basis[vis]), tape.Var(lab.alpha[None]),
            tape.Var(lab.rotation[None]), [lab], losses.LossWeights(), CFG,
        )
        assert float(out.data) < 1e-15

    def test_half_turn_rotation_only_gives_two(self):
        rng = np.random.default_rng(5)
        lab = self._labels(rng)
        lab.rotation[:] = np.eye(3)
        vis = np.flatnonzero(lab.visible)
        R_pred = geom.rotation_about(np.array([0.0, 0, 1]), np.pi)
        out = losses.prior_loss(
            tape.Var(lab.basis[vis]), tape.Var(lab.alpha[None]),
            tape.Var(R_pred[None]), [lab], losses.LossWeights(w_rot=1.0), CFG,
        )
        assert float(out.data) == pytest.approx(2.0, abs=1e-12)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(6)
        lab = self._labels(rng, visible=[True, False, True, True, False])
        vis = np.flatnonzero(lab.visible)
        pred_basis = rng.standard_normal((vis.size, 3, 4))
        pred_alpha = rng.standard_normal(4)
        pred_R = geom.rotation_from_6d(rng.standard_normal(6))
        w = losses.LossWeights(w_alpha=0.7, w_rot=1.3)
        out = float(
            losses.prior_loss(
                tape.Var(pred_basis), tape.Var(pred_alpha[None]),
                tape.Var(pred_R[None]), [lab], w, CFG,
            ).data
        )

        def ph(z, eps=CFG.eps_geom):
            n = np.linalg.norm(np.ravel(z))
            return eps * (np.sqrt(1 + (n / eps) ** 2) - 1)

        want = np.mean([ph(pred_basis[i] - lab.basis[k])
                        for i, k in enumerate(vis)])
        want += 0.7 * ph(pred_alpha - lab.alpha)
        want += 1.3 * (3 - np.trace(pred_R.T @ lab.rotation)) / 2
        assert out == pytest.approx(want, rel=1e-12)

    def test_empty_visible_set_raises(self):
        rng = np.random.default_rng(7)
        lab = self._labels(rng, visible=[False] * 5)
        with pytest.raises(EmptyVisibleSet):
            losses.prior_loss(
                tape.Var(np.zeros((0, 3, 4))), tape.Var(lab.alpha[None]),
                tape.Var(np.eye(3)[None]), [lab], losses.LossWeights(), CFG,
            )

    def test_grad_check(self):
        rng = np.random.default_rng(8)
        lab = self._labels(rng, K=3, D=3)
        w = losses.LossWeights()

        def f(v):
            basis = tape.reshape(v[slice(0, 27)], (3, 3, 3))
            alpha = tape.reshape(v[slice(27, 30)], (1, 3))
            R = geom.rotation_from_6d_var(tape.reshape(v[slice(30, 36)], (1, 6)))
            return losses.prior_loss(basis, alpha, R, [lab], w, CFG)

        assert tape.grad_check(f, rng.standard_normal(36)) < 1e-5


class TestClosedFormTranslation:
    def _instance(self, rng, n=20):
        cam = geom.CameraIntrinsics(geom.PERSPECTIVE, np.diag([1.3, 1.3, 1.0]))
        pixels = rng.uniform(-0.8, 0.8, size=(n, 2))
        rays = geom.ray_direction(cam, pixels)
        points = rng.standard_normal((n, 3))
        return points, rays

    @staticmethod
    def quadratic_objective(points, rays, t):
        X = points + t
        proj = X - rays * (X * rays).sum(axis=1, keepdims=True)
        return float((proj**2).sum())

    def test_beats_gradient_descent_oracle(self):
        # oracle: 1e4 steps of exact-line-search gradient descent
        rng = np.random.default_rng(9)
        for trial in range(5):
            points, rays = self._instance(rng)
            n = len(rays)
            A = 2 * (n * np.eye(3) - rays.T @ rays)
            t = np.zeros(3)
            for _ in range(10_000):
                X = points + t
                g = 2 * (X - rays * (X * rays).sum(axis=1, keepdims=True)).sum(0)
                gAg = g @ A @ g
                if gAg < 1e-300:
                    break
                t = t - (g @ g) / gAg * g
            t_closed = losses.closed_form_translation(
                tape.Var(points), rays, np.zeros(n, int), 1
            ).data[0]
            assert np.linalg.norm(t_closed - t) < 1e-6

    def test_minimality_against_random_probes(self):
        rng = np.random.default_rng(10)
        points, rays = self._instance(rng)
        t_star = losses.closed_form_translation(
            tape.Var(points), rays, np.zeros(len(rays), int), 1).data[0]
        f_star = self.quadratic_objective(points, rays, t_star)
        for _ in range(200):
            probe = t_star + rng.standard_normal(3) * rng.uniform(1e-4, 10)
            assert f_star <= self.quadratic_objective(points, rays, probe) + 1e-12

    def test_parallel_rays_singular(self):
        rays = np.tile(unit([0.1, 0.2, 1.0]), (8, 1))
        with pytest.raises(SingularSystem):
            losses.closed_form_translation(tape.Var(np.zeros((8, 3))), rays,
                                           np.zeros(8, int), 1)

    def test_gradient_flows_through_solve(self):
        rng = np.random.default_rng(11)
        _, rays = self._instance(rng, n=6)

        def f(v):
            pts = tape.reshape(v, (6, 3))
            t = losses.closed_form_translation(pts, rays, np.zeros(6, int), 1)
            return tape.vsum(t * t)

        assert tape.grad_check(f, rng.standard_normal(18)) < 1e-6


class TestReprojection:
    def test_orthographic_single_pixel_value(self):
        # point projecting delta away from its pixel: loss is the robust norm
        delta = np.array([0.03, -0.02])
        pt = np.array([[0.5 + delta[0], -0.2 + delta[1], 7.0]])
        pix = np.array([[0.5, -0.2]])
        cam = geom.CameraIntrinsics(geom.ORTHOGRAPHIC)
        loss, t = losses.reprojection_loss(
            tape.Var(pt), tape.Var(np.eye(3)[None]), np.zeros(1, int), cam,
            pix, CFG,
        )
        want = float(losses.pseudo_huber_rows(delta, CFG.eps_geom).data)
        assert float(loss.data) == pytest.approx(want, rel=1e-12)
        np.testing.assert_array_equal(t.data, np.zeros((1, 3)))

    def test_perspective_exact_geometry_is_zero(self):
        rng = np.random.default_rng(12)
        cam = geom.CameraIntrinsics(geom.PERSPECTIVE, np.diag([1.5, 1.5, 1.0]))
        R = geom.rotation_from_6d(rng.standard_normal(6))
        t_true = np.array([0.05, -0.08, 4.0])
        X = rng.standard_normal((30, 3)) * 0.5
        pix = geom.project(cam, X @ R.T + t_true)
        loss, t = losses.reprojection_loss(tape.Var(X), tape.Var(R[None]),
                                           np.zeros(30, int), cam, pix, CFG)
        assert float(loss.data) < 1e-18
        np.testing.assert_allclose(t.data[0], t_true, atol=1e-9)

    def test_perspective_t_is_the_ray_quadratic_minimizer(self):
        rng = np.random.default_rng(13)
        cam = geom.CameraIntrinsics(geom.PERSPECTIVE, np.diag([1.2, 1.2, 1.0]))
        R = geom.rotation_from_6d(rng.standard_normal(6))
        X = rng.standard_normal((25, 3)) * 0.4
        pix = geom.project(cam, X @ R.T + np.array([0.1, 0.2, 5.0])) \
            + rng.standard_normal((25, 2)) * 0.01
        seg = np.zeros(25, int)
        _, t_solved = losses.reprojection_loss(
            tape.Var(X), tape.Var(R[None]), seg, cam, pix, CFG
        )
        t_solved = t_solved.data[0]
        rays = geom.ray_direction(cam, pix)
        t_direct = losses.closed_form_translation(tape.Var(X @ R.T), rays,
                                                  seg, 1).data[0]
        np.testing.assert_allclose(t_solved, t_direct, atol=1e-12)
        f_star = TestClosedFormTranslation.quadratic_objective(
            X @ R.T, rays, t_solved
        )
        for _ in range(100):
            probe = t_solved + rng.standard_normal(3) * rng.uniform(0.05, 2.0)
            assert f_star <= TestClosedFormTranslation.quadratic_objective(
                X @ R.T, rays, probe
            ) + 1e-12

    def test_grad_check_through_inner_solve(self):
        rng = np.random.default_rng(15)
        cam = geom.CameraIntrinsics(geom.PERSPECTIVE, np.diag([1.1, 1.1, 1.0]))
        pix = rng.uniform(-0.5, 0.5, size=(6, 2))

        def f(v):
            X = tape.reshape(v[slice(0, 18)], (6, 3))
            R = geom.rotation_from_6d_var(tape.reshape(v[slice(18, 24)], (1, 6)))
            loss, _ = losses.reprojection_loss(X, R, np.zeros(6, int), cam, pix,
                                               CFG)
            return loss

        x0 = np.concatenate([
            rng.standard_normal(18) * 0.3, rng.standard_normal(6)
        ])
        assert tape.grad_check(f, x0) < 1e-5


class TestRayProjectionGradients:
    def test_zero_on_ray(self):
        rays = np.array([unit([0.2, 0.1, 1.0])])
        X = tape.Var(rays * 3.7)
        assert float(losses.ray_projection_loss(X, rays, CFG).data) < 1e-18


class TestMinK:
    def test_example_two_of_three(self):
        cost = tape.Var(np.array([[5.0, 1.0, 3.0]]))
        norm, raw = losses.min_k_loss(cost, 2)
        assert float(raw.data) == pytest.approx(2.0)
        assert float(norm.data) == pytest.approx(2.0)  # one pixel

    def test_matches_subset_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n, r, k = 4, 6, 3
            c = rng.random((n, r))
            _, raw = losses.min_k_loss(tape.Var(c), k)
            want = sum(
                min(sum(row[list(q)]) for q in itertools.combinations(range(r), k))
                for row in c
            ) / k
            assert float(raw.data) == pytest.approx(want, rel=1e-12)

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            losses.min_k_loss(tape.Var(np.ones((2, 3))), 4)

    def test_gradient_only_on_selected(self):
        c = tape.Var(np.array([[5.0, 1.0, 3.0], [2.0, 9.0, 4.0]]))
        norm, _ = losses.min_k_loss(c, 2)
        tape.backward(norm)
        picked = c.grad > 0
        np.testing.assert_array_equal(
            picked, [[False, True, True], [True, False, True]]
        )


class TestEmbeddingAlignment:
    def test_identity_rotation_mean_z(self):
        kappa = np.tile(unit([0.0, 0.0, 1.0]), (9, 1))
        out = losses.embedding_alignment_loss(
            tape.Var(kappa), tape.Var(np.eye(3)[None]), np.zeros(9, int))
        assert float(out.data) == pytest.approx(1.0)

    def test_range_and_rotation_covariance(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            kappa = losses.sample_sphere(40, rng) + rng.standard_normal(3) * 0.3
            kappa = kappa / np.linalg.norm(kappa, axis=1, keepdims=True)
            R = geom.rotation_from_6d(rng.standard_normal(6))
            v = float(losses.embedding_alignment_loss(
                tape.Var(kappa), tape.Var(R[None]), np.zeros(40, int)).data)
            assert -1.0 - 1e-9 <= v <= 1.0 + 1e-9
            kbar = unit(kappa.mean(axis=0))
            assert v == pytest.approx(float((R @ kbar)[2]), rel=1e-9, abs=1e-12)

    def test_grad_check(self):
        rng = np.random.default_rng(19)

        def f(v):
            kappa = tape.reshape(v[slice(0, 12)], (4, 3))
            R = geom.rotation_from_6d_var(tape.reshape(v[slice(12, 18)], (1, 6)))
            return losses.embedding_alignment_loss(kappa, R, np.zeros(4, int))

        assert tape.grad_check(f, rng.standard_normal(18)) < 1e-5


def disk_mask_frame_geometry(h=32, w=32, radius_px=10.0):
    """Silhouette disk + its outside distance transform, for mask-loss tests."""
    from scipy.ndimage import distance_transform_edt

    yy, xx = np.mgrid[0:h, 0:w]
    cx = cy = (w - 1) / 2.0
    mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius_px**2
    dist = distance_transform_edt(~mask)
    return mask, dist


def graph_mask_loss(points_world, R, t, cam, raster, mask_dist, cfg):
    """Reference: the silhouette term always built as a graph, also where
    every sample's value and overshoot are zero."""
    proj = geom.project_var(cam, losses._posed(points_world, R, t),
                            min_depth=cfg.min_depth)
    px = raster.to_px(proj)
    h, w = mask_dist[0].shape
    inside_px = tape.clip(px, np.zeros(2), np.array([w - 1.0, h - 1.0]))
    overshoot = px - inside_px
    d = tape.bilinear_sample([md[..., None] for md in mask_dist], inside_px)
    return (tape.vmean(d * d)
            + tape.vmean(tape.vsum(overshoot * overshoot, axis=-1)))


class TestMaskLoss:
    def setup_method(self):
        _, self.dist = disk_mask_frame_geometry()
        self.raster = geom.Raster(ppu=10.0, cx=15.5, cy=15.5)
        self.cam = geom.CameraIntrinsics(geom.ORTHOGRAPHIC)
        self.t = tape.Var(np.zeros((1, 3)))
        self.R = tape.Var(np.eye(3)[None])

    def test_inside_is_zero(self):
        rng = np.random.default_rng(20)
        pts = losses.sample_sphere(500, rng) * 0.5  # projects within the disk
        soft = losses.mask_reprojection_loss(
            tape.Var(pts[None]), self.R, self.t, self.cam, self.raster,
            self.dist[None], CFG,
        )
        assert float(soft.data) == 0.0
        assert soft._parents == ()  # no graph: its gradient is exactly zero

    @pytest.mark.parametrize("scale", [0.5, 1.4, np.nan],
                             ids=["inside", "straddling", "nan"])
    def test_matches_the_graph_path(self, scale):
        # two frames: the second one's samples always sit inside
        pts0 = losses.sample_sphere(40, np.random.default_rng(23))
        pts0 = np.stack([pts0 * scale, pts0 * 0.5])
        runs = []
        for build in (losses.mask_reprojection_loss, graph_mask_loss):
            pts, R = tape.Var(pts0), tape.Var(np.stack([np.eye(3)] * 2))
            t = tape.Var(np.full((2, 3), 0.01))
            with np.errstate(invalid="ignore"):  # NaN pixel coordinates
                out = build(pts, R, t, self.cam, self.raster,
                            np.stack([self.dist] * 2), CFG)
                _, grads = tape.collect(out, {"pts": pts, "R": R, "t": t})
            runs.append((out.data, grads))
        (got, g_got), (want, g_want) = runs
        np.testing.assert_array_equal(got, want)
        for key in g_want:
            np.testing.assert_array_equal(g_got[key], g_want[key], key)
        assert (got == 0.0) == (scale == 0.5)

    def test_scaled_up_shape_escapes(self):
        rng = np.random.default_rng(21)
        pts = losses.sample_sphere(500, rng) * 100.0  # everything outside
        soft = losses.mask_reprojection_loss(
            tape.Var(pts[None]), self.R, self.t, self.cam, self.raster,
            self.dist[None], CFG,
        )
        assert float(soft.data) > 100.0

    def test_soft_zero_inside_positive_outside(self):
        pts = np.array([[0.0, 0.0, 0.0], [2.4, 0.0, 0.0]])  # in, out (in-image)
        soft = losses.mask_reprojection_loss(
            tape.Var(pts[None]), self.R, self.t, self.cam, self.raster,
            self.dist[None], CFG,
        )
        assert 0.0 < float(soft.data)

    def test_grad_check(self):
        rng = np.random.default_rng(22)

        def f(v):
            pts = tape.reshape(v, (1, 8, 3)) * 1.4
            return losses.mask_reprojection_loss(
                pts, self.R, self.t, self.cam, self.raster, self.dist[None],
                CFG,
            )

        x0 = losses.sample_sphere(8, rng).ravel()
        assert tape.grad_check(f, x0) < 1e-5


class FakeFrame:
    """Minimal duck-typed frame for loss-level tests."""

    def __init__(self, rng, frame_id=0, instance_id=0, h=24, w=24, n_pix=30,
                 F=6, G=5, K=4, camera=None):
        self.frame_id = frame_id
        self.instance_id = instance_id
        self.camera = camera or geom.CameraIntrinsics(geom.ORTHOGRAPHIC)
        self.raster = geom.Raster(ppu=8.0, cx=(w - 1) / 2, cy=(h - 1) / 2)
        self.image = rng.random((h, w, 3))
        self.mask = np.ones((h, w), bool)
        self.mask_dist = np.zeros((h, w))
        rows = rng.integers(4, h - 4, size=n_pix)
        cols = rng.integers(4, w - 4, size=n_pix)
        self.pix_rc = np.stack([rows, cols], axis=1)
        self.pix_y = self.raster.from_px(np.stack([cols, rows], 1).astype(float))
        self.descriptors = rng.standard_normal((n_pix, F))
        self.colors = self.image[rows, cols]
        self.kp_desc = rng.standard_normal((K, F))
        self.instance_desc = rng.standard_normal(G)
        self._levels = {}

    def levels(self, radii):
        key = tuple(radii)
        if key not in self._levels:
            self._levels[key] = losses.image_pyramid(self.image, radii)
        return self._levels[key]


def small_model(seed=0, mode=model.AMORTIZED, n_frames=0):
    dims = model.ModelDims(
        descriptor_dim=6, instance_dim=5, n_shape_coeffs=3,
        n_texture_coeffs=3, embed_hidden=8, embed_blocks=1, basis_hidden=8,
        basis_blocks=1, texture_hidden=8, texture_blocks=1, head_hidden=8,
        head_blocks=1,
    )
    return model.init_model(dims, mode, np.random.default_rng(seed),
                            n_frames=n_frames)


def fake_labels(rng, K=4, D=3):
    return losses.NrsfmLabels(
        basis=rng.standard_normal((K, 3, D)) * 0.3,
        visible=np.ones(K, bool),
        alpha=rng.standard_normal(D),
        rotation=geom.rotation_from_6d(rng.standard_normal(6)),
    )


class TestPhotometric:
    def test_identity_correspondence_zero(self):
        rng = np.random.default_rng(23)
        f = FakeFrame(rng)
        idx = np.arange(10)
        rc = f.pix_rc[idx]
        levels = f.levels(CFG.blur_radii)
        tgt = levels[rc[:, 0], rc[:, 1]]
        coords = tape.Var(f.pix_y[idx][None])
        per_pixel, clamped = losses.photometric_loss(
            levels[None], f.raster, coords, tgt, CFG
        )
        assert float(per_pixel.data.sum()) < 1e-20
        assert clamped.tolist() == [0.0]

    def test_constant_color_images(self):
        rng = np.random.default_rng(24)
        fa = FakeFrame(rng)
        c1, c2 = np.array([0.2, 0.4, 0.6]), np.array([0.9, 0.1, 0.3])
        fa.image[:] = c1
        ref_levels = losses.image_pyramid(
            np.broadcast_to(c2, fa.image.shape), ())[None]
        idx = np.arange(12)
        tgt = np.tile(c1, (12, 1, 1))
        coords = tape.Var(fa.pix_y[idx][None])
        per_pixel, _ = losses.photometric_loss(
            ref_levels, fa.raster, coords, tgt, CFG
        )
        want = 12 * float(losses.pseudo_huber_rows(c1 - c2, CFG.eps_color).data)
        assert float(per_pixel.data.sum()) == pytest.approx(want, rel=1e-9)

    def test_out_of_bounds_fraction_reported(self):
        rng = np.random.default_rng(25)
        f = FakeFrame(rng)
        coords = tape.Var(np.array([[[50.0, 50.0], [0.0, 0.0]]]))  # one far out
        levels = f.levels(())[None]
        tgt = np.zeros((2, 1, 3))
        _, clamped = losses.photometric_loss(levels, f.raster, coords, tgt, CFG)
        assert clamped.tolist() == pytest.approx([0.5])


class TestTextureLoss:
    def test_stopgrad_blocks_embedding_and_basis(self):
        rng = np.random.default_rng(26)
        m = small_model(seed=1)
        f = FakeFrame(rng)
        leaves = model.make_leaves(m)
        idx = np.arange(f.descriptors.shape[0])
        kappa = model.embed_pixels(m, leaves, f.descriptors[idx])
        beta = tape.Var(rng.standard_normal((1, 3)))
        total = losses.texture_loss(
            m, leaves, [f], [idx], kappa, beta, losses.LossWeights(), CFG
        )
        _, grads = tape.collect(total, {**leaves, "beta": beta})
        assert not np.any(grads["net:embed"])
        assert not np.any(grads["net:basis"])
        assert np.any(grads["net:texture"])
        assert np.any(grads["beta"])

    def test_perfect_reconstruction_zero(self):
        rng = np.random.default_rng(27)
        m = small_model(seed=2)
        f = FakeFrame(rng)
        idx = np.arange(f.descriptors.shape[0])
        leaves = model.make_leaves(m)
        kappa = model.embed_pixels(m, leaves, f.descriptors[idx])
        beta = tape.Var(np.zeros((1, 3)))
        # force the texture net to reproduce each pixel's color is impossible
        # in general; instead make the frame's colors equal the net's output
        pred = model.texture_at(m, leaves, kappa.data, beta,
                                np.zeros(len(idx), int))
        f.colors = pred.data.copy()
        f.image[f.pix_rc[:, 0], f.pix_rc[:, 1]] = pred.data
        total = losses.texture_loss(
            m, leaves, [f], [idx], kappa, beta, losses.LossWeights(), CFG
        )
        assert float(total.data) < 1e-18

    def test_no_blur_radii_leave_no_perceptual_term(self):
        rng = np.random.default_rng(31)
        m = small_model(seed=4)
        frames = [FakeFrame(rng, frame_id=i) for i in range(2)]
        idx = [np.arange(f.descriptors.shape[0]) for f in frames]
        leaves = model.make_leaves(m)
        kappa = model.embed_pixels(m, leaves, np.concatenate(
            [f.descriptors for f in frames]))
        beta = tape.Var(rng.standard_normal((2, 3)))
        no_radii = losses.texture_loss(
            m, leaves, frames, idx, kappa, beta, losses.LossWeights(),
            dataclasses.replace(CFG, blur_radii=()))
        photo_only = losses.texture_loss(
            m, leaves, frames, idx, kappa, beta,
            losses.LossWeights(w_tex_percep=0.0), CFG)
        assert float(no_radii.data) == float(photo_only.data) > 0.0


class TestTotalLoss:
    def _batch(self, rng, n=3):
        frames = [FakeFrame(rng, frame_id=i, instance_id=i) for i in range(n)]
        for fr in frames:
            fr.labels = fake_labels(rng)
        return frames

    def test_decomposition_exact(self):
        rng = np.random.default_rng(28)
        m = small_model(seed=3)
        frames = self._batch(rng)
        w = losses.LossWeights(w_repro=0.37, w_prior=1.1, w_emb_align=0.5,
                               w_mask=2.0, w_min_k=0.25)
        cfg = losses.LossConfig(n_mask_samples=50, min_k=2)
        leaves = model.make_leaves(m)
        total, br = losses.total_loss(
            m, leaves, frames, w, cfg, np.random.default_rng(0), n_pixels=None
        )
        want = (
            w.w_prior * br["prior"] + w.w_repro * br["repro"]
            + w.w_emb_align * br["emb_align"] + w.w_mask * br["mask"]
            + br["texture"] + w.w_min_k * br["min_k"]
        )
        assert float(total.data) == pytest.approx(want, rel=1e-12)
        assert br["total"] == pytest.approx(float(total.data), rel=1e-12)

    def test_deterministic_given_seed(self):
        m = small_model(seed=4)
        cfg = losses.LossConfig(n_mask_samples=30, min_k=2)

        def run():
            rng = np.random.default_rng(29)
            frames = self._batch(rng)
            leaves = model.make_leaves(m)
            total, br = losses.total_loss(
                m, leaves, frames, losses.LossWeights(), cfg,
                np.random.default_rng(1), n_pixels=None,
            )
            tape.backward(total)
            return float(total.data), leaves["net:embed"].grad.copy()

        (v1, g1), (v2, g2) = run(), run()
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)

    def test_single_frame_batch_has_no_min_k(self):
        rng = np.random.default_rng(30)
        m = small_model(seed=5)
        frames = self._batch(rng, n=1)
        leaves = model.make_leaves(m)
        total, br = losses.total_loss(
            m, leaves, frames, losses.LossWeights(),
            losses.LossConfig(n_mask_samples=20), np.random.default_rng(2),
            n_pixels=None,
        )
        assert br["min_k"] == 0.0
        assert br["min_k_refs"] == 0.0

    def test_basis_runs_once_on_the_mask_samples(self, monkeypatch):
        rng = np.random.default_rng(36)
        m = small_model(seed=9)
        frames = self._batch(rng)
        cfg = losses.LossConfig(n_mask_samples=17, min_k=2)
        basis_rows = []
        real = nets.mlp_forward

        def spy(theta, mlp_cfg, x, *frame_cols):
            if mlp_cfg == m.nets["basis"].config:
                basis_rows.append(tape.as_var(x).shape[0])
            return real(theta, mlp_cfg, x, *frame_cols)

        monkeypatch.setattr(nets, "mlp_forward", spy)
        losses.total_loss(m, model.make_leaves(m), frames,
                          losses.LossWeights(), cfg, np.random.default_rng(5),
                          n_pixels=None)
        assert basis_rows.count(cfg.n_mask_samples) == 1

    def test_mask_term_places_the_target_samples_in_every_frame(self):
        rng = np.random.default_rng(37)
        m = small_model(seed=10)
        frames = self._batch(rng)
        for fr in frames:  # a silhouette whose outside covers the image
            fr.mask_dist = rng.uniform(0.5, 2.0, fr.mask_dist.shape)
        cfg = losses.LossConfig(n_mask_samples=40, min_k=2)
        leaves = model.make_leaves(m)
        _, br = losses.total_loss(m, leaves, frames, losses.LossWeights(),
                                  cfg, np.random.default_rng(6), n_pixels=None)

        # with every pixel kept, frame 0's sphere set is the first draw
        sphere = losses.sample_sphere(cfg.n_mask_samples,
                                      np.random.default_rng(6))
        B = model.basis_at(m, leaves, tape.Var(sphere))
        want = 0.0
        for fr in frames:
            pred = model.predict_frame(m, leaves, [fr.instance_desc],
                                       [fr.frame_id], fr.descriptors)
            want += float(losses.mask_reprojection_loss(
                tape.batch_matvec(B, tape.reshape(pred.alpha, (1, 1, -1))),
                pred.R, np.zeros((1, 3)), fr.camera, fr.raster,
                fr.mask_dist[None], cfg).data)
        assert br["mask"] > 0.0
        assert br["mask"] == pytest.approx(want / len(frames), rel=1e-12)

    def test_rng_stream_is_one_subset_and_one_sphere_per_frame(self):
        rng = np.random.default_rng(38)
        m = small_model(seed=11)
        frames = self._batch(rng)
        cfg = losses.LossConfig(n_mask_samples=25, min_k=2)
        used = np.random.default_rng(7)
        losses.total_loss(m, model.make_leaves(m), frames,
                          losses.LossWeights(), cfg, used, n_pixels=12)
        replay = np.random.default_rng(7)
        for fr in frames:
            losses._frame_pixel_subset(fr, 12, replay)
            losses.sample_sphere(cfg.n_mask_samples, replay)
        assert used.bit_generator.state == replay.bit_generator.state

    def test_terms_name_every_weight(self):
        # w_alpha and w_rot weigh parts of the prior term
        fields = {f.name for f in dataclasses.fields(losses.LossWeights)}
        named = [f for fs in losses.TERMS.values() for f in fs]
        assert sorted(named) == sorted(fields - {"w_alpha", "w_rot"})

    def test_ablating_every_term_zeroes_loss_and_gradients(self):
        rng = np.random.default_rng(35)
        m = small_model(seed=8)
        frames = self._batch(rng)
        w = train.effective_weights(losses.LossWeights(), losses.TERMS)
        leaves = model.make_leaves(m)
        total, _ = losses.total_loss(
            m, leaves, frames, w,
            losses.LossConfig(n_mask_samples=20, min_k=2),
            np.random.default_rng(4), n_pixels=None,
        )
        value, grads = tape.collect(total, leaves)
        assert value == 0.0
        assert not any(np.any(g) for g in grads.values())

    @staticmethod
    def _flat_param_objective(m, frames, cfg, weights):
        names = sorted(m.param_arrays())
        arrays = m.param_arrays()
        splits = np.cumsum([arrays[k].size for k in names])[:-1]
        x0 = np.concatenate([arrays[k].ravel() for k in names])
        bounds = dict(zip(names, zip(np.r_[0, splits], np.r_[splits, x0.size])))

        def f(v):
            leaves = {k: tape.reshape(v[slice(int(a), int(b))], arrays[k].shape)
                      for k, (a, b) in bounds.items()}
            total, _ = losses.total_loss(
                m, leaves, frames, weights, cfg,
                np.random.default_rng(3), n_pixels=None,
            )
            return total

        return f, x0, bounds

    def test_full_gradient_check_geometric_paths(self):
        # composite check through every network at once. Texture weights are
        # zeroed: the appearance stop-gradient makes the designed gradient on
        # the embedding parameters differ from the true derivative, so finite
        # differences can only certify the other terms on those coordinates.
        rng = np.random.default_rng(31)
        m = small_model(seed=6)
        frames = self._batch(rng, n=2)
        cfg = losses.LossConfig(n_mask_samples=12, min_k=1)
        w = losses.LossWeights(w_tex_photo=0.0, w_tex_percep=0.0)
        f, x0, _ = self._flat_param_objective(m, frames, cfg, w)
        rng_c = np.random.default_rng(32)
        coords = rng_c.choice(x0.size, size=60, replace=False)
        assert tape.grad_check(f, x0, coords=coords) < 1e-5

    def test_full_gradient_check_texture_path(self):
        # the texture network and its head sit behind no stop-gradient, so
        # their derivative through the full default objective is complete
        rng = np.random.default_rng(33)
        m = small_model(seed=7)
        frames = self._batch(rng, n=2)
        cfg = losses.LossConfig(n_mask_samples=12, min_k=1)
        f, x0, bounds = self._flat_param_objective(
            m, frames, cfg, losses.LossWeights()
        )
        pool = np.concatenate([
            np.arange(int(a), int(b))
            for k, (a, b) in bounds.items()
            if k in ("net:texture", "net:texture_head")
        ])
        coords = np.random.default_rng(34).choice(pool, size=40, replace=False)
        assert tape.grad_check(f, x0, coords=coords) < 1e-5
