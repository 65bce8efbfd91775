"""Generator contracts: exact geometry, recoverable poses, dataset IO."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from defmap import cli, geom, synth
from defmap.errors import (
    DimMismatch,
    GimbalDegenerate,
    InfeasibleConstraint,
    InvalidSpec,
)

SMALL = synth.CategorySpec(
    seed=11, n_instances=3, frames_per_instance=2, image_h=48, image_w=48,
    n_surface_samples=12000,
)


@pytest.fixture(scope="module")
def small_cat():
    return synth.generate_category(SMALL)


@pytest.fixture(scope="module")
def persp_cat():
    return synth.generate_category(
        dataclasses.replace(SMALL, camera_kind=geom.PERSPECTIVE))


@pytest.fixture(scope="module")
def clean_cat():
    return synth.generate_category(synth.fixed_point_spec(seed=5))


def scrambles(cat):
    """``cat`` with its descriptor noise off: its descriptors are then the
    bare scrambles, and they draw nothing from their rng."""
    return dataclasses.replace(
        cat, spec=dataclasses.replace(cat.spec, sigma_descriptor=0.0))


class TestShBasis:
    def _scipy_real_sh(self, kappa):
        # independent route: real harmonics assembled from scipy's complex ones
        from scipy.special import sph_harm_y

        x, y, z = kappa[:, 0], kappa[:, 1], kappa[:, 2]
        polar = np.arccos(np.clip(z, -1, 1))
        azim = np.arctan2(y, x)
        cols = []
        for ell in range(4):
            for m in range(-ell, ell + 1):
                Y = sph_harm_y(ell, abs(m), polar, azim)
                if m == 0:
                    cols.append(Y.real)
                elif m > 0:
                    cols.append((-1.0) ** m * np.sqrt(2.0) * Y.real)
                else:
                    cols.append((-1.0) ** m * np.sqrt(2.0) * Y.imag)
        return np.stack(cols, axis=1)

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        kappa = synth.fibonacci_sphere(500)
        got = synth.sh_basis(kappa)
        want = self._scipy_real_sh(kappa)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_orthonormal_monte_carlo(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((200_000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        Y = synth.sh_basis(v)
        gram = 4 * np.pi * (Y.T @ Y) / len(v)
        np.testing.assert_allclose(gram, np.eye(synth.SH_DIM), atol=0.05)

    def test_rejects_bad_shape(self):
        with pytest.raises(DimMismatch):
            synth.sh_basis(np.zeros(3))


class TestSphereSampling:
    def test_fibonacci_unit_and_spread(self):
        pts = synth.fibonacci_sphere(2000)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        assert np.linalg.norm(pts.mean(axis=0)) < 0.01

    def test_farthest_point_sample(self):
        pts = synth.fibonacci_sphere(400)
        idx = synth.farthest_point_sample(pts, 12)
        assert len(np.unique(idx)) == 12
        sub = pts[idx]
        d = np.linalg.norm(sub[:, None] - sub[None], axis=2)
        min_gap = d[~np.eye(12, dtype=bool)].min()
        rng = np.random.default_rng(2)
        rand = pts[rng.choice(400, 12, replace=False)]
        d2 = np.linalg.norm(rand[:, None] - rand[None], axis=2)
        assert min_gap > d2[~np.eye(12, dtype=bool)].min()

    def test_fps_validates(self):
        with pytest.raises(DimMismatch):
            synth.farthest_point_sample(synth.fibonacci_sphere(5), 9)


class TestSpecValidation:
    def test_defaults_valid(self):
        synth.CategorySpec()

    @pytest.mark.parametrize("kwargs", [
        {"camera_kind": "fisheye"},
        {"n_instances": 0},
        {"image_h": 8},
        {"n_keypoints": 2},
        {"sigma_label": -0.1},
        {"elevation_limit": np.deg2rad(85.0)},
        {"azimuth_major_weight": 0.3},
        {"n_surface_samples": 10},
        {"camera_kind": geom.PERSPECTIVE, "standoff": 1.0},
        {"sh_degree": 4},
        {"azimuth_sigma": -0.1},
        {"seed": -1},
        {"camera_kind": geom.PERSPECTIVE, "focal": 0.0},
        {"camera_kind": geom.PERSPECTIVE, "focal": -3.2},
        {"n_keypoints": synth.KEYPOINT_SPHERE + 1},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(InvalidSpec):
            synth.CategorySpec(**kwargs)

    def test_band_limited_basis_is_affine(self):
        # degree-1 field: B(k) must be reproducible from 4 support points
        spec = synth.CategorySpec(seed=5, n_instances=2, sh_degree=1,
                                  n_surface_samples=3000)
        cat = synth.generate_category(spec)
        assert not np.any(cat.basis_coeffs[4:])
        k = np.random.default_rng(0).standard_normal((50, 3))
        k /= np.linalg.norm(k, axis=1, keepdims=True)
        B = cat.basis_at(k).reshape(50, -1)
        A = np.concatenate([k, np.ones((50, 1))], axis=1)
        coef, *_ = np.linalg.lstsq(A[:4], B[:4], rcond=None)
        np.testing.assert_allclose(A @ coef, B, atol=1e-12)


class TestPoses:
    def test_azimuth_roundtrip(self):
        for az in np.linspace(-np.pi + 0.01, np.pi - 0.01, 17):
            for el in (-0.4, 0.0, 0.45):
                got = synth.azimuth_of(synth.pose_rotation(az, el))
                assert got == pytest.approx(az, abs=1e-12)

    def test_top_down_view_keeps_azimuth(self):
        # camera axis parallel to world z: the pose is a pure z-rotation and
        # the azimuth is still observable as in-image rotation
        assert synth.azimuth_of(synth.pose_rotation(0.3, np.pi / 2)) \
            == pytest.approx(0.3, abs=1e-12)

    def test_gimbal_degenerate(self):
        # camera axis antiparallel to world z: a half-turn about an in-plane
        # axis absorbs any amount of z-twist, so the azimuth is undefined
        R = synth.pose_rotation(0.3, -np.pi / 2)
        with pytest.raises(GimbalDegenerate):
            synth.azimuth_of(R)


class TestRebalance:
    def test_mean_one(self):
        rng = np.random.default_rng(5)
        az = rng.normal(0.7, 0.3, size=200)
        w = synth.rebalance_weights(az)
        assert w.mean() == pytest.approx(1.0)

    def test_equalizes_bin_mass(self):
        az = np.concatenate([np.full(90, 0.1), np.full(10, np.pi - 0.1)])
        w = synth.rebalance_weights(az)
        assert w[:90].sum() == pytest.approx(w[90:].sum())

    def test_uniform_input_uniform_weights(self):
        az = np.linspace(-np.pi, np.pi, 160, endpoint=False) + 2 * np.pi / 320
        w = synth.rebalance_weights(az)
        np.testing.assert_allclose(w, 1.0, atol=1e-12)


class TestMakeBatches:
    def test_distinct_instances(self):
        rng = np.random.default_rng(6)
        inst = np.repeat(np.arange(6), 4)
        w = np.ones(24)
        for _ in range(40):
            b = synth.make_batches(inst, w, 5, rng)
            assert len(b) == 5
            assert len(np.unique(inst[b])) == 5

    def test_weights_steer_sampling(self):
        rng = np.random.default_rng(7)
        inst = np.arange(10)
        w = np.ones(10)
        w[3] = 50.0
        hits = sum(3 in synth.make_batches(inst, w, 2, rng) for _ in range(300))
        assert hits > 200  # weight-50 frame should appear almost always

    def test_infeasible(self):
        with pytest.raises(InfeasibleConstraint):
            synth.make_batches(np.zeros(8, int), np.ones(8), 2,
                               np.random.default_rng(8))


def zbuffer_argsort(spec, px, z):
    """Reference z-buffer: every splat entry written far to near after a
    stable sort, so each pixel keeps the last-written nearest entry."""
    H, W = spec.image_h, spec.image_w
    cols = np.rint(px[:, 0]).astype(int)
    rows = np.rint(px[:, 1]).astype(int)
    offsets = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
    all_r = np.concatenate([rows + dr for dr, _ in offsets])
    all_c = np.concatenate([cols + dc for _, dc in offsets])
    all_z = np.tile(z, len(offsets))
    all_i = np.tile(np.arange(len(z)), len(offsets))
    ok = (all_r >= 0) & (all_r < H) & (all_c >= 0) & (all_c < W)
    all_r, all_c, all_z, all_i = all_r[ok], all_c[ok], all_z[ok], all_i[ok]
    order = np.argsort(-all_z, kind="stable")
    depth = np.full((H, W), np.nan)
    winner = np.full((H, W), -1, dtype=int)
    depth[all_r[order], all_c[order]] = all_z[order]
    winner[all_r[order], all_c[order]] = all_i[order]
    return winner >= 0, depth, winner


def refine_every_pixel(cat, alpha, R, t, cam, kappa0, target_y, tol=1e-12,
                       max_iter=60):
    """Reference refinement: every pixel steps until all have converged or
    ``max_iter`` is reached, with five residual calls per iteration."""
    e1, e2 = synth._tangent_frame(kappa0)
    delta = np.zeros((kappa0.shape[0], 2))

    def kappa_of(d):
        k = kappa0 + d[:, 0:1] * e1 + d[:, 1:2] * e2
        return k / np.linalg.norm(k, axis=1, keepdims=True)

    def residual(d):
        pts = cat.surface_points(kappa_of(d), alpha) @ R.T + t
        return geom.project(cam, pts) - target_y

    h = 1e-7
    for _ in range(max_iter):
        r = residual(delta)
        if np.nanmax(np.linalg.norm(r, axis=1), initial=0.0) <= tol:
            break
        J = np.empty((kappa0.shape[0], 2, 2))
        for a in range(2):
            step = np.zeros_like(delta)
            step[:, a] = h
            J[:, :, a] = (residual(delta + step) - residual(delta - step)) / (2 * h)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        det = np.where(np.abs(det) < 1e-18, np.nan, det)
        du = (J[:, 1, 1] * r[:, 0] - J[:, 0, 1] * r[:, 1]) / det
        dv = (J[:, 0, 0] * r[:, 1] - J[:, 1, 0] * r[:, 0]) / det
        step = np.stack([du, dv], axis=1)
        norm = np.maximum(np.linalg.norm(step, axis=1, keepdims=True), 1e-30)
        step = step * np.minimum(1.0, 0.2 / norm)
        step = np.where(np.isfinite(step), step, 0.0)
        delta = delta - step
    rnorm = np.linalg.norm(residual(delta), axis=1)
    return kappa_of(delta), rnorm, np.isfinite(rnorm) & (rnorm <= tol)


def refine_gathering(cat, alpha, R, t, cam, kappa0, target_y, tol=1e-12,
                     max_iter=60):
    """Bit-for-bit reference of ``synth._refine_pixels``: the same steps,
    with each iteration gathering its active rows from the full arrays and
    stacking a Jacobian. Also returns the iteration each pixel finished at
    (``max_iter`` if it never did)."""
    kappa0 = np.asarray(kappa0, dtype=np.float64)
    e1, e2 = synth._tangent_frame(kappa0)
    n = kappa0.shape[0]
    delta = np.zeros((n, 2))
    rnorm = np.empty(n)
    finished = np.full(n, max_iter)
    coeff = np.einsum("scd,d->sc", cat.basis_coeffs, alpha)

    def kappa_of(idx, d):
        k = kappa0[idx] + d[..., 0:1] * e1[idx] + d[..., 1:2] * e2[idx]
        return k / np.linalg.norm(k, axis=-1, keepdims=True)

    def residual(idx, d):
        k = kappa_of(idx, d).reshape(-1, 3)
        pts = synth.sh_basis(k) @ coeff + alpha[0] * k
        y = geom.project(cam, pts @ R.T + t).reshape(d.shape)
        return y - target_y[idx]

    h = 1e-7
    probes = np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    active = np.arange(n)
    for it in range(max_iter):
        if not len(active):
            break
        r, rp0, rm0, rp1, rm1 = residual(active, delta[active] + probes[:, None])
        rn = np.linalg.norm(r, axis=1)
        done = rn <= tol
        rnorm[active[done]] = rn[done]
        finished[active[done]] = it
        J = np.stack([(rp0 - rm0) / (2 * h), (rp1 - rm1) / (2 * h)], axis=2)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        det = np.where(np.abs(det) < 1e-18, np.nan, det)
        du = (J[:, 1, 1] * r[:, 0] - J[:, 0, 1] * r[:, 1]) / det
        dv = (J[:, 0, 0] * r[:, 1] - J[:, 1, 0] * r[:, 0]) / det
        step = np.stack([du, dv], axis=1)
        norm = np.maximum(np.linalg.norm(step, axis=1, keepdims=True), 1e-30)
        step = step * np.minimum(1.0, 0.2 / norm)
        step = np.where(np.isfinite(step), step, 0.0)
        active, step = active[~done], step[~done]
        delta[active] -= step
    rnorm[active] = np.linalg.norm(residual(active, delta[active]), axis=1)
    ok = np.isfinite(rnorm) & (rnorm <= tol)
    return kappa_of(np.arange(n), delta), rnorm, ok, finished


def assert_bits_equal(got, want):
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def dense_splat(cat, fr):
    """Pixel positions and depths of the dense sphere sampling of frame
    ``fr``, as rendering splats them."""
    dense = synth.fibonacci_sphere(cat.spec.n_surface_samples)
    Xc = cat.surface_points(dense, fr.gt_alpha) @ fr.gt_R.T + fr.gt_t
    return dense, fr.raster.to_px(geom.project(fr.camera, Xc)), Xc[:, 2]


class RenderedGeometryContract:
    """Per-frame geometry every camera kind renders exactly; subclasses
    supply the category as the ``small_cat`` fixture."""

    def test_zbuffer_matches_sorted_writes(self, small_cat):
        # each frame's splat, and the same splat blown up past the image
        # borders with its depths coarsened into ties between centres
        spec = small_cat.spec
        mid = np.array([spec.image_w - 1, spec.image_h - 1]) / 2.0
        for fr in small_cat.frames:
            _, px, z = dense_splat(small_cat, fr)
            for p, d in ((px, z), (mid + 1.6 * (px - mid), np.round(z * 8))):
                got = synth._zbuffer(spec, p, d)
                want = zbuffer_argsort(spec, p, d)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype
                    np.testing.assert_array_equal(g, w)

    def test_refinement_matches_every_pixel_reference(self, small_cat):
        for fr in small_cat.frames:
            dense, px, z = dense_splat(small_cat, fr)
            mask, _, winner = synth._zbuffer(small_cat.spec, px, z)
            rows, cols = np.nonzero(mask)
            args = (small_cat, fr.gt_alpha, fr.gt_R, fr.gt_t, fr.camera,
                    dense[winner[rows, cols]],
                    fr.raster.from_px(np.stack([cols, rows], 1).astype(float)))
            kappa, _, ok = synth._refine_pixels(*args)
            want_kappa, _, want_ok = refine_every_pixel(*args)
            np.testing.assert_array_equal(ok, want_ok)
            np.testing.assert_array_equal(
                fr.pix_rc, np.stack([rows, cols], 1)[want_ok])
            np.testing.assert_allclose(kappa[ok], want_kappa[ok], rtol=0,
                                       atol=1e-9)
            np.testing.assert_array_equal(fr.gt_kappa, kappa[ok])

    def test_refinement_equals_the_gathering_loop_bit_for_bit(self, small_cat):
        fr = small_cat.frames[0]
        dense, px, z = dense_splat(small_cat, fr)
        mask, _, winner = synth._zbuffer(small_cat.spec, px, z)
        rows, cols = np.nonzero(mask)
        seeds = dense[winner[rows, cols]]
        target = fr.raster.from_px(np.stack([cols, rows], 1).astype(float))
        # a last pixel whose seed already reprojects onto its target
        on_seed = geom.project(fr.camera, small_cat.surface_points(
            seeds[:1], fr.gt_alpha) @ fr.gt_R.T + fr.gt_t)
        seeds = np.concatenate([seeds, seeds[:1]])
        target = np.concatenate([target, on_seed])
        # on the point surface alpha = 0 every Jacobian is singular, so no
        # pixel moves; the one aimed at the point is done at once
        point = np.zeros_like(fr.gt_alpha)
        at_point = geom.project(fr.camera, fr.gt_t[None])
        for alpha, k0, y in ((fr.gt_alpha, seeds, target),
                             (point, seeds[:4],
                              np.concatenate([at_point, target[:3]]))):
            args = (small_cat, alpha, fr.gt_R, fr.gt_t, fr.camera, k0, y)
            got = synth._refine_pixels(*args)
            *want, finished = refine_gathering(*args)
            for g, w in zip(got, want):
                assert_bits_equal(g, w)
            if alpha is point:
                assert finished.tolist() == [0, 60, 60, 60]
                assert_bits_equal(got[0], k0 / np.linalg.norm(
                    k0, axis=1, keepdims=True))
            else:
                assert finished[-1] == 0
                # converged after different numbers of steps, and never
                assert len(np.unique(finished[finished < 60])) >= 3
                assert (~got[2]).any() and (finished[~got[2]] == 60).all()

    def test_refined_pixels_reproject_exactly(self, small_cat):
        worst = 0.0
        for fr in small_cat.frames:
            X = small_cat.surface_points(fr.gt_kappa, fr.gt_alpha) @ fr.gt_R.T \
                + fr.gt_t
            y = geom.project(fr.camera, X)
            worst = max(worst, float(np.abs(y - fr.pix_y).max()))
        assert worst <= 1e-12

    def test_pixel_centers(self, small_cat):
        for fr in small_cat.frames:
            rc = fr.pix_rc
            want = fr.raster.from_px(np.stack([rc[:, 1], rc[:, 0]], 1).astype(float))
            np.testing.assert_array_equal(fr.pix_y, want)

    def test_image_color_consistency(self, small_cat):
        for fr in small_cat.frames:
            np.testing.assert_array_equal(
                fr.image[fr.pix_rc[:, 0], fr.pix_rc[:, 1]], fr.colors
            )

    def test_kappa_unit(self, small_cat):
        for fr in small_cat.frames:
            np.testing.assert_allclose(
                np.linalg.norm(fr.gt_kappa, axis=1), 1.0, atol=1e-12
            )

    def test_depth_and_mask(self, small_cat):
        for fr in small_cat.frames:
            on = np.isfinite(fr.depth)     # the silhouette
            assert np.all(fr.mask_dist[on] == 0)
            assert np.all(fr.mask_dist[~on] > 0)
            assert on[fr.pix_rc[:, 0], fr.pix_rc[:, 1]].all()

    def test_visibility_matches_per_keypoint_loop(self, small_cat):
        # reference: the visibility rule applied one keypoint at a time
        for fr in small_cat.frames:
            Xk = small_cat.surface_points(small_cat.keypoints, fr.gt_alpha) \
                @ fr.gt_R.T + fr.gt_t
            px = fr.raster.to_px(geom.project(fr.camera, Xk))
            h, w = fr.depth.shape
            want = np.zeros(len(Xk), dtype=bool)
            for k, (c, r) in enumerate(np.rint(px).astype(int)):
                if 0 <= r < h and 0 <= c < w:
                    d = fr.depth[r, c]
                    want[k] = np.isfinite(d) and Xk[k, 2] <= d + 0.05
            render = {"raster": fr.raster, "camera": fr.camera,
                      "depth": fr.depth}
            got = synth._keypoint_visibility(small_cat, fr.instance_id,
                                             fr.gt_R, fr.gt_t, render)
            np.testing.assert_array_equal(got, want)


def test_zbuffer_ties_go_to_the_last_entry():
    # (col, row) positions and depths; samples 0 and 1 splat onto column 6
    # at equal depth, 0 through offset (0, +1) and 1 through the earlier
    # offset (0, -1); sample 3 is nearer than the later sample 4 at one
    # spot; sample 2 sits on the corner and loses its off-image entries
    px = np.array([[5.0, 5.0], [7.0, 5.0], [0.0, 0.0], [20.0, 20.0],
                   [20.0, 20.0]])
    z = np.array([0.5, 0.5, 1.0, 0.25, 1.0])
    # centres one pixel outside each border (and the corner) splat onto
    # the edge, centres two pixels outside do not; samples 0 and 1 reach
    # column 0 at equal depth, 0 through the later offset (0, +1)
    edge_px = np.array([[-1.0, 10.0], [1.0, 10.0], [48.0, 20.0],
                        [30.0, -1.0], [40.0, 48.0], [-1.0, -1.0],
                        [-2.0, 30.0], [49.0, 30.0], [10.0, -2.0],
                        [20.0, 49.0], [-2.0, -1.0]])
    edge_z = np.full(len(edge_px), 0.5)
    for p, d in ((px, z), (edge_px, edge_z)):
        for got, want in zip(synth._zbuffer(SMALL, p, d),
                             zbuffer_argsort(SMALL, p, d)):
            np.testing.assert_array_equal(got, want)
    mask, depth, winner = synth._zbuffer(SMALL, edge_px, edge_z)
    assert (winner[9:12, 0] == 0).all() and (winner[9:12, 1:3] == 1).all()
    assert (winner[19:22, 47] == 2).all() and (winner[0, 29:32] == 3).all()
    assert (winner[47, 39:42] == 4).all() and winner[0, 0] == 5
    assert mask.sum() == 9 + 3 * 3 + 1 and (depth[mask] == 0.5).all()

    mask, depth, winner = synth._zbuffer(SMALL, px, z)
    assert (winner[4:7, 6] == 0).all() and (depth[4:7, 6] == 0.5).all()
    assert (winner[4:7, 4] == 0).all() and (winner[4:7, 8] == 1).all()
    assert (winner[19:22, 19:22] == 3).all()
    assert (depth[19:22, 19:22] == 0.25).all()
    assert (winner[:2, :2] == 2).all()
    assert mask.sum() == 15 + 9 + 4 and np.isnan(depth[~mask]).all()


def test_zbuffer_allocates_little_at_preset_size():
    # the preset's 24,000 samples on its 64x64 image; nine shifted copies
    # of every sample would take ~12 MB
    spec = synth.CategorySpec()
    rng = np.random.default_rng(0)
    px = rng.uniform(-2.0, 66.0, (spec.n_surface_samples, 2))
    z = rng.uniform(2.0, 4.0, spec.n_surface_samples)
    tracemalloc.start()
    try:
        synth._zbuffer(spec, px, z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def silhouettes():
    """(name, mask) pairs for the mask distance transform."""
    rng = np.random.default_rng(8)
    border = np.zeros((20, 20), dtype=bool)
    border[0, 5:9] = border[7:, 19] = border[19, 0] = True
    single = np.zeros((17, 23), dtype=bool)
    single[3, 21] = True
    corner = np.zeros((16, 16), dtype=bool)
    corner[15, 15] = True
    yy, xx = np.mgrid[:64, :64]
    yield "border", border
    yield "single", single
    yield "corner", corner
    yield "full", np.ones((18, 18), dtype=bool)
    yield "ellipse", (yy - 30) ** 2 / 400 + (xx - 33) ** 2 / 250 < 1
    yield "wide", rng.random((16, 40)) < 0.05
    yield "tall", rng.random((40, 16)) < 0.05
    for p in (0.002, 0.3, 0.95):
        m = rng.random((48, 48)) < p
        m[24, 24] = True
        yield f"random{p}", m


@pytest.mark.parametrize("block", [synth._EDT_BLOCK, 1])
def test_mask_distance_equals_scipy_bit_for_bit(monkeypatch, block):
    from scipy.ndimage import distance_transform_edt
    monkeypatch.setattr(synth, "_EDT_BLOCK", block)   # 1: a row per block
    for name, mask in silhouettes():
        got = synth._mask_distance(mask)
        want = distance_transform_edt(~mask)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


#: dataset_hash of gradcheck-size categories, pinned so that a faster
#: generator must keep every byte it writes
PINNED_HASHES = {
    geom.ORTHOGRAPHIC:
        "f9099ff5cf462ca8c6b9e02803afece4d8825f29e7b3317017556aa5769148f7",
    geom.PERSPECTIVE:
        "3f16e2a909f52ea068096f2503753c170dd9ec9df1669fedf6fb37347240627b",
}


@pytest.mark.parametrize("kind", sorted(PINNED_HASHES))
def test_generated_bytes_are_pinned(tmp_path, kind):
    spec = synth.CategorySpec(
        seed=17, n_instances=3, frames_per_instance=1, image_h=16,
        image_w=16, camera_kind=kind, n_shape_coeffs=2, n_keypoints=6,
        descriptor_dim=6, instance_desc_dim=5, n_texture_params=3,
        sigma_descriptor=0.02, sigma_label=0.01, n_surface_samples=1000)
    synth.save_category(tmp_path, synth.generate_category(spec))
    assert synth.dataset_hash(tmp_path) == PINNED_HASHES[kind]


def test_empty_silhouette_fails_before_the_dataset_is_written(
        tmp_path, monkeypatch, capsys):
    def empty_zbuffer(spec, px, z):
        h, w = spec.image_h, spec.image_w
        return (np.zeros((h, w), dtype=bool), np.full((h, w), np.nan),
                np.full((h, w), -1))

    monkeypatch.setattr(synth, "_zbuffer", empty_zbuffer)
    spec = tmp_path / "spec.json"
    spec.write_text('{"n_instances": 1, "frames_per_instance": 1, '
                    '"image_h": 20, "image_w": 20, "n_surface_samples": 1200}')
    out = tmp_path / "ds"
    code = cli.main(["synth-gen", "--out", str(out), "--spec", str(spec)])
    assert code == cli.EXIT_CODES[InvalidSpec]
    assert "empty silhouette" in capsys.readouterr().err
    assert not out.exists()


class TestPerspectiveRenderedGeometry(RenderedGeometryContract):
    @pytest.fixture(scope="class")
    def small_cat(self, persp_cat):
        return persp_cat


class TestRenderedGeometry(RenderedGeometryContract):
    def test_instances_unit_variance(self, small_cat):
        probe = synth.fibonacci_sphere(4000)
        for i in range(small_cat.spec.n_instances):
            pts = small_cat.surface_points(probe, small_cat.alphas[i])
            c = pts - pts.mean(axis=0)
            assert np.mean(np.sum(c**2, axis=1)) == pytest.approx(1.0, rel=1e-9)

    def test_visibility_against_occlusion_oracle(self, small_cat):
        # independent route, two-sided. A raw depth gap over the footprint
        # cannot distinguish occlusion from surface slope, so:
        #  - frontmost across the whole 3x3 rasterization footprint -> visible
        #  - a 3d-distant sheet strictly in front of the keypoint's own line
        #    of sight, and in front across the full footprint -> hidden
        # anything between is a genuine sub-pixel boundary case and skipped
        dense = synth.fibonacci_sphere(20000)
        n_vis, n_hid = 0, 0
        for fr in small_cat.frames:
            Xd = small_cat.surface_points(dense, fr.gt_alpha) @ fr.gt_R.T + fr.gt_t
            pd = fr.raster.to_px(geom.project(fr.camera, Xd))
            rpd = np.rint(pd)
            Xk = small_cat.surface_points(small_cat.keypoints, fr.gt_alpha) \
                @ fr.gt_R.T + fr.gt_t
            pk = fr.raster.to_px(geom.project(fr.camera, Xk))
            rpk = np.rint(pk)
            h, w = fr.image.shape[:2]
            for k in range(len(Xk)):
                if not (0 <= rpk[k, 0] < w and 0 <= rpk[k, 1] < h):
                    continue
                foot = np.abs(rpd - rpk[k]).max(axis=1) <= 1.0
                if not foot.any():
                    continue
                if Xk[k, 2] - Xd[foot, 2].min() < 0.06:
                    assert fr.labels.visible[k]
                    n_vis += 1
                    continue
                ray = np.abs(pd - pk[k]).max(axis=1) <= 0.5
                if ray.sum() < 3:
                    continue
                j = np.flatnonzero(ray)[np.argmin(Xd[ray, 2])]
                if Xk[k, 2] - Xd[j, 2] < 0.25 \
                        or np.linalg.norm(Xd[j] - Xk[k]) < 0.5:
                    continue
                covered = True
                for dc in (-1, 0, 1):
                    for dr in (-1, 0, 1):
                        m = (rpd[:, 0] == rpk[k, 0] + dc) \
                            & (rpd[:, 1] == rpk[k, 1] + dr)
                        if m.any() and Xd[m, 2].min() > Xk[k, 2] - 0.15:
                            covered = False
                if covered:
                    assert not fr.labels.visible[k]
                    n_hid += 1
        assert n_vis >= 3 and n_hid >= 10    # both branches exercised

    def test_some_keypoints_hidden(self, small_cat):
        vis = np.stack([fr.labels.visible for fr in small_cat.frames])
        assert vis.any(axis=1).all()          # never an empty visible set
        assert (~vis).any()                   # occlusion actually happens

    def test_embedding_alignment_negative_at_gt(self, small_cat):
        for fr in small_cat.frames:
            kbar = fr.gt_kappa.mean(axis=0)
            kbar /= np.linalg.norm(kbar)
            assert (fr.gt_R @ kbar)[2] < -0.5


class TestDescriptorsAndLabels:
    def test_clean_descriptors_are_pure_scrambles(self, clean_cat):
        for fr in clean_cat.frames[:3]:
            np.testing.assert_array_equal(
                fr.descriptors,
                clean_cat.pixel_descriptor(fr.gt_kappa, np.random.default_rng())
            )
            np.testing.assert_array_equal(
                fr.kp_desc, clean_cat.pixel_descriptor(
                    clean_cat.keypoints, np.random.default_rng())
            )

    def test_clean_labels_exact(self, clean_cat):
        kp_basis = clean_cat.basis_at(clean_cat.keypoints)
        for fr in clean_cat.frames[:3]:
            np.testing.assert_array_equal(fr.labels.basis, kp_basis)
            np.testing.assert_array_equal(fr.labels.alpha, fr.gt_alpha)
            np.testing.assert_allclose(fr.labels.rotation, fr.gt_R, atol=1e-15)

    def test_noisy_descriptors_perturbed_at_sigma(self, small_cat):
        s = small_cat.spec.sigma_descriptor
        assert s > 0
        for fr in small_cat.frames[:2]:
            clean = scrambles(small_cat).pixel_descriptor(
                fr.gt_kappa, np.random.default_rng())
            resid = fr.descriptors - clean
            assert 0.5 * s < resid.std() < 2.0 * s

    def test_noisy_rotation_label_close_not_exact(self, small_cat):
        for fr in small_cat.frames[:3]:
            d = (3.0 - np.trace(fr.labels.rotation.T @ fr.gt_R)) / 2.0
            assert 0 < d < 0.01

    def test_instance_descriptor_separates_instances(self, small_cat):
        # frames of different instances in the same pose get distinct codes
        v6 = np.concatenate([np.eye(3)[:, 0], np.eye(3)[:, 1]])
        cat, rng = scrambles(small_cat), np.random.default_rng()
        d0 = cat.instance_descriptor(cat.alphas[0], cat.betas[0], v6, rng)
        d1 = cat.instance_descriptor(cat.alphas[1], cat.betas[1], v6, rng)
        assert np.linalg.norm(d0 - d1) > 0.1

    def test_constant_albedo_everywhere(self, clean_cat):
        c0 = clean_cat.frames[0].colors[0]
        for fr in clean_cat.frames:
            np.testing.assert_array_equal(fr.colors,
                                          np.tile(c0, (len(fr.colors), 1)))
            np.testing.assert_array_equal(fr.image,
                                          np.broadcast_to(c0, fr.image.shape))

    def test_textured_albedo_varies(self, small_cat):
        fr = small_cat.frames[0]
        assert fr.colors.std(axis=0).max() > 0.02


def assert_same(a, b, where: str):
    """Equal values of one type; arrays also of one dtype."""
    assert type(a) is type(b), where
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, where
        np.testing.assert_array_equal(a, b, err_msg=where)
    elif dataclasses.is_dataclass(a):       # camera, raster, labels
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name),
                        f"{where}.{f.name}")
    else:
        assert a == b, where


class TestDatasetIO:
    def test_roundtrip(self, tmp_path, small_cat, persp_cat):
        for cat in (small_cat, persp_cat):
            root = tmp_path / cat.spec.camera_kind
            assert sorted(synth.save_category(root, cat)) == sorted(
                p.name for p in root.iterdir())
            back = synth.load_category(root)
            assert back.spec == cat.spec
            assert len(back.frames) == len(cat.frames)
            for f in dataclasses.fields(synth.GroundTruthCategory):
                if f.name not in ("spec", "frames"):
                    assert_same(getattr(cat, f.name), getattr(back, f.name),
                                f.name)
            for a, b in zip(cat.frames, back.frames):
                for f in dataclasses.fields(synth.Frame):
                    if f.name != "_levels":
                        assert_same(getattr(a, f.name), getattr(b, f.name),
                                    f"frame {a.frame_id} {f.name}")

    def test_hash_stable_and_sensitive(self, tmp_path, small_cat):
        r1, r2 = tmp_path / "a", tmp_path / "b"
        synth.save_category(r1, small_cat)
        synth.save_category(r2, small_cat)
        h1 = synth.dataset_hash(r1)
        assert h1 == synth.dataset_hash(r2)
        # manifests are bookkeeping, not data
        (r1 / "manifest.json").write_text("{}")
        assert synth.dataset_hash(r1) == h1
        # payload bits are data
        p = r1 / "keypoints.csv"
        p.write_text(p.read_text().replace("0", "1", 1))
        assert synth.dataset_hash(r1) != h1

    def test_loaded_category_regenerates_descriptors(self, tmp_path, clean_cat):
        root = tmp_path / "cat"
        synth.save_category(root, clean_cat)
        back = synth.load_category(root)
        fr = back.frames[0]
        np.testing.assert_array_equal(
            fr.descriptors,
            back.pixel_descriptor(fr.gt_kappa, np.random.default_rng())
        )


class TestPresets:
    def test_fixed_point_spec_is_clean(self):
        spec = synth.fixed_point_spec(seed=0)
        assert spec.sigma_descriptor == 0
        assert spec.sigma_label == 0
        assert spec.constant_albedo
        assert spec.background_matches_albedo

    def test_benchmark_spec_valid(self):
        spec = cli._PRESETS["benchmark"](seed=9)
        assert spec.n_instances >= 10
        assert spec.sigma_descriptor > 0

    def test_levels_memoized(self, clean_cat):
        fr = clean_cat.frames[0]
        assert fr.levels((2, 4)) is fr.levels((2, 4))
