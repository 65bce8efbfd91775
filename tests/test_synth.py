"""Generator contracts: exact geometry, recoverable poses, dataset IO."""

import dataclasses

import numpy as np
import pytest

from defmap import geom, synth
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
def clean_cat():
    return synth.generate_category(synth.fixed_point_spec(seed=5))


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
        batches = synth.make_batches(inst, w, 5, 40, rng)
        assert len(batches) == 40
        for b in batches:
            assert len(b) == 5
            assert len(np.unique(inst[b])) == 5

    def test_weights_steer_sampling(self):
        rng = np.random.default_rng(7)
        inst = np.arange(10)
        w = np.ones(10)
        w[3] = 50.0
        batches = synth.make_batches(inst, w, 2, 300, rng)
        hits = sum(3 in b for b in batches)
        assert hits > 200  # weight-50 frame should appear almost always

    def test_infeasible(self):
        with pytest.raises(InfeasibleConstraint):
            synth.make_batches(np.zeros(8, int), np.ones(8), 2, 1,
                               np.random.default_rng(8))


class RenderedGeometryContract:
    """Per-frame geometry every camera kind renders exactly; subclasses
    supply the category as the ``small_cat`` fixture."""

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
            assert np.all(np.isfinite(fr.depth[fr.mask]))
            assert np.all(np.isnan(fr.depth[~fr.mask]))
            assert np.all(fr.mask_dist[fr.mask] == 0)
            assert np.all(fr.mask_dist[~fr.mask] > 0)
            assert fr.mask[fr.pix_rc[:, 0], fr.pix_rc[:, 1]].all()


class TestPerspectiveRenderedGeometry(RenderedGeometryContract):
    @pytest.fixture(scope="class")
    def small_cat(self):
        return synth.generate_category(
            dataclasses.replace(SMALL, camera_kind=geom.PERSPECTIVE))


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
                fr.descriptors, clean_cat.pixel_descriptor(fr.gt_kappa)
            )
            np.testing.assert_array_equal(
                fr.kp_desc, clean_cat.pixel_descriptor(clean_cat.keypoints)
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
            clean = small_cat.pixel_descriptor(fr.gt_kappa)
            resid = fr.descriptors - clean
            assert 0.5 * s < resid.std() < 2.0 * s

    def test_noisy_rotation_label_close_not_exact(self, small_cat):
        for fr in small_cat.frames[:3]:
            d = (3.0 - np.trace(fr.labels.rotation.T @ fr.gt_R)) / 2.0
            assert 0 < d < 0.01

    def test_instance_descriptor_separates_instances(self, small_cat):
        # frames of different instances in the same pose get distinct codes
        v6 = np.concatenate([np.eye(3)[:, 0], np.eye(3)[:, 1]])
        d0 = small_cat.instance_descriptor(small_cat.alphas[0],
                                           small_cat.betas[0], v6)
        d1 = small_cat.instance_descriptor(small_cat.alphas[1],
                                           small_cat.betas[1], v6)
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
    elif isinstance(a, tuple):              # scramble pairs
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]")
    else:
        assert a == b, where


class TestDatasetIO:
    def test_roundtrip(self, tmp_path, small_cat):
        root = tmp_path / "cat"
        synth.save_category(root, small_cat)
        back = synth.load_category(root)
        assert back.spec == small_cat.spec
        assert len(back.frames) == len(small_cat.frames)
        for f in dataclasses.fields(synth.GroundTruthCategory):
            if f.name not in ("spec", "frames"):
                assert_same(getattr(small_cat, f.name), getattr(back, f.name),
                            f.name)
        for a, b in zip(small_cat.frames, back.frames):
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
            fr.descriptors, back.pixel_descriptor(fr.gt_kappa)
        )


class TestPresets:
    def test_fixed_point_spec_is_clean(self):
        spec = synth.fixed_point_spec()
        assert spec.sigma_descriptor == 0
        assert spec.sigma_label == 0
        assert spec.constant_albedo
        assert spec.background_matches_albedo

    def test_benchmark_spec_valid(self):
        spec = synth.benchmark_spec(seed=9)
        assert spec.n_instances >= 10
        assert spec.sigma_descriptor > 0

    def test_levels_memoized(self, clean_cat):
        fr = clean_cat.frames[0]
        assert fr.levels((2, 4)) is fr.levels((2, 4))
