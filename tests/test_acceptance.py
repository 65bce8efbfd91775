"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test here is a contract the package must keep; run with ``-v`` to get
one pass/fail line per criterion. Every criterion runs on small inputs and
trains only tiny models; none checks that a fit recovers held-out shapes.
"""

import time

import numpy as np
import numpy.testing as npt
import pytest
from conftest import window_mean_pyramid

from defmap import cli, geom, losses, metrics, synth, tape, train
from defmap import model as model_mod

C = losses.LossConfig()
W = losses.LossWeights()


@pytest.fixture(scope="module")
def clean_cat():
    """Noise-free constant-albedo category: ground truth is a loss zero."""
    spec = synth.CategorySpec(
        seed=7, n_instances=20, frames_per_instance=1,
        image_h=64, image_w=64, n_shape_coeffs=3,
        sigma_descriptor=0.0, sigma_label=0.0,
        constant_albedo=True, background_matches_albedo=True,
    )
    return synth.generate_category(spec)


class TestCriterion01LossGradients:
    TOL = 1e-4
    BUDGET_S = 120.0

    def test_every_loss_passes_finite_difference_checks(self):
        t0 = time.time()
        rows = cli.run_gradcheck(None, False, n_points=100, seed=0)
        elapsed = time.time() - t0
        assert len(rows) == len(cli.GRADCHECK_ROWS)
        worst = {name: err for name, err, ok in rows if not ok}
        assert not worst, f"rows over {self.TOL}: {worst}"
        assert max(err for _, err, _ in rows) < self.TOL
        assert elapsed < self.BUDGET_S, f"{elapsed:.0f}s over budget"


class TestCriterion02TranslationOptimality:
    TOL = 1e-6
    N_INSTANCES = 100
    GD_ITERS = 10_000
    BUDGET_S = 60.0

    def test_closed_form_matches_gradient_descent(self):
        t0 = time.time()
        rng = np.random.default_rng(42)
        A_all, c_all, closed = [], [], []
        for _ in range(self.N_INSTANCES):
            n = int(rng.integers(3, 21))
            while True:
                rays = losses.sample_sphere(n, rng)
                A = n * np.eye(3) - rays.T @ rays
                if np.linalg.cond(A) < 50.0:   # non-parallel ray instances
                    break
            X = 1.5 * rng.standard_normal((n, 3))
            closed.append(losses.closed_form_translation(
                tape.Var(X), rays, np.zeros(n, int), 1).data[0])
            A_all.append(A)
            c_all.append(X.sum(axis=0)
                         - (rays * np.sum(rays * X, axis=1, keepdims=True)).sum(axis=0))
        A_all = np.stack(A_all)
        c_all = np.stack(c_all)
        lams = np.linalg.eigvalsh(A_all)
        eta = 1.0 / (lams[:, 0] + lams[:, 2])
        # minimize f(t) = t^T A t + 2 c^T t (+const), the quadratic ray objective
        t = np.zeros((self.N_INSTANCES, 3))
        for _ in range(self.GD_ITERS):
            t -= eta[:, None] * 2.0 * (np.einsum("nij,nj->ni", A_all, t) + c_all)
        gaps = np.linalg.norm(np.stack(closed) - t, axis=1)
        assert gaps.max() < self.TOL, f"max gap {gaps.max():.3e}"
        assert time.time() - t0 < self.BUDGET_S


class TestCriterion03RayGradientBound:
    BOUND = 1.0 + 1e-6
    NAIVE_FLOOR = 1e3

    def test_ray_residual_gradient_bounded_at_all_magnitudes(self):
        rng = np.random.default_rng(0)
        rays = losses.sample_sphere(60, rng)
        for mag in (1.0, 1e3, 1e6):
            X = mag * losses.sample_sphere(60, rng)
            v = tape.Var(X)
            tape.backward(losses.ray_projection_loss(v, rays, C))
            per_point = np.linalg.norm(v.grad, axis=1)
            assert per_point.max() <= self.BOUND, \
                f"|grad|={per_point.max():.6f} at magnitude {mag:g}"

    def test_naive_perspective_gradient_explodes_near_image_plane(self):
        rng = np.random.default_rng(0)
        cam = geom.CameraIntrinsics(geom.PERSPECTIVE, np.eye(3))
        X = np.column_stack([
            rng.uniform(0.5, 1.5, 60), rng.uniform(0.5, 1.5, 60),
            np.full(60, 1e-3),
        ])
        v = tape.Var(X)
        proj = geom.project_var(cam, v, min_depth=1e-4)  # below the probe
        tape.backward(tape.vsum(losses.pseudo_huber_rows(
            proj - np.zeros((60, 2)), C.eps_geom)))
        per_point = np.linalg.norm(v.grad, axis=1)
        assert per_point.min() > self.NAIVE_FLOOR


class TestCriterion04MetricOracles:
    N_PAIRS = 50
    RIGID_TOL = 1e-6

    def test_chamfer_equals_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(self.N_PAIRS):
            a = rng.standard_normal((int(rng.integers(5, 501)), 3))
            b = rng.standard_normal((int(rng.integers(5, 501)), 3))
            dmat = np.sqrt(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2))
            oracle = 0.5 * (dmat.min(axis=1).mean() + dmat.min(axis=0).mean())
            assert metrics.chamfer_symmetric(a, b) == oracle
        # same identity across the k-d tree cutoff
        a = rng.standard_normal((2500, 3))
        b = rng.standard_normal((2500, 3))
        dmat = np.sqrt(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2))
        oracle = 0.5 * (dmat.min(axis=1).mean() + dmat.min(axis=0).mean())
        npt.assert_allclose(metrics.chamfer_symmetric(a, b), oracle,
                            rtol=0, atol=1e-12)

    def test_depth_error_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(self.N_PAIRS):
            shape = (int(rng.integers(4, 40)), int(rng.integers(4, 40)))
            pred = rng.standard_normal(shape)
            gt = 2.5 * pred + 0.7 + 0.1 * rng.standard_normal(shape)
            mask = rng.random(shape) < 0.6
            mask.flat[:3] = True
            p, g = pred[mask], gt[mask]
            pm, gm = p.sum() / p.size, g.sum() / g.size
            ps = np.sqrt(((p - pm) ** 2).sum() / p.size)
            gs = np.sqrt(((g - gm) ** 2).sum() / g.size)
            oracle = np.abs((p - pm) / ps * gs + gm - g).mean()
            npt.assert_allclose(metrics.depth_error(p, g), oracle,
                                rtol=1e-12, atol=0)

    def test_d_pcl_scale_invariant_exactly(self):
        rng = np.random.default_rng(3)
        pred = rng.standard_normal((300, 3))
        gt = rng.standard_normal((280, 3))
        base = metrics.point_cloud_distance(pred, gt)
        for s in (0.25, 4.0):   # binary scales: normalization cancels exactly
            assert metrics.point_cloud_distance(s * pred, gt) == base

    def test_d_pcl_rigid_invariant_through_icp(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(self.N_PAIRS):
            X = rng.standard_normal((int(rng.integers(100, 400)), 3))
            X *= (1.0, 0.6, 0.3)   # distinct axis spreads keep PCA seeding well-posed
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            q *= np.linalg.det(q)
            moved = X @ q.T + 2.0 * rng.standard_normal(3)
            worst = max(worst, metrics.point_cloud_distance(moved, X))
        assert worst < self.RIGID_TOL, f"residual {worst:.3e}"


class TestCriterion05GroundTruthFixedPoint:
    TOL = 1e-8

    def test_every_loss_term_vanishes_at_generator_truth(self, clean_cat):
        cat = clean_cat
        color = cat.frames[0].colors[0]  # the constant albedo
        dims = model_mod.ModelDims(
            n_shape_coeffs=3, n_texture_coeffs=2,
            texture_hidden=8, texture_blocks=1,
        )
        mdl = model_mod.init_model(dims, model_mod.AMORTIZED,
                                   np.random.default_rng(0))
        tex = mdl.nets["texture"]
        tex.values[:] = 0.0
        tex.view("b_out")[:] = np.log(color / (1.0 - color))
        leaves = model_mod.make_leaves(mdl)

        worst = dict.fromkeys(
            ("prior", "repro", "emb_align", "mask", "texture"), -np.inf)
        for fr in cat.frames:
            lab = fr.labels
            vis = np.asarray(lab.visible, dtype=bool)
            worst["prior"] = max(worst["prior"], float(losses.prior_loss(
                tape.Var(lab.basis[vis]), tape.Var(lab.alpha[None]),
                tape.Var(lab.rotation[None]), [lab], W, C).data))

            pts = cat.surface_points(fr.gt_kappa, fr.gt_alpha)
            seg = np.zeros(len(pts), int)
            repro, _ = losses.reprojection_loss(
                tape.Var(pts), fr.gt_R[None], seg, fr.camera, fr.pix_y, C)
            worst["repro"] = max(worst["repro"], float(repro.data))

            # sign convention: the visible side faces the camera, so the
            # alignment score is strictly negative at ground truth
            ea = float(losses.embedding_alignment_loss(
                tape.Var(fr.gt_kappa), tape.Var(fr.gt_R[None]), seg).data)
            assert ea < 0.0
            worst["emb_align"] = max(worst["emb_align"], ea)

            soft = losses.mask_reprojection_loss(
                tape.Var(pts[None]), tape.Var(fr.gt_R[None]), fr.gt_t[None],
                fr.camera, fr.raster, fr.mask_dist[None], C)
            worst["mask"] = max(worst["mask"], float(soft.data))

            idx = np.arange(len(fr.gt_kappa))
            tex_total = losses.texture_loss(
                mdl, leaves, [fr], [idx], tape.Var(fr.gt_kappa),
                tape.Var(np.zeros((1, 2))), W, C)
            worst["texture"] = max(worst["texture"], float(tex_total.data))

        # min-k appearance: target pixels cross-projected into 6 references
        target, refs = cat.frames[0], cat.frames[1:7]
        rc = target.pix_rc
        tgt_colors = window_mean_pyramid(target.image,
                                         C.blur_radii)[rc[:, 0], rc[:, 1]]
        pts = np.stack([cat.surface_points(target.gt_kappa, ref.gt_alpha)
                        for ref in refs])
        coords = losses.cross_project(
            tape.Var(pts), tape.Var(np.stack([ref.gt_R for ref in refs])),
            np.stack([ref.gt_t for ref in refs]), target.camera, C)
        per_pixel, _ = losses.photometric_loss(
            refs, target.raster, coords, tgt_colors, C)
        min_k, _ = losses.min_k_loss(tape.transpose(per_pixel), C.min_k)
        worst["min_k"] = float(min_k.data)

        over = {k: v for k, v in worst.items() if not v < self.TOL}
        assert not over, f"terms over {self.TOL}: {over}"


class TestCriterion08ViewpointRebalancing:
    N_DRAWS = 100_000
    N_BINS = 16     # rebalance_weights' histogram

    def test_weighted_draws_uniformize_a_skewed_azimuth_distribution(self):
        rng = np.random.default_rng(11)
        m = 20_000
        # 4:1 bimodal: modes at 0 and pi, wide enough to occupy every bin
        modes = np.where(rng.random(m) < 0.8, 0.0, np.pi)
        az = modes + rng.normal(0.0, np.deg2rad(50.0), m)
        az = np.mod(az + np.pi, 2 * np.pi) - np.pi
        bins = np.minimum((az + np.pi) / (2 * np.pi) * self.N_BINS,
                          self.N_BINS - 1).astype(int)
        raw = np.bincount(bins, minlength=self.N_BINS)
        assert raw.min() > 0

        w = synth.rebalance_weights(az)
        draws = rng.choice(m, size=self.N_DRAWS, p=w / w.sum())
        hist = np.bincount(bins[draws], minlength=self.N_BINS)

        p = 1.0 / self.N_BINS
        sigma = np.sqrt(self.N_DRAWS * p * (1 - p))
        dev = np.abs(hist - self.N_DRAWS * p).max()
        assert dev <= 3.0 * sigma, f"max deviation {dev:.0f} > {3*sigma:.0f}"
        # the unweighted skew itself sits far outside the band
        raw_dev = np.abs(raw / m - p).max() * self.N_DRAWS
        assert raw_dev > 10.0 * sigma


class TestCriterion09StopGradient:
    def test_texture_loss_never_reaches_geometry_parameters(self, clean_cat):
        fr = clean_cat.frames[0]
        dims = model_mod.ModelDims(
            n_shape_coeffs=3, n_texture_coeffs=4,
            embed_hidden=12, embed_blocks=1, basis_hidden=12, basis_blocks=1,
            texture_hidden=12, texture_blocks=1, head_hidden=8, head_blocks=1,
        )
        rng = np.random.default_rng(5)
        mdl = model_mod.init_model(dims, model_mod.AMORTIZED, rng)
        for arr in mdl.param_arrays().values():
            arr += 0.3 * rng.standard_normal(arr.shape)
        leaves = model_mod.make_leaves(mdl)
        idx = np.arange(0, len(fr.descriptors), 7)
        pred = model_mod.predict_frame(mdl, leaves, [fr.instance_desc],
                                       [fr.frame_id], fr.descriptors[idx])
        total = losses.texture_loss(mdl, leaves, [fr], [idx], pred.kappa,
                                    pred.beta, W, C)
        tape.backward(total)
        for name in ("net:embed", "net:basis"):
            g = leaves[name].grad
            assert g is None or not np.any(g), f"{name} received gradient"
        for name in ("net:texture", "net:texture_head"):
            g = leaves[name].grad
            assert g is not None and np.any(g), f"{name} check is vacuous"


class TestCriterion10DeterminismAndResume:
    SPEC = synth.CategorySpec(
        seed=3, n_instances=3, frames_per_instance=2, image_h=20, image_w=20,
        n_shape_coeffs=2, n_keypoints=6, descriptor_dim=6,
        instance_desc_dim=5, n_texture_params=3, n_surface_samples=1200,
    )
    CFG = dict(batches_per_epoch=8, batch_size=2, n_pixels=24,
               n_eval_points=100, validate_every=0, seed=0,
               loss_cfg=losses.LossConfig(n_mask_samples=60))

    def _model(self, cat):
        dims = model_mod.ModelDims(
            descriptor_dim=6, instance_dim=5, n_shape_coeffs=2,
            n_texture_coeffs=3, embed_hidden=8, embed_blocks=1,
            basis_hidden=8, basis_blocks=1, texture_hidden=8,
            texture_blocks=1, head_hidden=6, head_blocks=1,
        )
        return model_mod.init_model(dims, model_mod.AMORTIZED,
                                    np.random.default_rng(0))

    def test_identical_seeds_reproduce_hashes_and_logs(self, tmp_path):
        hashes = []
        for sub in ("a", "b"):
            cat = synth.generate_category(self.SPEC)
            synth.save_category(tmp_path / sub, cat)
            hashes.append(synth.dataset_hash(tmp_path / sub))
        assert hashes[0] == hashes[1]

        cat = synth.generate_category(self.SPEC)
        ids = list(range(len(cat.frames)))
        logs = []
        for sub in ("r1", "r2"):
            cfg = train.TrainConfig(epochs=1, **self.CFG)
            train.fit(cat, self._model(cat), cfg, ids, ids, tmp_path / sub,
                      None)
            logs.append((tmp_path / sub / "log.csv").read_bytes())
        assert logs[0] == logs[1]

    def test_resume_is_bit_exact(self, tmp_path):
        cat = synth.generate_category(self.SPEC)
        ids = list(range(len(cat.frames)))
        u = tmp_path / "unbroken"
        train.fit(cat, self._model(cat), train.TrainConfig(epochs=2, **self.CFG),
                  ids, ids, u, None)

        r1 = tmp_path / "part1"
        train.fit(cat, self._model(cat), train.TrainConfig(epochs=1, **self.CFG),
                  ids, ids, r1, None)
        mdl = model_mod.load_model(r1 / "model_final.bin")
        state = train.load_state(r1 / "state_final.bin", mdl)
        r2 = tmp_path / "part2"
        train.fit(cat, mdl, train.TrainConfig(epochs=2, **self.CFG),
                  ids, ids, r2, state=state)

        assert (u / "model_final.bin").read_bytes() \
            == (r2 / "model_final.bin").read_bytes()
        u_rows = (u / "log.csv").read_text().splitlines()
        r2_rows = (r2 / "log.csv").read_text().splitlines()
        assert r2_rows[0] == u_rows[0]     # a new log.csv gets its header
        assert r2_rows[1:] == u_rows[1 + 8:]   # epoch-2 rows, byte for byte
