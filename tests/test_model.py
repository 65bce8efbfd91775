"""Model contracts: embeddings, basis linearity, texture range, heads, io."""

import numpy as np
import pytest

from defmap import geom, model, nets, tape
from defmap.errors import DimMismatch

DIMS = model.ModelDims(
    descriptor_dim=6,
    instance_dim=5,
    n_shape_coeffs=4,
    n_texture_coeffs=3,
    embed_hidden=8,
    embed_blocks=1,
    basis_hidden=8,
    basis_blocks=1,
    texture_hidden=8,
    texture_blocks=1,
    head_hidden=8,
    head_blocks=1,
)


def small_model(mode=model.AMORTIZED, n_frames=0, dims=DIMS, seed=0):
    return model.init_model(dims, mode, np.random.default_rng(seed),
                            n_frames=n_frames)


class TestEmbedding:
    def test_embeddings_are_unit(self):
        m = small_model()
        rng = np.random.default_rng(1)
        kappa = model.embed_np(m, rng.standard_normal((50, 6)))
        np.testing.assert_allclose(np.linalg.norm(kappa, axis=1), 1.0, atol=1e-12)

    def test_forced_axis_output_normalizes(self):
        m = small_model()
        # force the embedding net to output (0,0,c) with c>0 for every input
        p = m.nets["embed"]
        p.view("w_out")[:] = 0.0
        p.view("b_out")[:] = np.array([0.0, 0.0, 2.5])
        kappa = model.embed_np(m, np.random.default_rng(2).standard_normal((7, 6)))
        np.testing.assert_allclose(kappa, np.tile([0, 0, 1.0], (7, 1)), atol=1e-12)


class TestBasisAndReconstruction:
    def test_reconstruction_linear_in_alpha(self):
        m = small_model()
        rng = np.random.default_rng(3)
        kappa = rng.standard_normal((10, 3))
        kappa /= np.linalg.norm(kappa, axis=1, keepdims=True)
        a1, a2 = rng.standard_normal(4), rng.standard_normal(4)
        s, t = 0.7, -1.3
        x1 = model.surface_sample(m, kappa, a1)
        x2 = model.surface_sample(m, kappa, a2)
        x12 = model.surface_sample(m, kappa, s * a1 + t * a2)
        np.testing.assert_allclose(x12, s * x1 + t * x2, atol=1e-10)

    def test_basis_shape(self):
        m = small_model()
        B = model.basis_np(m, np.tile([0, 0, 1.0], (6, 1)))
        assert B.shape == (6, 3, 4)

    def test_basis_continuity(self):
        m = small_model(seed=4)
        k = np.array([[0.6, 0.0, 0.8]])
        dk = np.array([[1e-7, 0.0, 0.0]])
        b0 = model.basis_np(m, k)
        b1 = model.basis_np(m, k + dk)
        assert np.max(np.abs(b1 - b0)) < 1e-4

    def test_surface_sample_validates_shape(self):
        m = small_model()
        with pytest.raises(DimMismatch):
            model.surface_sample(m, np.zeros((5, 2)), np.zeros(4))


class TestTexture:
    def test_zero_logits_give_half_gray(self):
        m = small_model()
        p = m.nets["texture"]
        p.view("w_out")[:] = 0.0
        p.view("b_out")[:] = 0.0
        leaves = model.make_leaves(m)
        kappa = np.tile([0, 0, 1.0], (5, 1))
        beta = tape.Var(np.zeros((1, 3)))
        out = model.texture_at(m, leaves, kappa, beta, np.zeros(5, int))
        np.testing.assert_allclose(out.data, 0.5, atol=1e-12)

    def test_colors_in_unit_interval(self):
        m = small_model(seed=5)
        leaves = model.make_leaves(m)
        rng = np.random.default_rng(6)
        kappa = rng.standard_normal((40, 3))
        kappa /= np.linalg.norm(kappa, axis=1, keepdims=True)
        beta = rng.standard_normal((2, 3)) * 3
        out = model.texture_at(m, leaves, kappa, tape.Var(beta),
                               np.repeat([0, 1], 20))
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_beta_changes_colors(self):
        m = small_model(seed=7)
        leaves = model.make_leaves(m)
        kappa = np.tile([1.0, 0, 0], (3, 1))
        seg = np.zeros(3, int)
        c1 = model.texture_at(m, leaves, kappa, np.array([[2.0, 0, 0]]), seg)
        c2 = model.texture_at(m, leaves, kappa, np.array([[-2.0, 0, 0]]), seg)
        assert np.max(np.abs(c1.data - c2.data)) > 1e-6


class TestPredictFrame:
    def test_zeroed_view_head_gives_identity(self):
        m = small_model(seed=8)
        p = m.nets["view_head"]
        p.view("w_out")[:] = 0.0
        p.view("b_out")[:] = geom.IDENTITY_6D
        leaves = model.make_leaves(m)
        pred = model.predict_frame(
            m, leaves, np.random.default_rng(9).standard_normal((1, 5)), [0],
            np.random.default_rng(10).standard_normal((4, 6)),
        )
        np.testing.assert_allclose(pred.R.data[0], np.eye(3), atol=1e-12)

    def test_direct_latents_pass_through(self):
        m = small_model(mode=model.DIRECT_LATENT, n_frames=3)
        rng = np.random.default_rng(11)
        m.latents["alpha"][1] = rng.standard_normal(4)
        m.latents["beta"][1] = rng.standard_normal(3)
        leaves = model.make_leaves(m)
        pred = model.predict_frame(m, leaves, None, [1],
                                   rng.standard_normal((2, 6)))
        np.testing.assert_array_equal(pred.alpha.data[0], m.latents["alpha"][1])
        np.testing.assert_array_equal(pred.beta.data[0], m.latents["beta"][1])
        np.testing.assert_allclose(pred.R.data[0], np.eye(3), atol=1e-12)

    def test_instance_descriptor_width_checked(self):
        # the heads' own input check: (F,G) rows of the model's width
        m = small_model()
        leaves = model.make_leaves(m)
        for g in (np.zeros((2, 4)), np.zeros((2, 6)), np.zeros(5)):
            with pytest.raises(DimMismatch):
                model.predict_frame(m, leaves, g, [0, 1], np.zeros((3, 6)))

    def test_direct_frame_index_checked(self):
        m = small_model(mode=model.DIRECT_LATENT, n_frames=2)
        leaves = model.make_leaves(m)
        with pytest.raises(DimMismatch):
            model.predict_frame(m, leaves, None, [5], np.zeros((1, 6)))

    def test_pinned_first_coeff(self):
        dims = model.ModelDims(
            **{**DIMS.__dict__, "pin_first_coeff": True}
        )
        m = small_model(dims=dims, seed=12)
        leaves = model.make_leaves(m)
        pred = model.predict_frame(
            m, leaves, np.random.default_rng(13).standard_normal((1, 5)), [0],
            np.zeros((1, 6)),
        )
        assert pred.alpha.data[0, 0] == 1.0
        loss = tape.vsum(pred.alpha * pred.alpha)
        tape.backward(loss)
        # gradient w.r.t. the head flows only through the free coefficients
        assert np.isfinite(leaves["net:shape_head"].grad).all()

    def test_batch_rows_match_single_frames(self):
        for mode, n_frames in ((model.AMORTIZED, 0), (model.DIRECT_LATENT, 4)):
            m = small_model(mode=mode, n_frames=n_frames, seed=23)
            for arr in m.param_arrays().values():
                arr += 0.1 * np.random.default_rng(24).standard_normal(arr.shape)
            g = np.random.default_rng(25).standard_normal((3, 5))
            d = np.random.default_rng(26).standard_normal((3, 6))
            ids = [3, 0, 2]
            batch = model.predict_frame(m, model.make_leaves(m), g, ids, d)
            assert batch.R.shape == (3, 3, 3)
            for f in range(3):
                one = model.predict_np(m, g[f], ids[f], d[f:f + 1])
                for key in ("alpha", "beta", "R"):
                    np.testing.assert_allclose(getattr(batch, key).data[f],
                                               one[key], rtol=1e-13, atol=1e-15)

    def test_prediction_deterministic(self):
        m = small_model(seed=14)
        g = np.random.default_rng(15).standard_normal(5)
        d = np.random.default_rng(16).standard_normal((8, 6))
        a = model.predict_np(m, g, 0, d)
        b = model.predict_np(m, g, 0, d)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])


class TestModelCheckpoint:
    def test_amortized_roundtrip_bit_exact(self, tmp_path):
        m = small_model(seed=17)
        path = tmp_path / "model.ckpt"
        model.save_model(path, m)
        m2 = model.load_model(path)
        assert m2.mode == m.mode
        assert m2.dims == m.dims
        for key in m.nets:
            assert m2.nets[key].values.tobytes() == m.nets[key].values.tobytes()

    def test_direct_roundtrip_keeps_latents(self, tmp_path):
        m = small_model(mode=model.DIRECT_LATENT, n_frames=4, seed=18)
        m.latents["alpha"][:] = np.random.default_rng(19).standard_normal((4, 4))
        path = tmp_path / "model.ckpt"
        model.save_model(path, m)
        m2 = model.load_model(path)
        assert m2.mode == model.DIRECT_LATENT
        for key in m.latents:
            assert m2.latents[key].tobytes() == m.latents[key].tobytes()

    def test_predictions_survive_roundtrip(self, tmp_path):
        m = small_model(seed=20)
        path = tmp_path / "model.ckpt"
        model.save_model(path, m)
        m2 = model.load_model(path)
        g = np.random.default_rng(21).standard_normal(5)
        d = np.random.default_rng(22).standard_normal((6, 6))
        a = model.predict_np(m, g, 0, d)
        b = model.predict_np(m2, g, 0, d)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])
