"""Residual MLP contracts: structure, gradients, checkpoints."""

import numpy as np
import pytest

from defmap import cli, nets, tape
from defmap import model as model_mod
from defmap.errors import DimMismatch


def composed_mlp_forward(theta, cfg, x):
    """Reference: the same net built from generic tape ops, a slice of the
    flat vector per layer, so a call is 56-77 nodes instead of one."""
    theta, x = tape.as_var(theta), tape.as_var(x)
    views, off = {}, 0
    for name, shape in nets.layer_shapes(cfg):
        size = int(np.prod(shape))
        views[name] = tape.reshape(theta[slice(off, off + size)], shape)
        off += size

    def linear(inp, layer, bias):
        return inp @ tape.transpose(views[layer]) + views[bias]

    h = linear(x, "w_in", "b_in")
    for k in range(cfg.n_res_blocks):
        # relu: clip's gradient gate (a > 0) is relu's
        r = tape.clip(linear(nets.l2norm_rows(h), f"blk{k}_w1", f"blk{k}_b1"),
                      0.0, np.inf)
        h = h + linear(r, f"blk{k}_w2", f"blk{k}_b2")
    return linear(h, "w_out", "b_out")


NET_CONFIGS = [
    *(pytest.param(cfg, id=f"paper-{name}")
      for name, cfg in model_mod.ModelDims().net_configs().items()),
    *(pytest.param(cfg, id=f"gradcheck-{name}")
      for name, cfg in cli._gradcheck_model(0).dims.net_configs().items()),
]


TEXTURE_CONFIGS = [
    pytest.param(model_mod.ModelDims().net_configs()["texture"],
                 id="paper-texture"),
    pytest.param(cli._gradcheck_model(0).dims.net_configs()["texture"],
                 id="gradcheck-texture"),
]


def _grads(forward, theta0, cfg, x0, w):
    theta, x = tape.Var(theta0), tape.Var(x0)
    out = forward(theta, cfg, x)
    tape.backward(tape.vsum(out * tape.Var(w)))
    return out.data, theta.grad, x.grad


def _assert_rel_close(got, want, rtol=1e-13):
    assert np.all(np.isfinite(got))
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestStructure:
    def test_zero_residual_blocks_pass_through(self):
        cfg = nets.MlpConfig(in_dim=4, hidden_dim=4, out_dim=4, n_res_blocks=3)
        p = nets.init_params(cfg, np.random.default_rng(0))
        # identity input layer, identity output layer, zero blocks
        p.view("w_in")[:] = np.eye(4)
        p.view("b_in")[:] = 0
        p.view("w_out")[:] = np.eye(4)
        p.view("b_out")[:] = 0
        for k in range(3):
            p.view(f"blk{k}_w1")[:] = 0
            p.view(f"blk{k}_b1")[:] = 0
            p.view(f"blk{k}_w2")[:] = 0
            p.view(f"blk{k}_b2")[:] = 0
        x = np.random.default_rng(1).standard_normal((6, 4))
        np.testing.assert_allclose(nets.mlp_eval(p, x), x, atol=1e-12)

    def test_zero_output_layer_gives_zero(self):
        cfg = nets.MlpConfig(in_dim=3, hidden_dim=8, out_dim=5, n_res_blocks=2)
        p = nets.init_params(cfg, np.random.default_rng(2), out_scale=0.0)
        x = np.random.default_rng(3).standard_normal((10, 3))
        np.testing.assert_array_equal(nets.mlp_eval(p, x), np.zeros((10, 5)))

    def test_single_row_input(self):
        # a (1,in_dim) row gives the row of any batch it sits in
        cfg = nets.MlpConfig(in_dim=3, hidden_dim=6, out_dim=2, n_res_blocks=1)
        p = nets.init_params(cfg, np.random.default_rng(4))
        x = np.random.default_rng(5).standard_normal((4, 3))
        single = nets.mlp_eval(p, x[2:3])
        batch = nets.mlp_eval(p, x)
        assert single.shape == (1, 2)
        np.testing.assert_allclose(single[0], batch[2], atol=1e-14)

    def test_one_dimensional_input_raises(self):
        cfg = nets.MlpConfig(in_dim=3, hidden_dim=6, out_dim=2, n_res_blocks=1)
        theta = nets.init_params(cfg, np.random.default_rng(4)).values
        for x in (np.zeros(3), tape.Var(np.zeros(3)), np.zeros((1, 1, 3))):
            with pytest.raises(DimMismatch):
                nets.mlp_forward(theta, cfg, x)

    def test_width_mismatch_raises(self):
        cfg = nets.MlpConfig(in_dim=3, hidden_dim=6, out_dim=2)
        p = nets.init_params(cfg, np.random.default_rng(6))
        with pytest.raises(DimMismatch):
            nets.mlp_eval(p, np.zeros((4, 5)))

    def test_l2norm_rows_unit_norm_and_guard(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 5)) * 3.0
        out = nets.l2norm_rows(tape.Var(x)).data
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
        # zero row: guard keeps the output finite (and zero)
        z = nets.l2norm_rows(tape.Var(np.zeros((1, 5)))).data
        np.testing.assert_array_equal(z, np.zeros((1, 5)))

    def test_param_count_and_views_cover_vector(self):
        cfg = nets.MlpConfig(in_dim=5, hidden_dim=7, out_dim=4, n_res_blocks=2)
        total = sum(int(np.prod(s)) for _, s in nets.layer_shapes(cfg))
        assert nets.n_params(cfg) == total
        p = nets.init_params(cfg, np.random.default_rng(8))
        p.view("b_out")[:] = 42.0
        assert p.values[-4:].tolist() == [42.0] * 4


class TestGradients:
    def test_full_mlp_gradient_matches_fd(self):
        cfg = nets.MlpConfig(in_dim=3, hidden_dim=5, out_dim=2, n_res_blocks=2)
        rng = np.random.default_rng(9)
        theta0 = nets.init_params(cfg, rng).values
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((4, 2))

        def f(theta):
            out = nets.mlp_forward(theta, cfg, x)
            return tape.vsum(out * tape.Var(w))

        assert tape.grad_check(f, theta0) < 1e-6

    def test_gradient_wrt_input(self):
        cfg = nets.MlpConfig(in_dim=4, hidden_dim=6, out_dim=3, n_res_blocks=1)
        rng = np.random.default_rng(10)
        p = nets.init_params(cfg, rng)

        def f(v):
            out = nets.mlp_forward(p.values, cfg, tape.reshape(v, (2, 4)))
            return tape.vsum(out * out)

        assert tape.grad_check(f, rng.standard_normal(8)) < 1e-6

    def test_forward_is_deterministic(self):
        cfg = nets.MlpConfig(in_dim=6, hidden_dim=16, out_dim=4)
        p = nets.init_params(cfg, np.random.default_rng(11))
        x = np.random.default_rng(12).standard_normal((32, 6))
        a = nets.mlp_eval(p, x)
        b = nets.mlp_eval(p, x)
        np.testing.assert_array_equal(a, b)


class TestOneNode:
    @pytest.mark.parametrize("n_rows", [1, 5, 220, 1000])
    @pytest.mark.parametrize("cfg", NET_CONFIGS)
    def test_matches_composed_ops(self, cfg, n_rows):
        rng = np.random.default_rng(n_rows)
        theta = nets.init_params(cfg, rng).values
        theta += 0.25 * rng.standard_normal(theta.shape)
        x = rng.standard_normal((n_rows, cfg.in_dim))
        w = rng.standard_normal((n_rows, cfg.out_dim))
        out, g_theta, g_x = _grads(nets.mlp_forward, theta, cfg, x, w)
        ref_out, ref_theta, ref_x = _grads(composed_mlp_forward, theta, cfg,
                                           x, w)
        np.testing.assert_array_equal(out, ref_out)
        _assert_rel_close(g_theta, ref_theta)
        _assert_rel_close(g_x, ref_x)

    @pytest.mark.parametrize("cfg", NET_CONFIGS)
    def test_zero_hidden_row_gradient(self, cfg):
        # with b_in zeroed, a zero input row reaches the first block's
        # normalization as an all-zero row, and a tiny one as a row inside
        # the clamp, where the gradient gate must cut the norm's gradient
        rng = np.random.default_rng(3)
        p = nets.init_params(cfg, rng)
        p.view("b_in")[:] = 0.0
        x = rng.standard_normal((4, cfg.in_dim))
        x[2] = 0.0
        x[3] *= 1e-12
        w = rng.standard_normal((4, cfg.out_dim))
        out, g_theta, g_x = _grads(nets.mlp_forward, p.values, cfg, x, w)
        ref_out, ref_theta, ref_x = _grads(composed_mlp_forward, p.values,
                                           cfg, x, w)
        np.testing.assert_array_equal(out, ref_out)
        _assert_rel_close(g_theta, ref_theta)
        _assert_rel_close(g_x, ref_x)

    @pytest.mark.parametrize("cfg", NET_CONFIGS)
    def test_array_input_gets_no_gradient(self, cfg):
        rng = np.random.default_rng(4)
        theta0 = nets.init_params(cfg, rng).values
        x = rng.standard_normal((7, cfg.in_dim))
        w = rng.standard_normal((7, cfg.out_dim))
        out, g_theta, _ = _grads(nets.mlp_forward, theta0, cfg, x, w)
        theta = tape.Var(theta0)
        plain = nets.mlp_forward(theta, cfg, x)
        assert plain._parents == (theta,)
        tape.backward(tape.vsum(plain * tape.Var(w)))
        assert plain.data.tobytes() == out.tobytes()
        assert theta.grad.tobytes() == g_theta.tobytes()

    @pytest.mark.parametrize("x_var", [False, True], ids=["array-x", "var-x"])
    @pytest.mark.parametrize("seg", [[0] * 6, [1, 1, 0, 2, 0, 2]],
                             ids=["one-frame", "three-frames"])
    @pytest.mark.parametrize("cfg", TEXTURE_CONFIGS)
    def test_frame_columns_match_the_concatenated_input(self, cfg, seg,
                                                        x_var):
        rng = np.random.default_rng(5)
        theta0 = nets.init_params(cfg, rng).values
        theta0 += 0.25 * rng.standard_normal(theta0.shape)
        seg = np.array(seg)
        x0 = rng.standard_normal((len(seg), 3))
        fx0 = rng.standard_normal((seg.max() + 1, cfg.in_dim - 3))
        w = rng.standard_normal((len(seg), cfg.out_dim))
        runs = []
        for split in (True, False):
            theta, fx = tape.Var(theta0), tape.Var(fx0)
            x = tape.Var(x0) if x_var else x0
            out = (nets.mlp_forward(theta, cfg, x, fx, seg) if split else
                   nets.mlp_forward(theta, cfg,
                                    tape.concat([x, fx[seg]])))
            tape.backward(tape.vsum(out * tape.Var(w)))
            runs.append([out.data, theta.grad, fx.grad]
                        + ([x.grad] if x_var else []))
        for got, want in zip(*runs):
            _assert_rel_close(got, want)

    def test_one_call_is_one_node(self):
        cfg = nets.MlpConfig(in_dim=3, hidden_dim=6, out_dim=2, n_res_blocks=2)
        theta = tape.Var(nets.init_params(cfg, np.random.default_rng(1)).values)
        x = tape.Var(np.random.default_rng(2).standard_normal((5, 3)))
        out = nets.mlp_forward(theta, cfg, x)
        assert out._parents == (theta, x)
        assert theta._parents == () and x._parents == ()


def _node_at(dtype, theta0, cfg, x0, w, fx0=None, seg=None):
    """Output and every gradient of one node whose ``theta`` leaf is
    ``theta0`` cast to ``dtype``; ``x`` (and ``frame_x``) are float64."""
    theta, x = tape.Var(theta0.astype(dtype)), tape.Var(x0)
    fx = None if fx0 is None else tape.Var(fx0)
    out = nets.mlp_forward(theta, cfg, x, fx, seg)
    tape.backward(tape.vsum(out * tape.Var(w)))
    return [out.data, theta.grad, x.grad] + ([] if fx is None else [fx.grad])


class TestFloat32Node:
    """A float32 ``theta`` (a training step's leaves) against float64 (every
    other caller): the node computes in float32 and hands back float64."""

    RTOL = 1e-5  # ~80 float32 ulps; measured at most ~1.1e-6 on these nets

    def _compare(self, theta0, cfg, x0, fx0=None, seg=None):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((len(x0), cfg.out_dim))
        got = _node_at(np.float32, theta0, cfg, x0, w, fx0, seg)
        want = _node_at(np.float64, theta0, cfg, x0, w, fx0, seg)
        assert len(got) == len(want)
        for g32, g64 in zip(got, want):
            assert g32.dtype == np.float64 and g32.shape == g64.shape
            _assert_rel_close(g32, g64, rtol=self.RTOL)

    @pytest.mark.parametrize("cfg", NET_CONFIGS)
    def test_plain_input(self, cfg):
        rng = np.random.default_rng(7)
        theta0 = nets.init_params(cfg, rng).values
        theta0 += 0.25 * rng.standard_normal(theta0.shape)
        self._compare(theta0, cfg, rng.standard_normal((220, cfg.in_dim)))

    @pytest.mark.parametrize("cfg", NET_CONFIGS)
    def test_frame_columns(self, cfg):
        rng = np.random.default_rng(8)
        theta0 = nets.init_params(cfg, rng).values
        theta0 += 0.25 * rng.standard_normal(theta0.shape)
        d = cfg.in_dim // 2  # per-row columns; the rest are per frame
        seg = rng.integers(0, 10, 220)
        self._compare(theta0, cfg, rng.standard_normal((220, d)),
                      rng.standard_normal((10, cfg.in_dim - d)), seg)

    @pytest.mark.parametrize("cfg", NET_CONFIGS)
    def test_zero_hidden_row(self, cfg):
        # as in TestOneNode: an all-zero and a tiny first-block row, at and
        # inside the ``sq > 1e-16`` gate, which float32 must honour too
        rng = np.random.default_rng(9)
        p = nets.init_params(cfg, rng)
        p.view("b_in")[:] = 0.0
        x = rng.standard_normal((6, cfg.in_dim))
        x[2] = 0.0
        x[3] *= 1e-12
        self._compare(p.values, cfg, x)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = nets.MlpConfig(in_dim=5, hidden_dim=9, out_dim=7, n_res_blocks=3)
        p = nets.init_params(cfg, np.random.default_rng(13))
        path = tmp_path / "net.mlp"
        nets.save_mlp(path, p)
        q = nets.load_mlp(path)
        assert q.config == cfg
        assert q.values.tobytes() == p.values.tobytes()

    def test_out_bias_seeding(self):
        cfg = nets.MlpConfig(in_dim=2, hidden_dim=4, out_dim=6, n_res_blocks=0)
        bias = np.array([1.0, 0, 0, 0, 1.0, 0])
        p = nets.init_params(
            cfg, np.random.default_rng(15), out_scale=0.0, out_bias=bias
        )
        out = nets.mlp_eval(p, np.random.default_rng(16).standard_normal((3, 2)))
        np.testing.assert_allclose(out, np.tile(bias, (3, 1)), atol=1e-15)
