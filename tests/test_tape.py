"""Finite-difference verification of every autodiff primitive."""

import tracemalloc
import weakref

import numpy as np
import pytest

from defmap import losses, nets, tape
from defmap.errors import DimMismatch


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64).ravel()
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def _win_sum(img, win):
    """Centered window sums over the whole image, edges truncated."""
    r = win // 2
    h, w = img.shape[0], img.shape[1]
    acc = np.cumsum(np.cumsum(img, axis=0), axis=1)
    pad = np.zeros((h + 1, w + 1) + img.shape[2:])
    pad[1:, 1:] = acc
    y0 = np.clip(np.arange(h) - r, 0, h)
    y1 = np.clip(np.arange(h) + r + 1, 0, h)
    x0 = np.clip(np.arange(w) - r, 0, w)
    x1 = np.clip(np.arange(w) + r + 1, 0, w)
    return (
        pad[y1[:, None], x1[None, :]]
        - pad[y0[:, None], x1[None, :]]
        - pad[y1[:, None], x0[None, :]]
        + pad[y0[:, None], x0[None, :]]
    )


def reference_box_blur(a, radius):
    """Whole-image box blur of an (H,W,C) Var, as one graph node."""
    h, w = a.data.shape[0], a.data.shape[1]
    win = 2 * radius + 1
    cnt = _win_sum(np.ones((h, w)), win)[..., None]

    def vjp(g):
        return (_win_sum(np.asarray(g) / cnt, win),)

    return tape._node(_win_sum(a.data, win) / cnt, (a,), vjp)


def reference_window_mean(shape, rc, values, radius):
    """Scatter into a zero image, blur the whole image, gather at ``rc``."""
    out = np.zeros(shape)
    np.add.at(out, (rc[:, 0], rc[:, 1]), values.data)
    img = tape._node(out, (values,),
                     lambda g: (np.asarray(g)[rc[:, 0], rc[:, 1]],))
    return reference_box_blur(img, radius)[rc[:, 0], rc[:, 1]]


def check_op(build, n, rng, tol=1e-6, h=1e-6):
    """build(Var) -> scalar Var; compares tape gradient against FD."""
    x = rng.standard_normal(n)

    def f(v):
        return float(build(tape.Var(v)).data)

    leaf = tape.Var(x)
    out = build(leaf)
    tape.backward(out)
    ga = leaf.grad
    gf = fd_grad(f, x, h=h)
    err = np.max(np.abs(ga - gf) / np.maximum(1.0, np.maximum(np.abs(ga), np.abs(gf))))
    assert err < tol, f"max rel grad error {err:.3e}"


class TestArithmetic:
    def test_add_mul_broadcast(self):
        rng = np.random.default_rng(0)

        def build(v):
            a = tape.reshape(v[slice(0, 6)], (2, 3))
            b = v[slice(6, 9)]
            c = a * b + b - a / (b * b + 2.0)
            return tape.vsum(c * c)

        check_op(build, 9, rng)

    def test_sqrt(self):
        rng = np.random.default_rng(1)

        def build(v):
            p = v * v + 1.5  # keep strictly positive
            return tape.vsum(tape.sqrt(p))

        check_op(build, 7, rng)

    def test_matmul_all_arity(self):
        rng = np.random.default_rng(2)

        def build(v):
            A = tape.reshape(v[slice(0, 6)], (2, 3))
            B = tape.reshape(v[slice(6, 12)], (3, 2))
            m = A @ B
            return tape.vsum(m * m) + tape.vsum(v * v)

        check_op(build, 12, rng)
        A, x = tape.Var(np.ones((2, 3))), tape.Var(np.ones(3))
        for a, b in ((A, x), (x, A)):
            with pytest.raises(DimMismatch):
                tape.matmul(a, b)

    def test_sum_axes_and_mean(self):
        rng = np.random.default_rng(3)

        def build(v):
            a = tape.reshape(v, (3, 4))
            s0 = tape.vsum(a, axis=0)
            s1 = tape.vsum(a, axis=1, keepdims=True)
            return tape.vsum(s0 * s0) + tape.vsum(s1) + 2.0 * tape.vmean(a)

        check_op(build, 12, rng)


class TestNonlinear:
    def test_sigmoid(self):
        rng = np.random.default_rng(4)

        def build(v):
            return tape.vsum(tape.sigmoid(v) + tape.sigmoid(v) * tape.sigmoid(v + 0.3))

        check_op(build, 11, rng)

    def test_clip_gradient_gate(self):
        v = tape.Var(np.array([-1.0, 0.5, 2.0]))
        out = tape.vsum(tape.clip(v, 0.0, np.inf))
        tape.backward(out)
        np.testing.assert_array_equal(v.grad, [0.0, 1.0, 1.0])

    def test_detach_blocks_gradient(self):
        v = tape.Var(np.array([1.0, 2.0]))
        out = tape.vsum(tape.detach(v) * v)
        tape.backward(out)
        np.testing.assert_allclose(v.grad, v.data)  # only the live branch


class TestStructured:
    def test_take_scatter_adds(self):
        rng = np.random.default_rng(5)

        def build(v):
            a = tape.reshape(v, (4, 3))
            rows = a[np.array([0, 0, 2])]  # repeated row: grads must add
            return tape.vsum(rows * rows) + tape.vsum(a[1:, :2])

        check_op(build, 12, rng)

    def test_concat_stack_transpose(self):
        rng = np.random.default_rng(6)

        def build(v):
            a = v[slice(0, 4)]
            b = v[slice(4, 8)]
            c = tape.concat([a, b * 2.0])
            s = tape.stack([a, b])
            return tape.vsum(c * c) + tape.vsum(tape.transpose(s) @ s)

        check_op(build, 8, rng)

    def test_cross3(self):
        rng = np.random.default_rng(7)

        def build(v):
            a, b = v[slice(0, 3)], v[slice(3, 6)]
            c = tape.cross3(a, b)
            return tape.vsum(c * c) + tape.vsum(c)

        check_op(build, 6, rng)

    def test_solve_grads_both_args(self):
        rng = np.random.default_rng(8)

        def build(v):
            A = tape.reshape(v[slice(0, 9)], (3, 3)) + np.eye(3) * 4.0
            b = v[slice(9, 12)]
            x = tape.solve(A, b)
            return tape.vsum(x * x)

        check_op(build, 12, rng, tol=1e-5)

    def test_solve_matches_numpy(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((3, 3)) + np.eye(3) * 3
        b = rng.standard_normal(3)
        x = tape.solve(tape.Var(A), tape.Var(b))
        np.testing.assert_allclose(x.data, np.linalg.solve(A, b), atol=1e-12)

    def test_solve_stacked_grads_and_values(self):
        rng = np.random.default_rng(17)
        A0 = rng.standard_normal((2, 3, 3)) + np.eye(3) * 4.0
        b0 = rng.standard_normal((2, 3))
        x = tape.solve(tape.Var(A0), tape.Var(b0)).data
        for f in range(2):
            np.testing.assert_allclose(x[f], np.linalg.solve(A0[f], b0[f]),
                                       atol=1e-12)

        def build(v):
            A = tape.reshape(v[slice(0, 18)], (2, 3, 3)) + np.eye(3) * 4.0
            x = tape.solve(A, tape.reshape(v[slice(18, 24)], (2, 3)))
            return tape.vsum(x * x * np.array([1.0, 2.0, 3.0]))

        check_op(build, 24, rng, tol=1e-5)

    def test_batch_matvec_broadcasts_leading_axes(self):
        rng = np.random.default_rng(18)
        M, v = rng.standard_normal((5, 3, 2)), rng.standard_normal((4, 1, 2))
        out = tape.batch_matvec(M, v).data  # every matrix times every vector
        assert out.shape == (4, 5, 3)
        np.testing.assert_allclose(out, np.einsum("sij,fj->fsi", M, v[:, 0]),
                                   atol=1e-12)
        rows = tape.batch_matvec(M, v[:, 0][[0, 1, 1, 3, 2]]).data  # per row
        np.testing.assert_allclose(rows[2], M[2] @ v[1, 0], atol=1e-12)

        def build(x):
            Mv = tape.reshape(x[slice(0, 30)], (5, 3, 2))
            vv = tape.reshape(x[slice(30, 38)], (4, 1, 2))
            y = tape.batch_matvec(Mv, vv)
            return tape.vsum(y * y)

        check_op(build, 38, rng)

    def test_sum_over_negative_axes(self):
        rng = np.random.default_rng(19)

        def build(v):
            a = tape.reshape(v, (2, 3, 4))
            s = tape.vsum(a * a, axis=(-2, -1))
            return tape.vsum(s * np.array([1.0, 3.0]))

        check_op(build, 24, rng)

    def test_batch_matvec(self):
        rng = np.random.default_rng(10)

        def build(v):
            M = tape.reshape(v[slice(0, 24)], (4, 3, 2))
            w = v[slice(24, 26)]
            y = tape.batch_matvec(M, w)
            return tape.vsum(y * y)

        check_op(build, 26, rng)

    def test_take_rowwise_gather(self):
        rng = np.random.default_rng(11)
        idx = np.array([[0, 2], [1, 1], [3, 0]])

        def build(v):
            a = tape.reshape(v, (3, 4))
            picked = a[np.arange(3)[:, None], idx]
            return tape.vsum(picked * picked)

        check_op(build, 12, rng)


class TestImageOps:
    def test_bilinear_sample_matches_manual(self):
        rng = np.random.default_rng(12)
        img = rng.random((5, 7, 3))
        coords = np.array([[1.25, 2.5], [0.0, 0.0], [5.9, 3.1]])
        out = tape.bilinear_sample([img], tape.Var(coords[None])).data[0]
        x, y = 1.25, 2.5
        manual = (
            (1 - 0.5) * ((1 - 0.25) * img[2, 1] + 0.25 * img[2, 2])
            + 0.5 * ((1 - 0.25) * img[3, 1] + 0.25 * img[3, 2])
        )
        np.testing.assert_allclose(out[0], manual, atol=1e-12)
        np.testing.assert_allclose(out[1], img[0, 0], atol=1e-12)

    def test_bilinear_sample_grad(self):
        rng = np.random.default_rng(13)
        img = rng.random((6, 6, 2))

        def build(v):
            coords = tape.reshape(v * 0.8 + 2.5, (1, 5, 2))
            vals = tape.bilinear_sample([img], coords)
            return tape.vsum(vals * vals)

        check_op(build, 10, rng, tol=1e-5)

    def test_bilinear_clamp_and_mask(self):
        img = np.ones((4, 4, 1))
        coords = np.array([[-3.0, 1.0], [1.0, 1.0], [9.0, 9.0]])
        mask = tape.clamp_mask(img.shape, coords)
        np.testing.assert_array_equal(mask, [True, False, True])
        out = tape.bilinear_sample([img], tape.Var(coords[None]))
        np.testing.assert_allclose(out.data, 1.0)

    def test_bilinear_sample_reads_each_rows_own_image(self):
        rng = np.random.default_rng(20)
        imgs = rng.random((3, 6, 5, 2))
        coords = rng.uniform(-1.0, 6.0, size=(4, 7, 2))
        frame = [2, 0, 1, 2]  # one image read by two rows
        g = rng.standard_normal((4, 7, 2))
        c = tape.Var(coords)
        out = tape.bilinear_sample([imgs[f] for f in frame], c)
        tape.backward(tape.vsum(out * g))
        for i, f in enumerate(frame):
            ci = tape.Var(coords[i:i + 1])
            one = tape.bilinear_sample([imgs[f]], ci)
            tape.backward(tape.vsum(one * g[i]))
            assert one.data.tobytes() == out.data[i:i + 1].tobytes()
            assert ci.grad.tobytes() == c.grad[i:i + 1].tobytes()

    def test_bilinear_sample_takes_one_image_per_row(self):
        with pytest.raises(DimMismatch):
            tape.bilinear_sample([np.ones((4, 4, 1))] * 2,
                                 tape.Var(np.ones((3, 5, 2))))

    def test_window_mean_keeps_frames_apart(self):
        rng = np.random.default_rng(21)
        shape = (3, 6, 7, 2)
        frame = np.array([0, 1, 1, 2, 0, 2, 1])
        rc = np.array([[2, 3]] * 4 + [[0, 0], [5, 6], [2, 3]])
        vals = rng.standard_normal((7, 2))
        w = rng.standard_normal((7, 2))
        got = tape.Var(vals)
        out = tape.window_mean(shape, rc, got, (2,), frame)
        tape.backward(tape.vsum(out * w))
        for f in range(3):
            sel = frame == f
            one_v = tape.Var(vals[sel])
            one = tape.window_mean((1, *shape[1:]), rc[sel], one_v, (2,), 0)
            tape.backward(tape.vsum(one * w[sel]))
            assert one.data.tobytes() == out.data[:, sel].tobytes()
            assert one_v.grad.tobytes() == got.grad[sel].tobytes()

    def test_window_mean_matches_whole_image_reference(self):
        rng = np.random.default_rng(14)
        shape = (6, 7, 3)
        # duplicates, every corner, and random interior pixels
        rc = np.concatenate([
            [[0, 0], [0, 6], [5, 0], [5, 6], [2, 3], [2, 3], [0, 0]],
            rng.integers(0, [6, 7], size=(13, 2)),
        ])
        vals = rng.standard_normal((len(rc), 3))
        w = rng.standard_normal((len(rc), 3))
        for radius in (0, 1, 2, 4, 9):  # 9 spans the whole image
            got, want = tape.Var(vals), tape.Var(vals)
            out = tape.window_mean((1, *shape), rc, got, (radius,), 0)[0]
            ref = reference_window_mean(shape, rc, want, radius)
            assert out.data.tobytes() == ref.data.tobytes(), radius
            tape.backward(tape.vsum(out * w))
            tape.backward(tape.vsum(ref * w))
            assert got.grad.tobytes() == want.grad.tobytes(), radius

    def test_image_pyramid_matches_whole_image_blur(self):
        img = np.random.default_rng(15).random((9, 11, 3))
        radii = (0, 1, 2, 4, 5, 20)
        levels = losses.image_pyramid(img, radii)
        assert levels.shape == (9, 11, 1 + len(radii), 3)
        assert np.array_equal(levels[:, :, 0], img)
        # the window_mean route: every pixel of the image as a sample
        rc = np.indices(img.shape[:2]).reshape(2, -1).T
        for i, r in enumerate(radii):
            lvl = np.ascontiguousarray(levels[:, :, 1 + i])
            ref = reference_box_blur(tape.Var(img), r).data
            assert lvl.tobytes() == ref.tobytes(), r
            dense = tape.window_mean((1, *img.shape), rc, img.reshape(-1, 3),
                                     (r,), 0).data.reshape(img.shape)
            assert lvl.tobytes() == dense.tobytes(), r

    def test_image_pyramid_without_radii_is_the_image(self):
        img = np.random.default_rng(17).random((5, 4, 3))
        levels = losses.image_pyramid(img, ())
        assert levels.shape == (5, 4, 1, 3)
        assert levels[:, :, 0].tobytes() == img.tobytes()

    def test_window_mean_over_radii_matches_one_radius_calls(self):
        rng = np.random.default_rng(18)
        shape = (2, 6, 7, 3)
        # duplicates within and across frames, corners and interior pixels
        rc = np.concatenate([[[0, 0], [2, 3], [2, 3], [5, 6], [2, 3]],
                             rng.integers(0, [6, 7], size=(11, 2))])
        frame = rng.integers(0, 2, size=len(rc))
        frame[:3] = 0
        vals = rng.standard_normal((len(rc), 3))
        radii = (2, 0, 4, 2, 9)
        w = rng.standard_normal((len(radii), len(rc), 3))
        got = tape.Var(vals)
        out = tape.window_mean(shape, rc, got, radii, frame)
        assert out.shape == (len(radii), len(rc), 3)
        tape.backward(tape.vsum(out * w))
        grad = np.zeros_like(vals)
        for k, r in enumerate(radii):
            one_v = tape.Var(vals)
            one = tape.window_mean(shape, rc, one_v, (r,), frame)
            assert one.data.tobytes() == out.data[k:k + 1].tobytes(), r
            tape.backward(tape.vsum(one * w[k]))
            grad = grad + one_v.grad
        assert got.grad.tobytes() == grad.tobytes()

    def test_window_mean_without_radii_is_empty(self):
        got = tape.Var(np.ones((4, 3)))
        out = tape.window_mean((1, 3, 3, 3), np.ones((4, 2), int), got, (), 0)
        assert out.shape == (0, 4, 3)
        tape.backward(tape.vsum(out))
        assert got.grad.dtype == np.float64 and not got.grad.any()

    def test_window_mean_vjp_holds_one_box_at_a_time(self):
        # a 10-frame 64x64 batch whose pixels sit in a central box: the VJP
        # integrates that box one radius at a time, never R image stacks
        rng = np.random.default_rng(22)
        n_img, radii = 10, (2, 4)
        frame = np.repeat(np.arange(n_img), 220)
        rc = rng.integers([10, 12], [50, 54], size=(len(frame), 2))
        out = tape.window_mean((n_img, 64, 64, 3), rc,
                               tape.Var(rng.standard_normal((len(rc), 3))),
                               radii, frame)
        reach = 2 * max(radii) + 1
        box = (n_img * (np.ptp(rc[:, 0]) + reach) * (np.ptp(rc[:, 1]) + reach)
               * 3 * 8)
        tracemalloc.start()
        try:
            tape.backward(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * box, (peak, box)

    def test_window_mean_keeps_a_constant_image(self):
        rc = np.indices((5, 6)).reshape(2, -1).T
        out = tape.window_mean((1, 5, 6, 3), rc, np.full((30, 3), 2.5),
                               (2, 0, 7), 0)
        np.testing.assert_allclose(out.data, 2.5, atol=1e-12)

    def test_window_mean_grad(self):
        rng = np.random.default_rng(16)
        rc = np.array([[0, 1], [2, 3], [1, 0], [2, 3], [3, 3]])
        w = rng.standard_normal((5, 2))

        def build(v):
            vals = tape.reshape(v, (5, 2))
            out = tape.window_mean((1, 4, 4, 2), rc, vals, (1, 2), 0)
            return tape.vsum(out * out * w)

        check_op(build, 10, rng)


class TestDriver:
    def test_interior_gradients_are_dropped(self):
        x = tape.Var(np.array([1.0, -2.0]))
        y = x * 3.0
        out = tape.vsum(y * y)
        tape.backward(out)
        assert y.grad is None and out.grad is None
        np.testing.assert_array_equal(x.grad, 18.0 * x.data)

    def test_a_consumed_graph_raises_on_a_second_backward(self):
        x = tape.Var(np.array([1.0, -2.0]))
        y = x * 3.0
        out = tape.vsum(y * y)
        tape.backward(out)
        np.testing.assert_array_equal(x.grad, 18.0 * x.data)
        with pytest.raises(RuntimeError, match="consumed"):
            tape.backward(out)
        with pytest.raises(RuntimeError, match="consumed"):
            tape.backward(tape.vsum(y))  # a new root on a consumed node
        assert repr(y) == "Var(shape=(2,), consumed)"
        assert repr(x) == "Var(shape=(2,), leaf)"
        assert repr(x * 2.0) == "Var(shape=(2,), node)"

    def test_backward_frees_the_graph_behind_the_root_it_keeps(self):
        x = tape.Var(np.array([1.0, -2.0]))
        y = tape.sigmoid(x)
        alive = weakref.ref(y)
        out = tape.vsum(y * y)
        del y
        tape.backward(out)
        assert alive() is None and out.data.shape == ()

    def test_leaf_on_two_paths_gets_the_sum(self):
        x = tape.Var(np.array([2.0, 5.0]))
        tape.backward(tape.vsum(x * 3.0) + tape.vsum(tape.sigmoid(x)))
        s = 1.0 / (1.0 + np.exp(-x.data))
        np.testing.assert_allclose(x.grad, 3.0 + s * (1.0 - s), rtol=1e-15)

    def test_grad_accumulates_on_shared_node(self):
        x = tape.Var(np.array([3.0]))
        y = x * 2.0
        z = y + y * y  # y used twice
        tape.backward(tape.vsum(z))
        np.testing.assert_allclose(x.grad, [2.0 + 2.0 * 2.0 * 2.0 * 3.0])

    def test_backward_is_deterministic(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal(40)

        def run():
            v = tape.Var(x)
            m = tape.reshape(v, (8, 5))
            out = tape.vsum(tape.sigmoid(m @ tape.transpose(m)))
            tape.backward(out)
            return v.grad.copy()

        a, b = run(), run()
        np.testing.assert_array_equal(a, b)

    def test_collect_returns_zero_for_unused_leaf(self):
        a, b = tape.Var(np.ones(3)), tape.Var(np.ones(2))
        loss = tape.vsum(a * a)
        value, grads = tape.collect(loss, {"a": a, "b": b})
        assert value == 3.0
        np.testing.assert_array_equal(grads["b"], np.zeros(2))

    def test_collect_returns_float64_gradients_for_float32_leaves(self):
        # a float32 leaf stays float32; its gradient, reached through the
        # MLP node or not reached at all, is float64 like every other
        cfg = nets.MlpConfig(in_dim=3, hidden_dim=4, out_dim=2, n_res_blocks=1)
        theta = nets.init_params(cfg, np.random.default_rng(0)).values
        reached = tape.Var(theta.astype(np.float32))
        unreached = tape.Var(theta.astype(np.float32))
        leaves = {"reached": reached, "unreached": unreached,
                  "x": tape.Var(np.ones((5, 3))),
                  "unused": tape.Var(np.ones(2))}
        assert reached.data.dtype == np.float32
        out = nets.mlp_forward(reached, cfg, leaves["x"])
        _, grads = tape.collect(tape.vsum(out * out), leaves)
        assert {name: g.dtype for name, g in grads.items()} \
            == dict.fromkeys(leaves, np.dtype(np.float64))
        assert np.any(grads["reached"]) and np.any(grads["x"])
        assert not np.any(grads["unreached"])

    def test_grad_check_passes_and_catches_corruption(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(6)

        def good(v):
            return tape.vsum(tape.sigmoid(v) * v)

        assert tape.grad_check(good, x) < 1e-7

        def corrupted(v):
            # deliberately wrong backward: detach one factor
            return tape.vsum(tape.sigmoid(tape.detach(v)) * v)

        assert tape.grad_check(corrupted, x) > 1e-3

    def test_grad_check_coordinate_subset(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(10)

        def f(v):
            return tape.vsum(v * v)

        assert tape.grad_check(f, x, coords=[0, 3, 7]) < 1e-9
