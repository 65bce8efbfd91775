"""Reverse-mode automatic differentiation over numpy arrays.

The engine records a dynamic computation graph: every operation returns a
:class:`Var` holding the forward value, its parent nodes, and a vector-Jacobian
callback. :func:`backward` replays the graph in reverse topological order,
storing a node's first incoming gradient as is and adding later ones; an
interior node drops its gradient once propagated, a leaf keeps it. Stored
gradients may be shared, so no VJP may write into its incoming gradient.
Backward consumes the graph: a node whose VJP has run lets go of the VJP
and of its parents, so what the VJP closes over is freed while backward
goes on, and a second backward through that node raises.

:func:`window_mean` integrates only the box its windows cover, once for all
radii forward and one radius at a time backward.

Values are float64, apart from float32 leaves: a leaf built from a float32
array keeps it, for an op that computes in its operand's dtype (the MLP node)
and returns float64. Every gradient is float64. Operations are vectorized;
per-element Python loops never appear on the forward or backward path.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DimMismatch


#: the VJP of a node that backward has been through
_CONSUMED = object()


class Var:
    """A node in the computation graph wrapping one ndarray: float32 when
    built from a float32 array, float64 otherwise."""

    # weak references let a caller check that a graph it dropped is freed
    __slots__ = ("data", "grad", "_parents", "_vjp", "__weakref__")

    # keep numpy from broadcasting ufuncs over Var objects; with this unset,
    # ndarray * Var silently builds an object array instead of calling __rmul__
    __array_ufunc__ = None

    def __init__(self, data, _parents=(), _vjp=None):
        data = np.asarray(data)
        self.data = (data if data.dtype == np.float32
                     else np.asarray(data, dtype=np.float64))
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        kind = ("leaf" if self._vjp is None
                else "consumed" if self._vjp is _CONSUMED else "node")
        return f"Var(shape={self.data.shape}, {kind})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _node(data, parents, vjp) -> Var:
    return Var(data, _parents=tuple(parents), _vjp=vjp)


# -- arithmetic ----------------------------------------------------------


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(out, (a, b), vjp)


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _node(out, (a, b), vjp)


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _node(out, (a, b), vjp)


def div(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = a.data / b.data

    def vjp(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _node(out, (a, b), vjp)


def matmul(a, b) -> Var:
    """Product of two 2-D operands."""
    a, b = as_var(a), as_var(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimMismatch(f"matmul takes 2-D operands, got {a.data.shape} "
                          f"and {b.data.shape}")
    out = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _node(out, (a, b), vjp)


# -- shape ops -----------------------------------------------------------


def vsum(a, axis=None, keepdims=False) -> Var:
    a = as_var(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g, dtype=np.float64)
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        ax = [d % a.data.ndim for d in (axis if isinstance(axis, tuple)
                                        else (axis,))]
        if not keepdims:
            for d in sorted(ax):
                g = np.expand_dims(g, d)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _node(out, (a,), vjp)


def vmean(a) -> Var:
    """Mean of every entry, a scalar."""
    a = as_var(a)
    return mul(vsum(a), 1.0 / float(a.data.size))


def reshape(a, shape) -> Var:
    a = as_var(a)
    out = a.data.reshape(shape)

    def vjp(g):
        return (np.asarray(g).reshape(a.data.shape),)

    return _node(out, (a,), vjp)


def transpose(a) -> Var:
    """Transpose of a 2-D operand."""
    a = as_var(a)
    if a.data.ndim != 2:
        raise DimMismatch(f"transpose takes a 2-D operand, got {a.data.shape}")

    def vjp(g):
        return (g.T,)

    return _node(a.data.T, (a,), vjp)


def _scatter_add(index: np.ndarray, values, shape) -> np.ndarray:
    """Zeros of ``shape`` with each of ``values`` added at the flat
    ``index`` of the same shape, in order (np.add.at, but one bincount)."""
    out = np.bincount(index.ravel(), weights=np.ravel(values),
                      minlength=int(np.prod(shape)))
    return out.astype(np.float64, copy=False).reshape(shape)  # int if empty


def take(a, key) -> Var:
    """Indexing/slicing; backward scatter-adds into the source shape."""
    a = as_var(a)
    out = a.data[key]
    # a key of ints, slices and ellipses selects each entry at most once
    basic = all(isinstance(k, (int, np.integer, slice, type(Ellipsis)))
                for k in (key if isinstance(key, tuple) else (key,)))

    def vjp(g):
        if basic:
            z = np.zeros_like(a.data)
            z[key] = g
            return (z,)
        src = np.arange(a.data.size).reshape(a.data.shape)[key]
        return (_scatter_add(src, g, a.data.shape),)

    return _node(out, (a,), vjp)


def concat(parts: Sequence) -> Var:
    """The parts joined along their last axis."""
    parts = [as_var(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=-1)
    offsets = np.cumsum([0] + [p.data.shape[-1] for p in parts])

    def vjp(g):
        g = np.asarray(g)
        return tuple(g[..., offsets[i]:offsets[i + 1]]
                     for i in range(len(parts)))

    return _node(out, parts, vjp)


def stack(parts: Sequence) -> Var:
    """The parts stacked along a new last axis."""
    parts = [as_var(p) for p in parts]
    out = np.stack([p.data for p in parts], axis=-1)

    def vjp(g):
        g = np.asarray(g)
        return tuple(np.take(g, i, axis=-1) for i in range(len(parts)))

    return _node(out, parts, vjp)


# -- elementwise nonlinearities -------------------------------------------


def sqrt(a) -> Var:
    a = as_var(a)
    out = np.sqrt(a.data)

    def vjp(g):
        return (g * 0.5 / out,)

    return _node(out, (a,), vjp)


def sigmoid(a) -> Var:
    a = as_var(a)
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _node(out, (a,), vjp)


def clip(a, lo, hi) -> Var:
    """Two-sided clamp; gradient passes only strictly inside the range.

    ``lo``/``hi`` may be arrays broadcasting against ``a``.
    """
    a = as_var(a)
    out = np.clip(a.data, lo, hi)

    def vjp(g):
        return (g * ((a.data > lo) & (a.data < hi)),)

    return _node(out, (a,), vjp)


def detach(a) -> Var:
    """Cut the graph: same values, no gradient flows past this node."""
    return Var(as_var(a).data)


# -- linear algebra helpers ------------------------------------------------


def cross3(a, b) -> Var:
    """Cross product of 3-vectors (or (N,3) row batches)."""
    a, b = as_var(a), as_var(b)
    out = np.cross(a.data, b.data)

    def vjp(g):
        g = np.asarray(g)
        # d<g, a x b> = <b x g, da> + <g x a, db>
        return (
            _unbroadcast(np.cross(b.data, g), a.data.shape),
            _unbroadcast(np.cross(g, a.data), b.data.shape),
        )

    return _node(out, (a, b), vjp)


def solve(A, b) -> Var:
    """x = A^-1 b for a square (n,n) A and (n,) b, or stacks (...,n,n) and
    (...,n) of them; gradients flow into both A and b."""
    A, b = as_var(A), as_var(b)
    x = np.linalg.solve(A.data, b.data[..., None])[..., 0]

    def vjp(g):
        gb = np.linalg.solve(np.swapaxes(A.data, -1, -2),
                             np.asarray(g, dtype=np.float64)[..., None])[..., 0]
        return -gb[..., :, None] * x[..., None, :], gb

    return _node(x, (A, b), vjp)


def batch_matvec(M, v) -> Var:
    """einsum('...ij,...j->...i'): a stack of (r,c) matrices times (c,)
    vectors, the leading axes of ``M`` and ``v`` broadcasting against each
    other (one vector for every matrix, one per row, one per frame, ...)."""
    M, v = as_var(M), as_var(v)
    out = (M.data @ v.data[..., None])[..., 0]

    def vjp(g):
        g = np.asarray(g)
        gM = _unbroadcast(g[..., :, None] * v.data[..., None, :], M.data.shape)
        gv = _unbroadcast((g[..., None, :] @ M.data)[..., 0, :], v.data.shape)
        return gM, gv

    return _node(out, (M, v), vjp)


# -- image ops -------------------------------------------------------------


def bilinear_sample(images, coords) -> Var:
    """Sample each of F constant (H,W,C) images of one size at its own float
    pixel coords: ``coords`` (F,...,2) = (x, y), ``coords[k]`` read in
    ``images[k]``; (F,...,C). Each image is read where it lies, none is
    copied into a stack.

    Coordinates are clamped to the image rectangle; clamped axes get zero
    gradient (use :func:`clamp_mask` to count them). Gradients flow to the
    coordinates only, the images are constant data.
    """
    coords = as_var(coords)
    if len(images) != coords.shape[0]:
        raise DimMismatch(f"{len(images)} images for {coords.shape[0]} "
                          "coordinate sets")
    H, W, C = np.shape(images[0])
    cx, cy = coords.data[..., 0], coords.data[..., 1]
    x = np.clip(cx, 0.0, W - 1.0)
    y = np.clip(cy, 0.0, H - 1.0)
    x0 = np.clip(np.floor(x).astype(int), 0, max(W - 2, 0))
    y0 = np.clip(np.floor(y).astype(int), 0, max(H - 2, 0))
    x1, y1 = np.minimum(x0 + 1, W - 1), np.minimum(y0 + 1, H - 1)
    tx = (x - x0)[..., None]
    ty = (y - y0)[..., None]
    corners = np.empty((len(images), 4) + x0.shape[1:] + (C,))  # (F,4,...,C)
    for k, image in enumerate(images):
        # its four corners in one gather of flat rows; the indices lie in the
        # image, so "clip" only spares the bounds-checked copy
        row0, row1 = y0[k] * W, y1[k] * W
        np.take(np.asarray(image, dtype=np.float64).reshape(H * W, C),
                np.stack([row0 + x0[k], row0 + x1[k], row1 + x0[k],
                          row1 + x1[k]]), axis=0, out=corners[k], mode="clip")
    i00, i01, i10, i11 = (corners[:, j] for j in range(4))
    out = (1 - ty) * ((1 - tx) * i00 + tx * i01) + ty * ((1 - tx) * i10 + tx * i11)
    # the slopes, so that the VJP holds two arrays instead of four corners
    dx = (1 - ty) * (i01 - i00) + ty * (i11 - i10)
    dy = (1 - tx) * (i10 - i00) + tx * (i11 - i01)

    inside_x = (cx > 0.0) & (cx < W - 1.0)
    inside_y = (cy > 0.0) & (cy < H - 1.0)

    def vjp(g):
        g = np.asarray(g)
        gc = np.zeros_like(coords.data)
        gc[..., 0] = (g * dx).sum(axis=-1) * inside_x
        gc[..., 1] = (g * dy).sum(axis=-1) * inside_y
        return (gc,)

    return _node(out, (coords,), vjp)


def clamp_mask(image_hw, coords: np.ndarray) -> np.ndarray:
    """Boolean mask of (...,2) samples that fall outside an image of
    height and width ``image_hw[:2]``."""
    H, W = image_hw[0], image_hw[1]
    x, y = coords[..., 0], coords[..., 1]
    return (x < 0) | (x > W - 1) | (y < 0) | (y > H - 1)


def window_mean(shape, rc, values, radii, frame) -> Var:
    """Box blurs, one per radius in ``radii``, at the integer (row, col)
    pixels ``rc`` of the images ``frame`` names, of the (F,H,W,C) image
    stack that holds the (N,C) ``values`` there and zero elsewhere; (R,N,C).

    Windows are ``2 * radius + 1`` wide, centered and edge-truncated, and
    duplicate pixels accumulate. Only the box the windows cover is
    integrated: the rows scatter straight into one zero-bordered buffer,
    which both cumsums overwrite in place. The forward reads every radius
    off that one integral image. The window is symmetric, so the VJP is the
    same operator on each radius's count-normalized gradient; it integrates
    one radius at a time and adds their window sums in radius order.
    """
    values, rc = as_var(values), np.asarray(rc)
    n_img, h, w, n_ch = shape
    rad = np.asarray(radii, dtype=int).reshape(-1, 1)
    f, r, c = frame, rc[:, 0], rc[:, 1]
    y0, y1 = np.maximum(r - rad, 0), np.minimum(r + rad + 1, h)  # (R,N)
    x0, x1 = np.maximum(c - rad, 0), np.minimum(c + rad + 1, w)
    cnt = ((y1 - y0) * (x1 - x0)).astype(np.float64)[..., None]
    # the box the windows cover, with a zero first row and column: entry
    # (y, x) of its integral sums the box rows above y and columns left of
    # x. With no radius it is the pixels' box; with no pixel, one entry.
    reach = rad.max(initial=0)
    top = np.maximum(r - reach, 0).min(initial=h)
    left = np.maximum(c - reach, 0).min(initial=w)
    bh = np.minimum(r + reach + 1, h).max(initial=top) - top + 1
    bw = np.minimum(c + reach + 1, w).max(initial=left) - left + 1
    pixel = (f * bh + r - top + 1) * bw + c - left + 1  # flat, in the buffer

    def integral(v, scale=None):
        """Corner rows of the stack holding rows ``v`` at the pixels, each
        pixel divided by ``scale`` after duplicates are summed."""
        buf = _scatter_add(pixel[:, None] * n_ch + np.arange(n_ch), v,
                           (n_img, bh, bw, n_ch))
        corners = buf.reshape(-1, n_ch)
        if scale is not None:
            corners[pixel] /= scale
        np.cumsum(buf, axis=1, out=buf)
        np.cumsum(buf, axis=2, out=buf)
        return corners

    def window_sums(corners, k):
        """Window sums at the pixels of the radii ``k`` selects."""
        def corner(y, x):  # one flat row index gathers fastest
            return np.take(corners, (f * bh + y[k] - top) * bw + x[k] - left,
                           axis=0)

        return (corner(y1, x1) - corner(y0, x1) - corner(y1, x0)
                + corner(y0, x0))

    def vjp(g):
        total = np.zeros(values.shape)
        for k in range(len(rad)):
            total += window_sums(integral(g[k], cnt[k]), k)
        return (total,)

    return _node(window_sums(integral(values.data), slice(None)) / cnt,
                 (values,), vjp)


# -- driver ----------------------------------------------------------------


def backward(root: Var) -> None:
    """Set ``.grad`` on the leaves behind ``root``; interior nodes end at None.

    Backward consumes the graph: once a node's VJP has run, the node lets go
    of it and of its parents, so what each VJP closes over is freed while
    backward goes on. A later backward through a consumed node raises.
    """
    order: list[Var] = []
    seen: set[int] = set()
    stack_: list[tuple[Var, bool]] = [(root, False)]
    while stack_:
        node, done = stack_.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._vjp is _CONSUMED:
            raise RuntimeError("an earlier backward consumed this graph; "
                               "build it again")
        seen.add(id(node))
        node.grad = None  # a leaf may hold one from an earlier pass
        stack_.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack_.append((p, False))

    root.grad = np.ones_like(root.data)
    while order:
        node = order.pop()  # reverse topological order; the list lets go
        if node._vjp is None or node.grad is None:
            continue  # a leaf, or no gradient reached the node
        grads = node._vjp(node.grad)
        node.grad, node._vjp = None, _CONSUMED
        for parent, g in zip(node._parents, grads):
            if g is not None:
                parent.grad = g if parent.grad is None else parent.grad + g
        node._parents = ()


def collect(loss: Var, leaves: dict) -> tuple[float, dict]:
    """Run backward; return the loss value and the float64 gradient of each
    leaf (name -> leaf Var), zeros for a leaf the loss does not reach."""
    backward(loss)
    grads = {
        name: np.array(leaf.grad) if leaf.grad is not None
        else np.zeros(leaf.shape)
        for name, leaf in leaves.items()
    }
    return float(loss.data), grads


def grad_check(
    fn: Callable[[Var], Var],
    point: np.ndarray,
    coords: Sequence[int] | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` maps a leaf Var holding a flat vector to a scalar Var. The error
    for coordinate i is |ga - gf| / max(1, |ga|, |gf|), with the central
    difference taken at a step of 1e-6; the max over the probed coordinates
    is returned. ``coords`` restricts the finite-difference probes to those
    coordinates (default: every one; the analytic gradient is always full).
    """
    h = 1e-6
    point = np.asarray(point, dtype=np.float64).ravel()
    leaf = Var(point)
    out = fn(leaf)
    backward(out)
    ga = leaf.grad if leaf.grad is not None else np.zeros_like(point)

    idxs = range(point.size) if coords is None else coords
    worst = 0.0
    for i in idxs:
        e = np.zeros_like(point)
        e[i] = h
        fp = float(fn(Var(point + e)).data)
        fm = float(fn(Var(point - e)).data)
        gf = (fp - fm) / (2.0 * h)
        err = abs(ga[i] - gf) / max(1.0, abs(ga[i]), abs(gf))
        if err > worst:
            worst = err
    return worst
