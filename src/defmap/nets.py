"""Residual MLPs with parameter-free L2 normalization.

Architecture: input linear layer, then ``n_res_blocks`` residual blocks, then
an output linear layer. Each block computes

    x + W2 @ relu(W1 @ l2norm(x) + b1) + b2

where l2norm divides by max(||x||, 1e-8) per row and carries no trainable
parameters. With all block weights at zero a block is the identity.

Parameters live in one flat float64 vector whose layout is fixed by the
config. One :func:`mlp_forward` call is one tape node, a numpy forward on
views of that vector with a VJP that writes one flat gradient, so the same
function serves training and plain evaluation. The node computes in the
dtype of the vector it is given: a training step passes a float32 copy of
the weights, every other caller the float64 weights themselves.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import blob, tape
from .errors import CheckpointError, DimMismatch, check_types

_MAGIC = b"DEFMAP-MLP1\n"


@dataclass(frozen=True)
class MlpConfig:
    in_dim: int
    hidden_dim: int
    out_dim: int
    n_res_blocks: int = 3
    activation: str = "relu"

    def __post_init__(self):
        check_types(self, DimMismatch)
        if min(self.in_dim, self.hidden_dim, self.out_dim) < 1:
            raise DimMismatch("all MLP dimensions must be positive")
        if self.n_res_blocks < 0:
            raise DimMismatch("n_res_blocks must be >= 0")
        if self.activation != "relu":
            raise DimMismatch(f"unknown activation {self.activation!r}")


def layer_shapes(cfg: MlpConfig) -> list[tuple[str, tuple]]:
    """Ordered (name, shape) pairs defining the flat parameter layout."""
    h = cfg.hidden_dim
    shapes = [("w_in", (h, cfg.in_dim)), ("b_in", (h,))]
    for k in range(cfg.n_res_blocks):
        shapes += [
            (f"blk{k}_w1", (h, h)),
            (f"blk{k}_b1", (h,)),
            (f"blk{k}_w2", (h, h)),
            (f"blk{k}_b2", (h,)),
        ]
    shapes += [("w_out", (cfg.out_dim, h)), ("b_out", (cfg.out_dim,))]
    return shapes


@functools.cache
def _layout(cfg: MlpConfig) -> tuple[tuple[str, int, int, tuple], ...]:
    """(name, start, stop, shape) of each layer inside the flat vector."""
    table, off = [], 0
    for name, shape in layer_shapes(cfg):
        size = int(np.prod(shape))
        table.append((name, off, off + size, shape))
        off += size
    return tuple(table)


def n_params(cfg: MlpConfig) -> int:
    return _layout(cfg)[-1][2]


def _layers(cfg: MlpConfig, flat: np.ndarray) -> dict[str, np.ndarray]:
    """name -> writable view of each layer inside the flat vector ``flat``."""
    return {name: flat[a:b].reshape(shape) for name, a, b, shape in _layout(cfg)}


@dataclass
class MlpParams:
    """Config plus the flat parameter vector."""

    config: MlpConfig
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).ravel()
        want = n_params(self.config)
        if v.size != want:
            raise DimMismatch(f"expected {want} parameters, got {v.size}")
        self.values = v

    def view(self, name: str) -> np.ndarray:
        """Writable view of one layer inside the flat vector."""
        return _layers(self.config, self.values)[name]


def init_params(
    cfg: MlpConfig,
    rng: np.random.Generator,
    out_scale: float = 1.0,
    out_bias: np.ndarray | None = None,
) -> MlpParams:
    """Glorot-uniform init; ``out_scale`` rescales the output layer weights.

    ``out_scale=0`` gives an exactly-zero output layer; ``out_bias`` (if
    given) seeds the output bias, e.g. with the 6D identity rotation.
    """
    chunks = []
    for name, shape in layer_shapes(cfg):
        if len(shape) == 2:
            fan_out, fan_in = shape
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-lim, lim, size=shape)
            if name == "w_out":
                w = w * out_scale
            chunks.append(w.ravel())
        else:
            b = np.zeros(shape)
            if name == "b_out" and out_bias is not None:
                b = np.asarray(out_bias, dtype=np.float64).reshape(shape)
            chunks.append(b.ravel())
    return MlpParams(cfg, np.concatenate(chunks))


def l2norm_rows(x: tape.Var) -> tape.Var:
    """Row-wise x / max(||x||, 1e-8); the only normalization in the nets.

    The clamp sits inside the square root: sqrt's gradient divides by its
    output, so an exactly-zero row would otherwise mint a NaN upstream of
    the clamp even though the clamp zeroes that gradient.
    """
    sq = tape.vsum(x * x, axis=-1, keepdims=True)
    return x / tape.sqrt(tape.clip(sq, 1e-16, np.inf))


def mlp_forward(theta, cfg: MlpConfig, x, frame_x=None, seg=None) -> tape.Var:
    """Forward pass of (N,in_dim) rows ``x``, producing (N,out_dim).

    ``theta`` is the flat parameter vector (Var or ndarray); gradients flow
    into it when it is a Var. ``x`` may likewise be a Var or ndarray; a
    plain array is constant data and gets no gradient. The result is one
    tape node whose parents are ``theta`` and each Var input; every block
    normalizes as :func:`l2norm_rows` does, clamp and gradient gate included.
    The forward and the VJP compute in ``theta``'s dtype (float32 or
    float64); the output and every gradient are float64.

    With ``frame_x`` (F,k) and ``seg`` (N,), the input is the column blocks
    ``[x, frame_x[seg]]`` without that (N,k) block being built: row n's last
    k columns are frame ``seg[n]``'s row of ``frame_x``, so the first layer
    applies them once per frame and sums their gradient per frame.
    """
    theta = tape.as_var(theta)
    dt = theta.data.dtype  # the compute dtype
    x_var = isinstance(x, tape.Var)
    rows = np.asarray(x.data if x_var else x, dtype=dt)
    if rows.ndim != 2:
        raise DimMismatch(f"input must be (N,in_dim) rows, got {rows.shape}")
    width = rows.shape[1]
    if frame_x is not None:
        frame_x, seg = tape.as_var(frame_x), np.asarray(seg)
        frame_rows = np.asarray(frame_x.data, dtype=dt)
        width += frame_x.shape[1]
    if width != cfg.in_dim:
        raise DimMismatch(f"input width {width} != in_dim {cfg.in_dim}")
    p = _layers(cfg, theta.data)

    d = rows.shape[1]
    w_x, w_f = p["w_in"][:, :d], p["w_in"][:, d:]  # w_f: the frame columns
    h = rows @ w_x.T
    if frame_x is None:
        h += p["b_in"]
    else:
        per_frame = frame_rows @ w_f.T
        per_frame += p["b_in"]
        h += per_frame[seg]
    blocks = []  # each residual block's forward values, for the VJP
    for k in range(cfg.n_res_blocks):
        sq = (h * h).sum(axis=-1, keepdims=True)
        s = np.maximum(sq, 1e-16)
        np.sqrt(s, out=s)
        n = h / s
        r = n @ p[f"blk{k}_w1"].T
        r += p[f"blk{k}_b1"]
        np.maximum(r, 0.0, out=r)
        blocks.append((sq > 1e-16, s, n, r))
        res = r @ p[f"blk{k}_w2"].T
        res += p[f"blk{k}_b2"]
        h += res
    out = h @ p["w_out"].T
    out += p["b_out"]

    def vjp(g):
        g = np.asarray(g, dtype=dt)
        grad = np.zeros_like(theta.data)
        gp = _layers(cfg, grad)

        def linear(w, b, inp, g):
            """Write the gradients of inp @ w.T + b; return inp's."""
            np.matmul(g.T, inp, out=gp[w])
            g.sum(axis=0, out=gp[b])
            return g @ p[w]

        gh = linear("w_out", "b_out", h, g)
        for k in reversed(range(cfg.n_res_blocks)):
            gate, s, n, r = blocks[k]
            gr = linear(f"blk{k}_w2", f"blk{k}_b2", r, gh)
            gr *= r > 0.0
            gn = linear(f"blk{k}_w1", f"blk{k}_b1", n, gr)
            # n = h / s with s = sqrt(clip(sq)); the clamp passes no gradient
            tmp = n * gn
            dot = tmp.sum(axis=-1, keepdims=True)
            dot *= gate
            gn -= np.multiply(n, dot, out=tmp)
            gn /= s
            gh += gn
        grads = [grad]
        np.matmul(gh.T, rows, out=gp["w_in"][:, :d])
        gh.sum(axis=0, out=gp["b_in"])
        if x_var:
            grads.append(gh @ w_x)
        if frame_x is not None:
            g_frame = onehot(seg, frame_x.shape[0], dt) @ gh  # per-frame sums
            np.matmul(g_frame.T, frame_rows, out=gp["w_in"][:, d:])
            grads.append(g_frame @ w_f)
        return [gr.astype(np.float64, copy=False) for gr in grads]

    parents = [theta]
    if x_var:
        parents.append(x)
    if frame_x is not None:
        parents.append(frame_x)
    return tape._node(out.astype(np.float64, copy=False), parents, vjp)


def onehot(seg: np.ndarray, n: int, dtype=np.float64) -> np.ndarray:
    """(n,N) constant of ``dtype`` whose row f is 1 where ``seg`` (N,) is f:
    a sum of rows per segment (per frame) as one matmul."""
    return (np.arange(n)[:, None] == seg[None, :]).astype(dtype)


def mlp_eval(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Plain-numpy convenience wrapper around :func:`mlp_forward`."""
    return mlp_forward(params.values, params.config, np.asarray(x)).data


# -- checkpoint io -------------------------------------------------------------


def save_mlp(path, params: MlpParams) -> None:
    """Magic + JSON config header + raw little-endian float64 payload."""
    header = {**asdict(params.config), "count": int(params.values.size)}
    blob.write(path, _MAGIC, header, [params.values])


def load_mlp(path) -> MlpParams:
    header, payload = blob.read(path, _MAGIC, "MLP",
                                ["count", *(f.name for f in fields(MlpConfig))])
    count = header.pop("count")
    try:
        cfg = MlpConfig(**header)
    except DimMismatch as e:
        raise CheckpointError(f"MLP header: {e}") from e
    if count != n_params(cfg) or len(payload) != 8 * count:
        raise CheckpointError("parameter count does not match header")
    return MlpParams(cfg, blob.array(payload, {"offset": 0, "count": count},
                                     (count,), "MLP", ("count", "offset")))
