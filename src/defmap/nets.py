"""Residual MLPs with parameter-free L2 normalization.

Architecture: input linear layer, then ``n_res_blocks`` residual blocks, then
an output linear layer. Each block computes

    x + W2 @ act(W1 @ l2norm(x) + b1) + b2

where l2norm divides by max(||x||, 1e-8) per row and carries no trainable
parameters. With all block weights at zero a block is the identity.

Parameters live in one flat float64 vector whose layout is fixed by the
config; all forward code runs on the autodiff tape, so the same function
serves training and plain evaluation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import blob, tape
from .errors import CheckpointError, DimMismatch

_ACTIVATIONS = {"relu": tape.relu, "tanh": tape.tanh}

_MAGIC = b"DEFMAP-MLP1\n"


@dataclass(frozen=True)
class MlpConfig:
    in_dim: int
    hidden_dim: int
    out_dim: int
    n_res_blocks: int = 3
    activation: str = "relu"

    def __post_init__(self):
        if min(self.in_dim, self.hidden_dim, self.out_dim) < 1:
            raise DimMismatch("all MLP dimensions must be positive")
        if self.n_res_blocks < 0:
            raise DimMismatch("n_res_blocks must be >= 0")
        if self.activation not in _ACTIVATIONS:
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


def n_params(cfg: MlpConfig) -> int:
    return sum(int(np.prod(s)) for _, s in layer_shapes(cfg))


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
        off = 0
        for n, shape in layer_shapes(self.config):
            size = int(np.prod(shape))
            if n == name:
                return self.values[off : off + size].reshape(shape)
            off += size
        raise KeyError(name)


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
    return x / tape.sqrt(tape.clip_min(sq, 1e-16))


def mlp_forward(theta, cfg: MlpConfig, x) -> tape.Var:
    """Forward pass producing (N,out_dim) (or (out_dim,) for a single row).

    ``theta`` is the flat parameter vector (Var or ndarray); gradients flow
    into it when it is a Var. ``x`` may likewise be a Var or ndarray.
    """
    theta = tape.as_var(theta)
    x = tape.as_var(x)
    single = x.ndim == 1
    if single:
        x = tape.reshape(x, (1, -1))
    if x.shape[1] != cfg.in_dim:
        raise DimMismatch(f"input width {x.shape[1]} != in_dim {cfg.in_dim}")
    act = _ACTIVATIONS[cfg.activation]

    views = {}
    off = 0
    for name, shape in layer_shapes(cfg):
        size = int(np.prod(shape))
        views[name] = tape.reshape(theta[slice(off, off + size)], shape)
        off += size

    h = x @ tape.transpose(views["w_in"]) + views["b_in"]
    for k in range(cfg.n_res_blocks):
        r = l2norm_rows(h)
        r = act(r @ tape.transpose(views[f"blk{k}_w1"]) + views[f"blk{k}_b1"])
        r = r @ tape.transpose(views[f"blk{k}_w2"]) + views[f"blk{k}_b2"]
        h = h + r
    out = h @ tape.transpose(views["w_out"]) + views["b_out"]
    return tape.reshape(out, (cfg.out_dim,)) if single else out


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
