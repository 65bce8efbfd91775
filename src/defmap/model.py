"""Deformable-category model: canonical embeddings, basis, texture, heads.

Array conventions (documented instead of wrapper types):
  * canonical point: unit 3-vector on the sphere; batches are (N,3) rows;
  * deformation basis at a point: (3,D) matrix; batches are (N,3,D);
  * shape coefficients alpha: (D,); texture coefficients beta: (D',);
  * pixel descriptor: (F,) float vector; instance descriptor: (G,).

A reconstructed surface point is ``basis(kappa) @ alpha``. The model owns
three field networks (pixel embedding, basis, texture) and either amortized
head networks mapping an instance descriptor to (alpha, beta, 6D viewpoint)
or, in direct-latent mode, free per-frame latent variables for the same
quantities.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import blob, geom, nets, tape
from .errors import CheckpointError, DimMismatch, check_keys

AMORTIZED = "amortized"
DIRECT_LATENT = "direct_latent"

_MODEL_MAGIC = b"DEFMAP-MODEL1\n"

#: networks only amortized models own
_HEADS = ("shape_head", "texture_head", "view_head")


@dataclass(frozen=True)
class ModelDims:
    """Widths of every network in the model; defaults are the paper scale."""

    descriptor_dim: int = 24
    instance_dim: int = 24
    n_shape_coeffs: int = 10
    n_texture_coeffs: int = 128
    embed_hidden: int = 48
    embed_blocks: int = 2
    basis_hidden: int = 48
    basis_blocks: int = 3
    texture_hidden: int = 32
    texture_blocks: int = 3
    head_hidden: int = 32
    head_blocks: int = 2
    pin_first_coeff: bool = False

    def net_configs(self) -> dict[str, nets.MlpConfig]:
        D, Dp = self.n_shape_coeffs, self.n_texture_coeffs
        cfgs = {
            "embed": nets.MlpConfig(self.descriptor_dim, self.embed_hidden, 3,
                                    self.embed_blocks),
            "basis": nets.MlpConfig(3, self.basis_hidden, 3 * D, self.basis_blocks),
            "texture": nets.MlpConfig(3 + Dp, self.texture_hidden, 3,
                                      self.texture_blocks),
            "shape_head": nets.MlpConfig(self.instance_dim, self.head_hidden, D,
                                         self.head_blocks),
            "texture_head": nets.MlpConfig(self.instance_dim, self.head_hidden, Dp,
                                           self.head_blocks),
            "view_head": nets.MlpConfig(self.instance_dim, self.head_hidden, 6,
                                        self.head_blocks),
        }
        return cfgs


@dataclass
class DeformerModel:
    dims: ModelDims
    mode: str
    nets: dict
    latents: dict = field(default_factory=dict)

    def param_arrays(self) -> dict[str, np.ndarray]:
        """Ordered name -> flat float64 array map covering every parameter."""
        out = {}
        for key in sorted(self.nets):
            out[f"net:{key}"] = self.nets[key].values
        for key in sorted(self.latents):
            out[f"lat:{key}"] = self.latents[key]
        return out

    def n_frames(self) -> int:
        return 0 if not self.latents else self.latents["alpha"].shape[0]


def init_model(
    dims: ModelDims,
    mode: str,
    rng: np.random.Generator,
    n_frames: int = 0,
) -> DeformerModel:
    """Fresh model; the basis output layer starts near zero so initial shapes
    sit at the origin and are pulled toward the keypoint prior, and the
    viewpoint output is biased at the 6D identity."""
    if mode not in (AMORTIZED, DIRECT_LATENT):
        raise DimMismatch(f"unknown mode {mode!r}")
    cfgs = dims.net_configs()
    netp = {
        "embed": nets.init_params(cfgs["embed"], rng),
        "basis": nets.init_params(cfgs["basis"], rng, out_scale=1e-3),
        "texture": nets.init_params(cfgs["texture"], rng),
    }
    latents = {}
    if mode == AMORTIZED:
        for key in _HEADS:
            bias = geom.IDENTITY_6D if key == "view_head" else None
            netp[key] = nets.init_params(cfgs[key], rng, out_scale=1e-2,
                                         out_bias=bias)
    else:
        if n_frames < 1:
            raise DimMismatch("direct-latent mode needs n_frames >= 1")
        D, Dp = dims.n_shape_coeffs, dims.n_texture_coeffs
        latents = {
            "alpha": np.zeros((n_frames, D)),
            "beta": np.zeros((n_frames, Dp)),
            "view6d": np.tile(geom.IDENTITY_6D, (n_frames, 1)),
        }
    return DeformerModel(dims=dims, mode=mode, nets=netp, latents=latents)


def make_leaves(model: DeformerModel) -> dict[str, tape.Var]:
    """One leaf Var per parameter array; build each graph from fresh leaves."""
    return {name: tape.Var(arr) for name, arr in model.param_arrays().items()}


@dataclass
class FramePrediction:
    """Differentiable per-frame quantities registered in one graph."""

    kappa: tape.Var        # (N,3) unit embeddings of the supplied pixels
    alpha: tape.Var        # (D,)
    beta: tape.Var         # (D',)
    view6d: tape.Var       # (6,)
    R: tape.Var            # (3,3)


def embed_pixels(model: DeformerModel, leaves, descriptors) -> tape.Var:
    """Unit-sphere embeddings for (N,F) pixel descriptors."""
    raw = nets.mlp_forward(leaves["net:embed"], model.nets["embed"].config,
                           descriptors)
    if raw.ndim == 1:
        raw = tape.reshape(raw, (1, 3))
    return nets.l2norm_rows(raw)


def basis_at(model: DeformerModel, leaves, kappa) -> tape.Var:
    """(N,3,D) deformation basis at (N,3) canonical points."""
    D = model.dims.n_shape_coeffs
    flat = nets.mlp_forward(leaves["net:basis"], model.nets["basis"].config,
                            kappa)
    if flat.ndim == 1:
        return tape.reshape(flat, (1, 3, D))
    return tape.reshape(flat, (flat.shape[0], 3, D))


def reconstruct_points(model, leaves, kappa, alpha) -> tape.Var:
    """Surface points basis(kappa) @ alpha, shape (N,3)."""
    B = basis_at(model, leaves, kappa)
    return tape.batch_matvec(B, alpha)


def texture_at(model: DeformerModel, leaves, kappa, beta) -> tape.Var:
    """RGB in [0,1] at (N,3) canonical points for one (D',) style vector.

    ``kappa`` is consumed as given; callers enforcing the appearance
    stop-gradient must pass a detached embedding.
    """
    kappa = tape.as_var(kappa)
    n = kappa.shape[0]
    ones = np.ones((n, 1))
    beta_rows = tape.as_var(ones) @ tape.reshape(beta, (1, -1))
    x = tape.concat([kappa, beta_rows], axis=1)
    return tape.sigmoid(nets.mlp_forward(
        leaves["net:texture"], model.nets["texture"].config, x))


def _pin_first(alpha: tape.Var) -> tape.Var:
    head = tape.detach(tape.as_var(np.ones(1)))
    return tape.concat([head, alpha[slice(1, None)]])


def predict_frame(
    model: DeformerModel,
    leaves,
    instance_descriptor: np.ndarray,
    frame_index: int,
    pixel_descriptors: np.ndarray,
) -> FramePrediction:
    """Embed the given pixels and produce (alpha, beta, viewpoint) for a frame.

    Amortized mode runs the three heads on the instance descriptor;
    direct-latent mode reads the frame's free latent row.
    """
    kappa = embed_pixels(model, leaves, pixel_descriptors)
    if model.mode == AMORTIZED:
        g = np.asarray(instance_descriptor, dtype=np.float64)
        if g.shape != (model.dims.instance_dim,):
            raise DimMismatch("instance descriptor width mismatch")
        alpha, beta, v6 = (
            nets.mlp_forward(leaves[f"net:{key}"], model.nets[key].config, g)
            for key in _HEADS)
    else:
        if frame_index < 0 or frame_index >= model.n_frames():
            raise DimMismatch(f"frame index {frame_index} out of range")
        alpha = leaves["lat:alpha"][frame_index]
        beta = leaves["lat:beta"][frame_index]
        v6 = leaves["lat:view6d"][frame_index]
    if model.dims.pin_first_coeff:
        alpha = _pin_first(alpha)
    R = geom.rotation_from_6d_var(v6)
    return FramePrediction(kappa=kappa, alpha=alpha, beta=beta, view6d=v6, R=R)


# -- plain-numpy evaluation helpers -----------------------------------------


def embed_np(model: DeformerModel, descriptors: np.ndarray) -> np.ndarray:
    return embed_pixels(model, make_leaves(model), descriptors).data


def basis_np(model: DeformerModel, kappa: np.ndarray) -> np.ndarray:
    return basis_at(model, make_leaves(model), tape.Var(kappa)).data


def surface_sample(
    model: DeformerModel, kappa_set: np.ndarray, alpha: np.ndarray
) -> np.ndarray:
    """Point cloud basis(kappa_i) @ alpha for a fixed coefficient vector."""
    kappa_set = np.asarray(kappa_set, dtype=np.float64)
    if kappa_set.ndim != 2 or kappa_set.shape[1] != 3:
        raise DimMismatch("kappa_set must be (M,3)")
    B = basis_np(model, kappa_set)
    return B @ np.asarray(alpha, dtype=np.float64)


def predict_np(model, instance_descriptor, frame_index, pixel_descriptors):
    """Numpy view of predict_frame (no gradients kept)."""
    pred = predict_frame(
        model, make_leaves(model), instance_descriptor, frame_index,
        pixel_descriptors,
    )
    return {
        "kappa": pred.kappa.data,
        "alpha": pred.alpha.data,
        "beta": pred.beta.data,
        "view6d": pred.view6d.data,
        "R": pred.R.data,
    }


# -- checkpoint io ------------------------------------------------------------


def save_model(path, model: DeformerModel) -> None:
    """Versioned header + concatenated per-network and latent payloads."""
    net_arrays = {key: model.nets[key].values for key in sorted(model.nets)}
    latents = dict(sorted(model.latents.items()))
    net_entries, lat_entries = blob.layout(net_arrays, latents)
    for key, ent in net_entries.items():
        del ent["shape"]  # a network's shape is its config
        ent["config"] = list(astuple(model.nets[key].config))
    header = {
        "version": 1,
        "mode": model.mode,
        "dims": asdict(model.dims),
        "nets": net_entries,
        "latents": lat_entries,
    }
    blob.write(path, _MODEL_MAGIC, header,
               [*net_arrays.values(), *latents.values()])


def load_model(path) -> DeformerModel:
    """A model file written by :func:`save_model`; it must hold exactly the
    networks and latent tables of its mode, each of the size its ``dims``
    give."""
    header, payload = blob.read(path, _MODEL_MAGIC, "model",
                                ("version", "mode", "dims", "nets", "latents"))
    if header["version"] != 1:
        raise CheckpointError(f"unsupported version {header['version']}")
    mode = header["mode"]
    if mode not in (AMORTIZED, DIRECT_LATENT):
        raise CheckpointError(f"unknown mode {mode!r}")
    check_keys(header["dims"], [f.name for f in fields(ModelDims)],
               "model dims", CheckpointError)
    dims = ModelDims(**header["dims"])
    try:
        cfgs = dims.net_configs()
    except (DimMismatch, TypeError) as e:  # a zero or non-numeric width
        raise CheckpointError(f"model dims: {e}") from e
    check_keys(header["nets"], [k for k in cfgs
                                if mode == AMORTIZED or k not in _HEADS],
               "model nets", CheckpointError)
    netp = {}
    for key, ent in header["nets"].items():
        cfg = cfgs[key]
        values = blob.array(payload, ent, (nets.n_params(cfg),),
                            f"model net {key}", ("config", "count", "offset"))
        if ent["config"] != list(astuple(cfg)):
            raise CheckpointError(f"model net {key}: config is not its dims'")
        netp[key] = nets.MlpParams(cfg, values)
    D, Dp = dims.n_shape_coeffs, dims.n_texture_coeffs
    shapes = ({"alpha": (None, D), "beta": (None, Dp), "view6d": (None, 6)}
              if mode == DIRECT_LATENT else {})
    check_keys(header["latents"], shapes, "model latents", CheckpointError)
    latents = {key: blob.array(payload, header["latents"][key], shape,
                               f"model latent {key}")
               for key, shape in shapes.items()}
    if len({arr.shape[0] for arr in latents.values()}) > 1:
        raise CheckpointError("model latents differ in their frame count")
    return DeformerModel(dims=dims, mode=mode, nets=netp, latents=latents)
