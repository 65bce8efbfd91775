"""SGD-with-momentum fitting loop over synthetic categories.

Composes the deformation model, the loss stack and generated datasets into a
deterministic, resumable optimization run with per-step and per-epoch logs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import blob, losses, metrics, synth, tape
from . import model as model_mod
from .errors import (
    CheckpointError,
    DegenerateCloud,
    DegenerateDepth,
    DimMismatch,
    InfeasibleConstraint,
    InvalidSpec,
    NonFiniteGradient,
    check_keys,
    check_types,
)

_STATE_MAGIC = b"DEFMAP-TRAIN1\n"

LOG_TERMS = (*losses.TERMS, "min_k_raw", "min_k_refs")

#: metrics.csv columns; the epoch-log rows carry them plus ``val_failed``
METRIC_COLS = ("epoch", "mean_total", *(f"mean_{t}" for t in LOG_TERMS),
               "d_pcl", "d_depth", "lr", "nonfinite")


@dataclass
class TrainConfig:
    """Optimization schedule; defaults are the desk-scale configuration.

    The full-scale schedule (50 epochs x 3000 batches) stays selectable
    through ``epochs`` and ``batches_per_epoch``.
    """

    lr: float = 0.001
    momentum: float = 0.9
    epochs: int = 5
    batches_per_epoch: int = 200
    batch_size: int = 10
    n_pixels: int | None = 220          # per-frame pixel subsample
    plateau_patience: int = 1
    plateau_factor: float = 0.1
    plateau_rel_improve: float = 1e-3
    max_lr_decays: int = 3
    clip_norm: float = 10.0             # global-norm cap; 0 disables
    latent_lr_mult: float = 10.0        # direct-latent rows step faster
    n_eval_points: int = 800            # cloud size for epoch validation
    validate_every: int = 1             # epochs between validations; 0 = end
    checkpoint_every: int = 0           # epochs between snapshots; 0 = end only
    holdout_every: int = 0              # every K-th frame held out; 0 = none
    ablate: tuple = ()
    seed: int = 0
    weights: losses.LossWeights = field(default_factory=losses.LossWeights)
    loss_cfg: losses.LossConfig = field(default_factory=losses.LossConfig)

    def __post_init__(self):
        check_types(self, InvalidSpec,
                    {"losses.LossWeights": losses.LossWeights,
                     "losses.LossConfig": losses.LossConfig})
        if not self.lr > 0:
            raise InvalidSpec("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidSpec("momentum must lie in [0, 1)")
        for name in self.ablate:
            if not isinstance(name, str) or name not in losses.TERMS:
                raise InvalidSpec(f"unknown ablation target {name!r}")
        if self.epochs < 0 or self.batches_per_epoch < 1 or self.batch_size < 1:
            raise InvalidSpec("schedule sizes must be positive")
        if self.validate_every < 0 or self.checkpoint_every < 0:
            raise InvalidSpec("validate_every and checkpoint_every must be "
                              ">= 0 (0 = at the end only)")
        if self.holdout_every < 0:
            raise InvalidSpec("holdout_every must be >= 0 (0 = no holdout)")
        if self.n_eval_points < 2:
            raise InvalidSpec("n_eval_points must be >= 2")
        if self.n_pixels is not None and self.n_pixels < 1:
            raise InvalidSpec("n_pixels must be >= 1 (or null for every pixel)")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")


def effective_weights(weights: losses.LossWeights, ablate) -> losses.LossWeights:
    """Copy of ``weights`` with every ablated term's weights set to zero."""
    return replace(weights, **{f: 0.0 for name in ablate
                               for f in losses.TERMS[name]})


# -- optimizer ----------------------------------------------------------------


@dataclass
class TrainState:
    """Everything mutable about a run; serializable and bit-exactly resumable.

    ``params`` aliases the model's own arrays, so stepping the state steps
    the model. Plateau-tracking fields live here so a resumed run continues
    the schedule exactly where it stopped.
    """

    params: dict
    velocity: dict
    lr: float
    momentum: float
    lr_scale: dict
    step: int = 0
    epoch: int = 0
    best: float = np.inf
    wait: int = 0
    decays: int = 0
    nonfinite: int = 0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)


def init_state(model: model_mod.DeformerModel, cfg: TrainConfig) -> TrainState:
    params = model.param_arrays()
    return TrainState(
        params=params,
        velocity={k: np.zeros_like(v) for k, v in params.items()},
        lr=cfg.lr,
        momentum=cfg.momentum,
        lr_scale={
            k: (cfg.latent_lr_mult if k.startswith("lat:") else 1.0)
            for k in params
        },
        rng=np.random.default_rng(cfg.seed),
    )


def sgd_momentum_step(state: TrainState, grads: dict) -> TrainState:
    """Classical momentum: v <- mu*v + g; theta <- theta - lr*v.

    ``lr`` is ``state.lr`` (times the parameter's ``lr_scale``).

    All gradients are validated before any buffer is touched, so a
    NonFiniteGradient leaves the state exactly as it was.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient in {name}")
    for name, g in grads.items():
        v = state.velocity[name]
        v *= state.momentum
        v += g
        state.params[name] -= (state.lr * state.lr_scale.get(name, 1.0)) * v
    state.step += 1
    return state


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale all gradients in place so their joint norm is <= max_norm.

    Returns the pre-clip norm. ``max_norm <= 0`` disables clipping (the
    norm is still reported).
    """
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


# -- learning-rate schedule -----------------------------------------------------


def _plateau_step(s: TrainState, value: float, patience: int, factor: float,
                  rel: float, max_decays: int) -> float:
    """Cut the learning rate when the epoch objective stops improving.

    An epoch counts as improving when it beats ``s.best`` by a relative
    margin ``rel``. After ``patience`` non-improving epochs in a row the
    rate is multiplied by ``factor``; the wait counter then resets, so each
    plateau episode triggers one cut, up to ``max_decays`` cuts.
    """
    if not np.isfinite(s.best) or value < s.best - rel * abs(s.best):
        s.best = value
        s.wait = 0
    else:
        s.wait += 1
        if s.wait >= patience and s.decays < max_decays:
            s.lr *= factor
            s.decays += 1
            s.wait = 0
    return s.lr


# -- state io ------------------------------------------------------------------

#: TrainState fields stored as train-state header scalars, under their names
_STATE_COUNTERS = ("step", "epoch", "wait", "decays", "nonfinite")
_STATE_SCALARS = ("lr", "momentum", "best", "lr_scale", *_STATE_COUNTERS)


def save_state(path, state: TrainState) -> None:
    """Versioned header plus little-endian float64 param/velocity payload."""
    params = dict(sorted(state.params.items()))
    velocity = dict(sorted(state.velocity.items()))
    param_entries, velocity_entries = blob.layout(params, velocity)
    header = {
        "version": 1,
        **{k: getattr(state, k) for k in _STATE_SCALARS},
        "rng": state.rng.bit_generator.state,
        "arrays": {"params": param_entries, "velocity": velocity_entries},
    }
    blob.write(path, _STATE_MAGIC, header,
               [*params.values(), *velocity.values()])


def load_state(path, model: model_mod.DeformerModel) -> TrainState:
    """Rebind a saved state to ``model``: values are copied into the model's
    own arrays so the state and the model keep sharing storage."""
    header, payload = blob.read(path, _STATE_MAGIC, "train-state",
                                ("version", "rng", "arrays", *_STATE_SCALARS))
    if header["version"] != 1:
        raise CheckpointError(f"unsupported version {header['version']}")
    params = model.param_arrays()
    check_keys(header["arrays"], ("params", "velocity"), "train-state arrays",
               CheckpointError)
    saved = {}
    for part, entries in header["arrays"].items():
        check_keys(entries, params, f"train-state {part}", CheckpointError)
        saved[part] = {name: blob.array(payload, ent, params[name].shape,
                                        f"train-state {part} {name}")
                       for name, ent in entries.items()}
    # counters are ints (a bool is not); lr, momentum, best and the
    # lr_scale values are numbers
    check_keys(header["lr_scale"], params, "train-state lr_scale",
               CheckpointError)
    numbers = (header["lr"], header["momentum"], header["best"],
               *header["lr_scale"].values())
    if not (all(type(header[k]) is int for k in _STATE_COUNTERS)
            and all(type(v) in (int, float) for v in numbers)):
        raise CheckpointError("train-state header: a counter is not an int "
                              "or a rate, momentum or best not a number")
    rng = np.random.default_rng()
    try:
        rng.bit_generator.state = header["rng"]
    except (KeyError, OverflowError, TypeError, ValueError) as e:
        raise CheckpointError(f"train-state rng: {e!r}") from e
    for name, arr in saved["params"].items():
        params[name][...] = arr
    return TrainState(params=params, velocity=saved["velocity"], rng=rng,
                      **{k: header[k] for k in _STATE_SCALARS})


# -- evaluation ------------------------------------------------------------------

#: per-frame scores of :func:`eval_frames` rows, in ``eval.csv`` order
SCORES = ("d_pcl", "d_depth", "d_depth_anchored")


def eval_frames(cat: synth.GroundTruthCategory, mdl: model_mod.DeformerModel,
                frame_ids, n_points: int) -> list[dict]:
    """Per-frame shape and depth metrics.

    d_pcl compares a dense sweep of the embedding sphere through the
    learned basis against the generator surface. d_depth reads per-pixel
    depth through the model's own canonical map (predicted embeddings);
    d_depth_anchored reads it at the dataset's annotated canonical points,
    isolating basis/pose quality from embedding quality.

    A metric that meets a degenerate cloud or depth map is NaN for that
    frame only; the row's ``errors`` lists the error class of each such
    metric.
    """
    eval_kappa = synth.fibonacci_sphere(n_points)
    rows = []
    for fid in frame_ids:
        fr = cat.frames[fid]
        pred = model_mod.predict_np(mdl, fr.instance_desc, fr.frame_id,
                                    fr.descriptors)
        cloud = model_mod.surface_sample(mdl, eval_kappa, pred["alpha"])
        gt_cloud = cat.surface_points(eval_kappa, fr.gt_alpha)
        gt_depth = fr.depth[fr.pix_rc[:, 0], fr.pix_rc[:, 1]]
        z_emb = (model_mod.basis_np(mdl, pred["kappa"]) @ pred["alpha"]
                 @ pred["R"].T)[:, 2]
        z_anchor = (model_mod.basis_np(mdl, fr.gt_kappa) @ pred["alpha"]
                    @ pred["R"].T)[:, 2]
        row = {"frame_id": fid, "instance_id": fr.instance_id,
               "pred_cloud": cloud, "gt_cloud": gt_cloud, "errors": []}
        _score(row, "d_pcl", metrics.point_cloud_distance, cloud, gt_cloud)
        _score(row, "d_depth", metrics.depth_error, z_emb, gt_depth)
        _score(row, "d_depth_anchored", metrics.depth_error, z_anchor,
               gt_depth)
        rows.append(row)
    return rows


def _score(row: dict, col: str, metric, *args) -> None:
    """row[col] = metric(*args), or NaN plus the error class if degenerate."""
    try:
        row[col] = metric(*args)
    except (DegenerateCloud, DegenerateDepth) as e:
        row[col] = np.nan
        row["errors"].append(type(e).__name__)


def _finite_mean(values) -> float:
    finite = [v for v in values if np.isfinite(v)]
    return float(np.mean(finite)) if finite else np.nan


def reduce_rows(rows: list[dict]) -> tuple[dict, list]:
    """Mean of each score over the frames where it is finite (NaN when it is
    finite on none), and the ``errors`` list of every failed frame."""
    means = {col: _finite_mean([r[col] for r in rows]) for col in SCORES}
    return means, [r["errors"] for r in rows if r["errors"]]


def validate_frames(category, model: model_mod.DeformerModel, frame_ids,
                    n_points: int) -> tuple[float, float, list]:
    """Mean d_pcl and d_depth of :func:`eval_frames` rows under
    :func:`reduce_rows`, plus the ``errors`` list of every failed frame."""
    means, failed = reduce_rows(eval_frames(category, model, frame_ids,
                                            n_points))
    return means["d_pcl"], means["d_depth"], failed


# -- fit -------------------------------------------------------------------------


def _csv_writer(f, header):
    """CSV writer appending to ``f``; an empty file gets the header row first."""
    w = csv.writer(f)
    if f.tell() == 0:
        w.writerow(header)
    return w


def step_leaves(model: model_mod.DeformerModel) -> dict[str, tape.Var]:
    """The leaves of one training step: each network's leaf is a float32
    copy of its float64 weights, so the nets compute in float32 (see
    :func:`nets.mlp_forward`); the latent tables stay float64. The
    gradients :func:`tape.collect` returns are float64 either way."""
    leaves = model_mod.make_leaves(model)
    for name, leaf in leaves.items():
        if name.startswith("net:"):
            leaves[name] = tape.Var(leaf.data.astype(np.float32))
    return leaves


def _train_step(model: model_mod.DeformerModel, frames, w_eff,
                cfg: TrainConfig, state: TrainState):
    """One optimizer step on a batch; returns (loss value, breakdown,
    pre-clip gradient norm), the norm NaN when a non-finite gradient made
    the step a skipped one.

    The step's graph and leaves live only in this call, so the next step
    builds its graph after this one's is freed.
    """
    leaves = step_leaves(model)
    total, breakdown = losses.total_loss(model, leaves, frames, w_eff,
                                         cfg.loss_cfg, state.rng,
                                         n_pixels=cfg.n_pixels)
    value, grads = tape.collect(total, leaves)
    try:
        gnorm = clip_global_norm(grads, cfg.clip_norm)
        sgd_momentum_step(state, grads)
    except NonFiniteGradient:
        state.nonfinite += 1
        gnorm = np.nan
    return value, breakdown, gnorm


def fit(category, model: model_mod.DeformerModel, cfg: TrainConfig,
        train_ids, val_ids, run_dir, state: TrainState | None):
    """Optimize ``model`` on a category's frames; returns the per-epoch log.

    ``train_ids``/``val_ids`` index ``category.frames``. Each log row holds
    the ``METRIC_COLS`` values plus ``val_failed``, the ``errors`` list of
    every validation frame that failed (see :func:`validate_frames`; empty
    when the epoch was not validated). ``state`` None starts a fresh run;
    a loaded ``state`` resumes one: the step/epoch counters, rng stream,
    plateau bookkeeping and momentum buffers continue bit-exactly.

    The run writes ``config.json``, a per-step ``log.csv``, a per-epoch
    ``metrics.csv`` and model/state checkpoints into ``run_dir``.
    A resumed run appends to the logs it finds there; a new log file
    starts with its header row.
    Non-finite gradient steps are skipped, counted, and reported; an
    epoch's means and its plateau check cover its applied steps only (an
    epoch with none logs NaN means and leaves the schedule as it was).
    """
    train_frames = [category.frames[i] for i in train_ids]
    if not train_frames:
        raise DimMismatch("no training frames")
    instance_ids = [fr.instance_id for fr in train_frames]
    n_instances = len(set(instance_ids))
    if n_instances < cfg.batch_size:  # before run_dir exists
        raise InfeasibleConstraint(
            f"batch of {cfg.batch_size} distinct instances from "
            f"{n_instances} in the training frames")
    azimuths = [synth.azimuth_of(fr.labels.rotation) for fr in train_frames]
    rebal = synth.rebalance_weights(azimuths)
    w_eff = effective_weights(cfg.weights, cfg.ablate)
    fresh = state is None
    if fresh:
        state = init_state(model, cfg)

    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(
        json.dumps(asdict(cfg), indent=2, sort_keys=True))
    if fresh:  # a fresh run starts its logs over
        for name in ("log.csv", "metrics.csv"):
            (run_dir / name).unlink(missing_ok=True)

    epoch_log = []
    with open(run_dir / "log.csv", "a", newline="") as log_f, \
            open(run_dir / "metrics.csv", "a", newline="") as met_f:
        log_w = _csv_writer(
            log_f, ["step", "epoch", "lr", "total", *LOG_TERMS, "grad_norm"])
        met_w = _csv_writer(met_f, METRIC_COLS)
        while state.epoch < cfg.epochs:
            totals = []  # of the applied steps only
            term_sums = dict.fromkeys(LOG_TERMS, 0.0)
            for _ in range(cfg.batches_per_epoch):
                batch = synth.make_batches(
                    instance_ids, rebal, cfg.batch_size, state.rng)
                value, breakdown, gnorm = _train_step(
                    model, [train_frames[i] for i in batch], w_eff, cfg,
                    state)
                if not np.isnan(gnorm):
                    totals.append(value)
                    for t in LOG_TERMS:
                        term_sums[t] += breakdown[t]
                log_w.writerow([
                    state.step, state.epoch, repr(state.lr), repr(value),
                    *(repr(breakdown[t]) for t in LOG_TERMS), repr(gnorm),
                ])
            lr_used = state.lr
            if totals:
                mean_total = float(np.mean(totals))
                term_means = {t: term_sums[t] / len(totals) for t in LOG_TERMS}
                _plateau_step(state, mean_total, cfg.plateau_patience,
                              cfg.plateau_factor, cfg.plateau_rel_improve,
                              cfg.max_lr_decays)
            else:  # no step applied: nothing to judge the schedule by
                mean_total = np.nan
                term_means = dict.fromkeys(LOG_TERMS, np.nan)
            state.epoch += 1
            run_val = (state.epoch == cfg.epochs
                       or (cfg.validate_every > 0
                           and state.epoch % cfg.validate_every == 0))
            if run_val:
                d_pcl, d_depth, val_failed = validate_frames(
                    category, model, val_ids, cfg.n_eval_points)
            else:
                d_pcl, d_depth, val_failed = np.nan, np.nan, []
            row = {
                "epoch": state.epoch,
                "mean_total": mean_total,
                **{f"mean_{t}": term_means[t] for t in LOG_TERMS},
                "d_pcl": d_pcl,
                "d_depth": d_depth,
                "lr": lr_used,
                "nonfinite": state.nonfinite,
                "val_failed": val_failed,
            }
            epoch_log.append(row)
            met_w.writerow([repr(row[k]) if isinstance(row[k], float)
                            else row[k] for k in METRIC_COLS])
            met_f.flush()
            log_f.flush()
            if (cfg.checkpoint_every > 0
                    and state.epoch % cfg.checkpoint_every == 0
                    and state.epoch < cfg.epochs):
                model_mod.save_model(run_dir / f"model_ep{state.epoch}.bin",
                                     model)
                save_state(run_dir / f"state_ep{state.epoch}.bin", state)
        model_mod.save_model(run_dir / "model_final.bin", model)
        save_state(run_dir / "state_final.bin", state)
    return epoch_log
