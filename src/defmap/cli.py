"""Command-line front end: dataset generation, fitting, evaluation, checks.

Subcommands
-----------
synth-gen         generate a synthetic category dataset on disk
fit               optimize a model on a dataset, writing a run directory
eval              score a checkpoint against a dataset (CSV + optional PLY)
gradcheck         finite-difference audit of every loss gradient
texture-transfer  render one frame's geometry with another frame's texture

Every run writes a ``manifest.json`` next to its artifacts recording the
resolved configuration, input content hashes, output paths, library versions
and a hash over everything that determines the result (the timestamp is
excluded from that hash). Exit codes: 0 success, 1 a check reported failures,
2 usage error, 3+ one code per error class in ``errors`` declaration order
(see ``EXIT_CODES``).

Images are written as binary PPM (P6, 8-bit); converting to PNG is left to
external tools so the package stays free of codec dependencies.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import os
import platform
import sys
from collections import Counter
from dataclasses import asdict

import numpy as np

from . import __version__, errors, losses, metrics
from . import model as model_mod
from . import synth, tape, train
from .train import eval_frames

# 0 = success, 1 = checks failed, 2 = usage; the error classes follow in
# the order ``errors`` defines them, so a new class goes last and every
# earlier code stays.
EXIT_CODES = {cls: 3 + i
              for i, cls in enumerate(errors.DefmapError.__subclasses__())}
_EXIT_OTHER = 3 + len(EXIT_CODES)


def exit_code_for(exc: errors.DefmapError) -> int:
    return EXIT_CODES.get(type(exc), _EXIT_OTHER)


# -- manifests ------------------------------------------------------------------


def _file_sha256(path) -> str:
    h = hashlib.sha256()
    synth.hash_file(h, path)
    return h.hexdigest()


def _canonical_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def write_manifest(path, args, config: dict, inputs: dict, outputs: list,
                   seed=None) -> dict:
    """Record the run of the parsed command line ``args``; the hash covers
    command, config and input identities."""
    command = args.command
    manifest = {
        "command": command,
        "argv": list(args.argv),
        "config": config,
        "inputs": inputs,
        "outputs": sorted(str(p) for p in outputs),
        "seed": seed,
        "versions": {
            "defmap": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "config_hash": _canonical_hash(
            {"command": command, "config": config, "inputs": inputs}),
        "timestamp_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
    }
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return manifest


def _input_records(dataset, **files) -> dict:
    """Manifest ``inputs``: the dataset by its content hash, every other
    input file (name -> path) by its sha256."""
    return {"dataset": {"path": str(dataset),
                        "dataset_hash": synth.dataset_hash(dataset)},
            **{name: {"path": str(path), "sha256": _file_sha256(path)}
               for name, path in files.items()}}


def _check_frames(cat: synth.GroundTruthCategory, frame_ids,
                  what: str = "frame") -> None:
    """InvalidSpec for the first id that is not a frame of ``cat``."""
    for fid in frame_ids:
        if fid < 0 or fid >= len(cat.frames):
            raise errors.InvalidSpec(f"{what} {fid} outside the dataset")


def _load_json(path) -> dict:
    try:
        with open(path) as f:
            out = json.load(f)
    except (OSError, ValueError) as e:  # missing, not UTF-8 or not JSON
        raise errors.IoError(f"cannot read {path!r}: {e}") from e
    if not isinstance(out, dict):
        raise errors.InvalidSpec(f"{path!r} must hold a JSON object")
    return out


# -- synth-gen --------------------------------------------------------------------

# preset -> spec builder of a seed; "benchmark" is the default category
_PRESETS = {
    "default": synth.CategorySpec,
    "fixed-point": synth.fixed_point_spec,
    "benchmark": synth.CategorySpec,
}


def _build_spec(args) -> synth.CategorySpec:
    seed = 0 if args.seed is None else args.seed
    base = asdict(_PRESETS[args.preset](seed=seed))
    if args.spec is not None:
        overrides = _load_json(args.spec)
        unknown = set(overrides) - set(base)
        if unknown:
            raise errors.InvalidSpec(
                f"unknown spec fields: {sorted(unknown)}")
        base.update(overrides)
    if args.seed is not None:
        base["seed"] = args.seed
    return synth.CategorySpec(**base)


def cmd_synth_gen(args) -> int:
    spec = _build_spec(args)
    cat = synth.generate_category(spec)
    outputs = synth.save_category(args.out, cat)
    ds_hash = synth.dataset_hash(args.out)
    write_manifest(os.path.join(args.out, "manifest.json"), args,
                   asdict(spec), inputs={}, outputs=outputs, seed=spec.seed)
    print(f"dataset: {args.out}")
    print(f"frames: {len(cat.frames)}")
    # seeded: the z-buffer's silhouette; kept: the pixels whose refinement
    # converged (the rest are dropped)
    kept = sum(len(fr.pix_rc) for fr in cat.frames)
    seeded = sum(int(np.count_nonzero(fr.mask_dist == 0)) for fr in cat.frames)
    print(f"pixels: {kept} of {seeded} refined")
    print(f"dataset_hash: {ds_hash}")
    return 0


# -- fit ---------------------------------------------------------------------------


# TrainConfig field -> type of the fit flag that overrides it
_FIT_FLAGS = {"epochs": int, "batches_per_epoch": int, "batch_size": int,
              "lr": float, "seed": int, "n_pixels": int,
              "validate_every": int, "checkpoint_every": int}


def _build_model(args, cat: synth.GroundTruthCategory,
                 rng: np.random.Generator) -> model_mod.DeformerModel:
    dims_fields = {} if args.model_config is None \
        else _load_json(args.model_config)
    # the label prior compares basis matrices entrywise, so the model's
    # coefficient count must equal the dataset's basis rank
    forced = {
        "descriptor_dim": cat.spec.descriptor_dim,
        "instance_dim": cat.spec.instance_desc_dim,
        "n_shape_coeffs": cat.spec.n_shape_coeffs,
    }
    for key, val in forced.items():
        if key in dims_fields and dims_fields[key] != val:
            raise errors.InvalidSpec(
                f"{key}={dims_fields[key]} conflicts with the dataset ({val})")
        dims_fields[key] = val
    try:
        dims = model_mod.ModelDims(**dims_fields)
    except TypeError as e:
        raise errors.InvalidSpec(f"bad model config: {e}") from e
    mode = (model_mod.DIRECT_LATENT if args.mode == "direct-latent"
            else model_mod.AMORTIZED)
    n_frames = len(cat.frames) if mode == model_mod.DIRECT_LATENT else 0
    return model_mod.init_model(dims, mode, rng, n_frames=n_frames)


def _fit_usage_error(msg: str):
    """Exit 2 like an argparse usage error, for checks argparse cannot make."""
    print(f"defmap fit: error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def cmd_fit(args) -> int:
    cat = synth.load_category(args.dataset)
    if args.holdout_every is not None and args.holdout_every < 0:
        _fit_usage_error("--holdout-every must be >= 0 (0 = no holdout)")
    state, config_path, resumed = None, args.config, {}
    if args.resume is not None:
        if (args.mode, args.model_config, args.config) != (None, None, None):
            _fit_usage_error("--mode, --model-config and --config do not apply "
                             "to --resume; the resumed run fixes them")
        files = train.resume_files(args.resume)
        config_path = files.pop("config")
        resumed = {f"resume_{part}": path for part, path in files.items()}
        mdl = model_mod.load_model(files["model"])
        state = train.load_state(files["state"], mdl)
    # the config file (the resumed run's own) under the explicit flags
    values = {} if config_path is None else _load_json(config_path)
    for key in (*_FIT_FLAGS, "holdout_every", "ablate"):
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    cfg = train.config_from_json(values, cat.spec.camera_kind)
    holdout = cfg.holdout_every  # the flag's, else the resumed run's
    if state is None:
        mdl = _build_model(args, cat, np.random.default_rng(cfg.seed))
    if mdl.mode == model_mod.DIRECT_LATENT and holdout > 0:
        # decided on the model actually used, built or resumed
        _fit_usage_error("--holdout-every needs an amortized model; "
                     "direct-latent rows of held-out frames are never trained")

    ids = list(range(len(cat.frames)))
    if holdout > 0:
        val_ids = ids[::holdout]
        train_ids = [i for i in ids if i % holdout != 0]
    else:
        train_ids = val_ids = ids

    epoch_log, outputs = train.fit(cat, mdl, cfg, train_ids, val_ids,
                                   args.out, state)

    cfg_dict = asdict(cfg)
    cfg_dict["effective_weights"] = asdict(
        train.effective_weights(cfg.weights, cfg.ablate))
    cfg_dict["mode"] = mdl.mode
    cfg_dict["model_dims"] = asdict(mdl.dims)
    cfg_dict["train_ids"] = train_ids
    cfg_dict["val_ids"] = val_ids
    write_manifest(
        os.path.join(args.out, "manifest.json"), args, cfg_dict,
        inputs=_input_records(args.dataset, **resumed),
        outputs=outputs, seed=cfg.seed,
    )
    last = epoch_log[-1] if epoch_log else {}
    print(f"run: {args.out}")
    if last:
        print(f"epochs: {last['epoch']}  mean_total: {last['mean_total']:.6g}"
              f"  d_pcl: {last['d_pcl']:.6g}  d_depth: {last['d_depth']:.6g}")
        _report_failures("validation frames", last["val_failed"])
    return 0


# -- eval --------------------------------------------------------------------------


def _report_failures(what: str, failed) -> None:
    """One stderr line counting failed frames by error class, if any failed.

    ``failed`` holds the ``errors`` list of each failed frame.
    """
    if failed:
        kinds = Counter(name for names in failed for name in set(names))
        print(f"failed {what}: {len(failed)} ("
              + ", ".join(name if n == 1 else f"{name} x{n}"
                          for name, n in sorted(kinds.items())) + ")",
              file=sys.stderr)


def cmd_eval(args) -> int:
    if args.n_points < 2:  # one point or none has no spread to compare
        raise errors.InvalidSpec("--n-points must be >= 2")
    cat = synth.load_category(args.dataset)
    mdl = model_mod.load_model(args.checkpoint)
    frame_ids = (list(range(len(cat.frames))) if not args.frames
                 else sorted(set(args.frames)))
    _check_frames(cat, frame_ids)
    rows = eval_frames(cat, mdl, frame_ids, args.n_points)
    means, failed = train.reduce_rows(rows)

    os.makedirs(args.out, exist_ok=True)
    cols = ("frame_id", "instance_id", *train.SCORES)
    outputs = ["eval.csv"]
    with open(os.path.join(args.out, "eval.csv"), "w") as f:
        f.write(",".join(cols) + "\n")
        for r in rows:
            f.write(",".join(
                repr(r[c]) if isinstance(r[c], float) else str(r[c])
                for c in cols) + "\n")
        f.write("mean,," + ",".join(repr(means[c]) for c in train.SCORES)
                + "\n")
    if args.dump_ply:
        for r in rows:
            pred_name = f"pred_frame{r['frame_id']:04d}.ply"
            gt_name = f"gt_frame{r['frame_id']:04d}.ply"
            # a non-finite prediction is a failed frame, with no cloud to write
            if np.isfinite(r["pred_cloud"]).all():
                metrics.save_ply(os.path.join(args.out, pred_name),
                                 r["pred_cloud"])
                outputs.append(pred_name)
            metrics.save_ply(os.path.join(args.out, gt_name), r["gt_cloud"])
            outputs.append(gt_name)

    write_manifest(
        os.path.join(args.out, "manifest.json"), args,
        {"n_points": args.n_points, "frames": frame_ids,
         "dump_ply": bool(args.dump_ply)},
        inputs=_input_records(args.dataset, checkpoint=args.checkpoint),
        outputs=outputs,
    )
    print(f"frames: {len(rows)}  d_pcl: {means['d_pcl']:.6g}"
          f"  d_depth: {means['d_depth']:.6g}")
    _report_failures("frames", failed)
    return 0


# -- gradcheck ----------------------------------------------------------------------

# row -> (the loss term it isolates, the parameters it probes). Finite
# differences are only meaningful where the designed gradient is complete:
# the appearance term stops its gradient at the embedding, and each term
# simply never touches some networks. Row pseudo_huber checks the robust
# penalty alone, probing each coordinate of its 5-vector once.
_GEOM_LEAVES = ("net:embed", "net:basis", "net:shape_head", "net:view_head")
_ROWS = {
    "prior": ("prior", _GEOM_LEAVES),
    "reprojection_ortho": ("repro", _GEOM_LEAVES),
    "reprojection_ray": ("repro", _GEOM_LEAVES),
    "embedding_alignment": ("emb_align", ("net:embed", "net:view_head")),
    "mask": ("mask", ("net:basis", "net:shape_head", "net:view_head")),
    "texture": ("texture", ("net:texture", "net:texture_head")),
    "min_k": ("min_k", _GEOM_LEAVES),
}
GRADCHECK_ROWS = ("pseudo_huber", *_ROWS)

_GRADCHECK_TOL = 1e-4


@functools.cache
def _gradcheck_category(kind: str, seed: int) -> synth.GroundTruthCategory:
    return synth.generate_category(synth.CategorySpec(
        seed=seed + 17,
        n_instances=3,
        frames_per_instance=1,
        image_h=16,
        image_w=16,
        camera_kind=kind,
        n_shape_coeffs=2,
        n_keypoints=6,
        descriptor_dim=6,
        instance_desc_dim=5,
        n_texture_params=3,
        sigma_descriptor=0.02,
        sigma_label=0.01,
        n_surface_samples=1000,
    ))


def _gradcheck_model(seed: int) -> model_mod.DeformerModel:
    dims = model_mod.ModelDims(
        descriptor_dim=6, instance_dim=5, n_shape_coeffs=2,
        n_texture_coeffs=3, embed_hidden=8, embed_blocks=1,
        basis_hidden=8, basis_blocks=1, texture_hidden=8, texture_blocks=1,
        head_hidden=6, head_blocks=1,
    )
    rng = np.random.default_rng(seed + 29)
    mdl = model_mod.init_model(dims, model_mod.AMORTIZED, rng)
    # shove the fresh model to a generic point: the near-zero init shape
    # sits inside every silhouette, a flat (zero-gradient) region of the
    # one-sided mask term that would make its check vacuous
    for arr in mdl.param_arrays().values():
        arr += 0.25 * rng.standard_normal(arr.shape)
    # inflate the shape so mask samples straddle the silhouette boundary
    mdl.nets["basis"].view("w_out")[:] *= 6.0
    mdl.nets["basis"].view("b_out")[:] *= 6.0
    return mdl


def check_gradients(name: str, n_points: int, seed: int,
                    corrupt: bool) -> float:
    """Max FD-vs-analytic relative error for one loss family.

    ``corrupt`` adds a stop-gradient term to the objective, making the
    analytic gradient wrong at one probed coordinate on purpose — a
    negative control proving the comparison can fail.
    """
    rng = np.random.default_rng(seed + 101)
    if name == "pseudo_huber":
        def f(v):
            return losses.pseudo_huber_rows(v, 0.02)
        point = rng.standard_normal(5)
        if corrupt:
            base = f
            def f(v):
                return base(v) + 0.05 * tape.detach(v[0])
        return tape.grad_check(f, point)

    kind = synth.geom.PERSPECTIVE if name == "reprojection_ray" \
        else synth.geom.ORTHOGRAPHIC
    cat = _gradcheck_category(kind, seed)
    mdl = _gradcheck_model(seed)
    frames = list(cat.frames[:3])
    # the isolated term at the default weights, with w_repro and w_min_k
    # raised to 1 so their rows are not scaled down
    term, pool_leaves = _ROWS[name]
    weights = train.effective_weights(
        losses.LossWeights(w_repro=1.0, w_min_k=1.0),
        [t for t in losses.TERMS if t != term])
    cfg = losses.LossConfig(n_mask_samples=80)

    # an amortized model's leaves are its networks' flat vectors, in order
    arrays = mdl.param_arrays()
    stops = np.cumsum([arr.size for arr in arrays.values()])
    spans = {n: (stop - arr.size, stop)
             for (n, arr), stop in zip(arrays.items(), stops)}
    point = np.concatenate(list(arrays.values()))

    def f(theta: tape.Var) -> tape.Var:
        leaves = {n: theta[start:stop] for n, (start, stop) in spans.items()}
        total, _ = losses.total_loss(
            mdl, leaves, frames, weights, cfg,
            np.random.default_rng(seed + 7), n_pixels=25)
        if corrupt:
            total = total + 0.05 * tape.detach(theta[int(coords[0])])
        return total

    pool = np.concatenate([np.arange(*spans[n]) for n in spans
                           if n in pool_leaves])
    coords = rng.choice(pool, size=min(n_points, len(pool)), replace=False)

    # a check comparing zero against zero proves nothing
    probe = tape.Var(point)
    tape.backward(f(probe))
    if probe.grad is None or not np.any(probe.grad[pool]):
        raise errors.DegenerateInput(
            f"gradcheck row {name!r} has an all-zero gradient over its "
            "parameter pool; the check point is not generic")
    return tape.grad_check(f, point, coords=coords)


def run_gradcheck(scope, corrupt_one: bool, n_points: int,
                  seed: int) -> list[tuple[str, float, bool]]:
    """(name, max relative error, passed) per loss family."""
    if n_points < 1:
        raise errors.InvalidSpec("gradcheck needs at least 1 point per row")
    if seed < 0:
        raise errors.InvalidSpec(f"gradcheck seed must be >= 0, got {seed}")
    rows = [r for r in GRADCHECK_ROWS if scope is None or scope in r]
    if not rows:
        raise errors.InvalidSpec(f"no gradcheck row matches scope {scope!r}")
    out = []
    for i, name in enumerate(rows):
        err = float(check_gradients(name, n_points=n_points, seed=seed,
                                    corrupt=(corrupt_one and i == 0)))
        out.append((name, err, err < _GRADCHECK_TOL))
    return out


def cmd_gradcheck(args) -> int:
    rows = run_gradcheck(scope=args.scope, corrupt_one=args.corrupt_one,
                         n_points=args.points, seed=args.seed)
    width = max(len(r[0]) for r in rows)
    for name, err, ok in rows:
        print(f"{name:<{width}}  {err:12.3e}  {'PASS' if ok else 'FAIL'}")
    n_fail = sum(not ok for _, _, ok in rows)
    print(f"{n_fail} of {len(rows)} rows failed" if n_fail
          else f"all {len(rows)} rows passed")
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "gradcheck.csv"), "w") as f:
            f.write("name,max_rel_err,passed\n")
            for name, err, ok in rows:
                f.write(f"{name},{err!r},{ok}\n")
        write_manifest(
            os.path.join(args.out, "manifest.json"), args,
            {"scope": args.scope, "corrupt_one": bool(args.corrupt_one),
             "points": args.points},
            inputs={}, outputs=["gradcheck.csv"], seed=args.seed,
        )
    return 1 if n_fail else 0


# -- texture transfer -----------------------------------------------------------------


def write_ppm(path, image: np.ndarray) -> None:
    """Binary PPM (P6, maxval 255) from an (H,W,3) float image in [0,1]."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise errors.DimMismatch("image must be (H,W,3)")
    q = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(q.tobytes())


def transfer_texture(cat: synth.GroundTruthCategory,
                     mdl: model_mod.DeformerModel,
                     target_id: int, texture_id: int) -> np.ndarray:
    """Render the target frame's geometry under the texture frame's style.

    Object pixels get the texture net's color at the target pixels'
    predicted embeddings, driven by the texture frame's style vector only;
    the background is copied from the target frame untouched.
    """
    target = cat.frames[target_id]
    tex = cat.frames[texture_id]
    kappa = model_mod.embed_np(mdl, target.descriptors)
    beta = model_mod.predict_np(mdl, tex.instance_desc, tex.frame_id,
                                tex.kp_desc)["beta"]
    leaves = model_mod.make_leaves(mdl)
    colors = model_mod.texture_at(mdl, leaves, kappa, beta[None],
                                  np.zeros(len(kappa), dtype=int)).data
    out = target.image.copy()
    out[target.pix_rc[:, 0], target.pix_rc[:, 1]] = colors
    return out


def cmd_texture_transfer(args) -> int:
    cat = synth.load_category(args.dataset)
    mdl = model_mod.load_model(args.checkpoint)
    _check_frames(cat, [args.target_frame], "target frame")
    _check_frames(cat, [args.texture_frame], "texture frame")
    out_img = transfer_texture(cat, mdl, args.target_frame,
                               args.texture_frame)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    write_ppm(args.out, out_img)
    write_manifest(
        str(args.out) + ".manifest.json", args,
        {"target_frame": args.target_frame,
         "texture_frame": args.texture_frame},
        inputs=_input_records(args.dataset, checkpoint=args.checkpoint),
        outputs=[args.out],
    )
    print(f"wrote {args.out} ({out_img.shape[1]}x{out_img.shape[0]})")
    return 0


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defmap",
        description="Deformable 3D category fitting on canonical "
                    "sphere embeddings.",
        epilog="Exit codes: 0 ok, 1 checks failed, 2 usage, 3+ per error "
               "class (see README).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("synth-gen", help="generate a synthetic dataset")
    g.add_argument("--out", required=True, help="output dataset directory")
    g.add_argument("--preset", choices=sorted(_PRESETS), default="default")
    g.add_argument("--spec", default=None,
                   help="JSON file overriding category spec fields")
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(func=cmd_synth_gen)

    f = sub.add_parser("fit", help="train a model on a dataset")
    f.add_argument("--dataset", required=True)
    f.add_argument("--out", required=True, help="run directory")
    f.add_argument("--config", default=None,
                   help="JSON file with train config fields "
                        "(weights/loss_cfg as nested objects)")
    f.add_argument("--model-config", default=None,
                   help="JSON file overriding model dimension fields")
    f.add_argument("--mode", choices=["amortized", "direct-latent"],
                   default=None, help="model mode of a fresh fit "
                                      "(default: amortized)")
    for key, typ in _FIT_FLAGS.items():
        f.add_argument("--" + key.replace("_", "-"), type=typ, default=None)
    f.add_argument("--ablate", action="append", default=None,
                   choices=sorted(losses.TERMS),
                   help="zero one loss term (repeatable)")
    f.add_argument("--holdout-every", type=int, default=None,
                   help="every K-th frame is held out for validation "
                        "(amortized mode only; default: the resumed "
                        "run's, else 0)")
    f.add_argument("--resume", default=None,
                   help="run directory to continue from")
    f.set_defaults(func=cmd_fit)

    e = sub.add_parser("eval", help="score a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--dataset", required=True)
    e.add_argument("--out", required=True, help="report directory")
    e.add_argument("--n-points", type=int, default=30000,
                   help="surface samples per evaluated cloud (default "
                        "30000, which is slow: one frame's ICP took ~86 s "
                        "at that size on a 2-vCPU machine, ~1.3 s at 800)")
    e.add_argument("--frames", type=int, nargs="*", default=[],
                   help="frame ids to evaluate (default: all)")
    e.add_argument("--dump-ply", action="store_true",
                   help="write predicted and reference clouds as PLY")
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("gradcheck",
                       help="finite-difference audit of loss gradients")
    c.add_argument("--scope", default=None,
                   help="only rows whose name contains this substring")
    c.add_argument("--corrupt-one", action="store_true",
                   help="sabotage one gradient as a negative control")
    c.add_argument("--points", type=int, default=100,
                   help="probed coordinates per row (the pseudo_huber "
                        "row probes all 5 of its own)")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None,
                   help="optional report directory (gradcheck.csv)")
    c.set_defaults(func=cmd_gradcheck)

    t = sub.add_parser("texture-transfer",
                       help="one frame's geometry, another frame's texture")
    t.add_argument("--checkpoint", required=True)
    t.add_argument("--dataset", required=True)
    t.add_argument("--target-frame", type=int, required=True,
                   help="frame supplying geometry, mask and background")
    t.add_argument("--texture-frame", type=int, required=True,
                   help="frame supplying the style vector")
    t.add_argument("--out", required=True, help="output PPM image path")
    t.set_defaults(func=cmd_texture_transfer)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except errors.DefmapError as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return exit_code_for(e)


if __name__ == "__main__":
    sys.exit(main())
