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
import hashlib
import json
import os
import platform
import sys
from collections import Counter
from dataclasses import asdict, replace

import numpy as np

from . import __version__, errors, losses, metrics
from . import model as model_mod
from . import synth, tape, train

# 0 = success, 1 = checks failed, 2 = usage; error classes follow in
# declaration order so the mapping stays stable as the taxonomy grows.
_ERROR_ORDER = (
    errors.DimMismatch,
    errors.DegenerateInput,
    errors.BehindCamera,
    errors.WrongCameraKind,
    errors.SingularSystem,
    errors.EmptyVisibleSet,
    errors.KTooLarge,
    errors.DegenerateCloud,
    errors.DegenerateDepth,
    errors.GimbalDegenerate,
    errors.DegenerateRotations,
    errors.InvalidSpec,
    errors.InfeasibleConstraint,
    errors.NonFiniteGradient,
    errors.CheckpointError,
    errors.IoError,
)
EXIT_CODES = {cls: 3 + i for i, cls in enumerate(_ERROR_ORDER)}
_EXIT_OTHER = 3 + len(_ERROR_ORDER)


def exit_code_for(exc: errors.DefmapError) -> int:
    return EXIT_CODES.get(type(exc), _EXIT_OTHER)


# -- manifests ------------------------------------------------------------------


def _file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _canonical_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def write_manifest(path, command: str, argv, config: dict, inputs: dict,
                   outputs: list, seed=None) -> dict:
    """Record one run; the hash covers command, config and input identities."""
    manifest = {
        "command": command,
        "argv": list(argv),
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


def _require_dataset(path) -> synth.GroundTruthCategory:
    if not os.path.isfile(os.path.join(path, "category.json")):
        raise errors.IoError(f"no dataset at {path!r} (category.json missing)")
    return synth.load_category(path)


def _require_model(path) -> model_mod.DeformerModel:
    if not os.path.isfile(path):
        raise errors.IoError(f"no checkpoint at {path!r}")
    return model_mod.load_model(path)


def _load_json(path) -> dict:
    if not os.path.isfile(path):
        raise errors.IoError(f"no config file at {path!r}")
    with open(path) as f:
        try:
            out = json.load(f)
        except json.JSONDecodeError as e:
            raise errors.IoError(f"malformed JSON in {path!r}: {e}") from e
    if not isinstance(out, dict):
        raise errors.InvalidSpec(f"{path!r} must hold a JSON object")
    return out


# -- synth-gen --------------------------------------------------------------------

_PRESETS = {
    "default": lambda seed: synth.CategorySpec(seed=seed),
    "fixed-point": synth.fixed_point_spec,
    "benchmark": synth.benchmark_spec,
}


def _build_spec(args) -> synth.CategorySpec:
    seed = 0 if args.seed is None else args.seed
    base = asdict(_PRESETS[args.preset](seed))
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
    synth.save_category(args.out, cat)
    ds_hash = synth.dataset_hash(args.out)
    outputs = ["category.json", "arrays.npz", "labels.json", "keypoints.csv",
               *(f"frames/frame_{fr.frame_id:04d}.npz" for fr in cat.frames)]
    write_manifest(
        os.path.join(args.out, "manifest.json"),
        "synth-gen", args.argv, synth._spec_to_json(spec),
        inputs={}, outputs=outputs, seed=spec.seed,
    )
    print(f"dataset: {args.out}")
    print(f"frames: {len(cat.frames)}")
    print(f"dataset_hash: {ds_hash}")
    return 0


# -- fit ---------------------------------------------------------------------------


def _build_train_config(args, camera_kind: str) -> train.TrainConfig:
    base = {}
    if args.config is not None:
        base = _load_json(args.config)
    w = replace(losses.LossWeights.defaults_for(camera_kind),
                **base.pop("weights", {}))
    lc_fields = base.pop("loss_cfg", {})
    if "blur_radii" in lc_fields:
        lc_fields["blur_radii"] = tuple(lc_fields["blur_radii"])
    lc = losses.LossConfig(**lc_fields)
    overrides = {
        "epochs": args.epochs,
        "batches_per_epoch": args.batches_per_epoch,
        "batch_size": args.batch_size,
        "lr": args.lr,
        "seed": args.train_seed,
        "n_pixels": args.n_pixels,
        "validate_every": args.validate_every,
        "checkpoint_every": args.checkpoint_every,
    }
    for key, val in overrides.items():
        if val is not None:
            base[key] = val
    if args.ablate:
        base["ablate"] = tuple(args.ablate)
    elif "ablate" in base:
        base["ablate"] = tuple(base["ablate"])
    try:
        return train.TrainConfig(**base, weights=w, loss_cfg=lc)
    except TypeError as e:
        raise errors.InvalidSpec(f"bad train config: {e}") from e


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


def cmd_fit(args) -> int:
    cat = _require_dataset(args.dataset)
    cfg = _build_train_config(args, cat.spec.camera_kind)
    state = None
    if args.resume is not None:
        mdl = _require_model(os.path.join(args.resume, "model_final.bin"))
        state_path = os.path.join(args.resume, "state_final.bin")
        if not os.path.isfile(state_path):
            raise errors.IoError(f"no training state at {state_path!r}")
        state = train.load_state(state_path, mdl)
    else:
        mdl = _build_model(args, cat, np.random.default_rng(cfg.seed))

    ids = list(range(len(cat.frames)))
    if args.holdout_every and args.holdout_every > 0:
        val_ids = ids[::args.holdout_every]
        train_ids = [i for i in ids if i % args.holdout_every != 0]
    else:
        train_ids = val_ids = ids

    os.makedirs(args.out, exist_ok=True)
    _, epoch_log = train.fit(cat, mdl, cfg, train_ids=train_ids,
                             val_ids=val_ids, run_dir=args.out, state=state)

    cfg_dict = asdict(cfg)
    cfg_dict["ablate"] = list(cfg.ablate)
    cfg_dict["loss_cfg"]["blur_radii"] = list(cfg.loss_cfg.blur_radii)
    cfg_dict["effective_weights"] = asdict(
        train.effective_weights(cfg.weights, cfg.ablate))
    cfg_dict["mode"] = mdl.mode
    cfg_dict["model_dims"] = asdict(mdl.dims)
    cfg_dict["train_ids"] = train_ids
    cfg_dict["val_ids"] = val_ids
    inputs = {"dataset": {"path": str(args.dataset),
                          "dataset_hash": synth.dataset_hash(args.dataset)}}
    if args.resume is not None:
        inputs["resume_model"] = {
            "path": os.path.join(args.resume, "model_final.bin"),
            "sha256": _file_sha256(
                os.path.join(args.resume, "model_final.bin")),
        }
        inputs["resume_state"] = {
            "path": os.path.join(args.resume, "state_final.bin"),
            "sha256": _file_sha256(
                os.path.join(args.resume, "state_final.bin")),
        }
    write_manifest(
        os.path.join(args.out, "manifest.json"),
        "fit", args.argv, cfg_dict, inputs=inputs,
        outputs=["config.json", "log.csv", "metrics.csv",
                 "model_final.bin", "state_final.bin"],
        seed=cfg.seed,
    )
    last = epoch_log[-1] if epoch_log else {}
    print(f"run: {args.out}")
    if last:
        print(f"epochs: {last['epoch']}  mean_total: {last['mean_total']:.6g}"
              f"  d_pcl: {last['d_pcl']:.6g}  d_depth: {last['d_depth']:.6g}")
    return 0


# -- eval --------------------------------------------------------------------------


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
        ones = np.ones(len(gt_depth), dtype=bool)
        z_emb = (model_mod.basis_np(mdl, pred["kappa"]) @ pred["alpha"]
                 @ pred["R"].T)[:, 2]
        z_anchor = (model_mod.basis_np(mdl, fr.gt_kappa) @ pred["alpha"]
                    @ pred["R"].T)[:, 2]
        row = {"frame_id": fid, "instance_id": fr.instance_id,
               "pred_cloud": cloud, "gt_cloud": gt_cloud, "errors": []}
        _score(row, "d_pcl", metrics.point_cloud_distance, cloud, gt_cloud)
        _score(row, "d_depth", metrics.depth_error, z_emb, gt_depth, ones)
        _score(row, "d_depth_anchored", metrics.depth_error, z_anchor,
               gt_depth, ones)
        rows.append(row)
    return rows


def _score(row: dict, col: str, metric, *args) -> None:
    """row[col] = metric(*args), or NaN plus the error class if degenerate."""
    try:
        row[col] = metric(*args)
    except (errors.DegenerateCloud, errors.DegenerateDepth) as e:
        row[col] = np.nan
        row["errors"].append(type(e).__name__)


def _finite_mean(values) -> float:
    finite = [v for v in values if np.isfinite(v)]
    return float(np.mean(finite)) if finite else np.nan


def cmd_eval(args) -> int:
    cat = _require_dataset(args.dataset)
    mdl = _require_model(args.checkpoint)
    frame_ids = (list(range(len(cat.frames))) if not args.frames
                 else sorted(set(args.frames)))
    for fid in frame_ids:
        if fid < 0 or fid >= len(cat.frames):
            raise errors.InvalidSpec(f"frame {fid} outside the dataset")
    rows = eval_frames(cat, mdl, frame_ids, args.n_points)

    os.makedirs(args.out, exist_ok=True)
    cols = ("frame_id", "instance_id", "d_pcl", "d_depth", "d_depth_anchored")
    outputs = ["eval.csv"]
    with open(os.path.join(args.out, "eval.csv"), "w") as f:
        f.write(",".join(cols) + "\n")
        for r in rows:
            f.write(",".join(
                repr(r[c]) if isinstance(r[c], float) else str(r[c])
                for c in cols) + "\n")
        means = [_finite_mean([r[c] for r in rows]) for c in cols[2:]]
        f.write("mean,," + ",".join(repr(m) for m in means) + "\n")
    if args.dump_ply:
        for r in rows:
            pred_name = f"pred_frame{r['frame_id']:04d}.ply"
            gt_name = f"gt_frame{r['frame_id']:04d}.ply"
            metrics.save_ply(os.path.join(args.out, pred_name),
                             r["pred_cloud"])
            metrics.save_ply(os.path.join(args.out, gt_name), r["gt_cloud"])
            outputs += [pred_name, gt_name]

    write_manifest(
        os.path.join(args.out, "manifest.json"),
        "eval", args.argv,
        {"n_points": args.n_points, "frames": frame_ids,
         "dump_ply": bool(args.dump_ply)},
        inputs={
            "dataset": {"path": str(args.dataset),
                        "dataset_hash": synth.dataset_hash(args.dataset)},
            "checkpoint": {"path": str(args.checkpoint),
                           "sha256": _file_sha256(args.checkpoint)},
        },
        outputs=outputs,
    )
    d_pcl = _finite_mean([r["d_pcl"] for r in rows])
    d_depth = _finite_mean([r["d_depth"] for r in rows])
    print(f"frames: {len(rows)}  d_pcl: {d_pcl:.6g}  d_depth: {d_depth:.6g}")
    failed = [r["errors"] for r in rows if r["errors"]]
    if failed:
        kinds = Counter(name for names in failed for name in set(names))
        print(f"failed frames: {len(failed)} ("
              + ", ".join(name if n == 1 else f"{name} x{n}"
                          for name, n in sorted(kinds.items())) + ")",
              file=sys.stderr)
    return 0


# -- gradcheck ----------------------------------------------------------------------

GRADCHECK_ROWS = (
    "pseudo_huber",
    "prior",
    "reprojection_ortho",
    "reprojection_ray",
    "embedding_alignment",
    "mask",
    "texture",
    "min_k",
)

# one-hot weight sets isolating each term inside the composite objective;
# the texture term carries its own internal photo/percep weights
_ZEROED = dict(w_prior=0.0, w_repro=0.0, w_emb_align=0.0, w_mask=0.0,
               w_min_k=0.0, w_tex_photo=0.0, w_tex_percep=0.0)
_ROW_WEIGHTS = {
    "prior": {**_ZEROED, "w_prior": 1.0},
    "reprojection_ortho": {**_ZEROED, "w_repro": 1.0},
    "reprojection_ray": {**_ZEROED, "w_repro": 1.0},
    "embedding_alignment": {**_ZEROED, "w_emb_align": 1.0},
    "mask": {**_ZEROED, "w_mask": 1.0},
    "texture": {**_ZEROED, "w_tex_photo": 1.0, "w_tex_percep": 0.1},
    "min_k": {**_ZEROED, "w_min_k": 1.0},
}

# finite differences are only meaningful where the designed gradient is
# complete: the appearance term stops its gradient at the embedding, and
# each term simply never touches some networks
_GEOM_LEAVES = ("net:embed", "net:basis", "net:shape_head", "net:view_head")
_ROW_LEAVES = {
    "prior": _GEOM_LEAVES,
    "reprojection_ortho": _GEOM_LEAVES,
    "reprojection_ray": _GEOM_LEAVES,
    "embedding_alignment": ("net:embed", "net:view_head"),
    "mask": ("net:basis", "net:shape_head", "net:view_head"),
    "texture": ("net:texture", "net:texture_head"),
    "min_k": _GEOM_LEAVES,
}

_GRADCHECK_TOL = 1e-4
_gradcheck_cats: dict = {}


def _gradcheck_category(kind: str, seed: int) -> synth.GroundTruthCategory:
    key = (kind, seed)
    if key not in _gradcheck_cats:
        spec = synth.CategorySpec(
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
        )
        _gradcheck_cats[key] = synth.generate_category(spec)
    return _gradcheck_cats[key]


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


def check_gradients(name: str, n_points: int = 100, seed: int = 0,
                    corrupt: bool = False) -> float:
    """Max FD-vs-analytic relative error for one loss family.

    ``corrupt`` adds a stop-gradient term to the objective, making the
    analytic gradient wrong at one probed coordinate on purpose — a
    negative control proving the comparison can fail.
    """
    rng = np.random.default_rng(seed + 101)
    if name == "pseudo_huber":
        coords = None  # 5-vector: probe everything, n_points times over
        def f(v):
            return losses.pseudo_huber(v, 0.02)
        point = rng.standard_normal(5)
        if corrupt:
            base = f
            def f(v):
                return base(v) + 0.05 * tape.detach(v[0])
        return tape.grad_check(f, point, h=1e-6, coords=coords)

    kind = synth.geom.PERSPECTIVE if name == "reprojection_ray" \
        else synth.geom.ORTHOGRAPHIC
    cat = _gradcheck_category(kind, seed)
    mdl = _gradcheck_model(seed)
    frames = list(cat.frames[:3])
    labels = [fr.labels for fr in frames]
    weights = losses.LossWeights(**_ROW_WEIGHTS[name])
    cfg = losses.LossConfig(n_mask_samples=80)

    arrays = mdl.param_arrays()
    names = sorted(arrays)
    shapes = [arrays[n].shape for n in names]
    sizes = [arrays[n].size for n in names]
    point = np.concatenate([arrays[n].ravel() for n in names])

    def f(theta: tape.Var) -> tape.Var:
        leaves = {}
        off = 0
        for n, shape, size in zip(names, shapes, sizes):
            chunk = theta[slice(off, off + size)]
            leaves[n] = chunk if len(shape) == 1 \
                else tape.reshape(chunk, shape)
            off += size
        total, _ = losses.total_loss(
            mdl, leaves, frames, labels, weights, cfg,
            np.random.default_rng(seed + 7), n_pixels=25)
        if corrupt:
            total = total + 0.05 * tape.detach(theta[int(coords[0])])
        return total

    pool = []
    off = 0
    for n, size in zip(names, sizes):
        if n in _ROW_LEAVES[name]:
            pool.extend(range(off, off + size))
        off += size
    coords = rng.choice(np.asarray(pool), size=min(n_points, len(pool)),
                        replace=False)

    # a check comparing zero against zero proves nothing
    probe = tape.Var(point)
    tape.backward(f(probe))
    if probe.grad is None or not np.any(probe.grad[pool]):
        raise errors.DegenerateInput(
            f"gradcheck row {name!r} has an all-zero gradient over its "
            "parameter pool; the check point is not generic")
    return tape.grad_check(f, point, h=1e-6, coords=coords)


def run_gradcheck(scope=None, corrupt_one: bool = False, n_points: int = 100,
                  seed: int = 0) -> list[tuple[str, float, bool]]:
    """(name, max relative error, passed) per loss family."""
    rows = [r for r in GRADCHECK_ROWS if scope is None or scope in r]
    if not rows:
        raise errors.InvalidSpec(f"no gradcheck row matches scope {scope!r}")
    out = []
    for i, name in enumerate(rows):
        err = check_gradients(name, n_points=n_points, seed=seed,
                              corrupt=(corrupt_one and i == 0))
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
            os.path.join(args.out, "manifest.json"),
            "gradcheck", args.argv,
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


def read_ppm(path) -> np.ndarray:
    """(H,W,3) float image in [0,1] from a binary PPM written by write_ppm."""
    with open(path, "rb") as f:
        blob = f.read()
    parts = blob.split(maxsplit=4)
    if len(parts) < 5 or parts[0] != b"P6" or parts[3] != b"255":
        raise errors.IoError(f"{path!r} is not an 8-bit binary PPM")
    w, h = int(parts[1]), int(parts[2])
    pix = np.frombuffer(parts[4], dtype=np.uint8, count=h * w * 3)
    return pix.reshape(h, w, 3).astype(np.float64) / 255.0


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
    if mdl.mode == model_mod.DIRECT_LATENT:
        beta = mdl.latents["beta"][texture_id]
    else:
        beta = model_mod.predict_np(mdl, tex.instance_desc, tex.frame_id,
                                    tex.kp_desc)["beta"]
    leaves = model_mod.make_leaves(mdl)
    colors = model_mod.texture_at(mdl, leaves, tape.Var(kappa),
                                  tape.Var(np.asarray(beta))).data
    out = target.image.copy()
    out[target.pix_rc[:, 0], target.pix_rc[:, 1]] = colors
    return out


def cmd_texture_transfer(args) -> int:
    cat = _require_dataset(args.dataset)
    mdl = _require_model(args.checkpoint)
    for fid, label in ((args.target_frame, "target"),
                       (args.texture_frame, "texture")):
        if fid < 0 or fid >= len(cat.frames):
            raise errors.InvalidSpec(
                f"{label} frame {fid} outside the dataset")
    out_img = transfer_texture(cat, mdl, args.target_frame,
                               args.texture_frame)
    write_ppm(args.out, out_img)
    write_manifest(
        str(args.out) + ".manifest.json",
        "texture-transfer", args.argv,
        {"target_frame": args.target_frame,
         "texture_frame": args.texture_frame},
        inputs={
            "dataset": {"path": str(args.dataset),
                        "dataset_hash": synth.dataset_hash(args.dataset)},
            "checkpoint": {"path": str(args.checkpoint),
                           "sha256": _file_sha256(args.checkpoint)},
        },
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
                   default="amortized")
    f.add_argument("--epochs", type=int, default=None)
    f.add_argument("--batches-per-epoch", type=int, default=None)
    f.add_argument("--batch-size", type=int, default=None)
    f.add_argument("--lr", type=float, default=None)
    f.add_argument("--seed", dest="train_seed", type=int, default=None)
    f.add_argument("--n-pixels", type=int, default=None)
    f.add_argument("--validate-every", type=int, default=None)
    f.add_argument("--checkpoint-every", type=int, default=None)
    f.add_argument("--ablate", action="append", default=[],
                   choices=sorted(train.ABLATABLE),
                   help="zero one loss term (repeatable)")
    f.add_argument("--holdout-every", type=int, default=0,
                   help="every K-th frame is held out for validation "
                        "(amortized mode only)")
    f.add_argument("--resume", default=None,
                   help="run directory to continue from")
    f.set_defaults(func=cmd_fit)

    e = sub.add_parser("eval", help="score a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--dataset", required=True)
    e.add_argument("--out", required=True, help="report directory")
    e.add_argument("--n-points", type=int, default=30000,
                   help="surface samples per evaluated cloud")
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
                   help="probed coordinates per row")
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
    if args.command == "fit" and args.mode == "direct-latent" \
            and args.holdout_every > 0:
        parser.error("fit: --holdout-every needs --mode amortized; "
                     "direct-latent rows of held-out frames are never "
                     "trained")
    args.argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except errors.DefmapError as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return exit_code_for(e)


if __name__ == "__main__":
    sys.exit(main())
