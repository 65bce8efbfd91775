"""The benchmark's workloads: real ``defmap`` CLI calls, run in-process.

A run sets up several times (``defmap synth-gen``, plus a seeded
checkpoint fit for eval workloads) and reports the median set-up time,
then repeats the workload's measured CLI call until the time window is
used, then checks the outputs. Every call goes through
``defmap.cli.main``, so argument parsing, dataset loading and hashing,
manifests and checkpoint writes are part of what is timed.

An operation is one optimizer step (fit workloads) or one evaluated frame
(eval workloads). A call that exits non-zero or raises counts all of its
operations as failed; each skipped non-finite gradient step counts one;
a failed output check counts every operation of the run as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from defmap import cli, errors, geom, metrics, synth
from defmap import model as model_mod

SETUP_REPS = 5
VAL_POINTS = 50         # validation cloud size (`n_eval_points`) of every fit


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int                      # optimizer steps per fit call
    holdout_every: int              # `defmap fit --holdout-every`
    n_instances: int                # frames per category, one per instance
    batch_size: int
    eval_points: int = 0            # > 0 marks an eval workload
    categories: int = 1             # generated categories per run
    spec: dict = field(default_factory=dict)      # further synth-gen fields
    train: dict = field(default_factory=dict)     # further --config fields
    model: dict | None = None                     # --model-config fields

    @property
    def is_eval(self) -> bool:
        return self.eval_points > 0


# Both workloads use the `benchmark` preset (orthographic camera) and the
# amortized model. The preset renders 20 instances x 5 frames, which takes
# ~20 s to generate: too long to repeat in every run. Each instance is
# shown once and the count is cut to what a batch needs; image size, pixel
# count, noise and model size stay the preset's. Validation stays small so
# that `metrics` is a minority of fit-ortho; eval-icp measures it in full.
# ICP work per frame depends on the shapes (the mean of a category's frames
# varies by ~15% between categories), so eval-icp spreads its frames over
# 16 categories.
WORKLOADS = {w.name: w for w in (
    Workload("fit-ortho", steps=4, holdout_every=11, n_instances=11,
             batch_size=10),
    Workload("eval-icp", steps=2, holdout_every=3, n_instances=3,
             batch_size=2, eval_points=100, categories=16),
)}


def shrink(w: Workload) -> Workload:
    """The same workload at toy sizes, for smoke tests."""
    return replace(
        w, n_instances=3, batch_size=2, holdout_every=3,
        eval_points=min(w.eval_points, 150), categories=min(w.categories, 2),
        spec={"image_h": 20, "image_w": 20, "n_surface_samples": 1200,
              "n_keypoints": 6, "descriptor_dim": 6, "instance_desc_dim": 5,
              "n_texture_params": 3, "n_shape_coeffs": 2},
        train={"n_pixels": 30, "loss_cfg": {"n_mask_samples": 100}},
        model={"n_texture_coeffs": 3, "embed_hidden": 8, "embed_blocks": 1,
               "basis_hidden": 8, "basis_blocks": 1, "texture_hidden": 8,
               "texture_blocks": 1, "head_hidden": 6, "head_blocks": 1})


# -- one run -----------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    nonfinite: int = 0
    call_errors: list = field(default_factory=list)


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    end_to_end: dict
    quality: dict
    nonfinite: int
    checks: dict
    errors: list


def call_cli(argv: list[str]) -> tuple[int, str]:
    """``defmap.cli.main`` with its console output captured.

    A ``DefmapError`` escaping ``main`` maps to its exit code as the CLI
    would; any other exception is reported with its traceback and mapped to
    the catch-all code, so one broken call cannot end the run.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            rc = cli.main(argv)
        except errors.DefmapError as e:
            rc = cli.exit_code_for(e)
        except Exception:  # noqa: BLE001 -- the run must keep reporting
            traceback.print_exc()
            rc = cli._EXIT_OTHER
    return rc, out.getvalue()


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _all_finite(rows: list[dict], skip=()) -> bool:
    return all(math.isfinite(float(v)) for r in rows
               for k, v in r.items() if k not in skip)


def count_fit(tally: Tally, rc: int, out: Path, planned: int,
              msg: str) -> int:
    """Account one fit call's optimizer steps; returns the good ones."""
    tally.attempted += planned
    if rc != 0:
        tally.failed += planned
        tally.call_errors.append(f"fit exit {rc}: {msg.strip()[-300:]}")
        return 0
    nonfinite = int(_read_csv(out / "metrics.csv")[-1]["nonfinite"])
    tally.nonfinite += nonfinite
    tally.failed += nonfinite
    return planned - nonfinite


def count_eval(tally: Tally, rc: int, n_frames: int, msg: str) -> int:
    """Account one eval call's frames; returns the good ones."""
    tally.attempted += n_frames
    if rc != 0:
        tally.failed += n_frames
        tally.call_errors.append(f"eval exit {rc}: {msg.strip()[-300:]}")
        return 0
    return n_frames


def run_workload(w: Workload, seed: int, seconds: float,
                 work: Path) -> RunResult:
    """Set up, measure and check one run of ``w`` inside ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    fit_argv = [
        "fit", "--epochs", "1", "--batches-per-epoch", str(w.steps),
        "--batch-size", str(w.batch_size),
        "--holdout-every", str(w.holdout_every),
        "--config", _write_json(work / "train.json", {
            "n_eval_points": VAL_POINTS, **w.train}),
    ]
    if w.model is not None:
        fit_argv += ["--model-config", _write_json(work / "model.json",
                                                   w.model)]
    spec_path = _write_json(work / "spec.json", {
        **w.spec, "n_instances": w.n_instances, "frames_per_instance": 1})
    tally = Tally()

    # -- set-up, repeated for its median. Eval workloads give each
    # repetition its own category seed and use them all ------------------
    setup_times = []
    cats = []
    for rep in range(max(SETUP_REPS, w.categories)):
        cat_seed = seed * w.categories + rep % w.categories
        d = work / f"setup{rep}"
        t0 = time.perf_counter()
        rc, msg = call_cli(["synth-gen", "--preset", "benchmark", "--spec",
                            spec_path, "--seed", str(cat_seed),
                            "--out", str(d / "ds")])
        if rc == 0 and w.is_eval:
            rc, msg = call_cli([*fit_argv, "--seed", str(cat_seed),
                                "--dataset", str(d / "ds"),
                                "--out", str(d / "ckpt")])
        setup_times.append(time.perf_counter() - t0)
        if rc != 0:
            tally.call_errors.append(f"set-up exit {rc}: {msg.strip()[-300:]}")
        if rep < w.categories:
            cats.append((cat_seed, d))
    setup_ok = not tally.call_errors

    def one_call(k: int, cat: int) -> tuple[Path, int]:
        """The k-th measured call; returns its output and good frames."""
        cat_seed, d = cats[cat]
        out = work / f"call{k}"
        if w.is_eval:
            rc, msg = call_cli([
                "eval", "--checkpoint", str(d / "ckpt" / "model_final.bin"),
                "--dataset", str(d / "ds"), "--out", str(out),
                "--n-points", str(w.eval_points)])
            return out, count_eval(tally, rc, w.n_instances, msg)
        rc, msg = call_cli([*fit_argv, "--seed", str(cat_seed), "--dataset",
                            str(d / "ds"), "--out", str(out)])
        return out, count_fit(tally, rc, out, w.steps, msg) * w.batch_size

    # -- measured window ----------------------------------------------------------
    # A unit of work is one fit call, or the eval of one category. Units
    # repeat round-robin until the window is used, each at least once. A
    # unit's time is the median of its repetitions: on a shared machine
    # single calls swing by +-15%, with brief fast bursts that make the
    # fastest call a poor estimate. frames_per_s is the frames of one pass
    # over the units divided by the sum of those medians.
    frames_per_call = (w.n_instances if w.is_eval
                       else w.steps * w.batch_size)
    calls: list[Path] = []
    if not w.is_eval:
        # untimed: the first fit in a process runs 10-25% slower (allocator
        # growth), and it pairs with the next call for the determinism check
        calls.append(one_call(0, 0)[0])
    times: list[list[float]] = [[] for _ in cats]
    k = 0
    t_start = time.perf_counter()
    while k < len(cats) or time.perf_counter() - t_start < seconds:
        t0 = time.perf_counter()
        out, good = one_call(len(calls), k % len(cats))
        dt = time.perf_counter() - t0
        calls.append(out)
        if good:
            times[k % len(cats)].append(dt)
        k += 1
    medians = [statistics.median(t) for t in times if t]
    frames_per_s = (frames_per_call * len(medians) / sum(medians)
                    if medians else 0.0)

    # -- output checks, outside the window ---------------------------------------
    checks = {"setup_ok": setup_ok}
    if w.is_eval:
        # a same-seed refit of the first category's checkpoint
        rerun = work / "refit"
        call_cli([*fit_argv, "--seed", str(cats[0][0]), "--dataset",
                  str(cats[0][1] / "ds"), "--out", str(rerun)])
        fits = [d / "ckpt" for _, d in cats] + [rerun]
        pair = (cats[0][1] / "ckpt", rerun)
    else:
        fits = calls
        pair = (calls[0], calls[1])
    fits = [d for d in fits if (d / "model_final.bin").is_file()]
    logs = [_read_csv(d / "log.csv") for d in fits]
    # a skipped non-finite step logs grad_norm nan and already counts as a
    # failure, so only the rows of applied steps must be finite
    checks["log_finite"] = bool(logs) and all(_all_finite(_applied(r))
                                              for r in logs)
    if not w.is_eval:
        checks["loss_falls"] = bool(logs) and all(_loss_falls(r)
                                                  for r in logs)
    checks["model_reloads"] = bool(fits) and all(
        _reloads(d / "model_final.bin") for d in fits)
    checks["same_seed_same_log"] = all(
        (d / "log.csv").is_file() for d in pair) and (
        (pair[0] / "log.csv").read_bytes() == (pair[1] / "log.csv").read_bytes())
    if w.is_eval:
        rows = [r for out in calls if (out / "eval.csv").is_file()
                for r in _read_csv(out / "eval.csv")
                if r["frame_id"] != "mean"]
        checks["eval_finite"] = bool(rows) and _all_finite(
            rows, skip=("frame_id", "instance_id"))
    else:
        # the validation that closes the first timed fit
        rows = (_read_csv(pair[1] / "metrics.csv")[-1:]
                if (pair[1] / "metrics.csv").is_file() else [])
        checks["validation_finite"] = bool(rows) and _all_finite(rows)
    checks["oracle_pcd"] = (setup_ok
                            and oracle_distance(cats[0][1] / "ds") < 1e-6)

    correct = all(checks.values())
    quality = {f"quality.{k}": (statistics.fmean(float(r[k]) for r in rows)
                                if correct else 0.0)
               for k in ("d_pcl", "d_depth")}
    attempted = max(tally.attempted, 1)
    return RunResult(
        correct=correct, attempted=attempted,
        failed=tally.failed if correct else attempted,
        end_to_end={
            "frames_per_s": frames_per_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        quality=quality, nonfinite=tally.nonfinite, checks=checks,
        errors=tally.call_errors)


def _applied(rows: list[dict]) -> list[dict]:
    return [r for r in rows if math.isfinite(float(r["grad_norm"]))]


def _loss_falls(rows: list[dict]) -> bool:
    """Mean loss of the later half of the steps below the earlier half's
    (over the steps whose loss is finite)."""
    totals = [float(r["total"]) for r in rows
              if math.isfinite(float(r["total"]))]
    half = len(totals) // 2
    return half > 0 and statistics.fmean(totals[-half:]) < statistics.fmean(
        totals[:half])


def _reloads(path: Path) -> bool:
    try:
        model_mod.load_model(path)
    except errors.DefmapError:
        return False
    return True


def oracle_distance(ds: Path) -> float:
    """d_pcl between a ground-truth cloud and a rotated, scaled copy."""
    cat = synth.load_category(ds)
    pts = cat.surface_points(synth.fibonacci_sphere(200),
                             cat.frames[0].gt_alpha)
    R = geom.rotation_about(np.array([0.3, -0.5, 0.8]) / np.sqrt(0.98), 1.1)
    return metrics.point_cloud_distance(pts, 2.5 * pts @ R.T + 0.7)
