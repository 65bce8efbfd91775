"""Per-layer metrics for the defmap package, from spans around its modules.

The layers are the package modules. :func:`install` wraps their public
module-level functions on a :class:`tracing.Tracer`; :func:`derive` turns
the recorded spans into the per-layer numbers named in ``PER_LAYER``.

"Per step" means per optimizer step of ``train.fit``: the spans under
``train.fit`` outside its validation and checkpoint calls, divided by the
number of ``tape.collect`` calls there. Every ``_ms_per_step`` figure is
self time (duration minus the time of wrapped callees), so the figures of
one step add up without double counting.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

import numpy as np

from defmap import cli, geom, losses, metrics, nets, synth, tape, train
from defmap import model as model_mod

from tracing import Tracer, self_times, tail_percentile

# module -> public functions wrapped. Elementwise tape operations are left
# out: a step builds ~8,000 of them and wrapping each would swamp the run.
# ``metrics.cKDTree`` is the k-d tree class ``nearest_neighbors`` builds on
# its tree route; a span of it marks which route a call took.
WRAPPED = {
    tape: ("backward", "collect"),
    nets: ("mlp_forward", "mlp_eval", "save_mlp", "load_mlp"),
    model_mod: ("make_leaves", "predict_frame", "embed_pixels", "basis_at",
                "reconstruct_points", "texture_at", "predict_np",
                "surface_sample", "embed_np", "basis_np", "save_model",
                "load_model"),
    geom: ("project_var", "ray_direction", "rotation_from_6d_var"),
    losses: ("total_loss", "prior_loss", "reprojection_loss",
             "closed_form_translation", "ray_projection_loss",
             "cross_project", "photometric_loss", "min_k_loss",
             "embedding_alignment_loss", "mask_reprojection_loss",
             "texture_loss"),
    train: ("fit", "validate_frames", "clip_global_norm",
            "sgd_momentum_step", "save_state", "load_state"),
    synth: ("generate_category", "save_category", "load_category",
            "dataset_hash", "make_batches"),
    metrics: ("point_cloud_distance", "icp_align", "nearest_neighbors",
              "chamfer_symmetric", "umeyama_similarity",
              "variance_normalize", "depth_error", "cKDTree"),
    cli: ("main", "cmd_synth_gen", "cmd_fit", "cmd_eval", "eval_frames",
          "write_manifest"),
}

# name -> unit, in the order printed
PER_LAYER = {
    "tape.backward_ms_per_step": "ms",
    "tape.backward_share": "ratio",
    "tape.collect_ms_per_step": "ms",
    "tape.nodes_per_step": "count",
    "tape.bytes_per_step": "bytes",
    "nets.mlp_forward_ms_per_step": "ms",
    "nets.mlp_forward_calls_per_step": "count",
    "nets.rows_per_call": "count",
    "model.predict_frame_ms_per_step": "ms",
    "model.make_leaves_ms_per_step": "ms",
    "model.basis_at_ms_per_step": "ms",
    "geom.project_var_ms_per_step": "ms",
    "geom.project_var_calls_per_step": "count",
    "losses.total_loss_self_ms_per_step": "ms",
    "losses.photometric_ms_per_step": "ms",
    "losses.texture_ms_per_step": "ms",
    "losses.mask_ms_per_step": "ms",
    "losses.reprojection_ms_per_step": "ms",
    "losses.prior_ms_per_step": "ms",
    "losses.min_k_ref_yield": "ratio",
    "train.steps": "count",
    "train.step_p50_ms": "ms",
    "train.step_tail_ms": "ms",
    "train.step_tail_pct": "pct",
    "train.optimizer_ms_per_step": "ms",
    "train.validate_s": "s",
    "train.checkpoint_s": "s",
    "train.nonfinite_steps": "count",
    "synth.generate_s": "s",
    "synth.save_s": "s",
    "synth.load_s": "s",
    "synth.hash_s": "s",
    "synth.make_batches_ms_per_step": "ms",
    "metrics.pcd_s_per_call": "s",
    "metrics.pcd_calls": "count",
    "metrics.nn_calls_per_pcd": "count",
    "metrics.nn_brute_ms_per_call": "ms",
    "metrics.nn_tree_ms_per_call": "ms",
    "metrics.nn_brute_calls": "count",
    "metrics.nn_tree_calls": "count",
    "metrics.umeyama_ms_per_call": "ms",
    "metrics.icp_best_n_iter": "count",
    "cli.manifest_s": "s",
    "cli.eval_frames_s": "s",
}

# subtrees of train.fit that are not part of an optimizer step
_NOT_STEP = {"train.validate_frames", "model.save_model", "train.save_state"}
GRAPH_WALK = "perfbench.graph_walk"
# direct children of train.fit that make up an optimizer step
_STEP_PARTS = {"synth.make_batches", "model.make_leaves", "losses.total_loss",
               "tape.collect", "train.clip_global_norm",
               "train.sgd_momentum_step", GRAPH_WALK}


def _walk_graph(tracer: Tracer, args, kwargs):
    """Count the nodes and forward-value bytes behind the loss root."""
    sid = tracer.begin(GRAPH_WALK)
    root = args[0] if args else kwargs["loss"]
    seen = {id(root)}
    stack = [root]
    n_bytes = 0
    while stack:
        node = stack.pop()
        n_bytes += node.data.nbytes
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    tracer.end(sid)
    tracer.record("graph_nodes", len(seen))
    tracer.record("graph_bytes", n_bytes)


def _mlp_rows(tracer: Tracer, args, kwargs):
    x = args[2] if len(args) > 2 else kwargs["x"]
    shape = np.shape(x.data if isinstance(x, tape.Var) else x)
    tracer.record("mlp_rows", shape[0] if len(shape) == 2 else 1)


def _icp_iters(tracer: Tracer, result, args, kwargs):
    tracer.record("icp_n_iter", result.n_iter)


def _min_k_refs(tracer: Tracer, result, args, kwargs):
    frames = args[2] if len(args) > 2 else kwargs["frames"]
    tracer.record("min_k_refs", (result[1]["min_k_refs"], len(frames) - 1))


_BEFORE = {("tape", "collect"): _walk_graph,
           ("nets", "mlp_forward"): _mlp_rows}
_AFTER = {("metrics", "icp_align"): _icp_iters,
          ("losses", "total_loss"): _min_k_refs}


def install(tracer: Tracer) -> None:
    for module, names in WRAPPED.items():
        short = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            tracer.wrap(module, name, before=_BEFORE.get((short, name)),
                        after=_AFTER.get((short, name)))


def _mean(xs) -> float:
    return float(statistics.fmean(xs)) if xs else 0.0


def derive(tracer: Tracer, nonfinite_steps: int) -> dict[str, float]:
    """Per-layer metrics from one traced run, keyed as in ``PER_LAYER``."""
    spans = tracer.spans
    self_t = self_times(spans)
    kids = defaultdict(list)
    durations = defaultdict(list)
    step_self = defaultdict(float)      # self seconds inside optimizer steps
    step_calls = Counter()
    in_step = [False] * len(spans)
    for i, s in enumerate(spans):       # parents precede their children
        durations[s.name].append(s.end - s.start)
        if s.parent is None:
            continue
        kids[s.parent].append(i)
        if spans[s.parent].name == "train.fit":
            in_step[i] = s.name in _STEP_PARTS
        else:
            in_step[i] = in_step[s.parent] and s.name not in _NOT_STEP
        if in_step[i]:
            step_self[s.name] += self_t[i]
            step_calls[s.name] += 1

    # wall time of each step: from its make_batches to the end of its last
    # part, less the graph walk the tracer itself adds
    step_times = []
    checkpoint_s = []
    for i, s in enumerate(spans):
        if s.name != "train.fit":
            continue
        checkpoint_s.append(0.0)
        cur = None
        for c in (spans[j] for j in kids[i]):
            if c.name == "synth.make_batches" and cur is not None:
                step_times.append(cur[1] - cur[0] - cur[2])
                cur = None
            if c.name == "synth.make_batches":
                cur = [c.start, c.end, 0.0]
            elif cur is not None and c.name in _STEP_PARTS:
                cur[1] = c.end
                if c.name == GRAPH_WALK:
                    cur[2] += c.end - c.start
            if c.name in ("model.save_model", "train.save_state"):
                checkpoint_s[-1] += c.end - c.start
        if cur is not None:
            step_times.append(cur[1] - cur[0] - cur[2])

    nn_under_pcd = 0
    nn_brute, nn_tree = [], []
    for i, s in enumerate(spans):
        if s.name == "metrics.nearest_neighbors":
            tree = any(spans[j].name == "metrics.cKDTree" for j in kids[i])
            (nn_tree if tree else nn_brute).append(s.end - s.start)
            p = s.parent
            while p is not None and spans[p].name != "metrics.point_cloud_distance":
                p = spans[p].parent
            nn_under_pcd += p is not None

    n_steps = step_calls["tape.collect"]
    per_step = 1.0 / n_steps if n_steps else 0.0
    ms = 1e3 * per_step
    refs = tracer.values.get("min_k_refs", [])
    refs_tried = sum(r[1] for r in refs)
    tail_pct, tail_val, _ = (tail_percentile(step_times) if step_times
                             else (50, 0.0, 0))
    pcd = durations["metrics.point_cloud_distance"]
    values = tracer.values
    return {
        "tape.backward_ms_per_step": step_self["tape.backward"] * ms,
        "tape.backward_share": (step_self["tape.backward"] / sum(step_times)
                                if step_times else 0.0),
        "tape.collect_ms_per_step": step_self["tape.collect"] * ms,
        "tape.nodes_per_step": _mean(values.get("graph_nodes", [])),
        "tape.bytes_per_step": _mean(values.get("graph_bytes", [])),
        "nets.mlp_forward_ms_per_step": step_self["nets.mlp_forward"] * ms,
        "nets.mlp_forward_calls_per_step":
            step_calls["nets.mlp_forward"] * per_step,
        "nets.rows_per_call": _mean(values.get("mlp_rows", [])),
        "model.predict_frame_ms_per_step": step_self["model.predict_frame"] * ms,
        "model.make_leaves_ms_per_step": step_self["model.make_leaves"] * ms,
        "model.basis_at_ms_per_step": step_self["model.basis_at"] * ms,
        "geom.project_var_ms_per_step": step_self["geom.project_var"] * ms,
        "geom.project_var_calls_per_step":
            step_calls["geom.project_var"] * per_step,
        "losses.total_loss_self_ms_per_step":
            step_self["losses.total_loss"] * ms,
        "losses.photometric_ms_per_step":
            step_self["losses.photometric_loss"] * ms,
        "losses.texture_ms_per_step": step_self["losses.texture_loss"] * ms,
        "losses.mask_ms_per_step":
            step_self["losses.mask_reprojection_loss"] * ms,
        "losses.reprojection_ms_per_step": (
            step_self["losses.reprojection_loss"]
            + step_self["losses.closed_form_translation"]
            + step_self["losses.ray_projection_loss"]) * ms,
        "losses.prior_ms_per_step": step_self["losses.prior_loss"] * ms,
        "losses.min_k_ref_yield": (sum(r[0] for r in refs) / refs_tried
                                   if refs_tried else 0.0),
        "train.steps": float(len(step_times)),
        "train.step_p50_ms": (1e3 * statistics.median(step_times)
                              if step_times else 0.0),
        "train.step_tail_ms": 1e3 * tail_val,
        "train.step_tail_pct": float(tail_pct),
        "train.optimizer_ms_per_step": (
            step_self["train.clip_global_norm"]
            + step_self["train.sgd_momentum_step"]) * ms,
        "train.validate_s": _mean(durations["train.validate_frames"]),
        "train.checkpoint_s": _mean(checkpoint_s),
        "train.nonfinite_steps": float(nonfinite_steps),
        "synth.generate_s": _mean(durations["synth.generate_category"]),
        "synth.save_s": _mean(durations["synth.save_category"]),
        "synth.load_s": _mean(durations["synth.load_category"]),
        "synth.hash_s": _mean(durations["synth.dataset_hash"]),
        "synth.make_batches_ms_per_step": step_self["synth.make_batches"] * ms,
        "metrics.pcd_s_per_call": _mean(pcd),
        "metrics.pcd_calls": float(len(pcd)),
        "metrics.nn_calls_per_pcd": nn_under_pcd / len(pcd) if pcd else 0.0,
        "metrics.nn_brute_ms_per_call": 1e3 * _mean(nn_brute),
        "metrics.nn_tree_ms_per_call": 1e3 * _mean(nn_tree),
        "metrics.nn_brute_calls": float(len(nn_brute)),
        "metrics.nn_tree_calls": float(len(nn_tree)),
        "metrics.umeyama_ms_per_call":
            1e3 * _mean(durations["metrics.umeyama_similarity"]),
        "metrics.icp_best_n_iter": _mean(values.get("icp_n_iter", [])),
        "cli.manifest_s": _mean(durations["cli.write_manifest"]),
        "cli.eval_frames_s": _mean(durations["cli.eval_frames"]),
    }
