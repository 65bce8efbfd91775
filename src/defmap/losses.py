"""Training losses.

Every loss builds on the autodiff tape and returns scalar Vars. Geometry
residuals live in normalized image/world units (object span O(1)); color
residuals live in [0,1] RGB. The robust penalty everywhere is the smooth
pseudo-Huber norm

    rho(z) = eps * (sqrt(1 + |z|^2 / eps^2) - 1)

whose gradient norm is bounded by 1, which the ray-based reprojection loss
inherits.

Frames are duck-typed; the attributes consumed here are documented in
:mod:`defmap.synth` (image, blurred image levels, raster map, silhouette
distance transform, per-pixel descriptors/colors/coordinates, keypoint
descriptors and labels, instance descriptor).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import geom, model as model_mod, nets, tape
from .errors import (
    DimMismatch,
    EmptyVisibleSet,
    InvalidSpec,
    KTooLarge,
    SingularSystem,
    check_types,
)


@dataclass(frozen=True)
class LossConfig:
    eps_geom: float = 0.01        # pseudo-Huber knee for geometric residuals
    eps_color: float = 0.1        # pseudo-Huber knee for RGB residuals
    min_k: int = 6                # closest references kept per pixel
    n_mask_samples: int = 1000    # sphere samples for the silhouette loss
    blur_radii: tuple = (2, 4)    # multi-scale photometric pyramid radii
    min_depth: float = 1e-3       # perspective depth clamp inside graphs
    max_clamped_frac: float = 0.5  # reference exclusion threshold

    def __post_init__(self):
        check_types(self, InvalidSpec)
        if not (self.eps_geom > 0 and self.eps_color > 0):
            raise InvalidSpec("eps_geom and eps_color must be > 0")
        if self.min_k < 1 or self.n_mask_samples < 1:
            raise InvalidSpec("min_k and n_mask_samples must be >= 1")
        if not all(type(r) is int and r >= 0 for r in self.blur_radii):
            raise InvalidSpec("blur_radii must be non-negative ints, got "
                              f"{list(self.blur_radii)}")
        if not self.min_depth > 0:
            raise InvalidSpec("min_depth must be > 0")
        if not 0.0 <= self.max_clamped_frac <= 1.0:
            raise InvalidSpec("max_clamped_frac must lie in [0, 1]")


@dataclass(frozen=True)
class LossWeights:
    """Relative term weights; defaults follow the source configuration."""

    w_prior: float = 1.0
    w_alpha: float = 1.0
    w_rot: float = 1.0
    w_repro: float = 0.01
    w_min_k: float = 0.1
    w_emb_align: float = 1.0
    w_mask: float = 1.0
    w_tex_photo: float = 1.0
    w_tex_percep: float = 0.1

    def __post_init__(self):
        check_types(self, InvalidSpec)

    @staticmethod
    def defaults_for(camera_kind: str) -> "LossWeights":
        """w_repro is 1 for perspective cameras, 0.01 for orthographic."""
        base = LossWeights()
        if camera_kind == geom.PERSPECTIVE:
            return replace(base, w_repro=1.0)
        return base


#: loss term -> the LossWeights fields that scale it, in summation order.
#: The texture term applies its two weights itself; w_alpha and w_rot weigh
#: parts of the prior term.
TERMS = {
    "prior": ("w_prior",),
    "repro": ("w_repro",),
    "emb_align": ("w_emb_align",),
    "mask": ("w_mask",),
    "texture": ("w_tex_photo", "w_tex_percep"),
    "min_k": ("w_min_k",),
}


@dataclass
class NrsfmLabels:
    """Per-frame supervision distilled from an upstream non-rigid SfM stage.

    basis: (K,3,D) per-keypoint basis matrices; visible: (K,) bool;
    alpha: (D,); rotation: (3,3).
    """

    basis: np.ndarray
    visible: np.ndarray
    alpha: np.ndarray
    rotation: np.ndarray


def sample_sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform unit-sphere samples, (n,3)."""
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# -- robust penalty -----------------------------------------------------------


def pseudo_huber_rows(z, eps: float) -> tape.Var:
    """Pseudo-Huber over the last axis of (...,d) residuals, shape (...)."""
    z = tape.as_var(z)
    s = tape.vsum(z * z, axis=-1)
    return (tape.sqrt(s * (1.0 / (eps * eps)) + 1.0) - 1.0) * eps


# -- batch layout ---------------------------------------------------------------
#
# A batch holds F frames. Per-frame quantities are stacked on a leading frame
# axis: alpha (F,D), R (F,3,3), t (F,3). Per-pixel quantities are the rows of
# every frame's pixels, frame after frame, with ``seg`` (N,) naming each
# row's frame. Every term returns the batch mean of its per-frame value.


# -- keypoint prior -----------------------------------------------------------


def prior_loss(
    pred_basis,
    pred_alpha,
    pred_R,
    labels: list,
    weights: LossWeights,
    cfg: LossConfig,
) -> tape.Var:
    """Anchor a batch's predictions to its frames' labels.

    ``labels`` holds each frame's :class:`NrsfmLabels`; ``pred_alpha`` is
    (F,D) and ``pred_R`` (F,3,3). ``pred_basis`` holds (V,3,D) basis
    matrices at the visible keypoints only, frame after frame, each frame's
    ordered like its ``visible.nonzero()``. Per frame, the keypoint term is
    averaged over its visible set and the coefficient and rotation terms are
    added once with their own weights.
    """
    vis = [np.flatnonzero(np.asarray(lab.visible, dtype=bool))
           for lab in labels]
    counts = np.array([v.size for v in vis])
    if not counts.all():
        raise EmptyVisibleSet("prior loss needs at least one visible keypoint")
    pred_basis = tape.as_var(pred_basis)
    if pred_basis.shape[0] != counts.sum():
        raise DimMismatch(
            f"pred_basis has {pred_basis.shape[0]} rows, expected {counts.sum()}"
        )
    ref = np.concatenate([lab.basis[v] for lab, v in zip(labels, vis)])
    diff = tape.reshape(pred_basis - ref, (counts.sum(), -1))
    # each frame's mean over its own visible keypoints
    kp_term = tape.vsum(pseudo_huber_rows(diff, cfg.eps_geom)
                        * np.repeat(1.0 / counts, counts))
    a_term = tape.vsum(pseudo_huber_rows(
        tape.as_var(pred_alpha) - np.stack([lab.alpha for lab in labels]),
        cfg.eps_geom))
    r_term = tape.vsum(geom.rotation_distance_var(
        tape.as_var(pred_R), np.stack([lab.rotation for lab in labels])))
    return ((kp_term + weights.w_alpha * a_term + weights.w_rot * r_term)
            * (1.0 / len(labels)))


# -- translation and reprojection ---------------------------------------------


def closed_form_translation(points_cam, rays: np.ndarray, seg: np.ndarray,
                            n_frames: int) -> tape.Var:
    """Per frame, the minimizer of sum_k |(X_k + t) - r_k r_k^T (X_k + t)|^2
    over t, as (F,3).

    ``points_cam`` are rotated (t-free) camera-frame points (N,3); ``rays``
    are constant unit directions; ``seg`` names each row's frame, the rows
    running frame after frame. Solves
    [sum (I - r r^T)] t = sum (r r^T - I) X over each frame's rows.
    Gradients flow through the solve into the points.
    """
    rays = np.asarray(rays, dtype=np.float64)
    if rays.ndim != 2 or rays.shape[1] != 3:
        raise DimMismatch("rays must be (N,3)")
    X = tape.as_var(points_cam)
    if X.shape != rays.shape:
        raise DimMismatch("points and rays must align")
    n = np.bincount(seg, minlength=n_frames)
    A = np.stack([len(r) * np.eye(3) - r.T @ r
                  for r in np.split(rays, np.cumsum(n)[:-1])])
    if n.min() < 2 or np.linalg.cond(A).max() > 1e12:
        raise SingularSystem("translation system is (near-)singular")
    r_dot_x = tape.vsum(X * rays, axis=1, keepdims=True)
    b = tape.matmul(nets.onehot(seg, n_frames), r_dot_x * rays - X)
    return tape.solve(tape.Var(A), b)


def ray_projection_loss(points_posed, rays: np.ndarray, cfg: LossConfig) -> tape.Var:
    """Sum of robust distances from posed points to their pixel rays.

    The residual X - r (r.X) is linear in X with operator norm 1, so the
    per-point gradient norm never exceeds the pseudo-Huber slope bound of 1.
    """
    rays = np.asarray(rays, dtype=np.float64)
    X = tape.as_var(points_posed)
    r_dot_x = tape.vsum(X * rays, axis=1, keepdims=True)
    resid = X - r_dot_x * rays
    return tape.vsum(pseudo_huber_rows(resid, cfg.eps_geom))


def reprojection_loss(
    points_world,
    R,
    seg: np.ndarray,
    cam: geom.CameraIntrinsics,
    pixels: np.ndarray,
    cfg: LossConfig,
):
    """Self-consistency between reconstructed points and their source pixels.

    ``points_world`` and ``pixels`` are (N,3) and (N,2) rows, ``seg`` their
    frames, and ``R`` the frames' (F,3,3) rotations. Orthographic:
    translation is identically zero (2D data is centered in preprocessing)
    and the residual is the projected offset. Perspective: each frame's
    translation minimizing the quadratic ray surrogate is solved in closed
    form, exposed as the frame translation, and the robust loss is the
    bounded-gradient distance of the translated points to their pixel rays
    (:func:`ray_projection_loss`).

    Returns (loss, t): the batch mean of each frame's sum over its pixels,
    and the (F,3) translations.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    R = tape.as_var(R)
    n_frames = R.shape[0]
    X_R = tape.batch_matvec(R[seg], points_world)
    if cam.kind == geom.ORTHOGRAPHIC:
        t = tape.Var(np.zeros((n_frames, 3)))
        loss = tape.vsum(pseudo_huber_rows(X_R[:, :2] - pixels, cfg.eps_geom))
    else:
        rays = geom.ray_direction(cam, pixels)
        t = closed_form_translation(X_R, rays, seg, n_frames)
        loss = ray_projection_loss(X_R + t[seg], rays, cfg)
    return loss * (1.0 / n_frames), t


def _posed(points, R, t) -> tape.Var:
    """(F,M,3) points carried by each frame's (F,3,3) R and (F,3) t."""
    n = tape.as_var(R).shape[0]
    return (tape.batch_matvec(tape.reshape(R, (n, 1, 3, 3)), points)
            + tape.reshape(t, (n, 1, 3)))


def cross_project(
    points_world, R_ref, t_ref, cam: geom.CameraIntrinsics, cfg: LossConfig
) -> tape.Var:
    """Map target-frame surface points into each reference frame's image.

    ``points_world`` (R,N,3) holds, for reference r, basis(kappa_target) @
    alpha_r; reference r's pose (``R_ref[r]``, ``t_ref[r]``) carries them
    into its camera and the camera projects, giving (R,N,2).
    """
    return geom.project_var(cam, _posed(points_world, R_ref, t_ref),
                            min_depth=cfg.min_depth)


# -- appearance ---------------------------------------------------------------


def image_pyramid(image: np.ndarray, radii) -> np.ndarray:
    """The (H,W,C) image and its box blur at each radius as (H,W,L,C)
    levels, level 0 the image: :func:`tape.window_mean` at every pixel."""
    image = np.asarray(image, dtype=np.float64)
    h, w, c = image.shape
    rc = np.indices((h, w)).reshape(2, -1).T
    blurred = tape.window_mean((1, h, w, c), rc, image.reshape(-1, c), radii,
                               0).data
    # C order, so that the photometric term's (R,H,W,L*C) view is free
    return np.stack([image, *blurred.reshape(-1, h, w, c)], axis=2)


def photometric_loss(
    ref_levels: list,
    ref_raster: geom.Raster,
    coords,
    target_colors: np.ndarray,
    cfg: LossConfig,
):
    """Robust multi-level color mismatch along correspondence fields.

    ``coords`` (R,N,2 Var, normalized units) index R references, whose
    (H,W,L,C) pyramid levels ``ref_levels`` holds, one array a reference;
    ``target_colors`` holds the target frame's (N,L,C) colors at its own
    pixels. All levels are sampled at once, as the channels of one image per
    reference, read in each reference's own array. Returns
    (per_pixel (R,N) Var, the sum over levels; clamped (R,) fraction per
    reference). Samples falling outside a reference image are clamped to
    its border by the sampler.
    """
    h, w = ref_levels[0].shape[:2]
    px = ref_raster.to_px(coords)
    sampled = tape.bilinear_sample([lv.reshape(h, w, -1) for lv in ref_levels],
                                   px)
    diff = tape.reshape(sampled, px.shape[:2] + target_colors.shape[1:]) \
        - target_colors
    per_pixel = tape.vsum(pseudo_huber_rows(diff, cfg.eps_color), axis=-1)
    clamped = np.mean(tape.clamp_mask((h, w), px.data), axis=-1)
    return per_pixel, clamped


def min_k_loss(cost_matrix, k: int):
    """Average of the k smallest per-pixel reference costs.

    ``cost_matrix`` is (N, R): one robust matching cost per (pixel,
    reference) pair. Selecting the k-subset minimizing the sum equals
    keeping the k smallest entries per row. Returns (normalized, raw):
    raw = sum_pixels(k-smallest sum) / k, normalized additionally divides
    by N so weights transfer across resolutions.
    """
    cost = tape.as_var(cost_matrix)
    if cost.ndim != 2:
        raise DimMismatch("cost matrix must be (N, R)")
    n, r = cost.shape
    if k < 1 or k > r:
        raise KTooLarge(f"k={k} with {r} references")
    if k == r:
        picked = cost
    else:
        idx = np.argpartition(cost.data, k - 1, axis=1)[:, :k]
        picked = cost[np.arange(n)[:, None], idx]
    raw = tape.vsum(picked) * (1.0 / k)
    return raw * (1.0 / n), raw


def embedding_alignment_loss(kappa, R, seg: np.ndarray) -> tape.Var:
    """Camera-z component of each frame's rotated mean embedding direction,
    in [-1,1], averaged over the batch.

    ``kappa`` (N,3) rows belong to the frames ``seg`` names; ``R`` is (F,3,3).
    Minimizing it turns the average visible embedding away from the camera
    axis, which globally disambiguates front from back.
    """
    R = tape.as_var(R)
    onehot = nets.onehot(seg, R.shape[0])
    mean = tape.matmul(onehot, kappa) * (1.0 / onehot.sum(axis=1))[:, None]
    u = nets.l2norm_rows(mean)
    return tape.vmean(tape.vsum(R[:, 2] * u, axis=-1))


def mask_reprojection_loss(
    points_world,
    R,
    t,
    cam: geom.CameraIntrinsics,
    raster: geom.Raster,
    mask_dist: list,
    cfg: LossConfig,
):
    """Keep uniformly sampled surface points projecting inside the silhouette.

    ``points_world`` (F,S,3) holds S surface samples per frame, placed by
    that frame's (F,3,3) ``R`` and (F,3) ``t``; ``mask_dist`` holds each
    frame's (H,W) distance transform of the silhouette's outside. Mean
    squared distance-transform value at each projection, zero inside the
    mask, plus the squared out-of-image overshoot so samples beyond the
    border keep a pull-back gradient; averaged over the batch.

    When every sample's distance value and overshoot are exactly zero, so
    is the gradient, and the result is a constant 0.0 with no graph behind
    it: the samples, their placement and projection leave backward.
    """
    proj = geom.project_var(cam, _posed(points_world, R, t),
                            min_depth=cfg.min_depth)
    px = raster.to_px(proj)
    h, w = mask_dist[0].shape
    lim = np.array([w - 1.0, h - 1.0])
    inside_px = tape.clip(px, np.zeros(2), lim)
    overshoot = px - inside_px
    d = tape.bilinear_sample([md[..., None] for md in mask_dist], inside_px)
    if not (d.data.any() or overshoot.data.any()):  # NaN counts as nonzero
        return tape.Var(0.0)
    return (tape.vmean(d * d)
            + tape.vmean(tape.vsum(overshoot * overshoot, axis=-1)))


def texture_loss(
    mdl: model_mod.DeformerModel,
    leaves,
    frames: list,
    pix_idx: list,
    kappa,
    beta,
    weights: LossWeights,
    cfg: LossConfig,
):
    """Reconstruct each frame's own colors from (kappa, beta).

    ``pix_idx`` holds each frame's pixel subset; ``kappa`` their (N,3)
    embeddings, frame after frame, and ``beta`` the (F,D') style rows. The
    embedding is detached: appearance gradients reach the texture network
    and beta (and its head) only, never the embedding or basis networks.
    The single-scale term compares colors at the frames' pixels; the
    multi-scale stand-in blurs each frame's sparse error image and
    penalizes it at the same pixels.

    Returns the batch mean of the weighted sum of the two terms.
    """
    seg = np.repeat(np.arange(len(frames)), [len(i) for i in pix_idx])
    pred = model_mod.texture_at(mdl, leaves, tape.as_var(kappa).data, beta,
                                seg)
    diff = pred - np.concatenate([fr.colors[i]
                                  for fr, i in zip(frames, pix_idx)])
    photo = tape.vsum(pseudo_huber_rows(diff, cfg.eps_color))

    rc = np.concatenate([fr.pix_rc[i] for fr, i in zip(frames, pix_idx)])
    blurred = tape.window_mean((len(frames), *frames[0].image.shape), rc,
                               diff, cfg.blur_radii, seg)
    # per radius, then over the radii: each radius rounds as on its own
    percep = tape.vsum(tape.vsum(pseudo_huber_rows(blurred, cfg.eps_color),
                                 axis=1))
    return ((weights.w_tex_photo * photo + weights.w_tex_percep * percep)
            * (1.0 / len(frames)))


# -- batch assembly -----------------------------------------------------------


def _frame_pixel_subset(frame, n_pixels, rng):
    n = frame.descriptors.shape[0]
    if n_pixels is None or n_pixels >= n:
        return np.arange(n)
    return np.sort(rng.choice(n, size=n_pixels, replace=False))


def total_loss(
    mdl: model_mod.DeformerModel,
    leaves,
    frames: list,
    weights: LossWeights,
    cfg: LossConfig,
    rng: np.random.Generator,
    n_pixels: int | None,
):
    """Weighted sum of every term over one batch; frames[0] is the target.

    The batch is built batch-major: the frames' pixel subsets are stacked
    into one set of rows and each per-frame quantity (alpha, beta, R, t) is
    stacked on a frame axis, so each net runs once per batch and the graph
    does not grow with the batch. Every frame is seen through frame 0's
    camera and raster: a category's spec fixes both.

    Per-frame terms (prior, reprojection, alignment, mask, texture) are
    averaged over the batch; the min-k appearance term is evaluated for the
    target against the remaining frames, all references cross-projected at
    once. The silhouette samples and their basis are shared across the
    batch: each frame's mask term places the target's sphere samples with
    its own alpha and pose. ``n_pixels=None`` keeps every pixel.

    Returns (total Var, breakdown dict). The breakdown holds unweighted
    per-term values plus the raw (unnormalized) min-k value and the number
    of references it kept; the total equals the weighted sum of the
    normalized terms exactly.
    """
    n_frames = len(frames)
    if n_frames == 0:
        raise DimMismatch("empty batch")
    cam, raster = frames[0].camera, frames[0].raster
    subsets = []
    for k, frame in enumerate(frames):  # the draw order of a per-frame loop
        subsets.append(_frame_pixel_subset(frame, n_pixels, rng))
        if k == 0:
            sphere = sample_sphere(cfg.n_mask_samples, rng)
        else:  # a discarded sphere set: the same draws, not normalized
            rng.standard_normal((cfg.n_mask_samples, 3))
    seg = np.repeat(np.arange(n_frames), [len(i) for i in subsets])

    def rows(field):
        return np.concatenate([getattr(fr, field)[i]
                               for fr, i in zip(frames, subsets)])

    pred = model_mod.predict_frame(
        mdl, leaves, [fr.instance_desc for fr in frames],
        [fr.frame_id for fr in frames], rows("descriptors"))
    terms = {}

    labels = [fr.labels for fr in frames]
    kp_emb = model_mod.embed_pixels(mdl, leaves, np.concatenate(
        [fr.kp_desc[np.asarray(lab.visible, dtype=bool)]
         for fr, lab in zip(frames, labels)]))
    kp_basis = model_mod.basis_at(mdl, leaves, kp_emb)
    terms["prior"] = prior_loss(kp_basis, pred.alpha, pred.R, labels,
                                weights, cfg)

    basis = model_mod.basis_at(mdl, leaves, pred.kappa)
    points = tape.batch_matvec(basis, pred.alpha[seg])
    terms["repro"], t = reprojection_loss(points, pred.R, seg, cam,
                                          rows("pix_y"), cfg)
    terms["emb_align"] = embedding_alignment_loss(pred.kappa, pred.R, seg)

    # only frame 0's sphere set is placed. No name holds the samples' basis
    # or placement, so when the term is the graph-free zero they are freed
    # before the terms below are built.
    terms["mask"] = mask_reprojection_loss(
        tape.batch_matvec(model_mod.basis_at(mdl, leaves, sphere),
                          tape.reshape(pred.alpha, (n_frames, 1, -1))),
        pred.R, t, cam, raster, [fr.mask_dist for fr in frames], cfg)
    terms["texture"] = texture_loss(mdl, leaves, frames, subsets, pred.kappa,
                                    pred.beta, weights, cfg)

    # min-k cross-frame appearance: the target's points, shaped and posed
    # by each reference in turn
    min_k_raw = 0.0
    n_refs_used = 0
    if n_frames > 1:
        n_tgt = len(subsets[0])
        tgt_rc = frames[0].pix_rc[subsets[0]]
        tgt_colors = frames[0].levels(cfg.blur_radii)[tgt_rc[:, 0],
                                                      tgt_rc[:, 1]]
        ref_levels = [fr.levels(cfg.blur_radii) for fr in frames[1:]]
        pts = tape.batch_matvec(
            basis[:n_tgt], tape.reshape(pred.alpha[1:], (n_frames - 1, 1, -1)))
        coords = cross_project(pts, pred.R[1:], t[1:], cam, cfg)
        per_pixel, clamped = photometric_loss(ref_levels, raster, coords,
                                              tgt_colors, cfg)
        # a reference mostly out of view of this target is left out
        kept = np.flatnonzero(clamped <= cfg.max_clamped_frac)
        if kept.size:
            n_refs_used = int(kept.size)
            cost = tape.transpose(per_pixel[kept])
            k_eff = min(cfg.min_k, n_refs_used)
            terms["min_k"], raw = min_k_loss(cost, k_eff)
            min_k_raw = float(raw.data)

    total = tape.as_var(0.0)
    breakdown = dict.fromkeys(TERMS, 0.0)
    for key, fields in TERMS.items():
        if key in terms:  # min-k is absent without a usable reference
            breakdown[key] = float(terms[key].data)
            # a term with several weights (texture) applies them itself
            w = getattr(weights, fields[0]) if len(fields) == 1 else 1.0
            total = total + w * terms[key]
    breakdown["min_k_raw"] = min_k_raw
    breakdown["min_k_refs"] = float(n_refs_used)
    breakdown["total"] = float(total.data)
    return total, breakdown
