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

__all__ = [
    "LossConfig",
    "LossWeights",
    "TERMS",
    "NrsfmLabels",
    "pseudo_huber",
    "pseudo_huber_rows",
    "prior_loss",
    "closed_form_translation",
    "reprojection_loss",
    "ray_projection_loss",
    "cross_project",
    "photometric_loss",
    "min_k_loss",
    "embedding_alignment_loss",
    "mask_reprojection_loss",
    "texture_loss",
    "total_loss",
    "sample_sphere",
]


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


def pseudo_huber(z, eps: float) -> tape.Var:
    """Smooth robust norm of one residual vector (any shape, flattened)."""
    z = tape.as_var(z)
    s = tape.vsum(z * z)
    return (tape.sqrt(s * (1.0 / (eps * eps)) + 1.0) - 1.0) * eps


def pseudo_huber_rows(z, eps: float) -> tape.Var:
    """Row-wise pseudo-Huber for (N,d) residuals, returns (N,)."""
    z = tape.as_var(z)
    s = tape.vsum(z * z, axis=1)
    return (tape.sqrt(s * (1.0 / (eps * eps)) + 1.0) - 1.0) * eps


# -- keypoint prior -----------------------------------------------------------


def prior_loss(
    pred_basis,
    pred_alpha,
    pred_R,
    labels: NrsfmLabels,
    weights: LossWeights,
    cfg: LossConfig,
) -> tape.Var:
    """Anchor predictions to the labels.

    ``pred_basis`` holds (V,3,D) basis matrices evaluated at the visible
    keypoints only, ordered like ``labels.visible.nonzero()``. The keypoint
    term is averaged over the visible set; the coefficient and rotation
    terms are added once with their own weights.
    """
    vis = np.flatnonzero(np.asarray(labels.visible, dtype=bool))
    if vis.size == 0:
        raise EmptyVisibleSet("prior loss needs at least one visible keypoint")
    pred_basis = tape.as_var(pred_basis)
    if pred_basis.shape[0] != vis.size:
        raise DimMismatch(
            f"pred_basis has {pred_basis.shape[0]} rows, expected {vis.size}"
        )
    ref = labels.basis[vis]
    diff = tape.reshape(pred_basis - ref, (vis.size, -1))
    kp_term = tape.vmean(pseudo_huber_rows(diff, cfg.eps_geom))
    a_term = pseudo_huber(tape.as_var(pred_alpha) - labels.alpha, cfg.eps_geom)
    r_term = geom.rotation_distance_var(tape.as_var(pred_R), labels.rotation)
    return kp_term + weights.w_alpha * a_term + weights.w_rot * r_term


# -- translation and reprojection ---------------------------------------------


def closed_form_translation(points_cam, rays: np.ndarray) -> tape.Var:
    """Minimizer of sum_k |(X_k + t) - r_k r_k^T (X_k + t)|^2 over t.

    ``points_cam`` are rotated (t-free) camera-frame points (N,3); ``rays``
    are constant unit directions. Solves [sum (I - r r^T)] t = sum (r r^T - I) X.
    Gradients flow through the solve into the points.
    """
    rays = np.asarray(rays, dtype=np.float64)
    if rays.ndim != 2 or rays.shape[1] != 3:
        raise DimMismatch("rays must be (N,3)")
    X = tape.as_var(points_cam)
    if X.shape != rays.shape:
        raise DimMismatch("points and rays must align")
    n = rays.shape[0]
    A = n * np.eye(3) - rays.T @ rays
    if n < 2 or np.linalg.cond(A) > 1e12:
        raise SingularSystem("translation system is (near-)singular")
    r_dot_x = tape.vsum(X * rays, axis=1, keepdims=True)
    b = tape.vsum(r_dot_x * rays - X, axis=0)
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
    cam: geom.CameraIntrinsics,
    pixels: np.ndarray,
    cfg: LossConfig,
):
    """Self-consistency between reconstructed points and their source pixels.

    Orthographic: translation is identically zero (2D data is centered in
    preprocessing) and the residual is the projected offset. Perspective:
    the translation minimizing the quadratic ray surrogate is solved in
    closed form, exposed as the frame translation, and the robust loss is
    the bounded-gradient distance of the translated points to their pixel
    rays (:func:`ray_projection_loss`).

    Returns (loss, t) with t a (3,) Var.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    X = tape.as_var(points_world)
    X_R = X @ tape.transpose(tape.as_var(R))
    if cam.kind == geom.ORTHOGRAPHIC:
        t = tape.Var(np.zeros(3))
        yhat = X_R[:, :2]
        loss = tape.vsum(pseudo_huber_rows(yhat - pixels, cfg.eps_geom))
        return loss, t
    rays = geom.ray_direction(cam, pixels)
    t = closed_form_translation(X_R, rays)
    return ray_projection_loss(X_R + t, rays, cfg), t


def cross_project(
    points_world, R_ref, t_ref, cam: geom.CameraIntrinsics, cfg: LossConfig
) -> tape.Var:
    """Map target-frame surface points into a reference frame's image.

    ``points_world`` are basis(kappa_target) @ alpha_ref; the reference
    frame's pose (R_ref, t_ref) carries them into its camera and the camera
    projects.
    """
    X = tape.as_var(points_world) @ tape.transpose(tape.as_var(R_ref)) + t_ref
    return geom.project_var(cam, X, min_depth=cfg.min_depth)


# -- appearance ---------------------------------------------------------------


def image_pyramid(image: np.ndarray, radii) -> list[np.ndarray]:
    """[identity] + box-blurred copies of the (H,W,C) image at each radius."""
    image = np.asarray(image, dtype=np.float64)
    rc = np.indices(image.shape[:2]).reshape(2, -1).T
    rows = image.reshape(len(rc), -1)
    return [image] + [tape.window_mean(image.shape, rc, rows, int(r))
                      .data.reshape(image.shape) for r in radii]


def photometric_loss(
    ref_levels: list[np.ndarray],
    ref_raster: geom.Raster,
    coords,
    target_level_colors: list[np.ndarray],
    cfg: LossConfig,
):
    """Robust multi-level color mismatch along a correspondence field.

    ``coords`` (N,2 Var, normalized units) index the reference frame;
    ``target_level_colors`` holds the target frame's colors at its own
    pixels for each pyramid level. Returns (per_pixel (N,) Var,
    clamped_fraction float). Samples falling outside the reference image
    are clamped to its border by the sampler.
    """
    px = ref_raster.to_px_var(coords)
    per_pixel = None
    for lvl, tgt in zip(ref_levels, target_level_colors):
        sampled = tape.bilinear_sample(lvl, px)
        cost = pseudo_huber_rows(sampled - tgt, cfg.eps_color)
        per_pixel = cost if per_pixel is None else per_pixel + cost
    clamped = float(np.mean(tape.clamp_mask(ref_levels[0].shape, px.data)))
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


def embedding_alignment_loss(kappa, R) -> tape.Var:
    """Camera-z component of the rotated mean embedding direction, in [-1,1].

    Minimizing it turns the average visible embedding away from the camera
    axis, which globally disambiguates front from back.
    """
    u = nets.l2norm_rows(tape.vmean(tape.as_var(kappa), axis=0))
    return tape.dot(tape.as_var(R)[2], u)


def mask_reprojection_loss(
    points_world,
    R,
    t,
    cam: geom.CameraIntrinsics,
    raster: geom.Raster,
    mask_dist: np.ndarray,
    cfg: LossConfig,
):
    """Keep uniformly sampled surface points projecting inside the silhouette.

    ``mask_dist`` is the distance transform of the silhouette's outside.
    Mean squared distance-transform value at each projection, zero inside
    the mask, plus the squared out-of-image overshoot so samples beyond the
    border keep a pull-back gradient.
    """
    X = tape.as_var(points_world) @ tape.transpose(tape.as_var(R)) + t
    proj = geom.project_var(cam, X, min_depth=cfg.min_depth)
    px = raster.to_px_var(proj)
    h, w = mask_dist.shape
    lim = np.array([w - 1.0, h - 1.0])
    inside_px = tape.clip(px, np.zeros(2), lim)
    overshoot = px - inside_px
    d = tape.bilinear_sample(mask_dist[:, :, None], inside_px)
    return (tape.vmean(d * d)
            + tape.vmean(tape.vsum(overshoot * overshoot, axis=1)))


def texture_loss(
    mdl: model_mod.DeformerModel,
    leaves,
    frame,
    pix_idx: np.ndarray,
    kappa,
    beta,
    weights: LossWeights,
    cfg: LossConfig,
):
    """Reconstruct the frame's own colors from (kappa, beta).

    The embedding is detached: appearance gradients reach the texture
    network and beta (and its head) only, never the embedding or basis
    networks. The single-scale term compares colors at the frame's pixels;
    the multi-scale stand-in blurs the sparse error image and penalizes it
    at the same pixels.

    Returns the weighted sum of the two terms.
    """
    kappa_det = tape.detach(kappa)
    pred = model_mod.texture_at(mdl, leaves, kappa_det, beta)
    diff = pred - frame.colors[pix_idx]
    photo = tape.vsum(pseudo_huber_rows(diff, cfg.eps_color))

    rc = frame.pix_rc[pix_idx]
    percep = tape.as_var(0.0)
    for r in cfg.blur_radii:
        blurred = tape.window_mean(frame.image.shape, rc, diff, int(r))
        percep = percep + tape.vsum(pseudo_huber_rows(blurred, cfg.eps_color))
    return weights.w_tex_photo * photo + weights.w_tex_percep * percep


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

    Per-frame terms (prior, reprojection, alignment, mask, texture) are
    averaged over the batch in list order; the min-k appearance term is
    evaluated for the target against the remaining frames. The silhouette
    samples and their basis are shared across the batch: each frame's mask
    term places the target's sphere samples with its own alpha and pose, so
    the basis net runs on them once per batch. ``n_pixels=None`` keeps
    every pixel.

    Returns (total Var, breakdown dict). The breakdown holds unweighted
    per-term values plus the raw (unnormalized) min-k value; the total
    equals the weighted sum of the normalized terms exactly.
    """
    n_frames = len(frames)
    if n_frames == 0:
        raise DimMismatch("empty batch")
    preds = []
    subsets = []
    translations = []
    acc = {}

    def add(key, value):
        acc[key] = acc[key] + value if key in acc else value

    for i, frame in enumerate(frames):
        idx = _frame_pixel_subset(frame, n_pixels, rng)
        subsets.append(idx)
        pred = model_mod.predict_frame(
            mdl, leaves, frame.instance_desc, frame.frame_id,
            frame.descriptors[idx],
        )
        preds.append(pred)

        lab = frame.labels
        vis = np.asarray(lab.visible, dtype=bool)
        kp_emb = model_mod.embed_pixels(mdl, leaves, frame.kp_desc[vis])
        kp_basis = model_mod.basis_at(mdl, leaves, kp_emb)
        add("prior", prior_loss(kp_basis, pred.alpha, pred.R, lab, weights, cfg))

        basis = model_mod.basis_at(mdl, leaves, pred.kappa)
        if i == 0:
            B_target = basis  # the min-k term reprojects the target's points
        points = tape.batch_matvec(basis, pred.alpha)
        repro, t = reprojection_loss(
            points, pred.R, frame.camera, frame.pix_y[idx], cfg
        )
        translations.append(t)
        add("repro", repro)

        add("emb_align", embedding_alignment_loss(pred.kappa, pred.R))

        # every frame draws (later draws stay put); only frame 0's set is used
        sphere = sample_sphere(cfg.n_mask_samples, rng)
        if i == 0:
            B_sphere = model_mod.basis_at(mdl, leaves, tape.Var(sphere))
        mask_pts = tape.batch_matvec(B_sphere, pred.alpha)
        add("mask", mask_reprojection_loss(
            mask_pts, pred.R, t, frame.camera, frame.raster, frame.mask_dist,
            cfg,
        ))
        add("texture", texture_loss(mdl, leaves, frame, idx, pred.kappa,
                                    pred.beta, weights, cfg))

    terms = {key: acc[key] * (1.0 / n_frames) for key in acc}  # batch means
    # min-k cross-frame appearance for the target frame
    min_k_raw = 0.0
    n_refs_used = 0
    if n_frames > 1:
        target = frames[0]
        idx0 = subsets[0]
        tgt_levels = target.levels(cfg.blur_radii)
        tgt_rc = target.pix_rc[idx0]
        tgt_colors = [lvl[tgt_rc[:, 0], tgt_rc[:, 1]] for lvl in tgt_levels]
        columns = []
        for j in range(1, n_frames):
            ref = frames[j]
            pts = tape.batch_matvec(B_target, preds[j].alpha)
            coords = cross_project(pts, preds[j].R, translations[j],
                                   ref.camera, cfg)
            per_pixel, clamped = photometric_loss(
                ref.levels(cfg.blur_radii), ref.raster, coords, tgt_colors, cfg
            )
            if clamped > cfg.max_clamped_frac:
                continue  # reference mostly out of view of this target
            columns.append(per_pixel)
        if columns:
            n_refs_used = len(columns)
            cost = tape.stack(columns, axis=1)
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
