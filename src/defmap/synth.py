"""Synthetic deformable categories with exactly known geometry.

A category is a low-degree spherical-harmonic basis field over the unit
sphere plus per-instance shape coefficients, a canonical albedo field, and
per-frame camera poses. Rendering runs a z-buffer over a dense sphere
sampling, then polishes every covered pixel's canonical point with a
Gauss-Newton solve so it reprojects onto the exact pixel center; fits can
therefore be scored against machine-precision ground truth.

Pixel and instance descriptors are invertible scrambles (random two-layer
maps) of the canonical point and of (alpha, beta, viewpoint) respectively,
optionally corrupted with Gaussian noise, so a fitted model must recover
the chart but never gets it for free.

Frame attribute contract consumed by :mod:`defmap.losses`: ``frame_id``,
``instance_id``, ``camera``, ``raster``, ``image`` (H,W,3), ``levels(radii)``
memoized blur pyramid, ``mask`` (H,W) bool, ``mask_dist`` (zero inside,
distance to the silhouette outside), ``pix_rc`` (N,2) int pixel indices,
``pix_y`` (N,2) normalized coordinates of those pixel centers,
``descriptors`` (N,F), ``colors`` (N,3), ``kp_desc`` (K,F),
``instance_desc`` (G,).
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.ndimage import distance_transform_edt

from . import geom, losses
from .errors import (
    DimMismatch,
    GimbalDegenerate,
    InfeasibleConstraint,
    InvalidSpec,
    IoError,
    check_keys,
)

__all__ = [
    "SH_DIM",
    "sh_basis",
    "fibonacci_sphere",
    "farthest_point_sample",
    "CategorySpec",
    "Frame",
    "GroundTruthCategory",
    "pose_rotation",
    "azimuth_of",
    "rebalance_weights",
    "make_batches",
    "generate_category",
    "save_category",
    "load_category",
    "dataset_hash",
    "fixed_point_spec",
    "benchmark_spec",
]

SH_DIM = 16


def sh_basis(kappa: np.ndarray) -> np.ndarray:
    """Real orthonormal spherical harmonics up to degree 3, (N,16).

    Cartesian polynomial forms evaluated at unit vectors; columns are
    ordered (l, m) = (0,0), (1,-1..1), (2,-2..2), (3,-3..3).
    """
    k = np.asarray(kappa, dtype=np.float64)
    if k.ndim != 2 or k.shape[1] != 3:
        raise DimMismatch("kappa must be (N,3)")
    x, y, z = k[:, 0], k[:, 1], k[:, 2]
    x2, y2, z2 = x * x, y * y, z * z
    out = np.empty((k.shape[0], SH_DIM))
    out[:, 0] = 0.28209479177387814
    out[:, 1] = 0.4886025119029199 * y
    out[:, 2] = 0.4886025119029199 * z
    out[:, 3] = 0.4886025119029199 * x
    out[:, 4] = 1.0925484305920792 * x * y
    out[:, 5] = 1.0925484305920792 * y * z
    out[:, 6] = 0.31539156525252005 * (3.0 * z2 - 1.0)
    out[:, 7] = 1.0925484305920792 * x * z
    out[:, 8] = 0.5462742152960396 * (x2 - y2)
    out[:, 9] = 0.5900435899266435 * y * (3.0 * x2 - y2)
    out[:, 10] = 2.890611442640554 * x * y * z
    out[:, 11] = 0.4570457994644658 * y * (5.0 * z2 - 1.0)
    out[:, 12] = 0.3731763325901154 * z * (5.0 * z2 - 3.0)
    out[:, 13] = 0.4570457994644658 * x * (5.0 * z2 - 1.0)
    out[:, 14] = 1.445305721320277 * z * (x2 - y2)
    out[:, 15] = 0.5900435899266435 * x * (x2 - 3.0 * y2)
    return out


def fibonacci_sphere(n: int) -> np.ndarray:
    """Near-uniform deterministic sphere covering, (n,3)."""
    i = np.arange(n, dtype=np.float64)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def farthest_point_sample(points: np.ndarray, k: int) -> np.ndarray:
    """Greedy max-min subset indices, deterministic (starts at index 0)."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k < 1 or k > n:
        raise DimMismatch(f"cannot pick {k} of {n} points")
    chosen = [0]
    d = np.linalg.norm(points - points[0], axis=1)
    for _ in range(k - 1):
        nxt = int(np.argmax(d))
        chosen.append(nxt)
        d = np.minimum(d, np.linalg.norm(points - points[nxt], axis=1))
    return np.asarray(chosen)


# -- category specification ----------------------------------------------------


@dataclass(frozen=True)
class CategorySpec:
    """Everything that determines a generated category, except the arrays."""

    seed: int = 0
    n_instances: int = 20
    frames_per_instance: int = 5
    image_h: int = 64
    image_w: int = 64
    camera_kind: str = geom.ORTHOGRAPHIC
    focal: float = 3.2              # perspective only
    standoff: float = 5.0           # perspective camera distance
    n_shape_coeffs: int = 3
    sh_degree: int = 3              # band limit of the shape basis field
    n_keypoints: int = 12
    descriptor_dim: int = 24
    instance_desc_dim: int = 24
    n_texture_params: int = 8
    sigma_descriptor: float = 0.05
    sigma_label: float = 0.02
    elevation_limit: float = np.deg2rad(30.0)
    azimuth_sigma: float = np.deg2rad(25.0)
    azimuth_major_weight: float = 0.8   # mixture mass on the primary mode
    constant_albedo: bool = False
    background_matches_albedo: bool = False
    n_surface_samples: int = 24000

    def __post_init__(self):
        if self.camera_kind not in (geom.ORTHOGRAPHIC, geom.PERSPECTIVE):
            raise InvalidSpec(f"unknown camera kind {self.camera_kind!r}")
        positive = {
            "n_instances": self.n_instances,
            "frames_per_instance": self.frames_per_instance,
            "n_shape_coeffs": self.n_shape_coeffs,
            "n_keypoints": self.n_keypoints,
            "descriptor_dim": self.descriptor_dim,
            "instance_desc_dim": self.instance_desc_dim,
            "n_texture_params": self.n_texture_params,
        }
        for name, v in positive.items():
            if v < 1:
                raise InvalidSpec(f"{name} must be >= 1, got {v}")
        if self.image_h < 16 or self.image_w < 16:
            raise InvalidSpec("images must be at least 16x16")
        if not 0 <= self.sh_degree <= 3:
            raise InvalidSpec("sh_degree must lie in 0..3")
        if self.n_keypoints < 3:
            raise InvalidSpec("need at least 3 keypoints")
        if self.sigma_descriptor < 0 or self.sigma_label < 0:
            raise InvalidSpec("noise levels must be non-negative")
        if not 0.0 <= self.elevation_limit < np.deg2rad(80.0):
            raise InvalidSpec("elevation limit must stay clear of the poles")
        if not 0.5 <= self.azimuth_major_weight <= 1.0:
            raise InvalidSpec("primary azimuth mode must carry most mass")
        if self.n_surface_samples < 1000:
            raise InvalidSpec("surface sampling too sparse to rasterize")
        if self.camera_kind == geom.PERSPECTIVE and self.standoff <= 2.0:
            raise InvalidSpec("perspective standoff must clear the surface")


@dataclass
class Frame:
    """One rendered view plus its training-time observations."""

    frame_id: int
    instance_id: int
    camera: geom.CameraIntrinsics
    raster: geom.Raster
    image: np.ndarray
    mask: np.ndarray
    mask_dist: np.ndarray
    depth: np.ndarray           # camera-frame depth, NaN outside the mask
    pix_rc: np.ndarray          # (N,2) int (row, col) of refined pixels
    pix_y: np.ndarray           # (N,2) exact normalized pixel-center coords
    descriptors: np.ndarray     # (N,F)
    colors: np.ndarray          # (N,3)
    kp_desc: np.ndarray         # (K,F)
    instance_desc: np.ndarray   # (G,)
    labels: losses.NrsfmLabels
    gt_kappa: np.ndarray        # (N,3) refined canonical points
    gt_alpha: np.ndarray
    gt_beta: np.ndarray
    gt_R: np.ndarray
    gt_t: np.ndarray
    gt_azimuth: float
    gt_elevation: float
    _levels: dict = field(default_factory=dict, repr=False)

    def levels(self, radii) -> list[np.ndarray]:
        key = tuple(radii)
        if key not in self._levels:
            self._levels[key] = losses.image_pyramid(self.image, radii)
        return self._levels[key]


@dataclass
class GroundTruthCategory:
    spec: CategorySpec
    basis_coeffs: np.ndarray      # (16,3,D) SH coefficients per basis column
    albedo_base: np.ndarray       # (16,3)
    albedo_proj: np.ndarray       # (48,T) maps beta to albedo coefficient deltas
    alphas: np.ndarray            # (n_instances, D)
    betas: np.ndarray             # (n_instances, T)
    keypoints: np.ndarray         # (K,3) canonical anchors
    pix_scramble: tuple           # (W1 (h,3), W2 (F,h))
    inst_scramble: tuple          # (W1 (h,D+T+6), W2 (G,h))
    frames: list

    def basis_at(self, kappa: np.ndarray) -> np.ndarray:
        """Exact (N,3,D) basis: SH field plus the identity first column."""
        B = np.einsum("ns,scd->ncd", sh_basis(kappa), self.basis_coeffs)
        B[:, :, 0] += kappa
        return B

    def surface_points(self, kappa: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        coeff = np.einsum("scd,d->sc", self.basis_coeffs, alpha)
        return sh_basis(kappa) @ coeff + alpha[0] * np.asarray(kappa)

    def albedo(self, kappa: np.ndarray, instance: int) -> np.ndarray:
        """Canonical RGB albedo field of one instance, (N,3) in [0,1]."""
        if self.spec.constant_albedo:
            coeffs = self.albedo_base
        else:
            delta = (self.albedo_proj @ self.betas[instance]).reshape(SH_DIM, 3)
            coeffs = self.albedo_base + 0.25 * delta
        raw = sh_basis(np.asarray(kappa, dtype=np.float64)) @ coeffs
        return np.clip(0.5 + raw, 0.02, 0.98)

    def pixel_descriptor(self, kappa, rng=None) -> np.ndarray:
        W1, W2 = self.pix_scramble
        d = np.tanh(np.asarray(kappa) @ W1.T) @ W2.T
        if rng is not None and self.spec.sigma_descriptor > 0:
            d = d + rng.normal(0.0, self.spec.sigma_descriptor, size=d.shape)
        return d

    def instance_descriptor(self, alpha, beta, view6d, rng=None) -> np.ndarray:
        W1, W2 = self.inst_scramble
        v = np.concatenate([alpha, beta, view6d])
        d = W2 @ np.tanh(W1 @ v)
        if rng is not None and self.spec.sigma_descriptor > 0:
            d = d + rng.normal(0.0, self.spec.sigma_descriptor, size=d.shape)
        return d

    def background_color(self) -> np.ndarray:
        if self.spec.background_matches_albedo:
            return self.albedo(np.array([[0.0, 0.0, 1.0]]), 0)[0]
        return np.full(3, 0.08)


# -- poses ----------------------------------------------------------------------


def pose_rotation(azimuth: float, elevation: float) -> np.ndarray:
    """World-to-camera rotation for an orbiting camera.

    Azimuth spins the object about the world z axis; elevation tips the
    camera off the equator. At elevation 0 the camera looks along the
    horizon, so world z is the in-image vertical.
    """
    tilt = geom.rotation_about(np.array([1.0, 0.0, 0.0]), elevation - np.pi / 2)
    spin = geom.rotation_about(np.array([0.0, 0.0, 1.0]), azimuth)
    return tilt @ spin


def azimuth_of(R: np.ndarray, eps: float = 1e-9) -> float:
    """Recover the azimuth as the right-factor twist about world z.

    Decomposes R = R_rest @ R_z(theta) via the rotation's quaternion:
    theta = 2 atan2(q_z, q_w). Degenerate when the twist is unconstrained
    (camera axis parallel to world z).
    """
    q = geom.quat_from_matrix(np.asarray(R, dtype=np.float64))
    w, z = q[0], q[3]
    n = np.hypot(w, z)
    if n < eps:
        raise GimbalDegenerate("twist about z is unconstrained here")
    return float(2.0 * np.arctan2(z, w))


def rebalance_weights(azimuths, n_bins: int = 16) -> np.ndarray:
    """Inverse-propensity frame weights from a binned azimuth histogram.

    Frames in over-represented azimuth bins are down-weighted so every
    occupied bin carries the same total mass; weights average to 1.
    """
    az = np.mod(np.asarray(azimuths, dtype=np.float64) + np.pi, 2 * np.pi) - np.pi
    bins = np.minimum((az + np.pi) / (2 * np.pi) * n_bins, n_bins - 1).astype(int)
    counts = np.bincount(bins, minlength=n_bins)
    w = 1.0 / counts[bins]
    return w / w.mean()


def make_batches(
    instance_ids,
    weights,
    batch_size: int,
    n_batches: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Weighted frame batches whose members show pairwise distinct instances.

    The first entry of each batch is the min-k target. Frames are drawn by
    the rebalancing weights; a draw landing on an already-used instance is
    rejected within the batch.
    """
    instance_ids = np.asarray(instance_ids)
    weights = np.asarray(weights, dtype=np.float64)
    if instance_ids.shape != weights.shape:
        raise DimMismatch("one weight per frame")
    if batch_size < 1:
        raise InfeasibleConstraint("batch size must be >= 1")
    if len(np.unique(instance_ids)) < batch_size:
        raise InfeasibleConstraint(
            f"batch of {batch_size} distinct instances from "
            f"{len(np.unique(instance_ids))}"
        )
    p = weights / weights.sum()
    batches = []
    for _ in range(n_batches):
        used = set()
        members = []
        while len(members) < batch_size:
            f = int(rng.choice(len(p), p=p))
            inst = instance_ids[f]
            if inst in used:
                continue
            used.add(inst)
            members.append(f)
        batches.append(np.asarray(members))
    return batches


# -- rendering ------------------------------------------------------------------


def _default_raster(spec: CategorySpec) -> geom.Raster:
    side = min(spec.image_h, spec.image_w)
    return geom.Raster(
        ppu=0.27 * side, cx=(spec.image_w - 1) / 2.0, cy=(spec.image_h - 1) / 2.0
    )


def _camera(spec: CategorySpec) -> geom.CameraIntrinsics:
    if spec.camera_kind == geom.ORTHOGRAPHIC:
        return geom.CameraIntrinsics(geom.ORTHOGRAPHIC)
    K = np.diag([spec.focal, spec.focal, 1.0])
    return geom.CameraIntrinsics(geom.PERSPECTIVE, K)


def _zbuffer(spec, px, z):
    """3x3 splatted z-buffer. Returns (mask, depth grid, winner sample idx)."""
    H, W = spec.image_h, spec.image_w
    cols = np.rint(px[:, 0]).astype(int)
    rows = np.rint(px[:, 1]).astype(int)
    offsets = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
    all_r = np.concatenate([rows + dr for dr, _ in offsets])
    all_c = np.concatenate([cols + dc for _, dc in offsets])
    all_z = np.tile(z, len(offsets))
    all_i = np.tile(np.arange(len(z)), len(offsets))
    ok = (all_r >= 0) & (all_r < H) & (all_c >= 0) & (all_c < W)
    all_r, all_c, all_z, all_i = all_r[ok], all_c[ok], all_z[ok], all_i[ok]
    order = np.argsort(-all_z, kind="stable")  # write nearest last
    depth = np.full((H, W), np.nan)
    winner = np.full((H, W), -1, dtype=int)
    depth[all_r[order], all_c[order]] = all_z[order]
    winner[all_r[order], all_c[order]] = all_i[order]
    mask = winner >= 0
    return mask, depth, winner


def _tangent_frame(kappa: np.ndarray):
    """Per-row orthonormal (e1, e2) spanning the tangent plane at kappa."""
    ref = np.where(
        (np.abs(kappa[:, 2:3]) < 0.9),
        np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 0.0, 0.0]),
    )
    e1 = np.cross(kappa, ref)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(kappa, e1)
    return e1, e2


def _refine_pixels(cat, alpha, R, t, cam, kappa0, target_y, tol=1e-12,
                   max_iter=60):
    """Gauss-Newton polish so surface(kappa) reprojects onto pixel centers.

    Works in a fixed 2D tangent chart at each seed; the Jacobian comes from
    central differences (the surface is an analytic SH field, but the chart
    normalization makes closed forms noisier than they are worth). Returns
    (kappa, residual_norm, converged_mask).
    """
    kappa0 = np.asarray(kappa0, dtype=np.float64)
    e1, e2 = _tangent_frame(kappa0)
    delta = np.zeros((kappa0.shape[0], 2))

    def kappa_of(d):
        k = kappa0 + d[:, 0:1] * e1 + d[:, 1:2] * e2
        return k / np.linalg.norm(k, axis=1, keepdims=True)

    def residual(d):
        pts = cat.surface_points(kappa_of(d), alpha) @ R.T + t
        return geom.project(cam, pts) - target_y

    h = 1e-7
    for _ in range(max_iter):
        r = residual(delta)
        if np.nanmax(np.linalg.norm(r, axis=1), initial=0.0) <= tol:
            break
        J = np.empty((kappa0.shape[0], 2, 2))
        for a in range(2):
            step = np.zeros_like(delta)
            step[:, a] = h
            J[:, :, a] = (residual(delta + step) - residual(delta - step)) / (2 * h)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        det = np.where(np.abs(det) < 1e-18, np.nan, det)
        du = (J[:, 1, 1] * r[:, 0] - J[:, 0, 1] * r[:, 1]) / det
        dv = (J[:, 0, 0] * r[:, 1] - J[:, 1, 0] * r[:, 0]) / det
        step = np.stack([du, dv], axis=1)
        norm = np.maximum(np.linalg.norm(step, axis=1, keepdims=True), 1e-30)
        step = step * np.minimum(1.0, 0.2 / norm)  # trust region
        step = np.where(np.isfinite(step), step, 0.0)
        delta = delta - step
    r = residual(delta)
    rnorm = np.linalg.norm(r, axis=1)
    ok = np.isfinite(rnorm) & (rnorm <= tol)
    return kappa_of(delta), rnorm, ok


def _render_frame(cat: GroundTruthCategory, instance: int, R, t, dense_kappa,
                  dense_sh):
    spec = cat.spec
    cam = _camera(spec)
    raster = _default_raster(spec)
    alpha = cat.alphas[instance]

    coeff = np.einsum("scd,d->sc", cat.basis_coeffs, alpha)
    X = dense_sh @ coeff + alpha[0] * dense_kappa
    Xc = X @ R.T + t
    px = raster.to_px(geom.project(cam, Xc))
    mask, depth, winner = _zbuffer(spec, px, Xc[:, 2])

    rows, cols = np.nonzero(mask)
    seeds = dense_kappa[winner[rows, cols]]
    target_y = raster.from_px(np.stack([cols, rows], axis=1).astype(np.float64))
    kappa, rnorm, ok = _refine_pixels(cat, alpha, R, t, cam, seeds, target_y)

    rows, cols, kappa = rows[ok], cols[ok], kappa[ok]
    pix_y = target_y[ok]
    colors = cat.albedo(kappa, instance)

    image = np.empty((spec.image_h, spec.image_w, 3))
    image[:] = cat.background_color()
    seed_rows, seed_cols = np.nonzero(mask)
    image[seed_rows, seed_cols] = cat.albedo(
        dense_kappa[winner[seed_rows, seed_cols]], instance
    )
    image[rows, cols] = colors

    surf = cat.surface_points(kappa, alpha) @ R.T + t
    depth_out = np.full(depth.shape, np.nan)
    depth_out[mask] = depth[mask]
    depth_out[rows, cols] = surf[:, 2]

    return {
        "camera": cam,
        "raster": raster,
        "image": image,
        "mask": mask,
        "mask_dist": distance_transform_edt(~mask),
        "depth": depth_out,
        "pix_rc": np.stack([rows, cols], axis=1),
        "pix_y": pix_y,
        "gt_kappa": kappa,
        "colors": colors,
    }


def _keypoint_visibility(cat, instance, R, t, render) -> np.ndarray:
    """A keypoint is visible when it is the frontmost surface at its pixel."""
    spec = cat.spec
    Xk = cat.surface_points(cat.keypoints, cat.alphas[instance]) @ R.T + t
    px = render["raster"].to_px(geom.project(render["camera"], Xk))
    cols = np.rint(px[:, 0]).astype(int)
    rows = np.rint(px[:, 1]).astype(int)
    H, W = spec.image_h, spec.image_w
    inside = (rows >= 0) & (rows < H) & (cols >= 0) & (cols < W)
    vis = np.zeros(len(Xk), dtype=bool)
    depth = render["depth"]
    for i in np.flatnonzero(inside):
        d = depth[rows[i], cols[i]]
        if np.isfinite(d) and Xk[i, 2] <= d + 0.05:
            vis[i] = True
    return vis


# -- generation -----------------------------------------------------------------


def generate_category(spec: CategorySpec) -> GroundTruthCategory:
    """Build shapes, albedo, poses and render every frame of a category."""
    rng_shape = np.random.default_rng(spec.seed)
    rng_noise = np.random.default_rng(spec.seed + 1)
    rng_pose = np.random.default_rng(spec.seed + 2)

    D, T = spec.n_shape_coeffs, spec.n_texture_params
    F, G = spec.descriptor_dim, spec.instance_desc_dim

    # shape basis: first column is the unit sphere plus a gentle SH warp,
    # the rest are pure SH fields driving per-instance deformation
    basis_coeffs = np.zeros((SH_DIM, 3, D))
    basis_coeffs[:, :, 0] = 0.10 * rng_shape.standard_normal((SH_DIM, 3))
    if D > 1:
        basis_coeffs[:, :, 1:] = 0.28 * rng_shape.standard_normal((SH_DIM, 3, D - 1))
    # band limit: rows for degrees 0..L are the first (L+1)^2
    basis_coeffs[(spec.sh_degree + 1) ** 2:] = 0.0

    if spec.constant_albedo:
        albedo_base = np.zeros((SH_DIM, 3))
        albedo_base[0] = (np.array([0.62, 0.44, 0.23]) - 0.5) / 0.28209479177387814
    else:
        albedo_base = 0.30 * rng_shape.standard_normal((SH_DIM, 3))
    albedo_proj = rng_shape.standard_normal((SH_DIM * 3, T))

    alphas = np.zeros((spec.n_instances, D))
    alphas[:, 0] = 1.0 + 0.1 * rng_shape.standard_normal(spec.n_instances)
    if D > 1:
        alphas[:, 1:] = 0.5 * rng_shape.standard_normal((spec.n_instances, D - 1))
    betas = rng_shape.standard_normal((spec.n_instances, T))

    keypoints = fibonacci_sphere(512)[
        farthest_point_sample(fibonacci_sphere(512), spec.n_keypoints)
    ]

    hidden = max(3 * F, 32)
    pix_scramble = (
        rng_shape.standard_normal((hidden, 3)) * 1.2,
        rng_shape.standard_normal((F, hidden)) / np.sqrt(hidden),
    )
    hidden_g = max(3 * G, 32)
    inst_scramble = (
        rng_shape.standard_normal((hidden_g, D + T + 6)) * 0.8,
        rng_shape.standard_normal((G, hidden_g)) / np.sqrt(hidden_g),
    )

    cat = GroundTruthCategory(
        spec=spec,
        basis_coeffs=basis_coeffs,
        albedo_base=albedo_base,
        albedo_proj=albedo_proj,
        alphas=alphas,
        betas=betas,
        keypoints=keypoints,
        pix_scramble=pix_scramble,
        inst_scramble=inst_scramble,
        frames=[],
    )

    # rescale every instance to unit mean squared radius, so image span,
    # loss knees and metric thresholds mean the same thing in every category
    probe = fibonacci_sphere(4000)
    for i in range(spec.n_instances):
        pts = cat.surface_points(probe, cat.alphas[i])
        centered = pts - pts.mean(axis=0)
        cat.alphas[i] /= np.sqrt(np.mean(np.sum(centered**2, axis=1)))

    dense_kappa = fibonacci_sphere(spec.n_surface_samples)
    dense_sh = sh_basis(dense_kappa)

    major = rng_pose.uniform(-np.pi, np.pi)
    t = (
        np.zeros(3)
        if spec.camera_kind == geom.ORTHOGRAPHIC
        else np.array([0.0, 0.0, spec.standoff])
    )

    frame_id = 0
    for i in range(spec.n_instances):
        for _ in range(spec.frames_per_instance):
            if rng_pose.random() < spec.azimuth_major_weight:
                az = rng_pose.normal(major, spec.azimuth_sigma)
            else:
                az = rng_pose.normal(major + np.pi, spec.azimuth_sigma)
            az = float(np.mod(az + np.pi, 2 * np.pi) - np.pi)
            el = float(rng_pose.uniform(-spec.elevation_limit,
                                        spec.elevation_limit))
            R = pose_rotation(az, el)

            render = _render_frame(cat, i, R, t, dense_kappa, dense_sh)
            vis = _keypoint_visibility(cat, i, R, t, render)
            if not vis.any():
                vis[int(np.argmin(
                    (cat.surface_points(cat.keypoints, cat.alphas[i]) @ R.T)[:, 2]
                ))] = True

            kp_basis = cat.basis_at(cat.keypoints)
            s = spec.sigma_label
            noisy_basis = kp_basis + s * rng_noise.standard_normal(kp_basis.shape)
            noisy_alpha = cat.alphas[i] + s * rng_noise.standard_normal(D)
            axis = rng_noise.standard_normal(3)
            axis /= np.linalg.norm(axis)
            noisy_R = R @ geom.rotation_about(axis, s * rng_noise.standard_normal())
            labels = losses.NrsfmLabels(
                basis=noisy_basis, visible=vis, alpha=noisy_alpha,
                rotation=noisy_R,
            )

            view6d = np.concatenate([R[:, 0], R[:, 1]])
            cat.frames.append(Frame(
                frame_id=frame_id, instance_id=i, **render,
                # keyword order is the rng_noise draw order
                descriptors=cat.pixel_descriptor(render["gt_kappa"], rng_noise),
                kp_desc=cat.pixel_descriptor(cat.keypoints, rng_noise),
                instance_desc=cat.instance_descriptor(
                    cat.alphas[i], cat.betas[i], view6d, rng_noise),
                labels=labels, gt_alpha=cat.alphas[i].copy(),
                gt_beta=cat.betas[i].copy(), gt_R=R, gt_t=t.copy(),
                gt_azimuth=az, gt_elevation=el,
            ))
            frame_id += 1
    return cat


# -- presets --------------------------------------------------------------------


def fixed_point_spec(seed: int = 0) -> CategorySpec:
    """Noise-free category whose ground truth is an exact loss fixed point.

    Constant shared albedo with a matching background makes every
    cross-frame color comparison exact (bilinear resampling of a constant
    image is the constant), and zero noise makes labels and descriptors
    clean.
    """
    return CategorySpec(
        seed=seed,
        n_instances=4,
        frames_per_instance=3,
        image_h=48,
        image_w=48,
        sigma_descriptor=0.0,
        sigma_label=0.0,
        constant_albedo=True,
        background_matches_albedo=True,
        n_surface_samples=16000,
    )


def benchmark_spec(seed: int = 0) -> CategorySpec:
    """Textured noisy category at the scale the training benchmarks use."""
    return CategorySpec(seed=seed)


# -- dataset io -----------------------------------------------------------------


def _spec_to_json(spec: CategorySpec) -> dict:
    d = asdict(spec)
    for k, v in d.items():
        if isinstance(v, (np.floating, np.integer)):
            d[k] = v.item()
    return d


#: frame_NNNN.npz members in file order: the Frame field of the same name,
#: except the camera (kind and K) and the raster (ppu, cx, cy)
_FRAME_KEYS = ("instance_id", "camera_kind", "camera_K", "raster", "image",
               "mask", "mask_dist", "depth", "pix_rc", "pix_y", "descriptors",
               "colors", "kp_desc", "instance_desc", "gt_kappa", "gt_alpha",
               "gt_beta", "gt_R", "gt_t", "gt_azimuth", "gt_elevation")
#: arrays.npz members in file order: the GroundTruthCategory field of the
#: same name, except the two (W1, W2) scramble pairs
_CATEGORY_KEYS = ("basis_coeffs", "albedo_base", "albedo_proj", "alphas",
                  "betas", "keypoints", "pix_w1", "pix_w2", "inst_w1",
                  "inst_w2")
#: labels.json row fields besides ``frame_id``, with their array dtypes
_LABEL_DTYPES = {"basis": float, "visible": bool, "alpha": float,
                 "rotation": float}


def save_category(root, cat: GroundTruthCategory) -> None:
    """Directory layout: category.json + arrays.npz + labels.json +
    frames/*.npz + keypoints.csv."""
    os.makedirs(root, exist_ok=True)
    os.makedirs(os.path.join(root, "frames"), exist_ok=True)
    with open(os.path.join(root, "category.json"), "w") as f:
        json.dump(
            {"spec": _spec_to_json(cat.spec), "n_frames": len(cat.frames)},
            f, indent=2, sort_keys=True,
        )
    # json round-trips python floats exactly, so the labels stay bit-identical
    with open(os.path.join(root, "labels.json"), "w") as f:
        json.dump({"frames": [
            {"frame_id": fr.frame_id,
             **{k: getattr(fr.labels, k).tolist() for k in _LABEL_DTYPES}}
            for fr in cat.frames
        ]}, f, sort_keys=True)
    flat = {**vars(cat), "pix_w1": cat.pix_scramble[0],
            "pix_w2": cat.pix_scramble[1], "inst_w1": cat.inst_scramble[0],
            "inst_w2": cat.inst_scramble[1]}
    np.savez(os.path.join(root, "arrays.npz"),
             **{k: flat[k] for k in _CATEGORY_KEYS})
    with open(os.path.join(root, "keypoints.csv"), "w") as f:
        f.write("index,x,y,z\n")
        for i, k in enumerate(cat.keypoints):
            f.write(f"{i},{k[0]:.17g},{k[1]:.17g},{k[2]:.17g}\n")
    for fr in cat.frames:
        flat = {**vars(fr), "camera_kind": fr.camera.kind,
                "camera_K": fr.camera.K,
                "raster": np.array([fr.raster.ppu, fr.raster.cx, fr.raster.cy])}
        np.savez(os.path.join(root, "frames", f"frame_{fr.frame_id:04d}.npz"),
                 **{k: flat[k] for k in _FRAME_KEYS})


def _read(path, keys):
    """The JSON object or the .npz members stored at ``path``, which must be
    keyed by exactly ``keys``; 0-d .npz members become python scalars."""
    try:
        if path.endswith(".json"):
            with open(path) as f:
                out = json.load(f)
        else:
            with np.load(path) as z:
                out = {k: v.item() if v.ndim == 0 else v
                       for k, v in z.items()}
    except (OSError, ValueError, zipfile.BadZipFile) as e:
        raise IoError(f"cannot read {path!r}: {e}") from e
    check_keys(out, keys, path, IoError)
    return out


def load_category(root) -> GroundTruthCategory:
    meta = _read(os.path.join(root, "category.json"), ("spec", "n_frames"))
    check_keys(meta["spec"], [f.name for f in fields(CategorySpec)],
               "category.json spec", IoError)
    spec = CategorySpec(**meta["spec"])
    arr = _read(os.path.join(root, "arrays.npz"), _CATEGORY_KEYS)
    lab_rows = _read(os.path.join(root, "labels.json"), ("frames",))["frames"]
    if len(lab_rows) != meta["n_frames"]:
        raise IoError("labels.json frame count mismatch")
    frames = []
    for fid, lab in enumerate(lab_rows):
        check_keys(lab, ("frame_id", *_LABEL_DTYPES),
                   f"labels.json frame {fid}", IoError)
        if lab["frame_id"] != fid:
            raise IoError(f"labels.json out of order at frame {fid}")
        z = _read(os.path.join(root, "frames", f"frame_{fid:04d}.npz"),
                  _FRAME_KEYS)
        camera = geom.CameraIntrinsics(z.pop("camera_kind"), z.pop("camera_K"))
        raster = geom.Raster(*z.pop("raster").tolist())
        labels = losses.NrsfmLabels(**{k: np.array(lab[k], dtype=dtype)
                                       for k, dtype in _LABEL_DTYPES.items()})
        frames.append(Frame(frame_id=fid, camera=camera, raster=raster,
                            labels=labels, **z))
    pix_scramble = (arr.pop("pix_w1"), arr.pop("pix_w2"))
    inst_scramble = (arr.pop("inst_w1"), arr.pop("inst_w2"))
    return GroundTruthCategory(spec=spec, pix_scramble=pix_scramble,
                               inst_scramble=inst_scramble, frames=frames,
                               **arr)


def dataset_hash(root) -> str:
    """SHA-256 over relative paths and contents; run manifests are excluded
    so bookkeeping rewrites don't change a dataset's identity."""
    h = hashlib.sha256()
    entries = []
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            if name == "manifest.json":
                continue
            full = os.path.join(dirpath, name)
            entries.append((os.path.relpath(full, root), full))
    for rel, full in sorted(entries):
        h.update(rel.encode())
        h.update(b"\0")
        with open(full, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()
