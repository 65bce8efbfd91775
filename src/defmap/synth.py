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
``instance_id``, ``camera``, ``raster``, ``image`` (H,W,3), ``integral``
the (H+1,W+1,3) zero-bordered integral image of ``image``
(:func:`tape.integral_image`, which the min-k term reads its blur pyramid
rows off; :class:`Frame` builds it on first use and keeps it), ``mask_dist``
(zero inside, distance to the silhouette outside), ``pix_rc`` (N,2) int
pixel indices, ``pix_y`` (N,2) normalized coordinates of those pixel
centers, ``descriptors`` (N,F), ``colors`` (N,3), ``kp_desc`` (K,F),
``instance_desc`` (G,).
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from . import geom, losses, tape
from .errors import (
    DimMismatch,
    GimbalDegenerate,
    InfeasibleConstraint,
    InvalidSpec,
    IoError,
    check_keys,
    check_types,
)


SH_DIM = 16


def sh_basis(kappa: np.ndarray) -> np.ndarray:
    """Real orthonormal spherical harmonics up to degree 3, (N,16).

    Cartesian polynomial forms evaluated at unit vectors; columns are
    ordered (l, m) = (0,0), (1,-1..1), (2,-2..2), (3,-3..3).
    """
    k = np.asarray(kappa, dtype=np.float64)
    if k.ndim != 2 or k.shape[1] != 3:
        raise DimMismatch("kappa must be (N,3)")
    return _sh_basis_xyz(k[:, 0], k[:, 1], k[:, 2])


def _sh_basis_xyz(x, y, z):
    """:func:`sh_basis` of the points with coordinate arrays x, y, z (N,).

    Each column's last product is written in place, and factors two columns
    share are formed once; every value takes the same operations either way.
    """
    x2, y2, z2 = x * x, y * y, z * z
    cx, dxy, z5 = 1.0925484305920792 * x, x2 - y2, 5.0 * z2 - 1.0
    out = np.empty((x.shape[0], SH_DIM))
    col = out.T
    mul = np.multiply
    col[0] = 0.28209479177387814
    mul(0.4886025119029199, y, out=col[1])
    mul(0.4886025119029199, z, out=col[2])
    mul(0.4886025119029199, x, out=col[3])
    mul(cx, y, out=col[4])
    mul(1.0925484305920792 * y, z, out=col[5])
    mul(0.31539156525252005, 3.0 * z2 - 1.0, out=col[6])
    mul(cx, z, out=col[7])
    mul(0.5462742152960396, dxy, out=col[8])
    mul(0.5900435899266435 * y, 3.0 * x2 - y2, out=col[9])
    mul(2.890611442640554 * x * y, z, out=col[10])
    mul(0.4570457994644658 * y, z5, out=col[11])
    mul(0.3731763325901154 * z, 5.0 * z2 - 3.0, out=col[12])
    mul(0.4570457994644658 * x, z5, out=col[13])
    mul(1.445305721320277 * z, dxy, out=col[14])
    mul(0.5900435899266435 * x, x2 - 3.0 * y2, out=col[15])
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

#: size of the Fibonacci sphere the keypoints are farthest-point sampled from
KEYPOINT_SPHERE = 512


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
        check_types(self, InvalidSpec)
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
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
        if not 3 <= self.n_keypoints <= KEYPOINT_SPHERE:
            raise InvalidSpec(f"n_keypoints must lie in 3..{KEYPOINT_SPHERE}, "
                              f"got {self.n_keypoints}")
        if self.sigma_descriptor < 0 or self.sigma_label < 0:
            raise InvalidSpec("noise levels must be non-negative")
        if not 0.0 <= self.elevation_limit < np.deg2rad(80.0):
            raise InvalidSpec("elevation limit must stay clear of the poles")
        if not self.azimuth_sigma >= 0:
            raise InvalidSpec("azimuth_sigma must be >= 0")
        if not 0.5 <= self.azimuth_major_weight <= 1.0:
            raise InvalidSpec("primary azimuth mode must carry most mass")
        if self.n_surface_samples < 1000:
            raise InvalidSpec("surface sampling too sparse to rasterize")
        if self.camera_kind == geom.PERSPECTIVE and self.standoff <= 2.0:
            raise InvalidSpec("perspective standoff must clear the surface")
        if self.camera_kind == geom.PERSPECTIVE and not self.focal > 0:
            raise InvalidSpec(f"perspective focal must be > 0, "
                              f"got {self.focal}")


@dataclass
class Frame:
    """One rendered view plus its training-time observations; the spec fixes
    ``camera`` and ``raster``, and ``frame_id`` is the frame's index."""

    frame_id: int
    instance_id: int
    camera: geom.CameraIntrinsics
    raster: geom.Raster
    image: np.ndarray           # (H,W,3)
    mask_dist: np.ndarray       # (H,W) 0 on the silhouette, distance outside
    depth: np.ndarray           # (H,W) camera-frame z, NaN off the silhouette
    pix_rc: np.ndarray          # (N,2) int (row, col) of refined pixels
    pix_y: np.ndarray           # (N,2) exact normalized pixel-center coords
    descriptors: np.ndarray     # (N,F)
    colors: np.ndarray          # (N,3)
    kp_desc: np.ndarray         # (K,F)
    instance_desc: np.ndarray   # (G,)
    labels: losses.NrsfmLabels
    gt_kappa: np.ndarray        # (N,3) refined canonical points
    gt_alpha: np.ndarray
    gt_R: np.ndarray
    gt_t: np.ndarray

    @cached_property
    def integral(self) -> np.ndarray:
        """The (H+1,W+1,3) zero-bordered integral image of ``image``."""
        return tape.integral_image(self.image)


@dataclass
class GroundTruthCategory:
    spec: CategorySpec
    basis_coeffs: np.ndarray      # (16,3,D) SH coefficients per basis column
    albedo_base: np.ndarray       # (16,3)
    albedo_proj: np.ndarray       # (48,T) maps beta to albedo coefficient deltas
    alphas: np.ndarray            # (n_instances, D)
    betas: np.ndarray             # (n_instances, T)
    keypoints: np.ndarray         # (K,3) canonical anchors
    pix_w1: np.ndarray            # (h,3)  pixel descriptor scramble
    pix_w2: np.ndarray            # (F,h)
    inst_w1: np.ndarray           # (h,D+T+6)  instance descriptor scramble
    inst_w2: np.ndarray           # (G,h)
    frames: list

    def basis_at(self, kappa: np.ndarray) -> np.ndarray:
        """Exact (N,3,D) basis: SH field plus the identity first column."""
        B = np.einsum("ns,scd->ncd", sh_basis(kappa), self.basis_coeffs)
        B[:, :, 0] += kappa
        return B

    def shape_coeffs(self, alpha: np.ndarray) -> np.ndarray:
        """(16,3) SH coefficients of the surface of shape coefficients alpha."""
        return np.einsum("scd,d->sc", self.basis_coeffs, alpha)

    def surface_points(self, kappa: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        return _surface(sh_basis(kappa), np.asarray(kappa),
                        self.shape_coeffs(alpha), alpha)

    def albedo_of_sh(self, sh: np.ndarray, instance: int) -> np.ndarray:
        """Canonical RGB albedo field of one instance, (N,3) in [0,1], at
        the canonical points whose SH rows are ``sh``."""
        if self.spec.constant_albedo:
            coeffs = self.albedo_base
        else:
            delta = (self.albedo_proj @ self.betas[instance]).reshape(SH_DIM, 3)
            coeffs = self.albedo_base + 0.25 * delta
        return np.clip(0.5 + sh @ coeffs, 0.02, 0.98)

    def pixel_descriptor(self, kappa, rng) -> np.ndarray:
        d = np.tanh(np.asarray(kappa) @ self.pix_w1.T) @ self.pix_w2.T
        if self.spec.sigma_descriptor > 0:
            d = d + rng.normal(0.0, self.spec.sigma_descriptor, size=d.shape)
        return d

    def instance_descriptor(self, alpha, beta, view6d, rng) -> np.ndarray:
        v = np.concatenate([alpha, beta, view6d])
        d = self.inst_w2 @ np.tanh(self.inst_w1 @ v)
        if self.spec.sigma_descriptor > 0:
            d = d + rng.normal(0.0, self.spec.sigma_descriptor, size=d.shape)
        return d

    def background_color(self) -> np.ndarray:
        if self.spec.background_matches_albedo:
            # instance 0's albedo at the canonical north pole
            return self.albedo_of_sh(sh_basis(np.array([[0.0, 0.0, 1.0]])),
                                     0)[0]
        return np.full(3, 0.08)


def _surface(sh, kappa, coeff, alpha):
    """Surface points of canonical points ``kappa`` (N,3) with SH rows ``sh``,
    given ``coeff``, the :meth:`GroundTruthCategory.shape_coeffs` of
    ``alpha``."""
    return sh @ coeff + alpha[0] * kappa


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


def azimuth_of(R: np.ndarray) -> float:
    """Recover the azimuth as the right-factor twist about world z.

    For R = R_rest @ R_z(theta) with quaternion (w, x, y, z), the entries
    R[1,0] - R[0,1] = 4wz and R[0,0] + R[1,1] = 2(w^2 - z^2) are the parts
    of 2(w + iz)^2, whose argument is theta = 2 atan2(z, w). Degenerate
    when the twist is unconstrained (camera axis antiparallel to world z),
    where w = z = 0.
    """
    R = np.asarray(R, dtype=np.float64)
    s, c = R[1, 0] - R[0, 1], R[0, 0] + R[1, 1]
    if np.hypot(s, c) < 1e-9:  # 2(w^2 + z^2)
        raise GimbalDegenerate("twist about z is unconstrained here")
    return float(np.arctan2(s, c))


def rebalance_weights(azimuths) -> np.ndarray:
    """Inverse-propensity frame weights from a 16-bin azimuth histogram.

    Frames in over-represented azimuth bins are down-weighted so every
    occupied bin carries the same total mass; weights average to 1.
    """
    n_bins = 16
    az = np.mod(np.asarray(azimuths, dtype=np.float64) + np.pi, 2 * np.pi) - np.pi
    bins = np.minimum((az + np.pi) / (2 * np.pi) * n_bins, n_bins - 1).astype(int)
    counts = np.bincount(bins, minlength=n_bins)
    w = 1.0 / counts[bins]
    return w / w.mean()


def make_batches(
    instance_ids,
    weights,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One weighted frame batch whose members show pairwise distinct
    instances.

    The first entry is the min-k target. Frames are drawn by the
    rebalancing weights; a draw landing on an already-used instance is
    rejected.
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
    used = set()
    members = []
    while len(members) < batch_size:
        f = int(rng.choice(len(p), p=p))
        inst = instance_ids[f]
        if inst in used:
            continue
        used.add(inst)
        members.append(f)
    return np.asarray(members)


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
    """3x3 splatted z-buffer. Returns (mask, depth grid, winner sample idx).

    Each sample writes its depth to the 3x3 pixels around its rounded
    centre. Each pixel keeps its nearest entry; among equally near entries,
    the last one, with entries running offset by offset ((-1, -1) first,
    row-major) and samples in order within an offset.

    Each sample is placed once on a grid of centres padded by the splat
    radius, where each centre keeps its nearest depth and, among equal
    depths, its last sample. The splat is then nine shifted comparisons of
    that grid in entry order, a later offset winning ties. This needs
    finite depths: a NaN depth drops its whole centre, not just its own
    entries, and an infinite one may lose its pixels.
    """
    H, W = spec.image_h, spec.image_w
    rows = np.rint(px[:, 1]).astype(int) + 1   # padded-grid coordinates
    cols = np.rint(px[:, 0]).astype(int) + 1
    idx = np.flatnonzero((rows >= 0) & (rows < H + 2)
                         & (cols >= 0) & (cols < W + 2))
    cell = rows[idx] * (W + 2) + cols[idx]
    zc = z[idx]
    near = np.full((H + 2) * (W + 2), np.inf)
    np.minimum.at(near, cell, zc)
    front = zc == near[cell]
    last = np.full((H + 2) * (W + 2), -1)
    np.maximum.at(last, cell[front], idx[front])
    near, last = near.reshape(H + 2, W + 2), last.reshape(H + 2, W + 2)
    depth = np.full((H, W), np.inf)
    winner = np.full((H, W), -1)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            # the centres that reach the pixels through offset (dr, dc)
            src = np.s_[1 - dr:H + 1 - dr, 1 - dc:W + 1 - dc]
            take = near[src] <= depth
            depth = np.where(take, near[src], depth)
            winner = np.where(take, last[src], winner)
    mask = winner >= 0
    depth[~mask] = np.nan
    return mask, depth, winner


#: (row, column, column) entries per block of :func:`_mask_distance`
_EDT_BLOCK = 1 << 17


def _mask_distance(mask: np.ndarray) -> np.ndarray:
    """Euclidean distance of every pixel to the nearest silhouette pixel.

    Exact and separable: each pixel's distance ``g`` to the nearest
    silhouette row of its own column, then the minimum over columns ``c``
    of ``g[:, c]**2 + (j - c)**2`` in integers, in blocks of rows, then one
    square root. The squared distances are exact integers, so the values
    equal scipy's ``distance_transform_edt(~mask)`` bit for bit. ``mask``
    needs at least one silhouette pixel.
    """
    h, w = mask.shape
    rows = np.arange(h)[:, None]
    far = h + w  # a column with no silhouette pixel: beyond any real gap
    above = np.maximum.accumulate(np.where(mask, rows, -far), axis=0)
    below = np.minimum.accumulate(np.where(mask, rows, 2 * far)[::-1],
                                  axis=0)[::-1]
    g2 = np.minimum(rows - above, below - rows) ** 2
    cols = np.arange(w)
    shift2 = (cols[:, None] - cols) ** 2  # [j, c]
    d2 = np.empty((h, w), dtype=g2.dtype)
    step = max(1, _EDT_BLOCK // (w * w))
    for lo in range(0, h, step):
        d2[lo:lo + step] = np.min(g2[lo:lo + step, None, :] + shift2, axis=2)
    return np.sqrt(d2.astype(np.float64))


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


#: residual norm at which :func:`_refine_pixels` calls a pixel converged
REFINE_TOL = 1e-12
#: trust-region steps after which :func:`_refine_pixels` gives a pixel up
REFINE_MAX_ITER = 60


def _refine_pixels(cat, alpha, R, t, cam, kappa0, target_y):
    """Gauss-Newton polish so surface(kappa) reprojects onto pixel centers.

    Works in a fixed 2D tangent chart at each seed; the Jacobian comes from
    central differences (the surface is an analytic SH field, but the chart
    normalization makes closed forms noisier than they are worth: an
    analytic Jacobian changes which pixels converge). A pixel stops at the
    first iterate whose residual is within ``REFINE_TOL``; the rest take up
    to ``REFINE_MAX_ITER`` trust-region steps. Each iteration evaluates the
    residual and its four difference probes of the pixels still active in
    one stacked surface evaluation. Returns (kappa, residual_norm,
    converged_mask).
    """
    kappa0 = np.asarray(kappa0, dtype=np.float64)
    e1, e2 = _tangent_frame(kappa0)
    n = kappa0.shape[0]
    coeff = cat.shape_coeffs(alpha)
    delta = np.empty((n, 2))
    rnorm = np.empty(n)

    # Component-major, so that every elementwise step runs along the pixel
    # axis: a chart holds the active pixels' origins, tangent bases (3,m)
    # and targets (2,m); offsets are (2,m) and probes stack them to (2,P,m).
    # Norms are sums of squares in component order: the same sequential sums
    # np.linalg.norm takes over 2-3 entries, at a fraction of its cost.
    def residual(chart, d):
        """(x, y) residuals (2,P,m) of the chart points at offsets d."""
        k0, u1, u2, target = (a[:, None] for a in chart)
        k = k0 + d[0] * u1 + d[1] * u2
        k = k / np.sqrt(k[0] * k[0] + k[1] * k[1] + k[2] * k[2])
        x, y, z = k.reshape(3, -1)
        pts = _surface(_sh_basis_xyz(x, y, z), np.stack([x, y, z], axis=1),
                       coeff, alpha)
        proj = geom.project(cam, pts @ R.T + t)
        return proj.T.reshape(d.shape) - target

    h = 1e-7
    # the value, then the +-h probes of chart axis 0 and of axis 1
    probes = np.array([[0.0, h, -h, 0.0, 0.0], [0.0, 0.0, 0.0, h, -h]])
    # the active pixels and their chart, compacted whenever some finish
    active = np.arange(n)
    chart = tuple(np.ascontiguousarray(a.T)
                  for a in (kappa0, e1, e2, np.asarray(target_y, np.float64)))
    d = np.zeros((2, n))
    for _ in range(REFINE_MAX_ITER):
        if not len(active):
            break
        res = residual(chart, d[:, None] + probes[:, :, None])
        r = res[:, 0]
        rn = np.sqrt(r[0] * r[0] + r[1] * r[1])
        done = rn <= REFINE_TOL
        if done.any():
            rnorm[active[done]] = rn[done]
            delta[active[done]] = d[:, done].T
            keep = ~done
            active, d, res = active[keep], d[:, keep], res[..., keep]
            chart = tuple(a[:, keep] for a in chart)
            r = res[:, 0]
        # the 2x2 Jacobian's columns: central differences along each axis
        a = (res[:, 1] - res[:, 2]) / (2 * h)
        b = (res[:, 3] - res[:, 4]) / (2 * h)
        det = a[0] * b[1] - b[0] * a[1]
        det = np.where(np.abs(det) < 1e-18, np.nan, det)
        du = (b[1] * r[0] - b[0] * r[1]) / det
        dv = (a[0] * r[1] - a[1] * r[0]) / det
        norm = np.maximum(np.sqrt(du * du + dv * dv), 1e-30)
        step = np.stack([du, dv]) * np.minimum(1.0, 0.2 / norm)  # trust region
        d = d - np.where(np.isfinite(step), step, 0.0)
    r = residual(chart, d[:, None])[:, 0]
    rnorm[active] = np.sqrt(r[0] * r[0] + r[1] * r[1])
    delta[active] = d.T
    ok = np.isfinite(rnorm) & (rnorm <= REFINE_TOL)
    k = kappa0 + delta[:, 0:1] * e1 + delta[:, 1:2] * e2
    return k / np.sqrt(geom.sq_norms(k))[:, None], rnorm, ok


def _render_frame(cat: GroundTruthCategory, instance: int, R, t, dense_kappa,
                  dense_sh):
    spec = cat.spec
    cam = _camera(spec)
    raster = _default_raster(spec)
    alpha = cat.alphas[instance]

    coeff = cat.shape_coeffs(alpha)
    Xc = _surface(dense_sh, dense_kappa, coeff, alpha) @ R.T + t
    px = raster.to_px(geom.project(cam, Xc))
    mask, depth, winner = _zbuffer(spec, px, Xc[:, 2])
    del Xc, px  # the samples' placement; the refinement below needs neither
    if not mask.any():
        raise InvalidSpec(f"instance {instance} renders an empty silhouette: "
                          "the frame has no pixel to fit")

    rows, cols = np.nonzero(mask)
    seeds = winner[rows, cols]
    del winner
    target_y = raster.from_px(np.stack([cols, rows], axis=1).astype(np.float64))
    kappa, _, ok = _refine_pixels(cat, alpha, R, t, cam, dense_kappa[seeds],
                                  target_y)

    image = np.empty((spec.image_h, spec.image_w, 3))
    image[:] = cat.background_color()
    image[rows, cols] = cat.albedo_of_sh(dense_sh[seeds], instance)

    rows, cols, kappa = rows[ok], cols[ok], kappa[ok]
    pix_y = target_y[ok]
    sh = sh_basis(kappa)
    colors = cat.albedo_of_sh(sh, instance)
    image[rows, cols] = colors

    # refined pixels read their own surface depth; the rest keep the splat's
    depth[rows, cols] = (_surface(sh, kappa, coeff, alpha) @ R.T + t)[:, 2]

    return {
        "camera": cam,
        "raster": raster,
        "image": image,
        "mask_dist": _mask_distance(mask),
        "depth": depth,
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
    d = np.full(len(Xk), np.nan)
    d[inside] = render["depth"][rows[inside], cols[inside]]
    return np.isfinite(d) & (Xk[:, 2] <= d + 0.05)


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

    sphere = fibonacci_sphere(KEYPOINT_SPHERE)
    keypoints = sphere[farthest_point_sample(sphere, spec.n_keypoints)]

    hidden, hidden_g = max(3 * F, 32), max(3 * G, 32)
    cat = GroundTruthCategory(
        spec=spec,
        basis_coeffs=basis_coeffs,
        albedo_base=albedo_base,
        albedo_proj=albedo_proj,
        alphas=alphas,
        betas=betas,
        keypoints=keypoints,
        # keyword order is the rng_shape draw order
        pix_w1=rng_shape.standard_normal((hidden, 3)) * 1.2,
        pix_w2=rng_shape.standard_normal((F, hidden)) / np.sqrt(hidden),
        inst_w1=rng_shape.standard_normal((hidden_g, D + T + 6)) * 0.8,
        inst_w2=rng_shape.standard_normal((G, hidden_g)) / np.sqrt(hidden_g),
        frames=[],
    )

    # rescale every instance to unit mean squared radius, so image span,
    # loss knees and metric thresholds mean the same thing in every category
    probe = fibonacci_sphere(4000)
    probe_sh = sh_basis(probe)
    for i in range(spec.n_instances):
        alpha = cat.alphas[i]
        pts = _surface(probe_sh, probe, cat.shape_coeffs(alpha), alpha)
        centered = pts - pts.mean(axis=0)
        cat.alphas[i] /= np.sqrt(np.mean(np.sum(centered**2, axis=1)))
    del probe, probe_sh, pts, centered  # rendering needs none of them

    dense_kappa = fibonacci_sphere(spec.n_surface_samples)
    dense_sh = sh_basis(dense_kappa)

    major = rng_pose.uniform(-np.pi, np.pi)
    t = (
        np.zeros(3)
        if spec.camera_kind == geom.ORTHOGRAPHIC
        else np.array([0.0, 0.0, spec.standoff])
    )

    kp_basis = cat.basis_at(cat.keypoints)
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
                frame_id=len(cat.frames), instance_id=i, **render,
                # keyword order is the rng_noise draw order
                descriptors=cat.pixel_descriptor(render["gt_kappa"], rng_noise),
                kp_desc=cat.pixel_descriptor(cat.keypoints, rng_noise),
                instance_desc=cat.instance_descriptor(
                    cat.alphas[i], cat.betas[i], view6d, rng_noise),
                labels=labels, gt_alpha=cat.alphas[i].copy(), gt_R=R,
                gt_t=t.copy(),
            ))
    return cat


# -- presets --------------------------------------------------------------------


def fixed_point_spec(seed: int) -> CategorySpec:
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


# -- dataset io -----------------------------------------------------------------


#: arrays.npz members, in file order. Category members: the
#: GroundTruthCategory arrays
_CATEGORY_KEYS = tuple(f.name for f in fields(GroundTruthCategory)
                       if f.name not in ("spec", "frames"))
#: Frame fields of one shape in every frame, stacked on a frame axis
_FRAME_KEYS = ("instance_id", "image", "mask_dist", "depth", "kp_desc",
               "instance_desc", "gt_alpha", "gt_R", "gt_t")
#: Frame fields with one row per refined pixel, concatenated in frame order
#: and split at the ``pix_count`` member (rows per frame)
_PIXEL_KEYS = ("pix_rc", "pix_y", "descriptors", "colors", "gt_kappa")
#: ``label_<field>`` per NrsfmLabels field, stacked on a frame axis
_LABEL_KEYS = tuple(f"label_{f.name}" for f in fields(losses.NrsfmLabels))


def save_category(root, cat: GroundTruthCategory) -> list[str]:
    """Write ``cat`` to ``root`` as category.json (the spec), arrays.npz
    (every array) and keypoints.csv; returns those file names."""
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "category.json"), "w") as f:
        json.dump(asdict(cat.spec), f, indent=2, sort_keys=True)
    arrays = {k: getattr(cat, k) for k in _CATEGORY_KEYS}
    for k in _FRAME_KEYS:
        arrays[k] = np.stack([getattr(fr, k) for fr in cat.frames])
    for k in _PIXEL_KEYS:
        arrays[k] = np.concatenate([getattr(fr, k) for fr in cat.frames])
    arrays["pix_count"] = np.array([len(fr.pix_rc) for fr in cat.frames])
    for k in _LABEL_KEYS:
        arrays[k] = np.stack([getattr(fr.labels, k.removeprefix("label_"))
                              for fr in cat.frames])
    np.savez(os.path.join(root, "arrays.npz"), **arrays)
    with open(os.path.join(root, "keypoints.csv"), "w") as f:
        f.write("index,x,y,z\n")
        for i, k in enumerate(cat.keypoints):
            f.write(f"{i},{k[0]:.17g},{k[1]:.17g},{k[2]:.17g}\n")
    return ["arrays.npz", "category.json", "keypoints.csv"]


def _read(path, keys):
    """The JSON object or the .npz members stored at ``path``, which must be
    keyed by exactly ``keys``."""
    try:
        if path.endswith(".json"):
            with open(path) as f:
                out = json.load(f)
        else:
            with np.load(path) as z:
                out = dict(z)
    except (OSError, ValueError, zipfile.BadZipFile) as e:
        raise IoError(f"cannot read {path!r}: {e}") from e
    check_keys(out, keys, path, IoError)
    return out


def load_category(root) -> GroundTruthCategory:
    stored = _read(os.path.join(root, "category.json"),
                   [f.name for f in fields(CategorySpec)])
    try:
        spec = CategorySpec(**stored)
    except InvalidSpec as e:
        raise IoError(f"category.json: {e}") from e
    n = spec.n_instances * spec.frames_per_instance
    z = _read(os.path.join(root, "arrays.npz"), (
        *_CATEGORY_KEYS, *_FRAME_KEYS, *_PIXEL_KEYS, "pix_count", *_LABEL_KEYS))
    rows = dict.fromkeys((*_FRAME_KEYS, "pix_count", *_LABEL_KEYS), n)
    rows.update(dict.fromkeys(_PIXEL_KEYS, z["pix_count"].sum()))
    for k, r in rows.items():
        if z[k].shape[:1] != (r,):
            raise IoError(f"arrays.npz {k}: shape {z[k].shape}, not {r} rows")
    # 1-d members hold one python scalar per frame
    per_frame = {k: z[k].tolist() if z[k].ndim == 1 else z[k]
                 for k in _FRAME_KEYS}
    ends = np.cumsum(z["pix_count"])[:-1]
    per_frame.update({k: np.split(z[k], ends) for k in _PIXEL_KEYS})
    camera, raster = _camera(spec), _default_raster(spec)
    frames = [Frame(frame_id=i, camera=camera, raster=raster,
                    labels=losses.NrsfmLabels(*(z[k][i] for k in _LABEL_KEYS)),
                    **{k: v[i] for k, v in per_frame.items()})
              for i in range(n)]
    return GroundTruthCategory(spec=spec, frames=frames,
                               **{k: z[k] for k in _CATEGORY_KEYS})


#: bytes per read of :func:`hash_file`
_HASH_CHUNK = 1 << 18


def hash_file(h, path) -> None:
    """Feed the file at ``path`` to the hash ``h`` in fixed-size reads into
    one reused buffer, so that no read holds the whole file."""
    buf = bytearray(_HASH_CHUNK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as f:
        while n := f.readinto(buf):
            h.update(view[:n])


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
        hash_file(h, full)
        h.update(b"\0")
    return h.hexdigest()
