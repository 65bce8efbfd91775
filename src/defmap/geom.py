"""Rotations, camera models, and rigid/similarity transforms.

Conventions:
  * rotations are 3x3 right-handed orthonormal matrices acting on column
    vectors; batches of points are stored row-wise, so applying R to a
    (N,3) array is ``X @ R.T``;
  * cameras project into normalized image coordinates with the origin at
    the principal point; rasterization to integer pixel grids is a separate
    affine map owned by the data layer;
  * perspective cameras look down +z: visible points have z > 0 and smaller
    z is closer. Orthographic projection drops the z coordinate.

Functions with a ``_var`` suffix are graph-building twins of the plain
numpy ops and accept :class:`~defmap.tape.Var` operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tape
from .errors import BehindCamera, DegenerateInput, DimMismatch, WrongCameraKind

ORTHOGRAPHIC = "orthographic"
PERSPECTIVE = "perspective"


#: raw 6D rotation parameters (two stacked 3-vectors) of the identity
IDENTITY_6D = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Projection kind plus a full K for the perspective case.

    K is upper-triangular with K[2,2] = 1. Orthographic cameras ignore K
    entirely.
    """

    kind: str
    K: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        if self.kind not in (ORTHOGRAPHIC, PERSPECTIVE):
            raise WrongCameraKind(f"unknown camera kind {self.kind!r}")
        K = np.asarray(self.K, dtype=np.float64)
        if K.shape != (3, 3):
            raise DimMismatch(f"K must be 3x3, got {K.shape}")
        object.__setattr__(self, "K", K)


@dataclass(frozen=True)
class Raster:
    """Affine map from normalized image coordinates to pixel indices.

    column = cx + ppu * x, row = cy + ppu * y (x right, y down). Pixel
    centers sit at integer indices.
    """

    ppu: float
    cx: float
    cy: float

    def to_px(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        return y * self.ppu + np.array([self.cx, self.cy])

    def to_px_var(self, y):
        return tape.as_var(y) * self.ppu + np.array([self.cx, self.cy])

    def from_px(self, px: np.ndarray) -> np.ndarray:
        px = np.asarray(px, dtype=np.float64)
        return (px - np.array([self.cx, self.cy])) / self.ppu


@dataclass(frozen=True)
class SimilarityTransform:
    """x -> scale * R @ x + t."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return self.scale * pts @ self.rotation.T + self.translation


# -- rotation construction ---------------------------------------------------


def rotation_from_6d(raw: np.ndarray) -> np.ndarray:
    """Gram-Schmidt map from a raw 6-vector (a, b) to a rotation matrix.

    Columns: c1 = a/|a|, c2 = normalized (b - (c1.b) c1), c3 = c1 x c2.
    Raises DegenerateInput when a is (near-)zero or b is (near-)collinear
    with a.
    """
    v = np.asarray(raw, dtype=np.float64).reshape(6)
    a, b = v[:3], v[3:]
    na = np.linalg.norm(a)
    if na < 1e-8:
        raise DegenerateInput("6D rotation: first vector has near-zero norm")
    c1 = a / na
    b_perp = b - (c1 @ b) * c1
    nb = np.linalg.norm(b_perp)
    if nb < 1e-8:
        raise DegenerateInput("6D rotation: vectors are near-collinear")
    c2 = b_perp / nb
    c3 = np.cross(c1, c2)
    return np.stack([c1, c2, c3], axis=1)


def rotation_from_6d_var(raw: tape.Var) -> tape.Var:
    """Graph twin of :func:`rotation_from_6d`; validates on the raw values."""
    rotation_from_6d(raw.data)  # degeneracy check outside the graph
    a = raw[slice(0, 3)]
    b = raw[slice(3, 6)]
    c1 = a / tape.sqrt(tape.dot(a, a))
    b_perp = b - tape.dot(c1, b) * c1
    c2 = b_perp / tape.sqrt(tape.dot(b_perp, b_perp))
    c3 = tape.cross3(c1, c2)
    return tape.transpose(tape.stack([c1, c2, c3], axis=0))


def rotation_about(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a (non-zero) axis."""
    u = np.asarray(axis, dtype=np.float64).reshape(3)
    n = np.linalg.norm(u)
    if n < 1e-12:
        raise DegenerateInput("rotation axis has zero norm")
    u = u / n
    K = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def quat_from_matrix(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with w >= 0 for a rotation matrix."""
    R = np.asarray(R, dtype=np.float64)
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s,
             (R[1, 0] - R[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(1.0 + R[i, i] - R[j, j] - R[k, k], 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def rotation_distance_var(R: tape.Var, R_ref: np.ndarray) -> tape.Var:
    prod = tape.mul(R, np.asarray(R_ref, dtype=np.float64))
    return (3.0 - tape.vsum(prod)) * 0.5


# -- projection ---------------------------------------------------------------


def project(cam: CameraIntrinsics, points: np.ndarray) -> np.ndarray:
    """Project camera-frame points (N,3) or (3,) to image coordinates.

    Orthographic drops z (the result is a view of the x, y columns).
    Perspective maps X to (f x/z, f y/z) + principal point and raises
    BehindCamera when any z <= 0.
    """
    X = np.asarray(points, dtype=np.float64)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[1] != 3:
        raise DimMismatch(f"points must be (N,3), got {X.shape}")
    if cam.kind == ORTHOGRAPHIC:
        out = X[:, :2]
    else:
        z = X[:, 2]
        if np.any(z <= 0.0):
            raise BehindCamera("perspective projection of point(s) with z <= 0")
        fx, fy = cam.K[0, 0], cam.K[1, 1]
        cx, cy = cam.K[0, 2], cam.K[1, 2]
        out = np.stack([fx * X[:, 0] / z + cx, fy * X[:, 1] / z + cy], axis=1)
    return out[0] if single else out


def project_var(cam: CameraIntrinsics, X: tape.Var, min_depth: float) -> tape.Var:
    """Graph twin of :func:`project` for (N,3) point batches.

    For perspective cameras z is clamped from below at ``min_depth`` instead
    of raising, which keeps training losses finite while the model still
    places points behind the camera. The clamp also bounds gradients.
    """
    if cam.kind == ORTHOGRAPHIC:
        return X[:, :2]
    z = tape.clip_min(X[:, 2], min_depth)
    fx, fy = cam.K[0, 0], cam.K[1, 1]
    cx, cy = cam.K[0, 2], cam.K[1, 2]
    u = X[:, 0] / z * fx + cx
    v = X[:, 1] / z * fy + cy
    return tape.stack([u, v], axis=1)


def ray_direction(cam: CameraIntrinsics, pixels: np.ndarray) -> np.ndarray:
    """Unit ray directions K^-1 (u, v, 1) for perspective cameras."""
    if cam.kind != PERSPECTIVE:
        raise WrongCameraKind("rays are defined for perspective cameras only")
    y = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
    if y.shape[1] != 2:
        raise DimMismatch(f"pixels must be (N,2), got {y.shape}")
    ones = np.ones((y.shape[0], 1))
    h = np.concatenate([y, ones], axis=1)
    d = np.linalg.solve(cam.K, h.T).T
    d = d / np.linalg.norm(d, axis=1, keepdims=True)
    return d[0] if np.asarray(pixels).ndim == 1 else d

