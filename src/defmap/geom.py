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

    def to_px(self, y):
        """Pixel coordinates of the (...,2) array or Var ``y``, of its kind."""
        return y * self.ppu + np.array([self.cx, self.cy])

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


def sq_norms(x: np.ndarray) -> np.ndarray:
    """``np.sum(x**2, axis=-1)`` of 3-vectors, bit for bit: numpy adds the
    three squares in the same order, but reduces a length-3 axis ~6x
    slower than these two adds."""
    sq = x * x
    return sq[..., 0] + sq[..., 1] + sq[..., 2]


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
    """Graph twin of :func:`rotation_from_6d` for a (...,6) stack of raw
    vectors, giving (...,3,3); validates them all, with the thresholds of
    :func:`rotation_from_6d`, on the norms it divides by."""
    a = raw[..., 0:3]
    b = raw[..., 3:6]

    def unit(v, degenerate):
        norm = tape.sqrt(tape.vsum(v * v, axis=-1, keepdims=True))
        if np.any(norm.data < 1e-8):
            raise DegenerateInput(f"6D rotation: {degenerate}")
        return v / norm

    c1 = unit(a, "first vector has near-zero norm")
    c2 = unit(b - tape.vsum(c1 * b, axis=-1, keepdims=True) * c1,
              "vectors are near-collinear")
    return tape.stack([c1, c2, tape.cross3(c1, c2)])


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
    """(3 - trace(R^T R_ref)) / 2 for (...,3,3) stacks, shape (...)."""
    prod = tape.mul(R, np.asarray(R_ref, dtype=np.float64))
    return (3.0 - tape.vsum(prod, axis=(-2, -1))) * 0.5


# -- projection ---------------------------------------------------------------


def project(cam: CameraIntrinsics, points: np.ndarray) -> np.ndarray:
    """Project camera-frame points (N,3) to image coordinates (N,2).

    Orthographic drops z (the result is a view of the x, y columns).
    Perspective maps X to the first two entries of K X / z and raises
    BehindCamera when any z <= 0.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != 3:
        raise DimMismatch(f"points must be (N,3), got {X.shape}")
    if cam.kind == ORTHOGRAPHIC:
        return X[:, :2]
    z = X[:, 2]
    if np.any(z <= 0.0):
        raise BehindCamera("perspective projection of point(s) with z <= 0")
    (fx, skew, cx), (fy, cy) = cam.K[0], cam.K[1, 1:]
    return np.stack([(fx * X[:, 0] + skew * X[:, 1]) / z + cx,
                     fy * X[:, 1] / z + cy], axis=1)


def project_var(cam: CameraIntrinsics, X: tape.Var, min_depth: float) -> tape.Var:
    """Graph twin of :func:`project` for (...,3) point stacks, giving (...,2).

    For perspective cameras z is clamped from below at ``min_depth`` instead
    of raising, which keeps training losses finite while the model still
    places points behind the camera. The clamp also bounds gradients.
    """
    if cam.kind == ORTHOGRAPHIC:
        return X[..., :2]
    z = tape.clip(X[..., 2], min_depth, np.inf)
    (fx, skew, cx), (fy, cy) = cam.K[0], cam.K[1, 1:]
    x_z, y_z = X[..., 0] / z, X[..., 1] / z
    return tape.stack([x_z * fx + y_z * skew + cx, y_z * fy + cy])


def ray_direction(cam: CameraIntrinsics, pixels: np.ndarray) -> np.ndarray:
    """Unit ray directions K^-1 (u, v, 1), (N,3), for (N,2) perspective
    pixels."""
    if cam.kind != PERSPECTIVE:
        raise WrongCameraKind("rays are defined for perspective cameras only")
    y = np.asarray(pixels, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != 2:
        raise DimMismatch(f"pixels must be (N,2), got {y.shape}")
    h = np.concatenate([y, np.ones((len(y), 1))], axis=1)
    d = np.linalg.solve(cam.K, h.T).T
    return d / np.linalg.norm(d, axis=1, keepdims=True)

