"""Shape-accuracy metrics: normalized point-cloud distance and depth error.

Both metrics are deliberately blind to pose and scale: reconstructions live
in an arbitrary similarity frame, so clouds are variance-normalized and
ICP-aligned before the symmetric Chamfer distance, and depth maps are
mean/variance matched inside the evaluation mask before the absolute error.
ASCII PLY file IO for the evaluated clouds lives here as well.
"""

from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import dataclass

import numpy as np

from . import geom
from .errors import DegenerateCloud, DegenerateDepth, DimMismatch


# Route switch of `_matcher`, so of `nearest_neighbors` and `icp_align`: below
# this many target points they run the exact blocked scan, at or above
# it they build a k-d tree (`cKDTree`, whose import costs ~30 MB resident).
# A measured speed trade-off, set where the two cost the same on ICP's query
# shape: median per-pair time ratio scan / tree of one `icp_align` call on
# n-point variance-normalized clouds (12 pairs each: synthetic surfaces /
# anisotropic Gaussian clouds; each route timed twice per pair, fastest
# kept; Intel Xeon, one BLAS thread, numpy 2.4.6, scipy 1.17.1):
#   n      250        300        350        400        450        500
#   ratio  0.93/0.95  0.94/1.00  0.98/1.07  1.08/1.08  1.12/1.18  1.23/1.27
# and 1.17/1.40 at 600, 1.36/1.43 at 700. The tree route's import raises
# the peak RSS of a process that runs one such call from ~40 to ~70 MB.
TREE_MIN_POINTS = 350

# (query, target) entries per block of the scan: ~1 MB of float64
_SCAN_BLOCK = 1 << 17

ICP_MAX_ITER = 100
ICP_TOL = 1e-9


def _as_cloud(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DimMismatch(f"point cloud must be (N,3), got {pts.shape}")
    if pts.shape[0] == 0:
        raise DegenerateCloud("empty point cloud")
    if not np.isfinite(pts).all():
        raise DegenerateCloud("point cloud has non-finite coordinates")
    return pts


def variance_normalize(points) -> np.ndarray:
    """Center on the centroid and scale to unit mean squared radius."""
    pts = _as_cloud(points)
    centered = pts - pts.mean(axis=0)
    var = float(np.mean(np.sum(centered**2, axis=1)))
    if var < 1e-24:
        raise DegenerateCloud("cloud has (near-)zero variance")
    return centered / np.sqrt(var)


@functools.cache
def octahedral_rotations() -> np.ndarray:
    """The 24 rotations of the cube, signed axis permutations with det +1,
    as one read-only (24,3,3) array built on the first call: every ICP call
    seeds its restarts with them."""
    out = []
    for perm in itertools.permutations(range(3)):
        P = np.eye(3)[list(perm)]
        for signs in itertools.product((1.0, -1.0), repeat=3):
            R = np.diag(signs) @ P
            if np.linalg.det(R) > 0:
                out.append(R)
    rotations = np.stack(out)
    rotations.flags.writeable = False
    return rotations


def _centred(source: np.ndarray):
    """(source - centroid, centroid, mean squared radius) of a source cloud."""
    mu_s = source.mean(axis=0)
    src = source - mu_s
    var_s = float(np.mean(np.sum(src**2, axis=1)))
    if var_s < 1e-24:
        raise DegenerateCloud("source cloud has (near-)zero variance")
    return src, mu_s, var_s


def _umeyama_batch(src: np.ndarray, mu_s: np.ndarray, var_s: float,
                   targets: np.ndarray):
    """Least-squares similarities mapping one source onto K paired targets.

    The source comes as ``_centred`` returns it: centred rows ``src`` (N,3),
    centroid ``mu_s`` and mean squared radius ``var_s``. ``targets`` is
    (K,N,3), row i of each target paired with row i of the source. Standard
    closed form per pairing: SVD of the cross-covariance, with U's last
    column times the sign of det(U Vt), so R stays a proper rotation.
    Returns scales (K,), rotations (K,3,3), translations (K,3).
    """
    n = len(src)
    mu_t = targets.sum(axis=1) / n
    cov = np.swapaxes(targets - mu_t[:, None, :], 1, 2) @ src / n
    U, D, Vt = np.linalg.svd(cov)
    sign = np.sign(np.linalg.det(U @ Vt))
    U[:, :, 2] *= sign[:, None]
    R = U @ Vt
    scale = (D[:, 0] + D[:, 1] + D[:, 2] * sign) / var_s
    trans = mu_t - scale[:, None, None] * R @ mu_s
    return scale, R, trans


def umeyama_similarity(source, target) -> geom.SimilarityTransform:
    """Least-squares similarity (scale, R, t) mapping source onto target."""
    s = _as_cloud(source)
    t = _as_cloud(target)
    if s.shape != t.shape:
        raise DimMismatch("source and target must pair up")
    scale, R, trans = _umeyama_batch(*_centred(s), t[None])
    return geom.SimilarityTransform(scale=float(scale[0]), rotation=R[0],
                                    translation=trans[0])


def __getattr__(name):
    """``cKDTree``, imported from scipy.spatial on first use (PEP 562)."""
    if name != "cKDTree":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.spatial import cKDTree
    globals()["cKDTree"] = cKDTree
    return cKDTree


def _matcher(target: np.ndarray):
    """Nearest-target-index function of one target cloud: a k-d tree at or
    above ``TREE_MIN_POINTS``, else the exact blocked scan. The tree is built
    through the module attribute ``cKDTree``, so a wrapper set on it sees
    every tree.

    The scan returns the same indices as the full scan
    ``argmin(np.sum((q - t)**2))``, lowest on ties, in blocks of
    ``_SCAN_BLOCK`` entries: each block takes the argmin of ``|t|^2 - 2 q.t``
    from one matmul, and every row whose second-best candidate lies within a
    bound far above that expansion's rounding error is decided by the scan's
    own arithmetic instead. Everything that depends on the target alone,
    and the block buffer, is built here once, not once per query.
    """
    if len(target) >= TREE_MIN_POINTS:
        tree = sys.modules[__name__].cKDTree(target)
        return lambda query: tree.query(query)[1]
    # centred on the target, so that the expansion's rounding error, ~1e-15
    # of |q|^2 + max |t|^2, stays small for clouds far from the origin
    center = target.mean(axis=0)
    t = target - center
    tmat = np.vstack([-2.0 * t.T, np.sum(t**2, axis=1)])
    max_t2 = tmat[3].max()
    step = max(1, _SCAN_BLOCK // len(target))
    # one buffer for every block of every query, sized by the first (in ICP
    # the largest) query: a fresh ~1 MB array per block would be mapped and
    # faulted in anew. Rows go into columns 0-2 of ``aug``; its column 3
    # stays 1 and picks up the |t|^2 row of ``tmat``.
    aug = block = np.empty((0, 0))

    def nearest(query: np.ndarray) -> np.ndarray:
        nonlocal aug, block
        if len(block) < min(step, len(query)):
            aug = np.ones((min(step, len(query)), 4))
            block = np.empty((len(aug), len(target)))
        q = query - center
        reach = 1e-9 * (geom.sq_norms(q) + max_t2)
        idx = np.empty(len(query), dtype=np.intp)
        for lo in range(0, len(query), step):
            hi = min(lo + step, len(query))
            aug[:hi - lo, :3] = q[lo:hi]
            s = np.matmul(aug[:hi - lo], tmat, out=block[:hi - lo])
            r = np.arange(hi - lo)
            i = np.argmin(s, axis=1)
            best = s[r, i]
            s[r, i] = np.inf
            second = s[r, np.argmin(s, axis=1)]
            for k in np.flatnonzero(second - best <= reach[lo:hi]):
                i[k] = np.argmin(np.sum((query[lo + k] - target) ** 2,
                                        axis=1))
            idx[lo:hi] = i
        return idx

    return nearest


def nearest_neighbors(target, query) -> tuple[np.ndarray, np.ndarray]:
    """(indices, distances) of each query point's nearest target point.

    Distances are recomputed from the matched points on either route, so
    both give the same values for the same matches.
    """
    target = _as_cloud(target)
    query = _as_cloud(query)
    idx = _matcher(target)(query)
    return idx, np.sqrt(geom.sq_norms(query - target[idx]))


@dataclass(frozen=True)
class AlignResult:
    transform: geom.SimilarityTransform
    residual: float          # mean squared nearest-neighbor distance
    n_iter: int
    converged: bool


def _pca_frame_seeds(source: np.ndarray, target: np.ndarray) -> list[np.ndarray]:
    """Rotations carrying the source principal frame onto the target's.

    Principal axes have an ambiguous sign, so all four proper sign
    combinations are returned. Near-isotropic clouds make these seeds
    uninformative, which is why the octahedral set stays as backstop.
    """

    def frame(pts):
        c = pts - pts.mean(axis=0)
        _, vecs = np.linalg.eigh(c.T @ c)
        if np.linalg.det(vecs) < 0:
            vecs = vecs * np.array([1.0, 1.0, -1.0])
        return vecs

    V_s, V_t = frame(source), frame(target)
    signs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    return [V_t @ np.diag(np.asarray(s, dtype=np.float64)) @ V_s.T
            for s in signs]


def icp_align(source, target) -> AlignResult:
    """Best similarity alignment over PCA-frame and octahedral restarts.

    Each restart seeds the similarity with one candidate rotation (the four
    principal-frame alignments first, then the 24 cube rotations) plus the
    centroid/scale match, alternates nearest-neighbor matching with the
    closed-form similarity fit, and stops when the mean squared residual
    improves by less than the tolerance.

    The restarts run in lockstep: each round matches the moved clouds of
    every still-active restart at once, on one nearest-neighbour route of
    the target (see ``TREE_MIN_POINTS``), and refits them with one batched
    SVD from the matched points it gathered. The target's route (its k-d
    tree, or its centred scan matrix and block buffer) is built once per
    call, and so is the centred source. Distances are recomputed from the
    matched points, so each restart's rounds equal those of a restart run
    on its own. Walking the restarts in seed order, the first with the
    lowest final residual wins, and a numerically perfect fit ends the walk.
    """
    source = _as_cloud(source)
    target = _as_cloud(target)
    n = len(source)
    src, mu_s, var_s = _centred(source)
    mu_t = target.mean(axis=0)
    var_t = float(np.mean(np.sum((target - mu_t) ** 2, axis=1)))
    # per-restart state: scales (K,), rotations (K,3,3), translations (K,3)
    rot = np.concatenate([np.stack(_pca_frame_seeds(source, target)),
                          octahedral_rotations()])
    k = len(rot)
    scale0 = np.sqrt(var_t / var_s)
    scale = np.full(k, scale0)
    trans = mu_t - scale0 * rot @ mu_s

    match = _matcher(target)

    def residuals(active):
        """Matched target points and mean squared distances of restarts."""
        moved = (scale[active, None, None] * source
                 @ np.swapaxes(rot[active], 1, 2) + trans[active, None, :])
        matched = np.take(target, match(moved.reshape(-1, 3)),
                          axis=0).reshape(moved.shape)
        dist = np.sqrt(geom.sq_norms(moved - matched))
        return matched, np.sum(dist**2, axis=1) / n

    residual = np.full(k, np.inf)
    n_iter = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    active = np.arange(k)
    for it in range(1, ICP_MAX_ITER + 1):
        matched, res = residuals(active)
        n_iter[active] = it
        done = residual[active] - res < ICP_TOL
        converged[active[done]] = True
        residual[active] = res
        matched, active = matched[~done], active[~done]
        if not len(active):
            break
        scale[active], rot[active], trans[active] = _umeyama_batch(
            src, mu_s, var_s, matched)
    if len(active):  # stopped at ICP_MAX_ITER: score the last refit
        residual[active] = residuals(active)[1]

    best = 0
    for i in range(k):
        if residual[i] < residual[best]:
            best = i
        if residual[best] < 1e-15:
            break
    T = geom.SimilarityTransform(scale=float(scale[best]), rotation=rot[best],
                                 translation=trans[best])
    return AlignResult(transform=T, residual=float(residual[best]),
                       n_iter=int(n_iter[best]),
                       converged=bool(converged[best]))


def chamfer_symmetric(a, b) -> float:
    """Mean nearest-neighbor distance, averaged over both directions."""
    a = _as_cloud(a)
    b = _as_cloud(b)
    _, d_ab = nearest_neighbors(b, a)
    _, d_ba = nearest_neighbors(a, b)
    return 0.5 * (float(d_ab.mean()) + float(d_ba.mean()))


def point_cloud_distance(pred, gt) -> float:
    """Similarity-invariant shape distance between two clouds.

    Both clouds are variance-normalized, the prediction is ICP-aligned onto
    the ground truth, and the symmetric Chamfer distance of the aligned
    pair is returned. Identical shapes give ~0 regardless of their
    original pose or scale.
    """
    p = variance_normalize(pred)
    g = variance_normalize(gt)
    res = icp_align(p, g)
    return chamfer_symmetric(res.transform.apply(p), g)


def depth_error(pred_depth, gt_depth) -> float:
    """Mean absolute depth difference after mean/variance matching.

    Both arguments hold one depth per evaluated pixel; the prediction is
    affinely rescaled to the ground truth's mean and variance, which
    removes the reconstruction's arbitrary depth offset and scale.
    """
    p = np.asarray(pred_depth, dtype=np.float64)
    g = np.asarray(gt_depth, dtype=np.float64)
    if p.shape != g.shape:
        raise DimMismatch("predicted and true depths must share one shape")
    if p.size == 0:
        raise DegenerateDepth("no pixels to evaluate")
    if not (np.isfinite(p).all() and np.isfinite(g).all()):
        raise DegenerateDepth("non-finite depth")
    p_std = float(p.std())
    g_std = float(g.std())
    if p_std < 1e-24 or g_std < 1e-24:
        raise DegenerateDepth("constant depth")
    p_matched = (p - p.mean()) / p_std * g_std + g.mean()
    return float(np.mean(np.abs(p_matched - g)))


# -- file formats --------------------------------------------------------------


def save_ply(path, points) -> None:
    """ASCII PLY cloud of (N,3) points."""
    pts = _as_cloud(points)
    header = ["ply", "format ascii 1.0", f"element vertex {pts.shape[0]}",
              "property double x", "property double y", "property double z",
              "end_header"]
    with open(path, "w") as f:
        f.write("\n".join(header) + "\n")
        for x, y, z in pts:
            f.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
