"""Metric contracts: similarity invariance, oracles, file roundtrips."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from defmap import geom, metrics
from defmap.errors import DegenerateCloud, DegenerateDepth, DimMismatch


def load_ply(path) -> np.ndarray:
    """Read the (N,3) points of a cloud written by ``metrics.save_ply``."""
    with open(path) as f:
        if f.readline().strip() != "ply":
            raise DimMismatch("not a PLY file")
        n = None
        for line in f:
            token = line.strip()
            if token.startswith("element vertex"):
                n = int(token.split()[-1])
            elif token == "end_header":
                break
        if n is None:
            raise DimMismatch("PLY header missing vertex count")
        rows = np.loadtxt(f, dtype=np.float64, ndmin=2, max_rows=n)
    if rows.shape[0] != n:
        raise DimMismatch("PLY payload truncated")
    return rows[:, :3]


def random_similarity(rng, scale_range=(0.3, 3.0)):
    return geom.SimilarityTransform(
        scale=float(rng.uniform(*scale_range)),
        rotation=geom.rotation_from_6d(rng.standard_normal(6)),
        translation=rng.standard_normal(3) * 5,
    )


class TestVarianceNormalize:
    def test_centroid_and_radius(self):
        rng = np.random.default_rng(0)
        out = metrics.variance_normalize(rng.standard_normal((100, 3)) * 4 + 7)
        np.testing.assert_allclose(out.mean(axis=0), 0, atol=1e-12)
        assert np.mean(np.sum(out**2, axis=1)) == pytest.approx(1.0, rel=1e-12)

    def test_similarity_reduces_to_pure_rotation(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((60, 3))
        T = random_similarity(rng)
        np.testing.assert_allclose(
            metrics.variance_normalize(T.apply(x)),
            metrics.variance_normalize(x) @ T.rotation.T,
            atol=1e-12,
        )

    def test_degenerate(self):
        with pytest.raises(DegenerateCloud):
            metrics.variance_normalize(np.ones((5, 3)))
        with pytest.raises(DegenerateCloud):
            metrics.variance_normalize(np.zeros((0, 3)))
        for bad in (np.nan, np.inf):
            cloud = np.random.default_rng(3).standard_normal((5, 3))
            cloud[2, 1] = bad
            with pytest.raises(DegenerateCloud):
                metrics.variance_normalize(cloud)
            with pytest.raises(DegenerateCloud):
                metrics.point_cloud_distance(cloud, np.abs(cloud) + 1.0)


class TestOctahedralRotations:
    def test_group_of_24(self):
        mats = metrics.octahedral_rotations()
        assert len(mats) == 24
        keys = set()
        for R in mats:
            np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0)
            keys.add(tuple(np.rint(R.ravel()).astype(int)))
        assert len(keys) == 24  # pairwise distinct

    def test_the_shared_set_cannot_be_changed(self):
        mats = metrics.octahedral_rotations()
        for R in (mats, mats[0]):
            with pytest.raises(ValueError):
                R[0, 0] = 5.0
        assert metrics.octahedral_rotations() is mats

    def test_closed_under_composition(self):
        mats = metrics.octahedral_rotations()
        keys = {tuple(np.rint(R.ravel()).astype(int)) for R in mats}
        for A in mats[:6]:
            for B in mats:
                assert tuple(np.rint((A @ B).ravel()).astype(int)) in keys


class TestUmeyama:
    def test_exact_recovery(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal((30, 3))
            T = random_similarity(rng)
            got = metrics.umeyama_similarity(x, T.apply(x))
            assert got.scale == pytest.approx(T.scale, rel=1e-9)
            np.testing.assert_allclose(got.rotation, T.rotation, atol=1e-9)
            np.testing.assert_allclose(got.translation, T.translation, atol=1e-8)

    def test_reflection_guard(self):
        # mirrored target: best proper rotation is still returned, det +1
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 3))
        y = x * np.array([1.0, 1.0, -1.0])
        got = metrics.umeyama_similarity(x, y)
        assert np.linalg.det(got.rotation) == pytest.approx(1.0)

    def test_degenerate_source(self):
        with pytest.raises(DegenerateCloud):
            metrics.umeyama_similarity(np.ones((4, 3)), np.eye(4, 3))


class TestNearestNeighbors:
    def _oracle(self, target, query):
        d = cdist(query, target)
        idx = np.argmin(d, axis=1)
        return idx, d[np.arange(len(query)), idx]

    def test_brute_route_matches_oracle(self):
        rng = np.random.default_rng(4)
        target = rng.standard_normal((150, 3))  # below the tree threshold
        query = rng.standard_normal((40, 3))
        idx, dist = metrics.nearest_neighbors(target, query)
        oi, od = self._oracle(target, query)
        np.testing.assert_array_equal(idx, oi)
        np.testing.assert_allclose(dist, od, atol=1e-12)

    def test_tree_route_matches_oracle(self):
        rng = np.random.default_rng(5)
        target = rng.standard_normal((metrics.TREE_MIN_POINTS + 100, 3))
        query = rng.standard_normal((40, 3))
        idx, dist = metrics.nearest_neighbors(target, query)
        oi, od = self._oracle(target, query)
        np.testing.assert_array_equal(idx, oi)
        np.testing.assert_allclose(dist, od, atol=1e-12)


def scan_nearest(target, query):
    """The full (M,P,3) brute-force scan: nearest indices, lowest on ties,
    and their distances."""
    d2 = np.sum((query[:, None, :] - target[None, :, :]) ** 2, axis=2)
    idx = np.argmin(d2, axis=1)
    return idx, np.sqrt(d2[np.arange(len(query)), idx])


def assert_equals_scan(target, query):
    idx, dist = metrics.nearest_neighbors(target, query)
    want_idx, want_dist = scan_nearest(target, query)
    np.testing.assert_array_equal(idx, want_idx)
    assert dist.tobytes() == want_dist.tobytes()


class TestSmallCloudKernel:
    """Below ``TREE_MIN_POINTS`` the blocked kernel equals the full scan."""

    @pytest.mark.parametrize("block", [metrics._SCAN_BLOCK, 64, 1])
    def test_equals_scan(self, monkeypatch, block):
        monkeypatch.setattr(metrics, "_SCAN_BLOCK", block)
        rng = np.random.default_rng(40)
        for trial in range(40):
            n, m = rng.integers(1, 250), rng.integers(1, 700)
            scale = rng.uniform(1e-3, 1e3)
            target = rng.standard_normal((n, 3)) * scale
            query = rng.standard_normal((m, 3)) * scale
            if trial % 4 == 0:    # far from the origin
                target += 1e5 * scale
                query += 1e5 * scale
            assert_equals_scan(target, query)

    def test_duplicate_targets_take_the_lowest_index(self):
        rng = np.random.default_rng(41)
        base = rng.standard_normal((60, 3))
        target = np.concatenate([base, base[::-1], base[:7]])
        query = np.concatenate([base + 1e-9 * rng.standard_normal((60, 3)),
                                rng.standard_normal((200, 3))])
        assert_equals_scan(target, query)
        idx, dist = metrics.nearest_neighbors(target, base)
        np.testing.assert_array_equal(idx, np.arange(60))
        assert not dist.any()

    def test_exact_ties_take_the_lowest_index(self):
        # lattice points: every query is at exactly equal squared distance
        # (integers, exact in floating point) from several targets
        grid = np.stack(np.meshgrid(*[np.arange(-3.0, 4.0)] * 3,
                                    indexing="ij"), axis=-1).reshape(-1, 3)
        target = grid[np.random.default_rng(42).permutation(len(grid))][:200]
        query = np.concatenate([grid + 0.5, grid + [0.5, 0.0, 0.0]])
        assert_equals_scan(target, query)
        t = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                      [1.0, -1.0, 0.0]])
        idx, dist = metrics.nearest_neighbors(t, [[1.0, 0.0, 0.0]])
        assert idx.tolist() == [0] and dist.tolist() == [1.0]

    def test_near_ties_below_the_expansions_resolution(self):
        # a wide target cloud centred on the origin: near its rim
        # |t|^2 - 2 q.t rounds targets 0 and 1 to one value, and the
        # scan's arithmetic still finds target 1 nearer
        y = 1.0 + 2.0**-30
        t = np.array([[1e4, y, 0.0], [1e4 + 1.0, 0.0, 0.0],
                      [-1e4, -y, 0.0], [-1e4 - 1.0, 0.0, 0.0]])
        q = np.array([[1e4, 0.0, 0.0]])
        assert not t.mean(axis=0).any()
        expansion = np.sum(t**2, axis=1) - 2.0 * (q @ t.T)[0]
        assert expansion[0] == expansion[1]
        idx, dist = metrics.nearest_neighbors(t, q)
        assert idx.tolist() == [1] and dist.tolist() == [1.0]

    def test_allocates_about_one_block(self):
        # one ICP round's shape: 28 restarts x 255 points on 255 targets;
        # the (M,P,3) scan would take ~44 MB
        n = 255
        assert n < metrics.TREE_MIN_POINTS
        rng = np.random.default_rng(43)
        target = rng.standard_normal((n, 3))
        query = rng.standard_normal((28 * n, 3))
        tracemalloc.start()
        try:
            metrics.nearest_neighbors(target, query)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_routes_give_identical_chamfer(self, monkeypatch):
        rng = np.random.default_rng(44)
        for _ in range(10):
            a = rng.standard_normal((int(rng.integers(5, 501)), 3))
            b = rng.standard_normal((int(rng.integers(5, 501)), 3))
            values = []
            for cutoff in (0, 10**9):   # every cloud on the tree, then none
                monkeypatch.setattr(metrics, "TREE_MIN_POINTS", cutoff)
                values.append(metrics.chamfer_symmetric(a, b))
            assert values[0] == values[1]


class TestChamfer:
    def test_hand_computed_example(self):
        a = np.array([[0.0, 0, 0]])
        b = np.array([[1.0, 0, 0], [3.0, 0, 0]])
        # a->b: 1; b->a: (1 + 3)/2 = 2; symmetric: 1.5
        assert metrics.chamfer_symmetric(a, b) == pytest.approx(1.5)

    def test_identical_clouds_zero(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((80, 3))
        assert metrics.chamfer_symmetric(x, x) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((50, 3)), rng.standard_normal((70, 3))
        assert metrics.chamfer_symmetric(a, b) == pytest.approx(
            metrics.chamfer_symmetric(b, a), rel=1e-12
        )


class TestIcpAlign:
    def test_recovers_adversarial_similarity(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((200, 3)) * np.array([2.0, 1.0, 0.5])
        T = geom.SimilarityTransform(
            scale=3.0,
            rotation=geom.rotation_about(np.array([0.0, 0, 1]), np.pi),
            translation=np.array([5.0, -2.0, 1.0]),
        )
        res = metrics.icp_align(x, T.apply(x))
        assert res.residual < 1e-18
        assert res.converged

    def test_converges_quickly_from_good_start(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((120, 3))
        res = metrics.icp_align(x, x)
        assert res.converged
        assert res.n_iter < metrics.ICP_MAX_ITER

    def test_result_never_worse_than_seed_fit(self):
        rng = np.random.default_rng(10)
        source = rng.standard_normal((90, 3))
        target = rng.standard_normal((110, 3))
        res = metrics.icp_align(source, target)
        # seed transform for the identity restart: centroid/scale match
        mu_s, mu_t = source.mean(0), target.mean(0)
        s0 = np.sqrt(np.mean(np.sum((target - mu_t) ** 2, 1))
                     / np.mean(np.sum((source - mu_s) ** 2, 1)))
        seed = geom.SimilarityTransform(s0, np.eye(3), mu_t - s0 * mu_s)
        _, d0 = metrics.nearest_neighbors(target, seed.apply(source))
        assert res.residual <= np.mean(d0**2) + 1e-12


def reference_similarity(source, target) -> geom.SimilarityTransform:
    """Umeyama's closed form, written out apart from ``metrics``: SVD of the
    cross-covariance, S = diag(1, 1, sign det(U Vt)), R = U S Vt and scale
    trace(D S) / var(source)."""
    mu_s, mu_t = source.mean(axis=0), target.mean(axis=0)
    src = source - mu_s
    var_s = np.mean(np.sum(src**2, axis=1))
    cov = (target - mu_t).T @ src / len(source)
    U, D, Vt = np.linalg.svd(cov)
    S = np.diag([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))])
    R = U @ S @ Vt
    scale = float(np.trace(np.diag(D) @ S) / var_s)
    return geom.SimilarityTransform(scale, R, mu_t - scale * R @ mu_s)


def reference_restarts(source, target) -> list:
    """Every restart of the per-restart ICP loop, on a brute-force oracle.

    This is the sequential loop that ``icp_align`` runs in lockstep: each
    restart matches with an exhaustive ``cdist`` scan and refits with
    ``reference_similarity``, one restart after the other.
    """
    def match(moved):
        idx = np.argmin(cdist(moved, target), axis=1)
        dist = np.sqrt(np.sum((moved - target[idx]) ** 2, axis=-1))
        return idx, float(np.mean(dist**2))

    mu_s, mu_t = source.mean(axis=0), target.mean(axis=0)
    var_s = float(np.mean(np.sum((source - mu_s) ** 2, axis=1)))
    var_t = float(np.mean(np.sum((target - mu_t) ** 2, axis=1)))
    scale0 = np.sqrt(var_t / var_s)
    out = []
    for R0 in [*metrics._pca_frame_seeds(source, target),
               *metrics.octahedral_rotations()]:
        T = geom.SimilarityTransform(scale0, R0, mu_t - scale0 * R0 @ mu_s)
        prev, converged = np.inf, False
        for n_iter in range(1, metrics.ICP_MAX_ITER + 1):
            idx, residual = match(T.apply(source))
            if prev - residual < metrics.ICP_TOL:
                converged = True
                break
            prev = residual
            T = reference_similarity(source, target[idx])
        out.append(metrics.AlignResult(T, match(T.apply(source))[1], n_iter,
                                       converged))
    return out


def reference_select(restarts):
    """Seed order, strictly lower residual wins, stop below 1e-15."""
    best = restarts[0]
    for res in restarts:
        if res.residual < best.residual:
            best = res
        if best.residual < 1e-15:
            break
    return best


def assert_same_result(got, want):
    assert repr(got.residual) == repr(want.residual)
    assert repr(got.transform.scale) == repr(want.transform.scale)
    np.testing.assert_array_equal(got.transform.rotation,
                                  want.transform.rotation)
    np.testing.assert_array_equal(got.transform.translation,
                                  want.transform.translation)
    assert (got.n_iter, got.converged) == (want.n_iter, want.converged)


def mirrored_pair(seed):
    """Source and target clouds, each symmetric under a half turn about z."""
    rng = np.random.default_rng(seed)
    halves = [rng.standard_normal((n, 3)) * [2.0, 1.0, 0.5] for n in (6, 7)]
    return [np.concatenate([h, h * [-1.0, -1.0, 1.0]]) for h in halves]


def lockstep_pair(case):
    """Source and target of one ``test_equals_sequential_reference`` case:
    anisotropic Gaussian clouds of 40-120 points for a seed, two
    variance-normalized 100-point clouds (eval's shape) for ``"eval"``, and
    a target one point below ``TREE_MIN_POINTS`` for ``"widest_scan"``."""
    rng = np.random.default_rng(27 if isinstance(case, str) else case)
    sizes = {"eval": (100, 100),
             "widest_scan": (60, metrics.TREE_MIN_POINTS - 1)}
    n_s, n_t = sizes.get(case, rng.integers(40, 120, size=2))
    source = rng.standard_normal((n_s, 3)) * rng.uniform(0.3, 2.0, 3)
    target = rng.standard_normal((n_t, 3)) * rng.uniform(0.3, 2.0, 3)
    if case == "eval":
        source, target = map(metrics.variance_normalize, (source, target))
    return source, target


class TestIcpLockstep:
    @pytest.mark.parametrize("case", [21, 22, 23, 24, "eval", "widest_scan"])
    def test_equals_sequential_reference(self, monkeypatch, case):
        source, target = lockstep_pair(case)
        want = reference_select(reference_restarts(source, target))
        # the scan built once per call still blocks and falls back exactly
        for block in (metrics._SCAN_BLOCK, 64, 1):
            monkeypatch.setattr(metrics, "_SCAN_BLOCK", block)
            assert_same_result(metrics.icp_align(source, target), want)

    def test_iteration_cap_without_convergence(self, monkeypatch):
        monkeypatch.setattr(metrics, "ICP_MAX_ITER", 3)
        source, target = mirrored_pair(30)
        want = reference_select(reference_restarts(source, target))
        assert (want.n_iter, want.converged) == (3, False)
        assert_same_result(metrics.icp_align(source, target), want)

    def test_exact_fit_stops_at_first_perfect_restart(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 3)) * [2.0, 1.0, 0.5]
        T = geom.SimilarityTransform(
            1.7, geom.rotation_from_6d(rng.standard_normal(6)),
            rng.standard_normal(3))
        restarts = reference_restarts(x, T.apply(x))
        residuals = [r.residual for r in restarts]
        first = next(i for i, r in enumerate(residuals) if r < 1e-15)
        # a later restart fits even better, yet the walk has stopped
        assert min(residuals) < residuals[first]
        assert_same_result(metrics.icp_align(x, T.apply(x)), restarts[first])

    def test_tied_residuals_earliest_restart_wins(self):
        source, target = mirrored_pair(0)
        restarts = reference_restarts(source, target)
        best = min(r.residual for r in restarts)
        tied = [r for r in restarts if r.residual == best]
        assert len(tied) > 1 and best > 1e-15
        assert not np.array_equal(tied[0].transform.rotation,
                                  tied[1].transform.rotation)
        assert_same_result(metrics.icp_align(source, target), tied[0])

    @staticmethod
    def count_trees(monkeypatch):
        built = []

        def counting_tree(points):
            built.append(len(points))
            return cKDTree(points)

        monkeypatch.setattr(metrics, "cKDTree", counting_tree)
        return built

    def test_one_tree_per_call(self, monkeypatch):
        built = self.count_trees(monkeypatch)
        n = metrics.TREE_MIN_POINTS
        rng = np.random.default_rng(25)
        metrics.icp_align(rng.standard_normal((n - 10, 3)),
                          rng.standard_normal((n, 3)))
        assert built == [n]

    def test_small_clouds_build_no_tree(self, monkeypatch):
        built = self.count_trees(monkeypatch)
        n = metrics.TREE_MIN_POINTS - 1
        rng = np.random.default_rng(26)
        metrics.icp_align(rng.standard_normal((n + 10, 3)),
                          rng.standard_normal((n, 3)))
        assert built == []

    def test_allocates_about_one_block(self):
        # 28 restarts x 499 points on the widest target the scan serves: a
        # block buffer for all restarts' rows would take ~55 MB
        n = metrics.TREE_MIN_POINTS - 1
        rng = np.random.default_rng(29)
        source = rng.standard_normal((n, 3)) * [2.0, 1.0, 0.5]
        target = rng.standard_normal((n, 3))
        tracemalloc.start()
        try:
            metrics.icp_align(source, target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one ~1 MB block, plus the restarts' moved and matched clouds and
        # the query's coordinates, each 28 x 499 x 3 float64 (~0.34 MB)
        assert peak < 4e6

    def test_degenerate_source(self):
        with pytest.raises(DegenerateCloud):
            metrics.icp_align(np.ones((5, 3)), np.eye(3))


class TestPointCloudDistance:
    def test_similarity_invariance(self):
        rng = np.random.default_rng(11)
        base = rng.standard_normal((200, 3)) * np.array([1.5, 1.0, 0.6])
        for _ in range(10):
            T = random_similarity(rng)
            assert metrics.point_cloud_distance(T.apply(base), base) < 1e-6

    def test_separates_different_shapes(self):
        rng = np.random.default_rng(12)
        sphere = rng.standard_normal((300, 3))
        sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
        ellipsoid = sphere * np.array([3.0, 1.0, 1.0])
        assert metrics.point_cloud_distance(ellipsoid, sphere) > 0.05

    def test_zero_on_self(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((150, 3))
        assert metrics.point_cloud_distance(x, x) < 1e-12


class TestDepthError:
    def _oracle(self, p, g):
        a = g.std() / p.std()
        b = g.mean() - a * p.mean()
        return np.abs(a * p + b - g).mean()

    def test_matches_independent_two_pass(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            pred = rng.standard_normal((20, 30))
            gt = rng.standard_normal((20, 30))
            mask = rng.random((20, 30)) < 0.6
            got = metrics.depth_error(pred[mask], gt[mask])
            assert got == pytest.approx(self._oracle(pred[mask], gt[mask]),
                                        rel=1e-12)

    def test_affine_invariance_of_prediction(self):
        rng = np.random.default_rng(15)
        pred = rng.standard_normal(256)
        gt = rng.standard_normal(256)
        base = metrics.depth_error(pred, gt)
        assert metrics.depth_error(3.7 * pred - 11.0, gt) == pytest.approx(
            base, rel=1e-9
        )

    def test_mismatched_lengths_raise(self):
        varying = np.arange(16.0)
        with pytest.raises(DimMismatch):
            metrics.depth_error(varying, varying[:-1])

    def test_perfect_depth_zero(self):
        rng = np.random.default_rng(17)
        gt = rng.standard_normal(100)
        assert metrics.depth_error(0.5 * gt + 2, gt) < 1e-12

    def test_degenerate(self):
        flat = np.ones(16)
        varying = np.arange(16.0)
        with pytest.raises(DegenerateDepth):
            metrics.depth_error(varying[:0], varying[:0])
        with pytest.raises(DegenerateDepth):
            metrics.depth_error(flat, varying)
        for bad in (np.nan, -np.inf):
            broken = varying.copy()
            broken[6] = bad
            for pred, gt in ((broken, varying), (varying, broken)):
                with pytest.raises(DegenerateDepth):
                    metrics.depth_error(pred, gt)


class TestPlyIO:
    def test_roundtrip_plain(self, tmp_path):
        rng = np.random.default_rng(18)
        pts = rng.standard_normal((25, 3))
        p = tmp_path / "c.ply"
        metrics.save_ply(p, pts)
        np.testing.assert_allclose(load_ply(p), pts, atol=0)

    def test_rejects_non_ply(self, tmp_path):
        p = tmp_path / "x.ply"
        p.write_text("off\n3\n")
        with pytest.raises(DimMismatch):
            load_ply(p)
