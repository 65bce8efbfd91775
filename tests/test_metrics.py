"""Metric contracts: similarity invariance, oracles, file roundtrips."""

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from defmap import geom, metrics
from defmap.errors import DegenerateCloud, DegenerateDepth, DimMismatch


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


def reference_restarts(source, target) -> list:
    """Every restart of the per-restart ICP loop, on a brute-force oracle.

    This is the sequential loop that ``icp_align`` runs in lockstep: each
    restart matches with an exhaustive ``cdist`` scan and refits with
    ``umeyama_similarity``, one restart after the other.
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
    for R0 in (metrics._pca_frame_seeds(source, target)
               + metrics.octahedral_rotations()):
        T = geom.SimilarityTransform(scale0, R0, mu_t - scale0 * R0 @ mu_s)
        prev, converged = np.inf, False
        for n_iter in range(1, metrics.ICP_MAX_ITER + 1):
            idx, residual = match(T.apply(source))
            if prev - residual < metrics.ICP_TOL:
                converged = True
                break
            prev = residual
            T = metrics.umeyama_similarity(source, target[idx])
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


class TestIcpLockstep:
    @pytest.mark.parametrize("seed", [21, 22, 23, 24])
    def test_equals_sequential_reference(self, seed):
        rng = np.random.default_rng(seed)
        n_s, n_t = rng.integers(40, 120, size=2)
        source = rng.standard_normal((n_s, 3)) * rng.uniform(0.3, 2.0, 3)
        target = rng.standard_normal((n_t, 3)) * rng.uniform(0.3, 2.0, 3)
        assert_same_result(metrics.icp_align(source, target),
                           reference_select(reference_restarts(source,
                                                               target)))

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

    def test_one_tree_per_call(self, monkeypatch):
        built = []

        def counting_tree(points):
            built.append(len(points))
            return cKDTree(points)

        monkeypatch.setattr(metrics, "cKDTree", counting_tree)
        rng = np.random.default_rng(25)
        metrics.icp_align(rng.standard_normal((80, 3)),
                          rng.standard_normal((90, 3)))
        assert built == [90]

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
    def _oracle(self, pred, gt, mask):
        p, g = pred[mask], gt[mask]
        a = g.std() / p.std()
        b = g.mean() - a * p.mean()
        return np.abs(a * p + b - g).mean()

    def test_matches_independent_two_pass(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            pred = rng.standard_normal((20, 30))
            gt = rng.standard_normal((20, 30))
            mask = rng.random((20, 30)) < 0.6
            got = metrics.depth_error(pred, gt, mask)
            assert got == pytest.approx(self._oracle(pred, gt, mask), rel=1e-12)

    def test_affine_invariance_of_prediction(self):
        rng = np.random.default_rng(15)
        pred = rng.standard_normal((16, 16))
        gt = rng.standard_normal((16, 16))
        mask = np.ones((16, 16), bool)
        base = metrics.depth_error(pred, gt, mask)
        assert metrics.depth_error(3.7 * pred - 11.0, gt, mask) == pytest.approx(
            base, rel=1e-9
        )

    def test_outside_mask_ignored(self):
        rng = np.random.default_rng(16)
        pred = rng.standard_normal((12, 12))
        gt = rng.standard_normal((12, 12))
        mask = np.zeros((12, 12), bool)
        mask[3:9, 3:9] = True
        base = metrics.depth_error(pred, gt, mask)
        pred2 = pred.copy()
        pred2[~mask] = 1e6
        assert metrics.depth_error(pred2, gt, mask) == base

    def test_perfect_depth_zero(self):
        rng = np.random.default_rng(17)
        gt = rng.standard_normal((10, 10))
        mask = np.ones((10, 10), bool)
        assert metrics.depth_error(0.5 * gt + 2, gt, mask) < 1e-12

    def test_degenerate(self):
        flat = np.ones((4, 4))
        varying = np.arange(16.0).reshape(4, 4)
        with pytest.raises(DegenerateDepth):
            metrics.depth_error(varying, varying, np.zeros((4, 4), bool))
        with pytest.raises(DegenerateDepth):
            metrics.depth_error(flat, varying, np.ones((4, 4), bool))


class TestPlyIO:
    def test_roundtrip_plain(self, tmp_path):
        rng = np.random.default_rng(18)
        pts = rng.standard_normal((25, 3))
        p = tmp_path / "c.ply"
        metrics.save_ply(p, pts)
        got, colors = metrics.load_ply(p)
        np.testing.assert_allclose(got, pts, atol=0)
        assert colors is None

    def test_roundtrip_colors(self, tmp_path):
        rng = np.random.default_rng(19)
        pts = rng.standard_normal((10, 3))
        col = rng.random((10, 3))
        p = tmp_path / "c.ply"
        metrics.save_ply(p, pts, col)
        got, got_col = metrics.load_ply(p)
        np.testing.assert_allclose(got, pts, atol=0)
        np.testing.assert_allclose(got_col, col, atol=0.5 / 255)

    def test_rejects_non_ply(self, tmp_path):
        p = tmp_path / "x.ply"
        p.write_text("off\n3\n")
        with pytest.raises(DimMismatch):
            metrics.load_ply(p)


class TestDepthIO:
    @pytest.mark.parametrize("case", ["random", "all_on", "all_off_rows",
                                      "starts_true"])
    def test_roundtrip(self, tmp_path, case):
        rng = np.random.default_rng(20)
        depth = rng.standard_normal((9, 13))
        if case == "random":
            mask = rng.random((9, 13)) < 0.5
        elif case == "all_on":
            mask = np.ones((9, 13), bool)
        elif case == "all_off_rows":
            mask = np.zeros((9, 13), bool)
            mask[4] = True
        else:
            mask = np.zeros((9, 13), bool)
            mask.ravel()[0] = True
        p = tmp_path / "d.bin"
        metrics.save_depth(p, depth, mask)
        got, got_mask = metrics.load_depth(p)
        np.testing.assert_array_equal(got_mask, mask)
        np.testing.assert_array_equal(got[mask], depth[mask])
        assert np.all(np.isnan(got[~mask]))

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "d.bin"
        p.write_bytes(b"nope")
        with pytest.raises(DimMismatch):
            metrics.load_depth(p)
