import numpy as np
import pytest

from cloudfilter import (
    BilateralParams,
    CloudTransform,
    FilterParams,
    PointCloud,
    bilateral_filter_normals,
    build_neighbor_index,
    core,
    data_energy,
    filter_cloud,
    normalize_cloud,
    orient_normals,
)


def brute_force_knn(points, query_idx, k):
    """O(n^2) reference: sort all other indices by (distance, index)."""
    d = np.linalg.norm(points - points[query_idx], axis=1)
    order = np.lexsort((np.arange(len(points)), d))
    order = order[order != query_idx]
    return order[:k]


def brute_force_kth(points, k):
    """O(n^2) reference: distance from every point to its k-th nearest other."""
    d = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    return np.sort(d, axis=1)[:, k]


def permuted_grid(n, seed):
    """n x n unit-spaced grid plane with its rows in seeded random order."""
    g = np.arange(float(n))
    x, y = np.meshgrid(g, g)
    pts = np.column_stack([x.ravel(), y.ravel(), np.zeros(n * n)])
    return pts[np.random.default_rng(seed).permutation(n * n)]


class ReversedTieTree:
    """KD-tree stand-in that breaks distance ties by higher index, the
    opposite of the tie rule, and records the points, k and workers of every
    query. As with cKDTree, k is a count or a sequence of 1-based ranks."""

    def __init__(self, points):
        self._points = np.asarray(points)
        self.queried = []
        self.ks = []
        self.workers = []

    def query(self, x, k, workers=1):
        x = np.asarray(x)
        self.queried.append(x)
        self.ks.append(k)
        self.workers.append(workers)
        rows = np.atleast_2d(x)
        d = np.linalg.norm(self._points[None, :, :] - rows[:, None, :], axis=2)
        rank = np.broadcast_to(-np.arange(len(self._points)), d.shape)
        cols = np.arange(k) if np.ndim(k) == 0 else np.asarray(k) - 1
        idx = np.lexsort((rank, d), axis=-1)[:, cols]
        dist = np.take_along_axis(d, idx, axis=-1)
        return (dist[0], idx[0]) if x.ndim == 1 else (dist, idx)


def neighbor_index(points, reversed_ties):
    index = build_neighbor_index(points)
    if reversed_ties:
        index._tree = ReversedTieTree(points)
    return index


class TestNeighborIndex:
    def test_single_point_cloud(self):
        index = build_neighbor_index([[0.0, 0.0, 0.0]])
        assert index.count == 1
        with pytest.raises(ValueError):
            index.k_nearest(0, 1)
        # a lone point has no nearest other point, as it has no k-th
        with pytest.raises(ValueError, match="k exceeds cloud size"):
            index.nearest_distances()
        with pytest.raises(ValueError, match="k exceeds cloud size"):
            index.kth_distances(1)

    def test_two_point_symmetry(self):
        index = build_neighbor_index([[0, 0, 0], [1, 0, 0]])
        assert list(index.k_nearest(0, 1)) == [1]
        assert list(index.k_nearest(1, 1)) == [0]

    def test_collinear_nearer_of_two(self):
        index = build_neighbor_index([[0, 0, 0], [1, 0, 0], [3, 0, 0]])
        assert list(index.k_nearest(1, 1)) == [0]

    def test_k_equals_all_others(self):
        rng = np.random.default_rng(0)
        pts = rng.random((12, 3))
        index = build_neighbor_index(pts)
        for i in range(12):
            assert sorted(index.k_nearest(i, 11)) == [j for j in range(12) if j != i]

    def test_grid_matches_brute_force(self):
        g = np.arange(10.0)
        x, y = np.meshgrid(g, g)
        pts = np.column_stack([x.ravel(), y.ravel(), np.zeros(100)])
        index = build_neighbor_index(pts)
        all_nbrs = index.k_nearest_all(4)
        for i in range(100):
            expected = brute_force_knn(pts, i, 4)
            assert list(all_nbrs[i]) == list(expected)
            assert list(index.k_nearest(i, 4)) == list(expected)

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(42)
        pts = rng.random((500, 3))
        index = build_neighbor_index(pts)
        all_nbrs = index.k_nearest_all(30)
        for i in range(500):
            assert list(all_nbrs[i]) == list(brute_force_knn(pts, i, 30))

    @pytest.mark.parametrize("k", [6, 30])
    def test_tied_rows_stop_once_tie_group_covered(self, k):
        pts = permuted_grid(30, seed=7)
        index = neighbor_index(pts, reversed_ties=True)
        for i in range(len(pts)):
            assert list(index.k_nearest(i, k)) == list(brute_force_knn(pts, i, k))
        # some rows need a larger query to cover the tie group at the k-th
        # distance, yet none needs a query over the whole cloud
        assert len(index._tree.ks) > len(pts)
        assert max(index._tree.ks) < len(pts)

    @pytest.mark.parametrize("reversed_ties", [False, True])
    @pytest.mark.parametrize("k", [6, 10])
    def test_all_permuted_grid_matches_brute_force(self, k, reversed_ties):
        # ties inside rows and at the k-th distance
        pts = permuted_grid(12, seed=3)
        all_nbrs = neighbor_index(pts, reversed_ties).k_nearest_all(k)
        for i in range(len(pts)):
            assert list(all_nbrs[i]) == list(brute_force_knn(pts, i, k))

    @pytest.mark.parametrize("reversed_ties", [False, True])
    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("copies", [3, 4])
    def test_all_coincident_copies_match_brute_force(
        self, copies, mixed, reversed_ties
    ):
        # self is often not in column 0 of the tree's answer; mixed clouds
        # give each point 1..copies copies, so some rows have exactly one
        # coincident point and strictly rising distances after it
        rng = np.random.default_rng(copies)
        base = rng.random((40, 3))
        counts = rng.integers(1, copies + 1, len(base)) if mixed else copies
        pts = np.repeat(base, counts, axis=0)
        pts = pts[rng.permutation(len(pts))]
        index = neighbor_index(pts, reversed_ties)
        for k in (2, copies, 10):
            all_nbrs = index.k_nearest_all(k)
            for i in range(len(pts)):
                assert list(all_nbrs[i]) == list(brute_force_knn(pts, i, k))

    @pytest.mark.parametrize("reversed_ties", [False, True])
    @pytest.mark.parametrize("offset", [1, 2])
    def test_all_query_covers_whole_cloud(self, offset, reversed_ties):
        # k = m - 1 and k = m - 2 query every point; grid and random rows
        rand = np.random.default_rng(2).random((9, 3))
        pts = np.concatenate([permuted_grid(4, seed=1), rand])
        k = len(pts) - offset
        all_nbrs = neighbor_index(pts, reversed_ties).k_nearest_all(k)
        for i in range(len(pts)):
            assert list(all_nbrs[i]) == list(brute_force_knn(pts, i, k))

    def test_whole_cloud_queries_use_every_worker(self, monkeypatch):
        monkeypatch.setattr(core, "WORKERS", 3)
        monkeypatch.setattr(core, "BLOCK_ROWS", 7)
        pts = permuted_grid(12, seed=3)
        index = neighbor_index(pts, reversed_ties=True)
        tree = index._tree
        index.k_nearest_all(6)
        # one-thread queries of BLOCK_ROWS-row blocks that cover every row
        # once, then single-point tie fallbacks
        blocks = [x for x in tree.queried if x.ndim == 2]
        fallbacks = [x for x in tree.queried if x.ndim == 1]
        assert sorted(map(len, blocks)) == [len(pts) % 7] + [7] * (len(pts) // 7)
        assert fallbacks and set(tree.workers) == {1}
        queried = np.concatenate(blocks)
        assert len(queried) == len(pts)
        assert np.array_equal(np.unique(queried, axis=0), np.unique(pts, axis=0))
        tree.workers.clear()
        # the single-column queries stay whole-cloud, on every worker
        assert np.array_equal(index.kth_distances(6), brute_force_kth(pts, 6))
        assert np.array_equal(index.nearest_distances(), brute_force_kth(pts, 1))
        assert tree.workers == [3, 3]
        assert tree.ks[-2:] == [[7], [2]]

    def test_coincident_points_tie_broken_by_index(self):
        pts = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0.0]])
        index = build_neighbor_index(pts)
        assert list(index.k_nearest(0, 2)) == [1, 2]
        assert list(index.k_nearest(1, 2)) == [0, 2]

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError, match="empty cloud"):
            build_neighbor_index(np.empty((0, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="invalid coordinate"):
            build_neighbor_index([[0.0, np.nan, 0.0]])

    def test_k_too_large_rejected(self):
        index = build_neighbor_index([[0, 0, 0], [1, 0, 0.0]])
        with pytest.raises(ValueError, match="k exceeds cloud size"):
            index.k_nearest(0, 2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_kth_distances_k_too_large_rejected(self, k):
        index = build_neighbor_index([[0, 0, 0], [1, 0, 0.0]])
        with pytest.raises(ValueError, match="k exceeds cloud size"):
            index.kth_distances(k)

    @pytest.mark.parametrize("query", [
        lambda index, k: index.k_nearest(0, k),
        lambda index, k: index.k_nearest_all(k),
        lambda index, k: index.kth_distances(k),
    ], ids=["k_nearest", "k_nearest_all", "kth_distances"])
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, query, k):
        index = build_neighbor_index([[0, 0, 0], [1, 0, 0.0], [3, 0, 0.0]])
        with pytest.raises(ValueError, match="k must be >= 1"):
            query(index, k)

    def test_source_points_not_mutated(self):
        rng = np.random.default_rng(3)
        pts = rng.random((50, 3))
        before = pts.copy()
        index = build_neighbor_index(pts)
        index.k_nearest_all(5)
        index.k_nearest(7, 3)
        assert np.array_equal(pts, before)
        with pytest.raises(ValueError):
            index.points[0, 0] = 99.0

    @pytest.mark.parametrize("reversed_ties", [False, True])
    def test_indices_are_index_dtype(self, reversed_ties):
        # the reversed ties send rows down the lexsort and k_nearest paths
        pts = permuted_grid(12, seed=5)
        index = neighbor_index(pts, reversed_ties)
        all_nbrs = index.k_nearest_all(10)
        assert all_nbrs.dtype == core.INDEX_DTYPE
        for i in range(len(pts)):
            row = index.k_nearest(i, 10)
            assert row.dtype == core.INDEX_DTYPE
            assert list(row) == list(all_nbrs[i]) == list(brute_force_knn(pts, i, 10))

    def test_cloud_beyond_index_dtype_rejected(self, monkeypatch):
        monkeypatch.setattr(core, "INDEX_DTYPE", np.int8)
        pts = np.random.default_rng(1).random((200, 3))
        with pytest.raises(ValueError, match="int8, which hold at most 127"):
            build_neighbor_index(pts)
        # the largest cloud the type can index still works
        index = build_neighbor_index(pts[:127])
        all_nbrs = index.k_nearest_all(5)
        assert all_nbrs.dtype == np.int8
        assert list(all_nbrs[126]) == list(brute_force_knn(pts[:127], 126, 5))


class TestNormalizeCloud:
    def test_already_normalized_is_identity(self):
        rng = np.random.default_rng(1)
        cloud, _ = normalize_cloud(PointCloud(rng.random((40, 3))))
        again, transform = normalize_cloud(cloud)
        assert np.allclose(transform.translation, 0.0, atol=1e-9)
        assert abs(transform.scale - 1.0) < 1e-9
        assert np.allclose(again.points, cloud.points, atol=1e-9)

    def test_two_point_analytic(self):
        cloud, transform = normalize_cloud(PointCloud([[0, 0, 0], [2, 0, 0.0]]))
        assert np.allclose(cloud.points, [[-0.5, 0, 0], [0.5, 0, 0]])
        assert transform.scale == pytest.approx(2.0)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(3.0, 10.0, size=(50, 3))
        cloud, transform = normalize_cloud(PointCloud(pts))
        assert np.allclose(cloud.points.mean(axis=0), 0.0, atol=1e-9)
        diag = np.linalg.norm(cloud.points.max(axis=0) - cloud.points.min(axis=0))
        assert diag == pytest.approx(1.0, abs=1e-9)
        restored = transform.invert(cloud.points)
        assert np.allclose(restored, pts, rtol=1e-9, atol=1e-9)

    def test_normals_unchanged(self):
        normals = np.tile([0.0, 0.0, 1.0], (2, 1))
        cloud, _ = normalize_cloud(PointCloud([[0, 0, 0], [2, 0, 0.0]], normals))
        assert np.array_equal(cloud.normals, normals)

    def test_memory_layout_does_not_change_output(self):
        pts = np.random.default_rng(6).normal(3.0, 10.0, size=(1000, 3))
        normals = np.tile([0.0, 0.0, 1.0], (1000, 1))
        c_cloud, c_transform = normalize_cloud(PointCloud(pts, normals))
        f_cloud, f_transform = normalize_cloud(
            PointCloud(np.asfortranarray(pts), np.asfortranarray(normals))
        )
        assert f_cloud.points.tobytes() == c_cloud.points.tobytes()
        assert f_transform.translation.tobytes() == c_transform.translation.tobytes()
        assert f_cloud.points.flags.c_contiguous and f_cloud.normals.flags.c_contiguous

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="degenerate extent"):
            normalize_cloud(PointCloud([[1, 1, 1], [1, 1, 1.0]]))


class TestCloudTransform:
    def test_apply_invert_round_trip(self):
        transform = CloudTransform([1.0, -2.0, 0.5], 3.0)
        rng = np.random.default_rng(9)
        pts = rng.random((20, 3))
        assert np.allclose(transform.invert(transform.apply(pts)), pts, rtol=1e-12)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            CloudTransform([0, 0, 0], 0.0)


class TestPointCloud:
    def test_normals_length_mismatch(self):
        with pytest.raises(ValueError):
            PointCloud([[0, 0, 0], [1, 0, 0.0]], [[0, 0, 1.0]])

    def test_non_unit_normals_rejected(self):
        with pytest.raises(ValueError):
            PointCloud([[0, 0, 0.0]], [[0, 0, 2.0]])


def bad_normals(normals, case):
    """(table, message): `normals` broken one of the four ways the normals
    contract rules out, and PointCloud's message for it."""
    if case == "nan-component":
        nan = normals.copy()
        nan[5, 1] = np.nan
        return nan, "invalid normal component"
    if case == "7-rows-short":
        return normals[:-7], "normals must match points in length"
    if case == "7-rows-long":
        return np.vstack([normals, normals[:7]]), "normals must match points in length"
    return 2.0 * normals, "normals must be unit length"


class TestNormalsContract:
    """Every stage that takes normals rejects a table PointCloud would
    reject, with PointCloud's message, before it does any neighbour work."""

    STAGES = {
        "orient": lambda cloud, normals, index: orient_normals(cloud, normals),
        "bilateral": lambda cloud, normals, index: bilateral_filter_normals(
            cloud, normals, BilateralParams(k=5)
        ),
        "filter": lambda cloud, normals, index: filter_cloud(
            cloud, normals, FilterParams(k=5, t=1)
        ),
        "data_energy": lambda cloud, normals, index: data_energy(normals, index, 5),
    }

    @pytest.mark.parametrize("stage", sorted(STAGES))
    @pytest.mark.parametrize("case", ["nan-component", "7-rows-short", "7-rows-long", "doubled"])
    def test_bad_normals_rejected(self, monkeypatch, stage, case):
        rng = np.random.default_rng(7)
        radial = rng.normal(size=(144, 3))
        radial /= np.linalg.norm(radial, axis=1, keepdims=True)
        cloud = PointCloud(radial + rng.normal(0.0, 0.01, radial.shape), radial)
        index = build_neighbor_index(cloud.points)
        normals, message = bad_normals(cloud.normals, case)
        with pytest.raises(ValueError, match=message):
            PointCloud(cloud.points, normals)

        def no_neighbour_work(*args, **kwargs):
            raise AssertionError("neighbour work before the normals check")

        monkeypatch.setattr(core.NeighborIndex, "__init__", no_neighbour_work)
        monkeypatch.setattr(core.NeighborIndex, "k_nearest_all", no_neighbour_work)
        with pytest.raises(ValueError, match=message):
            self.STAGES[stage](cloud, normals, index)
