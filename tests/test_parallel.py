"""Row blocks and worker threads change no result, the pipeline stages
themselves never run on a pool thread, and the whole-cloud k-NN queries hold
no whole-cloud temporaries."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from cloudfilter import (
    BilateralParams,
    FilterParams,
    PointCloud,
    RunConfig,
    add_gaussian_noise,
    bilateral_filter_normals,
    build_neighbor_index,
    core,
    estimate_normals_pca,
    evaluate,
    filter_cloud,
    filtering,
    make_shape,
    orient_normals,
    run_pipeline,
    write_cloud,
)
from cloudfilter.filtering import (
    _projections,
    _update_all,
    _update_rows,
    beta,
    data_energy,
    filter_iteration,
)
from cloudfilter.normals import _MIN_WEIGHT, ORIENT_GRAPH_K
from cloudfilter.synth import NoiseSpec
from test_core import ReversedTieTree, coincident_copies, permuted_grid

# (BLOCK_ROWS, WORKERS); None is a block of at least the whole cloud with
# the host's worker count, which computes every kernel as one array.
SETTINGS = [(7, 2), (7, 1), (None, None)]


@pytest.fixture
def noisy_sphere():
    """A noisy sphere whose point count, 201, is not a multiple of 7."""
    rng = np.random.default_rng(11)
    radial = rng.normal(size=(201, 3))
    radial /= np.linalg.norm(radial, axis=1, keepdims=True)
    pts = radial + rng.normal(0.0, 0.02, radial.shape)
    assert len(pts) % 7 != 0
    return PointCloud(pts, radial)


def under_each_setting(monkeypatch, m, compute):
    """compute() once per entry of SETTINGS."""
    results = []
    for block_rows, workers in SETTINGS:
        with monkeypatch.context() as patch:
            patch.setattr(core, "BLOCK_ROWS", m if block_rows is None else block_rows)
            if workers is not None:
                patch.setattr(core, "WORKERS", workers)
            results.append(compute())
    return results


def assert_all_equal(results):
    first = results[0]
    for other in results[1:]:
        if isinstance(first, tuple):
            assert all(np.array_equal(a, b) for a, b in zip(first, other))
        else:
            assert np.array_equal(first, other)


class TestBlockAndWorkerInvariance:
    @pytest.mark.parametrize("cloud", ["sphere", "grid", "copies"])
    def test_k_nearest_all(self, monkeypatch, noisy_sphere, cloud):
        # the grid's reversed ties and the copies send rows down the lexsort
        # and k_nearest paths
        pts = {"sphere": noisy_sphere.points, "grid": permuted_grid(15, seed=4),
               "copies": coincident_copies()}[cloud]
        index = build_neighbor_index(pts)
        if cloud == "grid":
            index._tree = ReversedTieTree(pts)
        for k in (1, 6, 10):
            assert_all_equal(under_each_setting(
                monkeypatch, len(pts), lambda: index.k_nearest_all(k)
            ))

    def test_kth_and_nearest_distances(self, monkeypatch, noisy_sphere):
        index = build_neighbor_index(noisy_sphere.points)
        assert_all_equal(under_each_setting(
            monkeypatch, len(noisy_sphere),
            lambda: (index.kth_distances(10), index.nearest_distances()),
        ))

    def test_orient_normals(self, monkeypatch, noisy_sphere):
        signs = np.where(np.random.default_rng(5).random(len(noisy_sphere)) < 0.5, 1.0, -1.0)
        flipped = noisy_sphere.normals * signs[:, None]
        assert_all_equal(under_each_setting(
            monkeypatch, len(noisy_sphere), lambda: orient_normals(noisy_sphere, flipped)
        ))

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_update_all(self, monkeypatch, noisy_sphere, mu):
        pts, normals = noisy_sphere.points, noisy_sphere.normals
        nbrs = build_neighbor_index(pts).k_nearest_all(10)
        params = FilterParams(k=10, mu=mu)
        assert_all_equal(under_each_setting(
            monkeypatch, len(pts), lambda: _update_all(pts, normals, nbrs, params, 0.3)
        ))

    def test_data_energy(self, monkeypatch, noisy_sphere):
        index = build_neighbor_index(noisy_sphere.points)
        assert_all_equal(under_each_setting(
            monkeypatch, len(noisy_sphere),
            lambda: data_energy(noisy_sphere.normals, index, 10),
        ))

    @pytest.mark.parametrize("sigma_s", [None, 0.2])
    def test_bilateral_filter_normals(self, monkeypatch, noisy_sphere, sigma_s):
        params = BilateralParams(sigma_s=sigma_s, k=12)
        assert_all_equal(under_each_setting(
            monkeypatch, len(noisy_sphere),
            lambda: bilateral_filter_normals(noisy_sphere, noisy_sphere.normals, params),
        ))

    def test_estimate_normals_pca(self, monkeypatch, noisy_sphere):
        results = under_each_setting(
            monkeypatch, len(noisy_sphere), lambda: estimate_normals_pca(noisy_sphere, 12)
        )
        assert_all_equal([normals for normals, _ in results])
        assert all(degenerate == results[0][1] for _, degenerate in results)

    def test_estimate_normals_pca_degenerate_rows(self, monkeypatch):
        # collinear patches take the per-row degenerate path
        pts = np.column_stack([np.arange(50.0), np.zeros(50), np.zeros(50)])
        results = under_each_setting(
            monkeypatch, 50, lambda: estimate_normals_pca(PointCloud(pts), 4)
        )
        assert results[0][1] == list(range(50))
        assert_all_equal([normals for normals, _ in results])

    def test_evaluate(self, monkeypatch, noisy_sphere):
        gt = make_shape("sphere", 5).points
        results = under_each_setting(
            monkeypatch, len(noisy_sphere), lambda: evaluate(gt, noisy_sphere.points)
        )
        assert all(report == results[0] for report in results)


def reference_projections(points, normals, rows, patches):
    """filtering._projections as fancy indexing wrote it."""
    d = points[patches] - points[rows][:, None, :]
    n_j = normals[patches]
    proj_j = np.einsum("ikj,ikj->ik", d, n_j)
    proj_i = np.einsum("ikj,ikj->ik", d, normals[rows, None, :])
    return d, n_j, proj_j, proj_i


def reference_update_rows(points, normals, rows, patches, params, h):
    """filtering._update_rows with .sum(axis=1) and np.linalg.norm."""
    gamma = 1.0 / (3.0 * patches.shape[1])
    p = points[rows]
    n_i = normals[rows, None, :]
    d, n_j, proj_j, proj_i = reference_projections(points, normals, rows, patches)
    along_j = proj_j[:, :, None] * n_j
    data_step = gamma * (along_j.sum(axis=1) + (proj_i[:, :, None] * n_i).sum(axis=1))
    if params.mu == 0.0:
        return p + data_step
    tangential = along_j - d
    b = beta(np.linalg.norm(tangential, axis=2), h)
    denom = b.sum(axis=1)[:, None]
    repulsion_step = np.divide(
        params.mu * (b[:, :, None] * tangential).sum(axis=1),
        denom,
        out=np.zeros_like(p),
        where=denom > 0,
    )
    return p + data_step + repulsion_step


def reference_bilateral(points, normals, nbrs, sigma_s, params):
    """The passes of bilateral_filter_normals with fancy indexing, np.sum
    and np.linalg.norm."""
    d2 = np.sum((points[nbrs] - points[:, None, :]) ** 2, axis=2)
    ws = np.exp(-d2 / sigma_s**2)
    current = normals
    for _ in range(params.iterations):
        n_j = current[nbrs]
        dots = np.einsum("ikj,ij->ik", n_j, current)
        wr = np.exp(-((1.0 - dots) ** 2) / params.sigma_r**2)
        weights = ws * wr
        summed = np.einsum("ik,ikj->ij", weights, n_j)
        norms = np.linalg.norm(summed, axis=1)
        keep = (weights.sum(axis=1) < 1e-12) | (norms < 1e-12)
        norms[keep] = 1.0
        out = summed / norms[:, None]
        out[keep] = current[keep]
        current = out
    return current


class TestKernelBits:
    """Each row-block kernel gives the bits of the fancy indexing, axis sums
    and norms it replaced, which the reference functions above keep."""

    K = 10

    @pytest.fixture(params=["sphere", "copies", "grid"])
    def cloud(self, request, noisy_sphere):
        """Points and unit normals; the copies have zero offsets and the grid
        exact distance ties."""
        if request.param == "sphere":
            return noisy_sphere
        pts = coincident_copies() if request.param == "copies" else permuted_grid(15, seed=4)
        normals = np.random.default_rng(7).normal(size=pts.shape)
        return PointCloud(pts, normals / np.linalg.norm(normals, axis=1, keepdims=True))

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_update_rows(self, cloud, mu):
        pts, normals = cloud.points, cloud.normals
        index = build_neighbor_index(pts)
        nbrs = index.k_nearest_all(self.K)
        h = 4.0 * float(index.kth_distances(self.K).mean())
        rows = slice(0, len(pts))
        got = _projections(pts, normals, rows, nbrs)
        want = reference_projections(pts, normals, rows, nbrs)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        params = FilterParams(k=self.K, mu=mu)
        assert np.array_equal(
            _update_rows(pts, normals, rows, nbrs, params, h),
            reference_update_rows(pts, normals, rows, nbrs, params, h),
        )

    def test_pca_covariances(self, cloud, monkeypatch):
        pts, k = cloud.points, self.K
        covariances = []
        eigh = np.linalg.eigh

        def record(a):
            covariances.append(a)
            return eigh(a)

        monkeypatch.setattr(core, "BLOCK_ROWS", len(pts))
        monkeypatch.setattr(np.linalg, "eigh", record)
        estimate_normals_pca(PointCloud(pts), k)
        nbrs = build_neighbor_index(pts).k_nearest_all(k)
        patches = np.concatenate([pts[:, None, :], pts[nbrs]], axis=1)
        centered = patches - patches.mean(axis=1, keepdims=True)
        want = np.einsum("ipa,ipb->iab", centered, centered) / (k + 1)
        assert len(covariances) == 1
        assert np.array_equal(covariances[0], want)

    def test_orient_edge_weights(self, cloud, monkeypatch):
        pts, normals = cloud.points, cloud.normals
        graphs = []

        def record(arg, *args, **kwargs):
            graph = csr_matrix(arg, *args, **kwargs)
            graphs.append(graph.copy())  # the spanning tree overwrites the graph
            return graph

        monkeypatch.setattr("cloudfilter.normals.csr_matrix", record)
        orient_normals(PointCloud(pts), normals)
        graph = graphs[0]  # the first graph built is the k-NN graph
        rows = np.repeat(np.arange(len(pts)), np.diff(graph.indptr))
        cols = graph.indices
        assert np.all(rows < cols)
        assert np.all(np.diff(cols)[np.diff(rows) == 0] > 0)  # each row's columns rise
        nbrs = build_neighbor_index(pts).k_nearest_all(ORIENT_GRAPH_K)
        assert np.array_equal(np.column_stack([rows, cols]), undirected_edges(nbrs))
        dots = np.einsum("ij,ij->i", normals[rows], normals[cols])
        assert np.array_equal(graph.data, np.maximum(1.0 - np.abs(dots), _MIN_WEIGHT))

    def test_bilateral_filter_normals(self, cloud):
        pts, normals = cloud.points, cloud.normals
        params = BilateralParams(k=self.K)
        index = build_neighbor_index(pts)
        sigma_s = 2.0 * float(index.kth_distances(self.K).mean())
        want = reference_bilateral(pts, normals, index.k_nearest_all(self.K), sigma_s, params)
        assert np.array_equal(bilateral_filter_normals(cloud, normals, params), want)


def noisy_cube(seed):
    return add_gaussian_noise(make_shape("cube", 6), NoiseSpec(0.005, seed))


def permuted_plane(seed):
    """A grid plane in seeded row order: its exact distance ties survive
    normalization and send rows to the k_nearest fallback."""
    plane = make_shape("plane", 12)
    order = np.random.default_rng(seed).permutation(len(plane))
    return PointCloud(plane.points[order], plane.normals[order])


class TestThreadContract:
    def test_stages_run_on_the_calling_thread(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "BLOCK_ROWS", 7)
        monkeypatch.setattr(core, "WORKERS", 2)
        threads = {}

        def record(owner, name):
            original = getattr(owner, name)

            def recorder(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.get_ident())
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, recorder)

        for name in ("__init__", "k_nearest_all", "k_nearest", "kth_distances",
                     "nearest_distances"):
            record(core.NeighborIndex, name)
        record(filtering, "resolve_support_radius")
        record(filtering, "data_energy")
        record(filtering, "beta")  # called inside the update's row blocks

        # the grid's distance ties reach the k_nearest fallback
        for cloud in (noisy_cube(1), permuted_plane(1)):
            src = tmp_path / "in.xyz"
            write_cloud(PointCloud(cloud.points), src)
            run_pipeline(RunConfig(
                input_path=str(src),
                output_path=str(tmp_path / "out.xyz"),
                filter_params=FilterParams(k=10, t=2),
                gt_path=str(src),
                report_path=str(tmp_path / "report.txt"),
            ))

        caller = threading.get_ident()
        assert threads.pop("beta") - {caller}, "row blocks never ran on a pool thread"
        assert set(threads) == {
            "__init__", "k_nearest_all", "k_nearest", "kth_distances",
            "nearest_distances", "resolve_support_radius", "data_energy",
        }
        for name, seen in threads.items():
            assert seen == {caller}, name

    def test_concurrent_filter_calls_match_sequential(self, monkeypatch):
        # more workers than cores, and frequent thread switches
        monkeypatch.setattr(core, "BLOCK_ROWS", 7)
        monkeypatch.setattr(core, "WORKERS", 4)
        params = FilterParams(k=10, t=2)
        clouds = [noisy_cube(1), noisy_cube(2)]
        want = [filter_cloud(c, c.normals, params) for c in clouds]

        got = [None, None]

        def run(i):
            got[i] = filter_cloud(clouds[i], clouds[i].normals, params)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for (want_cloud, want_diag), result in zip(want, got):
            assert result is not None
            got_cloud, got_diag = result
            assert np.array_equal(got_cloud.points, want_cloud.points)
            assert got_diag == want_diag


def sphere_20k():
    """20,000 points near the unit sphere, with their radial normals."""
    rng = np.random.default_rng(0)
    radial = rng.normal(size=(20_000, 3))
    radial /= np.linalg.norm(radial, axis=1, keepdims=True)
    return PointCloud(radial + rng.normal(0.0, 0.002, radial.shape), radial)


def edge_pairs(rows, cols):
    """(lo, hi) rows, lo < hi, of the edges {rows[i], cols[i]}, each once, in
    lexicographic order."""
    return np.unique(np.column_stack([np.minimum(rows, cols), np.maximum(rows, cols)]), axis=0)


def undirected_edges(nbrs):
    """edge_pairs of the k-NN graph whose row i lists nbrs[i]."""
    return edge_pairs(np.repeat(np.arange(len(nbrs)), nbrs.shape[1]), nbrs.ravel())


def traced_peak(compute):
    """Peak bytes that numpy and Python allocate during compute()."""
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestQueryMemory:
    """The whole-cloud queries and the update, energy, orientation, bilateral
    and metric stages on 20,000 points under 2 workers and the default block
    size hold no whole-cloud temporaries beyond the arrays they return or
    need."""

    M = 20_000

    @pytest.fixture
    def sphere(self, monkeypatch):
        monkeypatch.setattr(core, "WORKERS", 2)
        monkeypatch.setattr(core, "BLOCK_ROWS", 1024)
        return sphere_20k()

    def test_k_nearest_all(self, sphere):
        index = build_neighbor_index(sphere.points)
        k = 30
        # per worker, one BLOCK_ROWS-row query block of distances, indices
        # and test masks
        block_bytes = core.WORKERS * core.BLOCK_ROWS * (k + 2) * 32
        out_bytes = self.M * k * np.dtype(core.INDEX_DTYPE).itemsize
        assert traced_peak(lambda: index.k_nearest_all(k)) < out_bytes + block_bytes

    @pytest.mark.parametrize("cloud", ["grid", "stacks"])
    def test_k_nearest_all_on_tied_rows(self, monkeypatch, cloud):
        # Nearly every row of a permuted grid plane is tied, so nearly the
        # whole cloud goes through k_nearest. The rows of 1,000 copies of one
        # point re-query at a doubling k up to 2,048 neighbours.
        rng = np.random.default_rng(0)
        if cloud == "grid":
            pts, k = make_shape("plane", 141).points, 30
        else:
            copies = np.repeat(rng.random((1, 3)), 1000, axis=0)
            pts, k = np.concatenate([rng.random((1000, 3)), copies]), 10
        m = len(pts)
        index = build_neighbor_index(pts[rng.permutation(m)])
        monkeypatch.setattr(core, "WORKERS", 2)
        monkeypatch.setattr(core, "BLOCK_ROWS", 1024)
        # the int32 output and k_nearest's table of the tied rows; the tied
        # mask and the intp row ids of the tied rows
        tables = 2 * m * k * np.dtype(core.INDEX_DTYPE).itemsize + m * (1 + 8)
        # per worker, one query of at most BLOCK_ROWS * (k + 2) neighbours:
        # distances, indices, masked distances, lexsort order and gathered
        # indices (8 bytes each), the lexsort's scratch and the masks, under
        # 64 bytes a neighbour
        blocks = core.WORKERS * core.BLOCK_ROWS * (k + 2) * 64
        assert traced_peak(lambda: index.k_nearest_all(k)) < tables + blocks

    def test_kth_and_nearest_distances(self, sphere):
        index = build_neighbor_index(sphere.points)
        # the (M, 1) distance and index columns the tree returns
        bound = 3 * self.M * 8
        assert traced_peak(lambda: index.kth_distances(30)) < bound
        assert traced_peak(lambda: index.nearest_distances()) < bound

    def test_orient_normals_gathers_no_edge_arrays(self, sphere, monkeypatch):
        # The edge keys and weights are orient's only per-edge computations;
        # stop at the graph build, whose sparse arrays would hide them in the
        # peak.
        class GraphBuild(Exception):
            pass

        def stop(*args, **kwargs):
            raise GraphBuild

        monkeypatch.setattr("cloudfilter.normals.csr_matrix", stop)
        m, k = self.M, ORIENT_GRAPH_K
        edges = len(undirected_edges(build_neighbor_index(sphere.points).k_nearest_all(k)))

        def orient():
            with pytest.raises(GraphBuild):
                orient_normals(sphere, sphere.normals)

        # normals copy and indexed points, the int32 neighbour table and an
        # int64 key per table entry; per undirected edge, the int32 column
        # and float64 weight; the index pointers and the row starts searched
        # for. Per worker, a row block's gathered normals and its per-edge
        # temporaries take under four (BLOCK_ROWS * k, 3) float64 blocks
        arrays = (2 * m * 3 * 8 + m * k * (np.dtype(core.INDEX_DTYPE).itemsize + 8)
                  + edges * (4 + 8) + 2 * (m + 1) * 8)
        blocks = core.WORKERS * 4 * core.BLOCK_ROWS * k * 3 * 8
        assert traced_peak(orient) < arrays + blocks

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_update_all(self, sphere, mu):
        m, k = self.M, 30
        nbrs = build_neighbor_index(sphere.points).k_nearest_all(k)
        params = FilterParams(k=k, mu=mu)
        out = m * 3 * 8  # the (M, 3) float64 positions returned
        # per worker, the (BLOCK_ROWS, k, 3) float64 arrays d (later the
        # tangential offsets), n_j (later along_j) and the proj_i product,
        # and the (BLOCK_ROWS, k) gather indices, projections, norms and
        # weights: under five such blocks (measured: about four)
        blocks = core.WORKERS * 5 * core.BLOCK_ROWS * k * 3 * 8
        peak = traced_peak(lambda: _update_all(sphere.points, sphere.normals, nbrs, params, 0.3))
        assert peak < out + blocks

    def test_filter_iteration_whole_call(self, sphere):
        m, k = self.M, 30
        params = FilterParams(k=k, mu=0.3)
        # At the update: the index's points copy and its tree's intp point
        # order, the int32 neighbour table and the new (M, 3) positions. The
        # displacements and the diagnostics' index come later, each once the
        # update's arrays are freed.
        arrays = m * 3 * 8 + m * 8 + m * k * np.dtype(core.INDEX_DTYPE).itemsize + m * 3 * 8
        # per worker, the update's blocks (see test_update_all)
        blocks = core.WORKERS * 5 * core.BLOCK_ROWS * k * 3 * 8
        peak = traced_peak(lambda: filter_iteration(sphere.points, sphere.normals, params))
        assert peak < arrays + blocks

    def test_data_energy_holds_one_sum_per_point(self, sphere):
        index = build_neighbor_index(sphere.points)
        m, k = self.M, 30
        table = m * k * np.dtype(core.INDEX_DTYPE).itemsize
        sums = m * 8  # one float64 sum of squared projections per point
        # per worker, four (BLOCK_ROWS, k, 3) float64 arrays; the query's own
        # blocks (see test_k_nearest_all) fit inside these
        blocks = core.WORKERS * 4 * core.BLOCK_ROWS * k * 3 * 8
        peak = traced_peak(lambda: data_energy(sphere.normals, index, k))
        assert peak < table + sums + blocks

    def test_bilateral_filter_normals(self, sphere):
        params = BilateralParams()
        m, k = self.M, params.k
        # the indexed points, the int32 neighbour table, and the previous and
        # current pass's normals; no (M, k) table of spatial weights
        arrays = m * 3 * 8 + m * k * np.dtype(core.INDEX_DTYPE).itemsize + 2 * m * 3 * 8
        # per worker, the gathered offsets and normals, (BLOCK_ROWS, k, 3)
        # float64 each, and the (BLOCK_ROWS, k) weights and their
        # temporaries: under four (BLOCK_ROWS, k, 3) blocks
        blocks = core.WORKERS * 4 * core.BLOCK_ROWS * k * 3 * 8
        peak = traced_peak(lambda: bilateral_filter_normals(sphere, sphere.normals, params))
        assert peak < arrays + blocks

    def test_evaluate(self, sphere):
        n, m = self.M, 10
        rng = np.random.default_rng(1)
        predicted = sphere.points + rng.normal(0.0, 0.001, sphere.points.shape)
        table = n * m * 8  # the (n, m) float64 squared distances
        # six values per point: the two trees' index arrays, the Chamfer
        # term's distances, indices and squares, and one to spare
        per_point = 6 * n * 8
        # per worker, one BLOCK_ROWS-row query's distances, indices and
        # squares, with a fourth block to spare
        blocks = core.WORKERS * 4 * core.BLOCK_ROWS * m * 8
        peak = traced_peak(lambda: evaluate(sphere.points, predicted, m))
        assert peak < table + per_point + blocks

    def test_orient_normals_whole_call(self, sphere):
        m, k = self.M, ORIENT_GRAPH_K
        edges = len(undirected_edges(build_neighbor_index(sphere.points).k_nearest_all(k)))
        # normals copy and indexed points, and under five values per node;
        # per undirected edge, the graph's float64 weight and int32 column,
        # and the spanning tree's sort order and row ids, under 16 bytes
        # (measured: about 12). The graph build's int64 key per table entry
        # fits in those 16, as each edge fills one or two entries. Per
        # worker, a row block's temporaries take under four
        # (BLOCK_ROWS * k, 3) float64 blocks. No transposed or symmetric copy.
        arrays = 2 * m * 3 * 8 + m * 5 * 8 + edges * (8 + 4 + 8 + 4 + 4)
        blocks = core.WORKERS * 4 * core.BLOCK_ROWS * k * 3 * 8
        needed = arrays + blocks
        assert traced_peak(lambda: orient_normals(sphere, sphere.normals)) < needed
