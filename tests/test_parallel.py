"""Row blocks and worker threads change no result, the pipeline stages
themselves never run on a pool thread, and the whole-cloud k-NN queries hold
no whole-cloud temporaries."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

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
from cloudfilter.filtering import _update_all, data_energy
from cloudfilter.normals import ORIENT_GRAPH_K
from cloudfilter.synth import NoiseSpec
from test_core import ReversedTieTree, permuted_grid

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


def coincident_copies():
    """40 random points, each repeated 1 to 3 times, rows shuffled."""
    rng = np.random.default_rng(3)
    base = rng.random((40, 3))
    pts = np.repeat(base, rng.integers(1, 4, len(base)), axis=0)
    return pts[rng.permutation(len(pts))]


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


def traced_peak(compute):
    """Peak bytes that numpy and Python allocate during compute()."""
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestQueryMemory:
    """The whole-cloud queries and the update, energy and orientation stages
    on 20,000 points under 2 workers and the default block size hold no
    whole-cloud temporaries beyond the arrays they return or need."""

    M = 20_000

    @pytest.fixture
    def sphere(self, monkeypatch):
        monkeypatch.setattr(core, "WORKERS", 2)
        monkeypatch.setattr(core, "BLOCK_ROWS", 1024)
        rng = np.random.default_rng(0)
        radial = rng.normal(size=(self.M, 3))
        radial /= np.linalg.norm(radial, axis=1, keepdims=True)
        return PointCloud(radial + rng.normal(0.0, 0.002, radial.shape), radial)

    def test_k_nearest_all(self, sphere):
        index = build_neighbor_index(sphere.points)
        k = 30
        # per worker, one BLOCK_ROWS-row query block of distances, indices
        # and test masks
        block_bytes = core.WORKERS * core.BLOCK_ROWS * (k + 2) * 32
        out_bytes = self.M * k * np.dtype(core.INDEX_DTYPE).itemsize
        assert traced_peak(lambda: index.k_nearest_all(k)) < out_bytes + block_bytes

    def test_kth_and_nearest_distances(self, sphere):
        index = build_neighbor_index(sphere.points)
        # the (M, 1) distance and index columns the tree returns
        bound = 3 * self.M * 8
        assert traced_peak(lambda: index.kth_distances(30)) < bound
        assert traced_peak(lambda: index.nearest_distances()) < bound

    def test_orient_normals_gathers_no_edge_arrays(self, sphere, monkeypatch):
        # The edge weights are orient's only per-edge computation; stop at
        # the graph build, whose sparse arrays would hide them in the peak.
        class GraphBuild(Exception):
            pass

        def stop(*args, **kwargs):
            raise GraphBuild

        monkeypatch.setattr("cloudfilter.normals.csr_matrix", stop)
        m, k = self.M, ORIENT_GRAPH_K

        def orient():
            with pytest.raises(GraphBuild):
                orient_normals(sphere, sphere.normals)

        # normals copy and indexed points, the int32 neighbour table and the
        # float64 edge weights; per worker, the repeated and gathered
        # (BLOCK_ROWS * k, 3) normals and the (BLOCK_ROWS * k,) dots and weights
        # take three blocks, with a fourth to spare
        arrays = 2 * m * 3 * 8 + m * k * np.dtype(core.INDEX_DTYPE).itemsize + m * k * 8
        blocks = core.WORKERS * 4 * core.BLOCK_ROWS * k * 3 * 8
        assert traced_peak(orient) < arrays + blocks

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_update_all(self, sphere, mu):
        m, k = self.M, 30
        nbrs = build_neighbor_index(sphere.points).k_nearest_all(k)
        params = FilterParams(k=k, mu=mu)
        out = m * 3 * 8  # the (M, 3) float64 positions returned
        # per worker, the (BLOCK_ROWS, k, 3) float64 arrays d, n_j, along_j
        # and tangential, one product temporary and four (BLOCK_ROWS, k)
        # projections, norms and weights: under seven such blocks
        blocks = core.WORKERS * 7 * core.BLOCK_ROWS * k * 3 * 8
        peak = traced_peak(lambda: _update_all(sphere.points, sphere.normals, nbrs, params, 0.3))
        assert peak < out + blocks

    def test_data_energy_holds_one_projection_buffer(self, sphere):
        index = build_neighbor_index(sphere.points)
        m, k = self.M, 30
        table = m * k * np.dtype(core.INDEX_DTYPE).itemsize
        buffer = m * k * 8  # one (M, k) float64 array of squared projections
        # per worker, four (BLOCK_ROWS, k, 3) float64 arrays; the query's own
        # blocks (see test_k_nearest_all) fit inside the buffer and these
        blocks = core.WORKERS * 4 * core.BLOCK_ROWS * k * 3 * 8
        peak = traced_peak(lambda: data_energy(sphere.normals, index, k))
        assert peak < table + buffer + blocks

    def test_orient_normals_whole_call(self, sphere):
        m, k = self.M, ORIENT_GRAPH_K
        # normals copy and indexed points; then two symmetric graphs of up to
        # 2 m k entries (float64 weight, int32 column) at once, the graph and
        # the spanning tree's working copy; and up to 16 values per node for
        # labels, index pointers and the breadth-first arrays
        needed = 2 * m * 3 * 8 + 2 * (2 * m * k) * (8 + 4) + m * 16 * 8
        assert traced_peak(lambda: orient_normals(sphere, sphere.normals)) < needed
