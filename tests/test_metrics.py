import numpy as np
import pytest

from cloudfilter import MetricReport, chamfer_distance, evaluate, mean_square_error


def brute_force_chamfer(a, b):
    d_ab = np.min(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2), axis=1)
    d_ba = np.min(np.linalg.norm(b[:, None, :] - a[None, :, :], axis=2), axis=1)
    return np.mean(d_ab**2) + np.mean(d_ba**2)


def brute_force_mse(a, b, m):
    d = np.sort(np.linalg.norm(b[:, None, :] - a[None, :, :], axis=2), axis=1)[:, :m]
    return np.sum(d**2) / (len(b) * m)


class TestChamfer:
    def test_identical_sets_zero(self):
        pts = np.random.default_rng(0).random((50, 3))
        assert chamfer_distance(pts, pts) == pytest.approx(0.0, abs=1e-15)

    def test_two_single_points_analytic(self):
        # both directions contribute the squared distance
        assert chamfer_distance([[0, 0, 0.0]], [[3, 4, 0.0]]) == pytest.approx(50.0)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = rng.random((30, 3)), rng.random((45, 3))
        assert chamfer_distance(a, b) == pytest.approx(chamfer_distance(b, a))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((rng.integers(5, 60), 3))
        b = rng.random((rng.integers(5, 60), 3))
        assert chamfer_distance(a, b) == pytest.approx(
            brute_force_chamfer(a, b), rel=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            chamfer_distance(np.empty((0, 3)), [[0, 0, 0.0]])


class TestMeanSquareError:
    def test_coincident_sets_zero(self):
        pts = np.random.default_rng(1).random((20, 3))
        assert mean_square_error(pts, pts, m=1) == pytest.approx(0.0, abs=1e-15)

    def test_m1_is_mean_nn_squared(self):
        a = np.array([[0, 0, 0], [10, 0, 0.0]])
        b = np.array([[1, 0, 0], [10, 2, 0.0]])
        assert mean_square_error(a, b, m=1) == pytest.approx((1.0 + 4.0) / 2.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed + 100)
        a = rng.random((rng.integers(12, 80), 3))
        b = rng.random((rng.integers(5, 80), 3))
        assert mean_square_error(a, b, m=10) == pytest.approx(
            brute_force_mse(a, b, 10), rel=1e-12
        )

    def test_too_few_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="too few"):
            mean_square_error([[0, 0, 0.0]], [[1, 1, 1.0]], m=10)


class TestEvaluate:
    def test_report_fields(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((30, 3)), rng.random((20, 3))
        report = evaluate(a, b)
        assert report.s1_count == 30
        assert report.s2_count == 20
        assert report.chamfer == pytest.approx(chamfer_distance(a, b))
        assert report.mse == pytest.approx(mean_square_error(a, b))

    # The name predates chamfer_distance and mean_square_error becoming
    # fields of evaluate; the reference is now the brute-force one.
    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_equals_separate_calls_exactly(self, m):
        rng = np.random.default_rng(m)
        a = rng.random((400, 3))
        b = np.vstack([a[:50], rng.random((300, 3)), a[:5]])  # exact and tied matches
        for pred in (b, b[:1]):
            report = evaluate(a, pred, m=m)
            assert report.chamfer == pytest.approx(brute_force_chamfer(a, pred), rel=1e-12)
            assert report.mse == pytest.approx(brute_force_mse(a, pred, m), rel=1e-12)

    @pytest.mark.parametrize(
        "s1, s2, m, message",
        [
            (np.empty((0, 3)), [[0, 0, 0.0]], 1, "empty point set"),
            ([[0, 0, 0.0]], np.empty((0, 3)), 1, "empty point set"),
            ([[0, 0, 0.0]], [[1, 1, 1.0]], 0, "m must be >= 1"),
            ([[0, 0, 0.0]], [[1, 1, 1.0]], 2, "too few ground-truth points"),
        ],
        ids=["empty-gt", "empty-predicted", "m-zero", "too-few-gt"],
    )
    def test_public_functions_share_errors(self, s1, s2, m, message):
        # chamfer_distance is evaluate at m=1, so only an empty set applies to it.
        calls = [lambda: evaluate(s1, s2, m=m), lambda: mean_square_error(s1, s2, m=m)]
        if m == 1:
            calls.append(lambda: chamfer_distance(s1, s2))
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

    def test_text_report(self):
        report = MetricReport(chamfer=0.5, mse=0.25, s1_count=3, s2_count=4)
        assert report.to_text() == "chamfer=0.5\nmse=0.25\ns1_count=3\ns2_count=4\n"
