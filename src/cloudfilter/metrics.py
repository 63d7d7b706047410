"""Evaluation metrics between a ground-truth and a predicted point set."""

import numpy as np
from dataclasses import dataclass
from scipy.spatial import cKDTree

from . import core
from .core import as_points


@dataclass
class MetricReport:
    chamfer: float
    mse: float
    s1_count: int
    s2_count: int

    def to_text(self):
        return (
            f"chamfer={self.chamfer:.12g}\n"
            f"mse={self.mse:.12g}\n"
            f"s1_count={self.s1_count}\n"
            f"s2_count={self.s2_count}\n"
        )


def chamfer_distance(s1, s2):
    """Symmetric mean of squared nearest-neighbor distances between two sets."""
    return evaluate(s1, s2, m=1).chamfer


def mean_square_error(s1, s2, m=10):
    """Mean squared distance from each predicted point in s2 to its m
    nearest ground-truth points in s1, averaged over the predicted set:
    1/(|S2| m) sum_y sum_{x in NN_m(y)} |x - y|^2.
    """
    return evaluate(s1, s2, m).mse


def evaluate(ground_truth, predicted, m=10):
    """Full metric report for a predicted set against ground truth: the
    Chamfer distance and the m-nearest mean squared error.

    The only code that computes either metric. One ground-truth KD-tree
    serves both: the predicted-to-ground-truth distances of the Chamfer term
    are column 0 of the MSE's m-nearest query, which runs in row blocks.
    """
    core.check_count("m", m, 1)
    a = as_points(ground_truth)
    b = as_points(predicted)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty point set")
    if len(a) < m:
        raise ValueError("too few ground-truth points")
    d_ab, _ = cKDTree(b).query(a, workers=core.WORKERS)
    tree = cKDTree(a)
    sq = np.empty((len(b), m))  # squared distances to the m nearest

    def block(rows):
        dist, _ = tree.query(b[rows], k=m, workers=1)
        sq[rows] = dist.reshape(-1, m) ** 2

    core.for_row_blocks(block, len(b))
    return MetricReport(
        chamfer=float(np.mean(d_ab**2) + np.mean(sq[:, 0])),
        mse=float(np.sum(sq)) / (len(b) * m),
        s1_count=len(a),
        s2_count=len(b),
    )
