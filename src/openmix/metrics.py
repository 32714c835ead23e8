"""Clustering metrics: optimal-assignment accuracy and NMI.

Predictions are cluster indices with no inherent alignment to true classes,
so accuracy is taken over the best one-to-one relabeling and NMI is used as
a labeling-free companion. Both are invariant under relabeling of either
side.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


def _check_pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.ndim != 1 or truth.ndim != 1 or pred.shape != truth.shape:
        raise ValueError("pred and truth must be equal-length index vectors")
    if pred.size == 0:
        raise ValueError("metrics are undefined on empty input")
    if pred.min() < 0 or truth.min() < 0:
        raise ValueError("indices must be nonnegative")
    return pred, truth


def contingency(pred: np.ndarray, truth: np.ndarray, k: int) -> np.ndarray:
    """k x k count table; rows are predicted clusters, columns true classes."""
    table = np.zeros((k, k), dtype=np.int64)
    np.add.at(table, (pred, truth), 1)
    return table


def assignment_solver(score: np.ndarray) -> np.ndarray:
    """Permutation p maximizing sum_i score[i, p[i]], computed exactly."""
    score = np.asarray(score, dtype=np.float64)
    if score.ndim != 2 or score.shape[0] != score.shape[1]:
        raise ValueError("score matrix must be square")
    if not np.all(np.isfinite(score)):
        raise ValueError("score matrix must be finite")
    rows, cols = linear_sum_assignment(score, maximize=True)
    perm = np.empty(score.shape[0], dtype=np.int64)
    perm[rows] = cols
    return perm


def best_map_hits(
    pred: np.ndarray, truth: np.ndarray, num_classes: int | None = None
) -> np.ndarray:
    """Per row, whether its cluster maps to its class under the best relabeling."""
    pred, truth = _check_pair(pred, truth)
    k = int(max(pred.max(), truth.max())) + 1 if num_classes is None else num_classes
    if pred.max() >= k or truth.max() >= k:
        raise ValueError("index out of range")
    table = contingency(pred, truth, k)
    perm = assignment_solver(table.astype(np.float64))
    return perm[pred] == truth


def acc(pred: np.ndarray, truth: np.ndarray, num_classes: int | None = None) -> float:
    """Clustering accuracy: best fraction correct over cluster relabelings."""
    return float(best_map_hits(pred, truth, num_classes).mean())


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mutual information normalized by the geometric mean of the entropies.

    Identical partitions (up to relabeling) give exactly 1; if either side
    has zero entropy without that, the score is 0.
    """
    pred, truth = _check_pair(pred, truth)
    k = int(max(pred.max(), truth.max())) + 1
    table = contingency(pred, truth, k).astype(np.float64)
    n = pred.size

    # identical partitions: exactly one nonzero per nonempty row and column
    nonzero_rows = (table > 0).sum(axis=1)
    nonzero_cols = (table > 0).sum(axis=0)
    if nonzero_rows.max() == 1 and nonzero_cols.max() == 1:
        return 1.0

    joint = table / n
    p_pred = joint.sum(axis=1)
    p_truth = joint.sum(axis=0)
    h_pred = _entropy(p_pred)
    h_truth = _entropy(p_truth)
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0

    mask = joint > 0
    outer = np.outer(p_pred, p_truth)
    info = float((joint[mask] * np.log(joint[mask] / outer[mask])).sum())
    return float(min(max(info / np.sqrt(h_pred * h_truth), 0.0), 1.0))
