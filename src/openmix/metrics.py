"""Clustering metrics: optimal-assignment accuracy and NMI.

Predictions are cluster indices with no inherent alignment to true classes,
so accuracy is taken over the best one-to-one relabeling and NMI is used as
a labeling-free companion. Both are invariant under relabeling of either
side.
"""

from __future__ import annotations

import math

import numpy as np


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
    """Permutation p maximizing sum_i score[i, p[i]], computed exactly.

    Shortest augmenting paths on the negated scores (Crouse 2016, "On
    implementing 2D rectangular assignment algorithms", square case), the
    algorithm behind linear_sum_assignment. Its visiting order, float
    operation order and tie rule are kept, so a tied optimum resolves to the
    same permutation: among columns tied at the least reduced cost, the last
    unassigned one wins, else the first one. O(k^3) scalar steps; rows are
    read from the array as the search visits them.
    """
    score = np.asarray(score, dtype=np.float64)
    if score.ndim != 2 or score.shape[0] != score.shape[1]:
        raise ValueError("score matrix must be square")
    if not np.all(np.isfinite(score)):
        raise ValueError("score matrix must be finite")
    cost = -score
    k = cost.shape[0]
    u, v = [0.0] * k, [0.0] * k
    col4row, row4col, path = [-1] * k, [-1] * k, [-1] * k
    for cur in range(k):
        # Dijkstra from row cur over reduced costs until a free column is reached
        dist = [math.inf] * k
        seen_rows, seen_cols = [], []
        remaining = list(range(k - 1, -1, -1))
        min_val, i = 0.0, cur
        while True:
            seen_rows.append(i)
            row, ui = cost[i].tolist(), u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                r, d = min_val + row[j] - ui - v[j], dist[j]
                if r < d:
                    path[j] = i
                    dist[j] = d = r
                if d < lowest or (d == lowest and row4col[j] == -1):
                    lowest, index = d, it
            min_val = lowest
            j = remaining[index]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
        # dual updates, then augment back along path from the free column j
        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - dist[col4row[i]]
        for col in seen_cols:
            v[col] -= min_val - dist[col]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row, dtype=np.int64)


def best_map_hits(pred: np.ndarray, truth: np.ndarray, num_classes: int) -> np.ndarray:
    """Per row, whether its cluster maps to its class under the best relabeling."""
    pred, truth = _check_pair(pred, truth)
    if pred.max() >= num_classes or truth.max() >= num_classes:
        raise ValueError("index out of range")
    table = contingency(pred, truth, num_classes)
    perm = assignment_solver(table.astype(np.float64))
    return perm[pred] == truth


def acc(pred: np.ndarray, truth: np.ndarray, num_classes: int) -> float:
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
