"""Clustering accuracy and NMI against brute force and a second implementation."""

import itertools
import math

import numpy as np
import pytest

from openmix import metrics


def brute_force_acc(pred, truth, k):
    """Try every cluster-to-class permutation; exponential but exact."""
    best = 0
    for perm in itertools.permutations(range(k)):
        hits = sum(int(perm[p] == t) for p, t in zip(pred, truth))
        best = max(best, hits)
    return best / len(pred)


def nmi_reference(pred, truth):
    """Histogram/entropy NMI written independently of the package version."""
    n = len(pred)
    clusters = sorted(set(pred))
    classes = sorted(set(truth))
    counts = {}
    for p, t in zip(pred, truth):
        counts[(p, t)] = counts.get((p, t), 0) + 1
    pc = {c: sum(1 for p in pred if p == c) / n for c in clusters}
    tc = {c: sum(1 for t in truth if t == c) / n for c in classes}
    info = 0.0
    for (p, t), c in counts.items():
        pj = c / n
        info += pj * math.log(pj / (pc[p] * tc[t]))
    hp = -sum(v * math.log(v) for v in pc.values() if v > 0)
    ht = -sum(v * math.log(v) for v in tc.values() if v > 0)
    if hp == 0.0 or ht == 0.0:
        # single cluster on both sides is the identical partition; one-sided
        # degeneracy scores 0
        return 1.0 if (hp == 0.0 and ht == 0.0) else 0.0
    return min(max(info / math.sqrt(hp * ht), 0.0), 1.0)


def test_contingency_hand_case():
    pred = np.array([0, 0, 1, 1, 2])
    truth = np.array([1, 1, 0, 1, 2])
    table = metrics.contingency(pred, truth, 3)
    want = np.array([[0, 2, 0], [1, 1, 0], [0, 0, 1]])
    assert np.array_equal(table, want)


@pytest.mark.parametrize("n, k", [(1, 1), (50, 1), (7, 9), (1000, 10), (25_000, 5)])
def test_contingency_matches_add_at_counts(n, k):
    # with k = 9 and 7 rows most classes never occur on either side
    rng = np.random.default_rng(n + k)
    pred, truth = rng.integers(0, k, size=n), rng.integers(0, k, size=n)
    want = np.zeros((k, k), dtype=np.int64)
    np.add.at(want, (pred, truth), 1)
    table = metrics.contingency(pred, truth, k)
    assert table.dtype == np.int64 and table.shape == (k, k)
    assert np.array_equal(table, want)


def test_check_pair_rejections():
    with pytest.raises(ValueError):
        metrics.acc(np.array([0, 1]), np.array([0]), num_classes=2)
    with pytest.raises(ValueError):
        metrics.acc(np.array([], dtype=int), np.array([], dtype=int), num_classes=2)
    with pytest.raises(ValueError):
        metrics.acc(np.array([-1, 0]), np.array([0, 1]), num_classes=2)
    with pytest.raises(ValueError):
        metrics.acc(np.array([0, 3]), np.array([0, 1]), num_classes=2)


def test_assignment_solver_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        score = rng.normal(size=(k, k))
        perm = metrics.assignment_solver(score)
        got = score[np.arange(k), perm].sum()
        best = max(
            sum(score[i, p[i]] for i in range(k))
            for p in itertools.permutations(range(k))
        )
        assert got == pytest.approx(best, abs=1e-12)
        assert sorted(perm) == list(range(k))
    with pytest.raises(ValueError):
        metrics.assignment_solver(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        metrics.assignment_solver(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_assignment_solver_matches_linear_sum_assignment():
    # element for element, not only in value: a tied optimum must resolve to
    # the same permutation, since anchor accuracy reads which cluster maps to
    # which class. Small-integer tables and empty clusters tie often.
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(12)
    tables = []
    for high in (1, 3, 50):
        for k in range(1, 9):
            for _ in range(220):
                table = rng.integers(0, high + 1, size=(k, k)).astype(np.float64)
                if rng.random() < 0.3:
                    table[rng.integers(0, k, size=rng.integers(1, k + 1))] = 0.0
                tables.append(table)
    for k in range(1, 9):
        for _ in range(50):
            tables.append(rng.normal(size=(k, k)))
            tables.append(rng.uniform(0.0, 4.0, size=(k, k)).round(1))
    for k in (20, 60):
        for _ in range(2):
            tables.append(rng.integers(0, 4, size=(k, k)).astype(np.float64))
            tables.append(rng.normal(size=(k, k)))
    for table in tables:
        _, cols = optimize.linear_sum_assignment(table, maximize=True)
        assert metrics.assignment_solver(table).tolist() == cols.tolist(), table


def test_acc_hand_cases():
    truth = np.array([0, 0, 1, 1, 2, 2])
    assert metrics.acc(truth, truth, num_classes=3) == 1.0
    relabeled = np.array([2, 2, 0, 0, 1, 1])
    assert metrics.acc(relabeled, truth, num_classes=3) == 1.0
    one_wrong = np.array([0, 0, 1, 1, 2, 1])
    assert metrics.acc(one_wrong, truth, num_classes=3) == pytest.approx(5 / 6)


def test_best_map_hits_hand_case():
    # clusters are a relabeling: cluster 0 -> class 1, cluster 1 -> class 0
    truth = np.array([1, 1, 0, 0])
    hits = metrics.best_map_hits(np.array([0, 0, 1, 1]), truth, 2)
    assert hits.tolist() == [True, True, True, True]
    # move row 3 to cluster 0: the map is kept and row 3 now disagrees with it
    hits = metrics.best_map_hits(np.array([0, 0, 1, 0]), truth, 2)
    assert hits.tolist() == [True, True, True, False]
    assert hits[[0, 3]].mean() == 0.5


def test_acc_matches_brute_force_random():
    rng = np.random.default_rng(1)
    for _ in range(40):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(3, 30))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        got = metrics.acc(pred, truth, num_classes=k)
        assert got == brute_force_acc(pred.tolist(), truth.tolist(), k)


def test_acc_relabel_invariance():
    rng = np.random.default_rng(2)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(5, 40))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        relabel = rng.permutation(k)
        assert metrics.acc(relabel[pred], truth, num_classes=k) == metrics.acc(
            pred, truth, num_classes=k
        )


def test_nmi_identical_partitions_exactly_one():
    truth = np.array([0, 0, 1, 1, 2])
    assert metrics.nmi(truth, truth) == 1.0
    assert metrics.nmi(np.array([2, 2, 0, 0, 1]), truth) == 1.0
    # single shared cluster on both sides counts as identical
    assert metrics.nmi(np.zeros(4, dtype=int), np.zeros(4, dtype=int)) == 1.0


def test_nmi_degenerate_side_is_zero():
    truth = np.array([0, 0, 1, 1])
    assert metrics.nmi(np.zeros(4, dtype=int), truth) == 0.0
    assert metrics.nmi(truth, np.zeros(4, dtype=int)) == 0.0


def test_nmi_matches_reference_random():
    rng = np.random.default_rng(3)
    for _ in range(60):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(4, 60))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        got = metrics.nmi(pred, truth)
        want = nmi_reference(pred.tolist(), truth.tolist())
        assert got == pytest.approx(want, abs=1e-10)
        assert 0.0 <= got <= 1.0


def test_nmi_relabel_invariance():
    rng = np.random.default_rng(4)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(5, 40))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        relabel = rng.permutation(k)
        assert metrics.nmi(relabel[pred], truth) == pytest.approx(
            metrics.nmi(pred, truth), abs=1e-12
        )
