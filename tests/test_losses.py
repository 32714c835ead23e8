"""Clustering losses: frozen hand values plus finite-difference gradients."""

import math

import numpy as np
import pytest

from openmix import losses, nn
from helpers import assert_grad_close, fd_grad

# scalar triple-loop oracle on Z3 below (see similarity values in the asserts)
Z3 = np.array([[2.0, 0.0, -1.0], [0.0, 1.0, 0.5], [1.5, 1.0, -0.5]])
PPL_Z3_THETA95 = 0.9663311771827424
PPL_Z3_THETA80 = 0.43733655006606165


def test_similarity_matrix_against_scalar_cosine():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(6, 4)) * 2
    s = losses.similarity_matrix(z)
    p = nn.softmax(z)
    for i in range(6):
        for j in range(6):
            want = 1.0 if i == j else float(
                p[i] @ p[j] / (np.linalg.norm(p[i]) * np.linalg.norm(p[j]))
            )
            assert abs(s[i, j] - want) < 1e-12
    assert np.array_equal(np.diag(s), np.ones(6))
    assert np.all(s >= 0) and np.all(s <= 1 + 1e-12)


def test_similarity_matrix_needs_two_rows():
    with pytest.raises(ValueError):
        losses.similarity_matrix(np.zeros((1, 3)))


def test_pair_labels_threshold_semantics():
    s = np.array([[1.0, 0.95, 0.9499999], [0.95, 1.0, 0.2], [0.9499999, 0.2, 1.0]])
    w = losses.pair_labels(s, 0.95)
    assert np.array_equal(w, np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=float))
    with pytest.raises(ValueError):
        losses.pair_labels(s, 1.0)


def test_ppl_value_identical_rows():
    # identical uniform rows: every similarity clamps to 1 - 1e-7, w all 1
    z = np.zeros((2, 2))
    s = losses.similarity_matrix(z)
    w = losses.pair_labels(s, 0.95)
    assert losses.ppl_loss_value(s, w) == pytest.approx(1.0000000494736474e-07, abs=1e-20)


def test_ppl_value_frozen_case():
    s = losses.similarity_matrix(Z3)
    # mid-range off-diagonal cosines pin both branches of the BCE
    assert s[0, 1] == pytest.approx(0.430609, abs=1e-6)
    assert s[0, 2] == pytest.approx(0.915326, abs=1e-6)
    assert s[1, 2] == pytest.approx(0.731888, abs=1e-6)
    w95 = losses.pair_labels(s, 0.95)
    assert losses.ppl_loss_value(s, w95) == pytest.approx(PPL_Z3_THETA95, abs=1e-12)
    w80 = losses.pair_labels(s, 0.8)
    assert losses.ppl_loss_value(s, w80) == pytest.approx(PPL_Z3_THETA80, abs=1e-12)


def test_ppl_loss_value_matches_grad_path():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(5, 4)) * 2
    s = losses.similarity_matrix(z)
    w = losses.pair_labels(s, 0.95)
    value_only = losses.ppl_loss_value(s, w)
    value, _ = losses.ppl_loss(z, w)
    assert value == value_only


def test_ppl_gradient_finite_difference():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        c = int(rng.integers(3, 6))
        z = rng.normal(size=(n, c)) * 2
        w = losses.pair_labels(losses.similarity_matrix(z), 0.95)
        _, grad = losses.ppl_loss(z, w)
        numeric = fd_grad(lambda zz: losses.ppl_loss(zz, w)[0], z)
        assert_grad_close(grad, numeric)


def test_ppl_diagonal_contributes_no_gradient():
    # diagonal similarity is pinned at 1 and clamped, so it must be masked
    z = np.array([[5.0, -5.0], [-5.0, 5.0]])
    w = np.eye(2)
    _, grad = losses.ppl_loss(z, w)
    numeric = fd_grad(lambda zz: losses.ppl_loss(zz, w)[0], z)
    assert_grad_close(grad, numeric)


def test_pseudo_labels_assignment():
    # rows sit clearly on either side of theta2: softmax(log p) only recovers
    # p up to rounding, so a row at exactly 0.9 could land on either side
    z = np.log(np.array([[0.91, 0.05, 0.04], [0.4, 0.35, 0.25], [0.04, 0.92, 0.04]]))
    labels, assigned = losses.pseudo_labels(z, 0.9)
    assert np.array_equal(assigned, np.array([True, False, True]))
    assert np.array_equal(labels[0], np.array([1.0, 0, 0]))
    assert np.array_equal(labels[1], np.zeros(3))
    assert np.array_equal(labels[2], np.array([0, 1.0, 0]))
    # theta2 > 0.5 makes assignments unique
    assert labels.sum(axis=1).max() <= 1.0
    with pytest.raises(ValueError):
        losses.pseudo_labels(z, 0.5)


def test_pll_single_example_frozen():
    # softmax recovers [0.92, .04, .04] up to rounding, safely above theta2;
    # loss = -log 0.92 on the one assigned row
    z = np.log(np.array([[0.92, 0.04, 0.04], [0.34, 0.33, 0.33]]))
    labels, assigned = losses.pseudo_labels(z, 0.9)
    assert list(assigned) == [True, False]
    loss, grad = losses.pll_loss(z, labels, assigned)
    assert loss == pytest.approx(0.08338160893905101, abs=1e-12)
    assert np.array_equal(grad[1], np.zeros(3))


def test_pll_empty_assignment_is_zero():
    z = np.zeros((4, 3))
    labels, assigned = losses.pseudo_labels(z, 0.9)
    assert not assigned.any()
    loss, grad = losses.pll_loss(z, labels, assigned)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros((4, 3)))


def test_pll_normalizes_by_assigned_count():
    z = np.log(np.array([[0.9, 0.05, 0.05], [0.9, 0.05, 0.05]]))
    labels, assigned = losses.pseudo_labels(z, 0.9)
    both, _ = losses.pll_loss(z, labels, assigned)
    one, _ = losses.pll_loss(z[:1], labels[:1], assigned[:1])
    assert both == pytest.approx(one, abs=1e-15)


def test_pll_gradient_finite_difference():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        c = int(rng.integers(3, 6))
        z = rng.normal(size=(n, c)) * 3
        labels, assigned = losses.pseudo_labels(z, 0.9)
        loss, grad = losses.pll_loss(z, labels, assigned)
        numeric = fd_grad(lambda zz: losses.pll_loss(zz, labels, assigned)[0], z)
        assert_grad_close(grad, numeric)
        checked += int(assigned.any())
    assert checked >= 5  # the loop must exercise nonempty assignments


def test_cross_entropy_frozen_and_gradient():
    z = np.array([[1.0, 2.0, 3.0]])
    y = np.array([[1.0, 0.0, 0.0]])
    loss, grad = losses.cross_entropy(z, y)
    assert loss == pytest.approx(2.4076059644443806, abs=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        c = int(rng.integers(2, 5))
        z = rng.normal(size=(n, c)) * 2
        y = np.zeros((n, c))
        y[np.arange(n), rng.integers(0, c, size=n)] = 1.0
        loss, grad = losses.cross_entropy(z, y)
        numeric = fd_grad(lambda zz: losses.cross_entropy(zz, y)[0], z)
        assert_grad_close(grad, numeric)
    with pytest.raises(ValueError):
        losses.cross_entropy(np.zeros((0, 2)), np.zeros((0, 2)))


def test_cross_entropy_large_logits_stable():
    z = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
    y = np.array([[1.0, 0.0], [1.0, 0.0]])
    loss, grad = losses.cross_entropy(z, y)
    assert math.isfinite(loss)
    assert np.all(np.isfinite(grad))
