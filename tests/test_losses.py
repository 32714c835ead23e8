"""Clustering losses: frozen hand values plus finite-difference gradients."""

import math

import numpy as np
import pytest

import train_reference
from openmix import losses, nn
from helpers import assert_grad_close, cosine_similarity, fd_grad, pll_reference, ppl_reference

# scalar triple-loop oracle on Z3 below (see similarity values in the asserts)
Z3 = np.array([[2.0, 0.0, -1.0], [0.0, 1.0, 0.5], [1.5, 1.0, -0.5]])
PPL_Z3_THETA95 = 0.9663311771827424
PPL_Z3_THETA80 = 0.43733655006606165


def fused(z, theta1=0.95, theta2=0.9):
    return losses.clustering_losses(z, theta1, theta2)


def cosines(z):
    return cosine_similarity(nn.softmax(z))


def test_similarity_matrix_against_scalar_cosine():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(6, 4)) * 2
    s = cosines(z)
    p = nn.softmax(z)
    for i in range(6):
        for j in range(6):
            want = 1.0 if i == j else float(
                p[i] @ p[j] / (np.linalg.norm(p[i]) * np.linalg.norm(p[j]))
            )
            assert abs(s[i, j] - want) < 1e-12
    assert np.array_equal(np.diag(s), np.ones(6))
    assert np.all(s >= 0) and np.all(s <= 1 + 1e-12)


def test_clustering_losses_one_row():
    # a 1-row batch (a short last batch) is valid: PPL is the clamped
    # diagonal term alone and has no gradient
    z = np.array([[2.0, 0.0, -1.0]])
    ppl, g_ppl, pll, g_pll = fused(z, theta2=0.8)
    assert ppl == ppl_reference(np.ones((1, 1)), np.ones((1, 1)))
    assert ppl == pytest.approx(-math.log(1.0 - losses.CLAMP), abs=1e-20)
    assert np.array_equal(g_ppl, np.zeros((1, 3)))
    p = nn.softmax(z)
    assert p[0, 0] > 0.8
    assert pll == pytest.approx(-math.log(p[0, 0]), abs=1e-12)
    np.testing.assert_allclose(g_pll, p - np.array([[1.0, 0, 0]]), rtol=0, atol=1e-15)


def test_pair_labels_threshold_semantics():
    # theta1 set to an actual similarity: that pair counts as 1 (ties are in)
    s = cosines(Z3)
    tie = s[0, 2]
    w_in = (s >= tie).astype(float)
    w_out = (s > tie).astype(float)
    assert w_in[0, 2] == 1.0 and w_out[0, 2] == 0.0
    assert np.array_equal(w_in, np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1]], dtype=float))
    ppl = fused(Z3, theta1=tie)[0]
    assert ppl == ppl_reference(s, w_in)
    assert ppl != ppl_reference(s, w_out)
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            fused(Z3, theta1=bad)


def test_ppl_value_identical_rows():
    # identical uniform rows: every similarity clamps to 1 - 1e-7, w all 1
    z = np.zeros((2, 2))
    assert fused(z)[0] == pytest.approx(1.0000000494736474e-07, abs=1e-20)


def test_ppl_value_frozen_case():
    s = cosines(Z3)
    # mid-range off-diagonal cosines pin both branches of the BCE
    assert s[0, 1] == pytest.approx(0.430609, abs=1e-6)
    assert s[0, 2] == pytest.approx(0.915326, abs=1e-6)
    assert s[1, 2] == pytest.approx(0.731888, abs=1e-6)
    assert fused(Z3, theta1=0.95)[0] == pytest.approx(PPL_Z3_THETA95, abs=1e-12)
    assert fused(Z3, theta1=0.8)[0] == pytest.approx(PPL_Z3_THETA80, abs=1e-12)


def test_ppl_loss_value_matches_grad_path():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(5, 4)) * 2
    s = cosines(z)
    w = (s >= 0.95).astype(float)
    value_only = ppl_reference(s, w)
    value = fused(z)[0]
    assert value == value_only


def test_clustering_losses_match_two_log_reference():
    # the one-log value and gradient equal the two-log forms bit for bit,
    # over 1-row batches, duplicated rows and clamp-saturated peaked rows
    rng = np.random.default_rng(11)
    saturated = 0
    for trial in range(200):
        n = 1 if trial % 10 == 0 else int(rng.integers(2, 10))
        c = int(rng.integers(2, 7))
        z = rng.normal(size=(n, c)) * [0.5, 2.0, 40.0][trial % 3]
        if n > 2 and trial % 4 == 0:
            z[1] = z[0]
        theta1 = float(rng.uniform(0.3, 0.99))
        theta2 = float(rng.uniform(0.55, 0.95))
        got = losses.clustering_losses(z, theta1, theta2)
        want = train_reference.clustering_losses(z, theta1, theta2)
        assert got[0] == want[0] and got[2] == want[2]
        assert got[1].tobytes() == want[1].tobytes()
        assert got[3].tobytes() == want[3].tobytes()
        s = cosines(z)
        saturated += int(((s < losses.CLAMP) | (s > 1.0 - losses.CLAMP)).sum() > n)
    assert saturated >= 20  # off-diagonal clamping must be exercised


def test_ppl_gradient_finite_difference():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        c = int(rng.integers(3, 6))
        z = rng.normal(size=(n, c)) * 2
        w = (cosines(z) >= 0.95).astype(float)
        grad = fused(z)[1]
        numeric = fd_grad(lambda zz: ppl_reference(cosines(zz), w), z)
        assert_grad_close(grad, numeric)


def test_ppl_diagonal_contributes_no_gradient():
    # diagonal similarity is pinned at 1 and clamped, so it must be masked
    z = np.array([[5.0, -5.0], [-5.0, 5.0]])
    w = np.eye(2)
    assert np.array_equal((cosines(z) >= 0.95).astype(float), w)
    grad = fused(z)[1]
    numeric = fd_grad(lambda zz: ppl_reference(cosines(zz), w), z)
    assert_grad_close(grad, numeric)


def test_pseudo_labels_assignment():
    # rows sit clearly on either side of theta2: softmax(log p) only recovers
    # p up to rounding, so a row at exactly 0.9 could land on either side
    z = np.log(np.array([[0.91, 0.05, 0.04], [0.4, 0.35, 0.25], [0.04, 0.92, 0.04]]))
    labels, assigned = losses.pseudo_labels(nn.softmax(z), 0.9)
    assert np.array_equal(assigned, np.array([True, False, True]))
    assert np.array_equal(labels[0], np.array([1.0, 0, 0]))
    assert np.array_equal(labels[1], np.zeros(3))
    assert np.array_equal(labels[2], np.array([0, 1.0, 0]))
    # theta2 > 0.5 makes assignments unique
    assert labels.sum(axis=1).max() <= 1.0
    with pytest.raises(ValueError):
        losses.pseudo_labels(nn.softmax(z), 0.5)
    # the fused call trains on the same assignment: g_pll = (p - label) / n_hat
    # is negative exactly at each assigned row's one label and zero elsewhere
    _, _, pll, g_pll = fused(z)
    assert np.array_equal(g_pll.any(axis=1), assigned)
    assert np.array_equal(g_pll < 0, labels.astype(bool))
    assert (g_pll < 0).sum(axis=1).max() <= 1
    assert pll == pytest.approx(-(math.log(0.91) + math.log(0.92)) / 2, abs=1e-12)
    with pytest.raises(ValueError):
        fused(z, theta2=0.5)


def test_pll_single_example_frozen():
    # softmax recovers [0.92, .04, .04] up to rounding, safely above theta2;
    # loss = -log 0.92 on the one assigned row
    z = np.log(np.array([[0.92, 0.04, 0.04], [0.34, 0.33, 0.33]]))
    _, _, loss, grad = fused(z)
    assert list(grad.any(axis=1)) == [True, False]
    assert loss == pytest.approx(0.08338160893905101, abs=1e-12)
    assert np.array_equal(grad[1], np.zeros(3))


def test_pll_empty_assignment_is_zero():
    z = np.zeros((4, 3))
    _, assigned = losses.pseudo_labels(nn.softmax(z), 0.9)
    assert not assigned.any()
    _, _, loss, grad = fused(z)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros((4, 3)))


def test_pll_normalizes_by_assigned_count():
    z = np.log(np.array([[0.9, 0.05, 0.05], [0.9, 0.05, 0.05]]))
    both = fused(z)[2]
    one = fused(z[:1])[2]
    assert both == pytest.approx(one, abs=1e-15)


def test_pll_gradient_finite_difference():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        c = int(rng.integers(3, 6))
        z = rng.normal(size=(n, c)) * 3
        labels, assigned = losses.pseudo_labels(nn.softmax(z), 0.9)
        loss, grad = fused(z)[2:]
        assert loss == pll_reference(z, labels, assigned)
        numeric = fd_grad(lambda zz: pll_reference(zz, labels, assigned), z)
        assert_grad_close(grad, numeric)
        checked += int(assigned.any())
    assert checked >= 5  # the loop must exercise nonempty assignments


def test_clustering_losses_one_softmax_per_batch(monkeypatch):
    # one exp pass (softmax and log-softmax) serves both losses
    z = np.log(np.array([[0.91, 0.05, 0.04], [0.4, 0.35, 0.25], [0.04, 0.92, 0.04]]))
    want = fused(z)
    calls = 0
    inner = losses.shifted_exp

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(losses, "shifted_exp", counting)
    got = fused(z)
    assert calls == 1
    assert got[0] == want[0] and got[2] == want[2]
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[3], want[3])
    fused(np.zeros((4, 3)))  # nothing assigned
    assert calls == 2


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


def test_cross_entropy_matches_two_pass_route():
    rng = np.random.default_rng(12)
    for scale in (1.0, 30.0, 1000.0):
        for _ in range(10):
            n, c = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            z = rng.normal(size=(n, c)) * scale
            y = np.zeros((n, c))
            y[np.arange(n), rng.integers(0, c, size=n)] = 1.0
            loss, grad = losses.cross_entropy(z, y)
            want_loss, want_grad = train_reference.cross_entropy(z, y)
            assert loss == want_loss
            assert grad.tobytes() == want_grad.tobytes()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            losses.cross_entropy(np.array([[0.0, bad]]), np.array([[1.0, 0.0]]))


def test_cross_entropy_large_logits_stable():
    z = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
    y = np.array([[1.0, 0.0], [1.0, 0.0]])
    loss, grad = losses.cross_entropy(z, y)
    assert math.isfinite(loss)
    assert np.all(np.isfinite(grad))
