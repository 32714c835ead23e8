"""Joint labels, Beta mixing, anchors, and the L2 mixing loss."""

import numpy as np
import pytest

import mixing_reference
from openmix import losses, mixing, nn
from helpers import assert_grad_close, fd_grad, traced_peak

def no_anchors(c_u):
    """The empty anchor set, as select_anchors returns it for c_u new classes."""
    return mixing.AnchorSet(np.empty(0, np.int64), np.zeros((0, c_u)))


def build_labeled(size, labeled_x, onehot, unlabeled_x, pred, anchors, epsilon, rng, **kw):
    """build_mixed_batch then mixed_labels with the drawn rows of a (N, C_u) prediction table.

    Returns (m, v, eta_star, from_labeled).
    """
    batch = mixing.build_mixed_batch(
        size, labeled_x, onehot, unlabeled_x, anchors, epsilon, rng, **kw
    )
    v = mixing.mixed_labels(batch, np.asarray(pred, dtype=np.float64)[batch.unl_rows])
    return batch.m, v, batch.eta_star, batch.from_labeled


def one_source_batch(size, labeled_x, onehot, unlabeled_x, pred, anchors, seed=0):
    """A batch from the labeled source alone, or the anchors alone when there are any."""
    return build_labeled(
        size, np.asarray(labeled_x, float), np.asarray(onehot, float),
        np.asarray(unlabeled_x, float), pred, anchors, 1.0,
        np.random.default_rng(seed), use_labeled=len(anchors) == 0,
        use_anchors=len(anchors) > 0,
    )


def test_extend_labeled_layout():
    # labeled rows sit in the old block and the prediction in the new one
    onehot = np.array([[0.0, 1.0, 0.0]])
    pred = np.array([[0.25, 0.75]])
    _, v, eta_star, _ = one_source_batch(
        5, np.zeros((1, 2)), onehot, np.zeros((1, 2)), pred, no_anchors(2)
    )
    w = eta_star[:, None]
    assert np.array_equal(v[:, :3], w * onehot)
    assert np.array_equal(v[:, 3:], (1 - w) * pred)
    for bad in ([[0.5, 0.5, 0.0]], [[1.0, 1.0, 0.0]]):
        with pytest.raises(ValueError, match="one-hot"):
            one_source_batch(5, np.zeros((1, 2)), bad, np.zeros((1, 2)), pred, no_anchors(2))


def test_extend_unlabeled_layout():
    # anchor labels and predictions both sit in the new block
    label_a = np.array([[0.25, 0.75]])
    pred = np.array([[0.5, 0.5]])
    anchors = mixing.AnchorSet(np.array([0]), label_a)
    _, v, eta_star, _ = one_source_batch(5, np.zeros((1, 2)), np.eye(3)[:1], np.zeros((1, 2)),
                                         pred, anchors)
    w = eta_star[:, None]
    assert np.array_equal(v[:, :3], np.zeros((5, 3)))
    assert np.array_equal(v[:, 3:], w * label_a + (1 - w) * pred)
    for bad in ([[0.5, 0.6]], [[-0.1, 1.1]], [[np.nan, 1.0]]):
        with pytest.raises(ValueError, match="predictions"):
            one_source_batch(
                5, np.zeros((1, 2)), np.eye(3)[:1], np.zeros((1, 2)), bad, no_anchors(2)
            )
        with pytest.raises(ValueError, match="anchor labels"):
            one_source_batch(5, np.zeros((1, 2)), np.eye(3)[:1], np.zeros((1, 2)), pred,
                             mixing.AnchorSet(np.array([0]), np.array(bad)))


def test_sample_mix_weight_fold_and_range():
    rng = np.random.default_rng(0)
    for _ in range(500):
        eta, eta_star = mixing.sample_mix_weight(1.0, rng)
        assert 0.0 <= eta <= 1.0
        assert eta_star == max(eta, 1.0 - eta)
        assert 0.5 <= eta_star <= 1.0
    with pytest.raises(ValueError):
        mixing.sample_mix_weight(0.0, rng)


@pytest.mark.parametrize("epsilon", [0.2, 0.5, 1.0, 2.0])
def test_sample_mix_weight_size_equals_scalar_draws(epsilon):
    scalar_rng, batch_rng = np.random.default_rng(11), np.random.default_rng(11)
    want = [mixing.sample_mix_weight(epsilon, scalar_rng) for _ in range(33)]
    eta, eta_star = mixing.sample_mix_weight(epsilon, batch_rng, 33)
    assert np.array_equal(eta, [e for e, _ in want])
    assert np.array_equal(eta_star, [s for _, s in want])
    assert scalar_rng.random() == batch_rng.random()


def test_mix_weight_mean_at_epsilon_one():
    # eta ~ Uniform(0,1) when epsilon=1, so E[max(eta, 1-eta)] = 3/4
    rng = np.random.default_rng(1)
    draws = np.array([mixing.sample_mix_weight(1.0, rng)[1] for _ in range(100_000)])
    assert abs(draws.mean() - 0.75) < 0.01


def test_sample_mix_weight_seeded():
    a = mixing.sample_mix_weight(1.0, np.random.default_rng(7))
    b = mixing.sample_mix_weight(1.0, np.random.default_rng(7))
    assert a == b


def test_mix_with_labeled_structure():
    x_l = np.array([[1.0, 0.0, 2.0]])
    x_u = np.array([[0.0, 4.0, -2.0]])
    onehot = np.array([[0.0, 1.0]])
    pred = np.array([[0.3, 0.7, 0.0]])
    batch = one_source_batch(8, x_l, onehot, x_u, pred, no_anchors(3), seed=2)
    m, v, eta_star, from_labeled = batch
    assert from_labeled.all()
    w = eta_star[:, None]
    np.testing.assert_array_equal(m, w * x_l + (1 - w) * x_u)
    # old block carries exactly eta_star of mass, new block the rest
    assert np.array_equal(v[:, :2].sum(axis=1), eta_star)
    np.testing.assert_allclose(v[:, 2:], (1 - w) * pred, rtol=0, atol=1e-15)
    assert np.abs(v.sum(axis=1) - 1.0).max() < 1e-12


def test_mix_with_anchor_structure():
    # the anchor is row 0 of the pool; each mixed row draws row 0 or row 1
    pool = np.array([[1.0, 1.0], [-1.0, 0.0]])
    label_a = np.array([[1.0, 0.0, 0.0]])
    preds = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
    anchors = mixing.AnchorSet(np.array([0]), label_a)
    batch = mixing.build_mixed_batch(
        8, np.zeros((1, 2)), np.eye(2)[:1], pool, anchors, 1.0,
        np.random.default_rng(3), use_labeled=False, use_anchors=True,
    )
    m, eta_star, from_labeled, rows = batch.m, batch.eta_star, batch.from_labeled, batch.unl_rows
    v = mixing.mixed_labels(batch, preds[rows])
    assert not from_labeled.any()
    w = eta_star[:, None]
    np.testing.assert_array_equal(m, w * pool[0] + (1 - w) * pool[rows])
    # the old-class block is exactly zero for anchor mixes
    assert np.array_equal(v[:, :2], np.zeros((8, 2)))
    np.testing.assert_allclose(
        v[:, 2:], w * label_a + (1 - w) * preds[rows], rtol=0, atol=1e-15
    )
    assert np.abs(v.sum(axis=1) - 1.0).max() < 1e-12


def test_select_anchors_threshold_and_labels():
    # confident rows sit clearly above theta2: softmax(log p) recovers p only
    # up to rounding, so a row at exactly 0.9 could land on either side
    z = np.log(np.array([[0.95, 0.03, 0.02], [0.5, 0.3, 0.2], [0.04, 0.04, 0.92]]))
    anchors = mixing.select_anchors(z, 0.9)
    assert np.array_equal(anchors.indices, np.array([0, 2]))
    assert np.array_equal(anchors.labels, np.array([[1.0, 0, 0], [0, 0, 1.0]]))
    empty = mixing.select_anchors(np.zeros((3, 3)), 0.9)
    assert len(empty) == 0
    # a max probability of exactly theta2 is picked: theta2 is row 0's own softmax
    # maximum (0.8807970779778823), an exact tie that softmax(log p) would not give
    z = np.array([[2.0, 0.0], [0.0, 0.0]])
    tie = mixing.select_anchors(z, float(nn.softmax(z)[0].max()))
    assert np.array_equal(tie.indices, [0]) and np.array_equal(tie.labels, [[1.0, 0.0]])


@pytest.mark.parametrize("theta2", [0.55, 0.9, 0.999])
def test_select_anchors_agrees_with_pseudo_labels_on_the_whole_pool(theta2):
    # rows picked by their max probability, labeled by pseudo_labels on those rows
    # alone: the same anchors as pseudo_labels over every row of the pool
    z = np.random.default_rng(3).normal(size=(2000, 4)) * 3
    labels, assigned = losses.pseudo_labels(nn.softmax(z), theta2)
    anchors = mixing.select_anchors(z, theta2)
    assert 0 < len(anchors) < len(z)
    assert np.array_equal(anchors.indices, np.flatnonzero(assigned))
    assert np.array_equal(anchors.labels, labels[assigned])


def test_select_anchors_peak_memory():
    # 25 000 x 5 logits (1 MB): the softmax's shifted logits and exponentials, traced
    # at 2.2 MB; with a pool-sized mask and float label array beside them, 3.3 MB
    z = np.random.default_rng(0).normal(size=(25_000, 5)) * 4
    peak = traced_peak(lambda: mixing.select_anchors(z, 0.9))
    assert peak < 2.5e6, f"peak {peak / 1e6:.1f} MB"


def mixing_inputs(seed=4, n_lab=10, n_unl=12, c_l=2, c_u=3, dim=4):
    rng = np.random.default_rng(seed)
    labeled_x = rng.normal(size=(n_lab, dim))
    labeled_onehot = np.eye(c_l)[rng.integers(0, c_l, size=n_lab)]
    unlabeled_x = rng.normal(size=(n_unl, dim))
    pred_u = nn.softmax(rng.normal(size=(n_unl, c_u)))
    return labeled_x, labeled_onehot, unlabeled_x, pred_u


def test_build_mixed_batch_sources_and_determinism():
    labeled_x, labeled_onehot, unlabeled_x, pred_u = mixing_inputs()
    anchors = mixing.AnchorSet(np.array([0, 5]), np.eye(3)[[0, 1]].astype(float))

    def build(size, anchors, use_labeled, use_anchors):
        return build_labeled(
            size, labeled_x, labeled_onehot, unlabeled_x, pred_u, anchors, 1.0,
            np.random.default_rng(9), use_labeled=use_labeled, use_anchors=use_anchors,
        )

    m, v, eta_star, from_labeled = build(200, anchors, True, True)
    assert m.shape == (200, 4) and v.shape == (200, 5)
    assert eta_star.shape == from_labeled.shape == (200,)
    assert from_labeled.any() and not from_labeled.all()
    n_lab = int(from_labeled.sum())
    assert 60 < n_lab < 140  # fair coin

    again = build(200, anchors, True, True)
    assert np.array_equal(m, again[0]) and np.array_equal(v, again[1])

    assert build(50, no_anchors(3), True, False)[3].all()
    assert not build(50, anchors, False, True)[3].any()


REFERENCE_CASES = {
    "both sources": dict(size=64, use_labeled=True, use_anchors=True),
    "labeled only": dict(size=64, use_labeled=True, use_anchors=False),
    "anchors only": dict(size=64, use_labeled=False, use_anchors=True),
    "epsilon 0.3, odd size": dict(size=17, epsilon=0.3, use_labeled=True, use_anchors=True),
    "epsilon 2": dict(size=33, epsilon=2.0, use_labeled=True, use_anchors=True),
    "one row": dict(size=1, use_labeled=True, use_anchors=True),
    "repeated unlabeled rows": dict(size=64, n_unl=3, use_labeled=True, use_anchors=True),
    # every anchor draw has size 0 and must leave the rng as it was
    "labeled only, empty anchor set": dict(
        size=64, no_anchors=True, use_labeled=True, use_anchors=False
    ),
    # -0.0 passes the label checks; w * -0.0 + (1 - w) * 0.0 is +0.0 in the reference
    "-0.0 in label zeros": dict(size=64, negative_zeros=True, use_labeled=True, use_anchors=True),
}


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_build_mixed_batch_matches_per_row_reference(case):
    kw = dict(REFERENCE_CASES[case])
    size, epsilon = kw.pop("size"), kw.pop("epsilon", 1.0)
    n_unl = kw.pop("n_unl", 12)
    labeled_x, labeled_onehot, unlabeled_x, pred_u = mixing_inputs(n_unl=n_unl)
    if kw.pop("no_anchors", False):
        anchors = no_anchors(3)
    else:
        pool_logits = np.random.default_rng(8).normal(size=(n_unl, 3)) * 4
        anchors = mixing.select_anchors(pool_logits, 0.6)
        assert len(anchors) > 0
    if kw.pop("negative_zeros", False):
        labeled_onehot = np.where(labeled_onehot == 0.0, -0.0, labeled_onehot)
        anchors = mixing.AnchorSet(
            anchors.indices, np.where(anchors.labels == 0.0, -0.0, anchors.labels)
        )
        assert np.signbit(labeled_onehot).any() and np.signbit(anchors.labels).any()

    class Recorder:
        """pred_u for the reference: records every row it is asked for."""

        def __init__(self):
            self.rows = []

        def __getitem__(self, j):
            self.rows.append(int(j))
            return pred_u[j]

    ref_rng = np.random.default_rng(21)
    recorder = Recorder()
    want = mixing_reference.stack(mixing_reference.build_mixed_batch(
        size, labeled_x, labeled_onehot, unlabeled_x, recorder, anchors, epsilon, ref_rng, **kw,
    ))
    ref_state = ref_rng.bit_generator.state

    # every draw is done by build_mixed_batch; mixed_labels draws nothing
    rng = np.random.default_rng(21)
    batch = mixing.build_mixed_batch(
        size, labeled_x, labeled_onehot, unlabeled_x, anchors, epsilon, rng, **kw,
    )
    assert rng.bit_generator.state == ref_state
    assert np.array_equal(batch.unl_rows, recorder.rows)
    v = mixing.mixed_labels(batch, pred_u[batch.unl_rows])
    assert rng.bit_generator.state == ref_state
    got = (batch.m, v, batch.eta_star, batch.from_labeled)
    for name, g, w in zip(("m", "v", "eta_star", "from_labeled"), got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
    assert rng.random() == ref_rng.random()


def test_batch_label_checks_agree_with_per_row_reference():
    # a batch passes exactly when every row passes the row-at-a-time check
    one_hot_rows = [[1.0, 0.0, 0.0], [0.0, -0.0, 1.0], [1.0, 1.0, 0.0], [0.5, 0.5, 0.0],
                    [np.nan, 1.0, 0.0], [np.inf, 1.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                    [1.0, -1e-300, 0.0], [1.0, 0.0, -1.0]]
    simplex_rows = [[0.25, 0.75, 0.0], [0.5, 0.6, 0.0], [-0.1, 1.1, 0.0], [1.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [np.inf, 0.0, 0.0]]
    for rows, batch_check, row_check in (
        (one_hot_rows, mixing._check_one_hot, mixing_reference._check_one_hot),
        (simplex_rows, lambda y: mixing._check_simplex(y, "labels"),
         mixing_reference._check_simplex),
    ):
        def passes(check, y):
            try:
                check(y)
            except ValueError:
                return False
            return True

        for a in rows:
            for b in rows:
                want = passes(row_check, np.array(a)) and passes(row_check, np.array(b))
                assert passes(batch_check, np.array([a, b])) == want, (a, b)
        assert passes(batch_check, np.zeros((0, 3)))


def test_build_mixed_batch_rejections():
    x = np.zeros((2, 3))
    onehot = np.eye(2)
    rng = np.random.default_rng(0)
    none = no_anchors(2)
    with pytest.raises(ValueError, match="empty anchor set"):
        mixing.build_mixed_batch(
            4, x, onehot, x, none, 1.0, rng, use_labeled=False, use_anchors=True,
        )
    with pytest.raises(ValueError, match="at least one"):
        mixing.build_mixed_batch(
            4, x, onehot, x, none, 1.0, rng, use_labeled=False, use_anchors=False,
        )
    with pytest.raises(ValueError):
        mixing.build_mixed_batch(
            0, x, onehot, x, none, 1.0, rng, use_labeled=True, use_anchors=False,
        )
    with pytest.raises(ValueError, match="feature dimensions"):
        mixing.build_mixed_batch(
            4, x, onehot, np.zeros((2, 4)), none, 1.0, rng,
            use_labeled=True, use_anchors=False,
        )
    batch = mixing.build_mixed_batch(
        4, x, onehot, x, none, 1.0, rng, use_labeled=True, use_anchors=False,
    )
    for pred in (np.full((2, 2), 0.5), np.full((4, 4), 0.25)):  # too few rows, too wide
        with pytest.raises(ValueError, match="one distribution per drawn unlabeled row"):
            mixing.mixed_labels(batch, pred)


def test_opm_loss_corner_value():
    # q ~ e_0 within 1e-15, v = e_1: distance sqrt(2), loss sqrt(2)/(B*C) with B=1, C=4
    z_l = np.array([[40.0, 0.0]])
    z_u = np.array([[0.0, 0.0]])
    v = np.array([[0.0, 1.0, 0.0, 0.0]])
    loss, _, _ = mixing.opm_loss(z_l, z_u, v)
    assert loss == pytest.approx(0.3535533905932738, abs=1e-12)


def test_opm_loss_zero_at_exact_match():
    z_l = np.array([[0.3, -0.2]])
    z_u = np.array([[0.1, 0.4]])
    q = nn.softmax(np.concatenate([z_l, z_u], axis=1))
    loss, gl, gu = mixing.opm_loss(z_l, z_u, q.copy())
    assert loss == 0.0
    assert np.array_equal(gl, np.zeros_like(z_l))
    assert np.array_equal(gu, np.zeros_like(z_u))


def test_opm_gradient_finite_difference_both_modes():
    rng = np.random.default_rng(6)
    for _ in range(10):
        b = int(rng.integers(1, 5))
        c_l = int(rng.integers(2, 4))
        c_u = int(rng.integers(2, 4))
        z_l = rng.normal(size=(b, c_l))
        z_u = rng.normal(size=(b, c_u))
        v = nn.softmax(rng.normal(size=(b, c_l + c_u)))
        loss, gl, gu = mixing.opm_loss(z_l, z_u, v)
        flat = np.concatenate([z_l.reshape(-1), z_u.reshape(-1)])

        def loss_at(f):
            zl = f[: b * c_l].reshape(b, c_l)
            zu = f[b * c_l :].reshape(b, c_u)
            return mixing.opm_loss(zl, zu, v)[0]

        numeric = fd_grad(loss_at, flat)
        assert_grad_close(np.concatenate([gl.reshape(-1), gu.reshape(-1)]), numeric)


def test_opm_loss_shape_checks():
    with pytest.raises(ValueError):
        mixing.opm_loss(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        mixing.opm_loss(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        mixing.opm_loss(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 4)))
