"""Per-row mixed-batch builder: the reference the vectorised one must equal.

This is the row-at-a-time route: each mixed row is built by its own call,
with its own label checks and its own Beta draw, from a full table of
unlabeled predictions. mixing.build_mixed_batch must reproduce its outputs
bit for bit and leave a seeded rng in the same state.
"""

from dataclasses import dataclass

import numpy as np


def _check_one_hot(y):
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("one-hot label must be a vector")
    ones = np.count_nonzero(y == 1.0)
    if ones != 1 or np.count_nonzero(y) != 1:
        raise ValueError("label must be exactly one-hot")
    return y


def _check_simplex(p):
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("distribution must be a vector")
    # written as "not ok" so that NaN fails too
    if not (p.min() >= 0.0 and abs(p.sum() - 1.0) <= 1e-9):
        raise ValueError("distribution must be nonnegative and sum to 1")
    return p


def extend_labeled(onehot_l, c_u):
    """[one-hot over old classes] ++ [zeros over new classes]."""
    return np.concatenate([_check_one_hot(onehot_l), np.zeros(c_u)])


def extend_unlabeled(dist_u, c_l):
    """[zeros over old classes] ++ [distribution over new classes]."""
    return np.concatenate([np.zeros(c_l), _check_simplex(dist_u)])


def sample_mix_weight(epsilon, rng):
    """One scalar Beta draw, folded to max(eta, 1 - eta)."""
    eta = float(rng.beta(epsilon, epsilon))
    return eta, max(eta, 1.0 - eta)


@dataclass
class MixedExample:
    m: np.ndarray
    v: np.ndarray
    eta: float
    eta_star: float
    source: str  # "labeled-mix" or "anchor-mix"


def mix_with_labeled(x_l, onehot_l, x_u, pred_u, epsilon, rng):
    x_l = np.asarray(x_l, dtype=np.float64)
    x_u = np.asarray(x_u, dtype=np.float64)
    if x_l.shape != x_u.shape:
        raise ValueError("feature dimensions differ")
    c_u = np.asarray(pred_u).shape[0]
    c_l = np.asarray(onehot_l).shape[0]
    eta, eta_star = sample_mix_weight(epsilon, rng)
    m = eta_star * x_l + (1.0 - eta_star) * x_u
    v = eta_star * extend_labeled(onehot_l, c_u) + (1.0 - eta_star) * extend_unlabeled(
        pred_u, c_l
    )
    return MixedExample(m, v, eta, eta_star, "labeled-mix")


def mix_with_anchor(x_anchor, label_anchor, x_u, pred_u, c_l, epsilon, rng):
    x_anchor = np.asarray(x_anchor, dtype=np.float64)
    x_u = np.asarray(x_u, dtype=np.float64)
    if x_anchor.shape != x_u.shape:
        raise ValueError("feature dimensions differ")
    eta, eta_star = sample_mix_weight(epsilon, rng)
    m = eta_star * x_anchor + (1.0 - eta_star) * x_u
    v = eta_star * extend_unlabeled(label_anchor, c_l) + (
        1.0 - eta_star
    ) * extend_unlabeled(pred_u, c_l)
    return MixedExample(m, v, eta, eta_star, "anchor-mix")


def build_mixed_batch(
    size, labeled_x, labeled_onehot, unlabeled_x, pred_u, anchors, epsilon, rng,
    use_labeled, use_anchors,
):
    """One MixedExample per row, drawn in the same order as the vectorised builder.

    pred_u is indexed once per row, in row order, with that row's drawn
    unlabeled index.
    """
    if size < 1:
        raise ValueError("batch size must be >= 1")
    if not use_labeled and not use_anchors:
        raise ValueError("at least one mixing source must be active")
    if use_anchors and (anchors is None or len(anchors) == 0):
        raise ValueError("anchor mixing requested with an empty anchor set")
    c_l = labeled_onehot.shape[1]

    if use_labeled and use_anchors:
        from_labeled = rng.integers(0, 2, size=size).astype(bool)
    else:
        from_labeled = np.full(size, use_labeled)
    n_lab = int(from_labeled.sum())
    lab_rows = rng.integers(0, labeled_x.shape[0], size=n_lab) if n_lab else np.empty(0, np.int64)
    anc_rows = (
        rng.integers(0, len(anchors), size=size - n_lab) if size - n_lab else np.empty(0, np.int64)
    )
    unl_rows = rng.integers(0, unlabeled_x.shape[0], size=size)

    out = []
    lab_i = anc_i = 0
    for row in range(size):
        j = unl_rows[row]
        if from_labeled[row]:
            i = lab_rows[lab_i]
            lab_i += 1
            out.append(
                mix_with_labeled(
                    labeled_x[i], labeled_onehot[i], unlabeled_x[j], pred_u[j], epsilon, rng
                )
            )
        else:
            k = anc_rows[anc_i]
            anc_i += 1
            a = anchors.indices[k]
            out.append(
                mix_with_anchor(
                    unlabeled_x[a], anchors.labels[k], unlabeled_x[j], pred_u[j], c_l, epsilon, rng
                )
            )
    return out


def stack(batch):
    """(m, v, eta_star, from_labeled) arrays from a list of MixedExamples."""
    return (
        np.stack([ex.m for ex in batch]),
        np.stack([ex.v for ex in batch]),
        np.array([ex.eta_star for ex in batch]),
        np.array([ex.source == "labeled-mix" for ex in batch]),
    )
