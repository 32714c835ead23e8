"""Joint-label extension, Beta-weighted mixing, anchors, and the L2 mixing loss.

Labels live in a joint space of length C_l + C_u: old classes first, new
classes after. Labeled examples are certain about old classes and carry
exact zeros on the new block; unlabeled predictions get zeros on the old
block. Mixed examples interpolate both inputs and labels with a weight
eta* = max(eta, 1 - eta) >= 0.5 so the partner (a labeled example or an
anchor) dominates the unlabeled example it is mixed with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .losses import pseudo_labels
from .nn import softmax, softmax_backward

# below this distance the L2 loss gradient is left at zero (kink at 0)
_NORM_FLOOR = 1e-12


def sample_mix_weight(
    epsilon: float, rng: np.random.Generator, size: int | None = None
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Draw eta ~ Beta(epsilon, epsilon) and fold it to eta* = max(eta, 1-eta).

    With size=None both are scalars; with an int size both are (size,)
    arrays. One draw of `size` gives the same values, and leaves the rng in
    the same state, as `size` scalar draws.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    eta = rng.beta(epsilon, epsilon, size=size)
    return eta, np.maximum(eta, 1.0 - eta)


def _check_one_hot(y: np.ndarray) -> None:
    # every row holds a 1.0, and there are no more nonzeros than rows
    if not np.count_nonzero(y) == y.shape[0] == np.count_nonzero((y == 1.0).any(axis=1)):
        raise ValueError("labeled rows must be exactly one-hot")


def _check_simplex(p: np.ndarray, what: str) -> None:
    # written as "not ok" so that NaN fails too; an empty batch passes
    if not (p.min(initial=0.0) >= 0.0 and np.abs(p.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-9):
        raise ValueError(f"{what} must be nonnegative and sum to 1")


@dataclass
class AnchorSet:
    """Unlabeled rows whose max softmax cleared theta2, with labels checked at construction."""

    indices: np.ndarray  # (K,) int64 row indices into the unlabeled pool
    labels: np.ndarray  # (K, c_u) one-hot labels captured at selection

    def __post_init__(self) -> None:
        _check_simplex(self.labels, "anchor labels")

    def __len__(self) -> int:
        return self.indices.shape[0]


def select_anchors(z_u_pool: np.ndarray, theta2: float) -> AnchorSet:
    """Pick every example whose max softmax is >= theta2, labeled by pseudo_labels of its row."""
    p = softmax(np.asarray(z_u_pool, dtype=np.float64))
    idx = np.flatnonzero(p.max(axis=1) >= theta2)
    return AnchorSet(idx.astype(np.int64), pseudo_labels(p[idx], theta2)[0])


class MixedBatch(NamedTuple):
    """A drawn and mixed batch whose labels wait for the unlabeled predictions.

    Row i mixes unlabeled row unl_rows[i] with a partner: a labeled example
    when from_labeled[i], else an anchor. old_share ++ new_share is the
    partner's share of each row's joint label: eta* times its label,
    [one-hot ++ zeros] for a labeled partner, [zeros ++ label] for an anchor.
    """

    m: np.ndarray  # (B, d) mixed inputs
    eta_star: np.ndarray  # (B,) the partner's folded weight
    from_labeled: np.ndarray  # (B,) source flag
    unl_rows: np.ndarray  # (B,) drawn unlabeled row indices, repeats included
    old_share: np.ndarray  # (B, C_l)
    new_share: np.ndarray  # (B, C_u)


def build_mixed_batch(
    size: int,
    labeled_x: np.ndarray,
    labeled_onehot: np.ndarray,
    unlabeled_x: np.ndarray,
    anchors: AnchorSet,
    epsilon: float,
    rng: np.random.Generator,
    use_labeled: bool,
    use_anchors: bool,
) -> MixedBatch:
    """Draw one mixed batch by uniform pairing with replacement and mix its inputs.

    When both sources are active each row flips a fair coin between them.
    The mixed inputs and the partner's share of the joint labels need no
    prediction, so they are built here; the rest of the joint labels needs
    the drawn unlabeled rows' predictions, which mixed_labels() takes.

    Draw order is fixed so a seeded rng reproduces the batch: the sources
    (only when both are active), the labeled rows, the anchor rows, the
    unlabeled rows, then the B mixing weights.

    Raises ValueError when a drawn labeled row is not exactly one-hot; the
    anchor labels were checked when the AnchorSet was built.
    """
    if size < 1:
        raise ValueError("batch size must be >= 1")
    if not use_labeled and not use_anchors:
        raise ValueError("at least one mixing source must be active")
    if use_anchors and len(anchors) == 0:
        raise ValueError("anchor mixing requested with an empty anchor set")
    if labeled_x.shape[1] != unlabeled_x.shape[1]:
        raise ValueError("feature dimensions differ")

    if use_labeled and use_anchors:
        from_labeled = rng.integers(0, 2, size=size).astype(bool)
    else:
        from_labeled = np.full(size, use_labeled)
    n_lab = int(from_labeled.sum())
    # a size-0 draw returns nothing and leaves the rng as it was
    lab_rows = rng.integers(0, labeled_x.shape[0], size=n_lab)
    anc_rows = rng.integers(0, len(anchors), size=size - n_lab)
    unl_rows = rng.integers(0, unlabeled_x.shape[0], size=size)
    _, eta_star = sample_mix_weight(epsilon, rng, size)

    lab_labels = labeled_onehot[lab_rows]
    _check_one_hot(lab_labels)
    partner_x = np.empty((size, labeled_x.shape[1]))
    partner_x[from_labeled] = labeled_x[lab_rows]
    partner_x[~from_labeled] = unlabeled_x[anchors.indices[anc_rows]]

    w = eta_star[:, None]
    m = w * partner_x + (1.0 - w) * unlabeled_x[unl_rows]
    old_share = np.zeros((size, lab_labels.shape[1]))
    old_share[from_labeled] = w[from_labeled] * lab_labels + 0.0  # -0.0 slots become +0.0
    new_share = np.zeros((size, anchors.labels.shape[1]))
    new_share[~from_labeled] = w[~from_labeled] * anchors.labels[anc_rows]
    return MixedBatch(m, eta_star, from_labeled, unl_rows, old_share, new_share)


def mixed_labels(batch: MixedBatch, pred: np.ndarray) -> np.ndarray:
    """The (B, C_l + C_u) joint labels of a mixed batch: its partner's share plus
    (1 - eta*) times pred, the (B, C_u) new-class distributions of the
    batch's unlabeled rows, batch.unl_rows, in row order.

    Raises ValueError when pred is not one distribution per row.
    """
    pred = np.asarray(pred, dtype=np.float64)
    if pred.shape != batch.new_share.shape:
        raise ValueError("need one distribution per drawn unlabeled row")
    _check_simplex(pred, "predictions")
    w = batch.eta_star[:, None]
    return np.concatenate([batch.old_share, batch.new_share + (1.0 - w) * pred], axis=1)


def opm_loss(
    z_l: np.ndarray, z_u: np.ndarray, v: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean scaled L2 distance between joint labels and model outputs.

    Per example: ||v - q||_2 / (C_l + C_u), averaged over the batch, where q
    is the softmax of the concatenated head logits, one distribution over
    all C_l + C_u classes. Returns the loss and gradients w.r.t. both
    heads' logits.
    """
    z_l = np.asarray(z_l, dtype=np.float64)
    z_u = np.asarray(z_u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if z_l.ndim != 2 or z_u.ndim != 2 or z_l.shape[0] != z_u.shape[0]:
        raise ValueError("head logit batches disagree")
    b = z_l.shape[0]
    if b < 1:
        raise ValueError("empty mixed batch")
    c_l, c_u = z_l.shape[1], z_u.shape[1]
    if v.shape != (b, c_l + c_u):
        raise ValueError("joint label shape mismatch")
    c = c_l + c_u

    q = softmax(np.concatenate([z_l, z_u], axis=1))
    r = q - v
    d = np.linalg.norm(r, axis=1)
    loss = float(d.sum() / (b * c))

    grad_q = np.zeros_like(q)
    live = d > _NORM_FLOOR
    grad_q[live] = r[live] / (d[live, None] * b * c)
    grad_z = softmax_backward(q, grad_q)
    return loss, grad_z[:, :c_l], grad_z[:, c_l:]
