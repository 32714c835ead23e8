"""Unsupervised clustering objective on the new-class head.

Two parts: a pairwise BCE on cosine similarities between softmax outputs
(with self-estimated binary pair labels) and a cross-entropy on confidently
pseudo-labeled examples. Each loss returns its value together with the
gradient w.r.t. the new-head logits so the trainer can backpropagate.
"""

from __future__ import annotations

import numpy as np

from .nn import log_softmax, softmax, softmax_backward

# similarities are clamped into [CLAMP, 1 - CLAMP] before any logarithm
CLAMP = 1e-7


def similarity_matrix(z_u: np.ndarray) -> np.ndarray:
    """Cosine similarities between softmax outputs of a batch of logits.

    Returns the raw matrix (diagonal exactly 1, entries in [0, 1]); clamping
    happens inside the loss, not here.
    """
    z = np.asarray(z_u, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError("similarity_matrix needs a batch of at least 2 logit rows")
    p = softmax(z)
    nu = np.linalg.norm(p, axis=1)
    s = (p @ p.T) / np.outer(nu, nu)
    np.fill_diagonal(s, 1.0)
    return s


def pair_labels(s: np.ndarray, theta1: float) -> np.ndarray:
    """Binary pair labels: 1 where similarity >= theta1 (ties count as 1)."""
    if not 0.0 < theta1 < 1.0:
        raise ValueError("theta1 must be in (0, 1)")
    return (np.asarray(s) >= theta1).astype(np.float64)


def ppl_loss_value(s: np.ndarray, w: np.ndarray) -> float:
    """BCE over all ordered pairs (diagonal included), normalized by n^2.

    Evaluates the loss alone from a similarity matrix; used by tests and by
    ppl_loss below so the two can never drift apart.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.shape != w.shape:
        raise ValueError("similarity and pair-label shapes differ")
    n = s.shape[0]
    sc = np.clip(s, CLAMP, 1.0 - CLAMP)
    terms = w * np.log(sc) + (1.0 - w) * np.log(1.0 - sc)
    return float(-terms.sum() / (n * n))


def ppl_loss(z_u: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Pairwise BCE loss and its gradient w.r.t. the new-head logits.

    `w` is treated as a constant: no gradient flows through the thresholding
    that produced it. Gradients are masked where the similarity was clamped.
    """
    z = np.asarray(z_u, dtype=np.float64)
    p = softmax(z)
    nu = np.linalg.norm(p, axis=1)
    s = (p @ p.T) / np.outer(nu, nu)
    np.fill_diagonal(s, 1.0)
    n = s.shape[0]
    if w.shape != s.shape:
        raise ValueError("pair-label shape does not match batch")

    loss = ppl_loss_value(s, w)

    sc = np.clip(s, CLAMP, 1.0 - CLAMP)
    g = -(w / sc - (1.0 - w) / (1.0 - sc)) / (n * n)
    g = np.where((s > CLAMP) & (s < 1.0 - CLAMP), g, 0.0)

    # dS_ij/dp_i = p_j/(nu_i nu_j) - S_ij p_i/nu_i^2; accumulate both index
    # roles of each pair without assuming exact numeric symmetry of g
    h = g + g.T
    term1 = (h / np.outer(nu, nu)) @ p
    a = g * s
    term2 = ((a + a.T).sum(axis=1) / (nu * nu))[:, None] * p
    grad_p = term1 - term2
    return loss, softmax_backward(p, grad_p)


def pseudo_labels(z_u: np.ndarray, theta2: float) -> tuple[np.ndarray, np.ndarray]:
    """One-hot pseudo-labels where the softmax clears theta2.

    Returns (labels, assigned): labels is (n, C) with zero rows for
    unassigned examples; assigned is a boolean mask. theta2 > 0.5 guarantees
    at most one class passes per example.
    """
    if not 0.5 < theta2 < 1.0:
        raise ValueError("theta2 must be in (0.5, 1)")
    p = softmax(np.asarray(z_u, dtype=np.float64))
    labels = (p >= theta2).astype(np.float64)
    return labels, labels.any(axis=1)


def pll_loss(
    z_u: np.ndarray, labels: np.ndarray, assigned: np.ndarray
) -> tuple[float, np.ndarray]:
    """Cross-entropy against pseudo-labels, averaged over assigned examples.

    Empty assigned set gives loss 0 with zero gradient. Labels are constants
    (no gradient through the thresholding that produced them).
    """
    z = np.asarray(z_u, dtype=np.float64)
    assigned = np.asarray(assigned, dtype=bool)
    n_hat = int(assigned.sum())
    if n_hat == 0:
        return 0.0, np.zeros_like(z)
    logp = log_softmax(z)
    loss = float(-(labels[assigned] * logp[assigned]).sum() / n_hat)
    grad = np.zeros_like(z)
    p = softmax(z)
    grad[assigned] = (p[assigned] - labels[assigned]) / n_hat
    return loss, grad


def cross_entropy(z: np.ndarray, onehot: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of logits against one-hot targets, with gradient."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(onehot, dtype=np.float64)
    if z.shape != y.shape:
        raise ValueError("logit and target shapes differ")
    n = z.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    logp = log_softmax(z)
    loss = float(-(y * logp).sum() / n)
    grad = (softmax(z) - y) / n
    return loss, grad
