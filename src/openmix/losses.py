"""Unsupervised clustering objective on the new-class head.

Two parts: a pairwise BCE on cosine similarities between softmax outputs
(with self-estimated binary pair labels) and a cross-entropy on confidently
pseudo-labeled examples. clustering_losses computes both from one softmax
of the batch and returns each value together with its gradient w.r.t. the
new-head logits so the trainer can backpropagate.
"""

from __future__ import annotations

import numpy as np

from .nn import shifted_exp, softmax_backward

# similarities are clamped into [CLAMP, 1 - CLAMP] before any logarithm
CLAMP = 1e-7


def similarity_matrix(p: np.ndarray, outer: np.ndarray | None = None) -> np.ndarray:
    """Cosine similarities between the rows of a batch of probability vectors.

    Returns the raw matrix (diagonal exactly 1, entries in [0, 1]); clamping
    happens inside the loss, not here. outer, if given, is np.outer of the row norms.
    """
    if outer is None:
        nu = np.linalg.norm(p, axis=1)
        outer = np.outer(nu, nu)
    s = (p @ p.T) / outer
    np.fill_diagonal(s, 1.0)
    return s


def ppl_loss_value(s: np.ndarray, w: np.ndarray) -> float:
    """BCE over all ordered pairs (diagonal included), normalized by n^2.

    Evaluates the loss alone, in the two-log form; tests check
    clustering_losses' one-log route against it.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.shape != w.shape:
        raise ValueError("similarity and pair-label shapes differ")
    n = s.shape[0]
    sc = np.clip(s, CLAMP, 1.0 - CLAMP)
    terms = w * np.log(sc) + (1.0 - w) * np.log(1.0 - sc)
    return float(-terms.sum() / (n * n))


def pseudo_labels(p: np.ndarray, theta2: float) -> tuple[np.ndarray, np.ndarray]:
    """One-hot pseudo-labels where a probability row clears theta2.

    Returns (labels, assigned): labels is (n, C) with zero rows for
    unassigned examples; assigned is a boolean mask. theta2 > 0.5 guarantees
    at most one class passes per example.
    """
    if not 0.5 < theta2 < 1.0:
        raise ValueError("theta2 must be in (0.5, 1)")
    labels = (p >= theta2).astype(np.float64)
    return labels, labels.any(axis=1)


def clustering_losses(
    z_u: np.ndarray, theta1: float, theta2: float
) -> tuple[float, np.ndarray, float, np.ndarray]:
    """PPL and PLL of one unlabeled batch: (ppl, g_ppl, pll, g_pll).

    PPL is the pairwise BCE of the cosine similarities against pair labels
    s >= theta1 (ties count as 1); PLL is the cross-entropy against the
    theta2 pseudo-labels, averaged over assigned rows (0 with zero gradient
    when none is assigned). Both targets are constants: no gradient flows
    through the thresholding. PPL gradients are masked where the similarity
    was clamped, so a 1-row batch has zero PPL gradient.
    """
    if not 0.0 < theta1 < 1.0:
        raise ValueError("theta1 must be in (0, 1)")
    z = np.asarray(z_u, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1:
        raise ValueError("clustering losses need a batch of at least 1 logit row")
    shifted, e, total = shifted_exp(z)
    p = e / total
    nu = np.linalg.norm(p, axis=1)
    outer = np.outer(nu, nu)
    s = similarity_matrix(p, outer)
    w = s >= theta1
    n = s.shape[0]
    # w is 0/1, so each pair needs one log: that of sc where w, else of 1-sc
    sc = np.clip(s, CLAMP, 1.0 - CLAMP)
    q = np.where(w, sc, 1.0 - sc)
    ppl = float(-np.log(q).sum() / (n * n))
    g = np.where((s > CLAMP) & (s < 1.0 - CLAMP), np.where(w, -1.0, 1.0) / q / (n * n), 0.0)
    # dS_ij/dp_i = p_j/(nu_i nu_j) - S_ij p_i/nu_i^2; accumulate both index
    # roles of each pair without assuming exact numeric symmetry of g
    h = g + g.T
    term1 = (h / outer) @ p
    a = g * s
    term2 = ((a + a.T).sum(axis=1) / (nu * nu))[:, None] * p
    g_ppl = softmax_backward(p, term1 - term2)

    labels, assigned = pseudo_labels(p, theta2)
    n_hat = int(assigned.sum())
    pll, g_pll = 0.0, np.zeros_like(z)
    if n_hat:
        logp = shifted[assigned] - np.log(total[assigned])
        pll = float(-(labels[assigned] * logp).sum() / n_hat)
        g_pll[assigned] = (p[assigned] - labels[assigned]) / n_hat
    return ppl, g_ppl, pll, g_pll


def cross_entropy(z: np.ndarray, onehot: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of logits against one-hot targets, with gradient, from one exp pass."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(onehot, dtype=np.float64)
    if z.shape != y.shape:
        raise ValueError("logit and target shapes differ")
    n = z.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    shifted, e, total = shifted_exp(z, "cross_entropy")
    loss = float(-(y * (shifted - np.log(total))).sum() / n)
    grad = (e / total - y) / n
    return loss, grad
