"""Unblocked Monte Carlo sweeps: the reference the blocked ones must equal.

These build every (n_cases, c_l + c_u) temporary at full length. The
blocked sweeps in theory.py make the same draws in the same order and must
return arrays equal byte for byte.
"""

import numpy as np


def monte_carlo_inequality(
    n_cases: int, seed: int, c_l: int = 5, c_u: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sweep of the inequality over random cases.

    Returns (direct, closed): per-case gaps from the literal route (label
    errors of extended mixed vectors) and the closed form. Callers compare
    them and check nonnegativity case by case.
    """
    rng = np.random.default_rng(seed)
    y_b = np.zeros((n_cases, c_u))
    y_b[np.arange(n_cases), rng.integers(0, c_u, size=n_cases)] = 1.0
    e = rng.exponential(1.0, size=(n_cases, c_u))
    y_hat_b = e / e.sum(axis=1, keepdims=True)
    eta = rng.uniform(size=n_cases)
    y_c = np.zeros((n_cases, c_l))
    y_c[np.arange(n_cases), rng.integers(0, c_l, size=n_cases)] = 1.0

    # literal route: extend to the joint space, mix, take L1 distances
    zeros_old = np.zeros((n_cases, c_l))
    zeros_new = np.zeros((n_cases, c_u))
    truth_b = np.concatenate([zeros_old, y_b], axis=1)
    pseudo_b = np.concatenate([zeros_old, y_hat_b], axis=1)
    clean_c = np.concatenate([y_c, zeros_new], axis=1)
    mixed_truth = eta[:, None] * clean_c + (1.0 - eta[:, None]) * truth_b
    mixed_pseudo = eta[:, None] * clean_c + (1.0 - eta[:, None]) * pseudo_b
    err_b = np.abs(y_b - y_hat_b).sum(axis=1)
    err_mix = np.abs(mixed_truth - mixed_pseudo).sum(axis=1)
    direct = err_b - err_mix

    closed = eta * np.abs(y_b - y_hat_b).sum(axis=1)
    return direct, closed


def monte_carlo_mixup(n_cases: int, seed: int, c_u: int = 5) -> np.ndarray:
    """Vectorized plain-mix differences over random cases (negatives are witnesses)."""
    rng = np.random.default_rng(seed)
    y_a = np.zeros((n_cases, c_u))
    y_a[np.arange(n_cases), rng.integers(0, c_u, size=n_cases)] = 1.0
    e_a = rng.exponential(1.0, size=(n_cases, c_u))
    y_hat_a = e_a / e_a.sum(axis=1, keepdims=True)
    y_b = np.zeros((n_cases, c_u))
    y_b[np.arange(n_cases), rng.integers(0, c_u, size=n_cases)] = 1.0
    e_b = rng.exponential(1.0, size=(n_cases, c_u))
    y_hat_b = e_b / e_b.sum(axis=1, keepdims=True)
    eta = rng.uniform(size=n_cases)

    delta = eta[:, None] * (y_a - y_hat_a) + (1.0 - eta[:, None]) * (y_b - y_hat_b)
    err_mix = np.abs(delta).sum(axis=1)
    err_b = np.abs(y_b - y_hat_b).sum(axis=1)
    return err_b - err_mix
