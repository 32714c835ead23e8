"""Unblocked Monte Carlo sweeps: the reference the blocked ones must equal.

The draws follow the sweeps in theory.py: block by block of `block_rows`
cases, each block's variables in a fixed order. The reference joins those
draws to full length first, then builds every (n_cases, c_l + c_u)
temporary and computes every route at full length. The blocked sweeps
must return arrays equal byte for byte.
"""

import numpy as np


def _one_hot(idx: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((idx.size, k))
    out[np.arange(idx.size), idx] = 1.0
    return out


def _draw(n_cases: int, seed: int, block_rows: int, draw) -> list[np.ndarray]:
    """Call draw(rng, rows) on each block in turn; join each drawn variable over the blocks."""
    rng = np.random.default_rng(seed)
    sizes = [min(block_rows, n_cases - start) for start in range(0, n_cases, block_rows)]
    return [np.concatenate(parts) for parts in zip(*(draw(rng, rows) for rows in sizes))]


def draw_inequality(n_cases: int, seed: int, block_rows: int, c_l: int = 5, c_u: int = 5):
    """(y_b, y_hat_b, eta, y_c) of the inequality sweep, drawn idx_b, e, eta, idx_c per block."""

    def block(rng, rows):
        idx_b = rng.integers(0, c_u, size=rows)
        e = rng.exponential(1.0, size=(rows, c_u))
        eta = rng.uniform(size=rows)
        idx_c = rng.integers(0, c_l, size=rows)
        return idx_b, e, eta, idx_c

    idx_b, e, eta, idx_c = _draw(n_cases, seed, block_rows, block)
    return _one_hot(idx_b, c_u), e / e.sum(axis=1, keepdims=True), eta, _one_hot(idx_c, c_l)


def draw_mixup(n_cases: int, seed: int, block_rows: int, c_u: int = 5):
    """(y_a, y_hat_a, y_b, y_hat_b, eta) of the plain-mix sweep, drawn idx_a, e_a, idx_b, e_b,
    eta per block."""

    def block(rng, rows):
        idx_a = rng.integers(0, c_u, size=rows)
        e_a = rng.exponential(1.0, size=(rows, c_u))
        idx_b = rng.integers(0, c_u, size=rows)
        e_b = rng.exponential(1.0, size=(rows, c_u))
        return idx_a, e_a, idx_b, e_b, rng.uniform(size=rows)

    idx_a, e_a, idx_b, e_b, eta = _draw(n_cases, seed, block_rows, block)
    y_hat_a = e_a / e_a.sum(axis=1, keepdims=True)
    y_hat_b = e_b / e_b.sum(axis=1, keepdims=True)
    return _one_hot(idx_a, c_u), y_hat_a, _one_hot(idx_b, c_u), y_hat_b, eta


def monte_carlo_inequality(
    n_cases: int, seed: int, block_rows: int, c_l: int = 5, c_u: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sweep of the inequality over random cases.

    Returns (direct, closed): per-case gaps from the literal route (label
    errors of extended mixed vectors) and the closed form. Callers compare
    them and check nonnegativity case by case.
    """
    y_b, y_hat_b, eta, y_c = draw_inequality(n_cases, seed, block_rows, c_l, c_u)

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


def monte_carlo_mixup(n_cases: int, seed: int, block_rows: int, c_u: int = 5) -> np.ndarray:
    """Vectorized plain-mix differences over random cases (negatives are witnesses)."""
    y_a, y_hat_a, y_b, y_hat_b, eta = draw_mixup(n_cases, seed, block_rows, c_u)
    delta = eta[:, None] * (y_a - y_hat_a) + (1.0 - eta[:, None]) * (y_b - y_hat_b)
    err_mix = np.abs(delta).sum(axis=1)
    err_b = np.abs(y_b - y_hat_b).sum(axis=1)
    return err_b - err_mix
