"""Label-error analysis of mixing strategies.

Treats labels as per-class probability vectors and measures label error as
the L1 distance between ground truth and pseudo-label. Mixing two unlabeled
samples can make that error worse; mixing an unlabeled sample with a clean
labeled one (extended into a joint old+new class space) never can. Both
facts are checked numerically, each quantity computed by two independent
routes that must agree.

Every function takes one case or a block of cases: label vectors lie on the
last axis, and any leading axes index rows. The Monte Carlo sweeps are
random draws fed through these same functions a block at a time; each
block's cases are drawn when that block is computed, so a sweep holds
only its outputs and one block.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

AGREEMENT_TOL = 1e-12


def _check_agreement(a, b, what: str) -> None:
    # written as not (ok) so that a NaN on either route fails
    if not np.max(np.abs(a - b)) <= AGREEMENT_TOL:
        raise ArithmeticError(f"{what} disagrees between routes")


def label_error(y: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """L1 distance between ground-truth and pseudo-label vectors (last axis)."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValueError("label vectors must have equal length")
    return np.abs(y - y_hat).sum(axis=-1)


class ErrorCase(NamedTuple):
    """Two unlabeled samples a and b, and a's weight in their plain mix.

    y_* are new-class ground truths, y_hat_* pseudo-labels: vectors and a
    scalar eta, or (rows, classes) arrays and one weight per row. They need
    not be simplex points; the worked counterexample uses bare probabilities.
    """

    y_a: np.ndarray
    y_hat_a: np.ndarray
    y_b: np.ndarray
    y_hat_b: np.ndarray
    eta: float | np.ndarray


def mixup_error(case: ErrorCase) -> tuple[np.ndarray, np.ndarray]:
    """Label error of the plain two-unlabeled mix, and the gain over sample b.

    Returns (error, difference) where difference = E(Y_b, Y_hat_b) - error.
    A negative difference means mixing made the label less reliable than
    sample b's own pseudo-label. The error is computed from the mixed
    per-sample deltas and again from the mixed distributions themselves;
    the two routes must agree.
    """
    w = np.asarray(case.eta)[..., None]
    v = 1.0 - w
    delta = w * (case.y_a - case.y_hat_a) + v * (case.y_b - case.y_hat_b)
    error = np.abs(delta).sum(axis=-1)

    mixed_truth = w * case.y_a + v * case.y_b
    mixed_pseudo = w * case.y_hat_a + v * case.y_hat_b
    _check_agreement(label_error(mixed_truth, mixed_pseudo), error, "mixed-label error")

    return error, label_error(case.y_b, case.y_hat_b) - error


def _extend(old: np.ndarray, new: np.ndarray, block: str) -> np.ndarray:
    if block == "old":
        return np.concatenate([old, np.zeros_like(new)], axis=-1)
    return np.concatenate([np.zeros_like(old), new], axis=-1)


def openmix_error(y_b, y_hat_b, y_c, eta) -> np.ndarray:
    """Label error of mixing clean labeled c, at weight eta, with unlabeled b in joint space.

    y_b and y_hat_b live in the new-class space, y_c, one row per row of
    y_b, in the old-class space; c is clean, so it needs no pseudo-label.
    Returns the general mixed-label error on extended vectors, checked
    against the reduced form, in which the old-block terms vanish.
    """
    w = np.asarray(eta)[..., None]
    v = 1.0 - w
    mixed_c = w * _extend(y_c, y_b, "old")  # c's share of both mixes
    mixed_truth = mixed_c + v * _extend(y_c, y_b, "new")
    mixed_pseudo = mixed_c + v * _extend(y_c, y_hat_b, "new")
    general = label_error(mixed_truth, mixed_pseudo)

    reduced = np.abs(v * (y_b - y_hat_b)).sum(axis=-1)
    _check_agreement(general, reduced, "joint-mix label error")
    return general


def verify_inequality(y_b, y_hat_b, y_c, eta) -> tuple[np.ndarray, np.ndarray]:
    """Gap by which mixing with a clean labeled sample lowers label error.

    Takes openmix_error's arguments. Returns (direct, closed): E(Y_b, Y_hat_b)
    minus the joint-mix label error computed literally, and the closed form
    eta * E(Y_b, Y_hat_b). The two must agree to AGREEMENT_TOL. The
    inequality holds where direct >= -AGREEMENT_TOL.
    """
    err_b = label_error(y_b, y_hat_b)
    direct = err_b - openmix_error(y_b, y_hat_b, y_c, eta)
    closed = np.asarray(eta) * err_b
    _check_agreement(direct, closed, "inequality gap")
    return direct, closed


def worked_counterexample() -> ErrorCase:
    """The worked single-class instance where plain mixing loses 0.2."""
    return ErrorCase(np.array([0.1]), np.array([0.9]), np.array([0.7]), np.array([0.5]), 0.6)


# Rows per block of the Monte Carlo sweeps. A sweep draws each block's cases
# when it computes that block, in a fixed order per block, so at any n it
# holds only its outputs and one block: each (rows, c_l + c_u) temporary is
# 160 KB at 2048 rows. Timed from 1024 to 16384 rows, 1024 and 2048 were
# fastest and 16384 about 25% slower: larger blocks pay for fresh pages on
# every temporary.
BLOCK_ROWS = 2048
SWEEP_C_L, SWEEP_C_U = 5, 5  # old and new class counts of the sweeps' label vectors


def _blocks(n_cases: int):
    """Row slices of BLOCK_ROWS rows covering n_cases, with each one's row count."""
    for start in range(0, n_cases, BLOCK_ROWS):
        yield slice(start, start + BLOCK_ROWS), min(BLOCK_ROWS, n_cases - start)


def _draw_simplex(rng: np.random.Generator, rows: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One-hot truths, then exponential-normalized pseudo-labels, for one block."""
    y = np.eye(k)[rng.integers(0, k, size=rows)]
    e = rng.exponential(1.0, size=(rows, k))
    return y, e / e.sum(axis=1, keepdims=True)


def monte_carlo_inequality(n_cases: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """verify_inequality over random cases.

    Returns (direct, closed), one gap per case from each route. Callers
    check nonnegativity case by case. Each block of BLOCK_ROWS cases is
    drawn as it is computed, in the order idx_b, e, eta, idx_c: b's class
    index, the exponentials of its pseudo-label, the weights, and the clean
    labeled sample's class index.
    """
    rng = np.random.default_rng(seed)
    direct = np.empty(n_cases)
    closed = np.empty(n_cases)
    for rows, n in _blocks(n_cases):
        y_b, y_hat_b = _draw_simplex(rng, n, SWEEP_C_U)
        eta = rng.uniform(size=n)
        y_c = np.eye(SWEEP_C_L)[rng.integers(0, SWEEP_C_L, size=n)]  # the clean labeled samples
        direct[rows], closed[rows] = verify_inequality(y_b, y_hat_b, y_c, eta)
    return direct, closed


def monte_carlo_mixup(n_cases: int, seed: int) -> np.ndarray:
    """mixup_error's differences over random cases (negatives are witnesses).

    Each block of BLOCK_ROWS cases is drawn as it is computed, in the order
    idx_a, e_a, idx_b, e_b, eta.
    """
    rng = np.random.default_rng(seed)
    diffs = np.empty(n_cases)
    for rows, n in _blocks(n_cases):
        y_a, y_hat_a = _draw_simplex(rng, n, SWEEP_C_U)
        y_b, y_hat_b = _draw_simplex(rng, n, SWEEP_C_U)
        diffs[rows] = mixup_error(ErrorCase(y_a, y_hat_a, y_b, y_hat_b, rng.uniform(size=n)))[1]
    return diffs
