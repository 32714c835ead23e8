"""Label-error analysis of mixing strategies.

Treats labels as per-class probability vectors and measures label error as
the L1 distance between ground truth and pseudo-label. Mixing two unlabeled
samples can make that error worse; mixing an unlabeled sample with a clean
labeled one (extended into a joint old+new class space) never can. Both
facts are checked numerically, each quantity computed by two independent
routes that must agree.

Every function takes one case or a block of cases: label vectors lie on the
last axis, and any leading axes index rows. The Monte Carlo sweeps are
random draws fed through these same functions a block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class ErrorCase:
    """Two unlabeled samples (a, b), one clean labeled sample (c), one weight.

    y_* are ground truths, y_hat_* pseudo-labels. a and b live in the
    new-class space, c in the old-class space; c is clean, so it needs no
    pseudo-label. One case holds vectors; a block holds (rows, classes)
    arrays, with eta a scalar or one weight per row and y_c one vector or
    one per row. Vectors are usually simplex points but the arithmetic never
    requires it; the worked single-class counterexample uses bare
    probabilities.
    """

    y_a: np.ndarray
    y_hat_a: np.ndarray
    y_b: np.ndarray
    y_hat_b: np.ndarray
    eta: float | np.ndarray
    y_c: np.ndarray = field(default_factory=lambda: np.array([1.0]))

    def __post_init__(self):
        for name in ("y_a", "y_hat_a", "y_b", "y_hat_b", "eta", "y_c"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.y_a.shape != self.y_hat_a.shape or self.y_b.shape != self.y_hat_b.shape:
            raise ValueError("pseudo-label lengths must match their ground truths")
        if self.y_a.shape != self.y_b.shape or self.y_b.ndim < 1:
            raise ValueError("samples a and b must share the new-class space")
        rows = self.y_b.shape[:-1]
        if self.y_c.ndim < 1 or self.y_c.shape[:-1] not in ((), rows):
            raise ValueError("y_c must be one label vector or one per row")
        if self.y_c.shape[:-1] != rows:
            self.y_c = np.broadcast_to(self.y_c, rows + self.y_c.shape[-1:])
        if self.eta.shape not in ((), rows):
            raise ValueError("eta must be a scalar or one weight per row")
        if not np.all((self.eta >= 0.0) & (self.eta <= 1.0)):
            raise ValueError("eta must be in [0, 1]")


def mixup_error(case: ErrorCase) -> tuple[np.ndarray, np.ndarray]:
    """Label error of the plain two-unlabeled mix, and the gain over sample b.

    Returns (error, difference) where difference = E(Y_b, Y_hat_b) - error.
    A negative difference means mixing made the label less reliable than
    sample b's own pseudo-label. The error is computed from the mixed
    per-sample deltas and again from the mixed distributions themselves;
    the two routes must agree.
    """
    w = case.eta[..., None]
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


def openmix_error(case: ErrorCase) -> np.ndarray:
    """Label error of mixing clean labeled c with unlabeled b in joint space.

    Returns the general mixed-label error on extended vectors, checked
    against the reduced form, in which the old-block terms vanish.
    """
    w = case.eta[..., None]
    v = 1.0 - w
    mixed_c = w * _extend(case.y_c, case.y_b, "old")  # c's share of both mixes
    mixed_truth = mixed_c + v * _extend(case.y_c, case.y_b, "new")
    mixed_pseudo = mixed_c + v * _extend(case.y_c, case.y_hat_b, "new")
    general = label_error(mixed_truth, mixed_pseudo)

    reduced = np.abs(v * (case.y_b - case.y_hat_b)).sum(axis=-1)
    _check_agreement(general, reduced, "joint-mix label error")
    return general


def verify_inequality(case: ErrorCase) -> tuple[np.ndarray, np.ndarray]:
    """Gap by which mixing with a clean labeled sample lowers label error.

    Returns (direct, closed): E(Y_b, Y_hat_b) minus the joint-mix label
    error computed literally, and the closed form eta * E(Y_b, Y_hat_b).
    The two must agree to AGREEMENT_TOL. The inequality holds where
    direct >= -AGREEMENT_TOL. Sample a is not read.
    """
    err_b = label_error(case.y_b, case.y_hat_b)
    direct = err_b - openmix_error(case)
    closed = case.eta * err_b
    _check_agreement(direct, closed, "inequality gap")
    return direct, closed


def worked_counterexample() -> ErrorCase:
    """The worked single-class instance where plain mixing loses 0.2."""
    return ErrorCase(
        y_a=np.array([0.1]),
        y_hat_a=np.array([0.9]),
        y_b=np.array([0.7]),
        y_hat_b=np.array([0.5]),
        eta=0.6,
        y_c=np.array([1.0]),
    )


# Rows per block of the Monte Carlo sweeps. A large sweep never materialises
# its (rows, c_l + c_u) temporaries at full length; at 2048 rows each is
# 160 KB. Timed from 1024 to 16384 rows, 1024 and 2048 were fastest and
# 16384 about 25% slower: larger blocks pay for fresh pages on every temporary.
BLOCK_ROWS = 2048
SWEEP_C_L, SWEEP_C_U = 5, 5  # old and new class counts of the sweeps' label vectors


def _one_hot_simplex(idx: np.ndarray, e: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One-hot truths and exponential-normalized pseudo-labels for one block."""
    return np.eye(k)[idx], e / e.sum(axis=1, keepdims=True)


def monte_carlo_inequality(n_cases: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """verify_inequality over random cases.

    Returns (direct, closed), one gap per case from each route. Callers
    check nonnegativity case by case. The draws are made at full length, in
    a fixed order; the routes then run BLOCK_ROWS rows at a time.
    """
    rng = np.random.default_rng(seed)
    idx_b = rng.integers(0, SWEEP_C_U, size=n_cases)
    e = rng.exponential(1.0, size=(n_cases, SWEEP_C_U))
    eta = rng.uniform(size=n_cases)
    idx_c = rng.integers(0, SWEEP_C_L, size=n_cases)

    direct = np.empty(n_cases)
    closed = np.empty(n_cases)
    for start in range(0, n_cases, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        y_b, y_hat_b = _one_hot_simplex(idx_b[rows], e[rows], SWEEP_C_U)
        # the inequality does not read sample a; b stands in for it
        case = ErrorCase(y_b, y_hat_b, y_b, y_hat_b, eta[rows], np.eye(SWEEP_C_L)[idx_c[rows]])
        direct[rows], closed[rows] = verify_inequality(case)
    return direct, closed


def monte_carlo_mixup(n_cases: int, seed: int) -> np.ndarray:
    """mixup_error's differences over random cases (negatives are witnesses).

    Drawn at full length in a fixed order, computed BLOCK_ROWS rows at a time.
    """
    rng = np.random.default_rng(seed)
    idx_a = rng.integers(0, SWEEP_C_U, size=n_cases)
    e_a = rng.exponential(1.0, size=(n_cases, SWEEP_C_U))
    idx_b = rng.integers(0, SWEEP_C_U, size=n_cases)
    e_b = rng.exponential(1.0, size=(n_cases, SWEEP_C_U))
    eta = rng.uniform(size=n_cases)

    diffs = np.empty(n_cases)
    for start in range(0, n_cases, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        y_a, y_hat_a = _one_hot_simplex(idx_a[rows], e_a[rows], SWEEP_C_U)
        y_b, y_hat_b = _one_hot_simplex(idx_b[rows], e_b[rows], SWEEP_C_U)
        diffs[rows] = mixup_error(ErrorCase(y_a, y_hat_a, y_b, y_hat_b, eta[rows]))[1]
    return diffs
