"""Label-error analysis of mixing strategies.

Treats labels as per-class probability vectors and measures label error as
the L1 distance between ground truth and pseudo-label. Mixing two unlabeled
samples can make that error worse; mixing an unlabeled sample with a clean
labeled one (extended into a joint old+new class space) never can. Both
facts are checked numerically, each quantity computed by two independent
routes that must agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

AGREEMENT_TOL = 1e-12


def label_error(y: np.ndarray, y_hat: np.ndarray) -> float:
    """L1 distance between a ground-truth and a pseudo-label vector."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValueError("label vectors must have equal length")
    return float(np.abs(y - y_hat).sum())


@dataclass
class ErrorCase:
    """Two unlabeled samples (a, b), one clean labeled sample (c), one weight.

    y_* are ground truths, y_hat_* pseudo-labels. a and b live in the
    new-class space, c in the old-class space. The labeled sample is clean:
    its pseudo-label defaults to its ground truth. Vectors are usually
    simplex points (see random_case) but the arithmetic never requires it;
    the worked single-class counterexample below uses bare probabilities.
    """

    y_a: np.ndarray
    y_hat_a: np.ndarray
    y_b: np.ndarray
    y_hat_b: np.ndarray
    eta: float
    y_c: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    y_hat_c: np.ndarray | None = None

    def __post_init__(self):
        for name in ("y_a", "y_hat_a", "y_b", "y_hat_b", "y_c"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.y_hat_c is None:
            self.y_hat_c = self.y_c.copy()
        else:
            self.y_hat_c = np.asarray(self.y_hat_c, dtype=np.float64)
        if self.y_a.shape != self.y_hat_a.shape or self.y_b.shape != self.y_hat_b.shape:
            raise ValueError("pseudo-label lengths must match their ground truths")
        if self.y_a.shape != self.y_b.shape:
            raise ValueError("samples a and b must share the new-class space")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must be in [0, 1]")


def mixup_error(case: ErrorCase) -> tuple[float, float]:
    """Label error of the plain two-unlabeled mix, and the gain over sample b.

    Returns (error, difference) where difference = E(Y_b, Y_hat_b) - error.
    A negative difference means mixing made the label less reliable than
    sample b's own pseudo-label. The error is also recomputed from the mixed
    distributions themselves; the two routes must agree.
    """
    eta = case.eta
    delta = eta * (case.y_a - case.y_hat_a) + (1.0 - eta) * (case.y_b - case.y_hat_b)
    error = float(np.abs(delta).sum())

    mixed_truth = eta * case.y_a + (1.0 - eta) * case.y_b
    mixed_pseudo = eta * case.y_hat_a + (1.0 - eta) * case.y_hat_b
    direct = label_error(mixed_truth, mixed_pseudo)
    if abs(direct - error) > AGREEMENT_TOL:
        raise ArithmeticError("mixed-label error disagrees between routes")

    return error, label_error(case.y_b, case.y_hat_b) - error


def _extend(old: np.ndarray, new: np.ndarray, block: str) -> np.ndarray:
    if block == "old":
        return np.concatenate([old, np.zeros_like(new)])
    return np.concatenate([np.zeros_like(old), new])


def openmix_error(case: ErrorCase) -> float:
    """Label error of mixing clean labeled c with unlabeled b in joint space.

    Computed two ways: the reduced form (old-block terms vanish) and the
    general mixed-label error on extended vectors. They must agree.
    """
    if not np.array_equal(case.y_c, case.y_hat_c):
        raise ValueError("labeled sample must be clean (pseudo-label equals truth)")
    eta = case.eta
    reduced = float(np.abs((1.0 - eta) * (case.y_b - case.y_hat_b)).sum())

    y_c_ext = _extend(case.y_c, case.y_b, "old")
    y_hat_c_ext = _extend(case.y_hat_c, case.y_b, "old")
    y_b_ext = _extend(case.y_c, case.y_b, "new")
    y_hat_b_ext = _extend(case.y_c, case.y_hat_b, "new")
    mixed_truth = eta * y_c_ext + (1.0 - eta) * y_b_ext
    mixed_pseudo = eta * y_hat_c_ext + (1.0 - eta) * y_hat_b_ext
    general = label_error(mixed_truth, mixed_pseudo)
    if abs(general - reduced) > AGREEMENT_TOL:
        raise ArithmeticError("joint-mix label error disagrees between routes")
    return reduced


def verify_inequality(case: ErrorCase) -> tuple[float, bool]:
    """Check that mixing with a clean labeled sample never hurts label error.

    Returns (difference, holds). The difference, E(Y_b, Y_hat_b) minus the
    joint-mix label error, is computed literally and in closed form; the two
    must agree to AGREEMENT_TOL, and holds allows the same slack below 0.
    """
    direct = label_error(case.y_b, case.y_hat_b) - openmix_error(case)
    closed = float((case.eta * np.abs(case.y_b - case.y_hat_b)).sum())
    if abs(direct - closed) > AGREEMENT_TOL:
        raise ArithmeticError("inequality gap disagrees between routes")
    return direct, direct >= -AGREEMENT_TOL


def random_case(rng: np.random.Generator, c_l: int = 5, c_u: int = 5) -> ErrorCase:
    """Draw a case: one-hot truths, exponential-normalized pseudo-labels."""

    def one_hot(k: int) -> np.ndarray:
        v = np.zeros(k)
        v[rng.integers(0, k)] = 1.0
        return v

    def simplex(k: int) -> np.ndarray:
        e = rng.exponential(1.0, size=k)
        return e / e.sum()

    return ErrorCase(
        y_a=one_hot(c_u),
        y_hat_a=simplex(c_u),
        y_b=one_hot(c_u),
        y_hat_b=simplex(c_u),
        eta=float(rng.uniform()),
        y_c=one_hot(c_l),
    )


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


def mixup_can_worsen(rng: np.random.Generator | None = None, attempts: int = 10000) -> ErrorCase:
    """Return a case whose plain-mix difference is negative.

    Without an rng this is the worked counterexample. With one, random cases
    are searched first and the worked instance is the fallback.
    """
    if rng is not None:
        for _ in range(attempts):
            case = random_case(rng)
            if mixup_error(case)[1] < 0.0:
                return case
    return worked_counterexample()


# Rows per block of the Monte Carlo sweeps: each block's (rows, c_l + c_u)
# temporaries stay within a few MB, so a large sweep never materialises
# them at full length.
BLOCK_ROWS = 16384


def monte_carlo_inequality(
    n_cases: int, seed: int, c_l: int = 5, c_u: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sweep of the inequality over random cases.

    Returns (direct, closed): per-case gaps from the literal route (label
    errors of extended mixed vectors) and the closed form. Callers compare
    them and check nonnegativity case by case. The draws are made at full
    length, in a fixed order; the routes then run BLOCK_ROWS rows at a time.
    """
    rng = np.random.default_rng(seed)
    idx_b = rng.integers(0, c_u, size=n_cases)
    e = rng.exponential(1.0, size=(n_cases, c_u))
    eta = rng.uniform(size=n_cases)
    idx_c = rng.integers(0, c_l, size=n_cases)

    direct = np.empty(n_cases)
    closed = np.empty(n_cases)
    for start in range(0, n_cases, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        y_b = np.eye(c_u)[idx_b[rows]]
        y_hat_b = e[rows] / e[rows].sum(axis=1, keepdims=True)
        y_c = np.eye(c_l)[idx_c[rows]]
        w = eta[rows, None]

        # literal route: extend to the joint space, mix, take L1 distances
        zeros_old = np.zeros_like(y_c)
        truth_b = np.concatenate([zeros_old, y_b], axis=1)
        pseudo_b = np.concatenate([zeros_old, y_hat_b], axis=1)
        clean_c = np.concatenate([y_c, np.zeros_like(y_b)], axis=1)
        mixed_truth = w * clean_c + (1.0 - w) * truth_b
        mixed_pseudo = w * clean_c + (1.0 - w) * pseudo_b
        err_b = np.abs(y_b - y_hat_b).sum(axis=1)
        direct[rows] = err_b - np.abs(mixed_truth - mixed_pseudo).sum(axis=1)
        closed[rows] = eta[rows] * err_b
    return direct, closed


def monte_carlo_mixup(n_cases: int, seed: int, c_u: int = 5) -> np.ndarray:
    """Vectorized plain-mix differences over random cases (negatives are witnesses).

    Drawn at full length in a fixed order, computed BLOCK_ROWS rows at a time.
    """
    rng = np.random.default_rng(seed)
    idx_a = rng.integers(0, c_u, size=n_cases)
    e_a = rng.exponential(1.0, size=(n_cases, c_u))
    idx_b = rng.integers(0, c_u, size=n_cases)
    e_b = rng.exponential(1.0, size=(n_cases, c_u))
    eta = rng.uniform(size=n_cases)

    diffs = np.empty(n_cases)
    for start in range(0, n_cases, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        y_a = np.eye(c_u)[idx_a[rows]]
        y_hat_a = e_a[rows] / e_a[rows].sum(axis=1, keepdims=True)
        y_b = np.eye(c_u)[idx_b[rows]]
        y_hat_b = e_b[rows] / e_b[rows].sum(axis=1, keepdims=True)
        w = eta[rows, None]
        delta = w * (y_a - y_hat_a) + (1.0 - w) * (y_b - y_hat_b)
        diffs[rows] = np.abs(y_b - y_hat_b).sum(axis=1) - np.abs(delta).sum(axis=1)
    return diffs
