"""Label-error reliability analysis: hand values, dual routes, random sweeps."""

import tracemalloc

import numpy as np
import pytest

from openmix import theory
import theory_reference


def test_label_error_hand_values():
    assert theory.label_error(np.array([1.0, 0.0]), np.array([0.6, 0.4])) == pytest.approx(0.8)
    assert theory.label_error(np.array([0.7]), np.array([0.5])) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        theory.label_error(np.array([1.0]), np.array([1.0, 0.0]))


def test_error_case_validation():
    with pytest.raises(ValueError, match="eta"):
        theory.ErrorCase(
            y_a=np.array([1.0]), y_hat_a=np.array([0.5]),
            y_b=np.array([1.0]), y_hat_b=np.array([0.5]), eta=1.5,
        )
    with pytest.raises(ValueError, match="lengths"):
        theory.ErrorCase(
            y_a=np.array([1.0]), y_hat_a=np.array([0.5, 0.5]),
            y_b=np.array([1.0]), y_hat_b=np.array([0.5]), eta=0.5,
        )
    with pytest.raises(ValueError, match="share"):
        theory.ErrorCase(
            y_a=np.array([1.0]), y_hat_a=np.array([1.0]),
            y_b=np.array([0.5, 0.5]), y_hat_b=np.array([0.5, 0.5]), eta=0.5,
        )
    case = theory.ErrorCase(
        y_a=np.array([1.0]), y_hat_a=np.array([0.5]),
        y_b=np.array([1.0]), y_hat_b=np.array([0.5]), eta=0.5,
    )
    assert np.array_equal(case.y_hat_c, case.y_c)  # clean by default


def test_worked_counterexample_exact():
    case = theory.worked_counterexample()
    error, difference = theory.mixup_error(case)
    # eta=0.6 with deltas -0.8 and 0.2: mix error 0.4, sample b alone 0.2
    assert abs(error - 0.4) < 1e-12
    assert abs(difference - (-0.2)) < 1e-12


def test_mixup_error_routes_agree_randomly():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        case = theory.random_case(rng)
        error, difference = theory.mixup_error(case)  # raises if routes split
        assert error >= 0.0
        assert difference == pytest.approx(
            theory.label_error(case.y_b, case.y_hat_b) - error, abs=1e-15
        )


def test_mixup_can_worsen_finds_witness():
    case = theory.mixup_can_worsen(np.random.default_rng(1), attempts=10_000)
    _, difference = theory.mixup_error(case)
    assert difference < 0.0
    # no rng: the worked instance comes back
    fallback = theory.mixup_can_worsen()
    assert abs(theory.mixup_error(fallback)[1] + 0.2) < 1e-12


def test_openmix_error_requires_clean_label():
    case = theory.ErrorCase(
        y_a=np.array([1.0, 0.0]), y_hat_a=np.array([0.5, 0.5]),
        y_b=np.array([0.0, 1.0]), y_hat_b=np.array([0.5, 0.5]),
        eta=0.5, y_c=np.array([1.0, 0.0]), y_hat_c=np.array([0.9, 0.1]),
    )
    with pytest.raises(ValueError, match="clean"):
        theory.openmix_error(case)


def test_openmix_error_hand_value():
    case = theory.ErrorCase(
        y_a=np.array([1.0, 0.0]), y_hat_a=np.array([0.5, 0.5]),
        y_b=np.array([0.0, 1.0]), y_hat_b=np.array([0.3, 0.7]),
        eta=0.25, y_c=np.array([1.0]),
    )
    # (1 - eta) * |y_b - y_hat_b|_1 = 0.75 * 0.6
    assert theory.openmix_error(case) == pytest.approx(0.45, abs=1e-12)


def test_inequality_gap_closed_vs_direct_hand_case():
    case = theory.ErrorCase(
        y_a=np.array([1.0, 0.0]), y_hat_a=np.array([0.5, 0.5]),
        y_b=np.array([0.0, 1.0]), y_hat_b=np.array([0.3, 0.7]),
        eta=0.25, y_c=np.array([1.0]),
    )
    gap, holds = theory.verify_inequality(case)
    assert holds
    assert gap == pytest.approx(0.25 * 0.6, abs=1e-12)


def test_inequality_holds_on_random_cases():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        gap, holds = theory.verify_inequality(theory.random_case(rng))
        assert holds
        assert gap >= -theory.AGREEMENT_TOL


def test_random_case_structure():
    rng = np.random.default_rng(3)
    for _ in range(200):
        case = theory.random_case(rng, c_l=4, c_u=6)
        for v in (case.y_a, case.y_b):
            assert v.shape == (6,)
            assert np.count_nonzero(v == 1.0) == 1 and v.sum() == 1.0
        assert case.y_c.shape == (4,)
        for p in (case.y_hat_a, case.y_hat_b):
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) < 1e-12
        assert 0.0 <= case.eta <= 1.0


def test_monte_carlo_matches_per_case_routines():
    direct, closed = theory.monte_carlo_inequality(500, seed=4)
    assert direct.shape == closed.shape == (500,)
    np.testing.assert_allclose(direct, closed, rtol=0, atol=theory.AGREEMENT_TOL)
    # replay the sweep's own draws through the scalar path
    rng = np.random.default_rng(4)
    n, c_l, c_u = 500, 5, 5
    y_b = np.zeros((n, c_u))
    y_b[np.arange(n), rng.integers(0, c_u, size=n)] = 1.0
    e = rng.exponential(1.0, size=(n, c_u))
    y_hat_b = e / e.sum(axis=1, keepdims=True)
    eta = rng.uniform(size=n)
    y_c = np.zeros((n, c_l))
    y_c[np.arange(n), rng.integers(0, c_l, size=n)] = 1.0
    for i in range(0, n, 25):
        case = theory.ErrorCase(
            y_a=y_b[i], y_hat_a=y_hat_b[i],
            y_b=y_b[i], y_hat_b=y_hat_b[i],
            eta=float(eta[i]), y_c=y_c[i],
        )
        gap, holds = theory.verify_inequality(case)
        assert holds
        assert gap == pytest.approx(direct[i], abs=1e-12)


def test_monte_carlo_mixup_distribution():
    diffs = theory.monte_carlo_mixup(20_000, seed=6)
    assert diffs.shape == (20_000,)
    assert (diffs < 0).sum() > 100  # plenty of negative witnesses
    assert (diffs > 0).sum() > 100


@pytest.mark.parametrize("c_l,c_u", [(5, 5), (2, 9)])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "n", [1, theory.BLOCK_ROWS - 1, theory.BLOCK_ROWS, 3 * theory.BLOCK_ROWS + 7]
)
def test_blocked_sweeps_equal_unblocked_reference(n, seed, c_l, c_u):
    direct, closed = theory.monte_carlo_inequality(n, seed, c_l=c_l, c_u=c_u)
    want_direct, want_closed = theory_reference.monte_carlo_inequality(n, seed, c_l=c_l, c_u=c_u)
    assert direct.tobytes() == want_direct.tobytes()
    assert closed.tobytes() == want_closed.tobytes()
    got = theory.monte_carlo_mixup(n, seed, c_u=c_u)
    assert got.tobytes() == theory_reference.monte_carlo_mixup(n, seed, c_u=c_u).tobytes()


def test_monte_carlo_inequality_peak_memory():
    # 200k cases: the draws and the two outputs hold 16 MB and the blocks
    # add about 12 MB. One full-length (n, c_l + c_u) temporary is 16 MB
    # more; the unblocked sweep peaks near 160 MB.
    tracemalloc.start()
    try:
        theory.monte_carlo_inequality(200_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"
