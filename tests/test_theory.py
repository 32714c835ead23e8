"""Label-error reliability analysis: hand values, dual routes, random sweeps."""

import tracemalloc

import numpy as np
import pytest

from openmix import theory
import theory_reference
from helpers import mixup_can_worsen, random_case


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


def test_worked_counterexample_exact():
    case = theory.worked_counterexample()
    error, difference = theory.mixup_error(case)
    # eta=0.6 with deltas -0.8 and 0.2: mix error 0.4, sample b alone 0.2
    assert abs(error - 0.4) < 1e-12
    assert abs(difference - (-0.2)) < 1e-12


def test_mixup_error_routes_agree_randomly():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        case = random_case(rng)
        error, difference = theory.mixup_error(case)  # raises if routes split
        assert error >= 0.0
        assert difference == pytest.approx(
            theory.label_error(case.y_b, case.y_hat_b) - error, abs=1e-15
        )


def test_mixup_can_worsen_finds_witness():
    case = mixup_can_worsen(np.random.default_rng(1), attempts=10_000)
    _, difference = theory.mixup_error(case)
    assert difference < 0.0
    # no rng: the worked instance comes back
    fallback = mixup_can_worsen()
    assert abs(theory.mixup_error(fallback)[1] + 0.2) < 1e-12


def test_openmix_error_requires_clean_label():
    # the labeled sample carries no pseudo-label: it is clean by construction
    with pytest.raises(TypeError, match="y_hat_c"):
        theory.ErrorCase(
            y_a=np.array([1.0, 0.0]), y_hat_a=np.array([0.5, 0.5]),
            y_b=np.array([0.0, 1.0]), y_hat_b=np.array([0.5, 0.5]),
            eta=0.5, y_c=np.array([1.0, 0.0]), y_hat_c=np.array([0.9, 0.1]),
        )


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
    direct, closed = theory.verify_inequality(case)
    assert direct >= -theory.AGREEMENT_TOL
    assert direct == pytest.approx(0.25 * 0.6, abs=1e-12)
    assert closed == pytest.approx(0.25 * 0.6, abs=1e-12)


def test_inequality_holds_on_random_cases():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        direct, closed = theory.verify_inequality(random_case(rng))
        assert direct >= -theory.AGREEMENT_TOL
        assert closed >= 0.0


def test_random_case_structure():
    rng = np.random.default_rng(3)
    for _ in range(200):
        case = random_case(rng, c_l=4, c_u=6)
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
        gap, gap_closed = theory.verify_inequality(case)
        assert gap >= -theory.AGREEMENT_TOL
        assert gap == pytest.approx(direct[i], abs=1e-12)
        assert gap_closed == pytest.approx(closed[i], abs=1e-12)
    # and the plain-mix sweep's draws through mixup_error
    diffs = theory.monte_carlo_mixup(n, seed=5)
    rng = np.random.default_rng(5)
    y_a = np.eye(c_u)[rng.integers(0, c_u, size=n)]
    e_a = rng.exponential(1.0, size=(n, c_u))
    y_b = np.eye(c_u)[rng.integers(0, c_u, size=n)]
    e_b = rng.exponential(1.0, size=(n, c_u))
    eta = rng.uniform(size=n)
    for i in range(0, n, 25):
        case = theory.ErrorCase(
            y_a=y_a[i], y_hat_a=e_a[i] / e_a[i].sum(),
            y_b=y_b[i], y_hat_b=e_b[i] / e_b[i].sum(), eta=float(eta[i]),
        )
        assert theory.mixup_error(case)[1] == pytest.approx(diffs[i], abs=1e-12)


def test_error_case_block_validation():
    y = np.eye(3)[[0, 1, 2, 0]]
    p = np.full((4, 3), 1.0 / 3.0)
    for eta in (np.nan, [0.5, 0.5, np.nan, 0.5], [0.5, 1.5, 0.5, 0.5]):
        with pytest.raises(ValueError, match=r"eta must be in \[0, 1\]"):
            theory.ErrorCase(y_a=y, y_hat_a=p, y_b=y, y_hat_b=p, eta=eta)
    with pytest.raises(ValueError, match="one weight per row"):
        theory.ErrorCase(y_a=y, y_hat_a=p, y_b=y, y_hat_b=p, eta=np.full(5, 0.5))
    with pytest.raises(ValueError, match="one per row"):
        theory.ErrorCase(y_a=y, y_hat_a=p, y_b=y, y_hat_b=p, eta=0.5, y_c=np.eye(2))
    with pytest.raises(ValueError, match="share"):
        theory.ErrorCase(y_a=y[:3], y_hat_a=p[:3], y_b=y, y_hat_b=p, eta=0.5)
    # one y_c and one eta serve every row
    case = theory.ErrorCase(y_a=y, y_hat_a=p, y_b=y, y_hat_b=p, eta=0.25, y_c=[0.0, 1.0])
    assert case.y_c.shape == (4, 2)
    np.testing.assert_allclose(theory.verify_inequality(case)[1], 0.25 * 4.0 / 3.0, rtol=1e-15)


def test_block_case_equals_one_case_calls():
    rng = np.random.default_rng(8)
    cases = [random_case(rng, c_l=3, c_u=6) for _ in range(40)]
    block = theory.ErrorCase(**{
        name: np.stack([getattr(c, name) for c in cases])
        for name in ("y_a", "y_hat_a", "y_b", "y_hat_b", "eta", "y_c")
    })
    got = {
        "mixup": theory.mixup_error(block),
        "openmix": (theory.openmix_error(block),),
        "inequality": theory.verify_inequality(block),
    }
    for i, case in enumerate(cases):
        want = {
            "mixup": theory.mixup_error(case),
            "openmix": (theory.openmix_error(case),),
            "inequality": theory.verify_inequality(case),
        }
        for name, values in want.items():
            for g, w in zip(got[name], values):
                assert g.shape == (40,) and np.shape(w) == ()
                assert g[i].tobytes() == np.float64(w).tobytes(), (name, i)


@pytest.mark.parametrize("routine", [theory.mixup_error, theory.verify_inequality])
def test_routes_reject_nan(routine):
    case = theory.ErrorCase(
        y_a=np.array([1.0, 0.0]), y_hat_a=np.array([0.5, 0.5]),
        y_b=np.array([0.0, 1.0]), y_hat_b=np.array([np.nan, 0.7]), eta=0.5,
    )
    with pytest.raises(ArithmeticError, match="disagrees between routes"):
        routine(case)


def test_monte_carlo_mixup_distribution():
    diffs = theory.monte_carlo_mixup(20_000, seed=6)
    assert diffs.shape == (20_000,)
    assert (diffs < 0).sum() > 100  # plenty of negative witnesses
    assert (diffs > 0).sum() > 100


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "n",
    [1, theory.BLOCK_ROWS - 1, theory.BLOCK_ROWS, 3 * theory.BLOCK_ROWS + 7],
    ids=["one", "block-1", "block", "3 blocks+7"],
)
def test_blocked_sweeps_equal_unblocked_reference(n, seed):
    c_l, c_u = theory.SWEEP_C_L, theory.SWEEP_C_U
    direct, closed = theory.monte_carlo_inequality(n, seed)
    want_direct, want_closed = theory_reference.monte_carlo_inequality(n, seed, c_l=c_l, c_u=c_u)
    assert direct.tobytes() == want_direct.tobytes()
    assert closed.tobytes() == want_closed.tobytes()
    got = theory.monte_carlo_mixup(n, seed)
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
