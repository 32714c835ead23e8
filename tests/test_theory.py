"""Label-error reliability analysis: hand values, dual routes, random sweeps."""

import inspect
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


def test_worked_counterexample_exact():
    case = theory.worked_counterexample()
    error, difference = theory.mixup_error(case)
    # eta=0.6 with deltas -0.8 and 0.2: mix error 0.4, sample b alone 0.2
    assert abs(error - 0.4) < 1e-12
    assert abs(difference - (-0.2)) < 1e-12


def test_mixup_error_routes_agree_randomly():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        case, _ = random_case(rng)
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
    for routine in (theory.openmix_error, theory.verify_inequality):
        assert list(inspect.signature(routine).parameters) == ["y_b", "y_hat_b", "y_c", "eta"]
    with pytest.raises(TypeError, match="y_hat_c"):
        theory.openmix_error(
            y_b=np.array([0.0, 1.0]), y_hat_b=np.array([0.5, 0.5]),
            y_c=np.array([1.0, 0.0]), y_hat_c=np.array([0.9, 0.1]), eta=0.5,
        )


# sample b and a clean labeled c in a one-class old space, mixed at eta = 0.25
HAND_JOINT = (np.array([0.0, 1.0]), np.array([0.3, 0.7]), np.array([1.0]), 0.25)


def test_openmix_error_hand_value():
    # (1 - eta) * |y_b - y_hat_b|_1 = 0.75 * 0.6
    assert theory.openmix_error(*HAND_JOINT) == pytest.approx(0.45, abs=1e-12)


def test_inequality_gap_closed_vs_direct_hand_case():
    direct, closed = theory.verify_inequality(*HAND_JOINT)
    assert direct >= -theory.AGREEMENT_TOL
    assert direct == pytest.approx(0.25 * 0.6, abs=1e-12)
    assert closed == pytest.approx(0.25 * 0.6, abs=1e-12)


def test_inequality_holds_on_random_cases():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        case, y_c = random_case(rng)
        direct, closed = theory.verify_inequality(case.y_b, case.y_hat_b, y_c, case.eta)
        assert direct >= -theory.AGREEMENT_TOL
        assert closed >= 0.0


def test_random_case_structure():
    rng = np.random.default_rng(3)
    for _ in range(200):
        case, y_c = random_case(rng, c_l=4, c_u=6)
        for v, k in ((case.y_a, 6), (case.y_b, 6), (y_c, 4)):
            assert v.shape == (k,)
            assert np.count_nonzero(v == 1.0) == 1 and v.sum() == 1.0
        for p in (case.y_hat_a, case.y_hat_b):
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) < 1e-12
        assert 0.0 <= case.eta <= 1.0


def test_monte_carlo_matches_per_case_routines():
    # at BLOCK_ROWS + 7 the replayed rows cross a block boundary
    for n in (500, theory.BLOCK_ROWS + 7):
        direct, closed = theory.monte_carlo_inequality(n, seed=4)
        assert direct.shape == closed.shape == (n,)
        np.testing.assert_allclose(direct, closed, rtol=0, atol=theory.AGREEMENT_TOL)
        # replay the sweep's own draws through the scalar path
        y_b, y_hat_b, eta, y_c = theory_reference.draw_inequality(n, 4, theory.BLOCK_ROWS)
        for i in range(0, n, 25):
            gap, gap_closed = theory.verify_inequality(y_b[i], y_hat_b[i], y_c[i], float(eta[i]))
            assert gap >= -theory.AGREEMENT_TOL
            assert gap == pytest.approx(direct[i], abs=1e-12)
            assert gap_closed == pytest.approx(closed[i], abs=1e-12)
        # and the plain-mix sweep's draws through mixup_error
        diffs = theory.monte_carlo_mixup(n, seed=5)
        y_a, y_hat_a, y_b, y_hat_b, eta = theory_reference.draw_mixup(n, 5, theory.BLOCK_ROWS)
        for i in range(0, n, 25):
            case = theory.ErrorCase(
                y_a=y_a[i], y_hat_a=y_hat_a[i], y_b=y_b[i], y_hat_b=y_hat_b[i], eta=float(eta[i])
            )
            assert theory.mixup_error(case)[1] == pytest.approx(diffs[i], abs=1e-12)


def test_one_eta_serves_every_row_of_a_block():
    y = np.eye(3)[[0, 1, 2, 0]]
    p = np.full((4, 3), 1.0 / 3.0)
    y_c = np.eye(2)[[1, 1, 1, 1]]
    np.testing.assert_allclose(theory.verify_inequality(y, p, y_c, 0.25)[1], 0.25 * 4.0 / 3.0,
                               rtol=1e-15)
    # a and b alike: the plain mix keeps b's error, whatever the weight
    error, difference = theory.mixup_error(theory.ErrorCase(y, p, y, p, 0.25))
    np.testing.assert_allclose(error, 4.0 / 3.0, rtol=1e-15)
    assert error.shape == difference.shape == (4,)


def test_block_case_equals_one_case_calls():
    rng = np.random.default_rng(8)
    drawn = [random_case(rng, c_l=3, c_u=6) for _ in range(40)]
    block = theory.ErrorCase(*map(np.stack, zip(*(case for case, _ in drawn))))
    joint = (block.y_b, block.y_hat_b, np.stack([y_c for _, y_c in drawn]), block.eta)
    got = {
        "mixup": theory.mixup_error(block),
        "openmix": (theory.openmix_error(*joint),),
        "inequality": theory.verify_inequality(*joint),
    }
    for i, (case, y_c) in enumerate(drawn):
        one = (case.y_b, case.y_hat_b, y_c, case.eta)
        want = {
            "mixup": theory.mixup_error(case),
            "openmix": (theory.openmix_error(*one),),
            "inequality": theory.verify_inequality(*one),
        }
        for name, values in want.items():
            for g, w in zip(got[name], values):
                assert g.shape == (40,) and np.shape(w) == ()
                assert g[i].tobytes() == np.float64(w).tobytes(), (name, i)


@pytest.mark.parametrize("routine", ["mixup_error", "verify_inequality"])
def test_routes_reject_nan(routine):
    y_b = np.array([0.0, 1.0])
    call = {
        "mixup_error": lambda y_hat_b, eta: theory.mixup_error(
            theory.ErrorCase(np.array([1.0, 0.0]), np.array([0.5, 0.5]), y_b, y_hat_b, eta)
        ),
        "verify_inequality": lambda y_hat_b, eta: theory.verify_inequality(
            y_b, y_hat_b, np.array([1.0]), eta
        ),
    }[routine]
    # a NaN pseudo-label, and a NaN weight, which nothing checks before the routes
    for y_hat_b, eta in ((np.array([np.nan, 0.7]), 0.5), (np.array([0.3, 0.7]), np.nan)):
        with pytest.raises(ArithmeticError, match="disagrees between routes"):
            call(y_hat_b, eta)


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
    rows = theory.BLOCK_ROWS
    want_direct, want_closed = theory_reference.monte_carlo_inequality(n, seed, rows, c_l, c_u)
    assert direct.tobytes() == want_direct.tobytes()
    assert closed.tobytes() == want_closed.tobytes()
    got = theory.monte_carlo_mixup(n, seed)
    assert got.tobytes() == theory_reference.monte_carlo_mixup(n, seed, rows, c_u=c_u).tobytes()


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


def test_monte_carlo_mixup_peak_memory():
    # 200k cases: the output holds 1.6 MB and one block's temporaries, about
    # ten (2048, 5) arrays, under 1 MB. Drawing every case first holds 21 MB
    # of draws; such a sweep peaked at 23.2 MB.
    tracemalloc.start()
    try:
        theory.monte_carlo_mixup(200_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6, f"peak {peak / 1e6:.1f} MB"
