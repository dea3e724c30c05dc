import numpy as np
import pytest

from fockwc import (
    PreconditionError,
    WcSymbol,
    adjoint_symbol,
    check_bounded_necessary,
    check_J_selfadjoint,
    check_normal_bounded,
    check_real_symmetric,
    check_skew_real_symmetric,
    find_conjugation_normal,
    find_conjugation_real_symmetric,
    identity_conjugation,
    j_adjoint_symbol,
    j_symmetry_defect,
    negate_theta,
    symbols_equal,
)
from fockwc.symbols import identity_symbol
from helpers import (
    rand_j_selfadjoint_pair,
    rand_normal_bounded_symbol,
    rand_points,
    rand_real_symmetric_symbol,
    rand_symbol,
    rand_unitary,
    rand_valid_conjugation,
)

TOL = 1e-9


def test_real_symmetric_examples():
    ok, _ = check_real_symmetric(WcSymbol(3.0, [2 + 1j], [[0.5]], [2 + 1j]))
    assert ok
    ok, res = check_real_symmetric(WcSymbol(3j, [2 + 1j], [[0.5]], [2 + 1j]))
    assert not ok and res["theta_imag"] == 3.0


def test_skew_real_symmetric_examples():
    ok, _ = check_skew_real_symmetric(WcSymbol(3j, [2 + 1j], [[0.5]], [2 + 1j]))
    assert ok
    ok, _ = check_skew_real_symmetric(WcSymbol(3.0, [2 + 1j], [[0.5]], [2 + 1j]))
    assert not ok
    with pytest.raises(ValueError):
        WcSymbol(0.0, [1.0], [[1.0]], [1.0])


def test_real_symmetric_boundary_probe():
    rng = np.random.default_rng(40)
    S = rand_real_symmetric_symbol(rng, 3)
    ok, _ = check_real_symmetric(S, TOL)
    assert ok
    bumped = WcSymbol(S.theta, S.ell + 100 * TOL, S.Q, S.q)
    ok, _ = check_real_symmetric(bumped, TOL)
    assert not ok


def test_j_selfadjoint_examples():
    J = identity_conjugation(1)
    ok, _ = check_J_selfadjoint(WcSymbol(2 + 1j, [1 - 1j], [[0.5j]], [1 + 1j]), J)
    assert ok
    ok, _ = check_J_selfadjoint(identity_symbol(1), J)
    assert ok
    with pytest.raises(PreconditionError):
        from fockwc import ConjugationParams

        check_J_selfadjoint(
            identity_symbol(2), ConjugationParams(np.eye(2), [1.0, 0.0], 1.0)
        )


def test_j_selfadjoint_constructed_pairs_and_oracle():
    rng = np.random.default_rng(41)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        S, J = rand_j_selfadjoint_pair(rng, d)
        ok, res = check_J_selfadjoint(S, J, TOL)
        assert ok, res
        pts = rand_points(rng, d, 6, radius=1.0)
        assert j_symmetry_defect(S, J, pts) <= 1e-9


def test_normal_bounded_examples():
    ok, _ = check_normal_bounded(WcSymbol(1.0, [1j], [[1j]], [1.0]))
    assert ok
    ok, _ = check_normal_bounded(identity_symbol(2))
    assert ok
    ok, res = check_normal_bounded(WcSymbol(1.0, [0.0], [[2.0]], [0.0]))
    assert not ok and res["Q_norm_excess"] == 1.0


def test_bounded_necessary():
    ok, _ = check_bounded_necessary(identity_symbol(2))
    assert ok
    ok, _ = check_bounded_necessary(
        WcSymbol(1.0, [0.0, 0.0], np.diag([1.5, 0.0]), [0.0, 0.0])
    )
    assert not ok
    rng = np.random.default_rng(42)
    U = 0.99 * rand_unitary(rng, 3)
    ok, _ = check_bounded_necessary(WcSymbol(1.0, np.zeros(3), U, np.zeros(3)))
    assert ok


def test_real_symmetric_iff_adjoint_fixed_point():
    rng = np.random.default_rng(43)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            S = rand_real_symmetric_symbol(rng, d)
        else:
            S = rand_symbol(rng, d)
        lib, _ = check_real_symmetric(S, TOL)
        oracle = symbols_equal(adjoint_symbol(S), S, TOL)
        assert lib == oracle


def test_skew_iff_adjoint_theta_negation():
    rng = np.random.default_rng(44)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            S = rand_real_symmetric_symbol(rng, d, skew=True)
        else:
            S = rand_symbol(rng, d)
        lib, _ = check_skew_real_symmetric(S, TOL)
        oracle = symbols_equal(adjoint_symbol(S), negate_theta(S), TOL)
        assert lib == oracle


def test_j_selfadjoint_iff_j_adjoint_fixed_point():
    rng = np.random.default_rng(45)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            S, J = rand_j_selfadjoint_pair(rng, d)
        else:
            S = rand_symbol(rng, d)
            J = rand_valid_conjugation(rng, d)
        lib, _ = check_J_selfadjoint(S, J, TOL)
        oracle = symbols_equal(j_adjoint_symbol(S, J), S, TOL)
        assert lib == oracle


def test_real_symmetric_implies_constructed_j_selfadjoint():
    rng = np.random.default_rng(46)
    for _ in range(15):
        d = int(rng.integers(1, 4))
        S = rand_real_symmetric_symbol(rng, d)
        J = find_conjugation_real_symmetric(S)
        ok, _ = check_J_selfadjoint(S, J, TOL)
        assert ok


def test_normal_bounded_implies_constructed_j_selfadjoint():
    rng = np.random.default_rng(47)
    for _ in range(15):
        d = int(rng.integers(1, 4))
        S = rand_normal_bounded_symbol(rng, d)
        J = find_conjugation_normal(S)
        ok, _ = check_J_selfadjoint(S, J, TOL)
        assert ok


def test_negative_robustness_single_condition_flips():
    rng = np.random.default_rng(48)
    S = rand_real_symmetric_symbol(rng, 2)
    bump = 1e3 * TOL
    perturbations = [
        WcSymbol(S.theta + bump * 1j, S.ell, S.Q, S.q),
        WcSymbol(S.theta, S.ell + bump, S.Q, S.q),
        WcSymbol(S.theta, S.ell, S.Q + bump * np.array([[0, 1j], [0, 0]]), S.q),
    ]
    for bad in perturbations:
        ok, _ = check_real_symmetric(bad, TOL)
        assert not ok

    Sj, J = rand_j_selfadjoint_pair(rng, 2)
    bad = WcSymbol(Sj.theta, Sj.ell + bump, Sj.Q, Sj.q)
    ok, _ = check_J_selfadjoint(bad, J, TOL)
    assert not ok


def test_check_normal_bounded_overflow_names_the_commutator():
    # Q Q* overflows at Q = [[1e307]]: a named ValueError, not a RuntimeWarning
    S = WcSymbol(1.0, [1e307], [[1e307]], [1e307])
    with pytest.raises(ValueError, match=r"Q Q\* - Q\* Q contains non-finite entries"):
        check_normal_bounded(S)
