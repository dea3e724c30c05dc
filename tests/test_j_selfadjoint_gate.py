"""The J-selfadjoint checks hold exactly where their conditions do.

Each J-selfadjoint pair of ``rand_j_selfadjoint_pair`` and each
J-selfadjoint semigroup of ``rand_j_semigroup_pair`` is moved off its class
along one defining condition until that residual is ``delta``, the others
kept.  At ``delta = 10 tol`` the check rejects the moved member; at
``delta = tol / 10`` it accepts it.  The kernel engine tells the same
apart: members have a J-symmetry defect at roundoff, and members moved by
1e-2 one far above it.  No RuntimeWarning is allowed.
"""

import numpy as np
import pytest

from fockwc import SemigroupParams, WcSymbol, check_J_selfadjoint, j_symmetry_defect
from fockwc import symbol_at, validate_J_conditions
from fockwc.linalg import adj
from helpers import crandn, rand_j_selfadjoint_pair, rand_j_semigroup_pair, rand_points

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SEEDS = range(6)
DIMS = (1, 2, 3, 4)
TOLS = (1e-9, 1e-6)
TIMES = (0.25, 0.5, 1.0)
MEMBER_BOUND = 1e-9
MOVED_FLOOR = 1e-6


def _unit(rng, d):
    e = crandn(rng, d)
    return e / np.linalg.norm(e)


def _antisymmetric(rng, d):
    """K = -K^t of unit operator norm (d >= 2)."""
    H = crandn(rng, d, d)
    K = H - H.T
    return K / np.linalg.norm(K, 2)


def _move_symbol(rng, S, J, condition, delta):
    """S moved off J-selfadjointness so that one residual is ``delta``."""
    if condition == "ell_formula":
        return WcSymbol(S.theta, S.ell + delta * _unit(rng, S.dim), S.Q, S.q)
    # A Q' = A Q + (delta/2) K, so (AQ')^t - AQ' = -delta K; ell follows Q'
    A, b = J.A, J.b
    Q = S.Q + 0.5 * delta * adj(A) @ _antisymmetric(rng, S.dim)
    ell = np.conj(A @ S.q) + np.conj(b) - adj(Q) @ np.conj(b)
    return WcSymbol(S.theta, ell, Q, S.q)


def _move_semigroup(rng, P, J, condition, delta):
    """P moved off the J-selfadjoint conditions so that one residual is
    ``delta``; the AOmega move takes q* = 0 and l* = -Omega* conj(b),
    whose l* residual is exactly zero."""
    if condition == "ell_condition":
        u = _unit(rng, P.dim)
        shift = delta * u / np.linalg.norm(adj(P.Omega) @ u)  # ||Omega* shift|| = delta
        return SemigroupParams(P.Omega, P.q_star, P.ell_star + shift, P.theta_star)
    Omega = P.Omega + 0.5 * delta * adj(J.A) @ _antisymmetric(rng, P.dim)
    return SemigroupParams(Omega, np.zeros(P.dim), -adj(Omega) @ np.conj(J.b), P.theta_star)


def _cases(conditions):
    """(seed, d, condition) with the antisymmetric moves from d = 2 on."""
    return [(seed, d, c) for seed in SEEDS for d in DIMS for c in conditions
            if d >= 2 or c in ("ell_formula", "ell_condition")]


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("condition", ["ell_formula", "AQ_symmetric"])
def test_check_J_selfadjoint_gate(condition, tol):
    for seed, d, _ in _cases([condition]):
        rng = np.random.default_rng([seed, d])
        S, J = rand_j_selfadjoint_pair(rng, d)
        far = _move_symbol(rng, S, J, condition, 10.0 * tol)
        ok, residuals = check_J_selfadjoint(far, J, tol)
        assert not ok, (seed, d, residuals)
        near = _move_symbol(rng, S, J, condition, 0.1 * tol)
        ok, residuals = check_J_selfadjoint(near, J, tol)
        assert ok, (seed, d, residuals)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("condition", ["ell_condition", "AOmega_symmetric"])
def test_validate_J_conditions_gate(condition, tol):
    for seed, d, _ in _cases([condition]):
        rng = np.random.default_rng([seed, d])
        P, J = rand_j_semigroup_pair(rng, d)
        far = _move_semigroup(rng, P, J, condition, 10.0 * tol)
        ok, residuals = validate_J_conditions(far, J, tol)
        assert not ok, (seed, d, residuals)
        near = _move_semigroup(rng, P, J, condition, 0.1 * tol)
        ok, residuals = validate_J_conditions(near, J, tol)
        assert ok, (seed, d, residuals)


def test_kernel_defect_separates_members_from_moved_symbols():
    for seed, d, condition in _cases(["ell_formula", "AQ_symmetric"]):
        rng = np.random.default_rng([seed, d])
        S, J = rand_j_selfadjoint_pair(rng, d)
        pts = rand_points(rng, d, 16)
        assert j_symmetry_defect(S, J, pts) <= MEMBER_BOUND, (seed, d)
        moved = _move_symbol(rng, S, J, condition, 1e-2)
        assert j_symmetry_defect(moved, J, pts) >= MOVED_FLOOR, (seed, d, condition)


def _worst_residual(P, J):
    return max(max(check_J_selfadjoint(symbol_at(P, t), J)[1].values()) for t in TIMES)


def test_semigroup_symbols_separate_members_from_moved_parameters():
    for seed, d, condition in _cases(["ell_condition", "AOmega_symmetric"]):
        rng = np.random.default_rng([seed, d])
        P, J = rand_j_semigroup_pair(rng, d)
        member = _move_semigroup(rng, P, J, condition, 0.0)
        assert _worst_residual(member, J) <= MEMBER_BOUND, (seed, d, condition)
        moved = _move_semigroup(rng, P, J, condition, 1e-2)
        assert _worst_residual(moved, J) >= MOVED_FLOOR, (seed, d, condition)
