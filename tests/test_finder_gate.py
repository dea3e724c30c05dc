"""The conjugation finders apply exactly where their class check says so.

Each member of the real, skew-real or bounded-normal class, built by the
seeded builders of ``helpers``, is moved off its class along one defining
condition (Q's skew part, ell - q, theta, the commutator QQ* - Q*Q, or
||Q|| - 1) until that residual is ``delta``.  At ``delta = 10 tol`` the
classifier rejects the moved symbol and the finder raises
``NotApplicableError``; at ``delta = tol / 10`` the classifier accepts it,
and the finder returns a J that is a conjugation, and makes the symbol
J-selfadjoint, at ``tol`` (the normal finder may instead raise
``NotApplicableError`` when Q has no unitary diagonalization).  No other
exception and no RuntimeWarning is allowed.
"""

import numpy as np
import pytest

from fockwc import (
    NotApplicableError,
    WcSymbol,
    check_J_selfadjoint,
    check_normal_bounded,
    check_real_symmetric,
    check_skew_real_symmetric,
    find_conjugation_normal,
    find_conjugation_real_symmetric,
    validate,
)
from fockwc.linalg import adj
from helpers import crandn, rand_normal_bounded_symbol, rand_real_symmetric_symbol

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SEEDS = range(6)
DIMS = (1, 2, 3, 4)
TOLS = (1e-9, 1e-6)


def _unit(rng, d):
    e = crandn(rng, d)
    return e / np.linalg.norm(e)


def _real_member(rng, d, skew):
    return rand_real_symmetric_symbol(rng, d, skew=skew)


def _move_real(rng, S, condition, delta, skew):
    """S moved off (skew-)real symmetry so that one residual is ``delta``."""
    theta, ell, Q, q = S.theta, S.ell, S.Q, S.q
    if condition == "Q_skew_part":
        H = crandn(rng, S.dim, S.dim)
        K = 0.5j * (H + adj(H))  # skew-Hermitian
        Q = Q + 0.5 * delta * K / np.linalg.norm(K, 2)  # ||Q - Q*|| = delta
    elif condition == "ell_minus_q":
        ell = q + delta * _unit(rng, S.dim)
    else:  # theta leaves the real (or imaginary) axis
        theta = theta + (delta if skew else 1j * delta)
    return WcSymbol(theta, ell, Q, q)


def _normal_member(rng, d, condition):
    """A bounded-normal member with its unitary eigenbasis V, eigenvalues
    and, for the norm move, one eigenvalue 1 that is the norm of Q."""
    S = rand_normal_bounded_symbol(rng, d, with_fixed_eig=condition == "Q_norm")
    lam, V = np.linalg.eig(S.Q)
    V = np.linalg.qr(V)[0]  # distinct eigenvalues: orthonormal up to roundoff
    return S, V, lam


def _move_normal(S, V, lam, condition, delta):
    """S moved off the bounded-normal class so that one residual is
    ``delta``, with the other conditions kept."""
    u, v = adj(V) @ S.q, adj(V) @ S.ell
    if condition == "commutator":
        # Q + eps v_i v_j* is normal except for its commutator,
        # eps (|lam_i - lam_j| + O(eps)); zero coordinates i, j of q and
        # ell keep the flow and length conditions
        gaps = np.abs(lam[:, None] - lam[None, :])
        i, j = np.unravel_index(np.argmax(gaps), gaps.shape)
        u[[i, j]] = v[[i, j]] = 0.0
        eps = delta / gaps[i, j]
        Q = S.Q + eps * np.outer(V[:, i], np.conj(V[:, j]))
    else:
        # Q + delta x x* on the eigenvector x of the eigenvalue 1 has norm
        # 1 + delta; ell's x-coordinate, of the length of q's, becomes q's,
        # which keeps the flow and length conditions
        k = int(np.argmin(np.abs(lam - 1.0)))
        x = V[:, k]
        v[k] = u[k]
        Q = S.Q + delta * np.outer(x, np.conj(x))
    return WcSymbol(S.theta, V @ v, Q, V @ u)


def _assert_finds(S, J, tol):
    assert validate(J, tol)[0]
    assert check_J_selfadjoint(S, J, tol)[0]


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("skew", [False, True], ids=["real", "skew"])
@pytest.mark.parametrize("condition", ["Q_skew_part", "ell_minus_q", "theta"])
def test_real_finder_gate(condition, skew, tol):
    for seed in SEEDS:
        for d in DIMS:
            rng = np.random.default_rng([seed, d])
            S = _real_member(rng, d, skew)
            far = _move_real(rng, S, condition, 10.0 * tol, skew)
            assert not check_real_symmetric(far, tol)[0]
            assert not check_skew_real_symmetric(far, tol)[0]
            with pytest.raises(NotApplicableError):
                find_conjugation_real_symmetric(far, tol)
            near = _move_real(rng, S, condition, 0.1 * tol, skew)
            check = check_skew_real_symmetric if skew else check_real_symmetric
            assert check(near, tol)[0], (seed, d)
            _assert_finds(near, find_conjugation_real_symmetric(near, tol), tol)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("condition", ["commutator", "Q_norm"])
def test_normal_finder_gate(condition, tol):
    found = 0
    for seed in SEEDS:
        for d in DIMS:
            if condition == "commutator" and d == 1:
                continue  # every 1 x 1 matrix is normal
            rng = np.random.default_rng([seed, d])
            S, V, lam = _normal_member(rng, d, condition)
            far = _move_normal(S, V, lam, condition, 10.0 * tol)
            assert not check_normal_bounded(far, tol)[0]
            with pytest.raises(NotApplicableError):
                find_conjugation_normal(far, tol)
            near = _move_normal(S, V, lam, condition, 0.1 * tol)
            assert check_normal_bounded(near, tol)[0], (seed, d)
            try:
                J = find_conjugation_normal(near, tol)
            except NotApplicableError:
                continue
            _assert_finds(near, J, tol)
            found += 1
    # the norm move keeps Q normal, so the finder always applies there
    if condition == "Q_norm":
        assert found == len(SEEDS) * len(DIMS)
