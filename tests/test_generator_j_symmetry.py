"""An independent witness of a semigroup's J-selfadjointness: the
generator's J-form on kernels, <G K_z, J K_w>, is symmetric in (z, w)
exactly when G is J-symmetric on their span.  It reads neither
``symbol_at`` nor ``validate_J_conditions``.

The members of ``rand_j_semigroup_pair`` are J-symmetric to roundoff.
Two semigroups with a singular Omega, which satisfy both displayed
conditions of ``validate_J_conditions`` but not the first-order one, are
not: the witness and ``check_J_selfadjoint`` on their symbols agree that
they leave the class, and so does the verdict of ``validate_J_conditions``,
on these and on singular families moved along ker Omega*.
"""

import numpy as np
import pytest

from fockwc import (
    SemigroupParams,
    check_J_selfadjoint,
    identity_conjugation,
    symbol_at,
    validate_J_conditions,
)
from fockwc.linalg import adj
from helpers import crandn, generator_j_asymmetry, rand_j_semigroup_pair, rand_valid_conjugation

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# Omega singular, q* and l* with l* != conj(A q*) - Omega* conj(b)
SINGULAR = {
    "d2-diag-1-0": SemigroupParams(np.diag([1.0, 0.0]), [0.2, 0.3], [0.2, 0.9], 0.0),
    "d1-zero": SemigroupParams([[0.0]], [0.3], [0.7], 0.0),
}


@pytest.mark.parametrize("with_b", [True, False])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_members_are_j_symmetric_on_kernels(d, with_b):
    rng = np.random.default_rng(10 * d + with_b)
    for _ in range(5):
        P, J = rand_j_semigroup_pair(rng, d, with_b=with_b)
        assert generator_j_asymmetry(P, J, crandn(rng, 6, d, scale=0.5)) <= 1e-12


@pytest.mark.parametrize("name", SINGULAR)
def test_a_singular_omega_off_the_first_order_condition_is_not(name):
    P = SINGULAR[name]
    J = identity_conjugation(P.dim)
    Z = crandn(np.random.default_rng(3), 6, P.dim, scale=0.5)
    assert generator_j_asymmetry(P, J, Z) >= 1e-2
    for t in (0.25, 1.0):
        assert check_J_selfadjoint(symbol_at(P, t), J)[0] is False


def _witness(P, J) -> bool:
    return all(check_J_selfadjoint(symbol_at(P, t), J)[0] for t in (0.1, 0.5, 1.0))


@pytest.mark.parametrize("name", SINGULAR)
def test_validate_J_conditions_refuses_a_singular_omega_off_the_first_order_condition(name):
    P = SINGULAR[name]
    J = identity_conjugation(P.dim)
    ok, res = validate_J_conditions(P, J)
    assert res["AOmega_symmetric"] == 0 and res["ell_condition"] == 0
    assert ok is False and res["first_order"] > 0.3
    assert _witness(P, J) is False


@pytest.mark.parametrize("d", [1, 2, 3])
def test_validate_J_conditions_agrees_with_the_symbols_on_singular_omega(d):
    # Omega = A* U U^t of rank < d, so A Omega is symmetric; l* from the
    # first-order identity gives a J-selfadjoint family, and l* moved along
    # ker Omega* keeps both displayed conditions but leaves the class
    rng = np.random.default_rng(40 + d)
    for _ in range(4):
        J = rand_valid_conjugation(rng, d)
        U = crandn(rng, d, int(rng.integers(0, d)))
        Omega = adj(J.A) @ (U @ U.T)
        q_star = crandn(rng, d, scale=0.7)
        ell_star = np.conj(J.A @ q_star) - adj(Omega) @ np.conj(J.b)
        kernel = np.conj(np.linalg.svd(adj(Omega))[2][-1])  # Omega* kernel = 0
        for ell, want in ((ell_star, True), (ell_star + 0.5 * kernel, False)):
            P = SemigroupParams(Omega, q_star, ell, 0.3)
            assert validate_J_conditions(P, J)[0] is want
            assert _witness(P, J) is want
