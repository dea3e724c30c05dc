"""An independent witness of a semigroup's J-selfadjointness: the
generator's J-form on kernels, <G K_z, J K_w>, is symmetric in (z, w)
exactly when G is J-symmetric on their span.  It reads neither
``symbol_at`` nor ``validate_J_conditions``.

The members of ``rand_j_semigroup_pair`` are J-symmetric to roundoff.
Two semigroups with a singular Omega, which satisfy both displayed
conditions of ``validate_J_conditions`` but not the first-order one, are
not: the witness and ``check_J_selfadjoint`` on their symbols agree that
they leave the class.
"""

import numpy as np
import pytest

from fockwc import SemigroupParams, check_J_selfadjoint, identity_conjugation, symbol_at
from helpers import crandn, generator_j_asymmetry, rand_j_semigroup_pair

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
