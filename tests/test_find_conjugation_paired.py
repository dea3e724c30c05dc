"""find_conjugation_normal on a lambda = 1 eigenspace of dimension 2 or 3.

There the class conditions couple u = V* q and v = V* ell only through
||u|| = ||v||, so u and v need not be parallel on it: the block of A is
then the symmetric unitary pairing u with conj(v), and the identity when
both vanish on it.
"""

import numpy as np
import pytest

from fockwc import (
    WcSymbol,
    check_J_selfadjoint,
    check_normal_bounded,
    find_conjugation_normal,
    j_symmetry_defect,
    validate,
)
from fockwc.linalg import adj
from helpers import crandn, rand_points, rand_unitary


def fixed_block_symbol(rng, d, k, vanish):
    """Bounded-normal symbol whose Q has eigenvalue 1 with multiplicity k,
    with the block of u and of v on that eigenspace.

    Off the block, ell's coordinates are pinned to (1 - conj(lam))/(1 - lam)
    times q's; on it, v is a random unitary image of u (same norm, not
    parallel), or both are zero.
    """
    lams = np.ones(d, dtype=complex)
    for m in range(k, d):
        lam = crandn(rng, scale=0.4)
        while abs(lam) > 0.9 or abs(1.0 - lam) < 0.2:
            lam = crandn(rng, scale=0.4)
        lams[m] = lam
    u = crandn(rng, d, scale=0.7)
    v = np.empty(d, dtype=complex)
    v[k:] = (1.0 - np.conj(lams[k:])) / (1.0 - lams[k:]) * u[k:]
    v[:k] = rand_unitary(rng, k) @ u[:k]
    if vanish:
        u[:k] = v[:k] = 0.0
    V = rand_unitary(rng, d)
    return WcSymbol(crandn(rng) + 0.5, V @ v, V @ np.diag(lams) @ adj(V), V @ u), u[:k], v[:k]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("vanish", [False, True], ids=["paired", "vanishing"])
@pytest.mark.parametrize("d, k", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)])
def test_fixed_eigenspace_block(d, k, vanish):
    rng = np.random.default_rng(1000 * d + 10 * k + vanish)
    for _ in range(5):
        S, u, v = fixed_block_symbol(rng, d, k, vanish)
        if not vanish:
            # not parallel: the pairing takes its two-dimensional branch
            assert abs(np.vdot(u, v)) < 0.999 * np.linalg.norm(u) * np.linalg.norm(v)
        assert check_normal_bounded(S, 1e-9)[0]
        J = find_conjugation_normal(S)
        assert validate(J, 1e-9)[0]
        assert check_J_selfadjoint(S, J, 1e-9)[0]
        assert j_symmetry_defect(S, J, rand_points(rng, d, 6)) <= 1e-9
