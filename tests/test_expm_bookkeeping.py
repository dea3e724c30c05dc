"""What ``expm`` decides around its matrix products: a stack's entries are
scanned for non-finite values only where a 1-norm is not finite, with the
messages and their order unchanged; the result is scanned for overflow only
above the 1-norm where e^M is finite; and members that share a scaling
power get their single-matrix bits."""

import math

import numpy as np
import pytest

from fockwc.linalg import _EXPM_FINITE_NORM, _taylor_degree, expm


def _member(norm):
    """A 2 x 2 matrix of 1-norm ``norm``, e^M of 1-norm about e^norm."""
    return np.array([[norm, 0.0], [0.0, 0.0]], dtype=complex)


@pytest.mark.filterwarnings("error")
def test_a_stack_that_fails_keeps_the_order_of_its_messages():
    finite, nan = _member(0.3), _member(0.3)
    nan[1, 1] = np.nan
    lost = _member(2.0 ** 51)  # refused for its lost digits
    huge = np.full((2, 2), 1e308, dtype=complex)  # finite entries, 1-norm overflows
    cases = [
        ((finite, nan), 1e-13, "matrix contains non-finite entries"),
        ((lost, nan), 1e-13, "matrix contains non-finite entries"),
        ((finite, nan), 0.0, "matrix contains non-finite entries"),
        ((finite, huge), 0.0, "tol must be positive"),
        ((finite, huge, lost), 1e-13, "matrix 1-norm is not finite"),
        ((lost, huge), 1e-13, "matrix 1-norm 2.252e+15 is at least 2**50"),
    ]
    for members, tol, message in cases:
        with pytest.raises(ValueError) as excinfo:
            expm(np.array(members), tol)
        assert str(excinfo.value).startswith(message), (message, str(excinfo.value))


@pytest.mark.filterwarnings("error")
def test_e_m_is_finite_up_to_the_unscanned_norm():
    # the largest growth a 1-norm allows: e^M = diag(e^norm, 1)
    for norm in (1.0, 300.0, _EXPM_FINITE_NORM):
        E = expm(np.array([_member(norm), _member(-norm), _member(0.5)]))
        assert np.isfinite(E).all()
        assert abs(E[0, 0, 0] / math.exp(norm) - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="^matrix exponential is not finite$"):
        expm(np.array([_member(0.5), _member(710.0)]))


def test_members_that_share_a_scaling_power_match_their_single_bits():
    # every member of 1-norm in (3.96, 4]: one scaling power, s = 3, and
    # one Taylor degree, so the stack is scaled and squared as one array
    rng = np.random.default_rng(2900)
    for n in (2, 3, 5):
        stack = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
        stack *= (rng.uniform(3.961, 4.0, 4) / np.abs(stack).sum(axis=1).max(axis=1))[:, None, None]
        degrees = {_taylor_degree(float(np.abs(M).sum(axis=0).max()) / 8, 1e-14) for M in stack}
        assert len(degrees) == 1
        for M, E in zip(stack, expm(stack)):
            assert np.array_equal(E, expm(M))
