"""Inputs that used to leak a RuntimeWarning ("overflow encountered in
...") now raise a ValueError that names the quantity, or return ``inf``.
The suite turns every RuntimeWarning into an error, so each of these
failed before."""

import math

import numpy as np
import pytest

from fockwc import (
    ConjugationParams,
    SemigroupParams,
    WcSymbol,
    check_J_selfadjoint,
    check_real_symmetric,
    conjugate_by_J,
    j_adjoint_symbol,
    symbol_distance,
    symbols_equal,
)
from fockwc.polynomials import MPoly
from fockwc.semigroup import generator_fd_residual

pytestmark = pytest.mark.filterwarnings("error")

# A is symmetric and unitary, so J is a valid conjugation, and A Q, A q
# and the J C J components overflow in matmul
J_ROT = ConjugationParams(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0), [0, 0], 1.0)
S_BIG = WcSymbol(1.0, [0, 0], [[1.5e308, 0], [1.5e308, 0]], [1.5e308, 1.5e308])


def test_check_J_selfadjoint_names_AQ():
    with pytest.raises(ValueError, match=r"^AQ\^t - AQ contains non-finite entries"):
        check_J_selfadjoint(S_BIG, J_ROT)


def test_conjugate_by_J_names_the_component():
    with pytest.raises(ValueError, match=r"^Q contains non-finite entries"):
        conjugate_by_J(S_BIG, J_ROT)


def test_j_adjoint_symbol_names_the_component():
    with pytest.raises(ValueError, match=r"^ell contains non-finite entries"):
        j_adjoint_symbol(S_BIG, J_ROT)


def test_overflowing_symbol_distance_is_inf():
    S1 = WcSymbol(1.0, [0.0], [[1e308]], [0.0])
    S2 = WcSymbol(1.0, [0.0], [[-1e308]], [0.0])
    assert symbol_distance(S1, S2) == math.inf
    assert symbols_equal(S1, S2) is False
    assert symbols_equal(S1, S1) is True


def test_overflowing_polynomial_value_raises():
    with pytest.raises(ValueError, match="^polynomial value is not finite$"):
        MPoly(1, {(3,): 1}).evaluate([1e200])
    assert MPoly(1, {(3,): 1}).evaluate([1e100]) == 1e300


def test_overflowing_generator_residual_raises():
    P = SemigroupParams([[1]], [0], [0], 0)
    with pytest.raises(ValueError, match="residual is not finite"):
        generator_fd_residual(P, MPoly(1, {(1,): 1e308}), 1.0)
    assert math.isfinite(generator_fd_residual(P, MPoly(1, {(1,): 1.0}), 1.0))


def test_check_real_symmetric_names_Q_minus_Q_star():
    S = WcSymbol(1.0, [0, 0], [[0, 1e308], [-1e308, 0]], [0, 0])
    with pytest.raises(ValueError, match=r"^Q - Q\* contains non-finite entries"):
        check_real_symmetric(S)
