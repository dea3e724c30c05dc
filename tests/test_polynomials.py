import numpy as np
import pytest

from fockwc import MPoly
from fockwc.polynomials import mi_factorial, multi_indices


def test_multi_indices_graded_lex():
    assert multi_indices(1, 3) == [(0,), (1,), (2,), (3,)]
    got = multi_indices(2, 2)
    assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    # degrees never decrease along the order
    degs = [sum(a) for a in multi_indices(3, 4)]
    assert degs == sorted(degs)
    assert len(multi_indices(3, 12)) == 455


def test_mi_factorial():
    assert mi_factorial((0, 0)) == 1.0
    assert mi_factorial((3, 2)) == 12.0


def test_mpoly_arithmetic_and_eval():
    # (1 + 2z1)(z2) = z2 + 2 z1 z2
    p = MPoly(2, {(0, 0): 1.0, (1, 0): 2.0})
    q = MPoly(2, {(0, 1): 1.0})
    prod = p * q
    assert prod.coeffs == {(0, 1): 1.0, (1, 1): 2.0}
    z = np.array([0.5 + 0.1j, -0.3j])
    assert abs(prod.evaluate(z) - (1 + 2 * z[0]) * z[1]) < 1e-14


def test_mpoly_partial():
    p = MPoly(2, {(2, 1): 3.0})
    assert p.partial(0).coeffs == {(1, 1): 6.0}
    assert p.partial(1).coeffs == {(2, 0): 3.0}
    assert p.partial(0).partial(0).partial(0).coeffs == {}


def test_mpoly_degree_and_zero():
    assert MPoly.zero(2).degree() == -1
    assert MPoly.constant(2, 5.0).degree() == 0
    assert MPoly(2, {(1, 3): 1.0}).degree() == 4
    # zero coefficients dropped
    assert MPoly(1, {(2,): 0.0}).coeffs == {}


def test_mpoly_validation():
    with pytest.raises(ValueError):
        MPoly(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        MPoly(1, {(-1,): 1.0})


def test_mpoly_json_round_trip():
    p = MPoly(2, {(0, 0): 1 + 2j, (2, 1): -0.5j})
    p2 = MPoly.from_json(p.to_json())
    assert p2.coeffs == p.coeffs and p2.dim == p.dim
