"""Every c e^x of the library is one ``linalg.times_exp``: a value that is
an ordinary double is formed wherever a factor is tiny or e^x alone
overflows, at every site, and one that truly overflows is named."""

import math

import numpy as np
import pytest

from fockwc import ConjugationParams, WcSymbol, conjugate_by_J, linalg
from fockwc.conjugation import apply_to_kernel
from fockwc.oracle import KernelCombo, apply_conjugation, apply_symbol, cross_check, inner
from fockwc.oracle import trunc_symbol_matrix
from fockwc.polynomials import monomials_of_degree
from fockwc.symbols import ScaledKernel, act_on_kernel

pytestmark = pytest.mark.filterwarnings("error")

# a valid J for d = 1 (A conj(b) + b = 0 and |c|^2 e^{b^2} = 1) whose
# square is the identity, with c e^{<q, w>} = e^-450 e^900 at w = 30
_FAR_J = ConjugationParams([[-1.0]], [30.0], math.exp(-450.0))
_IDENTITY = WcSymbol(1.0, [0.0], [[1.0]], [0.0])


def test_conjugating_twice_by_a_tiny_c_gives_the_identity():
    # J is valid, with all residuals 0; |c|^2 conj(theta) = e^-900 underflows
    # to zero and e^{<ell, b> + ...} = e^900 overflows, yet theta' = 1: J^2 = I
    S = conjugate_by_J(_IDENTITY, _FAR_J)
    assert abs(S.theta - 1.0) <= 1e-12
    assert S.ell.tolist() == [0j] and S.Q.tolist() == [[1 + 0j]] and S.q.tolist() == [0j]


def test_apply_symbol_forms_a_tiny_theta_times_an_exponential_past_709():
    S = WcSymbol(1e-320, [0.0], [[1.0]], [800.0])
    F = apply_symbol(S, KernelCombo(1, [1.0], [[1.0]]))
    want = act_on_kernel(S, [1.0]).coeff
    assert abs(want - 2.72634422e27) <= 1e-8 * 2.72634422e27
    assert abs(F.coeffs[0] - want) <= 1e-12 * abs(want)


def test_apply_conjugation_equals_apply_to_kernel_past_709():
    F = apply_conjugation(_FAR_J, KernelCombo(1, [1.0], [[30.0]]))
    want = apply_to_kernel(_FAR_J, [30.0]).coeff
    assert abs(want - 2.70717828e195) <= 1e-8 * 2.70717828e195
    assert abs(F.coeffs[0] - want) <= 1e-12 * abs(want)


def test_apply_symbol_keeps_the_bits_of_finite_coefficients():
    S = WcSymbol(0.3 - 0.2j, [0.1], [[0.5j]], [0.7 + 0.1j])
    F = KernelCombo(1, [1.5, -0.25j], [[0.4], [1.0 - 2.0j]])
    expo = np.conj(F.points) @ S.q
    assert apply_symbol(S, F).coeffs.tolist() == (F.coeffs * (S.theta * np.exp(expo))).tolist()


def test_inner_of_tiny_coefficients_past_709():
    # 1e-600 e^900: each coefficient is 1e-300, and e^900 alone overflows
    F = KernelCombo(1, [1e-300], [[30.0]])
    want = math.exp(2.0 * math.log(1e-300) + 900.0)
    assert abs(want - 7.3288e-210) <= 1e-4 * 7.3288e-210
    assert abs(inner(F, F) - want) <= 1e-12 * want


def test_inner_keeps_the_bits_of_a_finite_sum():
    F = KernelCombo(2, [1.0 + 0.5j, -0.3], [[0.2, 0.1j], [-0.4, 0.3]])
    E = np.conj(F.points) @ F.points.T
    assert inner(F, F) == complex(F.coeffs @ np.exp(E) @ np.conj(F.coeffs))


def test_times_exp_folds_only_where_the_plain_product_is_not_an_ordinary_value():
    # plain: one Python complex product with one exp, subnormal or not
    c, x = 0.5 - 0.25j, 3.0 + 1.0j
    assert linalg.times_exp((c,), x, "v") == c * complex(np.exp(x))
    assert linalg.times_exp((1e-160, 1e-160), 7.0, "v") == 1e-160 * 1e-160 * complex(np.exp(7.0))
    # past 709 a product that is a double, subnormal too, is folded as rounded
    assert linalg.times_exp((1e-160, 1e-160), 720.0, "v") == linalg.times_exp(
        (1e-160 * 1e-160,), 720.0, "v")
    # where it underflows to zero, each factor is folded
    assert linalg.times_exp((1e-170, 1e-170), 800.0, "v") == pytest.approx(
        math.exp(2.0 * math.log(1e-170) + 800.0), rel=1e-12)
    assert linalg.times_exp((1e-300,), 800.0, "v") == pytest.approx(
        math.exp(math.log(1e-300) + 800.0), rel=1e-12)
    with pytest.raises(ValueError, match=r"^v is not finite: exponent 2000\+0j$"):
        linalg.times_exp((1e-300,), 2000.0 + 0j, "v")


def test_a_zero_coefficient_times_an_exponential_past_709_is_zero():
    # 0 e^x is exactly 0, also where e^x alone overflows
    assert linalg.times_exp((0.0,), 800.0 + 0j, "v") == 0
    assert linalg.times_exp((2.0, 0j), 1e300 + 1j, "v") == 0
    assert ScaledKernel(0.0, [1.0])([800.0]) == 0
    S = WcSymbol(1.0, [0.0], [[1.0]], [30.0])
    F = apply_symbol(S, KernelCombo(1, [0.0, 1.0], [[30.0], [0.0]]))
    assert F.coeffs.tolist() == [0j, 1 + 0j] and F.points.tolist() == [[30 + 0j], [0j]]
    assert inner(KernelCombo(1, [0.0], [[30.0]]), KernelCombo(1, [0.0], [[30.0]])) == 0
    # 0 times an exponent that is not finite is not a number
    for expo in (complex(math.inf, 0.0), complex(math.nan, 0.0)):
        with pytest.raises(ValueError, match=r"^v is not finite: exponent "):
            linalg.times_exp((0.0,), expo, "v")


def test_frexp_and_ldexp_are_exact_inverses_past_the_doubles():
    for z in (1e-320 + 0j, -3e300 + 1e290j):
        m, k = linalg.frexp(z)
        assert 0.5 <= max(abs(m.real), abs(m.imag)) < 1.0
        assert linalg.ldexp(m, k) == z
    for v in (np.array([1e300, -2.5e290j, 0.0]), np.array([1e-320, -2.5e-310j])):
        m, k = linalg.frexp(v)
        assert 0.5 <= np.abs(m.view(np.float64)).max() < 1.0
        assert linalg.ldexp(m, k).tolist() == v.tolist()
    # 2**1030 is not a double: ldexp still rounds once
    assert linalg.ldexp(np.array([2.0 ** -1000]), 1030).tolist() == [2.0 ** 30 + 0j]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_monomials_of_degree_in_lex_order(d):
    for k in range(7):
        got = list(monomials_of_degree(d, k))
        want = sorted(a for a in np.ndindex(*(k + 1,) * d) if sum(a) == k)
        assert got == want


def test_a_thousand_variables_do_not_recurse():
    # N = 1 admits d up to 4095 under the basis cap
    S = WcSymbol(1.0, np.zeros(1000), 0.5 * np.eye(1000), np.zeros(1000))
    assert trunc_symbol_matrix(S, 1).matrix.shape == (1001, 1001)
    try:
        cross_check(S, np.zeros(1000), 1)
    except ValueError:
        pass
