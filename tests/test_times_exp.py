"""Every c e^x of the library is one ``linalg.times_exp``: a value that is
an ordinary double is formed wherever a factor is tiny or e^x alone
overflows, at every site, and one that truly overflows is named."""

import cmath
import math
import sys

import numpy as np
import pytest
from helpers import ref_sum_times_exp, ref_times_exp

from fockwc import ConjugationParams, WcSymbol, conjugate_by_J, linalg
from fockwc.conjugation import apply_to_kernel
from fockwc.oracle import KernelCombo, apply_conjugation, apply_symbol, cross_check, inner
from fockwc.oracle import trunc_symbol_matrix
from fockwc.polynomials import monomials_of_degree
from fockwc.symbols import ScaledKernel, act_on_kernel, compose, evaluate

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
    # a running product below the least normal double has lost digits: the
    # factors are folded, past 709 and at 7, where the value is subnormal
    want, _ = ref_times_exp((1e-160, 1e-160), 720.0)
    assert abs(linalg.times_exp((1e-160, 1e-160), 720.0, "v") - want) <= 1e-12 * abs(want)
    want, _ = ref_times_exp((1e-160, 1e-160), 7.0)
    assert abs(linalg.times_exp((1e-160, 1e-160), 7.0, "v") - want) <= 2.0 ** -1074
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


_TINY, _MAX = sys.float_info.min, sys.float_info.max


def test_times_exp_against_the_exact_reference():
    # 1 to 3 factors of modulus 10^U(-320, 308), Re x ~ U(-1500, 1500): a
    # value with a part past the largest double is the named ValueError, any
    # other is within 1e-12 relative, or within 4 subnormal steps below tiny
    rng = np.random.default_rng(3405)
    for _ in range(5000):
        factors = tuple(cmath.rect(10.0 ** rng.uniform(-320, 308), rng.uniform(-math.pi, math.pi))
                        for _ in range(int(rng.integers(1, 4))))
        x = complex(rng.uniform(-1500, 1500), rng.uniform(-4, 4))
        want, modulus = ref_times_exp(factors, x)
        draw = (factors, x)
        if not cmath.isfinite(want):
            with pytest.raises(ValueError, match=r"^v is not finite: exponent "):
                linalg.times_exp(factors, x, "v")
        elif modulus < _TINY:
            assert abs(linalg.times_exp(factors, x, "v") - want) <= 4 * 2.0 ** -1074, draw
        else:
            assert abs(linalg.times_exp(factors, x, "v") - want) <= 1e-12 * float(modulus), draw


def test_times_exp_forms_a_value_near_the_largest_double():
    # |c e^x| = 1.534e308: the fold's mantissa lies in [1/2, 1), so its own
    # e^{x + k log 2} would pass the largest double; e^r 2**n does not
    factors, x = (2.43e-192 - 2.05e-192j, -9.59e-90 + 3.60e-90j), 1355.47 + 2.84j
    want, modulus = ref_times_exp(factors, x)
    assert 1.53e308 < modulus < 1.54e308
    assert abs(linalg.times_exp(factors, x, "v") - want) <= 1e-12 * float(modulus)


def test_an_exponential_below_the_normal_doubles_is_folded_at_every_site():
    # e^-1000 and e^-800 underflow to 0, while 1e300 e^-1000 and
    # 1e300 e^-800 are ordinary doubles: no site returns 0 or refuses
    want, _ = ref_times_exp((1e300,), -1000.0)
    S = WcSymbol(1e300, [0.0], [[0.5]], [1.0])
    F = KernelCombo(1, [1.0], [[-1000.0]])
    for got in (ScaledKernel(1e300, [1.0])([-1000.0]),
                evaluate(WcSymbol(1e300, [1.0], [[0.5]], [0.0]), [-1000.0])[0],
                act_on_kernel(S, [-1000.0]).coeff,
                inner(KernelCombo(1, [1e300], [[-1000.0]]), KernelCombo(1, [1.0], [[1.0]])),
                KernelCombo(1, [1e300], [[1.0]])([-1000.0]),
                apply_symbol(S, F).coeffs[0]):
        assert abs(got - want) <= 1e-12 * abs(want), got
    want, _ = ref_times_exp((1e200, 1e100), -800.0)
    got = compose(WcSymbol(1e200, [0.0], [[0.5]], [1.0]), WcSymbol(1e100, [-800.0], [[0.5]], [0.0]))
    assert abs(got.theta - want) <= 1e-12 * abs(want)


def test_conjugating_by_a_subnormal_c_squared_keeps_every_digit():
    # |c|^2 = e^-729 is subnormal, and J C J of the identity is the identity
    J = ConjugationParams([[-1.0]], [27.0], math.exp(-364.5))
    assert abs(conjugate_by_J(_IDENTITY, J).theta - 1.0) <= 1e-12


def _assert_inner_is_exact(F, G, draw=None):
    """inner(F, G), inner(G, F) and F(x) for G = K_x within 1e-14 of the
    exact sum of c_i conj(d_j) e^{E_ij}, relative, or 2 subnormal steps
    below the least normal double; a value past the largest double is the
    named ValueError.  Halved where |want| may pass the largest double."""
    E = np.conj(F.points) @ G.points.T
    want = ref_sum_times_exp([((c, np.conj(d)), E[i, j]) for i, c in enumerate(F.coeffs)
                              for j, d in enumerate(G.coeffs)])
    calls = [(lambda: inner(F, G), want), (lambda: inner(G, F), want.conjugate())]
    if G.coeffs.tolist() == [1.0]:
        calls.append((lambda: F(G.points[0]), want))
    for call, want in calls:
        if not cmath.isfinite(want):
            with pytest.raises(ValueError, match=r"^inner product is not finite$"):
                call()
        elif abs(want / 2) < _TINY / 2:
            assert abs(call() - want) <= 2 * 2.0 ** -1074, draw
        else:
            assert abs(call() / 2 - want / 2) <= 1e-14 * abs(want / 2), draw


@pytest.mark.parametrize("F, G", [
    (KernelCombo(1, [1e-300, 1e300], [[0.0], [-800.0]]), KernelCombo(1, [1.0], [[1.0]])),
    (KernelCombo(1, [1e-300], [[-100.0]]), KernelCombo(1, [1e200], [[1.0]])),
    (KernelCombo(1, [1e300], [[-720.0]]), KernelCombo(1, [1.0], [[1.0]])),
    (KernelCombo(1, [1e300], [[-1000.0]]), KernelCombo(1, [1.0], [[1.0]])),
], ids=["tiny-beside-far", "tiny-times-huge", "near-the-normal-edge", "far-below"])
def test_inner_at_the_edges_is_the_exact_sum(F, G):
    # the fold path writes each term v 2^p and sums at the largest p; a
    # plain sum would lose the tiny term beside an underflowing e^-800 and
    # give 0 for 1e-300 e^-100 1e200, and a k log 2 added to an exponent
    # as one double would miss the last digits
    _assert_inner_is_exact(F, G)


def test_inner_of_two_cancelling_overflowing_terms_is_zero():
    # 1e308 e^30 overflows, and the two terms' folds cancel exactly; the
    # reference's phase of -1e308, pi rounded, cannot show that
    F, x = KernelCombo(1, [1e308, -1e308], [[30.0], [30.0]]), [1.0]
    G = KernelCombo(1, [1.0], [x])
    assert inner(F, G) == inner(G, F) == F(x) == 0.0


def test_inner_against_the_exact_reference():
    # 1 to 3 terms per side, coefficients of modulus 10^U(-320, 308) with a
    # random phase, Re E in [-1500, 1500]; |Im E| <= 4, as the reference's
    # phase is a double, whose rounding at |Im E| = 1500 alone is 1e-13
    rng = np.random.default_rng(3406)
    for _ in range(2000):
        F, G = (KernelCombo(2, [cmath.rect(10.0 ** rng.uniform(-320, 308), rng.uniform(-math.pi, math.pi))
                                for _ in range(m)],
                            rng.uniform(-27.3, 27.3, (m, 2)) + 1j * rng.uniform(-0.035, 0.035, (m, 2)))
                for m in rng.integers(1, 4, 2).tolist())
        _assert_inner_is_exact(F, G, (F.coeffs, F.points, G.coeffs, G.points))
