"""The library owns the overflow contract: an input that overflows raises a
``ValueError`` naming the quantity, or leaves an ``inf`` that fails its
verdict, whether or not the call comes through the command line.  The CLI
has no floating-point trap of its own.  Each regression test here warned,
raised ``OverflowError`` or printed an unnamed range error before the
library closed its leak; the others pin which quantity is named first and
the rule for a vector residual that overflows."""

import json
import math

import numpy as np
import pytest

from fockwc import (
    SemigroupParams,
    WcSymbol,
    check_real_symmetric,
    check_skew_real_symmetric,
    identity_conjugation,
    symbol_at,
    symbol_distance,
    symbols_equal,
    validate_J_conditions,
)
from test_cli import invoke, run_child, write

pytestmark = pytest.mark.filterwarnings("error")

# ell - q is finite, but its norm overflows
S_ELL = WcSymbol(1.0, [1e308], [[0.5]], [0.0])
S_ELL_JSON = {"theta": [1, 0], "ell": [[1e308, 0]], "Q": [[[0.5, 0]]], "q": [[0, 0]]}
# |theta| overflows although both parts are finite
T_BIG = WcSymbol(1.5e308 + 1.5e308j, [0.0], [[0.5]], [0.0])
T_TINY = WcSymbol(1e-300, [0.0], [[0.5]], [0.0])


@pytest.mark.parametrize("check", [check_real_symmetric, check_skew_real_symmetric])
def test_real_symmetry_names_ell_minus_q(check):
    with pytest.raises(ValueError, match="^ell - q is not finite$"):
        check(S_ELL)


def test_real_symmetry_names_Q_minus_Q_star_first():
    S = WcSymbol(1.0, [1e308, 0], [[0, 1e308], [-1e308, 0]], [0, 0])
    with pytest.raises(ValueError, match=r"^Q - Q\* contains non-finite entries"):
        check_real_symmetric(S)


@pytest.mark.parametrize(
    "q_star, ell_star", [([1e308], [0.0]), ([0.0], [1e308])], ids=["q_star", "ell_star"],
)
def test_symbol_at_overflow_raises(q_star, ell_star):
    with pytest.raises(ValueError):
        symbol_at(SemigroupParams([[0]], q_star, ell_star, 0), 2.0)


def test_symbols_equal_at_overflowing_theta_modulus():
    assert symbols_equal(T_BIG, T_BIG) is True
    assert symbol_distance(T_BIG, T_TINY) == math.inf
    assert symbols_equal(T_BIG, T_TINY) is False
    # the bound stays relative: a distance of 1.6e308 is far above 1e-10 |theta|
    assert symbols_equal(T_BIG, WcSymbol(1e308, [0.0], [[0.5]], [0.0])) is False


def test_validate_J_conditions_names_AOmega():
    P = SemigroupParams([[0, 1e308], [-1e308, 0]], [0, 0], [0, 0], 0)
    with pytest.raises(ValueError, match=r"^AOmega\^t - AOmega contains non-finite entries"):
        validate_J_conditions(P, identity_conjugation(2))


def test_classify_overflow_stderr_is_one_error_line(tmp_path):
    path = write(tmp_path, "S.json", S_ELL_JSON)
    proc = run_child(["-m", "fockwc.cli", "classify", "--in", path])
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ell - q"), proc.stderr


def test_overflowing_vector_residual_fails_its_verdict(tmp_path, capsys):
    # the rule for a residual that overflows to inf or NaN: it fails the
    # verdict and is written as null, with exit 1
    P = {"d": 1, "Omega": [[[-1e307, 0]]], "q_star": [[0, 0]], "ell_star": [[1, 0]],
         "theta_star": [0, 0]}
    argv = ["semigroup-check", "--in", write(tmp_path, "P.json", P),
            "--conj", write(tmp_path, "J.json", identity_conjugation(1).to_json())]
    code, out, err = invoke(capsys, argv)
    doc = json.loads(out)
    assert code == 1 and err == ""
    assert doc["verdict"] == "false" and doc["residuals"]["ell_condition"] is None
    assert np.isfinite(doc["residuals"]["AOmega_symmetric"])


def test_a_tiny_coefficient_times_an_exponential_past_709_is_finite():
    # 1e-320 e^720 = 4.92e-8: the coefficient is scaled by an exact power of
    # two before exp is taken, not refused as "psi(z) is not finite"
    from fockwc.symbols import ScaledKernel, compose, evaluate

    want = math.exp(math.log(1e-320) + 720.0)
    psi, _ = evaluate(WcSymbol(1e-320, [1.0], [[0.5]], [0.0]), [720.0])
    assert psi == pytest.approx(want, rel=1e-12)
    assert ScaledKernel(1e-320, [1.0])([720.0]) == pytest.approx(want, rel=1e-12)
    # theta1 theta2 = 1e-320 is subnormal and <q1, ell2> = 720
    S = compose(WcSymbol(1e-160, [0.0], [[0.5]], [1.0]), WcSymbol(1e-160, [720.0], [[0.5]], [0.0]))
    assert S.theta == pytest.approx(math.exp(math.log(1e-160 * 1e-160) + 720.0), rel=1e-12)
    # a product that overflows after the scaling still names the exponent
    with pytest.raises(ValueError, match=r"^psi\(z\) is not finite: exponent 2000\+0j$"):
        evaluate(WcSymbol(1e-300, [1.0], [[0.5]], [0.0]), [2000.0])


# 1e-300 expm1(100) / 1e32 = 2.688e-289, as q_t of the same pack with
# q* = 1, times 1e-300: q_t is linear in q*, and e^100 itself is 4.7e-12
# from exp(100) at the semigroups' tol, with q* = 1 as with q* = 1e-300
_E100 = 1e-300 * symbol_at(SemigroupParams([[1e32]], [1.0], [0.0], 0.0), 1e-30).q[0]
# (Omega, q*, l*, t) and (theta_t, l_t, q_t), the components ordinary
# doubles, while a power of two that scales q_t, l_t or the theta_t corner
# back is past the doubles: 2**k is inf above k = 1023 and 0 below -1074
_PAST_THE_DOUBLES = [
    (([[-1e20]], [1e300], [0.0], 1e10), (1.0, 0.0, 1e280)),
    (([[-1e20]], [1e300], [1e-300], 1e10), (math.exp(1e-10), 1e-320, 1e280)),
    (([[-1e20]], [0.0], [1e300], 1e10), (1.0, 1e280, 0.0)),
    (([[1e32]], [1e-300], [0.0], 1e-30), (1.0, 0.0, _E100)),
    (([[1e32]], [0.0], [1e-300], 1e-30), (1.0, _E100, 0.0)),
]


@pytest.mark.parametrize("args, want", _PAST_THE_DOUBLES,
                         ids=["q-1e280", "ell-1e-320", "ell-1e280", "q-2.7e-289", "ell-2.7e-289"])
def test_symbol_at_scales_back_by_a_power_of_two_past_the_doubles(args, want):
    *pack, t = args
    S = symbol_at(SemigroupParams(*pack, 0.0), t)
    for got, value in zip((S.theta, S.ell[0], S.q[0]), want):
        assert abs(got - value) <= 1e-12 * abs(value), (got, value)


@pytest.mark.parametrize("ell2, rounded", [(700.0, 1.0142e-36), (800.0, 2.7264e7)], ids=["1e-36", "2.7e7"])
def test_compose_folds_each_theta_where_their_product_underflows(ell2, rounded):
    # theta1 theta2 = 1e-340 underflows to zero, yet theta = 1e-340 e^ell2
    # is an ordinary double
    from fockwc.symbols import compose

    S = compose(WcSymbol(1e-170, [0.0], [[0.5]], [1.0]), WcSymbol(1e-170, [ell2], [[0.5]], [0.0]))
    value = math.exp(2.0 * math.log(1e-170) + ell2)
    assert abs(S.theta - value) <= 1e-12 * value
    assert abs(value / rounded - 1.0) < 1e-4
