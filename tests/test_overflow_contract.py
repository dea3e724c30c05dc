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
