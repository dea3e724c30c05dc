"""The kernel defects keep the overflow contract at the edges of the float
range: a theta below the normal range, a theta whose modulus overflows, and
exponents that span the whole range.  Each side is scaled by one shift e^{-c}
(``oracle._scaled``), and a coefficient far from 1 by an exact power of two
first, so each input gives a finite defect or the named ``ValueError``, and
nothing warns."""

import json
import math

import pytest

from fockwc import (
    WcSymbol, adjoint_defect, adjoint_symbol, identity_conjugation, j_symmetry_defect,
    pairing_defect,
)
from test_cli import run_child, write

pytestmark = pytest.mark.filterwarnings("error")

# |theta| < 2^-1022: with log|theta| in the shift, e^{E - c} alone would overflow
SUBNORMAL = (1e-320, [0.0], [[0.5]], [30.0])
SUBNORMAL_POINTS = [[27.0], [0.1]]
# |theta| overflows although both parts are finite
HUGE = (1.5e308 + 1.5e308j, [0.0], [[0.5]], [0.1])
HUGE_POINTS = [[0.3], [0.1]]
# exponents from -1.5e308 to 1.5e308: E - c overflows to -inf
WIDE = (1.0, [0.0], [[0.5]], [1e154])
WIDE_POINTS = [[1e154], [-1e154]]


def _defects(theta, ell, Q, q, points):
    S = WcSymbol(theta, ell, Q, q)
    return adjoint_defect(S, points), j_symmetry_defect(S, identity_conjugation(1), points)


@pytest.mark.parametrize(
    "symbol, inside, points, expected",
    [
        (SUBNORMAL, 1e-300, SUBNORMAL_POINTS, (0.0, 1.9317854773543533e-158)),
        (HUGE, 1e300 + 1e300j, HUGE_POINTS, (0.0, 0.019216109047794194)),
    ],
    ids=["subnormal-theta", "theta-modulus-overflows"],
)
def test_defects_at_an_edge_theta_are_finite(symbol, inside, points, expected):
    """The defects are relative, and here max|lhs| is far above 1, so they
    barely depend on theta: the edge value agrees with one well inside the
    range to roundoff."""
    _, *rest = symbol
    got = _defects(*symbol, points)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert got == pytest.approx(_defects(inside, *rest, points), rel=1e-12, abs=0.0)


def test_exponents_spanning_the_range_give_the_named_error():
    """The two sides' largest exponents differ by one ulp of 1.5e308, so the
    ratio of the sides really is not finite.  The J-symmetry form compares
    one Gram matrix with its transpose, whose entries off the diagonal are
    at most e^{-1e308} times the largest."""
    S = WcSymbol(*WIDE)
    with pytest.raises(ValueError, match="^kernel defect is not finite$"):
        adjoint_defect(S, WIDE_POINTS)
    assert j_symmetry_defect(S, identity_conjugation(1), WIDE_POINTS) == 0.0


@pytest.mark.parametrize("theta", [1e-300, 1e-320], ids=["far-below-the-window", "subnormal"])
def test_a_folded_defect_keeps_the_ratio_of_sides_past_exponent_2_to_the_20(theta):
    """E reaches 3e6, past the 2^20 at which fold_exp clips an exponent:
    the sides are folded after one common shift, so their ratio e^3 stays
    and the defect is the one theta = 1 gets on the plain path, e^3 - 1 up
    to the rounding of E near 3e6 (about 5e-10 in the exponent)."""
    points = [[3e3], [1e3], [-2e3]]
    got = [pairing_defect(WcSymbol(a, [0.0], [[0.5]], [1e3]),
                          adjoint_symbol(WcSymbol(a, [0.0], [[0.5]], [1e3 + 1e-3])), points)
           for a in (theta, 1.0)]
    assert got[0] == pytest.approx(got[1], rel=1e-12, abs=0.0)
    assert got[1] == pytest.approx(math.expm1(3.0), rel=1e-8, abs=0.0)


def _symbol_json(theta, ell, Q, q):
    theta = complex(theta)
    return {"theta": [theta.real, theta.imag], "ell": [[x, 0.0] for x in ell],
            "Q": [[[x, 0.0] for x in row] for row in Q], "q": [[x, 0.0] for x in q]}


@pytest.mark.parametrize(
    "symbol, points, code",
    [(SUBNORMAL, SUBNORMAL_POINTS, 0), (HUGE, HUGE_POINTS, 0), (WIDE, WIDE_POINTS, 2)],
    ids=["subnormal-theta", "theta-modulus-overflows", "wide-exponents"],
)
def test_oracle_defect_command_exits_cleanly(tmp_path, symbol, points, code):
    """Exit 0 with strict JSON and no stderr, or exit 2 with one named
    error line: never a traceback or a warning."""
    S = write(tmp_path, "S.json", _symbol_json(*symbol))
    Z = write(tmp_path, "Z.json", {"points": [[[x, 0.0] for x in p] for p in points]})
    proc = run_child(["-W", "error::RuntimeWarning", "-m", "fockwc.cli", "oracle-defect",
                      "--in", S, "--points", Z])
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
        doc = json.loads(proc.stdout, parse_constant=pytest.fail)
        assert doc["verdict"] == "true" and doc["residuals"]["adjoint_defect"] == 0.0
    else:
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: kernel defect is not finite"]
