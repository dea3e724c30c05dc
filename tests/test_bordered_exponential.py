"""The semigroup symbol from one bordered exponential: ``symbols_at`` reads
Q_t, q_t, l_t and the theta_t integral off e^W, W = [[0, t l*^H, 0],
[0, t Omega, t q*], [0, 0, 0]], with each border scaled by a power of two.
It agrees with the phi-function formula over a wide range of border sizes,
and ``expm`` answers the bordered shape of a decayed t Omega."""

import cmath
import itertools
import math

import numpy as np
import pytest

import fockwc as fw
from fockwc.linalg import expm
from fockwc.semigroup import _PHI_TOL
from helpers import crandn, ref_symbol_at

pytestmark = pytest.mark.filterwarnings("error")

# each component of symbol_at agrees with the phi-function formula to this
# multiple of _PHI_TOL times the component's magnitude; both formulas ask
# _PHI_TOL of their exponential, and the largest deviation seen is 0.61
_AGREEMENT = 4.0
# |t q*| / ||t Omega||_1 and |t l*| / ||t Omega||_1, against t for Omega = 0
_BORDER_RATIOS = (1e-8, 1e-4, 1.0, 1e4, 1e8)
_TIMES = (1e-3, 0.1, 1.0, 10.0)


def _omega(rng, d, kind):
    """A d x d Omega of 1-norm 1, or zero (so for d = 1 unless random)."""
    M = crandn(rng, d, d)
    if kind == "zero":
        M[:] = 0.0
    elif kind == "singular":
        M[:, 0] = 0.0 if d == 1 else M[:, 1]
    elif kind == "nilpotent":
        M = np.triu(M, 1)
    nrm = np.abs(M).sum(axis=0).max()
    return M / nrm if nrm else M


def _relative(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("d", range(1, 9))
def test_symbol_at_agrees_with_the_phi_function_formula(d):
    rng = np.random.default_rng(4100 + d)
    compared = 0
    for kind in ("random", "zero", "singular", "nilpotent"):
        for t, (rq, rl) in itertools.product(_TIMES, itertools.product(_BORDER_RATIOS, repeat=2)):
            Omega = _omega(rng, d, kind)
            size = t * float(np.abs(Omega).sum(axis=0).max()) or t
            q_star, ell_star = crandn(rng, d), crandn(rng, d)
            q_star *= rq * size / (t * np.abs(q_star).sum())
            ell_star *= rl * size / (t * np.abs(ell_star).sum())
            P = fw.SemigroupParams(Omega, q_star, ell_star, crandn(rng))
            integral, scale, ell_t, Q_t, q_t = ref_symbol_at(P, t)
            expo = P.theta_star * t + integral
            if abs(expo.real) > 800.0:
                # theta_t overflows or underflows: named with its time
                with pytest.raises(ValueError, match=rf"^theta_t at t = {t!r} "):
                    fw.symbol_at(P, t)
                continue
            if abs(expo.real) > 600.0:
                continue  # near the range of exp, where a rounding decides
            S = fw.symbol_at(P, t)
            bound = _AGREEMENT * _PHI_TOL
            where = (kind, t, rq, rl)
            assert _relative(S.Q, Q_t) <= bound, where
            if q_star.any():
                assert _relative(S.q, q_t) <= bound, where
            if ell_star.any():
                assert _relative(S.ell, ell_t) <= bound, where
            # theta_t / exp(theta* t + integral) - 1 is the integral's error
            assert abs(S.theta / cmath.exp(expo) - 1.0) <= bound * (1.0 + scale), where
            compared += 1
    assert compared >= 250  # the others check the named theta_t error


# --- expm and the bordered shape of a decayed t Omega -------------------------


@pytest.mark.parametrize("omega, t", [
    (-1.5 * 2.0 ** 50, 1.0), (-1e20, 0.5), (-1e150, 3.0), (-1e307, 0.5),
])
@pytest.mark.parametrize("q_star, ell_star", [
    (1.0, 1.0), (1e100, -2e-95j), (3 + 4j, 1e-30j), (-1e300, 1e-295),
])
def test_a_decayed_t_omega_with_borders_is_answered(omega, t, q_star, ell_star):
    # e^{t omega} rounds to zero: q_t = t (e^{t omega} - 1) / (t omega) q*,
    # and the same for l_t, with real omega; |q* l*| is small enough for a
    # finite theta_t
    P = fw.SemigroupParams([[omega]], [q_star], [ell_star], 0.0)
    S = fw.symbol_at(P, t)
    factor = t * math.expm1(t * omega) / (t * omega)
    assert S.Q[0, 0] == 0
    for got, star in ((S.q[0], q_star), (S.ell[0], ell_star)):
        want = factor * star
        if abs(want) > 1e-290:
            assert abs(got - want) <= 1e-14 * abs(want), (got, want)


def _bordered(tomega, left, right):
    """[[0, left, 0], [0, t Omega, right], [0, 0, 0]] for a 1 x 1 t Omega."""
    return np.array([[0, left, 0], [0, tomega, right], [0, 0, 0]], dtype=complex)


def _refusal(W):
    nrm = float(np.abs(W).sum(axis=0).max())
    return f"matrix 1-norm {nrm:.3e} is at least 2**50: its exponential has no correct digits"


@pytest.mark.parametrize("entry", [(2, 0), (2, 1), (1, 0)],
                         ids=("last-row-to-first", "last-row-to-decayed", "decayed-to-first"))
def test_a_border_entry_below_the_diagonal_is_refused(entry):
    # the non-decayed rows are the first (it feeds the decayed block) and the
    # last (the decayed block feeds it); any entry below the diagonal in
    # that order keeps e^W from being a polynomial past the decayed block
    W = _bordered(-1e20, 0.5, 0.5)
    assert not expm(W)[1, 1] and expm(W)[0, 2] != 0
    W[entry] = 0.25
    with pytest.raises(ValueError) as excinfo:
        expm(W)
    assert str(excinfo.value) == _refusal(W)


@pytest.mark.parametrize("q_star, ell_star", [(1e30, 1e-30j), (1e8, -1e6)])
def test_the_refusal_reads_t_omega_within_one_half(q_star, ell_star):
    # each border is scaled to at most 1/2, so ||W||_1 is at most 1/2 above
    # ||t Omega||_1: just below 2**50 it is answered however large q* and
    # l* (|q* l*| / ||t Omega||_1 is small enough for a finite theta_t)
    below = 2.0 ** 50 * (1.0 - 2.0 ** -10)
    fw.symbol_at(fw.SemigroupParams([[1j * below]], [q_star], [ell_star], 0.0), 1.0)
    P = fw.SemigroupParams([[1j * 2.0 ** 50]], [q_star], [ell_star], 0.0)
    with pytest.raises(ValueError) as excinfo:
        fw.symbol_at(P, 1.0)
    assert str(excinfo.value) == f"Q_t at t = 1.0: {_refusal([[2.0 ** 50]])}"
