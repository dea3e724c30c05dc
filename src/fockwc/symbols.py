"""Affine-exponential symbols and their exact operator calculus.

A symbol is the quadruple (theta, ell, Q, q) encoding the weight and the
self-map

    psi(z) = theta * e^{<z, ell>},      phi(z) = Q z + q,

the class in which every weighted composition operator with a symmetry
on the Fock space F^2(C^d) lives.  The operator C f = psi * (f o phi)
acts on reproducing kernels K_w(u) = e^{<u, w>} by

    C K_w = theta * e^{<q, w>} * K_{Q* w + ell},

which makes the whole calculus (products and adjoints; a unitary
similarity is a product with two unitary symbols) exact arithmetic on the
four components.  All operations return new values; symbols are
immutable.  The operations build their results by
``WcSymbol._owned`` (``linalg.owned``), without the public constructor's
coercion and copy but with its checks on theta and on finiteness.  A new
theta that underflows to zero raises a ``ValueError`` that names it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .jsonio import COMPLEX, MATRIX, VECTOR, Record
from .linalg import adj, as_scalar, as_vector, owned, pairing

__all__ = [
    "WcSymbol",
    "evaluate",
    "act_on_kernel",
    "compose",
    "adjoint_symbol",
    "negate_theta",
    "symbols_equal",
    "symbol_distance",
]

# absolute floor under the relative equality threshold
_EQ_FLOOR = 1e-12
_FLOAT_MAX = float(np.finfo(np.float64).max)
# largest x with exp(x) finite in double precision
_EXP_MAX = math.log(_FLOAT_MAX)


def _frexp(z: complex) -> tuple[complex, int]:
    """(z 2^-k, k), k the exponent of the larger part of z."""
    k = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    return complex(math.ldexp(z.real, -k), math.ldexp(z.imag, -k)), k


def _times_exp(c: complex, expo: complex, what: str, k: int = 0) -> complex:
    """c 2^k e^expo, or ``ValueError`` naming ``what`` when it is not finite;
    exp is never called where it would overflow.  Where k is not 0, or
    c e^expo is not finite, c is first scaled by the exact 2^-j, j the
    exponent of its larger part, and (k + j) log 2 joins expo: a tiny c
    times an e^expo past 709 is finite."""
    if not k and cmath.isfinite(expo) and expo.real <= _EXP_MAX:
        value = c * complex(np.exp(expo))
        if cmath.isfinite(value):
            return value
    c, j = _frexp(c)
    shifted = expo + (k + j) * math.log(2.0)
    if cmath.isfinite(shifted) and shifted.real <= _EXP_MAX:
        value = c * complex(np.exp(shifted))
        if cmath.isfinite(value):
            return value
    raise ValueError(f"{what} is not finite: exponent {expo:.6g}")


def _theta_times_exp(c: complex, expo: complex, what: str, log_c, k: int = 0) -> complex:
    """``_times_exp`` for the theta of a new symbol, which must be nonzero:
    where it underflows to zero, ``ValueError`` naming ``what`` and the
    exponent of the whole product, ``log_c() + expo``."""
    theta = _times_exp(c, expo, what, k)
    if theta == 0:
        raise ValueError(f"{what} underflows to zero: exponent {log_c() + expo:.6g}")
    return theta


def _nonzero(theta: complex) -> complex:
    if theta == 0:
        raise ValueError("theta must be nonzero")
    return theta


# the kind of a symbol's theta: a finite, nonzero complex number
_THETA = (*COMPLEX[:2], lambda z, d, name: _nonzero(as_scalar(z, name)))


@dataclass(frozen=True, eq=False)
class ScaledKernel(Record):
    """A scalar multiple of one reproducing kernel: coeff * K_point."""

    coeff: complex
    point: np.ndarray

    _JSON = ("kernel", {"coeff": COMPLEX, "point": VECTOR})

    def __call__(self, x) -> complex:
        """Evaluate coeff * K_point at x, i.e. coeff * e^{<x, point>}."""
        x = as_vector(x, self.dim, "x")
        return _times_exp(self.coeff, pairing(x, self.point), "kernel value")


@dataclass(frozen=True, eq=False)
class WcSymbol(Record):
    """Symbol (theta, ell, Q, q) of a weighted composition operator.

    ``theta`` must be nonzero (the weight is a nonzero entire function)
    and all components finite, with matching dimensions.
    """

    theta: complex
    ell: np.ndarray
    Q: np.ndarray
    q: np.ndarray

    _JSON = ("symbol", {"theta": _THETA, "ell": VECTOR, "Q": MATRIX, "q": VECTOR})

    @classmethod
    def _owned(cls, theta: complex, ell: np.ndarray, Q: np.ndarray, q: np.ndarray) -> WcSymbol:
        """The symbol of components the library has just computed
        (``linalg.owned``).  The public messages keep their order: theta is
        tested for zero first, which only a finite theta can fail."""
        return owned(cls, theta=_nonzero(theta), ell=ell, Q=Q, q=q)


def identity_symbol(d: int) -> WcSymbol:
    """The symbol of the identity operator: (1, 0, I, 0)."""
    if d < 1:
        raise ValueError("dimension must be positive")
    zero = np.zeros(d, dtype=np.complex128)
    return WcSymbol._owned(1.0, zero, np.eye(d, dtype=np.complex128), zero)


def evaluate(S: WcSymbol, z) -> tuple[complex, np.ndarray]:
    """Pointwise values (psi(z), phi(z)) by the defining formulas;
    ``ValueError`` naming the value that overflows."""
    z = as_vector(z, S.dim, "z")
    psi = _times_exp(S.theta, pairing(z, S.ell), "psi(z)")
    with np.errstate(over="ignore", invalid="ignore"):
        return psi, as_vector(S.Q @ z + S.q, name="phi(z)")


def act_on_kernels(S: WcSymbol, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C_S K_{w_i} = theta e^{expo_i} K_{points_i} for the rows w_i of ``W``:
    the exponents expo_i = <q, w_i> and the rows points_i = Q* w_i + ell.
    Overflow gives non-finite entries without a warning; callers check."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.conj(W) @ S.q, W @ np.conj(S.Q) + S.ell


def act_on_kernel(S: WcSymbol, w) -> ScaledKernel:
    """Image of K_w under C_S: theta e^{<q, w>} K_{Q* w + ell}."""
    w = as_vector(w, S.dim, "w")
    expo, points = act_on_kernels(S, w[None, :])
    coeff = _times_exp(S.theta, complex(expo[0]), "kernel image coefficient")
    return owned(ScaledKernel, coeff=coeff, point=points[0])


# an overflowing component is rejected by name in WcSymbol, not warned; the
# decorator form of errstate enters in half the time of the context manager
@np.errstate(over="ignore", invalid="ignore")
def compose(S1: WcSymbol, S2: WcSymbol) -> WcSymbol:
    """Symbol of the operator product C_{S1} C_{S2}.

    Pointwise, psi = psi1 * (psi2 o phi1) and phi = phi2 o phi1, which in
    components reads

        (theta1 theta2 e^{<q1, ell2>},  ell1 + Q1* ell2,  Q2 Q1,  Q2 q1 + q2).

    Where theta1 theta2 underflows to zero, the power of two of each factor
    joins the exponent, so a theta that is an ordinary double is formed.
    """
    if S1.dim != S2.dim:
        raise ValueError("compose requires symbols of equal dimension")
    expo = pairing(S1.q, S2.ell)
    c, k = S1.theta * S2.theta, 0
    if c == 0:
        (c1, k1), (c2, k2) = _frexp(S1.theta), _frexp(S2.theta)
        c, k = c1 * c2, k1 + k2
    theta = _theta_times_exp(c, expo, "theta of the composition",
                             lambda: cmath.log(S1.theta) + cmath.log(S2.theta), k)
    return WcSymbol._owned(theta, S1.ell + adj(S1.Q) @ S2.ell, S2.Q @ S1.Q, S2.Q @ S1.q + S2.q)


def adjoint_symbol(S: WcSymbol) -> WcSymbol:
    """Symbol of the adjoint: (theta, ell, Q, q) -> (conj theta, q, Q*, ell).

    The adjoint acts on kernels by C* K_z = conj(psi(z)) K_{phi(z)}, and this
    quadruple is the unique symbol realizing that action.
    """
    return WcSymbol._owned(S.theta.conjugate(), S.q, adj(S.Q), S.ell)


def negate_theta(S: WcSymbol) -> WcSymbol:
    """Same symbol with the weight scalar negated (for skew symmetry tests)."""
    return WcSymbol._owned(-S.theta, S.ell, S.Q, S.q)


def _modulus(z: complex) -> float:
    """abs(z), or ``inf`` where it overflows: abs raises ``OverflowError`` there."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _entries(S: WcSymbol) -> np.ndarray:
    """ell, Q and q of a symbol as one flat array, Q row by row: one
    reduction over it gives the largest entry of all three."""
    return np.concatenate((S.ell, S.Q, S.q), axis=None)


# an overflowing difference is inf, never a warning
@np.errstate(over="ignore", invalid="ignore")
def symbol_distance(S1: WcSymbol, S2: WcSymbol) -> float:
    """Largest componentwise deviation between two symbols; ``inf`` where one overflows."""
    if S1.dim != S2.dim:
        raise ValueError("symbols have different dimensions")
    return max(_modulus(S1.theta - S2.theta), float(np.abs(_entries(S1) - _entries(S2)).max()))


def _magnitude(S: WcSymbol) -> float:
    """Largest componentwise modulus of a symbol; ``inf`` where one overflows."""
    return max(_modulus(S.theta), float(np.abs(_entries(S)).max()))


def symbols_equal(S1: WcSymbol, S2: WcSymbol, tol: float = 1e-10) -> bool:
    """Componentwise equality with relative tolerance and absolute floor.

    The symbol representation is unique (theta = psi(0), ell from the
    exponent, Q and q from phi), so this decides equality of the operators
    on their common class.  An overflowing distance is ``inf``: unequal.
    """
    return symbol_distance(S1, S2) <= _equality_bound(_magnitude(S1), _magnitude(S2), tol)


def _equality_bound(size1: float, size2: float, tol: float) -> float:
    """The largest ``symbol_distance`` at which ``symbols_equal`` holds, for
    symbols of ``_magnitude`` ``size1`` and ``size2``.  Where a magnitude
    overflows, the scale is the largest float: the bound stays relative, and
    an overflowing distance unequal."""
    scale = min(1.0 + max(size1, size2), _FLOAT_MAX)
    return max(tol * scale, _EQ_FLOOR)
