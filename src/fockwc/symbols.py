"""Affine-exponential symbols and their exact operator calculus.

A symbol is the quadruple (theta, ell, Q, q) encoding the weight and the
self-map

    psi(z) = theta * e^{<z, ell>},      phi(z) = Q z + q,

the class in which every weighted composition operator with a symmetry
on the Fock space F^2(C^d) lives.  The operator C f = psi * (f o phi)
acts on reproducing kernels K_w(u) = e^{<u, w>} by

    C K_w = theta * e^{<q, w>} * K_{Q* w + ell},

which makes the whole calculus (products, adjoints, unitary similarity)
exact arithmetic on the four components.  All operations return new
values; symbols are immutable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import PreconditionError
from .linalg import (
    adj, as_matrix, as_scalar, as_vector, fields_equal, freeze, is_unitary, pairing,
)

__all__ = [
    "ScaledKernel",
    "WcSymbol",
    "identity_symbol",
    "evaluate",
    "act_on_kernel",
    "act_on_kernels",
    "compose",
    "adjoint_symbol",
    "negate_theta",
    "unitary_similarity",
    "symbols_equal",
    "symbol_distance",
]

# absolute floor under the relative equality threshold
_EQ_FLOOR = 1e-12
# largest x with exp(x) finite in double precision
_EXP_MAX = math.log(np.finfo(np.float64).max)


def _times_exp(c: complex, expo: complex, what: str) -> complex:
    """c e^expo, or ``ValueError`` naming ``what`` when it is not finite;
    exp is never called where it would overflow."""
    if cmath.isfinite(expo) and expo.real <= _EXP_MAX:
        value = c * complex(np.exp(expo))
        if cmath.isfinite(value):
            return value
    raise ValueError(f"{what} is not finite: exponent {expo:.6g}")


@dataclass(frozen=True, eq=False)
class ScaledKernel:
    """A scalar multiple of one reproducing kernel: coeff * K_point."""

    coeff: complex
    point: np.ndarray

    __eq__ = fields_equal

    def __post_init__(self):
        coeff = as_scalar(self.coeff, "coeff")
        freeze(self, coeff=coeff, point=as_vector(self.point, name="point"))

    @property
    def dim(self) -> int:
        return self.point.size

    def __call__(self, x) -> complex:
        """Evaluate coeff * K_point at x, i.e. coeff * e^{<x, point>}."""
        x = as_vector(x, self.dim, "x")
        return _times_exp(self.coeff, pairing(x, self.point), "kernel value")


@dataclass(frozen=True, eq=False)
class WcSymbol:
    """Symbol (theta, ell, Q, q) of a weighted composition operator.

    ``theta`` must be nonzero (the weight is a nonzero entire function)
    and all components finite, with matching dimensions.
    """

    theta: complex
    ell: np.ndarray
    Q: np.ndarray
    q: np.ndarray

    __eq__ = fields_equal

    def __post_init__(self):
        theta = as_scalar(self.theta, "theta")
        if theta == 0:
            raise ValueError("theta must be nonzero")
        ell = as_vector(self.ell, name="ell")
        d = ell.size
        Q, q = as_matrix(self.Q, d, "Q"), as_vector(self.q, d, "q")
        freeze(self, theta=theta, ell=ell, Q=Q, q=q)

    @property
    def dim(self) -> int:
        return self.ell.size

    def to_json(self) -> dict:
        return {
            "d": self.dim,
            "theta": jsonio.complex_to_json(self.theta),
            "ell": jsonio.vector_to_json(self.ell),
            "Q": jsonio.matrix_to_json(self.Q),
            "q": jsonio.vector_to_json(self.q),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "WcSymbol":
        d, theta, ell, Q, q = jsonio.read_fields(
            obj, "symbol", d=int, theta=jsonio.complex_from_json,
            ell=jsonio.vector_from_json, Q=jsonio.matrix_from_json, q=jsonio.vector_from_json,
        )
        if ell.size != d:
            raise ValueError("symbol JSON has inconsistent dimension")
        return cls(theta, ell, Q, q)


def identity_symbol(d: int) -> WcSymbol:
    """The symbol of the identity operator: (1, 0, I, 0)."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return WcSymbol(1.0, np.zeros(d), np.eye(d), np.zeros(d))


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
    return ScaledKernel(coeff, points[0])


def compose(S1: WcSymbol, S2: WcSymbol) -> WcSymbol:
    """Symbol of the operator product C_{S1} C_{S2}.

    Pointwise, psi = psi1 * (psi2 o phi1) and phi = phi2 o phi1, which in
    components reads

        (theta1 theta2 e^{<q1, ell2>},  ell1 + Q1* ell2,  Q2 Q1,  Q2 q1 + q2).
    """
    if S1.dim != S2.dim:
        raise ValueError("compose requires symbols of equal dimension")
    theta = _times_exp(S1.theta * S2.theta, pairing(S1.q, S2.ell), "theta of the composition")
    # an overflowing component is rejected by name in WcSymbol, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        return WcSymbol(theta, S1.ell + adj(S1.Q) @ S2.ell, S2.Q @ S1.Q, S2.Q @ S1.q + S2.q)


def adjoint_symbol(S: WcSymbol) -> WcSymbol:
    """Symbol of the adjoint: (theta, ell, Q, q) -> (conj theta, q, Q*, ell).

    The adjoint acts on kernels by C* K_z = conj(psi(z)) K_{phi(z)}, and this
    quadruple is the unique symbol realizing that action.
    """
    return WcSymbol(np.conj(S.theta), S.q, adj(S.Q), S.ell)


def negate_theta(S: WcSymbol) -> WcSymbol:
    """Same symbol with the weight scalar negated (for skew symmetry tests)."""
    return WcSymbol(-S.theta, S.ell, S.Q, S.q)


def unitary_similarity(S: WcSymbol, U, V) -> WcSymbol:
    """Conjugated symbol under C_S = C_U C_{S~} C_V with unitary U, V.

    S~ = (theta, U ell, V* Q U*, V* q); the inverse transform is the same map
    with (U*, V*).  Raises ``PreconditionError`` unless U and V are unitary
    to within 1e-10.
    """
    U = as_matrix(U, S.dim, "U")
    V = as_matrix(V, S.dim, "V")
    for name, W in (("U", U), ("V", V)):
        ok, defect = is_unitary(W, 1e-10)
        if not ok:
            raise PreconditionError(
                f"{name} is not unitary (defect {defect:.2e})"
            )
    return WcSymbol(S.theta, U @ S.ell, adj(V) @ S.Q @ adj(U), adj(V) @ S.q)


def symbol_distance(S1: WcSymbol, S2: WcSymbol) -> float:
    """Largest componentwise deviation between two symbols."""
    if S1.dim != S2.dim:
        raise ValueError("symbols have different dimensions")
    return max(
        abs(S1.theta - S2.theta),
        float(np.max(np.abs(S1.ell - S2.ell))),
        float(np.max(np.abs(S1.Q - S2.Q))),
        float(np.max(np.abs(S1.q - S2.q))),
    )


def _magnitude(S: WcSymbol) -> float:
    return max(
        abs(S.theta),
        float(np.max(np.abs(S.ell))) if S.ell.size else 0.0,
        float(np.max(np.abs(S.Q))),
        float(np.max(np.abs(S.q))) if S.q.size else 0.0,
    )


def symbols_equal(S1: WcSymbol, S2: WcSymbol, tol: float = 1e-10) -> bool:
    """Componentwise equality with relative tolerance and absolute floor.

    The symbol representation is unique (theta = psi(0), ell from the
    exponent, Q and q from phi), so this decides equality of the operators
    on their common class.
    """
    scale = 1.0 + max(_magnitude(S1), _magnitude(S2))
    return symbol_distance(S1, S2) <= max(tol * scale, _EQ_FLOOR)
