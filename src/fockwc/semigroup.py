"""J-selfadjoint semigroups of weighted composition operators.

A parameter pack (Omega, q*, l*, theta*) generates the one-parameter
symbol family

    Q_t = e^{t Omega},
    q_t = int_0^t e^{s Omega} q* ds          = t phi1(t Omega) q*,
    l_t = int_0^t e^{s Omega*} l* ds         = t phi1(t Omega)* l*,
    theta_t = exp(theta* t + <int_0^t q_s ds, l*>),
        with int_0^t q_s ds = t^2 phi2(t Omega) q*.

The integrals are evaluated in closed form through the phi-functions, which
stays correct for singular Omega.  The generator acts on polynomials as the
first-order differential operator

    G f(z) = (theta* + <z, l*>) f(z) + sum_k (df/dz_k)(z) (Omega z + q*)_k,

where the gradient term is the plain bilinear sum: that is what the chain
rule in d/dt [psi_t(z) f(phi_t(z))] at t = 0 produces, and it keeps G f
holomorphic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .jsonio import COMPLEX, MATRIX, VECTOR, Record
from .conjugation import ConjugationParams, require_valid
from .linalg import (
    DEFAULT_TOL, _residual_norms, adj, as_vector, expm_phi12, pairing, residuals_within,
)
# unused here, but kept as module attributes that benchmarks/tracing.py wraps
from .linalg import expm, op_norm, phi12  # noqa: F401
from .oracle import poly_coeff_vector, trunc_symbol_matrix, _tables
from .polynomials import MPoly
from .symbols import (
    WcSymbol, _equality_bound, _theta_times_exp, act_on_kernel, compose, identity_symbol,
    symbol_distance,
)

__all__ = [
    "SemigroupParams",
    "symbol_at",
    "validate_J_conditions",
    "check_laws",
    "generator_apply",
    "generator_fd_residual",
    "continuity_defect",
]


@dataclass(frozen=True, eq=False)
class SemigroupParams(Record):
    """Data (Omega, q*, l*, theta*) generating the symbol family."""

    Omega: np.ndarray
    q_star: np.ndarray
    ell_star: np.ndarray
    theta_star: complex

    _JSON = ("semigroup", {"Omega": MATRIX, "q_star": VECTOR,
                           "ell_star": VECTOR, "theta_star": COMPLEX})


def symbol_at(P: SemigroupParams, t: float, tol: float = 1e-13) -> WcSymbol:
    """The symbol (theta_t, l_t, Q_t, q_t) of the semigroup at time t >= 0.

    t = 0 returns the identity symbol exactly.  Q_t, phi1 and phi2 come
    from one augmented exponential; Q_t is its top-left block, not
    I + t Omega phi1(t Omega), which cancels when e^{t Omega} is small.
    l_t uses the adjoint of phi1(t Omega), which equals phi1(t Omega*)
    identically (real series coefficients) and keeps the two coefficient
    paths numerically in step.
    """
    t = float(t)
    if t < 0:
        raise ValueError("time must be non-negative")
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    if t == 0.0:
        return identity_symbol(P.dim)
    Q_t, p1, p2 = expm_phi12(t * P.Omega, tol)
    # an overflowing component is rejected by name in pairing or WcSymbol, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        q_t = t * (p1 @ P.q_star)
        ell_t = t * (adj(p1) @ P.ell_star)
        q_integral = t * t * (p2 @ P.q_star)
    expo = P.theta_star * t + pairing(q_integral, P.ell_star)
    theta_t = _theta_times_exp(1.0, expo, f"theta_t at t = {t!r}", lambda: 0.0)
    return WcSymbol._owned(theta_t, ell_t, Q_t, q_t)


def validate_J_conditions(
    P: SemigroupParams, J: ConjugationParams, tol: float = DEFAULT_TOL
) -> tuple[bool, dict]:
    """Residuals of the parameter conditions for a J-selfadjoint semigroup:

        (A Omega)^t = A Omega,
        Omega* l* = conj(A Omega q*) - (Omega*)^2 conj(b).

    The verdict uses exactly those two residuals.  A third diagnostic,
    "first_order", reports || l* - conj(A q*) + Omega* conj(b) ||: it is the
    first t-derivative of the selfadjointness identity, implies the second
    condition, and is the one that remains binding when Omega is singular
    (for invertible Omega the two are equivalent).
    """
    require_valid(J)
    if P.dim != J.dim:
        raise ValueError("semigroup and conjugation dimensions differ")
    # never a warning: AOmega^t - AOmega raises by name where it overflows,
    # an overflowing vector residual is inf or NaN and fails the verdict
    with np.errstate(over="ignore", invalid="ignore"):
        AOm = J.A @ P.Omega
        Om_ad = adj(P.Omega)
        bbar = np.conj(J.b)
        second = Om_ad @ P.ell_star - (
            np.conj(AOm @ P.q_star) - Om_ad @ (Om_ad @ bbar)
        )
        first = P.ell_star - (np.conj(J.A @ P.q_star) - Om_ad @ bbar)
        verdict = {
            "AOmega_symmetric": _residual_norms(AOm, "AOmega", "X^t - X")[0],
            "ell_condition": float(np.linalg.norm(second)),
        }
        first_order = float(np.linalg.norm(first))
    return residuals_within(verdict, tol), {**verdict, "first_order": first_order}


def check_laws(
    P: SemigroupParams, t: float, s: float, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Semiflow/semicocycle laws: C(t) C(s) = C(t+s) on symbols.

    Both compose orders are tested (the coefficient flows commute), and the
    returned defect is the worst componentwise deviation.
    """
    if t < 0 or s < 0:
        raise ValueError("times must be non-negative")
    S_t = symbol_at(P, t)
    S_s = symbol_at(P, s)
    S_ts = symbol_at(P, t + s)
    products = (compose(S_t, S_s), compose(S_s, S_t))
    distances = [symbol_distance(C, S_ts) for C in products]
    ok = all(dist <= _equality_bound(C, S_ts, tol) for C, dist in zip(products, distances))
    return ok, max(distances)


def generator_apply(P: SemigroupParams, f: MPoly) -> MPoly:
    """Generator on polynomials:
    G f = (theta* + <z, l*>) f + sum_k (df/dz_k) (Omega z + q*)_k;
    ``ValueError`` naming G f where a coefficient overflows."""
    if f.dim != P.dim:
        raise ValueError("polynomial and semigroup dimensions differ")
    d = P.dim
    # keys in the order MPoly.__mul__ accumulates in: the constant, then e_0 ... e_{d-1}
    units = [tuple(int(j == k) for j in range(d)) for k in range(d)]

    def affine(const: complex, linear: list) -> MPoly:
        return MPoly._owned(d, {(0,) * d: const, **dict(zip(units, linear))})

    # with f and P valid, MPoly raises here only for a coefficient that overflows
    try:
        out = affine(P.theta_star, np.conj(P.ell_star).tolist()) * f
        q_star, Omega = P.q_star.tolist(), P.Omega.tolist()
        for k in range(d):
            fk = f.partial(k)
            if fk.coeffs:
                out = out + fk * affine(q_star[k], Omega[k])
    except ValueError as exc:
        raise ValueError(f"G f overflows: {exc}") from exc
    return out


def generator_fd_residual(
    P: SemigroupParams, f: MPoly, h: float, N: int | None = None
) -> float:
    """Forward-difference check of the generator: || (C(h)f - f)/h - G f ||.

    Coefficients are compared up to degree deg(f) + 1 on the truncated
    basis (exact there, since composition cannot raise those coefficients
    from degrees beyond N).  The residual is O(h) for generic input;
    ``ValueError`` where it overflows.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    deg = max(f.degree(), 0)
    if N is None:
        N = deg + 2
    if N < deg + 2:
        raise ValueError("need N >= deg(f) + 2")
    T = trunc_symbol_matrix(symbol_at(P, h), N)
    v = poly_coeff_vector(f, N)
    g = poly_coeff_vector(generator_apply(P, f), N)
    mask = _tables(P.dim, N).degree <= deg + 1
    with np.errstate(over="ignore", invalid="ignore"):
        resid = float(np.linalg.norm(((T.apply(v) - v) / h - g)[mask]))
    if not math.isfinite(resid):
        raise ValueError("generator forward-difference residual is not finite")
    return resid


def continuity_defect(P: SemigroupParams, w, t: float) -> float:
    """Exact value of ||C(t) K_w - K_w||, for the strong-continuity axiom.

    With (a, u) = act_on_kernel(symbol_at(t), w),

        ||a K_u - K_w||^2 = |a|^2 e^{|u|^2} + e^{|w|^2}
                            - 2 Re(conj(a) e^{<u, w>}),

    evaluated with e^{|w|^2} factored out, so that it stays finite wherever
    the defect itself is.  ``ValueError`` where the defect overflows.
    """
    w = as_vector(w, P.dim, "w")
    img = act_on_kernel(symbol_at(P, t), w)
    a, u = img.coeff, img.point
    w2 = pairing(w, w).real
    try:
        scaled = (
            abs(a) ** 2 * math.exp(pairing(u, u).real - w2)
            + 1.0
            - 2.0 * (a.conjugate() * cmath.exp(pairing(u, w) - w2)).real
        )
        root = math.sqrt(max(scaled, 0.0))
        defect = math.exp(0.5 * w2 + math.log(root)) if root > 0.0 else 0.0
    except OverflowError:
        defect = math.inf
    if not math.isfinite(defect):
        raise ValueError(f"continuity defect is not finite at |w|^2 = {w2:.6g}")
    return defect
