"""J-selfadjoint semigroups of weighted composition operators.

A parameter pack (Omega, q*, l*, theta*) generates the one-parameter
symbol family

    Q_t = e^{t Omega},
    q_t = int_0^t e^{s Omega} q* ds          = t phi1(t Omega) q*,
    l_t = int_0^t e^{s Omega*} l* ds         = t phi1(t Omega)* l*,
    theta_t = exp(theta* t + <int_0^t q_s ds, l*>),
        with <int_0^t q_s ds, l*> = t^2 l*^H phi2(t Omega) q*.

All four are read off one exponential of the bordered (d+2) x (d+2) matrix
(Van Loan, IEEE TAC 1978)

    W = [[0, t l*^H, 0], [0, t Omega, t q*], [0, 0, 0]],
    e^W = [[1, t l*^H phi1, t^2 l*^H phi2 q*], [0, e^{t Omega}, t phi1 q*], [0, 0, 1]],

with phi_k = phi_k(t Omega): Q_t is the middle block, q_t the last column,
l_t the conjugate of the first row and the theta_t integral the corner.  No
inverse of Omega is taken, so this stays correct for singular Omega.  The
generator acts on polynomials as the first-order differential operator

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
from . import linalg
from .linalg import (
    DEFAULT_TOL, _DigitsLost, _residual_norms, adj, as_vector, derived, pairing, residuals_within,
)
# unused here, but kept as module attributes that benchmarks/tracing.py wraps
from .linalg import expm, op_norm, phi12  # noqa: F401
from .oracle import poly_coeff_vector, trunc_symbol_matrix, _tables
from .polynomials import MPoly
from .symbols import (
    WcSymbol, _equality_bound, _magnitude, _theta_times_exp, act_on_kernel, compose,
    identity_symbol, symbol_distance,
)

__all__ = [
    "SemigroupParams",
    "symbol_at",
    "symbols_at",
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


# accuracy asked of the stacked exponentials behind every Q_t, q_t and l_t
_PHI_TOL = 1e-13


def symbol_at(P: SemigroupParams, t: float) -> WcSymbol:
    """The symbol (theta_t, l_t, Q_t, q_t) of the semigroup at time t >= 0.

    t = 0 returns the identity symbol exactly.  All four components come
    from one exponential of the bordered matrix W of the module docstring:
    Q_t is its middle block, not I + t Omega phi1(t Omega), which cancels
    when e^{t Omega} is small; q_t is its last column, l_t the conjugate of
    its first row, t phi1(t Omega)* l*, and the theta_t integral its corner.
    It is ``symbols_at(P, [t])[0]``.
    """
    return symbols_at(P, [t])[0]


def _bordered(P: SemigroupParams) -> tuple:
    """What the bordered matrices of P share: B, the (d+2) x (d+2) zero
    matrix with Omega in its middle block, so that t B is W without its
    borders; and q* and conj(l*), each as (v 2**-k, ||v 2**-k||_1, k) by
    ``linalg.frexp``, finite where ||v||_1 itself would overflow."""
    d = P.dim
    B = np.zeros((d + 2, d + 2), dtype=np.complex128)
    B[1:-1, 1:-1] = P.Omega
    B.setflags(write=False)
    borders = map(linalg.frexp, (P.q_star, np.conj(P.ell_star)))
    return (B, *((v, float(np.abs(v).sum()), k) for v, k in borders))


def _border_power(t: float, norm: float) -> int:
    """The power k with 2**-k t ``norm`` in (1/4, 1/2], from exponents alone,
    so that t ``norm`` never overflows; 0 for a zero ``norm``."""
    mt, et = math.frexp(t)
    m, e = math.frexp(mt * norm)
    return 0 if m == 0 else et + e + (m != 0.5)


# never a warning: an overflowing t Omega is rejected by expm, an overflowing
# component by name in WcSymbol or in theta_t
@np.errstate(over="ignore", invalid="ignore")
def symbols_at(P: SemigroupParams, times) -> list[WcSymbol]:
    """The symbols of the semigroup at each of ``times``, in order.

    Each time is checked as ``symbol_at`` checks it, with its messages, and
    t = 0 gives the identity symbol exactly.  Each positive time t has its
    bordered matrix W, and all of them go through one stacked
    ``linalg.expm``: each keeps its own scaling power, all share the largest
    Taylor degree, so each stays within ``_PHI_TOL``.  Each border of W is
    scaled by an exact power of two to a 1-norm in (1/4, 1/2], and q_t, l_t
    and the corner are scaled back by it exactly.  The Taylor degree follows
    ||W||_1, so a border far smaller than t Omega would lose phi2's corner,
    and one far larger would cost squarings and digits; at most 1/2, it
    moves ||W||_1 at most 1/2 from ||t Omega||_1.  A single time gives
    ``symbol_at``'s bits, as does any time whose own degree is the shared
    one.  A theta_t that overflows or underflows, and a W whose exponential
    ``expm`` refuses for its lost digits, are named with their own time.
    """
    times = [float(t) for t in times]
    positive = []
    for t in times:
        if t < 0:
            raise ValueError("time must be non-negative")
        if not math.isfinite(t):
            raise ValueError("time must be finite")
        if t > 0:
            positive.append(t)
    computed = []
    if positive:
        B, (q_hat, q_norm, q_k), (ell_hat, ell_norm, ell_k) = derived(P, "_bordered", _bordered)
        # t B for every time in one product, then two border products per
        # time: for one time, cheaper than a broadcast
        W = np.multiply.outer(positive, B)
        powers = []
        for t, M in zip(positive, W):
            kq, kl = _border_power(t, q_norm), _border_power(t, ell_norm)
            np.multiply(math.ldexp(t, -kl), ell_hat, M[0, 1:-1])
            np.multiply(math.ldexp(t, -kq), q_hat, M[1:-1, -1])
            powers.append((kq + q_k, kl + ell_k))
        try:
            E = linalg.expm(W, _PHI_TOL)
        except _DigitsLost as exc:
            raise ValueError(f"Q_t at t = {positive[exc.member]!r}: {exc}") from None
        for t, E_t, (kq, kl) in zip(positive, E, powers):
            q_t = linalg.ldexp(E_t[1:-1, -1], kq)
            ell_t = linalg.ldexp(np.conj(E_t[0, 1:-1]), kl)
            expo = P.theta_star * t + complex(linalg.ldexp(complex(E_t[0, -1]), kq + kl))
            theta_t = _theta_times_exp((1.0,), expo, f"theta_t at t = {t!r}")
            computed.append(WcSymbol._owned(theta_t, ell_t, E_t[1:-1, 1:-1], q_t))
    for i, t in enumerate(times):
        if t == 0:
            computed.insert(i, identity_symbol(P.dim))
    return computed


def validate_J_conditions(
    P: SemigroupParams, J: ConjugationParams, tol: float = DEFAULT_TOL
) -> tuple[bool, dict]:
    """Residuals of the parameter conditions for a J-selfadjoint semigroup:

        (A Omega)^t = A Omega,
        Omega* l* = conj(A Omega q*) - (Omega*)^2 conj(b),
        l* = conj(A q*) - Omega* conj(b)                  ("first_order"),

    and the verdict that all three hold.  The third is the first
    t-derivative of the selfadjointness identity; once (A Omega)^t = A Omega
    holds the second is Omega* times it, so for invertible Omega the two are
    equivalent, and for singular Omega only the third decides: Omega =
    diag(1, 0), q* = (0.2, 0.3), l* = (0.2, 0.9) under
    ``identity_conjugation(2)`` satisfies the first two, with "first_order"
    0.6, and is not J-selfadjoint.  J is validated at ``tol``.
    """
    require_valid(J, tol)
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
        residuals = {
            "AOmega_symmetric": _residual_norms(AOm, "AOmega", "X^t - X")[0],
            "ell_condition": float(np.linalg.norm(second)),
            "first_order": float(np.linalg.norm(first)),
        }
    return residuals_within(residuals, tol), residuals


def check_laws(
    P: SemigroupParams, t: float, s: float, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Semiflow/semicocycle laws: C(t) C(s) = C(t+s) on symbols.

    Both compose orders are tested (the coefficient flows commute), and the
    returned defect is the worst componentwise deviation.  The three
    symbols come from one ``symbols_at`` grid.
    """
    if t < 0 or s < 0:
        raise ValueError("times must be non-negative")
    return _laws(*symbols_at(P, (t, s, t + s)), tol)


def _laws(S_t: WcSymbol, S_s: WcSymbol, S_ts: WcSymbol, tol: float) -> tuple[bool, float]:
    """``check_laws`` on the symbols at t, s and t + s."""
    products = (compose(S_t, S_s), compose(S_s, S_t))
    distances = [symbol_distance(C, S_ts) for C in products]
    size = _magnitude(S_ts)
    ok = all(
        dist <= _equality_bound(_magnitude(C), size, tol) for C, dist in zip(products, distances)
    )
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


def generator_fd_residual(P: SemigroupParams, f: MPoly, h: float) -> float:
    """Forward-difference check of the generator: || (C(h)f - f)/h - G f ||.

    Coefficients are compared up to degree deg(f) + 1 on the section of
    degree N = deg(f) + 2, where they are exact: a larger N only adds zero
    terms to them.  The residual is O(h) for generic input; ``ValueError`` where it
    overflows.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    N = max(f.degree(), 0) + 2
    T = trunc_symbol_matrix(symbol_at(P, h), N)
    v = poly_coeff_vector(f, N)
    g = poly_coeff_vector(generator_apply(P, f), N)
    # the coefficients of degree < N: a prefix of the graded order
    rows = _tables(P.dim, N).graded_end[N]
    with np.errstate(over="ignore", invalid="ignore"):
        resid = float(np.linalg.norm(((T.apply(v) - v) / h - g)[:rows]))
    if not math.isfinite(resid):
        raise ValueError("generator forward-difference residual is not finite")
    return resid


def continuity_defect(P: SemigroupParams, w, t: float) -> float:
    """Exact value of ||C(t) K_w - K_w||, for the strong-continuity axiom.

    With (a, u) = act_on_kernel(symbol_at(t), w),

        ||a K_u - K_w||^2 = |a|^2 e^{|u|^2} + e^{|w|^2}
                            - 2 Re(conj(a) e^{<u, w>}),

    evaluated with e^{|w|^2} factored out, or the larger term where that
    overflows, so that it stays finite wherever the defect itself is.
    ``ValueError`` where the defect overflows.
    """
    w = as_vector(w, P.dim, "w")
    img = act_on_kernel(symbol_at(P, t), w)
    a, u = img.coeff, img.point
    w2, u2, uw = pairing(w, w).real, pairing(u, u).real, pairing(u, w)
    shift = w2
    try:
        scaled = (abs(a) ** 2 * math.exp(u2 - w2) + 1.0
                  - 2.0 * (a.conjugate() * cmath.exp(uw - w2)).real)
    except OverflowError:
        scaled = math.inf
    if not math.isfinite(scaled):  # |a|^2 e^{|u|^2} = e^{2 Re log a + |u|^2} is larger
        log_a = cmath.log(a) if a else complex(-math.inf)
        shift = max(2.0 * log_a.real + u2, w2)
        scaled = (math.exp(2.0 * log_a.real + u2 - shift) + math.exp(w2 - shift)
                  - 2.0 * cmath.exp(log_a.conjugate() + uw - shift).real)
    root = math.sqrt(max(scaled, 0.0))
    try:
        defect = math.exp(0.5 * shift + math.log(root)) if root > 0.0 else 0.0
    except OverflowError:
        defect = math.inf
    if not math.isfinite(defect):
        raise ValueError(f"continuity defect is not finite at |w|^2 = {w2:.6g}")
    return defect
