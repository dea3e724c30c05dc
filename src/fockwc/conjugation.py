"""Conjugations J_{A,b,c} on the Fock space and their symbol calculus.

The antilinear operator

    J f(z) = c * e^{<z, conj(b)>} * conj(f(conj(A z + b)))

is a conjugation (involutive antilinear isometry) exactly when

    (i)   A^{-1} = A* = conj(A)      (A unitary and symmetric),
    (ii)  A conj(b) + b = 0,
    (iii) |c|^2 e^{|b|^2} = 1.

It is J = C_{S_J} J0, the weighted composition operator of the symbol
S_J = (c, conj(b), A, b) (``symbol_of``) after J0 f(z) = conj(f(conj z)),
so J K_w = C_{S_J} K_{conj(w)}.  Also here: J C J, the J-adjoint symbol
J C* J, and a conjugation making a given real-symmetric or bounded-normal
operator J-selfadjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jsonio import COMPLEX, MATRIX, VECTOR, Record
from .errors import NotApplicableError, PreconditionError
from .linalg import (
    DEFAULT_TOL,
    _residual_norms,
    adj,
    as_vector,
    derived,
    herm_eig,
    normal_eig,
    owned,
    residuals_within,
    times_exp,
)
# unused here, but kept as a module attribute that benchmarks/tracing.py wraps
from .linalg import op_norm  # noqa: F401
from .symbols import ScaledKernel, WcSymbol, _modulus, _theta_times_exp, act_on_kernels
from .symbols import adjoint_symbol

__all__ = [
    "ConjugationParams",
    "identity_conjugation",
    "validate",
    "conjugate_by_J",
    "j_adjoint_symbol",
    "find_conjugation_real_symmetric",
    "find_conjugation_normal",
]


@dataclass(frozen=True, eq=False)
class ConjugationParams(Record):
    """Parameters (A, b, c) of the candidate conjugation J_{A,b,c}."""

    A: np.ndarray
    b: np.ndarray
    c: complex

    _JSON = ("conjugation", {"A": MATRIX, "b": VECTOR, "c": COMPLEX})


def identity_conjugation(d: int) -> ConjugationParams:
    """Coordinatewise conjugation f -> conj(f(conj(z))): (I, 0, 1)."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return ConjugationParams(np.eye(d), np.zeros(d), 1.0)


def _validity_residuals(J: ConjugationParams) -> dict:
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_scale = 2.0 * np.log(_modulus(J.c)) + np.linalg.norm(J.b) ** 2
        scalar = abs(float(np.expm1(log_scale)))
        vector = float(np.linalg.norm(J.A @ np.conj(J.b) + J.b))
    return {
        "matrix": max(_residual_norms(J.A, "A", "X X* - I", "X - X^t")),
        "vector": vector,
        "scalar": scalar,
    }


def validate(J: ConjugationParams, tol: float = DEFAULT_TOL) -> tuple[bool, dict]:
    """Check the three conjugation conditions; residuals are absolute.

    Residual 1 covers condition (i) as max(unitarity, symmetry) defect of A,
    residual 2 is ||A conj(b) + b||, residual 3 is | |c|^2 e^{|b|^2} - 1 |,
    evaluated as |expm1(2 log|c| + |b|^2)| so that tiny |c| against large
    |b| neither underflows nor overflows (c = 0 gives 1, not NaN).  The
    residuals do not depend on ``tol``: they are computed once per ``J``
    and each call compares a copy of them with its own ``tol``.
    """
    residuals = dict(derived(J, "_validity_residuals", _validity_residuals))
    return residuals_within(residuals, tol), residuals


def require_valid(J: ConjugationParams, tol: float = DEFAULT_TOL) -> None:
    """Raise ``PreconditionError`` unless ``J`` is a valid conjugation."""
    ok, residuals = validate(J, tol)
    if not ok:
        raise PreconditionError(
            "conjugation parameters violate the admissibility conditions: "
            + ", ".join(f"{k}={v:.3e}" for k, v in residuals.items())
        )


def symbol_of(J: ConjugationParams) -> WcSymbol:
    """S_J = (c, conj(b), A, b), with J = C_{S_J} J0; built once per J, J not validated."""
    return derived(J, "_symbol", lambda J: WcSymbol._owned(J.c, np.conj(J.b), J.A, J.b))


def apply_to_kernel(J: ConjugationParams, w) -> ScaledKernel:
    """Image of K_w under J: C_{S_J} K_{conj(w)}."""
    require_valid(J)
    S_J = symbol_of(J)
    expo, points = act_on_kernels(S_J, np.conj(as_vector(w, J.dim, "w"))[None, :])
    coeff = times_exp((S_J.theta,), complex(expo[0]), "J K_w coefficient")
    return owned(ScaledKernel, coeff=coeff, point=points[0])


def conjugate_by_J(S: WcSymbol, J: ConjugationParams, tol: float = DEFAULT_TOL) -> WcSymbol:
    """Symbol of the twisted operator J C_S J.

    Closed form obtained by pushing f through J, C_S, J and collecting the
    exponentials (the correctness gate is the pointwise antilinear oracle,
    exercised in the test suite):

        Q' = conj(AQ) A
        q' = conj(AQ) b + conj(A q) + conj(b)
        l' = A* conj(l) + A* Q^t b + conj(b)
        theta' = |c|^2 conj(theta)
                 * exp(l.b + conj(b).conj(Q)b + conj(q.b))

    where dots denote the unconjugated bilinear sum.  J must be admissible
    at ``tol``.
    """
    require_valid(J, tol)
    if S.dim != J.dim:
        raise ValueError("symbol and conjugation dimensions differ")
    A, b, c = J.A, J.b, abs(J.c)
    # overflow is rejected by name in times_exp or WcSymbol, never warned
    with np.errstate(over="ignore", invalid="ignore"):
        AQbar = np.conj(A @ S.Q)
        Qp = AQbar @ A
        qp = AQbar @ b + np.conj(A @ S.q) + np.conj(b)
        lp = adj(A) @ np.conj(S.ell) + adj(A) @ S.Q.T @ b + np.conj(b)
        expo = (
            np.dot(S.ell, b)
            + np.dot(np.conj(b), np.conj(S.Q) @ b)
            + np.conj(np.dot(S.q, b))
        )
    theta_p = _theta_times_exp((c, c, S.theta.conjugate()), complex(expo), "theta of J C J")
    return WcSymbol._owned(theta_p, lp, Qp, qp)


def j_adjoint_symbol(S: WcSymbol, J: ConjugationParams) -> WcSymbol:
    """Symbol of J C_S* J, the J-adjoint of C_S.

    A symbol is a fixed point of this map exactly when C_S is J-selfadjoint.
    """
    return conjugate_by_J(adjoint_symbol(S), J)


# --- constructive procedures -------------------------------------------------

# relative cutoff deciding when an eigenvalue counts as the fixed point 1
_FIXED_EIG_TOL = 1e-8
# relative cutoff below which block components of q, l count as zero
_ZERO_VEC_TOL = 1e-13


def _complete_unitary(cols: list[np.ndarray], n: int) -> np.ndarray:
    """Extend orthonormal columns to a full unitary matrix.

    The trailing rows of the full SVD of C* span the kernel of C*, the
    orthogonal complement of the given columns.
    """
    if not cols:
        return np.eye(n, dtype=np.complex128)
    C = np.column_stack(cols).astype(np.complex128)
    k = C.shape[1]
    if k == n:
        return C
    _, _, Vh = np.linalg.svd(adj(C))
    return np.column_stack([C, adj(Vh[k:])])


def _pairing_symmetric_unitary(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetric unitary W with W u = conj(v) for ||u|| = ||v|| > 0.

    W is the matrix of x -> J(conj(x)) where J is the conjugation pairing
    conj(u)/||u|| with conj(v)/||v||; in the orthonormal basis (g1, g2) of
    their span it is [[beta, gamma], [gamma, -conj(beta)]], extended by the
    identity on the orthogonal complement.
    """
    n = u.size
    p = np.conj(u) / np.linalg.norm(u)
    r = np.conj(v) / np.linalg.norm(v)
    beta = complex(np.vdot(p, r))
    resid = r - beta * p
    gamma = float(np.linalg.norm(resid))
    if gamma <= 1e-13:
        G = _complete_unitary([p], n)
        K = np.eye(n, dtype=np.complex128)
        K[0, 0] = beta
    else:
        g2 = resid / gamma
        G = _complete_unitary([p, g2], n)
        K = np.eye(n, dtype=np.complex128)
        K[0, 0] = beta
        K[0, 1] = K[1, 0] = gamma
        K[1, 1] = -np.conj(beta)
    return G @ K @ G.T


def find_conjugation_real_symmetric(
    S: WcSymbol, tol: float = DEFAULT_TOL
) -> ConjugationParams:
    """Conjugation making a (skew-)real-symmetric operator J-selfadjoint.

    With Q = V M V* Hermitian and u = V* q, the phases
    alpha_m = -arg(u_m) make e^{i alpha_m} u_m real, and

        A = conj(V) diag(e^{2 i alpha_m}) V*,   b = 0,   c = 1

    is a symmetric unitary with (AQ)^t = AQ and A q = conj(q).  Zero
    entries of u take phase 0, so the construction is deterministic.
    Raises ``NotApplicableError`` outside the class at ``tol``, its only gate.
    """
    from .classify import _real_symmetry_residuals

    if not any(residuals_within(r, tol) for r in _real_symmetry_residuals(S)):
        raise NotApplicableError(
            "operator is not (skew-)real symmetric; no construction applies"
        )
    dec = herm_eig(S.Q)
    V = dec.unitary
    u = adj(V) @ S.q
    phases = np.exp(-2j * np.angle(u))
    A = np.conj(V) @ (phases[:, None] * adj(V))
    return owned(ConjugationParams, A=A, b=np.zeros(S.dim, dtype=np.complex128), c=1.0)


def find_conjugation_normal(S: WcSymbol, tol: float = DEFAULT_TOL) -> ConjugationParams:
    """Conjugation making a bounded-normal operator J-selfadjoint.

    Same scheme as the real-symmetric case with Q = V M V* normal,
    u = V* q and v = V* ell.  On eigenvalue groups with lambda != 1 the
    diagonal phases alpha_m = -arg((1 - conj(lambda)) u_m) already force
    l = conj(A q).  On a group with lambda = 1 the class conditions leave
    u and v coupled only through ||u|| = ||v||, so the block of A is the
    symmetric unitary pairing u with conj(v) (identity when both vanish);
    a plain zero phase there would break J-selfadjointness whenever
    v != conj(u) on that eigenspace.
    Raises ``NotApplicableError`` outside the class at ``tol``, or where
    ``normal_eig`` finds no unitary V that diagonalizes Q.
    """
    from .classify import _Q_norm, check_normal_bounded

    ok, _ = check_normal_bounded(S, tol)
    if not ok:
        raise NotApplicableError(
            "operator is not normal-bounded; no construction applies"
        )
    dec = normal_eig(S.Q)
    V = dec.unitary
    u = adj(V) @ S.q
    v = adj(V) @ S.ell
    scale = 1.0 + _Q_norm(S)
    zero_tol = _ZERO_VEC_TOL * (
        1.0 + float(np.linalg.norm(S.q)) + float(np.linalg.norm(S.ell))
    )
    W = np.zeros((S.dim, S.dim), dtype=np.complex128)
    for j, group in enumerate(dec.groups):
        idx = list(group)
        lam = dec.group_eigenvalue(j)
        if abs(1.0 - lam) > _FIXED_EIG_TOL * scale:
            phases = np.exp(-2j * np.angle((1.0 - np.conj(lam)) * u[idx]))
            W[idx, idx] = phases
        else:
            uj, vj = u[idx], v[idx]
            if np.linalg.norm(uj) <= zero_tol or np.linalg.norm(vj) <= zero_tol:
                W[np.ix_(idx, idx)] = np.eye(len(idx))
            else:
                W[np.ix_(idx, idx)] = _pairing_symmetric_unitary(uj, vj)
    A = np.conj(V) @ W @ adj(V)
    return owned(ConjugationParams, A=A, b=np.zeros(S.dim, dtype=np.complex128), c=1.0)
