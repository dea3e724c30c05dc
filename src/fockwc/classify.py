"""Decision procedures for the symmetry classes of weighted composition
operators, each returning a verdict together with the residuals of the
defining conditions.

Thresholds are absolute: a check passes when every listed residual is at
most ``tol`` (default 1e-9, adequate for desk-scale data of order one;
scale ``tol`` for larger inputs).  The residuals of the real, skew and
bounded-normal classes depend on the symbol alone, so they are computed
once per ``WcSymbol`` and each check compares a copy of them with its own
``tol``.
"""

from __future__ import annotations

import numpy as np

from .conjugation import ConjugationParams, require_valid
from .linalg import _op_norms, adj, derived, op_norm, residuals_within
from .symbols import WcSymbol

__all__ = [
    "check_real_symmetric",
    "check_skew_real_symmetric",
    "check_J_selfadjoint",
    "check_normal_bounded",
    "check_bounded_necessary",
]

DEFAULT_TOL = 1e-9


def _real_symmetry_residuals(S: WcSymbol) -> tuple[dict, dict]:
    """Residuals of real and of skew-real symmetry, which share the
    conditions Q Hermitian and ell = q and differ in theta: copies of the
    pair computed once per symbol."""
    real, skew = derived(S, "_real_symmetry_residuals", _real_symmetry_pair)
    return dict(real), dict(skew)


def _real_symmetry_pair(S: WcSymbol) -> tuple[dict, dict]:
    shared = {
        "Q_hermitian": op_norm(S.Q - adj(S.Q)),
        "ell_minus_q": float(np.linalg.norm(S.ell - S.q)),
    }
    return (
        {**shared, "theta_imag": abs(S.theta.imag)},
        {**shared, "theta_real": abs(S.theta.real)},
    )


def check_real_symmetric(
    S: WcSymbol, tol: float = DEFAULT_TOL
) -> tuple[bool, dict]:
    """Real symmetry (C = C*): Q Hermitian, ell = q, theta real."""
    residuals = _real_symmetry_residuals(S)[0]
    return residuals_within(residuals, tol), residuals


def check_skew_real_symmetric(
    S: WcSymbol, tol: float = DEFAULT_TOL
) -> tuple[bool, dict]:
    """Skew-real symmetry (C = -C*): as real symmetry with theta imaginary."""
    residuals = _real_symmetry_residuals(S)[1]
    return residuals_within(residuals, tol), residuals


def check_J_selfadjoint(
    S: WcSymbol, J: ConjugationParams, tol: float = DEFAULT_TOL
) -> tuple[bool, dict]:
    """J-selfadjointness (C = J C* J): (AQ)^t = AQ and
    ell = conj(Aq) + conj(b) - Q* conj(b); theta is unconstrained."""
    require_valid(J)
    if S.dim != J.dim:
        raise ValueError("symbol and conjugation dimensions differ")
    AQ = J.A @ S.Q
    target = np.conj(J.A @ S.q) + np.conj(J.b) - adj(S.Q) @ np.conj(J.b)
    residuals = {
        "AQ_symmetric": op_norm(AQ.T - AQ),
        "ell_formula": float(np.linalg.norm(S.ell - target)),
    }
    return residuals_within(residuals, tol), residuals


def check_normal_bounded(
    S: WcSymbol, tol: float = DEFAULT_TOL
) -> tuple[bool, dict]:
    """Membership in the bounded-normal class: Q normal with ||Q|| <= 1,
    (I - Q) ell = (I - Q*) q, and ||ell|| = ||q||."""
    residuals = dict(derived(S, "_normal_bounded_residuals", _normal_bounded_residuals))
    return residuals_within(residuals, tol), residuals


def _normal_bounded_residuals(S: WcSymbol) -> dict:
    eye = np.eye(S.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        comm = S.Q @ adj(S.Q) - adj(S.Q) @ S.Q
        flow = float(np.linalg.norm((eye - S.Q) @ S.ell - (eye - adj(S.Q)) @ S.q))
        length = abs(float(np.linalg.norm(S.ell)) - float(np.linalg.norm(S.q)))
    normal, nrm = _op_norms({"Q Q* - Q* Q": comm, "Q": S.Q})
    return {
        "Q_normal": normal,
        "Q_norm_excess": max(0.0, nrm - 1.0),
        "flow": flow,
        "length": length,
    }


def check_bounded_necessary(
    S: WcSymbol, tol: float = DEFAULT_TOL
) -> tuple[bool, dict]:
    """Necessary condition for boundedness: ||Q|| <= 1.

    Necessary only; no sufficiency is claimed or tested here.
    """
    residuals = {"Q_norm_excess": max(0.0, op_norm(S.Q) - 1.0)}
    return residuals_within(residuals, tol), residuals
