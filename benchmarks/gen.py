"""Seeded inputs for the benchmark workloads.

Every input is built from the defining conditions of its class (explicit
projections and solves, as in the paper's constructions), never by calling
the package under test, and comes back as plain NumPy data.  The expected
verdicts are decided here by reference residuals written out from the same
conditions; an input whose reference residual is neither clearly zero nor
clearly non-zero is drawn again, so no expected verdict sits on a tolerance.
"""

from __future__ import annotations

import math

import numpy as np

CERTIFY_DIMS = (1, 2, 3, 4, 8)
CERTIFY_CLASSES = ("real", "skew", "normal", "jpair", "generic")
CERTIFY_POINTS = 32
CROSSCHECK_SHAPES = ((2, 12), (3, 10), (3, 12), (4, 10))
FLOW_DIMS = (1, 2, 3, 4, 8)
FLOW_GENERATOR_MAX_DIM = 2
FLOW_STEP = 1e-2

# reference residuals below YES count as zero, above NO as non-zero
_YES = 1e-11
_NO = 1e-6


def crandn(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def adj(M):
    return np.conj(M).T


def opnorm(M) -> float:
    return float(np.linalg.norm(M, 2))


def rand_unitary(rng, d):
    U, _ = np.linalg.qr(crandn(rng, d, d))
    return U


def rand_theta(rng):
    theta = crandn(rng)
    while abs(theta) < 0.3:
        theta = crandn(rng)
    return complex(theta)


def rand_conjugation(rng, d, b_scale=0.3):
    """(A, b, c): A = U U^t symmetric unitary, b = y - A conj(y),
    |c| = e^{-|b|^2/2}; the three conjugation conditions hold exactly."""
    U = rand_unitary(rng, d)
    A = U @ U.T
    y = crandn(rng, d, scale=b_scale)
    b = y - A @ np.conj(y)
    c = math.exp(-float(np.linalg.norm(b)) ** 2 / 2) * np.exp(
        1j * rng.uniform(0, 2 * np.pi)
    )
    return {"A": A, "b": b, "c": complex(c)}


def rand_points(rng, d, n, radius=1.0):
    pts = []
    for _ in range(n):
        z = crandn(rng, d)
        pts.append(z / np.linalg.norm(z) * radius * rng.uniform(0.2, 1.0))
    return pts


# --- reference residuals (the defining conditions, written out) -------------


def ref_class_residuals(S) -> dict:
    """Worst residual of each symmetry class's defining conditions."""
    theta, ell, Q, q = S["theta"], S["ell"], S["Q"], S["q"]
    eye = np.eye(ell.size)
    herm = opnorm(Q - adj(Q))
    ell_q = float(np.linalg.norm(ell - q))
    excess = max(0.0, opnorm(Q) - 1.0)
    return {
        "real": max(herm, ell_q, abs(theta.imag)),
        "skew": max(herm, ell_q, abs(theta.real)),
        "normal": max(
            opnorm(Q @ adj(Q) - adj(Q) @ Q),
            excess,
            float(np.linalg.norm((eye - Q) @ ell - (eye - adj(Q)) @ q)),
            abs(float(np.linalg.norm(ell)) - float(np.linalg.norm(q))),
        ),
        "bounded": excess,
    }


def ref_j_selfadjoint_residual(S, J) -> float:
    A, b = J["A"], J["b"]
    AQ = A @ S["Q"]
    target = np.conj(A @ S["q"]) + np.conj(b) - adj(S["Q"]) @ np.conj(b)
    return max(opnorm(AQ.T - AQ), float(np.linalg.norm(S["ell"] - target)))


def _decided(residual: float) -> bool | None:
    if residual <= _YES:
        return True
    if residual >= _NO:
        return False
    return None


# --- certify -----------------------------------------------------------------


def _real_symmetric(rng, d, skew):
    V = rand_unitary(rng, d)
    Q = V @ np.diag(rng.uniform(-0.95, 0.95, d)) @ adj(V)
    q = crandn(rng, d, scale=0.7)
    theta = rng.uniform(0.5, 2.0) * (1j if skew else 1.0)
    return {"theta": complex(theta), "ell": q.copy(), "Q": Q, "q": q}


def _normal_bounded(rng, d, fixed_eig, repeats):
    """Eigenvalue-wise member of the bounded-normal class: off lambda = 1
    the flow condition pins ell's coordinates to mu q's with unimodular
    mu = (1 - conj(lambda))/(1 - lambda); on lambda = 1 only norms couple."""
    lams = []
    while len(lams) < d:
        lam = crandn(rng, scale=0.5)
        if abs(lam) > 0.95:
            lam = lam / abs(lam) * rng.uniform(0.3, 0.95)
        lams.append(lam)
        if repeats and len(lams) < d:
            lams.append(lam)
    lams = np.array(lams[:d], dtype=np.complex128)
    if fixed_eig:
        lams[0] = 1.0
    V = rand_unitary(rng, d)
    u = crandn(rng, d, scale=0.7)
    v = np.empty(d, dtype=np.complex128)
    for k, lam in enumerate(lams):
        if lam != 1.0:
            v[k] = (1.0 - np.conj(lam)) / (1.0 - lam) * u[k]
        else:
            v[k] = np.exp(1j * rng.uniform(0, 2 * np.pi)) * abs(u[k])
    return {
        "theta": rand_theta(rng),
        "ell": V @ v,
        "Q": V @ np.diag(lams) @ adj(V),
        "q": V @ u,
    }


def _j_selfadjoint_pair(rng, d):
    """Q = A* sym(A Q0) rescaled, so (AQ)^t = AQ; ell from the closed formula."""
    J = rand_conjugation(rng, d)
    A, b = J["A"], J["b"]
    AQ = A @ crandn(rng, d, d, scale=0.7)
    Q = adj(A) @ (0.5 * (AQ + AQ.T))
    Q = Q * (0.8 / opnorm(Q))
    q = crandn(rng, d, scale=0.7)
    ell = np.conj(A @ q) + np.conj(b) - adj(Q) @ np.conj(b)
    return {"theta": rand_theta(rng), "ell": ell, "Q": Q, "q": q}, J


def _generic(rng, d):
    Q = crandn(rng, d, d, scale=0.7)
    return {
        "theta": rand_theta(rng),
        "ell": crandn(rng, d, scale=0.7),
        "Q": Q * (1.5 / opnorm(Q)),
        "q": crandn(rng, d, scale=0.7),
    }


def _certify_case(rng, kind, d, rep):
    while True:
        J = rand_conjugation(rng, d)
        if kind in ("real", "skew"):
            S = _real_symmetric(rng, d, kind == "skew")
        elif kind == "normal":
            S = _normal_bounded(rng, d, fixed_eig=rep % 2 == 0, repeats=rep % 4 < 2)
        elif kind == "jpair":
            S, J = _j_selfadjoint_pair(rng, d)
        else:
            S = _generic(rng, d)
        verdicts = {k: _decided(r) for k, r in ref_class_residuals(S).items()}
        verdicts["j_selfadjoint"] = _decided(ref_j_selfadjoint_residual(S, J))
        if None not in verdicts.values():
            break
    if verdicts["real"] or verdicts["skew"]:
        finder = "real"
    elif verdicts["normal"]:
        finder = "normal"
    else:
        finder = None
    return {
        "kind": kind,
        "d": d,
        "S": S,
        "J": J,
        "points": rand_points(rng, d, CERTIFY_POINTS),
        "expect": verdicts,
        "finder": finder,
        # with the found J, or the pair's own J, the form must be symmetric
        "expect_symmetric": finder is not None or verdicts["j_selfadjoint"],
    }


def certify_pool(rng, reps=4):
    """reps x dims x classes cases, the class varying fastest."""
    return [
        _certify_case(rng, kind, d, rep)
        for rep in range(reps)
        for d in CERTIFY_DIMS
        for kind in CERTIFY_CLASSES
    ]


def large_scale_case(rng, d, scale=300.0, radius=3.0):
    """Real-symmetric symbol with ||ell|| = ||q|| = scale and kernel points
    of length radius along q, so |<q, w>| = scale * radius > 709."""
    S = _real_symmetric(rng, d, skew=False)
    q = S["q"] / np.linalg.norm(S["q"]) * scale
    S["ell"], S["q"] = q.copy(), q
    unit = q / np.linalg.norm(q)
    pts = [unit * radius, unit * radius * 0.9]
    pts += rand_points(rng, d, 6)
    return {"kind": "large", "d": d, "S": S, "points": pts}


# --- crosscheck --------------------------------------------------------------


def cross_check_tail_bound(S, w, N) -> float:
    """The truncation-error bound ``cross_check`` declares (its docstring)."""
    d = w.size
    m = N // 2
    n_rows = math.comb(m + d, d)
    rho = (opnorm(S["Q"]) * math.sqrt(d) + float(np.linalg.norm(S["q"]))) * float(
        np.linalg.norm(w)
    )
    term = rho ** (N + 1) / math.factorial(N + 1)
    tail = 0.0
    for k in range(N + 1, N + 200):
        tail += term
        term *= rho / (k + 1)
        if term <= tail * 1e-18 + 1e-300:
            break
    return (
        math.sqrt(n_rows)
        * math.sqrt(math.factorial(m))
        * abs(S["theta"])
        * math.exp(math.sqrt(d) * float(np.linalg.norm(S["ell"])))
        * tail
    )


def _crosscheck_case(rng, d, N, target=1e-12):
    Q = crandn(rng, d, d)
    S = {
        "theta": rand_theta(rng),
        "ell": crandn(rng, d, scale=0.3),
        "Q": Q * (rng.uniform(0.2, 0.5) / opnorm(Q)),
        "q": crandn(rng, d, scale=0.3),
    }
    w = crandn(rng, d)
    w = w / np.linalg.norm(w)
    # shrink ell, q and w together until the declared bound is below target:
    # four decades under the 1e-8 acceptance bound, so the residual is the
    # section engine's roundoff, not truncation error
    while cross_check_tail_bound(S, w, N) >= target:
        S["ell"], S["q"], w = 0.9 * S["ell"], 0.9 * S["q"], 0.9 * w
    return {"d": d, "N": N, "S": S, "w": w}


def crosscheck_pool(rng, reps=6):
    """reps rounds, one symbol per (d, N) shape in each."""
    return [
        [_crosscheck_case(rng, d, N) for d, N in CROSSCHECK_SHAPES]
        for _ in range(reps)
    ]


# --- flow --------------------------------------------------------------------


def _j_semigroup(rng, d, norm_range=(0.5, 2.0)):
    """(P, J) with A Omega symmetric and ell* = conj(A q*) - Omega* conj(b),
    which keeps the whole family J-selfadjoint; ||Omega|| in norm_range."""
    J = rand_conjugation(rng, d)
    A, b = J["A"], J["b"]
    AOm = A @ crandn(rng, d, d, scale=0.7)
    Omega = adj(A) @ (0.5 * (AOm + AOm.T))
    Omega = Omega * (rng.uniform(*norm_range) / opnorm(Omega))
    q_star = crandn(rng, d, scale=0.7)
    ell_star = np.conj(A @ q_star) - adj(Omega) @ np.conj(b)
    theta_star = complex(crandn(rng, scale=0.5))
    P = {"Omega": Omega, "q_star": q_star, "ell_star": ell_star,
         "theta_star": theta_star}
    return P, J


def _flow_case(rng, d):
    P, J = _j_semigroup(rng, d)
    case = {
        "d": d,
        "P": P,
        "J": J,
        "t": float(rng.uniform(0.05, 1.0)),
        "s": float(rng.uniform(0.05, 1.0)),
        "w": rand_points(rng, d, 1)[0],
        "poly": None,
    }
    if d <= FLOW_GENERATOR_MAX_DIM:
        # degree-1 polynomial: c0 + sum_k c_k z_k
        terms = [((0,) * d, complex(crandn(rng)))]
        for k in range(d):
            alpha = [0] * d
            alpha[k] = 1
            terms.append((tuple(alpha), complex(crandn(rng))))
        case["poly"] = terms
    return case


def flow_pool(rng, reps=4):
    return [_flow_case(rng, d) for _ in range(reps) for d in FLOW_DIMS]


# --- cli ---------------------------------------------------------------------


def _c(z):
    z = complex(z)
    return [z.real, z.imag]


def _v(v):
    return [_c(z) for z in np.asarray(v).ravel()]


def _m(M):
    return [[_c(z) for z in row] for row in np.asarray(M)]


def symbol_json(S) -> dict:
    return {"d": int(S["ell"].size), "theta": _c(S["theta"]), "ell": _v(S["ell"]),
            "Q": _m(S["Q"]), "q": _v(S["q"])}


def conjugation_json(J) -> dict:
    return {"d": int(J["b"].size), "A": _m(J["A"]), "b": _v(J["b"]), "c": _c(J["c"])}


def semigroup_json(P) -> dict:
    return {"d": int(P["q_star"].size), "Omega": _m(P["Omega"]),
            "q_star": _v(P["q_star"]), "ell_star": _v(P["ell_star"]),
            "theta_star": _c(P["theta_star"])}


def poly_json(d, terms) -> dict:
    return {"d": d, "terms": [{"alpha": list(a), "coeff": _c(c)} for a, c in terms]}


def points_json(pts) -> dict:
    return {"d": int(pts[0].size), "points": [_v(p) for p in pts]}


CLI_COMMANDS = (
    "validate-conjugation",
    "classify",
    "adjoint",
    "conjugate",
    "find-conjugation",
    "semigroup-at",
    "semigroup-check",
    "generator-apply",
    "oracle-defect",
)


def cli_pool(rng, reps=1):
    """One case per subcommand and rep, d cycling through 1..3.

    Each case is a dict of the command, its input files (a file stem
    mapped to its JSON document), extra argv and the expected exit code.  Expected exit codes follow
    from the construction: valid conjugations, J-selfadjoint pairs and
    J-selfadjoint semigroups give 0, a generic symbol has no conjugation
    to find and gives 1.
    """
    cases = []
    for rep in range(reps):
        for k, cmd in enumerate(CLI_COMMANDS):
            d = (k + rep) % 3 + 1
            S, J = _j_selfadjoint_pair(rng, d)
            files, extra, code = {}, [], 0
            if cmd == "validate-conjugation":
                files["in"] = conjugation_json(J)
            elif cmd == "classify":
                files["in"] = symbol_json(S)
                files["with-conjugation"] = conjugation_json(J)
            elif cmd == "adjoint":
                files["in"] = symbol_json(S)
            elif cmd == "conjugate":
                files["in"] = symbol_json(S)
                files["conj"] = conjugation_json(J)
            elif cmd == "find-conjugation":
                if rep % 2 == 0:
                    files["in"] = symbol_json(
                        _normal_bounded(rng, d, fixed_eig=True, repeats=True)
                    )
                else:
                    files["in"] = symbol_json(_generic(rng, d))
                    code = 1
            elif cmd in ("semigroup-at", "semigroup-check", "generator-apply"):
                # desk scale: the cli's verdicts compare absolute residuals
                # with --tol, which its documentation says to scale for
                # larger inputs
                P, JP = _j_semigroup(rng, d, norm_range=(0.3, 1.0))
                files["in"] = semigroup_json(P)
                if cmd == "semigroup-at":
                    extra = ["--t", repr(float(rng.uniform(0.05, 1.0)))]
                elif cmd == "semigroup-check":
                    files["conj"] = conjugation_json(JP)
                    extra = ["--samples", "20", "--seed", str(rep)]
                else:
                    files["poly"] = poly_json(
                        d, [((0,) * d, complex(crandn(rng)))]
                        + [(tuple(int(i == k) for i in range(d)), complex(crandn(rng)))
                           for k in range(d)]
                    )
            else:
                files["in"] = symbol_json(S)
                files["conj"] = conjugation_json(J)
                files["points"] = points_json(rand_points(rng, d, 8))
            cases.append({"cmd": cmd, "d": d, "files": files, "extra": extra,
                          "code": code})
    return cases


def cli_known_defects(rng):
    """Inputs whose correct result the program does not produce today.

    validate-conjugation on b = [30], c = 1: an invalid conjugation, so the
    verdict is "false" (exit 1) with a residual that must still be strict
    JSON.  oracle-defect at |<q, w>| = 900: the relative defects are finite
    and below 1e-9, so the verdict is "true" (exit 0).
    """
    big = large_scale_case(rng, 2)
    return [
        {"cmd": "validate-conjugation", "d": 1,
         "files": {"in": {"d": 1, "A": [[[-1.0, 0.0]]], "b": [[30.0, 0.0]],
                          "c": [1.0, 0.0]}},
         "extra": [], "code": 1},
        {"cmd": "oracle-defect", "d": 2,
         "files": {"in": symbol_json(big["S"]), "points": points_json(big["points"])},
         "extra": [], "code": 0},
    ]
