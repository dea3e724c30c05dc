"""Seeded random generators for symbols, conjugations, and semigroup data.

Each generator takes a ``numpy.random.Generator`` so every suite is
reproducible from its seed.  Constructed-to-pass inputs are built from the
defining conditions themselves (projections and explicit solves), never by
calling the code under test.
"""

import math

import numpy as np

from fockwc import ConjugationParams, SemigroupParams, WcSymbol, adj, op_norm
from fockwc.polynomials import MPoly, mi_factorial, multi_indices


def crandn(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def rand_unitary(rng, d):
    U, _ = np.linalg.qr(crandn(rng, d, d))
    return U


def rand_valid_conjugation(rng, d, with_b=True, b_scale=0.3):
    """Random (A, b, c) satisfying the three conjugation conditions.

    A = U U^t is symmetric unitary; b = y - A conj(y) solves A conj(b) + b = 0
    for any y; |c| = e^{-|b|^2/2} with a random phase.
    """
    U = rand_unitary(rng, d)
    A = U @ U.T
    if with_b:
        y = crandn(rng, d, scale=b_scale)
        b = y - A @ np.conj(y)
    else:
        b = np.zeros(d)
    c = np.exp(-np.linalg.norm(b) ** 2 / 2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return ConjugationParams(A, b, c)


def rand_symbol(rng, d, scale=0.7):
    theta = crandn(rng)
    while abs(theta) < 0.1:
        theta = crandn(rng)
    return WcSymbol(
        theta,
        crandn(rng, d, scale=scale),
        crandn(rng, d, d, scale=scale),
        crandn(rng, d, scale=scale),
    )


def rand_real_symmetric_symbol(rng, d, eigenvalues=None, skew=False):
    """theta real (or imaginary), Q Hermitian, ell = q."""
    if eigenvalues is None:
        eigenvalues = rng.uniform(-1.0, 1.0, d)
    V = rand_unitary(rng, d)
    Q = V @ np.diag(np.asarray(eigenvalues, dtype=float)) @ adj(V)
    q = crandn(rng, d, scale=0.7)
    theta = rng.uniform(0.5, 2.0) * (1j if skew else 1.0)
    return WcSymbol(theta, q.copy(), Q, q)


def rand_j_selfadjoint_pair(rng, d, with_b=True):
    """(S, J) built directly from the selfadjointness conditions:
    Q = A*(sym(A Q0)) so (AQ)^t = AQ, then ell from the closed formula."""
    J = rand_valid_conjugation(rng, d, with_b=with_b)
    A, b = J.A, J.b
    Q0 = crandn(rng, d, d, scale=0.7)
    AQ = A @ Q0
    Q = adj(A) @ (0.5 * (AQ + AQ.T))
    q = crandn(rng, d, scale=0.7)
    ell = np.conj(A @ q) + np.conj(b) - adj(Q) @ np.conj(b)
    theta = crandn(rng)
    while abs(theta) < 0.1:
        theta = crandn(rng)
    return WcSymbol(theta, ell, Q, q), J


def rand_normal_bounded_symbol(rng, d, with_fixed_eig=False, with_repeats=False):
    """Member of the bounded-normal class built eigenvalue-wise.

    Eigenvalues live in the closed unit disk.  On blocks with lambda != 1
    the flow condition pins ell's coordinates to mu * q's, with the
    unimodular mu = (1 - conj(lambda))/(1 - lambda); on a lambda = 1 block
    only the norms are coupled, so ell's block is a random rotation of the
    right length.
    """
    lams = []
    while len(lams) < d:
        lam = crandn(rng, scale=0.5)
        if abs(lam) > 1.0:
            lam = lam / abs(lam) * rng.uniform(0.3, 1.0)
        lams.append(lam)
        if with_repeats and len(lams) < d and rng.random() < 0.5:
            lams.append(lam)
    lams = np.array(lams[:d])
    if with_fixed_eig:
        lams[0] = 1.0
    V = rand_unitary(rng, d)
    Q = V @ np.diag(lams) @ adj(V)
    u = crandn(rng, d, scale=0.7)
    v = np.empty(d, dtype=complex)
    for k, lam in enumerate(lams):
        if abs(1.0 - lam) > 1e-12:
            v[k] = (1.0 - np.conj(lam)) / (1.0 - lam) * u[k]
        else:
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            v[k] = phase * abs(u[k])
    theta = crandn(rng)
    while abs(theta) < 0.1:
        theta = crandn(rng)
    return WcSymbol(theta, V @ v, Q, V @ u)


def rand_semigroup_params(rng, d, norm_cap=1.0, theta_scale=0.5):
    Omega = crandn(rng, d, d, scale=0.5)
    nrm = op_norm(Omega)
    if nrm > norm_cap:
        Omega = Omega * (norm_cap / nrm)
    return SemigroupParams(
        Omega,
        crandn(rng, d, scale=0.7),
        crandn(rng, d, scale=0.7),
        crandn(rng, scale=theta_scale),
    )


def rand_j_semigroup_pair(rng, d, with_b=True, norm_cap=1.0):
    """(P, J) satisfying the semigroup selfadjointness conditions.

    Omega is projected so A Omega is symmetric; ell* is set by the
    first-derivative identity ell* = conj(A q*) - Omega* conj(b), which is
    explicit, implies the displayed second-order condition, and keeps the
    whole family J-selfadjoint even for singular Omega.
    """
    J = rand_valid_conjugation(rng, d, with_b=with_b)
    A, b = J.A, J.b
    Om0 = crandn(rng, d, d, scale=0.7)
    AOm = A @ Om0
    Omega = adj(A) @ (0.5 * (AOm + AOm.T))
    nrm = op_norm(Omega)
    if nrm > norm_cap:
        Omega = Omega * (norm_cap / nrm)
    q_star = crandn(rng, d, scale=0.7)
    ell_star = np.conj(A @ q_star) - adj(Omega) @ np.conj(b)
    return SemigroupParams(Omega, q_star, ell_star, crandn(rng, scale=0.5)), J


def rand_points(rng, d, n, radius=1.5):
    """n points with |z| <= radius (the kernel Gram conditioning regime)."""
    pts = []
    for _ in range(n):
        z = crandn(rng, d)
        nz = np.linalg.norm(z)
        if nz > radius:
            z = z * (radius / nz) * rng.uniform(0.3, 1.0)
        pts.append(z)
    return pts


def rand_kernel_combo(rng, d, n, radius=1.5):
    from fockwc import KernelCombo

    return KernelCombo.from_pairs(
        d, [(crandn(rng), p) for p in rand_points(rng, d, n, radius)]
    )


def combo_termwise_dev(F, G):
    """Relative termwise distance between two kernel combos.

    Exact comparison of the representations; a Gram-matrix norm of F - G
    bottoms out near sqrt(eps) from cancellation when F and G are close.
    """
    assert len(F.terms) == len(G.terms)
    worst = 0.0
    for a, b in zip(F.terms, G.terms):
        scale = 1.0 + abs(a.coeff) + float(np.linalg.norm(a.point))
        dev = abs(a.coeff - b.coeff) + float(np.linalg.norm(a.point - b.point))
        worst = max(worst, dev / scale)
    return worst


def ref_pairing_defect(S, T, points):
    """Plain per-pair pairing defect: max|lhs - rhs| / (1 + max|lhs|) with
    lhs = <C_S K_zi, K_zj> and rhs = <K_zi, C_T K_zj>, one exp per factor."""

    def image(X, z):  # C_X K_z = theta e^{<q, z>} K_{Q* z + ell}
        return X.theta * np.exp(np.vdot(z, X.q)), adj(X.Q) @ z + X.ell

    pts = [np.asarray(z, dtype=complex) for z in points]
    worst, scale = 0.0, 1.0
    for zi in pts:
        a, p = image(S, zi)
        for zj in pts:
            b, r = image(T, zj)
            lhs = a * np.exp(np.vdot(p, zj))
            rhs = np.conj(b) * np.exp(np.vdot(zi, r))
            worst = max(worst, abs(lhs - rhs))
            scale = max(scale, 1.0 + abs(lhs))
    return worst / scale


def ref_j_symmetry_defect(S, J, points):
    """Plain per-pair J-symmetry defect: B_ij = <C_S K_zi, J K_zj> and
    max|B - B^t| / (1 + max|B|)."""
    pts = [np.asarray(z, dtype=complex) for z in points]
    m = len(pts)
    B = np.zeros((m, m), dtype=complex)
    for i, zi in enumerate(pts):
        a = S.theta * np.exp(np.vdot(zi, S.q))
        p = adj(S.Q) @ zi + S.ell
        for j, zj in enumerate(pts):
            # J K_z = c e^{<b, conj z>} K_{A* conj z + conj b}
            k = J.c * np.exp(np.dot(J.b, zj))
            u = adj(J.A) @ np.conj(zj) + np.conj(J.b)
            B[i, j] = a * np.conj(k) * np.exp(np.vdot(p, u))
    return float(np.max(np.abs(B - B.T))) / (1.0 + float(np.max(np.abs(B))))


def large_scale_symbol(rng, d, scale=300.0, radius=3.0):
    """Real-symmetric symbol with ||ell|| = ||q|| = scale, plus kernel points
    that include two of length about radius along q, so |<q, w>| reaches
    scale * radius (900 by default, past exp's overflow at 709)."""
    S = rand_real_symmetric_symbol(rng, d)
    q = S.q / np.linalg.norm(S.q) * scale
    unit = q / scale
    pts = [unit * radius, unit * radius * 0.9] + rand_points(rng, d, 4, radius=1.0)
    return WcSymbol(S.theta, q, S.Q, q), pts


def ref_wc_section(c0, wvec, B, beta, N):
    """Section of f -> c0 e^{z.wvec} f(B z + beta) from MPoly arithmetic.

    Column alpha is the truncated exponential series sum_g c0 wvec^g/g!
    times the full polynomial (B z + beta)^alpha, cut at degree N, with
    entry (gamma, alpha) rescaled by sqrt(gamma!/alpha!).
    """
    d = len(wvec)
    indices = multi_indices(d, N)
    expo = MPoly(d, {
        g: c0 * np.prod(np.asarray(wvec, dtype=complex) ** np.array(g)) / mi_factorial(g)
        for g in indices
    })
    units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    linear = [
        MPoly(d, {(0,) * d: beta[k], **{units[j]: B[k][j] for j in range(d)}})
        for k in range(d)
    ]
    M = np.zeros((len(indices), len(indices)), dtype=complex)
    for col, alpha in enumerate(indices):
        power = MPoly.constant(d, 1.0)
        for k, a in enumerate(alpha):
            for _ in range(a):
                power = power * linear[k]
        coeffs = (expo * power).coeffs
        for row, gamma in enumerate(indices):
            M[row, col] = coeffs.get(gamma, 0.0) * math.sqrt(
                mi_factorial(gamma) / mi_factorial(alpha)
            )
    return M
