"""Seeded random generators for symbols, conjugations, and semigroup data.

Each generator takes a ``numpy.random.Generator`` so every suite is
reproducible from its seed.  Constructed-to-pass inputs are built from the
defining conditions themselves (projections and explicit solves), never by
calling the code under test.
"""

import math
from itertools import groupby

import numpy as np

from fockwc import ConjugationParams, SemigroupParams, WcSymbol
from fockwc.linalg import adj, op_norm, pairing, phi12
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


def ref_symbol_at(P, t):
    """The semigroup symbol at t > 0 by the phi-function formula: one
    exponential of the 3d x 3d matrix [[t Omega, I, 0], [0, 0, I], [0, 0, 0]]
    through ``linalg.phi12`` at the semigroup's 1e-13, then
    q_t = t phi1 q*, l_t = t phi1* l* and the theta_t integral
    <t^2 phi2 q*, l*>.  Returns (integral, its rounding scale
    sum_k |t^2 phi2 q*|_k |l*_k|, l_t, Q_t, q_t)."""
    Q, p1, p2 = phi12(t * P.Omega, 1e-13)
    u = t * t * (p2 @ P.q_star)
    scale = float(np.abs(u) @ np.abs(P.ell_star))
    return pairing(u, P.ell_star), scale, t * (adj(p1) @ P.ell_star), Q, t * (p1 @ P.q_star)


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


def generator_j_asymmetry(P, J, Z):
    """Relative asymmetry max|F - F^t| / (1 + max|F|) of the generator's
    J-form on the kernels at the rows z_i of ``Z``: F[i, j] =
    <G K_{z_i}, J K_{z_j}>, symmetric when G is J-symmetric on their span.

    Since d_k K_z = conj(z_k) K_z, (G K_z)(x) = (theta* + <x, l*> +
    <Omega x + q*, z>) e^{<x, z>}, and J K_w = theta_J e^{a} K_p with
    (a, p) = ``act_on_kernels(symbol_of(J), conj(w))``, so F[i, j] =
    conj(theta_J e^{a_j}) (G K_{z_i})(p_j).  It reads neither ``symbol_at``
    nor ``validate_J_conditions``."""
    from fockwc.conjugation import symbol_of
    from fockwc.symbols import act_on_kernels

    Z = np.asarray(Z, dtype=complex)
    S_J = symbol_of(J)
    a, p = act_on_kernels(S_J, np.conj(Z))
    # G[j, i] = (G K_{z_i})(p_j)
    G = (P.theta_star + (p @ np.conj(P.ell_star))[:, None]
         + (p @ P.Omega.T + P.q_star) @ np.conj(Z).T) * np.exp(p @ np.conj(Z).T)
    F = G.T * np.conj(S_J.theta * np.exp(a))[None, :]
    return float(np.max(np.abs(F - F.T))) / (1.0 + float(np.max(np.abs(F))))


def ref_conjugation_kernels(J, W):
    """J K_{w_i} = c e^{expo_i} K_{points_i} for the rows w_i of ``W`` by the
    written-out formula: expo = W b and points = conj(W) conj(A) + conj(b)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return W @ J.b, np.conj(W) @ np.conj(J.A) + np.conj(J.b)


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


def ref_column_section(c0, wvec, B, beta, N, rows=None):
    """Section of f -> c0 e^{z.wvec} f(B z + beta), rows of degree <= rows,
    by the column-at-a-time recurrence: raw column 0 is c0 wvec^gamma/gamma!
    and column alpha is (beta_k + sum_j B_kj z_j) times column alpha - e_k,
    k the first axis with alpha_k > 0, one NumPy call per nonzero term.

    Same arithmetic, in the same order, as the engine's build, so the two
    agree bit for bit."""
    d = len(wvec)
    indices = multi_indices(d, N)
    pos = {a: i for i, a in enumerate(indices)}
    degree = np.array([sum(a) for a in indices])
    m = N if rows is None else rows
    n_rows = int(np.count_nonzero(degree <= m))
    n_src = int(np.count_nonzero(degree < m))
    fact = np.array([mi_factorial(a) for a in indices])
    shifts = [
        np.array([pos[a[:j] + (a[j] + 1,) + a[j + 1:]] for a in indices[:n_src]], dtype=np.intp)
        for j in range(d)
    ]
    w = np.asarray(wvec, dtype=complex)
    monomials = np.prod(np.power(w[None, :], np.array(indices, dtype=np.int64)), axis=1)
    raw = np.empty((n_rows, len(indices)), dtype=complex, order="F")
    raw[:, 0] = c0 * monomials[:n_rows] / fact[:n_rows]
    for col, alpha in enumerate(indices[1:], start=1):
        k = next(j for j, a in enumerate(alpha) if a)
        v = raw[:, pos[alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]]]
        out = raw[:, col]
        np.multiply(beta[k], v, out=out)
        for j in range(d):
            if B[k, j] != 0:
                out[shifts[j]] += B[k, j] * v[:n_src]
    sqrt_fact = np.sqrt(fact)
    return raw * (sqrt_fact[:n_rows, None] / sqrt_fact[None, :])


def ref_runs(d, N):
    """The runs of the section build, (k, first column, first parent, width),
    found by scanning the columns: column alpha > 0 has the axis k of its
    first nonzero entry and the parent alpha - e_k, and the columns of one
    degree and one axis, taken in graded order, form one run."""
    indices = multi_indices(d, N)
    pos = {a: i for i, a in enumerate(indices)}
    axis = [next(j for j, a in enumerate(alpha) if a) for alpha in indices[1:]]
    parent = [pos[a[:k] + (a[k] - 1,) + a[k + 1:]] for a, k in zip(indices[1:], axis)]
    columns = zip(axis, range(1, len(indices)), parent)
    runs = []
    for (_, k), run in groupby(columns, lambda c: (sum(indices[c[1]]), c[0])):
        _, col, par = next(run)
        runs.append((k, col, par, 1 + sum(1 for _ in run)))
    return runs


def ref_taylor_expm(M, tol=1e-14, max_terms=64):
    """expm by the term-by-term Taylor sum, one matrix product per term.

    Same scaling power s (least s >= 0 with ||M||_1 / 2^s <= 1/2), same
    remainder bound 2 x^(k+1)/(k+1)! <= tol, and the same early exit once a
    term is exactly zero (nilpotent input).  Returns the exponential and the
    number of terms summed."""
    M = np.asarray(M, dtype=complex)
    nrm = float(np.linalg.norm(M, 1))
    s = 0
    while nrm * 2.0 ** -s > 0.5:
        s += 1
    X = M * 2.0 ** -s
    x = min(nrm * 2.0 ** -s, 0.5)
    acc = np.eye(M.shape[0], dtype=complex)
    term = acc.copy()
    bound = 1.0
    for k in range(1, max_terms + 1):
        term = term @ X / k
        acc += term
        bound = bound * x / k
        if 2.0 * bound * x / (k + 1) <= tol or not term.any():
            break
    for _ in range(s):
        acc = acc @ acc
    return acc, k


def ref_cluster_complex(eigs, gtol):
    """The union-find grouping ``normal_eig`` used before its one-pass
    labelling: clusters of |lambda_i - lambda_j| <= gtol, members in index
    order, sorted (stably) by (mean Re, mean Im) computed by ``np.mean``."""
    # union-find on |lambda_i - lambda_j| <= gtol; robust against the
    # lexicographic-sort pitfall for eigenvalues equal up to roundoff
    n = eigs.size
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(eigs[i] - eigs[j]) <= gtol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    ordered = sorted(
        clusters.values(),
        key=lambda idx: (
            float(np.mean(eigs[idx].real)),
            float(np.mean(eigs[idx].imag)),
        ),
    )
    return ordered


def ref_generator_apply(P, f):
    """The generator built as sums of single-monomial ``MPoly`` values, the
    construction ``generator_apply`` used before it built each affine factor
    from one dict."""
    d = P.dim
    weight = MPoly.constant(d, P.theta_star)
    for k in range(d):
        alpha = [0] * d
        alpha[k] = 1
        weight = weight + MPoly.monomial(d, alpha, np.conj(P.ell_star[k]))
    out = weight * f
    for k in range(d):
        fk = f.partial(k)
        if not fk.coeffs:
            continue
        drift = MPoly.constant(d, P.q_star[k])
        for j in range(d):
            alpha = [0] * d
            alpha[j] = 1
            drift = drift + MPoly.monomial(d, alpha, P.Omega[k, j])
        out = out + fk * drift
    return out


def rand_spectrum(rng, d, kind):
    """d eigenvalues of one of the families the grouping is checked on:
    random, repeated, repeated with 1e-10 perturbations, conjugate pairs,
    or small Gaussian integers (many exactly tied group means)."""
    if kind == "random":
        return crandn(rng, d)
    if kind in ("repeated", "perturbed"):
        base = crandn(rng, d // 3 + 1)
        lam = base[rng.integers(0, base.size, d)]
        return lam + 1e-10 * crandn(rng, d) if kind == "perturbed" else lam
    if kind == "conjugate_pairs":
        z = crandn(rng, (d + 1) // 2)
        return np.concatenate([z, np.conj(z)])[:d]
    if kind == "integer":
        return rng.integers(-2, 3, d) + 1j * rng.integers(-2, 3, d)
    raise ValueError(kind)


SPECTRUM_KINDS = ("random", "repeated", "perturbed", "conjugate_pairs", "integer")


def ref_stack_points(points, dim):
    """``oracle._stack_points`` as it was before the one-pass check: every
    point through ``as_vector``, then at least two of them."""
    from fockwc.linalg import as_vector

    pts = [as_vector(p, dim, "point") for p in points]
    if len(pts) < 2:
        raise ValueError("need at least two kernel points")
    return np.array(pts)


def ref_relative_defect(lhs_coeff, EL, rhs_coeff, ER):
    """The kernel defect with one exponential per side, as it was before
    ``j_symmetry_defect`` shared one between its sides: max|lhs - rhs| /
    (e^{-c} + max|lhs|) on lhs = lhs_coeff exp(EL - c) and
    rhs = rhs_coeff exp(ER - c), c = max(0, max Re E + log|coeff|)."""
    c = max(
        0.0,
        float(EL.real.max()) + math.log(abs(lhs_coeff)),
        float(ER.real.max()) + math.log(abs(rhs_coeff)),
    )
    lhs = lhs_coeff * np.exp(EL - c)
    rhs = rhs_coeff * np.exp(ER - c)
    worst = float(np.max(np.abs(lhs - rhs)))
    denom = math.exp(-c) + float(np.max(np.abs(lhs)))
    ratio = worst / denom if denom > 0 else math.inf
    if not math.isfinite(ratio):
        raise ValueError("kernel defect is not finite")
    return ratio


def ref_apply_symbol(S, F):
    """``oracle.apply_symbol`` as it was before kernel combinations were
    stored as arrays: one ``act_on_kernel`` per term."""
    from fockwc import KernelCombo
    from fockwc.symbols import act_on_kernel

    pairs = []
    for t in F.terms:
        img = act_on_kernel(S, t.point)
        pairs.append((t.coeff * img.coeff, img.point))
    return KernelCombo.from_pairs(F.dim, pairs)


def ref_apply_conjugation(J, F):
    """``oracle.apply_conjugation`` as it was before kernel combinations
    were stored as arrays: one ``apply_to_kernel`` (and so one validation
    of J) per term."""
    from fockwc import KernelCombo
    from fockwc.conjugation import apply_to_kernel

    pairs = []
    for t in F.terms:
        img = apply_to_kernel(J, t.point)
        pairs.append((np.conj(t.coeff) * img.coeff, img.point))
    return KernelCombo.from_pairs(F.dim, pairs)


def ref_combo_value(F, x):
    """``KernelCombo.__call__`` as it was: the sum of the term values."""
    return complex(sum(t(x) for t in F.terms))


# --- structure residuals as each check wrote them before linalg's table -------


def ref_op_norm(R):
    return float(np.linalg.svd(R, compute_uv=False)[0])


def ref_predicate_defects(M):
    """Norms of the unitarity, symmetry, Hermitian and normality residuals
    of M, keyed by their ``_residual_norms`` form."""
    eye = np.eye(M.shape[0])
    return {
        "X X* - I": ref_op_norm(M @ adj(M) - eye),
        "X* X - I": ref_op_norm(adj(M) @ M - eye),
        "X - X^t": ref_op_norm(M - M.T),
        "X - X*": ref_op_norm(M - adj(M)),
        "X X* - X* X": ref_op_norm(M @ adj(M) - adj(M) @ M),
        "X": ref_op_norm(M),
    }


def ref_check_residuals(S, J):
    """The matrix residuals of the class checks and of validate(J)."""
    eye = np.eye(S.dim)
    AQ = J.A @ S.Q
    return {
        "Q_hermitian": ref_op_norm(S.Q - adj(S.Q)),
        "Q_normal": ref_op_norm(S.Q @ adj(S.Q) - adj(S.Q) @ S.Q),
        "Q_norm_excess": max(0.0, ref_op_norm(S.Q) - 1.0),
        "AQ_symmetric": ref_op_norm(AQ.T - AQ),
        "matrix": max(ref_op_norm(J.A @ adj(J.A) - eye), ref_op_norm(J.A - J.A.T)),
    }


def structured_matrix(rng, d, kind):
    """A random, Hermitian, normal or unitary d x d matrix."""
    U = rand_unitary(rng, d)
    if kind == "random":
        return crandn(rng, d, d)
    if kind == "hermitian":
        return U @ np.diag(rng.standard_normal(d)) @ adj(U)
    if kind == "normal":
        return U @ np.diag(crandn(rng, d)) @ adj(U)
    return U
