"""Two independent verification engines for the symbol calculus.

Engine one works on finite spans of reproducing kernels, where every inner
product is exact scalar arithmetic through the reproducing property
``<K_w, K_z> = e^{<z, w>}``.  C_S and J map kernels to scaled kernels in
closed form, so each kernel-span quantity is one Gram matrix exp(E) of an
exponent matrix E.  The defects are ratios: both sides share one shift
e^{-c} that keeps every entry at most 1, so they stay finite wherever E is,
far past |<q, w>| = 709 where e^{<q, w>} alone overflows.  Engine two
builds finite sections of the operators on the orthonormal monomial basis
``e_alpha = z^alpha/sqrt(alpha!)`` up to a total degree, by purely
combinatorial series expansion (never quadrature).  Closed-form identities
elsewhere in the package are validated against both.

Truncated sections are built column by column: column 0 is the truncated
exponential weight, and each further column is an earlier one times one
linear factor of the composition.  No step loses accuracy, since the terms
of degree <= N of a linear polynomial times g depend only on those of g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .conjugation import ConjugationParams, apply_to_kernel, apply_to_kernels, require_valid
from .errors import DegreeCapError, PreconditionError
from .linalg import as_vector, op_norm
from .polynomials import MPoly, mi_factorial, multi_indices
from .symbols import ScaledKernel, WcSymbol, act_on_kernel, act_on_kernels, adjoint_symbol

__all__ = [
    "MAX_TRUNC_DEGREE",
    "MAX_TRUNC_BASIS",
    "KernelCombo",
    "inner",
    "combo_norm",
    "apply_symbol",
    "apply_conjugation",
    "pairing_defect",
    "adjoint_defect",
    "j_symmetry_defect",
    "TruncOp",
    "AntilinearTruncOp",
    "trunc_symbol_matrix",
    "trunc_conjugation_matrix",
    "kernel_coeff_vector",
    "poly_coeff_vector",
    "exp_tail",
    "cross_check",
]

# factorials are computed in floating point; degrees beyond this cap are
# refused rather than silently losing accuracy
MAX_TRUNC_DEGREE = 24
# basis sizes beyond this cap are refused before any table or n x n matrix
# is built: one complex128 section of this size takes 256 MiB
MAX_TRUNC_BASIS = 4096


# --- kernel span engine ------------------------------------------------------


@dataclass(frozen=True)
class KernelCombo:
    """Finite linear combination of reproducing kernels, sum_i c_i K_{z_i}.

    The empty combination is the zero function.
    """

    dim: int
    terms: tuple[ScaledKernel, ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        terms = tuple(self.terms)
        for t in terms:
            if not isinstance(t, ScaledKernel):
                raise ValueError("terms must be ScaledKernel instances")
            if t.dim != self.dim:
                raise ValueError("kernel point dimension mismatch")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_pairs(cls, dim: int, pairs) -> "KernelCombo":
        return cls(dim, tuple(ScaledKernel(c, p) for c, p in pairs))

    def scale(self, a) -> "KernelCombo":
        return KernelCombo(
            self.dim,
            tuple(ScaledKernel(a * t.coeff, t.point) for t in self.terms),
        )

    def __add__(self, other: "KernelCombo") -> "KernelCombo":
        if self.dim != other.dim:
            raise ValueError("kernel combo dimensions differ")
        return KernelCombo(self.dim, self.terms + other.terms)

    def __sub__(self, other: "KernelCombo") -> "KernelCombo":
        return self + other.scale(-1.0)

    @property
    def coeffs(self) -> np.ndarray:
        return np.array([t.coeff for t in self.terms], dtype=np.complex128)

    @property
    def points(self) -> np.ndarray:
        """Kernel points as the rows of an (m, d) array."""
        return np.array([t.point for t in self.terms]).reshape(-1, self.dim)

    def __call__(self, x) -> complex:
        return complex(sum(t(x) for t in self.terms))

    def to_json(self) -> dict:
        return {
            "d": self.dim,
            "terms": [
                {
                    "coeff": jsonio.complex_to_json(t.coeff),
                    "point": jsonio.vector_to_json(t.point),
                }
                for t in self.terms
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "KernelCombo":
        d, terms = jsonio.read_fields(
            obj, "kernel combo", defaults={"terms": []}, d=int, terms=_kernel_terms_from_json
        )
        return cls(d, tuple(terms))


def _kernel_terms_from_json(terms) -> list[ScaledKernel]:
    fields = dict(coeff=jsonio.complex_from_json, point=jsonio.vector_from_json)
    return [ScaledKernel(*jsonio.read_fields(t, "kernel term", **fields)) for t in terms]


def _log_gram(a, X, b, Y) -> np.ndarray:
    """E with exp(E) the Gram matrix of e^{a_i} K_{X_i} against e^{b_j} K_{Y_j}:
    E[i, j] = a_i + conj(b_j) + <Y_j, X_i>.  ``ValueError`` unless E is finite,
    which also catches every non-finite image point or exponent."""
    with np.errstate(over="ignore", invalid="ignore"):
        E = np.conj(X) @ Y.T + np.reshape(a, (-1, 1)) + np.conj(np.reshape(b, (1, -1)))
    if not np.isfinite(E).all():
        raise ValueError("kernel Gram exponent is not finite")
    return E


def inner(F: KernelCombo, G: KernelCombo) -> complex:
    """Fock inner product of kernel combinations via reproducing property.

    <sum_i c_i K_{w_i}, sum_j d_j K_{z_j}> = sum_ij c_i conj(d_j) e^{<z_j, w_i>}.
    """
    if F.dim != G.dim:
        raise ValueError("kernel combo dimensions differ")
    gram = np.exp(_log_gram(0.0, F.points, 0.0, G.points))
    return complex(F.coeffs @ gram @ np.conj(G.coeffs))


def combo_norm(F: KernelCombo) -> float:
    """Fock norm of a kernel combination."""
    return math.sqrt(max(inner(F, F).real, 0.0))


def apply_symbol(S: WcSymbol, F: KernelCombo) -> KernelCombo:
    """Apply C_S termwise: c_i K_{w_i} -> c_i * act_on_kernel(S, w_i)."""
    if S.dim != F.dim:
        raise ValueError("symbol and combo dimensions differ")
    out = []
    for t in F.terms:
        img = act_on_kernel(S, t.point)
        out.append(ScaledKernel(t.coeff * img.coeff, img.point))
    return KernelCombo(F.dim, tuple(out))


def apply_conjugation(J: ConjugationParams, F: KernelCombo) -> KernelCombo:
    """Apply J termwise; antilinearity conjugates the coefficients."""
    if J.dim != F.dim:
        raise ValueError("conjugation and combo dimensions differ")
    out = []
    for t in F.terms:
        img = apply_to_kernel(J, t.point)
        out.append(ScaledKernel(np.conj(t.coeff) * img.coeff, img.point))
    return KernelCombo(F.dim, tuple(out))


def _stack_points(points, dim: int) -> np.ndarray:
    pts = [as_vector(p, dim, "point") for p in points]
    if len(pts) < 2:
        raise ValueError("need at least two kernel points")
    return np.array(pts)


def _relative_defect(lhs_coeff, EL, rhs_coeff, ER) -> float:
    """max|lhs - rhs| / (1 + max|lhs|) for lhs = lhs_coeff exp(EL) and
    rhs = rhs_coeff exp(ER), evaluated as max|lhs' - rhs'| / (e^{-c} + max|lhs'|)
    on the sides times e^{-c}, c = max(0, max Re E + log|coeff|) over both.
    No entry then exceeds 1, so exponents past exp's overflow (709) are fine.
    """
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


def pairing_defect(S: WcSymbol, T: WcSymbol, points) -> float:
    """How far T is from being the adjoint of S, on a kernel span.

    Largest relative deviation of <C_S K_zi, K_zj> from <K_zi, C_T K_zj>
    over all point pairs; vanishes (to roundoff) iff T = adjoint_symbol(S)
    on the span.
    """
    if S.dim != T.dim:
        raise ValueError("symbol dimensions differ")
    Z = _stack_points(points, S.dim)
    a_S, P_S = act_on_kernels(S, Z)
    a_T, P_T = act_on_kernels(T, Z)
    return _relative_defect(
        S.theta, _log_gram(a_S, P_S, 0.0, Z),
        np.conj(T.theta), _log_gram(0.0, Z, a_T, P_T),
    )


def adjoint_defect(S: WcSymbol, points) -> float:
    """pairing_defect of S against its closed-form adjoint symbol."""
    return pairing_defect(S, adjoint_symbol(S), points)


def j_symmetry_defect(S: WcSymbol, J: ConjugationParams, points) -> float:
    """Asymmetry of the bilinear form [f, g] = <C_S f, J g> on kernels.

    C_S is J-selfadjoint iff the form is symmetric; the returned value is
    the largest relative deviation |[K_zi, K_zj] - [K_zj, K_zi]|.
    """
    require_valid(J)
    if S.dim != J.dim:
        raise ValueError("symbol and conjugation dimensions differ")
    Z = _stack_points(points, S.dim)
    a_S, P_S = act_on_kernels(S, Z)
    a_J, P_J = apply_to_kernels(J, Z)
    E = _log_gram(a_S, P_S, a_J, P_J)
    coeff = S.theta * np.conj(J.c)
    return _relative_defect(coeff, E, coeff, E.T)


# --- truncated section engine ------------------------------------------------


class _IndexTables:
    """Precomputed combinatorics for one (dimension, degree) pair."""

    def __init__(self, d: int, N: int):
        self.indices = multi_indices(d, N)
        self.pos = {alpha: i for i, alpha in enumerate(self.indices)}
        self.alpha = np.array(self.indices, dtype=np.int64)
        self.degree = self.alpha.sum(axis=1)
        self.fact = np.array(
            [mi_factorial(a) for a in self.indices], dtype=np.float64
        )
        self.sqrt_fact = np.sqrt(self.fact)
        # multiplication by z_j on raw coefficient vectors moves the first
        # n_low entries (degree < N, a prefix in graded order) to shifts[j]
        self.n_low = int(np.count_nonzero(self.degree < N))
        self.shifts = [
            np.array([self.pos[a[:j] + (a[j] + 1,) + a[j + 1:]] for a in self.indices[:self.n_low]],
                     dtype=np.intp)
            for j in range(d)
        ]


_TABLES: dict[tuple[int, int], _IndexTables] = {}


def _tables(d: int, N: int) -> _IndexTables:
    if N < 0:
        raise ValueError("truncation degree must be non-negative")
    if N > MAX_TRUNC_DEGREE:
        raise DegreeCapError(
            f"truncation degree {N} exceeds cap {MAX_TRUNC_DEGREE}"
        )
    n = math.comb(N + d, d)
    if n > MAX_TRUNC_BASIS:
        raise DegreeCapError(f"basis size {n} for d={d}, N={N} exceeds cap {MAX_TRUNC_BASIS}")
    key = (d, N)
    if key not in _TABLES:
        _TABLES[key] = _IndexTables(d, N)
    return _TABLES[key]


def _monomials(w: np.ndarray, tab: _IndexTables) -> np.ndarray:
    """w^alpha for every multi-index alpha of the tables."""
    return np.prod(np.power(w[None, :], tab.alpha), axis=1)


def _wc_section(c0: complex, wvec: np.ndarray, B: np.ndarray,
                beta: np.ndarray, N: int) -> np.ndarray:
    """Section of f -> c0 e^{z.wvec} f(B z + beta) on the normalized basis.

    Dots denote the plain bilinear sum.  Raw column alpha holds the terms of
    degree <= N of c0 e^{z.wvec} (B z + beta)^alpha: column 0 is c0
    wvec^gamma/gamma!, and column alpha is (beta_k + sum_j B_kj z_j) times
    column alpha - e_k.  Row gamma is rescaled by sqrt(gamma!/alpha!) at the end.
    """
    d = wvec.size
    tab = _tables(d, N)
    n = len(tab.indices)

    raw = np.empty((n, n), dtype=np.complex128, order="F")
    raw[:, 0] = c0 * _monomials(wvec, tab) / tab.fact
    for col in range(1, n):
        alpha = tab.indices[col]
        k = next(i for i, a in enumerate(alpha) if a > 0)
        v = raw[:, tab.pos[alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]]]
        out = beta[k] * v
        for j in range(d):
            if B[k, j] != 0:
                out[tab.shifts[j]] += B[k, j] * v[:tab.n_low]
        raw[:, col] = out
    return raw * (tab.sqrt_fact[:, None] / tab.sqrt_fact[None, :])


@dataclass(frozen=True)
class TruncOp:
    """Finite section of a linear operator on monomials of degree <= N."""

    dim: int
    degree: int
    matrix: np.ndarray

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=np.complex128)

    @property
    def indices(self) -> list[tuple[int, ...]]:
        return list(_tables(self.dim, self.degree).indices)


@dataclass(frozen=True)
class AntilinearTruncOp(TruncOp):
    """Finite section of an antilinear operator: v -> matrix @ conj(v)."""

    def apply(self, v: np.ndarray) -> np.ndarray:
        return super().apply(np.conj(np.asarray(v, dtype=np.complex128)))


def trunc_symbol_matrix(S: WcSymbol, N: int) -> TruncOp:
    """Section of C_S: entry (beta, alpha) is
    sqrt(beta!/alpha!) [z^beta](theta e^{<z,ell>} (Qz+q)^alpha)."""
    mat = _wc_section(S.theta, np.conj(S.ell), S.Q, S.q, N)
    return TruncOp(S.dim, N, mat)


def trunc_conjugation_matrix(J: ConjugationParams, N: int) -> AntilinearTruncOp:
    """Antilinear section of J, from J e_alpha = c e^{z.b} (Az+b)^alpha/sqrt(alpha!)."""
    require_valid(J)
    mat = _wc_section(J.c, J.b, J.A, J.b, N)
    return AntilinearTruncOp(J.dim, N, mat)


def kernel_coeff_vector(w, N: int) -> np.ndarray:
    """Basis coefficients of K_w up to degree N: conj(w)^alpha/sqrt(alpha!)."""
    w = as_vector(w, name="w")
    tab = _tables(w.size, N)
    return _monomials(np.conj(w), tab) / tab.sqrt_fact


def poly_coeff_vector(f: MPoly, N: int) -> np.ndarray:
    """Basis coefficients of a polynomial: z^alpha has coefficient sqrt(alpha!)."""
    tab = _tables(f.dim, N)
    if f.degree() > N:
        raise ValueError("polynomial degree exceeds the truncation degree")
    v = np.zeros(len(tab.indices), dtype=np.complex128)
    for alpha, c in f.coeffs.items():
        i = tab.pos[alpha]
        v[i] = c * tab.sqrt_fact[i]
    return v


def exp_tail(rho: float, N: int) -> float:
    """Tail of the exponential series: sum_{k>N} rho^k / k!."""
    if rho < 0:
        raise ValueError("rho must be non-negative")
    term = rho ** (N + 1) / math.factorial(N + 1)
    total = 0.0
    for k in range(N + 1, N + 200):
        total += term
        term *= rho / (k + 1)
        if term <= total * 1e-18 + 1e-300:
            break
    return total


def cross_check(S: WcSymbol, w, N: int, tol: float = 1e-8) -> float:
    """Agreement of the two engines on the kernel action of C_S.

    Compares the truncated-matrix path T_N(S) k_N(w) against the closed
    form theta e^{<q,w>} k_N(Q* w + ell) on coefficients of degree <= N/2.
    A precondition enforces the declared truncation-error bound

        sqrt(#rows) sqrt((N/2)!) |theta| e^{sqrt(d)||ell||} tail(rho, N),
        rho = (||Q|| sqrt(d) + ||q||) ||w||,

    to be below ``tol`` (Cauchy estimate on the unit polydisc), so a
    residual above ``tol`` signals a genuine disagreement, not truncation.
    """
    w = as_vector(w, S.dim, "w")
    d = S.dim
    m = N // 2
    tab = _tables(d, N)
    n_rows = int(np.count_nonzero(tab.degree <= m))
    rho = (op_norm(S.Q) * math.sqrt(d) + float(np.linalg.norm(S.q))) * float(
        np.linalg.norm(w)
    )
    bound = (
        math.sqrt(n_rows)
        * math.sqrt(math.factorial(m))
        * abs(S.theta)
        * math.exp(math.sqrt(d) * float(np.linalg.norm(S.ell)))
        * exp_tail(rho, N)
    )
    if not bound < tol:
        raise PreconditionError(
            f"truncation tail bound {bound:.3e} is not below tol={tol:.1e}; "
            "shrink the data or raise N"
        )
    T = trunc_symbol_matrix(S, N)
    lhs = T.apply(kernel_coeff_vector(w, N))
    img = act_on_kernel(S, w)
    rhs = img.coeff * kernel_coeff_vector(img.point, N)
    mask = tab.degree <= m
    return float(np.linalg.norm((lhs - rhs)[mask]))
