"""Two independent verification engines for the symbol calculus.

Engine one works on finite spans of reproducing kernels, where every inner
product is exact scalar arithmetic through the reproducing property
``<K_w, K_z> = e^{<z, w>}``.  C_S maps kernels to scaled kernels in closed
form, and J = C_{S_J} J0 (``conjugation.symbol_of``) does so after
conjugating them, so each kernel-span quantity is one Gram matrix exp(E) of
an exponent matrix E.  A ``KernelCombo`` is two frozen arrays, coefficients
and kernel points, so ``apply_symbol`` and ``apply_conjugation`` are one
batch call each.  A defect checks its point set once, as one finite (m, d)
array.  The defects are ratios: ``_scaled`` gives both sides one scale
that keeps every entry below 2, so they stay finite wherever E is, far past
|<q, w>| = 709 where e^{<q, w>} alone overflows, by ``linalg.fold_exp`` for
a coefficient far from 1 (a subnormal theta, one whose modulus overflows, a
theta conj(c) that underflows).  ``inner`` and ``apply_symbol`` keep their
plain NumPy values where each term meets ``linalg.times_exp``'s rule, else
``inner`` sums its terms' ``fold_exp`` and ``apply_symbol`` calls ``times_exp``.
The two sides of the J-symmetry form are one Gram matrix and its
transpose, so that defect takes one exponential.  Engine two
builds finite sections of the operators on the orthonormal monomial basis
``e_alpha = z^alpha/sqrt(alpha!)`` up to a total degree, by purely
combinatorial series expansion (never quadrature).  Closed-form identities
elsewhere in the package are validated against both.

Truncated sections are built by a column recurrence: column 0 is the
truncated exponential weight, and each further column is a column of one
degree less times one linear factor of the composition.  No step loses
accuracy, since the terms of degree <= N of a linear polynomial times g
depend only on those of g.  In graded lex order the columns of degree g and
first axis k form a run of comb(g - 2 + d - k, d - k - 1) columns, whose
parents are as many first columns of degree g - 1; a section is built one
chunk of a run per NumPy call, through flat indices into the column-major
work array, where a chunk is one contiguous segment.  A chunk
holds at most ``RUN_ENTRIES`` entries, whatever the height of the section,
so it and its parents stay in cache; the chunks change no operation, so
every entry keeps its bits.  A row bound m builds only the rows of degree
<= m (a prefix in graded order) and gets those rows of the full section
exactly; ``cross_check`` builds only the rows of degree <= N/2 that it
compares.  The flat indices and the final ratio sqrt(gamma!/alpha!) are
kept per (d, N, m): 1.4 MiB at (d, N, m) = (4, 10, 5), 10.7 MiB for
``cross_check``'s rows at the caps (3, 24), and mostly the ratio, 8 bytes
an entry, for a full section (69 MiB at (5, 10)).  ``cross_check``
builds in a per-thread workspace, which keeps two buffers, the work array
and the block, grown to the largest block the thread has needed: 3.85 MiB
at (4, 10), at most 40.6 MiB at the caps.  A warm ``cross_check`` so
touches no fresh pages.  Every other section is a fresh array.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .conjugation import ConjugationParams, require_valid, symbol_of
from .conjugation import apply_to_kernel  # noqa: F401  wrapped here by benchmarks/tracing.py
from .errors import DegreeCapError, PreconditionError
from .linalg import (
    DEFAULT_TOL, _EXP_TINY, _TINY, _as_complex_array, as_scalar, as_vector, fields_equal,
    fold_exp, freeze, ldexp, op_norm, owned, times_exp,
)
from .polynomials import MPoly, mi_factorial, multi_indices
from .symbols import ScaledKernel, WcSymbol, _modulus, act_on_kernel, act_on_kernels, adjoint_symbol

__all__ = [
    "KernelCombo",
    "inner",
    "apply_symbol",
    "apply_conjugation",
    "pairing_defect",
    "adjoint_defect",
    "j_symmetry_defect",
    "trunc_symbol_matrix",
    "trunc_conjugation_matrix",
    "kernel_coeff_vector",
    "cross_check",
]

# factorials are computed in floating point; degrees beyond this cap are
# refused rather than silently losing accuracy
MAX_TRUNC_DEGREE = 24
# basis sizes beyond this cap are refused before any table or n x n matrix
# is built: one complex128 section of this size takes 256 MiB
MAX_TRUNC_BASIS = 4096
# a section is built in chunks of at most this many complex entries (512 KiB),
# so that a chunk and its parents stay in cache (see _build_section)
RUN_ENTRIES = 2**15


# --- kernel span engine ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KernelCombo:
    """Finite linear combination of reproducing kernels, sum_i c_i K_{z_i},
    held as two frozen arrays, ``coeffs`` (m,) and ``points`` (m, d), checked
    once here; m = 0 is the zero function.  Its own results are built by
    ``linalg.owned``.  Arithmetic on them never warns: an overflowing
    coefficient fails the check, which names it."""

    dim: int
    coeffs: np.ndarray
    points: np.ndarray

    __eq__ = fields_equal
    _NONFINITE = {"coeffs": "kernel combo coefficients are not finite",
                  "points": "kernel combo points are not finite"}

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        coeffs = _as_complex_array(self.coeffs, "coeffs")
        points = _as_complex_array(self.points, "points")
        if coeffs.ndim != 1 or points.shape != (coeffs.size, self.dim):  # never reshaped to fit
            shapes = f"{coeffs.shape}, {points.shape} != (m,), (m, {self.dim})"
            raise ValueError(f"kernel combo shapes {shapes}")
        for name, arr in (("coeffs", coeffs), ("points", points)):
            if not np.isfinite(arr).all():
                raise ValueError(self._NONFINITE[name])
        freeze(self, coeffs=coeffs, points=points)

    @classmethod
    def from_pairs(cls, dim: int, pairs) -> "KernelCombo":
        if dim < 1:  # first: every point is checked against it
            raise ValueError("dimension must be positive")
        pairs = list(pairs)
        coeffs = np.array([as_scalar(c, "coeff") for c, _ in pairs], dtype=np.complex128)
        points = np.array([as_vector(p, dim, "point") for _, p in pairs], dtype=np.complex128)
        return owned(cls, dim=dim, coeffs=coeffs, points=points.reshape(-1, dim))  # m = 0: (0, d)

    @property
    def terms(self) -> tuple[ScaledKernel, ...]:
        pairs = zip(self.coeffs, self.points)
        return tuple(owned(ScaledKernel, coeff=c, point=p) for c, p in pairs)

    @np.errstate(over="ignore", invalid="ignore")
    def scale(self, a) -> "KernelCombo":
        coeffs = as_scalar(a, "scale") * self.coeffs
        return owned(KernelCombo, dim=self.dim, coeffs=coeffs, points=self.points)

    def __add__(self, other: "KernelCombo") -> "KernelCombo":
        if self.dim != other.dim:
            raise ValueError("kernel combo dimensions differ")
        coeffs = np.concatenate([self.coeffs, other.coeffs])
        return owned(KernelCombo, dim=self.dim, coeffs=coeffs,
                     points=np.concatenate([self.points, other.points]))

    def __sub__(self, other: "KernelCombo") -> "KernelCombo":
        return self + other.scale(-1.0)

    def __call__(self, x) -> complex:
        """sum_i c_i e^{<x, z_i>}, the reproducing property's <F, K_x>."""
        return inner(self, KernelCombo(self.dim, [1.0], [as_vector(x, self.dim, "x")]))

    def to_json(self) -> dict:
        terms = [
            {"coeff": jsonio.complex_to_json(c), "point": jsonio.vector_to_json(p)}
            for c, p in zip(self.coeffs, self.points)
        ]
        return {"d": self.dim, "terms": terms}

    @classmethod
    def from_json(cls, obj: dict) -> "KernelCombo":
        read_terms = jsonio.records(
            "kernel term", coeff=jsonio.complex_from_json, point=jsonio.vector_from_json
        )
        d, pairs = jsonio.read_fields(
            obj, "kernel combo", defaults={"terms": []}, d=int, terms=read_terms
        )
        return cls.from_pairs(d, pairs)


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
    The plain sum is kept where it meets ``times_exp``'s rule term by term:
    every e^{E_ij}, and c_i e^{E_ij} for c_i != 0, is a normal double, and
    the sum is finite.  Else the nonzero terms' ``fold_exp`` v 2^p are
    summed at the largest p, and the sum is scaled back once.
    """
    if F.dim != G.dim:
        raise ValueError("kernel combo dimensions differ")
    E = _log_gram(0.0, F.points, 0.0, G.points)
    # an overflowing kernel value surfaces as the ValueError, never as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        X = np.exp(E)
        value = complex(F.coeffs @ X @ np.conj(G.coeffs))
        cX = (F.coeffs[:, None] * X)[F.coeffs != 0]
        plain = (E.real >= _EXP_TINY).all() and (np.abs(cX.real) + np.abs(cX.imag) >= _TINY).all()
    if plain and cmath.isfinite(value):
        return value
    c, d = F.coeffs.tolist(), np.conj(G.coeffs).tolist()
    terms = [fold_exp((c[i], d[j]), complex(E[i, j]))
             for i in np.flatnonzero(F.coeffs).tolist() for j in np.flatnonzero(G.coeffs).tolist()]
    top = max((p for _, p in terms), default=0)
    value = complex(sum(ldexp(v, p - top) for v, p in terms))
    try:  # past the doubles math.ldexp raises OverflowError
        return complex(math.ldexp(value.real, top), math.ldexp(value.imag, top))
    except OverflowError:
        raise ValueError("inner product is not finite") from None


def apply_symbol(S: WcSymbol, F: KernelCombo) -> KernelCombo:
    """Apply C_S termwise, c_i K_{w_i} -> c_i C_S K_{w_i}, in one batch;
    a coefficient that is not finite so, or whose e^expo or theta e^expo is
    not a normal double, is formed again by ``times_exp``."""
    if S.dim != F.dim:
        raise ValueError("symbol and combo dimensions differ")
    expo, points = act_on_kernels(S, F.points)
    with np.errstate(over="ignore", invalid="ignore"):
        theta_e = S.theta * np.exp(expo)
        coeffs = F.coeffs * theta_e
    redo = ~np.isfinite(coeffs) | (expo.real < _EXP_TINY) | (np.abs(theta_e) < _TINY)
    for i in np.flatnonzero(redo).tolist():
        coeffs[i] = times_exp((complex(F.coeffs[i]), S.theta), complex(expo[i]),
                              "kernel combo coefficient")
    return owned(KernelCombo, dim=F.dim, coeffs=coeffs, points=points)


def apply_conjugation(J: ConjugationParams, F: KernelCombo) -> KernelCombo:
    """Apply J in one batch, J validated once: C_{S_J} on conjugated coefficients and points."""
    if J.dim != F.dim:
        raise ValueError("conjugation and combo dimensions differ")
    require_valid(J)
    F0 = owned(KernelCombo, dim=F.dim, coeffs=np.conj(F.coeffs), points=np.conj(F.points))
    return apply_symbol(symbol_of(J), F0)


def _stack_points(points, dim: int) -> np.ndarray:
    """The kernel points as the rows of a finite (m, d) array, m >= 2.

    One conversion checks the usual input; anything it does not accept
    goes through ``as_vector`` point by point, which raises the error that
    names the fault."""
    try:
        Z = np.asarray(points, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        pass
    else:
        if Z.ndim == 2 and Z.shape[0] >= 2 and Z.shape[1] == dim and np.isfinite(Z).all():
            return Z
    pts = [as_vector(p, dim, "point") for p in points]
    if len(pts) < 2:
        raise ValueError("need at least two kernel points")
    return np.array(pts)


# an exponent far below c gives -inf, whose exp is 0
@np.errstate(over="ignore")
def _scaled(*sides) -> tuple[list, float]:
    """Each side coeff exp(E) times one scale s, coeff the product of the
    side's factors, and s: no entry reaches 2.  Where every coeff lies in
    [2^-900, 2^900], s = e^{-c}, c = max(0, max Re E + log|coeff|).  Else a
    side is ``fold_exp(factors, top - T) exp(E - top)``, top its max Re E
    and T the largest, and the 1 of 1 + max|lhs| is ``fold_exp((1,), -T)``,
    all scaled by 2^-P, P the largest power of two."""
    coeffs = [math.prod(factors[1:], start=factors[0]) for factors, _ in sides]
    tops = [float(E.real.max()) for _, E in sides]
    if all(2.0 ** -900 <= max(abs(a.real), abs(a.imag)) <= 2.0 ** 900 for a in coeffs):
        c = max(0.0, *(top + math.log(abs(a)) for a, top in zip(coeffs, tops)))
        return [a * np.exp(E - c) for a, (_, E) in zip(coeffs, sides)], math.exp(-c)
    T = max(tops)  # so no exponent fold_exp sees is positive
    folds = [fold_exp(factors, top - T) for (factors, _), top in zip(sides, tops)]
    one, p_one = fold_exp((1.0,), -T)
    P = max(p_one, *(p for v, p in folds if v))  # a zero side has no power of two
    scaled = [ldexp(v * np.exp(E - top), p - P) for (v, p), (_, E), top in zip(folds, sides, tops)]
    return scaled, math.ldexp(one.real, p_one - P)


def _relative_defect(lhs, rhs, scale: float) -> float:
    """max|lhs - rhs| / (1 + max|lhs|) for two sides given times ``scale``
    (``_scaled``), evaluated as max|lhs' - rhs'| / (scale + max|lhs'|).
    No entry then reaches 2, so exponents past exp's overflow (709) are fine.
    """
    worst = float(np.max(np.abs(lhs - rhs)))
    denom = scale + float(np.max(np.abs(lhs)))
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
    (lhs, rhs), scale = _scaled(
        ((S.theta,), _log_gram(a_S, P_S, 0.0, Z)),
        ((np.conj(T.theta),), _log_gram(0.0, Z, a_T, P_T)),
    )
    return _relative_defect(lhs, rhs, scale)


def adjoint_defect(S: WcSymbol, points) -> float:
    """pairing_defect of S against its closed-form adjoint symbol."""
    return pairing_defect(S, adjoint_symbol(S), points)


def j_symmetry_defect(S: WcSymbol, J: ConjugationParams, points,
                      tol: float = DEFAULT_TOL) -> float:
    """Asymmetry of the bilinear form [f, g] = <C_S f, J g> on kernels.

    C_S is J-selfadjoint iff the form is symmetric; the returned value is
    the largest relative deviation |[K_zi, K_zj] - [K_zj, K_zi]|.  J must
    be admissible at ``tol``.
    """
    require_valid(J, tol)
    if S.dim != J.dim:
        raise ValueError("symbol and conjugation dimensions differ")
    Z = _stack_points(points, S.dim)
    S_J = symbol_of(J)
    a_S, P_S = act_on_kernels(S, Z)
    a_J, P_J = act_on_kernels(S_J, np.conj(Z))  # J K_z = C_{S_J} K_{conj(z)}
    E = _log_gram(a_S, P_S, a_J, P_J)
    # the other side, theta conj(c) exp(E^t), is this one's transpose, entry for entry
    (lhs,), scale = _scaled(((S.theta, np.conj(S_J.theta)), E))
    return _relative_defect(lhs, lhs.T, scale)


# --- truncated section engine ------------------------------------------------


class _IndexTables:
    """Precomputed combinatorics for one (dimension, degree) pair."""

    def __init__(self, d: int, N: int):
        self.indices = multi_indices(d, N)
        self.pos = {alpha: i for i, alpha in enumerate(self.indices)}
        alpha = np.array(self.indices, dtype=np.int64)
        self.degree = alpha.sum(axis=1)
        # w^alpha multiplies the entries [power_index[alpha]] of the (N + 1, d)
        # table w_j^p, p <= N, read flat: (N + 1) d powers instead of n d
        self.exponents = np.arange(N + 1)[:, None]
        self.power_index = alpha * d + np.arange(d)
        self.fact = np.array(
            [mi_factorial(a) for a in self.indices], dtype=np.float64
        )
        self.sqrt_fact = np.sqrt(self.fact)
        # the entries of degree < g are the prefix [:graded_end[g]], g <= N + 1
        self.graded_end = [math.comb(g - 1 + d, d) if g else 0 for g in range(N + 2)]
        # multiplication by z_j on raw coefficient vectors moves the entries
        # of degree < N to shifts[j]
        self.shifts = [
            np.array([self.pos[a[:j] + (a[j] + 1,) + a[j + 1:]]
                      for a in self.indices[:self.graded_end[N]]], dtype=np.intp)
            for j in range(d)
        ]
        # column alpha > 0 is built from its parent alpha - e_k, k the first
        # axis with alpha_k > 0.  In graded lex order, for k = d - 1 down to 0,
        # the w = comb(g - 2 + d - k, d - k - 1) columns of degree g and axis k
        # are a run whose parents are the first w of degree g - 1: (k, col, par, w)
        self.runs = []
        for g in range(1, N + 1):
            col = self.graded_end[g]
            for k in range(d - 1, -1, -1):
                w = math.comb(g - 2 + d - k, d - k - 1)
                self.runs.append((k, col, self.graded_end[g - 1], w))
                col += w
        self._run_tables: list[_RunTables | None] = [None] * (N + 1)

    def run_tables(self, m: int) -> "_RunTables":
        """The ``_RunTables`` of the row bound m, built on first use."""
        tables = self._run_tables[m]
        if tables is None:  # a racing thread builds equal tables
            tables = self._run_tables[m] = _RunTables(self, m)
        return tables


class _RunTables:
    """``_build_section``'s tables for the row bound m: flat indices into
    the column-major work array, whose chunk of w consecutive columns of a
    run is one contiguous segment, and the ratio sqrt(gamma!/alpha!) of the
    final rescaling.  A run is cut into chunks of at most
    cw = max(1, ``RUN_ENTRIES`` // n_rows) columns, which stay in cache.
    One offset table per axis, as wide as the widest chunk, serves every
    chunk, through one list of its prefixes per chunk width, so the tables
    of d one-column runs hold d views, not d per run."""

    def __init__(self, tab: _IndexTables, m: int):
        n_src, n_rows = tab.graded_end[m], tab.graded_end[m + 1]
        cw = max(1, RUN_ENTRIES // n_rows)
        spans = [(k, col + i, par + i, min(cw, w - i))
                 for k, col, par, w in tab.runs for i in range(0, w, cw)]
        # scatter[j][:w]: where z_j moves the entries of degree < m of w
        # consecutive columns, as (w, n_src) offsets into their segment; the
        # prefixes of one width are one list, shared by its chunks
        starts = np.arange(max((w for *_, w in spans), default=0))[:, None] * n_rows
        scatter = [starts + s[:n_src] for s in tab.shifts]
        prefixes = {w: [s[:w] for s in scatter] for w in {w for *_, w in spans}}
        # per chunk: axis k, the flat segments of its parents and its
        # columns, the (w, n_src) block of its parents' entries of degree
        # < m in the transposed work array, and the scatter prefixes
        self.chunks = [
            (k, slice(par * n_rows, (par + w) * n_rows), slice(col * n_rows, (col + w) * n_rows),
             (slice(par, par + w), slice(None, n_src)), prefixes[w])
            for k, col, par, w in spans
        ]
        self.ratio = tab.sqrt_fact[:n_rows, None] / tab.sqrt_fact[None, :]


_TABLES: dict[tuple[int, int], _IndexTables] = {}


def _check_caps(d: int, N: int) -> None:
    """Refuse a truncation degree or a basis size past the caps."""
    if N < 0:
        raise ValueError("truncation degree must be non-negative")
    if N > MAX_TRUNC_DEGREE:
        raise DegreeCapError(
            f"truncation degree {N} exceeds cap {MAX_TRUNC_DEGREE}"
        )
    n = math.comb(N + d, d)
    if n > MAX_TRUNC_BASIS:
        raise DegreeCapError(f"basis size {n} for d={d}, N={N} exceeds cap {MAX_TRUNC_BASIS}")


def _tables(d: int, N: int) -> _IndexTables:
    _check_caps(d, N)
    key = (d, N)
    if key not in _TABLES:
        _TABLES[key] = _IndexTables(d, N)
    return _TABLES[key]


def _monomials(w: np.ndarray, tab: _IndexTables, rows: int) -> np.ndarray:
    """w^alpha for the first ``rows`` multi-indices alpha of the tables; each
    entry has the bits it has among all of them."""
    return np.prod(np.power(w, tab.exponents).ravel()[tab.power_index[:rows]], axis=1)


# dtype and memory order of a section build's work array and its block;
# the block's C order fixes the bits of ``block @ vector``
_SECTION_LAYOUT = ((np.complex128, "F"), (np.complex128, "C"))


class _Workspace(threading.local):
    """One thread's two flat buffers for ``cross_check``'s section blocks,
    the work array and the block (3.85 MiB at (d, N) = (4, 10)), grown
    together to the largest block the thread has needed and kept for the
    life of the thread, so a warm build touches no fresh pages."""

    def __init__(self):
        self.buffers: list[np.ndarray] = []

    def arrays(self, shape: tuple[int, int]) -> list[np.ndarray]:
        """Uninitialised views of the buffers in ``_SECTION_LAYOUT``, which
        the thread's next call overwrites."""
        size = shape[0] * shape[1]
        if not self.buffers or self.buffers[0].size < size:
            self.buffers.clear()  # release the smaller buffers before allocating
            self.buffers += [np.empty(size, dtype) for dtype, _ in _SECTION_LAYOUT]
        return [buf[:size].reshape(shape, order=order)
                for buf, (_, order) in zip(self.buffers, _SECTION_LAYOUT)]


_WORKSPACE = _Workspace()


def _wc_section(c0: complex, wvec: np.ndarray, B: np.ndarray,
                beta: np.ndarray, N: int, rows: int | None = None) -> np.ndarray:
    """Section of f -> c0 e^{z.wvec} f(B z + beta) on the normalized basis,
    as a fresh array.

    Dots denote the plain bilinear sum.  Raw column alpha holds the terms of
    degree <= N of c0 e^{z.wvec} (B z + beta)^alpha: column 0 is c0
    wvec^gamma/gamma!, and column alpha is (beta_k + sum_j B_kj z_j) times
    column alpha - e_k.  Row gamma is rescaled by sqrt(gamma!/alpha!) at the end.

    With ``rows = m`` (default N) only the rows of degree <= m are built:
    the graded prefix of the full section, equal to it bit for bit, since
    those rows of a column depend only on the rows of degree <= m of its
    parent (whose rows of degree < m feed the products with z_j).
    ``cross_check`` builds its rows of degree <= N // 2 the same way, with
    ``_build_section`` in its thread's workspace.
    """
    tab = _tables(wvec.size, N)
    m = N if rows is None else rows
    shape = (tab.graded_end[m + 1], len(tab.indices))
    arrays = [np.empty(shape, dtype, order=order) for dtype, order in _SECTION_LAYOUT]
    return _build_section(c0, wvec, B, beta, tab, m, *arrays)


def _build_section(c0: complex, wvec: np.ndarray, B: np.ndarray, beta: np.ndarray,
                   tab: _IndexTables, m: int, raw: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The rows of degree <= m of ``_wc_section``, built in the work array
    ``raw`` and returned as ``block`` (``_SECTION_LAYOUT``): raw times the
    float ratio sqrt(gamma!/alpha!), which NumPy casts to complex for the
    product.

    The columns of degree g and first axis k form one run whose parents are
    one run of degree g - 1.  Each chunk of a run (``_RunTables``) is a few
    NumPy calls on ``raw`` read flat, where its w columns are one contiguous
    segment: multiply the parents' segment by beta_k into the chunk's, then
    add B_kj times the parents' rows of degree < m at the offsets kept for
    z_j (injective, so the fancy-index ``+=`` is exact; a 2-D fancy index
    into the column block would copy each destination row as a strided
    subspace of w entries).  A chunk holds at most ``RUN_ENTRIES`` entries,
    so at any height it and its parents stay in cache, where a whole run of
    a tall section would not.  Each entry sees the same scalar products and
    sums in the same order, whatever the chunks.  Any overflow raises
    ``ValueError`` instead of returning a non-finite section.
    """
    n_rows = tab.graded_end[m + 1]
    run_tab = tab.run_tables(m)
    # per axis k, the nonzero terms B_kj z_j of beta_k + sum_j B_kj z_j, read
    # row by row, d^2 (j, b) tuples for a dense B; none at m = 0, where no
    # entry has a degree below m for z_j to move
    terms = [[(j, b) for j, b in enumerate(Bk.tolist()) if b != 0] for Bk in (B if m else B[:, :0])]
    cols = raw.T  # C order: column alpha is row alpha, a chunk one segment
    flat = cols.ravel()
    # the inputs are finite, so only an overflow (or an inf times 0 after
    # one) can make an entry non-finite; trapping it costs nothing, where a
    # scan of the result took 10% of a full (5, 10) build
    try:
        with np.errstate(over="raise", invalid="raise"):
            raw[:, 0] = c0 * _monomials(wvec, tab, n_rows) / tab.fact[:n_rows]
            for k, par, col, src, scatter in run_tab.chunks:
                seg = flat[col]
                np.multiply(beta[k], flat[par], out=seg)
                v = cols[src]
                for j, b in terms[k]:
                    seg[scatter[j]] += b * v
            return np.multiply(raw, run_tab.ratio, out=block)
    except FloatingPointError:
        raise ValueError("truncated section is not finite") from None


@dataclass(frozen=True, eq=False)
class TruncOp:
    """Finite section of a linear operator on monomials of degree <= N."""

    dim: int
    degree: int
    matrix: np.ndarray

    __eq__ = fields_equal

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=np.complex128)

    @property
    def indices(self) -> list[tuple[int, ...]]:
        return list(_tables(self.dim, self.degree).indices)


@dataclass(frozen=True, eq=False)
class AntilinearTruncOp(TruncOp):
    """Finite section of an antilinear operator: v -> matrix @ conj(v)."""

    def apply(self, v: np.ndarray) -> np.ndarray:
        return super().apply(np.conj(np.asarray(v, dtype=np.complex128)))


def trunc_symbol_matrix(S: WcSymbol, N: int) -> TruncOp:
    """Section of C_S: entry (beta, alpha) is
    sqrt(beta!/alpha!) [z^beta](theta e^{<z,ell>} (Qz+q)^alpha)."""
    mat = _wc_section(S.theta, np.conj(S.ell), S.Q, S.q, N)
    mat.setflags(write=False)  # fresh, and finite: _build_section traps overflow
    return TruncOp(S.dim, N, mat)


def trunc_conjugation_matrix(J: ConjugationParams, N: int) -> AntilinearTruncOp:
    """Antilinear section of J = C_{S_J} J0: that of C_{S_J}, on conjugated coefficients."""
    require_valid(J)
    return AntilinearTruncOp(J.dim, N, trunc_symbol_matrix(symbol_of(J), N).matrix)


def kernel_coeff_vector(w, N: int) -> np.ndarray:
    """Basis coefficients of K_w up to degree N: conj(w)^alpha/sqrt(alpha!)."""
    w = as_vector(w, name="w")
    tab = _tables(w.size, N)
    return _kernel_coeffs(w, tab, len(tab.indices))


def _kernel_coeffs(w: np.ndarray, tab: _IndexTables, rows: int) -> np.ndarray:
    """The first ``rows`` entries of ``kernel_coeff_vector`` of a valid ``w``,
    computed alone, with the same bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = _monomials(np.conj(w), tab, rows) / tab.sqrt_fact[:rows]
    if not np.isfinite(v).all():
        raise ValueError("kernel coefficient vector is not finite")
    return v


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
    """Tail of the exponential series: sum_{k>N} rho^k / k!, or ``inf``
    where rho^(N+1) overflows."""
    if not rho >= 0:
        raise ValueError("rho must be non-negative")
    try:
        term = rho ** (N + 1) / math.factorial(N + 1)
    except OverflowError:
        return math.inf
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
    _check_caps(d, N)  # before the bound, which builds no table
    n_rows = math.comb(m + d, d)
    # a norm or the weight e^{sqrt(d)||ell||} that overflows makes the
    # bound inf (or nan), which the precondition refuses
    with np.errstate(over="ignore"):
        q_norm, ell_norm, w_norm = (float(np.linalg.norm(x)) for x in (S.q, S.ell, w))
    rho = (op_norm(S.Q) * math.sqrt(d) + q_norm) * w_norm
    try:
        weight = math.exp(math.sqrt(d) * ell_norm)
    except OverflowError:
        weight = math.inf
    bound = (
        math.sqrt(n_rows)
        * math.sqrt(math.factorial(m))
        * _modulus(S.theta)
        * weight
        * exp_tail(rho, N)
    )
    if not bound < tol:
        raise PreconditionError(
            f"truncation tail bound {bound:.3e} is not below tol={tol:.1e}; "
            "shrink the data or raise N"
        )
    tab = _tables(d, N)
    arrays = _WORKSPACE.arrays((n_rows, len(tab.indices)))
    block = _build_section(S.theta, np.conj(S.ell), S.Q, S.q, tab, m, *arrays)
    lhs = block @ _kernel_coeffs(w, tab, len(tab.indices))  # w is checked above
    img = act_on_kernel(S, w)
    rhs = img.coeff * _kernel_coeffs(img.point, tab, n_rows)
    return float(np.linalg.norm(lhs - rhs))
