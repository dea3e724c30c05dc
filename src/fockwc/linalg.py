"""Dense complex linear algebra used throughout the package.

Everything operates on plain ``numpy`` arrays with ``complex128`` entries.
The Hermitian pairing fixed once for the whole package is linear in the
first slot and conjugate-linear in the second,

    <u, v> = sum_k u_k * conj(v_k),

and matrix adjoints follow the same convention, ``M* = conj(M).T``.

Provided here: validated array constructors; the two ways a frozen value
stores its fields, both read-only (``freeze`` copies what a public
constructor validated, ``owned`` keeps what the library has just computed,
still rejecting a non-finite field with the public message); a
remainder-controlled matrix exponential with the companion phi-functions

    phi1(X) = sum_{n>=0} X^n / (n+1)!,   phi2(X) = sum_{n>=0} X^n / (n+2)!,

grouped eigendecompositions for Hermitian and normal matrices, and the
operator norm.  All functions are pure and never mutate their inputs.
Every scalar c e^x of the package is one ``times_exp``, the one place that
decides where the powers of two (``frexp``) of c or of its factors join x;
``ldexp`` scales back by a power of two, also one past the doubles.
Every structure residual of a matrix X comes from one table (X, X - X*,
X - X^t, X^t - X, X X* - X* X, X X* - I, X* X - I): a check names its forms
and its matrix, ``_residual_norms(Q, "Q", "X - X*")``, gets their norms
from one SVD call on their stack, without a warning, and an overflowing
residual raises ``ValueError`` naming it, as ``"Q - Q*"``.

The exponential scales its input by a power of two, cuts the Taylor series
at the degree m that the remainder bound picks from ``tol``, evaluates that
polynomial by Paterson-Stockmeyer in about 2 sqrt(m) matrix products
instead of m, and squares back.  ``expm`` and ``phi12`` also take a stack
(k, n, n), such as t Omega on a grid of times, and a single matrix is a
stack of one.  Each member keeps the scaling power of its own 1-norm;
all share one degree, the largest of the members' own, so every product is
one matmul on the stack.  ``tol`` keeps its meaning for each member: a
member whose own degree is lower only gains terms, which lowers its
remainder, and a member of the shared degree gets its single-matrix bits
(from n = 2 on, so for every augmented matrix of ``phi12`` and every
bordered matrix of a semigroup time).  A member whose 1-norm is at least
2**50 is refused: it would come back finite with no correct digit.  Exempt
is a member that, in the order (N1, D, N2), is block upper triangular with
e^(M_DD) below the least subnormal and M_N1N1, M_N2N2 strictly upper
triangular, as the bordered matrix [[0, t l*^H, 0], [0, t Omega, t q*],
[0, 0, 0]] is for a t Omega whose exponential rounds to zero.  The
semigroups read their symbols off that bordered matrix.

NumPy is the only dependency.  ``herm_eig`` decomposes H1 = (M + M*)/2.
Normal matrices are diagonalized through their commuting Hermitian parts H1
and H2 = (M - M*)/(2i): ``eigh`` of H1 + gamma H2 for one fixed irrational
gamma, each cluster of that spectrum split again by ``eigh`` of the
compressed H1 and then H2 blocks, and one first-order refinement when V* M V
is off-diagonal by more than roundoff.  Neither checks the class of M: the
one refusal is of a V* M V off-diagonal by more than 1e-10 (1 + ||M||).  The
eigenvalues are grouped in one pass over Python complex values: the
connected components of |lambda_i - lambda_j| <= 1e-8 (1 + ||M||), by mean.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotApplicableError

__all__ = ["pairing"]

# Terms of the scaled Taylor series are capped well past the point where
# the remainder bound drops below double precision for norms <= 1/2.
_EXPM_MAX_TERMS = 64
# expm refuses a member whose 1-norm is at least 2**50, where ||M||_1 u >= 1/8
# for the unit roundoff u = 2**-53: the relative condition number of e^M is
# about ||M|| (Van Loan 1977), so the rounding of M's own entries already
# leaves no correct digit there, unless e^M rounds to zero outside two
# nilpotent blocks (``_keeps_digits``)
_EXPM_MAX_NORM = 2.0 ** 50
# e^M is finite, with every product on the way to it, for a member of 1-norm
# at most this: ||e^M||_1 <= e^700 < 2**1010, and each squaring's rounding
# grows the bound by a factor of at most 1 + n u, over fewer than 4 ||M||_1
# squarings, so only a stack with a larger member is scanned for overflow
_EXPM_FINITE_NORM = 700.0
# e^x rounds to zero for x below this: half the least subnormal is e^-745.13
_EXP_UNDERFLOW = -746.0
# largest x with e^x finite in double precision
_EXP_MAX = math.log(float(np.finfo(np.float64).max))
# Paterson-Stockmeyer tables (q, C) of expm, keyed by the Taylor degree
_PS_TABLES: dict[int, tuple[int, np.ndarray]] = {}

# normal_eig: irrational weight of H2 in the first split form H1 + gamma H2
_HERM_MIX = math.sqrt(2.0) - 1.0
# normal_eig cuts an eigh spectrum at gaps above these multiples of
# 1 + ||M||: wide for the mixed form, so near-coincident values of
# Re + gamma Im are re-split by the parts instead of mixed across a small
# gap, and narrow for the parts, so a rotation inside a cluster moves an
# already-diagonal part by at most this much
_SPLIT_MIXED = 1e-6
_SPLIT_PART = 1e-11
# herm_eig and normal_eig group eigenvalues within _GROUP_TOL (1 + ||M||);
# normal_eig refines V once V* M V is off-diagonal by more than
# _REFINE_TOL (1 + ||M||), correcting the mixing of eigenvalues in
# different groups
_GROUP_TOL = 1e-8
_REFINE_TOL = 1e-14
# normal_eig accepts V* M V with this much off-diagonal mass, times 1 + ||M||
_DIAG_TOL = 1e-10


def _all_finite(arr: np.ndarray) -> bool:
    """``np.isfinite(arr).all()``, in half its time on small arrays:
    ``count_nonzero`` skips the reduction's dispatch."""
    return np.count_nonzero(np.isfinite(arr)) == arr.size


def as_scalar(z, name: str = "scalar") -> complex:
    """Coerce to a finite complex number or raise ``ValueError``, which
    names the value first."""
    try:
        z = complex(z)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a complex number, got {z!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z!r}")
    return z


def ldexp(v, k: int):
    """v 2**k, of a complex or a complex array, rounded once as ``ldexp``
    rounds it: one multiply, whose signed zeros the recorded bits keep,
    where 2**k is a finite, nonzero double, else ``ldexp`` of v's parts."""
    if -1074 <= k <= 1023:
        return v * math.ldexp(1.0, k)
    parts = np.ldexp(np.stack((np.real(v), np.imag(v)), axis=-1), k)
    return parts.view(np.complex128)[..., 0]


def frexp(z):
    """(z 2**-k, k), of a complex or a complex array, k the exponent of its
    largest part: each part is scaled by ``ldexp``, exactly down to the
    subnormal range, so the largest lies in [1/2, 1)."""
    parts = np.stack((np.real(z), np.imag(z)), axis=-1)
    k = math.frexp(float(np.abs(parts).max()))[1]
    m = np.ldexp(parts, -k).view(np.complex128)[..., 0]
    return (m if isinstance(z, np.ndarray) else complex(m)), k


def times_exp(factors: tuple, expo: complex, what: str) -> complex:
    """c e^expo for c the product of ``factors``, in Python complex
    arithmetic; ``ValueError`` naming ``what`` where it is not finite, and
    exp is never called where it would overflow.  Where the plain product
    with a nonzero c is not finite, c, or each factor where c is 0 or not
    finite, is scaled by its power of two (``frexp``), and the powers join
    expo as a multiple of log 2.  A zero factor gives 0 for every finite
    expo."""
    # in order, as written out: start=1 could flip the sign of a zero part
    c = math.prod(factors[1:], start=factors[0])
    if c and cmath.isfinite(expo) and expo.real <= _EXP_MAX:
        value = c * complex(np.exp(expo))
        if cmath.isfinite(value):
            return value
    if c and cmath.isfinite(c):
        factors = (c,)
    mantissas, powers = zip(*map(frexp, factors))
    c, k = frexp(math.prod(mantissas[1:], start=mantissas[0]))
    shifted = expo + (sum(powers) + k) * math.log(2.0)
    if cmath.isfinite(shifted) and shifted.real <= _EXP_MAX:
        value = c * complex(np.exp(shifted))
        if cmath.isfinite(value):
            return value
    if c == 0 and cmath.isfinite(expo):  # a zero factor: 0 e^x is 0, also past 709
        return c
    raise ValueError(f"{what} is not finite: exponent {expo:.6g}")


def _as_complex_array(a, name: str) -> np.ndarray:
    """``a`` as a complex array, or ``ValueError`` naming it where an entry
    is not a number."""
    try:
        return np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an array of complex numbers") from None


def as_vector(v, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a finite complex 1-d array, optionally of length ``dim``."""
    arr = _as_complex_array(v, name)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d array")
    if dim is not None and arr.size != dim:
        raise ValueError(f"{name} has length {arr.size}, expected {dim}")
    if not _all_finite(arr):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(M, dim: int | None = None, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite square complex matrix, optionally of size ``dim``."""
    arr = _as_complex_array(M, name)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty square matrix")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} has size {arr.shape[0]}, expected {dim}")
    if not _all_finite(arr):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def freeze(instance, **fields) -> None:
    """Store validated fields on a frozen dataclass, each array as a
    read-only copy with the same memory layout: the caller's array stays
    writable, and no later write to it or to its base reaches the value."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = value.copy(order="K")
            value.setflags(write=False)
        object.__setattr__(instance, name, value)


def owned(cls, **fields):
    """A frozen ``cls`` of fields the library has just computed from
    validated values, so already of the right type, shape and layout:
    unlike the public constructor, no coercion, no shape check and no copy
    of an array that owns its data.  In keyword order, a number becomes a
    Python complex by ``as_scalar`` and an array must be finite, each
    failing with the public message (``cls._NONFINITE`` names an array
    whose message differs).  Each array is made read-only, and a view is
    copied once, so no writable array or base reaches the value.  Other
    fields, such as a dimension, are stored as given."""
    for name, field in fields.items():
        if isinstance(field, np.ndarray):
            if not _all_finite(field):
                message = getattr(cls, "_NONFINITE", {}).get(name)
                raise ValueError(message or f"{name} contains non-finite entries")
            if field.base is not None:
                fields[name] = field = field.copy(order="K")
            field.setflags(write=False)
        elif isinstance(field, (complex, float)):
            fields[name] = as_scalar(field, name)
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def fields_equal(self, other) -> bool:
    """``__eq__`` of the frozen value types: same type and every dataclass
    field equal, arrays by ``np.array_equal``; what ``derived`` caches
    takes no part."""
    if type(self) is not type(other):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in dataclasses.fields(self))
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


def derived(instance, key: str, compute):
    """``compute(instance)`` for a frozen value, computed on first use and
    kept in its ``__dict__`` under ``key``, outside the dataclass fields,
    for the life of the instance.  Threads that race on first use each
    compute the same value, and one of them is kept."""
    try:
        return instance.__dict__[key]
    except KeyError:
        value = instance.__dict__[key] = compute(instance)
        return value


def pairing(u, v) -> complex:
    """Hermitian pairing <u, v> = sum_k u_k conj(v_k) (linear in ``u``).

    Raises ``ValueError`` when the sum is not finite."""
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if u.shape != v.shape:
        raise ValueError("pairing requires vectors of equal length")
    # vdot conjugates its first argument; unlike dot, it sets no overflow
    # warning, and it sums in the same order, to the same bits
    r = complex(np.vdot(v, u))
    if not cmath.isfinite(r):
        raise ValueError("pairing <u, v> is not finite")
    return r


def adj(M: np.ndarray) -> np.ndarray:
    """Matrix adjoint M* = conj(M).T, of each member of a stack (k, n, n)."""
    return np.conj(np.asarray(M)).swapaxes(-1, -2)


def op_norm(M) -> float:
    """Operator (spectral) norm: the largest singular value."""
    # what np.linalg.norm(M, 2) computes, without its dispatch overhead
    return float(np.linalg.svd(as_matrix(M), compute_uv=False)[0])


def _op_norms(named: dict) -> list[float]:
    """``op_norm`` of each of several square matrices of one size, keyed by
    the name of the quantity, from one SVD call on their stack.  Each
    matrix goes through the same LAPACK routine as alone, so every norm has
    the same bits as its ``op_norm``.  ``ValueError`` names the first
    matrix with a non-finite entry, which callers leave where a product
    overflowed."""
    stack = np.array(list(named.values()), dtype=np.complex128)
    if not np.isfinite(stack).all():
        name = next(k for k, M in zip(named, stack) if not np.isfinite(M).all())
        raise ValueError(f"{name} contains non-finite entries")
    return np.linalg.svd(stack, compute_uv=False)[:, 0].tolist()


# the structural residuals of a square matrix X, by the name of their form
_RESIDUAL_FORMS = {
    "X": lambda X: X,
    "X - X*": lambda X: X - adj(X),
    "X - X^t": lambda X: X - X.T,
    # both have a +0 diagonal, so neither is the other negated: SVDs differ
    "X^t - X": lambda X: X.T - X,
    "X X* - X* X": lambda X: X @ adj(X) - adj(X) @ X,
    "X X* - I": lambda X: X @ adj(X) - np.eye(X.shape[0]),
    "X* X - I": lambda X: adj(X) @ X - np.eye(X.shape[0]),
}


def _residual_norms(M, name: str, *forms: str) -> list[float]:
    """``_op_norms`` of the ``forms`` of square ``M``, in order, formed without
    a warning and named with ``name`` for X, as ``"A A* - I"``."""
    with np.errstate(over="ignore", invalid="ignore"):
        named = {form.replace("X", name): _RESIDUAL_FORMS[form](M) for form in forms}
    return _op_norms(named)


def _scaling_power(nrm: float) -> int:
    """Least s >= 0 with nrm / 2**s <= 1/2, exact and overflow-free."""
    if nrm <= 0.5:
        return 0
    m, e = math.frexp(nrm)  # nrm = m 2**e with 1/2 <= m < 1
    return e if m == 0.5 else e + 1


def _taylor_degree(x: float, tol: float) -> int:
    """Least degree m with 2 x^(m+1) / (m+1)! <= tol, capped at
    ``_EXPM_MAX_TERMS``: the Taylor remainder after the terms through X^m,
    for ||X|| <= x <= 1/2, with the geometric tail folded into the 2."""
    bound = 1.0
    for m in range(1, _EXPM_MAX_TERMS + 1):
        bound = bound * x / m  # x^m / m!
        if 2.0 * bound * x / (m + 1) <= tol:
            return m
    return _EXPM_MAX_TERMS


def _ps_table(m: int) -> tuple[int, np.ndarray]:
    """Paterson-Stockmeyer split of sum_{k<=m} X^k/k! with q = floor(sqrt m):
    row j of C holds block j = sum_i C_ji X^i, i <= q, with C_ji = 1/(jq+i)!
    for i < q, and up to i = q in the top block, which ends at degree m.
    Cached per degree."""
    table = _PS_TABLES.get(m)
    if table is None:
        q = math.isqrt(m)
        r = -(-m // q)  # blocks
        C = np.zeros((r, q + 1), dtype=np.complex128)
        for j in range(r):
            top = m - j * q if j == r - 1 else q - 1  # the top block ends at m
            for i in range(top + 1):
                C[j, i] = 1.0 / math.factorial(j * q + i)
        C.flags.writeable = False
        table = _PS_TABLES[m] = (q, C)
    return table


def _as_stack(M) -> tuple[np.ndarray, bool]:
    """``M`` as a complex stack (k, n, n), k >= 1, and whether it was one: a
    square matrix (``as_matrix``) is a stack of one.  A stack's entries are
    not scanned here: ``expm`` finds a non-finite one from the members'
    1-norms, and names it with ``as_matrix``'s message."""
    arr = _as_complex_array(M, "matrix")
    if arr.ndim != 3:
        return as_matrix(arr)[None], False
    k, n, m = arr.shape
    if not (k and n == m and n):
        raise ValueError("matrix stack must hold non-empty square matrices")
    return arr, True


def _keeps_digits(M: np.ndarray) -> bool:
    """Whether e^M keeps its digits whatever its norm: in the order
    (N1, D, N2), M is block upper triangular with e^(M_DD) below the least
    subnormal and M_N1N1, M_N2N2 strictly upper triangular, so that their
    exponentials are polynomials in them.  N1 holds the other rows with an
    entry in the columns D, N2 the rest, each in index order; so M without
    its block M_DD is strictly upper triangular in that order.  The rows D
    bound e^(M_DD) by the logarithmic norm,
    ||e^(M_DD)||_inf <= e^mu, mu = max_i (Re m_ii + sum_{j != i} |m_ij|),
    with 2**-40 ||M||_inf to spare for rounding.  The bordered matrix of a
    semigroup time, and the augmented matrix of ``phi12``, for a t Omega
    whose exponential rounds to zero are such matrices."""
    size = np.abs(M)
    rows = size.sum(axis=1)
    mu = M.diagonal().real + rows - size.diagonal()
    decayed = mu + 2.0 ** -40 * float(rows.max()) <= _EXP_UNDERFLOW
    first = ~decayed & M[:, decayed].any(axis=1)
    order = np.concatenate([first.nonzero()[0], decayed.nonzero()[0],
                            (~decayed & ~first).nonzero()[0]])
    P = M[np.ix_(order, order)]
    lo = np.count_nonzero(first)
    hi = lo + np.count_nonzero(decayed)
    P[lo:hi, lo:hi] = 0.0
    return not np.tril(P).any()


class _DigitsLost(ValueError):
    """``expm``'s refusal of the stack member at index ``member``, whose
    1-norm leaves its exponential no correct digit."""

    def __init__(self, nrm: float, member: int):
        super().__init__(
            f"matrix 1-norm {nrm:.3e} is at least 2**50: its exponential has no correct digits"
        )
        self.member = member


# overflow surfaces as one of the two ValueErrors, never as a warning; the
# decorator form of errstate enters in half the time of the context manager
@np.errstate(over="ignore", invalid="ignore")
def expm(M, tol: float = 1e-14) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a truncated series, of
    a square matrix or of each member of a stack (k, n, n).

    The input is scaled by a power of two until its 1-norm is at most 1/2,
    and the Taylor series is cut at the least degree m whose analytic
    remainder bound

        ||X||^(m+1) / (m+1)! * 1/(1 - ||X||)

    is below ``tol``.  That polynomial is evaluated by Paterson-Stockmeyer:
    with q = floor(sqrt(m)), the powers X^2 ... X^q (q - 1 products) give
    every block of q consecutive terms at once, and Horner's rule in X^q
    joins the ceil(m/q) blocks (ceil(m/q) - 1 more products), about 2 sqrt(m)
    products instead of m.  The result is then repeatedly squared.  The
    truncation level is what ``tol`` controls; it cannot go below double
    precision (~1e-16), where the series is summed to machine accuracy.

    A stack is one computation: each member takes the scaling power of its
    own 1-norm, and all share the largest of their own degrees.  A member
    whose own degree is lower only gains terms, so its remainder stays
    below ``tol``, and one whose degree is the shared one gets the bits it
    gets alone (from n = 2 on: alone, a 1 x 1 matrix takes BLAS's
    matrix-vector product for its blocks).  Every product is one matmul on
    the stack; squaring runs on the members, in descending order of scaling
    power, that still need it.  A matrix is a stack of one.  Overflow of the
    1-norm of a member or of a result raises ``ValueError`` (a result is
    scanned only where a member's 1-norm exceeds 700: below, e^M is finite
    by its norm bound), and so does a member of 1-norm at least 2**50,
    naming it: the rounding of that member's entries alone leaves its
    exponential no correct digit, unless its non-negligible part is a
    polynomial in two nilpotent blocks (``_keeps_digits``), as for a
    t Omega whose exponential rounds to zero.
    """
    stack, stacked = _as_stack(M)
    k, n = stack.shape[:2]
    # each member's 1-norm, the reduction np.linalg.norm(M, 1) computes,
    # without its dispatch: all are finite iff every entry is and no sum
    # overflows, so only a failing stack is scanned for its entries
    norms = np.maximum.reduce(np.add.reduce(np.abs(stack), axis=1), axis=1).tolist()
    if not all(nrm < _EXPM_MAX_NORM for nrm in norms) and not _all_finite(stack):
        raise ValueError("matrix contains non-finite entries")
    if not tol > 0:
        raise ValueError("tol must be positive")
    # each member's s; x is the largest scaled norm
    s, x = [], 0.0
    for i, nrm in enumerate(norms):
        if not nrm < _EXPM_MAX_NORM:
            if not math.isfinite(nrm):
                raise ValueError("matrix 1-norm is not finite")
            if not _keeps_digits(stack[i]):
                raise _DigitsLost(nrm, i)
        s.append(_scaling_power(nrm))
        # 2**-s stays representable where 2**s overflows (s > 1023)
        x = max(x, nrm * 2.0 ** -s[-1])
    # the degree grows with the norm: x gives the largest member degree
    q, C = _ps_table(_taylor_degree(min(x, 0.5), tol))
    powers = np.zeros((q + 1, k, n, n), dtype=np.complex128)  # I, X ... X^q
    powers.reshape(q + 1, k, -1)[0, :, :: n + 1] = 1.0
    # X holds the members in descending order of s, so that the members
    # still squaring are always a prefix; one s scales them all at once
    shared = min(s) == max(s)
    order = range(k) if shared else sorted(range(k), key=s.__getitem__, reverse=True)
    X = powers[1]
    if shared:
        np.multiply(stack, 2.0 ** -s[0], X)
    else:
        for j, i in enumerate(order):
            np.multiply(stack[i], 2.0 ** -s[i], X[j])
    for i in range(2, q + 1):
        np.matmul(powers[i - 1], X, out=powers[i])
    # every block at once, then Horner's rule in X^q
    blocks = (C @ powers.reshape(q + 1, -1)).reshape(-1, k, n, n)
    acc = blocks[-1]
    for j in range(blocks.shape[0] - 2, -1, -1):
        acc = acc @ powers[q]
        acc += blocks[j]
    if shared:  # the whole stack squares s times, and is the result
        for _ in range(s[0]):
            acc = acc @ acc
        out = acc
    else:
        # square the prefix up to the next member's s, then set that
        # member aside
        out = np.empty_like(stack)
        done = 0
        for j in range(k - 1, -1, -1):
            for _ in range(s[order[j]] - done):
                acc = acc @ acc
            done = s[order[j]]
            out[order[j]] = acc[j]
            acc = acc[:j]
    if max(norms) > _EXPM_FINITE_NORM and not _all_finite(out):
        raise ValueError("matrix exponential is not finite")
    return out if stacked else out[0]


def phi12(M, tol: float = 1e-14) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(expm(M), phi1(M), phi2(M)) from one augmented exponential, of a
    square matrix or of each member of a stack (k, n, n), where

        phi1(M) = sum_n M^n/(n+1)!,   phi2(M) = sum_n M^n/(n+2)!,

    so that M phi1(M) = expm(M) - I and phi1(M) = I + M phi2(M).

    exp of the block matrix [[M, I, 0], [0, 0, I], [0, 0, 0]] carries the
    three in its first block row, which avoids any inverse of ``M`` and
    therefore works for singular input.  A stack's augmented matrices go
    through ``expm`` as one stack, with its shared degree and each member's
    own scaling power.  The three are read-only views of that one
    exponential: ``owned`` copies what a value keeps.
    """
    stack, stacked = _as_stack(M)
    k, d = stack.shape[:2]
    n = 3 * d
    W = np.zeros((k, n, n), dtype=np.complex128)
    W[:, :d, :d] = stack
    # the two identity blocks are the entries (i, i + d), i < 2d: every
    # (n+1)-th entry of a member's flat array from d on, the last at 2dn - 1
    W.reshape(k, -1)[:, d : 2 * d * n : n + 1] = 1.0
    E = expm(W, tol)
    E = E if stacked else E[0]
    E.setflags(write=False)
    return E[..., :d, :d], E[..., :d, d:2 * d], E[..., :d, 2 * d:]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Unitary diagonalization with eigenvalues clustered into groups.

    ``unitary`` holds eigenvectors as columns, ``eigenvalues`` is aligned
    with the columns, and ``groups`` partitions the column indices into
    contiguous runs of (numerically) equal eigenvalues.
    """

    unitary: np.ndarray
    eigenvalues: np.ndarray
    groups: tuple[tuple[int, ...], ...]

    __eq__ = fields_equal

    def group_eigenvalue(self, j: int) -> complex:
        """Representative (mean) eigenvalue of group ``j``."""
        return complex(np.mean(self.eigenvalues[list(self.groups[j])]))


def _default_group_tol(nrm: float) -> float:
    return _GROUP_TOL * (1.0 + nrm)


def herm_eig(M) -> SpectralDecomposition:
    """Eigendecomposition of the Hermitian part (M + M*)/2, M itself for a
    Hermitian M, with eigenvalues real, sorted ascending, and clustered
    whenever consecutive gaps are at most ``1e-8*(1+||M||)``, where ||M|| is
    the largest |eigenvalue|.  Whether M is Hermitian is the caller's check;
    ``ValueError`` where an eigenvalue is not finite.
    """
    M = as_matrix(M)
    # halves first: M + M* overflows where M's entries are near the limit
    w, V = np.linalg.eigh(0.5 * M + 0.5 * adj(M))
    if not _all_finite(w):
        raise ValueError("eigenvalues of (M + M*)/2 are not finite")
    cuts = _cuts(w, _default_group_tol(max(-w[0], w[-1])))
    groups = tuple(tuple(range(lo, hi)) for lo, hi in zip(cuts, cuts[1:]))
    return owned(SpectralDecomposition, unitary=V, eigenvalues=w.astype(np.complex128),
                 groups=groups)


def _eigenvalue_groups(eigs: np.ndarray, gtol: float) -> tuple[list[int], tuple]:
    """Column order and contiguous groups of ``normal_eig``: the connected
    components of |lambda_i - lambda_j| <= gtol (robust against the
    lexicographic-sort pitfall for values equal up to roundoff), each
    labelled by its smallest index, members in index order, sorted by
    (mean Re, mean Im) with ties smallest index first."""
    vals = eigs.tolist()
    label = list(range(len(vals)))
    for i, a in enumerate(vals):
        for j in range(i + 1, len(vals)):
            if label[j] != label[i] and abs(a - vals[j]) <= gtol:
                keep, drop = sorted((label[i], label[j]))
                label = [keep if x == drop else x for x in label]
    members: dict[int, list[int]] = {}
    for i, x in enumerate(label):
        members.setdefault(x, []).append(i)

    def mean_key(idx: list[int]) -> tuple[float, float]:
        if len(idx) == 1:  # exact; np.mean of one value is the value
            return vals[idx[0]].real, vals[idx[0]].imag
        # not sum(): from three terms on it rounds differently
        return float(np.mean(eigs[idx].real)), float(np.mean(eigs[idx].imag))

    perm: list[int] = []
    groups = []
    for cluster in sorted(members.values(), key=mean_key):
        groups.append(tuple(range(len(perm), len(perm) + len(cluster))))
        perm += cluster
    return perm, tuple(groups)


def _cuts(w: np.ndarray, gap: float) -> list[int]:
    """Bounds 0, ..., len(w) of the maximal runs of ascending ``w`` whose
    steps are at most ``gap``; any other step cuts.  Halves are compared,
    so no step overflows; halving is exact outside the subnormal range."""
    steps = 0.5 * w[1:] - 0.5 * w[:-1]
    return [0, *((~(steps <= 0.5 * gap)).nonzero()[0] + 1).tolist(), w.size]


def _runs(w: np.ndarray, gap: float) -> list[tuple[int, int]]:
    """Index ranges [lo, hi) of the runs of two or more values in ``_cuts``."""
    cuts = _cuts(w, gap)
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 1]


def _split_diagonal(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal of ``D``, and ``D`` itself with its diagonal zeroed."""
    eigs = D.diagonal().copy()
    D.flat[:: D.shape[0] + 1] = 0.0
    return eigs, D


def _refine(V: np.ndarray, eigs: np.ndarray, E: np.ndarray, gap: float) -> np.ndarray:
    """One first-order correction V (I + X) of unitary V, where V* M V has
    diagonal ``eigs`` and off-diagonal part ``E``, re-orthonormalized by QR.

    X_ij = E_ij / (eigs_j - eigs_i) cancels E to first order; pairs closer
    than ``gap`` keep X_ij = 0.  ``eigh`` mixes eigenvectors across a gap g
    of its form by an angle of order eps ||M|| / g, which leaves entries of
    order eps ||M|| |lambda_i - lambda_j| / g when the form's gap
    understates the eigenvalue distance; this step brings them back to the
    order of eps ||M||.
    """
    delta = eigs[None, :] - eigs[:, None]
    far = np.abs(delta) > gap
    X = np.zeros_like(E)
    X[far] = E[far] / delta[far]
    return np.linalg.qr(V + V @ X)[0]


# near the overflow limit a non-finite V* M V raises by name, never a warning
@np.errstate(over="ignore", invalid="ignore")
def normal_eig(M) -> SpectralDecomposition:
    """Unitary diagonalization of a normal matrix, complex eigenvalues.

    The Hermitian parts H1 = (M + M*)/2 and H2 = (M - M*)/(2i) of a normal
    matrix commute, so one unitary V diagonalizes both, and M = H1 + i H2.
    V comes from ``eigh`` of H1 + gamma H2 for a fixed irrational gamma;
    each cluster of that spectrum, where distinct eigenvalues may share
    Re + gamma Im, is split again by ``eigh`` of the compressed H1 block,
    and each cluster of that by ``eigh`` of the compressed H2 block.  When
    V* M V is off-diagonal by more than roundoff, one first-order step
    (``_refine``) corrects the mixing.  The eigenvalues are the diagonal of
    V* M V, and ``NotApplicableError`` (a ``PreconditionError``), its only
    refusal, is raised if its off-diagonal part (Frobenius norm) exceeds
    ``1e-10*(1+||M||)``.  Columns are permuted so that eigenvalue groups
    occupy contiguous index ranges: one pairwise pass labels the connected
    components of |lambda_i - lambda_j| <= ``1e-8*(1+||M||)`` (chains
    included), which are ordered by the real then imaginary part of the
    group mean, ties smallest index first; members keep index order.
    """
    M = as_matrix(M)
    nrm = _residual_norms(M, "M", "X")[0]
    scale, gtol = 1.0 + nrm, _default_group_tol(nrm)
    # H1 + gamma H2 = ((1 - i gamma) M + (1 + i gamma) M*) / 2
    w, V = np.linalg.eigh(0.5 * ((1.0 - 1j * _HERM_MIX) * M + (1.0 + 1j * _HERM_MIX) * adj(M)))
    D = adj(V) @ M @ V
    for lo, hi in _runs(w, _SPLIT_MIXED * scale):
        C = D[lo:hi, lo:hi]  # compressed H1 and H2 are its Hermitian parts
        if np.linalg.norm(C - C[0, 0] * np.eye(hi - lo)) <= _SPLIT_PART * scale:
            continue  # one repeated eigenvalue: V already diagonalizes M here
        w1, U = np.linalg.eigh(0.5 * (C + adj(C)))
        for a, b in _runs(w1, _SPLIT_PART * scale):
            U2 = U[:, a:b]
            U[:, a:b] = U2 @ np.linalg.eigh(adj(U2) @ (-0.5j * (C - adj(C))) @ U2)[1]
        V[:, lo:hi] = V[:, lo:hi] @ U
        D[lo:hi] = adj(U) @ D[lo:hi]
        D[:, lo:hi] = D[:, lo:hi] @ U
    eigs, E = _split_diagonal(D)
    off = np.linalg.norm(E)
    if off > _REFINE_TOL * scale:
        V = _refine(V, eigs, E, gtol)
        eigs, E = _split_diagonal(adj(V) @ M @ V)
        off = np.linalg.norm(E)
    if not (_all_finite(eigs) and math.isfinite(off)):
        raise ValueError("V* M V or its off-diagonal norm is not finite")
    if off > _DIAG_TOL * scale:
        raise NotApplicableError(
            f"normal_eig: V* M V is off-diagonal by {off:.3e}; no unitary diagonalization found"
        )
    perm, groups = _eigenvalue_groups(eigs, gtol)
    return owned(SpectralDecomposition, unitary=V[:, perm], eigenvalues=eigs[perm], groups=groups)


# default tolerance of every verdict: the classifiers, conjugation validity
# and its finders, the semigroup laws and conditions, and the command line
DEFAULT_TOL = 1e-9


def residuals_within(residuals: dict, tol: float) -> bool:
    """True iff every residual is at most ``tol``; a NaN residual fails
    (``max`` would silently drop it)."""
    return all(r <= tol for r in residuals.values())
