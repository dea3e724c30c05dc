"""Dense complex linear algebra used throughout the package.

Everything operates on plain ``numpy`` arrays with ``complex128`` entries.
The Hermitian pairing fixed once for the whole package is linear in the
first slot and conjugate-linear in the second,

    <u, v> = sum_k u_k * conj(v_k),

and matrix adjoints follow the same convention, ``M* = conj(M).T``.

Provided here: validated array constructors, a remainder-controlled matrix
exponential with the companion phi-functions

    phi1(X) = sum_{n>=0} X^n / (n+1)!,   phi2(X) = sum_{n>=0} X^n / (n+2)!,

grouped eigendecompositions for Hermitian and normal matrices, the operator
norm, and tolerance-aware structure predicates.  All functions are pure and
never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import PreconditionError

__all__ = [
    "as_scalar",
    "as_vector",
    "as_matrix",
    "freeze",
    "pairing",
    "adj",
    "op_norm",
    "expm",
    "expm_phi12",
    "phi1",
    "phi2",
    "phi12",
    "SpectralDecomposition",
    "herm_eig",
    "normal_eig",
    "is_unitary",
    "is_symmetric",
    "is_hermitian",
    "is_normal",
    "residuals_within",
]

# Terms of the scaled Taylor series are capped well past the point where
# the remainder bound drops below double precision for norms <= 1/2.
_EXPM_MAX_TERMS = 64


def as_scalar(z, name: str = "scalar") -> complex:
    """Coerce to a finite complex number or raise ``ValueError``."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z!r}")
    return z


def as_vector(v, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a finite complex 1-d array, optionally of length ``dim``."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d array")
    if dim is not None and arr.size != dim:
        raise ValueError(f"{name} has length {arr.size}, expected {dim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(M, dim: int | None = None, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite square complex matrix, optionally of size ``dim``."""
    arr = np.asarray(M, dtype=np.complex128)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty square matrix")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} has size {arr.shape[0]}, expected {dim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def freeze(instance, **fields) -> None:
    """Store validated fields on a frozen dataclass, with arrays read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(instance, name, value)


def pairing(u, v) -> complex:
    """Hermitian pairing <u, v> = sum_k u_k conj(v_k) (linear in ``u``)."""
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if u.shape != v.shape:
        raise ValueError("pairing requires vectors of equal length")
    return complex(np.dot(u, np.conj(v)))


def adj(M: np.ndarray) -> np.ndarray:
    """Matrix adjoint M* = conj(M).T."""
    return np.conj(np.asarray(M)).T


def op_norm(M) -> float:
    """Operator (spectral) norm: the largest singular value."""
    return float(np.linalg.norm(as_matrix(M), 2))


def _scaling_power(nrm: float) -> int:
    if nrm <= 0.5:
        return 0
    return max(0, int(math.ceil(math.log2(nrm / 0.5))))


def expm(M, tol: float = 1e-14) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a truncated series.

    The input is scaled by a power of two until its 1-norm is at most 1/2,
    the Taylor series is summed until the analytic remainder bound

        ||X||^(k+1) / (k+1)! * 1/(1 - ||X||)

    falls below ``tol``, and the result is repeatedly squared.  The
    truncation level is what ``tol`` controls; it cannot go below double
    precision (~1e-16), where the series is summed to machine accuracy.
    Overflow of the 1-norm of the input or of the result raises ``ValueError``.
    """
    M = as_matrix(M)
    if not tol > 0:
        raise ValueError("tol must be positive")
    d = M.shape[0]
    # overflow surfaces as one of the two ValueErrors, never as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = float(np.linalg.norm(M, 1))
        if not math.isfinite(nrm):
            raise ValueError("matrix 1-norm is not finite")
        s = _scaling_power(nrm)
        X = M / (2.0 ** s)
        x = min(nrm / (2.0 ** s), 0.5)

        eye = np.eye(d, dtype=np.complex128)
        acc = eye.copy()
        term = eye.copy()
        bound = 1.0
        for k in range(1, _EXPM_MAX_TERMS + 1):
            term = term @ X / k
            acc += term
            bound = bound * x / k
            # remainder after k terms, geometric tail folded into factor 2
            if 2.0 * bound * x / (k + 1) <= tol or not term.any():
                break
        for _ in range(s):
            acc = acc @ acc
    if not np.isfinite(acc).all():
        raise ValueError("matrix exponential is not finite")
    return acc


def expm_phi12(M, tol: float = 1e-14) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """expm(M), phi1(M) and phi2(M) from one augmented exponential.

    exp of the block matrix [[M, I, 0], [0, 0, I], [0, 0, 0]] carries
    expm(M), phi1(M) and phi2(M) in its first block row, which avoids any
    inverse of ``M`` and therefore works for singular input.
    """
    M = as_matrix(M)
    d = M.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    zero = np.zeros((d, d), dtype=np.complex128)
    W = np.block([[M, eye, zero], [zero, zero, eye], [zero, zero, zero]])
    E = expm(W, tol)
    return E[:d, :d].copy(), E[:d, d:2 * d].copy(), E[:d, 2 * d:].copy()


def phi12(M, tol: float = 1e-14) -> tuple[np.ndarray, np.ndarray]:
    """Both phi-functions at once, from one augmented exponential."""
    return expm_phi12(M, tol)[1:]


def phi1(M, tol: float = 1e-14) -> np.ndarray:
    """phi1(M) = sum_n M^n/(n+1)!; satisfies M phi1(M) = expm(M) - I."""
    return phi12(M, tol)[0]


def phi2(M, tol: float = 1e-14) -> np.ndarray:
    """phi2(M) = sum_n M^n/(n+2)!; satisfies phi1(M) = I + M phi2(M)."""
    return phi12(M, tol)[1]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Unitary diagonalization with eigenvalues clustered into groups.

    ``unitary`` holds eigenvectors as columns, ``eigenvalues`` is aligned
    with the columns, and ``groups`` partitions the column indices into
    contiguous runs of (numerically) equal eigenvalues.
    """

    unitary: np.ndarray
    eigenvalues: np.ndarray
    groups: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]

    def group_eigenvalue(self, j: int) -> complex:
        """Representative (mean) eigenvalue of group ``j``."""
        return complex(np.mean(self.eigenvalues[list(self.groups[j])]))


def _default_group_tol(nrm: float) -> float:
    return 1e-8 * (1.0 + nrm)


def herm_eig(M, group_tol: float | None = None) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with eigenvalue grouping.

    Eigenvalues come out real, sorted ascending, and clustered whenever
    consecutive gaps are at most ``group_tol`` (default ``1e-8*(1+||M||)``).
    Raises ``PreconditionError`` if the input is not Hermitian to within
    ``1e-12*(1+||M||)``.
    """
    M = as_matrix(M)
    nrm = op_norm(M)
    if op_norm(M - adj(M)) > 1e-12 * (1.0 + nrm):
        raise PreconditionError("herm_eig requires a Hermitian matrix")
    w, V = np.linalg.eigh(0.5 * (M + adj(M)))
    gtol = _default_group_tol(nrm) if group_tol is None else float(group_tol)
    groups: list[tuple[int, ...]] = []
    current = [0]
    for i in range(1, w.size):
        if w[i] - w[i - 1] <= gtol:
            current.append(i)
        else:
            groups.append(tuple(current))
            current = [i]
    groups.append(tuple(current))
    return SpectralDecomposition(V, w.astype(np.complex128), tuple(groups))


def _cluster_complex(eigs: np.ndarray, gtol: float) -> list[list[int]]:
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


def normal_eig(M, group_tol: float | None = None) -> SpectralDecomposition:
    """Unitary diagonalization of a normal matrix, complex eigenvalues.

    Uses the complex Schur form, whose triangular factor is diagonal for
    normal input.  Columns are permuted so that eigenvalue groups (clusters
    at distance ``group_tol``) occupy contiguous index ranges, ordered by
    the real then imaginary part of the group mean.  Raises
    ``PreconditionError`` when ``||MM* - M*M|| > 1e-10 ||M||^2``.
    """
    M = as_matrix(M)
    nrm = op_norm(M)
    if op_norm(M @ adj(M) - adj(M) @ M) > 1e-10 * nrm * nrm + 1e-300:
        raise PreconditionError("normal_eig requires a normal matrix")
    T, Z = scipy.linalg.schur(M, output="complex")
    eigs = np.diag(T).copy()
    gtol = _default_group_tol(nrm) if group_tol is None else float(group_tol)
    clusters = _cluster_complex(eigs, gtol)
    perm = [i for cluster in clusters for i in cluster]
    groups: list[tuple[int, ...]] = []
    start = 0
    for cluster in clusters:
        groups.append(tuple(range(start, start + len(cluster))))
        start += len(cluster)
    return SpectralDecomposition(Z[:, perm], eigs[perm], tuple(groups))


def is_unitary(M, tol: float = 1e-10) -> tuple[bool, float]:
    """Unitarity predicate; returns (verdict, defect ||MM* - I||)."""
    M = as_matrix(M)
    eye = np.eye(M.shape[0])
    defect = max(op_norm(M @ adj(M) - eye), op_norm(adj(M) @ M - eye))
    return defect <= tol, defect


def is_symmetric(M, tol: float = 1e-10) -> tuple[bool, float]:
    """Complex-symmetry predicate; defect is ||M - M^t|| / (1 + ||M||)."""
    M = as_matrix(M)
    defect = op_norm(M - M.T) / (1.0 + op_norm(M))
    return defect <= tol, defect


def is_hermitian(M, tol: float = 1e-10) -> tuple[bool, float]:
    """Hermitian predicate; defect is ||M - M*|| / (1 + ||M||)."""
    M = as_matrix(M)
    defect = op_norm(M - adj(M)) / (1.0 + op_norm(M))
    return defect <= tol, defect


def is_normal(M, tol: float = 1e-10) -> tuple[bool, float]:
    """Normality predicate; defect is ||MM* - M*M|| / (1 + ||M||^2)."""
    M = as_matrix(M)
    defect = op_norm(M @ adj(M) - adj(M) @ M) / (1.0 + op_norm(M) ** 2)
    return defect <= tol, defect


def residuals_within(residuals: dict, tol: float) -> bool:
    """True iff every residual is at most ``tol``; a NaN residual fails
    (``max`` would silently drop it)."""
    return all(r <= tol for r in residuals.values())
