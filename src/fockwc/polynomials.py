"""Multi-index utilities and multivariate polynomials over C^d.

Multi-indices are tuples of non-negative integers.  The canonical basis
order everywhere in the package is graded lexicographic: ascending total
degree, lexicographic within each degree.  ``MPoly`` stores finitely many
monomial coefficients and supports the arithmetic the generator module
needs (sum, product, partial derivatives), whose results ``MPoly._owned``
builds without re-checking their multi-indices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from operator import sub

import numpy as np

from . import jsonio
from .linalg import as_scalar, as_vector, owned

__all__ = ["MPoly"]


def monomials_of_degree(d: int, k: int):
    """Multi-indices of length ``d`` summing to ``k``, lex ascending: the
    steps of their partial sums alpha_0 + ... + alpha_i, i < d - 1, which
    ``combinations_with_replacement`` yields as tuples in [0, k], in lex order."""
    return (tuple(map(sub, (*s, k), (0, *s)))
            for s in combinations_with_replacement(range(k + 1), d - 1))


def multi_indices(d: int, max_degree: int) -> list[tuple[int, ...]]:
    """All multi-indices with |alpha| <= max_degree in graded-lex order."""
    if d < 1 or max_degree < 0:
        raise ValueError("need d >= 1 and max_degree >= 0")
    out: list[tuple[int, ...]] = []
    for k in range(max_degree + 1):
        out.extend(monomials_of_degree(d, k))
    return out


def mi_factorial(alpha: tuple[int, ...]) -> float:
    """Multi-index factorial alpha! as a float (fine for |alpha| <= 24)."""
    out = 1.0
    for a in alpha:
        out *= math.factorial(a)
    return out


@dataclass(frozen=True)
class MPoly:
    """Multivariate polynomial: map from multi-indices to coefficients.

    Zero coefficients are dropped on construction; instances are treated
    as immutable values.
    """

    dim: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        clean: dict[tuple[int, ...], complex] = {}
        for alpha, c in self.coeffs.items():
            try:
                alpha = tuple(int(a) for a in alpha)
            except (TypeError, ValueError):
                raise ValueError(f"bad multi-index {alpha!r}") from None
            if len(alpha) != self.dim or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {alpha!r}")
            c = as_scalar(c, "coefficient")
            if c != 0:
                clean[alpha] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _owned(cls, dim: int, coeffs: dict) -> "MPoly":
        """The polynomial of coefficients the library has just computed,
        keyed by valid multi-indices, each a Python complex so that products
        keep their bits.  As in ``__post_init__``, zeros are dropped and the
        first non-finite coefficient raises ``as_scalar``'s message."""
        clean = {alpha: c for alpha, c in coeffs.items() if c != 0}
        for c in clean.values():
            if not cmath.isfinite(c):
                as_scalar(c, "coefficient")
        return owned(cls, dim=dim, coeffs=clean)

    @classmethod
    def zero(cls, d: int) -> "MPoly":
        return cls(d, {})

    @classmethod
    def constant(cls, d: int, c) -> "MPoly":
        return cls(d, {(0,) * d: c})

    @classmethod
    def monomial(cls, d: int, alpha, c=1.0) -> "MPoly":
        return cls(d, {tuple(alpha): c})

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(alpha) for alpha in self.coeffs)

    def __add__(self, other: "MPoly") -> "MPoly":
        if self.dim != other.dim:
            raise ValueError("polynomial dimensions differ")
        out = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            out[alpha] = out.get(alpha, 0.0) + c
        return MPoly._owned(self.dim, out)

    def scale(self, c) -> "MPoly":
        c = as_scalar(c, "scale")
        return MPoly._owned(self.dim, {a: c * v for a, v in self.coeffs.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + other.scale(-1.0)

    def __mul__(self, other: "MPoly") -> "MPoly":
        if self.dim != other.dim:
            raise ValueError("polynomial dimensions differ")
        out: dict[tuple[int, ...], complex] = {}
        for a1, c1 in self.coeffs.items():
            for a2, c2 in other.coeffs.items():
                key = tuple(x + y for x, y in zip(a1, a2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return MPoly._owned(self.dim, out)

    def partial(self, k: int) -> "MPoly":
        """Partial derivative with respect to the k-th coordinate."""
        if not 0 <= k < self.dim:
            raise ValueError("coordinate index out of range")
        out: dict[tuple[int, ...], complex] = {}
        for alpha, c in self.coeffs.items():
            if alpha[k] > 0:
                beta = list(alpha)
                beta[k] -= 1
                out[tuple(beta)] = c * alpha[k]
        return MPoly._owned(self.dim, out)

    def evaluate(self, z) -> complex:
        """f(z); ``ValueError`` where it overflows, never a warning."""
        z = as_vector(z, self.dim, "z")
        total = 0.0 + 0.0j
        with np.errstate(over="ignore", invalid="ignore"):
            for alpha, c in self.coeffs.items():
                total += c * complex(np.prod(z ** np.array(alpha)))
        if not cmath.isfinite(total):
            raise ValueError("polynomial value is not finite")
        return complex(total)

    def to_json(self) -> dict:
        terms = [
            {"alpha": list(alpha), "coeff": jsonio.complex_to_json(c)}
            for alpha, c in sorted(self.coeffs.items(), key=_graded_key)
        ]
        return {"d": self.dim, "terms": terms}

    @classmethod
    def from_json(cls, obj: dict) -> "MPoly":
        read_terms = jsonio.records(
            "polynomial term", alpha=lambda a: tuple(map(int, a)), coeff=jsonio.complex_from_json
        )
        d, terms = jsonio.read_fields(
            obj, "polynomial", defaults={"terms": []}, d=int, terms=read_terms
        )
        coeffs: dict[tuple[int, ...], complex] = {}
        for alpha, c in terms:
            coeffs[alpha] = coeffs.get(alpha, 0.0) + c
        return cls(d, coeffs)


def _graded_key(item):
    alpha = item[0]
    return (sum(alpha), alpha)
