"""JSON encodings shared by the library types and the command line tool.

Complex numbers are two-element arrays ``[re, im]``, vectors are lists of
those, and matrices are row-major nested lists.  The encoding is fixed so
files round-trip bit-identically and diff cleanly.

A parameter pack (symbol, conjugation, semigroup) is a ``Record``, coded
from one table of its fields.  Its files and points files share one rule:
``"d"`` may be omitted, and when present must equal the decoded dimension.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "Record", "records", "check_dim", "COMPLEX", "VECTOR", "MATRIX",
    "read_fields",
    "complex_to_json",
    "complex_from_json",
    "vector_to_json",
    "vector_from_json",
    "matrix_to_json",
    "matrix_from_json",
]


def complex_to_json(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def read_fields(obj, kind: str, defaults=None, **decoders) -> list:
    """Decode the fields of a JSON object, in keyword order.

    ``name=decode`` yields ``decode(obj[name])``, or ``defaults[name]`` when
    the field is absent and has a default.  A non-object, a missing field,
    or a ``KeyError``, ``TypeError``, ``IndexError`` or ``ValueError`` from
    a decoder raises one ``ValueError`` naming ``kind`` and the field.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} JSON must be an object")
    defaults = defaults or {}
    values = []
    for name, decode in decoders.items():
        if name not in obj and name not in defaults:
            raise ValueError(f"{kind} JSON is missing field {name!r}")
        try:
            values.append(decode(obj[name]) if name in obj else defaults[name])
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ValueError(f"{kind} JSON field {name!r}: {exc}") from exc
    return values


def records(kind: str, **decoders):
    """Decoder of a JSON list of objects: ``read_fields`` of each item."""
    return lambda items: [read_fields(item, kind, **decoders) for item in items]


def check_dim(kind: str, d, *dims: int) -> None:
    """The ``"d"`` rule: ``d``, None when absent, equals each of ``dims``."""
    if d is not None and any(n != d for n in dims):
        raise ValueError(f"{kind} JSON has inconsistent dimension")


def complex_from_json(obj, name: str = "complex") -> complex:
    if not (
        isinstance(obj, (list, tuple))
        and len(obj) == 2
        and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in obj)
    ):
        raise ValueError(f"{name} must be a [re, im] pair of numbers, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def vector_to_json(v) -> list[list[float]]:
    return [complex_to_json(z) for z in np.asarray(v).ravel()]


def vector_from_json(obj, name: str = "vector") -> np.ndarray:
    if not isinstance(obj, list):
        raise ValueError(f"{name} must be a list of [re, im] pairs")
    return np.array(
        [complex_from_json(entry, name) for entry in obj], dtype=np.complex128
    )


def matrix_to_json(M) -> list[list[list[float]]]:
    return [[complex_to_json(z) for z in row] for row in np.asarray(M)]


def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{name} must be a non-empty nested list")
    rows = [vector_from_json(row, name) for row in obj]
    if any(r.size != len(rows) for r in rows):
        raise ValueError(f"{name} must be square, row-major")
    return np.array(rows, dtype=np.complex128)


COMPLEX = (complex_to_json, complex_from_json)
VECTOR = (vector_to_json, vector_from_json)
MATRIX = (matrix_to_json, matrix_from_json)


class Record:
    """``to_json``/``from_json`` from the class table ``_JSON = (kind,
    {field: (encode, decode)})``, fields in constructor order, and ``dim``."""

    def to_json(self) -> dict:
        fields = self._JSON[1]
        return {"d": self.dim, **{k: enc(getattr(self, k)) for k, (enc, _) in fields.items()}}

    @classmethod
    def from_json(cls, obj: dict):
        kind, fields = cls._JSON
        decoders = {k: dec for k, (_, dec) in fields.items()}
        *values, d = read_fields(obj, kind, defaults={"d": None}, **decoders, d=int)
        value = cls(*values)
        check_dim(kind, d, value.dim)
        return value
