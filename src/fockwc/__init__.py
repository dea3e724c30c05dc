"""Weighted composition operator calculus on the Fock space F^2(C^d).

The package makes the closed-form operator theory of affine-exponential
weighted composition operators executable: symbol arithmetic, conjugation
validation and construction, symmetry classification, J-selfadjoint
semigroups with their generators, and two independent numerical oracles
(exact kernel-span computations and truncated matrix sections) that verify
every identity.

The public API is ``__all__``.  Each module's ``__all__`` declares its share
and is re-exported here as it stands; helpers that modules share with each
other stay out of it, importable from their module by name.
"""

from . import classify, conjugation, errors, linalg, oracle, polynomials, semigroup, symbols
from .classify import *
from .conjugation import *
from .errors import *
from .linalg import *
from .oracle import *
from .polynomials import *
from .semigroup import *
from .symbols import *

__version__ = "0.1.0"

__all__ = sorted(
    classify.__all__
    + conjugation.__all__
    + errors.__all__
    + linalg.__all__
    + oracle.__all__
    + polynomials.__all__
    + semigroup.__all__
    + symbols.__all__
)
