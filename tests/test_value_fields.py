"""Each parameter pack declares its fields once, in its ``_JSON`` table of
kinds ``(encode, decode, coerce)``, from which ``jsonio.Record`` gives it
its constructor checks, ``dim`` and ``==``; the constructors keep their
messages and their field order.  Also the argument contracts of
``herm_eig``/``normal_eig`` (no grouping option), ``exp_tail`` (NaN is not
a valid rho) and ``identity_conjugation`` (positive dimension)."""

import inspect
import math

import numpy as np
import pytest

from fockwc import ConjugationParams, SemigroupParams, WcSymbol, identity_conjugation
from fockwc.oracle import exp_tail
from fockwc.symbols import identity_symbol
from fockwc.linalg import _default_group_tol, fields_equal, herm_eig, normal_eig

PACKS = (WcSymbol, ConjugationParams, SemigroupParams)
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("cls", PACKS)
def test_pack_defines_no_constructor_dim_or_eq_of_its_own(cls):
    assert not {"__post_init__", "dim", "__eq__"} & set(vars(cls))
    assert cls.__eq__ is fields_equal


@pytest.mark.parametrize("cls", PACKS)
def test_every_field_kind_is_an_encode_decode_coerce_triple(cls):
    for kind in cls._JSON[1].values():
        assert isinstance(kind, tuple) and len(kind) == 3
        assert all(callable(f) for f in kind)


def _identity(cls, d: int):
    eye, zero = np.eye(d), np.zeros(d)
    return {
        WcSymbol: lambda: WcSymbol(1.0, zero, eye, zero),
        ConjugationParams: lambda: ConjugationParams(eye, zero, 1.0),
        SemigroupParams: lambda: SemigroupParams(eye, zero, zero, 0.0),
    }[cls]()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_dim_is_the_dimension_of_every_construction_path(d):
    for cls in PACKS:
        assert _identity(cls, d).dim == d
        assert cls.from_json(_identity(cls, d).to_json()).dim == d
    assert identity_symbol(d).dim == d
    assert identity_conjugation(d).dim == d
    S = identity_symbol(d)
    assert WcSymbol._owned(2.0, S.ell, S.Q, S.q).dim == d


# constructor arguments and the exact message of the first bad field, in
# field order: each row has every later field bad too
CONSTRUCTOR_ERRORS = [
    (lambda: WcSymbol(0, [NAN], [[1, 2]], [NAN]), "theta must be nonzero"),
    (lambda: WcSymbol(NAN, [NAN], [[1, 2]], [NAN]), "theta must be finite, got (nan+0j)"),
    (lambda: WcSymbol(1, [[1, 2]], [[1, 2]], [NAN]), "ell must be a non-empty 1-d array"),
    (lambda: WcSymbol(1, [INF], [[1, 2]], [NAN]), "ell contains non-finite entries"),
    (lambda: WcSymbol(1, [1], [[1, 0], [0, 1]], [NAN, 0]), "Q has size 2, expected 1"),
    (lambda: WcSymbol(1, [1, 2], [[1, 2]], [NAN]), "Q must be a non-empty square matrix"),
    (lambda: WcSymbol(1, [1], [[1]], [1, 2]), "q has length 2, expected 1"),
    (lambda: ConjugationParams([[1, 0]], [NAN], NAN), "A must be a non-empty square matrix"),
    (lambda: ConjugationParams([[INF]], [0, 0], NAN), "A contains non-finite entries"),
    (lambda: ConjugationParams(np.eye(2), [0], NAN), "b has length 1, expected 2"),
    (lambda: ConjugationParams([[1]], [0], NAN), "c must be finite, got (nan+0j)"),
    (lambda: SemigroupParams([], [1, 2], [NAN], NAN), "Omega must be a non-empty square matrix"),
    (lambda: SemigroupParams([[0]], [1, 2], [NAN], NAN), "q_star has length 2, expected 1"),
    (lambda: SemigroupParams([[0]], [1], [1, 2], NAN), "ell_star has length 2, expected 1"),
    (lambda: SemigroupParams([[0]], [1], [1], INF), "theta_star must be finite, got (inf+0j)"),
]


@pytest.mark.parametrize("build, message", CONSTRUCTOR_ERRORS)
def test_constructor_names_the_first_bad_field(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("eig", [herm_eig, normal_eig])
def test_eigendecompositions_take_no_grouping_option(eig):
    assert list(inspect.signature(eig).parameters) == ["M"]
    with pytest.raises(TypeError):
        eig(np.eye(2), NAN)


@pytest.mark.parametrize("eig", [herm_eig, normal_eig])
def test_eigenvalues_within_the_group_tolerance_share_a_group(eig):
    M = np.diag([1.0, 1.0 + 1e-12])
    assert _default_group_tol(1.0) > 1e-12
    assert eig(M).groups == ((0, 1),)


def test_exp_tail_rejects_nan_rho():
    with pytest.raises(ValueError, match="^rho must be non-negative$"):
        exp_tail(NAN, 4)


def test_exp_tail_is_finite_or_inf():
    assert exp_tail(INF, 4) == math.inf
    assert exp_tail(0.0, 4) == 0.0
    assert 0.0 < exp_tail(1.0, 4) < 1e-2


@pytest.mark.parametrize("d", [0, -1])
def test_identity_conjugation_requires_a_positive_dimension(d):
    for build in (identity_conjugation, identity_symbol):
        with pytest.raises(ValueError, match="^dimension must be positive$"):
            build(d)
