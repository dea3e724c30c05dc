"""Values the library builds from what it has just computed (``linalg.owned``,
``WcSymbol._owned``, ``MPoly._owned``) are the values the public
constructors build from the same fields: equal, with the same bits, read-only
with no writable base, JSON round-tripping, and rejecting a non-finite field
with the public message.  Also the satellites of that path: a theta that
underflows is named where it is computed, and ||Q|| is computed once."""

import dataclasses
import itertools

import numpy as np
import pytest

from fockwc import (
    ConjugationParams,
    KernelCombo,
    MPoly,
    SemigroupParams,
    WcSymbol,
    act_on_kernel,
    adjoint_symbol,
    apply_conjugation,
    apply_symbol,
    check_bounded_necessary,
    check_normal_bounded,
    compose,
    conjugate_by_J,
    evaluate,
    find_conjugation_normal,
    find_conjugation_real_symmetric,
    generator_apply,
    negate_theta,
    symbol_at,
)
from fockwc.conjugation import apply_to_kernel
from fockwc.symbols import ScaledKernel, identity_symbol
from fockwc import classify, conjugation
from fockwc.linalg import _residual_norms, op_norm, owned
from helpers import (
    crandn,
    rand_kernel_combo,
    rand_normal_bounded_symbol,
    rand_real_symmetric_symbol,
    rand_semigroup_params,
    rand_symbol,
    rand_unitary,
    rand_valid_conjugation,
)


def _library_values(seed: int, d: int) -> dict:
    """One value of each kind that the library builds by the owned path, by label."""
    rng = np.random.default_rng(seed)
    S, T = rand_symbol(rng, d), rand_symbol(rng, d)
    J = rand_valid_conjugation(rng, d)
    P = rand_semigroup_params(rng, d)
    F = rand_kernel_combo(rng, d, 3)
    U, V = rand_unitary(rng, d), rand_unitary(rng, d)
    f = MPoly(d, {(1,) + (0,) * (d - 1): 1.0 - 0.5j, (0,) * (d - 1) + (2,): 0.25j})
    g = MPoly(d, {(0,) * d: 2.0, (1,) * d: -1.0 + 1j})
    w = crandn(rng, d, scale=0.5)
    values = {
        "symbol_at": symbol_at(P, 0.7),
        "compose": compose(S, T),
        "adjoint_symbol": adjoint_symbol(S),
        "negate_theta": negate_theta(S),
        "identity_symbol": identity_symbol(d),
        # a unitary similarity of S is a product with two unitary symbols
        "unitary_similarity": compose(compose(WcSymbol(1.0, np.zeros(d), U, np.zeros(d)), S),
                                      WcSymbol(1.0, np.zeros(d), V, np.zeros(d))),
        "conjugate_by_J": conjugate_by_J(S, J),
        "find_real_symmetric": find_conjugation_real_symmetric(rand_real_symmetric_symbol(rng, d)),
        "find_normal": find_conjugation_normal(
            rand_normal_bounded_symbol(rng, d, with_fixed_eig=True)),
        "act_on_kernel": act_on_kernel(S, w),
        "apply_to_kernel": apply_to_kernel(J, w),
        "apply_symbol": apply_symbol(S, F),
        "apply_conjugation": apply_conjugation(J, F),
        "mpoly_add": f + g,
        "mpoly_mul": f * g,
        "mpoly_partial": f.partial(0),
        "mpoly_scale": f.scale(0.5 - 2j),
        "generator_apply": generator_apply(P, f),
    }
    G = rand_kernel_combo(rng, d, 2)  # drawn last: the values above keep their bits
    return values | {
        "combo_scale": F.scale(0.5 - 2j),
        "combo_add": F + G,
        "combo_sub": F - G,
        "combo_term": F.terms[0],
        "combo_from_pairs": KernelCombo.from_pairs(d, [(1.5j, w), (-2.0, G.points[0])]),
    }


# the labels whose cases were once numbered by position over all seeds; they
# keep those ids, {type}-{position}, and a label that goes keeps its place here
# so that no other case is renamed.  Every other case is {label}-d{d}
_NUMBERED = (
    "symbol_at", "compose", "adjoint_symbol", "negate_theta", "identity_symbol",
    "unitary_similarity", "conjugate_by_J", "find_real_symmetric", "find_normal",
    "act_on_kernel", "apply_to_kernel", "apply_symbol", "apply_conjugation",
    "mpoly_add", "mpoly_mul", "mpoly_partial", "mpoly_scale", "generator_apply",
)


def _case_id(k: int, d: int, label: str, value) -> str:
    if label in _NUMBERED:
        return f"{type(value).__name__}-{len(_NUMBERED) * k + _NUMBERED.index(label)}"
    return f"{label}-d{d}"


CASES = [
    (_case_id(k, d, label, value), value)
    for k, (seed, d) in enumerate(((1, 1), (2, 2), (3, 3), (4, 5)))
    for label, value in _library_values(seed, d).items()
]
VALUES = [value for _, value in CASES]
IDS = [case_id for case_id, _ in CASES]


def _fields(value) -> dict:
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


def _public(value):
    """The public constructor applied to the value's fields."""
    return type(value)(**_fields(value))


def _hex(x):
    """Every float of a field as ``float.hex``, with its Python or NumPy type."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, [_hex(z) for z in x.ravel().tolist()])
    if isinstance(x, dict):
        return {k: _hex(v) for k, v in x.items()}
    if isinstance(x, complex):
        return type(x).__name__, x.real.hex(), x.imag.hex()
    return type(x).__name__, x


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_owned_value_is_the_public_value_bit_for_bit(value):
    public = _public(value)
    assert value == public
    assert {k: _hex(v) for k, v in _fields(value).items()} == {
        k: _hex(v) for k, v in _fields(public).items()
    }


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_owned_arrays_are_read_only_with_no_writable_base(value):
    for name, arr in _fields(value).items():
        while isinstance(arr, np.ndarray):
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 0.0
            arr = arr.base


def test_adjoint_symbol_copies_the_fresh_base_of_its_view():
    """adj(S.Q) is a transposed view of a fresh array: it is copied once, in
    its own (column-major) layout, as the public constructor copies it, so
    nothing writable reaches the value."""
    A = adjoint_symbol(rand_symbol(np.random.default_rng(5), 3))
    assert A.Q.base is None
    assert A.Q.flags.f_contiguous and not A.Q.flags.c_contiguous


@pytest.mark.parametrize("value", [v for v in VALUES if hasattr(v, "to_json")],
                         ids=[i for v, i in zip(VALUES, IDS) if hasattr(v, "to_json")])
def test_owned_value_round_trips_through_json(value):
    back = type(value).from_json(value.to_json())
    assert back == value
    assert back.to_json() == value.to_json()


# --- the owned path rejects what the public constructor rejects ---------------

_NAN = complex("nan")
_INF = complex("inf")


def _message(build) -> str:
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


def _bad_fields(good: dict, bad: dict):
    """``good`` with every non-empty subset of its fields replaced from ``bad``."""
    for r in range(1, len(bad) + 1):
        for names in itertools.combinations(bad, r):
            yield {**good, **{n: bad[n] for n in names}}


_D = 2
_GOOD_SYMBOL = {"theta": 1.5 - 0.5j, "ell": np.ones(_D, complex),
                "Q": np.eye(_D, dtype=complex), "q": np.zeros(_D, complex)}


@pytest.mark.parametrize("theta", [0j, _NAN, complex(1.0, float("inf"))])
def test_owned_symbol_rejects_with_the_public_messages_in_order(theta):
    bad = {"theta": theta, "ell": np.array([1.0, _INF]),
           "Q": np.array([[0.5, 0.0], [_NAN, 0.5]]), "q": np.array([_NAN, 0.0])}
    seen = set()
    for fields in _bad_fields(_GOOD_SYMBOL, bad):
        expected = _message(lambda: WcSymbol(**fields))
        assert _message(lambda: WcSymbol._owned(**fields)) == expected
        seen.add(expected.split(" ")[0])
    assert seen == {"theta", "ell", "Q", "q"}


def test_owned_conjugation_and_kernel_reject_with_the_public_messages():
    cases = [
        (ConjugationParams,
         {"A": np.eye(_D, dtype=complex), "b": np.zeros(_D, complex), "c": 1.0 + 0j},
         {"A": np.array([[1.0, _INF], [0.0, 1.0]]), "b": np.array([0.0, _NAN]), "c": _INF}),
        (ScaledKernel,
         {"coeff": 2.0 + 0j, "point": np.ones(_D, complex)},
         {"coeff": _NAN, "point": np.array([_INF, 0.0])}),
    ]
    for cls, good, bad in cases:
        for fields in _bad_fields(good, bad):
            expected = _message(lambda: cls(**fields))
            assert _message(lambda: owned(cls, **fields)) == expected


def test_owned_kernel_combo_rejects_with_the_public_messages():
    good = {"coeffs": np.ones(2, complex), "points": np.zeros((2, _D), complex)}
    bad = {"coeffs": np.array([1.0, _NAN]), "points": np.array([[0.0, 0.0], [_INF, 0.0]])}
    for fields in _bad_fields(good, bad):
        expected = _message(lambda: KernelCombo(_D, **fields))
        assert _message(lambda: owned(KernelCombo, dim=_D, **fields)) == expected


def test_owned_polynomial_drops_zeros_and_rejects_with_the_public_message():
    coeffs = {(0, 0): 0j, (1, 0): 2.0 + 0j, (0, 1): _INF, (1, 1): _NAN}
    assert MPoly._owned(_D, {(0, 0): 0j, (1, 0): 2.0 + 0j}) == MPoly(_D, {(1, 0): 2.0})
    expected = _message(lambda: MPoly(_D, coeffs))
    assert _message(lambda: MPoly._owned(_D, coeffs)) == expected
    with pytest.raises(ValueError, match="^coefficient must be finite"):
        MPoly(_D, {(1, 0): 1e200}) * MPoly(_D, {(0, 1): 1e200})


def test_library_operations_reject_a_non_finite_component_by_name():
    S = WcSymbol(1.0, [0.0], [[1e200]], [0.0])
    with pytest.raises(ValueError, match="^Q contains non-finite entries$"):
        compose(S, S)
    F = KernelCombo(1, [1.0], [[0.0]])
    with pytest.raises(ValueError, match="^kernel combo points are not finite$"):
        apply_symbol(WcSymbol(1.0, [1e308], [[1.0]], [0.0]), KernelCombo(1, [1.0], [[1e308]]))
    assert apply_symbol(S, F) == KernelCombo(1, [1.0], [[0.0]])


# --- a theta that underflows is named where it is computed --------------------


def test_symbol_at_names_a_theta_that_underflows():
    P = SemigroupParams([[0.0]], [1e307], [-1.0], 0.0)
    with pytest.raises(ValueError, match=r"^theta_t at t = 1\.0 underflows to zero: exponent -5e\+306"):
        symbol_at(P, 1.0)


def test_compose_names_a_theta_that_underflows():
    S = WcSymbol(1e-200, [0.0], [[0.5]], [0.0])
    with pytest.raises(ValueError, match="^theta of the composition underflows to zero: exponent -921"):
        compose(S, S)
    T = WcSymbol(1.0, [-1e306], [[0.5]], [0.0])
    U = WcSymbol(1.0, [0.0], [[0.5]], [10.0])
    with pytest.raises(ValueError, match="^theta of the composition underflows to zero: exponent -1e"):
        compose(U, T)


def test_conjugate_by_J_names_a_theta_that_underflows():
    r = 10.0
    J = ConjugationParams([[1.0]], [1j * r], np.exp(-r * r / 2))  # A conj(b) + b = 0
    S = WcSymbol(1.0, [1e306j], [[0.5]], [0.0])  # <ell, b> bilinear: -1e307
    with pytest.raises(ValueError, match="^theta of J C J underflows to zero: exponent -1e"):
        conjugate_by_J(S, J)


def test_pointwise_values_that_underflow_stay_zero():
    S = WcSymbol(1.0, [-1e306], [[0.5]], [-1e306])
    assert evaluate(S, [10.0])[0] == 0
    assert act_on_kernel(S, [10.0]).coeff == 0
    assert ScaledKernel(1.0, [-1e306])([10.0]) == 0


# --- ||Q|| once per symbol ----------------------------------------------------


def test_Q_norm_is_computed_once_per_symbol(monkeypatch):
    calls = []

    def counting(M):
        calls.append(1)
        return op_norm(M)

    monkeypatch.setattr(classify, "op_norm", counting)
    monkeypatch.setattr(conjugation, "op_norm", counting)
    S = rand_normal_bounded_symbol(np.random.default_rng(8), 3)
    for _ in range(2):
        check_bounded_necessary(S)
        check_normal_bounded(S)
        find_conjugation_normal(S)
    assert len(calls) == 1
    stacked = _residual_norms(S.Q, "Q", "X X* - X* X", "X")[1]
    excess = max(0.0, stacked - 1.0)
    assert check_bounded_necessary(S)[1]["Q_norm_excess"] == excess
    assert check_normal_bounded(S)[1]["Q_norm_excess"] == excess


@pytest.mark.parametrize("normal_first", [True, False])
def test_Q_norm_answers_where_the_normality_residual_overflows(normal_first):
    S = WcSymbol(1.0, [0.0], [[1e200]], [0.0])
    checks = [lambda: check_normal_bounded(S), lambda: check_bounded_necessary(S)]
    for check in checks if normal_first else checks[::-1]:
        if check is checks[0]:
            with pytest.raises(ValueError, match=r"^Q Q\* - Q\* Q contains non-finite entries$"):
                check()
        else:
            assert check() == (False, {"Q_norm_excess": 1e200})
