"""The frozen value types: each owns read-only copies of its arrays, has
value equality over its fields, and keeps the tol-independent residuals of
its checks on the instance, computed once."""

import dataclasses
import threading

import numpy as np
import pytest

from fockwc import (
    ConjugationParams,
    KernelCombo,
    PreconditionError,
    ScaledKernel,
    SemigroupParams,
    WcSymbol,
    check_normal_bounded,
    check_real_symmetric,
    check_skew_real_symmetric,
    find_conjugation_normal,
    find_conjugation_real_symmetric,
    normal_eig,
    validate,
)
from fockwc.conjugation import require_valid
from helpers import (
    rand_kernel_combo,
    rand_real_symmetric_symbol,
    rand_semigroup_params,
    rand_symbol,
    rand_valid_conjugation,
)


def _fresh(value):
    """An equal instance with nothing cached on it."""
    return type(value).from_json(value.to_json())


def _class_checks(S, tol):
    return [check(S, tol) for check in
            (check_real_symmetric, check_skew_real_symmetric, check_normal_bounded)]


# --- the values own their arrays ----------------------------------------------


def _snapshot(value):
    return [np.array(getattr(value, f.name)).tobytes() for f in dataclasses.fields(value)]


def test_values_own_their_arrays():
    """A value built from views of writable bases keeps its fields, and J its
    verdict, when the bases are written afterwards; the caller's arrays stay
    writable and the value's are read-only."""
    mat = np.eye(2, dtype=complex)
    vecs = np.zeros((2, 2), dtype=complex)
    J = ConjugationParams(mat[:], vecs[0], 1.0)
    S = WcSymbol(1.0, vecs[0], mat[:], vecs[1])
    P = SemigroupParams(mat[:], vecs[0], vecs[1], 1.0)
    F = KernelCombo(2, vecs[:, 0], vecs[:])
    K = ScaledKernel(1.0, vecs[1])
    values = (J, S, P, F, K)
    before = [(v, _snapshot(v)) for v in values]
    assert validate(J)[0]

    mat[0, 1] = 5.0
    vecs[:] = 3.0 + 1j

    for value, fields in before:
        assert _snapshot(value) == fields
        for arr in value.__dict__.values():
            if isinstance(arr, np.ndarray):
                assert not arr.flags.writeable
    assert np.array_equal(J.A, np.eye(2))
    assert validate(J)[0] and validate(_fresh(J))[0]
    assert mat.flags.writeable and vecs.flags.writeable


# --- value equality -------------------------------------------------------------


def _round_trip_values():
    rng = np.random.default_rng(5)
    return [
        rand_symbol(rng, 3),
        rand_valid_conjugation(rng, 3),
        rand_semigroup_params(rng, 2),
        rand_kernel_combo(rng, 2, 4),
        KernelCombo(3, [], np.zeros((0, 3))),
    ]


@pytest.mark.parametrize("value", _round_trip_values(), ids=lambda v: type(v).__name__)
def test_json_round_trip_is_equal(value):
    back = _fresh(value)
    assert back == value and value == back
    assert not (back != value)
    with pytest.raises(TypeError):
        hash(value)


def test_unequal_values():
    rng = np.random.default_rng(6)
    S = rand_symbol(rng, 2)
    assert S != WcSymbol(S.theta, S.ell, S.Q, S.q + 1e-15)
    assert S != WcSymbol(-S.theta, S.ell, S.Q, S.q)
    assert S != rand_symbol(rng, 3)
    assert S != S.to_json() and S != ConjugationParams(np.eye(2), np.zeros(2), 1.0)
    K = ScaledKernel(2.0, [1.0, 1j])
    assert K == ScaledKernel(2.0 + 0j, np.array([1.0, 1j]))
    assert K != ScaledKernel(2.0, [1.0, -1j])
    F = rand_kernel_combo(rng, 2, 3)
    assert F != F.scale(2.0) and F != F + F
    J = rand_valid_conjugation(rng, 2)
    assert J != ConjugationParams(J.A, J.b, -J.c)


def test_spectral_decompositions_compare_by_value():
    rng = np.random.default_rng(12)
    M = rand_real_symmetric_symbol(rng, 4, eigenvalues=[0.5, 0.5, -0.2, 0.9]).Q
    dec = normal_eig(M)
    assert dec == normal_eig(M.copy()) and len(dec.groups) == 3
    assert dec != normal_eig(M + 0.1 * np.eye(4))


def test_cached_residuals_stay_out_of_the_fields():
    rng = np.random.default_rng(7)
    S, J = rand_real_symmetric_symbol(rng, 3), rand_valid_conjugation(rng, 3)
    S0, J0 = _fresh(S), _fresh(J)
    validate(J)
    _class_checks(S, 1e-9)
    assert S == S0 and J == J0
    assert repr(S) == repr(S0) and repr(J) == repr(J0)
    assert S.to_json() == S0.to_json() and J.to_json() == J0.to_json()


# --- the cache contract ---------------------------------------------------------


def test_mutating_a_returned_residual_dict_changes_nothing():
    rng = np.random.default_rng(8)
    S, J = rand_real_symmetric_symbol(rng, 3), rand_valid_conjugation(rng, 3)
    checks = [lambda: validate(J)] + [
        (lambda check=check: check(S)) for check in
        (check_real_symmetric, check_skew_real_symmetric, check_normal_bounded)
    ]
    for call in checks:
        ok, residuals = call()
        expected = dict(residuals)
        for key in residuals:
            residuals[key] = 1e300
        residuals["extra"] = 0.0
        assert call() == (ok, expected)


def test_two_tolerances_match_fresh_instances():
    """One instance checked at a tight and then a loose tol gives the
    verdicts and the bit-identical residuals of fresh equal instances."""
    rng = np.random.default_rng(9)
    S0 = rand_real_symmetric_symbol(rng, 3)
    S = WcSymbol(S0.theta + 1e-6j, S0.ell, S0.Q, S0.q)  # real symmetric to 1e-6
    J0 = rand_valid_conjugation(rng, 3)
    J = ConjugationParams(J0.A, J0.b, J0.c * (1 + 1e-6))
    verdicts = set()
    for tol in (1e-9, 1e-3):
        fresh_J, fresh_S = _fresh(J), _fresh(S)
        for got, want in [(validate(J, tol), validate(fresh_J, tol))] + list(
            zip(_class_checks(S, tol), _class_checks(fresh_S, tol))
        ):
            assert got[0] == want[0]
            assert [(k, v.hex()) for k, v in got[1].items()] == \
                [(k, v.hex()) for k, v in want[1].items()]
        verdicts.add(validate(J, tol)[0])
    assert verdicts == {False, True}


def test_require_valid_raises_the_same_message_every_time():
    J = ConjugationParams(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), 1.0)
    messages = []
    for value in (J, J, J, _fresh(J)):
        with pytest.raises(PreconditionError) as err:
            require_valid(value)
        messages.append(str(err.value))
    assert len(set(messages)) == 1
    assert "violate the admissibility conditions: matrix=" in messages[0]


# --- threads --------------------------------------------------------------------


def _all_checks(S, J):
    return [
        validate(J),
        check_real_symmetric(S),
        check_skew_real_symmetric(S),
        check_normal_bounded(S),
        find_conjugation_real_symmetric(S),
        find_conjugation_normal(S),
    ]


def test_concurrent_first_use_matches_single_threaded():
    """Eight threads released together on one freshly built S and J compute
    the cached residuals concurrently; every result equals the
    single-threaded one."""
    rng = np.random.default_rng(10)
    S, J = rand_real_symmetric_symbol(rng, 4), rand_valid_conjugation(rng, 4)
    expected = _all_checks(_fresh(S), _fresh(J))
    n = 8
    barrier = threading.Barrier(n)
    results = [None] * n

    def worker(i):
        try:
            barrier.wait(timeout=30)
            results[i] = _all_checks(S, J)
        except Exception as exc:  # reported by the assertion below
            results[i] = exc

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == expected for r in results), results
