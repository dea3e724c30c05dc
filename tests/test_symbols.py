import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockwc import (
    PreconditionError,
    WcSymbol,
    act_on_kernel,
    adjoint_symbol,
    compose,
    evaluate,
    identity_symbol,
    pairing,
    symbol_distance,
    symbols_equal,
    unitary_similarity,
)
from helpers import crandn, rand_symbol, rand_unitary

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
cnum = st.builds(complex, finite, finite)
cnum_nonzero = cnum.filter(lambda z: abs(z) > 0.1)


def small_symbols(d):
    return st.builds(
        WcSymbol,
        cnum_nonzero,
        st.lists(cnum, min_size=d, max_size=d),
        st.lists(st.lists(cnum, min_size=d, max_size=d), min_size=d, max_size=d),
        st.lists(cnum, min_size=d, max_size=d),
    )


def test_symbol_validation():
    with pytest.raises(ValueError):
        WcSymbol(0.0, [1.0], [[1.0]], [1.0])
    with pytest.raises(ValueError):
        WcSymbol(1.0, [1.0, 2.0], [[1.0]], [1.0])
    with pytest.raises(ValueError):
        WcSymbol(1.0, [np.nan], [[1.0]], [1.0])


def test_evaluate_identity_and_scalar():
    S = identity_symbol(2)
    z = np.array([0.3 + 0.1j, -0.2j])
    psi, phi = evaluate(S, z)
    assert psi == 1.0 and np.allclose(phi, z)

    # d=1, (2, i, 3, 1) at z=1: <1, i> = -i, so psi = 2 e^{-i}, phi = 4
    S = WcSymbol(2.0, [1j], [[3.0]], [1.0])
    psi, phi = evaluate(S, [1.0])
    assert abs(psi - 2 * np.exp(-1j)) < 1e-14
    assert abs(phi[0] - 4.0) < 1e-14


def test_evaluate_matches_scalar_recomputation():
    rng = np.random.default_rng(10)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        S = rand_symbol(rng, d)
        z = crandn(rng, d)
        psi, phi = evaluate(S, z)
        # independent scalar-arithmetic oracle
        expo = sum(z[k] * np.conj(S.ell[k]) for k in range(d))
        assert abs(psi - S.theta * np.exp(expo)) < 1e-12 * (1 + abs(psi))
        for k in range(d):
            want = sum(S.Q[k, j] * z[j] for j in range(d)) + S.q[k]
            assert abs(phi[k] - want) < 1e-12


def test_act_on_kernel_examples():
    S = identity_symbol(3)
    w = np.array([0.1, 0.2j, -0.3])
    img = act_on_kernel(S, w)
    assert img.coeff == 1.0 and np.allclose(img.point, w)

    # C K_0 = K_2 for (1, 2, i, 1): psi(z) = e^{2z} = K_2(z) times K_0 == 1
    img = act_on_kernel(WcSymbol(1.0, [2.0], [[1j]], [1.0]), [0.0])
    assert abs(img.coeff - 1.0) < 1e-15
    assert abs(img.point[0] - 2.0) < 1e-15


def test_act_on_kernel_pointwise_identity():
    # psi(x) K_w(phi(x)) == coeff * K_point(x) at random points
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        S = rand_symbol(rng, d)
        w = crandn(rng, d, scale=0.7)
        img = act_on_kernel(S, w)
        for _ in range(5):
            x = crandn(rng, d, scale=0.7)
            psi, phi = evaluate(S, x)
            lhs = psi * np.exp(pairing(phi, w))
            rhs = img.coeff * np.exp(pairing(x, img.point))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_compose_with_identity():
    rng = np.random.default_rng(12)
    S = rand_symbol(rng, 2)
    eye = identity_symbol(2)
    assert symbols_equal(compose(S, eye), S, 1e-14)
    assert symbols_equal(compose(eye, S), S, 1e-14)


def test_compose_scalar_example():
    # hand composition: psi = e^z, phi = 2(z+1) = 2z + 2
    S1 = WcSymbol(1.0, [1.0], [[1.0]], [1.0])
    S2 = WcSymbol(1.0, [0.0], [[2.0]], [0.0])
    got = compose(S1, S2)
    assert symbol_distance(got, WcSymbol(1.0, [1.0], [[2.0]], [2.0])) < 1e-15


def test_compose_theta_overflow_raises():
    S = WcSymbol(1.0, [30.0], [[0.5]], [30.0])  # Re<q, ell> = 900 > 709
    with pytest.raises(ValueError, match="theta of the composition is not finite"):
        compose(S, S)


def test_compose_pointwise_oracle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        S1, S2 = rand_symbol(rng, d), rand_symbol(rng, d)
        S = compose(S1, S2)
        z = crandn(rng, d, scale=0.6)
        psi1, phi1 = evaluate(S1, z)
        psi2, phi2 = evaluate(S2, phi1)
        psi, phi = evaluate(S, z)
        assert abs(psi - psi1 * psi2) < 1e-10 * (1 + abs(psi))
        assert np.max(np.abs(phi - phi2)) < 1e-10 * (1 + np.max(np.abs(phi2)))


def test_adjoint_examples():
    eye = identity_symbol(2)
    assert symbols_equal(adjoint_symbol(eye), eye, 1e-15)

    got = adjoint_symbol(WcSymbol(1j, [2.0], [[3j]], [5.0]))
    want = WcSymbol(-1j, [5.0], [[-3j]], [2.0])
    assert symbol_distance(got, want) < 1e-15


def test_adjoint_on_kernels_closed_form():
    # act_on_kernel(adjoint(S), z) == (conj(psi(z)), phi(z)) as exact algebra
    rng = np.random.default_rng(14)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        S = rand_symbol(rng, d)
        z = crandn(rng, d)
        img = act_on_kernel(adjoint_symbol(S), z)
        psi, phi = evaluate(S, z)
        assert abs(img.coeff - np.conj(psi)) < 1e-12 * (1 + abs(psi))
        assert np.max(np.abs(img.point - phi)) < 1e-12


@given(small_symbols(2))
def test_adjoint_involution(S):
    assert symbol_distance(adjoint_symbol(adjoint_symbol(S)), S) == 0.0


@given(small_symbols(2), small_symbols(2))
def test_adjoint_antihomomorphism(S1, S2):
    lhs = adjoint_symbol(compose(S1, S2))
    rhs = compose(adjoint_symbol(S2), adjoint_symbol(S1))
    assert symbol_distance(lhs, rhs) <= 1e-10


@given(small_symbols(1), small_symbols(1), small_symbols(1))
def test_compose_associativity(S1, S2, S3):
    lhs = compose(compose(S1, S2), S3)
    rhs = compose(S1, compose(S2, S3))
    assert symbols_equal(lhs, rhs, 1e-10)


def test_unitary_similarity_identity():
    rng = np.random.default_rng(15)
    S = rand_symbol(rng, 3)
    assert symbols_equal(unitary_similarity(S, np.eye(3), np.eye(3)), S, 1e-14)


def test_unitary_similarity_scalar_example():
    # For U = V = [i] the transform formula gives (1, i, -2, -i); verified
    # below by the compose-chain identity C_S = C_U C_tilde C_V.
    S = WcSymbol(1.0, [1.0], [[2.0]], [1.0])
    St = unitary_similarity(S, [[1j]], [[1j]])
    assert symbol_distance(St, WcSymbol(1.0, [1j], [[-2.0]], [-1j])) < 1e-15


def _matrix_symbol(U):
    d = U.shape[0]
    return WcSymbol(1.0, np.zeros(d), U, np.zeros(d))


def test_unitary_similarity_compose_chain():
    rng = np.random.default_rng(16)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        S = rand_symbol(rng, d)
        U, V = rand_unitary(rng, d), rand_unitary(rng, d)
        St = unitary_similarity(S, U, V)
        chain = compose(compose(_matrix_symbol(U), St), _matrix_symbol(V))
        assert symbols_equal(chain, S, 1e-10)
        # inverse form of the similarity returns S
        back = unitary_similarity(St, np.conj(U).T, np.conj(V).T)
        assert symbols_equal(back, S, 1e-10)


def test_unitary_similarity_rejects_non_unitary():
    S = identity_symbol(2)
    with pytest.raises(PreconditionError):
        unitary_similarity(S, np.eye(2) * 2.0, np.eye(2))


def test_symbols_equal_threshold():
    rng = np.random.default_rng(17)
    S = rand_symbol(rng, 2)
    assert symbols_equal(S, S, 1e-12)
    tol = 1e-9
    bumped = WcSymbol(S.theta + 100 * tol, S.ell, S.Q, S.q)
    assert not symbols_equal(S, bumped, tol)


def test_symbol_json_round_trip():
    rng = np.random.default_rng(18)
    S = rand_symbol(rng, 3)
    S2 = WcSymbol.from_json(S.to_json())
    assert symbol_distance(S, S2) == 0.0


def test_evaluate_psi_overflow_raises():
    # Re<z, ell> = 1000 > 709: exp alone would overflow with a warning
    with pytest.raises(ValueError, match=r"psi\(z\) is not finite"):
        evaluate(WcSymbol(1.0, [10.0], [[0.5]], [0.0]), [100.0])


def test_pairing_overflow_raises():
    # entries past 1e154: the sum overflows although every entry is finite
    S = WcSymbol(1.0, [1e200], [[0.5]], [1e200])
    with pytest.raises(ValueError, match="pairing"):
        pairing([1e200], [1e200])
    with pytest.raises(ValueError, match="pairing"):
        compose(S, S)
    with pytest.raises(ValueError, match="pairing"):
        evaluate(S, [1e200])


def test_compose_matmul_overflow_raises_by_name():
    # Q2 Q1 = 1e400: WcSymbol names Q instead of matmul warning first
    S = WcSymbol(1.0, [0.0], [[1e200]], [0.0])
    with pytest.raises(ValueError, match="Q contains non-finite entries"):
        compose(S, S)


def test_evaluate_phi_overflow_raises_by_name():
    S = WcSymbol(1.0, [0.0], [[1e200]], [0.0])
    with pytest.raises(ValueError, match=r"phi\(z\) contains non-finite entries"):
        evaluate(S, [1e200])
