import math

import numpy as np
import pytest

from fockwc import (
    ConjugationParams,
    NotApplicableError,
    PreconditionError,
    WcSymbol,
    apply_conjugation,
    check_J_selfadjoint,
    compose,
    conjugate_by_J,
    evaluate,
    identity_conjugation,
    inner,
    j_adjoint_symbol,
    find_conjugation_normal,
    find_conjugation_real_symmetric,
    pairing,
    symbol_distance,
    symbols_equal,
    validate,
)
from fockwc.conjugation import apply_to_kernel
from fockwc.linalg import adj, op_norm
from fockwc.symbols import identity_symbol
from helpers import (
    crandn,
    rand_kernel_combo,
    rand_normal_bounded_symbol,
    rand_real_symmetric_symbol,
    rand_symbol,
    rand_valid_conjugation,
)


def test_validate_examples():
    ok, res = validate(identity_conjugation(2))
    assert ok and max(res.values()) == 0.0

    # d=1: A=1, b=i, c=e^{-1/2}: conj(b)+b = 0 and |c|^2 e^{|b|^2} = 1
    ok, _ = validate(ConjugationParams([[1.0]], [1j], np.exp(-0.5)))
    assert ok

    ok, res = validate(ConjugationParams(np.eye(2), [1.0, 0.0], 1.0))
    assert not ok
    assert abs(res["vector"] - 2.0) < 1e-15


def test_validate_rejects_zero_scalar():
    # |c|^2 e^{|b|^2} = 0 * inf must not become a NaN that passes
    ok, res = validate(ConjugationParams([[-1.0]], [30.0], 0.0))
    assert not ok
    assert res["scalar"] == 1.0


@pytest.mark.filterwarnings("error")
def test_validate_tiny_scalar_against_large_b():
    # |c|^2 = e^{-900} underflows and e^{|b|^2} = e^{900} overflows
    ok, res = validate(ConjugationParams([[-1.0]], [30.0], math.exp(-450.0)))
    assert ok
    assert math.isfinite(res["scalar"]) and res["scalar"] <= 1e-12


def test_residuals_within_fails_nan():
    from fockwc.linalg import residuals_within

    assert residuals_within({"a": 0.0, "b": 1e-12}, 1e-9)
    assert not residuals_within({"a": math.nan, "b": 0.0}, 1e-9)
    assert not residuals_within({"a": 0.0, "b": math.nan}, 1e-9)


def test_random_valid_conjugations_pass():
    rng = np.random.default_rng(20)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        J = rand_valid_conjugation(rng, d, with_b=bool(rng.integers(0, 2)))
        ok, res = validate(J, 1e-10)
        assert ok, res


def test_apply_to_kernel_examples():
    img = apply_to_kernel(identity_conjugation(2), [0.3 + 1j, -0.2])
    assert abs(img.coeff - 1.0) < 1e-15
    assert np.allclose(img.point, [0.3 - 1j, -0.2])

    # d=1, (1, i, e^{-1/2}) at w=0 -> (e^{-1/2}, -i) by direct substitution
    J = ConjugationParams([[1.0]], [1j], np.exp(-0.5))
    img = apply_to_kernel(J, [0.0])
    assert abs(img.coeff - np.exp(-0.5)) < 1e-15
    assert abs(img.point[0] + 1j) < 1e-15


def test_apply_to_kernel_pointwise_antilinear_identity():
    # c e^{<x, conj(b)>} conj(K_w(conj(Ax+b))) == coeff * K_point(x)
    rng = np.random.default_rng(21)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        J = rand_valid_conjugation(rng, d)
        w = crandn(rng, d, scale=0.7)
        img = apply_to_kernel(J, w)
        for _ in range(4):
            x = crandn(rng, d, scale=0.7)
            kernel_val = np.exp(pairing(np.conj(J.A @ x + J.b), w))
            lhs = J.c * np.exp(np.dot(x, J.b)) * np.conj(kernel_val)
            rhs = img.coeff * np.exp(pairing(x, img.point))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_apply_to_kernel_rejects_invalid():
    with pytest.raises(PreconditionError):
        apply_to_kernel(ConjugationParams(np.eye(2), [1.0, 0.0], 1.0), [0.0, 0.0])


def _large_b_conjugation():
    # A = I, b = 20i, c = e^-200: valid, since |c|^2 e^{|b|^2} = 1
    return ConjugationParams(np.eye(1), [20j], math.exp(-200.0))


def test_apply_to_kernel_coefficient_overflow_raises():
    # <b, conj(w)> = 20000: exp alone would overflow with a warning
    with pytest.raises(ValueError, match="J K_w coefficient is not finite"):
        apply_to_kernel(_large_b_conjugation(), [-1000j])


def test_conjugate_by_J_theta_overflow_raises():
    # exponent l.b + conj(b).conj(Q)b + conj(q.b) = 800 + 400 = 1200
    S = WcSymbol(1.0, [-40j], [[1.0]], [0.0])
    with pytest.raises(ValueError, match="theta of J C J is not finite"):
        conjugate_by_J(S, _large_b_conjugation())


def test_conjugate_by_coordinate_conjugation():
    rng = np.random.default_rng(22)
    S = rand_symbol(rng, 3)
    got = conjugate_by_J(S, identity_conjugation(3))
    want = WcSymbol(np.conj(S.theta), np.conj(S.ell), np.conj(S.Q), np.conj(S.q))
    assert symbol_distance(got, want) < 1e-14


def test_conjugate_by_J_involution():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        J = rand_valid_conjugation(rng, d)
        S = rand_symbol(rng, d)
        assert symbol_distance(conjugate_by_J(conjugate_by_J(S, J), J), S) < 1e-12


def test_conjugate_by_J_pointwise_oracle():
    # evaluate J(E_S(J f)) and E_{S'}(f) for f = K_w at random points
    rng = np.random.default_rng(24)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        J = rand_valid_conjugation(rng, d)
        S = rand_symbol(rng, d)
        Sp = conjugate_by_J(S, J)
        w = crandn(rng, d, scale=0.5)

        def jf(f):
            def g(z):
                z = np.asarray(z, dtype=complex)
                return (
                    J.c
                    * np.exp(np.dot(z, J.b))
                    * np.conj(f(np.conj(J.A @ z + J.b)))
                )

            return g

        def es(f):
            def g(z):
                psi, phi = evaluate(S, z)
                return psi * f(phi)

            return g

        f = lambda z: np.exp(pairing(np.asarray(z, dtype=complex), w))
        lhs_fn = jf(es(jf(f)))
        for _ in range(4):
            x = crandn(rng, d, scale=0.6)
            psi_p, phi_p = evaluate(Sp, x)
            lhs = lhs_fn(x)
            rhs = psi_p * f(phi_p)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def test_conjugate_distributes_over_compose():
    rng = np.random.default_rng(25)
    for _ in range(15):
        d = int(rng.integers(1, 4))
        J = rand_valid_conjugation(rng, d)
        S1, S2 = rand_symbol(rng, d), rand_symbol(rng, d)
        lhs = conjugate_by_J(compose(S1, S2), J)
        rhs = compose(conjugate_by_J(S1, J), conjugate_by_J(S2, J))
        assert symbols_equal(lhs, rhs, 1e-9)


def test_conjugate_twisted_family_closed_form():
    # For phi(x) = (A* Q^t A) x + p with the matching exponent vector, the
    # twisted operator has symbol (conj(theta) e^{<conj(b), p-q>}, q, Q*, delta),
    # delta = A* conj(p) + conj(b) - Q* conj(b).
    rng = np.random.default_rng(26)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        J = rand_valid_conjugation(rng, d)
        A, b = J.A, J.b
        Q = crandn(rng, d, d)
        p, q = crandn(rng, d), crandn(rng, d)
        theta = crandn(rng)
        H = adj(A) @ Q.T @ A
        ell = adj(A) @ np.conj(q) + np.conj(b) + adj(A) @ np.conj(Q) @ b
        delta = adj(A) @ np.conj(p) + np.conj(b) - adj(Q) @ np.conj(b)
        got = conjugate_by_J(WcSymbol(theta, ell, H, p), J)
        theta_out = np.conj(theta) * np.exp(pairing(np.conj(b), p - q))
        want = WcSymbol(theta_out, q, adj(Q), delta)
        assert symbols_equal(got, want, 1e-10)


def test_j_adjoint_fixed_point_examples():
    # J = (I,0,1), S = (theta, conj(q), Q, q) is its own J-adjoint
    J = identity_conjugation(1)
    S = WcSymbol(2 + 1j, [1 - 1j], [[0.5j]], [1 + 1j])
    assert symbols_equal(j_adjoint_symbol(S, J), S, 1e-12)

    eye = identity_symbol(2)
    anyJ = rand_valid_conjugation(np.random.default_rng(27), 2)
    assert symbols_equal(j_adjoint_symbol(eye, anyJ), eye, 1e-12)


def involution_defect(J, F):
    """Termwise distance between J(J F) and F.

    Both sides are explicit finite combinations, so comparing coefficients
    and points is exact; a Gram-matrix norm of the difference would bottom
    out at sqrt(eps) from cancellation and mask the actual defect.
    """
    from fockwc import apply_conjugation

    FF = apply_conjugation(J, apply_conjugation(J, F))
    worst = 0.0
    for t_in, t_out in zip(F.terms, FF.terms):
        scale = 1.0 + abs(t_in.coeff) + float(np.linalg.norm(t_in.point))
        dev = abs(t_out.coeff - t_in.coeff) + float(
            np.linalg.norm(t_out.point - t_in.point)
        )
        worst = max(worst, dev / scale)
    return worst


def test_isometry_and_involution_on_kernel_combos():
    rng = np.random.default_rng(28)
    for _ in range(15):
        d = int(rng.integers(1, 4))
        J = rand_valid_conjugation(rng, d)
        F = rand_kernel_combo(rng, d, 4)
        G = rand_kernel_combo(rng, d, 4)
        JF, JG = apply_conjugation(J, F), apply_conjugation(J, G)
        lhs, rhs = inner(JF, JG), inner(G, F)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))
        assert involution_defect(J, F) <= 1e-10


def test_find_conjugation_real_symmetric_scalar_example():
    S = WcSymbol(2.0, [1 + 1j], [[0.5]], [1 + 1j])
    J = find_conjugation_real_symmetric(S)
    assert abs(J.A[0, 0] + 1j) < 1e-12
    assert np.all(J.b == 0) and J.c == 1.0
    # ell = conj(A q)
    assert abs(np.conj(J.A[0, 0] * (1 + 1j)) - (1 + 1j)) < 1e-12
    ok, _ = validate(J, 1e-12)
    assert ok
    ok, _ = check_J_selfadjoint(S, J, 1e-12)
    assert ok


def test_find_conjugation_real_symmetric_zero_q():
    S = WcSymbol(1.5, np.zeros(2), np.diag([0.3, -0.4]), np.zeros(2))
    J = find_conjugation_real_symmetric(S)
    assert np.allclose(J.A, np.eye(2))


def test_find_conjugation_real_symmetric_random():
    rng = np.random.default_rng(29)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        S = rand_real_symmetric_symbol(rng, d, skew=bool(rng.integers(0, 2)))
        J = find_conjugation_real_symmetric(S)
        ok, res = validate(J, 1e-9)
        assert ok, res
        ok, res = check_J_selfadjoint(S, J, 1e-9)
        assert ok, res
        AQ = J.A @ S.Q
        assert op_norm(AQ.T - AQ) < 1e-10


def test_find_conjugation_not_applicable():
    with pytest.raises(NotApplicableError):
        find_conjugation_real_symmetric(WcSymbol(1 + 1j, [0.3], [[0.5]], [0.9]))
    with pytest.raises(NotApplicableError):
        find_conjugation_normal(WcSymbol(1.0, [0.0], [[2.0]], [0.0]))


def test_find_conjugation_normal_scalar_example():
    # (1, i, i, 1): alpha = -pi/4 so A = e^{-i pi/2} = -i; ell = conj(Aq) = i
    S = WcSymbol(1.0, [1j], [[1j]], [1.0])
    J = find_conjugation_normal(S)
    assert abs(J.A[0, 0] + 1j) < 1e-12
    ok, _ = check_J_selfadjoint(S, J, 1e-12)
    assert ok


def test_find_conjugation_normal_unitary_diagonal_zero_q():
    S = WcSymbol(1.0, np.zeros(2), np.diag([1j, -1j]), np.zeros(2))
    J = find_conjugation_normal(S)
    assert np.allclose(J.A, np.eye(2), atol=1e-12)


def test_find_conjugation_normal_fixed_eigenvalue_needs_pairing():
    # Q = 1, q = 1, ell = i is in the class but a zero phase on the fixed
    # eigenspace would fail; the construction must return A = -i.
    S = WcSymbol(1.0, [1j], [[1.0]], [1.0])
    J = find_conjugation_normal(S)
    ok, res = check_J_selfadjoint(S, J, 1e-10)
    assert ok, res
    assert abs(J.A[0, 0] + 1j) < 1e-10


def test_find_conjugation_normal_random():
    rng = np.random.default_rng(30)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        S = rand_normal_bounded_symbol(
            rng,
            d,
            with_fixed_eig=bool(rng.integers(0, 2)),
            with_repeats=bool(rng.integers(0, 2)),
        )
        J = find_conjugation_normal(S)
        ok, res = validate(J, 1e-9)
        assert ok, res
        ok, res = check_J_selfadjoint(S, J, 1e-9)
        assert ok, res


def test_construction_deterministic():
    rng = np.random.default_rng(31)
    S = rand_real_symmetric_symbol(rng, 3)
    J1 = find_conjugation_real_symmetric(S)
    J2 = find_conjugation_real_symmetric(S)
    assert np.array_equal(J1.A, J2.A)
    Sn = rand_normal_bounded_symbol(rng, 3, with_fixed_eig=True)
    K1 = find_conjugation_normal(Sn)
    K2 = find_conjugation_normal(Sn)
    assert np.array_equal(K1.A, K2.A)


def test_conjugation_json_round_trip():
    rng = np.random.default_rng(32)
    J = rand_valid_conjugation(rng, 2)
    J2 = ConjugationParams.from_json(J.to_json())
    assert np.array_equal(J.A, J2.A) and np.array_equal(J.b, J2.b)
    assert J.c == J2.c


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in (1, 2, 5) for k in sorted({0, 1, 2, n}) if k <= n]
)
def test_complete_unitary_extends_orthonormal_columns(n, k):
    from fockwc.conjugation import _complete_unitary
    from helpers import rand_unitary

    cols = list(rand_unitary(np.random.default_rng(10 * n + k), n)[:, :k].T)
    G = _complete_unitary(cols, n)
    assert G.shape == (n, n)
    assert op_norm(adj(G) @ G - np.eye(n)) <= 1e-13
    assert op_norm(G @ adj(G) - np.eye(n)) <= 1e-13
    for j, c in enumerate(cols):
        assert np.array_equal(G[:, j], c)


def test_find_conjugation_normal_overflow_names_the_commutator():
    S = WcSymbol(1.0, [1e307], [[1e307]], [1e307])
    with pytest.raises(ValueError, match=r"Q Q\* - Q\* Q contains non-finite entries"):
        find_conjugation_normal(S)


def test_validate_overflow_names_the_unitarity_defect():
    # A A* overflows at A = [[1e200]]: a named ValueError, not a RuntimeWarning
    with pytest.raises(ValueError, match=r"A A\* - I contains non-finite entries"):
        validate(ConjugationParams([[1e200]], [0.0], 1.0))
