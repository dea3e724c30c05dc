import math

import numpy as np
import pytest

from fockwc import (
    DegreeCapError,
    KernelCombo,
    PreconditionError,
    WcSymbol,
    adjoint_defect,
    adjoint_symbol,
    apply_conjugation,
    apply_symbol,
    combo_norm,
    compose,
    cross_check,
    exp_tail,
    find_conjugation_real_symmetric,
    identity_conjugation,
    identity_symbol,
    inner,
    j_symmetry_defect,
    kernel_coeff_vector,
    pairing,
    pairing_defect,
    poly_coeff_vector,
    trunc_conjugation_matrix,
    trunc_symbol_matrix,
)
from fockwc import oracle
from fockwc.oracle import MAX_TRUNC_BASIS, _tables
from fockwc.polynomials import MPoly
from helpers import (
    combo_termwise_dev,
    crandn,
    large_scale_symbol,
    rand_j_selfadjoint_pair,
    rand_kernel_combo,
    rand_points,
    rand_symbol,
    rand_unitary,
    rand_valid_conjugation,
    ref_j_symmetry_defect,
    ref_pairing_defect,
    ref_wc_section,
)


def _combo(d, *pairs):
    return KernelCombo.from_pairs(d, pairs)


def test_inner_examples():
    K0 = _combo(1, (1.0, [0.0]))
    assert abs(inner(K0, K0) - 1.0) < 1e-15

    K1 = _combo(1, (1.0, [1.0]))
    gram = np.array(
        [[inner(a, b) for b in (K0, K1)] for a in (K0, K1)]
    )
    assert np.allclose(gram, [[1.0, 1.0], [1.0, math.e]])


def test_inner_hermitian_symmetry():
    rng = np.random.default_rng(50)
    for _ in range(15):
        d = int(rng.integers(1, 4))
        F, G = rand_kernel_combo(rng, d, 3), rand_kernel_combo(rng, d, 3)
        assert abs(inner(F, G) - np.conj(inner(G, F))) <= 1e-12 * (
            1 + abs(inner(F, G))
        )


def test_gram_positive_definite():
    rng = np.random.default_rng(51)
    for d in (1, 2, 3):
        pts = []
        while len(pts) < 8:
            z = crandn(rng, d)
            nz = np.linalg.norm(z)
            if nz > 2.0:
                z *= 2.0 / nz
            if all(np.linalg.norm(z - p) > 0.3 for p in pts):
                pts.append(z)
        combos = [_combo(d, (1.0, p)) for p in pts]
        gram = np.array([[inner(a, b) for b in combos] for a in combos])
        np.linalg.cholesky(gram)  # raises if not positive definite


def test_apply_symbol_identity_and_linearity():
    rng = np.random.default_rng(52)
    F = rand_kernel_combo(rng, 2, 4)
    assert combo_termwise_dev(apply_symbol(identity_symbol(2), F), F) < 1e-12

    S = rand_symbol(rng, 2)
    G = rand_kernel_combo(rng, 2, 3)
    a, b = crandn(rng), crandn(rng)
    lhs = apply_symbol(S, F.scale(a) + G.scale(b))
    rhs = apply_symbol(S, F).scale(a) + apply_symbol(S, G).scale(b)
    assert combo_termwise_dev(lhs, rhs) <= 1e-10


def test_apply_symbol_single_kernel():
    S = WcSymbol(1.0, [2.0], [[1j]], [1.0])
    out = apply_symbol(S, _combo(1, (1.0, [0.0])))
    assert len(out.terms) == 1
    assert abs(out.terms[0].coeff - 1.0) < 1e-15
    assert abs(out.terms[0].point[0] - 2.0) < 1e-15


def test_apply_conjugation_coordinate_case():
    rng = np.random.default_rng(53)
    F = rand_kernel_combo(rng, 2, 3)
    out = apply_conjugation(identity_conjugation(2), F)
    for t_in, t_out in zip(F.terms, out.terms):
        assert abs(t_out.coeff - np.conj(t_in.coeff)) < 1e-15
        assert np.allclose(t_out.point, np.conj(t_in.point))


def test_adjoint_defect_identity_and_random():
    rng = np.random.default_rng(54)
    pts = rand_points(rng, 2, 4, radius=1.0)
    assert adjoint_defect(identity_symbol(2), pts) < 1e-12
    for _ in range(20):
        d = int(rng.integers(1, 4))
        S = rand_symbol(rng, d)
        assert adjoint_defect(S, rand_points(rng, d, 6, radius=1.0)) <= 1e-9


def test_adjoint_defect_sensitivity():
    rng = np.random.default_rng(55)
    S = rand_symbol(rng, 2)
    pts = rand_points(rng, 2, 6, radius=1.0)
    wrong = adjoint_symbol(WcSymbol(S.theta, S.ell + 0.1, S.Q, S.q))
    assert pairing_defect(S, wrong, pts) > 1e-3


def test_j_symmetry_defect_cases():
    rng = np.random.default_rng(56)
    J = rand_valid_conjugation(rng, 2)
    pts = rand_points(rng, 2, 8, radius=1.0)
    assert j_symmetry_defect(identity_symbol(2), J, pts) < 1e-12

    S, J2 = rand_j_selfadjoint_pair(rng, 2)
    pts2 = rand_points(rng, 2, 8, radius=1.0)
    assert j_symmetry_defect(S, J2, pts2) <= 1e-9
    bad = WcSymbol(S.theta, S.ell + 0.1, S.Q, S.q)
    assert j_symmetry_defect(bad, J2, pts2) > 1e-3


def test_defects_match_per_pair_reference():
    # near-zero inputs (true adjoint, J-selfadjoint pair) and sensitivity
    # inputs (ell perturbed) against the plain per-pair formulas, which pins
    # the 1 + max|lhs| scale of both defects
    rng = np.random.default_rng(61)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        pts = rand_points(rng, d, 6, radius=1.0)
        S = rand_symbol(rng, d)
        wrong = adjoint_symbol(WcSymbol(S.theta, S.ell + 0.1, S.Q, S.q))
        S2, J = rand_j_selfadjoint_pair(rng, d)
        bad = WcSymbol(S2.theta, S2.ell + 0.1, S2.Q, S2.q)
        cases = [
            (pairing_defect, ref_pairing_defect, S, adjoint_symbol(S), False),
            (pairing_defect, ref_pairing_defect, S, wrong, True),
            (j_symmetry_defect, ref_j_symmetry_defect, S2, J, False),
            (j_symmetry_defect, ref_j_symmetry_defect, bad, J, True),
        ]
        for defect, reference, X, Y, sensitive in cases:
            got, want = defect(X, Y, pts), reference(X, Y, pts)
            assert (want > 1e-3) if sensitive else (want < 1e-12)
            assert abs(got - want) <= 1e-12 * want + 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [1, 2, 3])
def test_defects_finite_past_exp_overflow(d):
    # ||ell|| = ||q|| = 300 and |<q, w>| = 900: e^{<q, w>} overflows, the
    # relative defects do not
    S, pts = large_scale_symbol(np.random.default_rng(62 + d), d)
    assert abs(pairing(S.q, pts[0])) > 709
    J = find_conjugation_real_symmetric(S)
    for value in (adjoint_defect(S, pts), j_symmetry_defect(S, J, pts)):
        assert math.isfinite(value) and value <= 1e-9


@pytest.mark.filterwarnings("error")
def test_overflowing_kernel_image_raises():
    pts = [[1e308], [0.0]]
    S = WcSymbol(1.0, [0.0], [[10.0]], [0.0])  # image point 1e309
    with pytest.raises(ValueError):
        adjoint_defect(S, pts)
    with pytest.raises(ValueError):
        j_symmetry_defect(S, identity_conjugation(1), pts)
    S = WcSymbol(1.0, [0.0], [[1.0]], [10.0])  # exponent <q, w> = 1e309
    with pytest.raises(ValueError):
        adjoint_defect(S, pts)


def test_trunc_symbol_matrix_identity():
    T = trunc_symbol_matrix(identity_symbol(2), 5)
    assert np.allclose(T.matrix, np.eye(len(T.indices)), atol=1e-14)


def test_trunc_symbol_matrix_diagonal():
    c = 0.4 - 0.6j
    T = trunc_symbol_matrix(WcSymbol(1.0, [0.0], [[c]], [0.0]), 8)
    assert np.allclose(T.matrix, np.diag(c ** np.arange(9)), atol=1e-13)


def test_trunc_symbol_matrix_multiplication_column():
    # pure multiplication symbol (1, l, 1, 0): entries
    # sqrt(m!/n!) conj(l)^{m-n}/(m-n)! below the diagonal (series by hand)
    l = 0.4 + 0.2j
    T = trunc_symbol_matrix(WcSymbol(1.0, [l], [[1.0]], [0.0]), 8).matrix
    want = np.zeros((9, 9), dtype=complex)
    for m in range(9):
        for n in range(m + 1):
            want[m, n] = (
                math.sqrt(math.factorial(m) / math.factorial(n))
                * np.conj(l) ** (m - n)
                / math.factorial(m - n)
            )
    assert np.max(np.abs(T - want)) < 1e-13


def test_trunc_conjugation_matrix_cases():
    T = trunc_conjugation_matrix(identity_conjugation(2), 4)
    assert np.allclose(T.matrix, np.eye(len(T.indices)), atol=1e-14)

    from fockwc import ConjugationParams

    Tm = trunc_conjugation_matrix(ConjugationParams([[-1j]], [0.0], 1.0), 6)
    assert np.allclose(np.diag(Tm.matrix), (-1j) ** np.arange(7), atol=1e-14)
    # J z^n = (-i z)^n includes coefficient conjugation on input
    v = np.zeros(7, dtype=complex)
    v[2] = 1j
    out = Tm.apply(v)
    assert abs(out[2] - np.conj(1j) * (-1j) ** 2) < 1e-14


def test_trunc_conjugation_involution_low_degree():
    rng = np.random.default_rng(57)
    for _ in range(5):
        J = rand_valid_conjugation(rng, 2, with_b=True, b_scale=0.02)
        T = trunc_conjugation_matrix(J, 8)
        deg = _tables(2, 8).degree
        v = np.where(deg <= 4, crandn(rng, len(deg)), 0.0)
        err = np.linalg.norm((T.apply(T.apply(v)) - v)[deg <= 4])
        assert err <= 1e-8 * (1 + np.linalg.norm(v))


def test_trunc_degree_cap():
    with pytest.raises(DegreeCapError):
        trunc_symbol_matrix(identity_symbol(1), 25)


def test_trunc_basis_cap_refuses_before_building():
    d, N = 12, 12  # n = C(24, 12) = 2704156 monomials, below the degree cap
    assert math.comb(N + d, d) == 2704156 > MAX_TRUNC_BASIS
    with pytest.raises(DegreeCapError, match="basis size 2704156"):
        _tables(d, N)
    assert (d, N) not in oracle._TABLES


@pytest.mark.parametrize("d, N", [(3, 5), (2, 9)])
def test_full_sections_match_mpoly_reference(d, N):
    rng = np.random.default_rng(61 + d)
    S = rand_symbol(rng, d)
    assert min(abs(S.theta), *np.abs(S.ell), *np.abs(S.Q).ravel(), *np.abs(S.q)) > 0
    want = ref_wc_section(S.theta, np.conj(S.ell), S.Q, S.q, N)
    got = trunc_symbol_matrix(S, N).matrix
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    J = rand_valid_conjugation(rng, d, with_b=True)
    want = ref_wc_section(J.c, J.b, J.A, J.b, N)
    got = trunc_conjugation_matrix(J, N).matrix
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_kernel_coeff_vector_examples():
    v = kernel_coeff_vector(np.zeros(2), 3)
    assert v[0] == 1.0 and np.all(v[1:] == 0.0)

    v = kernel_coeff_vector([1.0], 2)
    assert np.allclose(v, [1.0, 1.0, 1.0 / math.sqrt(2)])


def test_kernel_coeff_vector_tail_bound():
    rng = np.random.default_rng(58)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        w, z = crandn(rng, d, scale=0.6), crandn(rng, d, scale=0.6)
        N = 10
        # sum_a z^a conj(w)^a / a! truncated at N approximates e^{<z,w>}
        got = np.vdot(kernel_coeff_vector(z, N), kernel_coeff_vector(w, N))
        want = np.exp(pairing(z, w))
        tail = exp_tail(
            float(np.linalg.norm(w)) * float(np.linalg.norm(z)), N
        )
        assert abs(got - want) <= tail + 1e-14


def test_poly_coeff_vector_round_trip():
    f = MPoly(2, {(1, 1): 2.0, (0, 0): 1.0})
    v = poly_coeff_vector(f, 3)
    tab = _tables(2, 3)
    assert v[tab.pos[(0, 0)]] == 1.0
    assert abs(v[tab.pos[(1, 1)]] - 2.0 * math.sqrt(1.0)) < 1e-15
    with pytest.raises(ValueError):
        poly_coeff_vector(MPoly(2, {(3, 1): 1.0}), 3)


def test_cross_check_identity_and_random():
    assert cross_check(identity_symbol(2), [0.1, 0.05], 8) < 1e-12
    S = WcSymbol(1.0, [0.3], [[0.5]], [0.2])
    assert cross_check(S, [0.4], 12) <= 1e-8


def test_cross_check_detects_wrong_kernel_action():
    S = WcSymbol(1.0, [0.3], [[0.5]], [0.2])
    w = [0.4]
    N = 12
    T = trunc_symbol_matrix(S, N)
    kv = kernel_coeff_vector(w, N)
    coeff = S.theta * np.exp(pairing(S.q, w))
    wrong_point = np.conj(S.Q).T @ np.asarray(w, dtype=complex)  # ell dropped
    wrong = coeff * kernel_coeff_vector(wrong_point, N)
    deg = _tables(1, N).degree
    resid = np.linalg.norm((T.apply(kv) - wrong)[deg <= N // 2])
    assert resid > 1e-2


def test_cross_check_tail_precondition():
    S = WcSymbol(1.0, [2.0], [[3.0]], [2.0])
    with pytest.raises(PreconditionError):
        cross_check(S, [2.0], 8)


def test_trunc_compose_exact_for_zero_ell():
    rng = np.random.default_rng(59)
    d, N = 2, 8
    S1 = WcSymbol(crandn(rng), np.zeros(d), 0.5 * rand_unitary(rng, d), crandn(rng, d, scale=0.3))
    S2 = WcSymbol(crandn(rng), np.zeros(d), 0.6 * rand_unitary(rng, d), crandn(rng, d, scale=0.3))
    lhs = trunc_symbol_matrix(compose(S1, S2), N).matrix
    rhs = trunc_symbol_matrix(S1, N).matrix @ trunc_symbol_matrix(S2, N).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_trunc_adjoint_exact_for_graded():
    rng = np.random.default_rng(60)
    d, N = 2, 8
    S = WcSymbol(crandn(rng), np.zeros(d), 0.8 * rand_unitary(rng, d), np.zeros(d))
    lhs = trunc_symbol_matrix(adjoint_symbol(S), N).matrix
    rhs = np.conj(trunc_symbol_matrix(S, N).matrix).T
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_kernel_combo_json_round_trip():
    F = KernelCombo.from_pairs(2, [(1 + 2j, [0.1, 0.2j]), (-0.5, [0.3, 0.0])])
    F2 = KernelCombo.from_json(F.to_json())
    assert combo_norm(F - F2) < 1e-15
