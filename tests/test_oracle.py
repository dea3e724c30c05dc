import math
import warnings

import numpy as np
import pytest

from fockwc import (
    ConjugationParams,
    DegreeCapError,
    KernelCombo,
    PreconditionError,
    WcSymbol,
    adjoint_defect,
    adjoint_symbol,
    apply_conjugation,
    apply_symbol,
    compose,
    cross_check,
    find_conjugation_real_symmetric,
    identity_conjugation,
    inner,
    j_symmetry_defect,
    kernel_coeff_vector,
    pairing,
    pairing_defect,
    trunc_conjugation_matrix,
    trunc_symbol_matrix,
)
from fockwc import conjugation, oracle
from fockwc.oracle import MAX_TRUNC_BASIS, _tables, exp_tail, poly_coeff_vector
from fockwc.polynomials import MPoly
from fockwc.symbols import act_on_kernel, act_on_kernels, identity_symbol
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
    ref_apply_conjugation,
    ref_apply_symbol,
    ref_conjugation_kernels,
    ref_combo_value,
    ref_j_symmetry_defect,
    ref_column_section,
    ref_pairing_defect,
    ref_relative_defect,
    ref_stack_points,
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


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_kernel_combo_batch_calls_match_the_termwise_reference(d):
    rng = np.random.default_rng(70 + d)
    for m in (0, 1, 2, 6, 32):
        F = rand_kernel_combo(rng, d, m)
        S, J = rand_symbol(rng, d), rand_valid_conjugation(rng, d)
        assert combo_termwise_dev(apply_symbol(S, F), ref_apply_symbol(S, F)) <= 1e-15
        assert combo_termwise_dev(apply_conjugation(J, F), ref_apply_conjugation(J, F)) <= 1e-15
        x = crandn(rng, d)
        scale = 1.0 + sum(abs(t(x)) for t in F.terms)
        assert abs(F(x) - ref_combo_value(F, x)) <= 1e-15 * scale


# valid J for d = 1: A = -1 makes A conj(b) + b = 0 for real b, and
# |c|^2 e^{b^2} = 1; at b = 30, w = 40 the coefficient c e^{<b, conj w>} =
# e^-450 e^1200 = e^750 overflows (at w = 30 it is e^450, an ordinary double)
_FAR_J = ConjugationParams([[-1.0]], [30.0], math.exp(-450.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: apply_symbol(WcSymbol(1.0, [0.0], [[1.0]], [30.0]), _combo(1, (1.0, [30.0]))),
        lambda: apply_symbol(WcSymbol(1.0, [0.0], [[1.0]], [50.0]), _combo(1, (1e300, [1.0]))),
        lambda: apply_conjugation(_FAR_J, _combo(1, (1.0, [0.0]), (1.0, [40.0]))),
        lambda: _combo(1, (1.0, [30.0]))([30.0]),
        lambda: _combo(1, (1e300, [1.0]), (1.0, [0.0]))([50.0]),
    ],
    ids=["symbol-exponent", "symbol-product", "conjugation-exponent", "value-exponent",
         "value-product"],
)
def test_kernel_combo_overflow_raises_without_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            call()


@pytest.mark.parametrize(
    "coeffs, points, message",
    [
        (np.ones(3), np.zeros((2, 3)), "shapes"),  # reshaped to (3, 2) it would fit
        (np.ones(2), np.zeros((3, 2)), "shapes"),
        (np.ones((2, 1)), np.zeros((2, 2)), "shapes"),
        (np.ones(2), np.zeros(4), "shapes"),
        (np.array([1.0, np.nan]), np.zeros((2, 2)), "coefficients are not finite"),
        (np.ones(2), np.array([[0.0, 0.0], [np.inf, 0.0]]), "points are not finite"),
    ],
    ids=["transposed", "lengths", "coeff-2d", "points-1d", "nan", "inf"],
)
def test_kernel_combo_constructor_rejects(coeffs, points, message):
    with pytest.raises(ValueError, match=message):
        KernelCombo(2, coeffs, points)


@pytest.mark.parametrize("d", [0, -1])
@pytest.mark.parametrize("terms", [[], [{"coeff": [1.0, 0.0], "point": [[0.5, 0.0]]}]])
def test_kernel_combo_from_json_rejects_dimension_first(d, terms):
    with pytest.raises(ValueError, match="dimension must be positive"):
        KernelCombo.from_json({"d": d, "terms": terms})


def test_empty_kernel_combo():
    F = KernelCombo(2, np.zeros(0), np.zeros((0, 2)))
    G = KernelCombo.from_json(F.to_json())
    assert F.to_json() == {"d": 2, "terms": []}
    assert G.points.shape == (0, 2) and G.terms == ()
    assert inner(G, G) == 0 and inner(G, _combo(2, (1.0, [0.5, 0.5]))) == 0
    assert G([1.0, 2.0]) == 0


def test_apply_conjugation_validates_j_once(monkeypatch):
    calls = []
    validate = conjugation.validate

    def counting(J, tol=1e-9):
        calls.append(J)
        return validate(J, tol)

    monkeypatch.setattr(conjugation, "validate", counting)
    rng = np.random.default_rng(76)
    J = rand_valid_conjugation(rng, 2)
    apply_conjugation(J, rand_kernel_combo(rng, 2, 6))
    assert len(calls) == 1


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


def _reference_defects(S, T, J, points):
    """pairing_defect(S, T) and j_symmetry_defect(S, J) by the formula with
    one exponential per side, on the same Gram exponents."""
    Z = ref_stack_points(points, S.dim)
    a_S, P_S = act_on_kernels(S, Z)
    a_T, P_T = act_on_kernels(T, Z)
    a_J, P_J = ref_conjugation_kernels(J, Z)
    E = oracle._log_gram(a_S, P_S, a_J, P_J)
    coeff = S.theta * np.conj(J.c)
    return (
        ref_relative_defect(
            S.theta, oracle._log_gram(a_S, P_S, 0.0, Z),
            np.conj(T.theta), oracle._log_gram(0.0, Z, a_T, P_T),
        ),
        ref_relative_defect(coeff, E, coeff, E.T),
    )


def test_defects_equal_the_two_exponential_formula():
    # one shared Gram exponential gives the same bits as one per side: on
    # near-zero, sensitive and past-overflow inputs
    rng = np.random.default_rng(63)
    for k in range(60):
        d = int(rng.integers(1, 6))
        if k % 3 == 2:
            S, pts = large_scale_symbol(rng, d)
            J = find_conjugation_real_symmetric(S)
        else:
            S, J = rand_j_selfadjoint_pair(rng, d)
            pts = rand_points(rng, d, 8, radius=1.0)
            if k % 3 == 1:
                S = WcSymbol(S.theta, S.ell + 0.1, S.Q, S.q)
        for T in (adjoint_symbol(S), rand_symbol(rng, d)):
            got = (pairing_defect(S, T, pts), j_symmetry_defect(S, J, pts))
            assert got == _reference_defects(S, T, J, pts)


def _well_formed_points():
    rng = np.random.default_rng(64)
    arrays = [crandn(rng, 3) for _ in range(5)]
    return {
        "arrays": (arrays, 3),
        "lists": ([[complex(x) for x in a] for a in arrays], 3),
        "ndarray": (np.array(arrays), 3),
        "real lists": ([[1, 2.5], [0, -1], [3, 4]], 2),
        "scalars at d = 1": ([0.5, 1j, -2.0], 1),
        "one-entry arrays at d = 1": ([np.array([0.5]), np.array([1j])], 1),
        "two points": (arrays[:2], 3),
    }


@pytest.mark.parametrize("name", list(_well_formed_points()))
def test_stack_points_equals_the_per_point_loop(name):
    points, d = _well_formed_points()[name]
    got = oracle._stack_points(points, d)
    want = ref_stack_points(points, d)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # a generator is read once, point by point
    assert np.array_equal(oracle._stack_points(iter(list(points)), d), want)


_MALFORMED_POINTS = {
    "ragged": lambda: ([[1.0, 2.0], [3.0]], 2),
    "wrong length": lambda: ([[1.0, 2.0], [3.0, 4.0]], 3),
    "one point": lambda: ([[1.0, 2.0]], 2),
    "zero points": lambda: ([], 2),
    "empty point": lambda: ([[], []], 2),
    "nan entry": lambda: ([[1.0, math.nan], [3.0, 4.0]], 2),
    "inf entry": lambda: ([[1.0, 2.0], [3.0, math.inf]], 2),
    "none entry": lambda: ([[1.0, None], [3.0, 4.0]], 2),
    "non-numeric entry": lambda: ([[1.0, "x"], [3.0, 4.0]], 2),
    "dict point": lambda: ([{"a": 1}, {"b": 2}], 1),
    "huge integer": lambda: ([[10 ** 400, 0], [0, 0]], 2),
    "nested point": lambda: ([[[1.0, 2.0]], [[3.0, 4.0]]], 2),
    "scalar": lambda: (5.0, 1),
    "generator": lambda: ((p for p in ([1.0, 2.0], [3.0, math.nan])), 2),
    "generator of one": lambda: ((p for p in ([1.0, 2.0],)), 2),
}


@pytest.mark.parametrize("name", list(_MALFORMED_POINTS))
def test_stack_points_errors_equal_the_per_point_loop(name):
    make = _MALFORMED_POINTS[name]
    with pytest.raises(Exception) as want:
        ref_stack_points(*make())
    with pytest.raises(Exception) as got:
        oracle._stack_points(*make())
    assert got.type is want.type and str(got.value) == str(want.value)


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


@pytest.mark.parametrize(
    "d, N", [(1, 12), (2, 12), (3, 10), (3, 16), (4, 12), (5, 10), (2, 0), (3, 1)]
)
@pytest.mark.parametrize("zeros", [False, True], ids=["generic", "diagonal"])
def test_row_bounded_section_is_graded_prefix(d, N, zeros):
    rng = np.random.default_rng(71 + 10 * d + N)
    S = rand_symbol(rng, d, scale=0.3)
    B = np.diag(np.diag(S.Q)) if zeros else S.Q
    args = (S.theta, np.conj(S.ell), B, S.q, N)
    full = oracle._wc_section(*args)
    degree = _tables(d, N).degree
    for m in {0, N // 2, N}:
        block = oracle._wc_section(*args, rows=m)
        assert np.array_equal(block, full[:np.count_nonzero(degree <= m)])


@pytest.mark.parametrize(
    "d, N",
    [(1, 3), (2, 3), (1, 12), (2, 12), (3, 10), (3, 12), (4, 10), (4, 12), (5, 10),
     (2, 0), (2, 1), (3, 5)],
)
@pytest.mark.parametrize("kind", ["generic", "diagonal", "zero_column"])
def test_section_equals_column_loop_reference(d, N, kind):
    # rows in {0, N//2, N} put (4,10), (4,12) and (5,10) in full on the
    # column side of LAYERED_MAX_ROWS and every other build on the run side
    rng = np.random.default_rng(81 + 10 * d + N)
    S = rand_symbol(rng, d, scale=0.3)
    B = S.Q.copy()
    if kind == "diagonal":
        B = np.diag(np.diag(B))
    elif kind == "zero_column":
        B[:, 0] = 0
    args = (S.theta, np.conj(S.ell), B, S.q, N)
    for m in {0, N // 2, N}:
        assert np.array_equal(oracle._wc_section(*args, rows=m), ref_column_section(*args, rows=m))


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


@pytest.mark.parametrize("N", [9, 12])
def test_cross_check_equals_full_section_formula(N):
    S = WcSymbol(0.8 - 0.3j, [0.1, -0.05j], [[0.3, 0.1j], [-0.2, 0.25]], [0.05, 0.1j])
    w = np.array([0.2, -0.1 + 0.1j])
    img = act_on_kernel(S, w)
    rhs = img.coeff * kernel_coeff_vector(img.point, N)
    lhs = trunc_symbol_matrix(S, N).apply(kernel_coeff_vector(w, N))
    deg = _tables(2, N).degree
    want = float(np.linalg.norm((lhs - rhs)[deg <= N // 2]))
    assert cross_check(S, w, N) == want


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


def test_cross_check_overflowing_weight_fails_precondition():
    # e^{sqrt(d) ||ell||} = e^800 overflows, so the tail bound is inf
    S = WcSymbol(1.0, [800.0], [[0.5]], [0.2])
    with pytest.raises(PreconditionError, match=r"^truncation tail bound inf "):
        cross_check(S, [0.1], 8)


def test_exp_tail_overflow_is_inf():
    assert exp_tail(1e200, 12) == math.inf


def test_cross_check_overflowing_point_fails_precondition():
    S = WcSymbol(1.0, [0.3], [[0.5]], [0.2])
    with pytest.raises(PreconditionError, match="tail bound inf"):
        cross_check(S, [1e200], 12)


def test_kernel_coeff_vector_overflow_raises():
    with pytest.raises(ValueError, match="kernel coefficient vector is not finite"):
        kernel_coeff_vector([1e30], 24)


@pytest.mark.parametrize(
    "S",
    [WcSymbol(1.0, [1e30], [[0.5]], [0.2]), WcSymbol(1e300, [1.0], [[4.0]], [4.0])],
    ids=["ell", "theta"],
)
def test_trunc_symbol_matrix_overflow_raises(S):
    with pytest.raises(ValueError, match="truncated section is not finite"):
        trunc_symbol_matrix(S, 12)


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
    assert abs(inner(F - F2, F - F2)) < 1e-30


def test_inner_overflow_raises():
    # <K_30, K_30> = e^900 is past exp's limit at 709
    F = KernelCombo.from_pairs(1, [(1.0, [30.0])])
    with pytest.raises(ValueError, match="inner product is not finite"):
        inner(F, F)
