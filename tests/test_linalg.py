import cmath
import math

import numpy as np
import pytest

from fockwc import PreconditionError
from fockwc.linalg import (
    _EXPM_MAX_TERMS,
    _default_group_tol,
    _eigenvalue_groups,
    _op_norms,
    _residual_norms,
    _scaling_power,
    _taylor_degree,
    adj,
    as_matrix,
    expm,
    herm_eig,
    normal_eig,
    op_norm,
    phi12,
)
from helpers import (
    SPECTRUM_KINDS,
    crandn,
    rand_spectrum,
    rand_unitary,
    ref_cluster_complex,
    ref_taylor_expm,
)


def test_expm_zero_is_identity():
    assert np.allclose(expm(np.zeros((2, 2))), np.eye(2), atol=1e-15)


def test_expm_scalar():
    assert abs(expm([[1.0]])[0, 0] - math.e) < 1e-14


def test_expm_nilpotent_terminates():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(expm(M), np.array([[1, 1], [0, 1]]), atol=1e-15)


def test_expm_rejects_bad_input():
    with pytest.raises(ValueError):
        expm(np.array([[np.inf, 0], [0, 0]]))
    with pytest.raises(ValueError):
        expm(np.eye(2), tol=0.0)


def test_expm_overflow_raises_without_warning():
    # the suite turns RuntimeWarning into an error, so a leaked overflow
    # warning from the squaring phase would surface instead of ValueError
    with pytest.raises(ValueError, match="not finite"):
        expm([[1000.0]])
    with pytest.raises(ValueError, match="not finite"):
        expm([[1e308, 1e308], [1e308, 1e308]])  # finite entries, 1-norm overflows


# expm against the exact exponential U diag(e^lambda) U* of M = U diag(lambda) U*
# for random unitaries U: rows (Re lambda, the largest |Im lambda|, whether
# expm answers).  The rounding of M's entries alone costs about ||M|| u
# relative error, the condition number of e^M for normal M (Van Loan 1977),
# so an answer is within 2**12 ||M||_1 u of the exact one, beside the
# truncation at tol; from ||M||_1 = 2**50 on, where that scale passes 1/8,
# expm refuses
EXACT_EXPONENTIALS = [
    (0.0, 0.0, True),
    (1.0, 1.0, True),
    (-3.0, 1e2, True),
    (0.5, 1e4, True),
    (0.0, 1e8, True),
    (0.2, 1e12, True),
    (-0.5, 1e14, True),
    (0.768, 2e15, False),
    (0.0, 1e20, False),
]


@pytest.mark.parametrize("re, im, answers", EXACT_EXPONENTIALS)
def test_expm_accuracy_against_exact_exponentials(re, im, answers):
    u, tol = 2.0 ** -53, 1e-13
    for d in (2, 3, 5):
        rng = np.random.default_rng(d)
        for _ in range(10):
            U = rand_unitary(rng, d)
            lam = re + 1j * im * np.linspace(-1.0, 1.0, d)
            M = U @ np.diag(lam) @ adj(U)
            if not answers:
                with pytest.raises(ValueError, match=r"^matrix 1-norm .* is at least 2\*\*50: "):
                    expm(M, tol)
                continue
            exact = U @ np.diag([cmath.exp(x) for x in lam]) @ adj(U)
            err = np.abs(expm(M, tol) - exact).max() / np.abs(exact).max()
            assert err <= tol + 2.0 ** 12 * max(1.0, np.abs(M).sum(axis=0).max()) * u


def test_expm_answers_a_decayed_member_past_the_cut():
    # e^M rounds to zero, and phi1 = -M^-1, phi2 = -M^-2 - M^-1 keep their
    # digits: the augmented matrix is block triangular with a nilpotent block
    rng = np.random.default_rng(11)
    for d in (1, 2, 4):
        for scale in (1e16, 1e100, 1e300):
            M = scale * (0.1 * crandn(rng, d, d) - 2.0 * (1.0 + 0.1 * d) * np.eye(d))
            E, p1, p2 = phi12(M, 1e-13)
            Mi = np.linalg.inv(M)
            assert not E.any()
            assert np.abs(p1 + Mi).max() <= 1e-14 * np.abs(Mi).max()
            assert np.abs(p2 + Mi @ Mi + Mi).max() <= 1e-14 * np.abs(Mi).max()
    assert not expm([[-1e307]]).any()


def test_expm_inverse_identity():
    rng = np.random.default_rng(0)
    tol = 1e-12
    for _ in range(20):
        d = int(rng.integers(1, 5))
        M = crandn(rng, d, d)
        nrm = op_norm(M)
        if nrm > 2.0:
            M *= 2.0 / nrm
        prod = expm(M, tol) @ expm(-M, tol)
        assert op_norm(prod - np.eye(d)) < 10 * tol


def test_expm_semigroup_property():
    rng = np.random.default_rng(1)
    for _ in range(15):
        d = int(rng.integers(1, 4))
        M = crandn(rng, d, d, scale=0.6)
        t, s = rng.uniform(0, 1, 2)
        lhs = expm((t + s) * M)
        rhs = expm(t * M) @ expm(s * M)
        assert op_norm(lhs - rhs) < 1e-12


def test_phi_trivial_values():
    assert np.allclose(phi12(np.zeros((3, 3)))[1], np.eye(3), atol=1e-15)
    assert np.allclose(phi12(np.zeros((3, 3)))[2], 0.5 * np.eye(3), atol=1e-15)
    assert abs(phi12([[1.0]])[1][0, 0] - (math.e - 1.0)) < 1e-14


def test_phi1_nilpotent():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(phi12(M)[1], np.eye(2) + M / 2, atol=1e-15)


def test_phi_identities():
    rng = np.random.default_rng(2)
    for _ in range(15):
        d = int(rng.integers(1, 5))
        M = crandn(rng, d, d)
        _, p1, p2 = phi12(M)
        assert op_norm(M @ p1 + np.eye(d) - expm(M)) < 1e-12 * (1 + op_norm(M))
        assert op_norm(p1 - (np.eye(d) + M @ p2)) < 1e-12


def test_herm_eig_trivial():
    dec = herm_eig(np.eye(2))
    assert np.allclose(dec.eigenvalues, [1, 1])
    assert len(dec.groups) == 1

    dec = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1, 1])
    assert len(dec.groups) == 2


def test_herm_eig_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(10):
        X = crandn(rng, 4, 4)
        M = 0.5 * (X + adj(X))
        dec = herm_eig(M)
        R = dec.unitary @ np.diag(dec.eigenvalues) @ adj(dec.unitary)
        assert op_norm(R - M) < 1e-10 * (1 + op_norm(M))
        assert max(_residual_norms(dec.unitary, "V", "X X* - I", "X* X - I")) <= 1e-10
        # eigenvalues sorted ascending
        assert np.all(np.diff(dec.eigenvalues.real) >= -1e-12)


def test_herm_eig_of_a_matrix_is_that_of_its_hermitian_part():
    # no Hermitian check: herm_eig decomposes (M + M*)/2, bit for bit
    rng = np.random.default_rng(9)
    for M in [np.array([[0.0, 1.0], [0.0, 0.0]])] + [crandn(rng, d, d) for d in (1, 2, 3, 8)]:
        dec, ref = herm_eig(M), herm_eig(0.5 * M + 0.5 * adj(M))
        assert dec.unitary.tobytes() == ref.unitary.tobytes()
        assert dec.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert dec.groups == ref.groups


@pytest.mark.parametrize("kind", SPECTRUM_KINDS)
def test_herm_eig_groups_are_the_runs_within_group_tol(kind):
    # consecutive eigenvalues share a group exactly when their gap is at
    # most the group tolerance
    rng = np.random.default_rng(60 + SPECTRUM_KINDS.index(kind))
    for d in (1, 2, 3, 8, 9):
        U = rand_unitary(rng, d)
        M = U @ np.diag(rand_spectrum(rng, d, kind).real) @ adj(U)
        dec = herm_eig(M)
        w, gtol = dec.eigenvalues.real, _default_group_tol(op_norm(M))
        label = [j for j, g in enumerate(dec.groups) for _ in g]
        assert [i for g in dec.groups for i in g] == list(range(d))
        assert all((label[i] == label[i - 1]) == (w[i] - w[i - 1] <= gtol) for i in range(1, d))


@pytest.mark.parametrize(
    "diag, groups",
    [([1e308, 1e308], ((0, 1),)), ([1e308, -1e308], ((0,), (1,)))],
    ids=["sum-overflows", "gap-overflows"],
)
def test_herm_eig_near_the_overflow_limit(diag, groups):
    # M + M* overflows at the first matrix, the gap 1e308 - (-1e308) at the
    # second; neither may warn
    dec = herm_eig(np.diag(diag))
    assert dec.groups == groups
    assert dec.eigenvalues.real.tolist() == sorted(diag)


def test_normal_eig_diagonal_groups():
    dec = normal_eig(np.diag([1j, 1j, 2.0]))
    sizes = sorted(len(g) for g in dec.groups)
    assert sizes == [1, 2]
    vals = {complex(np.round(dec.group_eigenvalue(j), 9)) for j in range(2)}
    assert vals == {1j, 2 + 0j}


def test_normal_eig_rotation():
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    dec = normal_eig(R)
    assert sorted(np.round(dec.eigenvalues.imag, 10)) == [-1.0, 1.0]


def test_normal_eig_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        U = rand_unitary(rng, d)
        lam = crandn(rng, d)
        M = U @ np.diag(lam) @ adj(U)
        dec = normal_eig(M)
        assert op_norm(
            dec.unitary @ np.diag(dec.eigenvalues) @ adj(dec.unitary) - M
        ) < 1e-9 * (1 + op_norm(M))
        got = np.sort_complex(dec.eigenvalues)
        want = np.sort_complex(lam)
        assert np.max(np.abs(got - want)) < 1e-9


def test_normal_eig_rejects_non_normal():
    with pytest.raises(PreconditionError):
        normal_eig(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_normal_eig_groups_contiguous_for_repeats():
    rng = np.random.default_rng(5)
    U = rand_unitary(rng, 4)
    M = U @ np.diag([0.5j, 0.5j, -0.2, -0.2]) @ adj(U)
    dec = normal_eig(M)
    assert sorted(len(g) for g in dec.groups) == [2, 2]
    for g in dec.groups:
        assert list(g) == list(range(g[0], g[0] + len(g)))


def _reference_groups(eigs, gtol):
    clusters = ref_cluster_complex(eigs, gtol)
    perm = [i for c in clusters for i in c]
    sizes = np.cumsum([0] + [len(c) for c in clusters])
    return perm, tuple(tuple(range(lo, hi)) for lo, hi in zip(sizes[:-1], sizes[1:]))


@pytest.mark.parametrize("kind", SPECTRUM_KINDS)
def test_eigenvalue_groups_match_the_union_find(kind):
    # same permutation and groups as the old union-find, ties included
    rng = np.random.default_rng(SPECTRUM_KINDS.index(kind))
    for d in (1, 2, 3, 4, 8, 9, 16, 32):
        for _ in range(25):
            eigs = rand_spectrum(rng, d, kind)
            gtol = _default_group_tol(float(np.max(np.abs(eigs))))
            assert _eigenvalue_groups(eigs, gtol) == _reference_groups(eigs, gtol)


@pytest.mark.parametrize("kind", SPECTRUM_KINDS)
def test_normal_eig_order_is_the_union_find_order(kind):
    # the union-find leaves normal_eig's output order as it is
    rng = np.random.default_rng(40 + SPECTRUM_KINDS.index(kind))
    for d in (2, 3, 8, 9):
        U = rand_unitary(rng, d)
        M = U @ np.diag(rand_spectrum(rng, d, kind)) @ adj(U)
        dec = normal_eig(M)
        perm, groups = _reference_groups(dec.eigenvalues, _default_group_tol(op_norm(M)))
        assert perm == list(range(d)) and groups == dec.groups


def test_op_norm_values():
    assert abs(op_norm(np.eye(3)) - 1.0) < 1e-12
    assert abs(op_norm(np.diag([2.0, 1.0])) - 2.0) < 1e-12
    assert abs(op_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) - 2.0) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 9, 32])
def test_stacked_norms_equal_op_norm(d):
    # one SVD call over a stack gives each matrix's op_norm bit for bit,
    # in pairs as the checks stack them and all at once
    rng = np.random.default_rng(100 + d)
    mats = [crandn(rng, d, d, scale=10.0 ** rng.integers(-3, 4)) for _ in range(200)]
    mats[:4] = [np.zeros((d, d)), np.eye(d), rng.standard_normal((d, d)), mats[4] - mats[4].T]
    want = [op_norm(M) for M in mats]
    assert _op_norms({str(i): M for i, M in enumerate(mats)}) == want
    for i in range(0, len(mats), 2):
        assert _op_norms({"a": mats[i], "b": mats[i + 1]}) == want[i:i + 2]


def test_stacked_norms_name_the_non_finite_matrix():
    with pytest.raises(ValueError, match="second contains non-finite entries"):
        _op_norms({"first": np.eye(2), "second": np.array([[1.0, np.inf], [0.0, 1.0]])})


# products and differences that overflow at these entries: each call raises
# a ValueError naming the quantity, never a RuntimeWarning; the
# eigendecompositions form no residual there (name None), and return
# finite values
_BIG = [[1e308, 1e308], [-1e308, 1e308]]


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: normal_eig([[1e307]]), None),
        (lambda: _residual_norms(as_matrix([[1e307]]), "M", "X X* - X* X"), r"M M\* - M\* M"),
        (lambda: herm_eig(_BIG), None),
        (lambda: _residual_norms(as_matrix(_BIG), "M", "X - X*"), r"M - M\*"),
        (lambda: _residual_norms(as_matrix(_BIG), "M", "X - X^t"), r"M - M\^t"),
    ],
    ids=["normal_eig", "is_normal", "herm_eig", "is_hermitian", "is_symmetric"],
)
def test_overflowing_residual_raises_naming_it(call, name):
    if name is None:
        dec = call()
        assert np.isfinite(dec.unitary).all() and np.isfinite(dec.eigenvalues).all()
        return
    with pytest.raises(ValueError, match=name + " contains non-finite entries"):
        call()


def test_normal_eig_names_an_overflowing_diagonalization():
    # the eigenvalue 2e308 overflows: refused by name, not warned
    with pytest.raises(ValueError, match=r"^V\* M V or its off-diagonal norm is not finite$"):
        normal_eig([[1e308, 1e308], [1e308, 1e308]])


def test_op_norm_unitary_invariance():
    rng = np.random.default_rng(6)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        M = crandn(rng, d, d)
        U, V = rand_unitary(rng, d), rand_unitary(rng, d)
        assert abs(op_norm(U @ M @ V) - op_norm(M)) < 1e-9 * (1 + op_norm(M))


# the residuals of unitarity, symmetry, Hermitian symmetry and normality
_STRUCTURE_FORMS = ("X X* - I", "X* X - I", "X - X^t", "X - X*", "X X* - X* X")


def test_predicates():
    eye = np.eye(2, dtype=complex)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    shear = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    for M in (eye, swap):
        assert max(_residual_norms(M, "M", *_STRUCTURE_FORMS)) < 1e-14
    assert min(_residual_norms(shear, "M", *_STRUCTURE_FORMS)) > 1e-2


def _assert_unitary_diagonalization(M, dec):
    V = dec.unitary
    d = M.shape[0]
    assert op_norm(adj(V) @ V - np.eye(d)) <= 1e-13
    D = adj(V) @ M @ V
    assert np.linalg.norm(D - np.diag(np.diag(D))) <= 1e-12 * (1 + op_norm(M))
    assert np.max(np.abs(np.diag(D) - dec.eigenvalues)) <= 1e-12 * (1 + op_norm(M))
    start = 0
    for g in dec.groups:
        assert list(g) == list(range(start, start + len(g)))
        start += len(g)
    assert start == d


def test_normal_eig_splits_a_mixed_form_collision():
    from fockwc.linalg import _HERM_MIX

    lam1 = 0.3 + 0.2j
    lam2 = lam1 + 0.7 * (_HERM_MIX - 1j)  # distinct, same Re + gamma Im
    assert abs(lam1 - lam2) > 0.5
    assert abs((lam1.real + _HERM_MIX * lam1.imag) - (lam2.real + _HERM_MIX * lam2.imag)) < 1e-15
    U = rand_unitary(np.random.default_rng(7), 3)
    M = U @ np.diag([lam1, lam2, -0.4 + 0.1j]) @ adj(U)
    dec = normal_eig(M)
    _assert_unitary_diagonalization(M, dec)
    assert len(dec.groups) == 3
    got = np.sort_complex(dec.eigenvalues)
    assert np.max(np.abs(got - np.sort_complex(np.array([lam1, lam2, -0.4 + 0.1j])))) < 1e-12


def test_normal_eig_sixteen_fold_eigenvalue_at_d32():
    rng = np.random.default_rng(8)
    lam = crandn(rng, 32)
    lam[:16] = 0.25 - 0.5j
    U = rand_unitary(rng, 32)
    M = U @ np.diag(lam) @ adj(U)
    dec = normal_eig(M)
    _assert_unitary_diagonalization(M, dec)
    sizes = sorted(len(g) for g in dec.groups)
    assert sizes == [1] * 16 + [16]


def test_normal_eig_rejects_a_nearly_normal_defective_matrix():
    # ||MM* - M*M|| = 1e-12 passes the normality precondition, but no
    # unitary V makes V* M V diagonal to better than about 5e-7
    with pytest.raises(PreconditionError, match="off-diagonal"):
        normal_eig(np.array([[1.0, 1e-6], [0.0, 1.0]]))


EXPM_DIMS = (1, 2, 3, 4, 8, 9, 24)
EXPM_NORMS = (0.0, 1e-3, 0.3, 0.5, 0.51, 1.0, 7.0, 40.0)
EXPM_TOLS = (1e-16, 1e-14, 1e-13, 1e-8, 1e-3)


def _with_norm1(rng, d, nrm):
    M = crandn(rng, d, d)
    return M * (nrm / np.linalg.norm(M, 1))


def test_expm_matches_term_by_term_sum():
    # both sums carry roundoff of order eps, and each squaring doubles it:
    # at ||M||_1 = 40 (s = 7) the term-by-term sum is itself up to 4e-14
    # from a 40-digit evaluation, so the bound doubles past s = 4
    rng = np.random.default_rng(2)
    for d in EXPM_DIMS:
        for nrm in EXPM_NORMS:
            M = _with_norm1(rng, d, nrm)
            bound = 1e-14 * 2.0 ** max(_scaling_power(np.linalg.norm(M, 1)) - 4, 0)
            for tol in EXPM_TOLS:
                ref, _ = ref_taylor_expm(M, tol)
                dev = np.linalg.norm(expm(M, tol) - ref) / np.linalg.norm(ref)
                assert dev <= bound, (d, nrm, tol, dev)


def test_expm_degree_is_the_term_count_of_the_sum():
    # same remainder bound, same stopping degree, on input whose terms never
    # vanish (the term-by-term sum also stops at an exactly zero term)
    rng = np.random.default_rng(3)
    for d in EXPM_DIMS:
        for nrm in EXPM_NORMS[1:]:
            M = _with_norm1(rng, d, nrm)
            x1 = float(np.linalg.norm(M, 1))
            x = min(x1 * 2.0 ** -_scaling_power(x1), 0.5)
            for tol in EXPM_TOLS:
                assert _taylor_degree(x, tol) == ref_taylor_expm(M, tol)[1], (d, nrm, tol)


def test_expm_phi12_augmented_matrix_is_the_block_matrix():
    rng = np.random.default_rng(4)
    for d in (1, 2, 3, 8):
        M = crandn(rng, d, d, scale=0.7)
        eye, zero = np.eye(d), np.zeros((d, d))
        E = expm(np.block([[M, eye, zero], [zero, zero, eye], [zero, zero, zero]]), 1e-13)
        blocks = (E[:d, :d], E[:d, d:2 * d], E[:d, 2 * d:])
        for got, want in zip(phi12(M, 1e-13), blocks):
            assert np.array_equal(got, want)


def test_as_matrix_of_a_number_is_one_by_one():
    M = as_matrix(2.5)
    assert M.shape == (1, 1) and M[0, 0] == 2.5


def test_taylor_degree_is_capped():
    # tol = 1e-300 would need about 150 terms at x = 0.4
    assert _taylor_degree(0.4, 1e-300) == _EXPM_MAX_TERMS == 64
    assert abs(expm([[0.4]], tol=1e-300)[0, 0] - math.exp(0.4)) <= 1e-15


def test_spectral_decomposition_dim():
    for decompose in (herm_eig, normal_eig):
        dec = decompose(np.diag([1.0, 2.0, 2.0]))
        assert dec.unitary.shape == (3, 3) and dec.eigenvalues.shape == (3,)
