import math

import numpy as np
import pytest

from fockwc import (
    MPoly,
    SemigroupParams,
    check_J_selfadjoint,
    check_laws,
    continuity_defect,
    generator_apply,
    generator_fd_residual,
    j_symmetry_defect,
    symbol_at,
    symbol_distance,
    trunc_conjugation_matrix,
    validate_J_conditions,
)
from fockwc.oracle import _tables, poly_coeff_vector
from fockwc.symbols import act_on_kernel, identity_symbol
from helpers import (
    crandn,
    rand_j_semigroup_pair,
    rand_points,
    rand_semigroup_params,
    rand_valid_conjugation,
    ref_generator_apply,
)


def test_symbol_at_zero_is_identity_exactly():
    rng = np.random.default_rng(70)
    P = rand_semigroup_params(rng, 3)
    assert symbol_distance(symbol_at(P, 0.0), identity_symbol(3)) == 0.0


def test_symbol_at_rejects_negative_time():
    P = SemigroupParams([[0.0]], [0.0], [0.0], 1.0)
    with pytest.raises(ValueError):
        symbol_at(P, -0.1)


def test_symbol_at_zero_omega_closed_form():
    v = np.array([0.3 - 0.2j, 1.1j])
    P = SemigroupParams(np.zeros((2, 2)), v, np.zeros(2), 0.7)
    for t in (0.3, 1.0, 1.7):
        S = symbol_at(P, t)
        assert abs(S.theta - math.exp(0.7 * t)) < 1e-13
        assert np.max(np.abs(S.ell)) == 0.0
        assert np.allclose(S.Q, np.eye(2), atol=1e-14)
        assert np.max(np.abs(S.q - t * v)) < 1e-13


def test_symbol_at_scalar_integration():
    # Omega=1, q*=1, l*=0, th*=0, t=1: (1, 0, e, e-1)
    P = SemigroupParams([[1.0]], [1.0], [0.0], 0.0)
    S = symbol_at(P, 1.0)
    assert abs(S.theta - 1.0) < 1e-13
    assert abs(S.Q[0, 0] - math.e) < 1e-12
    assert abs(S.q[0] - (math.e - 1.0)) < 1e-12
    assert abs(S.ell[0]) == 0.0


def test_symbol_at_theta_quadrature_oracle():
    # theta_t against brute-force composite-Simpson integration of
    # <q_s, l*> with q_s evaluated by the closed form
    rng = np.random.default_rng(71)
    P = rand_semigroup_params(rng, 2)
    t = 0.8
    n = 400
    s_grid = np.linspace(0.0, t, n + 1)
    vals = []
    for s in s_grid:
        S_s = symbol_at(P, float(s))
        vals.append(np.dot(S_s.q, np.conj(P.ell_star)))
    vals = np.array(vals)
    h = t / n
    integral = h / 3 * (
        vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum()
    )
    want = np.exp(P.theta_star * t + integral)
    got = symbol_at(P, t).theta
    assert abs(got - want) < 1e-9 * (1 + abs(want))


def test_check_laws():
    rng = np.random.default_rng(72)
    P0 = SemigroupParams(np.zeros((2, 2)), crandn(rng, 2), crandn(rng, 2), 0.4)
    ok, defect = check_laws(P0, 0.0, 0.0)
    assert ok and defect < 1e-15
    ok, defect = check_laws(P0, 0.7, 0.4)
    assert ok and defect < 1e-12

    for _ in range(10):
        d = int(rng.integers(1, 4))
        P = rand_semigroup_params(rng, d)
        t, s = rng.uniform(0, 1, 2)
        ok, defect = check_laws(P, float(t), float(s))
        assert ok and defect <= 1e-9


def test_validate_J_conditions_examples():
    rng = np.random.default_rng(73)
    J = rand_valid_conjugation(rng, 2)
    P = SemigroupParams(np.zeros((2, 2)), crandn(rng, 2), np.zeros(2), 0.3)
    ok, _ = validate_J_conditions(P, J)
    # Omega = 0, l* = 0: both displayed conditions vanish, but l* is not
    # conj(A q*), and the family is not J-selfadjoint
    assert not ok
    assert check_J_selfadjoint(symbol_at(P, 0.5), J)[0] is False

    # J=(I,0,1), d=1: condition reduces to conj(Om) l* = conj(Om q*)
    from fockwc import identity_conjugation

    P1 = SemigroupParams([[1.0]], [1 + 1j], [1 - 1j], 0.0)
    ok, res = validate_J_conditions(P1, identity_conjugation(1))
    assert ok, res


def test_validate_J_conditions_constructed():
    rng = np.random.default_rng(74)
    for _ in range(15):
        d = int(rng.integers(1, 4))
        P, J = rand_j_semigroup_pair(rng, d)
        ok, res = validate_J_conditions(P, J, 1e-9)
        assert ok, res
        assert res["first_order"] <= 1e-9


def test_j_selfadjoint_along_the_flow():
    rng = np.random.default_rng(75)
    for _ in range(6):
        d = int(rng.integers(1, 4))
        P, J = rand_j_semigroup_pair(rng, d, with_b=bool(rng.integers(0, 2)))
        for t in np.arange(0.1, 2.01, 0.1):
            ok, res = check_J_selfadjoint(symbol_at(P, float(t)), J, 1e-9)
            assert ok, (t, res)
        pts = rand_points(rng, d, 5, radius=1.0)
        assert j_symmetry_defect(symbol_at(P, 0.5), J, pts) <= 1e-9


def test_perturbed_ell_star_breaks_selfadjointness():
    rng = np.random.default_rng(76)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        P, J = rand_j_semigroup_pair(rng, d)
        v = crandn(rng, d)
        bump = 0.1 * v / np.linalg.norm(v)
        P_bad = SemigroupParams(
            P.Omega, P.q_star, P.ell_star + bump, P.theta_star
        )
        failed = False
        for t in (0.25, 0.5, 1.0, 2.0):
            ok, _ = check_J_selfadjoint(symbol_at(P_bad, float(t)), J, 1e-9)
            failed = failed or not ok
        assert failed


def test_generator_apply_examples():
    # f == 1: G f = theta* + sum conj(l*_k) z_k
    P = SemigroupParams([[2.0]], [0.5], [0.3 + 0.4j], 1.1)
    g = generator_apply(P, MPoly.constant(1, 1.0))
    assert g.coeffs == {(0,): 1.1, (1,): np.conj(0.3 + 0.4j)}

    # d=1, f = z: G f = q* + (theta* + Omega) z + conj(l*) z^2
    g = generator_apply(P, MPoly.monomial(1, (1,), 1.0))
    assert abs(g.coeffs[(0,)] - 0.5) < 1e-15
    assert abs(g.coeffs[(1,)] - (1.1 + 2.0)) < 1e-15
    assert abs(g.coeffs[(2,)] - np.conj(0.3 + 0.4j)) < 1e-15


def test_generator_apply_matches_the_monomial_sums():
    # same coefficients, bit for bit, in the same key order
    rng = np.random.default_rng(78)
    for d in (1, 2, 3, 4):
        for _ in range(20):
            P = rand_semigroup_params(rng, d)
            f = MPoly(d, {
                tuple(int(a) for a in rng.integers(0, 3, d)): complex(crandn(rng))
                for _ in range(int(rng.integers(1, 6)))
            })
            got = list(generator_apply(P, f).coeffs.items())
            assert got == list(ref_generator_apply(P, f).coeffs.items())


def test_validate_J_conditions_nan_residual_fails():
    # Omega q* and Omega* l* overflow to inf, and their difference is NaN
    from fockwc import identity_conjugation

    P = SemigroupParams([[1e200]], [1e200], [1e200], 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        ok, res = validate_J_conditions(P, identity_conjugation(1))
    assert math.isnan(res["ell_condition"]) and not ok
    assert list(res) == ["AOmega_symmetric", "ell_condition", "first_order"]


def test_validate_J_conditions_overflow_fails_without_a_warning():
    # at Omega = [[1e307]], Omega* l* overflows: the NaN residual fails the
    # verdict, and no RuntimeWarning escapes on the way
    from fockwc import identity_conjugation

    P = SemigroupParams([[1e307]], [1e307], [1e307], 0.0)
    ok, res = validate_J_conditions(P, identity_conjugation(1))
    assert math.isnan(res["ell_condition"]) and not ok
    assert res["AOmega_symmetric"] == 0.0 and res["first_order"] == 0.0


def test_generator_linearity():
    rng = np.random.default_rng(77)
    P = rand_semigroup_params(rng, 2)
    f = MPoly(2, {(1, 0): 1.0, (0, 2): 0.5j})
    g = MPoly(2, {(1, 1): -2.0, (0, 0): 1.0})
    a, b = 0.7 - 0.1j, 1.3j
    lhs = generator_apply(P, f.scale(a) + g.scale(b))
    rhs = generator_apply(P, f).scale(a) + generator_apply(P, g).scale(b)
    # identical up to reassociation roundoff
    assert all(abs(c) < 1e-14 for c in (lhs - rhs).coeffs.values())


def test_generator_fd_scalar_benchmark():
    # P = (0,0,0,1), f == 1: residual is |(e^h - 1)/h - 1| ~ h/2
    P = SemigroupParams([[0.0]], [0.0], [0.0], 1.0)
    r = generator_fd_residual(P, MPoly.constant(1, 1.0), 1e-3)
    assert abs(r - 5.0e-4) < 2e-7


def test_generator_fd_zero_poly():
    P = SemigroupParams([[0.3]], [0.1], [0.2], 0.5)
    assert generator_fd_residual(P, MPoly.zero(1), 1e-3) == 0.0


def test_generator_fd_first_order_convergence():
    rng = np.random.default_rng(78)
    for _ in range(8):
        d = int(rng.integers(1, 3))
        P = rand_semigroup_params(rng, d)
        coeffs = {}
        for alpha in [(0,) * d, tuple(2 if i == 0 else 0 for i in range(d))]:
            coeffs[alpha] = crandn(rng)
        f = MPoly(d, coeffs)
        r_h = generator_fd_residual(P, f, 1e-2)
        r_h2 = generator_fd_residual(P, f, 5e-3)
        ratio = r_h2 / r_h
        assert 0.4 <= ratio <= 0.6


def test_generator_j_symmetry_bilinear_form():
    # <G p, J r> == <G r, J p> on truncated coefficient vectors when the
    # semigroup parameter conditions hold
    rng = np.random.default_rng(79)
    N = 8
    for _ in range(6):
        d = int(rng.integers(1, 3))
        P, J = rand_j_semigroup_pair(rng, d)
        TJ = trunc_conjugation_matrix(J, N)
        for _ in range(3):
            p = MPoly(d, {tuple(a): crandn(rng) for a in _tables(d, N - 2).indices[:4]})
            r = MPoly(d, {tuple(a): crandn(rng) for a in _tables(d, N - 2).indices[:4]})
            Gp = poly_coeff_vector(generator_apply(P, p), N)
            Gr = poly_coeff_vector(generator_apply(P, r), N)
            Jp = TJ.apply(poly_coeff_vector(p, N))
            Jr = TJ.apply(poly_coeff_vector(r, N))
            lhs = np.vdot(Jr, Gp)
            rhs = np.vdot(Jp, Gr)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def test_continuity_defect():
    P = SemigroupParams([[0.0]], [0.0], [0.0], 1.0)
    assert continuity_defect(P, [0.0], 0.0) == 0.0
    for t in (0.5, 0.1, 0.01):
        assert abs(continuity_defect(P, [0.0], t) - (math.exp(t) - 1)) < 1e-12

    rng = np.random.default_rng(80)
    Pr = rand_semigroup_params(rng, 2)
    w = crandn(rng, 2, scale=0.5)
    ts = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    defects = [continuity_defect(Pr, w, t) for t in ts]
    assert all(a > b for a, b in zip(defects, defects[1:]))
    # O(t) decay: consecutive ratios track the step ratio 1/10
    for a, b in zip(defects, defects[1:]):
        assert 0.05 <= b / a <= 0.2


def test_semigroup_json_round_trip():
    rng = np.random.default_rng(81)
    P = rand_semigroup_params(rng, 2)
    P2 = SemigroupParams.from_json(P.to_json())
    assert np.array_equal(P.Omega, P2.Omega)
    assert np.array_equal(P.q_star, P2.q_star)
    assert P.theta_star == P2.theta_star


def test_symbol_at_theta_overflow_raises_without_warning():
    # the suite turns RuntimeWarning into an error, so a leaked overflow
    # warning from exp(theta* t) would surface instead of ValueError
    P = SemigroupParams([[0.0]], [0.0], [0.0], 1.0)
    with pytest.raises(ValueError, match="theta_t"):
        symbol_at(P, 1000.0)
    with pytest.raises(ValueError, match="theta_t"):
        check_laws(SemigroupParams([[0.0]], [0.0], [0.0], 800.0), 0.5, 0.5)


def _continuity_defect_unscaled(P, w, t):
    # the formula with e^{|w|^2} left in: overflows from |w|^2 > 709 on
    img = act_on_kernel(symbol_at(P, t), w)
    a, u = img.coeff, img.point
    sq = (
        abs(a) ** 2 * math.exp(float(np.linalg.norm(u)) ** 2)
        + math.exp(float(np.linalg.norm(w)) ** 2)
        - 2.0 * (np.conj(a) * np.exp(np.vdot(w, u))).real
    )
    return math.sqrt(max(sq, 0.0))


def test_continuity_defect_at_large_w():
    # |w|^2 = 900: e^{|w|^2} overflows, the defect itself does not
    assert continuity_defect(SemigroupParams([[0.0]], [0.0], [0.0], 0.0), [30.0], 0.5) == 0.0
    P = SemigroupParams([[0.0]], [0.0], [0.0], 0.1)  # C(t) = e^{0.1 t}
    want = (math.exp(0.05) - 1.0) * math.exp(450.0)
    assert abs(continuity_defect(P, [30.0], 0.5) - want) <= 1e-12 * want
    with pytest.raises(ValueError, match="continuity defect is not finite"):
        continuity_defect(P, [40.0], 0.5)  # e^{800} (e^{0.05} - 1)


@pytest.mark.parametrize("P, w, want", [
    (SemigroupParams([[0.0]], [0.0], [0.0], 400.0), [0.0], math.expm1(400.0)),
    (SemigroupParams([[0.0]], [0.0], [0.0], 400.0), [20.0], math.exp(600.0)),
    (SemigroupParams([[0.0]], [0.0], [30.0], 0.0), [0.0], math.exp(450.0)),
], ids=["theta-e400", "theta-e400-w20", "ell-30"])
def test_continuity_defect_past_the_e_w2_shift(P, w, want):
    # |a|^2 e^{|u|^2} is e^800 or more, which overflows with e^{|w|^2}
    # factored out; the defect itself is a double: e^400 - 1,
    # e^200 (e^400 - 1) and sqrt(e^900 - 1)
    assert abs(continuity_defect(P, w, 1.0) - want) <= 1e-13 * want


def test_continuity_defect_matches_unscaled_formula():
    rng = np.random.default_rng(82)
    for d in (1, 2, 3):
        P = rand_semigroup_params(rng, d)
        w = crandn(rng, d, scale=0.5)
        for t in (0.3, 1.0):
            want = _continuity_defect_unscaled(P, w, t)
            assert abs(continuity_defect(P, w, t) - want) <= 1e-12 * want
