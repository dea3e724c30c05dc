"""A semigroup on a time grid: ``expm`` and ``phi12`` of a stack (k, n, n),
and ``symbols_at``, which evaluates several times through one stacked
exponential; ``semigroup-check`` reads both of its residual families from
one such stack per sampled pair."""

import json
import math

import numpy as np
import pytest

import fockwc as fw
from fockwc.cli import run
from fockwc.linalg import _scaling_power, _taylor_degree, expm, phi12
from fockwc.symbols import _magnitude
from helpers import crandn, rand_j_semigroup_pair, rand_semigroup_params


def _hex(*arrays):
    return [float(x).hex() for a in arrays for z in np.ravel(a) for x in (z.real, z.imag)]


def _symbol_hex(S):
    return _hex(S.theta, S.ell, S.Q, S.q)


def _own_degree(M, tol):
    nrm = float(np.abs(M).sum(axis=0).max())
    return _taylor_degree(min(nrm * 2.0 ** -_scaling_power(nrm), 0.5), tol)


def _stack(rng, d, norms):
    """Random d x d matrices with the given 1-norms, as a stack."""
    members = [crandn(rng, d, d) for _ in norms]
    return np.array([M * (x / np.abs(M).sum(axis=0).max()) for M, x in zip(members, norms)])


@pytest.mark.parametrize("d", range(1, 9))
def test_stack_of_one_is_the_single_matrix_bit_for_bit(d):
    rng = np.random.default_rng(100 + d)
    for nrm in (0.0, 1e-3, 0.3, 1.0, 7.0, 40.0):
        for tol in (1e-14, 1e-13, 1e-8):
            M = _stack(rng, d, [nrm])
            assert _hex(expm(M, tol)[0]) == _hex(expm(M[0], tol))
            assert _hex(*(b[0] for b in phi12(M, tol))) == _hex(*phi12(M[0], tol))


@pytest.mark.parametrize("d", (2, 3, 5, 8))
def test_members_of_the_shared_degree_keep_their_bits(d):
    # the norms span several scaling powers and degrees; a member whose own
    # degree is the stack's gets its single-matrix bits, the others only
    # gain terms: they differ by the single matrix's truncation, at most tol
    # relative before its s squarings, each of which may double it.  From
    # d = 2 on: a 1 x 1 matrix alone has a one-column block product, which
    # BLAS forms as a matrix-vector product
    rng = np.random.default_rng(200 + d)
    tol = 1e-13
    kept = 0
    for _ in range(6):
        stack = _stack(rng, d, rng.choice([1e-4, 0.05, 0.4, 0.9, 3.0, 20.0], size=4))
        shared = max(_own_degree(M, tol) for M in stack)
        for M, E in zip(stack, expm(stack, tol)):
            single = expm(M, tol)
            if _own_degree(M, tol) == shared:
                assert _hex(E) == _hex(single)
                kept += 1
            else:
                s = _scaling_power(float(np.abs(M).sum(axis=0).max()))
                assert np.abs(E - single).max() <= tol * 2.0 ** s * np.abs(single).max()
    assert kept >= 6


def test_member_bits_do_not_depend_on_their_position():
    rng = np.random.default_rng(300)
    stack = _stack(rng, 3, [0.02, 0.7, 2.5, 11.0, 0.3])
    perm = [3, 0, 4, 1, 2]
    for got, want in zip(expm(stack[perm]), expm(stack)[perm]):
        assert _hex(got) == _hex(want)
    for got, want in zip(phi12(stack[perm]), phi12(stack)):
        assert _hex(got) == _hex(want[perm])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", (expm, phi12), ids=("expm", "expm_phi12"))
@pytest.mark.parametrize("member, message", [
    ([[np.inf, 0.0], [0.0, 0.0]], "matrix contains non-finite entries"),
    ([[1e308, 1e308], [1e308, 1e308]], "matrix 1-norm is not finite"),
    ([[1000.0, 0.0], [0.0, 0.0]], "matrix exponential is not finite"),
], ids=("inf-entry", "norm-overflows", "exponential-overflows"))
def test_a_non_finite_member_raises_the_single_matrix_message(call, member, message):
    stack = np.array([np.eye(2) * 0.3, member, np.zeros((2, 2))], dtype=complex)
    with pytest.raises(ValueError) as excinfo:
        call(stack)
    assert str(excinfo.value) == message
    with pytest.raises(ValueError) as excinfo:
        call(np.array(member, dtype=complex))
    assert str(excinfo.value) == message


def test_a_stack_must_hold_square_matrices():
    for bad in (np.zeros((0, 2, 2)), np.zeros((2, 2, 3)), np.zeros((2, 0, 0))):
        with pytest.raises(ValueError, match="^matrix stack must hold non-empty square matrices$"):
            expm(bad)


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_a_single_time_is_symbol_at_bit_for_bit(d):
    rng = np.random.default_rng(400 + d)
    P = rand_semigroup_params(rng, d)
    for t in (1e-3, 0.25, 0.9, 3.0):
        (S,) = fw.symbols_at(P, [t])
        assert _symbol_hex(S) == _symbol_hex(fw.symbol_at(P, t))


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_grid_members_are_symbol_at_within_tol(d):
    rng = np.random.default_rng(500 + d)
    for _ in range(8):
        P, _ = rand_j_semigroup_pair(rng, d)
        times = rng.uniform(0.0, 1.0, 4).tolist()
        for t, S in zip(times, fw.symbols_at(P, times)):
            R = fw.symbol_at(P, t)
            assert fw.symbol_distance(S, R) <= 1e-13 * (1.0 + _magnitude(R))


def test_grid_does_not_depend_on_the_order_of_the_times():
    rng = np.random.default_rng(600)
    P = rand_semigroup_params(rng, 3)
    times = [0.7, 0.05, 1.3, 0.4]
    grid = dict(zip(times, fw.symbols_at(P, times)))
    for t, S in zip(times[::-1], fw.symbols_at(P, times[::-1])):
        assert _symbol_hex(S) == _symbol_hex(grid[t])


def test_time_zero_gives_the_identity_inside_a_grid():
    rng = np.random.default_rng(700)
    P = rand_semigroup_params(rng, 2)
    ident = _symbol_hex(fw.symbols.identity_symbol(2))
    grid = fw.symbols_at(P, [0.0, 0.5, -0.0, 0, 1.2])
    assert [_symbol_hex(S) == ident for S in grid] == [True, False, True, True, False]
    assert [_symbol_hex(S) for S in fw.symbols_at(P, [0.0, 0.0])] == [ident, ident]
    assert fw.symbols_at(P, []) == []


@pytest.mark.parametrize("bad, message", [
    (-0.1, "time must be non-negative"),
    (math.inf, "time must be finite"),
    (math.nan, "time must be finite"),
])
def test_a_bad_time_raises_the_symbol_at_message(bad, message):
    P = fw.SemigroupParams([[0.5]], [1.0], [0.0], 0.0)
    for call in (lambda: fw.symbol_at(P, bad), lambda: fw.symbols_at(P, [0.3, bad, 0.1])):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta_star, message", [
    (1.0, "theta_t at t = 800.0 is not finite: exponent 800+0j"),
    (-1.0, "theta_t at t = 800.0 underflows to zero: exponent -800+0j"),
], ids=("overflows", "underflows"))
def test_theta_t_inside_a_grid_names_its_own_time(theta_star, message):
    P = fw.SemigroupParams([[0.0]], [0.0], [0.0], theta_star)
    with pytest.raises(ValueError) as excinfo:
        fw.symbols_at(P, [1.0, 0.0, 800.0, 2.0])
    assert str(excinfo.value) == message


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_check_laws_on_the_flow_generators(d):
    rng = np.random.default_rng(800 + d)
    for _ in range(10):
        P, _ = rand_j_semigroup_pair(rng, d)
        t, s = rng.uniform(0.0, 1.0, 2).tolist()
        ok, defect = fw.check_laws(P, t, s)
        assert ok and defect <= 1e-12


@pytest.mark.filterwarnings("error")
def test_an_overflowing_t_omega_raises_without_a_warning():
    # t Omega overflows at t = 1e300: the product is rejected as phi12's
    # non-finite input, not warned about
    P = fw.SemigroupParams([[1e10]], [1.0], [0.0], 0.0)
    for call in (lambda: fw.symbol_at(P, 1e300), lambda: fw.symbols_at(P, [0.5, 1e300])):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == "matrix contains non-finite entries"


@pytest.mark.filterwarnings("error")
def test_lost_digits_are_refused_stacked_and_alone_naming_the_time():
    # the semigroup-check fuzz base with Omega_00 = 0.768 + 1e308 i: its
    # members used to come back finite, with |Q_t[0, 0]| = 0
    P, _ = rand_j_semigroup_pair(np.random.default_rng(2024), 2)
    Omega = P.Omega.copy()
    Omega[0, 0] = Omega[0, 0].real + 1e308j
    P = fw.SemigroupParams(Omega, P.q_star, P.ell_star, P.theta_star)
    for times, t in (((0.637, 0.270, 0.907), 0.637), ((0.270,), 0.27), ((0.0, 0.5), 0.5)):
        with pytest.raises(ValueError, match=rf"^Q_t at t = {t}: matrix 1-norm .* 2\*\*50: "):
            fw.symbols_at(P, times)
        with pytest.raises(ValueError, match=rf"^Q_t at t = {t}: "):
            fw.symbol_at(P, t)


def _semigroup_check(tmp_path, capsys, d, samples, seed):
    P, J = rand_j_semigroup_pair(np.random.default_rng(900 + d), d)
    (tmp_path / "P.json").write_text(json.dumps(P.to_json()))
    (tmp_path / "J.json").write_text(json.dumps(J.to_json()))
    argv = ["semigroup-check", "--in", str(tmp_path / "P.json"), "--conj",
            str(tmp_path / "J.json"), "--samples", str(samples), "--seed", str(seed)]
    assert run(argv) == 0
    return P, J, json.loads(capsys.readouterr().out)["residuals"]


@pytest.mark.parametrize("samples", (1, 5, 20))
def test_semigroup_check_takes_one_exponential_per_sampled_pair(tmp_path, capsys, monkeypatch,
                                                               samples):
    calls = {"expm": 0, "symbol_at": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fw.linalg, "expm", counted("expm", fw.linalg.expm))
    monkeypatch.setattr(fw.semigroup, "symbol_at", counted("symbol_at", fw.semigroup.symbol_at))
    _semigroup_check(tmp_path, capsys, 2, samples, 0)
    assert calls == {"expm": samples, "symbol_at": 0}


@pytest.mark.parametrize("d", (1, 2, 3))
def test_semigroup_check_residuals_fold_the_pair_stacks(tmp_path, capsys, d):
    # the seeded pairs (t, s): the law defect is check_laws' for each pair,
    # the J-selfadjointness residual that of the stack's members at t and s
    P, J, residuals = _semigroup_check(tmp_path, capsys, d, 6, 11)
    pairs = np.random.default_rng(11).uniform(0.0, 1.0, size=(6, 2)).tolist()
    laws = [fw.check_laws(P, t, s)[1] for t, s in pairs]
    members = [S for t, s in pairs for S in fw.symbols_at(P, (t, s, t + s))[:2]]
    selfadjoint = [max(fw.check_J_selfadjoint(S, J)[1].values()) for S in members]
    assert residuals["law_defect_max"] == max(0.0, *laws)
    assert residuals["j_selfadjoint_max"] == max(0.0, *selfadjoint)
