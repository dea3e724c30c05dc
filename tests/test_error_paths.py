"""Argument checks that raise ``ValueError``, each with its exact message,
and the command-line paths that only a malformed option or a near-tolerance
residual reaches."""

import json
import math

import numpy as np
import pytest

import fockwc as fw
from fockwc import jsonio
from fockwc.cli import run
from fockwc.polynomials import MPoly

S1, S2 = fw.symbols.identity_symbol(1), fw.symbols.identity_symbol(2)
J1, J2 = fw.identity_conjugation(1), fw.identity_conjugation(2)
P1 = fw.SemigroupParams([[0.5]], [1.0], [0.0], 0.0)
F1 = fw.KernelCombo(1, [1.0], [[0.2]])
F2 = fw.KernelCombo(2, [1.0], [[0.2, 0.1]])
f1, f2 = MPoly(1, {(1,): 1.0}), MPoly(2, {(1, 0): 1.0})
POINTS2 = [np.array([0.1, 0.2]), np.array([0.3, -0.1])]

# |c|^2 e^{|b|^2} = 1: a valid J whose c is e^-450
TINY_C_J = fw.ConjugationParams([[1]], [30j], math.exp(-450))
TINY_S = fw.WcSymbol(1e-200, [0.1], [[0.5]], [0.2])

ERRORS = {
    "check_J_selfadjoint": (lambda: fw.check_J_selfadjoint(S1, J2),
                            "symbol and conjugation dimensions differ"),
    "conjugate_by_J": (lambda: fw.conjugate_by_J(S1, J2),
                       "symbol and conjugation dimensions differ"),
    "compose": (lambda: fw.compose(S1, S2), "compose requires symbols of equal dimension"),
    "symbol_distance": (lambda: fw.symbol_distance(S1, S2), "symbols have different dimensions"),
    "pairing_defect": (lambda: fw.pairing_defect(S1, S2, POINTS2), "symbol dimensions differ"),
    "j_symmetry_defect": (lambda: fw.j_symmetry_defect(S1, J2, POINTS2),
                          "symbol and conjugation dimensions differ"),
    "apply_symbol": (lambda: fw.apply_symbol(S1, F2), "symbol and combo dimensions differ"),
    "apply_conjugation": (lambda: fw.apply_conjugation(J1, F2),
                          "conjugation and combo dimensions differ"),
    "inner": (lambda: fw.inner(F1, F2), "kernel combo dimensions differ"),
    "KernelCombo.__add__": (lambda: F1 + F2, "kernel combo dimensions differ"),
    "validate_J_conditions": (lambda: fw.validate_J_conditions(P1, J2),
                              "semigroup and conjugation dimensions differ"),
    "generator_apply": (lambda: fw.generator_apply(P1, f2),
                        "polynomial and semigroup dimensions differ"),
    "MPoly.__add__": (lambda: f1 + f2, "polynomial dimensions differ"),
    "MPoly.__mul__": (lambda: f1 * f2, "polynomial dimensions differ"),
    "symbol_at_inf": (lambda: fw.symbol_at(P1, float("inf")), "time must be finite"),
    "check_laws_negative_time": (lambda: fw.check_laws(P1, -0.1, 0.2),
                                 "times must be non-negative"),
    "generator_fd_residual_h0": (lambda: fw.generator_fd_residual(P1, f1, 0.0),
                                 "step h must be positive"),
    "exp_tail_negative_rho": (lambda: fw.oracle.exp_tail(-1.0, 4), "rho must be non-negative"),
    "identity_symbol_0": (lambda: fw.symbols.identity_symbol(0), "dimension must be positive"),
    "KernelCombo_0": (lambda: fw.KernelCombo(0, [], np.zeros((0, 0))),
                      "dimension must be positive"),
    "MPoly.partial_out_of_range": (lambda: f1.partial(3), "coordinate index out of range"),
    "multi_indices_0": (lambda: fw.polynomials.multi_indices(0, 1),
                        "need d >= 1 and max_degree >= 0"),
    "trunc_symbol_matrix_negative_N": (lambda: fw.trunc_symbol_matrix(S1, -1),
                                       "truncation degree must be non-negative"),
    "pairing_unequal_lengths": (lambda: fw.pairing([1.0], [1.0, 2.0]),
                                "pairing requires vectors of equal length"),
    "expm_not_square": (lambda: fw.linalg.expm([[1, 2]]),
                        "matrix must be a non-empty square matrix"),
    "symbol_at_lost_digits": (
        lambda: fw.symbol_at(fw.SemigroupParams([[0.768 + 1e16j, 0], [0, -0.5]], [0, 0], [0, 0],
                                                0), 0.27),
        "Q_t at t = 0.27: matrix 1-norm 2.700e+15 is at least 2**50: "
        "its exponential has no correct digits"),
    "matrix_from_json_ragged": (lambda: jsonio.matrix_from_json([[[1, 0], [2, 0]], [[3, 0]]]),
                                "matrix must be square, row-major"),
    "WcSymbol_string_theta": (lambda: fw.WcSymbol("x", [1], [[1]], [0]),
                              "theta must be a complex number, got 'x'"),
    "WcSymbol_string_ell": (lambda: fw.WcSymbol(1, "abc", [[1]], [0]),
                            "ell must be an array of complex numbers"),
    "WcSymbol_None_theta": (lambda: fw.WcSymbol(None, [1], [[1]], [0]),
                            "theta must be a complex number, got None"),
    "WcSymbol_object_in_q": (lambda: fw.WcSymbol(1, [1], [[1]], [object()]),
                             "q must be an array of complex numbers"),
    "ConjugationParams_string_c": (lambda: fw.ConjugationParams([[1]], [0], "c"),
                                   "c must be a complex number, got 'c'"),
    "SemigroupParams_string_theta_star": (lambda: fw.SemigroupParams([[0.5]], [1.0], [0.0], "z"),
                                          "theta_star must be a complex number, got 'z'"),
    "KernelCombo_string_coeff": (lambda: fw.KernelCombo(1, ["x"], [[0]]),
                                 "coeffs must be an array of complex numbers"),
    "MPoly_string_index": (lambda: MPoly(1, {("x",): 1}), "bad multi-index ('x',)"),
    "MPoly_int_key": (lambda: MPoly(1, {5: 1}), "bad multi-index 5"),
    "herm_eig_not_finite": (lambda: fw.linalg.herm_eig([[1e308, 1e308], [1e308, 1e308]]),
                            "eigenvalues of (M + M*)/2 are not finite"),
    # the scalar is coerced as MPoly.scale coerces it
    "KernelCombo_scale_None": (lambda: F1.scale(None), "scale must be a complex number, got None"),
    "KernelCombo_scale_list": (lambda: F1.scale([1]), "scale must be a complex number, got [1]"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", ERRORS.values(), ids=ERRORS.keys())
def test_error_message(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert excinfo.type is ValueError
    assert str(excinfo.value) == message


# a conjugation whose scalar residual | |c|^2 - 1 | is about 5e-10
NEAR_VALID_J = {"d": 1, "A": [[[1.0, 0.0]]], "b": [[0.0, 0.0]], "c": [1.00000000025, 0.0]}
SEMIGROUP = {"Omega": [[[0.5, 0]]], "q_star": [[1, 0]], "ell_star": [[0, 0]],
             "theta_star": [0, 0]}

CLI_CASES = {
    # a valid --tol below the residual, which is at most 10 tol
    "tol_indeterminate": (["validate-conjugation", "--in", "J.json", "--tol", "1e-10"], 1,
                          "indeterminate", None),
    "tol_not_a_number": (["validate-conjugation", "--in", "J.json", "--tol", "abc"], 2, None,
                         "fockwc validate-conjugation: error: argument --tol: must be a "
                         "positive finite number, got 'abc'\n"),
    "samples_zero": (["semigroup-check", "--in", "P.json", "--samples", "0"], 2, None,
                     "error: --samples must be at least 1\n"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code, verdict, err_tail", CLI_CASES.values(),
                         ids=CLI_CASES.keys())
def test_cli_error_path(tmp_path, capsys, argv, code, verdict, err_tail):
    (tmp_path / "J.json").write_text(json.dumps(NEAR_VALID_J))
    (tmp_path / "P.json").write_text(json.dumps(SEMIGROUP))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert run(argv) == code
    out = capsys.readouterr()
    if verdict is None:
        assert out.out == ""
        assert out.err.endswith(err_tail)
    else:
        assert out.err == ""
        assert json.loads(out.out)["verdict"] == verdict


@pytest.mark.parametrize("argv", [
    ["validate-conjugation", "--in", "J.json", "--tol", "abc"],
    ["validate-conjugation", "--tol", "abc"],
    ["classify"],
    ["no-such-command"],
    ["adjoint", "--in", "J.json", "--bogus", "1"],
], ids=["tol-not-a-number", "tol-without-in", "missing-in", "unknown-command", "unknown-option"])
def test_cli_usage_error_is_one_stderr_line(tmp_path, capsys, argv):
    (tmp_path / "J.json").write_text(json.dumps(NEAR_VALID_J))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1
    assert out.err.startswith("fockwc") and ": error: " in out.err


# Omega z + q* = 1e200 (z + 1) times df/dz = 1e200 overflows in G f
BIG_P = fw.SemigroupParams([[1e200]], [1e200], [0], 0)
BIG_F = MPoly(1, {(1,): 1e200})


@pytest.mark.filterwarnings("error")
def test_generator_apply_overflow_names_G_f():
    with pytest.raises(ValueError, match=r"^G f overflows: ") as excinfo:
        fw.generator_apply(BIG_P, BIG_F)
    assert excinfo.type is ValueError
    # plain polynomial arithmetic keeps its own message
    with pytest.raises(ValueError, match=r"^coefficient must be finite"):
        BIG_F * BIG_F


@pytest.mark.filterwarnings("error")
def test_cli_generator_apply_overflow_names_G_f(tmp_path, capsys):
    (tmp_path / "P.json").write_text(json.dumps(BIG_P.to_json()))
    (tmp_path / "f.json").write_text(json.dumps(BIG_F.to_json()))
    argv = ["generator-apply", "--in", str(tmp_path / "P.json"),
            "--poly", str(tmp_path / "f.json")]
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: G f overflows: ")
    assert out.err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_j_symmetry_defect_of_an_underflowing_theta_conj_c_is_its_value():
    # theta conj(c) = 1e-200 e^-450 underflows to zero, but the defect is
    # formed from the folded factors: it is 1e-200 times the defect of
    # theta = 1 (the 1 of 1 + max|lhs| dominates both), about 1e-395, far
    # below the least subnormal 4.9e-324, so 0.0
    unit = fw.WcSymbol(1.0, TINY_S.ell, TINY_S.Q, TINY_S.q)
    assert 1e-197 < fw.j_symmetry_defect(unit, TINY_C_J, [[0.1], [0.3]]) < 1e-194
    assert fw.j_symmetry_defect(TINY_S, TINY_C_J, [[0.1], [0.3]]) == 0.0


@pytest.mark.filterwarnings("error")
def test_cli_j_symmetry_defect_of_an_underflowing_theta_conj_c_is_zero(tmp_path, capsys):
    (tmp_path / "S.json").write_text(json.dumps(TINY_S.to_json()))
    (tmp_path / "J.json").write_text(json.dumps(TINY_C_J.to_json()))
    (tmp_path / "pts.json").write_text(json.dumps({"points": [[[0.1, 0]], [[0.3, 0]]]}))
    argv = ["oracle-defect", "--in", str(tmp_path / "S.json"), "--conj", str(tmp_path / "J.json"),
            "--points", str(tmp_path / "pts.json")]
    assert run(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    doc = json.loads(out.out)
    assert doc["verdict"] == "true" and doc["residuals"]["j_symmetry_defect"] == 0.0


# |c| = 2.1e308 overflows although both parts of c are finite
HUGE_C_J = {"d": 1, "A": [[[1.0, 0.0]]], "b": [[0.0, 0.0]], "c": [1.5e308, 1.5e308]}
ADMISSIBILITY = ("error: conjugation parameters violate the admissibility conditions: "
                 "matrix=0.000e+00, vector=0.000e+00, scalar=inf\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["validate-conjugation", "--in", "J.json"],
    ["classify", "--in", "S.json", "--with-conjugation", "J.json"],
    ["conjugate", "--in", "S.json", "--conj", "J.json"],
    ["oracle-defect", "--in", "S.json", "--conj", "J.json", "--points", "pts.json"],
], ids=["validate-conjugation", "classify", "conjugate", "oracle-defect"])
def test_cli_conjugation_whose_c_modulus_overflows(tmp_path, capsys, argv):
    # the scalar residual is inf: validate-conjugation writes it as null
    # with the verdict false, and the others refuse J by its residuals
    (tmp_path / "J.json").write_text(json.dumps(HUGE_C_J))
    (tmp_path / "S.json").write_text(json.dumps(S1.to_json()))
    (tmp_path / "pts.json").write_text(json.dumps({"points": [[[0.1, 0]], [[0.3, 0]]]}))
    code = run([str(tmp_path / a) if a.endswith(".json") else a for a in argv])
    out = capsys.readouterr()
    if argv[0] == "validate-conjugation":
        assert code == 1 and out.err == ""
        doc = json.loads(out.out)
        assert doc["verdict"] == "false" and doc["residuals"]["scalar"] is None
    else:
        assert code == 2 and out.out == "" and out.err == ADMISSIBILITY


@pytest.mark.filterwarnings("error")
def test_cross_check_refuses_a_theta_whose_modulus_overflows():
    S = fw.WcSymbol(1.5e308 + 1.5e308j, [0.0], [[0.5]], [0.0])
    with pytest.raises(fw.PreconditionError, match=r"^truncation tail bound inf is not below "):
        fw.cross_check(S, [0.1], 4)


# a real-symmetric symbol whose Hermitian Q has the eigenvalue 2e308
HUGE_Q_SYMBOL = {"theta": [1, 0], "ell": [[0, 0], [0, 0]], "q": [[0, 0], [0, 0]],
                 "Q": [[[1e308, 0], [1e308, 0]], [[1e308, 0], [1e308, 0]]]}


@pytest.mark.filterwarnings("error")
def test_find_conjugation_refuses_an_eigenvalue_that_overflows(tmp_path, capsys):
    path = tmp_path / "S.json"
    path.write_text(json.dumps(HUGE_Q_SYMBOL))
    assert run(["find-conjugation", "--in", str(path), "--mode", "real"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: eigenvalues of (M + M*)/2 are not finite\n"
