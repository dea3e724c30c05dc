import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fockwc
from fockwc import (
    ConjugationParams,
    SemigroupParams,
    WcSymbol,
    adjoint_symbol,
    check_J_selfadjoint,
    symbol_distance,
    validate,
)
from fockwc.cli import run
from helpers import (
    large_scale_symbol,
    rand_j_semigroup_pair,
    rand_symbol,
    rand_valid_conjugation,
)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def identity_conj_json(d):
    from fockwc import identity_conjugation

    return identity_conjugation(d).to_json()


def test_validate_conjugation_identity(tmp_path, capsys):
    path = write(tmp_path, "J.json", identity_conj_json(2))
    code, out, _ = invoke(capsys, ["validate-conjugation", "--in", path])
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "true"
    assert max(doc["residuals"].values()) == 0.0


def test_validate_conjugation_negative(tmp_path, capsys):
    bad = {
        "d": 2,
        "A": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "b": [[1.0, 0.0], [0.0, 0.0]],
        "c": [1.0, 0.0],
    }
    path = write(tmp_path, "J.json", bad)
    code, out, _ = invoke(capsys, ["validate-conjugation", "--in", path])
    assert code == 1
    assert json.loads(out)["verdict"] == "false"


def _rejecting_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("c, scalar", [(0.0, 1.0), (1.0, None)])
def test_validate_conjugation_extreme_scalar(tmp_path, capsys, c, scalar):
    # b = 30: c = 0 gives residual 1, c = 1 an infinite residual, which
    # is written as null so that stdout stays strict JSON
    J = {"d": 1, "A": [[[-1.0, 0.0]]], "b": [[30.0, 0.0]], "c": [c, 0.0]}
    path = write(tmp_path, "J.json", J)
    code, out, _ = invoke(capsys, ["validate-conjugation", "--in", path])
    doc = json.loads(out, parse_constant=_rejecting_constant)
    assert code == 1
    assert doc["verdict"] == "false"
    assert doc["residuals"]["scalar"] == scalar


def test_verdict_fails_nan_residual():
    from fockwc.cli import _verdict

    assert _verdict({"a": float("nan"), "b": 0.0}, 1e-9) == "false"
    assert _verdict({"a": 0.0, "b": float("nan")}, 1e-9) == "false"


def test_classify_example(tmp_path, capsys):
    S = WcSymbol(3.0, [2 + 1j], [[0.5]], [2 + 1j])
    path = write(tmp_path, "S.json", S.to_json())
    code, out, _ = invoke(capsys, ["classify", "--in", path])
    doc = json.loads(out)
    assert code == 0
    assert doc["payload"]["real"] == "true"
    assert doc["payload"]["skew_real"] == "false"
    assert doc["payload"]["bounded_necessary"] == "true"


def test_classify_with_conjugation(tmp_path, capsys):
    rng = np.random.default_rng(90)
    from helpers import rand_j_selfadjoint_pair

    S, J = rand_j_selfadjoint_pair(rng, 2)
    spath = write(tmp_path, "S.json", S.to_json())
    jpath = write(tmp_path, "J.json", J.to_json())
    code, out, _ = invoke(
        capsys, ["classify", "--in", spath, "--with-conjugation", jpath]
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["payload"]["j_selfadjoint"] == "true"


def test_adjoint_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(91)
    S = rand_symbol(rng, 2)
    path = write(tmp_path, "S.json", S.to_json())
    code, out, _ = invoke(capsys, ["adjoint", "--in", path])
    assert code == 0
    mid = json.loads(out)["payload"]
    assert symbol_distance(WcSymbol.from_json(mid), adjoint_symbol(S)) == 0.0
    path2 = write(tmp_path, "S2.json", mid)
    code, out, _ = invoke(capsys, ["adjoint", "--in", path2])
    back = WcSymbol.from_json(json.loads(out)["payload"])
    assert symbol_distance(back, S) < 1e-12


def test_conjugate_command(tmp_path, capsys):
    rng = np.random.default_rng(92)
    S = rand_symbol(rng, 2)
    J = rand_valid_conjugation(rng, 2)
    spath = write(tmp_path, "S.json", S.to_json())
    jpath = write(tmp_path, "J.json", J.to_json())
    code, out, _ = invoke(capsys, ["conjugate", "--in", spath, "--conj", jpath])
    assert code == 0
    from fockwc import conjugate_by_J

    got = WcSymbol.from_json(json.loads(out)["payload"])
    assert symbol_distance(got, conjugate_by_J(S, J)) < 1e-13


def test_find_conjugation_success_and_na(tmp_path, capsys):
    S = WcSymbol(2.0, [1 + 1j], [[0.5]], [1 + 1j])
    path = write(tmp_path, "S.json", S.to_json())
    code, out, _ = invoke(capsys, ["find-conjugation", "--in", path, "--mode", "real"])
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "true"
    A = doc["payload"]["A"]
    assert abs(A[0][0][0]) < 1e-9 and abs(A[0][0][1] + 1.0) < 1e-9

    generic = WcSymbol(1 + 1j, [0.3], [[0.5]], [0.9])
    path2 = write(tmp_path, "S2.json", generic.to_json())
    code, out, _ = invoke(capsys, ["find-conjugation", "--in", path2])
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "n/a"


# each question is decided once, at --tol: a Q Hermitian or normal only to
# within --tol, and a J admissible only to within --tol, are not refused by
# a second check at a fixed tolerance
_NEARLY_HERMITIAN = WcSymbol(1.0, [0.2, 0.1], [[0.5, 1e-8], [0.0, 0.3]], [0.2, 0.1])
_NEARLY_UNITARY_J = ConjugationParams([[1.0, 1e-8], [1e-8, 1.0]], [0.0, 0.0], 1.0)


def test_find_conjugation_at_tol_on_a_nearly_hermitian_q(tmp_path, capsys):
    path = write(tmp_path, "S.json", _NEARLY_HERMITIAN.to_json())
    code, out, err = invoke(capsys, ["find-conjugation", "--in", path, "--tol", "1e-6"])
    assert code == 0 and err == ""
    J = ConjugationParams.from_json(json.loads(out)["payload"])
    assert validate(J, 1e-6)[0] and check_J_selfadjoint(_NEARLY_HERMITIAN, J, 1e-6)[0]


def test_find_conjugation_without_a_unitary_diagonalization_is_na(tmp_path, capsys):
    # Q is normal to within 1e-9 (its commutator is 2.5e-13), but no
    # unitary V makes V* Q V diagonal to better than 4.5e-7
    S = WcSymbol(1.0, [0.0, 0.0], [[0.5, 5e-7], [0.0, 0.5]], [0.0, 0.0])
    path = write(tmp_path, "S.json", S.to_json())
    code, out, err = invoke(capsys, ["find-conjugation", "--in", path])
    assert code == 1 and err == ""
    assert json.loads(out)["verdict"] == "n/a"


@pytest.mark.parametrize("command", ["classify", "semigroup-check"])
def test_conjugation_admissible_at_tol(tmp_path, capsys, command):
    # ||A A* - I|| = 2e-8: admissible at --tol 1e-6, as validate-conjugation says
    jpath = write(tmp_path, "J.json", _NEARLY_UNITARY_J.to_json())
    if command == "classify":
        path = write(tmp_path, "S.json", _NEARLY_HERMITIAN.to_json())
        argv = ["classify", "--in", path, "--with-conjugation", jpath]
    else:
        P = SemigroupParams(np.diag([0.1, 0.2]), [0, 0], [0, 0], 0.0)
        path = write(tmp_path, "P.json", P.to_json())
        argv = ["semigroup-check", "--in", path, "--conj", jpath, "--samples", "2"]
    code, out, err = invoke(capsys, [*argv, "--tol", "1e-6"])
    assert code in (0, 1) and "error:" not in err
    assert json.loads(out)["verdict"] in ("true", "false", "indeterminate")


def test_semigroup_at(tmp_path, capsys):
    P = {
        "d": 1,
        "Omega": [[[1.0, 0.0]]],
        "q_star": [[1.0, 0.0]],
        "ell_star": [[0.0, 0.0]],
        "theta_star": [0.0, 0.0],
    }
    path = write(tmp_path, "P.json", P)
    code, out, _ = invoke(capsys, ["semigroup-at", "--in", path, "--t", "1.0"])
    assert code == 0
    S = WcSymbol.from_json(json.loads(out)["payload"])
    assert abs(S.Q[0, 0] - np.e) < 1e-12
    assert abs(S.q[0] - (np.e - 1)) < 1e-12

    code, _, err = invoke(capsys, ["semigroup-at", "--in", path, "--t", "-1.0"])
    assert code == 2 and "error" in err


def test_semigroup_check_trivial(tmp_path, capsys):
    P = {
        "d": 1,
        "Omega": [[[0.0, 0.0]]],
        "q_star": [[0.0, 0.0]],
        "ell_star": [[0.0, 0.0]],
        "theta_star": [1.0, 0.0],
    }
    path = write(tmp_path, "P.json", P)
    code, out, _ = invoke(
        capsys,
        ["semigroup-check", "--in", path, "--samples", "10", "--seed", "0"],
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["residuals"]["law_defect_max"] <= 1e-12


def test_semigroup_check_with_conjugation(tmp_path, capsys):
    rng = np.random.default_rng(93)
    P, J = rand_j_semigroup_pair(rng, 2)
    ppath = write(tmp_path, "P.json", P.to_json())
    jpath = write(tmp_path, "J.json", J.to_json())
    code, out, _ = invoke(
        capsys,
        [
            "semigroup-check",
            "--in",
            ppath,
            "--conj",
            jpath,
            "--samples",
            "5",
            "--seed",
            "3",
        ],
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["residuals"]["j_selfadjoint_max"] <= 1e-9


def test_generator_apply_command(tmp_path, capsys):
    P = {
        "d": 1,
        "Omega": [[[2.0, 0.0]]],
        "q_star": [[0.5, 0.0]],
        "ell_star": [[0.3, 0.4]],
        "theta_star": [1.1, 0.0],
    }
    fpoly = {"d": 1, "terms": [{"alpha": [1], "coeff": [1.0, 0.0]}]}
    ppath = write(tmp_path, "P.json", P)
    fpath = write(tmp_path, "f.json", fpoly)
    code, out, _ = invoke(
        capsys, ["generator-apply", "--in", ppath, "--poly", fpath]
    )
    assert code == 0
    terms = {
        tuple(t["alpha"]): complex(*t["coeff"])
        for t in json.loads(out)["payload"]["terms"]
    }
    assert abs(terms[(0,)] - 0.5) < 1e-14
    assert abs(terms[(1,)] - 3.1) < 1e-14
    assert abs(terms[(2,)] - (0.3 - 0.4j)) < 1e-14


def test_oracle_defect_command(tmp_path, capsys):
    rng = np.random.default_rng(94)
    S = rand_symbol(rng, 2)
    J = rand_valid_conjugation(rng, 2)
    pts = {
        "d": 2,
        "points": [
            [[0.3, 0.1], [0.0, -0.2]],
            [[-0.5, 0.0], [0.2, 0.2]],
            [[0.1, 0.4], [-0.3, 0.0]],
        ],
    }
    spath = write(tmp_path, "S.json", S.to_json())
    jpath = write(tmp_path, "J.json", J.to_json())
    ppath = write(tmp_path, "pts.json", pts)
    code, out, _ = invoke(
        capsys,
        ["oracle-defect", "--in", spath, "--conj", jpath, "--points", ppath],
    )
    doc = json.loads(out)
    assert code in (0, 1)
    assert doc["residuals"]["adjoint_defect"] <= 1e-9
    assert "j_symmetry_defect" in doc["residuals"]


@pytest.mark.filterwarnings("error")
def test_oracle_defect_past_exp_overflow(tmp_path, capsys):
    from fockwc import find_conjugation_real_symmetric
    from fockwc.jsonio import vector_to_json

    S, pts = large_scale_symbol(np.random.default_rng(95), 2)
    J = find_conjugation_real_symmetric(S)
    spath = write(tmp_path, "S.json", S.to_json())
    jpath = write(tmp_path, "J.json", J.to_json())
    ppath = write(tmp_path, "pts.json", {"d": 2, "points": [vector_to_json(p) for p in pts]})
    code, out, _ = invoke(
        capsys,
        ["oracle-defect", "--in", spath, "--conj", jpath, "--points", ppath],
    )

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    doc = json.loads(out, parse_constant=reject)
    assert code == 0 and doc["verdict"] == "true"
    assert max(doc["residuals"].values()) <= 1e-9


def _symbol_with(**fields):
    return dict(WcSymbol(2.0, [0.5], [[0.3]], [0.5]).to_json(), **fields)


@pytest.mark.parametrize(
    "command, files",
    [
        ("classify", {"in": _symbol_with(theta=[["x"], 0])}),
        ("classify", {"in": _symbol_with(d=[])}),
        (
            "generator-apply",
            {
                "in": {
                    "Omega": [[[0.5, 0.0]]],
                    "q_star": [[0.1, 0.0]],
                    "ell_star": [[0.2, 0.0]],
                    "theta_star": [0.0, 0.0],
                },
                "poly": {"d": 1, "terms": [{"coeff": [1.0, 0.0]}]},
            },
        ),
    ],
    ids=["non-numeric-theta", "list-dimension", "term-without-alpha"],
)
def test_malformed_fields_exit_2(tmp_path, capsys, command, files):
    argv = [command]
    for flag, obj in files.items():
        argv += [f"--{flag}", write(tmp_path, f"{flag}.json", obj)]
    code, out, err = invoke(capsys, argv)
    assert code == 2 and out == "" and "error:" in err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = invoke(capsys, ["classify", "--in", str(path)])
    assert code == 2 and out == "" and "error" in err


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = invoke(capsys, ["classify", "--in", str(path)])
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_tol_must_be_positive_finite(tmp_path, capsys, tol):
    path = write(tmp_path, "S.json", _symbol_with())
    code, out, err = invoke(capsys, ["classify", "--in", path, "--tol", tol])
    assert code == 2 and out == "" and "--tol" in err


def test_expm_overflow_stderr_is_one_error_line(tmp_path):
    P = {
        "d": 1,
        "Omega": [[[0.5, 0.0]]],
        "q_star": [[0.0, 0.0]],
        "ell_star": [[0.0, 0.0]],
        "theta_star": [0.0, 0.0],
    }
    path = write(tmp_path, "P.json", P)
    src = str(Path(fockwc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fockwc.cli", "semigroup-at", "--in", path, "--t", "1e6"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def run_child(args, timeout=120):
    """``python`` with this checkout's fockwc first on the path."""
    src = str(Path(fockwc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout,
    )


@pytest.mark.parametrize(
    "theta_star, argv",
    [(1.0, ["semigroup-at", "--t", "1000"]), (800.0, ["semigroup-check"])],
    ids=["semigroup-at", "semigroup-check"],
)
def test_theta_overflow_stderr_is_one_error_line(tmp_path, theta_star, argv):
    P = {
        "d": 1,
        "Omega": [[[0.0, 0.0]]],
        "q_star": [[0.0, 0.0]],
        "ell_star": [[0.0, 0.0]],
        "theta_star": [theta_star, 0.0],
    }
    path = write(tmp_path, "P.json", P)
    proc = run_child(["-m", "fockwc.cli", *argv, "--in", path])
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "theta_t" in lines[0], proc.stderr


def test_cli_import_loads_no_scipy():
    proc = run_child(
        ["-c", "import sys, fockwc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"]
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_missing_file_exits_2(capsys):
    code, _, err = invoke(capsys, ["adjoint", "--in", "/nonexistent.json"])
    assert code == 2 and "error" in err


def test_unknown_command_exits_2(capsys):
    assert run(["no-such-command"]) == 2


def test_cli_outputs_byte_identical(tmp_path, capsys):
    rng = np.random.default_rng(95)
    P, J = rand_j_semigroup_pair(rng, 2)
    ppath = write(tmp_path, "P.json", P.to_json())
    jpath = write(tmp_path, "J.json", J.to_json())
    argv = [
        "semigroup-check",
        "--in",
        ppath,
        "--conj",
        jpath,
        "--samples",
        "8",
        "--seed",
        "42",
    ]
    _, out1, _ = invoke(capsys, argv)
    _, out2, _ = invoke(capsys, argv)
    assert out1 == out2
    _, out3, _ = invoke(capsys, argv[:-1] + ["43"])
    assert out3 != out1
