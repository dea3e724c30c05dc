"""Each verdict subcommand reads its verdict off the library's own check:
"true" where the check passes at ``--tol``, "indeterminate" where it passes
only at 10 ``--tol``, "false" otherwise.  ``semigroup-check`` takes its law
verdict from the relative bound of ``semigroup._laws``, not from an
absolute comparison of ``law_defect_max`` with ``--tol``."""

import json

import numpy as np

import fockwc as fw
from fockwc import PreconditionError
from fockwc import semigroup as sg
from fockwc.cli import run
from helpers import (
    rand_j_semigroup_pair,
    rand_real_symmetric_symbol,
    rand_symbol,
    rand_valid_conjugation,
)

# the default --samples and --seed of semigroup-check
_SAMPLES, _SEED = 20, 0
# --tol values that put the library's checks on every side of their bounds
_TOLS = (1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-10, 1e-9, 1e-7, 1e-4)


def _write(tmp_path, name, value) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(value.to_json()))
    return str(path)


def _cli(capsys, argv) -> tuple[int, dict | None]:
    """Exit code and output document; None where nothing was written."""
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def _banded(check, tol: float) -> str:
    """The verdict of a library check ``check(tol) -> bool`` at ``tol``, or
    "error" where the check refuses its input there (a conjugation that is
    not admissible at ``tol``), which the command line exits 2 on."""
    try:
        if check(tol):
            return "true"
    except PreconditionError:
        return "error"
    return "indeterminate" if check(10.0 * tol) else "false"


def _agrees(code: int, doc, want: str) -> bool:
    if want == "error":
        return code == 2 and doc is None
    return code == (0 if want == "true" else 1) and doc["verdict"] == want


def _sampled_pairs():
    rng = np.random.default_rng(_SEED)
    return rng.uniform(0.0, 1.0, size=(_SAMPLES, 2)).tolist()


def test_semigroup_check_takes_the_relative_law_verdict(tmp_path, capsys):
    # |theta_{t+s}| reaches about 1.2e6, so the law defect 3.06e-9 is far
    # inside the relative bound, though above the absolute 1e-9
    P = fw.SemigroupParams([[0.19 - 0.456j]], [-2.80 + 0.20j], [-1.76 + 1.48j], 0.3)
    assert all(fw.check_laws(P, t, s)[0] for t, s in _sampled_pairs())
    code, doc = _cli(capsys, ["semigroup-check", "--in", _write(tmp_path, "P.json", P)])
    assert doc["verdict"] == "true" and code == 0
    assert 3.0e-9 < doc["residuals"]["law_defect_max"] < 3.1e-9


def _law_verdict(P, J, tol):
    def laws(tol):
        return all(sg.check_laws(P, t, s, tol)[0] for t, s in _sampled_pairs())

    def conditions(tol):
        if J is None:
            return True
        ok = sg.validate_J_conditions(P, J, tol)[0]
        members = [S for t, s in _sampled_pairs() for S in sg.symbols_at(P, (t, s))]
        return ok and all(fw.check_J_selfadjoint(S, J, tol)[0] for S in members)

    verdicts = {_banded(laws, tol), _banded(conditions, tol)}
    for verdict in ("error", "false", "indeterminate"):
        if verdict in verdicts:
            return verdict
    return "true"


def _semigroup_cases():
    rng = np.random.default_rng(2626)
    P, J = rand_j_semigroup_pair(rng, 2)
    big = fw.SemigroupParams(P.Omega, 30.0 * P.q_star, 30.0 * P.ell_star, P.theta_star)
    Q, _ = rand_j_semigroup_pair(rng, 1)
    off = fw.SemigroupParams(Q.Omega, Q.q_star, Q.ell_star + 1e-8, Q.theta_star)
    return [(P, J), (P, None), (big, None), (off, rand_valid_conjugation(rng, 1))]


def test_semigroup_check_agrees_with_the_library_at_every_tol(tmp_path, capsys):
    seen = set()
    for P, J in _semigroup_cases():
        argv = ["semigroup-check", "--in", _write(tmp_path, "P.json", P)]
        if J is not None:
            argv += ["--conj", _write(tmp_path, "J.json", J)]
        for tol in _TOLS:
            code, doc = _cli(capsys, argv + ["--tol", repr(tol)])
            want = _law_verdict(P, J, tol)
            assert _agrees(code, doc, want), (tol, want, code, doc)
            seen.add(want)
    assert seen == {"true", "indeterminate", "false", "error"}


def test_validate_conjugation_agrees_with_the_library_at_every_tol(tmp_path, capsys):
    rng = np.random.default_rng(2627)
    J = rand_valid_conjugation(rng, 3)
    near = fw.ConjugationParams(J.A + 1e-9, J.b, J.c)
    seen = set()
    for value in (J, near):
        path = _write(tmp_path, "J.json", value)
        for tol in _TOLS:
            code, doc = _cli(capsys, ["validate-conjugation", "--in", path, "--tol", repr(tol)])
            want = _banded(lambda tol: fw.validate(value, tol)[0], tol)
            assert _agrees(code, doc, want), (tol, want, code, doc)
            seen.add(want)
    assert seen == {"true", "indeterminate", "false"}


_CLASS_CHECKS = {
    "real": fw.check_real_symmetric,
    "skew_real": fw.check_skew_real_symmetric,
    "normal_bounded": fw.check_normal_bounded,
    "bounded_necessary": fw.check_bounded_necessary,
}


def test_classify_agrees_with_the_library_at_every_tol(tmp_path, capsys):
    rng = np.random.default_rng(2628)
    R = rand_real_symmetric_symbol(rng, 2)
    near = fw.WcSymbol(R.theta, R.ell, R.Q + 1e-9 * np.triu(np.ones((2, 2)), 1), R.q)
    J = rand_valid_conjugation(rng, 2)
    seen = set()
    for S in (R, near, rand_symbol(rng, 2)):
        argv = ["classify", "--in", _write(tmp_path, "S.json", S),
                "--with-conjugation", _write(tmp_path, "J.json", J)]
        checks = {**_CLASS_CHECKS, "j_selfadjoint": lambda S, tol: fw.check_J_selfadjoint(S, J, tol)}
        for tol in _TOLS:
            code, doc = _cli(capsys, argv + ["--tol", repr(tol)])
            wants = {name: _banded(lambda tol: check(S, tol)[0], tol)
                     for name, check in checks.items()}
            if "error" in wants.values():
                assert code == 2 and doc is None, tol
            else:
                assert {name: doc["payload"][name] for name in wants} == wants, tol
            seen.update(wants.values())
    assert {"true", "indeterminate", "false"} <= seen

