"""Batch command line front end.

Each invocation reads JSON inputs, runs one library operation, and writes
exactly one JSON document to standard output; diagnostics go to standard
error.  Exit codes, set by ``run`` from the document's verdict alone: 0 for
"true" (a positive verdict or successful transformation), 1 for any other
verdict (negative, indeterminate or not applicable), 2 for malformed input
or a violated precondition.  Overflow follows the library's rule: a payload or
a matrix residual that overflows is a ``ValueError`` naming the quantity
(exit 2); a vector residual that overflows is inf or NaN, fails its verdict
and is written as null (exit 1).

Verdicts are tri-state around the tolerance: residuals at most ``tol``
pass, residuals in (tol, 10 tol] are reported as "indeterminate" (still
exit 1), anything larger is "false".  Output is deterministic: fixed key
order, fixed float formatting, and seeded sampling.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import classify as _classify
from . import conjugation as _conj
from . import jsonio
from . import oracle as _oracle
from . import semigroup as _sg
from . import symbols as _sym
from .errors import DegreeCapError, NotApplicableError
from .linalg import DEFAULT_TOL, residuals_within
from .polynomials import MPoly


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deeply in {path}") from exc


def _tolerance(text: str) -> float:
    """argparse type of --tol: a positive finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _load_points(path: str):
    points, d = jsonio.read_fields(
        _load_json(path), "points", defaults={"d": None},
        points=lambda ps: [jsonio.vector_from_json(p) for p in ps], d=int,
    )
    jsonio.check_dim("points", d, *(p.size for p in points))
    return points


def _verdict(residuals: dict, tol: float) -> str:
    if residuals_within(residuals, tol):
        return "true"
    if residuals_within(residuals, 10.0 * tol):
        return "indeterminate"
    return "false"


def _emit(verdict: str, residuals: dict | None = None, payload=None) -> dict:
    """Output document; a non-finite residual is written as null."""
    residuals = {k: v if math.isfinite(v) else None for k, v in (residuals or {}).items()}
    doc: dict = {"verdict": verdict, "residuals": residuals}
    if payload is not None:
        doc["payload"] = payload
    return doc


# --- subcommands --------------------------------------------------------------


def _cmd_validate_conjugation(args) -> dict:
    J = _conj.ConjugationParams.from_json(_load_json(args.infile))
    _, residuals = _conj.validate(J, args.tol)
    return _emit(_verdict(residuals, args.tol), residuals)


def _cmd_classify(args) -> dict:
    S = _sym.WcSymbol.from_json(_load_json(args.infile))
    checks = {
        "real": _classify.check_real_symmetric(S, args.tol)[1],
        "skew_real": _classify.check_skew_real_symmetric(S, args.tol)[1],
        "normal_bounded": _classify.check_normal_bounded(S, args.tol)[1],
        "bounded_necessary": _classify.check_bounded_necessary(S, args.tol)[1],
    }
    if args.with_conjugation:
        J = _conj.ConjugationParams.from_json(_load_json(args.with_conjugation))
        checks["j_selfadjoint"] = _classify.check_J_selfadjoint(S, J, args.tol)[1]
    verdicts = {name: _verdict(res, args.tol) for name, res in checks.items()}
    residuals = {
        f"{name}.{key}": value
        for name, res in checks.items()
        for key, value in res.items()
    }
    # "true" when the symbol is in at least one symmetry class
    member = any(v == "true" for k, v in verdicts.items() if k != "bounded_necessary")
    return _emit("true" if member else "false", residuals, payload=verdicts)


def _cmd_adjoint(args) -> dict:
    S = _sym.WcSymbol.from_json(_load_json(args.infile))
    return _emit("true", payload=_sym.adjoint_symbol(S).to_json())


def _cmd_conjugate(args) -> dict:
    S = _sym.WcSymbol.from_json(_load_json(args.infile))
    J = _conj.ConjugationParams.from_json(_load_json(args.conj))
    return _emit("true", payload=_conj.conjugate_by_J(S, J, args.tol).to_json())


def _cmd_find_conjugation(args) -> dict:
    S = _sym.WcSymbol.from_json(_load_json(args.infile))
    real, normal = _conj.find_conjugation_real_symmetric, _conj.find_conjugation_normal
    finders = {"real": [real], "normal": [normal], "auto": [real, normal]}[args.mode]
    for finder in finders:
        try:
            J = finder(S, args.tol)
        except NotApplicableError:
            continue
        return _emit("true", payload=J.to_json())
    return _emit("n/a")


def _cmd_semigroup_at(args) -> dict:
    P = _sg.SemigroupParams.from_json(_load_json(args.infile))
    S = _sg.symbol_at(P, args.t)
    return _emit("true", payload=S.to_json())


def _cmd_semigroup_check(args) -> dict:
    P = _sg.SemigroupParams.from_json(_load_json(args.infile))
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    rng = np.random.default_rng(args.seed)
    times = rng.uniform(0.0, 1.0, size=(args.samples, 2))
    # one stack (t, s, t + s) per sampled pair gives both residual families
    members = []
    law_defect = 0.0
    for t, s in times.tolist():
        S_t, S_s, S_ts = _sg.symbols_at(P, (t, s, t + s))
        law_defect = max(law_defect, _sg._laws(S_t, S_s, S_ts, args.tol)[1])
        members += (S_t, S_s)
    residuals = {"law_defect_max": law_defect}
    if args.conj:
        J = _conj.ConjugationParams.from_json(_load_json(args.conj))
        _, cond = _sg.validate_J_conditions(P, J, args.tol)
        residuals["AOmega_symmetric"] = cond["AOmega_symmetric"]
        residuals["ell_condition"] = cond["ell_condition"]
        worst_sa = 0.0
        for S in members:
            _, res = _classify.check_J_selfadjoint(S, J, args.tol)
            worst_sa = max(worst_sa, max(res.values()))
        residuals["j_selfadjoint_max"] = worst_sa
    return _emit(_verdict(residuals, args.tol), residuals)


def _cmd_generator_apply(args) -> dict:
    P = _sg.SemigroupParams.from_json(_load_json(args.infile))
    f = MPoly.from_json(_load_json(args.poly))
    return _emit("true", payload=_sg.generator_apply(P, f).to_json())


def _cmd_oracle_defect(args) -> dict:
    S = _sym.WcSymbol.from_json(_load_json(args.infile))
    points = _load_points(args.points)
    residuals = {"adjoint_defect": _oracle.adjoint_defect(S, points)}
    if args.conj:
        J = _conj.ConjugationParams.from_json(_load_json(args.conj))
        residuals["j_symmetry_defect"] = _oracle.j_symmetry_defect(S, J, points, args.tol)
    return _emit(_verdict(residuals, args.tol), residuals)


# --- parser and entry point ---------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage error is one stderr line, as every other
    error of the tool: ``fockwc <cmd>: error: ...``, exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fockwc",
        description=(
            "Weighted composition operators on the Fock space: validate "
            "conjugations, classify symmetries, construct conjugations, "
            "evolve semigroups, and compute oracle defects over JSON files."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--in", dest="infile", required=True, metavar="FILE")
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
        return p

    add(
        "validate-conjugation",
        _cmd_validate_conjugation,
        "check the three conjugation admissibility conditions",
    )

    p = add("classify", _cmd_classify, "symmetry-class verdicts for a symbol")
    p.add_argument("--with-conjugation", metavar="FILE", default=None)

    add("adjoint", _cmd_adjoint, "adjoint symbol")

    p = add("conjugate", _cmd_conjugate, "symbol of J C J")
    p.add_argument("--conj", required=True, metavar="FILE")

    p = add(
        "find-conjugation",
        _cmd_find_conjugation,
        "construct a conjugation making the operator J-selfadjoint",
    )
    p.add_argument("--mode", choices=["real", "normal", "auto"], default="auto")

    p = add("semigroup-at", _cmd_semigroup_at, "semigroup symbol at time t")
    p.add_argument("--t", type=float, required=True)

    p = add(
        "semigroup-check",
        _cmd_semigroup_check,
        "sampled semigroup-law and selfadjointness defects",
    )
    p.add_argument("--conj", metavar="FILE", default=None)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = add("generator-apply", _cmd_generator_apply, "apply the generator to a polynomial")
    p.add_argument("--poly", required=True, metavar="FILE")

    p = add(
        "oracle-defect",
        _cmd_oracle_defect,
        "kernel-span adjoint and J-symmetry defects",
    )
    p.add_argument("--conj", metavar="FILE", default=None)
    p.add_argument("--points", required=True, metavar="FILE")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        doc = args.func(args)
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except (ValueError, DegreeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0 if doc["verdict"] == "true" else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
