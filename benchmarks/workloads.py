"""In-process workloads: prepared inputs, the timed op, and its checker.

Each op calls the package only through module attributes
(``fw.classify.check_real_symmetric`` and so on), so the traced run can
wrap those entry points in place.  ``check`` runs outside the timed
region and returns (passed, margins), where each margin is
``log10(acceptance_bound / residual)`` for one residual that the bound
governs.
"""

from __future__ import annotations

import math

import numpy as np

import calibrate
import gen

KERNEL_BOUND = 1e-9  # adjoint and J-symmetry defects on kernel spans
VERDICT_TOL = 1e-9  # default classifier and validation tolerance
CROSS_CHECK_BOUND = 1e-8  # two-engine agreement under the declared tail
NEGATIVE_FLOOR = 1e-6  # a defect that must show is at least this large
GENERATOR_RATIO = (0.4, 0.6)  # first-order convergence: 0.5 +- 0.1
LAW_TOL = 1e-9  # check_laws tolerance, relative to magnitude


def margin(bound: float, residual: float) -> float:
    return math.log10(bound / max(abs(residual), 1e-300))


def residual_margins(residuals: dict, bound: float) -> list[float]:
    return [margin(bound, r) for r in residuals.values()]


def symbol(fw, S):
    return fw.WcSymbol(S["theta"], S["ell"], S["Q"], S["q"])


def conjugation(fw, J):
    return fw.ConjugationParams(J["A"], J["b"], J["c"])


def semigroup(fw, P):
    return fw.SemigroupParams(P["Omega"], P["q_star"], P["ell_star"], P["theta_star"])


def magnitude(S) -> float:
    """Largest component modulus, the scale ``symbols_equal`` uses."""
    return max(abs(S.theta), float(np.max(np.abs(S.ell))),
               float(np.max(np.abs(S.Q))), float(np.max(np.abs(S.q))))


class InProcess:
    """Defaults shared by the in-process workloads."""

    def probes(self, fw, rng):
        return []

    def calibration(self):
        return calibrate.Calibration.in_process()

    def section_shapes(self, fw, cases):
        return []

    def warmup(self, fw, cases):
        """One op for each distinct input dimension."""
        seen = set()
        for case in cases:
            if case.get("d") not in seen:
                seen.add(case.get("d"))
                self.op(fw, case)

    @staticmethod
    def describe(case, result):
        return "an expected verdict or acceptance bound was missed"


# --- certify -----------------------------------------------------------------


class Certify(InProcess):
    name = "certify"

    def prepare(self, fw, rng):
        return [self._prepared(fw, c) for c in gen.certify_pool(rng)]

    def probes(self, fw, rng):
        """Large-scale symbols: |<q, w>| = 900 > 709 (known defect)."""
        out = []
        for d in (1, 2, 3, 4):
            case = gen.large_scale_case(rng, d)
            case["J"] = gen.rand_conjugation(rng, d)
            verdicts = {k: r <= 1e-9 for k, r in gen.ref_class_residuals(case["S"]).items()}
            verdicts["j_selfadjoint"] = gen.ref_j_selfadjoint_residual(case["S"], case["J"]) <= 1e-9
            case.update(expect=verdicts, finder="real", expect_symmetric=True)
            out.append(self._prepared(fw, case))
        return out

    @staticmethod
    def _prepared(fw, c):
        return dict(c, S=symbol(fw, c["S"]), J=conjugation(fw, c["J"]),
                    cls=f"{c['kind']}-d{c['d']}")

    @staticmethod
    def op(fw, case):
        C, K, O = fw.classify, fw.conjugation, fw.oracle
        S, J, pts = case["S"], case["J"], case["points"]
        r = {
            "real": C.check_real_symmetric(S),
            "skew": C.check_skew_real_symmetric(S),
            "normal": C.check_normal_bounded(S),
            "bounded": C.check_bounded_necessary(S),
            "j_selfadjoint": C.check_J_selfadjoint(S, J),
        }
        found, finder = None, None
        for name, find in (("real", K.find_conjugation_real_symmetric),
                           ("normal", K.find_conjugation_normal)):
            try:
                found, finder = find(S), name
                break
            except fw.NotApplicableError:
                continue
        r["finder"] = finder
        if found is not None:
            r["validate"] = K.validate(found)
            r["found_selfadjoint"] = C.check_J_selfadjoint(S, found)
        r["adjoint_defect"] = O.adjoint_defect(S, pts)
        r["j_symmetry_defect"] = O.j_symmetry_defect(
            S, found if found is not None else J, pts
        )
        return r

    @staticmethod
    def check(case, r):
        ok = r["finder"] == case["finder"]
        margins = []
        for key, expected in case["expect"].items():
            verdict, residuals = r[key]
            ok = ok and verdict == expected
            if expected:
                margins += residual_margins(residuals, VERDICT_TOL)
        if r["finder"] is not None:
            for key in ("validate", "found_selfadjoint"):
                verdict, residuals = r[key]
                ok = ok and verdict
                margins += residual_margins(residuals, VERDICT_TOL)
        ok = ok and math.isfinite(r["adjoint_defect"]) and r["adjoint_defect"] <= KERNEL_BOUND
        margins.append(margin(KERNEL_BOUND, r["adjoint_defect"]))
        jsd = r["j_symmetry_defect"]
        if case["expect_symmetric"]:
            ok = ok and jsd <= KERNEL_BOUND
            margins.append(margin(KERNEL_BOUND, jsd))
        else:
            ok = ok and jsd >= NEGATIVE_FLOOR
        return bool(ok), margins


# --- crosscheck --------------------------------------------------------------


class Crosscheck(InProcess):
    name = "crosscheck"

    def prepare(self, fw, rng):
        return [
            {"cls": "round",
             "items": [dict(c, S=symbol(fw, c["S"])) for c in round_]}
            for round_ in gen.crosscheck_pool(rng)
        ]

    def section_shapes(self, fw, cases):
        return [(c["S"], c["N"]) for c in cases[0]["items"]]

    def calibration(self):
        # the dense section products run BLAS on every core
        return calibrate.Calibration.in_process(with_gemm=True)

    @staticmethod
    def op(fw, case):
        O = fw.oracle
        return [O.cross_check(c["S"], c["w"], c["N"]) for c in case["items"]]

    @staticmethod
    def check(case, r):
        ok = all(math.isfinite(x) and x <= CROSS_CHECK_BOUND for x in r)
        return ok, [margin(CROSS_CHECK_BOUND, x) for x in r]


# --- flow --------------------------------------------------------------------


class Flow(InProcess):
    name = "flow"

    def prepare(self, fw, rng):
        out = []
        for c in gen.flow_pool(rng):
            poly = None
            if c["poly"] is not None:
                poly = fw.MPoly(c["d"], dict(c["poly"]))
            out.append(dict(c, P=semigroup(fw, c["P"]), J=conjugation(fw, c["J"]),
                            poly=poly, cls=f"flow-d{c['d']}"))
        return out

    def section_shapes(self, fw, cases):
        shapes, seen = [], set()
        for c in cases:
            if c["poly"] is not None and c["d"] not in seen:
                seen.add(c["d"])
                # generator_fd_residual sections C(h) at degree deg(f) + 2
                S_h = fw.semigroup.symbol_at(c["P"], gen.FLOW_STEP)
                shapes.append((S_h, c["poly"].degree() + 2))
        return shapes

    @staticmethod
    def op(fw, case):
        G, C = fw.semigroup, fw.classify
        P, J, t, s = case["P"], case["J"], case["t"], case["s"]
        r = {"laws": G.check_laws(P, t, s)}
        S_ts = G.symbol_at(P, t + s)
        r["magnitude"] = magnitude(S_ts)
        r["selfadjoint"] = C.check_J_selfadjoint(S_ts, J)
        r["conditions"] = G.validate_J_conditions(P, J)
        r["continuity"] = G.continuity_defect(P, case["w"], t)
        if case["poly"] is not None:
            h = gen.FLOW_STEP
            r["generator"] = (G.generator_fd_residual(P, case["poly"], h),
                              G.generator_fd_residual(P, case["poly"], h / 2))
        return r

    @staticmethod
    def check(case, r):
        law_ok, law_defect = r["laws"]
        law_bound = max(LAW_TOL * (1.0 + r["magnitude"]), 1e-12)
        ok = law_ok and law_defect <= law_bound
        margins = [margin(law_bound, law_defect)]
        verdict, residuals = r["selfadjoint"]
        ok = ok and verdict
        margins += residual_margins(residuals, VERDICT_TOL)
        verdict, residuals = r["conditions"]
        ok = ok and verdict
        margins += [margin(VERDICT_TOL, residuals[k])
                    for k in ("AOmega_symmetric", "ell_condition")]
        cont = r["continuity"]
        ok = ok and math.isfinite(cont) and cont >= 0.0
        if "generator" in r:
            r1, r2 = r["generator"]
            lo, hi = GENERATOR_RATIO
            ok = ok and r1 > 0 and lo <= r2 / r1 <= hi
        return bool(ok), margins


WORKLOADS = {w.name: w for w in (Certify(), Crosscheck(), Flow())}
