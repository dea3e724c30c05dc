"""The ``cli`` workload: one ``fockwc`` child process per op.

Inputs are written once per run as JSON files; each op runs
``python -m fockwc.cli <subcommand> ...`` and is timed from spawn to exit.
The checker requires the expected exit code, strict JSON on stdout (no
NaN or Infinity), and a payload that is right: residuals under the
tolerance, or a property of the returned object checked in-process (the
conjugated symbol conjugates back, a found conjugation is valid and makes
the operator J-selfadjoint, the generator matches its formula).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import calibrate
import gen
import workloads as W

CHILD_TIMEOUT_S = 60


class NonStrictJSON(ValueError):
    pass


def _reject_constant(token):
    raise NonStrictJSON(f"non-standard JSON constant {token}")


def strict_loads(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _cx(pair):
    return complex(pair[0], pair[1])


def _vec(obj):
    return np.array([_cx(p) for p in obj], dtype=np.complex128)


def _mat(obj):
    return np.array([[_cx(p) for p in row] for row in obj], dtype=np.complex128)


def _symbol_dict(obj):
    return {"theta": _cx(obj["theta"]), "ell": _vec(obj["ell"]),
            "Q": _mat(obj["Q"]), "q": _vec(obj["q"])}


def _conj_dict(obj):
    return {"A": _mat(obj["A"]), "b": _vec(obj["b"]), "c": _cx(obj["c"])}


def _sem_dict(obj):
    return {"Omega": _mat(obj["Omega"]), "q_star": _vec(obj["q_star"]),
            "ell_star": _vec(obj["ell_star"]), "theta_star": _cx(obj["theta_star"])}


def _distance(S1, S2) -> tuple[float, float]:
    """(largest componentwise deviation, 1 + largest modulus)."""
    dev = max(abs(S1["theta"] - S2["theta"]),
              *(float(np.max(np.abs(S1[k] - S2[k]))) for k in ("ell", "Q", "q")))
    mag = max(abs(S1["theta"]), *(float(np.max(np.abs(S1[k]))) for k in ("ell", "Q", "q")))
    return dev, 1.0 + mag


def _generator_reference(P, terms, d):
    """G f = (theta* + <z, l*>) f + sum_k (df/dz_k)(Omega z + q*)_k as a
    coefficient dict, for f given as (alpha, coeff) terms."""
    def unit(j):
        return tuple(int(i == j) for i in range(d))

    def mul(f, g):
        out = {}
        for a, x in f.items():
            for b, y in g.items():
                key = tuple(i + j for i, j in zip(a, b))
                out[key] = out.get(key, 0) + x * y
        return out

    def add(f, g):
        out = dict(f)
        for a, x in g.items():
            out[a] = out.get(a, 0) + x
        return out

    f = dict(terms)
    zero = (0,) * d
    weight = {zero: P["theta_star"]}
    weight.update({unit(j): np.conj(P["ell_star"][j]) for j in range(d)})
    out = mul(weight, f)
    for k in range(d):
        fk = {}
        for a, x in f.items():
            if a[k] > 0:
                fk[tuple(a[i] - (i == k) for i in range(d))] = x * a[k]
        drift = {zero: P["q_star"][k]}
        drift.update({unit(j): P["Omega"][k, j] for j in range(d)})
        out = add(out, mul(fk, drift))
    return out


def run_child(root, args, **kwargs):
    """Run ``python <args>`` in ``root`` with ``root/src`` on the path."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, *args], cwd=root, env=env, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S, **kwargs,
    )


def import_split(root, repeats=3) -> dict:
    """Median cumulative seconds of ``import fockwc`` and of the numpy and
    scipy imports inside it, from ``python -X importtime``."""
    runs = []
    for _ in range(repeats):
        proc = run_child(root, ["-X", "importtime", "-c", "import fockwc"], check=True)
        runs.append(importtime_split(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


class Cli:
    def __init__(self, root, workdir, fw):
        self.root = str(root)
        self.workdir = str(workdir)
        self.fw = fw
        self.exit_mismatch = 0
        self.nonstrict = 0
        os.makedirs(self.workdir, exist_ok=True)

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    # --- inputs ----------------------------------------------------------------

    def _materialise(self, cases, tag):
        for i, case in enumerate(cases):
            argv = [case["cmd"]]
            for stem, doc in case["files"].items():
                path = os.path.join(self.workdir, f"{tag}{i}-{stem}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                argv += ["--" + stem, path]
            case["argv"] = argv + case["extra"]
            case["cls"] = case["cmd"]
        return cases

    def prepare(self, fw, rng):
        return self._materialise(gen.cli_pool(rng, reps=2), "op")

    def probes(self, fw, rng):
        return self._materialise(gen.cli_known_defects(rng), "probe")

    def calibration(self):
        return calibrate.Calibration.child_process()

    def warmup(self, fw, cases):
        import fockwc.cli  # noqa: F401  (for the warm in-process runs)

    # --- the op ------------------------------------------------------------------

    def op(self, fw, case):
        proc = run_child(self.root, ["-m", "fockwc.cli", *case["argv"]])
        return proc.returncode, proc.stdout

    def check(self, case, result):
        """Exit code, strict JSON and payload; counts the first two."""
        code, stdout = result
        mismatch = code != case["code"]
        self.exit_mismatch += mismatch
        try:
            doc = strict_loads(stdout)
        except NonStrictJSON:
            self.nonstrict += 1
            return False, []
        except json.JSONDecodeError:
            return False, []
        if mismatch:
            return False, []
        try:
            return self._payload_ok(self.fw, case, doc)
        except (KeyError, TypeError, ValueError):
            return False, []

    @staticmethod
    def describe(case, result):
        code, stdout = result
        try:
            strict_loads(stdout)
            form = "strict JSON"
        except ValueError as exc:
            form = f"not strict JSON ({exc})"
        return f"exit {code} (expected {case['code']}), stdout {form}"

    @staticmethod
    def _payload_ok(fw, case, doc):
        cmd, files = case["cmd"], case["files"]
        res = doc["residuals"]
        verdict = doc["verdict"]
        if cmd in ("validate-conjugation", "semigroup-check", "oracle-defect"):
            ok = verdict == ("true" if case["code"] == 0 else "false")
            return ok, W.residual_margins(res, W.VERDICT_TOL) if case["code"] == 0 else []
        if cmd == "classify":
            ok = verdict == "true" and doc["payload"]["j_selfadjoint"] == "true"
            js = {k: v for k, v in res.items() if k.startswith("j_selfadjoint.")}
            return ok, W.residual_margins(js, W.VERDICT_TOL)
        S = _symbol_dict(files["in"]) if "theta" in files["in"] else None
        if cmd == "adjoint":
            T = _symbol_dict(doc["payload"])
            expect = {"theta": np.conj(S["theta"]), "ell": S["q"],
                      "Q": np.conj(S["Q"]).T, "q": S["ell"]}
            dev, scale = _distance(T, expect)
            return dev <= 1e-15 * scale, []
        if cmd == "conjugate":
            J = W.conjugation(fw, _conj_dict(files["conj"]))
            back = fw.conjugation.conjugate_by_J(W.symbol(fw, _symbol_dict(doc["payload"])), J)
            back = {"theta": back.theta, "ell": back.ell, "Q": back.Q, "q": back.q}
            dev, scale = _distance(back, S)
            return dev <= W.LAW_TOL * scale, [W.margin(W.LAW_TOL * scale, dev)]
        if cmd == "find-conjugation":
            if case["code"] == 1:
                return verdict == "n/a", []
            J = W.conjugation(fw, _conj_dict(doc["payload"]))
            ok_v, r_v = fw.conjugation.validate(J)
            ok_s, r_s = fw.classify.check_J_selfadjoint(W.symbol(fw, S), J)
            margins = W.residual_margins(r_v, W.VERDICT_TOL) + W.residual_margins(r_s, W.VERDICT_TOL)
            return verdict == "true" and ok_v and ok_s, margins
        P = _sem_dict(files["in"])
        if cmd == "semigroup-at":
            t = float(case["extra"][1])
            ref = fw.semigroup.symbol_at(W.semigroup(fw, P), t)
            ref = {"theta": ref.theta, "ell": ref.ell, "Q": ref.Q, "q": ref.q}
            dev, scale = _distance(_symbol_dict(doc["payload"]), ref)
            return dev <= 1e-12 * scale, []
        # generator-apply
        d = files["in"]["d"]
        terms = [(tuple(t["alpha"]), _cx(t["coeff"])) for t in files["poly"]["terms"]]
        expect = _generator_reference(P, terms, d)
        got = {tuple(t["alpha"]): _cx(t["coeff"]) for t in doc["payload"]["terms"]}
        keys = set(expect) | set(got)
        dev = max(abs(expect.get(k, 0) - got.get(k, 0)) for k in keys)
        scale = 1.0 + max(abs(v) for v in expect.values())
        return dev <= 1e-12 * scale, []

    # --- breakdown from outside (traced run) -------------------------------------

    def spawn_floor(self, repeats=5) -> float:
        """Median wall time of a bare ``python -c pass`` child."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            run_child(self.root, ["-c", "pass"], check=True)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def warm_run(self, cases, repeats=3) -> float:
        """Mean over the cases of the median in-process ``cli.run`` time."""
        per = []
        for case in cases:
            times = []
            for _ in range(repeats):
                sink_out, sink_err = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                    self.fw.cli.run(case["argv"])
                times.append(time.perf_counter() - t0)
            per.append(statistics.median(times))
        return statistics.fmean(per)

    def codec_times(self, cases, repeats=3) -> tuple[float, float]:
        """Mean per-op seconds to parse the inputs (json.load + from_json)
        and to emit them again (to_json + json.dumps)."""
        fw = self.fw
        loaders = {"conj": fw.ConjugationParams,
                   "with-conjugation": fw.ConjugationParams, "poly": fw.MPoly}
        parse, emit = [], []
        for case in cases:
            kinds = []
            for stem, doc in case["files"].items():
                if stem == "points":
                    continue
                cls = loaders.get(stem)
                if cls is None:  # the --in file
                    cls = (fw.SemigroupParams if "Omega" in doc
                           else fw.ConjugationParams if "A" in doc else fw.WcSymbol)
                path = case["argv"][case["argv"].index("--" + stem) + 1]
                kinds.append((cls, path))
            tp, te = [], []
            for _ in range(repeats):
                t0 = time.perf_counter()
                objs = []
                for cls, path in kinds:
                    with open(path, encoding="utf-8") as fh:
                        objs.append(cls.from_json(json.load(fh)))
                t1 = time.perf_counter()
                for obj in objs:
                    json.dumps(obj.to_json(), sort_keys=True, indent=2)
                t2 = time.perf_counter()
                tp.append(t1 - t0)
                te.append(t2 - t1)
            parse.append(statistics.median(tp))
            emit.append(statistics.median(te))
        return statistics.fmean(parse), statistics.fmean(emit)


def importtime_split(stderr: str) -> dict:
    """Cumulative seconds of ``import fockwc`` and of numpy and scipy in it.

    ``-X importtime`` lists imports in post-order, one per line, indented by
    nesting depth.  fockwc counts at its outermost import; numpy and scipy
    count where neither is already an ancestor, so numpy modules first
    imported by scipy count once, as scipy's.
    """
    nodes = []  # (depth, top-level package, cumulative us)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|", 2)
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        nodes.append((depth, name.strip().split(".")[0], int(cum)))
    out = {"fockwc": 0.0, "numpy": 0.0, "scipy": 0.0}
    families = {"fockwc": {"fockwc"}, "numpy": {"numpy", "scipy"},
                "scipy": {"numpy", "scipy"}}
    # reversed post-order is a pre-order: keep the chain of ancestors
    chain: list[tuple[int, str]] = []
    for depth, top, cum in reversed(nodes):
        while chain and chain[-1][0] >= depth:
            chain.pop()
        if top in out and not any(a in families[top] for _, a in chain):
            out[top] += cum * 1e-6
        chain.append((depth, top))
    return out
