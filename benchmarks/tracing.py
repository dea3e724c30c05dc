"""Span tracing around the package's layer entry points.

Only the traced run installs the wrappers.  Each wrapper is bound where
its callers look the function up (``fockwc.oracle.act_on_kernel``,
``fockwc.semigroup.expm``, ...), so every call into a layer passes
through exactly one wrapper.  Spans are kept in memory as
[name, start, end, parent, op] and reduced when the run ends; a layer's
self time is its span duration minus the time covered by its child spans.
Counts that follow from input sizes (kernel exponentials, section flops)
are computed in the wrappers from the arguments.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

# (module[:class], attribute, span name).  A span name of None counts calls
# without a span, so the time stays with the caller.
ENTRY_POINTS = (
    ("fockwc.linalg", "expm", "linalg.expm"),
    ("fockwc.linalg", "op_norm", "linalg.op_norm"),
    ("fockwc.conjugation", "validate", None),
    ("fockwc.conjugation", "require_valid", "conjugation.require_valid"),
    ("fockwc.conjugation", "herm_eig", "linalg.eig"),
    ("fockwc.conjugation", "normal_eig", "linalg.eig"),
    ("fockwc.conjugation", "op_norm", "linalg.op_norm"),
    ("fockwc.conjugation", "find_conjugation_real_symmetric", "conjugation.find"),
    ("fockwc.conjugation", "find_conjugation_normal", "conjugation.find"),
    ("fockwc.classify", "require_valid", "conjugation.require_valid"),
    ("fockwc.classify", "op_norm", "linalg.op_norm"),
    ("fockwc.classify", "check_real_symmetric", "classify"),
    ("fockwc.classify", "check_skew_real_symmetric", "classify"),
    ("fockwc.classify", "check_normal_bounded", "classify"),
    ("fockwc.classify", "check_bounded_necessary", "classify"),
    ("fockwc.classify", "check_J_selfadjoint", "classify"),
    ("fockwc.oracle", "require_valid", "conjugation.require_valid"),
    ("fockwc.oracle", "apply_to_kernel", "conjugation.apply_to_kernel"),
    ("fockwc.oracle", "act_on_kernel", "symbols.act_on_kernel"),
    ("fockwc.oracle", "op_norm", "linalg.op_norm"),
    ("fockwc.oracle", "pairing_defect", "oracle.kernel"),
    ("fockwc.oracle", "j_symmetry_defect", "oracle.kernel"),
    ("fockwc.oracle", "trunc_symbol_matrix", "oracle.section"),
    ("fockwc.oracle", "cross_check", "oracle.cross_check"),
    ("fockwc.semigroup", "require_valid", "conjugation.require_valid"),
    ("fockwc.semigroup", "op_norm", "linalg.op_norm"),
    ("fockwc.semigroup", "expm", "linalg.expm"),
    ("fockwc.semigroup", "phi12", "linalg.phi12"),
    ("fockwc.semigroup", "compose", "symbols.compose"),
    ("fockwc.semigroup", "act_on_kernel", "symbols.act_on_kernel"),
    ("fockwc.semigroup", "trunc_symbol_matrix", "oracle.section"),
    ("fockwc.semigroup", "symbol_at", "semigroup.symbol_at"),
    ("fockwc.semigroup", "check_laws", "semigroup.check_laws"),
    ("fockwc.semigroup", "validate_J_conditions", "semigroup.validate_J_conditions"),
    ("fockwc.semigroup", "continuity_defect", "semigroup.continuity_defect"),
    ("fockwc.semigroup", "generator_fd_residual", "semigroup.generator_fd"),
    ("fockwc.semigroup", "generator_apply", "semigroup.generator_apply"),
    ("fockwc.polynomials:MPoly", "__add__", "polynomials.mpoly"),
    ("fockwc.polynomials:MPoly", "__mul__", "polynomials.mpoly"),
    ("fockwc.polynomials:MPoly", "partial", "polynomials.mpoly"),
)

# layers whose calls and self time are reported, by span name
TIMED_LAYERS = (
    "oracle.kernel",
    "conjugation.require_valid",
    "conjugation.apply_to_kernel",
    "conjugation.find",
    "classify",
    "symbols.act_on_kernel",
    "linalg.eig",
    "linalg.op_norm",
    "oracle.section",
    "linalg.expm",
    "linalg.phi12",
    "semigroup.symbol_at",
    "symbols.compose",
    "polynomials.mpoly",
)
SELF_ONLY = ("oracle.cross_check", "semigroup.generator_fd")


def _basis_size(d: int, N: int) -> int:
    return math.comb(N + d, d)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.basis_n_max = 0
        self.validated: set[int] = set()
        self._saved: list[tuple] = []

    # --- recording ---------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()

        return wrapper

    def _counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(J, *args, **kwargs):
            tracer.counts["validations"] += 1
            tracer.validated.add(id(J))
            return fn(J, *args, **kwargs)

        return wrapper

    def begin_op(self, op_id: int):
        self.op = op_id
        self.validated = set()
        self.stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter(), 0.0, -1, op_id])

    def end_op(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()
        self.counts["distinct_J"] += len(self.validated)

    # --- counts from input sizes --------------------------------------------

    def _count_oracle_kernel(self, S, second, points):
        # pairing_defect(S, T, points): two exponentials per point pair;
        # j_symmetry_defect(S, J, points): one
        m = len(points)
        self.counts["exp_evals"] += m * m * (1 if hasattr(second, "A") else 2)

    def _count_oracle_section(self, S, N):
        n = _basis_size(S.dim, N)
        self.basis_n_max = max(self.basis_n_max, n)
        # dense multiplication-section @ composition-section product: n^3
        # complex multiply-adds of 8 real flops; four n x n complex arrays
        self.counts["section_flops"] += 8.0 * n ** 3
        self.counts["section_bytes"] += 4 * 16.0 * n * n

    def _count_oracle_cross_check(self, S, w, N, *args, **kwargs):
        self.counts["rows_used"] += _basis_size(S.dim, N // 2)
        self.counts["rows_built"] += _basis_size(S.dim, N)

    def _count_semigroup_generator_fd(self, P, f, h, N=None):
        deg = max(f.degree(), 0)
        self.counts["rows_used"] += _basis_size(P.dim, deg + 1)
        self.counts["rows_built"] += _basis_size(P.dim, deg + 2 if N is None else N)

    # --- installing ----------------------------------------------------------

    def install(self):
        import importlib

        for target, attr, name in ENTRY_POINTS:
            module, _, cls = target.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._counter(fn) if name is None else self._span(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # --- reduction ------------------------------------------------------------

    def reduce(self, factors) -> dict:
        """Per-op calls and self seconds per span name, plus derived ratios.

        ``factors[op]`` scales the times of op ``op`` to reference speed.
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        under: dict[tuple[str, str], int] = defaultdict(int)
        for i, rec in enumerate(self.spans):
            name = rec[0]
            calls[name] += 1
            self_s[name] += (rec[2] - rec[1] - child[i]) * factors[rec[4]]
            if name in ("linalg.expm", "symbols.compose"):
                p = rec[3]
                while p >= 0:
                    anc = self.spans[p][0]
                    if anc in ("semigroup.symbol_at", "semigroup.check_laws"):
                        under[(name, anc)] += 1
                        break
                    p = self.spans[p][3]
        ops = len(factors)
        c = self.counts
        out = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}.calls"] = calls[layer] / ops
            out[f"{layer}.self_s"] = self_s[layer] / ops
        for layer in SELF_ONLY:
            out[f"{layer}.self_s"] = self_s[layer] / ops
        out["unattributed.self_s"] = self_s["op"] / ops
        out["oracle.kernel.exp_evals"] = c["exp_evals"] / ops
        out["conjugation.validate.useful_ratio"] = (
            c["distinct_J"] / c["validations"] if c["validations"] else 0.0
        )
        out["oracle.section.basis_n_max"] = float(self.basis_n_max)
        out["oracle.section.flops_computed"] = c["section_flops"] / ops
        out["oracle.section.bytes_computed"] = c["section_bytes"] / ops
        out["oracle.section.rows_used_ratio"] = (
            c["rows_used"] / c["rows_built"] if c["rows_built"] else 0.0
        )
        sym_at = calls["semigroup.symbol_at"]
        laws = calls["semigroup.check_laws"]
        out["semigroup.exp_per_symbol_at"] = (
            under[("linalg.expm", "semigroup.symbol_at")] / sym_at if sym_at else 0.0
        )
        out["semigroup.compose_per_check_laws"] = (
            under[("symbols.compose", "semigroup.check_laws")] / laws if laws else 0.0
        )
        return out

    def write(self, path):
        """Write the spans as tab-separated op, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(f"{rec[4]}\t{rec[3]}\t{rec[0]}\t{rec[1]:.9f}\t{rec[2]:.9f}\n")
