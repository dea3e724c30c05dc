"""Hypothesis fuzz test of the command line exit-code contract.

Every subcommand runs in process on its valid inputs with one JSON value
mutated: a dropped key, or a value replaced by a string, null, a nested
list, ±1e308 or 1e-320.  Whatever the input, ``run`` must return 0, 1 or 2
without raising (RuntimeWarning counts as raising); exit 2 writes nothing to
stdout and an ``error:`` line to stderr, and exits 0 and 1 write strict JSON.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from fockwc.cli import run
from helpers import rand_j_semigroup_pair, rand_normal_bounded_symbol


def _base_inputs() -> dict:
    rng = np.random.default_rng(2024)
    P, J = rand_j_semigroup_pair(rng, 2)
    return {
        "S": rand_normal_bounded_symbol(rng, 2).to_json(),
        "J": J.to_json(),
        "P": P.to_json(),
        "f": {"d": 2, "terms": [{"alpha": [1, 0], "coeff": [1.0, 0.5]},
                                {"alpha": [0, 2], "coeff": [-0.3, 0.0]}]},
        "pts": {"d": 2, "points": [[[0.3, 0.1], [0.0, -0.2]], [[-0.5, 0.0], [0.2, 0.2]]]},
    }


BASE = _base_inputs()

# each subcommand with the input files it reads ({name} is the file of BASE[name])
COMMANDS = {
    "validate-conjugation": ["--in", "{J}"],
    "classify": ["--in", "{S}", "--with-conjugation", "{J}"],
    "adjoint": ["--in", "{S}"],
    "conjugate": ["--in", "{S}", "--conj", "{J}"],
    "find-conjugation": ["--in", "{S}"],
    "semigroup-at": ["--in", "{P}", "--t", "0.5"],
    "semigroup-check": ["--in", "{P}", "--conj", "{J}", "--samples", "2"],
    "generator-apply": ["--in", "{P}", "--poly", "{f}"],
    "oracle-defect": ["--in", "{S}", "--conj", "{J}", "--points", "{pts}"],
}

REPLACEMENTS = ["x", None, [[[]]], [[1.0, [2.0]]], 1e308, 1e-320, -1e308]


def _paths(node, prefix=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _mutate(doc, path, replacement, drop):
    doc = json.loads(json.dumps(doc))
    if not path:
        return replacement
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if drop and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return doc


@st.composite
def mutated_calls(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    names = [a[1:-1] for a in COMMANDS[command] if a.startswith("{")]
    target = draw(st.sampled_from(names))
    path = draw(st.sampled_from(list(_paths(BASE[target]))))
    replacement = draw(st.sampled_from(REPLACEMENTS))
    drop = draw(st.booleans())
    docs = dict(BASE)
    docs[target] = _mutate(BASE[target], path, replacement, drop)
    return command, docs


@settings(max_examples=300)
@given(mutated_calls())
def test_cli_exit_code_contract_on_mutated_json(call):
    command, docs = call
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, doc in docs.items():
            files[name] = str(Path(tmp) / f"{name}.json")
            Path(files[name]).write_text(json.dumps(doc))
        argv = [command] + [a.format(**files) for a in COMMANDS[command]]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def _reject_constant(name):
    raise AssertionError(f"stdout is not strict JSON: it contains {name}")
