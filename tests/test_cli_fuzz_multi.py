"""Hypothesis fuzz of the command line exit-code contract with one to three
JSON numbers mutated at once, and with magnitudes near the overflow and
underflow thresholds among the replacements.  ``test_cli_fuzz`` mutates one
position of any kind; here only numbers are drawn, since an overflow needs
one or two large entries in the same product.  Each call is checked by
``test_cli_fuzz``'s own test body; there is no floating-point trap in
``run``, so a RuntimeWarning from any library call fails this test."""

from hypothesis import given, settings, strategies as st

import test_cli_fuzz
from test_cli_fuzz import BASE, COMMANDS, REPLACEMENTS, _mutate, _paths

EXTREMES = REPLACEMENTS + [1.5e308, 1e200, 1e154, 1e-310]

# exit code in (0, 1, 2); exit 2 writes only an error: line; 0 and 1 strict JSON
check_contract = test_cli_fuzz.test_cli_exit_code_contract_on_mutated_json.hypothesis.inner_test


def _numbers(doc) -> list:
    """The positions of ``doc`` that hold a number, or the root if none does."""
    def value(path):
        node = doc
        for step in path:
            node = node[step]
        return node

    return [p for p in _paths(doc) if isinstance(value(p), (int, float))] or [()]


@st.composite
def multi_mutated_calls(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    names = [a[1:-1] for a in COMMANDS[command] if a.startswith("{")]
    docs = dict(BASE)
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(names))
        path = draw(st.sampled_from(_numbers(docs[target])))
        replacement = draw(st.sampled_from(EXTREMES))
        docs[target] = _mutate(docs[target], path, replacement, draw(st.booleans()))
    return command, docs


@settings(max_examples=300, derandomize=True)
@given(multi_mutated_calls())
def test_cli_exit_code_contract_on_multiply_mutated_json(call):
    check_contract(call)
