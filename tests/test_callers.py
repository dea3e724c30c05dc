"""Nothing in ``src/fockwc`` lives without a caller.

Every top-level function and class is public (in ``fockwc.__all__``), is
referenced elsewhere in the package, or is a name the benchmark's span
tracer wraps (``benchmarks/tracing.py``'s ``ENTRY_POINTS``).  The last
keeps exactly two definitions alive, ``linalg.phi12`` and
``conjugation.apply_to_kernel``, which only the tracer and the tests use.
Every option of every subcommand is read by its handler as ``args.<dest>``,
and ``cli.run``'s one ``ValueError`` handler covers every refusal.
"""

import argparse
import ast
import importlib
import importlib.util
import inspect
import textwrap
from pathlib import Path

import pytest

import fockwc
from fockwc import DegreeCapError, PreconditionError, cli, trunc_symbol_matrix
from fockwc.symbols import identity_symbol

_PACKAGE = Path(fockwc.__file__).resolve().parent
_TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"

# the definitions that only the tracer's ENTRY_POINTS keep alive
TRACER_ONLY = {("linalg", "phi12"), ("conjugation", "apply_to_kernel")}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(_PACKAGE.glob("*.py"))}


def _definitions(trees) -> dict[tuple[str, str], ast.AST]:
    """Each top-level def and class, by (module, name)."""
    return {(module, node.name): node
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _referenced(trees, definition: ast.AST) -> bool:
    """Whether the name of ``definition`` is read anywhere in the package
    outside the definition itself, as a name or as an attribute; an import
    alone is no reference."""
    name = definition.name
    inside = {id(node) for node in ast.walk(definition)}
    return any(
        id(node) not in inside
        and (isinstance(node, ast.Name) and node.id == name
             or isinstance(node, ast.Attribute) and node.attr == name)
        for tree in trees.values() for node in ast.walk(tree)
    )


def _entry_points() -> set[tuple[str, str]]:
    """(module, name) of each definition the tracer wraps, read the way
    ``tests/test_tracing.py`` reads ``ENTRY_POINTS``."""
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    found = set()
    for target, attr, _ in tracing.ENTRY_POINTS:
        module, _, cls = target.partition(":")
        owner = importlib.import_module(module)
        if not cls:  # a method is no top-level definition
            obj = getattr(owner, attr)
            found.add((obj.__module__.rpartition(".")[2], obj.__name__))
    return found


@pytest.mark.skipif(not _TRACING.exists(), reason="benchmark harness not in this checkout")
def test_every_definition_has_a_caller():
    trees = _modules()
    public = set(fockwc.__all__)
    traced = _entry_points()
    uncalled, tracer_only = [], set()
    for (module, name), node in _definitions(trees).items():
        if name in public or _referenced(trees, node):
            continue
        if (module, name) in traced:
            tracer_only.add((module, name))
        else:
            uncalled.append(f"{module}.{name}")
    assert uncalled == []
    assert tracer_only == TRACER_ONLY


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _args_read(func) -> set[str]:
    """The attributes that ``func`` reads off its ``args``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}


def test_every_option_is_read_by_its_handler():
    subcommands = _subcommands(cli.build_parser())
    assert len(subcommands) == 9
    unread = []
    for name, sub in subcommands.items():
        read = _args_read(sub.get_default("func"))
        dests = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
        unread += [f"{name} {a}" for a in sorted(dests - read)]
        # and the handler reads no attribute the parser does not set
        assert read <= dests, (name, read - dests)
    assert unread == []


def test_a_section_past_its_cap_exits_2(monkeypatch, capsys):
    """No command builds a section today; one that does and passes the cap
    is refused as every other precondition is."""
    assert issubclass(DegreeCapError, PreconditionError)

    def builds_a_section(args):
        return trunc_symbol_matrix(identity_symbol(3), 25)

    monkeypatch.setitem(cli._COMMANDS, "adjoint", (builds_a_section, "adjoint symbol", cli._IN))
    assert cli.run(["adjoint", "--in", "S.json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: truncation degree 25 exceeds cap 24\n"
