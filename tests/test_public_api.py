"""Each public name is declared once, in its module's ``__all__``, and
``fockwc.__all__`` is the sorted union of the re-exported modules' lists.
README's table of paper objects names exactly the public functions, each
with a test that exists."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import fockwc

INIT = ast.parse(Path(fockwc.__file__).read_text(encoding="utf-8"))
ROOT = Path(__file__).resolve().parent.parent
TABLE_HEADER = "| Paper object | Function | Test |"


def _imports():
    """(modules named by ``from . import``, modules star-imported) in __init__."""
    named, starred = [], []
    for node in INIT.body:
        assert not isinstance(node, ast.Import), ast.unparse(node)
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1, ast.unparse(node)
            names = [alias.name for alias in node.names]
            if node.module is None:
                named.extend(names)
            else:
                assert names == ["*"], ast.unparse(node)
                starred.append(node.module)
    return named, starred


def _exported_modules():
    return [importlib.import_module(f"fockwc.{name}") for name in _imports()[1]]


def _top_level_names(module) -> set[str]:
    tree = ast.parse(inspect.getsource(module))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_init_imports_modules_and_stars_only():
    named, starred = _imports()
    assert named == starred
    assert all(inspect.ismodule(getattr(fockwc, name)) for name in named)


def test_package_all_is_the_sorted_union_of_module_lists():
    lists = [module.__all__ for module in _exported_modules()]
    union = [name for names in lists for name in names]
    assert len(union) == len(set(union))
    assert fockwc.__all__ == sorted(union)


def test_each_public_name_is_its_module_attribute():
    owners = {}
    for module in _exported_modules():
        for name in module.__all__:
            owners.setdefault(name, []).append(module)
    for name in fockwc.__all__:
        (module,) = owners[name]
        assert getattr(fockwc, name) is getattr(module, name)


def test_module_lists_name_only_their_own_definitions():
    for info in pkgutil.iter_modules(fockwc.__path__):
        module = importlib.import_module(f"fockwc.{info.name}")
        if hasattr(module, "__all__"):
            assert set(module.__all__) <= _top_level_names(module), module.__name__


def _paper_table() -> list[tuple[str, str]]:
    """(function, test) of each row of README's paper-object table."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(TABLE_HEADER) + 2:]:
        if not line.startswith("|"):
            break
        _, function, test = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        rows.append((function, test))
    return rows


def test_paper_table_names_exactly_the_public_functions():
    functions = [function for function, _ in _paper_table()]
    assert len(functions) == len(set(functions))
    assert sorted(functions) == fockwc.__all__


def test_each_paper_table_row_names_a_test_that_exists():
    for _, test in _paper_table():
        path, _, name = test.partition("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, test
