"""One JSON codec for the parameter packs (``jsonio.Record``) and one rule
for ``"d"``: written as the dimension, optional on input, and when present
equal to the decoded dimension.  Polynomial and kernel-combination files
keep their own codec, where ``"d"`` is required."""

import dataclasses
import json

import numpy as np
import pytest

from fockwc import KernelCombo, WcSymbol, jsonio
from fockwc.cli import run
from fockwc.polynomials import MPoly
from helpers import rand_semigroup_params, rand_symbol, rand_valid_conjugation


def _values():
    rng = np.random.default_rng(14)
    return {
        "symbol": rand_symbol(rng, 3),
        "conjugation": rand_valid_conjugation(rng, 3),
        "semigroup": rand_semigroup_params(rng, 3),
    }


KINDS = tuple(_values())


@pytest.mark.parametrize("kind", KINDS)
def test_round_trip_is_equal(kind):
    value = _values()[kind]
    doc = json.loads(json.dumps(value.to_json()))
    assert doc["d"] == value.dim == 3
    assert type(value).from_json(doc) == value


@pytest.mark.parametrize("kind", KINDS)
def test_file_without_d_decodes_to_an_equal_value(kind):
    value = _values()[kind]
    doc = value.to_json()
    del doc["d"]
    assert type(value).from_json(doc) == value


@pytest.mark.parametrize("kind", KINDS)
def test_mismatched_d_is_inconsistent(kind):
    value = _values()[kind]
    with pytest.raises(ValueError, match=f"^{kind} JSON has inconsistent dimension$"):
        type(value).from_json({**value.to_json(), "d": 2})


@pytest.mark.parametrize("kind", KINDS)
def test_non_integer_d_names_the_field(kind):
    value = _values()[kind]
    with pytest.raises(ValueError, match=f"^{kind} JSON field 'd': "):
        type(value).from_json({**value.to_json(), "d": "x"})


def test_tables_list_the_constructor_fields_in_order():
    for value in _values().values():
        fields = list(type(value)._JSON[1])
        assert fields == [f.name for f in dataclasses.fields(value)]
        assert list(value.to_json()) == ["d", *fields]


def test_polynomial_and_kernel_combo_still_require_d():
    with pytest.raises(ValueError, match="^polynomial JSON is missing field 'd'$"):
        MPoly.from_json({"terms": []})
    with pytest.raises(ValueError, match="^kernel combo JSON is missing field 'd'$"):
        KernelCombo.from_json({"terms": []})


def test_records_decodes_each_item_by_name():
    decode = jsonio.records("pair", a=int, b=str)
    assert decode([{"a": "1", "b": 2}, {"b": "y", "a": 3}]) == [[1, "2"], [3, "y"]]
    with pytest.raises(ValueError, match="^pair JSON is missing field 'b'$"):
        decode([{"a": 1}])
    with pytest.raises(ValueError, match="^pair JSON must be an object$"):
        decode([[1, 2]])


def test_term_list_errors_name_the_term_field():
    with pytest.raises(ValueError, match="^kernel combo JSON field 'terms': kernel term JSON"):
        KernelCombo.from_json({"d": 2, "terms": [{"coeff": [1.0, 0.0]}]})
    with pytest.raises(ValueError, match="^polynomial JSON field 'terms': polynomial term JSON"):
        MPoly.from_json({"d": 1, "terms": [{"alpha": [1], "coeff": "x"}]})


# --- the command line ---------------------------------------------------------


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _strict(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_cli_reads_a_symbol_without_d(tmp_path, capsys):
    # the README symbol, with and without "d"
    doc = {"theta": [2.0, 0.0], "ell": [[1.0, 1.0]], "Q": [[[0.5, 0.0]]], "q": [[1.0, 1.0]]}
    outs = []
    for name, sym in (("with.json", {"d": 1, **doc}), ("without.json", doc)):
        assert run(["adjoint", "--in", _write(tmp_path, name, sym)]) == 0
        outs.append(json.loads(capsys.readouterr().out, parse_constant=_strict))
    assert outs[0] == outs[1]
    assert WcSymbol.from_json(outs[1]["payload"]).dim == 1


def _points(d):
    return {"d": d, "points": [[[0.3, 0.1], [0.0, -0.2]], [[-0.5, 0.0], [0.2, 0.2]]]}


@pytest.mark.parametrize("d", [1, 3, "x", None])
def test_cli_points_file_with_inconsistent_d_exits_2(tmp_path, capsys, d):
    spath = _write(tmp_path, "S.json", rand_symbol(np.random.default_rng(5), 2).to_json())
    ppath = _write(tmp_path, "pts.json", _points(d))
    assert run(["oracle-defect", "--in", spath, "--points", ppath]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: points JSON")
    if isinstance(d, int):
        assert "points JSON has inconsistent dimension" in out.err


def test_cli_points_file_d_is_optional(tmp_path, capsys):
    spath = _write(tmp_path, "S.json", rand_symbol(np.random.default_rng(5), 2).to_json())
    docs = []
    for name, pts in (("with.json", _points(2)), ("without.json", {"points": _points(2)["points"]})):
        assert run(["oracle-defect", "--in", spath, "--points", _write(tmp_path, name, pts)]) in (0, 1)
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1]
