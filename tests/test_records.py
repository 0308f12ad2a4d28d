"""The record types: immutable named tuples that pickle, with the field order
the JSON output keeps, and no module of the package importing ``dataclasses``
(its classes cost about a millisecond each to build at every start-up)."""

import ast
import io
import json
import pickle
import re
from pathlib import Path

import pytest
from importlib.resources import files

import monocurve
from monocurve import cli, family
from monocurve.binomials import critical_exponent, minimal_generators
from monocurve.errors import InvalidInputError
from monocurve.family import (FamilySpec, TheoremARow, TheoremBRow,
                              reproduce_table, scan, verify_theorem_a,
                              verify_theorem_b)
from monocurve.semigroup import normalize

PACKAGE = Path(monocurve.__file__).resolve().parent


def _samples():
    """One computed instance of every record type, keyed by test id: the type's
    name, except that the two reports a ``TheoremReport`` holds (Theorem A's
    and Theorem B's) are each a sample of their own."""
    S = normalize((30, 32, 35, 40))
    gens, _ = minimal_generators(S)
    report = scan(FamilySpec(2, 3, 5), 22, 81)
    theorem_a = verify_theorem_a(FamilySpec(12, 3, 1), 2, include_t=False)
    theorem_b = verify_theorem_b(FamilySpec(2, 3, 5), 1000, 1001)
    records = [gens[0].plus, gens[0], critical_exponent(S, 1), monocurve.graded_betti(S),
               report.family, report.rows[0], report.period, report,
               theorem_a.rows[0], theorem_a, theorem_b.rows[0], theorem_b,
               reproduce_table(1)]
    ids = {id(theorem_a): "TheoremAReport", id(theorem_b): "TheoremBReport"}
    return {ids.get(id(r), type(r).__name__): r for r in records}


SAMPLES = _samples()
SAMPLE_TYPES = {type(r): r for r in SAMPLES.values()}


def _record_types(values):
    return {v for v in values
            if isinstance(v, type) and issubclass(v, tuple) and hasattr(v, "_fields")}


def test_every_record_type_has_a_sample():
    exported = [getattr(monocurve, name) for name in monocurve.__all__]
    assert _record_types(exported) | {TheoremARow, TheoremBRow} == set(SAMPLE_TYPES)
    assert _record_types(vars(family).values()) - {family._Family} <= set(SAMPLE_TYPES)


@pytest.mark.parametrize("record", SAMPLES.values(), ids=list(SAMPLES))
def test_record_is_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("record", SAMPLES.values(), ids=list(SAMPLES))
def test_record_pickles_to_an_equal_record(record):
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is type(record) and again == record


BAD_FAMILIES = {
    (0, 3, 5): "family (0, 3, 5): base entries must be positive",
    (2, -1, 5): "family (2, -1, 5): base entries must be positive",
    (2, 3, 0): "family (2, 3, 0): base entries must be positive",
    (2, 3, 5, 2): "family (2, 3, 5): offset must be 0 or 1, got 2",
    (2, 3, 5, -1): "family (2, 3, 5): offset must be 0 or 1, got -1",
}


@pytest.mark.parametrize("args", BAD_FAMILIES)
def test_family_spec_rejects_bad_input(args):
    message = f"^{re.escape(BAD_FAMILIES[args])}$"
    with pytest.raises(InvalidInputError, match=message):
        FamilySpec(*args)
    F = FamilySpec(2, 3, 5)
    with pytest.raises(InvalidInputError, match=message):
        F._replace(**dict(zip(F._fields, args)))


def test_family_spec_flags_follow_the_triple():
    F = FamilySpec(2, 3, 5, offset=0)
    assert (F.a, F.b, F.c, F.offset, F.p_c, F.p_a, F.period) == (2, 3, 5, 0, 1, None, 10)
    G = F._replace(a=16, offset=1)
    assert type(G) is FamilySpec and (G.p_c, G.p_a, G.period) == (None, 2, 24)
    for name in ("p_c", "p_a", "period"):
        with pytest.raises(AttributeError):
            setattr(F, name, 3)


def test_scan_report_carries_its_period():
    report = SAMPLE_TYPES[family.FamilyScanReport]
    assert report.period == family.detect_period(report)
    assert report.period._asdict() == {"j0": 27, "length": 10, "window": (27, 81)}
    assert scan(FamilySpec(2, 3, 5), 22, 51).period is None


@pytest.mark.parametrize("row_type, schema_def", [(TheoremARow, "theorem_a_row"),
                                                  (TheoremBRow, "theorem_b_row")])
def test_theorem_row_fields_keep_the_json_key_order(row_type, schema_def):
    schema = json.loads(files("monocurve").joinpath("data", "output_schema.json").read_text())
    keys = schema["$defs"][schema_def]["required"]
    assert [*SAMPLE_TYPES[row_type]._asdict(), "ok"] == keys
    command = (["verify", "theorem-a", "--abc", "12,3,1", "--n-max", "2"]
               if row_type is TheoremARow else
               ["verify", "theorem-b", "--abc", "2,3,5", "--from", "1000", "--to", "1001"])
    out = io.StringIO()
    cli.run(command + ["--format", "json"], out, io.StringIO())
    rows = json.loads(out.getvalue())["payload"]["rows"]
    assert rows and all(list(row) == keys for row in rows)


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_no_module_imports_dataclasses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.stem for p in modules} >= {"cli", "betti", "binomials", "family", "semigroup"}
    for path in modules:
        imported = {name.split(".")[0] for name in _imported_modules(path)}
        assert "dataclasses" not in imported, path.name
        assert "dataclass" not in path.read_text(), path.name
