from __future__ import annotations

import argparse
import collections
import copy
import enum
import errno
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import warnings
from benchlattice import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import benchlattice
import benchlattice.data
from benchlattice.assignment import CapacityBudget, assign_greedy
from benchlattice.cli import _named_space
from benchlattice.chart import render_bench_chart
from benchlattice.configuration import ConfigurationSpace
from benchlattice.data import FIXTURES, fixture_path
from benchlattice.errors import (
    BenchlatticeError,
    DocumentSyntaxError,
    DuplicateId,
    EmptyLeaf,
    SchemaError,
    UnknownDimension,
    ValidationError,
)
from benchlattice.registry import (
    _dump,
    plan_to_raw,
    _elements as _element_columns,
    bench_to_raw,
    bench_from_raw,
    case_from_raw,
    load_budget,
    load_registry,
    load_suite,
    save_budget,
    save_plan,
    save_registry,
    save_suite,
    write_text_atomic,
)
from benchlattice.taxonomy import (
    CANONICAL_DIMENSION_IDS, Stage, new_bench, substantiate_dimension, validate_bench,
    with_elements,
)
from helpers import (
    make_element,
    make_test_case,
    random_bench,
    reference_budget_issues,
    reference_case_issues,
    reference_load_registry,
    reference_suite_issues,
    uniform_bench,
)


def sil_raw():
    return json.loads(fixture_path("sil_bench.json").read_text())


def test_load_sil_fixture():
    benches = load_registry(fixture_path("sil_bench.json"))
    assert len(benches) == 1
    assert benches[0].id == "sil"
    assert len(benches[0].elements) == 12


def test_unknown_stage_is_schema_error(tmp_path):
    doc = sil_raw()
    doc["benches"][0]["elements"][3]["stage"] = "virtual"
    path = tmp_path / "bad.bench.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as excinfo:
        load_registry(path)
    assert "benches[0].elements[3].stage" in [loc for loc, _ in excinfo.value.issues]


def test_duplicate_element_id_is_validation_error(tmp_path):
    doc = sil_raw()
    doc["benches"][0]["elements"][1]["id"] = doc["benches"][0]["elements"][0]["id"]
    path = tmp_path / "dup.bench.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as excinfo:
        load_registry(path)
    ((bench_id, underlying),) = excinfo.value.issues
    assert bench_id == "sil"
    assert isinstance(underlying, DuplicateId)


def test_schema_errors_aggregated(tmp_path):
    doc = sil_raw()
    doc["benches"][0]["elements"][0]["stage"] = "virtual"
    doc["benches"][0]["elements"][1]["cost_rate"] = -2
    doc["benches"][0]["elements"][2]["surprise"] = 1
    path = tmp_path / "multi.bench.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as excinfo:
        load_registry(path)
    locations = [loc for loc, _ in excinfo.value.issues]
    assert "benches[0].elements[0].stage" in locations
    assert "benches[0].elements[1].cost_rate" in locations
    assert "benches[0].elements[2].surprise" in locations


def test_malformed_json_is_syntax_error(tmp_path):
    path = tmp_path / "broken.bench.json"
    path.write_text("{not json")
    with pytest.raises(DocumentSyntaxError):
        load_registry(path)


SHIPPED_DOCUMENTS = {
    "fleet_bench.json": load_registry,
    "demo_suite.suite.json": load_suite,
    "demo.budget.json": load_budget,
}


@pytest.mark.parametrize("ending", [b"\r\n", b"\r"], ids=["crlf", "lone-cr"])
@pytest.mark.parametrize("name", sorted(SHIPPED_DOCUMENTS))
def test_documents_load_alike_with_any_line_ends(tmp_path, name, ending):
    """Documents are read with universal newlines, as text mode reads them."""
    original = fixture_path(name)
    data = original.read_bytes()
    assert b"\r" not in data and data.count(b"\n") > 3
    copy_path = tmp_path / name
    copy_path.write_bytes(data.replace(b"\n", ending))
    load = SHIPPED_DOCUMENTS[name]
    assert load(copy_path) == load(original)


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "lone-cr"])
def test_syntax_error_located_as_text_mode_locates_it(tmp_path, ending):
    path = tmp_path / "broken.bench.json"
    path.write_bytes(b'{\n  "format_version": "1",\n  "benches": [,]\n}\n'.replace(b"\n", ending))
    with pytest.raises(DocumentSyntaxError) as excinfo:
        load_registry(path)
    assert str(excinfo.value) == f"{path}: Expecting value: line 3 column 15 (char 41)"
    with open(path, encoding="utf-8") as handle, pytest.raises(json.JSONDecodeError) as text:
        json.load(handle)
    assert str(excinfo.value) == f"{path}: {text.value}"


@pytest.mark.parametrize(
    "data, message",
    [
        (
            b'{"format_version": "1", "benches": [{"id": "caf\xe9"}]}\n',
            "not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 47: "
            "invalid continuation byte",
        ),
        (
            b'{"format_version": "1", "benches": [{"id": "\xe2\x82',
            "not UTF-8 text: 'utf-8' codec can't decode bytes in position 44-45: "
            "unexpected end of data",
        ),
        (
            b'\xef\xbb\xbf{"format_version": "1", "benches": []}\r\n',
            "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
        ),
    ],
    ids=["latin-1", "truncated", "utf-8-bom"],
)
def test_undecodable_documents_keep_their_messages(tmp_path, data, message):
    path = tmp_path / "odd.bench.json"
    path.write_bytes(data)
    with pytest.raises(DocumentSyntaxError) as excinfo:
        load_registry(path)
    assert str(excinfo.value) == f"{path}: {message}"


@pytest.mark.parametrize("load", [load_registry, load_suite, load_budget])
def test_a_directory_path_fails_as_opening_it_does(tmp_path, load):
    with pytest.raises(IsADirectoryError) as excinfo:
        load(tmp_path)
    assert excinfo.value.errno == errno.EISDIR
    assert str(excinfo.value) == f"[Errno {errno.EISDIR}] Is a directory: {str(tmp_path)!r}"


def test_written_text_keeps_its_line_ends(tmp_path):
    path = tmp_path / "out.txt"
    write_text_atomic(path, "a\nb\r\nc\u00e9\u2603\n")
    assert path.read_bytes() == "a\nb\r\nc\u00e9\u2603\n".encode("utf-8")


def test_unsupported_format_version(tmp_path):
    doc = sil_raw()
    doc["format_version"] = "7"
    path = tmp_path / "v7.bench.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_registry(path)


def test_duplicate_bench_id(tmp_path):
    doc = sil_raw()
    doc["benches"].append(doc["benches"][0])
    path = tmp_path / "twice.bench.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as excinfo:
        load_registry(path)
    assert "benches[1].id" in [loc for loc, _ in excinfo.value.issues]


@pytest.mark.parametrize(
    "name", ["sil_bench.json", "test_vehicle_bench.json", "fleet_bench.json"]
)
def test_fixture_round_trip(tmp_path, name):
    benches = load_registry(fixture_path(name))
    out = tmp_path / name
    save_registry(benches, out)
    assert load_registry(out) == benches


def test_canonical_serialization_byte_stable(tmp_path, fleet):
    first = tmp_path / "a.bench.json"
    second = tmp_path / "b.bench.json"
    save_registry(fleet, first)
    save_registry(fleet, second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().endswith("\n")


@pytest.mark.parametrize("seed", range(10))
def test_random_registry_round_trip(tmp_path, seed):
    rng = random.Random(seed)
    benches = [random_bench(rng, f"bench-{i}", count_cap=64) for i in range(2)]
    path = tmp_path / "rand.bench.json"
    save_registry(benches, path)
    assert load_registry(path) == benches


def test_save_to_unwritable_path(fleet):
    with pytest.raises(OSError):
        save_registry(fleet, "/proc/definitely/not/writable.bench.json")


def test_failed_write_leaves_no_partial_file(tmp_path, fleet, monkeypatch):
    target = tmp_path / "plan.json"

    def explode(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", explode)
    with pytest.raises(OSError):
        save_registry(fleet, target)
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_written_files_follow_the_umask(tmp_path, fleet, demo_suite):
    plan = assign_greedy(demo_suite.test_cases, fleet, overrides=demo_suite.overrides)
    previous = os.umask(0o022)
    try:
        save_registry(fleet, tmp_path / "fleet.bench.json")
        save_plan(plan, tmp_path / "demo.plan.json")
        write_text_atomic(tmp_path / "fleet.svg", render_bench_chart(fleet[0]))
    finally:
        os.umask(previous)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == {"fleet.bench.json": 0o644, "demo.plan.json": 0o644, "fleet.svg": 0o644}


def test_written_files_never_touch_the_umask(tmp_path, fleet, demo_suite, monkeypatch):
    # Reading the umask means setting it, which races with other threads
    # creating files; the kernel applies it to the temp file's 0666 instead.
    plan = assign_greedy(demo_suite.test_cases, fleet, overrides=demo_suite.overrides)
    umask = os.umask
    previous = umask(0o027)

    def no_umask(mask):
        raise AssertionError("os.umask called")

    try:
        monkeypatch.setattr(os, "umask", no_umask)
        save_registry(fleet, tmp_path / "fleet.bench.json")
        save_plan(plan, tmp_path / "demo.plan.json")
        write_text_atomic(tmp_path / "fleet.svg", render_bench_chart(fleet[0]))
    finally:
        umask(previous)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == {"fleet.bench.json": 0o640, "demo.plan.json": 0o640, "fleet.svg": 0o640}


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_path_is_the_packaged_file(name):
    path = fixture_path(name)
    assert path.is_file()
    assert path.parent == Path(benchlattice.data.__file__).parent
    if name.endswith(".suite.json"):
        assert load_suite(path).test_cases
    elif name.endswith(".budget.json"):
        assert load_budget(path).max_bench_time
    else:
        assert load_registry(path)


def test_missing_field_findings_do_not_depend_on_the_hash_seed(tmp_path):
    doc = {
        "format_version": "1",
        "benches": [{"id": "b", "elements": [{"id": "e", "dimension": "scenery"}]}],
    }
    path = tmp_path / "sparse.bench.json"
    path.write_text(json.dumps(doc))
    src = str(Path(benchlattice.__file__).resolve().parents[1])
    stderr = []
    for seed in ("1", "2", "3", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "benchlattice", "validate", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        stderr.append(proc.stderr)
    assert len(set(stderr)) == 1
    missing = [
        f"benches[0].elements[0].{key}: required field missing"
        for key in ("stage", "validated_for", "cost_rate", "time_factor", "setup_cost")
    ]
    assert stderr[0] == "error: " + "; ".join(missing) + "\n"


def test_load_demo_suite():
    suite = load_suite(fixture_path("demo_suite.suite.json"))
    assert [tc.id for tc in suite.test_cases] == [
        "cut-in-rain",
        "sensor-stimulus-check",
        "v2x-handover",
    ]
    assert suite.overrides["sensor-stimulus-check"] == {
        "environment-sensor-system": frozenset({Stage.REAL})
    }


def test_suite_round_trip(tmp_path):
    suite = load_suite(fixture_path("demo_suite.suite.json"))
    out = tmp_path / "suite.suite.json"
    save_suite(suite, out)
    again = load_suite(out)
    assert again.test_cases == suite.test_cases
    assert again.overrides == suite.overrides
    save_suite(again, out)
    stable = out.read_bytes()
    save_suite(again, out)
    assert out.read_bytes() == stable


def test_duplicate_test_case_id(tmp_path):
    doc = json.loads(fixture_path("demo_suite.suite.json").read_text())
    doc["test_cases"].append(doc["test_cases"][0])
    path = tmp_path / "dup.suite.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_suite(path)


def test_bad_override_stage(tmp_path):
    doc = json.loads(fixture_path("demo_suite.suite.json").read_text())
    doc["test_cases"][0]["overrides"] = {"scenery": ["virtual"]}
    path = tmp_path / "bad.suite.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as excinfo:
        load_suite(path)
    assert "test_cases[0].overrides.scenery[0]" in [loc for loc, _ in excinfo.value.issues]


def test_movable_object_count_must_be_whole(tmp_path):
    doc = json.loads(fixture_path("demo_suite.suite.json").read_text())
    objects = doc["test_cases"][1]["scenario"]["movable_objects"] = [{"type": "car"}]
    path = tmp_path / "count.suite.json"
    objects[0]["count"] = 2.0
    path.write_text(json.dumps(doc))
    assert load_suite(path).test_cases[1].scenario.movable_objects[0].count == 2
    objects[0]["count"] = 1.5
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as excinfo:
        load_suite(path)
    assert excinfo.value.issues == (
        ("test_cases[1].scenario.movable_objects[0].count", "must be a whole number, got 1.5"),
    )


def test_invalid_test_case_is_validation_error(tmp_path):
    doc = json.loads(fixture_path("demo_suite.suite.json").read_text())
    doc["test_cases"][0]["evaluation_criteria"] = []
    path = tmp_path / "empty.suite.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_suite(path)


def test_blank_movable_object_type_is_validation_error(tmp_path):
    doc = json.loads(fixture_path("demo_suite.suite.json").read_text())
    doc["test_cases"][0]["scenario"]["movable_objects"] = [{"type": " ", "count": 1}]
    path = tmp_path / "blank.suite.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as excinfo:
        load_suite(path)
    assert "movable object type must be a non-blank string" in str(excinfo.value)


def _bench_fragment(**changes):
    fragment = copy.deepcopy(sil_raw()["benches"][0])
    fragment.update(changes)
    return fragment


def _case_fragment(movable_object=None, criterion=None):
    doc = json.loads(fixture_path("demo_suite.suite.json").read_text())
    fragment = doc["test_cases"][0]
    if movable_object is not None:
        fragment["scenario"]["movable_objects"] = [movable_object]
    if criterion is not None:
        fragment["evaluation_criteria"].append(criterion)
    return fragment


def _element_fragment(update=(), drop=()):
    fragment = _bench_fragment()
    element = fragment["elements"][0]
    element.update(update)
    for key in drop:
        del element[key]
    return fragment


# Each fragment breaks one schema rule that no domain check covers.
@pytest.mark.parametrize(
    "from_raw, fragment, issues",
    [
        (
            bench_from_raw,
            _bench_fragment(combinable={"scenery": "false"}),
            [("$.combinable.scenery", "expected a boolean, got 'false'")],
        ),
        (
            bench_from_raw,
            _element_fragment({"validated_for": "safety"}),
            [("$.elements[0].validated_for", "expected an array, got str")],
        ),
        (
            bench_from_raw,
            _element_fragment(drop=["cost_rate", "time_factor"]),
            [
                ("$.elements[0].cost_rate", "required field missing"),
                ("$.elements[0].time_factor", "required field missing"),
            ],
        ),
        (bench_from_raw, _bench_fragment(id="a b"), [("$.id", "'a b' is not a valid identifier")]),
        (
            bench_from_raw,
            _element_fragment({"extra": 5}),
            [("$.elements[0].extra", "expected an object, got int")],
        ),
        (
            case_from_raw,
            _case_fragment({"type": "car", "count": 1.5}),
            [("$.scenario.movable_objects[0].count", "must be a whole number, got 1.5")],
        ),
        (
            case_from_raw,
            _case_fragment({"type": "car", "count": -3}),
            [("$.scenario.movable_objects[0].count", "must be >= 1, got -3.0")],
        ),
        (
            case_from_raw,
            _case_fragment({"count": 1}),
            [("$.scenario.movable_objects[0].type", "required field missing")],
        ),
        (
            case_from_raw,
            _case_fragment(criterion={"name": 5}),
            [("$.evaluation_criteria[1].name", "expected a string, got int")],
        ),
        (
            case_from_raw,
            _case_fragment(criterion={"name": None}),
            [("$.evaluation_criteria[1].name", "expected a string, got NoneType")],
        ),
        (
            case_from_raw,
            _case_fragment(criterion={"name": "v2x-communication", "threshold": [1, 2]}),
            [("$.evaluation_criteria[1].threshold", "expected a string, got list")],
        ),
    ],
    ids=[
        "combinable-string", "validated-for-string", "missing-numbers", "bad-id", "extra-number",
        "fractional-count", "negative-count", "untyped-object", "numeric-criterion-name",
        "null-criterion-name", "list-criterion-threshold",
    ],
)
def test_fragment_readers_refuse_what_the_loaders_refuse(from_raw, fragment, issues):
    with pytest.raises(SchemaError) as excinfo:
        from_raw(fragment)
    assert excinfo.value.issues == tuple(issues)


@pytest.mark.parametrize("name", ["sil_bench.json", "test_vehicle_bench.json", "fleet_bench.json"])
def test_bench_from_raw_matches_load_registry(name):
    path = fixture_path(name)
    fragments = json.loads(path.read_text())["benches"]
    assert [benchlattice.bench_from_raw(raw) for raw in fragments] == load_registry(path)


def test_case_from_raw_matches_load_suite():
    path = fixture_path("demo_suite.suite.json")
    fragments = json.loads(path.read_text())["test_cases"]
    cases = tuple(benchlattice.case_from_raw(raw) for raw in fragments)
    assert cases == load_suite(path).test_cases


def test_budget_round_trip(tmp_path):
    budget = load_budget(fixture_path("demo.budget.json"))
    assert budget == CapacityBudget({"sil": 100.0})
    out = tmp_path / "b.budget.json"
    save_budget(budget, out)
    assert load_budget(out) == budget


def test_nonpositive_budget_rejected(tmp_path):
    path = tmp_path / "zero.budget.json"
    path.write_text(json.dumps({"format_version": "1", "max_bench_time": {"sil": 0}}))
    with pytest.raises(SchemaError):
        load_budget(path)


def test_plan_serialization_deterministic(tmp_path, fleet, demo_suite):
    plan = assign_greedy(demo_suite.test_cases, fleet, overrides=demo_suite.overrides)
    first = tmp_path / "a.plan.json"
    second = tmp_path / "b.plan.json"
    save_plan(plan, first)
    save_plan(plan, second)
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["format_version"] == "1"
    assert payload["assignments"]["cut-in-rain"]["bench"] == "sil"
    assert payload["assignments"]["cut-in-rain"]["monetary_cost"] == 1.75
    assert payload["total_bench_time_s"]["sil"] == 150.0


# --- the lean loader against the two-pass reference -------------------------------

_SHIPPED_REGISTRIES = ("sil_bench.json", "test_vehicle_bench.json", "fleet_bench.json")
_SHIPPED_DOCS = {name: json.loads(fixture_path(name).read_text()) for name in _SHIPPED_REGISTRIES}
_JUNK = (None, True, 0, -1, 1.5, "", "x y", [], {}, ["real"], {"k": 1})
_NUMBERS = (
    float("nan"), float("inf"), float("-inf"), 10**400, -(10**400), 2**1024, -1, -0.0, 0,
    1e-300, 2, 1.7e308, True, "1", None,
)
_STAGE_VALUES = ("virtual", "", "Real", "REAL", 1, None, ["real"], "emulated")
_DIMENSIONS = (
    *CANONICAL_DIMENSION_IDS, "radar", "camera", "nope", "bad id!", "Scenery", "scenery\n",
)
_SUB_NAMES = (
    [], ["A"], ["A", "a"], ["Scenery"], ["   "], ["x y"], ["radar"], [3], ["Radar", "Lidar"],
)
_IDS = ("-x", "a b", "", "\u00e4", "ok-id", "x.y_z", "ok-id\n", "a\nb", "\nx")


def _dicts(node):
    """Every dict in a parsed document, outermost first."""
    if isinstance(node, dict):
        yield node
        children = node.values()
    elif isinstance(node, list):
        children = node
    else:
        return
    for child in children:
        yield from _dicts(child)


def _benches(doc):
    benches = doc.get("benches") if isinstance(doc, dict) else None
    return [b for b in benches if isinstance(b, dict)] if isinstance(benches, list) else []


def _elements(doc):
    return [
        e
        for b in _benches(doc)
        if isinstance(b.get("elements"), list)
        for e in b["elements"]
        if isinstance(e, dict)
    ]


# Mutations that mostly break the schema, and mostly well-formed ones that may
# break a domain invariant (drawn twice as often, so benches get built).
_SCHEMA_MUTATIONS = (
    "drop", "retype", "misspell", "number", "stage", "element-id", "validated-for",
    "element-junk",
)
_DOMAIN_MUTATIONS = (
    "duplicate-element", "duplicate-bench", "substantiation", "combinable", "dimension",
    "empty-leaf", "test-object",
)


def _mutate(draw, doc) -> None:
    """Apply one drawn mutation to ``doc`` in place (or none that fits)."""
    kind = draw(st.sampled_from(_SCHEMA_MUTATIONS + 2 * _DOMAIN_MUTATIONS))
    dicts, benches, elements = list(_dicts(doc)), _benches(doc), _elements(doc)
    if kind in ("drop", "retype", "misspell"):
        target = draw(st.sampled_from(dicts))
        if not target:
            return
        key = draw(st.sampled_from(sorted(target)))
        if kind == "drop":
            del target[key]
        elif kind == "retype":
            target[key] = copy.deepcopy(draw(st.sampled_from(_JUNK)))
        else:
            target[draw(st.sampled_from([key + "s", key.upper(), key.replace("_", "-")]))] = (
                target.pop(key)
            )
        return
    if kind in ("number", "stage", "element-id", "dimension", "validated-for", "duplicate-element"):
        if not elements:
            return
        element = draw(st.sampled_from(elements))
        if kind == "number":
            key = draw(st.sampled_from(["cost_rate", "time_factor", "setup_cost"]))
            element[key] = draw(st.sampled_from(_NUMBERS))
        elif kind == "stage":
            element["stage"] = draw(st.sampled_from(_STAGE_VALUES))
        elif kind == "element-id":
            element["id"] = draw(st.sampled_from(_IDS))
        elif kind == "dimension":
            element["dimension"] = draw(st.sampled_from(_DIMENSIONS))
        elif kind == "validated-for":
            element["validated_for"] = draw(st.sampled_from(["safety", [1], [None], [], ["a", "a"]]))
        else:
            element["id"] = draw(st.sampled_from(elements)).get("id")
        return
    if not benches:
        return
    bench = draw(st.sampled_from(benches))
    if kind == "duplicate-bench":
        if draw(st.booleans()):
            doc["benches"].append(copy.deepcopy(bench))
        else:
            bench["id"] = draw(st.sampled_from(benches)).get("id")
    elif kind == "substantiation":
        subs = bench.setdefault("substantiations", {})
        if isinstance(subs, dict):
            parent = draw(st.sampled_from(_DIMENSIONS))
            subs[parent] = list(draw(st.sampled_from(_SUB_NAMES)))
    elif kind == "combinable":
        flags = bench.setdefault("combinable", {})
        if isinstance(flags, dict):
            flags[draw(st.sampled_from(_DIMENSIONS))] = draw(
                st.sampled_from([True, False, "yes", 0, None])
            )
    elif kind == "test-object":  # well-formed, but warns
        subs = bench.setdefault("substantiations", {})
        if isinstance(subs, dict) and isinstance(bench.get("elements"), list):
            subs["test-object"] = ["Planner"]
            for element in bench["elements"]:
                if isinstance(element, dict) and element.get("dimension") == "test-object":
                    element["dimension"] = "planner"
    elif kind == "empty-leaf":
        if isinstance(bench.get("elements"), list):
            dimension = draw(st.sampled_from(_DIMENSIONS))
            bench["elements"] = [
                e for e in bench["elements"]
                if not (isinstance(e, dict) and e.get("dimension") == dimension)
            ]
    elif isinstance(bench.get("elements"), list) and bench["elements"]:  # element-junk
        index = draw(st.integers(0, len(bench["elements"]) - 1))
        bench["elements"][index] = copy.deepcopy(draw(st.sampled_from(_JUNK)))


def _outcome(load, path):
    """Loaded benches or the error (class, text, per-bench causes), plus
    the warnings raised; anything but a BenchlatticeError propagates."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("loaded", load(path))
        except BenchlatticeError as exc:
            causes = []
            if isinstance(exc, ValidationError):
                causes = [(obj, type(err), str(err)) for obj, err in exc.issues]
            result = ("error", type(exc), str(exc), causes)
    return result, [(w.category, str(w.message)) for w in caught]


def _same_outcome(doc, tmp_path) -> None:
    path = tmp_path / "mutated.bench.json"
    path.write_text(json.dumps(doc))
    assert _outcome(load_registry, path) == _outcome(reference_load_registry, path)


@pytest.mark.parametrize(
    "field",
    ["id", "display_name", "dimension", "stage", "validated_for", "cost_rate", "time_factor",
     "setup_cost", "extra", "surprise"],
)
def test_lean_loader_matches_reference_field_by_field(tmp_path, field):
    # The first, a middle and the last element: the checks go by column.
    drop = object()
    values = (*_JUNK, *_NUMBERS, *_STAGE_VALUES, *_IDS, *_DIMENSIONS, ["a", 1], {"k": [1]})
    count = len(_SHIPPED_DOCS["sil_bench.json"]["benches"][0]["elements"])
    for index in (0, 4, count - 1):
        for value in (*values, drop):
            doc = copy.deepcopy(_SHIPPED_DOCS["sil_bench.json"])
            element = doc["benches"][0]["elements"][index]
            if value is drop:
                element.pop(field, None)
            else:
                element[field] = value
            _same_outcome(doc, tmp_path)


@pytest.mark.parametrize("field", ["cost_rate", "time_factor", "setup_cost"])
@pytest.mark.parametrize("integers", [False, True], ids=["floats", "ints"])
def test_lean_loader_matches_reference_on_bad_numbers_past_the_first(tmp_path, field, integers):
    # min() skips a NaN that is not first, and summing an int past the float
    # range with floats overflows: neither may let a column through.
    bad = (float("nan"), float("inf"), 10**400, -(10**400), float("-inf"))
    for values in (*((value,) for value in bad), bad[:3]):
        doc = copy.deepcopy(_SHIPPED_DOCS["sil_bench.json"])
        elements = doc["benches"][0]["elements"]
        if integers:
            for element in elements:
                element[field] = 2
        for offset, value in enumerate(values):
            elements[2 + 3 * offset][field] = value
        _same_outcome(doc, tmp_path)


@settings(deadline=None, max_examples=250)
@given(data=st.data())
def test_lean_loader_matches_reference_on_mutated_registries(data):
    doc = copy.deepcopy(_SHIPPED_DOCS[data.draw(st.sampled_from(_SHIPPED_REGISTRIES))])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data.draw, doc)
    with tempfile.TemporaryDirectory() as tmp:
        _same_outcome(doc, Path(tmp))


@pytest.mark.parametrize(
    "name", sorted(path.name for path in fixture_path("sil_bench.json").parent.glob("*.json"))
)
def test_loader_matches_reference_on_shipped_documents(name):
    path = fixture_path(name)
    assert _outcome(load_registry, path) == _outcome(reference_load_registry, path)


def test_loader_matches_reference_on_random_registries(tmp_path):
    rng = random.Random(2024)
    for seed in range(20):
        benches = [random_bench(rng, f"bench-{i}") for i in range(rng.randint(1, 3))]
        path = tmp_path / f"random-{seed}.bench.json"
        save_registry(benches, path)
        assert _outcome(load_registry, path) == _outcome(reference_load_registry, path)
        assert load_registry(path) == benches


# --- suite and budget findings against the hand-written reference ------------------

_SUITE_DOC = json.loads(fixture_path("demo_suite.suite.json").read_text())
_BUDGET_DOC = json.loads(fixture_path("demo.budget.json").read_text())
_NUMBER_FIELDS = ("count", "nominal_duration", "sil", "hil")
_COUNTS = (1.5, 0, 2.0, -3, 0.5, True, "2", None, float("inf"), 10**400)
_OVERRIDE_DIMENSIONS = ("scenery", "environment-sensor-system", "radar")


def _mutate_document(draw, doc) -> None:
    """Apply one drawn mutation to a suite or budget document in place."""
    kind = draw(st.sampled_from(
        ["drop", "retype", "misspell", "unknown", "number", "number", "stage", "case-id",
         "duplicate-case", "list-junk"]
    ))
    dicts = list(_dicts(doc))
    if kind in ("drop", "retype", "misspell", "unknown"):
        target = draw(st.sampled_from(dicts))
        if kind == "unknown":
            target[draw(st.sampled_from(["surprise", "ID", "count", "type", "aa"]))] = (
                copy.deepcopy(draw(st.sampled_from(_JUNK)))
            )
            return
        if not target:
            return
        key = draw(st.sampled_from(sorted(target)))
        if kind == "drop":
            del target[key]
        elif kind == "retype":
            target[key] = copy.deepcopy(draw(st.sampled_from(_JUNK)))
        else:
            target[draw(st.sampled_from([key + "s", key.upper(), key.replace("_", "-")]))] = (
                target.pop(key)
            )
        return
    if kind == "number":
        holders = [d for d in dicts if d.keys() & set(_NUMBER_FIELDS)]
        if holders:
            holder = draw(st.sampled_from(holders))
            key = draw(st.sampled_from(sorted(holder.keys() & set(_NUMBER_FIELDS))))
            holder[key] = draw(st.sampled_from(_COUNTS if key == "count" else _NUMBERS))
        return
    cases = doc.get("test_cases") if isinstance(doc, dict) else None
    cases = [c for c in cases if isinstance(c, dict)] if isinstance(cases, list) else []
    if kind == "stage" and cases:
        case = draw(st.sampled_from(cases))
        stages = [
            copy.deepcopy(draw(st.sampled_from(_STAGE_VALUES)))
            for _ in range(draw(st.integers(0, 2)))
        ]
        if isinstance(case.get("overrides"), dict):
            case["overrides"][draw(st.sampled_from(_OVERRIDE_DIMENSIONS))] = stages
    elif kind == "case-id" and cases:
        draw(st.sampled_from(cases))["id"] = draw(st.sampled_from(_IDS))
    elif kind == "duplicate-case" and cases:
        doc["test_cases"].append(copy.deepcopy(draw(st.sampled_from(cases))))
    elif kind == "list-junk":
        lists = [v for d in dicts for v in d.values() if isinstance(v, list) and v]
        if lists:
            target = draw(st.sampled_from(lists))
            target[draw(st.integers(0, len(target) - 1))] = copy.deepcopy(
                draw(st.sampled_from(_JUNK))
            )


def _schema_issues(load, arg):
    """The findings of the SchemaError ``load(arg)`` raises; () when it
    raises another BenchlatticeError or none."""
    try:
        load(arg)
    except SchemaError as exc:
        return exc.issues
    except BenchlatticeError:
        pass
    return ()


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_suite_and_budget_findings_match_the_hand_written_reference(data):
    budget = data.draw(st.booleans())
    doc = copy.deepcopy(_BUDGET_DOC if budget else _SUITE_DOC)
    for _ in range(data.draw(st.integers(1, 4))):
        _mutate_document(data.draw, doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("mutated.budget.json" if budget else "mutated.suite.json")
        path.write_text(json.dumps(doc))
        if budget:
            assert _schema_issues(load_budget, path) == reference_budget_issues(doc)
            return
        assert _schema_issues(load_suite, path) == reference_suite_issues(doc)
    cases = doc.get("test_cases") if isinstance(doc, dict) else None
    for raw in cases if isinstance(cases, list) else ():
        assert _schema_issues(case_from_raw, raw) == reference_case_issues(raw)


def _variants(doc, rng):
    """The registry document as written, and with every bench's elements
    shuffled: as they are, with display names and extra maps dropped from
    some, and with two setup costs whose sum is past the largest float, which
    only the itemised checks accept."""
    yield "as-written", doc, False
    shuffled = copy.deepcopy(doc)
    for bench in shuffled["benches"]:
        rng.shuffle(bench["elements"])
    yield "shuffled", shuffled, False
    sparse = copy.deepcopy(shuffled)
    for bench in sparse["benches"]:
        for element in bench["elements"][::2]:
            element.pop("display_name")
        for element in bench["elements"][::3]:
            element.pop("extra")
    yield "sparse", sparse, False
    huge = copy.deepcopy(shuffled)
    for bench in huge["benches"]:
        for element in bench["elements"][:2]:
            element["setup_cost"] = 1.5e308
    yield "itemised", huge, True


# What a configuration space holds; dicts are compared with their order.
_SPACE_FIELDS = (
    "bench_id", "leaves", "leaf_ids", "canonical_of", "dimensions", "stage_bit",
    "ids_per_leaf", "choice_counts", "weights", "count",
)
# Spaces up to this many configurations are compared at every index.
_EVERY_INDEX = 2048


def _space_fields(space):
    fields = {name: getattr(space, name) for name in _SPACE_FIELDS}
    return {
        name: list(value.items()) if isinstance(value, dict) else value
        for name, value in fields.items()
    }


def _lookups_derive_the_space_of_what_loads_build(doc, tmp_path, rng):
    """The space a lookup derives from a registry's checked columns equals
    the space of the bench a load builds, field by field and at every
    index of the small benches (a sample of the others)."""
    for label, variant, itemised in _variants(doc, rng):
        path = tmp_path / f"{label}.bench.json"
        path.write_text(json.dumps(variant))
        for raw in variant["benches"]:
            assert (_element_columns(raw["elements"]) is None) == itemised, label
        loaded = load_registry(path)
        assert loaded == reference_load_registry(path), label
        for bench in loaded:
            args = argparse.Namespace(registry=str(path), bench=bench.id)
            looked_up, space = _named_space(args), ConfigurationSpace(bench)
            assert _space_fields(looked_up) == _space_fields(space), (label, bench.id)
            indices = range(space.count)
            if space.count > _EVERY_INDEX:
                indices = [0, space.count - 1, *rng.sample(indices, 64)]
            for index in indices:
                config = looked_up.at(index)
                assert config == space.at(index), (label, bench.id, index)
                assert looked_up.classify(config) is space.classify(config), (label, index)


@pytest.mark.parametrize("name", _SHIPPED_REGISTRIES)
def test_a_lookup_builds_the_bench_a_load_builds_on_shipped_registries(tmp_path, name):
    _lookups_derive_the_space_of_what_loads_build(_SHIPPED_DOCS[name], tmp_path, random.Random(name))


def test_a_lookup_builds_the_bench_a_load_builds_on_random_registries(tmp_path):
    rng = random.Random(2025)
    for _ in range(15):
        benches = [random_bench(rng, f"bench-{i}") for i in range(rng.randint(1, 3))]
        path = tmp_path / "random.bench.json"
        save_registry(benches, path)
        _lookups_derive_the_space_of_what_loads_build(json.loads(path.read_text()), tmp_path, rng)


def test_integer_numbers_load_as_floats(tmp_path):
    doc = copy.deepcopy(_SHIPPED_DOCS["sil_bench.json"])
    for element in doc["benches"][0]["elements"]:
        element.update(cost_rate=3, time_factor=2, setup_cost=0)
    path = tmp_path / "integers.bench.json"
    path.write_text(json.dumps(doc))
    (bench,) = load_registry(path)
    for element in bench.elements:
        numbers = element.characteristics
        assert (numbers.cost_rate, numbers.time_factor, numbers.setup_cost) == (3.0, 2.0, 0.0)
        assert {type(numbers.cost_rate), type(numbers.time_factor), type(numbers.setup_cost)} == {
            float
        }
    assert _outcome(load_registry, path) == _outcome(reference_load_registry, path)


@pytest.mark.parametrize("field", ["cost_rate", "time_factor", "setup_cost"])
def test_integer_just_past_the_largest_float_loads_rounded(tmp_path, field):
    # Past the largest float, yet it rounds down to that float: it loads as
    # that float, as the itemised checks would load it.
    doc = copy.deepcopy(_SHIPPED_DOCS["sil_bench.json"])
    doc["benches"][0]["elements"][4][field] = int(sys.float_info.max) + 1
    path = tmp_path / "rounded.bench.json"
    path.write_text(json.dumps(doc))
    (bench,) = load_registry(path)
    assert sys.float_info.max in [getattr(e.characteristics, field) for e in bench.elements]
    assert _outcome(load_registry, path) == _outcome(reference_load_registry, path)


# --- the plan and document writer ------------------------------------------------

_SPECIAL_TEXT = "\ud800\udfff\u2028\u2029\x00\x1f\x7f\"\\/\u00e9"
_TEXT = st.text(
    st.one_of(st.characters(blacklist_categories=()), st.sampled_from(_SPECIAL_TEXT))
)
_FLOATS = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324])
)
_INTS = st.one_of(st.integers(), st.integers(min_value=2**64, max_value=2**200).map(
    lambda n: n if n % 2 else -n
))
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
        # Non-str keys, one kind per map, then mixed kinds that json cannot sort.
        st.dictionaries(st.one_of(_INTS, st.booleans(), st.none()), children, max_size=3),
        st.dictionaries(_FLOATS, children, max_size=3),
        st.dictionaries(st.one_of(_TEXT, _INTS, _FLOATS, st.none()), children, max_size=3),
    ),
    max_leaves=24,
)


def _written(write, value):
    """The text ``write`` gives ``value``, or the error it raises."""
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _json_dumps(value):
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


@settings(deadline=None, max_examples=400)
@given(_JSON_VALUES)
def test_dump_writes_the_bytes_json_writes(value):
    assert _written(_dump, value) == _written(_json_dumps, value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": [], "b": {}, "c": ()},
        {1: "one", 2.5: "two and a half", None: "null", True: "yes"},
        {math.nan: 1, math.inf: 2, -math.inf: 3, -0.0: 4},
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2**64 + 1, -(2**70)],
        "\ud800 \udc00 \u2028 \x00 \x1f \u00e9",
        {(1, 2): "tuple key"},
        {"a": {1, 2}},
        {1: "int", "a": "text"},
        object(),
    ],
    ids=[
        "empty-map", "empty-list", "empty-tuple", "empty-children", "scalar-keys",
        "float-keys", "floats-and-big-ints", "surrogates-and-controls", "tuple-key",
        "set-value", "mixed-keys", "object",
    ],
)
def test_dump_matches_json_on_edge_values(value):
    assert _written(_dump, value) == _written(_json_dumps, value)


class _Kind(enum.IntEnum):
    ONE = 1


class _Text(str):
    pass


class _Real(float):
    pass


@pytest.mark.parametrize(
    "value",
    [
        [_Kind.ONE, _Text("a\"b"), _Real(1.5), _Real(math.inf), True, None],
        {_Text("k"): _Kind.ONE, _Kind.ONE: _Text("v")},
        {"a": collections.OrderedDict(b=[1, (2.5, "c")])},
    ],
    ids=["scalar-subclasses", "subclass-keys", "mapping-subclass"],
)
def test_dump_writes_subclasses_as_json_writes_them(value):
    assert _written(_dump, value) == _written(_json_dumps, value)


def _odd_plan():
    """A plan over a bench built by the library whose leaf, element and test
    case ids hold quotes, backslashes, control characters and non-ASCII
    text (a leaf's control characters are ones XML 1.0 can carry, as a
    sub-dimension name must); one case is assigned, one refused on every
    leaf."""
    names = ['Ra"dar\\ \u00fc\x9f', "Cam\u00e9ra \u2603\x7f"]
    bench = substantiate_dimension(new_bench('b\\"\u00e9'), "environment-sensor-system", names)
    leaves = [node.id for node in bench.dimension_tree if node.parent]
    elements = [
        make_element(dim, dim) for dim in CANONICAL_DIMENSION_IDS
        if dim != "environment-sensor-system"
    ]
    elements += [
        make_element(f'{leaf}-"e{i}"\\\t\u00e5', leaf, Stage.EMULATED)
        for leaf in leaves for i in range(2)
    ]
    bench = validate_bench(with_elements(bench, elements))
    cases = [
        make_test_case('cut-in "\u00e4"\\\x02'),
        make_test_case("\u65e5\u672c\n\"x\"", purpose="endurance"),
    ]
    plan = assign_greedy(cases, [bench], CapacityBudget({bench.id: 10_000.0}))
    assert len(plan.assignments) == len(plan.unassignable) == 1
    return plan


def test_dump_writes_plans_with_odd_ids_as_json_writes_them(tmp_path):
    plan = _odd_plan()
    payload = plan_to_raw(plan)
    (assigned,) = payload["assignments"].values()
    assert any(not leaf.isascii() for leaf in assigned["selection"])
    assert _dump(payload) == _json_dumps(payload)
    path = tmp_path / "odd.plan.json"
    save_plan(plan, path)
    assert path.read_bytes() == _json_dumps(payload).encode("utf-8")


def test_registry_extra_with_non_text_keys_is_written_as_json_writes_it(tmp_path, sil_bench):
    extra = {3: "three", 1.5: [None, math.inf], -1: {"nested": -0.0}}
    element = sil_bench.elements[0]
    characteristics = replace(element.characteristics, extra=extra)
    bench = replace(
        sil_bench,
        elements=(replace(element, characteristics=characteristics), *sil_bench.elements[1:]),
    )
    path = tmp_path / "extra.bench.json"
    save_registry([bench], path)
    payload = {"format_version": "1", "benches": [bench_to_raw(bench)]}
    assert path.read_text(encoding="utf-8") == _json_dumps(payload)


@pytest.mark.parametrize(
    "durations, characteristics, location",
    [
        ((1e308,), {"time_factor": 4.0, "cost_rate": 0.0}, "assignments.case-0.execution_time_s"),
        ((1.0, 1e308), {"time_factor": 1.0, "cost_rate": 1e300},
         "assignments.case-1.monetary_cost"),
        ((1e308, 1e308), {"time_factor": 1.0, "cost_rate": 0.0}, "total_bench_time_s.bench"),
        ((1e308, 1e308), {"time_factor": 0.01, "cost_rate": 5e4}, "total_cost"),
    ],
    ids=["execution-time", "money", "bench-time", "total-cost"],
)
def test_a_plan_value_past_the_float_range_is_refused_by_location(
    tmp_path, durations, characteristics, location
):
    bench = uniform_bench(**characteristics)
    suite = [make_test_case(f"case-{i}", duration=d) for i, d in enumerate(durations)]
    plan = assign_greedy(suite, [bench])
    assert len(plan.assignments) == len(suite)
    message = f"{location}: value past the float range; no plan is written"
    with pytest.raises(BenchlatticeError) as excinfo:
        plan_to_raw(plan)
    assert str(excinfo.value) == message
    path = tmp_path / "over.plan.json"
    with pytest.raises(BenchlatticeError, match=f"^{re.escape(message)}$"):
        save_plan(plan, path)
    assert os.listdir(tmp_path) == []


def test_a_plan_in_the_float_range_is_written_without_locating_values(
    tmp_path, fleet, demo_suite
):
    plan = assign_greedy(demo_suite.test_cases, fleet, overrides=demo_suite.overrides)
    path = tmp_path / "demo.plan.json"
    document = save_plan(plan, path)
    assert document == plan_to_raw(plan)
    assert path.read_bytes() == _json_dumps(document).encode("utf-8")


@pytest.mark.parametrize(
    "parent_flag, radar_flag, camera_flag",
    [(None, True, False), (True, False, True)],
    ids=["canonical-parent", "overridden-parent"],
)
def test_a_sub_dimension_takes_its_own_flag_or_its_parents(parent_flag, radar_flag, camera_flag):
    flags = {"radar": radar_flag}
    if parent_flag is not None:
        flags["environment-sensor-system"] = parent_flag
    bench = bench_from_raw(_bench_fragment(combinable=flags))
    combinable = {node.id: node.combinable for node in bench.dimension_tree}
    assert combinable["radar"] is radar_flag
    # The unflagged sibling keeps its parent's flag, the canonical default
    # or the registry's override.
    assert combinable["camera"] is combinable["environment-sensor-system"] is camera_flag
    assert combinable["movable-objects"] is True and combinable["scenery"] is False


@pytest.mark.parametrize("elements", [None, []], ids=["elements", "no-elements"])
def test_a_flag_for_a_sub_dimension_no_substantiation_makes_is_refused(elements):
    # No substantiation makes "lidar" or "gnss". Their flags are refused
    # before the elements are checked, which an empty list would fail.
    fragment = _bench_fragment(combinable={"lidar": True, "gnss": False, "radar": True})
    if elements is not None:
        fragment["elements"] = elements
    with pytest.raises(UnknownDimension) as excinfo:
        bench_from_raw(fragment)
    assert str(excinfo.value) == "combinable overrides for unknown dimensions: ['gnss', 'lidar']"


@pytest.mark.parametrize("elements", [[], None], ids=["empty", "absent"])
def test_a_bench_without_elements_names_its_first_empty_leaf(tmp_path, elements):
    doc = sil_raw()
    if elements is None:
        del doc["benches"][0]["elements"]
    else:
        doc["benches"][0]["elements"] = elements
    message = "leaf dimension 'test-object' of bench 'sil' holds no element"
    with pytest.raises(EmptyLeaf) as excinfo:
        bench_from_raw(doc["benches"][0])
    assert str(excinfo.value) == message
    path = tmp_path / "bare.bench.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as excinfo:
        load_registry(path)
    assert str(excinfo.value) == f"sil: {message}"


def test_a_suite_case_without_scenario_is_validation_error(tmp_path):
    doc = json.loads(fixture_path("demo_suite.suite.json").read_text())
    del doc["test_cases"][1]["scenario"]
    path = tmp_path / "bare.suite.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as excinfo:
        load_suite(path)
    assert str(excinfo.value) == (
        "sensor-stimulus-check: test case 'sensor-stimulus-check' has no scenario"
    )
