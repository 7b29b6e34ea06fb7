from __future__ import annotations

import json
import os
import random
import stat

import pytest

from benchlattice.assignment import CapacityBudget, assign_greedy
from benchlattice.chart import render_bench_chart
from benchlattice.data import fixture_path
from benchlattice.errors import (
    DocumentSyntaxError,
    DuplicateId,
    SchemaError,
    ValidationError,
)
from benchlattice.registry import (
    load_budget,
    load_registry,
    load_suite,
    save_budget,
    save_plan,
    save_registry,
    save_suite,
    write_text_atomic,
)
from benchlattice.taxonomy import Stage
from helpers import random_bench


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
    assert "benches[0].elements[3].stage" in excinfo.value.locations()


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
    locations = excinfo.value.locations()
    assert "benches[0].elements[0].stage" in locations
    assert "benches[0].elements[1].cost_rate" in locations
    assert "benches[0].elements[2].surprise" in locations


def test_malformed_json_is_syntax_error(tmp_path):
    path = tmp_path / "broken.bench.json"
    path.write_text("{not json")
    with pytest.raises(DocumentSyntaxError):
        load_registry(path)


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
    assert "benches[1].id" in excinfo.value.locations()


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
    assert "test_cases[0].overrides.scenery[0]" in excinfo.value.locations()


def test_invalid_test_case_is_validation_error(tmp_path):
    doc = json.loads(fixture_path("demo_suite.suite.json").read_text())
    doc["test_cases"][0]["evaluation_criteria"] = []
    path = tmp_path / "empty.suite.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_suite(path)


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
