from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import benchlattice
from benchlattice import assignment, cli
from benchlattice.assignment import CapacityBudget, estimate_cost
from benchlattice.cli import run
from benchlattice.configuration import ConfigurationSpace
from benchlattice.data import fixture_path
from benchlattice.registry import (
    LoadedSuite,
    load_budget,
    load_registry,
    load_suite,
    save_budget,
    save_plan,
    save_registry,
    save_suite,
)
from benchlattice.taxonomy import Stage
from helpers import (
    make_element, make_test_case, reference_greedy, repeated_cases, uniform_bench,
)

FLEET = str(fixture_path("fleet_bench.json"))
SIL = str(fixture_path("sil_bench.json"))
VEHICLE = str(fixture_path("test_vehicle_bench.json"))
SUITE = str(fixture_path("demo_suite.suite.json"))
BUDGET = str(fixture_path("demo.budget.json"))


def test_validate_ok(capsys):
    assert run(["validate", FLEET]) == 0
    out = capsys.readouterr().out
    assert "sil: 11 leaf dimensions, 12 elements" in out
    assert "OK: 2 bench(es) valid" in out


def test_validate_missing_file(capsys):
    assert run(["validate", "/nonexistent/registry.bench.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_enumerate_count_only(capsys):
    assert run(["enumerate", SIL, "--bench", "sil", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_enumerate_lists_configurations(capsys):
    assert run(["enumerate", SIL, "--bench", "sil"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("0\tsoftware-in-the-loop")
    assert "vd-single-track" in lines[0]
    assert "vd-double-track" in lines[1]


def test_enumerate_unknown_bench(capsys):
    assert run(["enumerate", SIL, "--bench", "nope"]) == 1
    assert "no bench 'nope'" in capsys.readouterr().err


def test_classify_test_vehicle(capsys):
    assert run(["classify", VEHICLE, "--bench", "test-vehicle", "--config", "0"]) == 0
    assert capsys.readouterr().out.strip() == "test-vehicle"


def test_classify_index_out_of_range(capsys):
    assert run(["classify", SIL, "--bench", "sil", "--config", "5"]) == 1
    assert "out of range" in capsys.readouterr().err


def test_chart_written_and_deterministic(tmp_path, capsys):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    assert run(["chart", SIL, "--bench", "sil", "-o", str(first)]) == 0
    assert run(["chart", SIL, "--bench", "sil", "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().startswith("<?xml")


def test_configuration_chart_written(tmp_path):
    out = tmp_path / "config.svg"
    assert run(["chart", SIL, "--bench", "sil", "--config", "0", "-o", str(out)]) == 0
    assert "composition" in out.read_text()


def test_assign_writes_plan_and_summary(tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert run(["assign", FLEET, SUITE, "-o", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "cut-in-rain" in summary
    assert "total cost: 126.92" in summary
    payload = json.loads(out.read_text())
    assert payload["assignments"]["cut-in-rain"]["config_index"] == 0


def test_assign_with_budget_and_exact(tmp_path, capsys):
    out = tmp_path / "plan.json"
    code = run(["assign", FLEET, SUITE, "--budget", BUDGET, "--exact", "-o", str(out)])
    assert code == 0
    assert "total cost: 273.75" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags", [[], ["--exact"], ["--budget", BUDGET], ["--budget", BUDGET, "--exact"]],
    ids=["greedy", "exact", "budget", "budget-exact"],
)
def test_assign_leaves_no_reference_cycles(tmp_path, capsys, flags):
    # Garbage in cycles waits for the cyclic collector: a run that leaves
    # none frees all it built as soon as it returns.
    argv = ["assign", FLEET, SUITE, *flags, "-o", str(tmp_path / "plan.json")]
    assert run(argv) == 0  # the parser is built once, on the first run
    gc.collect()
    gc.disable()
    try:
        assert run(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_assign_unassignable_exits_one(tmp_path, capsys):
    suite = LoadedSuite(
        test_cases=(make_test_case("needs-real"),),
        overrides={"needs-real": {"environment-sensor-system": frozenset({Stage.REAL})}},
    )
    suite_path = tmp_path / "real.suite.json"
    save_suite(suite, suite_path)
    out = tmp_path / "plan.json"
    assert run(["assign", SIL, str(suite_path), "-o", str(out)]) == 1
    captured = capsys.readouterr().out
    assert "UNASSIGNABLE" in captured
    payload = json.loads(out.read_text())
    assert payload["assignments"] == {}
    assert payload["unassignable"][0]["test_case"] == "needs-real"


def test_exact_guard_refused_with_exit_two(tmp_path, capsys, monkeypatch):
    # Assigning the first test case or skipping it leaves two partial plans.
    monkeypatch.setattr(assignment, "EXACT_MAX_LABELS", 1)
    out = tmp_path / "plan.json"
    code = run(["assign", SIL, SUITE, "--budget", BUDGET, "--exact", "-o", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: exact solver keeps at most 1 partial plans; more survive test case 1 of 3\n"
    )
    assert not out.exists()


def test_exact_beats_greedy_on_twelve_fixture_cases(tmp_path, capsys):
    cases = tuple(repeated_cases(load_suite(SUITE).test_cases, 4))
    suite_path = tmp_path / "twelve.suite.json"
    save_suite(LoadedSuite(test_cases=cases, overrides={}), suite_path)
    out = tmp_path / "plan.json"
    argv = ["assign", FLEET, str(suite_path), "--budget", BUDGET, "-o", str(out)]
    assert run([*argv, "--exact"]) == 0
    assert "total cost: 1405.75" in capsys.readouterr().out
    assert run(argv) == 0
    assert "total cost: 1605.75" in capsys.readouterr().out


def test_assign_refuses_a_misspelt_override(tmp_path, capsys):
    text = Path(SUITE).read_text(encoding="utf-8")
    assert text.count('"environment-sensor-system": [') == 1
    suite_path = tmp_path / "typo.suite.json"
    suite_path.write_text(
        text.replace('"environment-sensor-system": [', '"enviroment-sensor-system": ['),
        encoding="utf-8",
    )
    out = tmp_path / "plan.json"
    assert run(["assign", FLEET, str(suite_path), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: test_cases[1].overrides.enviroment-sensor-system: unknown dimension: "
        "neither canonical nor a dimension of any bench in the registry\n"
    )
    assert not out.exists()


def test_assign_refuses_a_budget_for_an_unknown_bench(tmp_path, capsys):
    text = Path(BUDGET).read_text(encoding="utf-8")
    assert text.count('"sil"') == 1
    budget_path = tmp_path / "typo.budget.json"
    budget_path.write_text(text.replace('"sil"', '"sill"'), encoding="utf-8")
    out = tmp_path / "plan.json"
    assert run(["assign", FLEET, SUITE, "--budget", str(budget_path), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: max_bench_time.sill: unknown bench (available: sil, test-vehicle)\n"
    )
    assert not out.exists()


def test_assign_refuses_a_criterion_name_that_is_not_text(tmp_path, capsys):
    doc = json.loads(Path(SUITE).read_text(encoding="utf-8"))
    doc["test_cases"][0]["evaluation_criteria"][0]["name"] = 5
    suite_path = tmp_path / "numbered.suite.json"
    suite_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "plan.json"
    assert run(["assign", FLEET, str(suite_path), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "test_cases[0].evaluation_criteria[0].name: expected a string, got int" in captured.err
    assert not out.exists()


def test_assign_accepts_an_override_of_a_sub_dimension_one_bench_lacks(tmp_path, capsys):
    # Only sil substantiates the environment sensors into radar and camera.
    suite = LoadedSuite(
        test_cases=(make_test_case("radar-check"),),
        overrides={"radar-check": {"radar": frozenset({Stage.SIMULATED})}},
    )
    suite_path = tmp_path / "radar.suite.json"
    save_suite(suite, suite_path)
    out = tmp_path / "plan.json"
    assert run(["assign", FLEET, str(suite_path), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["assignments"]["radar-check"]["bench"] == "sil"
    assert "error" not in capsys.readouterr().err


def test_assign_prints_budget_exhausted_cases_and_no_bench_time(tmp_path, capsys):
    # One second per bench: every test case is admissible somewhere, none fits.
    budget_path = tmp_path / "tiny.budget.json"
    save_budget(CapacityBudget({"sil": 1.0, "test-vehicle": 1.0}), budget_path)
    out = tmp_path / "plan.json"
    assert run(["assign", FLEET, SUITE, "--budget", str(budget_path), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "test case  bench  config  method  cost  time [s]\n"
        "cut-in-rain  UNASSIGNABLE (bench-time-exhausted)\n"
        "    sil: admissible, but no bench time left\n"
        "    test-vehicle: admissible, but no bench time left\n"
        "sensor-stimulus-check  UNASSIGNABLE (bench-time-exhausted)\n"
        "    sil: STAGE_NOT_ADMISSIBLE on camera, STAGE_NOT_ADMISSIBLE on radar\n"
        "    test-vehicle: admissible, but no bench time left\n"
        "v2x-handover  UNASSIGNABLE (bench-time-exhausted)\n"
        "    sil: admissible, but no bench time left\n"
        "    test-vehicle: admissible, but no bench time left\n"
        "total cost: 0.00\n"
        f"wrote {out}\n"
    )
    payload = json.loads(out.read_text())
    assert payload["assignments"] == {} and payload["total_bench_time_s"] == {}


def test_assign_refuses_a_plan_value_past_the_float_range(tmp_path, capsys):
    # Both documents validate: a time factor of 4 and a duration of 1e308 s
    # are finite, but the run takes 4e308 s, which no float holds.
    registry = json.loads(Path(FLEET).read_text(encoding="utf-8"))
    for bench in registry["benches"]:
        for element in bench["elements"]:
            element["time_factor"] = 4.0
    suite = json.loads(Path(SUITE).read_text(encoding="utf-8"))
    suite["test_cases"][0]["scenario"]["nominal_duration"] = 1e308
    registry_path, suite_path = tmp_path / "slow.bench.json", tmp_path / "long.suite.json"
    registry_path.write_text(json.dumps(registry), encoding="utf-8")
    suite_path.write_text(json.dumps(suite), encoding="utf-8")
    assert run(["validate", str(registry_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "plan.json"
    assert run(["assign", str(registry_path), str(suite_path), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: assignments.cut-in-rain.execution_time_s: value past the float range; "
        "no plan is written\n"
    )
    assert not out.exists()


def test_usage_errors_exit_two(capsys):
    assert run([]) == 2
    assert run(["enumerate", SIL]) == 2  # --bench missing
    assert run(["frobnicate"]) == 2


REUSE_SEQUENCES = {
    "exact-then-greedy": [
        ["assign", FLEET, SUITE, "--budget", BUDGET, "--exact", "-o", "{out}"],
        ["assign", FLEET, SUITE, "-o", "{out}"],
    ],
    "configuration-then-bench-chart": [
        ["chart", SIL, "--bench", "sil", "--config", "1", "-o", "{out}"],
        ["chart", SIL, "--bench", "sil", "-o", "{out}"],
    ],
    "usage-error-then-valid": [
        ["classify", SIL, "--bench", "sil"],
        ["classify", SIL, "--bench", "sil", "--config", "1"],
        ["chart", SIL, "--bench", "sil", "--config", "x", "-o", "{out}"],
        ["chart", SIL, "--bench", "sil", "-o", "{out}"],
    ],
}


@pytest.mark.parametrize("name", sorted(REUSE_SEQUENCES))
def test_reused_parser_matches_fresh_parsers(tmp_path, capsys, name):
    out = tmp_path / "out.file"

    def replay(fresh: bool) -> list:
        out.unlink(missing_ok=True)
        cli._parser.cache_clear()
        results = []
        for argv in REUSE_SEQUENCES[name]:
            if fresh:
                cli._parser.cache_clear()
            code = run([arg.format(out=out) for arg in argv])
            captured = capsys.readouterr()
            written = out.read_bytes() if out.exists() else None
            results.append((code, captured.out, captured.err, written))
        return results

    reused = replay(fresh=False)
    assert cli._parser.cache_info().misses == 1
    assert reused == replay(fresh=True)
    assert [code for code, *_ in reused] == (
        [2, 0, 2, 0] if name == "usage-error-then-valid" else [0, 0]
    )


# Every subcommand, valid.
VALID_ARGVS = [
    ["validate", FLEET],
    ["enumerate", SIL, "--bench", "sil"],
    ["enumerate", SIL, "--bench", "sil", "--count-only"],
    ["chart", SIL, "--bench", "sil", "-o", "{out}"],
    ["chart", SIL, "--bench", "sil", "--config", "1", "-o", "{out}"],
    ["classify", SIL, "--bench", "sil", "--config", "1"],
    ["assign", FLEET, SUITE, "-o", "{out}"],
    ["assign", FLEET, SUITE, "--budget", BUDGET, "--exact", "-o", "{out}"],
]
# An unknown option or a left-over positional, which only the full parser
# reports.
LEFT_OVER_ARGVS = [
    ["assign", FLEET, SUITE, "-o", "{out}", "--bogus"],
    ["validate", FLEET, "--bogus"],
    ["classify", SIL, "--bench", "sil", "--config", "1", "--bogus=1"],
    ["validate", FLEET, "extra"],
    ["classify", SIL, "extra", "--bench", "sil", "--config", "1"],
    ["assign", FLEET, SUITE, "extra", "-o", "{out}"],
]
# No subcommand first.
NO_COMMAND_ARGVS = [
    [], ["frobnicate"], ["Validate", FLEET], ["--bench", "sil", "classify", SIL],
    ["-h"], ["--help"], ["-h", "assign"], ["--help", "classify", SIL],
    ["--"], ["--", "validate", FLEET],
]
ARGV_CORPUS = VALID_ARGVS + LEFT_OVER_ARGVS + NO_COMMAND_ARGVS + [
    # A missing required option.
    ["validate"],
    ["enumerate", SIL],
    ["classify", SIL, "--bench", "sil"],
    ["chart", SIL, "--bench", "sil"],
    ["assign", FLEET, SUITE],
    # Abbreviations, attached values, bad values and repeated options.
    ["assign", FLEET, SUITE, "--bud", BUDGET, "--ex", "-o", "{out}"],
    ["assign", FLEET, SUITE, f"--budget={BUDGET}", "--output={out}"],
    ["enumerate", SIL, "--be", "sil", "--count"],
    ["chart", SIL, "--bench=sil", "-o{out}"],
    ["chart", SIL, "--bench", "sil", "--config", "x", "-o", "{out}"],
    ["classify", SIL, "--bench", "sil", "--config", "x"],
    ["classify", SIL, "--bench", "sil", "--config", "-1"],
    ["classify", SIL, "--bench", "nope", "--bench", "sil", "--config", "0"],
    # Help after the subcommand, and "--" after it.
    ["assign", "-h"],
    ["assign", FLEET, SUITE, "--help"],
    ["validate", FLEET, "-h"],
    ["chart", "--he"],
    ["validate", "--", FLEET],
    ["assign", FLEET, "--", SUITE, "-o", "{out}"],
    ["classify", "--bench", "sil", "--config", "0", "--", SIL],
]
TOP_LEVEL_USAGE = "usage: benchlattice [-h] {validate,enumerate,chart,classify,assign} ..."


def _invocation(argv: list[str], out: Path, capsys) -> tuple:
    out.unlink(missing_ok=True)
    code = run([arg.format(out=out) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


def test_argv_corpus_parses_as_the_full_parser_parses_it(tmp_path, monkeypatch, capsys):
    """``run`` hands an argv straight to the parser of the subcommand it
    names; exit codes, both streams and the written file are the full
    parser's, which runs only for an argv that names no subcommand first or
    leaves arguments over."""
    out = tmp_path / "out.file"
    parser, _ = cli._parser()
    full_runs = []
    parse_args = parser.parse_args
    monkeypatch.setattr(
        parser, "parse_args", lambda argv: full_runs.append(argv) or parse_args(argv)
    )
    direct = [_invocation(argv, out, capsys) for argv in ARGV_CORPUS]
    fallbacks = len(full_runs)
    monkeypatch.setattr(cli, "_parse", parse_args)
    assert direct == [_invocation(argv, out, capsys) for argv in ARGV_CORPUS]
    assert fallbacks == len(LEFT_OVER_ARGVS) + len(NO_COMMAND_ARGVS)
    results = dict(zip(map(tuple, ARGV_CORPUS), direct))
    assert [results[tuple(argv)][0] for argv in VALID_ARGVS] == [0] * len(VALID_ARGVS)
    for argv in LEFT_OVER_ARGVS:
        code, _, err, _ = results[tuple(argv)]
        assert code == 2 and err.splitlines()[0] == TOP_LEVEL_USAGE


def test_parser_built_on_first_run_not_on_import(tmp_path):
    script = f"""
import argparse, json, sys
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import benchlattice, benchlattice.cli
counts = [len(built)]
for _ in range(3):
    benchlattice.cli.run(["validate", {SIL!r}])
    counts.append(len(built))
print(json.dumps(counts), file=sys.stderr)
"""
    src = str(Path(benchlattice.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    on_import, first, second, third = json.loads(proc.stderr)
    assert on_import == 0
    assert first > 0  # the parser and its subcommand parsers
    assert second == third == first


def _modules_loaded_by_cli_import() -> list[str]:
    # -S keeps site-packages hooks out, so the module list is the package's own.
    script = "import json, sys, benchlattice.cli; print(json.dumps(sorted(sys.modules)))"
    src = str(Path(benchlattice.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_network_or_markup_stack():
    loaded = _modules_loaded_by_cli_import()
    assert "benchlattice.chart" in loaded
    forbidden = {"xml", "urllib", "http", "email", "ssl", "socket"}
    assert [name for name in loaded if name.split(".")[0] in forbidden] == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # The value types are slotted classes; dataclasses would bring inspect,
    # ast, dis and tokenize and exec a method per field of every type.
    loaded = _modules_loaded_by_cli_import()
    assert "benchlattice.frozen" in loaded
    assert [name for name in loaded if name in {"dataclasses", "inspect", "ast", "dis"}] == []


# sha256 of the bytes each command writes for the shipped fixtures. A change
# here is a change of output format, not a refactoring.
PINNED_OUTPUTS = {
    "chart": (
        ["chart", FLEET, "--bench", "sil"],
        "12879f1149eb5262e6b4e6d6207efed81a48fc2aec39824d6fd41bc69053ecfd",
    ),
    "chart-config-0": (
        ["chart", FLEET, "--bench", "sil", "--config", "0"],
        "e20fa35a38a47016daae34e6f7f2fcb53993c0e1e33ebc3eea992dbc3ca4bf5c",
    ),
    "assign-greedy": (
        ["assign", FLEET, SUITE],
        "6d864ae576a11fe62882805bc0dd2013222ca7c38254d65e47ae888563c15562",
    ),
    "assign-exact": (
        ["assign", FLEET, SUITE, "--exact"],
        "6d864ae576a11fe62882805bc0dd2013222ca7c38254d65e47ae888563c15562",
    ),
    "assign-budget": (
        ["assign", FLEET, SUITE, "--budget", BUDGET],
        "6f0fd4ca1a11afd77aedfcb07b93dc94de04be5fc8d5701de4bd0c57a451f740",
    ),
    "assign-budget-exact": (
        ["assign", FLEET, SUITE, "--budget", BUDGET, "--exact"],
        "6f0fd4ca1a11afd77aedfcb07b93dc94de04be5fc8d5701de4bd0c57a451f740",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_written_outputs_pinned_on_shipped_fixtures(name, tmp_path, capsys):
    argv, digest = PINNED_OUTPUTS[name]
    out = tmp_path / "out"
    assert run([*argv, "-o", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_enumerate_output_pinned_on_shipped_fixture(capsys):
    assert run(["enumerate", FLEET, "--bench", "sil"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == (
        "3018b1ff82f03bc31fefdab2e32bcb13da56b84d95d82ef21a23344014bbaac8"
    )


def test_config_cap_env_var(monkeypatch, capsys):
    monkeypatch.setenv("BENCHLATTICE_CONFIG_CAP", "1")
    assert run(["enumerate", SIL, "--bench", "sil"]) == 1
    assert "cap" in capsys.readouterr().err
    # Counting stays available.
    assert run(["enumerate", SIL, "--bench", "sil", "--count-only"]) == 0


@pytest.mark.parametrize("value", ["abc", "0"])
def test_malformed_config_cap_exits_one(monkeypatch, capsys, value):
    monkeypatch.setenv("BENCHLATTICE_CONFIG_CAP", value)
    assert run(["enumerate", SIL, "--bench", "sil"]) == 1
    assert f"BENCHLATTICE_CONFIG_CAP={value!r}" in capsys.readouterr().err


@pytest.fixture()
def wide_registry(tmp_path):
    """A bench with a 24-element combinable movable-objects leaf: 2^24 - 1
    configurations, far past the default enumeration cap. Everything is
    real except the movable objects after the first."""
    bench = uniform_bench(
        "wide",
        Stage.REAL,
        skip_dimensions=("movable-objects",),
        extra_elements=[
            make_element(f"m{i}", "movable-objects", Stage.REAL if i == 0 else Stage.SIMULATED)
            for i in range(24)
        ],
    )
    path = tmp_path / "wide.bench.json"
    save_registry([bench], path)
    return str(path)


# Index -> (movable-objects selection, method). Subsets run (m0), (m0, m1),
# (m0, m1, m2), ..., so the last is the singleton of the last element.
WIDE_CASES = {
    0: (["m0"], "test-vehicle"),
    1: (["m0", "m1"], "vehicle-in-the-loop"),
    2**24 - 2: (["m23"], "vehicle-in-the-loop"),
}


@pytest.mark.parametrize("index", sorted(WIDE_CASES))
def test_lookup_past_the_cap(wide_registry, tmp_path, capsys, index):
    movable, method = WIDE_CASES[index]
    argv = ["--bench", "wide", "--config", str(index)]
    assert run(["classify", wide_registry, *argv]) == 0
    assert capsys.readouterr().out.strip() == method

    out = tmp_path / "wide.svg"
    assert run(["chart", wide_registry, *argv, "-o", str(out)]) == 0
    root = ET.fromstring(out.read_text())
    selected = {
        circle.get("id")[len("dot-"):]
        for circle in root.iter("{http://www.w3.org/2000/svg}circle")
        if "selected" in (circle.get("class") or "")
    }
    assert {eid for eid in selected if eid.startswith("m")} == set(movable)
    assert len(selected) == 9 + len(movable)


@pytest.mark.parametrize("index", [2**24 - 1, -1])
def test_lookup_out_of_range_past_the_cap(wide_registry, tmp_path, capsys, index):
    argv = ["--bench", "wide", "--config", str(index)]
    assert run(["classify", wide_registry, *argv]) == 1
    assert f"has {2**24 - 1} configurations" in capsys.readouterr().err
    assert run(["chart", wide_registry, *argv, "-o", str(tmp_path / "x.svg")]) == 1
    assert f"has {2**24 - 1} configurations" in capsys.readouterr().err


def test_assign_past_the_cap(wide_registry, tmp_path, capsys):
    suite_path = tmp_path / "wide.suite.json"
    cases = (make_test_case("long"), make_test_case("short", duration=60.0))
    save_suite(LoadedSuite(test_cases=cases, overrides={}), suite_path)
    out = tmp_path / "plan.json"
    assert run(["assign", wide_registry, str(suite_path), "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert "cap" not in captured.err
    # Every singleton costs the same, so each case takes configuration 0.
    bench = load_registry(wide_registry)[0]
    config = ConfigurationSpace(bench).at(0)
    payload = json.loads(out.read_text())
    for tc in cases:
        entry = payload["assignments"][tc.id]
        assert (entry["config_index"], entry["method"]) == (0, "test-vehicle")
        assert entry["monetary_cost"] == float(estimate_cost(config, bench, tc).monetary_cost)
    # Each case has one frontier point, so the exact plan is the greedy's.
    exact = tmp_path / "exact.json"
    assert run(["assign", wide_registry, str(suite_path), "--exact", "-o", str(exact)]) == 0
    assert exact.read_bytes() == out.read_bytes()


def test_assign_ignores_the_cap(monkeypatch, tmp_path):
    monkeypatch.setenv("BENCHLATTICE_CONFIG_CAP", "1")
    suite = load_suite(SUITE)
    benches = load_registry(FLEET)
    out, expected = tmp_path / "plan.json", tmp_path / "expected.json"
    for flags, budget in (([], None), (["--budget", BUDGET], load_budget(BUDGET))):
        assert run(["assign", FLEET, SUITE, *flags, "-o", str(out)]) in (0, 1)
        save_plan(reference_greedy(suite.test_cases, benches, budget, suite.overrides), expected)
        assert out.read_bytes() == expected.read_bytes()


def _drop_scenery(bench):
    bench["elements"] = [e for e in bench["elements"] if e["dimension"] != "scenery"]


def _unknown_stage(bench):
    bench["elements"][3]["stage"] = "virtual"


def _duplicate_element(bench):
    bench["elements"][5]["id"] = bench["elements"][2]["id"]


def _substantiate_scenery(bench):
    bench["substantiations"] = {"scenery": ["Road", "Track"]}


def _substantiate_test_object(bench):
    bench["substantiations"] = {"test-object": ["Planner"]}
    for element in bench["elements"]:
        if element["dimension"] == "test-object":
            element["dimension"] = "planner"


# The second bench of the fleet broken (or made to warn) one way each, and
# the error every lookup on the first bench then reports; None for a bench
# that only warns.
_OTHER_BENCH_FINDINGS = [
    (
        _drop_scenery,
        "test-vehicle: leaf dimension 'scenery' of bench 'test-vehicle' holds no element",
    ),
    (
        _unknown_stage,
        "benches[1].elements[3].stage: expected one of ['simulated', 'emulated', 'real'], "
        "got 'virtual'",
    ),
    (
        _duplicate_element,
        "test-vehicle: duplicate element id 'series-vehicle-dynamics' in bench 'test-vehicle'",
    ),
    (
        _substantiate_scenery,
        "test-vehicle: element 'proving-ground' sits on substantiated dimension 'scenery'",
    ),
    (_substantiate_test_object, None),
]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--bench", "sil", "--config", "0"],
        ["chart", "--bench", "sil", "--config", "0", "-o", "sil.svg"],
        ["enumerate", "--bench", "sil", "--count-only"],
    ],
    ids=["classify", "chart", "enumerate"],
)
def test_commands_on_one_bench_reject_a_registry_with_another_invalid_bench(
    tmp_path, capsys, argv
):
    # A registry is accepted or rejected as a whole: a lookup builds only the
    # bench it names, but every other bench is checked as fully, its warning
    # included.
    doc = json.loads(Path(FLEET).read_text())
    assert (doc["benches"][0]["id"], doc["benches"][1]["id"]) == ("sil", "test-vehicle")
    shipped = [argv[0], FLEET, *argv[1:]]
    if "-o" in shipped:
        shipped[-1] = str(tmp_path / "shipped.svg")
    assert run(shipped) == 0
    shipped_out = capsys.readouterr().out.replace("shipped.svg", argv[-1])
    for mutate, finding in _OTHER_BENCH_FINDINGS:
        broken = json.loads(json.dumps(doc))
        mutate(broken["benches"][1])
        registry = tmp_path / "broken.bench.json"
        registry.write_text(json.dumps(broken))
        lookup = [argv[0], str(registry), *argv[1:]]
        if "-o" in lookup:
            lookup[-1] = str(tmp_path / argv[-1])
        code = run(lookup)
        captured = capsys.readouterr()
        if finding is None:
            assert (code, captured.out) == (0, shipped_out), mutate.__name__
            assert captured.err == (
                "warning: bench 'test-vehicle' substantiates the test-object dimension\n"
            )
            if "-o" in lookup:
                chart = tmp_path / argv[-1]
                assert chart.read_bytes() == (tmp_path / "shipped.svg").read_bytes()
                chart.unlink()
        else:
            assert (code, captured.out, captured.err) == (1, "", f"error: {finding}\n")
            assert not (tmp_path / "sil.svg").exists()


def test_validate_warns_on_test_object_substantiation(tmp_path, capsys):
    registry = {
        "format_version": "1",
        "benches": [
            {
                "id": "odd",
                "display_name": "odd",
                "substantiations": {"test-object": ["planner", "controller"]},
                "combinable": {},
                "elements": [
                    {
                        "id": f"{d}-el",
                        "dimension": d,
                        "stage": "simulated",
                        "validated_for": [],
                        "cost_rate": 0.0,
                        "time_factor": 1.0,
                        "setup_cost": 0.0,
                    }
                    for d in (
                        "planner",
                        "controller",
                        "driver-user-behavior",
                        "vehicle-dynamics",
                        "environment-sensor-system",
                        "scenery",
                        "movable-objects",
                        "environmental-conditions",
                        "localization-sensor-system",
                        "v2x-communication",
                        "residual-vehicle",
                    )
                ],
            }
        ],
    }
    path = tmp_path / "odd.bench.json"
    path.write_text(json.dumps(registry))
    assert run(["validate", str(path)]) == 0
    captured = capsys.readouterr()
    assert "warning:" in captured.err
    assert "test-object" in captured.err


@pytest.mark.parametrize(
    "kind, value, location",
    [
        ("registry", float("nan"), "benches[0].elements[0].cost_rate"),
        ("registry", 10**400, "benches[0].elements[0].cost_rate"),
        ("suite", float("inf"), "test_cases[0].scenario.nominal_duration"),
        ("budget", float("inf"), "max_bench_time.sil"),
    ],
    ids=["registry-nan", "registry-huge-integer", "suite-inf", "budget-inf"],
)
def test_non_finite_numbers_rejected(tmp_path, capsys, kind, value, location):
    paths = {"registry": SIL, "suite": SUITE, "budget": BUDGET}
    doc = json.loads(Path(paths[kind]).read_text())
    if kind == "registry":
        doc["benches"][0]["elements"][0]["cost_rate"] = value
    elif kind == "suite":
        doc["test_cases"][0]["scenario"]["nominal_duration"] = value
    else:
        doc["max_bench_time"]["sil"] = value
    paths[kind] = str(tmp_path / f"bad.{kind}.json")
    Path(paths[kind]).write_text(json.dumps(doc))  # NaN / Infinity / a 401-digit integer
    out = tmp_path / "plan.json"
    argv = ["assign", paths["registry"], paths["suite"], "--budget", paths["budget"]]
    assert run([*argv, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{location}: must be a finite number" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_integer_past_the_digit_limit_is_a_syntax_error(tmp_path, capsys):
    # json.loads refuses integers of more than 4,300 digits with a plain
    # ValueError rather than a JSONDecodeError.
    path = tmp_path / "huge.bench.json"
    text = Path(SIL).read_text()
    doc = json.loads(text)
    old = json.dumps(doc["benches"][0]["elements"][0]["cost_rate"])
    key = '"cost_rate": ' + old
    assert key in text
    path.write_text(text.replace(key, '"cost_rate": ' + "7" * 5000, 1))
    assert run(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: unreadable number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["registry", "suite", "budget"])
def test_document_that_is_not_utf8_is_a_syntax_error(tmp_path, capsys, kind):
    paths = {"registry": SIL, "suite": SUITE, "budget": BUDGET}
    text = Path(paths[kind]).read_text(encoding="utf-8")
    paths[kind] = str(tmp_path / f"utf16.{kind}.json")
    # UTF-16 with its byte-order mark, so the file starts with ff fe.
    Path(paths[kind]).write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
    out = tmp_path / "plan.json"
    argv = ["assign", paths["registry"], paths["suite"], "--budget", paths["budget"]]
    assert run([*argv, "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {paths[kind]}: not UTF-8 text: ")
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_assign_refuses_a_movable_object_without_type(tmp_path, capsys):
    doc = json.loads(Path(SUITE).read_text(encoding="utf-8"))
    del doc["test_cases"][0]["scenario"]["movable_objects"][0]["type"]
    suite_path = tmp_path / "untyped.suite.json"
    suite_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "plan.json"
    assert run(["assign", FLEET, str(suite_path), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: test_cases[0].scenario.movable_objects[0].type: required field missing\n"
    )
    assert not out.exists()


def test_deeply_nested_document_is_a_syntax_error(tmp_path, capsys):
    path = tmp_path / "deep.bench.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: arrays or objects nested too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["assign", "chart"])
def test_output_in_a_missing_directory_names_the_path_as_given(tmp_path, capsys, command):
    out = str(tmp_path / "missing" / "p.json")
    argv = {
        "assign": ["assign", FLEET, SUITE, "-o", out],
        "chart": ["chart", SIL, "--bench", "sil", "-o", out],
    }[command]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: {out!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["assign", "chart"])
def test_output_that_is_a_directory_names_the_path_as_given(tmp_path, capsys, command):
    # The temp file is written, but renaming it over a directory fails.
    out = tmp_path / "adir" / "p.json"
    out.mkdir(parents=True)
    argv = {
        "assign": ["assign", FLEET, SUITE, "-o", str(out)],
        "chart": ["chart", SIL, "--bench", "sil", "-o", str(out)],
    }[command]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: {str(out)!r}\n"
    assert sorted(p.name for p in out.parent.iterdir()) == ["p.json"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    ("key", "shown"), [("benches", "'sil\\n'"), ("test_cases", "'cut-in-rain\\n'")]
)
def test_identifier_with_a_trailing_newline_is_refused(tmp_path, capsys, key, shown):
    # In a pattern "$" also matches before a final newline; an id must not.
    source = SIL if key == "benches" else SUITE
    doc = json.loads(Path(source).read_text(encoding="utf-8"))
    doc[key][0]["id"] += "\n"
    path = tmp_path / "newline.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "plan.json"
    argv = (
        ["validate", str(path)] if key == "benches"
        else ["assign", SIL, str(path), "-o", str(out)]
    )
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key}[0].id: {shown} is not a valid identifier\n"
    assert not out.exists()


def test_exact_refuses_an_unknown_budget_bench_before_its_size_guard(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(assignment, "EXACT_MAX_LABELS", 1)
    budget_path = tmp_path / "typo.budget.json"
    save_budget(CapacityBudget({"sil": 1e6, "sill": 10.0}), budget_path)
    out = tmp_path / "plan.json"
    argv = ["assign", SIL, SUITE, "--budget", str(budget_path), "--exact", "-o", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        "error: max_bench_time.sill: unknown bench (available: sil)\n"
    )
    assert not out.exists()
