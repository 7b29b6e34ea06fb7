"""The package namespace: every public name resolves lazily to its defining
module's object, and loading documents imports neither the solvers nor the
chart."""

from __future__ import annotations

import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import benchlattice
from benchlattice.data import fixture_path

# The public names as of the lazy namespace's introduction; adding or
# removing one is an API change, made here on purpose.
PUBLIC_NAMES = [
    "AdmissibilityReport", "Assignment", "AssignmentPlan", "CANONICAL_DIMENSION_IDS",
    "CapacityBudget", "Characteristics", "ChartStyle", "ConfigurationSpace", "CostEstimate",
    "DimensionKind", "DimensionNode", "Element", "EvaluationCriterion", "LoadedSuite",
    "ObjectDescriptor", "ReasonCode", "RequirementProfile", "ScenarioLayers", "Stage",
    "TestBench", "TestBenchConfiguration", "TestCase", "TestMethodName", "UnassignableCase",
    "Violation", "assign_exact", "assign_greedy", "bench_from_raw", "case_from_raw",
    "check_admissibility", "classify_test_method", "count_configurations",
    "derive_requirement_profile", "enumerate_configurations", "estimate_cost",
    "iter_configurations", "leaf_dimensions", "load_budget", "load_registry", "load_suite",
    "new_bench", "render_bench_chart", "render_configuration_chart", "replace", "save_plan",
    "save_registry", "save_suite", "substantiate_dimension", "validate_bench",
    "validate_test_case", "with_elements",
]


def test_public_names_are_pinned():
    assert benchlattice.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_is_its_defining_modules_object(name):
    module = importlib.import_module(f"benchlattice.{benchlattice._EXPORTS[name]}")
    value = getattr(module, name)
    assert getattr(benchlattice, name) is value
    assert getattr(value, "__module__", module.__name__) == module.__name__


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(benchlattice))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        benchlattice.no_such_name


def test_star_import_binds_every_public_name():
    namespace: dict[str, object] = {}
    exec("from benchlattice import *", namespace)
    assert {name: namespace[name] for name in PUBLIC_NAMES} == {
        name: getattr(benchlattice, name) for name in PUBLIC_NAMES
    }


def test_capacity_budget_is_one_type_under_both_paths():
    from benchlattice import assignment, taxonomy

    assert assignment.CapacityBudget is taxonomy.CapacityBudget is benchlattice.CapacityBudget
    budget = benchlattice.CapacityBudget({"sil": 30.0})
    twin = pickle.loads(pickle.dumps(budget))
    assert type(twin) is assignment.CapacityBudget
    assert twin == budget


def test_loading_documents_imports_no_solver_chart_or_rationals():
    paths = [str(fixture_path(name)) for name in (
        "fleet_bench.json", "demo_suite.suite.json", "demo.budget.json",
    )]
    script = f"""
import json, sys
import benchlattice
on_import = sorted(sys.modules)
from benchlattice.registry import load_budget, load_registry, load_suite
registry, suite, budget = {paths!r}
assert len(load_registry(registry)) == 2
assert load_suite(suite).test_cases
assert load_budget(budget).max_bench_time
print(json.dumps({{"import": on_import, "load": sorted(sys.modules)}}))
"""
    # -S keeps site-packages hooks out, so the module lists are the package's own.
    src = str(Path(benchlattice.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert [name for name in loaded["import"] if name.startswith("benchlattice.")] == []
    assert "benchlattice.registry" in loaded["load"]  # the check below sees real loads
    forbidden = {
        "benchlattice.assignment", "benchlattice.configuration", "benchlattice.chart",
        "benchlattice.cli", "fractions", "decimal",
    }
    assert sorted(forbidden & set(loaded["load"])) == []
