"""Test bench classification, configuration enumeration and test case
assignment for automated-vehicle validation campaigns.

``import benchlattice`` loads no submodule: each public name below is
imported from its module on first access (PEP 562), so a caller that only
loads documents does not pay for the solvers or the chart.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "AdmissibilityReport": "assignment",
    "Assignment": "assignment",
    "AssignmentPlan": "assignment",
    "CostEstimate": "assignment",
    "ReasonCode": "assignment",
    "UnassignableCase": "assignment",
    "Violation": "assignment",
    "assign_exact": "assignment",
    "assign_greedy": "assignment",
    "check_admissibility": "assignment",
    "estimate_cost": "assignment",
    "ChartStyle": "chart",
    "render_bench_chart": "chart",
    "render_configuration_chart": "chart",
    "ConfigurationSpace": "configuration",
    "TestBenchConfiguration": "configuration",
    "TestMethodName": "configuration",
    "classify_test_method": "configuration",
    "count_configurations": "configuration",
    "enumerate_configurations": "configuration",
    "iter_configurations": "configuration",
    "replace": "frozen",
    "LoadedSuite": "registry",
    "bench_from_raw": "registry",
    "case_from_raw": "registry",
    "load_budget": "registry",
    "load_registry": "registry",
    "load_suite": "registry",
    "save_plan": "registry",
    "save_registry": "registry",
    "save_suite": "registry",
    "CANONICAL_DIMENSION_IDS": "taxonomy",
    "CapacityBudget": "taxonomy",
    "Characteristics": "taxonomy",
    "DimensionKind": "taxonomy",
    "DimensionNode": "taxonomy",
    "Element": "taxonomy",
    "Stage": "taxonomy",
    "TestBench": "taxonomy",
    "leaf_dimensions": "taxonomy",
    "new_bench": "taxonomy",
    "substantiate_dimension": "taxonomy",
    "validate_bench": "taxonomy",
    "with_elements": "taxonomy",
    "EvaluationCriterion": "testcase",
    "ObjectDescriptor": "testcase",
    "RequirementProfile": "testcase",
    "ScenarioLayers": "testcase",
    "TestCase": "testcase",
    "derive_requirement_profile": "testcase",
    "validate_test_case": "testcase",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
