"""The public value types: immutable, copyable, picklable, and equal, hashed
and printed as the frozen dataclasses they replaced were."""

from __future__ import annotations

import copy
import enum
import pickle
from fractions import Fraction

import pytest

import benchlattice
from benchlattice import (
    AdmissibilityReport,
    Assignment,
    AssignmentPlan,
    CapacityBudget,
    Characteristics,
    ChartStyle,
    ConfigurationSpace,
    CostEstimate,
    DimensionKind,
    DimensionNode,
    Element,
    EvaluationCriterion,
    LoadedSuite,
    ObjectDescriptor,
    ReasonCode,
    RequirementProfile,
    ScenarioLayers,
    Stage,
    TestBench,
    TestBenchConfiguration,
    TestCase,
    TestMethodName,
    UnassignableCase,
    Violation,
    replace,
)
from benchlattice.errors import TaxonomyError, TestCaseError
from benchlattice.frozen import Frozen
from benchlattice.testcase import DimensionRequirement


def _characteristics() -> Characteristics:
    return Characteristics(frozenset({"x"}), 2.5, 1.0, 0.0, {"k": 1})


def _element() -> Element:
    return Element("e1", "E one", "scenery", Stage.REAL, _characteristics())


def _test_case() -> TestCase:
    scenario = ScenarioLayers(
        "highway", movable_objects=(ObjectDescriptor("car", 2),), environment_conditions=("rain",)
    )
    return TestCase("tc-1", scenario, (EvaluationCriterion("ttc", ">1s"),), "acc")


def _configuration() -> TestBenchConfiguration:
    return TestBenchConfiguration("sil", {"scenery": ("e1",)})


def _assignment() -> Assignment:
    cost = CostEstimate(Fraction(7, 2), Fraction(1, 3))
    return Assignment("sil", 0, _configuration(), cost, TestMethodName.SOFTWARE_IN_THE_LOOP)


def _report() -> AdmissibilityReport:
    return AdmissibilityReport(False, (Violation("scenery", ReasonCode.MISSING_DIMENSION),))


# One value of every public value type, built anew on each call.
SAMPLES = {
    AdmissibilityReport: _report,
    Assignment: _assignment,
    AssignmentPlan: lambda: AssignmentPlan(
        {"tc-1": _assignment()},
        (UnassignableCase("tc-2", "no-admissible-configuration", {"sil": _report()}),),
        Fraction(1, 3),
        {"sil": Fraction(7, 2)},
    ),
    CapacityBudget: lambda: CapacityBudget({"sil": 30.0}),
    Characteristics: _characteristics,
    ChartStyle: ChartStyle,
    CostEstimate: lambda: CostEstimate(Fraction(7, 2), Fraction(1, 3)),
    DimensionNode: lambda: DimensionNode(
        "radar", "Radar", DimensionKind.SUB_DIMENSION, parent="environment-sensor-system"
    ),
    DimensionRequirement: lambda: DimensionRequirement(frozenset({Stage.REAL}), True),
    Element: _element,
    EvaluationCriterion: lambda: EvaluationCriterion("ttc", ">1s"),
    LoadedSuite: lambda: LoadedSuite((_test_case(),), {"tc-1": {"scenery": (Stage.REAL,)}}),
    ObjectDescriptor: lambda: ObjectDescriptor("car", 2),
    RequirementProfile: lambda: RequirementProfile(
        {"scenery": DimensionRequirement(frozenset(Stage), True)}, "acc", 60.0
    ),
    ScenarioLayers: lambda: _test_case().scenario,
    TestBench: lambda: TestBench(
        "sil", "SIL", (DimensionNode("scenery", "Scenery", DimensionKind.CANONICAL),),
        (_element(),),
    ),
    TestBenchConfiguration: _configuration,
    TestCase: _test_case,
    UnassignableCase: lambda: UnassignableCase(
        "tc-2", "bench-time-exhausted", {"sil": AdmissibilityReport(True, ())}
    ),
    Violation: lambda: Violation("scenery", ReasonCode.MISSING_DIMENSION),
}


def _public_value_types() -> set[type]:
    found = {getattr(benchlattice, name) for name in benchlattice.__all__}
    return {
        cls for cls in found
        if isinstance(cls, type) and not issubclass(cls, enum.Enum)
        and cls is not ConfigurationSpace
    }


def test_every_public_value_type_has_a_sample():
    assert _public_value_types() | {DimensionRequirement} == SAMPLES.keys()
    assert all(issubclass(cls, Frozen) for cls in SAMPLES)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = SAMPLES[cls]()
    assert not hasattr(value, "__dict__")
    for name in cls.__slots__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert value == SAMPLES[cls]()


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_copies_and_pickles_are_equal(cls):
    value = SAMPLES[cls]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value
        assert repr(twin) == repr(value)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_replace_builds_a_new_value(cls):
    value = SAMPLES[cls]()
    twin = replace(value)
    assert type(twin) is cls
    assert twin == value
    assert twin is not value
    with pytest.raises(TypeError):
        replace(value, no_such_field=1)


def test_replace_changes_only_the_named_fields():
    node = SAMPLES[DimensionNode]()
    changed = replace(node, combinable=True)
    assert changed.combinable is True
    assert changed != node
    assert replace(changed, combinable=False) == node


@pytest.mark.skipif(not hasattr(copy, "replace"), reason="copy.replace needs Python 3.13")
def test_copy_replace_runs_the_constructor():
    node = SAMPLES[DimensionNode]()
    assert copy.replace(node, combinable=True) == replace(node, combinable=True)
    with pytest.raises(TaxonomyError):
        copy.replace(node, parent=None)


@pytest.mark.parametrize(
    ("value", "changes", "error"),
    [
        (Characteristics(), {"cost_rate": -1}, TaxonomyError),
        (Characteristics(), {"time_factor": 0}, TaxonomyError),
        (SAMPLES[DimensionNode](), {"parent": None}, TaxonomyError),
        (ObjectDescriptor("car"), {"count": 0}, TestCaseError),
        (ObjectDescriptor("car"), {"type": " "}, TestCaseError),
        (SAMPLES[CostEstimate](), {"execution_time": 0}, ValueError),
        (SAMPLES[CapacityBudget](), {"max_bench_time": {"sil": -1.0}}, ValueError),
        (SAMPLES[AdmissibilityReport](), {"admissible": True}, ValueError),
        (ChartStyle(), {"offset_step": 0.0}, ValueError),
        (ChartStyle(), {"stage_radii": {1: 0.5, 2: 0.4, 3: 0.9}}, ValueError),
    ],
)
def test_replace_runs_the_checks_again(value, changes, error):
    with pytest.raises(error):
        replace(value, **changes)


def test_replace_normalises_as_the_constructor_does():
    changed = replace(Characteristics(), validated_for=["a", "a"], extra={"k": [1]})
    assert changed.validated_for == frozenset({"a"})
    assert changed.extra == {"k": [1]}
    assert type(changed.extra) is dict


@pytest.mark.parametrize(
    "cls", [TestCase, CostEstimate, Violation, DimensionNode], ids=lambda cls: cls.__name__
)
def test_equal_values_hash_equal(cls):
    first, second = SAMPLES[cls](), SAMPLES[cls]()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize(
    "cls", [Characteristics, Element, TestBench, ChartStyle, CapacityBudget],
    ids=lambda cls: cls.__name__,
)
def test_values_with_a_dict_field_do_not_hash(cls):
    with pytest.raises(TypeError, match="unhashable"):
        hash(SAMPLES[cls]())


def test_characteristics_copy_their_inputs():
    extra = {"k": 1}
    characteristics = Characteristics(["a"], extra=extra)
    extra["k"] = 2
    assert characteristics.extra == {"k": 1}
    assert Characteristics().extra == {}
    assert Characteristics().extra is not Characteristics().extra


def test_mutable_defaults_are_not_shared():
    assert CapacityBudget().max_bench_time is not CapacityBudget().max_bench_time
    assert ChartStyle().stage_radii is not ChartStyle().stage_radii


# The reprs the frozen dataclasses gave these values, recorded before the
# types became slotted classes.
DATACLASS_REPRS = {
    Violation: (
        "Violation(dimension='scenery', "
        "reason=<ReasonCode.MISSING_DIMENSION: 'MISSING_DIMENSION'>)"
    ),
    DimensionNode: (
        "DimensionNode(id='radar', display_name='Radar', "
        "kind=<DimensionKind.SUB_DIMENSION: 'sub-dimension'>, "
        "parent='environment-sensor-system', combinable=False)"
    ),
    CostEstimate: "CostEstimate(execution_time=Fraction(7, 2), monetary_cost=Fraction(1, 3))",
    Element: (
        "Element(id='e1', display_name='E one', dimension='scenery', "
        "stage=<Stage.REAL: 'real'>, characteristics=Characteristics("
        "validated_for=frozenset({'x'}), cost_rate=2.5, time_factor=1.0, setup_cost=0.0, "
        "extra={'k': 1}))"
    ),
    TestCase: (
        "TestCase(id='tc-1', scenario=ScenarioLayers(road_level='highway', "
        "traffic_infrastructure='', temporary_manipulation='', "
        "movable_objects=(ObjectDescriptor(type='car', count=2),), "
        "environment_conditions=('rain',), nominal_duration=60.0), "
        "evaluation_criteria=(EvaluationCriterion(name='ttc', threshold='>1s'),), "
        "purpose='acc')"
    ),
    ChartStyle: (
        "ChartStyle(size=520, stage_radii={1: 0.32, 2: 0.55, 3: 0.78}, dot_color='blue', "
        "dot_radius=4.0, line_color='orange', line_width=2.0, offset_step=4.0, "
        "label_radius=0.88, show_unselected=False)"
    ),
}


@pytest.mark.parametrize("cls", DATACLASS_REPRS, ids=lambda cls: cls.__name__)
def test_repr_matches_the_dataclass_repr(cls):
    assert repr(SAMPLES[cls]()) == DATACLASS_REPRS[cls]


def test_repr_of_a_value_inside_itself_does_not_recurse():
    characteristics = Characteristics()
    characteristics.extra["self"] = characteristics
    assert repr(characteristics).endswith("extra={'self': ...})")


def test_values_of_different_types_never_compare_equal():
    pairs = [
        (EvaluationCriterion("scenery", "x"), Violation("scenery", "x")),
        (TestBenchConfiguration("sil", {}), LoadedSuite("sil", {})),
    ]
    for first, second in pairs:
        assert first._values == second._values
        assert first != second
        assert second != first
        assert not first == second
    assert Violation("scenery", "x") != ("scenery", "x")
    assert Violation("scenery", "x").__eq__(("scenery", "x")) is NotImplemented


def test_values_match_by_field_position():
    match SAMPLES[Violation]():
        case Violation(dimension, reason):
            assert (dimension, reason) == ("scenery", ReasonCode.MISSING_DIMENSION)
        case _:
            pytest.fail("a Violation did not match its own class pattern")
