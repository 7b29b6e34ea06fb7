from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from benchlattice.errors import (
    BenchlatticeError,
    ContradictoryOverride,
    MissingLayer,
    NoEvaluationCriteria,
    NonPositiveDuration,
    TestCaseError,
)
from benchlattice.registry import case_from_raw
from benchlattice.taxonomy import CANONICAL_DIMENSION_IDS, Stage
from benchlattice.testcase import (
    ALWAYS_REQUIRED_DIMENSIONS,
    CONDITIONAL_SENSOR_DIMENSIONS,
    EvaluationCriterion,
    ObjectDescriptor,
    derive_requirement_profile,
    validate_test_case,
)
from helpers import make_test_case

ALL_STAGES = frozenset(Stage)


def raw_case(**kwargs):
    raw = {
        "id": "cut-in",
        "purpose": "safety-validation",
        "scenario": {
            "road_level": "two-lane road",
            "traffic_infrastructure": "",
            "temporary_manipulation": "",
            "movable_objects": [{"type": "car", "count": 2}],
            "environment_conditions": ["rain"],
            "nominal_duration": 60.0,
        },
        "evaluation_criteria": [{"name": "min-ttc", "threshold": ">= 1.0 s"}],
    }
    raw.update(kwargs)
    return raw


def test_valid_cut_in_case():
    tc = case_from_raw(raw_case())
    assert tc.id == "cut-in"
    assert tc.scenario.nominal_duration == 60.0
    assert len(tc.scenario.movable_objects) == 1
    assert tc.scenario.movable_objects[0].count == 2
    assert tc.evaluation_criteria[0].name == "min-ttc"
    assert validate_test_case(tc) == tc


def test_no_evaluation_criteria_rejected():
    with pytest.raises(NoEvaluationCriteria):
        case_from_raw(raw_case(evaluation_criteria=[]))


def test_non_positive_duration_rejected():
    raw = raw_case()
    raw["scenario"]["nominal_duration"] = 0.0
    with pytest.raises(NonPositiveDuration):
        case_from_raw(raw)


@pytest.mark.parametrize("duration", [float("inf"), float("-inf")])
def test_infinite_duration_rejected(duration):
    with pytest.raises(TestCaseError, match="'cut-in': nominal_duration must be finite"):
        validate_test_case(make_test_case(duration=duration))


def test_missing_layer_rejected():
    raw = raw_case()
    del raw["scenario"]["environment_conditions"]
    with pytest.raises(MissingLayer):
        case_from_raw(raw)


def test_blank_road_level_rejected():
    raw = raw_case()
    raw["scenario"]["road_level"] = "  "
    with pytest.raises(MissingLayer):
        case_from_raw(raw)


@pytest.mark.parametrize("purpose", ["", " \t "])
def test_blank_purpose_rejected(purpose):
    with pytest.raises(TestCaseError) as caught:
        validate_test_case(make_test_case(purpose=purpose))
    assert str(caught.value) == "test case 'cut-in': purpose must not be blank"
    # A suite fragment without a purpose loads it as blank.
    raw = raw_case()
    del raw["purpose"]
    with pytest.raises(TestCaseError, match="^test case 'cut-in': purpose must not be blank$"):
        case_from_raw(raw)


def test_case_without_scenario_rejected():
    raw = raw_case()
    del raw["scenario"]
    with pytest.raises(MissingLayer) as caught:
        case_from_raw(raw)
    assert str(caught.value) == "test case 'cut-in' has no scenario"


def test_default_profile_requirements():
    profile = derive_requirement_profile(case_from_raw(raw_case()))
    required = {dim for dim, entry in profile.entries.items() if entry.required}
    assert required == ALWAYS_REQUIRED_DIMENSIONS | {
        "scenery",
        "movable-objects",
        "environmental-conditions",
    }
    assert all(
        entry.admissible_stages == ALL_STAGES for entry in profile.entries.values()
    )
    assert profile.purpose == "safety-validation"
    assert profile.nominal_duration == 60.0
    assert set(profile.entries) == set(CANONICAL_DIMENSION_IDS)


def test_always_required_set_is_exactly_four():
    assert ALWAYS_REQUIRED_DIMENSIONS == {
        "test-object",
        "vehicle-dynamics",
        "driver-user-behavior",
        "residual-vehicle",
    }
    # A scenario with empty optional layers drops the layer-bound dimensions.
    tc = make_test_case("minimal", movable=0, conditions=())
    profile = derive_requirement_profile(tc)
    required = {dim for dim, entry in profile.entries.items() if entry.required}
    assert required == ALWAYS_REQUIRED_DIMENSIONS | {"scenery"}


def test_sensor_dimensions_required_via_criteria():
    tc = make_test_case(
        "v2x",
        criteria=(
            EvaluationCriterion(name="v2x-communication latency", threshold="<= 100 ms"),
            EvaluationCriterion(name="pose error", threshold="localization sensor system drift <= 0.1 m"),
        ),
    )
    profile = derive_requirement_profile(tc)
    assert profile.entries["v2x-communication"].required
    assert profile.entries["localization-sensor-system"].required
    assert not profile.entries["environment-sensor-system"].required


def test_criterion_threshold_defaults_to_empty_text():
    tc = case_from_raw(raw_case(evaluation_criteria=[{"name": "min-ttc"}]))
    assert tc.evaluation_criteria == (EvaluationCriterion(name="min-ttc", threshold=""),)


@pytest.mark.parametrize(
    "object_type, count",
    [("car", 0), ("car", -3), ("car", 1.5), ("car", True), ("car", "2"), ("", 1), ("  ", 1),
     (None, 1)],
)
def test_object_descriptor_refuses_bad_counts_and_types(object_type, count):
    with pytest.raises(TestCaseError, match="movable object"):
        ObjectDescriptor(object_type, count)


def test_sensor_dimension_required_via_override():
    tc = make_test_case()
    profile = derive_requirement_profile(
        tc, {"environment-sensor-system": {Stage.REAL}}
    )
    entry = profile.entries["environment-sensor-system"]
    assert entry.required
    assert entry.admissible_stages == frozenset({Stage.REAL})
    # Other entries stay untouched.
    assert profile.entries["scenery"].admissible_stages == ALL_STAGES


def test_sub_dimension_override_creates_required_entry():
    profile = derive_requirement_profile(
        make_test_case(), {"radar": {Stage.REAL, Stage.EMULATED}}
    )
    assert profile.entries["radar"].required
    assert profile.entries["radar"].admissible_stages == frozenset(
        {Stage.REAL, Stage.EMULATED}
    )
    assert profile.governing("radar", "environment-sensor-system") is profile.entries["radar"]
    assert (
        profile.governing("camera", "environment-sensor-system")
        is profile.entries["environment-sensor-system"]
    )


def test_contradictory_override_rejected():
    with pytest.raises(ContradictoryOverride):
        derive_requirement_profile(make_test_case(), {"test-object": set()})


def test_unknown_override_stage_rejected():
    with pytest.raises(BenchlatticeError, match="'virtual'"):
        derive_requirement_profile(make_test_case(), {"scenery": ["virtual"]})


def test_empty_override_on_optional_dimension_allowed():
    tc = make_test_case("no-movables", movable=0)
    profile = derive_requirement_profile(tc, {"movable-objects": set()})
    entry = profile.entries["movable-objects"]
    assert not entry.required
    assert entry.admissible_stages == frozenset()


_stage_sets = st.frozensets(st.sampled_from(list(Stage)), min_size=1)


@given(
    base=st.dictionaries(st.sampled_from(list(CANONICAL_DIMENSION_IDS)), _stage_sets),
    extra_dim=st.sampled_from(list(CANONICAL_DIMENSION_IDS)),
    extra_set=_stage_sets,
)
def test_profile_monotone_in_overrides(base, extra_dim, extra_set):
    tc = make_test_case()
    before = derive_requirement_profile(tc, base)
    tightened = dict(base)
    tightened[extra_dim] = base.get(extra_dim, frozenset(Stage)) & extra_set
    # Intersecting may empty a required dimension's set; that path raises
    # instead of producing a profile, which also never enlarges anything.
    if not tightened[extra_dim] and (
        extra_dim in ALWAYS_REQUIRED_DIMENSIONS
        or extra_dim in CONDITIONAL_SENSOR_DIMENSIONS
        or before.entries[extra_dim].required
    ):
        with pytest.raises(ContradictoryOverride):
            derive_requirement_profile(tc, tightened)
        return
    after = derive_requirement_profile(tc, tightened)
    for dim, entry in after.entries.items():
        assert entry.admissible_stages <= before.entries[dim].admissible_stages


def test_derivation_deterministic():
    tc = make_test_case()
    overrides = {"scenery": {Stage.SIMULATED}}
    assert derive_requirement_profile(tc, overrides) == derive_requirement_profile(
        tc, overrides
    )
