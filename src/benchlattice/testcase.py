"""Test cases and the per-dimension requirements derived from them.

A test case couples a scenario (structured into five layers: road level,
traffic infrastructure, temporary manipulations, movable objects,
environment conditions) with evaluation criteria and a purpose tag. From it
we derive a requirement profile: which dimensions a bench configuration must
cover and which stages are admissible per dimension. Stages form a nominal
scale, so requirements are expressed as admissible *sets*, never as
thresholds on an ordering.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Iterable, Mapping

from .errors import (
    ContradictoryOverride,
    MissingLayer,
    NoEvaluationCriteria,
    NonPositiveDuration,
    TestCaseError,
)
from .frozen import Frozen
from .taxonomy import CANONICAL_DIMENSION_IDS, Stage

__all__ = [
    "ObjectDescriptor",
    "EvaluationCriterion",
    "ScenarioLayers",
    "TestCase",
    "DimensionRequirement",
    "RequirementProfile",
    "ALWAYS_REQUIRED_DIMENSIONS",
    "CONDITIONAL_SENSOR_DIMENSIONS",
    "validate_test_case",
    "derive_requirement_profile",
]

ALL_STAGES = frozenset(Stage)

#: Required for every test case, whatever the scenario contains.
ALWAYS_REQUIRED_DIMENSIONS = frozenset(
    {"test-object", "vehicle-dynamics", "driver-user-behavior", "residual-vehicle"}
)

#: Required only when evaluation criteria or overrides reference them.
CONDITIONAL_SENSOR_DIMENSIONS = frozenset(
    {"environment-sensor-system", "localization-sensor-system", "v2x-communication"}
)


_set = object.__setattr__


class ObjectDescriptor(Frozen):
    __slots__ = ("type", "count")

    def __init__(self, type: str, count: int = 1) -> None:
        if not isinstance(type, str) or not type.strip():
            raise TestCaseError(
                f"movable object type must be a non-blank string, got {type!r}"
            )
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise TestCaseError(
                f"movable object {type!r}: count must be an int >= 1, got {count!r}"
            )
        _set(self, "type", type)
        _set(self, "count", count)


class EvaluationCriterion(Frozen):
    __slots__ = ("name", "threshold")

    def __init__(self, name: str, threshold: str) -> None:
        _set(self, "name", name)
        _set(self, "threshold", threshold)


class ScenarioLayers(Frozen):
    __slots__ = (
        "road_level", "traffic_infrastructure", "temporary_manipulation", "movable_objects",
        "environment_conditions", "nominal_duration",
    )

    def __init__(
        self, road_level: str, traffic_infrastructure: str = "",
        temporary_manipulation: str = "", movable_objects: tuple[ObjectDescriptor, ...] = (),
        environment_conditions: tuple[str, ...] = (), nominal_duration: float = 60.0,
    ) -> None:
        _set(self, "road_level", road_level)
        _set(self, "traffic_infrastructure", traffic_infrastructure)
        _set(self, "temporary_manipulation", temporary_manipulation)
        _set(self, "movable_objects", movable_objects)
        _set(self, "environment_conditions", environment_conditions)
        _set(self, "nominal_duration", nominal_duration)


class TestCase(Frozen):
    __slots__ = ("id", "scenario", "evaluation_criteria", "purpose")

    def __init__(
        self, id: str, scenario: ScenarioLayers,
        evaluation_criteria: tuple[EvaluationCriterion, ...], purpose: str,
    ) -> None:
        _set(self, "id", id)
        _set(self, "scenario", scenario)
        _set(self, "evaluation_criteria", evaluation_criteria)
        _set(self, "purpose", purpose)


class DimensionRequirement(Frozen):
    __slots__ = ("admissible_stages", "required")

    def __init__(self, admissible_stages: frozenset[Stage], required: bool) -> None:
        # Built in the stages' declared order, so that a copy or an unpickled
        # value, built here again, lays its set out and prints it alike.
        stages = frozenset(sorted(admissible_stages, key=attrgetter("bit")))
        _set(self, "admissible_stages", stages)
        _set(self, "required", required)


class RequirementProfile(Frozen):
    """Per-dimension admissibility requirements of one test case.

    Keys are canonical dimension ids, plus explicit sub-dimension ids when
    overrides name one; a bench leaf is governed by its own entry if present,
    else by its canonical parent's entry.
    """

    __slots__ = ("entries", "purpose", "nominal_duration")

    def __init__(
        self, entries: Mapping[str, DimensionRequirement], purpose: str,
        nominal_duration: float,
    ) -> None:
        _set(self, "entries", entries)
        _set(self, "purpose", purpose)
        _set(self, "nominal_duration", nominal_duration)

    def governing(self, leaf_id: str, canonical_id: str) -> DimensionRequirement | None:
        if leaf_id in self.entries:
            return self.entries[leaf_id]
        return self.entries.get(canonical_id)


def validate_test_case(tc: TestCase) -> TestCase:
    """Check a test case value against its invariants and return it. A
    suite fragment goes through :func:`benchlattice.registry.case_from_raw`
    instead, which reads it and then calls this."""
    if not tc.scenario.road_level.strip():
        raise MissingLayer(f"test case {tc.id!r}: road_level must not be blank")
    if not tc.evaluation_criteria:
        raise NoEvaluationCriteria(f"test case {tc.id!r} has no evaluation criteria")
    if math.isinf(tc.scenario.nominal_duration):
        raise TestCaseError(
            f"test case {tc.id!r}: nominal_duration must be finite, "
            f"got {tc.scenario.nominal_duration}"
        )
    if not (tc.scenario.nominal_duration > 0):
        raise NonPositiveDuration(
            f"test case {tc.id!r}: nominal_duration must be > 0, "
            f"got {tc.scenario.nominal_duration}"
        )
    if not tc.purpose.strip():
        raise TestCaseError(f"test case {tc.id!r}: purpose must not be blank")
    return tc


def _normalize(text: str) -> str:
    return "-".join(text.strip().lower().replace("_", " ").replace("-", " ").split())


#: Each conditional sensor dimension's id, normalised once as criterion
#: texts are.
_SENSOR_NEEDLES = {dim_id: _normalize(dim_id) for dim_id in CONDITIONAL_SENSOR_DIMENSIONS}

StageOverrides = Mapping[str, Iterable[Stage]]

#: Every canonical dimension in canonical order, True where always required.
_ALWAYS_REQUIRED = {
    dim_id: dim_id in ALWAYS_REQUIRED_DIMENSIONS for dim_id in CANONICAL_DIMENSION_IDS
}

# The entry of a dimension no override names, shared by every profile: the
# values are immutable.
_DEFAULT_REQUIREMENTS = {
    required: DimensionRequirement(ALL_STAGES, required) for required in (False, True)
}


def derive_requirement_profile(
    tc: TestCase, overrides: StageOverrides | None = None
) -> RequirementProfile:
    """Map a test case onto per-dimension requirements.

    Scenario layers obligate dimensions as follows: road level, traffic
    infrastructure and temporary manipulations require the scenery; the
    movable-objects layer requires movable objects; the conditions layer
    requires environmental conditions. Test object, vehicle dynamics,
    driver/user behavior and residual vehicle are always required. Sensor and
    communication dimensions are required only when evaluation criteria or
    overrides reference them. Admissible stages default to all three and are
    narrowed only by explicit overrides; an override that empties the set of
    a required dimension raises :class:`ContradictoryOverride`.
    """
    tc = validate_test_case(tc)
    override_sets: dict[str, frozenset[Stage]] = {
        dim: frozenset(s if isinstance(s, Stage) else Stage.from_name(s) for s in stages)
        for dim, stages in (overrides or {}).items()
    }

    scenario = tc.scenario
    # A criterion references a dimension when the dimension id occurs in its
    # name or threshold text (word separators normalised).
    texts = [_normalize(text) for c in tc.evaluation_criteria for text in (c.name, c.threshold)]
    # Whether each canonical dimension is required, in canonical order, each
    # from its one source: always, a scenario layer, or a sensor reference.
    required = _ALWAYS_REQUIRED.copy()
    required["scenery"] = any(
        layer.strip()
        for layer in (
            scenario.road_level, scenario.traffic_infrastructure, scenario.temporary_manipulation,
        )
    )
    required["movable-objects"] = bool(scenario.movable_objects)
    required["environmental-conditions"] = bool(scenario.environment_conditions)
    for dim_id, needle in _SENSOR_NEEDLES.items():
        required[dim_id] = dim_id in override_sets or any(needle in text for text in texts)

    entries: dict[str, DimensionRequirement] = {
        dim_id: _DEFAULT_REQUIREMENTS[flag] if dim_id not in override_sets
        else DimensionRequirement(override_sets[dim_id], flag)
        for dim_id, flag in required.items()
    }

    # Overrides naming a sub-dimension add an explicit, required entry.
    for dim_id in sorted(set(override_sets) - set(CANONICAL_DIMENSION_IDS)):
        entries[dim_id] = DimensionRequirement(
            admissible_stages=override_sets[dim_id], required=True
        )

    for dim_id, entry in entries.items():
        if entry.required and not entry.admissible_stages:
            raise ContradictoryOverride(
                f"override leaves no admissible stage for required dimension {dim_id!r}"
            )

    return RequirementProfile(
        entries=entries,
        purpose=tc.purpose,
        nominal_duration=scenario.nominal_duration,
    )
