"""Shared builders for tests: quick benches, random benches and random
solver instances."""

from __future__ import annotations

import itertools
import math
import random
import re
import warnings
from benchlattice import replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from benchlattice.assignment import (
    AdmissibilityReport,
    Assignment,
    AssignmentPlan,
    CapacityBudget,
    ReasonCode,
    UnassignableCase,
    Violation,
    check_admissibility,
    estimate_cost,
)
from benchlattice.configuration import (
    TestBenchConfiguration, TestMethodName, classify_test_method,
)
from benchlattice.errors import (
    BenchlatticeError,
    BenchValidationWarning,
    DuplicateId,
    ElementOnNonLeaf,
    EmptyLeaf,
    SchemaError,
    TaxonomyError,
    UnknownDimension,
    ValidationError,
)
from benchlattice.registry import FORMAT_VERSION, _load_json, bench_from_raw
from benchlattice.taxonomy import (
    CANONICAL_DIMENSION_IDS,
    Characteristics,
    DimensionKind,
    Element,
    Stage,
    TestBench,
    elements_by_dimension,
    leaf_dimensions,
    new_bench,
    substantiate_dimension,
    validate_bench,
    with_elements,
)
from benchlattice.testcase import (
    EvaluationCriterion,
    ObjectDescriptor,
    RequirementProfile,
    ScenarioLayers,
    StageOverrides,
    TestCase,
    derive_requirement_profile,
)

STAGES = (Stage.SIMULATED, Stage.EMULATED, Stage.REAL)


def make_element(
    eid: str,
    dimension: str,
    stage: Stage = Stage.SIMULATED,
    *,
    validated_for: Iterable[str] = ("safety-validation",),
    cost_rate: float = 5.0,
    time_factor: float = 0.25,
    setup_cost: float = 0.0,
) -> Element:
    return Element(
        id=eid,
        display_name=eid,
        dimension=dimension,
        stage=stage,
        characteristics=Characteristics(
            validated_for=frozenset(validated_for),
            cost_rate=cost_rate,
            time_factor=time_factor,
            setup_cost=setup_cost,
        ),
    )


def uniform_bench(
    bench_id: str = "bench",
    stage: Stage = Stage.SIMULATED,
    *,
    extra_elements: Iterable[Element] = (),
    combinable: Mapping[str, bool] | None = None,
    skip_dimensions: Iterable[str] = (),
    **characteristics,
) -> TestBench:
    """One element per canonical leaf at ``stage``, plus extras."""
    elements = [
        make_element(f"{dim}-el", dim, stage, **characteristics)
        for dim in CANONICAL_DIMENSION_IDS
        if dim not in set(skip_dimensions)
    ]
    bench = new_bench(bench_id, combinable_overrides=combinable)
    return validate_bench(with_elements(bench, elements + list(extra_elements)))


def make_test_case(
    case_id: str = "cut-in",
    *,
    duration: float = 360.0,
    purpose: str = "safety-validation",
    movable: int = 2,
    conditions: tuple[str, ...] = ("rain",),
    criteria: tuple[EvaluationCriterion, ...] = (
        EvaluationCriterion(name="min-ttc", threshold=">= 1.0 s"),
    ),
) -> TestCase:
    return TestCase(
        id=case_id,
        scenario=ScenarioLayers(
            road_level="two-lane road",
            traffic_infrastructure="",
            temporary_manipulation="",
            movable_objects=tuple(
                ObjectDescriptor(type="car", count=1) for _ in range(movable)
            ),
            environment_conditions=conditions,
            nominal_duration=duration,
        ),
        evaluation_criteria=criteria,
        purpose=purpose,
    )


def repeated_cases(cases: Iterable[TestCase], copies: int) -> list[TestCase]:
    """``copies`` copies of the test cases, in order, each id suffixed with
    its copy number."""
    cases = list(cases)
    return [replace(tc, id=f"{tc.id}-{k}") for k in range(copies) for tc in cases]


def scale_cost_rates(bench: TestBench, factor: float) -> TestBench:
    return replace(
        bench,
        elements=tuple(
            replace(
                elem,
                characteristics=replace(
                    elem.characteristics,
                    cost_rate=factor * elem.characteristics.cost_rate,
                ),
            )
            for elem in bench.elements
        ),
    )


def zero_setup_costs(bench: TestBench) -> TestBench:
    return replace(
        bench,
        elements=tuple(
            replace(elem, characteristics=replace(elem.characteristics, setup_cost=0.0))
            for elem in bench.elements
        ),
    )


# --- brute-force reference ---------------------------------------------------


def _nonempty_subsets(elements: tuple[Element, ...]) -> list[tuple[Element, ...]]:
    # Lexicographic by declaration-index tuple: (0), (0,1), (0,1,2), (0,2), (1), ...
    out: list[tuple[Element, ...]] = []

    def grow(prefix: tuple[Element, ...], start: int) -> None:
        for i in range(start, len(elements)):
            picked = prefix + (elements[i],)
            out.append(picked)
            grow(picked, i + 1)

    grow((), 0)
    return out


def reference_configurations(bench: TestBench) -> Iterator[TestBenchConfiguration]:
    """Every configuration in enumeration order, built by brute force: the
    full list of choices per leaf, then their product. The reference the
    configuration space's counting, unranking and iteration are checked
    against."""
    grouped = elements_by_dimension(bench)
    choices = []
    for leaf in leaf_dimensions(bench):
        elems = grouped.get(leaf.id, ())
        if leaf.combinable:
            choices.append((leaf.id, _nonempty_subsets(elems)))
        else:
            choices.append((leaf.id, [(e,) for e in elems]))
    leaf_ids = [leaf_id for leaf_id, _ in choices]
    for combo in itertools.product(*(options for _, options in choices)):
        yield TestBenchConfiguration(
            bench_id=bench.id,
            selection={
                leaf_id: tuple(e.id for e in picked)
                for leaf_id, picked in zip(leaf_ids, combo)
            },
        )


def reference_admissibility(
    config: TestBenchConfiguration, bench: TestBench, profile: RequirementProfile
) -> AdmissibilityReport:
    """The admissibility rule applied to one whole configuration, straight
    from the bench: coverage first, then each selected element in leaf and
    selection order, keeping the first occurrence of each violation."""
    leaves = leaf_dimensions(bench)
    covered = {leaf.id for leaf in leaves} | {leaf.parent for leaf in leaves if leaf.parent}
    elements = {elem.id: elem for elem in bench.elements}
    violations: list[Violation] = []

    def add(dimension: str, reason: ReasonCode) -> None:
        if Violation(dimension, reason) not in violations:
            violations.append(Violation(dimension, reason))

    for dim_id, entry in profile.entries.items():
        if entry.required and dim_id not in covered:
            add(dim_id, ReasonCode.MISSING_DIMENSION)
    for leaf in leaves:
        entry = profile.governing(leaf.id, leaf.parent or leaf.id)
        for elem_id in config.selection[leaf.id]:
            elem = elements[elem_id]
            if entry is not None and elem.stage not in entry.admissible_stages:
                add(leaf.id, ReasonCode.STAGE_NOT_ADMISSIBLE)
            if profile.purpose not in elem.characteristics.validated_for:
                add(leaf.id, ReasonCode.NOT_VALIDATED_FOR_PURPOSE)
    return AdmissibilityReport(admissible=not violations, violations=tuple(violations))


def reference_classify(config: TestBenchConfiguration, bench: TestBench) -> TestMethodName:
    """The test method of a configuration by the rules of
    :func:`~benchlattice.configuration.classify_test_method`, on sets of
    stages per canonical dimension, straight from the bench."""
    canonical_of = {leaf.id: leaf.parent or leaf.id for leaf in leaf_dimensions(bench)}
    elements = {elem.id: elem for elem in bench.elements}
    by_canonical: dict[str, set[Stage]] = {}
    for leaf_id, picked in config.selection.items():
        bucket = by_canonical.setdefault(canonical_of[leaf_id], set())
        bucket.update(elements[eid].stage for eid in picked)
    all_stages = set().union(*by_canonical.values())

    if all_stages == {Stage.REAL}:
        return TestMethodName.TEST_VEHICLE
    if all_stages == {Stage.SIMULATED}:
        return TestMethodName.SOFTWARE_IN_THE_LOOP

    def only(dim: str, stage: Stage) -> bool:
        return by_canonical.get(dim, set()) == {stage}

    def rest_simulated(*excluded: str) -> bool:
        return all(
            stages == {Stage.SIMULATED}
            for dim, stages in by_canonical.items()
            if dim not in excluded
        )

    if only("test-object", Stage.REAL) and rest_simulated("test-object"):
        return TestMethodName.HARDWARE_IN_THE_LOOP
    if only("driver-user-behavior", Stage.REAL) and rest_simulated("driver-user-behavior"):
        return TestMethodName.DRIVER_IN_THE_LOOP

    anchors_real = all(
        only(dim, Stage.REAL)
        for dim in ("test-object", "vehicle-dynamics", "residual-vehicle")
    )
    movable = by_canonical.get("movable-objects", set())
    if anchors_real and (movable & {Stage.SIMULATED, Stage.EMULATED}):
        return TestMethodName.VEHICLE_IN_THE_LOOP
    return TestMethodName.UNCLASSIFIED


def reference_refusals(bench: TestBench, profile: RequirementProfile) -> dict[str, int]:
    """Each leaf element's refusal code (1: stage, 2: purpose, 3: both),
    checked one element at a time against the entry governing its leaf."""
    codes = {}
    for leaf in leaf_dimensions(bench):
        entry = profile.governing(leaf.id, leaf.parent or leaf.id)
        for elem in bench.elements:
            if elem.dimension == leaf.id:
                stage = entry is not None and elem.stage not in entry.admissible_stages
                purpose = profile.purpose not in elem.characteristics.validated_for
                codes[elem.id] = int(stage) + 2 * int(purpose)
    return codes


def reference_candidates(
    suite: Iterable[TestCase],
    benches: Iterable[TestBench],
    overrides: Mapping[str, StageOverrides],
) -> list[tuple[tuple[Assignment, ...], dict[str, AdmissibilityReport]]]:
    """Per test case, its candidates by (cost, bench id, configuration index)
    and a report per bench, found by checking every configuration of every
    bench: the reference the assignment's candidate collection is checked
    against. A bench with no admissible configuration reports the sorted
    union of its configurations' violations."""
    collected = []
    for tc in suite:
        profile = derive_requirement_profile(tc, overrides.get(tc.id))
        candidates = []
        reports = {}
        for bench in sorted(benches, key=lambda b: b.id):
            any_admissible = False
            union: set[Violation] = set()
            for index, config in enumerate(reference_configurations(bench)):
                report = check_admissibility(config, bench, profile)
                if report.admissible:
                    any_admissible = True
                    candidates.append(
                        Assignment(
                            bench_id=bench.id,
                            config_index=index,
                            configuration=config,
                            cost=estimate_cost(config, bench, tc),
                            method=classify_test_method(config, bench),
                        )
                    )
                else:
                    union.update(report.violations)
            ordered = tuple(sorted(union, key=lambda v: (v.dimension, v.reason.value)))
            reports[bench.id] = AdmissibilityReport(
                admissible=any_admissible, violations=() if any_admissible else ordered
            )
        candidates.sort(key=lambda c: (c.cost.monetary_cost, c.bench_id, c.config_index))
        collected.append((tuple(candidates), reports))
    return collected


def reference_greedy(
    suite: list[TestCase],
    benches: Iterable[TestBench],
    budget: CapacityBudget | None,
    overrides: Mapping[str, StageOverrides],
    collected: list | None = None,
) -> AssignmentPlan:
    """The greedy rule scanned over the full candidate lists of
    :func:`reference_candidates` (pass them as ``collected`` when already
    computed): the reference the factored greedy is checked against.
    Without a budget each test case takes its first candidate; with one,
    test cases go in descending regret (second minus first candidate cost,
    infinite with fewer than two candidates) and take the first candidate
    whose bench still has time for it."""
    if collected is None:
        collected = reference_candidates(suite, benches, overrides)
    cases = list(zip(suite, collected))
    order = cases
    if budget is not None:

        def urgency(pair):
            index, (_, (candidates, _)) = pair
            if len(candidates) < 2:
                return (0, Fraction(0), index)
            regret = candidates[1].cost.monetary_cost - candidates[0].cost.monetary_cost
            return (1, -regret, index)

        order = [case for _, case in sorted(enumerate(cases), key=urgency)]

    chosen: dict[str, Assignment] = {}
    skipped: dict[str, UnassignableCase] = {}
    used: dict[str, Fraction] = {}
    for tc, (candidates, reports) in order:
        for cand in candidates:
            limit = budget.limit(cand.bench_id) if budget is not None else None
            spent = used.get(cand.bench_id, Fraction(0))
            if limit is None or spent + cand.cost.execution_time <= limit:
                chosen[tc.id] = cand
                used[cand.bench_id] = spent + cand.cost.execution_time
                break
        else:
            reason = "bench-time-exhausted" if candidates else "no-admissible-configuration"
            skipped[tc.id] = UnassignableCase(tc.id, reason, reports)
    return _reference_plan(suite, chosen, skipped)


def reference_exact(
    suite: list[TestCase],
    benches: Iterable[TestBench],
    budget: CapacityBudget | None,
    overrides: Mapping[str, StageOverrides],
    collected: list | None = None,
) -> AssignmentPlan:
    """The exhaustive search run over the full candidate lists of
    :func:`reference_candidates` (pass them as ``collected`` when already
    computed): the reference the frontier oracle is checked against. A
    depth-first search tries each test case's candidates in (cost, bench
    id, configuration index) order, then leaving it unassigned, and keeps
    the first plan with the least (unassignable count, total cost)."""
    if collected is None:
        collected = reference_candidates(suite, benches, overrides)
    n = len(collected)
    best: tuple[int, Fraction, tuple[Assignment | None, ...]] | None = None

    def dfs(
        index: int,
        skipped_count: int,
        cost: Fraction,
        used: dict[str, Fraction],
        picks: list[Assignment | None],
    ) -> None:
        nonlocal best
        if best is not None and (
            skipped_count > best[0] or (skipped_count == best[0] and cost > best[1])
        ):
            return
        if index == n:
            if best is None or (skipped_count, cost) < (best[0], best[1]):
                best = (skipped_count, cost, tuple(picks))
            return
        for cand in collected[index][0]:
            limit = budget.limit(cand.bench_id) if budget is not None else None
            spent = used.get(cand.bench_id, Fraction(0))
            if limit is not None and spent + cand.cost.execution_time > limit:
                continue
            used[cand.bench_id] = spent + cand.cost.execution_time
            picks.append(cand)
            dfs(index + 1, skipped_count, cost + cand.cost.monetary_cost, used, picks)
            picks.pop()
            used[cand.bench_id] = spent
        picks.append(None)
        dfs(index + 1, skipped_count + 1, cost, used, picks)
        picks.pop()

    dfs(0, 0, Fraction(0), {}, [])
    assert best is not None  # the all-skipped combination always exists

    chosen: dict[str, Assignment] = {}
    skipped: dict[str, UnassignableCase] = {}
    for tc, (candidates, reports), pick in zip(suite, collected, best[2]):
        if pick is None:
            reason = "bench-time-exhausted" if candidates else "no-admissible-configuration"
            skipped[tc.id] = UnassignableCase(tc.id, reason, reports)
        else:
            chosen[tc.id] = pick
    return _reference_plan(suite, chosen, skipped)


def _reference_plan(
    suite: list[TestCase],
    chosen: Mapping[str, Assignment],
    skipped: Mapping[str, UnassignableCase],
) -> AssignmentPlan:
    assignments = {tc.id: chosen[tc.id] for tc in suite if tc.id in chosen}
    bench_time: dict[str, Fraction] = {}
    for cand in assignments.values():
        bench_time[cand.bench_id] = (
            bench_time.get(cand.bench_id, Fraction(0)) + cand.cost.execution_time
        )
    return AssignmentPlan(
        assignments=assignments,
        unassignable=tuple(skipped[tc.id] for tc in suite if tc.id in skipped),
        total_cost=sum((c.cost.monetary_cost for c in assignments.values()), Fraction(0)),
        total_bench_time=bench_time,
    )


# --- randomized generation ---------------------------------------------------

_RATES = (0.0, 5.0, 10.0, 25.0)
_TIME_FACTORS = (0.25, 0.5, 1.0, 2.0)
_SETUPS = (0.0, 1.0, 2.0)
PURPOSES = ("safety-validation", "endurance")


def random_bench(
    rng: random.Random,
    bench_id: str = "bench",
    *,
    max_elements: int = 3,
    count_cap: int = 10_000,
    allow_substantiation: bool = True,
    stages: Mapping[str, tuple[Stage, ...]] | None = None,
) -> TestBench:
    """A valid random bench: <= 11 leaves, <= ``max_elements`` elements per
    leaf, random combinable flags, configuration count <= ``count_cap``.
    Each element's stage is drawn from ``stages`` of its canonical
    dimension (repeat a stage to favour it), else from all three."""
    substantiations: dict[str, list[str]] = {}
    leaves = list(CANONICAL_DIMENSION_IDS)
    canonical_of = {leaf: leaf for leaf in leaves}
    if allow_substantiation and rng.random() < 0.4:
        parent = rng.choice([d for d in CANONICAL_DIMENSION_IDS if d != "test-object"])
        substantiations[parent] = [f"{parent}-a", f"{parent}-b"]
        index = leaves.index(parent)
        subs = [f"{parent}-a", f"{parent}-b"]
        leaves[index : index + 1] = subs
        del canonical_of[parent]
        for sub in subs:
            canonical_of[sub] = parent

    combinable = {leaf: rng.random() < 0.5 for leaf in leaves if rng.random() < 0.3}

    per_leaf = {leaf: rng.randint(1, max_elements) for leaf in leaves}

    def choices(leaf: str) -> int:
        # Mirrors the model: sub-leaves inherit their parent's default flag
        # (only movable objects defaults to combinable).
        n = per_leaf[leaf]
        flag = combinable.get(leaf, canonical_of[leaf] == "movable-objects")
        return (2**n - 1) if flag else n

    def total() -> int:
        product = 1
        for leaf in leaves:
            product *= choices(leaf)
        return product

    while total() > count_cap:
        widest = max(leaves, key=lambda leaf: (choices(leaf), leaf))
        per_leaf[widest] -= 1

    elements = []
    for leaf in leaves:
        for i in range(per_leaf[leaf]):
            validated = {p for p in PURPOSES if rng.random() < 0.8}
            elements.append(
                {
                    "id": f"{leaf}-e{i}",
                    "dimension": leaf,
                    "stage": rng.choice((stages or {}).get(canonical_of[leaf], STAGES)).value,
                    "validated_for": sorted(validated),
                    "cost_rate": rng.choice(_RATES),
                    "time_factor": rng.choice(_TIME_FACTORS),
                    "setup_cost": rng.choice(_SETUPS),
                }
            )
    return bench_from_raw(
        {
            "id": bench_id,
            "display_name": bench_id,
            "substantiations": substantiations,
            "combinable": combinable,
            "elements": elements,
        }
    )


def small_random_bench(rng: random.Random, bench_id: str) -> TestBench:
    """A bench with at most four configurations, for solver instances that
    must stay inside the exhaustive-oracle guard."""
    pattern = rng.choice(["single", "pair", "pair-combinable", "two-pairs", "triple"])
    wide = rng.sample(list(CANONICAL_DIMENSION_IDS), k=2)
    per_leaf = {dim: 1 for dim in CANONICAL_DIMENSION_IDS}
    combinable: dict[str, bool] = {"movable-objects": False}
    if pattern == "pair":
        per_leaf[wide[0]] = 2
    elif pattern == "pair-combinable":
        per_leaf[wide[0]] = 2
        combinable[wide[0]] = True
        combinable.setdefault("movable-objects", False)
    elif pattern == "two-pairs":
        per_leaf[wide[0]] = 2
        per_leaf[wide[1]] = 2
    elif pattern == "triple":
        per_leaf[wide[0]] = 3

    elements = []
    for dim in CANONICAL_DIMENSION_IDS:
        for i in range(per_leaf[dim]):
            validated = {"safety-validation"} if rng.random() < 0.9 else {"endurance"}
            elements.append(
                {
                    "id": f"{dim}-e{i}",
                    "dimension": dim,
                    "stage": rng.choice(STAGES).value,
                    "validated_for": sorted(validated),
                    "cost_rate": rng.choice(_RATES),
                    "time_factor": rng.choice(_TIME_FACTORS),
                    "setup_cost": rng.choice(_SETUPS),
                }
            )
    return bench_from_raw(
        {
            "id": bench_id,
            "display_name": bench_id,
            "combinable": combinable,
            "elements": elements,
        }
    )


def random_instance(rng: random.Random):
    """(suite, benches, overrides, budget) inside the exhaustive guard."""
    benches = [small_random_bench(rng, f"bench-{i}") for i in range(rng.randint(1, 2))]
    suite = []
    overrides = {}
    for i in range(rng.randint(1, 4)):
        case = make_test_case(
            f"case-{i}",
            duration=rng.choice((60.0, 120.0, 240.0, 360.0)),
            purpose="safety-validation" if rng.random() < 0.85 else "endurance",
            movable=rng.randint(0, 2),
            conditions=("rain",) if rng.random() < 0.5 else (),
        )
        suite.append(case)
        if rng.random() < 0.3:
            dim = rng.choice(list(CANONICAL_DIMENSION_IDS))
            allowed = frozenset(rng.sample(STAGES, k=rng.randint(1, 3)))
            overrides[case.id] = {dim: allowed}
    budget = None
    if rng.random() < 0.5:
        limits = {}
        for bench in benches:
            if rng.random() < 0.7:
                limits[bench.id] = rng.choice((90.0, 240.0, 720.0, 2000.0))
        if limits:
            budget = CapacityBudget(limits)
    return suite, benches, overrides, budget


def random_admissibility_instance(rng: random.Random):
    """(suite, benches, overrides) small enough to check every configuration:
    elements unvalidated for some purpose, overrides that narrow stages, and
    overrides naming sub-dimensions that some or all benches lack."""
    benches = []
    for i in range(rng.randint(1, 3)):
        bench = random_bench(rng, f"bench-{i}", count_cap=rng.choice((6, 30, 120)))
        # random_bench leaves each element unvalidated for a purpose one time
        # in five, so most of its benches admit nothing; validate most
        # elements of most benches for every purpose.
        if rng.random() < 0.7:
            everything = frozenset(PURPOSES)
            bench = replace(
                bench,
                elements=tuple(
                    replace(e, characteristics=replace(e.characteristics, validated_for=everything))
                    if rng.random() < 0.95
                    else e
                    for e in bench.elements
                ),
            )
        benches.append(bench)
    sub_dimensions = sorted(
        {leaf.id for bench in benches for leaf in leaf_dimensions(bench) if leaf.parent}
        | {"scenery-unknown"}
    )
    suite = []
    overrides = {}
    for i in range(rng.randint(1, 3)):
        case = make_test_case(
            f"case-{i}",
            duration=rng.choice((60.0, 360.0)),
            purpose=rng.choice(PURPOSES),
            movable=rng.randint(0, 2),
            conditions=("rain",) if rng.random() < 0.5 else (),
        )
        suite.append(case)
        narrowed = {
            rng.choice(list(CANONICAL_DIMENSION_IDS) + sub_dimensions): frozenset(
                rng.sample(STAGES, k=rng.randint(1, 3))
            )
            for _ in range(rng.randint(0, 2))
        }
        if narrowed:
            overrides[case.id] = narrowed
    return suite, benches, overrides


# --- reference registry loader -------------------------------------------------
#
# The two-pass loader the package's lean one must agree with: every element
# goes through every itemised schema check, and every bench is built through
# the public draft operations (new_bench, substantiate_dimension with its
# re-sort per call, with_elements), then validated with the tree sorted again
# for its leaves. Kept independent of the registry's schema walker and of
# taxonomy.validate_bench.

_REF_STAGES = tuple(stage.value for stage in Stage)
_REF_BENCH_FIELDS = {"id", "display_name", "substantiations", "combinable", "elements"}
_REF_ELEMENT_REQUIRED = (
    "id", "dimension", "stage", "validated_for", "cost_rate", "time_factor", "setup_cost",
)
_REF_ELEMENT_FIELDS = set(_REF_ELEMENT_REQUIRED) | {"display_name", "extra"}
_REF_CANONICAL_RANK = {dim_id: i for i, dim_id in enumerate(CANONICAL_DIMENSION_IDS)}
# An identifier, start to end of the value: \Z, unlike $, matches no final "\n".
_REF_ID = re.compile(r"\A[A-Za-z0-9][A-Za-z0-9._-]*\Z")


class _RefChecker:
    def __init__(self) -> None:
        self.issues: list[tuple[str, str]] = []

    def add(self, location: str, message: str) -> None:
        self.issues.append((location, message))

    def obj(self, value: object, location: str) -> dict[str, Any] | None:
        if not isinstance(value, dict):
            self.add(location, f"expected an object, got {type(value).__name__}")
            return None
        return value

    def array(self, value: object, location: str) -> list[Any] | None:
        if not isinstance(value, list):
            self.add(location, f"expected an array, got {type(value).__name__}")
            return None
        return value

    def text(self, value: object, location: str, *, identifier: bool = False) -> str | None:
        if not isinstance(value, str):
            self.add(location, f"expected a string, got {type(value).__name__}")
            return None
        if identifier and not _REF_ID.match(value):
            self.add(location, f"{value!r} is not a valid identifier")
            return None
        return value

    def number(
        self, value: object, location: str, *, minimum: float | None = 0.0,
        exclusive: bool = False,
    ) -> float | None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            self.add(location, f"expected a number, got {type(value).__name__}")
            return None
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            self.add(location, f"must be a finite number, got {number}")
        elif minimum is not None and exclusive and not number > minimum:
            self.add(location, f"must be > {minimum}, got {number}")
        elif minimum is not None and not exclusive and number < minimum:
            self.add(location, f"must be >= {minimum}, got {number}")
        else:
            return number
        return None

    def known_fields(self, value: dict[str, Any], location: str, allowed: set[str]) -> None:
        for key in sorted(set(value) - allowed):
            self.add(f"{location}.{key}", "unknown field")


def _ref_check_element(check: _RefChecker, raw: object, location: str) -> None:
    entry = check.obj(raw, location)
    if entry is None:
        return
    check.known_fields(entry, location, _REF_ELEMENT_FIELDS)
    for required in _REF_ELEMENT_REQUIRED:
        if required not in entry:
            check.add(f"{location}.{required}", "required field missing")
    for key in ("id", "dimension"):
        if key in entry:
            check.text(entry[key], f"{location}.{key}", identifier=True)
    if "display_name" in entry:
        check.text(entry["display_name"], f"{location}.display_name")
    if "stage" in entry and entry["stage"] not in _REF_STAGES:
        check.add(
            f"{location}.stage",
            f"expected one of {list(_REF_STAGES)}, got {entry['stage']!r}",
        )
    if "validated_for" in entry:
        tags = check.array(entry["validated_for"], f"{location}.validated_for")
        for i, tag in enumerate(tags or ()):
            check.text(tag, f"{location}.validated_for[{i}]")
    for key in ("cost_rate", "time_factor", "setup_cost"):
        if key in entry:
            check.number(entry[key], f"{location}.{key}", exclusive=key == "time_factor")
    if "extra" in entry:
        check.obj(entry["extra"], f"{location}.extra")


def _ref_check_bench(check: _RefChecker, raw: object, location: str) -> dict[str, Any] | None:
    bench = check.obj(raw, location)
    if bench is None:
        return None
    check.known_fields(bench, location, _REF_BENCH_FIELDS)
    if "id" not in bench:
        check.add(f"{location}.id", "required field missing")
    else:
        check.text(bench["id"], f"{location}.id", identifier=True)
    if "display_name" in bench:
        check.text(bench["display_name"], f"{location}.display_name")
    subs = check.obj(bench.get("substantiations", {}), f"{location}.substantiations")
    for parent, names in (subs or {}).items():
        names_arr = check.array(names, f"{location}.substantiations.{parent}")
        if names_arr is not None and not names_arr:
            check.add(f"{location}.substantiations.{parent}", "must not be empty")
        for i, name in enumerate(names_arr or ()):
            check.text(name, f"{location}.substantiations.{parent}[{i}]")
    flags = check.obj(bench.get("combinable", {}), f"{location}.combinable")
    for dim, flag in (flags or {}).items():
        if not isinstance(flag, bool):
            check.add(f"{location}.combinable.{dim}", f"expected a boolean, got {flag!r}")
    elements = check.array(bench.get("elements", []), f"{location}.elements")
    for i, entry in enumerate(elements or ()):
        _ref_check_element(check, entry, f"{location}.elements[{i}]")
    return bench


def _ref_tree_order(nodes) -> tuple:
    nodes = list(nodes)
    order = {node.id: i for i, node in enumerate(nodes)}

    def key(node):
        anchor = node.parent if node.parent is not None else node.id
        rank = _REF_CANONICAL_RANK.get(anchor, len(_REF_CANONICAL_RANK))
        return (rank, 1 if node.parent is not None else 0, order[node.id])

    return tuple(sorted(nodes, key=key))


def _ref_build(raw: Mapping[str, Any]) -> TestBench:
    bench_id = str(raw.get("id", ""))
    combinable = dict(raw.get("combinable") or {})
    canonical = {k: bool(v) for k, v in combinable.items() if k in _REF_CANONICAL_RANK}
    bench = new_bench(
        bench_id, str(raw.get("display_name", bench_id)), combinable_overrides=canonical
    )
    for parent, subs in (raw.get("substantiations") or {}).items():
        bench = substantiate_dimension(bench, str(parent), list(subs))
    sub_overrides = {k: v for k, v in combinable.items() if k not in canonical}
    if sub_overrides:
        unknown = sorted(set(sub_overrides) - {node.id for node in bench.dimension_tree})
        if unknown:
            raise UnknownDimension(f"combinable overrides for unknown dimensions: {unknown}")
        bench = replace(
            bench,
            dimension_tree=tuple(
                replace(node, combinable=bool(sub_overrides[node.id]))
                if node.id in sub_overrides
                else node
                for node in bench.dimension_tree
            ),
        )
    elements = []
    for entry in raw.get("elements") or ():
        try:
            stage = Stage(str(entry["stage"]))
        except ValueError:
            raise TaxonomyError(
                f"unknown stage {str(entry['stage'])!r}; expected one of "
                f"{', '.join(_REF_STAGES)}"
            ) from None
        elements.append(
            Element(
                id=str(entry["id"]),
                display_name=str(entry.get("display_name", entry["id"])),
                dimension=str(entry["dimension"]),
                stage=stage,
                characteristics=Characteristics(
                    validated_for=frozenset(entry.get("validated_for", ())),
                    cost_rate=float(entry.get("cost_rate", 0.0)),
                    time_factor=float(entry.get("time_factor", 1.0)),
                    setup_cost=float(entry.get("setup_cost", 0.0)),
                    extra=dict(entry.get("extra", {})),
                ),
            )
        )
    return with_elements(bench, elements)


def reference_validate_bench(raw: Mapping[str, Any]) -> TestBench:
    bench = _ref_build(raw)
    nodes = _ref_tree_order(bench.dimension_tree)
    seen: set[str] = set()
    for node in nodes:
        if node.id in seen:
            raise DuplicateId(f"duplicate dimension id {node.id!r} in bench {bench.id!r}")
        seen.add(node.id)
    for dim_id in CANONICAL_DIMENSION_IDS:
        if dim_id not in seen:
            raise TaxonomyError(f"bench {bench.id!r} misses canonical dimension {dim_id!r}")
    for node in nodes:
        if node.parent is None:
            continue
        if node.parent not in _REF_CANONICAL_RANK or any(
            other.id == node.parent and other.kind is not DimensionKind.CANONICAL
            for other in nodes
        ):
            raise TaxonomyError(
                f"sub-dimension {node.id!r} hangs off non-canonical {node.parent!r}; "
                "substantiation depth is one level"
            )
        if node.parent not in seen:
            raise UnknownDimension(
                f"sub-dimension {node.id!r} references missing parent {node.parent!r}"
            )

    ordered = _ref_tree_order(replace(bench, dimension_tree=nodes).dimension_tree)
    parents = {node.parent for node in ordered if node.parent is not None}
    leaf_ids = [node.id for node in ordered if node.id not in parents]
    leaf_rank = {dim_id: i for i, dim_id in enumerate(leaf_ids)}
    non_leaves = {node.id for node in nodes} - set(leaf_ids)
    seen_elements: set[str] = set()
    for elem in bench.elements:
        if elem.id in seen_elements:
            raise DuplicateId(f"duplicate element id {elem.id!r} in bench {bench.id!r}")
        seen_elements.add(elem.id)
        if elem.dimension in non_leaves:
            raise ElementOnNonLeaf(
                f"element {elem.id!r} sits on substantiated dimension {elem.dimension!r}"
            )
        if elem.dimension not in leaf_rank:
            raise UnknownDimension(
                f"element {elem.id!r} references unknown dimension {elem.dimension!r}"
            )
    populated = {elem.dimension for elem in bench.elements}
    for leaf_id in leaf_ids:
        if leaf_id not in populated:
            raise EmptyLeaf(f"leaf dimension {leaf_id!r} of bench {bench.id!r} holds no element")
    if any(node.parent == "test-object" for node in nodes):
        warnings.warn(
            f"bench {bench.id!r} substantiates the test-object dimension", BenchValidationWarning
        )
    ordered_elements = sorted(
        enumerate(bench.elements), key=lambda pair: (leaf_rank[pair[1].dimension], pair[0])
    )
    return replace(
        bench, dimension_tree=nodes, elements=tuple(elem for _, elem in ordered_elements)
    )


def _ref_version(check: _RefChecker, root: Mapping[str, Any]) -> None:
    version = root.get("format_version")
    if version != FORMAT_VERSION:
        check.add(
            "format_version",
            f"unsupported format_version {version!r}; expected {FORMAT_VERSION!r}",
        )


def _ref_check_items(
    check: _RefChecker, doc: object, key: str, noun: str, check_item
) -> list[dict[str, Any]]:
    """The root checks of a registry or suite, then each item of its array
    ``key`` by ``check_item`` and its id against the ids before it; returns
    the item objects."""
    fragments: list[dict[str, Any]] = []
    root = check.obj(doc, "$")
    if root is None:
        return fragments
    check.known_fields(root, "$", {"format_version", key})
    _ref_version(check, root)
    seen_ids: set[str] = set()
    for i, raw in enumerate(check.array(root.get(key), key) or ()):
        fragment = check_item(check, raw, f"{key}[{i}]")
        if fragment is None:
            continue
        item_id = fragment.get("id")
        if isinstance(item_id, str):
            if item_id in seen_ids:
                check.add(f"{key}[{i}].id", f"duplicate {noun} id {item_id!r}")
            seen_ids.add(item_id)
        fragments.append(fragment)
    return fragments


def reference_load_registry(path: str | Path) -> list[TestBench]:
    """The registry loader with every element checked field by field and
    every bench built by the public draft operations."""
    check = _RefChecker()
    fragments = _ref_check_items(check, _load_json(path), "benches", "bench", _ref_check_bench)
    if check.issues:
        raise SchemaError(check.issues)
    loaded: list[TestBench] = []
    problems: list[tuple[str, BenchlatticeError]] = []
    for fragment in fragments:
        try:
            loaded.append(reference_validate_bench(fragment))
        except BenchlatticeError as exc:
            problems.append((str(fragment.get("id")), exc))
    if problems:
        raise ValidationError(problems)
    return loaded


# --- reference suite and budget checks ------------------------------------------
#
# The suite and budget schema checks written out by hand, object by object, as
# the package wrote them before its schemas became data: the references the
# loaders' findings are checked against, in text and order.

_REF_CASE_FIELDS = {"id", "purpose", "scenario", "evaluation_criteria", "overrides"}
_REF_LAYERS = (
    "road_level", "traffic_infrastructure", "temporary_manipulation", "movable_objects",
    "environment_conditions",
)
_REF_SCENARIO_FIELDS = {*_REF_LAYERS, "nominal_duration"}


def _ref_check_case(check: _RefChecker, raw: object, location: str) -> dict[str, Any] | None:
    case = check.obj(raw, location)
    if case is None:
        return None
    check.known_fields(case, location, _REF_CASE_FIELDS)
    if "id" not in case:
        check.add(f"{location}.id", "required field missing")
    else:
        check.text(case["id"], f"{location}.id", identifier=True)
    if "purpose" in case:
        check.text(case["purpose"], f"{location}.purpose")
    scenario = check.obj(case.get("scenario", {}), f"{location}.scenario")
    if scenario is not None:
        check.known_fields(scenario, f"{location}.scenario", _REF_SCENARIO_FIELDS)
        for key in ("road_level", "traffic_infrastructure", "temporary_manipulation"):
            if key in scenario:
                check.text(scenario[key], f"{location}.scenario.{key}")
        movable = check.array(
            scenario.get("movable_objects", []), f"{location}.scenario.movable_objects"
        )
        for i, obj in enumerate(movable or ()):
            where = f"{location}.scenario.movable_objects[{i}]"
            entry = check.obj(obj, where)
            if entry is None:
                continue
            check.known_fields(entry, where, {"type", "count"})
            if "type" not in entry:
                check.add(f"{where}.type", "required field missing")
            else:
                check.text(entry["type"], f"{where}.type")
            if "count" in entry:
                count = check.number(entry["count"], f"{where}.count", minimum=1)
                if count is not None and not count.is_integer():
                    check.add(f"{where}.count", f"must be a whole number, got {count}")
        conditions = check.array(
            scenario.get("environment_conditions", []),
            f"{location}.scenario.environment_conditions",
        )
        for i, tag in enumerate(conditions or ()):
            check.text(tag, f"{location}.scenario.environment_conditions[{i}]")
        if "nominal_duration" in scenario:
            check.number(
                scenario["nominal_duration"], f"{location}.scenario.nominal_duration",
                minimum=None,
            )
    criteria = check.array(case.get("evaluation_criteria", []), f"{location}.evaluation_criteria")
    for i, criterion in enumerate(criteria or ()):
        where = f"{location}.evaluation_criteria[{i}]"
        entry = check.obj(criterion, where)
        if entry is None:
            continue
        check.known_fields(entry, where, {"name", "threshold"})
        if "name" not in entry:
            check.add(f"{where}.name", "required field missing")
        else:
            check.text(entry["name"], f"{where}.name")
        if "threshold" in entry:
            check.text(entry["threshold"], f"{where}.threshold")
    overrides = check.obj(case.get("overrides", {}), f"{location}.overrides")
    for dim, stages in (overrides or {}).items():
        stages_arr = check.array(stages, f"{location}.overrides.{dim}")
        for i, stage in enumerate(stages_arr or ()):
            if stage not in _REF_STAGES:
                check.add(
                    f"{location}.overrides.{dim}[{i}]",
                    f"expected one of {list(_REF_STAGES)}, got {stage!r}",
                )
    return case


def reference_suite_issues(doc: object) -> tuple[tuple[str, str], ...]:
    """The schema findings of a parsed suite document, in order."""
    check = _RefChecker()
    _ref_check_items(check, doc, "test_cases", "test case", _ref_check_case)
    return tuple(check.issues)


def reference_case_issues(raw: object) -> tuple[tuple[str, str], ...]:
    """The schema findings of one suite fragment, located from ``$``."""
    check = _RefChecker()
    _ref_check_case(check, raw, "$")
    return tuple(check.issues)


def reference_budget_issues(doc: object) -> tuple[tuple[str, str], ...]:
    """The schema findings of a parsed budget document, in order."""
    check = _RefChecker()
    root = check.obj(doc, "$")
    if root is not None:
        check.known_fields(root, "$", {"format_version", "max_bench_time"})
        _ref_version(check, root)
        table = check.obj(root.get("max_bench_time", {}), "max_bench_time")
        for bench_id, seconds in (table or {}).items():
            check.number(seconds, f"max_bench_time.{bench_id}", exclusive=True)
    return tuple(check.issues)
