"""Admissibility checks, run-cost estimation and suite assignment.

A configuration is admissible for a test case when the bench covers every
required dimension and every selected element passes on its own: its stage
is admissible for its dimension and it is validated for the test case's
purpose. The rule is therefore decided once per element; assignment walks
only the configurations composed of passing elements, and a bench with none
reports its coverage violations plus every element's own. Costs use exact
rational arithmetic (``fractions.Fraction``) so plans compare and scale
without floating-point noise.

Two solvers produce assignment plans: a regret-guided greedy heuristic and
an exhaustive oracle for small instances. Both minimise (number of
unassignable test cases, total cost) lexicographically, coverage before
savings, and break ties identically, so plans are reproducible artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

from .configuration import ConfigurationSpace, TestBenchConfiguration, TestMethodName
from .errors import InstanceTooLarge
from .taxonomy import TestBench
from .testcase import (
    RequirementProfile,
    StageOverrides,
    TestCase,
    derive_requirement_profile,
)

__all__ = [
    "ReasonCode",
    "Violation",
    "AdmissibilityReport",
    "CostEstimate",
    "CapacityBudget",
    "Assignment",
    "UnassignableCase",
    "AssignmentPlan",
    "check_admissibility",
    "estimate_cost",
    "assign_greedy",
    "assign_exact",
    "EXACT_MAX_SUITE",
    "EXACT_MAX_CANDIDATES",
]

SECONDS_PER_HOUR = 3600

EXACT_MAX_SUITE = 8
EXACT_MAX_CANDIDATES = 32


class ReasonCode(Enum):
    MISSING_DIMENSION = "MISSING_DIMENSION"
    STAGE_NOT_ADMISSIBLE = "STAGE_NOT_ADMISSIBLE"
    NOT_VALIDATED_FOR_PURPOSE = "NOT_VALIDATED_FOR_PURPOSE"


@dataclass(frozen=True)
class Violation:
    dimension: str
    reason: ReasonCode


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    violations: tuple[Violation, ...]

    def __post_init__(self) -> None:
        if self.admissible != (not self.violations):
            raise ValueError("admissible must hold exactly when violations is empty")


@dataclass(frozen=True)
class CostEstimate:
    """Predicted wall-clock time (seconds) and money for one run."""

    execution_time: Fraction
    monetary_cost: Fraction

    def __post_init__(self) -> None:
        if not self.execution_time > 0:
            raise ValueError(f"execution_time must be > 0, got {self.execution_time}")
        if self.monetary_cost < 0:
            raise ValueError(f"monetary_cost must be >= 0, got {self.monetary_cost}")


@dataclass(frozen=True)
class CapacityBudget:
    """Optional per-bench time budgets in seconds; absent means unbounded."""

    max_bench_time: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for bench_id, limit in self.max_bench_time.items():
            if not limit > 0:
                raise ValueError(f"budget for bench {bench_id!r} must be > 0, got {limit}")

    def limit(self, bench_id: str) -> Fraction | None:
        raw = self.max_bench_time.get(bench_id)
        return None if raw is None else Fraction(raw)


@dataclass(frozen=True)
class Assignment:
    bench_id: str
    config_index: int
    configuration: TestBenchConfiguration
    cost: CostEstimate
    method: TestMethodName


@dataclass(frozen=True)
class UnassignableCase:
    test_case_id: str
    reason: str  # "no-admissible-configuration" | "bench-time-exhausted"
    reports: Mapping[str, AdmissibilityReport]


@dataclass(frozen=True)
class AssignmentPlan:
    assignments: Mapping[str, Assignment]
    unassignable: tuple[UnassignableCase, ...]
    total_cost: Fraction
    total_bench_time: Mapping[str, Fraction]


def check_admissibility(
    config: TestBenchConfiguration, bench: TestBench, profile: RequirementProfile
) -> AdmissibilityReport:
    """Evaluate one configuration against a requirement profile.

    Collects every violation (one entry per (dimension, reason) pair), never
    just the first:

    a. a required dimension pattern with no matching bench leaf,
    b. a selected element whose stage is outside the admissible set
       governing its leaf (an exact leaf entry wins over the canonical
       parent's entry),
    c. a selected element not validated for the profile's purpose.
    """
    space = ConfigurationSpace(bench)
    space.require_same_bench(config)
    missing, own = _violations(space, profile)
    # An insertion-ordered set: the first occurrence of each violation wins.
    violations = dict.fromkeys(missing)
    for leaf_id in space.leaf_ids:
        for elem_id in config.selection[leaf_id]:
            violations.update(dict.fromkeys(own[elem_id]))
    return AdmissibilityReport(admissible=not violations, violations=tuple(violations))


def _violations(
    space: ConfigurationSpace, profile: RequirementProfile
) -> tuple[tuple[Violation, ...], dict[str, tuple[Violation, ...]]]:
    """The bench's coverage violations (required dimensions it lacks, in
    profile order) and each element's own violations by element id (stage
    before purpose), in O(leaves + elements)."""
    missing = tuple(
        Violation(dim_id, ReasonCode.MISSING_DIMENSION)
        for dim_id, entry in profile.entries.items()
        if entry.required and dim_id not in space.dimensions
    )
    own: dict[str, tuple[Violation, ...]] = {}
    for leaf_id, elem_ids in zip(space.leaf_ids, space.ids_per_leaf):
        entry = profile.governing(leaf_id, space.canonical_of[leaf_id])
        for elem_id in elem_ids:
            elem = space.elements[elem_id]
            found = []
            if entry is not None and elem.stage not in entry.admissible_stages:
                found.append(Violation(leaf_id, ReasonCode.STAGE_NOT_ADMISSIBLE))
            if profile.purpose not in elem.characteristics.validated_for:
                found.append(Violation(leaf_id, ReasonCode.NOT_VALIDATED_FOR_PURPOSE))
            own[elem_id] = tuple(found)
    return missing, own


def estimate_cost(
    config: TestBenchConfiguration, bench: TestBench, tc: TestCase
) -> CostEstimate:
    """Predict time and money for running ``tc`` on ``config``.

    The slowest selected element paces the closed loop, so execution time is
    the scenario's nominal duration times the maximum time factor; money is
    that time (in hours) times the summed cost rates, plus every selected
    element's setup cost.
    """
    space = ConfigurationSpace(bench)
    space.require_same_bench(config)
    return _cost(space, config, tc)


def _cost(
    space: ConfigurationSpace, config: TestBenchConfiguration, tc: TestCase
) -> CostEstimate:
    selected = [space.elements[eid] for eid in config.selected_ids()]

    execution_time = Fraction(tc.scenario.nominal_duration) * max(
        Fraction(e.characteristics.time_factor) for e in selected
    )
    rate_sum = sum((Fraction(e.characteristics.cost_rate) for e in selected), Fraction(0))
    setup_sum = sum((Fraction(e.characteristics.setup_cost) for e in selected), Fraction(0))
    monetary = execution_time / SECONDS_PER_HOUR * rate_sum + setup_sum
    return CostEstimate(execution_time=execution_time, monetary_cost=monetary)


# --- candidate generation ---------------------------------------------------


@dataclass(frozen=True)
class _CaseCandidates:
    test_case: TestCase
    candidates: tuple[Assignment, ...]  # by (monetary cost, bench id, config index)
    reports: Mapping[str, AdmissibilityReport]  # per bench: why (not) usable

    @property
    def regret(self) -> Fraction | None:
        """Second-cheapest minus cheapest; None (treated as infinite) when
        there is no alternative."""
        if len(self.candidates) < 2:
            return None
        return (
            self.candidates[1].cost.monetary_cost - self.candidates[0].cost.monetary_cost
        )


def _collect_candidates(
    suite: Sequence[TestCase],
    benches: Sequence[TestBench],
    overrides: Mapping[str, StageOverrides] | None,
    cap: int | None,
) -> list[_CaseCandidates]:
    overrides = overrides or {}
    ids = [tc.id for tc in suite]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate test case ids in suite: {sorted(ids)}")
    bench_ids = [bench.id for bench in benches]
    if len(set(bench_ids)) != len(bench_ids):
        raise ValueError(f"duplicate bench ids: {sorted(bench_ids)}")

    spaces = [ConfigurationSpace(bench) for bench in sorted(benches, key=lambda b: b.id)]
    for space in spaces:
        space.require_within_cap(cap)

    collected = []
    for tc in suite:
        profile = derive_requirement_profile(tc, overrides.get(tc.id))
        candidates: list[Assignment] = []
        reports: dict[str, AdmissibilityReport] = {}
        for space in spaces:
            missing, own = _violations(space, profile)
            walk = () if missing else space.walk(lambda elem_id: not own[elem_id])
            found = [
                Assignment(
                    bench_id=space.bench.id,
                    config_index=index,
                    configuration=config,
                    cost=_cost(space, config, tc),
                    method=space.classify(config),
                )
                for index, config in walk
            ]
            # With nothing admissible, every configuration was rejected, and
            # every element is selected by one: the union of their violations
            # is the coverage violations plus every element's own.
            union = set() if found else set(missing).union(*own.values())
            reports[space.bench.id] = AdmissibilityReport(
                admissible=bool(found),
                violations=tuple(sorted(union, key=lambda v: (v.dimension, v.reason.value))),
            )
            candidates.extend(found)
        candidates.sort(key=lambda c: (c.cost.monetary_cost, c.bench_id, c.config_index))
        collected.append(
            _CaseCandidates(test_case=tc, candidates=tuple(candidates), reports=reports)
        )
    return collected


# --- solvers -----------------------------------------------------------------


def _finish_plan(
    suite: Sequence[TestCase],
    chosen: Mapping[str, Assignment],
    skipped: Mapping[str, UnassignableCase],
) -> AssignmentPlan:
    assignments: dict[str, Assignment] = {}
    unassignable: list[UnassignableCase] = []
    total_cost = Fraction(0)
    bench_time: dict[str, Fraction] = {}
    for tc in suite:
        if tc.id in chosen:
            cand = chosen[tc.id]
            assignments[tc.id] = cand
            total_cost += cand.cost.monetary_cost
            bench_time[cand.bench_id] = (
                bench_time.get(cand.bench_id, Fraction(0)) + cand.cost.execution_time
            )
        else:
            unassignable.append(skipped[tc.id])
    return AssignmentPlan(
        assignments=assignments,
        unassignable=tuple(unassignable),
        total_cost=total_cost,
        total_bench_time=bench_time,
    )


def _skip(case: _CaseCandidates) -> UnassignableCase:
    reason = (
        "bench-time-exhausted" if case.candidates else "no-admissible-configuration"
    )
    return UnassignableCase(
        test_case_id=case.test_case.id, reason=reason, reports=case.reports
    )


def assign_greedy(
    suite: Sequence[TestCase],
    benches: Sequence[TestBench],
    budget: CapacityBudget | None = None,
    *,
    overrides: Mapping[str, StageOverrides] | None = None,
    cap: int | None = None,
) -> AssignmentPlan:
    """Assign each test case to the cheapest admissible configuration.

    Without a budget every test case independently takes its globally
    cheapest candidate (ties: bench id, then configuration index). With a
    budget, test cases are processed in descending regret (the cost gap to
    their second-cheapest candidate, infinite when there is no alternative)
    and take the cheapest candidate whose bench still has time left.
    """
    cases = _collect_candidates(suite, benches, overrides, cap)

    if budget is None:
        order = cases
    else:
        def urgency(pair: tuple[int, _CaseCandidates]) -> tuple[int, Fraction, int]:
            index, case = pair
            regret = case.regret
            if regret is None:
                return (0, Fraction(0), index)
            return (1, -regret, index)

        order = [case for _, case in sorted(enumerate(cases), key=urgency)]

    chosen: dict[str, Assignment] = {}
    skipped: dict[str, UnassignableCase] = {}
    used: dict[str, Fraction] = {}
    for case in order:
        picked = None
        for cand in case.candidates:
            limit = budget.limit(cand.bench_id) if budget is not None else None
            spent = used.get(cand.bench_id, Fraction(0))
            if limit is None or spent + cand.cost.execution_time <= limit:
                picked = cand
                break
        if picked is None:
            skipped[case.test_case.id] = _skip(case)
        else:
            chosen[case.test_case.id] = picked
            used[picked.bench_id] = (
                used.get(picked.bench_id, Fraction(0)) + picked.cost.execution_time
            )
    return _finish_plan(suite, chosen, skipped)


def assign_exact(
    suite: Sequence[TestCase],
    benches: Sequence[TestBench],
    budget: CapacityBudget | None = None,
    *,
    overrides: Mapping[str, StageOverrides] | None = None,
    cap: int | None = None,
) -> AssignmentPlan:
    """Exhaustive oracle: the plan minimising (unassignable count, total
    cost) lexicographically over every candidate combination that respects
    the budget.

    Guarded to |suite| <= 8 test cases and <= 32 candidate configurations in
    total; larger instances raise :class:`InstanceTooLarge`.
    """
    if len(suite) > EXACT_MAX_SUITE:
        raise InstanceTooLarge(
            f"exhaustive solver handles at most {EXACT_MAX_SUITE} test cases, "
            f"got {len(suite)}"
        )
    cases = _collect_candidates(suite, benches, overrides, cap)
    total_candidates = sum(len(case.candidates) for case in cases)
    if total_candidates > EXACT_MAX_CANDIDATES:
        raise InstanceTooLarge(
            f"exhaustive solver handles at most {EXACT_MAX_CANDIDATES} candidate "
            f"configurations in total, got {total_candidates}"
        )

    n = len(cases)
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
        for cand in cases[index].candidates:
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
    for case, pick in zip(cases, best[2]):
        if pick is None:
            skipped[case.test_case.id] = _skip(case)
        else:
            chosen[case.test_case.id] = pick
    return _finish_plan(suite, chosen, skipped)
