"""Admissibility checks, run-cost estimation and suite assignment.

A configuration is admissible for a test case when the bench covers every
required dimension and every selected element passes on its own: its stage
is admissible for its dimension and it is validated for the test case's
purpose. The rule is therefore decided once per element, and a bench whose
elements admit no configuration reports its coverage violations plus every
element's own. Costs use exact rational arithmetic (``fractions.Fraction``)
so plans compare and scale without floating-point noise.

Two solvers produce assignment plans: a regret-guided greedy heuristic and
an exact solver. Both minimise (number of unassignable test cases, total
cost) lexicographically, coverage before savings, and search one list per
test case, ranked by cost, then bench id, then configuration index: the
greedy takes the first candidate that fits the bench time left, the exact
solver makes one label-setting pass over the same lists (:func:`_exact`).
Ties therefore break identically, one plan builder turns either solver's
picks into the plan, and plans are reproducible artifacts.

Neither solver walks the configurations. A configuration whose slowest
element has time factor T costs the sum over its elements of
``duration·T·rate/3600 + setup``, so for each distinct time factor T of the
usable elements the search takes, on every leaf, the usable element with
time factor <= T that minimises that term (the lowest declaration index on
a tie) and sums them; the least (sum, configuration index) over all T is
the cheapest configuration with the lowest index, because rates and setups
are never negative. On a combinable leaf the pick is a singleton, since
subset order puts ``(i)`` before every other subset of zero-cost elements.
The strict improvements over ascending T form the bench's (time, cost)
frontier: the configurations that no faster-or-equal one undercuts. The
frontier points, priced once as found, are the candidates: on a bench,
the first that fits a time limit is the last in time order that does, and
a dominated configuration is never in the exact answer. The same sweep
finds the bench's runner-up, its second-lowest cost, for the greedy's
regret: the least over all T of the cheapest configuration priced at T if
that is not the bench's cheapest, else of the bench's cheapest with one
leaf's choice swapped for that leaf's next best, on the leaf where the swap
costs least. The work grows with leaves × elements × distinct time
factors, the sums are exact integers (see :class:`_Options`), and only the
picked configurations are built. :func:`estimate_cost` prices a given
configuration independently, from its elements.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .configuration import ConfigurationSpace, TestBenchConfiguration, TestMethodName
from .errors import InstanceTooLarge, SchemaError
from .frozen import Frozen
from .taxonomy import CANONICAL_DIMENSION_IDS, CapacityBudget, TestBench
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
    "EXACT_MAX_LABELS",
]

SECONDS_PER_HOUR = 3600

#: The most partial plans :func:`assign_exact` keeps before it refuses.
EXACT_MAX_LABELS = 1024


class ReasonCode(Enum):
    MISSING_DIMENSION = "MISSING_DIMENSION"
    STAGE_NOT_ADMISSIBLE = "STAGE_NOT_ADMISSIBLE"
    NOT_VALIDATED_FOR_PURPOSE = "NOT_VALIDATED_FOR_PURPOSE"


_set = object.__setattr__


class Violation(Frozen):
    __slots__ = ("dimension", "reason")

    def __init__(self, dimension: str, reason: ReasonCode) -> None:
        _set(self, "dimension", dimension)
        _set(self, "reason", reason)


class AdmissibilityReport(Frozen):
    __slots__ = ("admissible", "violations")

    def __init__(self, admissible: bool, violations: tuple[Violation, ...]) -> None:
        if admissible != (not violations):
            raise ValueError("admissible must hold exactly when violations is empty")
        _set(self, "admissible", admissible)
        _set(self, "violations", violations)


class CostEstimate(Frozen):
    """Predicted wall-clock time (seconds) and money for one run."""

    __slots__ = ("execution_time", "monetary_cost")

    def __init__(self, execution_time: Fraction, monetary_cost: Fraction) -> None:
        if not execution_time > 0:
            raise ValueError(f"execution_time must be > 0, got {execution_time}")
        if monetary_cost < 0:
            raise ValueError(f"monetary_cost must be >= 0, got {monetary_cost}")
        _set(self, "execution_time", execution_time)
        _set(self, "monetary_cost", monetary_cost)


class Assignment(Frozen):
    __slots__ = ("bench_id", "config_index", "configuration", "cost", "method")

    def __init__(
        self, bench_id: str, config_index: int, configuration: TestBenchConfiguration,
        cost: CostEstimate, method: TestMethodName,
    ) -> None:
        _set(self, "bench_id", bench_id)
        _set(self, "config_index", config_index)
        _set(self, "configuration", configuration)
        _set(self, "cost", cost)
        _set(self, "method", method)


class UnassignableCase(Frozen):
    __slots__ = ("test_case_id", "reason", "reports")

    def __init__(
        self, test_case_id: str,
        reason: str,  # "no-admissible-configuration" | "bench-time-exhausted"
        reports: Mapping[str, AdmissibilityReport],
    ) -> None:
        _set(self, "test_case_id", test_case_id)
        _set(self, "reason", reason)
        _set(self, "reports", reports)


class AssignmentPlan(Frozen):
    __slots__ = ("assignments", "unassignable", "total_cost", "total_bench_time")

    def __init__(
        self, assignments: Mapping[str, Assignment], unassignable: tuple[UnassignableCase, ...],
        total_cost: Fraction, total_bench_time: Mapping[str, Fraction],
    ) -> None:
        _set(self, "assignments", assignments)
        _set(self, "unassignable", unassignable)
        _set(self, "total_cost", total_cost)
        _set(self, "total_bench_time", total_bench_time)


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
    codes = _refusals(space, profile)
    # An insertion-ordered set: the first occurrence of each violation wins.
    violations = dict.fromkeys(_missing(space, profile))
    for leaf_id in space.leaf_ids:  # an element's dimension is its leaf
        for elem_id in config.selection[leaf_id]:
            violations.update((Violation(leaf_id, r), None) for r in _REASONS[codes[elem_id]])
    return AdmissibilityReport(admissible=not violations, violations=tuple(violations))


def _missing(space: ConfigurationSpace, profile: RequirementProfile) -> list[Violation]:
    """A violation for each required dimension the bench lacks, in profile
    order (rule a)."""
    return [
        Violation(dim, ReasonCode.MISSING_DIMENSION)
        for dim, entry in profile.entries.items()
        if entry.required and dim not in space.dimensions
    ]


_STAGE, _PURPOSE = ReasonCode.STAGE_NOT_ADMISSIBLE, ReasonCode.NOT_VALIDATED_FOR_PURPOSE
_REASONS = ((), (_STAGE,), (_PURPOSE,), (_STAGE, _PURPOSE))  # by _refusals code


def _refusals(space: ConfigurationSpace, profile: RequirementProfile) -> dict[str, int]:
    """Each element's code by id, in leaf order: 0 when it passes on its own,
    else 1 if the entry governing its leaf refuses its stage (rule b) plus 2
    if it is not validated for the purpose (rule c). Stages are compared as
    bits (:attr:`ConfigurationSpace.stage_bit`), and not at all on a leaf
    whose entry admits every stage."""
    purpose, elements, bit = profile.purpose, space.elements, space.stage_bit
    codes = {}
    for leaf_id, elem_ids in zip(space.leaf_ids, space.ids_per_leaf):
        entry = profile.governing(leaf_id, space.canonical_of[leaf_id])
        refused = 0  # the complement of the admitted stages' bits, if not every stage
        if entry is not None and len(entry.admissible_stages) < 3:
            refused = ~sum(stage.bit for stage in entry.admissible_stages)
        for elem_id in elem_ids:
            code = (purpose not in elements[elem_id].characteristics.validated_for) << 1
            codes[elem_id] = code | 1 if refused and refused & bit[elem_id] else code
    return codes


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


# --- factored search ----------------------------------------------------------


class _Prices:
    """Each element's time factor, cost rate and setup cost in one space as
    integers ``(t, r, s)`` over one common denominator ``scale``, so that
    the values are exactly t/scale, r/scale and s/scale (floats are dyadic:
    ``scale`` is a power of two)."""

    def __init__(self, space: ConfigurationSpace) -> None:
        ratios = {}
        scale = 1
        for elem_id, elem in space.elements.items():
            c = elem.characteristics
            ratios[elem_id] = (_, td), (_, rd), (_, sd) = (
                c.time_factor.as_integer_ratio(), c.cost_rate.as_integer_ratio(),
                c.setup_cost.as_integer_ratio(),
            )
            scale = math.lcm(scale, td, rd, sd)
        self.space = space
        self.scale = scale
        self.of: dict[str, tuple[int, ...]] = {
            elem_id: (t * (scale // td), r * (scale // rd), s * (scale // sd))
            for elem_id, ((t, td), (r, rd), (s, sd)) in ratios.items()
        }


class _Candidate(NamedTuple):
    """One frontier point of one bench for one test case: its cost, bench
    id, configuration index, execution time and the bench's space."""

    cost: Fraction
    bench_id: str
    index: int
    seconds: Fraction
    space: ConfigurationSpace


class _Options:
    """One bench's admissible configurations for one test case, kept
    factored: per leaf, the elements that pass on their own. One sweep over
    the time factors (see the module docstring) finds the bench's frontier
    and runner-up; neither solver walks the configurations, and only the
    picked ones are built (:func:`_build`).

    The sweep works on integers. With the duration dn/dd and an element's
    prices t/scale, r/scale, s/scale (see :class:`_Prices`), the value at
    time t' is ``v = (t'·dn·r + 3600·dd·scale·s) / (3600·dd·scale²)``; only
    the numerators are compared and summed.
    """

    def __init__(self, prices: _Prices, tc: TestCase, profile: RequirementProfile) -> None:
        self.space = space = prices.space
        dn, dd = tc.scenario.nominal_duration.as_integer_ratio()
        fixed = SECONDS_PER_HOUR * dd * prices.scale
        #: Each element's code (:func:`_refusals`) and the bench's coverage
        #: violations (:func:`_missing`), which report() reads.
        self.codes = codes = _refusals(space, profile)
        self.missing = _missing(space, profile)
        # Per leaf, each element that passes on its own as (t, dn·r,
        # 3600·dd·scale·s, singleton offset).
        leaves = []
        for ids, offsets in zip(space.ids_per_leaf, space.singleton_offsets):
            entries = []
            for elem_id, offset in zip(ids, offsets):
                if not codes[elem_id]:
                    t, r, s = prices.of[elem_id]
                    entries.append((t, dn * r, fixed * s, offset))
            leaves.append(entries)
        #: Every admissible configuration that no other one dominates, by
        #: ascending time: none runs in no more time with a smaller (cost, index).
        #: Empty exactly when nothing is admissible.
        self.frontier: tuple[_Candidate, ...] = ()
        #: The second-lowest admissible cost (the lowest on a tie); None with
        #: fewer than two admissible configurations.
        self.runner_up: Fraction | None = None
        if self.missing or not all(leaves):
            return

        # At each distinct time factor T, at or above the least one every
        # leaf can meet, the sweep finds the cheapest configuration m, lowest
        # index on a tie, among those whose time factors are all <= T, priced
        # at T. One that is faster than T was already found, no dearer, at its
        # own time, so each strict improvement of (value, index) over
        # ascending T runs at exactly T: the improvements are the frontier,
        # and the last is the cheapest configuration, c.
        floor = max(min(leaf)[0] for leaf in leaves)
        money = SECONDS_PER_HOUR * dd * prices.scale**2
        points = []
        sweep = []  # per T: (value, index, the least extra value of one leaf's next best)
        best = None
        for time in sorted({t for leaf in leaves for t, _, _, _ in leaf if t >= floor}):
            value = index = 0
            detour = None
            for leaf in leaves:
                low = other = pick = None
                for t, slope, setup, offset in leaf:
                    if t <= time:
                        w = time * slope + setup
                        if low is None or w < low:
                            low, other, pick = w, low, offset
                        elif other is None or w < other:
                            other = w
                value += low
                index += pick
                if other is not None and (detour is None or other - low < detour):
                    detour = other - low
            sweep.append((value, index, detour))
            if best is None or (value, index) < best:
                best = (value, index)
                points.append(_Candidate(
                    Fraction(value, money), space.bench.id, index,
                    Fraction(dn * time, dd * prices.scale), space,
                ))
        self.frontier = tuple(points)
        if max(map(len, leaves)) == 1:  # one element a leaf: one admissible configuration
            return
        # Every configuration but c differs from it on some leaf. At a T whose
        # m is not c, the least of them priced at T is m; where m is c, it is
        # c with one leaf's choice swapped for that leaf's next best (a
        # singleton, on a combinable leaf too), on the leaf where that costs least.
        c = best[1]
        self.runner_up = Fraction(min(
            value + detour if index == c else value
            for value, index, detour in sweep
            if index != c or detour is not None
        ), money)

    def report(self) -> AdmissibilityReport:
        if self.frontier:
            return AdmissibilityReport(admissible=True, violations=())
        # With nothing admissible, every configuration is rejected, and every
        # element is selected by one: the union of their violations is the
        # coverage violations plus every element's own.
        elements = self.space.elements
        union = set(self.missing)
        union.update(
            Violation(elements[elem_id].dimension, reason)
            for elem_id, code in self.codes.items() for reason in _REASONS[code]
        )
        return AdmissibilityReport(
            admissible=False,
            violations=tuple(sorted(union, key=lambda v: (v.dimension, v.reason.value))),
        )


def _build(candidate: _Candidate) -> Assignment:
    """The assignment of one frontier point."""
    space, index = candidate.space, candidate.index
    config = space.at(index)
    return Assignment(
        bench_id=candidate.bench_id,
        config_index=index,
        configuration=config,
        cost=CostEstimate(execution_time=candidate.seconds, monetary_cost=candidate.cost),
        method=space.classify(config),
    )


def _analyse(
    suite: Sequence[TestCase],
    benches: Sequence[TestBench],
    overrides: Mapping[str, StageOverrides] | None,
) -> list[tuple[TestCase, list[_Options]]]:
    """Per test case, its options on every bench in bench-id order."""
    overrides = overrides or {}
    ids = [tc.id for tc in suite]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate test case ids in suite: {sorted(ids)}")
    bench_ids = [bench.id for bench in benches]
    if len(set(bench_ids)) != len(bench_ids):
        raise ValueError(f"duplicate bench ids: {sorted(bench_ids)}")

    prices = [
        _Prices(ConfigurationSpace(bench)) for bench in sorted(benches, key=lambda b: b.id)
    ]
    analysed = []
    for tc in suite:
        profile = derive_requirement_profile(tc, overrides.get(tc.id))
        analysed.append((tc, [_Options(p, tc, profile) for p in prices]))
    return analysed


def _reports(options: Sequence[_Options]) -> dict[str, AdmissibilityReport]:
    return {opts.space.bench.id: opts.report() for opts in options}


def _candidates(options: Sequence[_Options]) -> list[_Candidate]:
    """Every frontier point of every bench, in the order both solvers
    search them: cost, then bench id, then configuration index."""
    return sorted(
        (cand for opts in options for cand in opts.frontier),
        key=lambda cand: (cand.cost, cand.bench_id, cand.index),
    )


def _check_references(
    suite: Sequence[TestCase], benches: Sequence[TestBench], budget: CapacityBudget | None,
    overrides: Mapping[str, StageOverrides] | None,
) -> None:
    """Raise :class:`SchemaError` for overrides of a test case not in the
    suite (they would override nothing), an override of a dimension neither
    canonical nor any bench's (it would require a dimension every bench
    lacks) or a budget for a bench not given (it would bound nothing). The
    texts are the CLI's as they were; to a library caller "the registry" is
    the benches passed."""
    case_ids = {tc.id for tc in suite}
    issues = [
        (f"overrides.{case_id}", "unknown test case: no test case in the suite has this id")
        for case_id in overrides or ()
        if case_id not in case_ids
    ]
    known = set(CANONICAL_DIMENSION_IDS).union(
        *({node.id for node in bench.dimension_tree} for bench in benches)
    )
    unknown = "unknown dimension: neither canonical nor a dimension of any bench in the registry"
    issues += [
        (f"test_cases[{i}].overrides.{dim}", unknown)
        for i, tc in enumerate(suite)
        for dim in (overrides or {}).get(tc.id, {})
        if dim not in known
    ]
    bench_ids = [bench.id for bench in benches]
    available = ", ".join(bench_ids) or "none"
    issues += [
        (f"max_bench_time.{bench_id}", f"unknown bench (available: {available})")
        for bench_id in (budget.max_bench_time if budget is not None else ())
        if bench_id not in bench_ids
    ]
    if issues:
        raise SchemaError(issues)


def _regret(options: Sequence[_Options]) -> Fraction | None:
    """The cost gap between a test case's second-cheapest and cheapest
    admissible configurations over all benches; None when it has fewer than
    two."""
    # No bench's runner-up costs less than its cheapest, so the two least of
    # these are the cheapest configuration and the second-cheapest.
    costs = sorted(
        cost
        for opts in options if opts.frontier
        for cost in (opts.frontier[-1].cost, opts.runner_up) if cost is not None
    )
    return costs[1] - costs[0] if len(costs) > 1 else None


# --- solvers -----------------------------------------------------------------


def _plan(
    cases: Sequence[tuple[TestCase, Sequence[_Options]]],
    picks: Mapping[str, _Candidate | None],
) -> AssignmentPlan:
    """The plan that builds each test case's pick, in suite order, and
    reports the test cases picked None as unassignable."""
    assignments: dict[str, Assignment] = {}
    unassignable: list[UnassignableCase] = []
    total_cost = Fraction(0)
    bench_time: dict[str, Fraction] = {}
    for tc, options in cases:
        pick = picks[tc.id]
        if pick is None:
            unassignable.append(_skip(tc, options))
            continue
        assignments[tc.id] = _build(pick)
        total_cost += pick.cost
        bench_time[pick.bench_id] = bench_time.get(pick.bench_id, Fraction(0)) + pick.seconds
    return AssignmentPlan(
        assignments=assignments,
        unassignable=tuple(unassignable),
        total_cost=total_cost,
        total_bench_time=bench_time,
    )


def _skip(tc: TestCase, options: Sequence[_Options]) -> UnassignableCase:
    admissible = any(opts.frontier for opts in options)
    reason = "bench-time-exhausted" if admissible else "no-admissible-configuration"
    return UnassignableCase(test_case_id=tc.id, reason=reason, reports=_reports(options))


def assign_greedy(
    suite: Sequence[TestCase],
    benches: Sequence[TestBench],
    budget: CapacityBudget | None = None,
    *,
    overrides: Mapping[str, StageOverrides] | None = None,
) -> AssignmentPlan:
    """Assign each test case to the cheapest admissible configuration.

    Each test case takes the first of its candidates (:func:`_candidates`)
    whose bench still has time for it. Without a budget that is its
    globally cheapest configuration (ties: bench id, then configuration
    index). With a budget, test cases are processed in descending regret
    (the cost gap to their second-cheapest configuration, infinite when
    there is no alternative). Only the picked configurations are built and
    classified. An override or budget that names nothing given raises
    :class:`~benchlattice.errors.SchemaError`.
    """
    _check_references(suite, benches, budget, overrides)
    # Each limit as a Fraction once per solve, not once per candidate tried.
    limits = {b: budget.limit(b) for b in budget.max_bench_time} if budget is not None else {}
    cases = _analyse(suite, benches, overrides)
    order = list(cases)
    if budget is not None:
        def urgency(case: tuple[TestCase, list[_Options]]) -> tuple[int, Fraction]:
            regret = _regret(case[1])
            return (0, Fraction(0)) if regret is None else (1, -regret)

        order.sort(key=urgency)  # stable: ties keep suite order

    picks: dict[str, _Candidate | None] = {}
    used: dict[str, Fraction] = {}
    for tc, options in order:
        pick = next((  # the first candidate whose bench has time left for it
            cand for cand in _candidates(options)
            if cand.bench_id not in limits
            or used.get(cand.bench_id, 0) + cand.seconds <= limits[cand.bench_id]
        ), None)
        picks[tc.id] = pick
        if pick is not None:
            used[pick.bench_id] = used.get(pick.bench_id, 0) + pick.seconds
    return _plan(cases, picks)


def _exact(
    candidates: Sequence[Sequence[_Candidate]], limits: Mapping[str, Fraction]
) -> list[_Candidate | None]:
    """The picks of :func:`assign_exact` (None skips a test case), found by
    one label pass over the test cases in order.

    A label is a partial plan: (skipped count, cost, candidate positions,
    seconds used per budgeted bench), a skip taking the position after the
    last candidate. Each label is extended by every candidate that fits and
    by skipping; the new labels are sorted, and one is kept only if no label
    kept before it uses no more seconds on every budgeted bench. A dropped
    label's completions fit the one kept, whose (skipped count, cost,
    positions) is smaller, so the first label left at the end is the first
    optimum a depth-first search in candidate order, skip last, would find.
    Seconds and costs are integers over one common denominator each.
    """
    flat = [c for cands in candidates for c in cands]
    unit = math.lcm(*(x.denominator for x in [*limits.values(), *(c.seconds for c in flat)]))
    money = math.lcm(*(c.cost.denominator for c in flat))
    room = [int(limit * unit) for limit in limits.values()]
    labels = [(0, 0, (), (0,) * len(limits))]
    for done, cands in enumerate(candidates):
        steps = [  # (position, seconds on each budgeted bench, cost)
            (pos, [int(c.seconds * unit) if b == c.bench_id else 0 for b in limits],
             int(c.cost * money))
            for pos, c in enumerate(cands)
        ]
        extended = []
        for skipped, cost, positions, used in labels:
            for pos, seconds, price in steps:
                spent = tuple(map(operator.add, used, seconds))
                if all(map(operator.le, spent, room)):
                    extended.append((skipped, cost + price, positions + (pos,), spent))
            extended.append((skipped + 1, cost, positions + (len(cands),), used))
        extended.sort()  # positions differ, so the seconds are never compared
        labels, least = [], []  # least: the minimal seconds of the labels kept
        for label in extended:
            used = label[3]
            if not any(all(map(operator.le, kept, used)) for kept in least):
                labels.append(label)
                least = [kept for kept in least if not all(map(operator.le, used, kept))]
                least.append(used)
                if len(labels) > EXACT_MAX_LABELS:
                    raise InstanceTooLarge(
                        f"exact solver keeps at most {EXACT_MAX_LABELS} partial plans; "
                        f"more survive test case {done + 1} of {len(candidates)}"
                    )
    positions = labels[0][2]
    return [cands[pos] if pos < len(cands) else None for cands, pos in zip(candidates, positions)]


def assign_exact(
    suite: Sequence[TestCase],
    benches: Sequence[TestBench],
    budget: CapacityBudget | None = None,
    *,
    overrides: Mapping[str, StageOverrides] | None = None,
) -> AssignmentPlan:
    """Exact solver: the plan minimising (unassignable count, total cost)
    lexicographically over every candidate combination that respects the
    budget; the first such plan in (cost, bench id, configuration index)
    order of each test case's candidates, skipping last.

    References are checked first, as :func:`assign_greedy` checks them. The
    label pass (:func:`_exact`) runs over the greedy's candidates, each
    bench's frontier points (:func:`_candidates`): a configuration off the
    frontier is dominated by one on the same bench that runs in no more time
    at a smaller (cost, index), so it is never in the plan returned. Without
    a budget each test case takes its first candidate, as the greedy does.
    When more than :data:`EXACT_MAX_LABELS` partial plans survive a test
    case it raises :class:`InstanceTooLarge`; only the picks are built.
    """
    _check_references(suite, benches, budget, overrides)
    limits = {b: budget.limit(b) for b in budget.max_bench_time} if budget is not None else {}
    cases = _analyse(suite, benches, overrides)
    picks = _exact([_candidates(options) for _, options in cases], limits)
    return _plan(cases, {tc.id: pick for (tc, _), pick in zip(cases, picks)})
