from __future__ import annotations

import cProfile
import enum
import hashlib
import math
import pstats
import random
from benchlattice import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchlattice import assignment
from benchlattice.assignment import (
    CapacityBudget,
    CostEstimate,
    ReasonCode,
    assign_exact,
    assign_greedy,
    check_admissibility,
    estimate_cost,
)
from benchlattice.configuration import ConfigurationSpace, enumerate_configurations
from benchlattice.data import fixture_path
from benchlattice.errors import InstanceTooLarge, SchemaError
from benchlattice.taxonomy import (
    CANONICAL_DIMENSION_IDS,
    Stage,
    TestBench,
    leaf_dimensions,
)
from benchlattice.registry import (
    _checked_registry, _dump, load_budget, load_registry, load_suite, plan_to_raw,
)
from benchlattice.testcase import derive_requirement_profile
from helpers import (
    PURPOSES,
    make_element,
    make_test_case,
    random_admissibility_instance,
    random_bench,
    random_instance,
    reference_admissibility,
    reference_candidates,
    reference_configurations,
    reference_exact,
    reference_greedy,
    repeated_cases,
    scale_cost_rates,
    uniform_bench,
)


# --- cost model ---------------------------------------------------------------


def test_cost_slowest_element_paces_the_run():
    # Ten selected elements, time factors 0.2 and 0.5, rates summing to 100/h:
    # 360 s * 0.5 = 180 s; 180 s = 0.05 h; 0.05 h * 100/h = 5.0.
    slow = [
        make_element(f"{d}-el", d, cost_rate=10.0, time_factor=0.5)
        for d in CANONICAL_DIMENSION_IDS[1:]
    ]
    fast = make_element("fast", CANONICAL_DIMENSION_IDS[0], cost_rate=10.0, time_factor=0.2)
    bench = uniform_bench("b", extra_elements=[fast] + slow, skip_dimensions=CANONICAL_DIMENSION_IDS)
    (config,) = enumerate_configurations(bench)
    cost = estimate_cost(config, bench, make_test_case(duration=360.0))
    assert cost.execution_time == Fraction(180)
    assert cost.monetary_cost == Fraction(5)


def test_cost_identity_case():
    bench = uniform_bench("b", cost_rate=0.0, time_factor=1.0)
    (config,) = enumerate_configurations(bench)
    cost = estimate_cost(config, bench, make_test_case(duration=123.0))
    assert cost.execution_time == Fraction(123)
    assert cost.monetary_cost == 0


def test_cost_slower_than_real_time_with_setup():
    # Only one element contributes: 100 s * 2.0 = 200 s; 200/3600 h * 36/h = 2;
    # plus setup 1 -> 3. The other elements are inert (rate 0, factor 1).
    paying = make_element(
        "rig", "test-object", cost_rate=36.0, time_factor=2.0, setup_cost=1.0
    )
    bench = uniform_bench(
        "b",
        cost_rate=0.0,
        time_factor=1.0,
        skip_dimensions=("test-object",),
        extra_elements=[paying],
    )
    (config,) = enumerate_configurations(bench)
    cost = estimate_cost(config, bench, make_test_case(duration=100.0))
    assert cost.execution_time == Fraction(200)
    assert cost.monetary_cost == Fraction(3)


def test_cost_monotone_when_adding_to_combinable_selection():
    bench = uniform_bench(
        skip_dimensions=("movable-objects",),
        extra_elements=[
            make_element("m1", "movable-objects", cost_rate=1.0, time_factor=0.5, setup_cost=1.0),
            make_element("m2", "movable-objects", cost_rate=2.0, time_factor=1.0),
            make_element("m3", "movable-objects", cost_rate=0.0, time_factor=2.0),
        ],
    )
    tc = make_test_case()
    by_subset = {
        config.selection["movable-objects"]: estimate_cost(config, bench, tc)
        for config in enumerate_configurations(bench)
    }
    for smaller, cost_small in by_subset.items():
        for larger, cost_large in by_subset.items():
            if set(smaller) < set(larger):
                assert cost_large.monetary_cost >= cost_small.monetary_cost
                assert cost_large.execution_time >= cost_small.execution_time


@pytest.mark.parametrize(
    "seconds, money, message",
    [
        (Fraction(1), Fraction(-1, 3), "monetary_cost must be >= 0, got -1/3"),
        (Fraction(0), Fraction(1), "execution_time must be > 0, got 0"),
    ],
)
def test_cost_estimate_refuses_negative_money_and_no_time(seconds, money, message):
    with pytest.raises(ValueError) as caught:
        CostEstimate(execution_time=seconds, monetary_cost=money)
    assert str(caught.value) == message
    assert CostEstimate(Fraction(1), Fraction(0)).monetary_cost == 0


# --- admissibility -------------------------------------------------------------


def test_sil_configuration_admissible_for_default_profile(sil_bench):
    # Rule (a): required dimensions all covered by the 11 leaves; rule (b):
    # stages unrestricted by default; rule (c): every fixture element is
    # validated for safety-validation. Hence: no violations.
    config = enumerate_configurations(sil_bench)[0]
    profile = derive_requirement_profile(make_test_case())
    report = check_admissibility(config, sil_bench, profile)
    assert report.admissible
    assert report.violations == ()


def test_real_sensor_override_flags_radar_and_camera(sil_bench):
    config = enumerate_configurations(sil_bench)[0]
    profile = derive_requirement_profile(
        make_test_case(), {"environment-sensor-system": {Stage.REAL}}
    )
    report = check_admissibility(config, sil_bench, profile)
    assert not report.admissible
    assert [(v.dimension, v.reason) for v in report.violations] == [
        ("radar", ReasonCode.STAGE_NOT_ADMISSIBLE),
        ("camera", ReasonCode.STAGE_NOT_ADMISSIBLE),
    ]


def test_missing_required_dimension_reported():
    bench = uniform_bench()
    pruned = TestBench(
        id=bench.id,
        display_name=bench.display_name,
        dimension_tree=tuple(
            n for n in bench.dimension_tree if n.id != "localization-sensor-system"
        ),
        elements=tuple(
            e for e in bench.elements if e.dimension != "localization-sensor-system"
        ),
    )
    config = enumerate_configurations(pruned)[0]
    profile = derive_requirement_profile(
        make_test_case(), {"localization-sensor-system": set(Stage)}
    )
    report = check_admissibility(config, pruned, profile)
    assert not report.admissible
    assert (
        "localization-sensor-system",
        ReasonCode.MISSING_DIMENSION,
    ) in [(v.dimension, v.reason) for v in report.violations]


def test_unvalidated_purpose_reported_per_leaf(sil_bench):
    config = enumerate_configurations(sil_bench)[0]
    profile = derive_requirement_profile(make_test_case(purpose="endurance"))
    report = check_admissibility(config, sil_bench, profile)
    assert not report.admissible
    assert len(report.violations) == len(leaf_dimensions(sil_bench))
    assert {v.reason for v in report.violations} == {ReasonCode.NOT_VALIDATED_FOR_PURPOSE}


def test_all_violations_collected(sil_bench):
    config = enumerate_configurations(sil_bench)[0]
    profile = derive_requirement_profile(
        make_test_case(purpose="endurance"),
        {"environment-sensor-system": {Stage.REAL}},
    )
    report = check_admissibility(config, sil_bench, profile)
    reasons = {v.reason for v in report.violations}
    assert ReasonCode.STAGE_NOT_ADMISSIBLE in reasons
    assert ReasonCode.NOT_VALIDATED_FOR_PURPOSE in reasons


def test_admissibility_ignores_cost_rates(sil_bench):
    config = enumerate_configurations(sil_bench)[0]
    scaled = scale_cost_rates(sil_bench, 10.0)
    for overrides in (None, {"environment-sensor-system": {Stage.REAL}}):
        profile = derive_requirement_profile(make_test_case(), overrides)
        assert check_admissibility(config, sil_bench, profile) == check_admissibility(
            replace(config, bench_id=scaled.id), scaled, profile
        )


# --- solvers --------------------------------------------------------------------


def test_greedy_picks_cheaper_single_track_configuration(sil_bench):
    # Config 0 (single track): 90 s, 90/3600 h * 70/h = 1.75.
    # Config 1 (double track): 180 s, 180/3600 h * 80/h = 4.00.
    plan = assign_greedy([make_test_case(duration=360.0)], [sil_bench])
    assignment = plan.assignments["cut-in"]
    assert assignment.bench_id == "sil"
    assert assignment.config_index == 0
    assert assignment.configuration.selection["vehicle-dynamics"] == ("vd-single-track",)
    assert assignment.cost.monetary_cost == Fraction(7, 4)
    assert plan.total_cost == Fraction(7, 4)
    assert plan.total_bench_time == {"sil": Fraction(90)}
    assert plan.unassignable == ()


def test_real_sensor_demand_unassignable_on_sil_only(sil_bench):
    tc = make_test_case("needs-real-sensors")
    plan = assign_greedy(
        [tc], [sil_bench], overrides={tc.id: {"environment-sensor-system": {Stage.REAL}}}
    )
    assert plan.assignments == {}
    (case,) = plan.unassignable
    assert case.test_case_id == "needs-real-sensors"
    assert case.reason == "no-admissible-configuration"
    report = case.reports["sil"]
    assert not report.admissible
    pairs = [(v.dimension, v.reason) for v in report.violations]
    assert ("radar", ReasonCode.STAGE_NOT_ADMISSIBLE) in pairs
    assert ("camera", ReasonCode.STAGE_NOT_ADMISSIBLE) in pairs


def _budget_instance():
    """One bench, two configurations, and a budget that fits one run.

    vd-a: rate 36/h, no setup -> cost = duration/100.
    vd-b: rate 0, setup 50    -> cost = 50 flat.
    case-a (100 s): candidates 1.0 and 50  (regret 49, the larger)
    case-b (200 s): candidates 2.0 and 50  (regret 48)
    Execution time equals the duration on either configuration, so with a
    250 s budget the nine combinations evaluate to:
      both assigned (4 combos)        -> 300 s, infeasible
      a@cfg0 only                     -> (1 unassigned, 1.0)   <- optimum
      a@cfg1 only                     -> (1, 50)
      b@cfg0 only                     -> (1, 2.0)
      b@cfg1 only                     -> (1, 50)
      none                            -> (2, 0)
    """
    bench = uniform_bench(
        "solo",
        cost_rate=0.0,
        time_factor=1.0,
        skip_dimensions=("vehicle-dynamics",),
        extra_elements=[
            make_element("vd-a", "vehicle-dynamics", cost_rate=36.0, time_factor=1.0),
            make_element(
                "vd-b", "vehicle-dynamics", cost_rate=0.0, time_factor=1.0, setup_cost=50.0
            ),
        ],
    )
    suite = [
        make_test_case("case-a", duration=100.0),
        make_test_case("case-b", duration=200.0),
    ]
    return suite, bench, CapacityBudget({"solo": 250.0})


def test_exact_budget_example_hand_enumerated():
    suite, bench, budget = _budget_instance()
    plan = assign_exact(suite, [bench], budget)
    assert set(plan.assignments) == {"case-a"}
    assignment = plan.assignments["case-a"]
    assert assignment.config_index == 0
    assert assignment.cost.monetary_cost == Fraction(1)
    (case,) = plan.unassignable
    assert case.test_case_id == "case-b"
    assert case.reason == "bench-time-exhausted"
    assert case.reports["solo"].admissible  # usable, just out of bench time
    assert plan.total_cost == Fraction(1)
    assert plan.total_bench_time == {"solo": Fraction(100)}


def test_greedy_matches_exact_on_budget_example():
    suite, bench, budget = _budget_instance()
    assert assign_greedy(suite, [bench], budget) == assign_exact(suite, [bench], budget)


def test_exact_guard_on_suite_size(sil_bench):
    # No guard on the suite's size: without a budget, each of twelve test
    # cases takes its cheapest configuration, as the greedy's does.
    suite = [make_test_case(f"case-{i}") for i in range(12)]
    plan = assign_exact(suite, [sil_bench])
    assert len(plan.assignments) == 12
    assert plan == assign_greedy(suite, [sil_bench])


def test_exact_guard_on_candidate_count(monkeypatch):
    # The guard counts partial plans, not candidates. Seven test cases of
    # five admissible configurations each, all as cheap and as slow (360 s),
    # under room for three: the live partial plans after a test case are
    # one per number of them assigned, 0 to 3, so there are at most four.
    bench = uniform_bench(
        "wide",
        skip_dimensions=("vehicle-dynamics",),
        extra_elements=[
            make_element(f"vd-{i}", "vehicle-dynamics", time_factor=1.0) for i in range(5)
        ],
    )
    suite = [make_test_case(f"case-{i}") for i in range(7)]
    budget = CapacityBudget({"wide": 3 * 360.0})
    monkeypatch.setattr(assignment, "EXACT_MAX_LABELS", 4)
    plan = assign_exact(suite, [bench], budget)
    assert list(plan.assignments) == ["case-0", "case-1", "case-2"]
    assert plan == assign_greedy(suite, [bench], budget)
    monkeypatch.setattr(assignment, "EXACT_MAX_LABELS", 3)
    message = "at most 3 partial plans; more survive test case 3 of 7"
    with pytest.raises(InstanceTooLarge, match=message):
        assign_exact(suite, [bench], budget)


def test_unbudgeted_exact_cost_is_sum_of_minima(sil_bench, vehicle_bench):
    suite = [make_test_case("a", duration=360.0), make_test_case("b", duration=720.0)]
    plan = assign_exact(suite, [sil_bench, vehicle_bench])
    minima = []
    for tc in suite:
        best = min(
            estimate_cost(config, bench, tc).monetary_cost
            for bench in (sil_bench, vehicle_bench)
            for config in enumerate_configurations(bench)
        )
        minima.append(best)
    assert plan.total_cost == sum(minima)


@pytest.mark.parametrize("seed", range(40))
def test_solver_properties_randomized(seed):
    rng = random.Random(seed)
    suite, benches, overrides, budget = random_instance(rng)
    greedy = assign_greedy(suite, benches, budget, overrides=overrides)
    exact = assign_exact(suite, benches, budget, overrides=overrides)

    for plan in (greedy, exact):
        # Partition: every case exactly once.
        covered = set(plan.assignments) | {c.test_case_id for c in plan.unassignable}
        assert covered == {tc.id for tc in suite}
        assert len(plan.assignments) + len(plan.unassignable) == len(suite)
        # Soundness: every assignment is admissible for its test case.
        bench_by_id = {bench.id: bench for bench in benches}
        for tc in suite:
            if tc.id not in plan.assignments:
                continue
            assignment = plan.assignments[tc.id]
            profile = derive_requirement_profile(tc, overrides.get(tc.id))
            report = check_admissibility(
                assignment.configuration, bench_by_id[assignment.bench_id], profile
            )
            assert report.admissible
        # Budgets are respected.
        if budget is not None:
            for bench_id, used in plan.total_bench_time.items():
                limit = budget.limit(bench_id)
                assert limit is None or used <= limit

    if budget is None:
        assert greedy == exact
    else:
        # The oracle is lexicographically at least as good as the heuristic.
        assert len(exact.unassignable) <= len(greedy.unassignable)
        if len(exact.unassignable) == len(greedy.unassignable):
            assert exact.total_cost <= greedy.total_cost


def test_scaling_cost_rates_scales_plans(sil_bench, vehicle_bench):
    # Setup costs are zeroed so the objective is linear in the rates.
    from helpers import zero_setup_costs

    benches = [zero_setup_costs(sil_bench), zero_setup_costs(vehicle_bench)]
    scaled = [scale_cost_rates(bench, 10.0) for bench in benches]
    suite = [make_test_case("a", duration=360.0), make_test_case("b", duration=120.0)]
    base_plan = assign_greedy(suite, benches)
    scaled_plan = assign_greedy(suite, scaled)
    assert scaled_plan.total_cost == 10 * base_plan.total_cost
    for tc_id, assignment in base_plan.assignments.items():
        other = scaled_plan.assignments[tc_id]
        assert (other.bench_id, other.config_index) == (
            assignment.bench_id,
            assignment.config_index,
        )
        assert other.cost.monetary_cost == 10 * assignment.cost.monetary_cost
        assert other.cost.execution_time == assignment.cost.execution_time


# --- candidate collection against brute force ---------------------------------

ADMISSIBILITY_SEEDS = range(60)


def test_check_admissibility_matches_per_configuration_rule():
    for seed in ADMISSIBILITY_SEEDS:
        suite, benches, overrides = random_admissibility_instance(random.Random(seed))
        for tc in suite:
            profile = derive_requirement_profile(tc, overrides.get(tc.id))
            for bench in benches:
                for config in reference_configurations(bench):
                    assert check_admissibility(config, bench, profile) == (
                        reference_admissibility(config, bench, profile)
                    ), f"seed {seed}"


def _frontier(candidates):
    """The candidates, of one bench and in (cost, index) order, that no other
    one dominates: none runs in no more time at a smaller (cost, index)."""
    return [
        cand
        for i, cand in enumerate(candidates)
        if all(d.cost.execution_time > cand.cost.execution_time for d in candidates[:i])
    ]


def test_frontier_hand_derived():
    # No element charges a rate, so a configuration costs its setups at any
    # speed. On vehicle-dynamics, the only leaf with a choice:
    #   vd-0  time factor 2.0   setup 1
    #   vd-1  time factor 0.5   setup 1
    #   vd-2  time factor 0.25  setup 3
    #   vd-3  time factor 4.0   setup 1   (vd-0 is as cheap, earlier, faster)
    # At 0.25 only vd-2 runs; 0.5 adds vd-1, cheaper; 2.0 adds vd-0, as
    # cheap at a lower index; 4.0 adds nothing better.
    speeds = {"vd-0": (2.0, 1.0), "vd-1": (0.5, 1.0), "vd-2": (0.25, 3.0), "vd-3": (4.0, 1.0)}
    bench = uniform_bench(
        "rig",
        skip_dimensions=("vehicle-dynamics",),
        extra_elements=[
            make_element(eid, "vehicle-dynamics", cost_rate=0.0, time_factor=t, setup_cost=s)
            for eid, (t, s) in speeds.items()
        ],
        cost_rate=0.0,
        time_factor=0.25,
    )
    tc = make_test_case("a", duration=100.0)
    [(_, [opts])] = assignment._analyse([tc], [ConfigurationSpace(bench)], {})
    assert [
        (cand.index, cand.seconds, cand.cost) for cand in opts.frontier
    ] == [(2, 25, 3), (1, 50, 1), (0, 200, 1)]
    # vd-1 and vd-3 cost what vd-0 costs: the runner-up ties the cheapest.
    assert opts.runner_up == 1

    def picks(suite, limit=None):
        budget = None if limit is None else CapacityBudget({"rig": limit})
        plans = [
            solver(suite, [bench], budget, overrides={})
            for solver in (assign_greedy, assign_exact)
        ]
        assert plans[0] == plans[1]
        assignments = plans[1].assignments
        return [assignments[t.id].config_index for t in suite if t.id in assignments]

    assert picks([tc]) == [0]
    assert picks([tc], 100.0) == [1]
    assert picks([tc], 30.0) == [2]
    assert picks([tc], 20.0) == []
    assert picks([tc, make_test_case("b", duration=100.0)], 75.0) == [1, 2]


def _assert_frontier_matches_reference(suite, benches, overrides, label):
    """Checks every (test case, bench) frontier and report against the
    reference; returns the reference's (candidates, reports) per test case
    and how many frontiers of two or more points left candidates off."""
    expected = reference_candidates(suite, benches, overrides)
    analysed = assignment._analyse(suite, list(map(ConfigurationSpace, benches)), overrides)
    pruned = 0
    for (_, options), (candidates, reports) in zip(analysed, expected):
        assert assignment._reports(options) == reports, label
        for opts in options:
            on_bench = [c for c in candidates if c.bench_id == opts.space.bench_id]
            assert bool(opts.frontier) == bool(on_bench), label
            built = sorted(
                (assignment._build(cand) for cand in opts.frontier),
                key=lambda c: (c.cost.monetary_cost, c.config_index),
            )
            assert built == _frontier(on_bench), label
            times = [cand.seconds for cand in opts.frontier]
            assert times == sorted(set(times)), label
            pruned += len(on_bench) > len(built) > 1
    return expected, pruned


def test_frontier_matches_brute_force_reference():
    seen = set()
    for seed in ADMISSIBILITY_SEEDS:
        suite, benches, overrides = random_admissibility_instance(random.Random(seed))
        expected, _ = _assert_frontier_matches_reference(
            suite, benches, overrides, f"seed {seed}"
        )
        for _, reports in expected:
            seen.update(v.reason for report in reports.values() for v in report.violations)
            seen.update(report.admissible for report in reports.values())
    # The instances reach every reason, and benches with and without candidates.
    assert seen >= set(ReasonCode) | {True, False}

    pruned = 0
    for seed in range(40):
        suite, benches = _tie_instance(random.Random(500 + seed))
        pruned += _assert_frontier_matches_reference(suite, benches, {}, f"seed {seed}")[1]
    assert pruned >= 10


def test_runner_up_matches_brute_force():
    instances = [
        random_admissibility_instance(random.Random(seed)) for seed in ADMISSIBILITY_SEEDS
    ]
    instances += [random_instance(random.Random(10_000 + seed))[:3] for seed in range(200)]
    # Frontiers of several points, with zero-cost elements and equal prices.
    instances += [(*_tie_instance(random.Random(500 + seed)), {}) for seed in range(40)]
    off_frontier = ties = 0
    for suite, benches, overrides in instances:
        expected = reference_candidates(suite, benches, overrides)
        analysed = assignment._analyse(suite, list(map(ConfigurationSpace, benches)), overrides)
        for (_, options), (candidates, _) in zip(analysed, expected):
            for opts in options:
                on_bench = [c for c in candidates if c.bench_id == opts.space.bench_id]
                if len(on_bench) < 2:
                    assert opts.runner_up is None
                    continue
                cheapest, second = (c.cost.monetary_cost for c in on_bench[:2])
                assert opts.runner_up == second
                ties += cheapest == second
                off_frontier += on_bench[1].config_index not in {c.index for c in opts.frontier}
    # The runner-up is often no frontier point, and often ties the cheapest.
    assert off_frontier >= 100 and ties >= 20


# --- factored greedy against the reference scan -------------------------------


def _binding_budget(rng, collected):
    """Per-bench limits drawn from the execution times of the collected
    reference candidates, so that most of them bind."""
    times = {}
    for candidates, _ in collected:
        for cand in candidates:
            times.setdefault(cand.bench_id, []).append(cand.cost.execution_time)
    limits = {
        bench_id: float(rng.choice(spans) * rng.choice((0.5, 1, 1, 2)))
        for bench_id, spans in sorted(times.items())
        if rng.random() < 0.8
    }
    return CapacityBudget(limits) if limits else None


def _assert_greedy_matches_reference(
    suite, benches, budget, overrides, label, collected=None
):
    plan = assign_greedy(suite, benches, budget, overrides=overrides)
    assert plan == reference_greedy(suite, benches, budget, overrides, collected), label
    return plan


def _assert_regrets_match_reference(suite, benches, overrides, collected, label):
    analysed = assignment._analyse(suite, list(map(ConfigurationSpace, benches)), overrides)
    for (_, options), (candidates, _) in zip(analysed, collected):
        costs = [cand.cost.monetary_cost for cand in candidates[:2]]
        expected = costs[1] - costs[0] if len(costs) == 2 else None
        assert assignment._regret(options) == expected, label


def _solvable(suite, benches, overrides):
    """The overrides without the dimensions that neither are canonical nor
    belong to any bench; both solvers refuse those, checked here first."""
    known = set(CANONICAL_DIMENSION_IDS).union(
        *({node.id for node in bench.dimension_tree} for bench in benches)
    )
    kept = {
        case_id: {dim: stages for dim, stages in dims.items() if dim in known}
        for case_id, dims in overrides.items()
    }
    if kept != overrides:
        for solver in (assign_greedy, assign_exact):
            with pytest.raises(SchemaError, match=r"overrides\.scenery-unknown"):
                solver(suite, benches, overrides=overrides)
    return kept


def test_greedy_matches_reference_on_admissibility_instances():
    binding = 0
    for seed in ADMISSIBILITY_SEEDS:
        rng = random.Random(seed)
        suite, benches, overrides = random_admissibility_instance(rng)
        overrides = _solvable(suite, benches, overrides)
        collected = reference_candidates(suite, benches, overrides)
        _assert_regrets_match_reference(
            suite, benches, overrides, collected, f"seed {seed}"
        )
        budget = _binding_budget(rng, collected)
        plans = [
            _assert_greedy_matches_reference(
                suite, benches, limits, overrides, f"seed {seed}", collected
            )
            for limits in (None, budget)
        ]
        binding += plans[0] != plans[1]
    assert binding >= 15


_ODD_VALUES = (0.1, 0.3, 1e-3, 3.7)


def _tie_instance(rng):
    """Two random benches whose elements all pass, with zero-cost elements,
    repeated prices and non-dyadic-looking floats, and a few test cases. One
    bench in four charges no rate at all, so configurations of different
    speeds tie."""
    benches = []
    for i in range(2):
        bench = random_bench(rng, f"bench-{i}", count_cap=rng.choice((12, 40, 100)))
        free = rng.random() < 0.25
        elements = []
        for elem in bench.elements:
            c = replace(elem.characteristics, validated_for=frozenset(PURPOSES))
            if free:
                c = replace(c, cost_rate=0.0)
            elif rng.random() < 0.3:
                c = replace(c, cost_rate=0.0, setup_cost=0.0)
            elif rng.random() < 0.2:
                c = replace(
                    c,
                    cost_rate=rng.choice(_ODD_VALUES),
                    time_factor=rng.choice(_ODD_VALUES),
                )
            elements.append(replace(elem, characteristics=c))
        benches.append(replace(bench, elements=tuple(elements)))
    suite = [
        make_test_case(
            f"case-{i}",
            duration=rng.choice((60.0, 37.3, 360.0, 0.1)),
            movable=rng.randint(0, 2),
            conditions=("rain",) if rng.random() < 0.5 else (),
        )
        for i in range(rng.randint(2, 4))
    ]
    return suite, benches


def test_greedy_matches_reference_with_ties_and_combinable_leaves():
    zero_regrets = combinable_picks = binding = 0
    for seed in range(40):
        rng = random.Random(500 + seed)
        suite, benches = _tie_instance(rng)
        collected = reference_candidates(suite, benches, {})
        _assert_regrets_match_reference(suite, benches, {}, collected, f"seed {seed}")
        for candidates, _ in collected:
            if len(candidates) >= 2:
                zero_regrets += (
                    candidates[0].cost.monetary_cost == candidates[1].cost.monetary_cost
                )
        plan = _assert_greedy_matches_reference(
            suite, benches, None, {}, f"seed {seed}", collected
        )
        spaces = {bench.id: ConfigurationSpace(bench) for bench in benches}
        for picked in plan.assignments.values():
            space = spaces[picked.bench_id]
            combinable_picks += any(
                leaf.combinable and len(ids) > 1
                for leaf, ids in zip(space.leaves, space.ids_per_leaf)
            )
        budget = _binding_budget(rng, collected)
        budgeted = _assert_greedy_matches_reference(
            suite, benches, budget, {}, f"seed {seed}", collected
        )
        binding += budgeted != plan
    assert zero_regrets >= 10 and combinable_picks >= 10 and binding >= 10


def test_equal_costs_on_two_benches_break_on_bench_id_before_index():
    # Bench "a" has its cheapest configuration at index 1 and bench "b" at
    # index 0, at the same cost: the lower bench id wins, whatever the index.
    a = uniform_bench(
        "a",
        skip_dimensions=("vehicle-dynamics",),
        extra_elements=[
            make_element("vd-dear", "vehicle-dynamics", cost_rate=50.0),
            make_element("vd-cheap", "vehicle-dynamics"),
        ],
    )
    b = uniform_bench("b")
    suite = [make_test_case()]
    plans = [solver(suite, [b, a]) for solver in (assign_greedy, assign_exact)]
    assert plans[0] == plans[1] == reference_greedy(suite, [b, a], None, {})
    picked = plans[0].assignments["cut-in"]
    assert (picked.bench_id, picked.config_index) == ("a", 1)


def _budget_on(budget, benches):
    """The budget's limits for the given benches; the solvers refuse a limit
    for a bench they are not given."""
    ids = {bench.id for bench in benches}
    return CapacityBudget({b: t for b, t in budget.max_bench_time.items() if b in ids})


def test_greedy_matches_reference_on_fixtures():
    suite = load_suite(fixture_path("demo_suite.suite.json"))
    budget = load_budget(fixture_path("demo.budget.json"))
    fleet = load_registry(fixture_path("fleet_bench.json"))
    singles = [
        load_registry(fixture_path(name))
        for name in ("sil_bench.json", "test_vehicle_bench.json")
    ]
    for benches in [fleet, *singles]:
        for limits in (None, _budget_on(budget, benches)):
            _assert_greedy_matches_reference(
                suite.test_cases, benches, limits, suite.overrides, str(limits)
            )


def test_greedy_matches_reference_on_criterion_6_instances():
    for seed in range(200):
        suite, benches, overrides, budget = random_instance(random.Random(10_000 + seed))
        _assert_greedy_matches_reference(suite, benches, budget, overrides, f"seed {seed}")


# --- frontier oracle against the exhaustive reference --------------------------


def _assert_exact_matches_reference(
    suite, benches, budget, overrides, label, collected=None
):
    plan = assign_exact(suite, benches, budget, overrides=overrides)
    assert plan == reference_exact(suite, benches, budget, overrides, collected), label
    return plan


def test_exact_matches_reference_on_fixtures():
    suite = load_suite(fixture_path("demo_suite.suite.json"))
    budget = load_budget(fixture_path("demo.budget.json"))
    twelve = repeated_cases(suite.test_cases, 4)
    for name in ("fleet_bench.json", "sil_bench.json", "test_vehicle_bench.json"):
        benches = load_registry(fixture_path(name))
        for limits in (None, _budget_on(budget, benches)):
            _assert_exact_matches_reference(
                suite.test_cases, benches, limits, suite.overrides, f"{name} {limits}"
            )
            _assert_exact_matches_reference(twelve, benches, limits, {}, f"{name} {limits}")


def test_exact_matches_reference_on_criterion_6_instances():
    for seed in range(200):
        suite, benches, overrides, budget = random_instance(random.Random(10_000 + seed))
        _assert_exact_matches_reference(suite, benches, budget, overrides, f"seed {seed}")


def test_exact_matches_reference_on_admissibility_instances():
    binding = brute = 0
    for seed in ADMISSIBILITY_SEEDS:
        rng = random.Random(seed)
        suite, benches, overrides = random_admissibility_instance(rng)
        overrides = _solvable(suite, benches, overrides)
        collected = reference_candidates(suite, benches, overrides)
        budget = _binding_budget(rng, collected)
        if sum(len(candidates) for candidates, _ in collected) > 200:
            # The reference tries every branch of equal cost, which takes
            # seconds on the full lists of these few; a configuration off
            # its bench's brute-force frontier is in no first optimum.
            collected = [(_on_frontier(candidates), reports) for candidates, reports in collected]
            brute += 1
        plans = [
            _assert_exact_matches_reference(
                suite, benches, limits, overrides, f"seed {seed}", collected
            )
            for limits in (None, budget)
        ]
        binding += plans[0] != plans[1]
    assert brute >= 5 and binding >= 10


def _on_frontier(candidates):
    """The candidates, in their order, on their bench's brute-force frontier."""
    kept = {
        id(cand)
        for bench_id in {c.bench_id for c in candidates}
        for cand in _frontier([c for c in candidates if c.bench_id == bench_id])
    }
    return tuple(c for c in candidates if id(c) in kept)


# Per bench: cost rates, setup costs and time factors. As in perfbench's
# fleet-assign workload the levels do not overlap, and the cheapest bench
# runs every case at its nominal duration.
_FLEET_PRICES = (
    ((0.0, 1.0, 2.0, 5.0), (0.0, 0.5, 1.0), (1.0,)),
    ((5.0, 10.0, 25.0), (10.0, 15.0, 20.0), (0.5, 1.0, 2.0)),
    ((25.0, 50.0, 100.0), (40.0, 60.0, 80.0), (1.0, 2.0)),
)


def _fleet_shaped_instance(rng):
    """Two test cases over three benches priced like perfbench's fleet-assign,
    with a budget of the longer case's duration on the cheapest bench, which
    therefore always binds; small enough for the oracle's guard. The middle
    bench gets the shorter case's duration, so the case that moves there
    often has to run faster than its cheapest configuration there allows."""
    benches = []
    for i, (rates, setups, factors) in enumerate(_FLEET_PRICES):
        plain = [d for d in CANONICAL_DIMENSION_IDS if d not in ("scenery", "movable-objects")]
        wide = rng.sample(plain, k=2)
        extra = [
            make_element(
                f"{dim}-{j}",
                dim,
                rng.choice((Stage.SIMULATED, Stage.REAL)),
                cost_rate=rng.choice(rates),
                time_factor=rng.choice(factors),
                setup_cost=rng.choice(setups),
            )
            for dim in wide
            for j in range(2)
        ]
        # The gate: one scenery element of two is validated for the purpose.
        extra += [
            make_element(
                f"scenery-{j}",
                "scenery",
                validated_for=PURPOSES if j == 0 else PURPOSES[1:],
                cost_rate=rates[0],
                time_factor=factors[0],
            )
            for j in range(2)
        ]
        benches.append(
            uniform_bench(
                f"fleet-{i}",
                skip_dimensions=(*wide, "scenery"),
                extra_elements=extra,
                cost_rate=rates[0],
                time_factor=factors[0],
                setup_cost=setups[0],
            )
        )
    suite = [
        make_test_case(f"case-{j}", duration=rng.choice((120.0, 240.0, 360.0)))
        for j in range(2)
    ]
    durations = sorted(tc.scenario.nominal_duration for tc in suite)
    return suite, benches, CapacityBudget({"fleet-0": durations[-1], "fleet-1": durations[0]})


def test_exact_matches_reference_on_fleet_shaped_instances():
    split = slowed = 0
    for seed in range(40):
        suite, benches, budget = _fleet_shaped_instance(random.Random(700 + seed))
        collected = reference_candidates(suite, benches, {})
        for limits in (None, budget):
            plan = _assert_exact_matches_reference(
                suite, benches, limits, {}, f"seed {seed}", collected
            )
        split += len({a.bench_id for a in plan.assignments.values()}) == 2
        # A pick dearer than its bench's cheapest is a frontier point other
        # than the last.
        for (candidates, _), tc in zip(collected, suite):
            picked = plan.assignments.get(tc.id)
            if picked is not None:
                low = min(
                    c.cost.monetary_cost for c in candidates if c.bench_id == picked.bench_id
                )
                slowed += picked.cost.monetary_cost > low
    assert split >= 20 and slowed >= 5


def test_stage_tests_hash_no_enum_members():
    """Admissibility and classification compare stages as bits: a
    fleet-shaped greedy solve without overrides makes no call of the
    Python-level ``Enum.__hash__`` from ``_refusals`` or ``classify``."""
    suite, benches, budget = _fleet_shaped_instance(random.Random(740))
    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    plans = [assign_greedy(suite, benches, limits) for limits in (None, budget)]
    profiler.disable()
    assert all(plan.assignments for plan in plans)
    stats = pstats.Stats(profiler).stats
    called = {name for (_, _, name) in stats}
    assert {"_refusals", "classify"} <= called
    hashers = {
        caller[2]
        for (filename, _, name), (*_, callers) in stats.items()
        if name == "__hash__" and filename == enum.__file__
        for caller in callers
    }
    assert not hashers & {"_refusals", "classify"}, hashers


def _campaign(rng, cases):
    """A budgeted test campaign: three random benches of at most 5,000
    configurations, test cases of 60-360 s, and each bench the unbudgeted
    greedy plan uses budgeted to 35% of the time it spends there."""
    benches = [random_bench(rng, f"bench-{i}", count_cap=5000) for i in range(3)]
    suite = [
        make_test_case(
            f"case-{j}",
            duration=rng.choice((60.0, 120.0, 180.0, 240.0, 300.0, 360.0)),
            movable=rng.randint(0, 2),
            conditions=("rain",) if rng.random() < 0.5 else (),
        )
        for j in range(cases)
    ]
    return suite, benches, _campaign_budget(suite, benches)


def _campaign_budget(suite, benches):
    """Each bench the unbudgeted greedy plan uses, budgeted to 35% of the
    time it spends there."""
    spent = assign_greedy(suite, benches).total_bench_time
    return CapacityBudget({b: float(t * Fraction(7, 20)) for b, t in spent.items()})


def _assert_plan_holds(plan, suite, benches, budget, label):
    """Rebuilds every pick from its index and checks its admissibility,
    its price and the budget from scratch."""
    by_id = {bench.id: bench for bench in benches}
    spent = {}
    for tc in suite:
        picked = plan.assignments.get(tc.id)
        if picked is None:
            continue
        bench = by_id[picked.bench_id]
        config = ConfigurationSpace(bench).at(picked.config_index)
        assert config == picked.configuration, label
        assert check_admissibility(config, bench, derive_requirement_profile(tc)).admissible, label
        assert estimate_cost(config, bench, tc) == picked.cost, label
        spent[bench.id] = spent.get(bench.id, 0) + picked.cost.execution_time
    assert spent == plan.total_bench_time, label
    for bench_id, seconds in spent.items():
        limit = budget.limit(bench_id)
        assert limit is None or seconds <= limit, label
    assert plan.total_cost == sum(a.cost.monetary_cost for a in plan.assignments.values()), label


def test_exact_beats_greedy_on_budgeted_campaigns():
    better = 0
    for cases in (16, 32):
        for seed in range(100, 110):
            suite, benches, budget = _campaign(random.Random(seed), cases)
            plans = [solver(suite, benches, budget) for solver in (assign_greedy, assign_exact)]
            greedy, exact = ((len(p.unassignable), p.total_cost) for p in plans)
            assert exact <= greedy, f"{cases} cases, seed {seed}"
            better += cases == 16 and exact < greedy
            _assert_plan_holds(plans[1], suite, benches, budget, f"{cases} cases, seed {seed}")
    assert better >= 5


# The sha256 of each plan's bytes (``_dump(plan_to_raw(plan))``): the
# greedy's plan without and with the budget, then the exact solver's, for
# campaigns at N = 64 and 128 (rng seed seed·1000 + N) and for a tie
# instance whose repeated test cases tie in cost (its 2-4 cases eight times
# over, under the campaign's budget rule). Recorded from the solvers as they
# were before the label pass came to keep back-pointers; they hold which of
# several optima each solver returns at sizes ``reference_exact`` cannot check.
_PINNED_PLANS = {
    (64, 100): (
        "d229f812c75c188e8abac6d30a90c93338adae508cd25271140a5273dfe60e80",
        "88b493cae3013268086463cf34b62b0fb8d4dcb2b402e8ef02700d000b2bd538",
        "d229f812c75c188e8abac6d30a90c93338adae508cd25271140a5273dfe60e80",
        "7e4eaf695cc3ecd0f96db7e48f0512ab4c32aed38da3ecb45baefa363253d2f2",
    ),
    (64, 101): (
        "24343632615bc9fcae4f2ba92d57b627f4fd40ca761af8d69a50fd48f1740aff",
        "3315973fd9290923fc60ad6134f2dae82e4512d8c42aedbb43808979835073e0",
        "24343632615bc9fcae4f2ba92d57b627f4fd40ca761af8d69a50fd48f1740aff",
        "4f6d7ed9674f2be9eaf73ffa08c3af172e54c8368253d80883b746e6cbb8b96a",
    ),
    (64, 102): (
        "bb76dabaa444ac3fb0625bff0e65b193b899f384bce9fb761209017ab5274519",
        "2f3fdc6d584824c5bff2b857a3ab06c6fc3697f80435f49de4d46d5a34aa41a8",
        "bb76dabaa444ac3fb0625bff0e65b193b899f384bce9fb761209017ab5274519",
        "4314b165c84649b356e30fdd859adb88da66cf45a3df52ffad92dff3602be637",
    ),
    (64, 103): (
        "2afe875bc8cdf2727719615620270acf77adf5318910d40cb17d6d2e48115891",
        "9d8f0d3614b3a9eb63690dcadda635bc85ac7eabd7eba3ec19d51b17e39c9d17",
        "2afe875bc8cdf2727719615620270acf77adf5318910d40cb17d6d2e48115891",
        "9af9a585300266a536344e6c54f8b5ea3f394e073d0aa37b64c0ccca0699bcd2",
    ),
    (64, 104): (
        "5c993575b301d86fc9eb565165edf67f62b74c177ad39afb65ca2eff1a4bbfd4",
        "d8fde6af6f9414d3b5426dbc93207f339b8afd9e6058d7f01caa581dfdec46c0",
        "5c993575b301d86fc9eb565165edf67f62b74c177ad39afb65ca2eff1a4bbfd4",
        "34b43523deee744843ab8464283d1b3a2bed2f1ebef372b444587a5bedd84113",
    ),
    (128, 100): (
        "1156f4b140a0a54de8a7b286f17083753173c2d043495a1fdc08863163743824",
        "2390f6749c0c9656836cc3827520e3987b00d6a9d69cc0f24a1f216857648db6",
        "1156f4b140a0a54de8a7b286f17083753173c2d043495a1fdc08863163743824",
        "9def3c4e613e6866838a54e6aef72fef6a2e7108c92cac2f0275195e1f568082",
    ),
    (128, 101): (
        "8047c3cb22d67239f6b6954c786056d2cf2755d352c45529197887213b9694d1",
        "26cafe92e3c66150c7408237b0f2f42ba9daae130e548c4ae6e7ca5de4ef61c0",
        "8047c3cb22d67239f6b6954c786056d2cf2755d352c45529197887213b9694d1",
        "8ab6ef9571da2c26c92ec62857d393ee67005653d388b4ddd87c258a75a9fcdb",
    ),
    (128, 102): (
        "e09da69364448afabbde443d6b946a6386fb47a7cd3cfb32cbd71ccd8e162a49",
        "4ecf0794fcdf111178a9df475397324e308da75ae61c014ef3212c9dcb234d62",
        "e09da69364448afabbde443d6b946a6386fb47a7cd3cfb32cbd71ccd8e162a49",
        "d4ed183b8f0f652a41719ad152a7fdfb88722f839a2d4315161c698814cde887",
    ),
    (128, 103): (
        "f3d55728ede144a12b0cf644905b076b77e19eb5c823d3d87af7c3174e2c1f86",
        "ad96becd9d57342d66e4c7ac6dae4bac3f2615016f2d86a562b4660858534d6b",
        "f3d55728ede144a12b0cf644905b076b77e19eb5c823d3d87af7c3174e2c1f86",
        "23c0944ac0bd35234f3bf9d5201c5898cfe8d07f19889a5c5f96db681f769675",
    ),
    (128, 104): (
        "c0a632ae1f0d934984e07d89ae0d28fc14e727d27ed185f102d2c228677dde42",
        "726f3528c6b89be339d95671f48ccf421a3731a91362f67ea3714fc0fa505708",
        "c0a632ae1f0d934984e07d89ae0d28fc14e727d27ed185f102d2c228677dde42",
        "0fa30a2090244261263b333f20c10b89bd02f186d682eb0b653fcb8b1e25880c",
    ),
    ('ties', 519): (
        "a649012ae2bf31bc3d113c843e818221d56f7e813e1740e06b902d6bc721d881",
        "003cbaab9f4fbdd270ee7c38d324301b429f19b63db9ff0b858406320326a932",
        "a649012ae2bf31bc3d113c843e818221d56f7e813e1740e06b902d6bc721d881",
        "f30a441f82bfd24397ebc34c4ece2c9a9017c8f9e861fc06d7b11216c8575194",
    ),
}


def _pinned_instance(size, seed):
    if size == "ties":
        suite, benches = _tie_instance(random.Random(seed))
        suite = repeated_cases(suite, 8)
        return suite, benches, _campaign_budget(suite, benches)
    return _campaign(random.Random(seed * 1000 + size), size)


@pytest.mark.parametrize("size, seed", list(_PINNED_PLANS))
def test_plan_bytes_are_pinned(size, seed):
    suite, benches, budget = _pinned_instance(size, seed)
    plans = [
        solver(suite, benches, limits)
        for solver in (assign_greedy, assign_exact)
        for limits in (None, budget)
    ]
    assert plans[0] == plans[2] != plans[1]  # the budget binds
    digests = tuple(hashlib.sha256(_dump(plan_to_raw(p)).encode()).hexdigest() for p in plans)
    assert digests == _PINNED_PLANS[size, seed]


def test_solvers_never_price_through_cost(monkeypatch):
    suite = load_suite(fixture_path("demo_suite.suite.json"))
    budget = load_budget(fixture_path("demo.budget.json"))
    benches = load_registry(fixture_path("fleet_bench.json"))
    solvers = ((assign_greedy, reference_greedy), (assign_exact, reference_exact))
    expected = [
        (limits, solver, reference(suite.test_cases, benches, limits, suite.overrides))
        for limits in (None, budget)
        for solver, reference in solvers
    ]

    def refuse(*args):
        raise AssertionError("a solver priced a configuration through _cost")

    monkeypatch.setattr(assignment, "_cost", refuse)
    for limits, solver, plan in expected:
        assert plan.assignments
        assert solver(suite.test_cases, benches, limits, overrides=suite.overrides) == plan


def test_greedy_builds_only_the_configurations_it_picks(monkeypatch):
    suite = load_suite(fixture_path("demo_suite.suite.json"))
    benches = load_registry(fixture_path("fleet_bench.json"))
    budget = load_budget(fixture_path("demo.budget.json"))
    expected = [
        (limits, reference_greedy(suite.test_cases, benches, limits, suite.overrides))
        for limits in (None, budget)
    ]
    real_cost = assignment._cost

    def refuse_walk(self):
        raise AssertionError("greedy walked a configuration space")

    monkeypatch.setattr(ConfigurationSpace, "__iter__", refuse_walk)
    for limits, plan in expected:
        picked = [a.configuration for a in plan.assignments.values()]
        assert picked  # the check below must have something to let through

        def cost_of_picked_only(space, config, tc, picked=picked):
            if config not in picked:
                raise AssertionError(f"greedy priced an unpicked configuration {config}")
            return real_cost(space, config, tc)

        monkeypatch.setattr(assignment, "_cost", cost_of_picked_only)
        result = assign_greedy(suite.test_cases, benches, limits, overrides=suite.overrides)
        assert result == plan


def test_exact_solves_and_refuses_without_walking(monkeypatch):
    def refuse(*args):
        raise AssertionError("the exact solver walked or priced a configuration")

    bench = uniform_bench(
        "wide",
        combinable={"vehicle-dynamics": True},
        skip_dimensions=("vehicle-dynamics",),
        extra_elements=[
            make_element(f"vd-{i}", "vehicle-dynamics", time_factor=1.0) for i in range(3)
        ],
    )
    suite = [make_test_case(f"case-{i}") for i in range(12)]
    budget = CapacityBudget({"wide": 6 * 360.0})
    expected = assign_greedy(suite, [bench], budget)
    monkeypatch.setattr(ConfigurationSpace, "__iter__", refuse)
    monkeypatch.setattr(assignment, "_cost", refuse)
    assert assign_exact(suite, [bench], budget) == expected
    assert len(expected.assignments) == 6
    monkeypatch.setattr(assignment, "EXACT_MAX_LABELS", 1)
    with pytest.raises(InstanceTooLarge, match="at most 1 partial plans"):
        assign_exact(suite, [bench], budget)


@pytest.mark.parametrize(
    "limit",
    [float("inf"), float("-inf"), float("nan"), 10**400, -(10**400), 10**5000],
    ids=["inf", "-inf", "nan", "10**400", "-10**400", "10**5000"],
)
def test_budget_rejects_non_finite_limits(limit):
    with pytest.raises(ValueError, match="budget for bench 'sil' must be a finite number"):
        CapacityBudget({"sil": limit})


# --- references the solvers refuse ------------------------------------------------


_UNKNOWN_DIMENSION = (
    "unknown dimension: neither canonical nor a dimension of any bench in the registry"
)


@pytest.mark.parametrize("solver", [assign_greedy, assign_exact])
def test_solvers_refuse_an_override_of_an_unknown_dimension(fleet, demo_suite, solver):
    # Misspelt, the override used to require a dimension every bench lacks.
    case = demo_suite.test_cases[1]
    overrides = {case.id: {"enviroment-sensor-system": frozenset({Stage.REAL})}}
    with pytest.raises(SchemaError) as caught:
        solver(demo_suite.test_cases, fleet, overrides=overrides)
    assert caught.value.issues == (
        ("test_cases[1].overrides.enviroment-sensor-system", _UNKNOWN_DIMENSION),
    )


@pytest.mark.parametrize("solver", [assign_greedy, assign_exact])
def test_solvers_refuse_overrides_of_an_unknown_test_case(fleet, demo_suite, solver):
    # They used to be ignored, so every case was assigned as if unconstrained.
    overrides = {
        **demo_suite.overrides,
        "no-such-case": {"vehicle-dynamics": frozenset({Stage.REAL})},
    }
    with pytest.raises(SchemaError) as caught:
        solver(demo_suite.test_cases, fleet, overrides=overrides)
    assert caught.value.issues == (
        ("overrides.no-such-case", "unknown test case: no test case in the suite has this id"),
    )


@pytest.mark.parametrize("solver", [assign_greedy, assign_exact])
def test_solvers_refuse_a_budget_for_an_unknown_bench(fleet, demo_suite, solver):
    # It used to bound nothing.
    budget = CapacityBudget({"nope": 1.0, "sil": 1.0})
    with pytest.raises(SchemaError) as caught:
        solver(demo_suite.test_cases, fleet, budget, overrides=demo_suite.overrides)
    assert caught.value.issues == (
        ("max_bench_time.nope", "unknown bench (available: sil, test-vehicle)"),
    )


def test_exact_refuses_a_reference_before_its_size_guard(sil_bench, monkeypatch):
    monkeypatch.setattr(assignment, "EXACT_MAX_LABELS", 1)
    suite = [make_test_case(f"case-{i}") for i in range(2)]
    with pytest.raises(SchemaError, match=r"max_bench_time\.nope"):
        assign_exact(suite, [sil_bench], CapacityBudget({"nope": 1.0}))
    # Assigning the first test case or skipping it leaves two partial plans.
    with pytest.raises(InstanceTooLarge):
        assign_exact(suite, [sil_bench], CapacityBudget({"sil": 1e6}))


@pytest.mark.parametrize("solver", [assign_greedy, assign_exact])
def test_solvers_refuse_duplicate_test_case_ids(sil_bench, solver):
    suite = [make_test_case("b-case"), make_test_case("a-case"), make_test_case("b-case")]
    with pytest.raises(ValueError) as caught:
        solver(suite, [sil_bench])
    assert str(caught.value) == (
        "duplicate test case ids in suite: ['a-case', 'b-case', 'b-case']"
    )


@pytest.mark.parametrize("solver", [assign_greedy, assign_exact])
def test_solvers_refuse_duplicate_bench_ids(sil_bench, vehicle_bench, solver):
    benches = [sil_bench, vehicle_bench, sil_bench]
    with pytest.raises(ValueError) as caught:
        solver([make_test_case()], benches)
    assert str(caught.value) == "duplicate bench ids: ['sil', 'sil', 'test-vehicle']"


# --- exact prices -----------------------------------------------------------------

_PRICE = st.one_of(
    st.floats(min_value=0.0, max_value=1e300),
    st.sampled_from([0.0, 5e-324, 0.1, 1 / 3, 2.0**-1074 * 3, 1e-300, 2.0**60]),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(_PRICE, _PRICE.filter(bool), _PRICE), min_size=1, max_size=6))
def test_prices_scale_is_the_lcm_of_every_denominator(prices):
    bench = uniform_bench(
        "priced",
        skip_dimensions=("vehicle-dynamics",),
        extra_elements=[
            make_element(f"vd-{i}", "vehicle-dynamics", cost_rate=r, time_factor=t, setup_cost=s)
            for i, (r, t, s) in enumerate(prices)
        ],
    )
    ratios = {
        e.id: [
            value.as_integer_ratio()
            for value in (e.characteristics.time_factor, e.characteristics.cost_rate,
                          e.characteristics.setup_cost)
        ]
        for e in bench.elements
    }
    scale = math.lcm(*(den for pairs in ratios.values() for _, den in pairs))
    assert ConfigurationSpace(bench).prices == (scale, {
        elem_id: tuple(num * (scale // den) for num, den in pairs)
        for elem_id, pairs in ratios.items()
    })


def test_prices_take_the_lcm_of_denominators_that_are_not_powers_of_two(sil_bench):
    element = sil_bench.elements[0]
    thirds = replace(element.characteristics, cost_rate=Fraction(1, 3), setup_cost=Fraction(1, 5))
    bench = replace(
        sil_bench, elements=(replace(element, characteristics=thirds), *sil_bench.elements[1:])
    )
    scale, prices = ConfigurationSpace(bench).prices
    assert scale % 15 == 0
    _, rate, setup = prices[element.id]
    assert Fraction(rate, scale) == Fraction(1, 3)
    assert Fraction(setup, scale) == Fraction(1, 5)


@pytest.mark.parametrize("name", ["fleet_bench.json", "sil_bench.json", "test_vehicle_bench.json"])
def test_checked_columns_compile_as_the_loaded_benches(name):
    """The space a checked bench derives from its columns prices each
    element, and holds its purposes, as the space of the bench a load
    builds does."""
    path = fixture_path(name)
    checked = _checked_registry(path)
    loaded = load_registry(path)
    assert [bench.id for bench in loaded] == list(checked)
    for bench in loaded:
        compiled, space = checked[bench.id].space(), ConfigurationSpace(bench)
        assert compiled.prices == space.prices
        assert {k: frozenset(v) for k, v in compiled.validated_for.items()} == space.validated_for
