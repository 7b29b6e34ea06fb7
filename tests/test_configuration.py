from __future__ import annotations

import random
from collections import Counter

from benchlattice import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchlattice.configuration import (
    ConfigurationSpace,
    TestMethodName,
    classify_test_method,
    configuration_cap,
    count_configurations,
    enumerate_configurations,
    iter_configurations,
    require_same_bench,
)
from benchlattice.assignment import _refusals
from benchlattice.errors import (
    CombinatorialLimitExceeded,
    ContradictoryOverride,
    ConfigurationError,
    ForeignConfiguration,
)
from benchlattice.taxonomy import (
    CANONICAL_DIMENSION_IDS,
    Stage,
    leaf_dimensions,
    new_bench,
    substantiate_dimension,
    validate_bench,
    with_elements,
)
from benchlattice.testcase import derive_requirement_profile
from helpers import (
    PURPOSES,
    STAGES,
    make_element,
    make_test_case,
    random_bench,
    reference_classify,
    reference_configurations,
    reference_refusals,
    uniform_bench,
)


def test_sil_bench_enumerates_two_configurations(sil_bench):
    configs = enumerate_configurations(sil_bench)
    assert len(configs) == 2
    selected = [config.selection["vehicle-dynamics"] for config in configs]
    assert selected == [("vd-single-track",), ("vd-double-track",)]
    # The rest of the selection is identical: one element everywhere else.
    for config in configs:
        for leaf, picked in config.selection.items():
            if leaf != "vehicle-dynamics":
                assert len(picked) == 1


def test_single_element_bench_has_one_configuration(vehicle_bench):
    configs = enumerate_configurations(vehicle_bench)
    assert len(configs) == 1
    assert count_configurations(vehicle_bench) == 1


def test_combinable_movable_objects_gives_seven():
    bench = uniform_bench(
        skip_dimensions=("movable-objects",),
        extra_elements=[
            make_element("real-car", "movable-objects", Stage.REAL),
            make_element("balloon", "movable-objects", Stage.EMULATED),
            make_element("sim-car", "movable-objects", Stage.SIMULATED),
        ],
    )
    configs = enumerate_configurations(bench)
    assert count_configurations(bench) == 7
    assert len(configs) == 7
    subsets = [config.selection["movable-objects"] for config in configs]
    # Lexicographic in declaration-index order, never empty.
    assert subsets == [
        ("real-car",),
        ("real-car", "balloon"),
        ("real-car", "balloon", "sim-car"),
        ("real-car", "sim-car"),
        ("balloon",),
        ("balloon", "sim-car"),
        ("sim-car",),
    ]


def test_enumeration_is_deterministic(sil_bench):
    assert enumerate_configurations(sil_bench) == enumerate_configurations(sil_bench)


def test_enumeration_streams(sil_bench):
    assert list(iter_configurations(sil_bench)) == enumerate_configurations(sil_bench)


def test_cap_exceeded():
    bench = uniform_bench(
        skip_dimensions=("scenery",),
        extra_elements=[
            make_element(f"scenery-{i}", "scenery", Stage.SIMULATED) for i in range(3)
        ],
    )
    assert count_configurations(bench) == 3
    with pytest.raises(CombinatorialLimitExceeded) as excinfo:
        enumerate_configurations(bench, cap=2)
    assert excinfo.value.count == 3
    assert excinfo.value.cap == 2


def test_cap_env_var(monkeypatch, sil_bench):
    monkeypatch.setenv("BENCHLATTICE_CONFIG_CAP", "1")
    with pytest.raises(CombinatorialLimitExceeded):
        enumerate_configurations(sil_bench)
    monkeypatch.setenv("BENCHLATTICE_CONFIG_CAP", "2")
    assert len(enumerate_configurations(sil_bench)) == 2


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_cap_env_var_must_be_a_positive_integer(monkeypatch, sil_bench, value):
    monkeypatch.setenv("BENCHLATTICE_CONFIG_CAP", value)
    with pytest.raises(ConfigurationError) as excinfo:
        configuration_cap()
    assert "BENCHLATTICE_CONFIG_CAP" in str(excinfo.value)
    assert repr(value) in str(excinfo.value)
    with pytest.raises(ConfigurationError):
        enumerate_configurations(sil_bench)


# Every 25th bench of acceptance criterion 3, same generator arguments.
@pytest.mark.parametrize("seed", range(0, 1000, 25))
def test_space_matches_brute_force_reference(seed):
    bench = random_bench(
        random.Random(seed), f"rand-{seed}", max_elements=3, count_cap=10_000
    )
    reference = list(reference_configurations(bench))
    space = ConfigurationSpace(bench)
    assert space.count == len(reference)
    assert [space.at(i) for i in range(space.count)] == reference
    assert list(space) == reference


def test_space_matches_reference_with_substantiated_combinable_leaf():
    draft = substantiate_dimension(new_bench("subst"), "movable-objects", ["cars", "pedestrians"])
    bench = validate_bench(
        with_elements(
            draft,
            [
                make_element(f"{dim}-el", dim)
                for dim in (
                    "test-object",
                    "driver-user-behavior",
                    "environment-sensor-system",
                    "scenery",
                    "environmental-conditions",
                    "localization-sensor-system",
                    "v2x-communication",
                    "residual-vehicle",
                )
            ]
            + [make_element(f"vd-{i}", "vehicle-dynamics") for i in range(2)]
            + [make_element(f"car-{i}", "cars", Stage.REAL) for i in range(4)]
            + [make_element(f"ped-{i}", "pedestrians") for i in range(3)],
        )
    )
    space = ConfigurationSpace(bench)
    assert [leaf.id for leaf in space.leaves if leaf.parent] == ["cars", "pedestrians"]
    assert space.count == 2 * 15 * 7
    reference = list(reference_configurations(bench))
    assert [space.at(i) for i in range(space.count)] == reference
    assert list(space) == reference


def test_singleton_offsets_sum_to_the_index_of_those_singletons():
    # Far past any cap: at() computes the configuration from its index.
    both = 0
    for seed in range(200):
        rng = random.Random(seed)
        bench = random_bench(rng, f"rand-{seed}", max_elements=4, count_cap=10**12)
        space = ConfigurationSpace(bench)
        picks = [rng.randrange(len(ids)) for ids in space.ids_per_leaf]
        index = sum(offsets[i] for offsets, i in zip(space.singleton_offsets, picks))
        assert space.at(index).selection == {
            leaf_id: (ids[i],)
            for leaf_id, ids, i in zip(space.leaf_ids, space.ids_per_leaf, picks)
        }, f"seed {seed}"
        both += any(leaf.parent for leaf in space.leaves) and any(
            leaf.combinable and len(ids) > 1
            for leaf, ids in zip(space.leaves, space.ids_per_leaf)
        )
    assert both >= 40


@pytest.mark.parametrize("seed", range(0, 1000, 50))
def test_walk_matches_filtered_reference(seed):
    # Walking a space is iterating it; enumerate() numbers the configurations
    # and a filter on element ids keeps the configurations a caller can use.
    rng = random.Random(seed)
    bench = random_bench(rng, f"rand-{seed}", count_cap=2_000)
    usable = {elem.id for elem in bench.elements if rng.random() < 0.85}
    expected = [
        (index, config)
        for index, config in enumerate(reference_configurations(bench))
        if set(config.selected_ids()) <= usable
    ]
    space = ConfigurationSpace(bench)
    walked = [
        (index, config)
        for index, config in enumerate(space)
        if set(config.selected_ids()) <= usable
    ]
    assert walked == expected
    assert all(space.at(index) == config for index, config in walked)


def test_walk_lists_choices_once_per_space(monkeypatch):
    bench = uniform_bench(
        "wide",
        combinable={"vehicle-dynamics": True},
        skip_dimensions=("vehicle-dynamics",),
        extra_elements=[make_element(f"vd-{i}", "vehicle-dynamics") for i in range(3)],
    )
    space = ConfigurationSpace(bench)
    calls = []
    real_choice = ConfigurationSpace._choice

    def counting_choice(self, leaf_index, rank):
        calls.append((leaf_index, rank))
        return real_choice(self, leaf_index, rank)

    monkeypatch.setattr(ConfigurationSpace, "_choice", counting_choice)
    first = list(space)
    listed = sum(space.choice_counts)
    assert len(calls) == listed and 7 in space.choice_counts
    assert list(space) == first == list(reference_configurations(bench))
    assert len(calls) == listed


def test_lookup_lists_no_choices():
    bench = uniform_bench(
        "wide",
        skip_dimensions=("movable-objects",),
        extra_elements=[make_element(f"m{i}", "movable-objects") for i in range(24)],
    )
    space = ConfigurationSpace(bench)
    assert space.at(space.count - 1).selection["movable-objects"] == ("m23",)
    assert "_choices" not in vars(space)


def test_space_index_out_of_range():
    space = ConfigurationSpace(uniform_bench())
    assert space.count == 1
    for index in (-1, 1):
        with pytest.raises(ConfigurationError, match="has 1 configurations"):
            space.at(index)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10**9))
def test_count_matches_enumeration_length(seed):
    bench = random_bench(random.Random(seed), "rand", count_cap=500)
    assert count_configurations(bench) == len(enumerate_configurations(bench))


@pytest.mark.parametrize("seed", range(20))
def test_enumeration_sound_and_complete(seed):
    bench = random_bench(random.Random(seed), "rand", max_elements=2, count_cap=200)
    leaves = leaf_dimensions(bench)
    configs = enumerate_configurations(bench)
    assert len(set(map(repr, configs))) == len(configs)  # no duplicates

    by_leaf = {leaf.id: [] for leaf in leaves}
    for elem in bench.elements:
        by_leaf[elem.dimension].append(elem.id)

    seen_selections = {leaf.id: set() for leaf in leaves}
    for config in configs:
        assert set(config.selection) == {leaf.id for leaf in leaves}
        for leaf in leaves:
            picked = config.selection[leaf.id]
            assert picked, "every leaf must select at least one element"
            assert set(picked) <= set(by_leaf[leaf.id])
            if not leaf.combinable:
                assert len(picked) == 1
            seen_selections[leaf.id].add(picked)

    # Completeness: every admissible per-leaf selection occurs somewhere.
    for leaf in leaves:
        elems = by_leaf[leaf.id]
        if leaf.combinable:
            expected = 2 ** len(elems) - 1
        else:
            expected = len(elems)
        assert len(seen_selections[leaf.id]) == expected


def test_classify_sil_configurations(sil_bench):
    for config in enumerate_configurations(sil_bench):
        assert classify_test_method(config, sil_bench) is TestMethodName.SOFTWARE_IN_THE_LOOP


def test_classify_test_vehicle(vehicle_bench):
    (config,) = enumerate_configurations(vehicle_bench)
    assert classify_test_method(config, vehicle_bench) is TestMethodName.TEST_VEHICLE


def _single_config(bench):
    (config,) = enumerate_configurations(bench)
    return config


def test_classify_hardware_in_the_loop():
    bench = uniform_bench(
        skip_dimensions=("test-object",),
        extra_elements=[make_element("ecu", "test-object", Stage.REAL)],
    )
    assert classify_test_method(_single_config(bench), bench) is TestMethodName.HARDWARE_IN_THE_LOOP


def test_classify_driver_in_the_loop():
    bench = uniform_bench(
        skip_dimensions=("driver-user-behavior",),
        extra_elements=[make_element("driver", "driver-user-behavior", Stage.REAL)],
    )
    assert classify_test_method(_single_config(bench), bench) is TestMethodName.DRIVER_IN_THE_LOOP


def test_classify_vehicle_in_the_loop():
    bench = uniform_bench(
        "vil",
        Stage.REAL,
        skip_dimensions=("movable-objects", "environment-sensor-system"),
        extra_elements=[
            make_element("balloon", "movable-objects", Stage.EMULATED),
            make_element("sensors", "environment-sensor-system", Stage.REAL),
        ],
    )
    assert classify_test_method(_single_config(bench), bench) is TestMethodName.VEHICLE_IN_THE_LOOP


def test_classify_unclassified_mixture():
    # One real camera, everything else simulated: none of the named patterns.
    bench = uniform_bench(
        skip_dimensions=("environment-sensor-system",),
        extra_elements=[make_element("camera", "environment-sensor-system", Stage.REAL)],
    )
    assert classify_test_method(_single_config(bench), bench) is TestMethodName.UNCLASSIFIED


@pytest.mark.parametrize("seed", range(15))
def test_classification_total(seed):
    bench = random_bench(random.Random(seed), "rand", max_elements=2, count_cap=64)
    for config in enumerate_configurations(bench):
        assert classify_test_method(config, bench) in TestMethodName


SIM, EMU, REAL = STAGES
_MOSTLY_SIMULATED, _MOSTLY_REAL = (SIM,) * 10 + (EMU, REAL), (REAL,) * 10 + (SIM, EMU)
_ANCHORS = ("test-object", "vehicle-dynamics", "residual-vehicle")
# Stage draws per canonical dimension, each favouring one test method, so
# that every method occurs; None draws all three stages alike.
_STAGE_BIASES = (
    None,
    dict.fromkeys(CANONICAL_DIMENSION_IDS, _MOSTLY_REAL),
    dict.fromkeys(CANONICAL_DIMENSION_IDS, _MOSTLY_SIMULATED),
    {**dict.fromkeys(CANONICAL_DIMENSION_IDS, _MOSTLY_SIMULATED), "test-object": _MOSTLY_REAL},
    {
        **dict.fromkeys(CANONICAL_DIMENSION_IDS, _MOSTLY_SIMULATED),
        "driver-user-behavior": _MOSTLY_REAL,
    },
    {**dict.fromkeys(_ANCHORS, _MOSTLY_REAL), "movable-objects": (SIM, EMU, REAL, EMU)},
)


def test_classify_matches_the_set_based_rules():
    """The stage-bit classifier names every configuration of random benches
    (with sub-dimensions, combinable leaves and stage-biased draws) as the
    rules on stage sets do."""
    methods: Counter = Counter()
    substantiated = multi_selections = 0
    for seed in range(120):
        rng = random.Random(4100 + seed)
        bench = random_bench(
            rng, f"bench-{seed}", count_cap=400, stages=_STAGE_BIASES[seed % len(_STAGE_BIASES)]
        )
        space = ConfigurationSpace(bench)
        substantiated += any(leaf.parent for leaf in space.leaves)
        for config in space:
            method = space.classify(config)
            assert method is reference_classify(config, bench), (seed, config.selection)
            methods[method] += 1
            multi_selections += any(len(ids) > 1 for ids in config.selection.values())
    assert set(methods) == set(TestMethodName), methods
    assert min(methods.values()) >= 10, methods
    assert substantiated >= 20 and multi_selections >= 1000


def _random_overrides(rng, dimensions):
    """Overrides of one to three dimensions, each admitting none to all of
    the stages; a required dimension is never emptied."""
    picked = rng.sample(dimensions, k=rng.randint(1, 3))
    return {dim: frozenset(rng.sample(STAGES, k=rng.randint(0, 3))) for dim in picked}


def test_refusals_match_a_per_element_check():
    """Element refusal codes from stage bits equal a check of each element's
    stage against the set of the entry that governs its leaf, under
    overrides of canonical and sub-dimensions that admit one, two and three
    stages (and none, where the dimension is not required)."""
    admitted: Counter = Counter()
    codes: Counter = Counter()
    sub_entries = 0
    for seed in range(200):
        rng = random.Random(4400 + seed)
        bench = random_bench(rng, f"bench-{seed}", count_cap=200)
        space = ConfigurationSpace(bench)
        subs = [leaf.id for leaf in space.leaves if leaf.parent]
        case = make_test_case(
            purpose=rng.choice(PURPOSES), movable=rng.randint(0, 1),
            conditions=rng.choice(((), ("rain",))),
        )
        for _ in range(5):
            overrides = _random_overrides(rng, [*CANONICAL_DIMENSION_IDS, *subs])
            try:
                profile = derive_requirement_profile(case, overrides)
            except ContradictoryOverride:
                continue
            refusals = _refusals(space, profile)
            assert list(refusals.items()) == list(reference_refusals(bench, profile).items())
            admitted.update(len(stages) for stages in overrides.values())
            sub_entries += any(dim in subs for dim in overrides)
            codes.update(refusals.values())
    assert min(admitted[k] for k in (1, 2, 3)) >= 100 and admitted[0] >= 10, admitted
    assert sub_entries >= 50 and set(codes) == {0, 1, 2, 3}, (sub_entries, codes)


def test_foreign_configuration_rejected(sil_bench, vehicle_bench):
    config = enumerate_configurations(vehicle_bench)[0]
    with pytest.raises(ForeignConfiguration):
        classify_test_method(config, sil_bench)


def test_tampered_selection_rejected(sil_bench):
    config = enumerate_configurations(sil_bench)[0]
    tampered = replace(
        config,
        selection={**config.selection, "vehicle-dynamics": ("not-an-element",)},
    )
    with pytest.raises(ForeignConfiguration):
        classify_test_method(tampered, sil_bench)


def test_multi_selection_on_non_combinable_leaf_rejected(sil_bench):
    config = enumerate_configurations(sil_bench)[0]
    overfull = replace(
        config,
        selection={
            **config.selection,
            "vehicle-dynamics": ("vd-single-track", "vd-double-track"),
        },
    )
    with pytest.raises(ForeignConfiguration):
        classify_test_method(overfull, sil_bench)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"radar": None}, "configuration leaves {} do not match bench leaves {}"),
        ({"holodeck": ("deck",)}, "configuration leaves {} do not match bench leaves {}"),
        ({"scenery": ()}, "empty selection on leaf 'scenery'"),
        ({"movable-objects": ("traffic-model", "traffic-model")},
         "repeated elements selected on 'movable-objects'"),
    ],
    ids=["leaf-missing", "leaf-unknown", "empty-selection", "repeated-element"],
)
def test_require_same_bench_names_the_mismatch(sil_bench, change, message):
    config = enumerate_configurations(sil_bench)[0]
    selection = {**config.selection, **change}
    selection = {leaf: picked for leaf, picked in selection.items() if picked is not None}
    leaves = sorted(leaf.id for leaf in leaf_dimensions(sil_bench))
    with pytest.raises(ForeignConfiguration) as excinfo:
        require_same_bench(replace(config, selection=selection), sil_bench)
    assert str(excinfo.value) == message.format(sorted(selection), leaves)
    require_same_bench(config, sil_bench)  # the configuration itself passes
