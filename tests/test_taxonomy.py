from __future__ import annotations

import pickle
import random
from benchlattice import replace

import pytest

from benchlattice.configuration import ConfigurationSpace
from benchlattice.errors import (
    AlreadySubstantiated,
    BenchValidationWarning,
    DuplicateId,
    ElementOnNonLeaf,
    EmptyLeaf,
    EmptySubNames,
    ParentHoldsElements,
    TaxonomyError,
    UnknownDimension,
)
from benchlattice.taxonomy import (
    CANONICAL_DIMENSION_IDS,
    Characteristics,
    DimensionKind,
    DimensionNode,
    Stage,
    TestBench,
    canonical_dimension_of,
    leaf_dimensions,
    new_bench,
    substantiate_dimension,
    validate_bench,
    with_elements,
)
from helpers import make_element, random_bench, uniform_bench


def test_exactly_three_stages_with_bijective_chart_index():
    assert len(Stage) == 3
    assert {stage.chart_index for stage in Stage} == {1, 2, 3}
    assert Stage.SIMULATED.chart_index == 1
    assert Stage.EMULATED.chart_index == 2
    assert Stage.REAL.chart_index == 3


def test_each_stage_carries_one_bit_in_declared_order():
    assert [(stage.value, stage.bit) for stage in Stage] == [
        ("simulated", 1), ("emulated", 2), ("real", 4),
    ]
    assert all(stage.chart_index == stage.bit.bit_length() for stage in Stage)
    # Members are still looked up, copied and pickled by their value alone.
    assert Stage("emulated") is Stage.EMULATED
    assert pickle.loads(pickle.dumps(Stage.REAL)) is Stage.REAL


def test_canonical_dimensions_present_and_ordered():
    bench = new_bench("draft")
    assert [n.id for n in bench.dimension_tree] == list(CANONICAL_DIMENSION_IDS)
    assert CANONICAL_DIMENSION_IDS[0] == "test-object"
    assert CANONICAL_DIMENSION_IDS[-1] == "residual-vehicle"
    assert len(CANONICAL_DIMENSION_IDS) == 10


def test_combinable_defaults():
    bench = new_bench("draft")
    flags = {n.id: n.combinable for n in bench.dimension_tree}
    assert flags.pop("movable-objects") is True
    assert not any(flags.values())


def test_combinable_override():
    bench = new_bench("draft", combinable_overrides={"scenery": True, "movable-objects": False})
    assert bench.node("scenery").combinable is True
    assert bench.node("movable-objects").combinable is False


_LABELS = (
    "Test object", "Driver / user behavior", "Vehicle dynamics", "Environment sensor system",
    "Scenery", "Movable objects", "Environmental conditions", "Localization sensor system",
    "V2X communication", "Residual vehicle",
)


@pytest.mark.parametrize(
    "overrides",
    [
        None,
        {"scenery": True, "movable-objects": False},
        {"movable-objects": True, "test-object": False},
        {"scenery": 1, "movable-objects": 0},
    ],
    ids=["defaults", "flipped", "same-as-default", "non-bool"],
)
def test_new_bench_tree_equals_nodes_built_one_by_one(overrides):
    flags = dict(overrides or {})
    expected = tuple(
        DimensionNode(
            id=dim_id,
            display_name=label,
            kind=DimensionKind.CANONICAL,
            combinable=flags.get(dim_id, dim_id == "movable-objects"),
        )
        for dim_id, label in zip(CANONICAL_DIMENSION_IDS, _LABELS)
    )
    tree = new_bench("draft", combinable_overrides=overrides).dimension_tree
    assert tree == expected
    # A non-bool flag is kept as given, not replaced by an equal bool.
    assert [type(node.combinable) for node in tree] == [
        type(node.combinable) for node in expected
    ]


def test_sil_fixture_shape(sil_bench):
    leaves = leaf_dimensions(sil_bench)
    assert len(leaves) == 11
    assert len(sil_bench.elements) == 12
    assert all(e.stage is Stage.SIMULATED for e in sil_bench.elements)
    vd = [e for e in sil_bench.elements if e.dimension == "vehicle-dynamics"]
    assert len(vd) == 2


def test_leaf_order_substitutes_subs_in_place(sil_bench):
    ids = [leaf.id for leaf in leaf_dimensions(sil_bench)]
    assert ids == [
        "test-object",
        "driver-user-behavior",
        "vehicle-dynamics",
        "radar",
        "camera",
        "scenery",
        "movable-objects",
        "environmental-conditions",
        "localization-sensor-system",
        "v2x-communication",
        "residual-vehicle",
    ]
    assert ids.index("radar") < ids.index("camera")


def test_leaf_order_unsubstantiated():
    bench = uniform_bench()
    assert [leaf.id for leaf in leaf_dimensions(bench)] == list(CANONICAL_DIMENSION_IDS)


def test_two_substantiations_give_twelve_leaves():
    bench = new_bench("draft")
    bench = substantiate_dimension(bench, "environment-sensor-system", ["radar", "camera"])
    bench = substantiate_dimension(bench, "vehicle-dynamics", ["lateral", "longitudinal"])
    assert len(leaf_dimensions(bench)) == 12


def test_substantiated_vehicle_dynamics_bench_validates():
    bench = new_bench("draft")
    bench = substantiate_dimension(bench, "vehicle-dynamics", ["lateral", "longitudinal"])
    elements = [
        make_element(f"{leaf.id}-el", leaf.id) for leaf in leaf_dimensions(bench)
    ]
    validated = validate_bench(with_elements(bench, elements))
    assert len(leaf_dimensions(validated)) == 11
    # Re-validation returns an identical value.
    assert validate_bench(validated) == validated


def test_substantiate_twice_rejected():
    bench = new_bench("draft")
    bench = substantiate_dimension(bench, "environment-sensor-system", ["radar"])
    with pytest.raises(AlreadySubstantiated):
        substantiate_dimension(bench, "environment-sensor-system", ["lidar"])


def test_substantiate_parent_with_elements_rejected():
    bench = with_elements(new_bench("draft"), [make_element("s", "scenery")])
    with pytest.raises(ParentHoldsElements):
        substantiate_dimension(bench, "scenery", ["static", "dynamic"])


def test_substantiate_empty_names_rejected():
    with pytest.raises(EmptySubNames):
        substantiate_dimension(new_bench("draft"), "scenery", [])


def test_substantiate_duplicate_names_rejected():
    with pytest.raises(DuplicateId):
        substantiate_dimension(new_bench("draft"), "scenery", ["a", "a"])


def test_substantiate_sub_dimension_rejected():
    bench = substantiate_dimension(new_bench("draft"), "scenery", ["a"])
    with pytest.raises(TaxonomyError):
        substantiate_dimension(bench, "a", ["deeper"])


def test_element_on_substantiated_parent_rejected():
    bench = substantiate_dimension(
        new_bench("b"), "environment-sensor-system", ["radar", "camera"]
    )
    elements = [make_element(f"{d}-el", d) for d in CANONICAL_DIMENSION_IDS]
    with pytest.raises(ElementOnNonLeaf):
        validate_bench(with_elements(bench, elements))


def test_missing_leaf_element_rejected():
    elements = [
        make_element(f"{d}-el", d)
        for d in CANONICAL_DIMENSION_IDS
        if d != "v2x-communication"
    ]
    with pytest.raises(EmptyLeaf):
        validate_bench(with_elements(new_bench("b"), elements))


def test_duplicate_element_id_rejected():
    elements = [make_element(f"{d}-el", d) for d in CANONICAL_DIMENSION_IDS]
    elements.append(make_element("scenery-el", "scenery"))
    with pytest.raises(DuplicateId):
        validate_bench(with_elements(new_bench("b"), elements))


def test_unknown_dimension_rejected():
    elements = [make_element(f"{d}-el", d) for d in CANONICAL_DIMENSION_IDS]
    elements.append(make_element("x", "holodeck"))
    with pytest.raises(UnknownDimension):
        validate_bench(with_elements(new_bench("b"), elements))


def test_validate_is_idempotent(sil_bench):
    assert validate_bench(sil_bench) == sil_bench


def test_test_object_substantiation_warns():
    bench = new_bench("draft")
    bench = substantiate_dimension(bench, "test-object", ["planner", "controller"])
    elements = [make_element(f"{leaf.id}-el", leaf.id) for leaf in leaf_dimensions(bench)]
    with pytest.warns(BenchValidationWarning):
        validate_bench(with_elements(bench, elements))


@pytest.mark.parametrize("seed", range(25))
def test_leaves_refine_canonical_partition(seed):
    bench = random_bench(random.Random(seed), f"rand-{seed}")
    leaves = leaf_dimensions(bench)
    canonical = [canonical_dimension_of(bench, leaf.id) for leaf in leaves]
    # Every leaf maps to exactly one canonical dimension, and together the
    # leaves cover all ten without overlap between distinct parents.
    assert set(canonical) == set(CANONICAL_DIMENSION_IDS)
    for leaf in leaves:
        node = bench.node(leaf.id)
        if node.kind is DimensionKind.SUB_DIMENSION:
            assert node.parent in CANONICAL_DIMENSION_IDS


def test_characteristics_invariants():
    with pytest.raises(TaxonomyError):
        Characteristics(cost_rate=-1.0)
    with pytest.raises(TaxonomyError):
        Characteristics(time_factor=0.0)
    with pytest.raises(TaxonomyError):
        Characteristics(setup_cost=-0.5)
    assert Characteristics(validated_for=()).validated_for == frozenset()


@pytest.mark.parametrize("name", ["cost_rate", "time_factor", "setup_cost"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_characteristics_must_be_finite(name, value):
    with pytest.raises(TaxonomyError, match=f"{name} must be finite"):
        Characteristics(**{name: value})


@pytest.mark.parametrize("name", ["cost_rate", "time_factor", "setup_cost"])
@pytest.mark.parametrize(
    "value", [10**400, -(10**400), 10**5000], ids=["huge", "negative", "past-digit-limit"]
)
def test_characteristics_reject_integers_past_the_float_range(name, value):
    with pytest.raises(TaxonomyError, match=f"{name} must be finite, got a number past"):
        Characteristics(**{name: value})


def test_elements_sorted_into_spoke_order(sil_bench):
    ranks = {leaf.id: i for i, leaf in enumerate(leaf_dimensions(sil_bench))}
    positions = [ranks[e.dimension] for e in sil_bench.elements]
    assert positions == sorted(positions)
    vd = [e.id for e in sil_bench.elements if e.dimension == "vehicle-dynamics"]
    assert vd == ["vd-single-track", "vd-double-track"]


def test_missing_canonical_dimension_rejected():
    bench = uniform_bench()
    broken = replace(
        bench,
        dimension_tree=tuple(n for n in bench.dimension_tree if n.id != "scenery"),
    )
    with pytest.raises(TaxonomyError):
        validate_bench(broken)


def _reference_leaves(nodes):
    """Leaves by the documented order, sorted from scratch: canonical rank,
    each parent followed by its subs, declaration order among equals."""
    position = {node.id: i for i, node in enumerate(nodes)}
    rank = {dim_id: i for i, dim_id in enumerate(CANONICAL_DIMENSION_IDS)}

    def key(node):
        anchor = node.id if node.parent is None else node.parent
        return (rank.get(anchor, len(rank)), node.parent is not None, position[node.id])

    ordered = sorted(nodes, key=key)
    parents = {node.parent for node in ordered if node.parent is not None}
    return tuple(node for node in ordered if node.id not in parents)


def _sub(sub_id, parent):
    return DimensionNode(sub_id, sub_id, DimensionKind.SUB_DIMENSION, parent)


_CANONICAL_TREE = new_bench("b").dimension_tree


@pytest.mark.parametrize(
    "tree",
    [
        _CANONICAL_TREE,
        _CANONICAL_TREE[::-1],
        _CANONICAL_TREE[1:] + _CANONICAL_TREE[:1],
        (
            *_CANONICAL_TREE,
            _sub("radar", "environment-sensor-system"),
            _sub("camera", "environment-sensor-system"),
        ),
        (
            _sub("camera", "environment-sensor-system"),
            *_CANONICAL_TREE[::-1],
            _sub("lidar", "scenery"),
        ),
        (*_CANONICAL_TREE, DimensionNode("holodeck", "Holodeck", DimensionKind.CANONICAL)),
        (DimensionNode("holodeck", "Holodeck", DimensionKind.CANONICAL), *_CANONICAL_TREE),
        # The canonical ids in canonical order, one of them a sub-dimension
        # of another: not canonical order, since a sub follows its parent.
        (*_CANONICAL_TREE[:4], _sub("scenery", "test-object"), *_CANONICAL_TREE[5:]),
    ],
    ids=[
        "canonical", "reversed", "rotated", "subs-in-place", "subs-out-of-order",
        "unknown-last", "unknown-first", "sub-with-a-canonical-id",
    ],
)
def test_leaves_follow_canonical_order_whatever_the_tree_order(tree):
    bench = TestBench("b", "b", tree)
    expected = _reference_leaves(tree)
    assert leaf_dimensions(bench) == expected
    assert ConfigurationSpace(bench).leaves == expected


def test_a_sub_dimension_with_a_canonical_id_is_ordered_after_its_parent():
    tree = (*_CANONICAL_TREE[:4], _sub("scenery", "test-object"), *_CANONICAL_TREE[5:])
    assert [node.id for node in tree] == list(CANONICAL_DIMENSION_IDS)
    elements = [make_element(f"{leaf.id}-el", leaf.id) for leaf in _reference_leaves(tree)]
    with pytest.warns(BenchValidationWarning, match="substantiates the test-object"):
        validated = validate_bench(with_elements(TestBench("b", "b", tree), elements[::-1]))
    assert [node.id for node in validated.dimension_tree][:2] == ["test-object", "scenery"]
    assert [e.dimension for e in validated.elements] == [
        leaf.id for leaf in _reference_leaves(tree)
    ]


@pytest.mark.parametrize(
    "extra, error, message",
    [
        # The first offender in declaration order is named, whichever rule it breaks.
        ([("scenery-el", "v2x-communication"), ("x", "holodeck")], DuplicateId,
         "duplicate element id 'scenery-el' in bench 'b'"),
        ([("x", "holodeck"), ("scenery-el", "v2x-communication")], UnknownDimension,
         "element 'x' references unknown dimension 'holodeck'"),
        ([("y", "environment-sensor-system"), ("scenery-el", "scenery")], ElementOnNonLeaf,
         "element 'y' sits on substantiated dimension 'environment-sensor-system'"),
        ([("z", "radar"), ("z", "camera")], DuplicateId,
         "duplicate element id 'z' in bench 'b'"),
    ],
)
def test_the_first_offending_element_is_named(extra, error, message):
    bench = substantiate_dimension(
        new_bench("b"), "environment-sensor-system", ["radar", "camera"]
    )
    elements = [make_element(f"{leaf.id}-el", leaf.id) for leaf in leaf_dimensions(bench)]
    elements += [make_element(elem_id, dimension) for elem_id, dimension in extra]
    with pytest.raises(error) as excinfo:
        validate_bench(with_elements(bench, elements))
    assert str(excinfo.value) == message


def test_the_first_empty_leaf_in_leaf_order_is_named():
    bench = substantiate_dimension(new_bench("b"), "scenery", ["road", "track"])
    elements = [
        make_element(f"{leaf.id}-el", leaf.id)
        for leaf in leaf_dimensions(bench)
        if leaf.id not in ("track", "residual-vehicle")
    ]
    with pytest.raises(EmptyLeaf, match="leaf dimension 'track' of bench 'b' holds no element"):
        validate_bench(with_elements(bench, elements[::-1]))


def test_a_canonical_node_with_a_parent_is_refused():
    with pytest.raises(TaxonomyError) as excinfo:
        DimensionNode("scenery", "Scenery", DimensionKind.CANONICAL, parent="test-object")
    assert str(excinfo.value) == "canonical dimension 'scenery' cannot have a parent"


def test_new_bench_refuses_a_combinable_override_of_an_unknown_dimension():
    with pytest.raises(UnknownDimension) as excinfo:
        new_bench("b", combinable_overrides={"scenery": True, "holodeck": True, "aether": False})
    assert str(excinfo.value) == (
        "combinable overrides for unknown dimensions: ['aether', 'holodeck']"
    )


@pytest.mark.parametrize(
    "extra, error, message",
    [
        ((_sub("radar", "environment-sensor-system"), _sub("radar", "scenery")), DuplicateId,
         "duplicate dimension id 'radar' in bench 'b'"),
        ((_sub("radar", "environment-sensor-system"), _sub("lidar", "radar")), TaxonomyError,
         "sub-dimension 'lidar' hangs off non-canonical 'radar'; "
         "substantiation depth is one level"),
        ((DimensionNode("holodeck", "Holodeck", DimensionKind.CANONICAL),
          _sub("deck-a", "holodeck")), TaxonomyError,
         "sub-dimension 'deck-a' hangs off non-canonical 'holodeck'; "
         "substantiation depth is one level"),
    ],
    ids=["duplicate-dimension", "sub-of-a-sub", "sub-of-an-unknown-canonical"],
)
def test_validate_bench_refuses_a_malformed_tree(extra, error, message):
    bench = TestBench("b", "b", (*_CANONICAL_TREE, *extra))
    with pytest.raises(error) as excinfo:
        validate_bench(bench)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_a_sub_dimension_whose_parent_is_missing_misses_a_canonical_dimension():
    # A sub-dimension's parent is canonical, and every canonical dimension is
    # checked for before any parent: a missing parent is a missing canonical one.
    tree = (*(n for n in _CANONICAL_TREE if n.id != "scenery"), _sub("road", "scenery"))
    with pytest.raises(TaxonomyError) as excinfo:
        validate_bench(TestBench("b", "b", tree))
    assert str(excinfo.value) == "bench 'b' misses canonical dimension 'scenery'"
