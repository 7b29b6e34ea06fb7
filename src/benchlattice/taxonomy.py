"""Core domain model for test benches.

A test bench is described along ten canonical dimensions, each naming one
functionality the bench must provide (test object, driver/user behavior,
vehicle dynamics, ...). A dimension may be substantiated into sub-dimensions
(e.g. the environment sensor system into radar and camera), and every leaf
dimension holds one or more concrete elements, each classified on the
nominal scale simulated / emulated / real.

Values are immutable after validation; every operation that "modifies" a
bench returns a new value.
"""

from __future__ import annotations

import sys
import warnings
from enum import Enum
from operator import attrgetter, gt
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import (
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
from .frozen import Frozen, replace

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Stage",
    "DimensionKind",
    "DimensionNode",
    "Characteristics",
    "Element",
    "TestBench",
    "CapacityBudget",
    "CANONICAL_DIMENSION_IDS",
    "new_bench",
    "with_elements",
    "substantiate_dimension",
    "validate_bench",
    "leaf_dimensions",
    "canonical_dimension_of",
    "elements_by_dimension",
]


class Stage(Enum):
    """Nominal classification of an element.

    The scale carries no order for matching purposes. Each member carries
    one ``bit`` (simulated 1, emulated 2, real 4), so that a set of stages
    is an int; ``chart_index``, the bit's length, exists only to place
    radar-chart rings (1 = simulated, 2 = emulated, 3 = real).
    """

    SIMULATED = "simulated", 1
    EMULATED = "emulated", 2
    REAL = "real", 4

    def __new__(cls, value: str, bit: int) -> "Stage":
        member = object.__new__(cls)
        member._value_ = value
        member.bit = bit
        return member

    @property
    def chart_index(self) -> int:
        return self.bit.bit_length()

    @classmethod
    def from_name(cls, name: str) -> "Stage":
        try:
            return _BY_NAME[name]
        except (KeyError, TypeError):
            raise TaxonomyError(
                f"unknown stage {name!r}; expected one of "
                f"{', '.join(s.value for s in cls)}"
            ) from None


_BY_NAME = {stage.value: stage for stage in Stage}
_FLOAT_MAX = sys.float_info.max


class DimensionKind(Enum):
    CANONICAL = "canonical"
    SUB_DIMENSION = "sub-dimension"


_set = object.__setattr__


class DimensionNode(Frozen):
    __slots__ = ("id", "display_name", "kind", "parent", "combinable")

    def __init__(
        self, id: str, display_name: str, kind: DimensionKind, parent: str | None = None,
        combinable: bool = False,
    ) -> None:
        if kind is DimensionKind.SUB_DIMENSION and parent is None:
            raise TaxonomyError(f"sub-dimension {id!r} needs a parent")
        if kind is DimensionKind.CANONICAL and parent is not None:
            raise TaxonomyError(f"canonical dimension {id!r} cannot have a parent")
        _set(self, "id", id)
        _set(self, "display_name", display_name)
        _set(self, "kind", kind)
        _set(self, "parent", parent)
        _set(self, "combinable", combinable)


# Canonical dimensions in their fixed presentation order. Only movable
# objects defaults to combinable: mixing real, emulated and simulated traffic
# objects in one run is the established practice; other dimensions pick
# exactly one element unless a bench overrides the flag. Built once: frozen
# values of str, bool and enum fields, shared by every bench that keeps the
# default flag.
_CANONICAL_NODES: tuple[DimensionNode, ...] = tuple(
    DimensionNode(id=dim_id, display_name=label, kind=DimensionKind.CANONICAL, combinable=flag)
    for dim_id, label, flag in (
        ("test-object", "Test object", False),
        ("driver-user-behavior", "Driver / user behavior", False),
        ("vehicle-dynamics", "Vehicle dynamics", False),
        ("environment-sensor-system", "Environment sensor system", False),
        ("scenery", "Scenery", False),
        ("movable-objects", "Movable objects", True),
        ("environmental-conditions", "Environmental conditions", False),
        ("localization-sensor-system", "Localization sensor system", False),
        ("v2x-communication", "V2X communication", False),
        ("residual-vehicle", "Residual vehicle", False),
    )
)

CANONICAL_DIMENSION_IDS: tuple[str, ...] = tuple(node.id for node in _CANONICAL_NODES)

_CANONICAL_ORDER = {dim_id: i for i, dim_id in enumerate(CANONICAL_DIMENSION_IDS)}

_ID, _PARENT, _DIMENSION = attrgetter("id"), attrgetter("parent"), attrgetter("dimension")


class Characteristics(Frozen):
    """Operational properties of one element.

    ``validated_for`` lists the purposes (free-form tags, compared by exact
    match) for which the element is known to produce usable results;
    ``cost_rate`` is charged per hour of execution time; ``time_factor``
    scales the scenario's nominal duration (< 1 runs faster than real time);
    ``setup_cost`` is charged once per run. ``extra`` is an open map reserved
    for further characteristics and is carried through serialization
    untouched; it is copied, and None stands for an empty map.
    """

    __slots__ = ("validated_for", "cost_rate", "time_factor", "setup_cost", "extra")

    def __init__(
        self, validated_for: Iterable[str] = frozenset(), cost_rate: float = 0.0,
        time_factor: float = 1.0, setup_cost: float = 0.0,
        extra: Mapping[str, object] | None = None,
    ) -> None:
        # Built in sorted order (by text, so tags of any type sort), so that a
        # copy or an unpickled value, built here again, prints its set alike.
        _set(self, "validated_for", frozenset(sorted(validated_for, key=str)))
        _set(self, "extra", {} if extra is None else dict(extra))
        for name, value in (
            ("cost_rate", cost_rate), ("time_factor", time_factor), ("setup_cost", setup_cost),
        ):
            # False for NaN; ints past the float range are not finite floats.
            if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                shown = value if isinstance(value, float) else "a number past the float range"
                raise TaxonomyError(f"{name} must be finite, got {shown}")
        if cost_rate < 0:
            raise TaxonomyError(f"cost_rate must be >= 0, got {cost_rate}")
        if time_factor <= 0:
            raise TaxonomyError(f"time_factor must be > 0, got {time_factor}")
        if setup_cost < 0:
            raise TaxonomyError(f"setup_cost must be >= 0, got {setup_cost}")
        _set(self, "cost_rate", cost_rate)
        _set(self, "time_factor", time_factor)
        _set(self, "setup_cost", setup_cost)


class Element(Frozen):
    """One concrete implementation of a leaf dimension at one stage."""

    __slots__ = ("id", "display_name", "dimension", "stage", "characteristics")

    def __init__(
        self, id: str, display_name: str, dimension: str, stage: Stage,
        characteristics: Characteristics = Characteristics(),
    ) -> None:
        _set(self, "id", id)
        _set(self, "display_name", display_name)
        _set(self, "dimension", dimension)
        _set(self, "stage", stage)
        _set(self, "characteristics", characteristics)


class TestBench(Frozen):
    """A facility offering elements for every leaf dimension.

    Construct drafts with :func:`new_bench` and grow them with
    :func:`substantiate_dimension` / :func:`with_elements`; only
    :func:`validate_bench` guarantees the full invariants (complete canonical
    tree, resolvable references, no empty leaf, unique ids).
    """

    __slots__ = ("id", "display_name", "dimension_tree", "elements")

    def __init__(
        self, id: str, display_name: str, dimension_tree: tuple[DimensionNode, ...] = (),
        elements: tuple[Element, ...] = (),
    ) -> None:
        _set(self, "id", id)
        _set(self, "display_name", display_name)
        _set(self, "dimension_tree", dimension_tree)
        _set(self, "elements", elements)

    def node(self, dim_id: str) -> DimensionNode:
        return _node(self.id, self.dimension_tree, dim_id)


class CapacityBudget(Frozen):
    """Optional per-bench time budgets in seconds; absent means unbounded.
    None stands for a new empty map. Defined here, beside the benches it
    limits, so that loading a budget does not import the solvers."""

    __slots__ = ("max_bench_time",)

    def __init__(self, max_bench_time: Mapping[str, float] | None = None) -> None:
        if max_bench_time is None:
            max_bench_time = {}
        for bench_id, limit in max_bench_time.items():
            # False for NaN; ints past the float range are not finite floats.
            if not 0 < limit <= _FLOAT_MAX:
                in_range = isinstance(limit, float) or abs(limit) <= _FLOAT_MAX
                shown = limit if in_range else "a number past the float range"
                raise ValueError(
                    f"budget for bench {bench_id!r} must be a finite number > 0, "
                    f"got {shown}"
                )
        _set(self, "max_bench_time", max_bench_time)

    def limit(self, bench_id: str) -> Fraction | None:
        from fractions import Fraction  # here, so that loading a budget does not import it

        raw = self.max_bench_time.get(bench_id)
        return None if raw is None else Fraction(raw)


def _node(bench_id: str, nodes: Iterable[DimensionNode], dim_id: str) -> DimensionNode:
    for node in nodes:
        if node.id == dim_id:
            return node
    raise UnknownDimension(f"bench {bench_id!r} has no dimension {dim_id!r}")


def new_bench(
    bench_id: str,
    display_name: str | None = None,
    *,
    combinable_overrides: Mapping[str, bool] | None = None,
) -> TestBench:
    """Create an element-less draft bench with the canonical dimension tree."""
    overrides = combinable_overrides or {}
    unknown = sorted(overrides.keys() - _CANONICAL_ORDER.keys())
    if unknown:
        raise UnknownDimension(f"combinable overrides for unknown dimensions: {unknown}")
    return TestBench(
        id=bench_id,
        display_name=display_name if display_name is not None else bench_id,
        dimension_tree=tuple(_canonical_nodes(overrides)),
    )


def _canonical_nodes(flags: Mapping[str, bool]) -> list[DimensionNode]:
    """The canonical nodes, each shared unless ``flags`` changes its flag;
    other keys of ``flags`` are not read."""
    return [
        node if flags.get(node.id, node.combinable) is node.combinable
        else replace(node, combinable=flags[node.id])
        for node in _CANONICAL_NODES
    ]


def with_elements(bench: TestBench, elements: Iterable[Element]) -> TestBench:
    """Return a copy of ``bench`` with ``elements`` appended (draft op)."""
    return replace(bench, elements=bench.elements + tuple(elements))


def _slug(name: str) -> str:
    return "-".join(name.strip().lower().split()).replace("_", "-")


def substantiate_dimension(
    bench: TestBench, parent: str, sub_names: Sequence[str]
) -> TestBench:
    """Refine a canonical leaf into sub-dimension leaves.

    The parent stops being a leaf and may no longer hold elements; each new
    sub-dimension inherits the parent's combinable flag. Depth is limited to
    one level.
    """
    subs = _sub_dimensions(bench.id, bench.dimension_tree, parent, sub_names, {}, bench.elements)
    return replace(bench, dimension_tree=_layout(bench.dimension_tree + subs)[0])


def _sub_dimensions(
    bench_id: str, nodes: Sequence[DimensionNode], parent: str, sub_names: Sequence[str],
    flags: Mapping[str, bool], elements: Iterable[Element] = (),
) -> tuple[DimensionNode, ...]:
    """The new nodes of :func:`substantiate_dimension` on a bench of these
    nodes and elements, after its checks. Each takes its flag from
    ``flags`` by its id, or else its parent's flag."""
    if not sub_names:
        raise EmptySubNames(f"substantiating {parent!r} needs at least one name")
    parent_node = _node(bench_id, nodes, parent)
    if parent_node.kind is not DimensionKind.CANONICAL:
        raise TaxonomyError(
            f"{parent!r} is a sub-dimension; only canonical dimensions can be substantiated"
        )
    if any(node.parent == parent for node in nodes):
        raise AlreadySubstantiated(f"dimension {parent!r} already has sub-dimensions")
    if any(elem.dimension == parent for elem in elements):
        raise ParentHoldsElements(
            f"dimension {parent!r} holds elements; move them to sub-dimensions first"
        )

    existing = {node.id for node in nodes}
    subs = []
    for name in sub_names:
        sub_id = _slug(name)
        if not sub_id:
            raise EmptySubNames(f"blank sub-dimension name for parent {parent!r}")
        if sub_id in existing:
            raise DuplicateId(f"sub-dimension id {sub_id!r} already exists")
        existing.add(sub_id)
        subs.append(
            DimensionNode(
                id=sub_id,
                display_name=name,
                kind=DimensionKind.SUB_DIMENSION,
                parent=parent,
                combinable=flags.get(sub_id, parent_node.combinable),
            )
        )
    return tuple(subs)


def _layout(tree: Iterable[DimensionNode]) -> tuple[
    tuple[DimensionNode, ...], tuple[DimensionNode, ...], Mapping[str, int]
]:
    """A tree in canonical order (each parent directly followed by its subs
    in declaration order, unknown dimensions last), its leaves and each leaf
    id's rank (leaf ids in leaf order). A tree of exactly the canonical
    nodes with no parents, whatever their flags, is its own order and its
    own leaves, and is ranked by ``_CANONICAL_ORDER`` itself: the identity
    tells callers that the tree checks hold and no node substantiates the
    test object."""
    nodes = tuple(tree)
    if tuple(map(_ID, nodes)) == CANONICAL_DIMENSION_IDS and set(map(_PARENT, nodes)) == {None}:
        return nodes, nodes, _CANONICAL_ORDER
    position = {node.id: i for i, node in enumerate(nodes)}

    def key(node: DimensionNode) -> tuple[int, bool, int]:
        anchor = node.id if node.parent is None else node.parent
        rank = _CANONICAL_ORDER.get(anchor, len(_CANONICAL_ORDER))
        return rank, node.parent is not None, position[node.id]

    nodes = tuple(sorted(nodes, key=key))
    parents = set(map(_PARENT, nodes))
    leaves = tuple(node for node in nodes if node.id not in parents)
    return nodes, leaves, {node.id: i for i, node in enumerate(leaves)}


def leaf_dimensions(bench: TestBench) -> tuple[DimensionNode, ...]:
    """The bench's leaves: canonical order, sub-dimensions replacing their
    parent in place (declaration order). Stable across runs."""
    return _layout(bench.dimension_tree)[1]


def canonical_dimension_of(bench: TestBench, leaf_id: str) -> str:
    """Map a leaf id to its canonical dimension id (itself if canonical)."""
    node = bench.node(leaf_id)
    return node.parent if node.parent is not None else node.id


def elements_by_dimension(bench: TestBench) -> dict[str, tuple[Element, ...]]:
    """Elements grouped per leaf, leaves in spoke order, elements in
    declaration order."""
    grouped: dict[str, list[Element]] = {node.id: [] for node in leaf_dimensions(bench)}
    for elem in bench.elements:
        grouped.setdefault(elem.dimension, []).append(elem)
    return {dim: tuple(elems) for dim, elems in grouped.items()}


def validate_bench(bench: TestBench) -> TestBench:
    """Check a bench value (possibly a draft) against the full invariants
    and return it in canonical ordering; validating a valid bench returns an
    equal value. The invariants are stated once, by :func:`_invariants` over
    the bench's tree and its elements' id and dimension columns, which the
    registry loader checks the same way before it builds any element. A
    registry fragment goes through
    :func:`benchlattice.registry.bench_from_raw` instead, which reads it and
    checks it so.
    """
    elements = tuple(bench.elements)
    nodes, _, order = _invariants(
        bench.id, bench.dimension_tree, list(map(_ID, elements)), list(map(_DIMENSION, elements))
    )
    if order is not None:
        elements = tuple(map(elements.__getitem__, order))
    return TestBench(bench.id, bench.display_name, nodes, elements)


def _invariants(
    bench_id: str, tree: Iterable[DimensionNode], ids: Sequence[str], dimensions: Sequence[str],
) -> tuple[tuple[DimensionNode, ...], tuple[DimensionNode, ...], list[int] | None]:
    """The bench invariants over a bench's dimension tree and its elements'
    ids and dimensions, in declaration order. Returns the tree in canonical
    order, its leaves in spoke order and the order of element indices that
    puts the elements in leaf order, declaration order within each leaf
    (None when they are in it).

    Raises the first violation: of the tree, then of the elements in
    declaration order (a duplicate id, then a dimension that is not a leaf),
    then the first empty leaf; warns on a test-object substantiation. The
    tree comes from :func:`_layout`; the plain canonical tree, which it
    returns as the module's constants, is not checked again. The elements
    are checked a column at a time, and one by one only to name the first
    offender.
    """
    nodes, leaves, leaf_rank = _layout(tree)
    canonical = leaf_rank is _CANONICAL_ORDER
    if not canonical:
        _check_tree(bench_id, nodes)

    populated = set(dimensions)
    if len(set(ids)) != len(ids) or not populated <= leaf_rank.keys():
        non_leaves = {node.id for node in nodes} - leaf_rank.keys()
        seen: set[str] = set()
        for elem_id, dimension in zip(ids, dimensions):
            if elem_id in seen:
                raise DuplicateId(f"duplicate element id {elem_id!r} in bench {bench_id!r}")
            seen.add(elem_id)
            if dimension in non_leaves:
                raise ElementOnNonLeaf(
                    f"element {elem_id!r} sits on substantiated dimension {dimension!r}"
                )
            if dimension not in leaf_rank:
                raise UnknownDimension(
                    f"element {elem_id!r} references unknown dimension {dimension!r}"
                )
    if len(populated) != len(leaf_rank):
        for leaf_id in leaf_rank:
            if leaf_id not in populated:
                raise EmptyLeaf(
                    f"leaf dimension {leaf_id!r} of bench {bench_id!r} holds no element"
                )

    if not canonical and any(node.parent == "test-object" for node in nodes):
        warnings.warn(
            f"bench {bench_id!r} substantiates the test-object dimension",
            BenchValidationWarning,
            stacklevel=3,
        )

    # Leaf order, declaration order within each leaf: sorted() is stable.
    ranks = list(map(leaf_rank.__getitem__, dimensions))
    if any(map(gt, ranks, ranks[1:])):
        return nodes, leaves, sorted(range(len(ranks)), key=ranks.__getitem__)
    return nodes, leaves, None


def _check_tree(bench_id: str, nodes: tuple[DimensionNode, ...]) -> None:
    by_id: dict[str, DimensionNode] = {}
    for node in nodes:
        if node.id in by_id:
            raise DuplicateId(f"duplicate dimension id {node.id!r} in bench {bench_id!r}")
        by_id[node.id] = node
    for dim_id in CANONICAL_DIMENSION_IDS:
        if dim_id not in by_id:
            raise TaxonomyError(f"bench {bench_id!r} misses canonical dimension {dim_id!r}")
    for node in nodes:
        if node.parent is None:
            continue
        # Every canonical id is in the tree by now, but a sub-dimension may
        # hold one: the parent node itself must be canonical.
        parent = by_id[node.parent] if node.parent in _CANONICAL_ORDER else None
        if parent is None or parent.kind is not DimensionKind.CANONICAL:
            raise TaxonomyError(
                f"sub-dimension {node.id!r} hangs off non-canonical {node.parent!r}; "
                "substantiation depth is one level"
            )
