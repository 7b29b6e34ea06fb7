"""Derive, count and name test bench configurations.

A configuration picks, for every leaf dimension of a bench, which of the
available elements take part in a run: exactly one on ordinary leaves, any
non-empty subset on combinable leaves. Enumeration order is deterministic
(leaves in spoke order with the rightmost leaf varying fastest, choices per
leaf in element declaration order, subsets lexicographic by declaration
index), so configuration indices are stable, reportable handles.

Each bench's structure is derived once into a :class:`ConfigurationSpace`,
which counts configurations in closed form and computes configuration *i*
directly from its index. Looking up one configuration therefore works for
any index in range, whatever the enumeration cap. Only listing every
configuration (:func:`enumerate_configurations`) is capped; assignment
searches the configurations factored and builds only those it picks, so it
runs on a bench of any size.
"""

from __future__ import annotations

import itertools
import math
import os
from enum import Enum
from functools import cached_property
from typing import Iterator, Mapping

from .errors import CombinatorialLimitExceeded, ConfigurationError, ForeignConfiguration
from .frozen import Frozen
from .taxonomy import DimensionNode, Element, Stage, TestBench, leaf_dimensions

__all__ = [
    "DEFAULT_CONFIGURATION_CAP",
    "CAP_ENV_VAR",
    "ConfigurationSpace",
    "TestBenchConfiguration",
    "TestMethodName",
    "enumerate_configurations",
    "iter_configurations",
    "count_configurations",
    "classify_test_method",
    "configuration_cap",
    "require_same_bench",
]

DEFAULT_CONFIGURATION_CAP = 10**6
CAP_ENV_VAR = "BENCHLATTICE_CONFIG_CAP"


_set = object.__setattr__

_SIMULATED, _EMULATED, _REAL = Stage.SIMULATED.bit, Stage.EMULATED.bit, Stage.REAL.bit


class TestBenchConfiguration(Frozen):
    """One composition of a bench's elements, one entry per leaf."""

    __slots__ = ("bench_id", "selection")

    def __init__(self, bench_id: str, selection: Mapping[str, tuple[str, ...]]) -> None:
        _set(self, "bench_id", bench_id)
        _set(self, "selection", selection)

    def selected_ids(self) -> tuple[str, ...]:
        return tuple(eid for ids in self.selection.values() for eid in ids)


class TestMethodName(Enum):
    SOFTWARE_IN_THE_LOOP = "software-in-the-loop"
    HARDWARE_IN_THE_LOOP = "hardware-in-the-loop"
    DRIVER_IN_THE_LOOP = "driver-in-the-loop"
    VEHICLE_IN_THE_LOOP = "vehicle-in-the-loop"
    TEST_VEHICLE = "test-vehicle"
    UNCLASSIFIED = "unclassified"


def configuration_cap(cap: int | None = None) -> int:
    """Effective enumeration cap: explicit argument, else the
    BENCHLATTICE_CONFIG_CAP environment variable, else the default."""
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if not env:
        return DEFAULT_CONFIGURATION_CAP
    try:
        value = int(env)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise ConfigurationError(f"{CAP_ENV_VAR}={env!r} is not a positive integer")
    return value


class ConfigurationSpace:
    """The configurations of one bench, derived once from its structure.

    Holds the leaves in spoke order, each leaf's canonical dimension, the
    element map and each element's stage bit, the per-leaf element ids and
    choice counts, and the mixed-radix weights of the enumeration order.
    Building a space costs O(leaves + elements); :meth:`at` names any
    configuration by index in O(leaves + elements) without materialising the
    others, so lookups work far past the enumeration cap. Callers build one
    space per bench and pass it along; the space never changes after
    construction, except that it lists each leaf's choices and singletons
    once, on first use.
    """

    def __init__(self, bench: TestBench) -> None:
        self.bench = bench
        self.leaves: tuple[DimensionNode, ...] = leaf_dimensions(bench)
        self.leaf_ids: tuple[str, ...] = tuple(leaf.id for leaf in self.leaves)
        self.canonical_of: dict[str, str] = {
            leaf.id: leaf.parent if leaf.parent is not None else leaf.id
            for leaf in self.leaves
        }
        #: Every dimension id the bench covers: its leaves and their parents.
        self.dimensions = frozenset(self.canonical_of) | frozenset(
            self.canonical_of.values()
        )
        self.elements: dict[str, Element] = {e.id: e for e in bench.elements}
        #: Each element's stage bit (:attr:`Stage.bit`) by element id.
        self.stage_bit: dict[str, int] = {e.id: e.stage.bit for e in bench.elements}
        grouped: dict[str, list[str]] = {leaf_id: [] for leaf_id in self.leaf_ids}
        for elem in bench.elements:  # a draft's elements off the leaves are left out
            grouped.get(elem.dimension, []).append(elem.id)
        self.ids_per_leaf: tuple[tuple[str, ...], ...] = tuple(
            tuple(grouped[leaf_id]) for leaf_id in self.leaf_ids
        )
        self.choice_counts: tuple[int, ...] = tuple(
            (2 ** len(ids) - 1) if leaf.combinable else len(ids)
            for leaf, ids in zip(self.leaves, self.ids_per_leaf)
        )
        # The rightmost leaf varies fastest: its weight is 1.
        weights = [1] * len(self.leaves)
        for i in range(len(self.leaves) - 2, -1, -1):
            weights[i] = weights[i + 1] * self.choice_counts[i + 1]
        self.weights: tuple[int, ...] = tuple(weights)
        self.count = math.prod(self.choice_counts)

    def _choice(self, leaf_index: int, rank: int) -> tuple[str, ...]:
        """The ``rank``-th selection on one leaf, in enumeration order."""
        ids = self.ids_per_leaf[leaf_index]
        if not self.leaves[leaf_index].combinable:
            return (ids[rank],)
        # Non-empty subsets in lexicographic order of declaration indices:
        # (0), (0,1), (0,1,2), (0,2), (1), ... The subsets whose smallest
        # index is i, the singleton (i) first, number 2^(n-1-i), so each
        # index is skipped or taken by comparing the rank with that power.
        picked: list[str] = []
        n = len(ids)
        i = 0
        while True:
            size = 1 << (n - 1 - i)
            if rank < size:
                picked.append(ids[i])
                if rank == 0:
                    return tuple(picked)
                rank -= 1  # past the subset that ends here
            else:
                rank -= size
            i += 1

    def at(self, index: int) -> TestBenchConfiguration:
        """The configuration with enumeration index ``index``.

        Raises :class:`ConfigurationError` when the index is out of range.
        """
        if not 0 <= index < self.count:
            raise ConfigurationError(
                f"bench {self.bench.id!r} has {self.count} configurations; "
                f"index {index} is out of range"
            )
        return TestBenchConfiguration(
            bench_id=self.bench.id,
            selection={
                leaf_id: self._choice(i, index // weight % count)
                for i, (leaf_id, weight, count) in enumerate(
                    zip(self.leaf_ids, self.weights, self.choice_counts)
                )
            },
        )

    @cached_property
    def _choices(self) -> tuple[tuple[tuple[str, ...], ...], ...]:
        """Each leaf's choices in enumeration order, listed on first use."""
        return tuple(
            tuple(self._choice(i, rank) for rank in range(count))
            for i, count in enumerate(self.choice_counts)
        )

    @cached_property
    def singleton_offsets(self) -> tuple[tuple[int, ...], ...]:
        """Per leaf, each element's offset, derived on first use: the rank of
        the element alone times the leaf's weight, so that a configuration of
        singletons has the sum of its offsets as index. On a combinable leaf
        the 2^n - 2^(n-i) subsets with a smaller first index precede (i)."""
        return tuple(
            tuple(((1 << n) - (1 << (n - i))) * weight for i in range(n)) if leaf.combinable
            else tuple(range(0, n * weight, weight))
            for leaf, n, weight in zip(self.leaves, map(len, self.ids_per_leaf), self.weights)
        )

    def __iter__(self) -> Iterator[TestBenchConfiguration]:
        """Stream configurations in enumeration order, without a cap."""
        for combo in itertools.product(*self._choices):
            yield TestBenchConfiguration(
                bench_id=self.bench.id, selection=dict(zip(self.leaf_ids, combo))
            )

    def require_within_cap(self, cap: int | None = None) -> None:
        """Raise :class:`CombinatorialLimitExceeded` when the space has more
        configurations than the cap (see :func:`configuration_cap`)."""
        effective_cap = configuration_cap(cap)
        if self.count > effective_cap:
            raise CombinatorialLimitExceeded(self.count, effective_cap)

    def require_same_bench(self, config: TestBenchConfiguration) -> None:
        """Raise :class:`ForeignConfiguration` unless ``config`` can have
        been derived from this space's bench."""
        if config.bench_id != self.bench.id:
            raise ForeignConfiguration(
                f"configuration belongs to bench {config.bench_id!r}, not {self.bench.id!r}"
            )
        leaves = dict(zip(self.leaf_ids, zip(self.leaves, self.ids_per_leaf)))
        if config.selection.keys() != leaves.keys():
            raise ForeignConfiguration(
                f"configuration leaves {sorted(config.selection)} do not match "
                f"bench leaves {sorted(leaves)}"
            )
        for leaf_id, picked in config.selection.items():
            leaf, available = leaves[leaf_id]
            if not picked:
                raise ForeignConfiguration(f"empty selection on leaf {leaf_id!r}")
            if len(set(picked)) != len(picked):
                raise ForeignConfiguration(f"repeated elements selected on {leaf_id!r}")
            if not leaf.combinable and len(picked) != 1:
                raise ForeignConfiguration(
                    f"leaf {leaf_id!r} is not combinable but selects {len(picked)} elements"
                )
            missing = set(picked).difference(available)
            if missing:
                raise ForeignConfiguration(
                    f"selection on {leaf_id!r} names unknown elements {sorted(missing)}"
                )

    def classify(self, config: TestBenchConfiguration) -> TestMethodName:
        """The test method of a configuration of this space (unchecked; see
        :func:`classify_test_method` for the rules)."""
        # Per canonical dimension, the OR of its selected elements' stage bits:
        # a set of stages, tested with integer comparisons.
        masks: dict[str, int] = {}
        every = 0  # the OR of them all
        bit, canonical_of = self.stage_bit, self.canonical_of
        for leaf_id, picked in config.selection.items():
            dim = canonical_of[leaf_id]
            mask = masks.get(dim, 0)
            for eid in picked:
                mask |= bit[eid]
            masks[dim] = mask
            every |= mask

        if every == _REAL:
            return TestMethodName.TEST_VEHICLE
        if every == _SIMULATED:
            return TestMethodName.SOFTWARE_IN_THE_LOOP

        def only_real(dim: str) -> bool:  # with every other dimension simulated
            return masks.get(dim) == _REAL and all(
                mask == _SIMULATED for other, mask in masks.items() if other != dim
            )

        if only_real("test-object"):
            return TestMethodName.HARDWARE_IN_THE_LOOP
        if only_real("driver-user-behavior"):
            return TestMethodName.DRIVER_IN_THE_LOOP
        anchors_real = all(
            masks.get(dim) == _REAL
            for dim in ("test-object", "vehicle-dynamics", "residual-vehicle")
        )
        if anchors_real and masks.get("movable-objects", 0) & (_SIMULATED | _EMULATED):
            return TestMethodName.VEHICLE_IN_THE_LOOP
        return TestMethodName.UNCLASSIFIED


def count_configurations(bench: TestBench) -> int:
    """Closed-form configuration count; never materialises the product."""
    return ConfigurationSpace(bench).count


def iter_configurations(bench: TestBench) -> Iterator[TestBenchConfiguration]:
    """Stream configurations in deterministic order, without a cap."""
    return iter(ConfigurationSpace(bench))


def enumerate_configurations(
    bench: TestBench, *, cap: int | None = None
) -> list[TestBenchConfiguration]:
    """All configurations of ``bench`` as a list.

    Raises :class:`CombinatorialLimitExceeded` before materialising anything
    when the count exceeds the cap (default 10^6, see
    :func:`configuration_cap`).
    """
    space = ConfigurationSpace(bench)
    space.require_within_cap(cap)
    return list(space)


def require_same_bench(config: TestBenchConfiguration, bench: TestBench) -> None:
    """Raise :class:`ForeignConfiguration` unless ``config`` can have been
    derived from ``bench``."""
    ConfigurationSpace(bench).require_same_bench(config)


def classify_test_method(
    config: TestBenchConfiguration, bench: TestBench
) -> TestMethodName:
    """Name the conventional test method a configuration realises.

    First matching rule wins:

    1. every selected element real           -> test-vehicle
    2. every selected element simulated      -> software-in-the-loop
    3. test object real, all else simulated  -> hardware-in-the-loop
    4. driver/user real, all else simulated  -> driver-in-the-loop
    5. test object, vehicle dynamics and residual vehicle real while the
       movable objects include anything simulated or emulated
                                             -> vehicle-in-the-loop
    6. otherwise                             -> unclassified
    """
    space = ConfigurationSpace(bench)
    space.require_same_bench(config)
    return space.classify(config)
