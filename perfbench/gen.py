"""Seeded input documents for the benchmark workloads.

Everything here is plain standard-library Python that writes JSON by hand:
it imports neither ``benchlattice`` nor the test helpers, so later changes to
the program or its tests cannot shift the inputs. The same seed and scale
always give byte-identical documents.

Bench *shapes* (leaves, elements per leaf, combinable flags, how many
elements of a gate leaf are validated for the suite's purpose) are fixed per
workload; the seed draws everything else (stages, cost rates, time factors,
setup costs, which gate elements are validated, test case contents, config
indices). Fixing the shapes keeps configuration counts and admissible shares
identical across seeds, so run-to-run spread measures the program rather
than the luck of the draw.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

CANONICAL = (
    "test-object",
    "driver-user-behavior",
    "vehicle-dynamics",
    "environment-sensor-system",
    "scenery",
    "movable-objects",
    "environmental-conditions",
    "localization-sensor-system",
    "v2x-communication",
    "residual-vehicle",
)
STAGES = ("simulated", "emulated", "real")
RATES = (0.0, 5.0, 10.0, 25.0)
SETUPS = (0.0, 1.0, 2.0)
TIME_FACTORS = (0.25, 0.5, 1.0, 2.0)
PRICES = (RATES, SETUPS, TIME_FACTORS)
PURPOSE = "safety-validation"
OTHER_PURPOSE = "endurance"
CRITERIA = (
    ("min-ttc", ">= 1.0 s"),
    ("lane-keeping-error", "<= 0.3 m"),
    ("environment-sensor-system detection rate", ">= 0.99"),
    ("localization-sensor-system drift", "<= 0.5 m"),
    ("max-deceleration", "<= 6 m/s2"),
)


@dataclass
class Op:
    """One CLI invocation of the pool; ``kind`` drives verification."""

    slot: int
    kind: str  # "assign", "assign-exact", "classify" or "chart"
    argv: list[str]
    output: str
    registry: str
    suite: str | None = None
    budget: str | None = None
    bench: str | None = None
    config: int | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    documents: dict[str, str] = field(default_factory=dict)  # relative path -> sha256
    config_counts: dict[str, int] = field(default_factory=dict)  # bench id -> count

    def inputs_sha256(self) -> str:
        lines = "".join(f"{path}\t{digest}\n" for path, digest in sorted(self.documents.items()))
        return hashlib.sha256(lines.encode()).hexdigest()


class _Writer:
    def __init__(self, root: Path, workload: Workload) -> None:
        self.root = root
        self.workload = workload
        (root / "in").mkdir(parents=True, exist_ok=True)
        (root / "out").mkdir(parents=True, exist_ok=True)

    def write(self, name: str, payload: dict) -> str:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        path = self.root / "in" / name
        path.write_text(text, encoding="utf-8")
        self.workload.documents[f"in/{name}"] = hashlib.sha256(text.encode()).hexdigest()
        return str(path)

    def output(self, slot: int, suffix: str) -> str:
        return str(self.root / "out" / f"slot-{slot:04d}.{suffix}")


# --- benches -------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """Elements per leaf (canonical order, substantiated leaves spliced in
    place of their parent), which leaves are combinable, and the value sets
    (cost rates, setup costs, time factors) element characteristics are
    drawn from."""

    per_leaf: dict[str, int]
    substantiations: dict[str, tuple[str, ...]] = field(default_factory=dict)
    combinable: dict[str, bool] = field(default_factory=dict)
    gate: tuple[str, int] | None = None  # (leaf, elements validated for PURPOSE)
    prices: tuple[tuple[float, ...], ...] = PRICES

    def leaves(self) -> list[tuple[str, str]]:
        """(leaf id, canonical id) in spoke order."""
        out = []
        for dim in CANONICAL:
            subs = self.substantiations.get(dim)
            if subs:
                out.extend((sub, dim) for sub in subs)
            else:
                out.append((dim, dim))
        return out

    def count(self) -> int:
        total = 1
        for leaf, canonical in self.leaves():
            n = self.per_leaf.get(leaf, 1)
            flag = self.combinable.get(leaf, canonical == "movable-objects")
            total *= (2**n - 1) if flag else n
        return total


def _element(
    rng: random.Random, leaf: str, i: int, validated: list[str], prices=PRICES
) -> dict:
    rates, setups, time_factors = prices
    return {
        "id": f"{leaf}-e{i}",
        "display_name": f"{leaf} element {i}",
        "dimension": leaf,
        "stage": rng.choice(STAGES),
        "validated_for": validated,
        "cost_rate": rng.choice(rates),
        "time_factor": rng.choice(time_factors),
        "setup_cost": rng.choice(setups),
    }


def shaped_bench(rng: random.Random, bench_id: str, shape: Shape) -> dict:
    """A registry fragment with exactly ``shape.count()`` configurations.

    Every element is validated for both purposes except on the gate leaf,
    where exactly the stated number (at random positions) is validated for
    :data:`PURPOSE`; the admissible share of configurations is therefore
    fixed by the shape, not by the seed.
    """
    elements = []
    for leaf, _ in shape.leaves():
        n = shape.per_leaf.get(leaf, 1)
        valid_positions = set(range(n))
        if shape.gate is not None and shape.gate[0] == leaf:
            valid_positions = set(rng.sample(range(n), shape.gate[1]))
        for i in range(n):
            validated = [OTHER_PURPOSE, PURPOSE] if i in valid_positions else [OTHER_PURPOSE]
            elements.append(_element(rng, leaf, i, validated, shape.prices))
    return {
        "id": bench_id,
        "display_name": f"Bench {bench_id}",
        "substantiations": {parent: list(subs) for parent, subs in shape.substantiations.items()},
        "combinable": dict(shape.combinable),
        "elements": elements,
    }


def _registry(benches: list[dict]) -> dict:
    return {"format_version": "1", "benches": benches}


# --- test cases -----------------------------------------------------------------


def _case(
    rng: random.Random,
    case_id: str,
    *,
    purpose: str,
    durations: tuple[float, ...],
    overrides: dict[str, list[str]] | None = None,
) -> dict:
    criteria = rng.sample(CRITERIA, k=rng.randint(1, 2))
    return {
        "id": case_id,
        "purpose": purpose,
        "scenario": {
            "road_level": rng.choice(("two-lane road", "three-lane motorway", "urban junction")),
            "traffic_infrastructure": rng.choice(("", "traffic lights", "variable speed signs")),
            "temporary_manipulation": rng.choice(("", "road works")),
            "movable_objects": [
                {"type": rng.choice(("passenger-car", "truck", "pedestrian")), "count": rng.randint(1, 3)}
                for _ in range(rng.randint(0, 2))
            ],
            "environment_conditions": rng.sample(("rain", "fog", "night"), k=rng.randint(0, 2)),
            "nominal_duration": rng.choice(durations),
        },
        "evaluation_criteria": [{"name": name, "threshold": threshold} for name, threshold in criteria],
        "overrides": overrides or {},
    }


def _suite(cases: list[dict]) -> dict:
    return {"format_version": "1", "test_cases": cases}


def _budget(limits: dict[str, float]) -> dict:
    return {"format_version": "1", "max_bench_time": limits}


# --- workloads --------------------------------------------------------------------

# fleet-assign: three benches near the same size with gate leaves validating
# 1 of 4, 1 of 4 and 2 of 4 elements, so a third of all configurations are
# admissible for every case and two thirds of the checks find a violation.
# FLEET_SHAPES[1] substantiates the environment sensor system to exercise
# sub-dimension leaves. Price levels do not overlap (every configuration of
# fleet-0 is cheaper than any of fleet-1, which is cheaper than any of
# fleet-2), and fleet-0 runs every case at its nominal duration, so a budget
# of the longer case's duration on fleet-0 always binds: one case of the
# pair must move to fleet-1.
FLEET_SHAPES = (
    Shape(
        per_leaf={"test-object": 2, "driver-user-behavior": 2, "scenery": 4,
                  "movable-objects": 3, "environmental-conditions": 3},
        gate=("scenery", 1),
        prices=((0.0, 1.0, 2.0, 5.0), (0.0, 0.5, 1.0), (1.0,)),
    ),
    Shape(
        per_leaf={"test-object": 2, "radar": 2, "camera": 2, "scenery": 4,
                  "movable-objects": 2, "residual-vehicle": 3},
        substantiations={"environment-sensor-system": ("radar", "camera")},
        gate=("scenery", 1),
        prices=((5.0, 10.0, 25.0), (10.0, 15.0, 20.0), (0.5, 1.0, 2.0)),
    ),
    Shape(
        per_leaf={"test-object": 3, "scenery": 4, "movable-objects": 3,
                  "localization-sensor-system": 2, "v2x-communication": 2},
        gate=("scenery", 2),
        prices=((25.0, 50.0, 100.0), (40.0, 60.0, 80.0), (1.0, 2.0)),
    ),
)
FLEET_SUITES = 4
FLEET_CASES_PER_OP = 2
FLEET_DURATIONS = (120.0, 240.0, 360.0)

# config-lookup: three benches of about 1.5e4, 2.5e4 and 3.5e4 configurations.
LOOKUP_SHAPES = (
    Shape(per_leaf={"test-object": 2, "driver-user-behavior": 3, "vehicle-dynamics": 3,
                    "environment-sensor-system": 2, "scenery": 3, "movable-objects": 3,
                    "environmental-conditions": 3, "localization-sensor-system": 6}),
    Shape(per_leaf={"test-object": 3, "driver-user-behavior": 2, "vehicle-dynamics": 3,
                    "environment-sensor-system": 2, "scenery": 3, "movable-objects": 3,
                    "environmental-conditions": 3, "residual-vehicle": 3,
                    "v2x-communication": 3}),
    Shape(per_leaf={"test-object": 3, "driver-user-behavior": 3, "vehicle-dynamics": 3,
                    "environment-sensor-system": 2, "scenery": 3, "movable-objects": 3,
                    "environmental-conditions": 2, "v2x-communication": 3,
                    "localization-sensor-system": 5}),
)
LOOKUP_SLOTS = 18

SMALL_INSTANCES = 512
SMALL_PATTERNS = ("single", "pair", "pair-combinable", "two-pairs", "triple")


def _scaled(shape: Shape, scale: float) -> Shape:
    """Shrink a shape for smoke runs: scale < 1 drops elements from the
    widest leaves until the count falls by about that factor."""
    if scale >= 1:
        return shape
    per_leaf = dict(shape.per_leaf)
    target = max(1, int(shape.count() * scale))
    gate_leaf, gate_valid = shape.gate if shape.gate else (None, 0)
    while Shape(per_leaf, shape.substantiations, shape.combinable).count() > target:
        widest = max(
            (leaf for leaf in per_leaf if per_leaf[leaf] > 1 and leaf != gate_leaf),
            key=lambda leaf: (per_leaf[leaf], leaf),
            default=None,
        )
        if widest is None:
            break
        per_leaf[widest] -= 1
    gate = (gate_leaf, min(gate_valid, per_leaf[gate_leaf])) if gate_leaf else None
    return Shape(per_leaf, shape.substantiations, shape.combinable, gate, shape.prices)


def fleet_assign(root: Path, seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(f"fleet-assign/{seed}")
    wl = Workload("fleet-assign", [])
    w = _Writer(root, wl)
    shapes = [_scaled(s, scale) for s in FLEET_SHAPES]
    benches = [shaped_bench(rng, f"fleet-{i}", s) for i, s in enumerate(shapes)]
    registry = w.write("fleet.registry.json", _registry(benches))
    wl.config_counts = {b["id"]: s.count() for b, s in zip(benches, shapes)}

    slot = 0
    for k in range(FLEET_SUITES):
        cases = [
            _case(rng, f"case-{k}-{j}", purpose=PURPOSE, durations=FLEET_DURATIONS)
            for j in range(FLEET_CASES_PER_OP)
        ]
        suite = w.write(f"suite-{k}.suite.json", _suite(cases))
        longest = max(case["scenario"]["nominal_duration"] for case in cases)
        budget = w.write(f"suite-{k}.budget.json", _budget({benches[0]["id"]: longest}))
        for budgeted in (False, True):
            out = w.output(slot, "plan.json")
            argv = ["assign", registry, suite, "-o", out]
            if budgeted:
                argv[3:3] = ["--budget", budget]
            wl.ops.append(Op(slot, "assign", argv, out, registry, suite, budget if budgeted else None))
            slot += 1
    return wl


def config_lookup(root: Path, seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(f"config-lookup/{seed}")
    wl = Workload("config-lookup", [])
    w = _Writer(root, wl)
    shapes = [_scaled(s, scale) for s in LOOKUP_SHAPES]
    benches = [shaped_bench(rng, f"lookup-{i}", s) for i, s in enumerate(shapes)]
    registry = w.write("lookup.registry.json", _registry(benches))
    wl.config_counts = {b["id"]: s.count() for b, s in zip(benches, shapes)}
    for slot in range(LOOKUP_SLOTS):
        bench = benches[(slot // 2) % len(benches)]["id"]
        index = rng.randrange(wl.config_counts[bench])
        if slot % 2 == 0:
            out = w.output(slot, "txt")
            argv = ["classify", registry, "--bench", bench, "--config", str(index)]
            kind = "classify"
        else:
            out = w.output(slot, "svg")
            argv = ["chart", registry, "--bench", bench, "--config", str(index), "-o", out]
            kind = "chart"
        wl.ops.append(Op(slot, kind, argv, out, registry, bench=bench, config=index))
    return wl


def _small_bench(rng: random.Random, bench_id: str, pattern: str) -> tuple[dict, int]:
    """A registry fragment with at most four configurations (one element
    per canonical leaf, widened on one or two leaves according to
    ``pattern``) and its configuration count."""
    wide = rng.sample(CANONICAL, k=2)
    per_leaf = {dim: 1 for dim in CANONICAL}
    combinable = {"movable-objects": False}
    if pattern in ("pair", "pair-combinable", "two-pairs"):
        per_leaf[wide[0]] = 2
    if pattern == "pair-combinable":
        combinable[wide[0]] = True
    if pattern == "two-pairs":
        per_leaf[wide[1]] = 2
    if pattern == "triple":
        per_leaf[wide[0]] = 3
    elements = []
    for dim in CANONICAL:
        for i in range(per_leaf[dim]):
            validated = [PURPOSE] if rng.random() < 0.97 else [OTHER_PURPOSE]
            elements.append(_element(rng, dim, i, validated))
    bench = {
        "id": bench_id,
        "display_name": f"Bench {bench_id}",
        "substantiations": {},
        "combinable": combinable,
        "elements": elements,
    }
    return bench, Shape(per_leaf, combinable=combinable).count()


def small_instances(root: Path, seed: int, scale: float = 1.0) -> Workload:
    """Instances inside the exhaustive solver's guard (at most two benches of
    at most four configurations, at most four cases). Structure (case count,
    bench count, bench pattern, whether a budget applies) cycles with the
    instance index; contents are drawn from the seed."""
    rng = random.Random(f"small-instances/{seed}")
    wl = Workload("small-instances", [])
    w = _Writer(root, wl)
    count = max(2, int(SMALL_INSTANCES * scale))
    slot = 0
    for i in range(count):
        n_cases = 1 + i % 4
        n_benches = 1 + (i // 4) % 2
        benches = []
        for b in range(n_benches):
            bench, configs = _small_bench(rng, f"bench-{b}", SMALL_PATTERNS[(i + b) % len(SMALL_PATTERNS)])
            benches.append(bench)
            wl.config_counts[f"i{i:03d}/{bench['id']}"] = configs
        cases = []
        for c in range(n_cases):
            overrides = None
            if rng.random() < 0.3:
                overrides = {rng.choice(CANONICAL): sorted(rng.sample(STAGES, k=rng.randint(1, 3)))}
            purpose = PURPOSE if rng.random() < 0.85 else OTHER_PURPOSE
            cases.append(
                _case(rng, f"case-{c}", purpose=purpose,
                      durations=(60.0, 120.0, 240.0, 360.0), overrides=overrides)
            )
        registry = w.write(f"i{i:03d}.registry.json", _registry(benches))
        suite = w.write(f"i{i:03d}.suite.json", _suite(cases))
        budget = None
        if (i // 8) % 2 == 1:
            limits = {b["id"]: rng.choice((90.0, 240.0, 720.0, 2000.0)) for b in benches}
            budget = w.write(f"i{i:03d}.budget.json", _budget(limits))
        for exact in (True, False):
            out = w.output(slot, "plan.json")
            argv = ["assign", registry, suite]
            if budget:
                argv += ["--budget", budget]
            if exact:
                argv.append("--exact")
            argv += ["-o", out]
            kind = "assign-exact" if exact else "assign"
            wl.ops.append(Op(slot, kind, argv, out, registry, suite, budget))
            slot += 1
    return wl


GENERATORS = {
    "fleet-assign": fleet_assign,
    "config-lookup": config_lookup,
    "small-instances": small_instances,
}


def generate(name: str, root: Path, seed: int, scale: float = 1.0) -> Workload:
    """Write the workload's documents under ``root/in`` and return its
    operation pool; outputs go to ``root/out``."""
    return GENERATORS[name](root, seed, scale)
