"""Span tracing for the traced benchmark run.

:meth:`Tracer.install` replaces each traced public function at every
``benchlattice`` module attribute that holds it, so callers that imported the
function by name (``from .configuration import require_same_bench``) see the
wrapper too; :meth:`Tracer.uninstall` puts the originals back. The program's
code is not changed; wrapping happens only inside the benchmark's worker
process.

Each call records a span (operation, span id, parent span id, name, start,
end). Self time is the span's duration minus the time its child spans cover.
Spans stay in memory and are written out once the run ends; past
``span_cap`` spans only the aggregates are kept.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

TRACED = (
    ("cli", ("run",)),
    ("registry", ("load_registry", "load_suite", "load_budget", "save_plan", "write_text_atomic")),
    ("taxonomy", ("validate_bench", "leaf_dimensions", "elements_by_dimension", "canonical_dimension_of")),
    ("testcase", ("derive_requirement_profile",)),
    ("configuration", ("enumerate_configurations", "require_same_bench", "classify_test_method")),
    ("assignment", ("check_admissibility", "estimate_cost", "assign_greedy", "assign_exact")),
    ("chart", ("render_bench_chart", "render_configuration_chart")),
)

DERIVE = ("taxonomy.leaf_dimensions", "taxonomy.elements_by_dimension", "taxonomy.canonical_dimension_of")
LOADS = ("registry.load_registry", "registry.load_suite", "registry.load_budget")
SAVES = ("registry.save_plan", "registry.write_text_atomic")
SOLVERS = ("assignment.assign_greedy", "assignment.assign_exact")
RENDERS = ("chart.render_bench_chart", "chart.render_configuration_chart")

#: Per-layer metrics of the traced run, each averaged over the traced
#: operations: (name, unit, kind, span names). ``kind`` is "self" (summed
#: self time), "calls" (summed call count) or a special quantity.
LAYER_METRICS = (
    ("configuration.same_bench_checks", "count/op", "calls", ("configuration.require_same_bench",)),
    ("configuration.same_bench_s", "s/op", "self", ("configuration.require_same_bench",)),
    ("configuration.enumerate_s", "s/op", "self", ("configuration.enumerate_configurations",)),
    ("configuration.configs_materialised", "count/op", "materialised", ()),
    ("configuration.classify_calls", "count/op", "calls", ("configuration.classify_test_method",)),
    ("configuration.classify_s", "s/op", "self", ("configuration.classify_test_method",)),
    ("assignment.admissibility_checks", "count/op", "calls", ("assignment.check_admissibility",)),
    ("assignment.admissibility_s", "s/op", "self", ("assignment.check_admissibility",)),
    ("assignment.admissibility_incl_s", "s/op", "total", ("assignment.check_admissibility",)),
    ("assignment.admissible_ratio", "ratio", "admissible_ratio", ()),
    ("assignment.cost_calls", "count/op", "calls", ("assignment.estimate_cost",)),
    ("assignment.cost_s", "s/op", "self", ("assignment.estimate_cost",)),
    ("assignment.candidates", "count/op", "admissible", ()),
    ("assignment.solve_s", "s/op", "self", SOLVERS),
    ("taxonomy.derive_calls", "count/op", "calls", DERIVE),
    ("taxonomy.derive_s", "s/op", "self", DERIVE),
    ("taxonomy.validate_s", "s/op", "self", ("taxonomy.validate_bench",)),
    ("registry.load_s", "s/op", "self", LOADS),
    ("registry.save_s", "s/op", "self", SAVES),
    ("registry.docs_loaded", "count/op", "calls", LOADS),
    ("testcase.profiles", "count/op", "calls", ("testcase.derive_requirement_profile",)),
    ("testcase.profile_s", "s/op", "self", ("testcase.derive_requirement_profile",)),
    ("chart.render_s", "s/op", "self", RENDERS),
    ("cli.self_s", "s/op", "self", ("cli.run",)),
)


class Tracer:
    """Aggregates and spans for one worker process."""

    def __init__(self, span_cap: int = 200_000) -> None:
        self.span_cap = span_cap
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.admissible = 0
        self.materialised = 0
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.dropped = 0
        self.op = -1  # index of the operation spans belong to
        self._stack: list[list] = []  # [span id, child time] per open span
        self._next_id = 0
        self._sites: list[tuple[object, str, object, object]] = []  # holder, attr, original, wrapper
        modules = [m for n, m in sys.modules.items() if n == "benchlattice" or n.startswith("benchlattice.")]
        for short, names in TRACED:
            module = sys.modules[f"benchlattice.{short}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._sites.append((holder, attr, original, wrapper))

    def install(self) -> None:
        for holder, attr, _, wrapper in self._sites:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._sites:
            setattr(holder, attr, original)

    def _wrap(self, name: str, fn):
        observe = {
            "assignment.check_admissibility": self._count_admissible,
            "configuration.enumerate_configurations": self._count_materialised,
        }.get(name)
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < self.span_cap:
                    spans.append((self.op, span_id, parent, name, start, end))
                else:
                    self.dropped += 1
            if observe is not None:
                observe(result)
            return result

        return traced

    def _count_admissible(self, report) -> None:
        if report.admissible:
            self.admissible += 1

    def _count_materialised(self, configs) -> None:
        self.materialised += len(configs)

    def layer_metrics(self, ops: int) -> dict[str, dict[str, float | str]]:
        """Every :data:`LAYER_METRICS` entry, averaged over ``ops``."""
        ops = max(ops, 1)
        checks = self.calls["assignment.check_admissibility"]
        out = {}
        for name, unit, kind, spans in LAYER_METRICS:
            if kind == "self":
                value = sum(self.self_time[s] for s in spans) / ops
            elif kind == "total":
                value = sum(self.total[s] for s in spans) / ops
            elif kind == "calls":
                value = sum(self.calls[s] for s in spans) / ops
            elif kind == "materialised":
                value = self.materialised / ops
            elif kind == "admissible":
                value = self.admissible / ops
            else:  # admissible_ratio: useful checks over all checks
                value = self.admissible / checks if checks else 0.0
            out[name] = {"value": value, "unit": unit}
        return out

    def self_shares(self) -> list[tuple[str, float]]:
        """Self time per span name as a share of all traced time, largest first."""
        whole = sum(self.self_time.values()) or 1.0
        return sorted(((n, t / whole) for n, t in self.self_time.items()), key=lambda p: -p[1])

    def write_spans(self, path: Path) -> None:
        payload = {
            "fields": ["op", "span", "parent", "name", "start_s", "end_s"],
            "dropped": self.dropped,
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
