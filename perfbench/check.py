"""Output verification, run in the benchmark's parent process after the
timed run has ended.

An operation fails when its exit code is not the one its output calls for,
when its output bytes differ from the slot's verified output, or when that
output fails the checks below:

* ``assign`` plans: every assignment is rechecked with ``check_admissibility``
  and ``estimate_cost`` on the brute-force enumerated configuration at its
  index; totals, bench times, method names and unassignable reasons are
  recomputed and budgets must hold. For small instances the unbudgeted
  greedy plan must equal the exhaustive one byte for byte, and under a
  budget the exhaustive plan must not be worse than the greedy one.
* ``classify``: the printed method must match ``classify_test_method`` on
  the brute-force enumerated configuration.
* ``chart``: the SVG must equal ``render_configuration_chart`` of that
  configuration.

Finally the digest over all slot outputs is compared with the one recorded
in ``golden.json`` for the seed, when there is one, so plans and SVGs stay
byte-identical to this benchmark's reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from pathlib import Path

from gen import Op, Workload

GOLDEN = Path(__file__).with_name("golden.json")


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    outputs_sha256: str = ""
    golden: str = "not recorded for this seed"

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems


class _Docs:
    """Loads each document once and enumerates each bench at most once."""

    def __init__(self) -> None:
        from benchlattice import registry

        self.registry = registry
        self._registries: dict[str, dict] = {}
        self._suites: dict = {}
        self._configs: dict = {}

    def benches(self, path: str) -> dict:
        if path not in self._registries:
            self._registries[path] = {b.id: b for b in self.registry.load_registry(path)}
        return self._registries[path]

    def suite(self, path: str):
        if path not in self._suites:
            self._suites[path] = self.registry.load_suite(path)
        return self._suites[path]

    def configs(self, path: str, bench_id: str) -> list:
        from benchlattice.configuration import enumerate_configurations

        key = (path, bench_id)
        if key not in self._configs:
            self._configs[key] = enumerate_configurations(self.benches(path)[bench_id])
        return self._configs[key]


def configs_at(bench, indices: set[int]) -> dict:
    """The configurations at ``indices`` from one streaming brute-force pass."""
    from benchlattice.configuration import iter_configurations

    wanted = sorted(indices)
    found = {}
    stream = iter_configurations(bench)
    position = 0
    for index in wanted:
        config = next(islice(stream, index - position, None), None)
        if config is None:
            break
        found[index] = config
        position = index + 1
    return found


def _check_plan(op: Op, plan: dict, docs: _Docs) -> tuple[list[str], int, tuple[int, Fraction]]:
    """Problems, the exit code the plan calls for, and its (unassignable,
    exact total cost) key."""
    from benchlattice.assignment import check_admissibility, estimate_cost
    from benchlattice.configuration import classify_test_method
    from benchlattice.testcase import derive_requirement_profile

    problems = []
    benches = docs.benches(op.registry)
    suite = docs.suite(op.suite)
    cases = {tc.id: tc for tc in suite.test_cases}
    budget = docs.registry.load_budget(op.budget) if op.budget else None
    total = Fraction(0)
    spent: dict[str, Fraction] = {}
    assignments = plan.get("assignments", {})
    unassignable = plan.get("unassignable", [])
    skipped = [entry.get("test_case") for entry in unassignable]
    if sorted(list(assignments) + skipped) != sorted(cases):
        problems.append(f"plan covers {sorted(list(assignments) + skipped)}, suite has {sorted(cases)}")

    def admissible_somewhere(tc) -> bool:
        profile = derive_requirement_profile(tc, suite.overrides.get(tc.id))
        return any(
            check_admissibility(config, bench, profile).admissible
            for bench in benches.values()
            for config in docs.configs(op.registry, bench.id)
        )

    for tc_id, entry in assignments.items():
        bench = benches.get(entry.get("bench"))
        tc = cases.get(tc_id)
        configs = docs.configs(op.registry, bench.id) if bench else []
        index = entry.get("config_index")
        if tc is None or bench is None or not isinstance(index, int) or not 0 <= index < len(configs):
            problems.append(f"{tc_id}: no such case, bench or configuration index")
            continue
        config = configs[index]
        if entry.get("selection") != {leaf: list(ids) for leaf, ids in config.selection.items()}:
            problems.append(f"{tc_id}: selection differs from configuration {index}")
        profile = derive_requirement_profile(tc, suite.overrides.get(tc_id))
        if not check_admissibility(config, bench, profile).admissible:
            problems.append(f"{tc_id}: configuration {bench.id}[{index}] is not admissible")
        cost = estimate_cost(config, bench, tc)
        if entry.get("execution_time_s") != float(cost.execution_time):
            problems.append(f"{tc_id}: execution time {entry.get('execution_time_s')} != {float(cost.execution_time)}")
        if entry.get("monetary_cost") != float(cost.monetary_cost):
            problems.append(f"{tc_id}: cost {entry.get('monetary_cost')} != {float(cost.monetary_cost)}")
        if entry.get("method") != classify_test_method(config, bench).value:
            problems.append(f"{tc_id}: method {entry.get('method')!r} is wrong")
        total += cost.monetary_cost
        spent[bench.id] = spent.get(bench.id, Fraction(0)) + cost.execution_time

    if plan.get("total_cost") != float(total):
        problems.append(f"total cost {plan.get('total_cost')} != {float(total)}")
    if plan.get("total_bench_time_s") != {b: float(t) for b, t in sorted(spent.items())}:
        problems.append("total bench time does not match the assignments")
    for bench_id, seconds in spent.items():
        limit = budget.limit(bench_id) if budget else None
        if limit is not None and seconds > limit:
            problems.append(f"bench {bench_id} over budget: {float(seconds)} > {float(limit)}")
    for entry in unassignable:
        tc = cases.get(entry.get("test_case"))
        if tc is None:
            continue
        possible = admissible_somewhere(tc)
        reason = entry.get("reason")
        if reason == "no-admissible-configuration" and possible:
            problems.append(f"{tc.id}: claimed unassignable but an admissible configuration exists")
        if reason == "bench-time-exhausted" and (not possible or budget is None):
            problems.append(f"{tc.id}: claimed out of bench time without a budget or candidate")
    return problems, (1 if unassignable else 0), (len(unassignable), total)


def _check_lookups(ops: list[Op], texts: dict[int, str], docs: _Docs) -> dict[int, list[str]]:
    from benchlattice.chart import render_configuration_chart
    from benchlattice.configuration import classify_test_method

    problems: dict[int, list[str]] = {}
    wanted: dict[tuple[str, str], set[int]] = {}
    for op in ops:
        wanted.setdefault((op.registry, op.bench), set()).add(op.config)
    for (path, bench_id), indices in wanted.items():
        bench = docs.benches(path)[bench_id]
        found = configs_at(bench, indices)
        for op in ops:
            if (op.registry, op.bench) != (path, bench_id):
                continue
            config = found.get(op.config)
            if config is None:
                problems[op.slot] = [f"{bench_id} has no configuration {op.config}"]
            elif op.kind == "classify":
                expected = classify_test_method(config, bench).value + "\n"
                if texts[op.slot] != expected:
                    problems[op.slot] = [f"classify printed {texts[op.slot]!r}, expected {expected!r}"]
            elif texts[op.slot] != render_configuration_chart(config, bench):
                problems[op.slot] = [f"chart of {bench_id}[{op.config}] differs from the reference rendering"]
    return problems


def fill_missing(workload: Workload, done: set[int]) -> None:
    """Run, untimed and in this process, every slot the timed loop never
    reached, so the output digest always covers the whole pool."""
    from benchlattice import cli

    for op in workload.ops:
        if op.slot in done:
            continue
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            cli.run(op.argv)
        if op.kind == "classify":
            Path(op.output).write_text(stdout.getvalue(), encoding="utf-8")


def verify(workload: Workload, records: list, seed: int, *, golden: bool = True) -> Verdict:
    """Check every slot's output and every recorded operation against it.

    ``records`` are the worker's [op index, slot, exit code, latency,
    digest, traced] rows. ``golden`` compares the digest over all outputs
    with the recorded one (only meaningful at full scale)."""
    fill_missing(workload, {rec[1] for rec in records})
    docs = _Docs()
    texts: dict[int, str] = {}
    digests: dict[int, str] = {}
    problems: dict[int, list[str]] = {}
    expected_code: dict[int, int] = {}
    plan_keys: dict[int, tuple[int, Fraction]] = {}
    for op in workload.ops:
        path = Path(op.output)
        raw = path.read_bytes() if path.exists() else b""
        texts[op.slot] = raw.decode("utf-8", errors="replace")
        digests[op.slot] = hashlib.sha256(raw).hexdigest()
        expected_code[op.slot] = 0
        if op.kind.startswith("assign"):
            try:
                plan = json.loads(texts[op.slot])
            except json.JSONDecodeError as exc:
                problems[op.slot] = [f"plan is not JSON: {exc}"]
                continue
            found, expected_code[op.slot], plan_keys[op.slot] = _check_plan(op, plan, docs)
            if found:
                problems[op.slot] = found

    lookups = [op for op in workload.ops if op.kind in ("classify", "chart")]
    problems.update(_check_lookups(lookups, texts, docs))

    by_instance: dict[tuple[str, str | None], dict[str, Op]] = {}
    for op in workload.ops:
        if op.kind in ("assign", "assign-exact") and workload.name == "small-instances":
            by_instance.setdefault((op.registry, op.suite), {})[op.kind] = op
    for pair in by_instance.values():
        greedy, exact = pair["assign"], pair["assign-exact"]
        if greedy.slot in problems or exact.slot in problems:
            continue
        if greedy.budget is None and texts[greedy.slot] != texts[exact.slot]:
            problems[greedy.slot] = ["unbudgeted greedy plan differs from the exhaustive plan"]
        elif plan_keys[exact.slot] > plan_keys[greedy.slot]:
            problems[exact.slot] = ["exhaustive plan is worse than the greedy plan under a budget"]

    failed = 0
    for _, slot, code, _, digest, _ in records:
        if slot in problems or code != expected_code[slot] or digest != digests[slot]:
            failed += 1
    verdict = Verdict(attempted=len(records), failed=failed)
    for slot in sorted(problems):
        verdict.problems.extend(f"slot {slot}: {p}" for p in problems[slot][:3])
    slot_lines = "".join(f"{slot}\t{digests[slot]}\n" for slot in sorted(digests))
    verdict.outputs_sha256 = hashlib.sha256(slot_lines.encode()).hexdigest()
    if golden:
        _compare_golden(workload, seed, verdict)
    return verdict


def _compare_golden(workload: Workload, seed: int, verdict: Verdict) -> None:
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload.name, {}).get(str(seed))
    if recorded is None:
        return
    if recorded["inputs"] != workload.inputs_sha256():
        verdict.golden = "inputs differ from the recorded ones"
        verdict.problems.append(f"generated inputs differ from golden.json for seed {seed}")
    elif recorded["outputs"] != verdict.outputs_sha256:
        verdict.golden = "outputs differ from the recorded ones"
        verdict.problems.append(f"outputs differ from golden.json for seed {seed}")
        verdict.failed = verdict.attempted
    else:
        verdict.golden = "matches the recorded digest"
