"""Command-line planning tool.

Subcommands: ``validate`` a registry, ``enumerate`` or ``classify`` the
configurations of a bench, ``chart`` a bench or configuration as SVG, and
``assign`` a test suite to configurations. Exit codes: 0 success, 1 domain
failure (including plans with unassignable test cases), 2 usage errors or a
refused ``--exact`` instance. Configuration indices always refer to the
deterministic enumeration order printed by ``enumerate``.

Every command checks the whole registry and prints its warnings; the
lookups (``enumerate``, ``classify``, ``chart``) then build only the bench
``--bench`` names.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from typing import Any, Callable, Sequence, TypeVar

from .assignment import assign_exact, assign_greedy
from .chart import ChartStyle, _chart
from .configuration import ConfigurationSpace
from .errors import BenchlatticeError, InstanceTooLarge
from .registry import (
    _checked_registry, load_budget, load_registry, load_suite, save_plan, write_text_atomic,
)
from .taxonomy import TestBench

__all__ = ["run", "main"]

_T = TypeVar("_T")


def _load(load: Callable[[str], _T], path: str) -> _T:
    """``load(path)``, the warnings it raises printed to standard error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loaded = load(path)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return loaded


def _named_bench(args: argparse.Namespace) -> TestBench:
    """The bench ``--bench`` names. Every bench of the registry is checked,
    but only this one is built."""
    benches = _load(_checked_registry, args.registry)
    build = benches.get(args.bench)
    if build is None:
        known = ", ".join(benches) or "none"
        raise BenchlatticeError(f"no bench {args.bench!r} in registry (available: {known})")
    return build()


def cmd_validate(args: argparse.Namespace) -> int:
    benches = _load(load_registry, args.registry)
    for bench in benches:
        space = ConfigurationSpace(bench)
        print(
            f"{bench.id}: {len(space.leaves)} leaf dimensions, "
            f"{len(bench.elements)} elements, "
            f"{space.count} configurations"
        )
    print(f"OK: {len(benches)} bench(es) valid")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    space = ConfigurationSpace(_named_bench(args))
    if args.count_only:
        print(space.count)
        return 0
    space.require_within_cap()
    for index, config in enumerate(space):
        method = space.classify(config)
        selection = " ".join(
            f"{leaf}={'+'.join(ids)}" for leaf, ids in config.selection.items()
        )
        print(f"{index}\t{method.value}\t{selection}")
    return 0


def cmd_chart(args: argparse.Namespace) -> int:
    space = ConfigurationSpace(_named_bench(args))
    config = None if args.config is None else space.at(args.config)
    write_text_atomic(args.output, _chart(space, config, ChartStyle()))
    print(f"wrote {args.output}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    space = ConfigurationSpace(_named_bench(args))
    print(space.classify(space.at(args.config)).value)
    return 0


def _print_summary(plan: dict[str, Any]) -> None:
    """Print a plan document's table, unassignable test cases and totals in
    one write."""
    rows = [("test case", "bench", "config", "method", "cost", "time [s]")]
    for tc_id, assignment in plan["assignments"].items():
        rows.append(
            (
                tc_id,
                assignment["bench"],
                str(assignment["config_index"]),
                assignment["method"],
                f"{assignment['monetary_cost']:.2f}",
                f"{assignment['execution_time_s']:.2f}",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    for case in plan["unassignable"]:
        lines.append(f"{case['test_case']}  UNASSIGNABLE ({case['reason']})")
        for bench_id, report in case["reports"].items():  # in bench id order
            if report["admissible"]:
                lines.append(f"    {bench_id}: admissible, but no bench time left")
            else:
                findings = ", ".join(
                    f"{v['reason']} on {v['dimension']}" for v in report["violations"]
                )
                lines.append(f"    {bench_id}: {findings}")
    lines.append(f"total cost: {plan['total_cost']:.2f}")
    if plan["total_bench_time_s"]:
        spent = " ".join(  # in bench id order
            f"{bench_id}={seconds:.2f}s"
            for bench_id, seconds in plan["total_bench_time_s"].items()
        )
        lines.append(f"bench time: {spent}")
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_assign(args: argparse.Namespace) -> int:
    benches = _load(load_registry, args.registry)
    suite = load_suite(args.suite)
    budget = load_budget(args.budget) if args.budget else None
    solver = assign_exact if args.exact else assign_greedy
    try:
        plan = solver(
            suite.test_cases, benches, budget, overrides=suite.overrides
        )
    except InstanceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_summary(save_plan(plan, args.output))
    print(f"wrote {args.output}")
    return 1 if plan.unassignable else 0


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and each subcommand's own, built on the first run,
    not at import. Parsing leaves them unchanged, so every later call in
    the process reuses them."""
    parser = argparse.ArgumentParser(
        prog="benchlattice",
        description=(
            "Classify test benches, enumerate their configurations and assign "
            "test cases to the cheapest admissible configuration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a registry and report every bench")
    p.add_argument("registry")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("enumerate", help="list or count a bench's configurations")
    p.add_argument("registry")
    p.add_argument("--bench", required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("chart", help="render a bench or configuration radar chart")
    p.add_argument("registry")
    p.add_argument("--bench", required=True)
    p.add_argument("--config", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=cmd_chart)

    p = sub.add_parser("classify", help="print a configuration's test method")
    p.add_argument("registry")
    p.add_argument("--bench", required=True)
    p.add_argument("--config", type=int, required=True)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("assign", help="assign a suite to configurations")
    p.add_argument("registry")
    p.add_argument("suite")
    p.add_argument("--budget", default=None)
    p.add_argument("--exact", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=cmd_assign)
    return parser, sub.choices


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """``argv`` parsed as the full parser parses it. The full parser hands
    everything after the subcommand's name to that subcommand's parser, so
    that parser is run directly; only an argv that names no subcommand
    first, or leaves arguments over, which the full parser reports with its
    own usage, goes through the full parser."""
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (BenchlatticeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
