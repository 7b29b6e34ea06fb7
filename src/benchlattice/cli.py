"""Command-line planning tool.

Subcommands: ``validate`` a registry, ``enumerate`` or ``classify`` the
configurations of a bench, ``chart`` a bench or configuration as SVG, and
``assign`` a test suite to configurations. Exit codes: 0 success, 1 domain
failure (including plans with unassignable test cases), 2 usage errors or a
refused ``--exact`` instance. Configuration indices always refer to the
deterministic enumeration order printed by ``enumerate``.

Every command checks the whole registry and prints its warnings, and none
builds an element: ``validate``, the lookups (``enumerate``, ``classify``,
``chart``) and ``assign`` derive the configuration spaces they need from
the registry's checked columns, and the solvers run on those spaces.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from typing import Any, Callable, Sequence, TypeVar

from .assignment import _solve
from .chart import ChartStyle, _chart
from .configuration import ConfigurationSpace
from .errors import BenchlatticeError, InstanceTooLarge
from .registry import _checked_registry, load_budget, load_suite, save_plan, write_text_atomic

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


def _named_space(args: argparse.Namespace) -> ConfigurationSpace:
    """The configuration space of the bench ``--bench`` names. Every bench
    of the registry is checked, but no element is built."""
    benches = _load(_checked_registry, args.registry)
    bench = benches.get(args.bench)
    if bench is None:
        known = ", ".join(benches) or "none"
        raise BenchlatticeError(f"no bench {args.bench!r} in registry (available: {known})")
    return bench.space()


def cmd_validate(args: argparse.Namespace) -> int:
    benches = _load(_checked_registry, args.registry)
    for bench in benches.values():
        space = bench.space()
        print(
            f"{bench.id}: {len(space.leaves)} leaf dimensions, "
            f"{len(space.stage_bit)} elements, "
            f"{space.count} configurations"
        )
    print(f"OK: {len(benches)} bench(es) valid")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    space = _named_space(args)
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
    space = _named_space(args)
    config = None if args.config is None else space.at(args.config)
    write_text_atomic(args.output, _chart(space, config, ChartStyle()))
    print(f"wrote {args.output}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    space = _named_space(args)
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
    spaces = [bench.space() for bench in _load(_checked_registry, args.registry).values()]
    suite = load_suite(args.suite)
    budget = load_budget(args.budget) if args.budget else None
    try:  # assign_exact's pass, or assign_greedy's, on the spaces
        plan = _solve(suite.test_cases, spaces, budget, suite.overrides, None if args.exact else 1)
    except InstanceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_summary(save_plan(plan, args.output))
    print(f"wrote {args.output}")
    return 1 if plan.unassignable else 0


# Each subcommand's grammar: its help, its handler, its positionals and its
# options, each by its flags (the long one last names its destination) as
# (value type, required); a value type of None marks a switch. ``_plain``
# reads plain argvs by it and ``_parser`` builds the one argparse parser,
# which reads every other argv, from it.
_GRAMMAR: dict[str, tuple[str, Callable[[argparse.Namespace], int], tuple[str, ...], dict]] = {
    "validate": ("load a registry and report every bench", cmd_validate, ("registry",), {}),
    "enumerate": ("list or count a bench's configurations", cmd_enumerate, ("registry",), {
        ("--bench",): (str, True), ("--count-only",): (None, False),
    }),
    "chart": ("render a bench or configuration radar chart", cmd_chart, ("registry",), {
        ("--bench",): (str, True), ("--config",): (int, False), ("-o", "--output"): (str, True),
    }),
    "classify": ("print a configuration's test method", cmd_classify, ("registry",), {
        ("--bench",): (str, True), ("--config",): (int, True),
    }),
    "assign": ("assign a suite to configurations", cmd_assign, ("registry", "suite"), {
        ("--budget",): (str, False), ("--exact",): (None, False), ("-o", "--output"): (str, True),
    }),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The full parser, built from ``_GRAMMAR`` on the first run that needs
    it, not at import. Parsing leaves it unchanged, so every later call in
    the process reuses it."""
    parser = argparse.ArgumentParser(
        prog="benchlattice",
        description=(
            "Classify test benches, enumerate their configurations and assign "
            "test cases to the cheapest admissible configuration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, positionals, options) in _GRAMMAR.items():
        p = sub.add_parser(name, help=help_text)
        for positional in positionals:
            p.add_argument(positional)
        for flags, (kind, required) in options.items():
            if kind is None:
                p.add_argument(*flags, action="store_true")
            else:
                p.add_argument(*flags, type=kind, required=required)
        p.set_defaults(handler=handler)
    return parser


# Per subcommand, what ``_plain`` reads: the handler, the positionals and
# each flag's destination, value type and whether it is required.
_PLAIN = {
    name: (handler, positionals, {
        flag: (flags[-1][2:].replace("-", "_"), kind, required)
        for flags, (kind, required) in options.items() for flag in flags
    })
    for name, (_, handler, positionals, options) in _GRAMMAR.items()
}


def _plain(argv: Sequence[str]) -> argparse.Namespace | None:
    """``argv`` read by ``_GRAMMAR`` in one pass, when it is plainly spelled:
    a subcommand first, every option in full and at most once, each value
    the next token, and no other token starting with ``-``. The full parser
    reads such an argv to the same namespace, ``command`` included; None
    for any other argv."""
    grammar = _PLAIN.get(argv[0]) if argv else None
    if grammar is None:
        return None
    handler, positionals, by_flag = grammar
    values: dict[str, Any] = {"command": argv[0], "handler": handler}
    free = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token.__class__ is not str:
            return None
        if token[:1] != "-":
            free.append(token)
            continue
        dest, kind, _ = by_flag.get(token, (None, None, False))
        if dest is None or dest in values:
            return None
        if kind is not None:
            token = next(tokens, None)
            if token.__class__ is not str or token[:1] == "-":
                return None
        try:
            values[dest] = True if kind is None else kind(token)
        except (TypeError, ValueError):
            return None
    if len(free) != len(positionals):
        return None
    for dest, kind, required in by_flag.values():
        if required and dest not in values:
            return None
        values.setdefault(dest, False if kind is None else None)
    values.update(zip(positionals, free))
    return argparse.Namespace(**values)


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _plain(argv) or _parser().parse_args(argv)
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
