"""Shipped example documents: two classified benches, a demo suite and a
bench-time budget."""

from __future__ import annotations

from pathlib import Path

__all__ = ["fixture_path", "FIXTURES"]

FIXTURES = (
    "sil_bench.json",
    "test_vehicle_bench.json",
    "fleet_bench.json",
    "demo_suite.suite.json",
    "demo.budget.json",
)


def fixture_path(name: str) -> Path:
    """Filesystem path of a shipped document: the packaged file itself, which
    lives next to this module."""
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURES)}")
    return Path(__file__).with_name(name)
