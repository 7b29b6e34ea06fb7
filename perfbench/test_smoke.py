"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def tiny_run(name: str, trace: bool, tmp_path: Path) -> run.Result:
    return run.run_workload(
        ROOT, name, SEED, 0.5, trace, work=tmp_path / name, scale=0.05, setup_runs=1
    )


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_reported_without_failures(name, trace, section, tmp_path):
    result = tiny_run(name, trace, tmp_path)
    units = {metric: entry["unit"] for metric, entry in result.metrics.items()}
    assert units == {m["name"]: m["unit"] for m in DECLARED[section]}
    assert all(isinstance(entry["value"], float) for entry in result.metrics.values())
    assert result.verdict.attempted >= 1
    assert result.verdict.failed == 0, result.verdict.problems
    assert result.verdict.correct


def test_workload_names_match_the_declaration():
    assert sorted(gen.GENERATORS) == sorted(w["name"] for w in DECLARED["workloads"])


def test_tampered_plan_counts_as_failed_operation(tmp_path):
    result = tiny_run("fleet-assign", False, tmp_path)
    op = result.workload.ops[0]
    ran = sum(1 for rec in result.records if rec[1] == op.slot)
    plan = json.loads(Path(op.output).read_text(encoding="utf-8"))
    entry = next(iter(plan["assignments"].values()))
    entry["monetary_cost"] += 1.0
    Path(op.output).write_text(json.dumps(plan, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    verdict = check.verify(result.workload, result.records, SEED, golden=False)
    assert verdict.failed == ran >= 1
    assert not verdict.correct
    assert any("cost" in problem for problem in verdict.problems)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-assign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
