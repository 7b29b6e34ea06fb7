"""Child process of the benchmark: one fresh interpreter per measurement.

Usage (the parent sets PYTHONPATH to the checkout's ``src``)::

    python3 perfbench/worker.py setup SPEC
    python3 perfbench/worker.py measure SPEC RESULT

``setup`` imports the package and loads and validates every document of the
workload once; the parent times the whole process. ``measure`` runs the
operation pool as a closed loop (one client, one thread: each CLI call is
issued as soon as the previous one returns) for the spec's duration and
writes per-operation records to RESULT. With tracing on, traced and untraced
operations alternate (each slot in turn both ways), so the tracing overhead
is measured in the same process over the same stretch of time. Between
operations, at least every ``CALIBRATE_EVERY_S``, the loop times the
calibration kernel (``calibrate.py``); the parent scales times by it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from calibrate import Calibration

CALIBRATE_EVERY_S = 0.1


def setup(spec: dict) -> None:
    import benchlattice  # noqa: F401  (the import is part of what is timed)
    from benchlattice.registry import load_budget, load_registry, load_suite

    for path in spec["registries"]:
        load_registry(path)
    for path in spec["suites"]:
        load_suite(path)
    for path in spec["budgets"]:
        load_budget(path)


def _digest(path: str) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def run_op(cli, op: dict) -> tuple[int, float, str | None]:
    """One CLI call: (exit code, latency in seconds, output digest)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        code = cli.run(op["argv"])
        latency = perf_counter() - start
    if op["kind"] == "classify":
        Path(op["output"]).write_text(stdout.getvalue(), encoding="utf-8")
    return code, latency, _digest(op["output"])


def closed_loop(
    cli, ops: list[dict], seconds: float, calibration: Calibration, tracer=None
) -> tuple[list, list, float]:
    """Run ops round-robin for ``seconds`` (at least one op), sampling the
    calibration kernel between them; returns records [op index, slot, exit
    code, latency s, digest, traced], the number of kernel samples taken
    before each record and the elapsed wall time of the loop less the time
    spent calibrating."""
    records, kernel_at = [], []
    start = perf_counter()
    deadline = start + seconds
    calibrated_at = start - CALIBRATE_EVERY_S  # sample after the first op too
    index = 0
    while True:
        op = ops[index % len(ops)]
        traced = tracer is not None and (index % len(ops) + index // len(ops)) % 2 == 1
        if traced:
            tracer.op = index
            tracer.install()
        code, latency, digest = run_op(cli, op)
        if traced:
            tracer.uninstall()
        records.append([index, op["slot"], code, latency, digest, int(traced)])
        kernel_at.append(len(calibration.samples))
        index += 1
        now = perf_counter()
        if now - calibrated_at >= CALIBRATE_EVERY_S:
            calibration.sample()
            calibrated_at = now
        if now >= deadline:
            break
    return records, kernel_at, perf_counter() - start - calibration.spent_s


def measure(spec: dict, result_path: Path) -> None:
    from benchlattice import cli

    ops = spec["ops"]
    run_op(cli, ops[0])  # warm-up, not recorded: lazy set-up inside the interpreter
    Calibration().sample(3)  # warm-up, not recorded
    calibration = Calibration()
    seconds = spec["seconds"]
    result: dict = {}
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    records, kernel_at, elapsed = closed_loop(cli, ops, seconds, calibration, tracer)
    result["records"] = records
    result["elapsed_s"] = elapsed
    result["kernel_s"] = calibration.samples
    result["kernel_at"] = kernel_at
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(sum(rec[5] for rec in records))
        result["self_shares"] = tracer.self_shares()[:8]
        spans_path = Path(spec["spans"])
        tracer.write_spans(spans_path)
        result["spans"] = {"path": str(spans_path), "kept": len(tracer.spans), "dropped": tracer.dropped}
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result_path.write_text(json.dumps(result), encoding="utf-8")


def main(argv: list[str]) -> int:
    mode, spec_path = argv[0], argv[1]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if mode == "setup":
        setup(spec)
    else:
        measure(spec, Path(argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
