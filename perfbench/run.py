"""benchlattice benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-assign --seed 1 --seconds 32 --trace 0

Workloads (inputs come from ``gen.py`` and the seed):

* ``fleet-assign``: ``assign`` of two-case suites over three benches of about
  300 configurations each, alternating no budget and a binding budget. Cost
  is enumeration plus per-configuration admissibility, cost and
  classification: where compile-once and factored search must show.
* ``config-lookup``: ``classify --config i`` and ``chart --config i`` at
  seeded indices of benches with 1.4e4 to 3.4e4 configurations. No
  admissibility work; every lookup enumerates the whole bench today.
* ``small-instances``: ``assign --exact`` and ``assign`` alternating over
  512 tiny registry/suite/budget triples. Per-call overhead dominates:
  loading, schema checks, validation, profiles, plan writing, the solvers.

The load is a closed loop with one client in one thread: each operation is
one ``benchlattice.cli.run`` call, issued as soon as the previous returns.
Every measurement runs in a fresh child process, one at a time: ``setup_s``
is the median over several interpreters that import the package and load
the workload's documents once; the timed loop runs in another.

Every time reported is scaled to a reference machine speed: a fixed kernel
(``calibrate.py``) is timed between operations in the measuring child and
between the set-up interpreters in the parent, and each operation's latency
and each set-up time is multiplied by the reference kernel time over the
median of the kernel samples around it. This takes out the drift of a
shared host's speed between and within runs; the unscaled figures are
printed too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced operations in one child and reports the per-module
metrics (per traced operation) and the tracing overhead. Outputs are
verified after the run (see ``check.py``); the last line of standard output
is the JSON result. Work files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from calibrate import Calibration  # noqa: E402

SETUP_RUNS = 7
#: Kernel samples the parent takes before each set-up interpreter and after
#: the last; each set-up time is scaled by the bursts on either side of it.
SETUP_KERNEL_SAMPLES = 10
#: An operation's latency is scaled by this many kernel samples on either
#: side of it (the worker samples about every 0.1 s).
LOOP_KERNEL_WINDOW = 3
CHILD_TIMEOUT_S = 150

# op_tail_ms percentile per workload: the highest round percentile that
# leaves at least 10 operations beyond it in a run at this commit, with
# margin for a slow machine. On small-instances operations repeat 1024
# distinct inputs whose costs differ widely, so its percentile also leaves
# about 20 distinct inputs beyond it: at p99 a handful of a seed's heaviest
# instances would set the tail. The percentile is fixed rather than derived
# from the run's operation count so that a faster program, which completes
# more operations, is compared at the same percentile as its parent.
TAIL_PERCENTILE = {"fleet-assign": 85.0, "config-lookup": 90.0, "small-instances": 98.0}
MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Result:
    metrics: dict
    lines: list[str]
    verdict: object
    workload: gen.Workload
    records: list


def _child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "BENCHLATTICE_CONFIG_CAP")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _child(args: list[str], root: Path, timeout: float) -> float:
    """Run ``worker.py`` with ``args``; return its wall time in seconds."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root, env=_child_env(root), capture_output=True, text=True, timeout=timeout,
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return elapsed


def percentile(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of operations beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def metadata(root: Path) -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(root),
        "src_lines": src_lines,
    }


def _git_sha(root: Path) -> str:
    """HEAD of a checkout that is a git repository, read without running
    git (which would search parent directories); "unknown" otherwise."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(
    root: Path,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    work: Path | None = None,
    scale: float = 1.0,
    setup_runs: int = SETUP_RUNS,
) -> Result:
    """Generate, set up, measure and verify one workload run.

    ``scale`` below 1 shrinks the benches and pools (for smoke runs); the
    recorded output digests apply only at full scale."""
    sys.path.insert(0, str(root / "src"))
    import check

    work = work or root / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    workload = gen.generate(name, work, seed, scale)
    spec = {
        "ops": [asdict(op) for op in workload.ops],
        "registries": sorted({op.registry for op in workload.ops}),
        "suites": sorted({op.suite for op in workload.ops if op.suite}),
        "budgets": sorted({op.budget for op in workload.ops if op.budget}),
        "seconds": seconds,
        "trace": trace,
        "spans": str(work / "spans.json"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    result_path = work / "result.json"
    _child(["measure", str(spec_path), str(result_path)], root, seconds + CHILD_TIMEOUT_S)
    # Set-up samples follow the timed loop, which leaves the bytecode cache
    # warm. Traced runs report no set-up time and skip them.
    setup_times = []
    setup_calibration = Calibration()
    if not trace:
        for _ in range(setup_runs):
            setup_calibration.sample(SETUP_KERNEL_SAMPLES)
            setup_times.append(_child(["setup", str(spec_path)], root, CHILD_TIMEOUT_S))
        setup_calibration.sample(SETUP_KERNEL_SAMPLES)
    measured = json.loads(result_path.read_text(encoding="utf-8"))
    records = measured["records"]
    latencies = [rec[3] for rec in records]
    loop_calibration = Calibration(measured["kernel_s"])
    scaled_latencies = loop_calibration.scaled(latencies, measured["kernel_at"], LOOP_KERNEL_WINDOW)
    # Time outside the operations (digests, records) is scaled at their mean rate.
    scale_loop = sum(scaled_latencies) / sum(latencies)
    scaled_setup = setup_calibration.scaled(
        setup_times, [SETUP_KERNEL_SAMPLES * (i + 1) for i in range(len(setup_times))],
        SETUP_KERNEL_SAMPLES,
    )

    verdict = check.verify(workload, records, seed, golden=scale >= 1)
    meta = metadata(root)
    lines = [
        f"workload {name} seed {seed} trace {int(trace)} seconds {seconds}",
        f"python {meta['python']} nproc {meta['nproc']} git {meta['git_sha']} src_lines {meta['src_lines']}",
        f"inputs sha256 {workload.inputs_sha256()} ({len(workload.documents)} documents)",
        "configurations " + _counts(workload.config_counts),
        f"outputs sha256 {verdict.outputs_sha256} ({verdict.golden})",
    ]
    details = {"meta": meta, "setup_times_s": setup_times}
    lines.append(f"time scale {scale_loop:.4f} from {len(loop_calibration.samples)} kernel samples "
                 f"(median {statistics.median(loop_calibration.samples) * 1e3:.4f} ms)")
    if trace:
        traced = [t for rec, t in zip(records, scaled_latencies) if rec[5]]
        plain = [t for rec, t in zip(records, scaled_latencies) if not rec[5]]
        traced_p50, plain_p50 = statistics.median(traced), statistics.median(plain)
        metrics = {
            name: {"value": entry["value"] * (scale_loop if entry["unit"] == "s/op" else 1.0),
                   "unit": entry["unit"]}
            for name, entry in measured["layers"].items()
        }
        metrics["trace.overhead_ratio"] = {"value": traced_p50 / plain_p50, "unit": "ratio"}
        lines.append(
            f"traced ops {len(traced)} (op_p50_ms {traced_p50 * 1e3:.3f}), "
            f"untraced ops {len(plain)} (op_p50_ms {plain_p50 * 1e3:.3f})"
        )
        lines.append(f"spans kept {measured['spans']['kept']} dropped {measured['spans']['dropped']} "
                     f"in {measured['spans']['path']}")
        lines.append("largest self-time shares: " + ", ".join(
            f"{span} {share:.1%}" for span, share in measured["self_shares"]))
    else:
        tail_pct = TAIL_PERCENTILE[name]
        p_tail, beyond = percentile(scaled_latencies, tail_pct)
        raw = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(records) / measured["elapsed_s"],
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": percentile(latencies, tail_pct)[0] * 1e3,
        }
        scaled = {
            "setup_s": statistics.median(scaled_setup),
            "ops_per_s": raw["ops_per_s"] / scale_loop,
            "op_p50_ms": statistics.median(scaled_latencies) * 1e3,
            "op_tail_ms": p_tail * 1e3,
            "peak_rss_mb": measured["peak_rss_kb"] / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in scaled.items()}
        lines.append(f"op_tail_ms is p{tail_pct:g}: {beyond} of {len(records)} operations are slower")
        if beyond < MIN_BEYOND:
            lines.append(f"warning: fewer than {MIN_BEYOND} operations beyond p{tail_pct:g}")
        lines.append(f"setup_s is the median of {setup_runs} fresh interpreters")
        lines.append(f"set-up scale {sum(scaled_setup) / sum(setup_times):.4f} "
                     f"from {len(setup_calibration.samples)} kernel samples")
        lines.append("unscaled: " + " ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for metric, entry in metrics.items():
        lines.append(f"{metric} {entry['value']:.6g} {entry['unit']}")
    ratio = verdict.failed / verdict.attempted if verdict.attempted else 0.0
    lines.append(f"failed_ops_ratio {ratio:.6g} ({verdict.failed} failed / {verdict.attempted} attempted)")
    lines.extend(f"problem: {p}" for p in verdict.problems[:20])
    (work / "run.json").write_text(
        json.dumps({"lines": lines, "metrics": metrics, "details": details,
                    "documents": workload.documents}, indent=1),
        encoding="utf-8",
    )
    return Result(metrics, lines, verdict, workload, records)


def _counts(counts: dict[str, int]) -> str:
    if len(counts) <= 4:
        return " ".join(f"{bench}={n}" for bench, n in counts.items())
    return f"{len(counts)} benches, {sum(counts.values())} in total, at most {max(counts.values())} each"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "benchlattice" / "__init__.py").is_file():
        print(f"error: no benchlattice sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    try:
        result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in result.lines:
        print(line)
    verdict = result.verdict
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": result.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
