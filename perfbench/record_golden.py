"""Record the reference digests that every benchmark run compares against.

Usage, from the root of a checkout::

    python3 perfbench/record_golden.py FIRST_SEED LAST_SEED

For each workload and seed it generates the inputs, runs every operation of
the pool once (untimed), verifies the outputs and stores the digests of the
inputs and of all outputs in ``golden.json``. Run it only when a change is
meant to alter inputs or output bytes, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402


def main(argv: list[str]) -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import check

    first, last = int(argv[0]), int(argv[1])
    golden = json.loads(check.GOLDEN.read_text(encoding="utf-8"))
    work = root / ".perfbench_work" / "golden"
    for name in sorted(gen.GENERATORS):
        for seed in range(first, last + 1):
            shutil.rmtree(work, ignore_errors=True)
            workload = gen.generate(name, work, seed)
            verdict = check.verify(workload, [], seed, golden=False)
            if verdict.problems:
                print(f"{name} seed {seed}: not recorded: {verdict.problems[:3]}", file=sys.stderr)
                return 1
            golden.setdefault(name, {})[str(seed)] = {
                "inputs": workload.inputs_sha256(),
                "outputs": verdict.outputs_sha256,
            }
            print(f"{name} seed {seed}: {verdict.outputs_sha256}")
    shutil.rmtree(work, ignore_errors=True)
    check.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
