"""Cross-check the benchmark's wrappers against the program's own trace.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/crosscheck.py

Runs the grid_cold workload once in this process with the program's
telemetry on (``REPRO_TELEMETRY=1``) and the benchmark's wrappers
installed, then compares call counts span by span.  Exits non-zero if
any pair differs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from common import WORK_DIR
from tracer import Recorder, install, layer_metrics
from worker import Checker, grid_cold

#: Program span name -> the benchmark's span name for the same call.
PAIRS = {
    "tuning.evaluate": "tuning.evaluate",
    "platform.run": "hardware.platform_run",
    "cluster.run": "cluster.run",
    "store.save": "runner.store_save",
}


def main() -> int:
    import repro.telemetry as telemetry

    work = WORK_DIR / "crosscheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ[telemetry.ENV_VAR] = "1"
    os.environ[telemetry.DIR_ENV_VAR] = str(work)
    telemetry.enable_from_env()
    rec = Recorder()
    install(rec)
    checker = Checker()
    out = grid_cold(
        dict(work=str(work), seed=0, seconds=0, probe=False), checker, rec
    )
    telemetry.flush()
    program: dict[str, int] = {}
    with open(telemetry.trace_path()) as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("kind") == "span":
                name = record["name"]
                program[name] = program.get(name, 0) + 1
    ours = layer_metrics(rec.spans, out["windows"])
    shutil.rmtree(work, ignore_errors=True)
    mismatched = 0
    for theirs, mine in PAIRS.items():
        a, b = program.get(theirs, 0), ours[f"{mine}.calls"]
        mismatched += a != b
        print(f"{theirs:18s} program {a:6d}   benchmark {mine} {b:6d}"
              + ("" if a == b else "   MISMATCH"))
    print(f"tuning.evaluate.duplicates {ours['tuning.evaluate.duplicates']}"
          f" of {ours['tuning.evaluate.calls']}")
    print(f"unattributed_s {ours['unattributed_s']:.3f} of "
          f"{sum(e - s for s, e in out['windows']):.3f} s traced")
    print(f"outputs checked {checker.attempted}, "
          f"failed {len(checker.failures)}")
    return 1 if mismatched or checker.failures else 0


if __name__ == "__main__":
    sys.exit(main())
