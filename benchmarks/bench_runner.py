"""Experiment-engine timings: serial vs parallel, cold vs warm.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_runner.py -q

Times the same tiny-scale grid four ways -- cold serial, cold parallel
(2 workers), warm store, and in-memory memo -- cross-checks that every
path produces bit-identical results, and writes the series to
``results/bench/runner.json`` so the campaign engine's speedup and cache
behaviour are tracked across PRs.

The grid is deliberately tuning-heavy (three apps x two precisions):
tuning dominates flow cost, which is exactly the work the process pool
shards and the store amortizes.  Parallel speedup on this box is bounded
by the slowest single job (PCA tuning); warm replay should be orders of
magnitude faster than any cold path.
"""

import json
import shutil
import time
from pathlib import Path

from repro.runner import ExperimentRunner
from repro.session import Session
from repro.tuning import evaluation_memo

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results" / "bench"
WORK_DIR = RESULTS_DIR / "runner-work"

APPS = ("conv", "knn", "dwt")
PRECISIONS = (1e-1, 1e-2)
SCALE = "tiny"
JOBS = 2


def make_runner(tag: str, jobs: int, wipe: bool = True) -> ExperimentRunner:
    root = WORK_DIR / tag
    if wipe and root.exists():
        shutil.rmtree(root)
    return ExperimentRunner(
        session=Session(cache_dir=root / "tuning"),
        scale=SCALE,
        store_dir=root / "store",
        jobs=jobs,
    )


def timed_run(runner: ExperimentRunner):
    specs = runner.grid(APPS, ["V2"], PRECISIONS)
    # Cold paths must not read SQNR records an earlier path left behind
    # (pool workers forked from this process would inherit them).
    evaluation_memo.clear()
    start = time.perf_counter()
    results = runner.run(specs)
    return time.perf_counter() - start, results


def test_runner_serial_vs_parallel_cold_vs_warm():
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    serial = make_runner("serial", jobs=1)
    t_serial_cold, out_serial = timed_run(serial)

    parallel = make_runner("parallel", jobs=JOBS)
    t_parallel_cold, out_parallel = timed_run(parallel)

    # Warm store, fresh engine (no memo): pure disk replay.
    warm = make_runner("parallel", jobs=JOBS, wipe=False)
    t_warm, out_warm = timed_run(warm)

    # Same engine again: in-memory memo.
    t_memo, _ = timed_run(warm)

    # Every path must agree bit for bit.
    for spec in out_serial:
        assert out_serial[spec] == out_parallel[spec] == out_warm[spec]
    assert warm.counters.computed == 0

    n_jobs = len(out_serial)
    payload = {
        "scale": SCALE,
        "apps": list(APPS),
        "precisions": list(PRECISIONS),
        "jobs": JOBS,
        "grid_size": n_jobs,
        "seconds": {
            "cold_serial": t_serial_cold,
            "cold_parallel": t_parallel_cold,
            "warm_store": t_warm,
            "memo": t_memo,
        },
        "speedups": {
            "parallel_over_serial": t_serial_cold / t_parallel_cold,
            "warm_over_cold_serial": t_serial_cold / max(t_warm, 1e-9),
        },
    }
    out_path = RESULTS_DIR / "runner.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out_path}\n{json.dumps(payload['seconds'], indent=2)}")

    # Loose sanity gates (this is a tracking benchmark, not a race):
    # warm replay must beat any cold path by a wide margin.
    assert t_warm < t_serial_cold / 3
    assert t_memo <= t_warm + 0.5

    shutil.rmtree(WORK_DIR, ignore_errors=True)
