"""Fault-tolerance layer: clean-path overhead and recovery latency.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_faults.py -q

Times the same tiny-scale grid three ways -- bare (write verification
off, zero retries: the pre-hardening fast path), fault-tolerant
defaults (verify-on-save, retry policy, ledger), and fault-tolerant
under a 10% injected worker-crash rate -- cross-checks that all three
produce bit-identical stores, and writes the series to
``results/bench/faults.json``.

Gates: the fault-tolerance layer must cost < 5% wall time on a clean
grid -- the median guarded/bare ratio over back-to-back pairs, with no
absolute slack -- and crash recovery must actually recompute everything
(no failures, some retries).
"""

import json
import shutil
import statistics
import time
from pathlib import Path

from repro import faults
from repro.faults import FaultPlan
from repro.runner import ExperimentRunner, RetryPolicy
from repro.session import Session
from repro.tuning import evaluation_memo

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results" / "bench"
WORK_DIR = RESULTS_DIR / "faults-work"

APPS = ("conv", "knn", "dwt")
PRECISIONS = (1e-1, 1e-2)
SCALE = "tiny"
JOBS = 2
CRASH_RATE = 0.10
#: Back-to-back bare/guarded pairs behind the overhead gate; even, so
#: each side runs first equally often.
PAIRS = 6


def make_runner(tag: str, **kwargs) -> ExperimentRunner:
    root = WORK_DIR / tag
    if root.exists():
        shutil.rmtree(root)
    return ExperimentRunner(
        session=Session(cache_dir=root / "tuning"),
        scale=SCALE,
        store_dir=root / "store",
        jobs=JOBS,
        **kwargs,
    )


def make_bare() -> ExperimentRunner:
    """The no-retry path: what the engine cost before hardening."""
    bare = make_runner("bare", retry=RetryPolicy(max_retries=0))
    bare.store.verify_writes = False
    return bare


def timed_run(runner: ExperimentRunner):
    specs = runner.grid(APPS, ["V2"], PRECISIONS)
    # Every run starts cold: no SQNR records from an earlier run.
    evaluation_memo.clear()
    start = time.perf_counter()
    results = runner.run(specs)
    return time.perf_counter() - start, results


def paired_overhead(pairs: int = PAIRS) -> dict:
    """Median guarded/bare ratio over back-to-back clean-grid pairs.

    Pairing each guarded run with an adjacent bare one (alternating
    which goes first) makes every ratio a same-conditions comparison;
    the median discards the pairs a scheduler hiccup landed in.  The
    last pair's runners and results come back for the identity checks.
    """
    ratios, bares, guardeds = [], [], []
    for rep in range(pairs):
        order = ("guarded", "bare") if rep % 2 else ("bare", "guarded")
        runs = {}
        for tag in order:
            runner = make_bare() if tag == "bare" else make_runner(tag)
            seconds, results = timed_run(runner)
            runs[tag] = (runner, seconds, results)
        bares.append(runs["bare"][1])
        guardeds.append(runs["guarded"][1])
        ratios.append(guardeds[-1] / bares[-1])
    return {
        "pairs": pairs,
        "bare_seconds": min(bares),
        "guarded_seconds": min(guardeds),
        "ratios": ratios,
        "overhead": statistics.median(ratios) - 1.0,
        "bare": runs["bare"][0],
        "guarded": runs["guarded"][0],
        "results": runs["guarded"][2],
    }


def store_bytes(runner):
    version_dir = runner.store.version_dir
    return {
        str(p.relative_to(version_dir)): p.read_bytes()
        for p in runner.store.entries()
    }


def test_fault_tolerance_overhead_and_recovery():
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    # Fault-tolerant defaults on a clean grid against the bare path:
    # the overhead under test.
    measured = paired_overhead()
    bare, guarded = measured["bare"], measured["guarded"]
    t_guarded = measured["guarded_seconds"]

    # Recovery latency: same grid under a 10% injected crash rate.
    faulty = make_runner("faulty")
    # Seed chosen so the 10% rate really crashes jobs on this grid
    # (knn and dwt at 1e-1 die on their first attempt).
    plan = FaultPlan(seed=2019, crash_rate=CRASH_RATE)
    with faults.use_plan(plan):
        t_faulty, out_faulty = timed_run(faulty)

    # All three paths agree bit for bit, and recovery lost nothing.
    assert store_bytes(bare) == store_bytes(guarded) == store_bytes(faulty)
    assert faulty.counters.failed == 0
    assert faulty.ledger.retries > 0  # seed chosen to actually crash

    overhead = measured["overhead"]
    recovery = t_faulty / t_guarded - 1.0
    payload = {
        "scale": SCALE,
        "apps": list(APPS),
        "precisions": list(PRECISIONS),
        "jobs": JOBS,
        "grid_size": len(measured["results"]),
        "crash_rate": CRASH_RATE,
        "seconds": {
            "bare": measured["bare_seconds"],
            "fault_tolerant": t_guarded,
            "crash_recovery": t_faulty,
        },
        "overhead_pairs": measured["pairs"],
        "overhead_ratios": measured["ratios"],
        "overhead_fraction": overhead,
        "recovery_overhead_fraction": recovery,
        "ledger": {
            "retries": faulty.ledger.retries,
            "pool_breaks": faulty.ledger.pool_breaks,
            "failures": faulty.ledger.failures,
        },
    }
    out_path = RESULTS_DIR / "faults.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out_path}\n{json.dumps(payload['seconds'], indent=2)}")

    # Gate: < 5% wall-time overhead on the clean grid, as the median of
    # paired ratios (no absolute slack).
    assert overhead <= 0.05, (
        f"fault-tolerance overhead {overhead:.1%} "
        f"(median of {measured['ratios']})"
    )

    shutil.rmtree(WORK_DIR, ignore_errors=True)
