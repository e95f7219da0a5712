"""Reference vs fast backend on the ``bench_core`` hot-path workloads.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_backends.py -q

The pytest-benchmark groups compare the two backends per workload; the
summary test times the array hot path directly (min-of-repeats), writes
``results/bench/backends.json`` so the perf trajectory of the backend
speedup is tracked across PRs, and asserts the fast backend's headline
speedup (the acceptance bar is 1.5x over the seed array path, which the
reference backend preserves unchanged; typical measured speedups are
4x on binary16alt and >30x on binary32).

The scalar ``quantize`` rows (kernel emission rounds every emitted
value one scalar at a time) time both backends per call as the median
of back-to-back paired ratios, alternating which runs first, gated at
>= 2x per standard format and recorded in the same file under
``scalar_quantize``.
"""

import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    FlexFloatArray,
)
from repro.core.backend import resolve_backend
from repro.session import Session

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results" / "bench"

BACKENDS = ("reference", "fast")
FORMATS = {
    "binary8": BINARY8,
    "binary16": BINARY16,
    "binary16alt": BINARY16ALT,
    "binary32": BINARY32,
}


@pytest.fixture(scope="module")
def payload():
    rng = np.random.default_rng(11)
    return rng.normal(0.0, 100.0, 4096)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fmt_name", FORMATS)
class TestQuantizeArray:
    def test_quantize_array(self, benchmark, payload, backend, fmt_name):
        engine = resolve_backend(backend)
        fmt = FORMATS[fmt_name]
        benchmark.group = f"quantize_array/{fmt_name}"
        out = benchmark(engine.quantize_array, payload, fmt)
        assert out.shape == payload.shape


@pytest.mark.parametrize("backend", BACKENDS)
class TestEmulatedArrayOps:
    def test_array_multiply(self, benchmark, payload, backend):
        benchmark.group = "array_multiply/binary16alt"
        with Session(backend=backend):
            a = FlexFloatArray(payload, BINARY16ALT)
            b = FlexFloatArray(payload[::-1].copy(), BINARY16ALT)
            out = benchmark(lambda: a * b)
        assert out.size == payload.size

    def test_array_tree_sum(self, benchmark, payload, backend):
        benchmark.group = "tree_sum/binary16alt"
        with Session(backend=backend):
            a = FlexFloatArray(payload, BINARY16ALT)
            result = benchmark(a.sum)
        assert float(result) == pytest.approx(np.sum(payload), rel=0.05)

    def test_array_dot(self, benchmark, payload, backend):
        benchmark.group = "dot/binary16alt"
        with Session(backend=backend):
            a = FlexFloatArray(payload, BINARY16ALT)
            b = FlexFloatArray(payload[::-1].copy(), BINARY16ALT)
            benchmark(a.dot, b)


def _record(entries: dict) -> None:
    """Merge ``entries`` into ``results/bench/backends.json``."""
    path = RESULTS_DIR / "backends.json"
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    report = json.loads(path.read_text()) if path.exists() else {}
    report.update(entries)
    path.write_text(json.dumps(report, indent=2))


def _time_workload(backend_name: str, payload: np.ndarray, fmt) -> float:
    """Best-of-repeats seconds for the emulated mul+tree-sum hot path."""
    with Session(backend=backend_name):
        a = FlexFloatArray(payload, fmt)
        b = FlexFloatArray(payload[::-1].copy(), fmt)
        a.dot(b)  # warm up kernels and caches
        best = np.inf
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(20):
                a.dot(b)
            best = min(best, (time.perf_counter() - start) / 20)
    return best


class TestSpeedupSummary:
    def test_fast_backend_beats_seed_array_hot_path(self, payload):
        """The acceptance bar: >= 1.5x on the array hot path.

        The reference backend runs the seed code path unchanged, so the
        reference/fast ratio *is* the speedup over the seed.
        """
        report = {}
        for fmt_name, fmt in FORMATS.items():
            ref = _time_workload("reference", payload, fmt)
            fast = _time_workload("fast", payload, fmt)
            report[fmt_name] = {
                "reference_us": ref * 1e6,
                "fast_us": fast * 1e6,
                "speedup": ref / fast,
            }
        _record(report)
        lines = [
            f"  {name:12s} {r['reference_us']:9.1f}us -> "
            f"{r['fast_us']:7.1f}us  ({r['speedup']:.1f}x)"
            for name, r in report.items()
        ]
        print("\nbackend speedup (dot, 4096 elements):\n" + "\n".join(lines))
        for name, r in report.items():
            assert r["speedup"] >= 1.5, (
                f"fast backend only {r['speedup']:.2f}x on {name}"
            )


#: Scalar values per timed batch, and back-to-back batch pairs per format.
SCALARS_PER_BATCH = 2000
SCALAR_PAIRS = 6


def _paired_ratio(slow, fast, pairs: int = SCALAR_PAIRS) -> dict:
    """Median slow/fast ratio over back-to-back paired batches.

    Each pair times both batches under the same conditions (alternating
    which runs first), so CPU frequency drift and background load
    cancel in the ratio; the median discards the pairs a scheduler
    hiccup landed in.
    """
    ratios, slows, fasts = [], [], []
    for rep in range(pairs):
        order = (slow, fast) if rep % 2 == 0 else (fast, slow)
        seconds = {}
        for batch in order:
            start = time.perf_counter()
            batch()
            seconds[batch] = time.perf_counter() - start
        slows.append(seconds[slow])
        fasts.append(seconds[fast])
        ratios.append(seconds[slow] / seconds[fast])
    return {
        "pairs": pairs,
        "slow_seconds": min(slows),
        "fast_seconds": min(fasts),
        "ratio": statistics.median(ratios),
    }


class TestScalarQuantize:
    def test_fast_scalar_quantize_beats_reference(self, payload):
        """Per-call scalar rounding: fast >= 2x the reference, every
        standard format (the emitted values of a kernel build)."""
        values = [float(v) for v in payload[:SCALARS_PER_BATCH]]
        reference = resolve_backend("reference")
        fast = resolve_backend("fast")
        report = {}
        for fmt_name, fmt in FORMATS.items():
            def reference_batch(fmt=fmt):
                for v in values:
                    reference.quantize(v, fmt)

            def fast_batch(fmt=fmt):
                for v in values:
                    fast.quantize(v, fmt)

            fast_batch()  # warm the params cache
            measured = _paired_ratio(reference_batch, fast_batch)
            report[fmt_name] = {
                "reference_ns": measured["slow_seconds"] / len(values) * 1e9,
                "fast_ns": measured["fast_seconds"] / len(values) * 1e9,
                "speedup": measured["ratio"],
                "pairs": measured["pairs"],
            }
        _record({"scalar_quantize": report})
        print("\nscalar quantize per call (median of paired ratios):\n"
              + "\n".join(
                  f"  {name:12s} {r['reference_ns']:7.0f}ns -> "
                  f"{r['fast_ns']:6.0f}ns  ({r['speedup']:.1f}x)"
                  for name, r in report.items()
              ))
        for name, r in report.items():
            assert r["speedup"] >= 2.0, (
                f"fast scalar quantize only {r['speedup']:.2f}x on {name}"
            )
