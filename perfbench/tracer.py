"""Benchmark-side spans around the program's public entry points.

:func:`install` wraps one method or function per layer boundary; each
call records a span (name, start, end, parent, thread) in memory.  The
program's own telemetry stays off: nothing here touches it.  Spans are
written out once, when the run ends (:meth:`Recorder.dump`), and
:func:`layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import weakref

from common import APPS

#: Span names that enclose a whole workload pass: their self time is
#: reported, but they do not count as attributed time.
ROOT_SPANS = ("runner.run",)


class Recorder:
    """Spans kept in memory as lists ``[name, start, end, parent,
    thread, attrs]``; ``parent`` is an index into :attr:`spans`, and a
    dropped span keeps its slot with ``name`` None."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [name, time.perf_counter(), None, parent,
                threading.get_ident(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int, keep: bool = True) -> None:
        self._stack().pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        if not keep:
            span[0] = None  # dropped: a cached call did no work

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _wrap(owner, attr: str, name: str, rec: Recorder, after=None) -> None:
    """Replace ``owner.attr`` by a spanned call; ``after(span, args,
    result)`` may annotate the span and returns False to drop it."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def spanned(*args, **kwargs):
        index = rec.begin(name)
        keep = True
        try:
            result = original(*args, **kwargs)
            if after is not None:
                keep = after(rec.spans[index], args, result)
            return result
        finally:
            rec.end(index, keep)

    setattr(owner, attr, spanned)


def _set(span: list, **attrs) -> None:
    if span[5] is None:
        span[5] = {}
    span[5].update(attrs)


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark measures."""
    from repro.apps import APP_CLASSES, TransprecisionApp
    from repro.cluster import ClusterPlatform
    from repro.flow import TransprecisionFlow
    from repro.hardware import Program, VirtualPlatform
    from repro.runner import ExperimentRunner, ResultStore
    import repro.runner.engine as engine
    import repro.server.app as server_app
    from repro.tuning import DistributedSearch, TuningStrategy

    # tuning: only uncached evaluations cost a program run; they are
    # the calls that move ``search.evaluations``.
    original_evaluate = DistributedSearch.evaluate

    @functools.wraps(original_evaluate)
    def evaluate(search, precisions, input_id):
        before = search.evaluations
        index = rec.begin("tuning.evaluate")
        try:
            return original_evaluate(search, precisions, input_id)
        finally:
            rec.end(index, keep=search.evaluations != before)

    DistributedSearch.evaluate = evaluate
    _wrap(TuningStrategy, "solve", "tuning.solve", rec)

    # apps: run_numeric and build_program are defined per application.
    def numeric_after(span, args, result):
        app, binding = args[0], args[1]
        input_id = args[2] if len(args) > 2 else 0
        parent = span[3]
        if parent is not None:
            evaluation = rec.spans[parent]
            if evaluation[0] == "tuning.evaluate" and not evaluation[5]:
                # The first program run inside an evaluation is the
                # candidate binding (a second one is the reference).
                key = [app.name, app.scale.name, input_id,
                       sorted((k, v.exp_bits, v.man_bits)
                              for k, v in binding.items())]
                _set(evaluation, app=app.name, key=json.dumps(key))
        return True

    for cls in APP_CLASSES.values():
        if "run_numeric" in vars(cls):
            _wrap(cls, "run_numeric", "apps.run_numeric", rec,
                  after=numeric_after)
        if "build_program" in vars(cls):
            _wrap(cls, "build_program", "apps.build_program", rec)
    _wrap(TransprecisionApp, "partition", "apps.partition", rec)

    # hardware: lowering is cached per program, so only first calls
    # do work; replays record how many instructions they simulated.
    lowered = weakref.WeakSet()
    original_columns = Program.columns

    @functools.wraps(original_columns)
    def columns(program):
        if program in lowered:
            return original_columns(program)
        lowered.add(program)
        index = rec.begin("hardware.columns")
        try:
            return original_columns(program)
        finally:
            rec.end(index)

    Program.columns = columns

    def replay_after(span, args, result):
        _set(span, instructions=len(args[1].instrs))
        return True

    def cluster_after(span, args, result):
        _set(span, instructions=sum(len(p.instrs) for p in args[1]))
        return True

    _wrap(VirtualPlatform, "run", "hardware.platform_run", rec,
          after=replay_after)
    _wrap(ClusterPlatform, "run", "cluster.run", rec, after=cluster_after)

    # runner, store and flow.
    def load_after(span, args, result):
        _set(span, hit=result is not None)
        return True

    _wrap(ResultStore, "load", "runner.store_load", rec, after=load_after)
    _wrap(ResultStore, "save", "runner.store_save", rec)
    _wrap(ResultStore, "get_or_begin", "runner.get_or_begin", rec)
    _wrap(ExperimentRunner, "run", "runner.run", rec)
    _wrap(TransprecisionFlow, "run", "flow.run", rec)
    # Job bodies: the serial runner and execute_job call these module
    # globals; the server calls execute_job through its own module.
    for owner, attr in ((engine, "compute_flow"), (engine, "compute_job"),
                        (server_app, "execute_job")):
        _wrap(owner, attr, "runner.job", rec)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Span names reported as ``<name>.calls`` and ``<name>.s``.
TIMED = (
    "tuning.evaluate",
    "tuning.solve",
    "apps.run_numeric",
    "apps.build_program",
    "apps.partition",
    "hardware.columns",
    "hardware.platform_run",
    "cluster.run",
    "runner.run",
    "runner.job",
    "runner.store_load",
    "runner.store_save",
    "runner.get_or_begin",
    "flow.run",
)
#: Spans whose self time (duration minus direct children) is reported.
SELF_TIMED = ("runner.run", "runner.job", "flow.run")


def _union_length(intervals) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(spans: list, windows: list) -> dict:
    """Per-layer metrics from a span list and the measured windows.

    ``.s`` sums each name's outermost spans only (a nested span of the
    same name is already inside its parent's time); ``.self_s`` is a
    span's duration minus its direct children's.  ``unattributed_s`` is
    the measured time no non-root span covers.
    """
    children: dict[int, float] = {}
    for span in spans:
        if span[0] is not None and span[3] is not None:
            children[span[3]] = children.get(span[3], 0.0) + span[2] - span[1]
    metrics: dict[str, float] = {}
    for name in TIMED:
        calls, seconds = 0, 0.0
        for span in spans:
            if span[0] != name:
                continue
            calls += 1
            outer = span[3]
            nested = False
            while outer is not None:
                if spans[outer][0] == name:
                    nested = True
                    break
                outer = spans[outer][3]
            if not nested:
                seconds += span[2] - span[1]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.s"] = seconds
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = sum(
            span[2] - span[1] - children.get(i, 0.0)
            for i, span in enumerate(spans)
            if span[0] == name
        )

    evaluations = [s for s in spans if s[0] == "tuning.evaluate"]
    seen, duplicates = set(), 0
    per_app: dict[str, list] = {app: [0, 0.0] for app in APPS}
    for span in evaluations:
        attrs = span[5] or {}
        key = attrs.get("key")
        if key in seen:
            duplicates += 1
        seen.add(key)
        if attrs.get("app") in per_app:
            per_app[attrs["app"]][0] += 1
            per_app[attrs["app"]][1] += span[2] - span[1]
    metrics["tuning.evaluate.duplicates"] = duplicates
    metrics["tuning.evaluate.dup_share"] = (
        duplicates / len(evaluations) if evaluations else 0.0
    )
    for app, (count, seconds) in per_app.items():
        metrics[f"tuning.evals_per_s.{app}"] = (
            count / seconds if seconds > 0 else 0.0
        )

    replays = [s for s in spans
               if s[0] in ("hardware.platform_run", "cluster.run")]
    replay_s = sum(s[2] - s[1] for s in replays)
    metrics["hardware.sim_minstr_per_s"] = (
        sum(s[5]["instructions"] for s in replays) / replay_s / 1e6
        if replay_s > 0 else 0.0
    )
    loads = [s for s in spans if s[0] == "runner.store_load"]
    metrics["runner.store_hit_share"] = (
        sum(1 for s in loads if s[5]["hit"]) / len(loads) if loads else 0.0
    )

    measured = sum(end - start for start, end in windows)
    covered = []
    for span in spans:
        if span[0] is None or span[0] in ROOT_SPANS:
            continue
        for start, end in windows:
            lo, hi = max(span[1], start), min(span[2], end)
            if hi > lo:
                covered.append((lo, hi))
    metrics["unattributed_s"] = measured - _union_length(covered)
    return metrics
