"""Structured tracing: spans, trace context, and the NDJSON exporter.

A *trace* is one campaign's tree of timed operations: the ``repro run``
root span, per-job worker spans under it (across process boundaries),
and the flow/tuning/store/platform spans each job opens.  Every span
carries monotonic-clock timing (``time.perf_counter`` durations; a
wall-clock ``start_s`` anchor orders spans across processes), a parent
link, and free-form attributes.

Tracing is **strictly out-of-band**: it is off unless explicitly
enabled (``--telemetry`` / ``REPRO_TELEMETRY=1`` / :func:`enable`), the
disabled :func:`span` path is a shared no-op context manager, and
nothing a span records can reach a result payload -- store envelopes
are byte-identical with telemetry on or off.

Export is newline-delimited JSON, one file per trace under
``results/telemetry/`` (``trace-<id>.ndjson``).  Writers buffer spans
and append whole lines through a single ``O_APPEND`` write, so
concurrent pool workers interleave records, never bytes.  Pool workers
join the parent's trace through :func:`propagation_payload` (shipped in
the runner spec, exactly like fault plans ride ``Session.spec()``) and
:func:`worker_scope` on the receiving side.
"""

from __future__ import annotations

import atexit
import json
import os
import random
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "ENV_VAR",
    "DIR_ENV_VAR",
    "Span",
    "enable",
    "enable_from_env",
    "disable",
    "enabled",
    "trace_id",
    "trace_path",
    "span",
    "start_span",
    "end_span",
    "current_ids",
    "flush",
    "write_record",
    "propagation_payload",
    "worker_scope",
]

ENV_VAR = "REPRO_TELEMETRY"
DIR_ENV_VAR = "REPRO_TELEMETRY_DIR"

#: Buffered span records per process before an automatic append; keeps
#: the warm-serve hot path off the filesystem (and, since records are
#: serialized lazily at flush, off the JSON encoder) between flushes.
FLUSH_THRESHOLD = 1024


def default_export_dir() -> Path:
    """Where traces land, and where ``repro trace`` looks for them, when
    no directory is passed: ``$REPRO_TELEMETRY_DIR`` if set, else
    ``./results/telemetry``."""
    configured = os.environ.get(DIR_ENV_VAR)
    if configured:
        return Path(configured)
    return Path.cwd() / "results" / "telemetry"


_rng: "random.Random | None" = None
_rng_pid: "int | None" = None


def new_id(nbytes: int = 8) -> str:
    """A random hex id (16 hex chars by default; 32 for trace ids).

    Ids come from a per-process PRNG seeded once from ``os.urandom``:
    span creation sits on tuning's innermost loop, and a syscall per id
    both costs more and -- because it releases the GIL -- skews the
    sampling profiler toward id generation.  The pid check re-seeds
    after a fork so parent and child can never replay one id stream.
    """
    global _rng, _rng_pid
    pid = os.getpid()
    if _rng is None or _rng_pid != pid:
        _rng = random.Random(int.from_bytes(os.urandom(16), "big") ^ pid)
        _rng_pid = pid
    return f"{_rng.getrandbits(nbytes * 8):0{nbytes * 2}x}"


#: Maps ``perf_counter`` readings onto wall-clock seconds so a span
#: costs one clock call, not two -- ``time.time`` is a real syscall on
#: clock sources without vDSO support.  Each process computes its own
#: anchor at import; the microsecond-level skew between processes is
#: far below span durations.
_WALL_ANCHOR = time.time() - time.perf_counter()


class Span:
    """One timed operation in a trace tree."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name",
        "start_s", "duration_s", "attrs", "_t0",
    )

    def __init__(self, trace_id, span_id, parent_id, name) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.duration_s = 0.0
        self.attrs: dict = {}
        self._t0 = time.perf_counter()
        self.start_s = _WALL_ANCHOR + self._t0

    def to_payload(self) -> dict:
        return {
            "kind": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "pid": os.getpid(),
            "attrs": self.attrs,
        }


# ----------------------------------------------------------------------
# Process-global configuration
# ----------------------------------------------------------------------
class _Config:
    __slots__ = ("trace_id", "export_dir")

    def __init__(self, trace_id: str, export_dir: "Path | None") -> None:
        self.trace_id = trace_id
        self.export_dir = export_dir


_config: "_Config | None" = None
_config_lock = threading.Lock()
_buffer: list = []  # Span objects and payload dicts, mixed
_buffer_lock = threading.Lock()
_atexit_registered = False


def _reset_after_fork() -> None:
    """Drop state a forked child inherits but must not replay.

    A fork copies the parent's pending buffer (the child would re-write
    the parent's spans) and the forking thread's span stack (the child
    can never legitimately close those spans).  The enabled config is
    kept: an inherited trace id is exactly what a fork-pool worker
    should record under.
    """
    _buffer.clear()
    _local.stack = []
    _local.remote_parent = None


if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_reset_after_fork)


class _Local(threading.local):
    def __init__(self) -> None:
        self.stack: "list[Span]" = []
        #: (trace_id, parent_span_id) adopted from a propagation payload
        #: -- the parent link for this thread's root-level spans.
        self.remote_parent: "tuple[str, str | None] | None" = None


_local = _Local()


def enabled() -> bool:
    return _config is not None


def enable(
    export_dir: "Path | str | None" = None,
    trace_id: "str | None" = None,
) -> str:
    """Turn tracing on for this process; returns the trace id.

    Idempotent: enabling an already-enabled process keeps its trace (so
    a worker activating a propagated context cannot fork a second
    trace); a fresh enable mints a new 32-hex trace id.
    """
    global _config, _atexit_registered
    with _config_lock:
        if _config is not None:
            return _config.trace_id
        if export_dir is None:
            export_dir = default_export_dir()
        _config = _Config(
            trace_id if trace_id is not None else new_id(16),
            Path(export_dir),
        )
        if not _atexit_registered:
            atexit.register(flush)
            _atexit_registered = True
        return _config.trace_id


def enable_from_env(environ=None) -> "str | None":
    """Enable tracing when ``REPRO_TELEMETRY`` is set truthy.

    ``0``, ``false``, ``no`` and the empty string stay off; anything
    else enables.  Returns the trace id, or None when left disabled.
    """
    environ = os.environ if environ is None else environ
    raw = environ.get(ENV_VAR, "").strip().lower()
    if raw in ("", "0", "false", "no", "off"):
        return _config.trace_id if _config is not None else None
    return enable()


def disable() -> None:
    """Flush and turn tracing off (test isolation; not a hot path)."""
    global _config
    flush()
    with _config_lock:
        _config = None
    _local.stack = []
    _local.remote_parent = None


def trace_id() -> "str | None":
    return _config.trace_id if _config is not None else None


def trace_path() -> "Path | None":
    """The NDJSON file this process's spans land in (None when off)."""
    if _config is None or _config.export_dir is None:
        return None
    return _config.export_dir / f"trace-{_config.trace_id}.ndjson"


# ----------------------------------------------------------------------
# Span lifecycle
# ----------------------------------------------------------------------
def _current_trace_and_parent() -> "tuple[str, str | None]":
    stack = _local.stack
    if stack:
        top = stack[-1]
        return top.trace_id, top.span_id
    if _local.remote_parent is not None:
        return _local.remote_parent
    return _config.trace_id, None


def start_span(
    name: str, parent_id: "str | None" = None, push: bool = True, **attrs
) -> "Span | None":
    """Open a span (None when tracing is off).

    ``push=False`` keeps the span off this thread's context stack --
    for spans whose lifetime is not lexically nested (the server's
    per-request and per-job spans live across ``await`` boundaries
    where a thread-local stack would interleave wrongly).
    """
    if _config is None:
        return None
    tid, inherited = _current_trace_and_parent()
    sp = Span(
        tid, new_id(), parent_id if parent_id is not None else inherited,
        name,
    )
    if attrs:
        sp.attrs.update(attrs)
    if push:
        _local.stack.append(sp)
    return sp


def end_span(sp: "Span | None") -> None:
    """Close a span: record its duration and queue it for export."""
    if sp is None:
        return
    sp.duration_s = time.perf_counter() - sp._t0
    stack = _local.stack
    for i in range(len(stack) - 1, -1, -1):
        if stack[i] is sp:
            del stack[i]
            break
    _export(sp)


def _serialize_span(sp: Span) -> str:
    """One NDJSON line for a span, ~2x faster than ``json.dumps``.

    Span serialization is on the per-request serving path (three spans
    per warm hit), so the known-shape fields are formatted directly and
    only ``attrs`` goes through the real encoder.  Key order matches
    ``json.dumps(payload, sort_keys=True)`` byte for byte; names
    containing JSON-significant characters take the slow path.
    """
    if '"' in sp.name or "\\" in sp.name:
        return json.dumps(sp.to_payload(), sort_keys=True)
    attrs = json.dumps(sp.attrs, sort_keys=True) if sp.attrs else "{}"
    parent = "null" if sp.parent_id is None else f'"{sp.parent_id}"'
    return (
        f'{{"attrs": {attrs}, "duration_s": {sp.duration_s!r}, '
        f'"kind": "span", "name": "{sp.name}", "parent_id": {parent}, '
        f'"pid": {os.getpid()}, "span_id": "{sp.span_id}", '
        f'"start_s": {sp.start_s!r}, "trace_id": "{sp.trace_id}"}}'
    )


class _NullScope:
    """The telemetry-off ``span()``: one shared, stateless no-op."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL = _NullScope()


class _SpanScope:
    __slots__ = ("_name", "_attrs", "_span")

    def __init__(self, name, attrs) -> None:
        self._name = name
        self._attrs = attrs
        self._span = None

    def __enter__(self) -> Span:
        self._span = start_span(self._name, **self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        sp = self._span
        if sp is not None:
            if exc_type is not None:
                sp.attrs["error"] = exc_type.__name__
            end_span(sp)
        return False


def span(name: str, **attrs):
    """Context manager around one timed operation.

    Yields the live :class:`Span` (mutate ``.attrs`` freely) -- or
    ``None`` via a shared no-op scope when tracing is off, which is
    what keeps instrumented hot paths effectively free when disabled.
    """
    if _config is None:
        return _NULL
    return _SpanScope(name, attrs)


def current_ids() -> "tuple[str | None, str | None]":
    """(trace_id, span_id) of the innermost open span on this thread.

    ``(trace_id, None)`` between spans of an enabled process; ``(None,
    None)`` when tracing is off.  This is what ledger events stamp
    their correlation ids from.
    """
    if _config is None:
        return None, None
    tid, parent = _current_trace_and_parent()
    return tid, parent


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def _export(item) -> None:
    """Queue a :class:`Span` or payload dict; serialization waits for
    :func:`flush` so the instrumented hot path never pays the encoder.
    """
    with _buffer_lock:
        _buffer.append(item)
        if len(_buffer) < FLUSH_THRESHOLD:
            return
    flush()


def write_record(record: dict) -> None:
    """Queue a non-span NDJSON record (profiles) for export."""
    if _config is None:
        return
    _export(record)


def flush() -> None:
    """Append every buffered record to the trace file.

    Lines are joined and written through one ``O_APPEND`` ``os.write``,
    so concurrent processes sharing a trace file interleave whole
    records, never partial lines.  (NDJSON appends are naturally
    crash-tolerant -- a torn final line is skippable -- so the atomic
    rename dance result payloads use would buy nothing here.)
    """
    path = trace_path()
    with _buffer_lock:
        if not _buffer:
            return
        pending, _buffer[:] = list(_buffer), []
    if path is None:  # pragma: no cover - config raced away
        return
    lines = [
        _serialize_span(item)
        if isinstance(item, Span)
        else json.dumps(item, sort_keys=True)
        for item in pending
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    data = ("\n".join(lines) + "\n").encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Cross-process propagation
# ----------------------------------------------------------------------
def propagation_payload() -> "dict | None":
    """The picklable context a worker needs to join this trace.

    ``parent_span_id`` is the innermost open span at call time (the
    campaign's ``runner.run`` root, or a server job span), so worker
    spans parent under the right node of the tree.  Returns None when
    tracing is off -- the runner spec then carries no telemetry at all.
    """
    if _config is None:
        return None
    tid, parent = _current_trace_and_parent()
    return {
        "enabled": True,
        "export_dir": str(_config.export_dir),
        "trace_id": tid,
        "parent_span_id": parent,
        # Lets the receiving side tell a pool worker (different pid,
        # must flush eagerly) from an in-process executor (same pid,
        # the owning process flushes at shutdown).
        "pid": os.getpid(),
    }


@contextmanager
def worker_scope(payload: "dict | None"):
    """Adopt a propagated trace context for one worker job.

    No-op (yields None) when the payload is absent or disabled --
    telemetry-off campaigns ship ``None`` and workers do nothing.
    Otherwise the worker process enables tracing under the parent's
    trace id and export dir (idempotent for pool reuse and in-process
    thread executors) and parents this thread's spans under the
    payload's span.

    A *pool worker* (the payload crossed a process boundary) also
    flushes on exit, so its spans are durable the moment the job
    returns -- the pool tears down with ``wait=False`` and the parent
    may read the trace before worker atexit runs.  An in-process
    executor skips that per-job write: its owning process flushes at
    shutdown, and a warm store hit must not pay file I/O per request.
    """
    if not payload or not payload.get("enabled"):
        yield None
        return
    enable(
        export_dir=payload.get("export_dir"),
        trace_id=payload["trace_id"],
    )
    previous = _local.remote_parent
    _local.remote_parent = (
        payload["trace_id"], payload.get("parent_span_id")
    )
    try:
        yield payload["trace_id"]
    finally:
        _local.remote_parent = previous
        if payload.get("pid") != os.getpid():
            flush()
