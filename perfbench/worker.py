"""Workload bodies; each run of a workload is one fresh process.

Usage (``run.py`` does this)::

    python3 perfbench/worker.py PARAMS_JSON

``PARAMS_JSON`` names a file holding ``mode`` (``grid_cold``,
``resimulate``, ``warm`` or ``serve``), ``seed``, ``seconds``,
``trace``, ``probe``, ``work`` (a scratch directory) and ``out``.  The
worker prints ``ready`` once its set-up is done; a probe exits there.
Otherwise it runs, checks every output against the oracle and writes
its samples to ``out`` as JSON.  With ``trace`` set, benchmark-side
spans (see ``tracer.py``) are written to ``out`` + ``.spans``.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

from common import (
    APPS,
    HIT_PLATFORMS,
    TOPOLOGIES,
    digest,
    job_key,
    load_oracle,
)
from tracer import Recorder, install

#: Store re-reads of each grid_cold job right after it finishes: the
#: samples behind its hit latency (1820 per run).
HITS_PER_JOB = 20
#: Cluster topologies each partitionable app runs per resimulate round.
#: The rounds walk a seeded cycle of all of them, so a run of 5 or more
#: rounds covers every topology; a short round leaves time for many
#: rounds, and so for many single-core design points per run.
TOPOLOGIES_PER_ROUND = 2


def _ready() -> None:
    print("ready", flush=True)


class Checker:
    """Counts outputs checked against the oracle, and mismatches."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, payload, expected: "str | None") -> None:
        self.attempted += 1
        if expected is None or digest(payload) != expected:
            self.failures.append(what)


def shuffled(specs: list, seed: int) -> list:
    """grid_cold's job order: the grid, permuted by the seed."""
    specs = list(specs)
    random.Random(seed).shuffle(specs)
    return specs


def binding_orders(pool: dict, seed: int) -> dict:
    """resimulate's draw order per app over its pool's random bindings
    (index 0, the binary32 baseline, is always the first round)."""
    rng = random.Random(seed)
    orders = {}
    for name in APPS:
        order = list(range(1, len(pool[name])))
        rng.shuffle(order)
        orders[name] = order
    return orders


def topology_cycle(seed: int) -> list:
    """resimulate's seeded order of the cluster topologies."""
    cycle = list(TOPOLOGIES)
    random.Random(f"{seed}/topologies").shuffle(cycle)
    return cycle


def _session(**kwargs):
    from repro.session import Session

    return Session(backend="fast", **kwargs)


# ----------------------------------------------------------------------
# grid_cold: the small default grid, cold, then warm re-reads
# ----------------------------------------------------------------------
def grid_cold(params: dict, checker: Checker, rec: Recorder) -> dict:
    import repro.cli  # noqa: F401 - a fresh `repro run` pays this import
    from repro.analysis.common import ExperimentConfig, default_grid
    from repro.runner import JobFailure

    work = Path(params["work"])
    oracle = load_oracle()["grid_small"]

    def runner():
        cfg = ExperimentConfig(
            scale="small",
            cache_dir=work / "tuning",
            store_dir=work / "store",
            jobs=1,
            session=_session(cache_dir=work / "tuning"),
        )
        return cfg, cfg.runner

    cfg, cold = runner()
    specs = shuffled(default_grid(cfg), params["seed"])
    _ready()
    if params["probe"]:
        return {}

    def check(what: str, spec, result) -> None:
        ok = result is not None and not isinstance(result, JobFailure)
        checker.check(f"{what} {spec.describe()}",
                      result.to_payload() if ok else None,
                      oracle.get(job_key(asdict(spec))))

    # Between cold jobs (in the progress callback, outside the measured
    # job time), HITS_PER_JOB fresh runners each re-read the job that
    # just finished from the warm store.  Spreading the short hits over
    # the whole cold pass keeps their median from hanging on one
    # moment's machine speed, and every job is re-read equally often,
    # so payload sizes weigh the same whatever the job order.
    out = {"walls": [], "windows": [], "miss": [], "hit": [],
           "ops": len(specs)}
    # A miss is one tuned configuration's cold cost: the summed time of
    # every job that shares its flow (the flow, its derived reports and
    # cluster points).  Which of those jobs computes the flow, and so
    # pays for it, depends on the job order; the group's sum does not.
    # The binary32 baseline reports share no flow and are left out.
    groups: dict = {}

    def progress(index, total, spec, status, seconds) -> None:
        nonlocal resumed
        now = time.perf_counter()
        out["windows"].append([resumed, now])
        if spec.type_system:
            group = (spec.app, spec.type_system, spec.precision)
            groups[group] = groups.get(group, 0.0) + now - resumed
        # A span of its own keeps the benchmark's re-reads out of the
        # enclosing runner.run span's self time when traced.
        span = rec.begin("bench.hits")
        for _ in range(HITS_PER_JOB):
            warm = runner()[1]  # fresh: its memo must not serve the read
            start = time.perf_counter()
            result = warm.run([spec])[spec]
            out["hit"].append(time.perf_counter() - start)
            check("grid_cold hit", spec, result)
        rec.end(span)
        resumed = time.perf_counter()

    cold.progress = progress
    resumed = time.perf_counter()
    results = cold.run(specs)
    out["windows"].append([resumed, time.perf_counter()])
    out["walls"].append(sum(end - start for start, end in out["windows"]))
    out["miss"] = list(groups.values())
    out["ops_seconds"] = out["walls"][0]
    for spec in specs:
        check("grid_cold", spec, results.get(spec))
    return out


# ----------------------------------------------------------------------
# resimulate: a hardware design-space sweep, no tuning
# ----------------------------------------------------------------------
def resimulate(params: dict, checker: Checker, rec: Recorder) -> dict:
    import repro.cli  # noqa: F401 - the same fresh-process import cost
    from repro.apps import make_app
    from repro.core.formats import STANDARD_FORMATS
    from repro.hardware import VirtualPlatform

    sweep = load_oracle()["resimulate"]
    formats = {fmt.name: fmt for fmt in STANDARD_FORMATS}
    session = _session()
    apps = {name: make_app(name, "small") for name in APPS}
    hit_platforms = {
        name: VirtualPlatform(fp_latency_override=override)
        for name, override in HIT_PLATFORMS.items()
    }
    orders = binding_orders(sweep["pool"], params["seed"])
    cycle = topology_cycle(params["seed"])
    _ready()
    if params["probe"]:
        return {}

    def design_point(name: str, index: int, topologies: list, out: dict,
                     checks: list) -> None:
        app = apps[name]
        binding = {
            var: formats[fmt] for var, fmt in sweep["pool"][name][index].items()
        }
        expected = sweep["digests"][name][index]
        what = f"resimulate {name} binding {index}"
        start = time.perf_counter()
        with session:
            program = app.build_program(binding, 0, vectorize=True)
        program.columns()
        report = session.platform.run(program)
        out["miss"].append(time.perf_counter() - start)
        checks.append((what, report, expected["single"]))
        for config, platform in hit_platforms.items():
            start = time.perf_counter()
            replay = platform.run(program)
            out["hit"].append(time.perf_counter() - start)
            checks.append((f"{what} {config}", replay, expected[config]))
        if not app.partitionable:
            return
        for cores, ratio in topologies:
            cluster = session.cluster_platform((cores, ratio))
            with session:
                result = cluster.run_app(
                    app, binding, 0, True, serial_cycles=report.cycles
                )
            checks.append((f"{what} c{cores}r{ratio}", result,
                           expected[f"c{cores}r{ratio}"]))

    out = {"walls": [], "windows": [], "miss": [], "hit": [], "ops": 0}
    deadline = time.perf_counter() + params["seconds"]
    round_index = 0
    while time.perf_counter() < deadline:
        checks: list = []
        first = round_index * TOPOLOGIES_PER_ROUND
        topologies = [
            cycle[(first + i) % len(cycle)]
            for i in range(TOPOLOGIES_PER_ROUND)
        ]
        start = time.perf_counter()
        for name in APPS:
            order = orders[name]
            index = (
                0 if round_index == 0
                else order[(round_index - 1) % len(order)]
            )
            design_point(name, index, topologies, out, checks)
        end = time.perf_counter()
        out["walls"].append(end - start)
        out["windows"].append([start, end])
        out["ops"] += len(checks)
        # Outside the measured round: digests cost benchmark time only.
        for what, report, expected in checks:
            checker.check(what, report.to_payload(), expected)
        round_index += 1
    out["ops_seconds"] = sum(out["walls"])
    return out


# ----------------------------------------------------------------------
# serve_mixed helpers: the warm store fixture and the traced server
# ----------------------------------------------------------------------
def warm(params: dict, checker: Checker, rec: Recorder) -> dict:
    """Warm the tiny default grid into ``work/results`` (the server's
    default store and tuning-cache locations under its cwd)."""
    from repro.analysis.common import ExperimentConfig, default_grid

    results = Path(params["work"]) / "results"
    oracle = load_oracle()["grid_tiny"]
    cfg = ExperimentConfig(
        scale="tiny",
        cache_dir=results / "tuning",
        store_dir=results / "store",
        jobs=2,
        session=_session(cache_dir=results / "tuning"),
    )
    specs = default_grid(cfg)
    _ready()
    done = cfg.runner.run(specs)
    for spec in specs:
        result = done.get(spec)
        checker.check(
            f"warm {spec.describe()}",
            result.to_payload() if hasattr(result, "to_payload") else None,
            oracle.get(job_key(asdict(spec))),
        )
    return {}


def serve(params: dict, checker: Checker, rec: Recorder) -> dict:
    """``repro serve`` in this process (under the benchmark's spans when
    traced); returns when the server is signalled to stop."""
    from repro.cli import main

    main(["serve"] + params["argv"])
    return {}


MODES = {
    "grid_cold": grid_cold,
    "resimulate": resimulate,
    "warm": warm,
    "serve": serve,
}


def main(argv: list[str]) -> int:
    params = json.loads(Path(argv[0]).read_text())
    checker = Checker()
    rec = Recorder()
    if params["trace"]:
        install(rec)
    out = MODES[params["mode"]](params, checker, rec)
    if params["probe"]:
        return 0
    import numpy

    out.update(
        attempted=checker.attempted,
        failures=checker.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    if params["trace"]:
        rec.dump(params["out"] + ".spans")
    Path(params["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
