"""Regenerate ``oracle.json``: the digests every benchmark output is
checked against, computed once with the ``reference`` backend.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/make_oracle.py

Runs the small and tiny default grids, serve_mixed's cold-key pool and
the resimulate binding pool (about five minutes on a 2-core machine).
The benchmark itself runs the ``fast`` backend, so a match also shows
the two backends agree bit for bit.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import asdict

from common import (
    APPS,
    BENCH_DIR,
    HIT_PLATFORMS,
    ORACLE_PATH,
    SWEEP_FORMATS,
    TOPOLOGIES,
    WORK_DIR,
    cold_flow_bodies,
    digest,
    job_key,
)
from worker import shuffled

#: Seed of the resimulate binding pool (fixed: the pool is part of the
#: benchmark definition; a run's seed only orders draws from it).
POOL_SEED = 2018
#: Random bindings per application, besides the binary32 baseline.
POOL_SIZE = 15


def grid_digests(
    scale: str, backend: str = "reference", extra=(), seed=None
) -> dict:
    """Payload digest per job of a scale's default grid (plus ``extra``
    job bodies), run cold in a scratch store; ``seed`` permutes the job
    order as grid_cold does."""
    from repro.analysis.common import ExperimentConfig, default_grid
    from repro.runner import JobSpec
    from repro.session import Session

    work = WORK_DIR / f"grid-{scale}-{backend}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    cfg = ExperimentConfig(
        scale=scale,
        cache_dir=work / "tuning",
        store_dir=work / "store",
        jobs=1,
        session=Session(backend=backend, cache_dir=work / "tuning"),
    )
    specs = default_grid(cfg) + [JobSpec(**body) for body in extra]
    if seed is not None:
        specs = shuffled(specs, seed)
    results = cfg.runner.run(specs)
    shutil.rmtree(work, ignore_errors=True)
    return {
        job_key(asdict(spec)): digest(results[spec].to_payload())
        for spec in specs
    }


def _binding_pool(app) -> list[dict]:
    names = [spec.name for spec in app.variables()]
    rng = random.Random(f"{POOL_SEED}-{app.name}")
    baseline = {name: "binary32" for name in names}
    pool = [baseline]
    limit = min(POOL_SIZE, len(SWEEP_FORMATS) ** len(names) - 1)
    while len(pool) < limit + 1:
        binding = {name: rng.choice(SWEEP_FORMATS) for name in names}
        if binding not in pool:
            pool.append(binding)
    return pool


def _resimulate_digests() -> dict:
    from repro.apps import make_app
    from repro.core.formats import STANDARD_FORMATS
    from repro.hardware import VirtualPlatform
    from repro.session import Session

    formats = {fmt.name: fmt for fmt in STANDARD_FORMATS}
    session = Session(backend="reference")
    pools, digests = {}, {}
    for name in APPS:
        app = make_app(name, "small")
        pools[name] = _binding_pool(app)
        digests[name] = []
        for names in pools[name]:
            binding = {var: formats[fmt] for var, fmt in names.items()}
            with session:
                program = app.build_program(binding, 0, vectorize=True)
            report = session.platform.run(program)
            entry = {"single": digest(report.to_payload())}
            for config, override in HIT_PLATFORMS.items():
                replay = VirtualPlatform(fp_latency_override=override)
                entry[config] = digest(replay.run(program).to_payload())
            if app.partitionable:
                for cores, ratio in TOPOLOGIES:
                    cluster = session.cluster_platform((cores, ratio))
                    with session:
                        result = cluster.run_app(
                            app, binding, 0, True,
                            serial_cycles=report.cycles,
                        )
                    entry[f"c{cores}r{ratio}"] = digest(result.to_payload())
            digests[name].append(entry)
    return {"pool": pools, "digests": digests}


def main() -> int:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=BENCH_DIR,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cold_keys = {job_key(body) for body in cold_flow_bodies()}
    tiny = grid_digests("tiny", extra=cold_flow_bodies())
    oracle = {
        "generated_at_commit": commit,
        "backend": "reference",
        "grid_small": grid_digests("small"),
        "grid_tiny": {k: v for k, v in tiny.items() if k not in cold_keys},
        "cold_tiny": {k: v for k, v in tiny.items() if k in cold_keys},
        "resimulate": _resimulate_digests(),
    }
    ORACLE_PATH.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
    print(f"wrote {ORACLE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
