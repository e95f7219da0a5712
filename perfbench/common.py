"""Definitions shared by the benchmark entry point (run.py), its workers
and its tools.

Stdlib only: run.py imports this module without importing the
program under test.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ORACLE_PATH = BENCH_DIR / "oracle.json"
#: Scratch space for one run's stores, caches and traces (gitignored).
WORK_DIR = BENCH_DIR / "_work"

WORKLOADS = ("grid_cold", "resimulate", "serve_mixed")

#: The six applications, in the program's registry order.
APPS = ("jacobi", "knn", "pca", "dwt", "svm", "conv")

#: Formats the resimulate sweep draws bindings from.
SWEEP_FORMATS = ("binary8", "binary16", "binary16alt", "binary32")

#: The ``repro cluster`` verb's default topologies (cores x FPU ratio;
#: one-core clusters never share, so their ratio is always 1).
TOPOLOGIES = tuple(
    (cores, ratio)
    for cores in (1, 2, 4, 8)
    for ratio in (1, 2, 4)
    if cores > 1 or ratio == 1
)

#: Extra single-core platform configurations each built kernel is
#: replayed on (FP latency overrides by format name).  These replays
#: reuse the kernel's lowered columns: they are resimulate's "hits".
HIT_PLATFORMS = {
    "fast16": {"binary16": 1, "binary16alt": 1},
    "slow32": {"binary32": 3},
}

#: Flow jobs that serve_mixed sends cold, in a fixed order: tiny-scale
#: flows outside the default grid (non-default tuning strategies).
#: PCA is left out because one of its flows costs several seconds.
COLD_FLOW_APPS = ("conv", "dwt", "jacobi", "knn", "svm")
COLD_FLOW_STRATEGIES = ("bisect", "anneal", "cast_aware")
PRECISIONS = (1e-1, 1e-2, 1e-3)


def cold_flow_bodies() -> list[dict]:
    """serve_mixed's cold-key pool, fixed order: server job bodies with
    every identity field spelled out (also the oracle keys)."""
    return [
        {
            "kind": "flow", "app": app, "scale": "tiny",
            "type_system": "V2", "precision": precision, "variant": "",
            "strategy": strategy, "cores": 1, "fpu_ratio": 1,
        }
        for strategy in COLD_FLOW_STRATEGIES
        for precision in PRECISIONS
        for app in COLD_FLOW_APPS
    ]


def job_key(body: dict) -> str:
    """Canonical oracle key of a job description."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def digest(payload) -> str:
    """Canonical-JSON SHA-256 of a result payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_oracle() -> dict:
    return json.loads(ORACLE_PATH.read_text())
