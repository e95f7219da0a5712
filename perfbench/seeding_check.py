"""Seeded repeatability of the benchmark's inputs and outputs.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/seeding_check.py

Each check runs the same seeded step twice and requires identical
results; a different seed must change what the seed controls and
nothing else.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import sys

from common import APPS, cold_flow_bodies, digest, job_key, load_oracle
from make_oracle import grid_digests
from run import make_script
from worker import binding_orders

SEED, OTHER_SEED = 2454389, 1234


def _script(seed: int) -> str:
    oracle = load_oracle()
    cold = [job_key(body) for body in cold_flow_bodies()]
    return json.dumps(make_script(seed, 25, sorted(oracle["grid_tiny"]), cold))


def _sweep_digests(seed: int, rounds: int = 2) -> list:
    """Report digests of the first resimulate rounds (single-core)."""
    from repro.apps import make_app
    from repro.core.formats import STANDARD_FORMATS
    from repro.session import Session

    pool = load_oracle()["resimulate"]["pool"]
    orders = binding_orders(pool, seed)
    formats = {fmt.name: fmt for fmt in STANDARD_FORMATS}
    session = Session(backend="fast")
    digests = []
    for name in APPS:
        app = make_app(name, "small")
        for index in orders[name][:rounds]:
            binding = {v: formats[f] for v, f in pool[name][index].items()}
            with session:
                program = app.build_program(binding, 0, vectorize=True)
            digests.append(digest(session.platform.run(program).to_payload()))
    return digests


def main() -> int:
    checks = []

    def check(ok: bool, message: str) -> None:
        checks.append(message)
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            raise SystemExit(1)

    check(_script(SEED) == _script(SEED),
          "serve_mixed: same seed, byte-identical request script")
    check(_script(SEED) != _script(OTHER_SEED),
          "serve_mixed: another seed, another request script")
    pool = load_oracle()["resimulate"]["pool"]
    check(binding_orders(pool, SEED) == binding_orders(pool, SEED),
          "resimulate: same seed, same bindings")
    check(binding_orders(pool, SEED) != binding_orders(pool, OTHER_SEED),
          "resimulate: another seed, other bindings")
    first = _sweep_digests(SEED)
    check(first == _sweep_digests(SEED),
          "resimulate: same seed, byte-identical report digests")
    check(first != _sweep_digests(OTHER_SEED),
          "resimulate: another seed, other report digests")
    grid = grid_digests("tiny", "fast", seed=SEED)
    check(grid == grid_digests("tiny", "fast", seed=OTHER_SEED),
          "grid_cold: another job order, identical payload digests")
    check(grid == load_oracle()["grid_tiny"],
          "grid_cold: payload digests match the reference-backend oracle")
    print(f"{len(checks)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
