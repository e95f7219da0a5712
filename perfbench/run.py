"""The repository benchmark: one workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 25 --trace 0

Workloads (see README.md): ``grid_cold``, ``resimulate`` and
``serve_mixed``.  Every workload runs the program in fresh processes
with its telemetry off and checks every output against ``oracle.json``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload twice more, untraced and then under benchmark-side spans, and
reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only if every output was correct.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from common import (
    BENCH_DIR,
    ORACLE_PATH,
    WORK_DIR,
    WORKLOADS,
    cold_flow_bodies,
    digest,
    job_key,
    load_oracle,
)
from tracer import layer_metrics

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Seconds any one child process may take before it is killed.
CHILD_TIMEOUT = 150
#: serve_mixed script shape: one block per cold key (45), walked until
#: the script ends or ``--seconds`` have passed; per client and block,
#: this many requests, of which this many are revalidating GETs; one
#: block in DEDUP_EVERY (seeded) sends its cold key from both clients.
BLOCK_REQUESTS = 330
BLOCK_GETS = 5
DEDUP_EVERY = 5
SERVE_ARGS = ["--scale", "tiny", "--backend", "fast", "--jobs", "1",
              "--port", "0"]
BANNER = re.compile(r"repro serve: http://([0-9.]+):([0-9]+)")


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to wrong outputs)."""


class Children:
    """Runs child processes from one environment; kills leftovers."""

    def __init__(self, root: Path, work: Path) -> None:
        self.work = work
        self.env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["TMPDIR"] = str(work)
        self.live: list[subprocess.Popen] = []
        self._count = 0

    def worker(self, cwd: Path, **params) -> "tuple[float, dict]":
        """Run worker.py; returns (seconds to ``ready``, its output)."""
        self._count += 1
        params.setdefault("probe", False)
        params.setdefault("trace", False)
        params["out"] = str(self.work / f"out-{self._count}.json")
        path = self.work / f"params-{self._count}.json"
        path.write_text(json.dumps(params))
        start = time.perf_counter()
        proc = self.start(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(path)],
            cwd, stdout=subprocess.PIPE,
        )
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        try:
            proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.stop(proc)
            raise BenchError(f"worker {params['mode']} timed out") from None
        self.live.remove(proc)
        if proc.returncode != 0 or ready.strip() != "ready":
            raise BenchError(
                f"worker {params['mode']} failed (exit {proc.returncode})"
            )
        if params["probe"]:
            return setup, {}
        out = json.loads(Path(params["out"]).read_text())
        spans = Path(params["out"] + ".spans")
        if spans.exists():
            out["spans"] = json.loads(spans.read_text())
        return setup, out

    def start(self, argv: list, cwd: Path, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, cwd=cwd, env=self.env, text=True, **kwargs
        )
        self.live.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen) -> None:
        """SIGTERM (the server drains on it), then kill; always reaps."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self.live:
            self.live.remove(proc)

    def close(self) -> None:
        for proc in list(self.live):
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.live.clear()

    def import_seconds(self) -> float:
        """Median fresh-process cost of ``import repro.cli``."""
        code = ("import time; t = time.perf_counter(); import repro.cli; "
                "print(time.perf_counter() - t)")
        samples = []
        for _ in range(SETUP_REPS):
            proc = self.start([sys.executable, "-c", code], self.work,
                              stdout=subprocess.PIPE)
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
            self.live.remove(proc)
            samples.append(float(out))
        return median(samples)


# ----------------------------------------------------------------------
# grid_cold and resimulate: one worker process does the measured work
# ----------------------------------------------------------------------
def run_batch(children: Children, workload: str, args) -> dict:
    """A workload whose measured work runs inside one worker process."""
    params = dict(mode=workload, seed=args.seed, seconds=args.seconds)
    setups = []
    runs = {}
    for i in range(SETUP_REPS):
        work = children.work / f"{workload}-{i}"
        work.mkdir()
        probe = i < SETUP_REPS - 1
        setup, out = children.worker(work, work=str(work), probe=probe,
                                     **params)
        setups.append(setup)
        if not probe:
            runs["plain"] = out
    if args.trace:
        work = children.work / f"{workload}-traced"
        work.mkdir()
        runs["traced"] = children.worker(work, work=str(work), trace=True,
                                         **params)[1]
    return {"workload": workload, "setups": setups, "runs": runs}


# ----------------------------------------------------------------------
# serve_mixed: a `repro serve` process and two closed-loop clients
# ----------------------------------------------------------------------
def make_script(seed: int, blocks: int, warm: list, cold: list) -> list:
    """The seeded request script: per block, one request list per
    client.  Each block opens with one cold key (from both clients in
    a dedup block); revalidating GETs target cold keys of earlier
    blocks; every other request POSTs a warm key."""
    rng = random.Random(seed)
    cold = list(cold[:blocks])
    rng.shuffle(cold)
    dedup = set(rng.sample(range(blocks), blocks // DEDUP_EVERY))
    script = []
    for block in range(blocks):
        lists = [
            [("post", rng.choice(warm)) for _ in range(BLOCK_REQUESTS)]
            for _ in range(2)
        ]
        if block:
            for requests in lists:
                for pos in rng.sample(range(1, BLOCK_REQUESTS), BLOCK_GETS):
                    requests[pos] = ("get", rng.choice(cold[:block]))
        senders = (0, 1) if block in dedup else (rng.randrange(2),)
        for client in senders:
            lists[client][0] = ("post", cold[block])
        script.append(lists)
    return script


class ServeClients:
    """Two closed-loop HTTP clients walking a script in lockstep blocks
    until it ends or ``seconds`` have passed."""

    def __init__(self, host: str, port: int, expected: dict) -> None:
        self.host, self.port = host, port
        self.expected = expected  # job key -> oracle digest
        self.samples = {"hit": [], "miss": [], "revalidate": []}
        self.attempted = 0
        self.failures: list[str] = []
        self.marks: list[float] = []
        self._verified: dict[str, bytes] = {}
        self._known: dict[str, tuple] = {}  # cold key -> (job id, ETag)
        self._lock = threading.Lock()

    def run(self, script: list, seconds: float) -> None:
        def mark() -> None:
            # Runs once per barrier, before either client goes on, so
            # both see the same decision to stop.
            self.marks.append(time.perf_counter())
            self.stopped = self.marks[-1] - self.marks[0] >= seconds

        self.stopped = False
        barrier = threading.Barrier(2, action=mark)
        threads = [
            threading.Thread(target=self._client, args=(c, script, barrier),
                             daemon=True)
            for c in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(CHILD_TIMEOUT)
        if any(thread.is_alive() for thread in threads):
            raise BenchError("serve_mixed clients did not finish")
        if not self.stopped and len(self.marks) != len(script) + 1:
            raise BenchError(
                f"serve_mixed clients stopped: {self.failures[-2:]}"
            )

    def _client(self, client: int, script: list, barrier) -> None:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            for block in script:
                barrier.wait(timeout=CHILD_TIMEOUT)
                if self.stopped:
                    return
                for op, key in block[client]:
                    self._request(conn, op, key)
            barrier.wait(timeout=CHILD_TIMEOUT)
        except Exception as exc:  # noqa: BLE001 - the thread's boundary
            with self._lock:
                self.failures.append(f"client {client}: {exc!r}")
            barrier.abort()
        finally:
            conn.close()

    def _request(self, conn, op: str, key: str) -> None:
        if op == "get" and key not in self._known:
            # Its POST came back wrong: there is nothing to revalidate.
            with self._lock:
                self.attempted += 1
                self.failures.append(f"get {key}: no valid POST to revalidate")
            return
        if op == "get":
            job_id, etag = self._known[key]
            start = time.perf_counter()
            conn.request("GET", f"/jobs/{job_id}",
                         headers={"If-None-Match": etag})
            resp = conn.getresponse()
            resp.read()
            elapsed = time.perf_counter() - start
            ok = resp.status == 304 and resp.getheader("ETag") == etag
            kind = "revalidate"
        else:
            start = time.perf_counter()
            conn.request("POST", "/jobs", body=key,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
            elapsed = time.perf_counter() - start
            etag = resp.getheader("ETag")
            ok = resp.status == 200 and self._verify(key, data, etag)
            kind = "hit" if resp.getheader("X-Repro-Source") == "store" \
                else "miss"
            if ok and key not in self._known:
                self._known[key] = (json.loads(data)["id"], etag)
        with self._lock:
            self.attempted += 1
            self.samples[kind].append(elapsed)
            if not ok:
                self.failures.append(f"{op} {key} -> {resp.status}")

    def _verify(self, key: str, data: bytes, etag: str) -> bool:
        """Body payload matches the oracle and the ETag; a key's later
        bodies must repeat its first verified body byte for byte."""
        known = self._verified.get(key)
        if known is not None:
            return data == known
        expected = self.expected.get(key)
        if expected is None or digest(json.loads(data)["payload"]) != expected:
            return False
        if etag != f'"{expected}"':
            return False
        self._verified[key] = data
        return True


def start_server(children: Children, cwd: Path, traced: bool):
    """Start a server; returns (process, host, port, seconds to healthy)."""
    log_path = cwd / f"server-{len(children.live)}.log"
    start = time.perf_counter()
    with open(log_path, "w") as log:
        if traced:
            params = cwd / "serve-params.json"
            params.write_text(json.dumps(dict(
                mode="serve", trace=True, probe=False,
                argv=SERVE_ARGS, out=str(cwd / "serve-out.json"),
            )))
            argv = [sys.executable, str(BENCH_DIR / "worker.py"), str(params)]
        else:
            argv = [sys.executable, "-m", "repro", "serve"] + SERVE_ARGS
        proc = children.start(argv, cwd, stdout=log,
                              stderr=subprocess.STDOUT)
    deadline = start + 60
    while True:
        match = BANNER.search(log_path.read_text())
        if match:
            break
        if proc.poll() is not None or time.perf_counter() > deadline:
            children.stop(proc)
            raise BenchError("server did not start")
        time.sleep(0.005)
    host, port = match.group(1), int(match.group(2))
    status, _ = http_get(host, port, "/healthz")
    if status != 200:
        children.stop(proc)
        raise BenchError(f"server unhealthy: {status}")
    return proc, host, port, time.perf_counter() - start


def http_get(host: str, port: int, path: str) -> "tuple[int, bytes]":
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (Linux ``VmHWM``), in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


def run_serve(children: Children, args) -> dict:
    oracle = load_oracle()
    fixture = children.work / "fixture"
    fixture.mkdir()
    _, warmed = children.worker(fixture, mode="warm", seed=args.seed,
                                seconds=args.seconds, work=str(fixture))
    cold = [job_key(body) for body in cold_flow_bodies()]
    script = make_script(args.seed, len(cold), sorted(oracle["grid_tiny"]),
                         cold)
    expected = {**oracle["grid_tiny"], **oracle["cold_tiny"]}

    def serve_once(traced: bool, setup_reps: int) -> dict:
        cwd = children.work / ("served-traced" if traced else "served")
        shutil.copytree(fixture / "results", cwd / "results")
        setups = []
        for i in range(setup_reps):
            proc, host, port, setup = start_server(children, cwd, traced)
            setups.append(setup)
            if i < setup_reps - 1:
                children.stop(proc)
        clients = ServeClients(host, port, expected)
        try:
            clients.run(script, args.seconds)
            status, body = http_get(host, port, "/stats")
            if status != 200:
                raise BenchError(f"/stats answered {status}")
            rss = peak_rss_mb(proc.pid)
        finally:
            children.stop(proc)
        marks = clients.marks
        out = {
            "setups": setups,
            "walls": [b - a for a, b in zip(marks, marks[1:])],
            "windows": [[marks[0], marks[-1]]],
            "hit": clients.samples["hit"],
            "miss": clients.samples["miss"],
            "revalidate": clients.samples["revalidate"],
            "ops": clients.attempted,
            "ops_seconds": marks[-1] - marks[0],
            "attempted": clients.attempted,
            "failures": clients.failures,
            "peak_rss_mb": rss,
            "server": json.loads(body)["server"],
        }
        if traced:
            spans = json.loads((cwd / "serve-out.json.spans").read_text())
            out["spans"] = spans
        return out

    runs = {"plain": serve_once(False, SETUP_REPS)}
    if args.trace:
        runs["traced"] = serve_once(True, 1)
    return {
        "workload": "serve_mixed",
        "setups": runs["plain"]["setups"],
        "runs": runs,
        "fixture": warmed,
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(measured: dict) -> dict:
    run = measured["runs"]["plain"]
    return {
        "wall_s": (median(run["walls"]), len(run["walls"])),
        "setup_s": (median(measured["setups"]), len(measured["setups"])),
        "peak_rss_mb": (run["peak_rss_mb"], 1),
        "ok_share": (1.0 - len(run["failures"]) / run["attempted"],
                     run["attempted"]),
        "hit_p50_ms": (1000.0 * median(run["hit"]), len(run["hit"])),
        "miss_p50_ms": (1000.0 * median(run["miss"]), len(run["miss"])),
        "req_per_s": (run["ops"] / run["ops_seconds"], run["ops"]),
    }


def per_layer(children: Children, measured: dict) -> dict:
    plain, traced = measured["runs"]["plain"], measured["runs"]["traced"]
    metrics = layer_metrics(traced["spans"], traced["windows"])
    # The latest traced run's spans outlive the run, for inspection.
    (WORK_DIR / f"trace-{measured['workload']}.json").write_text(
        json.dumps(traced["spans"])
    )
    n = min(len(plain["walls"]), len(traced["walls"]))
    metrics["trace.overhead_share"] = (
        sum(traced["walls"][:n]) / sum(plain["walls"][:n]) - 1.0
    )
    metrics["cli.import_s"] = children.import_seconds()
    # Client-side request classes and /stats: zero off the server path.
    serve = measured["workload"] == "serve_mixed"
    for kind in ("hit", "miss", "revalidate"):
        samples = traced[kind] if serve else []
        metrics[f"server.{kind}.calls"] = len(samples)
        metrics[f"server.{kind}.s"] = sum(samples)
    server = traced["server"] if serve else {}
    computed, deduped = server.get("computed", 0), server.get("deduped", 0)
    metrics["server.computed"] = computed
    metrics["server.deduped"] = deduped
    metrics["server.dedup_share"] = (
        deduped / (computed + deduped) if computed + deduped else 0.0
    )
    return {name: (value, None) for name, value in metrics.items()}


def commit_of(root: Path) -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at src/repro (run from the "
              "repository root)", file=sys.stderr)
        return 2
    if not spec_path.is_file() or not ORACLE_PATH.is_file():
        print("perfbench: BENCHMARK.json or oracle.json missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}

    # A SIGTERM unwinds through the finally below, so children die too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    children = Children(root, work)
    try:
        if args.workload == "serve_mixed":
            measured = run_serve(children, args)
        else:
            measured = run_batch(children, args.workload, args)
        values = (per_layer(children, measured) if args.trace
                  else end_to_end(measured))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        children.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted, failures = 0, []
    for run in [measured.get("fixture", {}), *measured["runs"].values()]:
        attempted += run.get("attempted", 0)
        failures += run.get("failures", [])
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} do "
              "not match BENCHMARK.json", file=sys.stderr)
        return 1
    worker = measured.get("fixture") or measured["runs"]["plain"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"commit={commit_of(root)} nproc={os.cpu_count()} "
          f"python={worker['python']} numpy={worker['numpy']}")
    for name in units:
        value, count = values[name]
        samples = f"  (n={count})" if count is not None else ""
        print(f"  {name:32s} {value:14.6g} {units[name]}{samples}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name][0], "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
