"""Derived jobs share one tuned kernel per grid point, in a bounded LRU.

The castless and fast16 reports and every 1-core cluster job of a grid
point replay the same tuned program (``partition(1, ...)`` is the
unpartitioned kernel bit for bit); the cache holding it is bounded, so
a server fed report jobs for arbitrary precisions cannot grow it
without limit.
"""

import sys
import threading
from collections import OrderedDict
from types import SimpleNamespace

import pytest

from repro.apps import ConvApp, make_app
from repro.cluster import ClusterConfig
from repro.flow import TransprecisionFlow
from repro.runner import jobs
from repro.runner.jobs import compute_job, strip_casts
from repro.runner.store import JobSpec
from repro.session import Session
from repro.tuning import V2


@pytest.fixture(autouse=True)
def empty_cache(monkeypatch):
    monkeypatch.setattr(jobs, "_TUNED_PROGRAMS", OrderedDict())


@pytest.fixture(scope="module")
def session():
    return Session(backend="fast", cache_dir=None)


@pytest.fixture(scope="module")
def conv_flow(session):
    flow = TransprecisionFlow(
        make_app("conv", "tiny"), V2, 1e-1, cache_dir=None, session=session
    )
    return flow.run()


def test_castless_reports_never_exceed_the_bound(session):
    bound = jobs.TUNED_PROGRAMS_MAX_ENTRIES
    app = make_app("conv", "tiny")
    # Any binding will do: the report only needs the parent's binding.
    parent = SimpleNamespace(binding=app.baseline_binding())
    precisions = [10.0 ** -(k + 1) for k in range(bound + 1)]
    sizes = []
    for precision in precisions:
        job = JobSpec("report", "conv", "tiny", "V2", precision, "castless")
        report = compute_job(job, session, lambda *_: parent)
        sizes.append(len(jobs._TUNED_PROGRAMS))
        assert report.cycles > 0
    assert max(sizes) == bound
    keys = [key[3] for key in jobs._TUNED_PROGRAMS]
    assert keys == precisions[1:]  # the least recently used went first


def test_recently_used_programs_survive_eviction(session):
    app = make_app("conv", "tiny")
    parent = SimpleNamespace(binding=app.baseline_binding())
    loader = lambda *_: parent  # noqa: E731
    first = JobSpec("report", "conv", "tiny", "V2", 1.0, "fast16")
    compute_job(first, session, loader)
    kept = jobs._TUNED_PROGRAMS[next(iter(jobs._TUNED_PROGRAMS))]
    for k in range(jobs.TUNED_PROGRAMS_MAX_ENTRIES):
        compute_job(first, session, loader)  # refresh, then add another
        other = JobSpec("report", "conv", "tiny", "V2", 2.0 + k, "fast16")
        compute_job(other, session, loader)
    assert any(program is kept for program in jobs._TUNED_PROGRAMS.values())


def test_one_core_cluster_equals_the_partition_path(session, conv_flow):
    app = make_app("conv", "tiny")
    with session:
        programs = app.partition(1, conv_flow.binding, 0, vectorize=True)
    expected = session.cluster_platform(ClusterConfig(1, 1)).run(
        programs, name=app.name, serial_cycles=conv_flow.tuned_report.cycles
    )
    job = JobSpec("cluster", "conv", "tiny", "V2", 1e-1, cores=1)
    report = compute_job(job, session, lambda *_: conv_flow)
    assert report.to_payload() == expected.to_payload()


def test_derived_jobs_share_one_build(session, conv_flow, monkeypatch):
    calls = []
    original = ConvApp.build_program

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ConvApp, "build_program", counted)
    loader = lambda *_: conv_flow  # noqa: E731
    castless = compute_job(
        JobSpec("report", "conv", "tiny", "V2", 1e-1, "castless"),
        session, loader,
    )
    compute_job(JobSpec("report", "conv", "tiny", "V2", 1e-1, "fast16"),
                session, loader)
    compute_job(JobSpec("cluster", "conv", "tiny", "V2", 1e-1, cores=1),
                session, loader)
    assert len(calls) == 1
    (program,) = jobs._TUNED_PROGRAMS.values()
    assert castless == session.platform.run(strip_casts(program))


def test_concurrent_derived_jobs_keep_the_bound(session):
    """Server worker threads share the cache: under a short switch
    interval, more threads than cores never push it past the bound."""
    app = make_app("conv", "tiny")
    parent = SimpleNamespace(binding=app.baseline_binding())
    sizes, errors = [], []

    def worker(offset):
        try:
            for k in range(6):
                job = JobSpec("report", "conv", "tiny", "V2",
                              offset + k / 10, "castless")
                compute_job(job, session, lambda *_: parent)
                sizes.append(len(jobs._TUNED_PROGRAMS))
        except Exception as exc:  # reported below, never swallowed
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(sizes) == 24
    assert max(sizes) <= jobs.TUNED_PROGRAMS_MAX_ENTRIES
    assert len(jobs._TUNED_PROGRAMS) == jobs.TUNED_PROGRAMS_MAX_ENTRIES
