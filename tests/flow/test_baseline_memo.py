"""One binary32 baseline per kernel: built and replayed once per process.

Every flow of an app, and the ``baseline`` report variant, scores
against the same binary32 replay; :func:`repro.flow.replay_baseline`
keeps its report payload in the process-wide evaluation memo.  These
tests pin that the shared record equals a fresh build and replay, that
no two callers share a mutable report, and that nothing which changes
the replay (platform, energy model, backend, scale, PCA's manual
vectorization) can alias another baseline.
"""

from dataclasses import dataclass

import pytest

from repro.apps import APP_CLASSES, PcaApp, make_app
from repro.core import use_backend
from repro.flow import TransprecisionFlow, replay_baseline
from repro.hardware import EnergyModel, VirtualPlatform
from repro.session import Session
from repro.tuning import V2, evaluation_memo


@pytest.fixture(autouse=True)
def cold_memo():
    evaluation_memo.clear()
    yield
    evaluation_memo.clear()


@pytest.fixture
def builds(monkeypatch):
    """Every ``build_program`` call, as ``(app name, vectorize)``."""
    calls = []
    for cls in APP_CLASSES.values():
        original = cls.build_program

        def counted(self, binding, input_id=0, vectorize=True,
                    _original=original):
            calls.append((self.name, vectorize))
            return _original(self, binding, input_id, vectorize)

        monkeypatch.setattr(cls, "build_program", counted)
    return calls


def fresh_baseline(app, platform):
    program = app.build_program(app.baseline_binding(), 0, vectorize=False)
    return platform.run(program)


def test_flow_baseline_equals_a_fresh_build_and_replay(builds):
    session = Session(backend="fast", cache_dir=None)
    results = [
        TransprecisionFlow(
            make_app("conv", "tiny"), V2, precision, cache_dir=None,
            session=session,
        ).run()
        for precision in (1e-1, 1e-2)
    ]
    # Two flows, one baseline build (plus one tuned build each).
    assert builds.count(("conv", False)) == 1
    assert builds.count(("conv", True)) == 2
    with session:
        fresh = fresh_baseline(make_app("conv", "tiny"), session.platform)
    for result in results:
        assert result.baseline_report.to_payload() == fresh.to_payload()
        assert result.baseline_report == fresh
    first, second = (r.baseline_report for r in results)
    assert first is not second
    assert first.fp_instrs is not second.fp_instrs


def test_every_call_gets_a_fresh_report():
    app, platform = make_app("dwt", "tiny"), VirtualPlatform()
    first = replay_baseline(app, platform)
    second = replay_baseline(app, platform)
    assert first == second and first is not second
    key = next(iter(first.fp_instrs))
    first.fp_instrs[key] += 1000
    first.timing.cycles_by_class["fp_scalar"] = -1
    assert replay_baseline(app, platform) == second


@dataclass(frozen=True)
class DoubledDatapath(EnergyModel):
    """A behavioural energy-model subclass (cannot cross processes)."""

    def datapath_energy_pj(self, instr):
        return 2.0 * super().datapath_energy_pj(instr)


def _default():
    return make_app("conv", "tiny"), VirtualPlatform(), "fast"


#: case -> two (app, platform, backend) triples whose baselines differ.
VARIANTS = {
    "latency": lambda: (
        _default(),
        (make_app("conv", "tiny"),
         VirtualPlatform(fp_latency_override={"binary32": 3}), "fast"),
    ),
    "energy_subclass": lambda: (
        _default(),
        (make_app("conv", "tiny"),
         VirtualPlatform(energy_model=DoubledDatapath()), "fast"),
    ),
    "backend": lambda: (
        _default(),
        (make_app("conv", "tiny"), VirtualPlatform(), "reference"),
    ),
    "scale": lambda: (
        _default(),
        (make_app("conv", "small"), VirtualPlatform(), "fast"),
    ),
    "pca_manual": lambda: (
        (PcaApp("tiny"), VirtualPlatform(), "fast"),
        (PcaApp("tiny", manual_vectorize=True), VirtualPlatform(), "fast"),
    ),
}


@pytest.mark.parametrize("case", sorted(VARIANTS))
def test_baselines_do_not_alias(case, builds):
    reports = []
    for app, platform, backend in VARIANTS[case]():
        with use_backend(backend):
            reports.append(
                [replay_baseline(app, platform) for _ in range(2)]
            )
            expected = fresh_baseline(app, platform)
        # The memoized report is this configuration's own replay.
        assert reports[-1][0] == reports[-1][1] == expected
    # One build per configuration plus the fresh oracle builds.
    assert len(builds) == 2 + 2
    assert len(evaluation_memo) == 2
    if case in ("latency", "energy_subclass", "scale"):
        assert reports[0][0] != reports[1][0]
