"""The identity gate for batched bit-grant probes.

``DistributedSearch.evaluate_many`` scores the candidates the cache and
memo cannot answer in one program run over ``FormatBatch`` formats.  It
must be indistinguishable from calling ``evaluate`` on each candidate in
turn: the same SQNRs, cache and memo records, evaluation counts, budget
trips and tuned results.  The serial oracle here replaces
``evaluate_many`` with that loop.
"""

import numpy as np
import pytest

import repro.tuning.search as search_mod
from repro.apps import make_app
from repro.core import (
    BINARY32,
    FormatBatch,
    FPFormat,
    Stats,
    collect,
    use_backend,
)
from repro.tuning import (
    V1,
    V2,
    V2_NO8,
    BudgetExceededError,
    DistributedSearch,
    TuningProblem,
    TypeSystem,
    evaluation_memo,
    precision_to_sqnr_db,
    resolve_strategy,
)

TARGET_DB = precision_to_sqnr_db(1e-2)

#: A type system whose narrow interval saturates: its probes score -inf.
NARROW = TypeSystem("narrow", ((3, FPFormat(2, 2)), (24, BINARY32)))


def serial_many(search, candidates, input_id):
    return [search.evaluate(c, input_id) for c in candidates]


@pytest.fixture(autouse=True)
def cold_memo():
    evaluation_memo.clear()
    yield
    evaluation_memo.clear()


@pytest.fixture
def runs(monkeypatch):
    """Count program runs, and batched ones separately."""
    counts = {"runs": 0, "batched": 0}
    for app_name in ("pca", "svm"):
        cls = type(make_app(app_name, "tiny"))
        original = cls.run_numeric

        def counting(self, binding, input_id=0, _original=original):
            counts["runs"] += 1
            if any(isinstance(f, FormatBatch) for f in binding.values()):
                counts["batched"] += 1
            return _original(self, binding, input_id)

        monkeypatch.setattr(cls, "run_numeric", counting)
    return counts


def memo_records():
    """The shared memo's records, in LRU order, arrays as bytes."""
    return [
        (key, value.tobytes() if isinstance(value, np.ndarray) else value)
        for key, value in evaluation_memo._records.items()
    ]


def grant_trial_sets(app, ts):
    """The candidate lists a serial greedy solve hands evaluate_many."""
    seen = []

    def recording(search, candidates, input_id):
        seen.append(([dict(c) for c in candidates], input_id))
        return serial_many(search, candidates, input_id)

    original = DistributedSearch.evaluate_many
    DistributedSearch.evaluate_many = recording
    try:
        with use_backend("fast"):
            DistributedSearch(app, ts, TARGET_DB).tune()
    finally:
        DistributedSearch.evaluate_many = original
    evaluation_memo.clear()
    sets = [entry for entry in seen if len(entry[0]) >= 2]
    assert sets, "greedy repair never probed two candidates"
    return sets[:2] + sets[-2:]


def score_both_ways(app, ts, candidates, input_id, budget=None):
    """(values, evaluations, cache, memo, error) batched, then serial."""
    outcomes = []
    for many in (DistributedSearch.evaluate_many, serial_many):
        evaluation_memo.clear()
        search = DistributedSearch(app, ts, TARGET_DB, budget=budget)
        values, error = None, None
        with use_backend("fast"):
            try:
                values = many(search, candidates, input_id)
            except BudgetExceededError as exc:
                error = str(exc)
        outcomes.append((
            values, search.evaluations, dict(search._cache),
            memo_records(), error,
        ))
    return outcomes


@pytest.mark.parametrize("app_name", ["pca", "svm"])
@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("ts", [V1, V2, V2_NO8], ids=lambda t: t.name)
def test_grant_probes_match_serial_evaluation(app_name, scale, ts, runs):
    app = make_app(app_name, scale)
    for candidates, input_id in grant_trial_sets(app, ts):
        runs["batched"] = 0
        batched, serial = score_both_ways(app, ts, candidates, input_id)
        assert runs["batched"] == 1
        assert batched == serial


@pytest.mark.parametrize("app_name", ["pca", "svm"])
def test_saturating_candidates_score_minus_inf_in_a_batch(app_name, runs):
    app = make_app(app_name, "tiny")
    names = [spec.name for spec in app.variables()]
    candidates = [
        {n: (p if n == name else 24) for n in names}
        for name in names for p in (1, 2, 3)
    ]
    candidates.append({n: 1 for n in names})
    batched, serial = score_both_ways(app, NARROW, candidates, 0)
    assert runs["batched"] == 1
    assert batched == serial
    assert -np.inf in batched[0]


def test_memo_hits_and_duplicates_are_answered_without_running(runs):
    app = make_app("pca", "tiny")
    names = [spec.name for spec in app.variables()]
    probes = [{n: (10 + (n == name)) for n in names} for name in names]
    with use_backend("fast"):
        # Another search leaves two of the probes in the shared memo.
        DistributedSearch(app, V2, TARGET_DB).evaluate_many(probes[:2], 0)
        search = DistributedSearch(app, V2, TARGET_DB)
        runs.update(runs=0, batched=0)
        values = search.evaluate_many(probes + probes[:1], 0)
    assert runs == {"runs": 1, "batched": 1}
    assert search.evaluations == len(probes)
    evaluation_memo.clear()
    with use_backend("fast"):
        want = serial_many(
            DistributedSearch(app, V2, TARGET_DB), probes + probes[:1], 0
        )
    assert values == want


@pytest.mark.parametrize("budget", [0, 1, 2, 3])
def test_budget_trips_at_the_serial_count(budget):
    app = make_app("svm", "tiny")
    names = [spec.name for spec in app.variables()]
    candidates = [{n: (6 + (n == name)) for n in names} for name in names]
    batched, serial = score_both_ways(app, V2, candidates, 0, budget)
    assert batched == serial
    values, evaluations, _, _, error = batched
    assert values is None and "budget" in error
    assert evaluations == budget


@pytest.mark.parametrize("app_name", ["pca", "svm"])
@pytest.mark.parametrize("ts", [V1, V2, V2_NO8], ids=lambda t: t.name)
def test_greedy_results_match_the_reference_backend(app_name, ts, runs):
    app = make_app(app_name, "tiny")
    payloads = []
    for backend in ("fast", "reference"):
        evaluation_memo.clear()
        with use_backend(backend):
            report = resolve_strategy("greedy").solve(
                TuningProblem.for_precision(app, ts, 1e-2)
            )
        payloads.append(report.result.to_payload())
    assert runs["batched"] > 0
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("app_name", ["pca", "svm"])
def test_greedy_results_match_serial_at_small_scale(
    app_name, monkeypatch, runs
):
    app = make_app(app_name, "small")
    payloads = []
    for serial in (False, True):
        if serial:
            monkeypatch.setattr(
                DistributedSearch, "evaluate_many", serial_many
            )
        evaluation_memo.clear()
        with use_backend("fast"):
            payloads.append(
                DistributedSearch(app, V2, TARGET_DB).tune().to_payload()
            )
        if not serial:
            assert runs["batched"] > 0
    assert payloads[0] == payloads[1]


def test_collector_disables_batching_and_keeps_stats(monkeypatch):
    def refuse(width):
        raise AssertionError("batched a run while statistics collect")

    app = make_app("pca", "tiny")
    collected = []
    for many in (DistributedSearch.evaluate_many, serial_many):
        monkeypatch.setattr(DistributedSearch, "evaluate_many", many)
        monkeypatch.setattr(search_mod, "FormatBatchBackend", refuse)
        evaluation_memo.clear()
        with use_backend("fast"), collect(Stats()) as stats:
            result = DistributedSearch(app, V2, TARGET_DB).tune()
        collected.append((result.to_payload(), stats))
    (got, got_stats), (want, want_stats) = collected
    assert got == want
    assert list(got_stats.ops.items()) == list(want_stats.ops.items())
    assert list(got_stats.casts.items()) == list(want_stats.casts.items())


def test_other_backends_and_programs_stay_serial(runs):
    for backend, app_name in (("reference", "pca"), ("fast", "conv")):
        app = make_app(app_name, "tiny")
        names = [spec.name for spec in app.variables()]
        probes = [{n: (8 + (n == name)) for n in names} for name in names]
        with use_backend(backend):
            DistributedSearch(app, V2, TARGET_DB).evaluate_many(probes, 0)
    assert runs["batched"] == 0
