"""The process-wide evaluation memo: shared SQNR records, same results."""

import numpy as np
import pytest

from repro.analysis import ExperimentConfig
from repro.analysis.common import default_grid
from repro.apps import ConvApp, make_app
from repro.core import FlexFloatArray, Stats, collect, use_backend
from repro.tuning import (
    V1,
    V2,
    BudgetExceededError,
    DistributedSearch,
    VarSpec,
    evaluation_memo,
    precision_to_sqnr_db,
)
from repro.tuning import search as search_mod

TARGET = precision_to_sqnr_db(1e-2)


@pytest.fixture(autouse=True)
def cold_memo():
    evaluation_memo.clear()
    yield
    evaluation_memo.clear()


class CountingConv(ConvApp):
    """conv that counts its numeric executions."""

    def __init__(self, scale="tiny") -> None:
        super().__init__(scale)
        self.runs = 0

    def run_numeric(self, binding, input_id=0):
        self.runs += 1
        return super().run_numeric(binding, input_id)


class Anonymous:
    """A tunable program without ``program_identity``."""

    name = "anonymous"
    num_inputs = 1

    def __init__(self) -> None:
        self.runs = 0

    def variables(self):
        return [VarSpec("x", 16)]

    def run(self, binding, input_id=0):
        self.runs += 1
        values = np.linspace(0.1, 3.0, 16)
        return FlexFloatArray(values, binding["x"]).to_numpy()


def solve(program, **kwargs):
    search = DistributedSearch(program, V2, TARGET, **kwargs)
    return search, search.tune()


def store_bytes(runner):
    version_dir = runner.store.version_dir
    return {
        str(path.relative_to(version_dir)): path.read_bytes()
        for path in runner.store.entries()
    }


def test_grid_envelopes_identical_with_warm_and_unread_memo(
    tmp_path, monkeypatch
):
    """The tiny default grid stores the same bytes whether every
    evaluation and every baseline replay runs its program or the memo
    answers it."""

    def run_grid(tag):
        cfg = ExperimentConfig(
            scale="tiny",
            backend="fast",
            cache_dir=tmp_path / tag / "tuning",
            store_dir=tmp_path / tag / "store",
        )
        cfg.runner.run(default_grid(cfg))
        return store_bytes(cfg.runner)

    # Records are written but never read: every evaluation runs, and
    # every flow and baseline report builds and replays its baseline.
    unread_keys = []
    monkeypatch.setattr(evaluation_memo, "get", unread_keys.append)
    unread = run_grid("unread")
    monkeypatch.undo()
    apps = ExperimentConfig(scale="tiny").apps
    baselines = [key for key in unread_keys if key[0] == "baseline"]
    assert len(baselines) > len(apps)
    assert len({key[1] for key in baselines}) == len(apps)
    # The whole grid fits: nothing was evicted before the warm run.
    assert 0 < len(evaluation_memo) < search_mod.MEMO_MAX_ENTRIES

    hits = []
    warm_baselines = []
    real_get = evaluation_memo.get

    def spy(key):
        value = real_get(key)
        hits.append(value is not None)
        if key[0] == "baseline":
            warm_baselines.append(key)
        return value

    monkeypatch.setattr(evaluation_memo, "get", spy)
    warm = run_grid("warm")
    assert all(hits) and hits
    # Warm, every baseline lookup is a memo hit too.
    assert warm_baselines == baselines
    assert warm == unread


def test_second_search_runs_nothing_and_counts_the_same():
    first_app, second_app = CountingConv(), CountingConv()
    first, cold = solve(first_app)
    second, warm = solve(second_app)
    assert first_app.runs == first.evaluations + first_app.num_inputs
    assert second_app.runs == 0
    assert warm.to_payload() == cold.to_payload()
    assert second.evaluations == first.evaluations


def test_budget_trips_at_the_same_evaluation_with_a_warm_memo():
    budget = 7
    outcomes = []
    for _ in range(2):  # cold memo, then warm memo
        search = DistributedSearch(make_app("pca", "tiny"), V2, TARGET,
                                   budget=budget)
        with pytest.raises(BudgetExceededError) as err:
            search.tune()
        outcomes.append((search.evaluations, str(err.value)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == budget


def test_no_hits_under_an_installed_collector():
    solve(CountingConv())
    app = CountingConv()
    stats = Stats()
    with collect(stats):
        search, _ = solve(app)
    assert app.runs == search.evaluations + app.num_inputs
    assert stats.total_ops() > 0


def test_no_sharing_without_program_identity():
    first, second = Anonymous(), Anonymous()
    s1, _ = solve(first)
    s2, _ = solve(second)
    assert second.runs == s2.evaluations + 1
    assert len(evaluation_memo) == 0


def test_no_hits_across_backends():
    with use_backend("fast"):
        solve(CountingConv())
    app = CountingConv()
    with use_backend("reference"):
        search, _ = solve(app)
    assert app.runs == search.evaluations + app.num_inputs


def test_identity_separates_scales_and_pca_flags():
    assert CountingConv("tiny").program_identity() != (
        CountingConv("small").program_identity()
    )
    plain = make_app("pca", "tiny").program_identity()
    manual = type(make_app("pca", "tiny"))(
        "tiny", manual_vectorize=True
    ).program_identity()
    assert plain != manual
    assert plain == make_app("pca", "tiny").program_identity()


def test_other_type_system_reuses_shared_bindings():
    """V1 and V2 resolve many precisions to the same formats, and the
    memo keys on the resolved binding, not on the type system."""
    solve(CountingConv())
    app = CountingConv()
    search = DistributedSearch(app, V1, TARGET)
    search.tune()
    assert app.runs < search.evaluations + app.num_inputs


class TestBound:
    def test_lru_eviction_keeps_the_bound(self, monkeypatch):
        monkeypatch.setattr(search_mod, "MEMO_MAX_ENTRIES", 3)
        memo = search_mod.EvaluationMemo()
        for k in range(5):
            memo.put(k, float(k))
            assert len(memo) <= 3
        assert memo.get(0) is None and memo.get(1) is None
        memo.get(2)  # refresh: 3 is now the oldest
        memo.put(5, 5.0)
        assert memo.get(3) is None
        assert memo.get(2) == 2.0

    def test_searches_never_exceed_the_bound(self, monkeypatch):
        monkeypatch.setattr(search_mod, "MEMO_MAX_ENTRIES", 8)
        sizes = []
        real_put = evaluation_memo.put

        def put(key, value):
            real_put(key, value)
            sizes.append(len(evaluation_memo))

        monkeypatch.setattr(evaluation_memo, "put", put)
        app = CountingConv()
        bounded, result = solve(app)
        evaluation_memo.clear()
        monkeypatch.undo()
        _, unbounded = solve(CountingConv())
        assert sizes and max(sizes) == 8
        assert result.to_payload() == unbounded.to_payload()

    def test_reference_outputs_are_read_only(self):
        search, _ = solve(CountingConv())
        reference = search._references[0]
        assert not reference.flags.writeable
