"""Evaluate spans say where each SQNR came from and for which binding."""

import json

import pytest

from repro import telemetry
from repro.apps import make_app
from repro.core import use_backend
from repro.tuning import (
    V2,
    TuningProblem,
    evaluation_memo,
    resolve_strategy,
)


@pytest.fixture(autouse=True)
def cold_memo():
    evaluation_memo.clear()
    yield
    evaluation_memo.clear()


def solve_greedy():
    problem = TuningProblem.for_precision(make_app("conv", "tiny"), V2, 1e-1)
    return resolve_strategy("greedy").solve(problem)


def test_repeated_solve_traces_every_evaluation_as_memo(tmp_path):
    telemetry.enable(export_dir=tmp_path)
    first = solve_greedy()
    second = solve_greedy()
    telemetry.flush()

    (path,) = tmp_path.glob("trace-*.ndjson")
    spans = [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]
    solves = [sp for sp in spans if sp["name"] == "tuning.solve"]
    assert len(solves) == 2
    first_id, second_id = (sp["span_id"] for sp in solves)
    evaluations = {
        parent: [
            sp["attrs"] for sp in spans
            if sp["name"] == "tuning.evaluate" and sp["parent_id"] == parent
        ]
        for parent in (first_id, second_id)
    }

    cold, warm = evaluations[first_id], evaluations[second_id]
    assert len(cold) == first.evaluations
    assert len(warm) == second.evaluations == first.evaluations
    assert {attrs["source"] for attrs in cold} == {"run"}
    assert {attrs["source"] for attrs in warm} == {"memo"}
    # The same bindings, in the same order, carry the same digests.
    assert [a["binding"] for a in warm] == [a["binding"] for a in cold]
    assert [a["sqnr_db"] for a in warm] == [a["sqnr_db"] for a in cold]
    # One evaluation per (input, binding): digests tell bindings apart.
    assert len({(a["input"], a["binding"]) for a in cold}) == len(cold)
    assert all(len(a["binding"]) == 12 for a in cold)


def read_spans(tmp_path):
    (path,) = tmp_path.glob("trace-*.ndjson")
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def test_batched_probes_open_one_evaluate_many_span_per_run(tmp_path):
    telemetry.enable(export_dir=tmp_path)
    problem = TuningProblem.for_precision(make_app("pca", "tiny"), V2, 1e-1)
    with use_backend("fast"):
        report = resolve_strategy("greedy").solve(problem)
    telemetry.flush()

    spans = read_spans(tmp_path)
    singles = [sp["attrs"] for sp in spans if sp["name"] == "tuning.evaluate"]
    batches = [
        sp["attrs"] for sp in spans if sp["name"] == "tuning.evaluate_many"
    ]
    assert batches
    # Every evaluation is accounted for once: by its own evaluate span
    # or as a candidate of a batched run.
    assert len(singles) + sum(b["candidates"] for b in batches) == (
        report.result.evaluations
    )
    for attrs in batches:
        assert attrs["program"] == "pca" and attrs["input"] in (0, 1, 2)
        assert 2 <= attrs["runs"] <= attrs["candidates"]
        assert len(attrs["sqnr_db"]) == attrs["candidates"]
        assert len(attrs["binding"]) == attrs["candidates"]
        assert all(len(digest) == 12 for digest in attrs["binding"])
    # One evaluation per (input, binding), batched or not.
    keys = [(b["input"], d) for b in batches for d in b["binding"]]
    keys += [(a["input"], a["binding"]) for a in singles]
    assert len(set(keys)) == len(keys)
