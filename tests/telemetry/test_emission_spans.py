"""Emission and lowering spans: where a flow's kernels come from.

A traced flow shows each kernel build as ``kernel.emit``, each first
lowering as ``kernel.lower``, and its ``flow.baseline`` says whether the
binary32 baseline was built and replayed (``run``) or read back from
the process-wide memo (``memo``).
"""

import json

import pytest

from repro import telemetry
from repro.apps import make_app
from repro.flow import TransprecisionFlow
from repro.session import Session
from repro.tuning import V2, evaluation_memo


@pytest.fixture(autouse=True)
def cold_memo():
    evaluation_memo.clear()
    yield
    evaluation_memo.clear()


def read_spans(tmp_path):
    (path,) = tmp_path.glob("trace-*.ndjson")
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def test_traced_flows_show_emission_lowering_and_baseline_source(tmp_path):
    telemetry.enable(export_dir=tmp_path)
    session = Session(backend="fast", cache_dir=None)
    for precision in (1e-1, 1e-2):
        TransprecisionFlow(
            make_app("conv", "tiny"), V2, precision, cache_dir=None,
            session=session,
        ).run()
    telemetry.flush()
    spans = read_spans(tmp_path)
    by_id = {sp["span_id"]: sp for sp in spans}

    def parent_name(sp):
        return by_id[sp["parent_id"]]["name"]

    flows = [sp for sp in spans if sp["name"] == "flow.run"]
    assert len(flows) == 2

    def under(flow, name):
        """Spans called ``name`` anywhere below ``flow``."""
        found = []
        for sp in spans:
            if sp["name"] != name:
                continue
            node = sp
            while node["parent_id"] in by_id:
                node = by_id[node["parent_id"]]
                if node is flow:
                    found.append(sp)
                    break
        return found

    first, second = sorted(flows, key=lambda sp: -sp["attrs"]["precision"])
    # The first flow builds, lowers and replays its baseline ...
    (cold,) = under(first, "flow.baseline")
    assert cold["attrs"]["source"] == "run"
    assert len(under(first, "kernel.emit")) == 2  # baseline + tuned
    assert len(under(first, "kernel.lower")) == 2
    # ... the second reads it back and emits only its tuned kernel.
    (warm,) = under(second, "flow.baseline")
    assert warm["attrs"]["source"] == "memo"
    assert len(under(second, "kernel.emit")) == 1
    assert len(under(second, "kernel.lower")) == 1

    emits = [sp for sp in spans if sp["name"] == "kernel.emit"]
    assert all(sp["attrs"]["program"] == "conv" for sp in emits)
    assert sorted(parent_name(sp) for sp in emits) == [
        "flow.baseline", "flow.run", "flow.run",
    ]
    # Lowering happens inside the replay that first needs the columns.
    lowers = [sp for sp in spans if sp["name"] == "kernel.lower"]
    assert {parent_name(sp) for sp in lowers} == {"platform.run"}
