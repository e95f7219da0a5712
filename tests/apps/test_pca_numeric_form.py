"""PCA's whole-array covariance and deflation against the per-cell loops.

``PerCellPca`` keeps the original cell-by-cell covariance and row-by-row
deflation as a test-only oracle.  The production form must produce the
same output bit for bit, record the same ``Stats`` (counts and key
insertion order), and give the static analysis the same ranges, bounds
and certificates.  Only two bookkeeping counters of the analysis may
differ: ``sites`` (storage events per region: the per-cell form
quantizes the ``1/n`` literal once per cell and the deflation literals
once per row) and ``scalar_collapses`` (the per-cell form collapses
``lambda`` once per row instead of once per component).
"""

import numpy as np
import pytest

from repro.apps import PcaApp
from repro.core import (
    FlexFloat,
    FlexFloatArray,
    FPFormat,
    Stats,
    collect,
    use_backend,
    vectorizable,
)
from repro.apps.base import lanes_for, wider
from repro.static import analyze_program
from repro.tuning import V1, V2


class PerCellPca(PcaApp):
    """PCA with the covariance and deflation written as scalar loops."""

    def _covariance(self, centered, cov_fmt):
        n, d = centered.shape
        data_fmt = centered.fmt
        inv_n = 1.0 / n
        cov_region = wider(data_fmt, cov_fmt)
        vector_cov = self.manual_vectorize and lanes_for(cov_region) > 1

        cov_store = FlexFloatArray(np.zeros((d, d)), cov_fmt)
        for i in range(d):
            ci = centered[:, i]
            if data_fmt != cov_region:
                ci = ci.cast(cov_region)
            for j in range(i, d):
                cj = centered[:, j]
                if data_fmt != cov_region:
                    cj = cj.cast(cov_region)

                def cell() -> FlexFloat:
                    return (ci * cj).sum() * FlexFloat(inv_n, cov_region)

                if vector_cov:
                    with vectorizable():
                        value = cell()
                else:
                    value = cell()
                stored = (
                    value if cov_fmt == cov_region else value.cast(cov_fmt)
                )
                cov_store[i, j] = stored
                cov_store[j, i] = stored
        return cov_store

    @staticmethod
    def _deflate(cov_store, vr, lam):
        cov_fmt = cov_store.fmt
        for i in range(len(vr)):
            row = cov_store[i, :]
            vi = vr[i]
            correction = vr * float(vi) * float(lam)
            if cov_fmt != vr.fmt:
                correction = correction.cast(cov_fmt)
            cov_store[i, :] = row - correction
        return cov_store


def random_bindings(app, count, seed):
    """Search-format bindings at random precisions 1..24 under V1/V2."""
    rng = np.random.default_rng(seed)
    names = [spec.name for spec in app.variables()]
    out = []
    for k in range(count):
        ts = (V1, V2)[k % 2]
        out.append({
            name: ts.search_format(int(rng.integers(1, 25)))
            for name in names
        })
    return out


def traced_run(app, binding, backend):
    stats = Stats()
    with use_backend(backend), collect(stats):
        out = app.run_numeric(binding, 0)
    return out, stats


CASES = [
    (scale, backend, manual)
    for scale in ("tiny", "small")
    for backend in ("fast", "reference")
    for manual in (False, True)
]


@pytest.mark.parametrize("scale,backend,manual", CASES)
def test_matches_per_cell_reference(scale, backend, manual):
    app = PcaApp(scale, manual_vectorize=manual)
    oracle = PerCellPca(scale, manual_vectorize=manual)
    count = 12 if backend == "fast" else 4
    seed = CASES.index((scale, backend, manual))
    for binding in random_bindings(app, count, seed):
        got, got_stats = traced_run(app, binding, backend)
        want, want_stats = traced_run(oracle, binding, backend)
        np.testing.assert_array_equal(
            got.view(np.int64), want.view(np.int64), err_msg=str(binding)
        )
        assert got_stats.ops == want_stats.ops
        assert got_stats.casts == want_stats.casts
        assert list(got_stats.ops) == list(want_stats.ops)
        assert list(got_stats.casts) == list(want_stats.casts)


def test_edge_formats_match():
    """Saturating and binary64 corners of the format space."""
    app, oracle = PcaApp("tiny"), PerCellPca("tiny")
    names = [spec.name for spec in app.variables()]
    for fmt in (FPFormat(2, 0), FPFormat(3, 1), FPFormat(11, 52)):
        binding = {name: fmt for name in names}
        got, got_stats = traced_run(app, binding, "fast")
        want, want_stats = traced_run(oracle, binding, "fast")
        np.testing.assert_array_equal(
            got.view(np.int64), want.view(np.int64)
        )
        assert list(got_stats.ops.items()) == list(want_stats.ops.items())
        assert list(got_stats.casts.items()) == list(
            want_stats.casts.items()
        )


@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("manual", [False, True])
def test_static_analysis_matches_per_cell_reference(scale, manual):
    got = analyze_program(PcaApp(scale, manual_vectorize=manual), 0)
    want = analyze_program(PerCellPca(scale, manual_vectorize=manual), 0)
    got_payload, want_payload = got.to_payload(), want.to_payload()
    # Bookkeeping counters: fewer storage events and scalar collapses.
    for payload in (got_payload, want_payload):
        payload.pop("scalar_collapses")
        for var in payload["variables"].values():
            var.pop("sites")
    assert got_payload == want_payload
    assert got.scalar_collapses <= want.scalar_collapses
    for name, var in got.variables.items():
        assert var.sites <= want.variables[name].sites
