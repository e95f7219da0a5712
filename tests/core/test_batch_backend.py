"""The candidate-batch backend and the trailing-payload seam it rides on.

Every candidate column of a batched computation must equal, bit for
bit, the same computation run serially on that candidate's format; the
logical shape of an emulation value must never see the trailing axis.
"""

import numpy as np
import pytest

from repro.apps.base import lanes_for, wider
from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    BINARY64,
    FlexFloat,
    FlexFloatArray,
    FormatBatch,
    FPFormat,
    Stats,
    collect,
    mathfn,
    use_backend,
)
from repro.core.batch import FormatBatchBackend
from repro.static import AbstractBackend

FORMATS = (
    BINARY8, BINARY16, BINARY16ALT, BINARY32, BINARY64,
    FPFormat(2, 0), FPFormat(3, 1), FPFormat(8, 1), FPFormat(11, 20),
)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def edge_values(rng, n=400):
    """Random magnitudes across the whole double range plus specials."""
    mags = np.ldexp(rng.random(n) + 0.5, rng.integers(-1080, 1020, n))
    values = mags * rng.choice([-1.0, 1.0], n)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 65504.0, 65520.0,
                65519.99, 5e-324, 2.0 ** -24, 3 * 2.0 ** -26]
    return np.concatenate([values, specials])


# ----------------------------------------------------------------------
# The trailing-payload seam: logical shape only
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "backend", [AbstractBackend(), FormatBatchBackend(3)],
    ids=["abstract", "batch"],
)
def test_len_and_iter_follow_the_logical_shape(backend):
    with use_backend(backend):
        scalar = FlexFloatArray(np.asarray(3.0), BINARY16)
        with pytest.raises(TypeError):
            len(scalar)
        with pytest.raises(TypeError):
            iter(scalar).__next__()
        vector = FlexFloatArray(np.arange(5.0), BINARY16)
        assert len(vector) == 5
        assert len(list(vector)) == 5
        matrix = FlexFloatArray(np.zeros((4, 2)), BINARY16)
        assert len(matrix) == 4
        assert [row.shape for row in matrix] == [(2,)] * 4


def test_len_matches_numpy_under_concrete_backends():
    for backend in ("reference", "fast"):
        with use_backend(backend):
            with pytest.raises(TypeError):
                len(FlexFloatArray(np.asarray(3.0), BINARY16))
            assert len(FlexFloatArray(np.zeros((4, 2)), BINARY16)) == 4


# ----------------------------------------------------------------------
# FormatBatch and the promotion rules
# ----------------------------------------------------------------------
def test_format_batch_collapses_when_candidates_agree():
    assert FormatBatch.of([BINARY16] * 3) is BINARY16
    batch = FormatBatch.of([BINARY16, BINARY8])
    assert isinstance(batch, FormatBatch)
    assert batch == FormatBatch([BINARY16, BINARY8])
    assert hash(batch) == hash(FormatBatch([BINARY16, BINARY8]))
    assert batch != BINARY16 and BINARY16 != batch
    assert FormatBatch.spread(BINARY32, 2) == (BINARY32, BINARY32)


def test_wider_and_lanes_go_candidate_by_candidate():
    a = FormatBatch([BINARY8, BINARY16, BINARY16ALT])
    b = FormatBatch([BINARY16ALT, BINARY8, BINARY16])
    assert wider(a, b) == FormatBatch(
        [wider(x, y) for x, y in zip(a.formats, b.formats)]
    )
    assert wider(a, BINARY32) is BINARY32
    assert wider(BINARY8, a) == FormatBatch(
        [BINARY8, BINARY16, BINARY16ALT]
    )
    assert lanes_for(a) == 2
    assert lanes_for(FormatBatch([BINARY8, BINARY32])) == 1


# ----------------------------------------------------------------------
# Per-candidate arithmetic against serial runs
# ----------------------------------------------------------------------
def serial(fn, fmt):
    with use_backend("reference"):
        return fn(fmt)


@pytest.mark.parametrize("seed", range(4))
def test_quantize_and_ops_match_reference_per_candidate(seed):
    rng = np.random.default_rng(seed)
    fmts = [FORMATS[i] for i in rng.choice(len(FORMATS), 5, replace=False)]
    batch = FormatBatch(fmts)
    x, y = edge_values(rng), edge_values(rng)

    def program(fmt):
        a, b = FlexFloatArray(x, fmt), FlexFloatArray(y, fmt)
        outs = [a, a + b, a - b, a * b, a / b, mathfn.sqrt(abs(a)),
                a * 0.1, a.cast(BINARY16)]
        return [o.to_numpy() for o in outs]

    with use_backend(FormatBatchBackend(len(fmts))):
        got = program(batch)
    for k, fmt in enumerate(fmts):
        want = serial(program, fmt)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(bits(g[..., k]), bits(w))


@pytest.mark.parametrize("shape,axis", [
    ((7,), None), ((5, 6), 0), ((5, 6), 1), ((3, 4, 5), 1), ((4, 1), 1),
    ((0, 3), 0),
])
def test_tree_sums_match_reference_per_candidate(shape, axis):
    rng = np.random.default_rng(sum(shape))
    data = rng.normal(size=shape) * 100
    fmts = [BINARY8, BINARY16ALT, FPFormat(4, 3)]

    def program(fmt):
        total = FlexFloatArray(data, fmt).sum(axis=axis)
        if isinstance(total, FlexFloat):
            return np.asarray(total._value)
        return total.to_numpy()

    with use_backend(FormatBatchBackend(len(fmts))):
        got = program(FormatBatch(fmts))
    for k, fmt in enumerate(fmts):
        np.testing.assert_array_equal(
            bits(got[..., k]), bits(serial(program, fmt))
        )


def test_scalar_arithmetic_and_picks_carry_candidates():
    fmts = [BINARY8, BINARY16, BINARY32]
    values = np.array([1.3, -2.7, 0.1])

    def program(fmt):
        arr = FlexFloatArray(values, fmt)
        s = arr[1] * arr[2] + FlexFloat(0.7, fmt)
        s = mathfn.sqrt(abs(s)) / FlexFloat(3.0, fmt)
        return np.array([s._value, arr.min()._value, arr.max()._value],
                        dtype=float).T

    with use_backend(FormatBatchBackend(len(fmts))):
        got = np.asarray(program(FormatBatch(fmts)))
    for k, fmt in enumerate(fmts):
        np.testing.assert_array_equal(
            bits(got[k]), bits(serial(program, fmt))
        )


def test_float_of_a_batched_scalar_refuses():
    with use_backend(FormatBatchBackend(2)):
        x = FlexFloat(1.5, FormatBatch([BINARY8, BINARY16]))
        with pytest.raises(TypeError):
            float(x)


# ----------------------------------------------------------------------
# Literal reloads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_as_literal_is_an_uncounted_requantization(backend):
    values = np.array([1.0 / 3.0, -7.1, 1e6])
    with use_backend(backend), collect(Stats()) as stats:
        arr = FlexFloatArray(values, BINARY32)
        lit = arr.as_literal(BINARY8)
        scalar = arr.sum().as_literal(BINARY16)
    want = FlexFloatArray(arr.to_numpy(), BINARY8).to_numpy()
    np.testing.assert_array_equal(bits(lit.to_numpy()), bits(want))
    assert lit.fmt == BINARY8 and scalar.fmt == BINARY16
    assert float(scalar) == float(FlexFloat(float(arr.sum()), BINARY16))
    assert stats.casts == {}
    assert sum(stats.ops.values()) == 2  # the sum's two additions only
