"""Scalar rounding gate: the fast backend's scalar ``quantize`` is the
reference's, bit for bit.

Kernel emission rounds every emitted FP op, cast and store through the
scalar path, so it is checked on every bit pattern of the small
formats, on every tie between adjacent representable values (and one
double ulp either side of it), on the binade edges of the wide formats,
and on the specials.  A second gate builds every app's kernel under
both backends and compares outputs and platform reports.
"""

import math

import numpy as np
import pytest

from repro.apps import APP_CLASSES, make_app
from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    BINARY64,
    FPFormat,
    use_backend,
)
from repro.core.backend import FastNumpyBackend, ReferenceBackend
from repro.core.quantize import decode_array
from repro.hardware import VirtualPlatform

FAST = FastNumpyBackend()
REFERENCE = ReferenceBackend()

#: Formats small enough to enumerate every bit pattern.
EXHAUSTIVE = [BINARY8, BINARY16, BINARY16ALT, FPFormat(4, 3),
              FPFormat(6, 9), FPFormat(8, 1)]
#: Formats checked on every binade's edge patterns plus a seeded sample.
SAMPLED = [BINARY32, FPFormat(7, 12), FPFormat(11, 20), BINARY64]

DOUBLE_SPECIALS = [
    0.0, -0.0, math.inf, -math.inf, math.nan,
    5e-324, -5e-324, 1e-323, 2.225073858507201e-308,  # double subnormals
    -2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
]


def assert_scalars_identical(values, fmt):
    values = [float(v) for v in values]
    fast = np.array([FAST.quantize(v, fmt) for v in values])
    reference = np.array([REFERENCE.quantize(v, fmt) for v in values])
    mismatch = np.flatnonzero(fast.view(np.int64) != reference.view(np.int64))
    assert mismatch.size == 0, [
        (values[i], fast[i], reference[i]) for i in mismatch[:5]
    ]


def max_finite_pattern(fmt):
    return (((1 << fmt.exp_bits) - 1) << fmt.man_bits) - 1


def edge_patterns(fmt, rng, sample=2048):
    """Every exponent field's lowest and highest mantissa patterns, plus
    a seeded sample of non-negative finite patterns."""
    top = (1 << fmt.man_bits) - 1
    mantissas = sorted({m for m in (0, 1, 2, 3, top - 1, top) if m >= 0})
    patterns = [
        (biased << fmt.man_bits) | m
        for biased in range((1 << fmt.exp_bits) - 1)
        for m in mantissas
    ]
    patterns += list(rng.integers(0, max_finite_pattern(fmt) + 1, sample))
    return np.unique(np.array(patterns, dtype=np.uint64))


def ties(fmt, patterns):
    """Midpoints between each non-negative finite pattern's value and the
    next representable magnitude, one double ulp either side, both signs.

    The next magnitude above ``maxfinite`` is the overflow threshold
    ``2**(emax+1)``, so the last midpoint is ``maxfinite + ulp/2``; the
    first one (pattern 0) is half the smallest subnormal.
    """
    values = decode_array(patterns, fmt)
    with np.errstate(over="ignore"):  # past maxfinite decodes to inf
        following = decode_array(patterns + np.uint64(1), fmt)
    half_gap = np.where(
        patterns == max_finite_pattern(fmt),
        np.ldexp(1.0, fmt.emax - fmt.man_bits - 1),
        (following - values) / 2,
    )
    middle = values + half_gap
    positive = np.concatenate([
        middle,
        np.nextafter(middle, np.inf),
        np.nextafter(middle, 0.0),
    ])
    return np.concatenate([positive, -positive])


@pytest.mark.parametrize("fmt", EXHAUSTIVE, ids=repr)
def test_every_bit_pattern_and_tie_of_small_formats(fmt):
    every = np.arange(1 << fmt.bits, dtype=np.uint64)
    assert_scalars_identical(decode_array(every, fmt), fmt)
    finite = np.arange(max_finite_pattern(fmt) + 1, dtype=np.uint64)
    assert_scalars_identical(ties(fmt, finite), fmt)


@pytest.mark.parametrize("fmt", SAMPLED, ids=repr)
def test_binade_edges_and_ties_of_wide_formats(fmt):
    patterns = edge_patterns(fmt, np.random.default_rng(fmt.bits))
    assert_scalars_identical(decode_array(patterns, fmt), fmt)
    if fmt != BINARY64:  # binary64 has no double between its values
        assert_scalars_identical(ties(fmt, patterns), fmt)


@pytest.mark.parametrize("fmt", EXHAUSTIVE + SAMPLED, ids=repr)
def test_specials_and_double_subnormals(fmt):
    rng = np.random.default_rng(7)
    subnormal_bits = rng.integers(1, 1 << 52, 64, dtype=np.int64)
    subnormals = subnormal_bits.view(np.float64)
    values = DOUBLE_SPECIALS + list(subnormals) + list(-subnormals)
    assert_scalars_identical(values, fmt)
    assert math.isnan(FAST.quantize(math.nan, fmt))
    assert math.copysign(1.0, FAST.quantize(-0.0, fmt)) == -1.0


def test_native_overflow_threshold_is_exact():
    """binary32/binary16 overflow to infinity exactly at
    ``maxfinite + ulp/2`` (the pack raises there) and not one double
    below it."""
    for fmt in (BINARY32, BINARY16):
        ulp = math.ldexp(1.0, fmt.emax - fmt.man_bits)
        threshold = fmt.max_value + ulp / 2
        below = math.nextafter(threshold, 0.0)
        assert FAST.quantize(threshold, fmt) == math.inf
        assert FAST.quantize(-threshold, fmt) == -math.inf
        assert FAST.quantize(below, fmt) == fmt.max_value
        assert FAST.quantize(-below, fmt) == -fmt.max_value


def test_random_doubles_across_the_exponent_range():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(3000) * 10.0 ** rng.integers(-60, 60, 3000)
    for fmt in EXHAUSTIVE + SAMPLED:
        assert_scalars_identical(values, fmt)


# ----------------------------------------------------------------------
# Kernel emission under both backends
# ----------------------------------------------------------------------
STANDARD = [BINARY8, BINARY16, BINARY16ALT, BINARY32]


def random_binding(app, seed):
    rng = np.random.default_rng(seed)
    return {
        spec.name: STANDARD[rng.integers(len(STANDARD))]
        for spec in app.variables()
    }


def emitted(app, binding, backend, vectorize):
    with use_backend(backend):
        program = app.build_program(binding, 0, vectorize=vectorize)
    arrays = {
        name: program.output(name).view(np.int64).tolist()
        for name in program.arrays
    }
    return arrays, VirtualPlatform().run(program).to_payload()


@pytest.mark.parametrize("name", sorted(APP_CLASSES))
def test_every_app_emits_the_same_kernel_under_both_backends(name):
    app = make_app(name, "tiny")
    # The flows' binary32 baseline (unvectorized) and a seeded random
    # binding (vectorized).
    for binding, vectorize in (
        (app.baseline_binding(), False),
        (random_binding(app, 0), True),
    ):
        fast = emitted(app, binding, "fast", vectorize)
        reference = emitted(app, binding, "reference", vectorize)
        assert fast[0] == reference[0], (name, vectorize)
        assert fast[1] == reference[1], (name, vectorize)

