"""Math helpers on FlexFloat values and arrays.

The transprecision FPU implements only ADD/SUB/MUL and conversions
(paper §IV); anything else (square roots, exponentials, division) runs on
the core as binary32 library code.  These helpers keep emulation
convenient -- they evaluate in double precision and sanitize the result --
while recording the operation under its own name so the analysis can
price it separately from slice arithmetic.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from . import ops
from .array import FlexFloatArray
from .stats import record_op
from .value import FlexFloat

__all__ = ["sqrt", "exp", "log", "fabs", "fmin", "fmax", "clamp", "fma"]

FF = Union[FlexFloat, FlexFloatArray]


def _unary(x: FF, name: str, scalar_fn) -> FF:
    if isinstance(x, FlexFloatArray):
        record_op(x.fmt, name, x.size)
        # Pass the raw payload, not to_numpy(): the ufunc produces a
        # fresh buffer (the input is never written), and non-concrete
        # backend payloads must reach the backend un-collapsed.
        return FlexFloatArray._wrap(
            ops.unary_array(name, x._data, x.fmt), x.fmt
        )
    record_op(x.fmt, name)
    if isinstance(x._value, np.ndarray):
        # One value per batched candidate: the array kernel, with the
        # scalar path's domain error for log(0).
        values = x._value
        if name == "log":
            values = np.where(values == 0.0, np.nan, values)
        return FlexFloat._from_raw(
            ops.unary_array(name, values, x.fmt), x.fmt
        )
    try:
        raw = scalar_fn(float(x))
    except ValueError:
        raw = math.nan
    except OverflowError:
        raw = math.inf
    return FlexFloat(raw, x.fmt)


def sqrt(x: FF) -> FF:
    """Square root, sanitized to the operand's format."""
    return _unary(x, "sqrt", math.sqrt)


def exp(x: FF) -> FF:
    """Exponential, sanitized to the operand's format."""
    return _unary(x, "exp", math.exp)


def log(x: FF) -> FF:
    """Natural logarithm, sanitized to the operand's format."""
    return _unary(x, "log", math.log)


def fabs(x: FF) -> FF:
    """Absolute value (free in hardware: sign-bit clear; not counted)."""
    return abs(x)


def fmin(a: FlexFloat, b: FlexFloat) -> FlexFloat:
    """Minimum of two same-format values (a comparison, not an FPU op)."""
    return a if a <= b else b


def fmax(a: FlexFloat, b: FlexFloat) -> FlexFloat:
    """Maximum of two same-format values."""
    return a if a >= b else b


def clamp(x: FlexFloat, low: float, high: float) -> FlexFloat:
    """Clamp ``x`` into ``[low, high]`` using format-sanitized bounds."""
    if x < low:
        return FlexFloat(low, x.fmt)
    if x > high:
        return FlexFloat(high, x.fmt)
    return x


def fma(a: FlexFloat, b: FlexFloat, c: FlexFloat) -> FlexFloat:
    """Fused multiply-add ``a*b + c`` with a *single* rounding.

    An extension beyond the paper's ADD/SUB/MUL unit (its successors add
    fused operations).  Exactness argument: all supported formats carry
    at most 24 significant bits, so the product of two operands has at
    most 48 -- exactly representable in the binary64 backing type; the
    final ``math.fma``-equivalent sum is then rounded once into the
    operand format.
    """
    if a.fmt != b.fmt or a.fmt != c.fmt:
        from .value import FormatMismatchError

        raise FormatMismatchError(a.fmt, b.fmt if a.fmt == c.fmt else c.fmt,
                                  "fma")
    if a.fmt.man_bits > 26:
        raise ValueError(
            "fma is exact only for formats with at most 26 mantissa bits"
        )
    record_op(a.fmt, "fma")
    exact_product = float(a) * float(b)  # exact: <= 48 significand bits
    return FlexFloat(exact_product + float(c), a.fmt)
