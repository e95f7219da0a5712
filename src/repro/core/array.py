"""FlexFloatArray: vectorized FlexFloat emulation over numpy.

The paper's C++ library is scalar; precision tuning, however, runs the
application hundreds of times, so this reproduction adds an array type
with identical semantics to make tuning runs fast:

* the payload is a float64 ndarray that is *always* sanitized to the
  array's format (every element exactly representable);
* elementwise operations require matching formats, exactly like
  :class:`repro.core.value.FlexFloat`; casts are explicit;
* reductions (:meth:`sum`, :meth:`dot`) quantize after **every** addition
  level using a balanced binary tree, emulating the rounding pattern of
  a vectorized/unrolled accumulator rather than computing in float64 and
  rounding once -- the difference is exactly the rounding-error structure
  the precision tuner must observe;
* all operations report elementwise counts to :mod:`repro.core.stats`
  and execute through :mod:`repro.core.ops`, i.e. on the active
  session's backend (the fast backend fuses the elementwise operator
  with quantize-on-write).
"""

from __future__ import annotations

import math
from typing import Iterator, Union

import numpy as np

from . import ops
from .formats import FPFormat
from .stats import record_cast, record_op
from .value import FlexFloat, FormatMismatchError

__all__ = ["FlexFloatArray"]

Operand = Union["FlexFloatArray", FlexFloat, int, float, np.ndarray]


class FlexFloatArray:
    """An n-dimensional array of values sanitized to one (e, m) format."""

    __slots__ = ("_fmt", "_data")

    def __init__(self, values, fmt: FPFormat) -> None:
        if isinstance(values, FlexFloatArray):
            # A conversion constructor is a cast: the payload is already
            # backend-sanitized, so route through the cast hook (which
            # for concrete backends is plain re-quantization).
            record_cast(values._fmt, fmt, values.size)
            data = ops.cast_array(values._data, fmt)
        elif isinstance(values, FlexFloat):
            record_cast(values.fmt, fmt)
            data = ops.quantize_array(
                np.asarray(float(values), dtype=np.float64), fmt
            )
        else:
            data = ops.quantize_array(
                np.asarray(values, dtype=np.float64), fmt
            )
        object.__setattr__(self, "_fmt", fmt)
        object.__setattr__(self, "_data", data)

    @classmethod
    def _wrap(cls, data: np.ndarray, fmt: FPFormat) -> "FlexFloatArray":
        """Build from an already-sanitized payload without re-quantizing."""
        out = object.__new__(cls)
        object.__setattr__(out, "_fmt", fmt)
        object.__setattr__(out, "_data", data)
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fmt(self) -> FPFormat:
        return self._fmt

    @property
    def shape(self) -> tuple[int, ...]:
        off = ops.payload_offset()
        if off:
            return self._data.shape[: self._data.ndim - off]
        return self._data.shape

    @property
    def size(self) -> int:
        off = ops.payload_offset()
        if off:
            return int(math.prod(self._data.shape[: self._data.ndim - off]))
        return int(self._data.size)

    @property
    def ndim(self) -> int:
        return self._data.ndim - ops.payload_offset()

    def __len__(self) -> int:
        shape = self.shape
        if not shape:
            raise TypeError("len() of a 0-d FlexFloatArray")
        return shape[0]

    def to_numpy(self) -> np.ndarray:
        """Explicit conversion to a plain float64 array (copy)."""
        return ops.collapse_array(self._data, self._fmt)

    def as_literal(self, fmt: FPFormat) -> "FlexFloatArray":
        """These values reloaded as literal data of ``fmt``.

        Like ``FlexFloatArray(self.to_numpy(), fmt)`` with no operation
        or cast counted, but the values stay in the active backend's
        payload layout (a batched run keeps its candidate axis).
        """
        return FlexFloatArray._wrap(ops.literal(self._data, fmt), fmt)

    def cast(self, fmt: FPFormat) -> "FlexFloatArray":
        """Explicit elementwise format conversion (counted as casts)."""
        record_cast(self._fmt, fmt, self.size)
        return FlexFloatArray._wrap(ops.cast_array(self._data, fmt), fmt)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def __getitem__(self, index) -> Union[FlexFloat, "FlexFloatArray"]:
        picked = self._data[index]
        special = ops.item_payload(picked, self._fmt)
        if special is not None:
            return FlexFloat._from_raw(special, self._fmt)
        if np.isscalar(picked) or picked.ndim == 0:
            return FlexFloat(float(picked), self._fmt)
        return FlexFloatArray._wrap(np.ascontiguousarray(picked), self._fmt)

    def __setitem__(self, index, value) -> None:
        if isinstance(value, FlexFloatArray):
            if value._fmt != self._fmt:
                raise FormatMismatchError(self._fmt, value._fmt, "setitem")
            self._data[index] = value._data
        elif isinstance(value, FlexFloat):
            if value.fmt != self._fmt:
                raise FormatMismatchError(self._fmt, value.fmt, "setitem")
            payload = value._value
            if type(payload) is float:
                self._data[index] = payload
            else:
                self._data[index] = np.asarray(payload)
        else:
            self._data[index] = ops.quantize_array(
                np.asarray(value, dtype=np.float64), self._fmt
            )

    def __iter__(self) -> Iterator[Union[FlexFloat, "FlexFloatArray"]]:
        for i in range(len(self)):
            yield self[i]

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: Operand, op: str):
        if isinstance(other, FlexFloatArray):
            if other._fmt != self._fmt:
                raise FormatMismatchError(self._fmt, other._fmt, op)
            return other._data
        if isinstance(other, FlexFloat):
            if other.fmt != self._fmt:
                raise FormatMismatchError(self._fmt, other.fmt, op)
            # The backing payload, not float(other): identical for
            # concrete backends, and abstract payloads survive intact.
            return other._value
        if isinstance(other, (int, float)):
            return ops.quantize_array(
                np.asarray(float(other), dtype=np.float64), self._fmt
            )
        if isinstance(other, np.ndarray):
            return ops.quantize_array(other.astype(np.float64), self._fmt)
        return NotImplemented

    def _binary(
        self, other: Operand, op: str, swap: bool = False
    ) -> "FlexFloatArray":
        rhs = self._coerce(other, op)
        if rhs is NotImplemented:
            return NotImplemented
        off = ops.payload_offset()
        rhs_shape: tuple[int, ...] = ()
        if isinstance(rhs, np.ndarray):
            rhs_shape = rhs.shape[: rhs.ndim - off] if off else rhs.shape
        record_op(
            self._fmt,
            op,
            int(math.prod(np.broadcast_shapes(self.shape, rhs_shape))),
        )
        a, b = (rhs, self._data) if swap else (self._data, rhs)
        return FlexFloatArray._wrap(
            ops.binary_array(op, a, b, self._fmt), self._fmt
        )

    def __add__(self, other):
        return self._binary(other, "add")

    def __radd__(self, other):
        return self._binary(other, "add", swap=True)

    def __sub__(self, other):
        return self._binary(other, "sub")

    def __rsub__(self, other):
        return self._binary(other, "sub", swap=True)

    def __mul__(self, other):
        return self._binary(other, "mul")

    def __rmul__(self, other):
        return self._binary(other, "mul", swap=True)

    def __truediv__(self, other):
        return self._binary(other, "div")

    def __rtruediv__(self, other):
        return self._binary(other, "div", swap=True)

    def __neg__(self) -> "FlexFloatArray":
        return FlexFloatArray._wrap(
            ops.neg_array(self._data, self._fmt), self._fmt
        )

    def __abs__(self) -> "FlexFloatArray":
        return FlexFloatArray._wrap(np.abs(self._data), self._fmt)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | None = None):
        """Tree-reduction sum with per-level sanitization.

        Emulates a vectorized accumulator: additions at each level of a
        balanced binary tree, each result rounded to the array format.
        ``n - 1`` additions per reduced lane are recorded, the same count
        a hardware loop would execute.  With ``axis``, reduces along that
        axis and returns a :class:`FlexFloatArray`; without, reduces
        everything to one :class:`FlexFloat`.
        """
        special = ops.sum_reduce(self._data, axis, self._fmt)
        if special is not None:
            payload, n_adds = special
            record_op(self._fmt, "add", n_adds)
            if axis is None:
                return FlexFloat._from_raw(payload, self._fmt)
            return FlexFloatArray._wrap(payload, self._fmt)
        if axis is None:
            work = self._data.reshape(1, -1)
        else:
            work = np.moveaxis(self._data, axis, -1)
            lead = work.shape[:-1]
            work = work.reshape(math.prod(lead), work.shape[-1])
        n = work.shape[1]
        if n == 0:
            reduced = np.zeros(work.shape[0])
        else:
            record_op(self._fmt, "add", (n - 1) * work.shape[0])
            reduced = ops.tree_sum(work, self._fmt)
        if axis is None:
            return FlexFloat(float(reduced[0]), self._fmt)
        return FlexFloatArray._wrap(
            np.ascontiguousarray(reduced.reshape(lead)), self._fmt
        )

    def dot(self, other: "FlexFloatArray") -> FlexFloat:
        """Elementwise product followed by the tree-reduction sum."""
        return (self * other).sum()

    def take(self, indices) -> "FlexFloatArray":
        """Gather elements (pure addressing: no FP operations counted)."""
        picked = self._data[np.asarray(indices)]
        return FlexFloatArray._wrap(np.ascontiguousarray(picked), self._fmt)

    def min(self) -> FlexFloat:
        record_op(self._fmt, "min", max(self.size - 1, 0))
        payload = ops.array_minmax(self._data, self._fmt, "min")
        if type(payload) is float:
            return FlexFloat(payload, self._fmt)
        return FlexFloat._from_raw(payload, self._fmt)

    def max(self) -> FlexFloat:
        record_op(self._fmt, "max", max(self.size - 1, 0))
        payload = ops.array_minmax(self._data, self._fmt, "max")
        if type(payload) is float:
            return FlexFloat(payload, self._fmt)
        return FlexFloat._from_raw(payload, self._fmt)

    # ------------------------------------------------------------------
    # Shape utilities (no arithmetic, no stats)
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "FlexFloatArray":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        off = ops.payload_offset()
        if off:
            # Reshape the logical dims only; trailing payload axes ride
            # along untouched (numpy resolves -1 against the logical
            # element count because the payload axes stay explicit).
            data = self._data
            tail = data.shape[data.ndim - off:]
            return FlexFloatArray._wrap(
                data.reshape(tuple(shape) + tail), self._fmt
            )
        return FlexFloatArray._wrap(self._data.reshape(shape), self._fmt)

    def copy(self) -> "FlexFloatArray":
        return FlexFloatArray._wrap(self._data.copy(), self._fmt)

    def transpose(self) -> "FlexFloatArray":
        off = ops.payload_offset()
        if off:
            data = self._data
            lead = data.ndim - off
            axes = tuple(reversed(range(lead))) + tuple(
                range(lead, data.ndim)
            )
            return FlexFloatArray._wrap(
                np.ascontiguousarray(data.transpose(axes)), self._fmt
            )
        return FlexFloatArray._wrap(
            np.ascontiguousarray(self._data.T), self._fmt
        )

    @property
    def T(self) -> "FlexFloatArray":
        return self.transpose()

    def __repr__(self) -> str:
        return f"FlexFloatArray({self._fmt!r}, shape={self.shape})"
