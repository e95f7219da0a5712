"""The candidate-batch backend: one program run, many format bindings.

The tuner scores several candidate bindings of one program in a single
run by binding each variable to a :class:`~repro.core.formats.FormatBatch`
(one format per candidate).  Under :class:`FormatBatchBackend` every
payload carries the candidate axis as one trailing axis of width
``width``, the same seam the abstract-interpretation backend uses for its
center/radius pairs, so the emulation types run unchanged:

* logical data entering the emulated world (constructors, literal
  operands, ``setitem``) is broadcast across the candidate axis;
* quantization uses per-candidate ``man_bits``, ``qmin`` and
  ``max_value`` arrays in the fast backend's scale--``rint``--unscale
  kernel, which is exact round-to-nearest-even for every format, so each
  candidate's column is bit-identical to a serial run of its binding;
* sums keep the balanced-tree rounding of :meth:`Backend.tree_sum`,
  level by level, along the logical axis.

The backend is deliberately unregistered: the tuner activates an
instance, in an execution context of its own, for one batched run only.
"""

from __future__ import annotations

import math

import numpy as np

from .backend import FastNumpyBackend, _FormatParams
from .formats import FormatBatch

__all__ = ["FormatBatchBackend"]


class _BatchParams:
    """Per-candidate quantization constants of one :class:`FormatBatch`."""

    __slots__ = ("man_bits", "qmin", "max_value")

    def __init__(self, batch: FormatBatch) -> None:
        formats = batch.formats
        self.man_bits = np.array([f.man_bits for f in formats], np.int64)
        self.qmin = np.array(
            [f.emin - f.man_bits for f in formats], np.int64
        )
        self.max_value = np.array([f.max_value for f in formats])


class FormatBatchBackend(FastNumpyBackend):
    """Fast-backend arithmetic over a trailing candidate axis."""

    name = "fast-batch"
    payload_trailing_dims = 1

    def __init__(self, width: int) -> None:
        super().__init__()
        self.width = width

    def params_for(self, fmt):
        try:
            return self._params[fmt]
        except KeyError:
            if isinstance(fmt, FormatBatch):
                params = _BatchParams(fmt)
            else:
                params = _FormatParams(fmt)
            self._params[fmt] = params
            return params

    def _sanitize(self, a: np.ndarray, p, owned: bool) -> np.ndarray:
        if isinstance(p, _FormatParams):
            return super()._sanitize(a, p, owned)
        return self._generic(a, p)

    # -- entry doors: logical data gains the candidate axis --------------
    def quantize(self, x, fmt):
        if isinstance(x, np.ndarray):  # a scalar payload: (width,)
            return self.cast_array(x, fmt)
        return self.quantize_array(x, fmt)

    def quantize_array(self, values, fmt) -> np.ndarray:
        a = np.asarray(values, dtype=np.float64)
        a = np.broadcast_to(a[..., None], a.shape + (self.width,))
        with np.errstate(invalid="ignore", over="ignore"):
            return self._sanitize(a, self.params_for(fmt), owned=False)

    def cast_array(self, values, fmt) -> np.ndarray:
        with np.errstate(invalid="ignore", over="ignore"):
            return self._sanitize(values, self.params_for(fmt), owned=False)

    def literal(self, payload, fmt):
        return self.cast_array(payload, fmt)

    # -- scalar arithmetic runs on (width,) payloads ----------------------
    def binary(self, op: str, a, b, fmt):
        return self.binary_array(op, a, b, fmt)

    def collapse(self, value, fmt) -> float:
        raise TypeError(
            "a batched run holds one value per candidate; there is no "
            "single double to collapse to"
        )

    # -- structural hooks --------------------------------------------------
    def item_payload(self, picked, fmt):
        if isinstance(picked, np.ndarray) and picked.ndim == 1:
            # Only the candidate axis is left: a logical scalar pick.
            return picked.copy()
        return None

    def array_minmax(self, data: np.ndarray, fmt, kind: str):
        flat = data.reshape(-1, data.shape[-1])
        return flat.min(axis=0) if kind == "min" else flat.max(axis=0)

    def sum_reduce(self, data: np.ndarray, axis, fmt):
        width = data.shape[-1]
        if axis is None:
            work = data.reshape(1, -1, width)
            lead = None
        else:
            if axis < 0:
                axis += data.ndim - 1
            moved = np.moveaxis(data, axis, -2)
            lead = moved.shape[:-2]
            work = moved.reshape(
                math.prod(lead), moved.shape[-2], width
            )
        rows, n, _ = work.shape
        if n == 0:
            work = np.zeros((rows, 1, width))
        # The rounding pattern of Backend.tree_sum, one level at a time.
        while work.shape[1] > 1:
            if work.shape[1] % 2:
                carry = work[:, -1:]
                pairs = work[:, :-1]
            else:
                carry = None
                pairs = work
            summed = self.binary_array(
                "add", pairs[:, 0::2], pairs[:, 1::2], fmt
            )
            work = (
                summed
                if carry is None
                else np.concatenate([summed, carry], axis=1)
            )
        reduced = work[:, 0]
        n_adds = max(n - 1, 0) * rows
        if lead is None:
            return reduced[0].copy(), n_adds
        return np.ascontiguousarray(reduced.reshape(lead + (width,))), n_adds
