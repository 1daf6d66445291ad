"""Sample container and validation.

A Sample is an N x d matrix of finite reals, one observation per row.
Scalar samples have d = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataQualityError, DimensionMismatchError

_KERNEL_ROWS = 64  # rows per temporary block of the multi-dimensional distance kernel


@dataclass(frozen=True)
class Sample:
    data: np.ndarray  # shape (n, dim), float64, all finite

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def is_scalar(self) -> bool:
        return self.dim == 1

    @cached_property
    def deviations(self) -> tuple[np.ndarray, int]:
        """A scalar sample's ``_deviations``, computed once per Sample."""
        return _deviations(self.data[:, 0])

    @cached_property
    def deviation_norm(self) -> float:
        """The Euclidean norm of the scaled deviations."""
        d = self.deviations[0]
        return float(np.sqrt(np.sum(d * d)))


def as_sample(x) -> Sample:
    """Coerce array-like input (1-D or 2-D) to a validated Sample.

    1-D input is treated as a scalar sample (column vector).
    """
    if isinstance(x, Sample):
        return x
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DataQualityError(f"sample must be 1-D or 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DataQualityError(f"sample must have n >= 1 and dim >= 1, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        bad_row = int(np.argwhere(~finite)[0, 0])
        raise DataQualityError(f"non-finite value in sample at row {bad_row}")
    return Sample(arr)


def check_same_n(x: Sample, y: Sample) -> int:
    if x.n != y.n:
        raise DimensionMismatchError(
            f"samples must have equal observation counts, got {x.n} and {y.n}"
        )
    return x.n


def _deviations(v: np.ndarray) -> tuple[np.ndarray, int]:
    """A scalar sample minus its mean, scaled by 2^-e, and e.

    The scaling is exact: e is the power of two that brings the largest
    deviation into [0.5, 1).  A constant sample's float mean can miss its
    value, so its deviations are set to exactly 0, with e = 0.
    """
    d = v - v.mean()
    lo, hi = d.min(), d.max()
    if lo == hi:
        return np.zeros_like(d), 0
    e = math.frexp(max(hi, -lo))[1]
    return np.ldexp(d, -e), e


def _euclidean(XA: np.ndarray, XB: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of XA and of XB, in one output buffer.

    Scalar rows take |a - b|.  Otherwise squared differences are added one
    dimension at a time, as scipy's ``cdist`` does, with row-block temporaries.
    """
    if XA.shape[1] == 1:
        out = np.subtract.outer(XA[:, 0], XB[:, 0])
        return np.abs(out, out=out)
    # exact scaling by an even power of two keeps the squares from under- or overflowing
    e = int(np.frexp(max(np.abs(XA).max(), np.abs(XB).max()))[1]) & ~1
    XA, XB = np.ldexp(XA, -e), np.ldexp(XB, -e)
    out = np.subtract.outer(XA[:, 0], XB[:, 0])
    np.multiply(out, out, out=out)
    for i0 in range(0, len(XA), _KERNEL_ROWS):
        rows = slice(i0, i0 + _KERNEL_ROWS)
        for k in range(1, XA.shape[1]):
            diff = np.subtract.outer(XA[rows, k], XB[:, k])
            out[rows] += np.multiply(diff, diff, out=diff)
    return np.ldexp(np.sqrt(out, out=out), e, out=out)
