"""Sample container and validation.

A Sample is an N x d matrix of finite reals, one observation per row.
Scalar samples have d = 1.
"""
from __future__ import annotations

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
        d, e = _deviations(self.data[:, 0])
        return d, int(e)

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


def _deviations(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A scalar sample minus its mean, scaled by 2^-e, and e; of each row of a stack (..., n) alike.

    The scaling is exact: e is the power of two that brings the largest
    deviation into [0.5, 1).  v is scaled below 1 before its mean is taken,
    so a sum beyond float64's range cannot overflow.  A constant sample's
    float mean can miss its value, so its deviations are set to exactly 0,
    with e = 0.  Each row takes the same arithmetic as it would alone.
    """
    f = np.frexp(np.abs(v).max(axis=-1, keepdims=True))[1]
    d = np.ldexp(v, -f)
    d -= d.mean(axis=-1, keepdims=True)
    lo, hi = d.min(axis=-1, keepdims=True), d.max(axis=-1, keepdims=True)
    e = np.frexp(np.maximum(hi, -lo))[1]
    constant = lo == hi
    np.ldexp(d, -e, out=d)
    np.copyto(d, 0.0, where=constant)
    return d, np.where(constant, 0, e + f)[..., 0]


def _even_exponent(data: np.ndarray) -> int:
    """The even power of two that brings data's largest magnitude near 1: squares stay in range."""
    return int(np.frexp(np.abs(data).max())[1]) & ~1


def _euclidean(XA: np.ndarray, XB: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of XA and of XB, in one output buffer.

    Scalar rows take |a - b|.  Otherwise squared differences are added one
    dimension at a time, as scipy's ``cdist`` does, with row-block temporaries.
    """
    if XA.shape[1] == 1:
        out = np.subtract.outer(XA[:, 0], XB[:, 0])
        return np.abs(out, out=out)
    # exact scaling by an even power of two keeps the squares from under- or overflowing
    e = max(_even_exponent(XA), _even_exponent(XB))
    XA, XB = np.ldexp(XA, -e), np.ldexp(XB, -e)
    out = np.subtract.outer(XA[:, 0], XB[:, 0])
    np.multiply(out, out, out=out)
    for i0 in range(0, len(XA), _KERNEL_ROWS):
        rows = slice(i0, i0 + _KERNEL_ROWS)
        for k in range(1, XA.shape[1]):
            diff = np.subtract.outer(XA[rows, k], XB[:, k])
            out[rows] += np.multiply(diff, diff, out=diff)
    return np.ldexp(np.sqrt(out, out=out), e, out=out)


def _columns(data: np.ndarray) -> tuple[np.ndarray, int]:
    """data's columns (d, n) times 2^-e, and e: ``_even_exponent``, or 0 for a scalar sample."""
    e = _even_exponent(data) if data.shape[1] > 1 else 0
    return (np.ldexp(data, -e) if e else data).T, e


def _joined(z: np.ndarray) -> np.ndarray:
    """z joined to itself along its last axis, less the last entry: (..., 2n - 1)."""
    return np.concatenate((z, z[..., :-1]), axis=-1)


def _window(joined: np.ndarray, s0: int, s1: int) -> np.ndarray:
    """[..., s - s0, k] = z[..., (k + s) % n] for s0 <= s < s1, z ``_joined``: an unchecked sliding window."""
    n = (joined.shape[-1] + 1) // 2
    *lead, step = joined.strides
    return np.ndarray((*joined.shape[:-1], s1 - s0, n), joined.dtype, joined, s0 * step, (*lead, step, step))


def _joined_distances(joined: np.ndarray, s0: int, s1: int, out=None, tmp=None) -> np.ndarray:
    """|z_((k+s) mod n) - z_k| for s0 <= s < s1, of columns z (d, n) ``_joined``: the one distance kernel.

    ``out`` (at least s1 - s0 rows of n) takes them in its first rows.  A scalar z is copied from
    the view into ``out`` and subtracted there, faster than from the view.  A multivariate z adds
    its squared differences a dimension at a time through ``tmp``, as many shifts as it has rows
    (16 if made here, on top of a block of each side).
    """
    dim, n = joined.shape[0], (joined.shape[1] + 1) // 2
    z, shifted = joined[:, :n], _window(joined, s0, s1)  # shifted[j, s, k] = z_j(k+s)
    out = np.empty((s1 - s0, n)) if out is None else out[:s1 - s0]
    if dim == 1:
        np.copyto(out, shifted[0])
        return np.abs(np.subtract(out, z[0], out=out), out=out)
    np.subtract(shifted[0], z[0], out=out)
    np.multiply(out, out, out=out)
    tmp = np.empty((min(_KERNEL_ROWS // 4, max(s1 - s0, 1)), n)) if tmp is None else tmp
    for i0 in range(0, s1 - s0, len(tmp)):
        rows = slice(i0, i0 + len(tmp))
        diff = tmp[:len(out[rows])]
        for j in range(1, dim):
            np.subtract(shifted[j, rows], z[j], out=diff)
            out[rows] += np.multiply(diff, diff, out=diff)
    return np.sqrt(out, out=out)


def _shift_distances(data: np.ndarray, s0: int, s1: int, out=None, tmp=None) -> np.ndarray:
    """|z_((k+s) mod n) - z_k| for s0 <= s < s1: ``_joined_distances`` of data's ``_columns``, times 2^e.

    Entry [s - s0, k] equals ``_euclidean(data, data)[k, (k + s) % n]`` bit for bit.
    """
    z, e = _columns(data)
    d = _joined_distances(_joined(z), s0, s1, out, tmp)
    return np.ldexp(d, e, out=d) if e else d
