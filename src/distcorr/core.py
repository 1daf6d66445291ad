"""Empirical distance covariance/correlation and Pearson correlation.

Each sample gets one ``CenteredMatrix``, its double-centered distance
matrix, and every statistic is an inner product of two of them.  The
matrix is either materialized (N x N, centered in place) or streaming
(row means only; blocks of rows are rebuilt on demand in O(block * N)
memory).  ``dcov_sq`` and ``dcor`` choose by a memory budget that bounds
every N x N array the materialized path keeps alive at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataQualityError, DegenerateVarianceError
from .samples import Sample, as_sample, check_same_n
from .samples import _euclidean as cdist  # every distance block goes through here

# Auto-dispatch threshold: materialize N x N matrices only if they fit.
DEFAULT_MEMORY_BUDGET = 1 << 30  # 1 GiB

# Rows per block in the streaming path.  Fixed by configuration, not by
# scheduling, so results are deterministic.
STREAM_BLOCK_ROWS = 512


@dataclass(frozen=True, eq=False)
class CenteredMatrix:
    """A_kl = a_kl - m_k - m_l + m for one sample's distance matrix a.

    m_k are a's row means (its column means too, as a is symmetric) and m
    is their mean.  ``entries`` is A when materialized, None when streaming.
    """

    sample: Sample
    row_mean: np.ndarray
    grand_mean: float
    entries: np.ndarray | None = None
    block_rows: int = STREAM_BLOCK_ROWS

    @property
    def n(self) -> int:
        return self.sample.n

    @cached_property
    def dvar(self) -> float:
        """Distance variance dVar: the square root of the inner product with itself."""
        return float(np.sqrt(self.inner(self)))

    def _rows(self, i0: int, i1: int) -> np.ndarray:
        if self.entries is not None:
            return self.entries[i0:i1]
        d = cdist(self.sample.data[i0:i1], self.sample.data)
        return _center(d, self.row_mean[i0:i1], self.row_mean, self.grand_mean)

    def inner(self, other: CenteredMatrix) -> float:
        """Squared distance covariance sum(A * B) / n^2, checked against sum(|A * B|) / n^2."""
        n = check_same_n(self, other)
        if self.entries is not None and other.entries is not None:
            total = float(np.vdot(self.entries, other.entries))
            if total >= 0.0:
                return total / (n * n)
            # only a negative sum needs the scale; row by row it takes O(n) memory
            scale = sum(float(np.abs(self.entries[k] * other.entries[k]).sum()) for k in range(n))
            return _clamp_nonnegative(total / (n * n), scale / (n * n))
        total = scale = 0.0
        for i0 in range(0, n, self.block_rows):
            prod = self._rows(i0, i0 + self.block_rows) * other._rows(i0, i0 + self.block_rows)
            total += float(prod.sum())
            scale += float(np.abs(prod, out=prod).sum())
        return _clamp_nonnegative(total / (n * n), scale / (n * n))


@dataclass(frozen=True)
class PairStats:
    """Computed statistics for one (x, y) pair."""

    dcov_sq: float
    dvar_x: float
    dvar_y: float
    dcor: float
    pearson: float | None  # only when both samples are scalar
    n: int


def pairwise_distances(x) -> np.ndarray:
    """Euclidean distance matrix of a sample's rows: symmetric, zero diagonal."""
    s = as_sample(x)
    return cdist(s.data, s.data)


def _center(d: np.ndarray, row_block: np.ndarray, row: np.ndarray, grand: float) -> np.ndarray:
    """Center rows of a distance matrix in place, given their means and all row means."""
    d -= row_block[:, None]
    d -= row[None, :]
    d += grand
    return d


def double_center(x, materialize: bool = True, block_rows: int = STREAM_BLOCK_ROWS) -> CenteredMatrix:
    """The CenteredMatrix of a sample, in the materialized or the streaming form.

    An existing CenteredMatrix is returned as it is, unless it is streaming
    and the materialized form is asked for.
    """
    if isinstance(x, CenteredMatrix):
        if x.entries is not None or not materialize:
            return x
        x = x.sample
    s = as_sample(x)
    if materialize:
        d = pairwise_distances(s)
        row = d.mean(axis=1)
        grand = float(row.mean())
        return CenteredMatrix(s, row, grand, entries=_center(d, row, row, grand))
    row = np.empty(s.n)
    for i0 in range(0, s.n, block_rows):
        row[i0:i0 + block_rows] = cdist(s.data[i0:i0 + block_rows], s.data).mean(axis=1)
    return CenteredMatrix(s, row, float(row.mean()), block_rows=block_rows)


def _clamp_nonnegative(val: float, scale: float) -> float:
    if val < -1e-12 * max(scale, 1.0):
        raise DataQualityError(
            f"distance covariance came out significantly negative ({val}); "
            "this indicates corrupted input or an internal error"
        )
    return max(val, 0.0)


def _inputs(x, y):
    """Validated samples, or CenteredMatrix objects as they are, and their common n."""
    x, y = (v if isinstance(v, CenteredMatrix) else as_sample(v) for v in (x, y))
    return x, y, check_same_n(x, y)


def _materializes(n: int, memory_budget: int) -> bool:
    # The materialized path keeps two n x n float64 matrices alive and nothing else
    # that size: each is built and centered in place; inner products make none.
    return 2 * 8 * n * n <= memory_budget


def dcov_sq_materialized(x, y) -> float:
    """Squared empirical distance covariance via explicit centered matrices."""
    return double_center(x).inner(double_center(y))


def dcov_sq_streaming(x, y, block_rows: int = STREAM_BLOCK_ROWS) -> float:
    """Squared empirical distance covariance in O(block * N) memory.

    Pass 1 finds the row means of both distance matrices; pass 2 rebuilds
    centered rows blockwise and accumulates sum(A_kl * B_kl).
    """
    return double_center(x, False, block_rows).inner(double_center(y, False, block_rows))


def dcov_sq(x, y, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> float:
    """Squared empirical distance covariance, Eq.-(4)-style.

    Materializes the N x N matrices when both fit in ``memory_budget``
    bytes, otherwise falls back to the streaming path.
    """
    xs, ys, n = _inputs(x, y)
    if _materializes(n, memory_budget):
        return dcov_sq_materialized(xs, ys)
    return dcov_sq_streaming(xs, ys)


def dcor(x, y, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> PairStats:
    """Distance correlation plus the underlying covariance/variance terms.

    The degenerate convention applies: if either distance variance is
    zero, the correlation is 0.  Pearson is filled only for scalar pairs
    (and left as None there too if either side is constant).
    """
    xs, ys, n = _inputs(x, y)
    keep = _materializes(n, memory_budget)
    a, b = double_center(xs, keep), double_center(ys, keep)
    vxy = a.inner(b)
    dvar_x, dvar_y = a.dvar, b.dvar
    if dvar_x <= 0.0 or dvar_y <= 0.0:
        r = 0.0
    else:
        r = float(np.sqrt(vxy) / np.sqrt(dvar_x * dvar_y))
        if r > 1.0 + 1e-12:
            raise DataQualityError(f"distance correlation exceeded 1 by too much: {r}")
        r = min(r, 1.0)
    p = None
    if a.sample.is_scalar and b.sample.is_scalar:
        try:
            p = pearson(a.sample, b.sample)
        except DegenerateVarianceError:  # a constant sample, or n < 2
            pass
    return PairStats(dcov_sq=vxy, dvar_x=dvar_x, dvar_y=dvar_y, dcor=r, pearson=p, n=n)


def pearson(x, y) -> float:
    """Empirical Pearson correlation of two scalar samples.

    Raises DegenerateVarianceError for constant input: the formula
    divides by zero there and no convention is adopted (unlike dcor,
    which has an explicit degenerate-case rule of 0).
    """
    xs, ys = as_sample(x), as_sample(y)
    n = check_same_n(xs, ys)
    if not (xs.is_scalar and ys.is_scalar):
        raise DataQualityError("pearson requires scalar samples (dim = 1)")
    if n < 2:
        raise DegenerateVarianceError("pearson requires at least 2 observations")
    # scaled so that the squares of a tiny nonzero spread cannot underflow to 0
    xd = _unit_scaled(xs.data[:, 0] - xs.data[:, 0].mean())
    yd = _unit_scaled(ys.data[:, 0] - ys.data[:, 0].mean())
    sx = float(np.sqrt(np.sum(xd * xd)))
    sy = float(np.sqrt(np.sum(yd * yd)))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateVarianceError("pearson is undefined for constant samples")
    r = float(np.sum(xd * yd)) / (sx * sy)
    return float(np.clip(r, -1.0, 1.0))


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    """v scaled, exactly, by the power of two that brings max |v| into [0.5, 1)."""
    return np.ldexp(v, -np.frexp(np.abs(v).max())[1])
