"""Empirical distance covariance/correlation and Pearson correlation.

Each sample gets one ``CenteredMatrix``, its double-centered distance
matrix, and every statistic is an inner product of two of them, summed
over blocks of rows.  ``rows_that_fit`` is the one byte rule: a sample
whose N x N float64 matrix fits its budget is materialized (centered in
place), otherwise it streams, rebuilding blocks of as many rows as fit
(at most ``STREAM_BLOCK_ROWS``).  ``dcov_sq`` and ``dcor`` give each
sample half the budget.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataQualityError, DegenerateVarianceError
from .samples import Sample, as_sample, check_same_n
from .samples import _euclidean as cdist  # every distance block goes through here

# Bytes that dcov_sq and dcor may spend on N x N matrices or their row blocks.
DEFAULT_MEMORY_BUDGET = 1 << 30  # 1 GiB

# Most rows per block in the streaming path.  Set by the budget and n alone,
# not by scheduling, so results are deterministic.
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

    def _blockwise(self, other: CenteredMatrix, term) -> float:
        """Sum of term(rows of A, same rows of B) over row blocks."""
        total, step = 0.0, min(self.block_rows, other.block_rows)
        for i0 in range(0, self.n, step):
            a = self._rows(i0, i0 + step)
            total += term(a, a if other is self else other._rows(i0, i0 + step))
            del a  # so that at most one block per side is alive at a time
        return total

    def inner(self, other: CenteredMatrix) -> float:
        """Squared distance covariance sum(A * B) / n^2, checked against sum(|A * B|) / n^2."""
        nn = check_same_n(self, other) ** 2
        total = self._blockwise(other, lambda a, b: float(np.vdot(a, b))) / nn
        if total >= 0.0:
            return total
        # only a negative sum needs the scale; row by row it adds O(n) memory
        scale = self._blockwise(
            other, lambda a, b: sum(float(np.abs(ra * rb).sum()) for ra, rb in zip(a, b))
        ) / nn
        if total < -1e-12 * max(scale, 1.0):
            raise DataQualityError(
                f"distance covariance came out significantly negative ({total}); "
                "this indicates corrupted input or an internal error"
            )
        return 0.0


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


def rows_that_fit(n: int, memory_budget: int) -> int:
    """How many rows of an n x n float64 matrix fit in ``memory_budget`` bytes."""
    return memory_budget // (8 * max(n, 1))


def double_center(x, memory_budget: int | None = None) -> CenteredMatrix:
    """The CenteredMatrix of a sample, materialized if it fits ``memory_budget`` bytes.

    With no budget it is always materialized.  Otherwise a matrix that does
    not fit streams in blocks of as many rows as fit (at least one, at most
    ``STREAM_BLOCK_ROWS``).  An existing CenteredMatrix is returned unchanged.
    """
    if isinstance(x, CenteredMatrix):
        return x
    s = as_sample(x)
    rows = s.n if memory_budget is None else rows_that_fit(s.n, memory_budget)
    if rows < s.n:
        return _streaming(s, max(1, min(rows, STREAM_BLOCK_ROWS)))
    d = pairwise_distances(s)
    row = d.mean(axis=1)
    grand = float(row.mean())
    return CenteredMatrix(s, row, grand, entries=_center(d, row, row, grand), block_rows=s.n)


def _streaming(s: Sample, block_rows: int) -> CenteredMatrix:
    row = np.empty(s.n)
    for i0 in range(0, s.n, block_rows):
        row[i0:i0 + block_rows] = cdist(s.data[i0:i0 + block_rows], s.data).mean(axis=1)
    return CenteredMatrix(s, row, float(row.mean()), block_rows=block_rows)


def _inputs(x, y):
    """Validated samples, or CenteredMatrix objects as they are, and their common n."""
    x, y = (v if isinstance(v, CenteredMatrix) else as_sample(v) for v in (x, y))
    return x, y, check_same_n(x, y)


def dcov_sq_materialized(x, y) -> float:
    """Squared empirical distance covariance via explicit centered matrices."""
    return double_center(x).inner(double_center(y))


def dcov_sq_streaming(x, y, block_rows: int = STREAM_BLOCK_ROWS) -> float:
    """Squared empirical distance covariance in O(block * N) memory.

    Pass 1 finds the row means of both distance matrices; pass 2 rebuilds
    centered rows blockwise and accumulates sum(A_kl * B_kl).
    """
    return _streaming(as_sample(x), block_rows).inner(_streaming(as_sample(y), block_rows))


def dcov_sq(x, y, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> float:
    """Squared empirical distance covariance, Eq.-(4)-style.

    Materializes each N x N matrix when it fits in half of ``memory_budget``
    bytes, otherwise streams it in blocks that fit there.
    """
    xs, ys, _ = _inputs(x, y)
    return double_center(xs, memory_budget // 2).inner(double_center(ys, memory_budget // 2))


def dcor(x, y, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> PairStats:
    """Distance correlation plus the underlying covariance/variance terms.

    The degenerate convention applies: if either distance variance is
    zero, the correlation is 0.  Pearson is filled only for scalar pairs
    (and left as None there too if either side is constant).
    """
    xs, ys, n = _inputs(x, y)
    a, b = double_center(xs, memory_budget // 2), double_center(ys, memory_budget // 2)
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
