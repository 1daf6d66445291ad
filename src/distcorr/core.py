"""Empirical distance covariance/correlation and Pearson correlation.

Each sample gets one ``CenteredMatrix``, its double-centered distance
matrix, and every statistic is an inner product of two of them, summed
over blocks of rows.  ``rows_that_fit`` is the one byte rule: a sample
whose N x N float64 matrix fits its budget is materialized (centered in
place).  Otherwise a scalar sample takes the sorted form, whose inner
product with another sorted form costs O(N log N) (``cross_term``), and
a multivariate one streams, rebuilding blocks of as many rows as fit
(at most ``STREAM_BLOCK_ROWS``).  ``dcov_sq`` and ``dcor`` give each
sample half the budget.  ``dcov_sq``, ``dcor``, the permutation test and
the screen center each sample through ``_scaled``: scaled by a power of
two so that no spread under- or overflows, and scaled back in results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    is their mean.  ``entries`` is A when materialized, None otherwise.
    ``order`` sorts a scalar sample in the sorted form, and is None in the
    other two.  Rows that are not materialized are rebuilt from the sample
    and the row means.  ``sample`` is the data times 2^-scale, so ``dvar``
    and ``inner`` are 2^-scale and 2^-(scale + other.scale) times the data's.
    """

    sample: Sample
    row_mean: np.ndarray
    grand_mean: float
    entries: np.ndarray | None = None
    block_rows: int = STREAM_BLOCK_ROWS
    order: np.ndarray | None = None
    scale: int = 0

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

    def _sorted_terms(self, other: CenteredMatrix) -> tuple[float, float]:
        """sum(A * B) / n^2 of two sorted forms, and the sum of its three terms' magnitudes.

        sum(A * B) = C - 2 sum_k a_k. b_k. / n + a.. b.. / n^2 with C =
        sum |x_k - x_l| |y_k - y_l|.  The terms are summed in the units of
        the scaled deviations and scaled back at the end.
        """
        (x, ex), (y, ey) = self.sample.deviations, other.sample.deviations
        n = self.n
        terms = (
            cross_term(x, y, self.order, other.order) / (n * n),
            -2.0 * float(np.dot(np.ldexp(self.row_mean, -ex), np.ldexp(other.row_mean, -ey))) / n,
            math.ldexp(self.grand_mean, -ex) * math.ldexp(other.grand_mean, -ey),
        )
        return math.ldexp(sum(terms), ex + ey), math.ldexp(sum(abs(t) for t in terms), ex + ey)

    def inner(self, other: CenteredMatrix) -> float:
        """Squared distance covariance sum(A * B) / n^2, checked against a scale.

        Two sorted forms take ``cross_term``, with the sum of the three
        terms' magnitudes as the scale.  Any other pair sums blocks of rows,
        with sum(|A * B|) / n^2 as the scale.
        """
        nn = check_same_n(self, other) ** 2
        if self.order is not None and other.order is not None:
            total, scale = self._sorted_terms(other)
        else:
            total = self._blockwise(other, lambda a, b: float(np.vdot(a, b))) / nn
            if total < 0.0:  # only a negative sum needs the scale; row by row it adds O(n) memory
                scale = self._blockwise(
                    other, lambda a, b: sum(float(np.abs(ra * rb).sum()) for ra, rb in zip(a, b))
                ) / nn
        if total >= 0.0:
            return total
        if math.isnan(total) or total < -1e-12 * max(scale, 1.0):
            raise DataQualityError(
                f"distance covariance came out NaN or significantly negative ({total}); "
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
    not fit takes the sorted form if the sample is scalar and streams if
    not.  Rows rebuilt from either come in blocks of as many rows as fit
    (at least one, at most ``STREAM_BLOCK_ROWS``).  The sample is taken as
    it is, with scale 0.
    """
    s = as_sample(x)
    rows = s.n if memory_budget is None else rows_that_fit(s.n, memory_budget)
    if rows < s.n:
        block_rows = max(1, min(rows, STREAM_BLOCK_ROWS))
        return _sorted(s, block_rows) if s.is_scalar else _streaming(s, block_rows)
    d = pairwise_distances(s)
    row = d.mean(axis=1)
    grand = float(row.mean())
    return CenteredMatrix(s, row, grand, entries=_center(d, row, row, grand), block_rows=s.n)


def _streaming(s: Sample, block_rows: int) -> CenteredMatrix:
    row = np.empty(s.n)
    for i0 in range(0, s.n, block_rows):
        row[i0:i0 + block_rows] = cdist(s.data[i0:i0 + block_rows], s.data).mean(axis=1)
    return CenteredMatrix(s, row, float(row.mean()), block_rows=block_rows)


def _sorted(s: Sample, block_rows: int) -> CenteredMatrix:
    """The sorted form of a scalar sample: its order and row means, in O(n) memory."""
    d, e = s.deviations
    order = np.argsort(d, kind="stable")
    d = d[order]
    before = np.concatenate(([0.0], np.cumsum(d[:-1])))  # sum of the values sorted before each
    # sum_l |d_k - d_l| at sorted position i: (i - (n - i)) d_i + (total - before_i) - before_i
    rows = (2 * np.arange(s.n) - s.n) * d + (d.sum() - 2.0 * before)
    row = np.empty(s.n)
    row[order] = np.ldexp(rows / s.n, e)
    return CenteredMatrix(s, row, float(row.mean()), block_rows=block_rows, order=order)


def cross_term(x: np.ndarray, y: np.ndarray, x_order: np.ndarray, y_order: np.ndarray) -> float:
    """C = sum_kl |x_k - x_l| |y_k - y_l| of two scalar samples, in O(n log n) time.

    ``x_order`` and ``y_order`` sort x and y.  Taken over x's order, each
    pair i < j adds s_ij (x_j - x_i)(y_j - y_i), where s_ij is +1 when i
    comes before j in y's order and -1 otherwise; a pair tied in y adds 0
    either way.  Expanded, that is a sum over j of the weights (1, x, y, xy)
    of the earlier i, signed by s_ij, so each j needs the sums of those
    weights over the earlier i that come before it in y's order.  Merge
    levels find them: at block size h, each element of the second half of a
    2h-block takes the sums over the first half's elements of smaller rank.
    Each level is one stable argsort of two sorted runs per block.  Pass
    centered, scaled values, as the terms of the expansion cancel.
    """
    n = len(x)
    x, y = x[x_order], y[x_order]
    rank = np.empty(n, dtype=np.intp)
    rank[y_order] = np.arange(n)
    rank = rank[x_order]  # y's rank of each element, in x's order
    weights = (np.ones(n), x, y, x * y)
    below = [np.zeros(n) for _ in weights]  # sums over earlier elements of smaller rank
    merged = np.arange(n)  # positions, sorted by (position >> level, rank)
    level = 0
    while (1 << level) < n:
        merged = merged[np.argsort((merged >> (level + 1)) * n + rank[merged], kind="stable")]
        first = (merged >> level) & 1 == 0
        second = np.flatnonzero(~first)
        j = merged[second]
        upto = second - np.arange(len(second))  # first-half elements merged before each j
        start = (j >> (level + 1)) << level  # first-half elements in the blocks before j's
        left = merged[first]
        for w, b in zip(weights, below):  # one weight at a time: 1-D gathers are the fast ones
            sums = np.zeros(len(left) + 1)
            np.cumsum(w[left], out=sums[1:])
            b[j] += sums[upto] - sums[start]
        level += 1
    total = 0.0
    # each j adds x_j y_j D_1 - y_j D_x - x_j D_y + D_xy, where D = 2 * below - all earlier
    for w, b, coef in zip(weights, below, (x * y, -y, -x, np.ones(n))):
        signed = 2.0 * b
        signed[1:] -= np.cumsum(w[:-1])
        total += float(np.dot(coef, signed))
    return 2.0 * total


def _unit(s: Sample) -> tuple[Sample, int]:
    """s times 2^-e, with its widest column range near 1, and e (even: square roots stay exact)."""
    half_range = np.ptp(np.ldexp(s.data, -1), axis=0).max()  # halved, so it cannot overflow
    e = (math.frexp(half_range)[1] + 1) & ~1
    return (Sample(np.ldexp(s.data, -e)) if e else s), e


def _scaled(x, memory_budget: int | None = None) -> CenteredMatrix:
    """The CenteredMatrix of ``_unit(x)``, with e as its ``scale``; a CenteredMatrix is kept."""
    if isinstance(x, CenteredMatrix):
        return x
    s, e = _unit(as_sample(x))
    return replace(double_center(s, memory_budget), scale=e)


def _unscaled(v: float, e: int) -> float:
    """v * 2^e, or inf beyond float64's range."""
    try:
        return math.ldexp(v, e)
    except OverflowError:
        return math.inf


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
    bytes.  Otherwise a scalar sample takes the sorted form and a
    multivariate one streams in blocks that fit there.
    """
    a, b = _scaled(x, memory_budget // 2), _scaled(y, memory_budget // 2)
    return _unscaled(a.inner(b), a.scale + b.scale)


def dcor(x, y, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> PairStats:
    """Distance correlation plus the underlying covariance/variance terms.

    The degenerate convention applies: if either distance variance is
    zero, the correlation is 0.  Pearson is filled only for scalar pairs
    (and left as None there too if either side is constant).  x and y are
    samples or their CenteredMatrix objects from ``_scaled``.
    """
    a, b = _scaled(x, memory_budget // 2), _scaled(y, memory_budget // 2)
    vxy = a.inner(b)
    if a.dvar <= 0.0 or b.dvar <= 0.0:
        r = 0.0
    else:
        r = float(np.sqrt(vxy) / np.sqrt(a.dvar * b.dvar))
        if r > 1.0 + 1e-12:
            raise DataQualityError(f"distance correlation exceeded 1 by too much: {r}")
        r = min(r, 1.0)
    p = None
    if a.sample.is_scalar and b.sample.is_scalar:
        try:
            p = pearson(a.sample, b.sample)
        except DegenerateVarianceError:  # a constant sample, or n < 2
            pass
    return PairStats(
        dcov_sq=_unscaled(vxy, a.scale + b.scale),
        dvar_x=_unscaled(a.dvar, a.scale),
        dvar_y=_unscaled(b.dvar, b.scale),
        dcor=r,
        pearson=p,
        n=a.n,
    )


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
    xd, yd = xs.deviations[0], ys.deviations[0]
    sx, sy = xs.deviation_norm, ys.deviation_norm
    if sx == 0.0 or sy == 0.0:
        raise DegenerateVarianceError("pearson is undefined for constant samples")
    r = float(np.sum(xd * yd)) / (sx * sy)
    return float(np.clip(r, -1.0, 1.0))

