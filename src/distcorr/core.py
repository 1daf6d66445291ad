"""Empirical distance covariance/correlation and Pearson correlation.

Each sample gets one ``CenteredMatrix``, its double-centered distance matrix
laid out by shift, and every statistic is one weighted sum over shifts of two
of them, as is every permutation replicate: ``_shift_sum`` in blocks sized by
``block_rows``, and ``gram`` for every pair of K stored layouts at once.
``rows_that_fit`` is the one byte rule: a sample whose N x N float64 matrix
fits its budget is materialized, its shifts stored (about half of that matrix).
Otherwise a scalar sample takes the sorted form, whose inner product with
another sorted form costs O(N log N) (``cross_term``), and a multivariate
one streams.  Every scalar form, of either kind, is built by
``_centered_columns`` for a stack of K columns at once, with row means
from the sorted deviations (``_row_means``); a stored stack's column may
miss cells, and is then centered over its own rows, zero-padded, for
``gram`` alone.  A sorted form's dVar^2 is a sum in O(n) over its sorted
terms, taken for a stack of them at once (``_sorted_dvar_sq``).
``dcov_sq`` and ``dcor`` give each sample half the budget, and center it
through ``_scaled``, as does the permutation test; the screen stacks its
columns with each one's own exponent.  Each sample is scaled by a power of two so
that no spread under- or overflows, and scaled back in results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .errors import DataQualityError, DegenerateVarianceError
from .samples import (_KERNEL_ROWS, Sample, _deviations, _joined, _shift_distances, _window, as_sample,
                      check_same_n)
from .samples import _euclidean as cdist  # the full matrix of pairwise_distances

# Bytes that dcov_sq and dcor may spend on N x N matrices or their blocks.
DEFAULT_MEMORY_BUDGET = 1 << 30  # 1 GiB

# Most bytes in one block of shifts that is rebuilt or written (2^17 float64
# entries), so that it is still in cache when it is reduced.  Set by n and the
# budget alone (``block_rows``), not by scheduling, so results are deterministic.
BLOCK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class CenteredMatrix:
    """A_kl = a_kl - m_k - m_l + m for one sample's distance matrix a, by shift.

    m_k are a's row means (its column means too, as a is symmetric) and m
    is their mean.  ``shifts`` is A's shift layout when materialized,
    [s, k] = A_k,(k+s) mod n for s = 0..n//2, and None otherwise; its row 0
    is the diagonal m - 2 m_k, as a_kk = 0.  ``order``
    sorts a scalar sample in the sorted form, and is None in the other two.
    ``block_rows`` bounds a rebuilt block's shifts (None: ``BLOCK_BYTES``).
    ``sample`` is the data times 2^-scale, so ``dvar`` and ``inner`` are
    2^-scale and 2^-(scale + other.scale) times the data's.
    """

    sample: Sample
    row_mean: np.ndarray
    grand_mean: float
    shifts: np.ndarray | None = None
    block_rows: int | None = None
    order: np.ndarray | None = None
    scale: int = 0

    @property
    def n(self) -> int:
        return self.sample.n

    @cached_property
    def dvar(self) -> float:
        """Distance variance dVar: the square root of the inner product with itself."""
        return float(np.sqrt(self.inner(self)))

    def _shift_rows(self, s0: int, s1: int, out=None, tmp=None) -> np.ndarray:
        return _centered_shifts(self, s0, s1, out, tmp) if self.shifts is None else self.shifts[s0:s1]

    def _shift_sum(self, rows, step: int, first: int = 0, block=None, tmp=None, dots=np.vecdot) -> float:
        """sum_s w_s A_s . B_s over s = first..n//2, B's rows of shifts s0..s1 - 1 being ``rows(s0, s1)`` (A's if None).

        Blocks of ``step`` shifts start at its multiples, the first at ``first``; each is reduced by one
        ``dots`` call, a dot product per row.  A that is not stored is rebuilt into ``block``, with ``tmp``
        as the kernel's temporary.  w_s = 2 for 0 < s < n/2 counts the mirror shift n - s too; s = 0
        (the diagonal) and s = n/2 are their own, with w_s = 1.
        """
        total, n = 0.0, self.n
        for s0 in range(first - first % step, n // 2 + 1, step):
            s0, s1 = max(s0, first), min(s0 + step, n // 2 + 1)
            a = self._shift_rows(s0, s1, block, tmp)
            d = dots(a, a if rows is None else rows(s0, s1))
            lo, mid = 1 if s0 == 0 else 0, max(0, min(s1, (n + 1) // 2) - s0)  # rows lo..mid - 1: 0 < s < n/2
            part = 2.0 * float(d[lo:mid].sum()) + float(d[mid:].sum())
            total += part + float(d[0]) if lo else part  # the diagonal only in the block that holds it
        return total

    def _sorted_terms(self, other: CenteredMatrix) -> tuple[float, float]:
        """sum(A * B) / n^2 of two sorted forms, and the sum of its three terms' magnitudes.

        sum(A * B) = C - 2 sum_k a_k. b_k. / n + a.. b.. / n^2 with C =
        sum |x_k - x_l| |y_k - y_l| (``cross_term``); against itself, the
        stack of one's ``_sorted_dvar_sq``.  The terms are summed in the
        units of the scaled deviations and scaled back at the end.
        """
        (x, ex), (y, ey) = self.sample.deviations, other.sample.deviations
        if other is self:
            total, scale = _sorted_dvar_sq(x[None], np.array([ex]), self.row_mean[None], np.array([self.grand_mean]))
            return math.ldexp(float(total[0]), 2 * ex), math.ldexp(float(scale[0]), 2 * ex)
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
        terms' magnitudes as the scale.  Two stored layouts take one threaded
        ``np.vdot`` per weighted part, as their layouts come from memory.  Any
        other pair takes ``_shift_sum`` in blocks of the fewest shifts that
        ``block_rows`` allows, each side that is not stored rebuilt into one
        block for the whole sum.  The scale is then sum(|A * B|) / n^2.
        """
        n = check_same_n(self, other)
        if self.order is not None and other.order is not None:
            total, scale = self._sorted_terms(other)
        else:
            step = min(block_rows(n, BLOCK_BYTES), self.block_rows or n, other.block_rows or n)
            blocks = [None if c.shifts is not None else np.empty((step, n)) for c in dict.fromkeys((self, other))]
            rows = None if other is self else partial(other._shift_rows, out=blocks[1])
            if self.shifts is not None and other.shifts is not None:
                a, b, mid = self.shifts, other.shifts, (n + 1) // 2
                total = float(2.0 * np.vdot(a[1:mid], b[1:mid]) + np.vdot(a[:1], b[:1]) + np.vdot(a[mid:], b[mid:]))
            else:
                total = self._shift_sum(rows, step, 0, blocks[0])
            total /= n * n
            if total < 0.0:  # only a negative sum needs the scale
                scale = self._shift_sum(rows, step, 0, blocks[0], None, lambda a, b: np.abs(a * b).sum(1)) / (n * n)
        if total >= 0.0:
            return total
        if math.isnan(total) or total < -1e-12 * max(scale, 1.0):
            raise DataQualityError(
                f"distance covariance came out NaN or significantly negative ({total}); "
                "this indicates corrupted input or an internal error"
            )
        return 0.0


def gram(layouts: np.ndarray, star: int | None = None) -> np.ndarray:
    """``inner`` of every pair of K stored layouts at once, with no scale check: a K x K matrix.

    ``layouts`` is the (K, n//2 + 1, n) stack of their ``shifts``.  Each sum
    is three BLAS products over views of the flattened layouts, weighted as
    in ``_shift_sum``: the shifts 0 < s < n/2 twice, then s = n/2 (n even)
    and s = 0 once.  With ``star`` = c, only row and column c and each
    layout against itself are taken (one matrix-vector product per part,
    and each layout's sum of squares); the other entries are NaN.
    """
    k, rows, n = layouts.shape
    flat, below = layouts.reshape(k, rows * n), (n + 1) // 2 * n  # the end of the shifts below n/2
    parts = ((2.0, flat[:, n:below]), (1.0, flat[:, below:]), (1.0, flat[:, :n]))
    if star is None:
        return sum(w * (p @ p.T) for w, p in parts) / (n * n)
    total = np.full((k, k), np.nan)
    total[star] = total[:, star] = sum(w * (p @ p[star]) for w, p in parts)
    np.fill_diagonal(total, sum(w * np.einsum("ij,ij->i", p, p) for w, p in parts))
    return total / (n * n)


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


def _center(c: np.ndarray, row: np.ndarray, s0: int, grand) -> np.ndarray:
    """Center the shift layout's rows for shifts s0.. in place: a_k,k+s - m_k - m_k+s + m.

    A stack of layouts (K, rows, n) takes its (K, n) row means and its
    grand means as a (K, 1, 1) array.
    """
    c -= row[..., None, :]
    c -= _window(_joined(row), s0, s0 + c.shape[-2])
    c += grand
    return c


def _centered_shifts(a: CenteredMatrix, s0: int, s1: int, out=None, tmp=None) -> np.ndarray:
    """A's shift layout for the shifts s0 <= s < s1, rebuilt from a's sample and row means (into ``out``)."""
    return _center(_shift_distances(a.sample.data, s0, s1, out, tmp), a.row_mean, s0, a.grand_mean)


def _built(s: Sample, block_rows: int, store: bool) -> CenteredMatrix:
    """A sample's CenteredMatrix from one pass over its shift distances, stored if ``store``.

    Row k's sum takes the pairs (k, k + s) of each block, its column sums,
    and the pairs (k - s, k) but for s = 0 and s = n/2, its mirrored sums:
    the block's row of shift s rotated s places right.  A scalar sample
    that is stored takes ``_centered_columns`` instead.
    """
    n, h = s.n, s.n // 2
    step = min(block_rows, _KERNEL_ROWS)
    out = np.empty((h + 1 if store else min(step, h + 1), n))  # the layout, or one block reused: no fresh pages
    sums = np.zeros(n)
    for s0 in range(0, h + 1, step):
        s1 = min(s0 + step, h + 1)
        d = _shift_distances(s.data, s0, s1, out[s0:] if store else out)
        sums += d.sum(axis=0)
        for t in range(max(s0, 1), min(s1, (n + 1) // 2)):  # d[t - s0, k] pairs k with (k + t) % n
            sums[t:] += d[t - s0, :n - t]
            sums[:t] += d[t - s0, n - t:]
    row = sums / n
    grand = float(row.mean())
    if store:
        _center(out, row, 0, grand)
    return CenteredMatrix(s, row, grand, shifts=out if store else None, block_rows=block_rows)


def rows_that_fit(n: int, memory_budget: int) -> int:
    """How many rows of an n x n float64 matrix fit in ``memory_budget`` bytes."""
    return memory_budget // (8 * max(n, 1))


def block_rows(n: int, memory_budget: int) -> int:
    """Shifts per block that is rebuilt or written: as many as fit ``BLOCK_BYTES`` and the budget, 1 to n//2 + 1."""
    return min(n // 2 + 1, max(1, rows_that_fit(n, min(BLOCK_BYTES, memory_budget))))


def double_center(x, memory_budget: int | None = None) -> CenteredMatrix:
    """The CenteredMatrix of a sample, materialized if its N x N matrix fits ``memory_budget`` bytes.

    With no budget it is always materialized.  A scalar sample is the stack
    of one column (``_centered_columns``), materialized or in the sorted
    form.  A multivariate one is built by ``_built``, and streams when it
    does not fit, in blocks of ``block_rows(n, memory_budget)`` shifts.
    The sample is taken as it is, with scale 0.
    """
    s = as_sample(x)
    rows = s.n if memory_budget is None else rows_that_fit(s.n, memory_budget)
    if s.is_scalar:
        return _centered_columns(s.data.T, np.zeros(1, dtype=int), None if rows < s.n else True)[0][0]
    if rows < s.n:
        return _built(s, block_rows(s.n, memory_budget), store=False)
    return _built(s, s.n, True)


def _row_means(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row means of |d_k - d_l| 2^e for each row of a (K, n) stack of deviations, and each row's sort order.

    At sorted position i, sum_l |d_k - d_l| = (i - (n - i)) d_i + (total -
    before_i) - before_i, where before_i sums the values sorted before it:
    O(n log n) for a row (Huo and Szekely 2016).  ``e`` holds each row's
    exponent, as ``_deviations`` gives it.
    """
    n = d.shape[1]
    order = np.argsort(d, axis=1, kind="stable")
    d = np.take_along_axis(d, order, axis=1)
    rows = np.zeros_like(d)
    np.cumsum(d[:, :-1], axis=1, out=rows[:, 1:])  # before_i
    rows *= -2.0
    rows += d.sum(axis=1, keepdims=True)  # total - 2 before_i
    d *= 2 * np.arange(n) - n
    rows += d
    del d
    rows /= n
    row = np.empty_like(rows)
    np.put_along_axis(row, order, np.ldexp(rows, e[:, None], out=rows), axis=1)
    return row, order


def _centered_columns(data: np.ndarray, exponents: np.ndarray, out: np.ndarray | bool | None = True
                      ) -> tuple[list[CenteredMatrix | None], np.ndarray]:
    """The CenteredMatrix of each row of ``data``, a (K, n) stack of scalar samples, as a list.

    Row j is taken times 2^-e_j, with e_j = ``exponents[j]`` as its
    ``scale``.  The row means come from the sorted deviations
    (``_row_means``).  Given ``out``, a (K, n//2 + 1, n) array (True: made
    here), the forms are stored: the shift layouts are written into it in
    a fixed number of numpy calls for the whole stack, the distances from
    one strided view over the stack joined to itself and the centering in
    place.  With ``out`` None they are sorted forms, each keeping its row
    of the sort order, in O(K n) memory.  Each row takes the same
    arithmetic as it would alone.  The (K, n) stack of the samples'
    ``deviations`` is returned with the list; each sample keeps its row.

    A row may miss cells (NaN), its exponent taken over its own rows R.  Its
    deviations and row means are taken over R alone, and zero elsewhere; its
    missing cells are filled with one of its own values before the distance
    pass, so that no new magnitude enters, and its layout is zeroed in
    place wherever a missing row q is in the pair: [s, q] and
    [s, (q - s) mod n].  So its layout is its matrix centered over R,
    zero-padded, for ``gram`` alone: its form is None.
    """
    k, n = data.shape
    x = np.ldexp(data, -exponents[:, None])
    gaps = np.isnan(x)
    gapped = np.flatnonzero(gaps.any(axis=1)).tolist()
    for j in gapped:
        x[j, gaps[j]] = x[j, np.argmin(gaps[j])]
    d, e = _deviations(x)
    row, order = _row_means(d, e)
    grand = row.mean(axis=1)
    for j in gapped:
        own = ~gaps[j]
        dj, ej = _deviations(x[j, own][None])
        rj = _row_means(dj, ej)[0]
        d[j], row[j] = 0.0, 0.0
        d[j, own], row[j, own], grand[j] = dj[0], rj[0], rj.mean()
    if out is not None:
        out = np.empty((k, n // 2 + 1, n)) if out is True else out
        np.abs(np.subtract(_window(_joined(x), 0, n // 2 + 1), x[:, None, :], out=out), out=out)
        _center(out, row, 0, grand[:, None, None])
        shift = np.arange(n // 2 + 1)[:, None]
        for j in gapped:
            q = np.flatnonzero(gaps[j])
            out[j][:, q] = 0.0
            out[j][shift, (q - shift) % n] = 0.0
    forms = []
    for j in range(k):
        s = Sample(x[j, :, None])
        s.__dict__["deviations"] = d[j], int(e[j])  # the cached_property's value
        layout = {"order": order[j]} if out is None else {"shifts": out[j]}
        forms.append(None if j in gapped else
                     CenteredMatrix(s, row[j], float(grand[j]), scale=int(exponents[j]), **layout))
    return forms, d


def _sorted_dvar_sq(d: np.ndarray, e: np.ndarray, row: np.ndarray, grand: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """sum(A * A) / n^2 of each sorted form of a (K, n) stack, and the sum of its three terms' magnitudes, times 2^-2e.

    d and e are the forms' ``_deviations``, row and grand their row and
    grand means (``_row_means``).  sum(A * A) = C - 2 sum_k a_k.^2 / n
    + a..^2 / n^2, where C = sum (x_k - x_l)^2 = 2 n sum x_k^2 - 2 (sum x_k)^2
    takes O(n).  A row's sums are bit for bit those of the stack of one.
    """
    n = d.shape[1]
    r, g = np.ldexp(row, -e[:, None]), np.ldexp(grand, -e)
    terms = ((2.0 * n * np.vecdot(d, d) - 2.0 * d.sum(axis=1) ** 2) / (n * n), -2.0 * np.vecdot(r, r) / n, g * g)
    return terms[0] + terms[1] + terms[2], abs(terms[0]) + abs(terms[1]) + abs(terms[2])


def _sorted_deviations(data: np.ndarray, index: tuple, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``_deviations`` of each row of ``data[index]`` times 2^-``exponents``, and its sorted form's dVar^2.

    dVar^2 is ``_sorted_dvar_sq``'s sum in the units of the scaled rows.
    The rows are taken and scaled here, so that they are freed before the
    sort and only the deviations outlive the call.
    """
    d, e = _deviations(np.ldexp(data[index], -exponents[:, None]))
    row, _ = _row_means(d, e)
    return d, np.ldexp(_sorted_dvar_sq(d, e, row, row.mean(axis=1))[0], 2 * e)


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


def _unit_exponents(data: np.ndarray) -> np.ndarray:
    """For each row of data, the even e that brings its range near 1 as data times 2^-e.

    Even, so that square roots stay exact; the range is halved first, so
    that it cannot overflow.  Missing cells (NaN) are passed over.
    """
    half = np.ldexp(data, -1)
    return (np.frexp(np.fmax.reduce(half, axis=-1) - np.fmin.reduce(half, axis=-1))[1] + 1) & ~1


def _unit(s: Sample) -> tuple[Sample, int]:
    """s times 2^-e, with its widest column range near 1, and e: ``_unit_exponents``' largest."""
    e = int(_unit_exponents(s.data.T).max())
    return (Sample(np.ldexp(s.data, -e)) if e else s), e


def _scaled(x, memory_budget: int | None = None) -> CenteredMatrix:
    """The CenteredMatrix of ``_unit(x)``, with e as its ``scale``; a CenteredMatrix is kept."""
    if isinstance(x, CenteredMatrix):
        return x
    s, e = _unit(as_sample(x))
    return replace(double_center(s, memory_budget), scale=e)


def _centered_pair(x, y, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> tuple[CenteredMatrix, ...]:
    """``_scaled`` x and y, with half of ``memory_budget`` each."""
    return _scaled(x, memory_budget // 2), _scaled(y, memory_budget // 2)


def _unscaled(v: float, e: int) -> float:
    """v * 2^e, or inf beyond float64's range."""
    try:
        return math.ldexp(v, e)
    except OverflowError:
        return math.inf


def dcov_sq(x, y, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> float:
    """Squared empirical distance covariance, Eq.-(4)-style.

    Materializes each N x N matrix when it fits in half of ``memory_budget``
    bytes.  Otherwise a scalar sample takes the sorted form and a
    multivariate one streams in blocks that fit there.
    """
    a, b = _centered_pair(x, y, memory_budget)
    return _unscaled(a.inner(b), a.scale + b.scale)


def dcor(x, y, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> PairStats:
    """Distance correlation plus the underlying covariance/variance terms.

    The degenerate convention applies: if either distance variance is
    zero, the correlation is 0.  Pearson is filled only for scalar pairs
    (and left as None there too if either side is constant).  x and y are
    samples or their CenteredMatrix objects from ``_scaled``.
    """
    a, b = _centered_pair(x, y, memory_budget)
    vxy = a.inner(b)
    r = correlation(vxy, a.dvar, b.dvar)
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


def correlation(vxy: float, dvar_x: float, dvar_y: float) -> float:
    """dcor from dcov^2 >= 0 and the two dVars: 0 if either dVar is 0, and at most 1.

    A value above 1 by more than 1e-12 raises DataQualityError.
    """
    if dvar_x <= 0.0 or dvar_y <= 0.0:
        return 0.0
    r = math.sqrt(vxy) / math.sqrt(dvar_x * dvar_y)
    if r > 1.0 + 1e-12:
        raise DataQualityError(f"distance correlation exceeded 1 by too much: {r}")
    return min(r, 1.0)


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

