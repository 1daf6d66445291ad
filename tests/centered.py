"""Reference forms for tests: a CenteredMatrix as an n x n array, and the replicate and cross_term as first written."""
import numpy as np

from distcorr import core
from distcorr.samples import _shift_distances


def dense(c):
    """A from its stored shifts s = 0..n//2 and their mirrors: row 0 is its diagonal."""
    n, k = c.n, np.arange(c.n)
    a = np.empty((n, n))
    for s in range(n // 2 + 1):
        a[k, (k + s) % n] = a[(k + s) % n, k] = c.shifts[s]
    return a


def row_dots(a, b):
    """sum(a * b), one dot product per row."""
    return float(np.vecdot(a, b).sum())


def replicate(a, y, perm, rows, work=None):
    """dcov^2(x, y[perm]) as the replicate was first written, the reference that the fast one must equal bit for bit.

    y[perm] is taken afresh, each block of ``rows`` shifts from shift 0 gets
    ``_shift_distances`` of it and A's rows (stored, or rebuilt afresh), and
    each of the block's three weighted parts is its own sum of row dots.
    ``work`` is ignored: this signature stands in for ``inference._permuted_dcov_sq``.
    """
    yp, n, h = y[perm], a.n, a.n // 2
    total = 0.0
    for s0 in range(0, h + 1, rows):
        s1 = min(s0 + rows, h + 1)
        ra = core._centered_shifts(a, s0, s1) if a.shifts is None else a.shifts[s0:s1]
        rb = _shift_distances(yp, s0, s1)
        lo = int(s0 == 0)
        hi = max(lo, min(s1, (n + 1) // 2) - s0)
        total += 2.0 * row_dots(ra[lo:hi], rb[lo:hi]) + row_dots(ra[:lo], rb[:lo]) + row_dots(ra[hi:], rb[hi:])
    return max(total / (n * n), 0.0)


def cross_term(x: np.ndarray, y: np.ndarray, x_order: np.ndarray, y_order: np.ndarray) -> float:
    """core.cross_term as first written, the reference that the fast one must equal bit for bit.

    Every level sorts (block, rank) as int64 keys, and the weight 1 takes a
    gather and a cumulative sum like the others.
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
