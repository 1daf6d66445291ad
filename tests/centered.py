"""Reference forms for tests: a CenteredMatrix as an n x n array, and the permutation replicate as first written."""
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
