"""A materialized CenteredMatrix as an n x n array, for tests that read A entry by entry."""
import numpy as np


def dense(c):
    """A from its stored shifts, their mirrors and its diagonal m - 2 m_k."""
    n, k = c.n, np.arange(c.n)
    a = np.diag(c.grand_mean - 2.0 * c.row_mean)
    for s in range(1, n // 2 + 1):
        a[k, (k + s) % n] = a[(k + s) % n, k] = c.shifts[s - 1]
    return a
