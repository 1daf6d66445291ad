"""A materialized CenteredMatrix as an n x n array, for tests that read A entry by entry."""
import numpy as np


def dense(c):
    """A from its stored shifts s = 0..n//2 and their mirrors: row 0 is its diagonal."""
    n, k = c.n, np.arange(c.n)
    a = np.empty((n, n))
    for s in range(n // 2 + 1):
        a[k, (k + s) % n] = a[(k + s) % n, k] = c.shifts[s]
    return a
