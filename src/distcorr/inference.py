"""Permutation test of independence and a power-comparison harness.

The test statistic is the squared distance covariance rather than the
distance correlation: the correlation's denominators are permutation
invariant, so both statistics induce the same p-value, and the covariance
avoids the degenerate-denominator branch entirely.

x's centered matrix A has rows and columns that sum to zero, so sum(A * B^perm) =
sum_kl A_kl |y_perm(k) - y_perm(l)|.  So a replicate is A's ``_shift_sum``, the
loop that ``inner`` takes, against y[perm]'s distances at the same shifts from
shift 1 (shift 0's are 0), in blocks of ``core.block_rows``.  y's permuted
rows are written once per replicate into one buffer, joined to themselves,
that every block reads; a permutation keeps y's exponent e, so the buffer
holds y times 2^-e and the total is scaled by 2^e once, both exactly.  A's
layout (8 n (n//2 + 1) bytes) is built once when it fits the budget next to
one block, else rebuilt into a workspace block per block.

Determinism: every replicate b draws its permutation from a generator
seeded by (seed, b), so replicates can run in any order, or in any
process, with identical results.  ``permutation_test`` and the screen's
p-values run contiguous spans of their work in forked processes
(``_fork_map``), as many as ``_plan`` allows: one unless asked, since a
library must not fork its host unasked.  The children write their spans'
float64 statistics into one shared array, and a span whose child fails,
or that cannot be forked, runs here: the output is the same for any count.
"""
from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import core
from .core import CenteredMatrix, _scaled, _unit, _unscaled, block_rows
from .errors import DataQualityError, UsageError, check_count
from .samples import _columns, _joined_distances, as_sample, check_same_n

# Fewest replicate entries, B n (n//2 + 1) for B replicates at n rows, that each process of a
# permutation loop gets: a fork and a waitpid take about 2 ms with numpy loaded.
FORK_ENTRIES = 1 << 24


@dataclass(frozen=True)
class TestResult:
    statistic: float
    replicates: int
    exceed_count: int
    p_value: float
    seed: int


@dataclass(frozen=True)
class PowerReport:
    scenario: str
    n: int
    trials: int
    alpha: float
    replicates: int
    rejection_rate_dcov: float
    rejection_rate_pearson: float
    seed: int


def _replicate_rng(seed: int, b: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))


def _replicates(statistic, n: int, reps: range, seed: int) -> list[float]:
    """statistic(perm) of each replicate b in ``reps``, perm drawn from ``_replicate_rng(seed, b)``."""
    return [statistic(_replicate_rng(seed, b).permutation(n)) for b in reps]


def _fork_map(fn, items, k: int) -> np.ndarray:
    """fn(span) of k contiguous spans of ``items``, a float per item, joined: the first here, each other forked.

    A child writes its span of one anonymous shared mapping and always ends
    with ``os._exit``, so it never returns into the caller's stack, its
    atexit handlers or its redirected stdout.  A span whose child exits
    non-zero (a result of the wrong length raises there), or that
    ``os.fork`` cannot start, is computed here, so an error is the serial loop's.
    Every child is reaped before this returns or raises; on an error here,
    killed first.
    """
    k = min(k, len(items))
    if k == 1:
        return np.asarray(fn(items), np.float64)
    import mmap
    import signal

    cuts = [i * len(items) // k for i in range(k + 1)]
    out, children = np.frombuffer(mmap.mmap(-1, 8 * len(items))), {}  # the child of each span, by its start
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            # Python 3.12+ warns (DeprecationWarning, attributed to this module) at a fork while another OS
            # thread exists, numpy's BLAS pool among them.  Silenced for this call alone: no other Python thread
            # runs (``_plan``), and the child only runs numpy on arrays it inherited, writes its span, and exits.
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
                    pid = os.fork()
            except OSError:  # EAGAIN under a process limit, or ENOMEM: this span and the rest run here
                break
            if pid == 0:
                try:
                    out[lo:hi] = np.reshape(fn(items[lo:hi]), hi - lo)
                    os._exit(0)
                finally:
                    os._exit(1)
            children[lo] = pid
        for lo, hi in zip(cuts, cuts[1:]):
            status = os.waitpid(children[lo], 0)[1] if lo in children else 1  # the first span, or one not forked
            children.pop(lo, None)
            if status:
                out[lo:hi] = fn(items[lo:hi])
        return out
    finally:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _workspace(rows: int, y: np.ndarray, a: CenteredMatrix) -> tuple:
    """What every replicate reads and writes, made once per test: (z, e, joined, out, tmp, block).

    y's ``_columns`` z (d, n) and e, the (d, 2n - 1) buffer for z[:, perm] joined to itself, and blocks of
    ``rows`` shifts: its distances, the kernel's temporary if y or A is multivariate, A's if not stored.
    """
    (n, dim), (z, e) = y.shape, _columns(y)
    out, tmp, block = (np.empty((rows, n)) if need else None
                       for need in (True, max(dim, a.sample.dim) > 1, a.shifts is None))
    return np.ascontiguousarray(z), e, np.empty((dim, 2 * n - 1)), out, tmp, block


def _permuted_dcov_sq(a: CenteredMatrix, y: np.ndarray, perm: np.ndarray, rows: int,
                      work: tuple | None = None) -> float:
    """dcov^2(x, y[perm]): A's ``_shift_sum`` against y[perm]'s distances from shift 1, in blocks of ``rows``.

    ``work`` is ``_workspace(rows, y, a)``.  A total that is NaN or, times 2^e, beyond float64's range raises.
    """
    n = len(perm)
    z, e, joined, out, tmp, block = _workspace(min(rows, n // 2 + 1), y, a) if work is None else work
    np.take(z, perm, axis=1, out=joined[:, :n], mode="clip")  # nothing to clip: "raise" would buffer out
    joined[:, n:] = joined[:, :n - 1]
    total = _unscaled(a._shift_sum(lambda s0, s1: _joined_distances(joined, s0, s1, out, tmp), rows, 1, block, tmp), e)
    if not math.isfinite(total):
        raise DataQualityError("a permutation replicate of dcov^2 came out NaN or beyond float64's range")
    return max(total / (n * n), 0.0)


def _plan(x, y, replicates: int, jobs: int | None = 1) -> tuple[int, int | None, int]:
    """A test of x against y (samples or forms): (shifts per block, the budget for x's form, processes).

    A block of y's distances and its temporary take 16 n bytes per shift,
    and a rebuilt block of A's layout as much: at most half of
    ``core.DEFAULT_MEMORY_BUDGET`` each.  x's budget is None where its
    layout fits next to them, to be kept.  Processes: ``jobs``, or the CPUs
    this process may run on, capped so that each gets ``FORK_ENTRIES`` of
    the replicates' entries and that every one's ``_workspace``, and x's
    layout unless stored already, fit the budget together.  One without
    ``os.sched_getaffinity`` (macOS, whose Accelerate BLAS is not
    fork-safe, and Windows), and while another Python thread runs.
    """
    if jobs is not None:
        check_count("jobs", jobs)
    n, budget = y.n, core.DEFAULT_MEMORY_BUDGET
    rows = block_rows(n, budget // 4)
    left = budget - 16 * n * rows
    keep = 8 * n * (n // 2 + 1) <= left
    plan = rows, None if keep else left
    if jobs == 1 or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return *plan, 1
    dim = max((v.sample if isinstance(v, CenteredMatrix) else v).dim for v in (x, y))
    stored = isinstance(x, CenteredMatrix) and x.shifts is not None
    each = 8 * (n * rows * (1 + (dim > 1) + (not keep)) + 3 * n * dim + (keep and not stored) * n * (n // 2 + 1))
    jobs = len(os.sched_getaffinity(0)) if jobs is None else jobs
    return *plan, max(1, min(jobs, replicates * n * (n // 2 + 1) // FORK_ENTRIES, budget // each))


def permutation_test(x, y, replicates: int, seed: int, jobs: int | None = 1) -> TestResult:
    """Independence test: permute y's rows, recompute dcov^2, count exceedances.

    x and y are samples or their CenteredMatrix objects from ``_scaled``.
    ``_plan`` sizes the blocks of y's (scaled) distances within
    ``core.DEFAULT_MEMORY_BUDGET``: while A's layout fits next to them, a
    raw x is built stored and a form without its layout is laid out once;
    otherwise a raw x takes the form that is not stored.  The observed
    statistic is the identity's replicate, so ties compare equal.

    Replicates 1..B run as contiguous ranges in up to ``jobs`` processes
    (None: the CPUs this one may run on), as many as ``_plan`` allows;
    x's layout and the workspace are made before the fork and shared.  The
    result is the same for any count.

    p-value uses the add-one formula (1 + #{perm >= observed}) / (1 + B),
    so it is never exactly 0; ties count as exceedances (conservative).
    """
    check_count("replicates", replicates)
    check_count("seed", seed, 0)
    ys, ey = (y.sample, y.scale) if isinstance(y, CenteredMatrix) else _unit(as_sample(y))
    if ys.n < 2:
        raise DataQualityError("permutation test requires at least 2 observations")
    n = ys.n
    xs = x if isinstance(x, CenteredMatrix) else as_sample(x)
    check_same_n(xs, ys)  # before x's layout is built at y's size
    rows, left, jobs = _plan(xs, ys, replicates, jobs)  # left None: x's layout is built once and kept
    a = _scaled(xs, left)
    if left is None and a.shifts is None:  # a form that arrives without its layout: laid out from its row means
        a = replace(a, shifts=core._centered_shifts(a, 0, n // 2 + 1))
    work = _workspace(rows, ys.data, a)
    observed = _permuted_dcov_sq(a, ys.data, np.arange(n), rows, work)
    statistics = _fork_map(
        lambda reps: _replicates(lambda perm: _permuted_dcov_sq(a, ys.data, perm, rows, work), n, reps, seed),
        range(1, replicates + 1), jobs)
    exceed = int(np.count_nonzero(statistics >= observed))
    return TestResult(statistic=_unscaled(observed, a.scale + ey), replicates=replicates,
                      exceed_count=exceed, p_value=(1 + exceed) / (1 + replicates), seed=seed)


def _pearson_permutation_pvalue(xv: np.ndarray, yv: np.ndarray, replicates: int, seed: int) -> float:
    """Permutation test on |pearson| for the power comparison."""
    n = xv.shape[0]
    # scaled as in pearson, so that a tiny spread cannot square to 0
    xs, ys = as_sample(xv), as_sample(yv)
    xd, yd = xs.deviations[0], ys.deviations[0]
    sx, sy = xs.deviation_norm, ys.deviation_norm
    if sx == 0.0 or sy == 0.0:
        return 1.0
    observed = abs(float(xd @ yd)) / (sx * sy)
    statistics = _replicates(lambda perm: abs(float(xd @ yd[perm])) / (sx * sy), n, range(1, replicates + 1), seed)
    exceed = sum(value >= observed for value in statistics)
    return (1 + exceed) / (1 + replicates)


SCENARIOS = ("independent", "linear", "quadratic")


def _draw_scenario(scenario: str, n: int, rng: np.random.Generator):
    if scenario == "independent":
        return rng.standard_normal(n), rng.standard_normal(n)
    if scenario == "linear":
        x = rng.standard_normal(n)
        return x, x + rng.standard_normal(n)
    x = rng.uniform(-1.0, 1.0, size=n)  # "quadratic": power_simulation has rejected any other name
    return x, x * x


def power_simulation(
    scenario: str,
    n: int,
    trials: int,
    alpha: float,
    replicates: int,
    seed: int,
) -> PowerReport:
    """Rejection rates of the dcov and |pearson| permutation tests at level alpha."""
    if not (0.0 < alpha < 1.0):
        raise UsageError(f"alpha must be in (0, 1), got {alpha}")
    check_count("trials", trials)
    check_count("replicates", replicates)
    check_count("seed", seed, 0)
    check_count("n", n, 2)
    if scenario not in SCENARIOS:
        raise UsageError(f"unknown scenario {scenario!r}; known: {', '.join(SCENARIOS)}")

    reject_dcov = 0
    reject_pearson = 0
    for trial in range(trials):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
        data_seed, dcov_seed, pear_seed = ss.generate_state(3)
        rng = np.random.default_rng(data_seed)
        xv, yv = _draw_scenario(scenario, n, rng)
        res = permutation_test(xv, yv, replicates, int(dcov_seed))
        if res.p_value <= alpha:
            reject_dcov += 1
        p_pear = _pearson_permutation_pvalue(xv, yv, replicates, int(pear_seed))
        if p_pear <= alpha:
            reject_pearson += 1

    return PowerReport(
        scenario=scenario,
        n=n,
        trials=trials,
        alpha=alpha,
        replicates=replicates,
        rejection_rate_dcov=reject_dcov / trials,
        rejection_rate_pearson=reject_pearson / trials,
        seed=seed,
    )
