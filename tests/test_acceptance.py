"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""
import math
import time
import tracemalloc

import numpy as np
import pytest

from distcorr.core import (
    BLOCK_BYTES,
    DEFAULT_MEMORY_BUDGET,
    _built,
    block_rows,
    dcor,
    dcov_sq,
    double_center,
    pearson,
)
from distcorr.inference import permutation_test, power_simulation
from distcorr.oracles import dcov_sq_oracle_sums, dcov_sq_via_integral
from distcorr.samples import as_sample
from distcorr.screening import (
    Dataset,
    emit_plot_data,
    flag_outliers,
    load_dataset,
    pairwise_screen,
)
from distcorr.singular import SingularParams, c_p, singular_constant, verify_singular_integral

from centered import dense


def report(name: str, ok: bool):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {name}"


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def test_oracle_equivalence_algebraic():
    start = time.monotonic()
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        x = rng.normal(size=(n, int(rng.integers(1, 4))))
        y = rng.normal(size=(n, int(rng.integers(1, 4))))
        v_direct = dcov_sq(x, y)
        v_stream = _built(as_sample(x), block_rows(n, BLOCK_BYTES), False).inner(
            _built(as_sample(y), block_rows(n, BLOCK_BYTES), False))
        v_sums = dcov_sq_oracle_sums(x, y)
        worst = max(
            worst,
            rel_diff(v_direct, v_stream),
            rel_diff(v_direct, v_sums),
            rel_diff(v_stream, v_sums),
        )
    elapsed = time.monotonic() - start
    report("oracle-equivalence-algebraic", worst <= 1e-12 and elapsed < 10.0)


def test_oracle_equivalence_integral():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(10):
        n = int(rng.integers(2, 6))
        x = rng.normal(size=(n, 1))
        y = rng.normal(size=(n, 1))
        ref = dcov_sq(x, y)
        quad = dcov_sq_via_integral(x, y)
        ok = ok and abs(quad.value - ref) <= max(1e-2 * abs(ref), 3 * quad.error_estimate)
    elapsed = time.monotonic() - start
    report("oracle-equivalence-integral", ok and elapsed < 300.0)


def test_singular_integral_identity():
    start = time.monotonic()
    ok = True
    for alpha in (0.5, 1.0, 1.5):
        for x in (0.5, 1.0, 2.0):
            check = verify_singular_integral(SingularParams(alpha, x))
            ok = ok and abs(check.numeric - check.closed_form) <= 1e-4 * check.closed_form
    elapsed = time.monotonic() - start
    report("singular-integral", ok and elapsed < 60.0)


def test_constant_identity():
    ok = all(
        rel_diff(singular_constant(p, 1.0), c_p(p)) <= 1e-12 for p in range(1, 11)
    )
    ok = ok and rel_diff(c_p(1), math.pi) <= 1e-12
    ok = ok and rel_diff(c_p(2), 2 * math.pi) <= 1e-12
    ok = ok and rel_diff(c_p(3), math.pi**2) <= 1e-12
    report("constant-identity", ok)


def test_hand_values():
    two = [[0.0], [1.0]]
    stats = dcor(two, two)
    ok = abs(stats.dcov_sq - 0.25) <= 1e-12
    ok = ok and abs(stats.dcor - 1.0) <= 1e-12
    ok = ok and abs(pearson([1, 2, 3], [1, 3, 2]) - 0.5) <= 1e-12
    report("hand-values", ok)


def test_invariance_suite():
    start = time.monotonic()
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(50):
        n = int(rng.integers(4, 16))
        dx, dy = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x = rng.normal(size=(n, dx))
        y = rng.normal(size=(n, dy))
        v0 = dcov_sq(x, y)
        r0 = dcor(x, y).dcor
        scale_tol = 1e-10 * max(v0, 1e-30)

        # translation invariance of dcov_sq
        ok = ok and abs(dcov_sq(x + rng.normal(size=dx), y + rng.normal(size=dy)) - v0) <= scale_tol
        # scale covariance of dcov_sq
        a, b = rng.uniform(-3, 3, size=2)
        ok = ok and abs(dcov_sq(a * x, b * y) - abs(a) * abs(b) * v0) <= 1e-10 * max(
            abs(a) * abs(b) * v0, 1e-30
        )
        # orthogonal and scale invariance of dcor
        u, _ = np.linalg.qr(rng.normal(size=(dx, dx)))
        v, _ = np.linalg.qr(rng.normal(size=(dy, dy)))
        ok = ok and abs(dcor(x @ u, y @ v).dcor - r0) <= 1e-10 * max(r0, 1.0)
        c, d = rng.uniform(0.1, 5, size=2) * rng.choice([-1, 1], size=2)
        ok = ok and abs(dcor(c * x, d * y).dcor - r0) <= 1e-10 * max(r0, 1.0)
    elapsed = time.monotonic() - start
    report("invariance-suite", ok and elapsed < 10.0)


def test_nonlinear_detection():
    start = time.monotonic()
    rng = np.random.default_rng(314)
    x = rng.uniform(-1.0, 1.0, 200)
    y = x * x
    res = permutation_test(x, y, replicates=999, seed=314)
    ok = res.p_value <= 0.01 and abs(pearson(x, y)) <= 0.2

    rep = power_simulation("quadratic", n=200, trials=100, alpha=0.05, replicates=199, seed=2024)
    ok = ok and rep.rejection_rate_dcov >= 0.95 and rep.rejection_rate_pearson <= 0.20
    elapsed = time.monotonic() - start
    report("nonlinear-detection", ok and elapsed < 120.0)


def test_size_calibration():
    start = time.monotonic()
    rep = power_simulation("independent", n=50, trials=200, alpha=0.05, replicates=199, seed=2024)
    elapsed = time.monotonic() - start
    report(
        "size-calibration",
        0.01 <= rep.rejection_rate_dcov <= 0.10 and elapsed < 120.0,
    )


def _write_fixture(path, n_rows, groups=None, seed=0):
    rng = np.random.default_rng(seed)
    names = [f"v{i:02d}" for i in range(33)]
    with open(path, "w") as fh:
        if groups:
            fh.write("grp," + ",".join(names) + "\n")
            for i in range(n_rows):
                g = groups[i % len(groups)]
                fh.write(g + "," + ",".join(repr(float(v)) for v in rng.normal(size=33)) + "\n")
        else:
            fh.write(",".join(names) + "\n")
            for _ in range(n_rows):
                fh.write(",".join(repr(float(v)) for v in rng.normal(size=33)) + "\n")


def test_figure1_count_anchor(tmp_path):
    single = tmp_path / "single.csv"
    _write_fixture(single, 30)
    table = pairwise_screen(load_dataset(single))
    ok = len(table.records) == 528

    grouped = tmp_path / "grouped.csv"
    _write_fixture(grouped, 48, groups=["t1", "t2", "t3", "t4"])
    gtable = flag_outliers(pairwise_screen(load_dataset(grouped, group_by="grp")))
    counts = {}
    for rec in gtable.records:
        counts[rec.group] = counts.get(rec.group, 0) + 1
    ok = ok and counts == {"t1": 528, "t2": 528, "t3": 528, "t4": 528}

    out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    emit_plot_data(gtable, "csv", out1)
    emit_plot_data(gtable, "csv", out2)
    ok = ok and out1.read_bytes() == out2.read_bytes()
    report("figure1-count-anchor", ok)


def test_performance_load(tmp_path):
    # the paper's table: 15 352 galaxies x 33 columns, and a group column
    path = tmp_path / "galaxies.csv"
    _write_fixture(path, 15_352, groups=["t1", "t2", "t3", "t4"], seed=8)
    tracemalloc.start()
    start = time.monotonic()
    ds = load_dataset(path, group_by="grp")
    elapsed = time.monotonic() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    ok = elapsed < 10.0 and peak <= 8 * 2**20 and ds.row_count == 15_352 and len(ds.columns) == 33
    print(f"  load 15352 x 33 and a group column: {elapsed:.2f}s, peak {peak / 2**20:.1f} MiB")
    report("performance-load", ok)


def test_performance_streaming():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(10_000, 1))
    y = rng.normal(size=(10_000, 1))
    tracemalloc.start()
    start = time.monotonic()
    value = _built(as_sample(x), block_rows(len(x), BLOCK_BYTES), False).inner(
        _built(as_sample(y), block_rows(len(y), BLOCK_BYTES), False))
    elapsed = time.monotonic() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    ok = elapsed < 60.0 and peak < DEFAULT_MEMORY_BUDGET and value >= 0.0
    print(f"  streaming N=10000: {elapsed:.1f}s, peak {peak / 2**20:.0f} MiB")
    report("performance-streaming", ok)


def test_performance_sorted():
    rng = np.random.default_rng(2)
    x = rng.normal(size=100_000)
    y = rng.normal(size=100_000)
    tracemalloc.start()
    start = time.monotonic()
    stats = dcor(x, y)  # 80 GB per N x N matrix: far above the default budget
    elapsed = time.monotonic() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # the sorted path against the materialized one on the first 3000 rows, with the
    # scale the oracle tests use: the three-term expansion cancels by a factor of
    # about n when x and y are independent, so the scale is sum(|A * B|) / n^2
    head_x, head_y = x[:3000], y[:3000]
    a, b = double_center(head_x), double_center(head_y)  # materialized: no budget
    scale = float(np.abs(dense(a) * dense(b)).mean())
    materialized = a.inner(b)
    gap = abs(dcov_sq(head_x, head_y, memory_budget=8) - materialized)
    ok = elapsed < 10.0 and peak < 64 * 2**20 and gap <= 1e-12 * scale and 0.0 <= stats.dcor <= 1.0
    print(f"  sorted N=100000: {elapsed:.2f}s, peak {peak / 2**20:.1f} MiB, "
          f"gap {gap / scale:.1e} of scale, {gap / materialized:.1e} of the value")
    report("performance-sorted", ok)


def test_performance_screen_past_stack_rule():
    # one group of 33 columns x 2000 rows: past the stack rule, (K + 2) 8 n^2 > 1 GiB
    k, n = 33, 2000
    rng = np.random.default_rng(6)
    ds = Dataset(columns={f"v{i:02d}": rng.standard_normal(n) for i in range(k)}, row_count=n)
    tracemalloc.start()
    start = time.monotonic()
    table = pairwise_screen(ds)
    elapsed = time.monotonic() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # sorted forms of the stack and the O(n) vectors of cross_term: no n x n matrix or layout
    bound = 8 * n * (8 * k + 128)
    ok = elapsed < 10.0 and peak <= bound and len(table.records) == k * (k - 1) // 2
    print(f"  screen K=33, N=2000 past the stack rule: {elapsed:.2f}s, peak {peak / 2**20:.1f} MiB "
          f"(bound {bound / 2**20:.1f} MiB)")
    report("performance-screen-past-stack-rule", ok)


def test_performance_replicates():
    rng = np.random.default_rng(3)
    x = rng.normal(size=2000)
    y = np.sin(2 * x) + 0.3 * rng.normal(size=2000)
    tracemalloc.start()
    start = time.monotonic()
    res = permutation_test(x, y, replicates=99, seed=4)
    elapsed = time.monotonic() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    gap = rel_diff(res.statistic, dcov_sq(x, y))
    # x's shift layout, one 1 MiB block of shifts of y's distances and O(n): no n x n matrix
    n = len(x)
    bound = 8 * n * (n // 2) + BLOCK_BYTES + 80 * 8 * n
    ok = elapsed < 60.0 and peak <= bound and gap <= 1e-12 and res.exceed_count == 0
    print(f"  permutation test N=2000, B=99: {elapsed:.2f}s, peak {peak / 2**20:.1f} MiB, "
          f"statistic {gap:.1e} from dcov_sq")
    report("performance-replicates", ok)
