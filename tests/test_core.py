import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import distcorr
from distcorr import core
from distcorr.core import (
    CenteredMatrix,
    correlation,
    cross_term,
    dcor,
    dcov_sq,
    double_center,
    gram,
    pairwise_distances,
    pearson,
)
from distcorr.errors import (
    DataQualityError,
    DegenerateVarianceError,
    DimensionMismatchError,
)
from distcorr.oracles import dcov_sq_oracle_sums
from distcorr.samples import _deviations, _euclidean, _shift_distances, as_sample

from centered import dense


def finite_samples(max_n=20, max_dim=3):
    return st.integers(2, max_n).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda d: arrays(
                np.float64,
                (n, d),
                elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
            )
        )
    )


@st.composite
def oracle_pairs(draw, max_n=10):
    """(x, y) with n in 1..max_n: real or heavily tied integer columns, maybe offset by 1e8."""
    n = draw(st.integers(1, max_n))

    def sample():
        tied = draw(st.booleans())
        elements = st.integers(0, 2).map(float) if tied else st.floats(-100, 100)
        x = draw(arrays(np.float64, (n, draw(st.integers(1, 3))), elements=elements))
        return x + draw(st.sampled_from([0.0, 1e8, -3e8]))

    return sample(), sample()


@st.composite
def scalar_oracle_pairs(draw, max_n=40):
    """Scalar (x, y) with n in 1..max_n: real or heavily tied, maybe offset by 1e8, maybe scaled by 1e+-150."""
    n = draw(st.integers(1, max_n))

    def sample():
        tied = draw(st.booleans())
        elements = st.integers(0, 2).map(float) if tied else st.floats(-1, 1)
        x = draw(arrays(np.float64, n, elements=elements)) + draw(st.sampled_from([0.0, 1e8, -1e8]))
        return x * draw(st.sampled_from([1.0, 1e150, 1e-150]))

    return sample(), sample()


def test_every_exported_name_resolves():
    for name in distcorr.__all__:
        assert getattr(distcorr, name, None) is not None, name


@pytest.mark.parametrize("data, error", [
    (np.zeros((2, 2, 2)), "sample must be 1-D or 2-D, got ndim=3"),
    (np.zeros(0), r"sample must have n >= 1 and dim >= 1, got shape \(0, 1\)"),
], ids=["3-d", "empty"])
def test_as_sample_rejects_shapes(data, error):
    with pytest.raises(DataQualityError, match=error):
        as_sample(data)


class TestPairwiseDistances:
    def test_single_point(self):
        d = pairwise_distances([[0.0]])
        assert d.tolist() == [[0.0]]

    def test_scalar_absolute_difference(self):
        d = pairwise_distances([[0.0], [3.0]])
        assert d.tolist() == [[0.0, 3.0], [3.0, 0.0]]

    def test_3_4_5_triangle(self):
        d = pairwise_distances([[0.0, 0.0], [3.0, 4.0]])
        assert d[0, 1] == 5.0
        assert d[1, 0] == 5.0

    def test_rejects_nan_naming_row(self):
        with pytest.raises(DataQualityError, match="row 1"):
            pairwise_distances([[0.0], [np.nan], [1.0]])

    def test_gap_that_squares_to_a_subnormal_is_kept(self):
        # next to a coordinate of 1, a gap of 2.2e-309 squares to 0 unless the kernels take np.hypot
        x = np.array([[2.2e-309, 1.0], [0.0, 1.0], [0.0, 0.5]])
        d, k = pairwise_distances(x), np.arange(3)
        assert d[0, 1] == d[1, 0] == 2.2e-309
        assert d[0, 2] == math.hypot(2.2e-309, 0.5)
        for s in (1, 2):
            assert np.array_equal(_shift_distances(x, s, s + 1)[0], d[k, (k + s) % 3])
        y = np.array([[40.0], [0.0], [3.0]])
        assert core.dcov_sq(y, x) == pytest.approx(dcov_sq_oracle_sums(y, x), rel=1e-12)

    @given(finite_samples())
    @settings(max_examples=50, deadline=None)
    def test_symmetric_zero_diagonal(self, x):
        d = pairwise_distances(x)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_kernel_bitwise_equals_scipy_cdist(self):
        # scipy is a test-time reference only; the package does not depend on it
        distance = pytest.importorskip("scipy.spatial.distance")
        rng = np.random.default_rng(12)
        for d in range(1, 6):
            for n_a, n_b in ((1, 1), (5, 9), (150, 70)):
                xa = rng.normal(size=(n_a, d)) * rng.uniform(0.01, 100)
                xb = rng.normal(size=(n_b, d)) * rng.uniform(0.01, 100)
                assert np.array_equal(_euclidean(xa, xb), distance.cdist(xa, xb))
                assert np.array_equal(_euclidean(xa, xa), distance.cdist(xa, xa))

    def test_shift_kernel_bitwise_equals_euclidean(self):
        rng = np.random.default_rng(13)
        for n, dim in ((2, 1), (7, 1), (40, 1), (2, 3), (9, 3), (40, 3)):
            x = rng.normal(size=(n, dim)) * rng.uniform(0.01, 100) + rng.choice([0.0, 1e8])
            d, k = _euclidean(x, x), np.arange(n)
            shifts = _shift_distances(x, 1, n)
            for s in range(1, n):
                assert np.array_equal(shifts[s - 1], d[k, (k + s) % n])
            assert np.array_equal(_shift_distances(x, 2, n // 2 + 1), shifts[1:n // 2])
            # written into the first rows of larger arrays given to it, bit for bit alike
            out, tmp = np.full((n, n), np.nan), np.full((n, n), np.nan)
            got = _shift_distances(x, 1, n // 2 + 1, out, tmp)
            assert np.shares_memory(got, out) and np.array_equal(got, shifts[:n // 2])

    def test_cli_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(distcorr.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, distcorr.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    @given(finite_samples(max_n=8))
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, x):
        d = pairwise_distances(x)
        n = d.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestDoubleCenter:
    def test_zero_matrix(self):
        c = double_center([[0.0], [0.0]])
        assert np.all(dense(c) == 0.0)

    def test_hand_two_point(self):
        c = double_center([[0.0], [3.0]])
        assert np.allclose(dense(c), [[-1.5, 1.5], [1.5, -1.5]], atol=1e-15)
        assert c.shifts.tolist() == [[-1.5, -1.5], [1.5, 1.5]]
        assert c.row_mean.tolist() == [1.5, 1.5]
        assert c.grand_mean == 1.5

    @pytest.mark.parametrize("n", [10, 11])
    def test_layout_row_zero_is_the_diagonal(self, n):
        # A_kk = m - 2 m_k bit for bit, on every kind of layout: shift 0's distances are 0
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(3, n)) * np.array([[1e-3], [1.0], [1e5]]) + 1e8
        x = rng.normal(size=(n, 3))
        stored = core._centered_columns(stack, core._unit_exponents(stack))[0] + [core._built(as_sample(x), n, True)]
        streaming = double_center(x, memory_budget=3 * 8 * n)
        sorted_form = double_center(stack[1], memory_budget=8)
        assert streaming.shifts is None and sorted_form.order is not None
        layouts = [(c, c.shifts) for c in stored] + [
            (c, core._centered_shifts(c, 0, 1)) for c in (streaming, sorted_form)]
        for c, layout in layouts:
            assert np.array_equal(layout[0], c.grand_mean - 2.0 * c.row_mean)

    @given(finite_samples())
    @settings(max_examples=50, deadline=None)
    def test_row_and_column_sums_vanish(self, x):
        d = pairwise_distances(x)
        c = double_center(x)
        tol = 1e-9 * len(d) * max(d.max(), 1.0)
        assert np.all(np.abs(dense(c).sum(axis=0)) <= tol)
        assert np.all(np.abs(dense(c).sum(axis=1)) <= tol)

    @pytest.mark.parametrize("budget, bound", [(None, 112), (3 * 8 * 2000 * 64, 170)], ids=["stored", "streaming"])
    def test_multivariate_build_traced_peak(self, budget, bound):
        # stored, or streaming in blocks of 64 shifts: above the layout, the kernel's
        # temporaries and a few n-vectors, with no copy of a block for its mirrored sums
        n = 2000
        x = np.random.default_rng(24).standard_normal((n, 3))
        tracemalloc.start()
        try:
            c = double_center(x, memory_budget=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (c.shifts is None) == (budget is not None)
        assert peak <= (0 if c.shifts is None else c.shifts.nbytes) + bound * 8 * n
        expected = pairwise_distances(x).mean(axis=1)
        assert np.all(np.abs(c.row_mean - expected) <= 1e-14 * expected)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_stack_rows_equal_columns_alone(self, data):
        # each row of a stack takes the arithmetic of a stack of one, bit for bit
        n = data.draw(st.integers(1, 12))
        rows = []
        for _ in range(data.draw(st.integers(1, 4))):
            elements = st.integers(0, 2).map(float) if data.draw(st.booleans()) else st.floats(-100, 100)
            scale = data.draw(st.sampled_from([1.0, 1e-300, 1e160]))
            rows.append(data.draw(arrays(np.float64, n, elements=elements)) * scale
                        + data.draw(st.sampled_from([0.0, 1e8])))
        stack = np.array(rows)
        exponents = core._unit_exponents(stack)
        forms, deviations = core._centered_columns(stack, exponents)
        for j, (x, c) in enumerate(zip(rows, forms)):
            alone = core._scaled(x)
            assert c.scale == alone.scale == exponents[j]
            assert np.array_equal(c.sample.data, alone.sample.data)
            assert np.array_equal(c.shifts, alone.shifts)
            assert np.array_equal(c.row_mean, alone.row_mean) and c.grand_mean == alone.grand_mean
            assert np.array_equal(deviations[j], c.sample.deviations[0])
            assert np.array_equal(c.shifts[0], c.grand_mean - 2.0 * c.row_mean)
            d, e = _deviations(alone.sample.data[:, 0])
            assert np.array_equal(d, deviations[j]) and e == c.sample.deviations[1]


class TestDcovSq:
    def test_two_point_hand_value(self):
        assert dcov_sq([[0.0], [1.0]], [[0.0], [1.0]]) == pytest.approx(0.25, abs=1e-15)

    def test_constant_sample_gives_zero(self):
        y = np.random.default_rng(0).normal(size=(6, 2))
        assert dcov_sq(np.ones((6, 1)), y) == 0.0

    def test_mismatched_n(self):
        with pytest.raises(DimensionMismatchError):
            dcov_sq(np.zeros((3, 1)), np.zeros((4, 1)))

    def test_single_observation_is_zero(self):
        assert dcov_sq([[1.0]], [[2.0]]) == 0.0

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(12, 2)), rng.normal(size=(12, 3))
        a, b = dcov_sq(x, y), dcov_sq(y, x)
        assert abs(a - b) <= 1e-12 * max(a, b)

    def test_streaming_matches_materialized(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 200))
            x = rng.normal(size=(n, int(rng.integers(1, 4))))
            y = rng.normal(size=(n, int(rng.integers(1, 4))))
            v_mat = double_center(x).inner(double_center(y))
            v_str = core._built(as_sample(x), 37, False).inner(core._built(as_sample(y), 37, False))
            assert abs(v_mat - v_str) <= 1e-10 * max(abs(v_mat), 1e-30)

    @given(oracle_pairs())
    @settings(max_examples=150, deadline=None)
    def test_paths_agree_with_oracle_sums(self, pair):
        x, y = pair
        a, b = double_center(x), double_center(y)
        scale = float(np.abs(dense(a) * dense(b)).mean())
        oracle = dcov_sq_oracle_sums(x, y)
        # below the smallest normal float64 there is no relative precision left
        tol = 1e-12 * scale + np.finfo(np.float64).tiny
        assert abs(a.inner(b) - oracle) <= tol
        # every block size of the shift sum, n even and odd: shift 0 alone, and the n/2 row
        for rows in range(1, len(x) // 2 + 2):
            sx, sy = core._built(as_sample(x), rows, False), core._built(as_sample(y), rows, False)
            for value in (sx.inner(sy), a.inner(sy)):
                assert abs(value - oracle) <= tol

    @given(scalar_oracle_pairs())
    @settings(max_examples=100, deadline=None)
    def test_sorted_path_agrees_with_oracle_sums(self, pair):
        x, y = pair
        a, b = double_center(x), double_center(y)
        scale = float(np.abs(dense(a) * dense(b)).mean())
        # a budget of 8 bytes leaves no room for a row: both sides take the sorted form
        value = dcov_sq(x, y, memory_budget=8)
        assert abs(value - dcov_sq_oracle_sums(x, y)) <= 1e-12 * scale + np.finfo(np.float64).tiny
        # against itself a sorted form takes sum (x_k - x_l)^2 in O(n), not cross_term
        s = double_center(x, memory_budget=8)
        scale = float(np.abs(dense(a) * dense(a)).mean())
        assert abs(s.inner(s) - dcov_sq_oracle_sums(x, x)) <= 1e-12 * scale + np.finfo(np.float64).tiny

    def test_sorted_scalar_with_streaming_multivariate_matches_materialized(self):
        rng = np.random.default_rng(17)
        for n in (4, 7, 150):
            x, y = rng.normal(size=(n, 1)) + 1e3, rng.normal(size=(n, 3))
            expected = double_center(x).inner(double_center(y))
            for rows in range(1, n // 2 + 2):  # every block size: shift 0 alone, and the n/2 row
                a, b = double_center(x, memory_budget=rows * 8 * n), double_center(y, memory_budget=rows * 8 * n)
                assert a.order is not None and a.shifts is None
                assert b.order is None and b.shifts is None and b.block_rows == rows
                for value in (a.inner(b), b.inner(a)):
                    assert abs(value - expected) <= 1e-12 * max(expected, 1e-300)

    def test_cross_term_matches_direct_sum(self):
        rng = np.random.default_rng(18)
        for n in (1, 2, 3, 16, 33):
            x = rng.integers(0, 4, n).astype(float)  # heavy ties on both sides
            y = rng.normal(size=n) if n % 2 else rng.integers(0, 3, n).astype(float)
            direct = float((np.abs(np.subtract.outer(x, x)) * np.abs(np.subtract.outer(y, y))).sum())
            orders = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
            assert cross_term(x, y, *orders) == pytest.approx(direct, rel=1e-13, abs=1e-13)

    def test_sorted_dcor_takes_one_cross_term(self, monkeypatch):
        calls = []
        merge = core.cross_term
        monkeypatch.setattr(core, "cross_term", lambda *a: calls.append(len(a[0])) or merge(*a))
        rng = np.random.default_rng(23)
        stats = dcor(rng.normal(size=50), rng.normal(size=50), memory_budget=8)
        assert calls == [50]  # dcov^2 only: each dVar^2 is O(n)
        assert stats.dcor > 0.0

    def test_sorted_dcor_traced_peak_is_linear(self):
        rng = np.random.default_rng(16)
        n = 20_000  # 3.2 GB per N x N matrix; about 27 floats per row in the sorted form
        x, y = rng.normal(size=n), rng.normal(size=n)
        tracemalloc.start()
        try:
            dcor(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 8 * n

    @pytest.mark.parametrize("dim", [1, 3])
    def test_memory_budget_bounds_traced_peak(self, dim):
        # either side of the dispatch boundary, and with streaming blocks sized
        # from budgets far below it, the peak stays within the budget plus O(n):
        # the kernel's row blocks and a few length-n arrays
        rng = np.random.default_rng(13)
        x, y = rng.normal(size=(2000, dim)), rng.normal(size=(2000, 1))
        boundary = 2 * 8 * 2000 * 2000
        budgets = (boundary, boundary - 1, boundary // 2, 10**7, 10**6)
        for n, budget in [(2000, b) for b in budgets] + [(64, 1024)]:
            tracemalloc.start()
            try:
                dcor(x[:n], y[:n], memory_budget=budget)
                dcov_sq(x[:n], y[:n], memory_budget=budget)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= budget + 80 * 8 * n

    def test_two_streaming_samples_stay_within_the_budget(self):
        # both multivariate: a block of each side fills the budget, and on top of it one
        # temporary of the distance kernel (64 rows) and a few length-n arrays and buffers
        rng = np.random.default_rng(21)
        n = 2000
        x, y = rng.normal(size=(n, 3)), rng.normal(size=(n, 2))
        for budget in (10**7, 10**6):
            tracemalloc.start()
            try:
                dcov_sq(x, y, memory_budget=budget)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= budget + 96 * 8 * n

    def test_streaming_sum_reuses_one_block_per_side(self):
        # cache-sized blocks at 32 MiB (43 shifts): each side rebuilds into one block for the whole
        # sum, and the kernel's temporary on top stays below 64 shifts; the value is pinned
        rng = np.random.default_rng(22)
        n = 3000
        x, y = rng.normal(size=(n, 3)), rng.normal(size=(n, 2))
        y[:, 0] += x[:, 0] ** 2
        tracemalloc.start()
        try:
            stats = dcor(x, y, memory_budget=32 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (stats.dcor.hex(), stats.dcov_sq.hex()) == ("0x1.cae1d52e295bfp-3", "0x1.03dfa0bf1f55ep-5")
        assert peak <= 2 * core.BLOCK_BYTES + 8 * n * 64

        # the dense centered matrices in long double, a block of rows at a time
        def distances(z, k0):
            z = z.astype(np.longdouble)
            return np.sqrt(((z[k0:k0 + 100, None, :] - z[None, :, :]) ** 2).sum(axis=-1))

        means = [np.concatenate([distances(z, k0).mean(axis=1) for k0 in range(0, n, 100)]) for z in (x, y)]
        reference = np.longdouble(0.0)
        for k0 in range(0, n, 100):
            a, b = (distances(z, k0) - m[k0:k0 + 100, None] - m[None, :] + m.mean() for z, m in zip((x, y), means))
            reference += (a * b).sum() / (n * n)
        assert abs(stats.dcov_sq - reference) <= 3.2e-16 * reference  # below the 3.22e-16 of 512-shift blocks

    def test_auto_dispatch_small_budget_uses_streaming(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(64, 1)), rng.normal(size=(64, 1))
        # budget too small to materialize a 64x64 matrix
        v = dcov_sq(x, y, memory_budget=1024)
        assert v == pytest.approx(double_center(x).inner(double_center(y)), rel=1e-10)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x, y = rng.normal(size=(15, 2)), rng.normal(size=(15, 3))
            v0 = dcov_sq(x, y)
            v1 = dcov_sq(x + rng.normal(size=2), y + rng.normal(size=3))
            assert abs(v0 - v1) <= 1e-10 * max(v0, 1e-30)

    def test_scale_covariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x, y = rng.normal(size=(10, 2)), rng.normal(size=(10, 1))
            a, b = rng.uniform(-3, 3, size=2)
            v0 = dcov_sq(x, y)
            v1 = dcov_sq(a * x, b * y)
            assert abs(v1 - abs(a) * abs(b) * v0) <= 1e-10 * max(v0, 1e-30)
        # each sample is centered at unit scale; a value beyond float64's range reads inf
        assert dcov_sq(1e-160 * x, 1e160 * y) == pytest.approx(v0, rel=1e-10)
        assert dcov_sq(1e160 * x, 1e160 * y) == np.inf


class TestInner:
    @pytest.mark.parametrize("streaming_self", [False, True])
    def test_negative_sum_raises_or_clamps(self, streaming_self):
        x = np.random.default_rng(15).normal(size=(40, 2))
        a = double_center(x)
        # a budget of three rows per block
        left = double_center(x, memory_budget=3 * 8 * 40) if streaming_self else a
        assert (left.shifts is None) == streaming_self
        # -A: its shifts, the diagonal m - 2 m_k among them, negated
        flipped = CenteredMatrix(a.sample, -a.row_mean, -a.grand_mean, shifts=-a.shifts)
        assert np.array_equal(dense(flipped), -dense(a))
        with pytest.raises(DataQualityError, match="significantly negative"):
            left.inner(flipped)
        tiny = CenteredMatrix(a.sample, -1e-20 * a.row_mean, -1e-20 * a.grand_mean, shifts=-1e-20 * a.shifts)
        assert left.inner(tiny) == 0.0

    def test_nan_sum_raises(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=50)
        y = x * x + 0.1 * rng.normal(size=50)
        # unscaled, the products overflow to inf of both signs, and their sum is NaN
        a, b = double_center(1e160 * x), double_center(1e160 * y)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DataQualityError, match="NaN"):
            a.inner(b)

    def test_sorted_negative_sum_raises_or_clamps(self):
        # inner(a, a) = C / n^2 - 2 mean(m_k^2) + g^2 for row means m_k and grand mean g.
        # Moving the other side's grand mean to g - (t + d) / g makes it t - (t + d) = -d,
        # with t the true value and d a share of the scale, the three terms' magnitudes.
        x = np.random.default_rng(19).normal(size=40)
        a = double_center(x, memory_budget=8)
        n, g = a.n, a.grand_mean
        t = a.inner(a)
        c = float((np.abs(np.subtract.outer(x, x)) ** 2).sum()) / n**2
        scale = c + 2.0 * float(np.mean(a.row_mean**2)) + g * g
        assert t == pytest.approx(c - 2.0 * float(np.mean(a.row_mean**2)) + g * g, rel=1e-9)
        for share, clamps in ((1e-6, False), (1e-14, True)):
            moved = CenteredMatrix(
                a.sample, a.row_mean, g - (t + share * scale) / g, block_rows=a.block_rows, order=a.order
            )
            if clamps:
                assert a.inner(moved) == 0.0
            else:
                with pytest.raises(DataQualityError, match="significantly negative"):
                    a.inner(moved)


class TestGram:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 10])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_inner_and_oracle_sums(self, n, data):
        def sample():  # real or tied integer, maybe offset by 1e8, maybe constant
            kind = data.draw(st.sampled_from(["real", "tied", "constant"]))
            if kind == "constant":
                return np.full((n, 1), data.draw(st.floats(-100, 100)))
            elements = st.integers(0, 2).map(float) if kind == "tied" else st.floats(-100, 100)
            x = data.draw(arrays(np.float64, (n, data.draw(st.integers(1, 2))), elements=elements))
            return x + data.draw(st.sampled_from([0.0, 1e8]))

        xs = [sample() for _ in range(data.draw(st.integers(1, 4)))]
        forms = [double_center(x) for x in xs]
        layouts = np.stack([c.shifts for c in forms])
        g = gram(layouts)
        assert g.shape == (len(xs), len(xs))
        # a star takes row and column c and the diagonal, as the whole product does
        c = data.draw(st.integers(0, len(xs) - 1))
        star = gram(layouts, star=c)
        taken = np.eye(len(xs), dtype=bool)
        taken[c] = taken[:, c] = True
        assert np.isnan(star[~taken]).all()
        assert np.allclose(star[taken], g[taken], rtol=1e-12, atol=np.finfo(np.float64).tiny)
        for i, a in enumerate(forms):
            for j, b in enumerate(forms):
                scale = float(np.abs(dense(a) * dense(b)).mean())
                tol = 1e-12 * scale + np.finfo(np.float64).tiny
                assert abs(g[i, j] - a.inner(b)) <= tol
                assert abs(g[i, j] - dcov_sq_oracle_sums(xs[i], xs[j])) <= tol


def random_orthogonal(dim, rng):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q


class TestDcor:
    def test_identical_samples(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        assert dcor(x, x).dcor == pytest.approx(1.0, abs=1e-12)

    def test_constant_sample_degenerate_convention(self):
        y = np.random.default_rng(0).normal(size=(8, 1))
        stats = dcor(np.full((8, 1), 3.0), y)
        assert stats.dcor == 0.0

    def test_affine_scalar_relationship(self):
        x = np.array([[0.0], [1.0], [4.0], [-2.0]])
        assert dcor(x, 2.0 * x + 3.0).dcor == pytest.approx(1.0, abs=1e-12)

    def test_pearson_only_for_scalar_pairs(self):
        rng = np.random.default_rng(4)
        assert dcor(rng.normal(size=(10, 2)), rng.normal(size=(10, 1))).pearson is None
        assert dcor(rng.normal(size=(10, 1)), rng.normal(size=(10, 1))).pearson is not None

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x, y = rng.normal(size=(12, 3)), rng.normal(size=(12, 2))
            u = random_orthogonal(3, rng)
            v = random_orthogonal(2, rng)
            r0 = dcor(x, y).dcor
            r1 = dcor(x @ u, y @ v).dcor
            assert abs(r0 - r1) <= 1e-10 * max(r0, 1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x, y = rng.normal(size=(12, 2)), rng.normal(size=(12, 1))
            a, b = rng.uniform(0.1, 5, size=2) * rng.choice([-1, 1], size=2)
            r0 = dcor(x, y).dcor
            r1 = dcor(a * x, b * y).dcor
            assert abs(r0 - r1) <= 1e-10 * max(r0, 1.0)
            for s in (1e-165, 1e155):  # squared distances would under- or overflow
                assert abs(dcor(s * x, s * y).dcor - r0) <= 1e-10 * max(r0, 1.0)
        stats = dcor(1e155 * x, 1e155 * y)
        assert stats.dcov_sq == np.inf
        assert stats.dvar_x == pytest.approx(1e155 * dcor(x, y).dvar_x, rel=1e-12)
        # a column range beyond float64's largest value, as in [-1e308, 1e308]
        wide = x / np.abs(x).max()
        assert dcor(1.7e308 * wide, y).dcor == pytest.approx(dcor(wide, y).dcor, rel=1e-12)

    def test_correlation_above_one_by_more_than_rounding_raises(self):
        assert correlation(1.0 + 1e-13, 1.0, 1.0) == 1.0
        with pytest.raises(DataQualityError, match="exceeded 1 by too much"):
            correlation(1.0 + 1e-9, 1.0, 1.0)

    @given(finite_samples(max_n=10))
    @settings(max_examples=30, deadline=None)
    def test_range(self, x):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(x.shape[0], 1))
        stats = dcor(x, y)
        assert 0.0 <= stats.dcor <= 1.0 + 1e-12


class TestPearson:
    def test_identity(self):
        x = [1.0, 2.0, 5.0]
        assert pearson(x, x) == 1.0

    def test_negation(self):
        x = np.array([1.0, 2.0, 5.0])
        assert pearson(x, -x) == -1.0

    def test_hand_value(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)

    def test_tiny_or_huge_spread_does_not_underflow(self):
        # the squared deviations of [2.3e-300, 0] underflow to 0 unless scaled first
        for x in ([2.3e-300, 0.0], [1e200, -1e200]):
            assert pearson(x, [0.0, 1.0]) == pytest.approx(-1.0, abs=1e-15)
            stats = dcor(x, [0.0, 1.0])
            assert stats.pearson == pytest.approx(-1.0, abs=1e-15)
            assert stats.dcor == pytest.approx(1.0, abs=1e-12)

    def test_scaling_leaves_ordinary_results_unchanged(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x, y = rng.normal(size=12) * 10.0 ** rng.integers(-5, 6), rng.normal(size=12)
            xd, yd = x - x.mean(), y - y.mean()
            plain = float(np.sum(xd * yd)) / (np.sqrt(np.sum(xd * xd)) * np.sqrt(np.sum(yd * yd)))
            assert pearson(x, y) == float(np.clip(plain, -1.0, 1.0))

    def test_sum_beyond_float_range_does_not_overflow(self):
        # the column's sum overflows float64 unless it is scaled before its mean is taken
        x, y = [1e308, 1.7e308, -1e308, 0.5e308], [1.0, 2.0, 3.0, 5.0]
        expected = dcor(x, y).pearson
        assert expected == pytest.approx(-0.3666, abs=1e-4)
        assert pearson(x, y) == expected

    def test_deviations_of_ordinary_data_are_unchanged_by_the_scaling(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            v = rng.normal(size=int(rng.integers(2, 40))) * 10.0 ** rng.integers(-200, 200)
            v += rng.choice([0.0, 3.0 * float(np.abs(v).max())])
            d, e = _deviations(v)
            plain = v - v.mean()
            f = math.frexp(float(np.abs(plain).max()))[1]
            assert e == f and np.array_equal(d, np.ldexp(plain, -f))

    def test_constant_raises(self):
        with pytest.raises(DegenerateVarianceError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_multivariate_or_single_row_raises(self):
        with pytest.raises(DataQualityError, match="scalar samples"):
            pearson(np.random.default_rng(16).normal(size=(3, 2)), [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateVarianceError, match="at least 2 observations"):
            pearson([1.0], [2.0])

    def test_constant_with_inexact_float_mean_raises(self):
        x = np.full(29, -0.41861994)
        assert x.mean() != x[0]  # the summed mean misses the value
        with pytest.raises(DegenerateVarianceError):
            pearson(x, np.arange(29.0))
        stats = dcor(x, np.arange(29.0), memory_budget=8)
        assert (stats.dcov_sq, stats.dvar_x, stats.dcor, stats.pearson) == (0.0, 0.0, 0.0, None)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x, y = rng.normal(size=10), rng.normal(size=10)
            a = rng.uniform(0.1, 4) * rng.choice([-1, 1])
            b = rng.normal()
            r0 = pearson(x, y)
            r1 = pearson(a * x + b, y)
            assert abs(r1 - np.sign(a) * r0) <= 1e-12
