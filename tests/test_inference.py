import os
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from distcorr import core, inference
from distcorr.core import dcov_sq, double_center
from distcorr.errors import DataQualityError, UsageError
from distcorr.inference import permutation_test, power_simulation
from distcorr.oracles import dcov_sq_oracle_sums
from distcorr.samples import _euclidean, _even_exponent, as_sample
from distcorr.screening import ScreenConfig

import centered
from centered import dense


@st.composite
def permuted_pairs(draw, max_n=12):
    """(x, y, perm): x scalar or 3-D, real or heavily tied, maybe offset by 1e8; perm of n."""
    n = draw(st.integers(2, max_n))

    def sample(dim):
        tied = draw(st.booleans())
        elements = st.integers(0, 2).map(float) if tied else st.floats(-100, 100)
        return draw(arrays(np.float64, (n, dim), elements=elements)) + draw(
            st.sampled_from([0.0, 1e8, -3e8])
        )

    x, y = sample(draw(st.sampled_from([1, 3]))), sample(draw(st.integers(1, 2)))
    return x, y, np.array(draw(st.permutations(range(n))))


def gather_exceedances(x, y, replicates, seed):
    """The earlier formula: B's rows and columns gathered by each permutation."""
    a, b = double_center(x), double_center(y)
    n = len(x)
    observed = a.inner(b)
    da, db = dense(a), dense(b)
    count = 0
    for rep in range(1, replicates + 1):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
        perm = rng.permutation(n)
        count += float(np.vdot(da, db[np.ix_(perm, perm)])) / (n * n) >= observed
    return count


class TestPermutationTest:
    def test_identity_dependence_small_pvalue(self):
        x = np.arange(20, dtype=float)
        res = permutation_test(x, x, replicates=199, seed=42)
        assert res.p_value <= 0.02

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(15, 1)), rng.normal(size=(15, 2))
        a = permutation_test(x, y, replicates=99, seed=7)
        b = permutation_test(x, y, replicates=99, seed=7)
        assert a == b

    def test_constant_sample_pvalue_one(self):
        y = np.random.default_rng(1).normal(size=10)
        res = permutation_test(np.zeros(10), y, replicates=49, seed=3)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_pvalue_formula_and_range(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=12), rng.normal(size=12)
        res = permutation_test(x, y, replicates=99, seed=11)
        assert res.p_value == (1 + res.exceed_count) / (1 + res.replicates)
        assert 1 / (res.replicates + 1) <= res.p_value <= 1.0

    def test_centered_inputs_give_the_same_result(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(20, 2)), rng.normal(size=(20, 1))
        res = permutation_test(x, y, replicates=19, seed=5)
        assert permutation_test(double_center(x), double_center(y), replicates=19, seed=5) == res

    @pytest.mark.parametrize("dim", [1, 3])
    def test_any_budget_gives_the_same_counts_within_it(self, dim, monkeypatch):
        # below one n x n matrix, A streams (dim 3) or takes the sorted form (dim 1)
        n = 600
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=(n, dim)), rng.normal(size=n)
        expected = permutation_test(x, y, replicates=9, seed=1)
        block = core.BLOCK_BYTES
        for budget, bound in [
            (8 * n * n // 2, 8 * n * n // 2),
            (1000, 1000),
            (core.DEFAULT_MEMORY_BUDGET, 8 * n * n + block),
        ]:
            monkeypatch.setattr(core, "DEFAULT_MEMORY_BUDGET", budget)
            tracemalloc.start()
            try:
                res = permutation_test(x, y, replicates=9, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res.exceed_count == expected.exceed_count
            assert res.statistic == pytest.approx(expected.statistic, rel=1e-12)
            assert peak <= bound + 80 * 8 * n

    @given(permuted_pairs())
    @settings(max_examples=150, deadline=None)
    def test_replicates_agree_with_oracle_sums(self, case):
        x, y, perm = case
        n = len(x)
        scale = float(np.abs(dense(double_center(x)) * dense(double_center(y[perm]))).mean())
        tol = 1e-12 * scale + np.finfo(np.float64).tiny
        oracle = dcov_sq_oracle_sums(x, y[perm])
        # materialized, and three rows per block: streaming for 3-D x, sorted for scalar x
        small = double_center(x, memory_budget=3 * 8 * n)
        assert (small.shifts is None) == (n > 3)
        for a, rows in [(double_center(x), n), (small, 3)]:
            assert abs(inference._permuted_dcov_sq(a, y, perm, rows) - oracle) <= tol

    @given(permuted_pairs(max_n=13))
    @settings(max_examples=150, deadline=None)
    def test_shift_layout_agrees_with_oracle_sums(self, case):
        # n even and odd, every shift block size, C kept and C rebuilt for each replicate
        x, y, perm = case
        n = len(x)
        a = double_center(x)
        scale = float(np.abs(dense(a) * dense(double_center(y[perm]))).mean())
        oracle = dcov_sq_oracle_sums(x, y[perm])
        for rows in range(1, n // 2 + 2):
            for kept in (a, replace(a, shifts=None)):
                value = inference._permuted_dcov_sq(kept, y, perm, rows)
                assert abs(value - oracle) <= 1e-12 * scale + np.finfo(np.float64).tiny

    def test_shift_layout_is_centered_matrix_over_unordered_pairs(self):
        for n in (6, 7):
            x = np.random.default_rng(n).normal(size=(n, 2))
            a = double_center(x)
            d = _euclidean(x, x)
            assert np.allclose(a.row_mean, d.mean(axis=1), rtol=1e-15, atol=0.0)
            # the n x n matrix centered in core._center's order, with the same row means
            full = d - a.row_mean[:, None] - a.row_mean[None, :] + a.grand_mean
            rebuilt = core._centered_shifts(a, 0, n // 2 + 1)
            k = np.arange(n)
            for s in range(n // 2 + 1):
                assert np.array_equal(a.shifts[s], full[k, (k + s) % n])
                assert np.array_equal(rebuilt[s], full[k, (k + s) % n])

    # y: (dims, kind); once scaled, "near1" has _even_exponent 0 (each column spans [0, 1.5]) and "far" 2
    Y_CASES = [(1, "normal"), (2, "far"), (2, "near1"), (3, "far"), (3, "near1"), (1, "tied"),
               (2, "tied"), (1, "constant"), (3, "constant")]

    @pytest.mark.parametrize("n, budget", [(n, b) for n in (2, 3, 17, 300, 301) for b in (1 << 30, 1_000_000, 1000)]
                             + [(3001, 1 << 30), (3001, 1_000_000)])
    def test_replicates_equal_the_reference_bit_for_bit(self, n, budget, monkeypatch):
        # 1 GiB: A stored, one block up to n = 301 and 35 at 3001; 1 MB: A stored in two blocks at
        # n = 300 and 301, rebuilt in blocks of 10 shifts at 3001; 1000: rebuilt a shift at a time from n = 17
        monkeypatch.setattr(core, "DEFAULT_MEMORY_BUDGET", budget)
        rng = np.random.default_rng(n)
        for i, (dim, kind) in enumerate(self.Y_CASES[::2] if n > 1000 else self.Y_CASES):
            y = rng.uniform(0.0, 1.5, (n, dim))
            y[:2] = [[0.0], [1.5]]
            y = {"normal": rng.normal(size=(n, dim)), "near1": y, "far": y + 6.0,
                 "tied": rng.integers(0, 3, (n, dim)).astype(float), "constant": np.full((n, dim), 2.5)}[kind]
            if kind in ("near1", "far"):
                assert _even_exponent(core._unit(as_sample(y))[0].data) == (kind == "far") * 2
            x = (y[:, :1] ** 2 + rng.normal(size=(n, 1))) @ np.ones((1, (1, 3, 2)[i % 3]))
            x += rng.normal(size=x.shape) * 0.1
            replicates = 3 if n > 1000 else 9 if n >= 300 else 19
            res = permutation_test(x, y, replicates, seed=i)
            with monkeypatch.context() as m:
                m.setattr(inference, "_permuted_dcov_sq", centered.replicate)
                ref = permutation_test(x, y, replicates, seed=i)
            case = (dim, kind, x.shape[1])
            assert (res.statistic.hex(), res.exceed_count) == (ref.statistic.hex(), ref.exceed_count), case

    def test_tiny_budget_rebuilds_c_for_each_replicate(self, monkeypatch):
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=(30, 2)), rng.normal(size=30)
        expected = permutation_test(x, y, replicates=9, seed=3)
        calls = []
        build = core._centered_shifts
        monkeypatch.setattr(core, "_centered_shifts", lambda *a: calls.append(a[1:3]) or build(*a))
        monkeypatch.setattr(core, "DEFAULT_MEMORY_BUDGET", 1000)
        res = permutation_test(x, y, replicates=9, seed=3)
        # one shift per block (16 blocks, shift 0's skipped), rebuilt for the statistic and each replicate
        assert calls == [(s, s + 1) for s in range(1, 16)] * 10
        assert res.exceed_count == expected.exceed_count
        assert res.statistic == pytest.approx(expected.statistic, rel=1e-12)

    # y's block: 1 MiB, or a quarter of the budget, of 8 n = 4800-byte shifts
    @pytest.mark.parametrize("budget, rows", [(core.DEFAULT_MEMORY_BUDGET, (1 << 20) // 4800),
                                              (3_000_000, 3_000_000 // 4 // 4800)], ids=["default", "3MB"])
    def test_one_rule_keeps_x_layout(self, budget, rows, monkeypatch):
        # at 3 MB and n = 600, x's layout (1.44 MB) fits next to y's block of `rows` shifts, while
        # x's 600 x 600 matrix does not fit what is left: a raw x is still built stored at once
        n = 600
        rng = np.random.default_rng(12)
        x3, y = rng.normal(size=(n, 3)), rng.normal(size=n)
        x1 = x3[:, 0] ** 2
        form = core._scaled(x1, 0)  # the sorted form, as the screen makes it past its stack rule
        assert form.order is not None and form.shifts is None
        monkeypatch.setattr(core, "DEFAULT_MEMORY_BUDGET", budget)  # the one budget inference reads
        calls, made = [], []
        build, work = core._centered_shifts, inference._workspace
        monkeypatch.setattr(core, "_centered_shifts", lambda *a: calls.append(a[1:]) or build(*a))
        monkeypatch.setattr(inference, "_workspace", lambda *a: made.append(work(*a)) or made[-1])
        raw1 = permutation_test(x1, y, replicates=9, seed=3)
        raw3 = permutation_test(x3, y, replicates=9, seed=3)
        assert calls == []  # neither raw x is laid out a second time
        laid_out = permutation_test(form, y, replicates=9, seed=3)
        assert calls == [(0, n // 2 + 1)]  # laid out once from its row means, not per replicate
        assert [w[3].shape for w in made] == [(rows, n)] * 3
        assert laid_out.statistic.hex() == raw1.statistic.hex()
        assert laid_out.exceed_count == raw1.exceed_count
        assert raw3.statistic == pytest.approx(dcov_sq(x3, y), rel=1e-12)

    def test_replicates_share_one_workspace(self, monkeypatch):
        rng = np.random.default_rng(10)
        x, y = rng.normal(size=(30, 2)), rng.normal(size=(30, 3))
        expected = permutation_test(x, y, replicates=9, seed=4)
        made = []
        build = inference._workspace
        monkeypatch.setattr(inference, "_workspace", lambda *a: made.append(build(*a)) or made[-1])
        res = permutation_test(x, y, replicates=9, seed=4)
        # y's shift block and its temporary are allocated once, for the statistic and every replicate
        assert len(made) == 1 and made[0][3].shape == made[0][4].shape == (16, 30)
        assert res == expected

    @pytest.mark.parametrize("n, rows", [(300, 151), (3000, (1 << 17) // 3000)])
    def test_workspace_is_one_cache_sized_block(self, n, rows, monkeypatch):
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=n), rng.normal(size=n)
        made = []
        build = inference._workspace
        monkeypatch.setattr(inference, "_workspace", lambda *a: made.append(build(*a)) or made[-1])
        permutation_test(x, y, replicates=1, seed=4)
        # the whole layout while it fits in 2^17 float64 entries, else as many shifts as fit
        assert len(made) == 1 and made[0][3].shape == (rows, n) and made[0][3].size <= 1 << 17

    @pytest.mark.parametrize("budget", [core.DEFAULT_MEMORY_BUDGET, 4_000_000], ids=["stored", "rebuilt"])
    @pytest.mark.parametrize("dims", [(1, 1), (3, 2)])
    def test_replicates_allocate_linear_memory(self, dims, budget, monkeypatch):
        # after the observed statistic every replicate writes into the test's workspace, A's
        # rebuilt blocks (at 4 MB and n = 3000, 41 shifts of 3000) included: it allocates O(n),
        # numpy's iterator buffers (64 KiB for a broadcast subtract) among it
        n = 3000
        monkeypatch.setattr(core, "DEFAULT_MEMORY_BUDGET", budget)
        rng = np.random.default_rng(30)
        x, y = rng.normal(size=(n, dims[0])), rng.normal(size=(n, dims[1]))
        replicate_rng, before = inference._replicate_rng, []

        def measured_from_the_first_replicate(seed, b):
            if b == 1:
                tracemalloc.reset_peak()
                before.append(tracemalloc.get_traced_memory()[0])
            return replicate_rng(seed, b)

        monkeypatch.setattr(inference, "_replicate_rng", measured_from_the_first_replicate)
        tracemalloc.start()
        try:
            permutation_test(x, y, replicates=9, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before[0] <= 64 * n * max(dims)

    def test_statistic_is_the_identity_replicate(self, monkeypatch):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(40, 3)), rng.normal(size=(40, 1))
        res = permutation_test(x, y, replicates=9, seed=2)
        a = double_center(x)
        assert res.statistic == inference._permuted_dcov_sq(a, y, np.arange(40), 40)

        class Identity:
            def permutation(self, n):
                return np.arange(n)

        # every replicate ties with the statistic, on every form of A
        monkeypatch.setattr(inference, "_replicate_rng", lambda seed, b: Identity())
        for xv, budget in [(x, core.DEFAULT_MEMORY_BUDGET), (x, 1000), (x[:, 0], 1000)]:
            monkeypatch.setattr(core, "DEFAULT_MEMORY_BUDGET", budget)
            assert permutation_test(xv, y, replicates=9, seed=2).exceed_count == 9

    @pytest.mark.parametrize(
        "n, dims, shift",
        # at n = 600 a replicate's 301 shifts take two blocks
        [(30, (1, 1), 0.0), (50, (2, 1), 0.3), (80, (1, 2), 0.2), (40, (3, 1), 0.2), (600, (1, 1), 0.1)],
    )
    def test_counts_equal_the_gather_formula(self, n, dims, shift):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, dims[0]))
        y = rng.normal(size=(n, dims[1])) + shift * x[:, :1]
        for seed in (1, 2, 3):
            count = gather_exceedances(x, y, 99, seed)
            assert permutation_test(x, y, 99, seed).exceed_count == count
            # unscaled, A times y's distances would underflow to 0 or overflow
            for sx, sy in ((1e-165, 1e-165), (1e160, 1e160), (1.0, 1e307)):
                assert permutation_test(sx * x, sy * y, 99, seed).exceed_count == count

    def test_nan_replicate_raises(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=50)
        y = x * x + 0.1 * rng.normal(size=50)
        # unscaled, the products overflow to inf of both signs, and their sum is NaN
        a = double_center(1e160 * x)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DataQualityError, match="NaN"):
            inference._permuted_dcov_sq(a, 1e160 * y[:, None], np.arange(50), 50)

    def test_statistic_matches_dcov_sq(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(14, 2)), rng.normal(size=(14, 1))
        res = permutation_test(x, y, replicates=9, seed=1)
        assert res.statistic == pytest.approx(dcov_sq(x, y), rel=1e-12)

    def test_joint_permutation_invariance_of_statistic(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(12, 1)), rng.normal(size=(12, 1))
        perm = rng.permutation(12)
        a = permutation_test(x, y, replicates=9, seed=5).statistic
        b = permutation_test(x[perm], y[perm], replicates=9, seed=5).statistic
        assert abs(a - b) <= 1e-12 * max(abs(a), 1e-30)

    def test_rejects_tiny_inputs(self):
        with pytest.raises(DataQualityError):
            permutation_test([1.0], [2.0], replicates=9, seed=0)
        with pytest.raises(UsageError):
            permutation_test([1.0, 2.0], [3.0, 4.0], replicates=0, seed=0)


class TestPowerSimulation:
    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            power_simulation("cubic", 20, 1, 0.05, 9, 0)

    def test_reproducible_single_trial(self):
        a = power_simulation("linear", 30, 1, 0.05, 49, 123)
        b = power_simulation("linear", 30, 1, 0.05, 49, 123)
        assert a == b

    def test_rates_in_unit_interval(self):
        rep = power_simulation("independent", 20, 10, 0.05, 49, 8)
        assert 0.0 <= rep.rejection_rate_dcov <= 1.0
        assert 0.0 <= rep.rejection_rate_pearson <= 1.0

    def test_quadratic_detected_by_dcov_not_pearson(self):
        rep = power_simulation("quadratic", 200, 20, 0.05, 199, 2024)
        assert rep.rejection_rate_dcov >= 0.95
        assert rep.rejection_rate_pearson <= 0.20

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            power_simulation("independent", 20, 1, 1.5, 9, 0)

    @pytest.mark.parametrize("n", [2.5, 1, True])
    def test_n_is_a_whole_number_of_at_least_2(self, n):
        with pytest.raises(UsageError, match=rf"^n must be an integer of at least 2, got {n!r}$"):
            power_simulation("linear", n, 1, 0.05, 9, 0)

    def test_pearson_pvalue_of_constant_sample_is_one(self):
        x = np.arange(6.0)
        assert inference._pearson_permutation_pvalue(np.full(6, 2.5), x, 19, 1) == 1.0
        assert inference._pearson_permutation_pvalue(x, np.full(6, 2.5), 19, 1) == 1.0

    def test_pearson_pvalue_of_tiny_spread(self):
        # the squared deviations of 1e-200 underflow to 0 unless scaled first
        x = np.arange(1.0, 7.0) * 1e-200
        assert inference._pearson_permutation_pvalue(x, 1e200 * x, 19, 1) == 1 / 20


def assert_no_child_left():
    with pytest.raises(ChildProcessError):  # no child of this process is left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forking(monkeypatch):
    """Fork at any size, and record each ``_fork_map`` call's chunk count and values."""
    calls = []
    fork_map = inference._fork_map

    def recorded(fn, items, k):
        calls.append([min(k, len(items)), None])
        calls[-1][1] = fork_map(fn, items, k)
        return calls[-1][1]

    monkeypatch.setattr(inference, "FORK_ENTRIES", 1)
    monkeypatch.setattr(inference, "_fork_map", recorded)
    return calls


class TestForkedReplicates:
    @pytest.mark.parametrize("n, dims, replicates, budget", [
        (300, (1, 1), 199, core.DEFAULT_MEMORY_BUDGET),
        (120, (3, 2), 39, core.DEFAULT_MEMORY_BUDGET),
        # 12 MB at n = 2000: x's 16 MB layout does not fit, so each replicate rebuilds it in blocks
        (2000, (1, 1), 9, 12_000_000),
        (2000, (3, 2), 5, 12_000_000),
    ], ids=["scalar-300", "3d-2d", "rebuilt-scalar", "rebuilt-3d-2d"])
    def test_any_job_count_gives_the_same_result(self, n, dims, replicates, budget, forking, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_MEMORY_BUDGET", budget)
        rng = np.random.default_rng(n + dims[0])
        x = rng.normal(size=(n, dims[0]))
        y = rng.normal(size=(n, dims[1])) + 0.1 * x[:, :1]
        kept = inference._plan(as_sample(x), as_sample(y), replicates)[1] is None
        assert kept == (budget > 12_000_000)  # x's layout kept, or rebuilt per block
        results = [permutation_test(x, y, replicates, seed=5, jobs=jobs) for jobs in (1, 2, 3)]
        assert [chunks for chunks, _ in forking] == [1, 2, 3]
        assert results[1] == results[0] and results[2] == results[0]
        # every replicate's statistic, not only the count, comes back bit for bit
        serial = forking[0][1]
        assert len(serial) == replicates and all(np.array_equal(values, serial) for _, values in forking)
        assert_no_child_left()

    def test_children_compute_their_ranges(self, forking, monkeypatch):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=60), rng.normal(size=60)
        expected = permutation_test(x, y, 99, seed=2)
        calls = []
        replicate = inference._permuted_dcov_sq
        monkeypatch.setattr(inference, "_permuted_dcov_sq", lambda *a: calls.append(1) or replicate(*a))
        assert permutation_test(x, y, 99, seed=2, jobs=3) == expected
        assert len(calls) == 1 + 33  # the observed statistic and replicates 1..33 here; 34..99 in two children
        assert_no_child_left()

    # in a child's range at 2 processes (100..199) and at 3 (67..132 and 133..199)
    @pytest.mark.parametrize("bad_replicate", [110, 150, 199])
    def test_an_error_in_a_child_is_the_serial_error(self, bad_replicate, forking, monkeypatch):
        n, seed = 50, 3
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=n), rng.normal(size=n)
        bad = inference._replicate_rng(seed, bad_replicate).permutation(n)
        replicate = inference._permuted_dcov_sq

        def failing(a, y, perm, *rest):
            if np.array_equal(perm, bad):
                raise DataQualityError(f"replicate starting {perm[:4].tolist()} came out NaN")
            return replicate(a, y, perm, *rest)

        monkeypatch.setattr(inference, "_permuted_dcov_sq", failing)
        with pytest.raises(DataQualityError) as serial:
            permutation_test(x, y, 199, seed, jobs=1)
        for jobs in (2, 3):
            with pytest.raises(DataQualityError) as forked:
                permutation_test(x, y, 199, seed, jobs=jobs)
            assert str(forked.value) == str(serial.value)
            assert_no_child_left()

    def test_an_error_in_the_parents_range_reaps_every_child(self, forking, monkeypatch):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=40), rng.normal(size=40)
        replicate_rng = inference._replicate_rng

        def failing(seed, b):
            if b == 2:
                raise DataQualityError("replicate 2 failed")
            return replicate_rng(seed, b)

        monkeypatch.setattr(inference, "_replicate_rng", failing)
        with pytest.raises(DataQualityError, match="replicate 2 failed"):
            permutation_test(x, y, 999, seed=1, jobs=3)
        assert forking == [[3, None]]  # the parent's own chunk raised
        assert_no_child_left()

    def test_an_error_here_kills_a_child_still_running(self):
        # the parent's span raises while the child's would run for 30 s: the child is killed, not awaited
        parent = os.getpid()

        def span(items):
            if os.getpid() == parent:
                raise DataQualityError("the parent's span failed")
            time.sleep(30)
            return [0.0] * len(items)

        start = time.monotonic()
        with pytest.raises(DataQualityError, match="the parent's span failed"):
            inference._fork_map(span, list(range(4)), 2)
        assert time.monotonic() - start < 5
        assert_no_child_left()

    @pytest.mark.parametrize("fault", ["exit", "short"])
    def test_a_lost_child_is_recomputed_here(self, fault, forking, monkeypatch):
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=40), rng.normal(size=40)
        expected = permutation_test(x, y, 99, seed=8)
        parent, replicates = os.getpid(), inference._replicates

        def faulty(*args):
            values = replicates(*args)
            if os.getpid() != parent:  # a child dies, or sends one value too few
                if fault == "exit":
                    os._exit(7)
                return values[:-1]
            return values

        monkeypatch.setattr(inference, "_replicates", faulty)
        assert permutation_test(x, y, 99, seed=8, jobs=2) == expected
        assert_no_child_left()


    def test_a_failed_fork_runs_its_range_here(self, forking, failing_fork):
        rng = np.random.default_rng(10)
        x, y = rng.normal(size=40), rng.normal(size=40)
        expected = permutation_test(x, y, 99, seed=4)
        assert permutation_test(x, y, 99, seed=4, jobs=3) == expected
        assert len(failing_fork.calls) == 2 and np.array_equal(forking[1][1], forking[0][1])
        failing_fork.check()

    def test_the_fork_warning_of_newer_pythons_is_silenced(self, forking, monkeypatch):
        # Python >= 3.12 warns at a fork while another OS thread runs, numpy's BLAS pool among them,
        # attributed to the caller of os.fork; this suite makes distcorr's DeprecationWarnings errors
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to "
                              "deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=40), rng.normal(size=40)
        assert permutation_test(x, y, 99, seed=1, jobs=2) == permutation_test(x, y, 99, seed=1)
        assert [chunks for chunks, _ in forking] == [2, 1]
        assert_no_child_left()


def processes(jobs, replicates: int, n: int, stored: bool) -> int:
    """The plan's process count for a test of a scalar x at n rows, built stored or raw, against a scalar y."""
    x = as_sample(np.arange(float(n)))
    return inference._plan(core._scaled(x) if stored else x, x, replicates, jobs)[2]


@pytest.mark.parametrize("call", [
    lambda x: permutation_test(x, x, 2.5, 1),
    lambda x: permutation_test(x, x, True, 1),
    lambda x: permutation_test(x, x, 9, -1),
    lambda x: permutation_test(x, x, 9, 1.5),
    lambda x: permutation_test(x, x, 9, 1, jobs=True),
    lambda x: power_simulation("linear", 10, 1.5, 0.05, 9, 0),
    lambda x: power_simulation("linear", 10, True, 0.05, 9, 0),
    lambda x: power_simulation("linear", 10, 1, 0.05, 2.5, 0),
    lambda x: power_simulation("linear", 10, 1, 0.05, 9, -1),
    lambda x: ScreenConfig(p_values=True, replicates=True),
    lambda x: ScreenConfig(seed=True),
], ids=["replicates-2.5", "replicates-True", "seed-negative", "seed-1.5", "jobs-True",
        "trials-1.5", "trials-True", "power-replicates-2.5", "power-seed-negative",
        "config-replicates-True", "config-seed-True"])
def test_count_arguments_are_checked(call):
    with pytest.raises(UsageError, match=r"^(replicates|seed|jobs|trials) must be a (positive|non-negative) integer"):
        call(np.arange(6.0))


class TestProcesses:
    def test_cpus_work_and_jobs(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        enough = 8 * inference.FORK_ENTRIES // (300 * 151) + 1  # replicates at n = 300 for 8 processes
        assert processes(None, enough, 300, True) == 4
        assert processes(2, enough, 300, True) == 2
        assert processes(6, enough, 300, True) == 6  # asked for: taken beyond the CPUs
        # below the work threshold: one process, unless every extra one gets FORK_ENTRIES entries
        assert processes(None, inference.FORK_ENTRIES // (300 * 151), 300, True) == 1
        assert processes(None, 2 * inference.FORK_ENTRIES // (300 * 151) + 1, 300, True) == 2

    def test_one_process_where_x_layout_fits_once(self, monkeypatch):
        # at 3 MB and n = 600, x's layout (1.44 MB) fits next to one test's block of y's distances
        # (0.75 MB), but two layouts and two blocks do not: one process, unless x arrives stored
        n = 600
        monkeypatch.setattr(core, "DEFAULT_MEMORY_BUDGET", 3_000_000)
        x = as_sample(np.arange(float(n)))
        assert inference._plan(x, x, 1)[1] is None  # kept
        assert processes(2, 1 << 40, n, False) == 1
        assert processes(2, 1 << 40, n, True) == 2
        monkeypatch.setattr(core, "DEFAULT_MEMORY_BUDGET", 1 << 30)
        assert processes(2, 1 << 40, n, False) == 2

    def test_one_process_for_a_raw_x_whose_layout_fits_once(self, forking, monkeypatch):
        n = 600
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=n), rng.normal(size=n)
        monkeypatch.setattr(core, "DEFAULT_MEMORY_BUDGET", 3_000_000)
        permutation_test(x, y, 9, seed=1, jobs=2)
        permutation_test(core._scaled(x), y, 9, seed=1, jobs=2)  # stored already: only blocks are new
        assert [chunks for chunks, _ in forking] == [1, 2]

    def test_one_process_while_another_thread_runs(self):
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert processes(2, 1 << 40, 300, True) == 1
        finally:
            done.set()
            thread.join()
        assert processes(2, 1 << 40, 300, True) == 2

    def test_one_process_without_sched_getaffinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert processes(None, 1 << 40, 300, True) == 1
        assert processes(4, 1 << 40, 300, True) == 1

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, "2"])
    def test_rejects_bad_jobs(self, jobs):
        with pytest.raises(UsageError, match="jobs must be a positive integer"):
            permutation_test(np.arange(5.0), np.arange(5.0), 9, seed=1, jobs=jobs)
