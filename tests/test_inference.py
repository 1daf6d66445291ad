import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from distcorr import inference
from distcorr.core import dcov_sq, double_center
from distcorr.errors import DataQualityError
from distcorr.inference import permutation_test, power_simulation
from distcorr.oracles import dcov_sq_oracle_sums


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
    count = 0
    for rep in range(1, replicates + 1):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
        perm = rng.permutation(n)
        count += float(np.vdot(a.entries, b.entries[np.ix_(perm, perm)])) / (n * n) >= observed
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
        block = 8 * n * min(n, inference.STREAM_BLOCK_ROWS)
        for budget, bound in [
            (8 * n * n // 2, 8 * n * n // 2),
            (1000, 1000),
            (inference.DEFAULT_MEMORY_BUDGET, 8 * n * n + block),
        ]:
            monkeypatch.setattr(inference, "DEFAULT_MEMORY_BUDGET", budget)
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
        scale = float(np.abs(double_center(x).entries * double_center(y[perm]).entries).mean())
        tol = 1e-12 * scale + np.finfo(np.float64).tiny
        oracle = dcov_sq_oracle_sums(x, y[perm])
        # materialized, and three rows per block: streaming for 3-D x, sorted for scalar x
        small = double_center(x, memory_budget=3 * 8 * n)
        assert (small.entries is None) == (n > 3)
        for a, rows in [(double_center(x), n), (small, 3)]:
            assert abs(inference._permuted_dcov_sq(a, y, perm, rows) - oracle) <= tol

    def test_statistic_is_the_identity_replicate(self, monkeypatch):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(40, 3)), rng.normal(size=(40, 1))
        res = permutation_test(x, y, replicates=9, seed=2)
        assert res.statistic == inference._permuted_dcov_sq(double_center(x), y, np.arange(40), 40)

        class Identity:
            def permutation(self, n):
                return np.arange(n)

        # every replicate ties with the statistic, on every form of A
        monkeypatch.setattr(inference, "_replicate_rng", lambda seed, b: Identity())
        for xv, budget in [(x, inference.DEFAULT_MEMORY_BUDGET), (x, 1000), (x[:, 0], 1000)]:
            monkeypatch.setattr(inference, "DEFAULT_MEMORY_BUDGET", budget)
            assert permutation_test(xv, y, replicates=9, seed=2).exceed_count == 9

    @pytest.mark.parametrize(
        "n, dims, shift", [(30, (1, 1), 0.0), (50, (2, 1), 0.3), (80, (1, 2), 0.2), (40, (3, 1), 0.2)]
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
        with pytest.raises(DataQualityError):
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

    def test_pearson_pvalue_of_tiny_spread(self):
        # the squared deviations of 1e-200 underflow to 0 unless scaled first
        x = np.arange(1.0, 7.0) * 1e-200
        assert inference._pearson_permutation_pvalue(x, 1e200 * x, 19, 1) == 1 / 20
