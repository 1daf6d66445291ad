import tracemalloc

import numpy as np
import pytest

from distcorr import inference
from distcorr.core import dcov_sq, double_center
from distcorr.errors import DataQualityError
from distcorr.inference import permutation_test, power_simulation


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

    def test_over_budget_raises_naming_the_budget(self, monkeypatch):
        n = 300
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=n), rng.normal(size=n)
        # two centered matrices plus one replicate's gather
        needed = 3 * 8 * n * n
        monkeypatch.setattr(inference, "DEFAULT_MEMORY_BUDGET", needed - 1)
        with pytest.raises(DataQualityError, match=f"memory budget of {needed - 1} bytes"):
            permutation_test(x, y, replicates=5, seed=1)
        monkeypatch.setattr(inference, "DEFAULT_MEMORY_BUDGET", needed)
        tracemalloc.start()
        try:
            permutation_test(x, y, replicates=5, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= needed + 80 * 8 * n

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
