import cmath
import math

import numpy as np
import pytest

from distcorr.core import dcov_sq
from distcorr.errors import DataQualityError
from distcorr.oracles import (
    QuadratureSpec,
    dcov_sq_oracle_sums,
    dcov_sq_via_integral,
    ecf_joint,
    ecf_marginal,
)


class TestEcf:
    def test_zero_frequency_is_one(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(6, 2)), rng.normal(size=(6, 1))
        assert ecf_joint(x, y, [0.0, 0.0], [0.0]) == 1.0
        assert ecf_marginal(x, [0.0, 0.0]) == 1.0

    def test_single_zero_point(self):
        assert ecf_joint([[0.0]], [[0.0]], [2.5], [-1.0]) == pytest.approx(1.0)

    def test_single_point_unit_modulus(self):
        v = ecf_marginal([[3.7]], [1.3])
        assert abs(v) == pytest.approx(1.0, abs=1e-15)

    def test_marginal_equals_joint_with_zero(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(5, 2)), rng.normal(size=(5, 3))
        s = rng.normal(size=2)
        assert ecf_marginal(x, s) == ecf_joint(x, y, s, np.zeros(3))

    def test_antipodal_cancellation(self):
        v = ecf_marginal([[0.0], [math.pi]], [1.0])
        assert abs(v) == pytest.approx(0.0, abs=1e-15)

    def test_modulus_bounded(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(8, 1)), rng.normal(size=(8, 1))
        for _ in range(50):
            s, t = rng.normal(size=1), rng.normal(size=1)
            assert abs(ecf_joint(x, y, s, t)) <= 1.0 + 1e-12

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(7, 2)), rng.normal(size=(7, 1))
        for _ in range(20):
            s, t = rng.normal(size=2), rng.normal(size=1)
            v = ecf_joint(x, y, s, t)
            w = ecf_joint(x, y, -s, -t)
            assert cmath.isclose(w, v.conjugate(), abs_tol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DataQualityError):
            ecf_marginal([[0.0, 1.0]], [1.0])

    def test_joint_dimension_mismatch(self):
        with pytest.raises(DataQualityError, match="frequency dims 1, 1 do not match sample dims 2, 1"):
            ecf_joint([[0.0, 1.0]], [[2.0]], [1.0], [1.0])


class TestOracleSums:
    def test_two_point_hand_value(self):
        assert dcov_sq_oracle_sums([[0.0], [1.0]], [[0.0], [1.0]]) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_constant_sample(self):
        y = np.random.default_rng(0).normal(size=(5, 1))
        assert dcov_sq_oracle_sums(np.ones((5, 1)), y) == pytest.approx(0.0, abs=1e-15)

    def test_agrees_with_direct_path(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 31))
            x = rng.normal(size=(n, int(rng.integers(1, 4))))
            y = rng.normal(size=(n, int(rng.integers(1, 4))))
            direct = dcov_sq(x, y)
            oracle = dcov_sq_oracle_sums(x, y)
            assert abs(direct - oracle) <= 1e-12 * max(abs(direct), 1e-30)


class TestIntegralOracle:
    def test_two_point_hand_value(self):
        res = dcov_sq_via_integral([[0.0], [1.0]], [[0.0], [1.0]])
        assert res.value == pytest.approx(0.25, abs=1e-2)

    def test_constant_sample_exactly_zero(self):
        res = dcov_sq_via_integral(np.ones((3, 1)), [[0.0], [1.0], [2.0]])
        assert res.value == 0.0
        assert res.error_estimate == 0.0

    def test_matches_direct_path(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            x = rng.normal(size=(3, 1))
            y = rng.normal(size=(3, 1))
            direct = dcov_sq(x, y)
            res = dcov_sq_via_integral(x, y)
            assert abs(res.value - direct) <= max(1e-2 * abs(direct), 3 * res.error_estimate)

    def test_integrand_nonnegative_everywhere(self):
        # value computed from a nonnegative integrand with positive weights
        rng = np.random.default_rng(12)
        x, y = rng.normal(size=(4, 1)), rng.normal(size=(4, 1))
        assert dcov_sq_via_integral(x, y).value >= 0.0

    def test_monotone_in_truncation_radius(self):
        x = [[0.0], [1.0], [0.3]]
        y = [[0.5], [0.1], [0.9]]
        values = []
        for radius in (25.0, 50.0, 100.0, 200.0):
            # large tolerance: small radii legitimately carry big tail estimates
            spec = QuadratureSpec(truncation_radius=radius, panel_count=512, tolerance=1.0)
            res = dcov_sq_via_integral(x, y, spec)
            values.append((res.value, res.error_estimate))
        for (v0, e0), (v1, e1) in zip(values, values[1:]):
            assert v1 >= v0 - (e0 + e1)

    def test_rejects_multivariate(self):
        rng = np.random.default_rng(13)
        with pytest.raises(DataQualityError):
            dcov_sq_via_integral(rng.normal(size=(3, 2)), rng.normal(size=(3, 1)))


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(truncation_radius=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(panel_count=1)
        with pytest.raises(ValueError):
            QuadratureSpec(tolerance=0.0)
