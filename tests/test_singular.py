import math

import pytest

from distcorr.errors import ConvergenceError
from distcorr.oracles import QuadratureSpec
from distcorr.singular import (
    SingularParams,
    c_p,
    singular_constant,
    verify_singular_integral,
)


class TestConstants:
    def test_c_1_is_pi(self):
        assert c_p(1) == pytest.approx(math.pi, rel=1e-15)

    def test_c_2_is_two_pi(self):
        assert c_p(2) == pytest.approx(2 * math.pi, rel=1e-14)

    def test_c_3_is_pi_squared(self):
        assert c_p(3) == pytest.approx(math.pi**2, rel=1e-14)

    def test_c_p_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            c_p(0)

    def test_singular_constant_p1_alpha1_is_pi(self):
        assert singular_constant(1, 1.0) == pytest.approx(math.pi, rel=1e-13)

    def test_alpha_one_reduces_to_c_p(self):
        for p in range(1, 11):
            assert singular_constant(p, 1.0) == pytest.approx(c_p(p), rel=1e-12)

    def test_alpha_boundaries_rejected(self):
        for alpha in (0.0, 2.0, -0.5, 2.5):
            with pytest.raises(ValueError, match="alpha"):
                singular_constant(1, alpha)

    def test_singular_constant_rejects_nonpositive_p(self):
        with pytest.raises(ValueError, match="dimension p must be >= 1, got 0"):
            singular_constant(0, 1.0)

    def test_monotone_in_x(self):
        c = singular_constant(1, 0.7)
        values = [c * x**0.7 for x in (0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)


class TestVerifySingularIntegral:
    def test_x_zero(self):
        check = verify_singular_integral(SingularParams(1.0, 0.0))
        assert check.numeric == 0.0
        assert check.closed_form == 0.0

    def test_alpha1_x1_gives_pi(self):
        check = verify_singular_integral(SingularParams(1.0, 1.0))
        assert check.closed_form == pytest.approx(math.pi, rel=1e-13)
        assert abs(check.numeric - math.pi) <= 1e-4 * math.pi

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_identity_grid(self, alpha, x):
        check = verify_singular_integral(SingularParams(alpha, x))
        assert abs(check.numeric - check.closed_form) <= max(
            1e-4 * check.closed_form, 3 * check.error_estimate
        )

    def test_homogeneity(self):
        alpha = 0.8
        a = verify_singular_integral(SingularParams(alpha, 1.0))
        b = verify_singular_integral(SingularParams(alpha, 2.0))
        ratio = b.numeric / a.numeric
        combined = (b.error_estimate / a.numeric) + ratio * (a.error_estimate / a.numeric)
        assert abs(ratio - 2**alpha) <= 2 * combined + 1e-6

    def test_negative_x_uses_absolute_value(self):
        pos = verify_singular_integral(SingularParams(1.2, 1.5))
        neg = verify_singular_integral(SingularParams(1.2, -1.5))
        assert neg.numeric == pos.numeric
        assert neg.closed_form == pos.closed_form

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SingularParams(2.0, 1.0)

    def test_coarse_quadrature_raises_convergence_error(self):
        with pytest.raises(ConvergenceError, match="exceeds tolerance") as exc:
            verify_singular_integral(SingularParams(1.0, 1.0), QuadratureSpec(panel_count=2, tolerance=1e-12))
        assert exc.value.error_estimate > 1e-12 * math.pi
        assert math.isfinite(exc.value.best_estimate)

    def test_respects_custom_spec(self):
        spec = QuadratureSpec(truncation_radius=500.0, panel_count=1024)
        check = verify_singular_integral(SingularParams(1.0, 1.0), spec)
        assert abs(check.numeric - math.pi) <= 1e-4 * math.pi
