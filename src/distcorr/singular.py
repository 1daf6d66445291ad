"""Closed-form constants and the singular-integral identity.

The identity behind the double-centering reduction:

    integral over R^p of (1 - e^{i<s,x>}) / ||s||^{p+alpha} ds
        = C(p, alpha) * ||x||^alpha,   0 < alpha < 2,

with C(p, alpha) = 2 pi^{p/2} Gamma(1 - alpha/2) / (alpha 2^alpha Gamma((p+alpha)/2)).
At alpha = 1 this reduces to the weight constant c_p of the
distance-covariance integral.  ``verify_singular_integral`` checks the
identity numerically for p = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, UsageError
from .oracles import QuadratureSpec, _gl_nodes_weights


def _check(p: int, alpha: float = 1.0) -> None:
    """C(p, alpha)'s domain: p >= 1 and 0 < alpha < 2."""
    if p < 1:
        raise UsageError(f"dimension p must be >= 1, got {p}")
    if not (0.0 < alpha < 2.0):
        raise UsageError(
            f"alpha must lie strictly in (0, 2), got {alpha}: the "
            "Gamma(1 - alpha/2) factor has a pole at alpha = 2 and the "
            "integral diverges outside the interval"
        )


@dataclass(frozen=True)
class SingularParams:
    alpha: float
    x: float  # a scalar: the identity is checked for p = 1 only

    def __post_init__(self):
        _check(1, self.alpha)
        if not math.isfinite(self.x):
            raise UsageError(f"x must be finite, got {self.x}")


@dataclass(frozen=True)
class SingularCheck:
    numeric: float
    closed_form: float
    error_estimate: float


@lru_cache(maxsize=None)
def c_p(p: int) -> float:
    """Weight-normalizing constant pi^{(p+1)/2} / Gamma((p+1)/2)."""
    _check(p)
    return math.exp(0.5 * (p + 1) * math.log(math.pi) - math.lgamma(0.5 * (p + 1)))


@lru_cache(maxsize=None)
def singular_constant(p: int, alpha: float) -> float:
    """The constant C(p, alpha) of the singular-integral identity."""
    _check(p, alpha)
    log_c = (
        math.log(2.0)
        + 0.5 * p * math.log(math.pi)
        + math.lgamma(1.0 - 0.5 * alpha)
        - math.log(alpha)
        - alpha * math.log(2.0)
        - math.lgamma(0.5 * (p + alpha))
    )
    return math.exp(log_c)


def _graded_edges_origin(radius: float, panels: int, grading: float = 5.0) -> np.ndarray:
    return radius * (np.arange(panels + 1) / panels) ** grading


def _cosine_quad(x: float, alpha: float, radius: float, panels: int, gl_order: int = 16) -> float:
    """Quadrature of (1 - cos(s x)) / s^{1+alpha} on (0, radius]."""
    edges = _graded_edges_origin(radius, panels)
    nodes, weights = _gl_nodes_weights(edges, gl_order)
    # 1 - cos(z) = 2 sin^2(z/2): stable near the origin, where the direct
    # form cancels catastrophically against the s^{-(1+alpha)} weight
    integrand = 2.0 * np.sin(nodes * x / 2.0) ** 2 / nodes ** (1.0 + alpha)
    return float(weights @ integrand)


def verify_singular_integral(
    params: SingularParams, spec: QuadratureSpec | None = None
) -> SingularCheck:
    """Numerically verify the identity for p = 1 at the given (alpha, x).

    Only the cosine (real) part of the integrand is integrated; the sine
    part vanishes by oddness.  The tail beyond the truncation radius is
    handled analytically: the non-oscillatory 1/s^{1+alpha} piece exactly,
    the oscillatory cosine piece through two integration-by-parts terms
    with the remainder folded into the error estimate.
    """
    if spec is None:
        spec = QuadratureSpec()
    alpha = params.alpha
    x = abs(params.x)
    closed = singular_constant(1, alpha) * x**alpha
    if x == 0.0:
        return SingularCheck(numeric=0.0, closed_form=0.0, error_estimate=0.0)

    big_t = spec.truncation_radius
    fine = _cosine_quad(x, alpha, big_t, spec.panel_count)
    coarse = _cosine_quad(x, alpha, big_t, spec.panel_count // 2)

    # Tail of integral_T^inf (1 - cos(sx)) / s^{1+alpha} ds:
    #   the constant part is 1/(alpha T^alpha) exactly; the cosine part's
    #   integration-by-parts expansion contributes the two terms below,
    #   with remainder bounded by (1+alpha) / (x^2 T^{2+alpha}).
    tail_exact = 1.0 / (alpha * big_t**alpha)
    tail_cos = (
        math.sin(big_t * x) / (x * big_t ** (1.0 + alpha))
        - (1.0 + alpha) * math.cos(big_t * x) / (x * x * big_t ** (2.0 + alpha))
    )
    tail_remainder = (1.0 + alpha) / (x * x * big_t ** (2.0 + alpha))

    numeric = 2.0 * (fine + tail_exact + tail_cos)
    err = 2.0 * (abs(fine - coarse) + tail_remainder)
    if err > spec.tolerance * max(abs(closed), 1e-30):
        raise ConvergenceError(
            f"singular-integral quadrature error {err:.3e} exceeds tolerance",
            best_estimate=numeric,
            error_estimate=err,
        )
    return SingularCheck(numeric=numeric, closed_form=closed, error_estimate=err)
