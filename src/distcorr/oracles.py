"""Independent verification of the distance-covariance estimator.

Two oracles, deliberately sharing no distance or centering code with
``core``:

* ``dcov_sq_via_integral`` evaluates the defining weighted integral of
  the empirical characteristic functions by 2-D quadrature (scalar
  samples only), and
* ``dcov_sq_oracle_sums`` evaluates an algebraically equivalent
  three-sum expansion with plain loops.

Agreement of both with the production path certifies the build.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataQualityError, UsageError
from .samples import as_sample, check_same_n

C1 = math.pi  # normalizing constant for dimension 1


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncated-domain quadrature parameters.

    The integration domain is |s| <= truncation_radius per axis, split
    into ``panel_count`` graded panels with open Gauss-Legendre nodes
    (no node ever lands on an axis, where the raw integrand is 0/0).
    """

    truncation_radius: float = 200.0
    panel_count: int = 512
    tolerance: float = 1e-2

    def __post_init__(self):
        if not 0 < self.truncation_radius < math.inf:  # False for NaN
            raise UsageError(f"truncation_radius must be positive and finite, got {self.truncation_radius}")
        if self.panel_count < 2:
            raise UsageError("panel_count must be at least 2")
        if not 0 < self.tolerance < math.inf:
            raise UsageError(f"tolerance must be positive and finite, got {self.tolerance}")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float


def ecf_joint(x, y, s, t) -> complex:
    """Joint empirical characteristic function (1/N) sum_j e^{i(<s,Xj>+<t,Yj>)}."""
    xs, ys = as_sample(x), as_sample(y)
    check_same_n(xs, ys)
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if s.shape != (xs.dim,) or t.shape != (ys.dim,):
        raise DataQualityError(
            f"frequency dims {s.shape[0]}, {t.shape[0]} do not match sample dims "
            f"{xs.dim}, {ys.dim}"
        )
    phases = xs.data @ s + ys.data @ t
    return complex(np.mean(np.exp(1j * phases)))


def ecf_marginal(x, s) -> complex:
    """Marginal empirical characteristic function of one sample."""
    xs = as_sample(x)
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    if s.shape != (xs.dim,):
        raise DataQualityError(
            f"frequency dim {s.shape[0]} does not match sample dim {xs.dim}"
        )
    return complex(np.mean(np.exp(1j * (xs.data @ s))))


def _gl_nodes_weights(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights on each panel defined by consecutive edges."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(order)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = (hi - lo) / 2.0
    mid = (hi + lo) / 2.0
    nodes = (mid + half * ref_x[None, :]).ravel()
    weights = (half * ref_w[None, :]).ravel()
    return nodes, weights


def _graded_symmetric_edges(radius: float, panel_count: int, grading: float = 3.0):
    """Panel edges on [-radius, radius], graded toward the origin."""
    half_panels = max(panel_count // 2, 1)
    pos = radius * (np.arange(half_panels + 1) / half_panels) ** grading
    return np.concatenate([-pos[::-1][:-1], pos])


def _integral_on_grid(xv: np.ndarray, yv: np.ndarray, radius: float, panels: int, gl_order: int):
    """Quadrature of |phi_joint - phi_x phi_y|^2 / (s^2 t^2) over the truncated square.

    Returns (integral value before the 1/c1^2 factor, max integrand numerator).
    The integrand is evaluated in expanded cosine form: per observation j,
    cos(s x_j + t y_j) separates into outer products of single-axis cosines
    and sines, so the whole grid is a handful of small matrix products.
    """
    n = xv.shape[0]
    s_edges = _graded_symmetric_edges(radius, panels)
    t_edges = s_edges  # same spec per axis
    s_nodes, s_w = _gl_nodes_weights(s_edges, gl_order)
    t_nodes, t_w = _gl_nodes_weights(t_edges, gl_order)

    cs = np.cos(np.outer(s_nodes, xv))  # (Ms, N)
    sn = np.sin(np.outer(s_nodes, xv))
    ct = np.cos(np.outer(t_nodes, yv))  # (Mt, N)
    st = np.sin(np.outer(t_nodes, yv))

    cx = cs.mean(axis=1)
    sx = sn.mean(axis=1)
    cy = ct.mean(axis=1)
    sy = st.mean(axis=1)

    cj = (cs @ ct.T - sn @ st.T) / n
    sj = (sn @ ct.T + cs @ st.T) / n

    re = cj - (cx[:, None] * cy[None, :] - sx[:, None] * sy[None, :])
    im = sj - (cx[:, None] * sy[None, :] + sx[:, None] * cy[None, :])
    num = re * re + im * im

    integrand = num / (s_nodes[:, None] ** 2 * t_nodes[None, :] ** 2)
    value = float(s_w @ integrand @ t_w)
    return value, float(num.max())


def dcov_sq_via_integral(x, y, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Squared distance covariance by direct quadrature of its defining integral.

    Scalar samples only (the quadrature is 2-D).  Intended for small N;
    cost is independent of N up to a few matrix products but accuracy is
    tuned for verification, not production use.

    Raises ConvergenceError if the combined panel-refinement and tail
    error exceeds the spec tolerance (relative to the estimate).
    """
    if spec is None:
        spec = QuadratureSpec()
    xs, ys = as_sample(x), as_sample(y)
    check_same_n(xs, ys)
    if not (xs.is_scalar and ys.is_scalar):
        raise DataQualityError("integral oracle is implemented for scalar samples only")
    xv = xs.data[:, 0]
    yv = ys.data[:, 0]

    gl_order = 4
    t_rad = spec.truncation_radius
    fine, max_num = _integral_on_grid(xv, yv, t_rad, spec.panel_count, gl_order)
    if max_num <= 1e-24:
        # integrand identically zero up to roundoff (e.g. a constant sample:
        # the joint ECF factorizes exactly, leaving only ~1e-32 noise)
        return QuadratureResult(0.0, 0.0)
    coarse, _ = _integral_on_grid(xv, yv, t_rad, spec.panel_count // 2, gl_order)

    # The truncation tail decays like 1/T per axis, so the mass gained
    # between radius T/2 and T estimates the mass still missing beyond T;
    # add it as a correction and keep it in the error bar.  The corner
    # quadrants beyond radius T in both axes are additionally bounded by
    # the trivial |phi_joint - phi_x phi_y|^2 <= 4 integrand bound.
    half, _ = _integral_on_grid(xv, yv, t_rad / 2.0, spec.panel_count, gl_order)
    tail_step = max(fine - half, 0.0)
    corner = 4.0 * (4.0 * (2.0 / t_rad) * (2.0 / t_rad))

    value = (fine + tail_step) / (C1 * C1)
    err = (abs(fine - coarse) + tail_step + corner) / (C1 * C1)
    if err > spec.tolerance:
        raise ConvergenceError(
            f"quadrature error estimate {err:.3e} exceeds tolerance for value {value:.6e}",
            best_estimate=value,
            error_estimate=err,
        )
    return QuadratureResult(value, err)


def dcov_sq_oracle_sums(x, y) -> float:
    """Three-sum expansion S1 + S2 - 2*S3 of the squared distance covariance.

    Plain loops and correctly rounded sums, own distance computation;
    intentionally shares nothing with the production path so that
    agreement is meaningful.
    """
    xs, ys = as_sample(x), as_sample(y)
    n = check_same_n(xs, ys)
    xrows = xs.data.tolist()
    yrows = ys.data.tolist()

    def dist(u, v):
        return math.hypot(*(ui - vi for ui, vi in zip(u, v)))  # no underflow of tiny gaps

    a = [[dist(xrows[k], xrows[l]) for l in range(n)] for k in range(n)]
    b = [[dist(yrows[k], yrows[l]) for l in range(n)] for k in range(n)]

    # math.fsum rounds each sum once, so the oracle's own error does not grow with n^3
    cells = [(k, l) for k in range(n) for l in range(n)]
    s1 = math.fsum(a[k][l] * b[k][l] for k, l in cells) / (n * n)
    a_bar = math.fsum(a[k][l] for k, l in cells) / (n * n)
    b_bar = math.fsum(b[k][l] for k, l in cells) / (n * n)
    s2 = a_bar * b_bar
    s3 = math.fsum(a[k][l] * b[k][m] for k, l in cells for m in range(n)) / (n * n * n)

    return s1 + s2 - 2.0 * s3
