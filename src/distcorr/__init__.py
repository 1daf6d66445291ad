"""Distance covariance/correlation statistics, independence testing, and screening."""

from .core import (
    CenteredMatrix,
    PairStats,
    dcor,
    dcov_sq,
    double_center,
    pairwise_distances,
    pearson,
)
from .inference import PowerReport, TestResult, permutation_test, power_simulation
from .oracles import (
    QuadratureResult,
    QuadratureSpec,
    dcov_sq_oracle_sums,
    dcov_sq_via_integral,
    ecf_joint,
    ecf_marginal,
)
from .samples import Sample, as_sample
from .screening import (
    CorrelationTable,
    Dataset,
    OutlierRule,
    PairRecord,
    ScreenConfig,
    emit_plot_data,
    flag_outliers,
    load_dataset,
    pairwise_screen,
)
from .singular import SingularCheck, SingularParams, c_p, singular_constant, verify_singular_integral

__all__ = [
    "CenteredMatrix",
    "CorrelationTable",
    "Dataset",
    "OutlierRule",
    "PairRecord",
    "PairStats",
    "PowerReport",
    "QuadratureResult",
    "QuadratureSpec",
    "Sample",
    "ScreenConfig",
    "SingularCheck",
    "SingularParams",
    "TestResult",
    "as_sample",
    "c_p",
    "dcor",
    "dcov_sq",
    "dcov_sq_oracle_sums",
    "dcov_sq_via_integral",
    "double_center",
    "ecf_joint",
    "ecf_marginal",
    "emit_plot_data",
    "flag_outliers",
    "load_dataset",
    "pairwise_distances",
    "pairwise_screen",
    "pearson",
    "permutation_test",
    "power_simulation",
    "singular_constant",
    "verify_singular_integral",
]

__version__ = "0.1.0"
