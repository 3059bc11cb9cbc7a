"""perfci: confidence intervals for performance measures of binary rules.

Point estimates, individual intervals and simultaneous (joint)
intervals for measures such as accuracy, F scores or Matthews
correlation, evaluated for one or more classification rules on a common
test set.  Includes an optional finite-sample variance correction that
keeps intervals usable in rare-event regimes, and a simulation harness
for checking coverage.
"""

from .covariance import (
    CorrelationMatrix,
    CovarianceEstimate,
    blurring_matrix,
    correct,
    correlation,
    covariance_matrix,
)
from .dataset import (
    BinaryDataset,
    EvaluationTarget,
    compute_moments,
    make_targets,
    read_csv,
    validate_table,
)
from .errors import (
    DatasetError,
    DimensionMismatchError,
    DomainError,
    DuplicateIdError,
    DuplicateRuleIdError,
    LengthMismatchError,
    NonBinaryValueError,
    NoUsableTargetsError,
    NotPositiveSemidefiniteError,
    OutOfRangeError,
    PerfciError,
    SingularVarianceError,
    TooFewRowsError,
    UnknownMeasureError,
    UnknownRuleError,
)
from .intervals import (
    CHOICE_CORRECTED,
    CHOICE_PLUGIN,
    IntervalReport,
    IntervalSpec,
    TargetInterval,
    analyze,
    individual_ci,
    joint_cis,
)
from .measures import (
    GradientTriple,
    MeasureCatalog,
    MeasureSpec,
    MomentTriple,
    builtin_measures,
    default_catalog,
    evaluate,
    gradient,
    resolve_measure,
)
from .quantiles import (
    QuantileRequest,
    QuantileResult,
    inv_norm_cdf,
    max_abs_quantile,
    norm_cdf,
    norm_pdf,
    sidak_quantile,
    two_sided_quantile,
)
from .simulation import (
    CoverageConfig,
    CoverageResult,
    EmpiricalBootstrapProcess,
    FixedPredictionRule,
    GaussianMixtureProcess,
    JointSetCoverage,
    OneNNRule,
    ThresholdRule,
    TrueParams,
    rare_positive_stress,
    run_coverage,
    stress_population,
    true_params,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # measures
    "MomentTriple",
    "GradientTriple",
    "MeasureSpec",
    "MeasureCatalog",
    "builtin_measures",
    "default_catalog",
    "resolve_measure",
    "evaluate",
    "gradient",
    # dataset
    "BinaryDataset",
    "EvaluationTarget",
    "make_targets",
    "read_csv",
    "validate_table",
    "compute_moments",
    # covariance
    "CovarianceEstimate",
    "CorrelationMatrix",
    "covariance_matrix",
    "blurring_matrix",
    "correct",
    "correlation",
    # quantiles
    "inv_norm_cdf",
    "norm_cdf",
    "norm_pdf",
    "sidak_quantile",
    "two_sided_quantile",
    "QuantileRequest",
    "QuantileResult",
    "max_abs_quantile",
    # intervals
    "IntervalSpec",
    "IntervalReport",
    "TargetInterval",
    "individual_ci",
    "joint_cis",
    "analyze",
    "CHOICE_PLUGIN",
    "CHOICE_CORRECTED",
    # simulation
    "GaussianMixtureProcess",
    "EmpiricalBootstrapProcess",
    "ThresholdRule",
    "OneNNRule",
    "FixedPredictionRule",
    "TrueParams",
    "true_params",
    "CoverageConfig",
    "CoverageResult",
    "JointSetCoverage",
    "run_coverage",
    "rare_positive_stress",
    "stress_population",
    # errors
    "PerfciError",
    "DomainError",
    "DuplicateIdError",
    "UnknownMeasureError",
    "UnknownRuleError",
    "DatasetError",
    "NonBinaryValueError",
    "LengthMismatchError",
    "TooFewRowsError",
    "DuplicateRuleIdError",
    "SingularVarianceError",
    "OutOfRangeError",
    "NotPositiveSemidefiniteError",
    "DimensionMismatchError",
    "NoUsableTargetsError",
]
