"""vmma: simulation and analysis of rough volatility-modulated
moving-average Gaussian random fields on 2D grids.

The field is a moving average of white noise against an isotropic kernel
with an algebraic singularity at the origin (exponent alpha in (-1, 0),
times a slowly varying factor), optionally modulated by a stochastic
volatility field.  Sample surfaces have fractal dimension 3 - (1 + alpha).

Layout:

* kernels     — kernel families (Matern, exponential-decay, pure power) and
  the kernel grammar used by the CLI.
* covariance  — closed-form cell covariances of the singular part, the
  inner-block covariance matrix, optimal evaluation radii, and the limiting
  error constant of the hybrid scheme.
* fields      — the simulation engines (hybrid, Riemann-sum, circulant
  baseline), volatility models, and deterministic noise streams.
* analysis    — variograms, the square-increment dimension estimator,
  Monte-Carlo roughness studies, and the deterministic MSE decomposition.
* gridio      — VMG1 binary grids, CSV, and PGM export.
* specfun     — small special-function layer (Bessel K and a Gauss
  hypergeometric slice).
* cli         — the ``vmma`` command.
"""

from .analysis import (
    MseEntry,
    MseReport,
    RoughnessReport,
    RoughnessRow,
    SchemeChoice,
    empirical_variogram,
    hybrid_mse,
    mse_study,
    parse_scheme,
    rate_fit,
    roughness_study,
    square_increment_dim,
)
from .covariance import (
    DEFAULT_POLICY,
    CovarianceBlock,
    EvaluationPolicy,
    box_power_integral,
    build_block,
    central_L_coefficient,
    cross_covariance_integral,
    j_constant,
    optimal_b_norm,
    representative_radius,
    triangle_integral,
)
from .errors import (
    DegenerateDataError,
    EmbeddingError,
    NotPositiveDefiniteError,
    NumericError,
    QuadratureError,
    RateHypothesisWarning,
    ValidationError,
    VmmaError,
)
from .fields import (
    ConstantVol,
    ExpVmmaVolatility,
    FieldGrid,
    HybridPlan,
    ProvidedGridVol,
    SchemeParams,
    VolatilityModel,
    circulant_simulate,
    conv2_fft,
    hybrid_simulate,
    prepare_hybrid,
    prepare_riemann,
    riemann_simulate,
    rng_stream,
    sample_noise,
    scheme_variance,
    volatility_from_log_field,
)
from .gridio import read_vmg, write_csv, write_grid, write_pgm, write_vmg
from .kernels import (
    ExpDecay,
    KernelSpec,
    Matern,
    PurePower,
    format_kernel,
    matern_correlation,
    parse_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernels
    "KernelSpec", "Matern", "ExpDecay", "PurePower",
    "matern_correlation", "parse_kernel", "format_kernel",
    # covariance
    "EvaluationPolicy", "DEFAULT_POLICY", "CovarianceBlock",
    "triangle_integral", "box_power_integral", "cross_covariance_integral",
    "build_block", "optimal_b_norm", "representative_radius",
    "central_L_coefficient", "j_constant",
    # fields
    "SchemeParams", "FieldGrid", "VolatilityModel", "ConstantVol",
    "ProvidedGridVol", "ExpVmmaVolatility", "volatility_from_log_field",
    "rng_stream", "sample_noise", "conv2_fft", "HybridPlan",
    "prepare_hybrid", "hybrid_simulate", "prepare_riemann",
    "riemann_simulate", "circulant_simulate", "scheme_variance",
    # analysis
    "empirical_variogram", "square_increment_dim", "SchemeChoice",
    "parse_scheme", "RoughnessRow", "RoughnessReport", "roughness_study",
    "MseEntry", "MseReport", "hybrid_mse", "mse_study", "rate_fit",
    # gridio
    "write_vmg", "read_vmg", "write_csv", "write_pgm", "write_grid",
    # errors
    "VmmaError", "ValidationError", "NumericError", "QuadratureError",
    "EmbeddingError", "NotPositiveDefiniteError", "DegenerateDataError",
    "RateHypothesisWarning",
]
