"""Exception and warning types shared across the package.

Two failure families matter to callers (and map onto CLI exit codes):
validation problems with the requested computation (bad parameters, unusable
combinations — exit code 2) and numeric failures inside an otherwise valid
computation (quadrature that will not converge, an embedding that is not
nonnegative definite, a covariance block that will not factor — exit code 3).

check_int and check_real are the package's one home for the type and range
check of a scalar public argument.
"""

import math
import numbers
import sys


class VmmaError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(VmmaError, ValueError):
    """A parameter or parameter combination is outside the supported domain."""


def check_int(value, name: str, lo: int | None = None,
              hi: int | None = None) -> int:
    """`value` as an int when it is an integer (a Python or NumPy integer,
    never a bool) with lo <= value <= hi (None: unbounded), else
    ValidationError naming `name`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (lo is not None and value < lo) or (hi is not None and value > hi)):
        bound = (f" in {lo}..{hi}" if lo is not None and hi is not None
                 else f" >= {lo}" if lo is not None
                 else f" <= {hi}" if hi is not None else "")
        raise ValidationError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def check_real(value, name: str, lo: float = -math.inf,
               hi: float = math.inf) -> float:
    """`value` as a float when it is a real (never a bool) that is finite as
    a float and strictly inside (lo, hi), else ValidationError naming
    `name`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (abs(value) <= sys.float_info.max and lo < value < hi)):
        bound = (f" in ({lo:g}, {hi:g})" if math.isfinite(lo) and math.isfinite(hi)
                 else f" > {lo:g}" if math.isfinite(lo)
                 else f" < {hi:g}" if math.isfinite(hi) else "")
        raise ValidationError(f"{name} must be a finite number{bound}, got {value!r}")
    return float(value)


class NumericError(VmmaError, RuntimeError):
    """A numeric procedure failed to reach its contract."""


class QuadratureError(NumericError):
    """Adaptive quadrature did not converge within its budget."""


class EmbeddingError(NumericError):
    """Circulant embedding stayed indefinite after all padding retries."""


class NotPositiveDefiniteError(NumericError):
    """A covariance block failed Cholesky factorization even after jitter."""


class DegenerateDataError(NumericError):
    """Input data is degenerate for the requested statistic.

    Example: a grid whose lag-1 square increments all vanish (any affine
    surface) carries no roughness information, so the dimension estimator
    has no defined value.  Studies catch this, skip the replicate, and
    report the skip count.
    """


class RateHypothesisWarning(UserWarning):
    """The truncation-growth exponent violates the convergence hypothesis.

    Simulation and error analysis still run — the scheme is well defined for
    any gamma > 0 — but the asymptotic error guarantee no longer applies.
    """
