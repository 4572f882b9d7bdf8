"""Special-function wrappers with domain checking.

Everything here is a thin, validated shim over scipy.special.  The rest of the
package calls these instead of scipy directly so the domain handling lives in
one place.

The Gauss hypergeometric calls are restricted to the family
2F1(1/2, c; 3/2; z), which is the only family the covariance closed forms
need; the restriction lets us validate the argument range tightly.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import ValidationError

__all__ = [
    "bessel_k",
    "hyp2f1_half",
]


def bessel_k(order: float, x):
    """Modified Bessel function of the second kind, K_order(x), for x > 0.

    Accepts scalar or array x.  Uses K_{-v} = K_v so negative orders are fine.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValidationError("bessel_k requires x > 0 (K_v diverges at 0)")
    out = _sp.kv(abs(float(order)), x)
    if out.ndim == 0:
        return float(out)
    return out


def hyp2f1_half(c_shift: float, z):
    """Gauss hypergeometric 2F1(1/2, c_shift; 3/2; z) for z in [0, 1).

    `c_shift` is the second upper parameter (in our use, 3/2 + e/2 with
    e > -2, so c_shift > 1/2, and the series converges on [0, 1)).
    Accepts scalar or array z.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0) or np.any(z >= 1.0):
        raise ValidationError(
            "hyp2f1_half requires 0 <= z < 1 (z=1 is the boundary singularity)"
        )
    out = _sp.hyp2f1(0.5, c_shift, 1.5, z)
    if out.ndim == 0:
        return float(out)
    return out

