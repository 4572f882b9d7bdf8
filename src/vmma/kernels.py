"""Moving-average kernel families.

A kernel is g(x) = x**alpha * L(x) for x > 0, where alpha in (-1, 0) controls
the small-scale roughness of the simulated field and L is slowly varying at 0
(L(x) -> L(0+) in (0, inf) as x -> 0).  Three families are built in:

* Matern(nu, lam): g(x) = x**((nu-1)/2) * K_{(nu-1)/2}(lam*x); here
  alpha = nu - 1 and the slowly varying factor carries the remaining half
  power together with the Bessel function (see the class docstring).
* ExpDecay(alpha): g(x) = x**alpha * exp(-x).
* PurePower(alpha, R): g(x) = x**alpha on (0, R], zero beyond.

`parse_kernel` / `format_kernel` implement the CLI grammar
(``matern:nu=0.5,lambda=1.0`` etc.), and parse_kernel(format_kernel(k)) == k
exactly for float arguments: each family's large-x decay is fixed by its
formula, so the grammar writes every instance.  A user kernel with
polynomial decay subclasses KernelSpec and overrides its beta_decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import QuadratureError, ValidationError, check_real
from .quadrature import radial_integral

__all__ = [
    "KernelSpec",
    "Matern",
    "ExpDecay",
    "PurePower",
    "bessel_k",
    "matern_correlation",
    "parse_kernel",
    "format_kernel",
]


def bessel_k(order: float, x):
    """Modified Bessel function of the second kind, K_order(x), for x > 0.

    Accepts scalar or array x.  Uses K_{-v} = K_v so negative orders are fine.
    The only place vmma evaluates Bessel K.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValidationError("bessel_k requires x > 0 (K_v diverges at 0)")
    out = _sp.kv(abs(float(order)), x)
    if out.ndim == 0:
        return float(out)
    return out


class KernelSpec:
    """Interface shared by kernel families.

    Subclasses provide:
      alpha          roughness exponent in (-1, 0)
      beta_decay     class attribute: the large-x decay exponent (|g| <= C
                     x**beta_decay for large x, < -1 for square
                     integrability at infinity).  The default -inf means
                     faster-than-polynomial decay or compact support, which
                     covers the built-in families; a user kernel with
                     polynomial decay overrides it.  Read only by the
                     truncation-growth hypothesis check, not validated
                     symbolically.
      _L(x)          the slowly varying factor on a float array x >= 0,
                     defined at x = 0 by its limit; eval_L and eval_g
                     validate x and unwrap scalars around it
      _g(x)          (optional) the kernel on a float array x > 0, when a
                     direct form beats x**alpha * _L(x)
      kink_radii     radii where g is not smooth (e.g. a hard cutoff);
                     quadrature routines split there
    """

    alpha: float
    beta_decay: float = -math.inf

    @property
    def kink_radii(self) -> tuple:
        return ()

    def _L(self, x):
        raise NotImplementedError

    def _g(self, x):
        return x**self.alpha * self._L(x)

    def eval_L(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise ValidationError("eval_L requires x >= 0")
        out = self._L(x)
        return float(out) if out.ndim == 0 else out

    def eval_g(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise ValidationError("eval_g requires x > 0")
        out = self._g(x)
        return float(out) if out.ndim == 0 else out

    def g_squared_integral(self, tol: float = 1e-10) -> float:
        """2*pi * int_0^inf g(r)^2 r dr  (the variance of the stationary field).

        One radial integral, split at r = 1 (integrable algebraic
        singularity at 0, decay beyond) and at the kink radii.  The
        estimated absolute error of int_0^inf g(r)^2 r dr is <= tol, or
        QuadratureError; tests compare every family against independent
        exact values.
        """
        tol = check_real(tol, "tol", lo=0.0)
        val, err = radial_integral(lambda r: self.eval_g(r) ** 2,
                                   lambda r: 1.0, 0.0, math.inf,
                                   (1.0, *self.kink_radii), tol / 2)
        if err > tol:
            raise QuadratureError(
                f"g_squared_integral did not converge (est err {err:.2e} "
                f"> tol {tol:.2e})"
            )
        return 2.0 * np.pi * val


@dataclass(frozen=True)
class Matern(KernelSpec):
    """Matern-type kernel: g(x) = x**(nu-1) * [x**mu * K_mu(lam*x)] with
    mu = (1-nu)/2, i.e. g(x) = x**((nu-1)/2) * K_{(nu-1)/2}(lam*x).

    alpha = nu - 1, and L(x) = x**mu * K_mu(lam*x) is slowly varying with
    L(0+) = 2**(mu-1) * Gamma(mu) * lam**(-mu).  Requires 0 < nu < 1 so that
    alpha lands in (-1, 0).  The squared-kernel integral is finite and the
    decay is exponential (beta_decay = -inf).
    """

    nu: float
    lam: float = 1.0

    def __post_init__(self):
        check_real(self.nu, "Matern nu", 0.0, 1.0)
        check_real(self.lam, "Matern lambda", lo=0.0)

    @property
    def alpha(self) -> float:
        return self.nu - 1.0

    @property
    def _mu(self) -> float:
        return (1.0 - self.nu) / 2.0

    def L_at_zero(self) -> float:
        mu = self._mu
        return 2.0 ** (mu - 1.0) * math.gamma(mu) * self.lam ** (-mu)

    def _L(self, x):
        out = np.empty(x.shape, dtype=float)
        pos = x > 0.0
        out[~pos] = self.L_at_zero()
        if np.any(pos):
            xp = x[pos]
            out[pos] = xp**self._mu * bessel_k(self._mu, self.lam * xp)
        return out

    def _g(self, x):
        # Direct form avoids the cancellation of alpha + mu exponents.
        return x ** ((self.nu - 1.0) / 2.0) * bessel_k(
            (self.nu - 1.0) / 2.0, self.lam * x
        )


@dataclass(frozen=True)
class ExpDecay(KernelSpec):
    """g(x) = x**alpha * exp(-x);  L(x) = exp(-x), L(0+) = 1."""

    alpha: float

    def __post_init__(self):
        check_real(self.alpha, "alpha", -1.0, 0.0)

    def _L(self, x):
        return np.exp(-x)


@dataclass(frozen=True)
class PurePower(KernelSpec):
    """g(x) = x**alpha for 0 < x <= R, zero beyond;  L = indicator of [0, R].

    The hard cutoff keeps the squared integral finite.  Within the cutoff the
    scheme's small-scale behaviour is exactly the pure power.
    """

    alpha: float
    R: float = 1.0

    def __post_init__(self):
        check_real(self.alpha, "alpha", -1.0, 0.0)
        check_real(self.R, "PurePower R", lo=0.0)

    @property
    def kink_radii(self) -> tuple:
        return (self.R,)

    def _L(self, x):
        return (x <= self.R).astype(float)


def matern_correlation(nu: float, lam: float, r):
    """Matern correlation rho(r) = (lam*r)**nu K_nu(lam*r) / (2**(nu-1) Gamma(nu)).

    rho(0) = 1.  nu > 0, lam > 0; r scalar or array, r >= 0.
    """
    check_real(nu, "matern_correlation nu", lo=0.0)
    check_real(lam, "matern_correlation lambda", lo=0.0)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValidationError("matern_correlation requires r >= 0")
    out = np.ones(r.shape, dtype=float)
    pos = r > 0.0
    if np.any(pos):
        z = lam * r[pos]
        out[pos] = z**nu * bessel_k(nu, z) / (2.0 ** (nu - 1.0) * math.gamma(nu))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# CLI grammar


def _parse_args(argstr: str, spec: str) -> dict:
    kwargs = {}
    if argstr.strip() == "":
        return kwargs
    for part in argstr.split(","):
        key, eq, val = part.partition("=")
        if not eq:
            raise ValidationError(f"bad kernel argument {part!r} in {spec!r}")
        key = key.strip().lower()
        try:
            kwargs[key] = float(val)
        except ValueError:
            raise ValidationError(
                f"kernel argument {key}={val!r} is not a number"
            ) from None
    return kwargs


def parse_kernel(spec: str) -> KernelSpec:
    """Parse ``matern:nu=F,lambda=F`` | ``expdecay:alpha=F`` | ``power:alpha=F[,R=F]``."""
    name, _, argstr = spec.partition(":")
    name = name.strip().lower()
    kw = _parse_args(argstr, spec)
    try:
        if name == "matern":
            return Matern(nu=kw.pop("nu"), lam=kw.pop("lambda", 1.0), **_none(kw, spec))
        if name == "expdecay":
            return ExpDecay(alpha=kw.pop("alpha"), **_none(kw, spec))
        if name == "power":
            return PurePower(alpha=kw.pop("alpha"), R=kw.pop("r", 1.0), **_none(kw, spec))
    except KeyError as exc:
        raise ValidationError(f"kernel {spec!r} is missing argument {exc}") from None
    raise ValidationError(f"unknown kernel family {name!r} (matern|expdecay|power)")


def _none(kw: dict, spec: str) -> dict:
    if kw:
        raise ValidationError(f"unknown kernel arguments {sorted(kw)} in {spec!r}")
    return {}


def format_kernel(kernel: KernelSpec) -> str:
    """Inverse of parse_kernel (canonical text form)."""
    if isinstance(kernel, Matern):
        return f"matern:nu={float(kernel.nu)!r},lambda={float(kernel.lam)!r}"
    if isinstance(kernel, ExpDecay):
        return f"expdecay:alpha={float(kernel.alpha)!r}"
    if isinstance(kernel, PurePower):
        return f"power:alpha={float(kernel.alpha)!r},R={float(kernel.R)!r}"
    raise ValidationError(f"cannot format kernel of type {type(kernel).__name__}")
