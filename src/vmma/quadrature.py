"""Radial quadrature on squares and cells, plus cached Gauss-Legendre nodes.

The integrands we meet are functions of the distance to a grid point, often
with an algebraic singularity or a kink on a circle.  Reducing an integral
over a square, a square's exterior or a grid cell to one radial integral
against the angular measure of the circle inside the region puts every
non-smooth point at a known radius, where the adaptive 1-D quadrature
(QUADPACK via scipy) splits.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import integrate as _integrate

from .errors import QuadratureError

__all__ = [
    "radial_unit_box_integral",
    "square_exterior_radial_integral",
    "gauss_nodes",
]


@lru_cache(maxsize=32)
def gauss_nodes(m: int):
    """Gauss-Legendre nodes/weights on [0, 1], cached."""
    x, w = np.polynomial.legendre.leggauss(m)
    return (x + 1.0) / 2.0, w / 2.0


def radial_unit_box_integral(fr, tol: float = 1e-12, breakpoints=()):
    """Integral of fr(||u||) over the unit square [-1/2, 1/2]^2, by radius.

    Uses octant symmetry: the angular measure of the circle of radius r inside
    the square is 8*ang8(r)*r dr with

        ang8(r) = pi/4                      for r <= 1/2
        ang8(r) = pi/4 - arccos(1/(2r))     for 1/2 < r <= 1/sqrt(2).

    `breakpoints` lists extra radii where fr is not smooth.  Returns
    (value, est_abs_error).  fr must accept array input.
    """

    def integrand(r):
        r = np.asarray(r, dtype=float)
        ang = np.full_like(r, np.pi / 4.0)
        m = r > 0.5
        if np.any(m):
            ang[m] -= np.arccos(1.0 / (2.0 * r[m]))
        return 8.0 * fr(r) * r * ang

    hi = 1.0 / np.sqrt(2.0)
    pts = sorted({0.5, *(float(b) for b in breakpoints if 0.0 < b < hi)})
    val, err = _integrate.quad(
        lambda r: float(integrand(np.asarray([r]))[0]),
        0.0,
        hi,
        points=pts,
        epsabs=tol,
        epsrel=1e-13,
        limit=200,
    )
    return val, err


def square_exterior_radial_integral(fr, half_side: float, tol: float = 1e-12,
                                    upper: float = np.inf, breakpoints=()):
    """Integral of fr(||u||) over the region outside the square [-a, a]^2.

    a = half_side.  Split by radius: for a < r < a*sqrt(2) the circle meets
    the square and the angular measure (whole circle) is 8*arccos(a/r); past
    a*sqrt(2) the full circle 2*pi contributes.  `upper` bounds the radial
    integral (np.inf by default; fr must then be integrable at infinity).
    `breakpoints` lists radii where fr is not smooth; the quadrature splits
    there (needed because QUADPACK ignores interior points on infinite
    intervals).

    Returns (value, est_abs_error).
    """
    a = float(half_side)
    if a <= 0:
        raise QuadratureError("square_exterior_radial_integral needs half_side > 0")
    diag = a * np.sqrt(2.0)

    v1 = e1 = 0.0
    if upper > a:
        hi = min(upper, diag)
        pts = sorted(float(b) for b in breakpoints if a < b < hi)
        v1, e1 = _integrate.quad(
            lambda r: 8.0 * np.arccos(a / r) * fr(r) * r,
            a,
            hi,
            points=pts,
            epsabs=tol,
            epsrel=1e-13,
            limit=200,
        )
    v2 = e2 = 0.0
    if upper > diag:
        cuts = [diag] + sorted(float(b) for b in breakpoints if diag < b < upper)
        cuts.append(upper)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            v, e = _integrate.quad(
                lambda r: 2.0 * np.pi * fr(r) * r,
                lo,
                hi,
                epsabs=tol,
                epsrel=1e-13,
                limit=200,
            )
            v2 += v
            e2 += e
    return v1 + v2, e1 + e2


def _theta_first_quadrant(r: float, x0: float, x1: float, y0: float, y1: float) -> float:
    """Angular measure of {theta in [0, pi/2]: r*(cos t, sin t) in
    [x0,x1]x[y0,y1]} for nonnegative bounds with x0 > 0."""
    if r <= 0.0:
        return 0.0
    hi = min(math.acos(min(x0 / r, 1.0)), math.asin(min(y1 / r, 1.0)))
    lo = max(math.acos(min(x1 / r, 1.0)), math.asin(min(y0 / r, 1.0)))
    return max(0.0, hi - lo)


def radial_cell_integral(fr, a: int, b: int, tol: float = 1e-12, breakpoints=()):
    """Integral of fr(||u||) over the unit cell centred at (a, b), a >= b >= 0,
    a >= 1, by radial reduction.

    The integral becomes int fr(r) * theta(r) * r dr with theta(r) the
    angular measure of the radius-r circle inside the cell — piecewise-smooth
    with kinks only at the corner and edge-foot radii, which (plus any
    caller-supplied fr breakpoints, e.g. a kernel cutoff) are passed to the
    1D adaptive quadrature.  This handles integrands with circular
    discontinuities exactly, where tensor-panel 2D quadrature stalls.

    fr must accept scalar input.  Returns (value, est_abs_error).
    """
    a = int(a)
    b = int(b)
    if not (a >= 1 and 0 <= b <= a):
        raise QuadratureError(
            f"radial_cell_integral needs an octant cell with a >= 1, got {(a, b)}"
        )
    x0, x1 = a - 0.5, a + 0.5
    y0, y1 = b - 0.5, b + 0.5
    if y0 < 0.0:
        # cell straddles the axis: integrate the upper half and mirror it
        parts = ((0.0, y1), (0.0, -y0))
    else:
        parts = ((y0, y1),)

    rmin = x0 if y0 <= 0.0 else math.hypot(x0, y0)
    rmax = math.hypot(x1, y1)

    def theta(r: float) -> float:
        return sum(_theta_first_quadrant(r, x0, x1, lo, hi) for lo, hi in parts)

    corners = {math.hypot(xx, yy) for xx in (x0, x1) for yy in (y0, y1)}
    feet = {x0, x1} if y0 <= 0.0 else set()
    pts = sorted(
        p for p in corners | feet | {float(bp) for bp in breakpoints}
        if rmin < p < rmax
    )
    val, err = _integrate.quad(
        lambda r: fr(r) * theta(r) * r,
        rmin,
        rmax,
        points=pts,
        epsabs=tol,
        epsrel=1e-13,
        limit=200,
    )
    return val, err
