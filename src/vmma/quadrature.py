"""Radial quadrature on grid cells and a square's exterior, plus cached
Gauss-Legendre nodes and quadrature rules on the unit cell.

The integrands we meet are functions of the distance to a grid point, often
with an algebraic singularity or a kink on a circle.  Reducing an integral
over a region to one radial integral, int fr(r) * theta(r) * r dr, against
the angular measure theta(r) of the radius-r circle inside the region puts
every non-smooth point at a known radius, where the adaptive 1-D quadrature
(QUADPACK via scipy) splits.  One arc routine gives theta for every region
(each is folded into the first quadrant first) and one routine,
radial_integral, makes every QUADPACK call in the package (the kernels'
squared integral over the plane included); the origin cell is an ordinary
cell, its singularity at r = 0 an endpoint that QUADPACK never evaluates.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import integrate as _integrate

from .errors import check_int, check_real

__all__ = [
    "radial_integral",
    "radial_cell_integral",
    "square_exterior_radial_integral",
    "gauss_nodes",
    "cell_rule",
    "TWELVE_POINT",
]


@lru_cache(maxsize=32)
def gauss_nodes(m: int):
    """Gauss-Legendre nodes/weights on [0, 1], cached."""
    x, w = np.polynomial.legendre.leggauss(m)
    return (x + 1.0) / 2.0, w / 2.0


# The fully symmetric degree-7 rule for the square, tabulated in Stroud
# (1971), Approximate Calculation of Multiple Integrals.  Its 12 points are
# the lower bound for degree 7; the 4 x 4 Gauss product, of the same degree,
# spends 16.
TWELVE_POINT = "12-point degree 7"


def _twelve_point_rule():
    """(ux, uy, w) of the 12-point rule on [-1/2, 1/2]^2.  On [-1, 1]^2 it
    has (+-r, 0) and (0, +-r) with weight 98/405, and (+-s, +-s) and
    (+-t, +-t) with the weights below, summing to 4; the nodes are halved
    and the weights quartered for the unit cell."""
    q = math.sqrt(583.0)
    r = math.sqrt(6.0 / 7.0)
    s = math.sqrt((114.0 - 3.0 * q) / 287.0)
    t = math.sqrt((114.0 + 3.0 * q) / 287.0)
    pts = [(x, y, 98.0 / 405.0)
           for x, y in ((r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r))]
    for c, w in ((s, (178981.0 + 2769.0 * q) / 472230.0),
                 (t, (178981.0 - 2769.0 * q) / 472230.0)):
        pts += [(x, y, w) for x in (c, -c) for y in (c, -c)]
    return tuple(np.array(col) * scale
                 for col, scale in zip(zip(*pts), (0.5, 0.5, 0.25)))


@lru_cache(maxsize=32)
def cell_rule(rule):
    """Points (ux, uy) and weights w of a quadrature rule on the unit cell
    [-1/2, 1/2]^2, cached as read-only arrays: sum(w * f(ux, uy)) is the
    rule's value of the integral of f over the cell.

    rule is an int m >= 1 for the m x m Gauss-Legendre product, or
    TWELVE_POINT for the 12-point degree-7 rule; ValidationError for
    anything else.  The product is gauss_nodes(m) shifted by -1/2 and
    flattened i-major (ux = x_i, uy = x_k, w = w_i * w_k), so summing
    w * f point by point repeats the nested loop over i and k bit for bit.
    """
    if rule == TWELVE_POINT:
        ux, uy, w = _twelve_point_rule()
    else:
        m = check_int(rule, "cell rule order", lo=1)
        x, wx = gauss_nodes(m)
        ux, uy = np.repeat(x - 0.5, m), np.tile(x - 0.5, m)
        w = np.outer(wx, wx).ravel()
    for c in (ux, uy, w):
        c.setflags(write=False)
    return ux, uy, w


def _quadrant_arc(r: float, x0: float, x1: float, y0: float, y1: float) -> float:
    """Angular measure of {t in [0, pi/2]: r*(cos t, sin t) in
    [x0,x1]x[y0,y1]} for nonnegative bounds."""
    if r <= 0.0:
        return 0.0
    hi = min(math.acos(min(x0 / r, 1.0)), math.asin(min(y1 / r, 1.0)))
    lo = max(math.acos(min(x1 / r, 1.0)), math.asin(min(y0 / r, 1.0)))
    return max(0.0, hi - lo)


def radial_integral(fr, theta, lo: float, hi: float, cuts, tol: float):
    """int_lo^hi fr(r) * theta(r) * r dr, split at the cuts inside (lo, hi).

    A finite interval takes one QUADPACK call with the cuts as `points`; an
    infinite one takes a call per piece, since QUADPACK ignores `points`
    there.  tol is each call's absolute tolerance.  Returns (value,
    est_abs_error).
    """
    pts = sorted({float(c) for c in cuts if lo < c < hi})

    def f(r):
        return fr(r) * theta(r) * r

    opts = dict(epsabs=tol, epsrel=1e-13, limit=200)
    if math.isfinite(hi):
        return _integrate.quad(f, lo, hi, points=pts, **opts)
    val = err = 0.0
    for p, q in zip([lo, *pts], [*pts, hi]):
        v, e = _integrate.quad(f, p, q, **opts)
        val += v
        err += e
    return val, err


def square_exterior_radial_integral(fr, half_side: float, tol: float = 1e-12,
                                    breakpoints=()):
    """Integral of fr(||u||) over the region outside the square [-a, a]^2.

    a = half_side.  The circle leaves the square between r = a and the
    corner radius a*sqrt(2); its angular measure outside is 2*pi less four
    times the first-quadrant arc inside; fr must be integrable at infinity.
    `breakpoints` lists radii where fr is not smooth; the quadrature splits
    there.  fr must accept scalar input.  ValidationError unless half_side
    is a finite real > 0.

    Returns (value, est_abs_error).
    """
    a = check_real(half_side, "half_side", lo=0.0)

    def theta(r: float) -> float:
        return 2.0 * math.pi - 4.0 * _quadrant_arc(r, 0.0, a, 0.0, a)

    return radial_integral(fr, theta, a, math.inf,
                           (a * math.sqrt(2.0), *breakpoints), tol)


def _fold(c: int) -> tuple:
    """The unit interval centred at the integer c >= 0 folded onto [0, inf):
    (lo, hi, multiplicity).  At c = 0 it straddles 0 and folds onto [0, 1/2]
    twice."""
    return (0.0, 0.5, 2.0) if c == 0 else (c - 0.5, c + 0.5, 1.0)


def radial_cell_integral(fr, a: int, b: int, tol: float = 1e-12, breakpoints=()):
    """Integral of fr(||u||) over the unit cell centred at (a, b),
    a >= b >= 0, by radial reduction.

    The cell is folded into the first quadrant: an edge that straddles an
    axis folds onto the half edge from it twice, so a cell on the axis is
    twice a rectangle and the origin cell four times the quarter square.
    theta(r) is the rectangle's arc times that multiplicity, piecewise
    smooth with kinks only at the radii of the rectangle's corners, which
    (plus any caller-supplied fr breakpoints, e.g. a kernel cutoff) are
    passed to the 1D adaptive quadrature.  This handles integrands with
    circular discontinuities exactly, where tensor-panel 2D quadrature
    stalls, and a power singularity at the origin, which QUADPACK never
    evaluates.

    fr must accept scalar input.  ValidationError unless a and b are
    integers with 0 <= b <= a (bools are not integers).  Returns (value,
    est_abs_error).
    """
    a = check_int(a, "cell index a", lo=0)
    b = check_int(b, "cell index b", 0, a)
    x0, x1, mx = _fold(a)
    y0, y1, my = _fold(b)
    radii = {math.hypot(x, y) for x in (x0, x1) for y in (y0, y1)}

    def theta(r: float) -> float:
        return mx * my * _quadrant_arc(r, x0, x1, y0, y1)

    return radial_integral(fr, theta, min(radii), max(radii),
                           (*radii, *breakpoints), tol)
