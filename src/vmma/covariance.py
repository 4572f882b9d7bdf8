"""Closed-form cell integrals and the per-cell Gaussian covariance block.

Everything in the simulation scheme reduces to integrals of powers of the
distance over unit grid cells.  With box(j, e) = integral of ||x||**e over the
unit square centred at the integer point j, the covariances of the cell-local
Gaussian family are

    Var(plain cell mass)               = n**-2
    Cov(plain, power integral at j)     = n**(-2-a) * box(j, a)
    Var(power integral at j)            = n**(-2-2a) * box(j, 2a)
    Cov(power at j, power at k), j!=k   = n**(-2-2a) * cross integral (numeric)

where a is the roughness exponent.  box() itself has a closed form built from
integrals of ||x||**e over right triangles, which reduce to the Gauss
hypergeometric 2F1(1/2, 3/2 + e/2; 3/2; z); that is the only special function
the closed forms need.  Each closed form has one form, over arrays of cells:
box_power_integrals, and representative_radii below.

The cross integrals take one fixed polar product rule about the cell centre
(Gauss-Legendre in the angle, Gauss-Jacobi in the scaled radius), whose
radial weight absorbs the ||u||**a singularity of the pairs with the origin;
its orders 16 and 24 agree to about 1e-15, and _CROSS_TOL bounds their
difference.
They are reached through build_block, whose matrix at n = 1 holds them
unscaled.  Every build computes its block afresh: nothing is cached between
calls.

The module also owns the cell geometry that the engines, the MSE
decomposition and the constant J share: octant_cells enumerates the
canonical cells a >= b >= 0 with their multiplicities, representative_radii
gives their radii under the per-cell evaluation-point policy (midpoint vs
L2-optimal radius), and cell_weight gives the weight of an inner cell (L at
its radius, or the optimal central-cell coefficient).  J is the constant the
scaled mean-squared error converges to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp2f1, roots_jacobi

from .errors import (
    NotPositiveDefiniteError,
    QuadratureError,
    ValidationError,
    check_int,
    check_real,
)
from .quadrature import (
    gauss_nodes,
    radial_cell_integral,
    square_exterior_radial_integral,
)

__all__ = [
    "EvaluationPolicy",
    "DEFAULT_POLICY",
    "box_power_integrals",
    "CovarianceBlock",
    "build_block",
    "representative_radii",
    "central_L_coefficient",
    "cell_weight",
    "octant_cells",
    "j_constant",
]


# ---------------------------------------------------------------------------
# Evaluation-point policy

_MODES = ("midpoint", "optimal")
_CENTRAL_MODES = ("optimal_norm", "optimal_L")


@dataclass(frozen=True)
class EvaluationPolicy:
    """Where the kernel's slowly varying factor is evaluated on each cell.

    mode: radius representing a non-central cell j --
        "midpoint"  uses ||j||
        "optimal"   uses the L2-optimal radius box(j, a)**(1/a)
    central_mode: treatment of the central cell's weight --
        "optimal_norm" evaluates L at the optimal radius of the central cell
        "optimal_L"    uses the exact L2-optimal constant (a weighted average
                       of L over the cell); this is the default and is what
                       the error analysis assumes for the central cell
    """

    mode: str = "midpoint"
    central_mode: str = "optimal_L"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValidationError(f"policy mode must be one of {_MODES}")
        if self.central_mode not in _CENTRAL_MODES:
            raise ValidationError(
                f"policy central_mode must be one of {_CENTRAL_MODES}"
            )


DEFAULT_POLICY = EvaluationPolicy()


def check_policy(policy) -> None:
    """ValidationError unless `policy` is an EvaluationPolicy; the package's
    one home of that check."""
    if not isinstance(policy, EvaluationPolicy):
        raise ValidationError(f"policy must be an EvaluationPolicy, got {policy!r}")


# ---------------------------------------------------------------------------
# Triangle and box integrals (closed form)


def _tr_array(p, q, e: float):
    """Integral of ||x||**e over the triangle {q <= y <= x <= p}, vectorized.

    Requires 0 <= q <= p elementwise (p == q gives 0).  Derivation: in polar
    coordinates the ray at angle t crosses y = q at r = q/sin(t) and x = p at
    r = p/cos(t), and the angular antiderivative of cos(t)**-(e+2) (resp. sin)
    is s*2F1(1/2, (e+3)/2; 3/2; s**2) with s = sin(t) (resp. -, s = cos(t)).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p, q = np.broadcast_arrays(p, q)
    out = np.zeros(p.shape, dtype=float)

    c = 1.5 + e / 2.0
    f_half = hyp2f1(0.5, c, 1.5, 0.5)
    s2 = math.sqrt(2.0)

    nz = p > q  # p == q is a zero-area triangle
    if np.any(nz):
        pp, qq = p[nz], q[nz]
        rho2 = pp * pp + qq * qq
        term1 = (pp ** (e + 2.0) + qq ** (e + 2.0)) * (f_half / (s2 * (e + 2.0)))
        # q = 0: the angular lower limit is 0 and only term1 survives.
        res = term1
        pos = qq > 0.0
        if np.any(pos):
            pq, qv, r2 = pp[pos], qq[pos], rho2[pos]
            rho = np.sqrt(r2)
            f_p = hyp2f1(0.5, c, 1.5, pq * pq / r2)  # z in (1/2, 1)
            f_q = hyp2f1(0.5, c, 1.5, qv * qv / r2)  # z in [0, 1/2)
            res = res.copy()
            res[pos] -= (pq * qv ** (e + 2.0) * f_p + qv * pq ** (e + 2.0) * f_q) / (
                rho * (e + 2.0)
            )
        out[nz] = res
    return out


def box_power_integrals(j1, j2, e: float):
    """box((j1, j2), e) for arrays of octant representatives j1 >= j2 >= 0.

    The package's one form of box: callers reduce a cell (i, k) to its
    octant representative (max(|i|, |k|), min(|i|, |k|)) first, and a single
    cell is box_power_integrals(a, b, e) as a 0-d array.  The integrand is
    singular only on the central cell, where the integral is still finite.

    Assembles the unit square centred at (j1, j2) from triangle integrals,
    using the dihedral symmetry of ||.||:
      origin          8 * tr(1/2, 0)
      diagonal j1=j2  2 * tr(j1+1/2, j1-1/2)
      axis j2=0       2 * [tr+ - tr- on the half strip [j1-+1/2] x [0, 1/2]]
      interior        four-corner difference of triangles
    """
    if not -2.0 < e <= 0.0:
        raise ValidationError(
            f"power-integral exponent must be in (-2, 0] (integrable singular "
            f"powers), got {e}"
        )
    j1 = np.asarray(j1, dtype=float)
    j2 = np.asarray(j2, dtype=float)
    j1, j2 = np.broadcast_arrays(j1, j2)
    if not np.all((0.0 <= j2) & (j2 <= j1)):
        raise ValidationError(
            "box_power_integrals needs octant representatives 0 <= j2 <= j1; "
            "reduce by symmetry first"
        )
    out = np.empty(j1.shape, dtype=float)

    origin = (j1 == 0) & (j2 == 0)
    diag = (j1 == j2) & ~origin
    axis = (j2 == 0) & ~origin
    interior = ~(origin | diag | axis)

    if np.any(origin):
        out[origin] = 8.0 * _tr_array(0.5, 0.0, e)[()]
    if np.any(diag):
        a = j1[diag]
        out[diag] = 2.0 * _tr_array(a + 0.5, a - 0.5, e)
    if np.any(axis):
        a = j1[axis]
        out[axis] = 2.0 * (
            _tr_array(a + 0.5, 0.0, e)
            - _tr_array(a - 0.5, 0.0, e)
            - _tr_array(a + 0.5, 0.5, e)
            + _tr_array(a - 0.5, 0.5, e)
        )
    if np.any(interior):
        a, b = j1[interior], j2[interior]
        out[interior] = (
            _tr_array(a + 0.5, b - 0.5, e)
            - _tr_array(a - 0.5, b - 0.5, e)
            - _tr_array(a + 0.5, b + 0.5, e)
            + _tr_array(a - 0.5, b + 0.5, e)
        )
    return out


# ---------------------------------------------------------------------------
# Cross covariance of two power integrals on the same cell (numeric)

_D4 = (
    (1, 0, 0, 1),
    (-1, 0, 0, 1),
    (1, 0, 0, -1),
    (-1, 0, 0, -1),
    (0, 1, 1, 0),
    (0, -1, 1, 0),
    (0, 1, -1, 0),
    (0, -1, -1, 0),
)


def _canonical_pair(ja, jb):
    """Canonical representative of {ja, jb} under the square's symmetries.

    The cross integral is invariant under applying one dihedral map to both
    offsets and under swapping them; the representative is the lexicographic
    minimum over those 16 images, so symmetric pairs get the same float.
    """
    best = None
    for m in _D4:
        pa = (m[0] * ja[0] + m[1] * ja[1], m[2] * ja[0] + m[3] * ja[1])
        pb = (m[0] * jb[0] + m[1] * jb[1], m[2] * jb[0] + m[3] * jb[1])
        cand = (pa, pb) if pa <= pb else (pb, pa)
        if best is None or cand < best:
            best = cand
    return best


_CROSS_ORDERS = (16, 24)  # the polar rule's two orders; their gap is the estimate
_CROSS_TOL = 1e-10  # bound on that gap; QuadratureError above it (seen: ~1e-15)
# pairs per evaluation: each temporary is (8, 4 * 24**2) floats, 0.14 MiB,
# so that the block build stays inside the memory ledger's slack
_CROSS_CHUNK = 8


def _polar_rule(m: int, beta: float):
    """Order-m polar product rule on the unit cell at 0, weight ||u||**(beta-1).

    The cell splits into four triangles from its centre to each edge.  On the
    right one u = s*rho*(cos p, sin p) = (s/2, s*tan(p)/2) with |p| <= pi/4
    and rho = 1/(2 cos p), so ||u||**(beta-1) du = rho**(1+beta) s**beta ds dp:
    Gauss-Legendre in p, Gauss-Jacobi for the weight s**beta on [0, 1].  The
    other triangles are exact quarter turns.  Returns (ux, uy, w) with
    sum(w * f(ux, uy)) ~ int f(u) ||u||**(beta-1) du.
    """
    x, wx = roots_jacobi(m, 0.0, beta)
    s, ws = 0.5 * (x + 1.0), wx / 2.0 ** (beta + 1.0)
    t, wt = gauss_nodes(m)
    p = (t - 0.5) * (math.pi / 2.0)
    wp = wt * (math.pi / 2.0) * (0.5 / np.cos(p)) ** (1.0 + beta)
    bx = np.repeat(0.5 * s, m)
    by = np.outer(0.5 * s, np.tan(p)).ravel()
    w = np.outer(ws, wp).ravel()
    return (np.concatenate([bx, -by, -bx, by]),
            np.concatenate([by, bx, -by, -bx]), np.tile(w, 4))


def _cross_integrals(pairs, alpha: float) -> np.ndarray:
    """Cross integrals of the offset pairs pairs[i] = (ja, jb), ja != jb.

    Pairs with the origin integrate ||jb - u||**a against the rule's weight
    ||u||**a, which absorbs the singularity at the cell centre (a Duffy-type
    treatment); the rest take the plain weight.  Both orders of
    _CROSS_ORDERS run, and QuadratureError is raised if any pair's two
    values differ by more than _CROSS_TOL.
    """
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2, 2)
    swap = ~pairs[:, 1].any(axis=1)
    ja = np.where(swap[:, None], pairs[:, 1], pairs[:, 0])
    jb = np.where(swap[:, None], pairs[:, 0], pairs[:, 1])
    singular = ~ja.any(axis=1)
    out = np.empty(len(pairs))
    err = 0.0
    for sing in (False, True):
        idx = np.flatnonzero(singular == sing)
        if not idx.size:
            continue
        rules = [_polar_rule(m, 1.0 + alpha if sing else 1.0) for m in _CROSS_ORDERS]
        for lo in range(0, idx.size, _CROSS_CHUNK):
            rows = idx[lo:lo + _CROSS_CHUNK]
            est = []
            for ux, uy, w in rules:
                f = np.hypot(jb[rows, :1] - ux, jb[rows, 1:] - uy) ** alpha
                if not sing:
                    f *= np.hypot(ja[rows, :1] - ux, ja[rows, 1:] - uy) ** alpha
                est.append((f * w).sum(axis=1))
            out[rows] = est[1]
            err = max(err, float(np.max(np.abs(est[1] - est[0]))))
    if err > _CROSS_TOL:
        raise QuadratureError(
            f"cross integrals: orders {_CROSS_ORDERS} differ by {err:.3e} "
            f"> tol {_CROSS_TOL:.3e}"
        )
    return out


# ---------------------------------------------------------------------------
# Covariance block of the cell-local Gaussian family


@dataclass(frozen=True)
class CovarianceBlock:
    """Joint covariance of one cell's Gaussian integrals, with its factor.

    offsets lists the anchor offsets of the power integrals in row order; the
    final row/column belongs to the plain cell mass.  matrix is the full
    covariance at grid resolution n; chol is its lower Cholesky factor.
    """

    alpha: float
    kappa: int
    n: int
    offsets: tuple
    matrix: np.ndarray
    chol: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _block_offsets(kappa: int):
    rng = range(-kappa, kappa + 1)
    return tuple((a, b) for a in rng for b in rng)


def _base_matrix(alpha: float, kappa: int) -> np.ndarray:
    """Unscaled (n = 1) covariance of ((power integrals)_j, plain mass).

    Diagonal and plain-mass column from the closed form on the canonical
    cells; off-diagonal entries from one _cross_integrals call over the
    block's distinct canonical pairs.
    """
    offs = _block_offsets(kappa)
    d = len(offs) + 1
    a, b, _ = octant_cells(kappa)
    hi, lo = np.abs(offs).max(axis=1), np.abs(offs).min(axis=1)
    cell = hi * (hi + 1) // 2 + lo
    m = np.empty((d, d), dtype=float)
    m[np.arange(d - 1), np.arange(d - 1)] = box_power_integrals(a, b, 2.0 * alpha)[cell]
    m[:-1, -1] = m[-1, :-1] = box_power_integrals(a, b, alpha)[cell]
    m[-1, -1] = 1.0
    upper = np.triu_indices(d - 1, 1)
    pairs = {}
    slot = [pairs.setdefault(_canonical_pair(offs[i], offs[k]), len(pairs))
            for i, k in zip(*upper)]
    vals = _cross_integrals(list(pairs), alpha)[slot]
    m[upper] = m[upper[::-1]] = vals
    return m


def build_block(alpha: float, kappa: int, n: int) -> CovarianceBlock:
    """Covariance block and Cholesky factor for grid resolution n.

    The n-dependence is a diagonal similarity: scaling each power integral by
    n**(-1-alpha) and the plain mass by n**(-1) maps the unit-resolution
    matrix to the resolution-n one exactly, and the Cholesky factor scales the
    same way.  QuadratureError if the cross integrals miss _CROSS_TOL.
    """
    alpha = check_real(alpha, "alpha", -1.0, 0.0)
    kappa = check_int(kappa, "kappa", 0, 5)
    n = check_int(n, "n", lo=1)
    base = _base_matrix(alpha, kappa)
    offs = _block_offsets(kappa)
    d = base.shape[0]
    scale = np.full(d, float(n) ** (-1.0 - alpha))
    scale[-1] = 1.0 / float(n)
    matrix = base * scale[:, None] * scale[None, :]
    # The two scale multiplications associate differently above and below the
    # diagonal (1-ulp asymmetry); store the symmetrized matrix so callers see
    # exactly what gets factored.
    matrix = 0.5 * (matrix + matrix.T)

    sym = matrix
    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(sym) / d
        try:
            chol = np.linalg.cholesky(sym + jitter * np.eye(d))
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"covariance block (alpha={alpha}, kappa={kappa}, n={n}) "
                f"failed Cholesky even with jitter {jitter:.3e}"
            ) from exc

    return CovarianceBlock(alpha=alpha, kappa=kappa, n=n, offsets=offs,
                           matrix=matrix, chol=chol)


# ---------------------------------------------------------------------------
# Cell geometry: canonical cells, evaluation radii and inner weights


def octant_cells(hi: int, lo: int = -1):
    """Canonical cells a >= b >= 0 with lo < a <= hi, and their multiplicities.

    Returns integer arrays (a, b, mult) in row-major order, so that over all
    cells with a <= hi the cell (a, b) sits at index a(a+1)/2 + b.  mult is
    the size of the cell's orbit under the eight symmetries of the grid: 1
    at the origin, 4 on an axis or the diagonal, 8 elsewhere; the
    multiplicities sum to (2hi+1)**2 - (2lo+1)**2, or (2hi+1)**2 for lo = -1.
    """
    if lo < -1:
        raise ValidationError(f"octant_cells needs lo >= -1, got {lo}")
    first = lo + 1
    a = np.repeat(np.arange(first, hi + 1), np.arange(first + 1, hi + 2))
    b = np.arange(a.size) + first * (first + 1) // 2 - a * (a + 1) // 2
    mult = np.where(a == 0, 1, np.where((b == 0) | (b == a), 4, 8))
    return a, b, mult


def representative_radii(a, b, alpha: float, policy: EvaluationPolicy) -> np.ndarray:
    """Radii standing in for the canonical cells a >= b >= 0 under the policy.

    mode "midpoint" takes ||(a, b)||, "optimal" the L2-optimal radius
    box((a, b), alpha)**(1/alpha), at which the power equals its cell mean.
    The origin takes its optimal radius under either mode (the midpoint sits
    on the singularity), computed as a Python float power.  Under
    central_mode="optimal_L" the central weight is not a radius evaluation
    at all -- see central_L_coefficient.
    """
    check_real(alpha, "alpha", -1.0, 0.0)
    check_policy(policy)
    r0 = float(box_power_integrals(0, 0, alpha)) ** (1.0 / alpha)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if policy.mode == "midpoint":
        r = np.hypot(a, b)
    else:
        r = box_power_integrals(a, b, alpha) ** (1.0 / alpha)
    return np.where((a == 0.0) & (b == 0.0), r0, r)


def central_L_coefficient(kernel, n: int) -> float:
    """L2-optimal constant weight for the central cell.

    Minimizing the central-cell contribution to the squared error over a
    constant weight w gives the power-weighted average of L over the cell:

        w* = int ||u||**(2a) L(||u||/n) du  /  int ||u||**(2a) du,

    both integrals over the unit cell (the denominator is box(0, 2a)); the
    numerator is a radial_cell_integral at its absolute tolerance 1e-12.
    """
    alpha = kernel.alpha
    n = check_int(n, "n", lo=1)

    def fr(r):
        return r ** (2.0 * alpha) * kernel.eval_L(r / n)

    num, _ = radial_cell_integral(fr, 0, 0,
                                  breakpoints=[n * q for q in kernel.kink_radii])
    return num / float(box_power_integrals(0, 0, 2.0 * alpha))


def cell_weight(kernel, n: int, j, policy: EvaluationPolicy) -> float:
    """Weight of the exactly integrated inner cell j at resolution n.

    L(r_j / n) at the representative_radii radius of j's canonical cell
    (max|j_i|, min|j_i|), except for the central cell under
    central_mode="optimal_L", which takes central_L_coefficient.  The hybrid
    engine's inner weights and the MSE's D1 term both come from here.
    """
    check_policy(policy)
    a, b = abs(int(j[0])), abs(int(j[1]))
    if a == 0 and b == 0 and policy.central_mode == "optimal_L":
        return central_L_coefficient(kernel, n)
    r = representative_radii(max(a, b), min(a, b), kernel.alpha, policy)
    return kernel.eval_L(float(r) / n)


# ---------------------------------------------------------------------------
# Discretization constant J


def j_constant(
    alpha: float,
    kappa: int,
    policy: EvaluationPolicy = DEFAULT_POLICY,
    truncation: int | None = None,
) -> float:
    """Limit constant of the scaled mean-squared simulation error.

    J = sum over cells j outside the inner (2*kappa+1)^2 block of
        int over the cell of (||x||**alpha - r_j**alpha)**2 dx,
    with r_j the policy's representative radius.  Closed form per cell:
        midpoint: box(j,2a) - 2*||j||**a * box(j,a) + ||j||**(2a)
        optimal:  box(j,2a) - box(j,a)**2
    The sum is truncated at ||j||_inf <= T and completed with the leading
    gradient term of the tail, (alpha**2/12) * int_{||x||_inf > T+1/2}
    ||x||**(2a-2) dx, whose relative error is O(T**-2).
    """
    check_real(alpha, "alpha", -1.0, 0.0)
    kappa = check_int(kappa, "kappa", lo=0)
    check_policy(policy)
    T = (max(64, 10 * kappa + 10) if truncation is None
         else check_int(truncation, "truncation"))
    if T < 10 * kappa + 10:
        raise ValidationError(
            f"truncation {T} too small: need >= 10*kappa+10 = {10 * kappa + 10} "
            f"for the tail estimate to hold"
        )

    j1, j2, mult = octant_cells(T, kappa)
    box2a = box_power_integrals(j1, j2, 2.0 * alpha)
    boxa = box_power_integrals(j1, j2, alpha)
    if policy.mode == "midpoint":
        r_a = representative_radii(j1, j2, alpha, policy) ** alpha
        per_cell = box2a - 2.0 * r_a * boxa + r_a**2
    else:
        per_cell = box2a - boxa**2

    body = float(np.sum(mult * per_cell))

    tail, _ = square_exterior_radial_integral(
        lambda r: r ** (2.0 * alpha - 2.0), T + 0.5
    )
    return body + (alpha**2 / 12.0) * tail
