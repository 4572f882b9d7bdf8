"""Output checks for the benchmark workloads.

Every reference here is computed independently of vmma's numerical code,
from numpy and scipy only: kernel values from ``scipy.special.kv``, the
central-cell weight from a polar ``scipy.integrate.quad``, step-kernel cell
errors from a product Gauss-Legendre rule, and the field at single points
from a direct sum over the noise cells.  Each ``check_*`` function returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special


# ---------------------------------------------------------------------------
# Matern kernel and correlation


def matern_g(nu: float, lam: float, x):
    """Kernel g(x) = x**((nu-1)/2) K_{(nu-1)/2}(lam x), x > 0 (K_{-v} = K_v)."""
    x = np.asarray(x, dtype=float)
    v = (nu - 1.0) / 2.0
    return x**v * special.kv(abs(v), lam * x)


def matern_L(nu: float, lam: float, x):
    """Slowly varying factor L(x) = x**mu K_mu(lam x), mu = (1-nu)/2, x > 0."""
    x = np.asarray(x, dtype=float)
    mu = (1.0 - nu) / 2.0
    return x**mu * special.kv(mu, lam * x)


def matern_L0(nu: float, lam: float) -> float:
    """L(0+) = 2**(mu-1) Gamma(mu) lam**(-mu)."""
    mu = (1.0 - nu) / 2.0
    return 2.0 ** (mu - 1.0) * math.gamma(mu) * lam ** (-mu)


def matern_rho(nu: float, lam: float, h):
    """Matern correlation (lam h)**nu K_nu(lam h) / (2**(nu-1) Gamma(nu)), h > 0."""
    z = lam * np.asarray(h, dtype=float)
    return z**nu * special.kv(nu, z) / (2.0 ** (nu - 1.0) * math.gamma(nu))


def central_weight(nu: float, lam: float, n: int) -> float:
    """Weight of the central inner cell under the default policy: the
    power-weighted cell average of L,

        int |u|^(2 alpha) L(|u|/n) du / int |u|^(2 alpha) du

    over the unit cell at the origin, both in polar form over one octant."""
    e = 2.0 * (nu - 1.0) + 1.0                    # r^(2 alpha) times the Jacobian r

    def radial(t):
        v, _ = integrate.quad(lambda r: r**e * matern_L(nu, lam, r / n),
                              0.0, 0.5 / math.cos(t), epsabs=0.0, epsrel=1e-13,
                              limit=200)
        return v

    num, _ = integrate.quad(radial, 0.0, math.pi / 4.0, epsabs=0.0, epsrel=1e-13)
    den, _ = integrate.quad(lambda t: (0.5 / math.cos(t)) ** (e + 1.0) / (e + 1.0),
                            0.0, math.pi / 4.0, epsabs=0.0, epsrel=1e-13)
    return num / den


# ---------------------------------------------------------------------------
# roughness


def check_roughness(rows, alphas) -> list:
    """For each alpha the hybrid mean dimension is within 0.05 of 2 - alpha
    and the Riemann mean sits at least 0.1 below the hybrid mean.  rows carry
    .alpha, .scheme ("hybrid" | "riemann") and .mean_dim."""
    means = {(r.alpha, r.scheme): r.mean_dim for r in rows}
    problems = []
    for a in alphas:
        hyb, rie = means[(a, "hybrid")], means[(a, "riemann")]
        if not abs(hyb - (2.0 - a)) <= 0.05:
            problems.append(f"alpha={a}: hybrid mean dimension {hyb:.4f}, "
                            f"target {2.0 - a:.4f} +- 0.05")
        if not hyb - rie >= 0.1:
            problems.append(f"alpha={a}: riemann {rie:.4f} not 0.1 below "
                            f"hybrid {hyb:.4f}")
    return problems


# ---------------------------------------------------------------------------
# modulated-field: direct (non-FFT) sum at single output points


def step_kernel_matrix(nu: float, lam: float, n: int, N: int, kappa: int):
    """g(|k|/n) at cell midpoints for max|k| <= N, zero on the inner block
    max|k| <= kappa.  Rows follow the second coordinate k2."""
    k = np.arange(-N, N + 1, dtype=float)
    r = np.hypot(k[None, :], k[:, None])
    outer = np.maximum(np.abs(k[None, :]), np.abs(k[:, None])) > kappa
    A = np.zeros_like(r)
    A[outer] = matern_g(nu, lam, r[outer] / n)
    return A


def inner_weights(nu: float, lam: float, n: int, offsets):
    """L(|j|/n) for each inner offset j except the central one, which gets
    central_weight (the default policy: midpoint radii, L2-optimal centre)."""
    return np.array([central_weight(nu, lam, n) if (j1, j2) == (0, 0)
                     else float(matern_L(nu, lam, math.hypot(j1, j2) / n))
                     for j1, j2 in offsets])


def direct_sum(point, *, n, N, kappa, offsets, weights, w1, plain, sigma, A):
    """Field value at output index point = (i1, i2) by direct summation.

    X(i) = sum_j w_j sigma(i-j) W1_j(i-j)  +  sum_k A_k sigma(i-k) plain(i-k),
    with w1 of side 2(n+kappa)+1 and plain, sigma of side 2(N+n)+1, all
    centred on cell 0 with rows along the second coordinate.
    """
    i1, i2 = point
    total = 0.0
    for idx, (j1, j2) in enumerate(offsets):
        c1, c2 = i1 - j1, i2 - j2
        total += (weights[idx] * w1[c2 + n + kappa, c1 + n + kappa, idx]
                  * sigma[c2 + N + n, c1 + N + n])
    # cells i - k for k = N..-N: slice in increasing cell order, then reverse
    rows = slice(i2 + n, i2 + n + 2 * N + 1)
    cols = slice(i1 + n, i1 + n + 2 * N + 1)
    B = (sigma[rows, cols] * plain[rows, cols])[::-1, ::-1]
    return total + float(np.sum(A * B))


def check_point_values(values, n: int, points, refs, rel: float = 1e-10) -> list:
    """values[i2 + n, i1 + n] equals each direct-sum reference to rel times
    the larger of |ref| and the field's root mean square."""
    scale = float(np.sqrt(np.mean(np.square(values))))
    problems = []
    for (i1, i2), ref in zip(points, refs):
        got = float(values[i2 + n, i1 + n])
        if not abs(got - ref) <= rel * max(abs(ref), scale):
            problems.append(f"point {(i1, i2)}: field {got:.17g}, direct sum "
                            f"{ref:.17g}")
    return problems


# ---------------------------------------------------------------------------
# baseline-variogram


def variogram_target(variance: float, nu: float, lam: float, lags):
    """Exact variogram 2 sigma^2 (1 - rho(h)) of the stationary Matern field."""
    return 2.0 * variance * (1.0 - matern_rho(nu, lam, lags))


def check_variograms(circ, hyb, target) -> list:
    """circ, hyb: (replicates, lags) empirical variograms.  The circulant
    mean is within 3 SE of target at every lag; the hybrid mean is within
    3 SE (both samples' SEs combined) of the circulant mean for lags >= 2."""
    circ, hyb = np.asarray(circ), np.asarray(hyb)
    k = circ.shape[0]
    if k < 2 or hyb.shape[0] < 2:
        return [f"need at least 2 replicates per sampler, got {k} and {hyb.shape[0]}"]
    c_mean, h_mean = circ.mean(axis=0), hyb.mean(axis=0)
    c_se = circ.std(axis=0, ddof=1) / math.sqrt(k)
    h_se = hyb.std(axis=0, ddof=1) / math.sqrt(hyb.shape[0])
    problems = []
    for i in range(circ.shape[1]):
        if not abs(c_mean[i] - target[i]) <= 3.0 * c_se[i]:
            problems.append(f"circulant lag {i + 1}: mean {c_mean[i]:.5f}, "
                            f"target {target[i]:.5f}, 3 SE {3 * c_se[i]:.5f}")
    for i in range(1, circ.shape[1]):
        se = math.hypot(c_se[i], h_se[i])
        if not abs(h_mean[i] - c_mean[i]) <= 3.0 * se:
            problems.append(f"hybrid lag {i + 1}: mean {h_mean[i]:.5f}, "
                            f"circulant {c_mean[i]:.5f}, 3 SE {3 * se:.5f}")
    return problems


# ---------------------------------------------------------------------------
# mse-ladder


def step_kernel_error(nu: float, lam: float, n: int, N: int, kappa: int,
                      order: int = 24) -> float:
    """D2 + D3: (1/n^2) times the sum over cells j with kappa < max|j| <= N of
    the integral over the unit cell of (g(|j+u|/n) - g(|j|/n))^2, each cell
    by an order x order product Gauss-Legendre rule (octant representatives
    with their multiplicities)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = 0.5 * x, 0.5 * w                       # rule on [-1/2, 1/2]
    a, b = np.array([(a, b) for a in range(kappa + 1, N + 1)
                     for b in range(a + 1)], dtype=float).T
    mult = np.where((b == 0) | (b == a), 4.0, 8.0)
    g0 = matern_g(nu, lam, np.hypot(a, b) / n)
    total = np.zeros_like(a)
    for xi, wi in zip(x, w):
        r = np.hypot((a + xi)[:, None], b[:, None] + x[None, :]) / n
        d = matern_g(nu, lam, r) - g0[:, None]
        total += wi * (d * d) @ w
    return float(np.sum(mult * total)) / n**2


def check_mse(ns, e_n, scaled, rate, j_ref, alpha, L0, d23, d23_ref) -> list:
    """Rate -1 +- 0.15; n^(2(1+alpha)) E_n / (L0^2 J) within 10 % of 1 at the
    largest n; |scaled/J - 1| strictly falling along ns; D2 + D3 at the
    smallest n equal to the independent sum to 1e-12 relative."""
    problems = []
    if not abs(rate + 1.0) <= 0.15:
        problems.append(f"fitted rate {rate:.4f}, expected -1 +- 0.15")
    level = ns[-1] ** (2.0 * (1.0 + alpha)) * e_n[-1] / (L0**2 * j_ref)
    if not abs(level - 1.0) <= 0.10:
        problems.append(f"n={ns[-1]}: n^(2(1+alpha)) E_n / (L(0+)^2 J) = "
                        f"{level:.4f}, expected 1 +- 0.10")
    gaps = [abs(s / j_ref - 1.0) for s in scaled]
    if not all(later < earlier for earlier, later in zip(gaps, gaps[1:])):
        problems.append(f"|scaled/J - 1| does not fall strictly: {gaps}")
    if not abs(d23 - d23_ref) <= 1e-12 * abs(d23_ref):
        problems.append(f"n={ns[0]}: D2 + D3 = {d23:.17g}, independent "
                        f"tensor-Gauss sum {d23_ref:.17g}")
    return problems
