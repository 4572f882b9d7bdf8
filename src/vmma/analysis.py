"""Statistics on simulated grids and deterministic error analysis.

Three groups of tools:

* empirical second moments — empirical_variogram, square_increment_dim —
  estimate smoothness from a single grid; the square-increment estimator is
  the two-scale (lags 1 and 2) log2-ratio form, returning a surface-dimension
  estimate in [2, 3] (2 - alpha for the fields simulated here).
* roughness_study — Monte-Carlo comparison of the simulation schemes: for
  each roughness exponent and scheme it averages the dimension estimator over
  replicates, the protocol behind the `vmma roughness` command.
* hybrid_mse / mse_study / rate_fit — deterministic quadrature decomposition
  of the hybrid scheme's one-point mean squared error into the inner-cell
  weight error (D1), the step-kernel error inside (D2) and outside (D3) the
  unit window, and the truncation tail (D4); n**(2(1+alpha)) * L(1/n)**(-2) *
  E_n converges to the j_constant of the covariance module, and rate_fit
  extracts the empirical convergence exponent.  That L(1/n)-normalised
  quantity (MseEntry.scaled) reaches J only as fast as L(1/n) -> L(0+): for
  Matern, L(x) = L(0+) - C x**(-alpha) + ..., so it carries a factor
  (L(0+)/L(1/n))**2 = 1 + O(n**alpha), about 1.25 at n = 80 for nu = 0.5.
  Normalising by L(0+)**2 instead removes that factor and converges much
  faster, because the constant -C in g drops out of the step-kernel errors.

  The step-kernel cells fall into three bands of rings by their canonical
  index a: near (kappa < a <= _NEAR_CUTOFF), inner far (up to _OUTER_FIRST)
  and outer far.  Every cell takes its band's cell rule -- a set of points
  and weights on the unit cell (quadrature.cell_rule) -- except the cells a
  kernel kink may cross, which take adaptive radial quadrature and alone
  share the adaptive budget.  Each band's rule is chosen once per hybrid_mse
  call by a probe on the band's innermost ring: the cheapest candidate
  whose multiplicity-weighted ring sum agrees with the band's reference to
  _GAUSS_AGREEMENT relative.  The candidates are m x m Gauss products, and
  for the outer far band also the 12-point degree-7 rule.  The near band's
  reference is the adaptive radial reduction, and with no candidate
  accepted it takes the adaptive path; the far bands' reference is the
  12 x 12 product, which they keep when no cheaper rule agrees.  Gauss
  error is set by the distance to the integrand's nearest singularity
  (Trefethen 2008, SIAM Rev. 50(1), the Bernstein ellipse); the kernel's
  only singularity is at the origin and its exponential scale is the same
  in every cell, so a band's innermost ring is its hardest.
  MseEntry.far_order reports the inner far band's order.  The bands are
  summed in chunks of whole rings, so no per-cell array grows with n.  The
  calling thread and one helper thread, started and joined by each
  hybrid_mse call, work the chunks off one ordered list (the D2 rings, then
  the D3 rings, band by band); the caller adds the chunk sums in that
  order, so the bits are those of a serial walk.  The probes, the adaptive
  cells, D1 (whose inner cells take the adaptive cells' routine) and D4
  stay on the caller.  The decomposition is at unit volatility.
"""

from __future__ import annotations

import contextvars
import math
import threading
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import (
    DEFAULT_POLICY,
    EvaluationPolicy,
    cell_weight,
    j_constant,
    octant_cells,
    representative_radii,
)
from .errors import (
    DegenerateDataError,
    QuadratureError,
    ValidationError,
    check_int,
    check_real,
)
from .fields import (
    ConstantVol,
    FieldGrid,
    SchemeParams,
    check_rate_hypothesis,
    fft_workers,
    hybrid_simulate,
    memory_ledger,
    prepare_hybrid,
    prepare_riemann,
    riemann_simulate,
    rng_stream,
)
from .kernels import KernelSpec, Matern
from .quadrature import (
    TWELVE_POINT,
    cell_rule,
    radial_cell_integral,
    square_exterior_radial_integral,
)

__all__ = [
    "empirical_variogram",
    "square_increment_dim",
    "SchemeChoice",
    "parse_scheme",
    "RoughnessRow",
    "RoughnessReport",
    "roughness_study",
    "MseEntry",
    "MseReport",
    "hybrid_mse",
    "mse_study",
    "rate_fit",
]


# ---------------------------------------------------------------------------
# Single-grid statistics


def empirical_variogram(grid: FieldGrid, max_lag_cells: int):
    """Mean squared difference at integer cell lags, pooled over both axes.

    Returns a list of (lag, value) pairs with lag = l * spacing for
    l = 1..max_lag_cells; value = average of (X_{s+l*e} - X_s)^2 over all
    positions s and both axis directions e.  Requires max_lag_cells <
    side/2 so every lag keeps at least half the grid as sample pairs.
    """
    if not isinstance(grid, FieldGrid):
        raise ValidationError("empirical_variogram needs a FieldGrid")
    side = grid.side
    check_int(max_lag_cells, "max_lag_cells", lo=1)
    if not max_lag_cells < side / 2:
        raise ValidationError(
            f"max_lag_cells={max_lag_cells} too large for side {side} "
            f"(need < side/2)"
        )
    v = grid.values
    out = []
    for l in range(1, max_lag_cells + 1):
        dx = v[:, l:] - v[:, :-l]
        dy = v[l:, :] - v[:-l, :]
        # both arrays have side*(side-l) entries: pooling = plain mean
        val = 0.5 * (np.mean(dx * dx) + np.mean(dy * dy))
        out.append((l * grid.spacing, float(val)))
    return out


def square_increment_dim(grid: FieldGrid) -> float:
    """Surface-dimension estimate from square increments at lags 1 and 2.

    Z_l(i,j) = X[i+l,j+l] - X[i+l,j] - X[i,j+l] + X[i,j];  V(l) = mean Z_l^2;
    estimate = 3 - log2(V(2)/V(1)) / 2, clamped to [2, 3].  Square increments
    annihilate affine surfaces, so V(1) at the rounding floor means the grid
    carries no curvature information (DegenerateDataError).
    """
    if not isinstance(grid, FieldGrid):
        raise ValidationError("square_increment_dim needs a FieldGrid")
    if grid.side < 8:
        raise ValidationError(f"grid side {grid.side} too small (need >= 8)")
    v = grid.values
    vhat = []
    for l in (1, 2):
        z = v[l:, l:] - v[l:, :-l] - v[:-l, l:] + v[:-l, :-l]
        vhat.append(float(np.mean(z * z)))
    # An affine surface evaluated in floating point leaves increments at the
    # rounding level (a few ulp of the values), not exactly zero; compare
    # against that floor rather than 0.
    floor = (16.0 * np.finfo(float).eps * max(1e-300, float(np.abs(v).max()))) ** 2
    if vhat[0] <= floor or vhat[1] <= floor:
        raise DegenerateDataError(
            "square increments vanish (affine or constant surface); "
            "dimension estimate undefined"
        )
    d = 3.0 - 0.5 * math.log2(vhat[1] / vhat[0])
    return min(3.0, max(2.0, d))


# ---------------------------------------------------------------------------
# Roughness study


@dataclass(frozen=True)
class SchemeChoice:
    """A simulation scheme for a study: 'hybrid' (with its inner-block
    half-width) or 'riemann' (kappa meaningless, stored as None)."""

    kind: str
    kappa: int | None = None

    def __post_init__(self):
        if self.kind == "hybrid":
            check_int(self.kappa, "hybrid scheme kappa", 0, 5)
        elif self.kind == "riemann":
            if self.kappa is not None:
                raise ValidationError("riemann scheme takes no kappa")
        else:
            raise ValidationError(f"unknown scheme kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "hybrid":
            return f"hybrid:{self.kappa}"
        return "riemann"


def parse_scheme(text: str) -> SchemeChoice:
    """Parse 'hybrid', 'hybrid:<kappa>', or 'riemann'."""
    s = text.strip().lower()
    if s == "riemann":
        return SchemeChoice("riemann")
    if s == "hybrid":
        return SchemeChoice("hybrid", 1)
    if s.startswith("hybrid:"):
        try:
            k = int(s.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad scheme {text!r}: kappa must be an integer") from None
        return SchemeChoice("hybrid", k)
    raise ValidationError(
        f"unknown scheme {text!r} (expected hybrid[:kappa] or riemann)"
    )


@dataclass(frozen=True)
class RoughnessRow:
    """One (alpha, scheme) cell of a roughness study."""

    alpha: float
    scheme: str                 # "hybrid" | "riemann"
    kappa: int | None
    mean_dim: float
    var_dim: float              # sample variance (ddof=1) of the estimates
    replicates: int             # valid (non-degenerate) estimates used
    skipped: int = 0
    seconds_first: float = 0.0  # wall time through the first replicate (incl. setup)
    seconds_total: float = 0.0
    estimates: tuple = ()       # per-replicate estimates if requested


@dataclass(frozen=True)
class RoughnessReport:
    """Roughness-study results: one row per (alpha, scheme) pair."""

    rows: tuple
    n: int
    gamma: float
    replicates: int
    seed: int

    CSV_HEADER = "alpha,scheme,kappa,mean_dim,var_dim,replicates"

    def to_csv_lines(self):
        lines = [self.CSV_HEADER]
        for r in self.rows:
            kap = "" if r.kappa is None else str(r.kappa)
            lines.append(
                f"{r.alpha:.17g},{r.scheme},{kap},"
                f"{r.mean_dim:.17g},{r.var_dim:.17g},{r.replicates}"
            )
        return lines


def _default_kernel_factory(alpha: float) -> KernelSpec:
    # nu = 1 + alpha gives a kernel with the requested roughness exponent
    return Matern(nu=1.0 + alpha, lam=1.0)


def roughness_study(
    alphas,
    schemes,
    n: int = 100,
    gamma: float = 0.3,
    replicates: int = 100,
    seed: int = 0,
    kernel_factory=None,
    keep_estimates: bool = False,
    workers: int | None = None,
) -> RoughnessReport:
    """Monte-Carlo roughness comparison across exponents and schemes.

    For each alpha and scheme, simulates `replicates` unit-volatility fields
    with independent substreams rng_stream(seed, 0, alpha_index,
    scheme_index, replicate), applies square_increment_dim, and reports the
    mean and sample variance of the estimates.  Degenerate replicates are
    skipped and counted.  schemes may be SchemeChoice objects or strings
    accepted by parse_scheme.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValidationError("alphas must be non-empty")
    scheme_objs = [s if isinstance(s, SchemeChoice) else parse_scheme(s) for s in schemes]
    if not scheme_objs:
        raise ValidationError("schemes must be non-empty")
    check_int(replicates, "replicates", lo=2)
    if kernel_factory is None:
        kernel_factory = _default_kernel_factory
    # the worker count and every cell's kernel and settings before the
    # first plan, so that a bad one is refused before any field is simulated
    fft_workers(workers)
    kernels = [kernel_factory(alpha) for alpha in alphas]
    if not all(isinstance(kernel, KernelSpec) for kernel in kernels):
        raise ValidationError("kernel_factory must return a KernelSpec")
    cell_params = [SchemeParams(n=n, gamma=gamma,
                                kappa=sc.kappa if sc.kind == "hybrid" else 0,
                                seed=seed)
                   for sc in scheme_objs]

    rows = []
    for ai, (alpha, kernel) in enumerate(zip(alphas, kernels)):
        for si, (sc, params) in enumerate(zip(scheme_objs, cell_params)):
            t0 = time.perf_counter()
            # release the previous cell's plan before building this one, so
            # that at most one plan spectrum is live
            plan = None
            if sc.kind == "hybrid":
                plan = prepare_hybrid(kernel, params, workers=workers)
                simulate = hybrid_simulate
            else:
                plan = prepare_riemann(kernel, params, workers=workers)
                simulate = riemann_simulate
            ests = []
            skipped = 0
            t_first = 0.0
            for rep in range(replicates):
                rng = rng_stream(seed, 0, ai, si, rep)
                grid = simulate(kernel, params, ConstantVol(1.0),
                                plan=plan, rng_noise=rng, workers=workers)
                try:
                    ests.append(square_increment_dim(grid))
                except DegenerateDataError:
                    skipped += 1
                if rep == 0:
                    t_first = time.perf_counter() - t0
            if len(ests) < 2:
                raise DegenerateDataError(
                    f"fewer than two usable estimates for alpha={alpha}, "
                    f"scheme={sc.label} ({skipped} degenerate replicates)"
                )
            arr = np.asarray(ests)
            rows.append(RoughnessRow(
                alpha=alpha, scheme=sc.kind, kappa=sc.kappa,
                mean_dim=float(arr.mean()), var_dim=float(arr.var(ddof=1)),
                replicates=len(ests), skipped=skipped,
                seconds_first=t_first,
                seconds_total=time.perf_counter() - t0,
                estimates=tuple(ests) if keep_estimates else (),
            ))
            if skipped:
                warnings.warn(
                    f"roughness_study: skipped {skipped} degenerate replicate(s) "
                    f"at alpha={alpha}, scheme={sc.label}"
                )
    return RoughnessReport(rows=tuple(rows), n=n, gamma=gamma,
                           replicates=replicates, seed=seed)


# ---------------------------------------------------------------------------
# Deterministic MSE decomposition


# The step-kernel cells fall into three bands of rings by the canonical index
# a: near (a <= _NEAR_CUTOFF), inner far (a < _OUTER_FIRST) and outer far.
# Each band takes the cheapest cell rule among its candidates, which are
# ordered by point count, whose multiplicity-weighted sum over the band's
# innermost ring agrees with the band's reference to _GAUSS_AGREEMENT
# relative: the adaptive radial reduction for the near band, the
# _FAR_ORDER x _FAR_ORDER product for the far bands.  An int is an order of
# the Gauss product; the inner far band takes only those, so
# MseEntry.far_order is an order.
_NEAR_CUTOFF = 12
_OUTER_FIRST = 52
_NEAR_CANDIDATES = (12, 16, 24)
_FAR_ORDER = 12
_FAR_CANDIDATES = (6, 8)
_OUTER_CANDIDATES = (TWELVE_POINT, 4, 6, 8)
_GAUSS_AGREEMENT = 1e-13
# relative error charged to a band's cell-rule sum at the least: the
# reference's own roundoff, which the probe cannot resolve
_GAUSS_ROUNDOFF = 1e-14
# canonical cells per chunk of whole rings in the step-kernel sums
_CHUNK_CELLS = 1 << 14
# bytes per cell of a chunk in work (traced: at most 214) and per task of
# the chunk list, with its result (traced: 263-265).  The ledger counts two
# chunks of at least _CHUNK_CELLS cells at this bound, so it over-counts:
# 7.4-7.5 MiB on the default ladder, 3-23 times its traced peaks.
_CELL_BYTES = 224
_TASK_BYTES = 272


@dataclass(frozen=True)
class MseEntry:
    """One-point mean squared error of the hybrid scheme at one resolution,
    split into its four quadrature-computed parts."""

    n: int
    d1: float   # inner cells: weighted-power vs true kernel
    d2: float   # step-kernel cells inside the unit window
    d3: float   # step-kernel cells out to the truncation window
    d4: float   # tail outside the truncation square
    e_n: float  # d1 + d2 + d3 + d4
    # n^(2(1+alpha)) * L(1/n)^(-2) * e_n; tends to J only as fast as
    # L(1/n) -> L(0+), i.e. with a relative offset O(n^alpha) for Matern
    scaled: float
    # tensor-Gauss order of the inner far band, 13 <= a < 52 (_FAR_ORDER
    # when its probe accepts no lower order or the band has no cells)
    far_order: int = _FAR_ORDER


@dataclass(frozen=True)
class MseReport:
    """MSE decomposition along an n-list plus the limiting reference."""

    kernel: KernelSpec
    gamma: float
    kappa: int
    policy: EvaluationPolicy
    entries: tuple
    j_ref: float
    rate: float
    intercept: float

    CSV_HEADER = "n,D1,D2,D3,D4,E_n,scaled,J_ref"

    def to_csv_lines(self):
        lines = [self.CSV_HEADER]
        for e in self.entries:
            lines.append(
                f"{e.n},{e.d1:.17g},{e.d2:.17g},{e.d3:.17g},{e.d4:.17g},"
                f"{e.e_n:.17g},{e.scaled:.17g},{self.j_ref:.17g}"
            )
        lines.append(f"# rate,{self.rate:.17g},intercept,{self.intercept:.17g}")
        return lines


def _kink_mask(a, b, kinks_cells):
    """Cells within a cell circumradius of a kink circle (radii in cell
    units): the cells that keep the adaptive path."""
    mask = np.zeros(np.shape(a), dtype=bool)
    if kinks_cells:
        d = np.hypot(a, b)
        for q in kinks_cells:
            mask |= np.abs(d - q) <= 0.7072
    return mask


def _tensor_cell_integrals(kernel, n, a, b, g0, rule):
    """Per cell, the cell rule's value (quadrature.cell_rule: an order of
    the Gauss product, or TWELVE_POINT) of the integral over the unit cell
    at (a, b) of (g(|j+u|/n) - g0)^2, accumulated point by point over
    (cells,) arrays."""
    acc = np.zeros(np.shape(a))
    for ux, uy, w in zip(*cell_rule(rule)):
        d = kernel.eval_g(np.hypot(a + ux, b + uy) / n) - g0
        acc += w * d * d
    return acc


def _adaptive_cell_integrals(kernel, n, a, b, c, e, tol, kinks_cells):
    """Per cell, the integral over the unit cell at (a, b) of
    (g(|s|/n) - c * (|s|/n)**e)^2 by the adaptive radial reduction with
    absolute tolerance tol: arrays (values, error estimates).  A step cell
    takes e = 0.0 (x**0.0 is exactly 1.0) and c = g0, a D1 cell e = alpha
    and c = its weight."""
    out = np.zeros((2, len(a)))
    for i, (ai, bi, ci) in enumerate(zip(a.tolist(), b.tolist(), c.tolist())):

        def fr(r):
            x = r / n
            d = kernel.eval_g(x) - ci * x**e
            return d * d

        out[:, i] = radial_cell_integral(fr, ai, bi, tol=tol,
                                         breakpoints=kinks_cells)
    return out


def _band_order(kernel, n, policy, kinks_cells, ring, candidates, reference):
    """Cheapest cell rule for a band whose innermost ring is `ring`.

    Integrates the ring's cells (kink cells excluded) at their
    representative radii with the reference -- a cell rule, or None for the
    adaptive radial reduction -- and with each candidate rule, cheapest
    first.  A candidate is accepted when its signed, multiplicity-weighted
    ring sum agrees with the reference's to _GAUSS_AGREEMENT relative; a
    zero reference passes only on an exact zero.  The ring sum is compared,
    not each cell: far out, g(|j+u|/n) - g0 loses digits in proportion to
    the distance in cells, and that roundoff (about 1e-13 per cell beyond
    a = 50) would reject every rule cell by cell.  Returns (rule, its
    relative discrepancy), or (reference, 0.0) when no candidate agrees or
    the ring has only kink cells.
    """
    a, b, mult = octant_cells(ring, ring - 1)
    keep = ~_kink_mask(a, b, kinks_cells)
    if not np.any(keep):
        return reference, 0.0
    a, b, mult = a[keep], b[keep], mult[keep]
    g0 = kernel.eval_g(representative_radii(a, b, kernel.alpha, policy) / n)
    if reference is None:
        cells = _adaptive_cell_integrals(kernel, n, a, b, g0, 0.0, 0.0, kinks_cells)[0]
    else:
        cells = _tensor_cell_integrals(kernel, n, a, b, g0, reference)
    ref = float(np.sum(mult * cells))
    for rule in candidates:
        s = float(np.sum(mult * _tensor_cell_integrals(kernel, n, a, b, g0, rule)))
        diff = abs(s - ref)
        if diff <= _GAUSS_AGREEMENT * abs(ref):
            return rule, diff / abs(ref) if ref else 0.0
    return reference, 0.0


def _ring_chunks(lo, hi):
    """Ring ranges (c_lo, c_hi] covering lo < a <= hi, each of whole rings
    holding at most _CHUNK_CELLS canonical cells (ring a holds a + 1), or of
    one ring when that ring alone holds more."""
    while lo < hi:
        top, cells = lo + 1, lo + 2
        while top < hi and cells + top + 2 <= _CHUNK_CELLS:
            top += 1
            cells += top + 1
        yield lo, top
        lo = top


def _chunk_cells(kernel, n, policy, kinks_cells, c_lo, c_hi, rule):
    """Cell-rule sum over the canonical cells c_lo < a <= c_hi of
    mult * integral over the unit cell at (a, b) of (g(|j+u|/n) - g(r_j/n))^2,
    in units of the unit cell, with `rule` (quadrature.cell_rule).  Returns
    (sum, adaptive cells), the last a list of (a, b, g0, mult) arrays: the
    cells a kink circle may cross, or with rule None every cell and no sum
    (None).  A pure function of its arguments, so any thread may run it."""
    a, b, mult = octant_cells(c_hi, c_lo)
    g0 = kernel.eval_g(representative_radii(a, b, kernel.alpha, policy) / n)
    if rule is None:
        return None, [(a, b, g0, mult)]
    adaptive = []
    kink = _kink_mask(a, b, kinks_cells)
    if np.any(kink):
        adaptive.append((a[kink], b[kink], g0[kink], mult[kink]))
        a, b, g0, mult = a[~kink], b[~kink], g0[~kink], mult[~kink]
    s = float(np.sum(mult * _tensor_cell_integrals(kernel, n, a, b, g0, rule)))
    return s, adaptive


def _on_two_threads(work, tasks):
    """[work(task) for task in tasks], computed on the calling thread and
    one helper thread.

    Both threads take task indices from one shared iterator and store each
    result by its index, so the list, and any reduction of it in index
    order, does not depend on which thread ran what.  The helper runs in a
    copy of the caller's context (numpy's errstate is a context variable),
    starts with the call and is joined on every exit.  After the first exception in
    either thread neither takes another task, and that exception, the same
    object, is raised in the caller once the helper has ended.
    """
    results = [None] * len(tasks)
    indices = iter(range(len(tasks)))
    lock = threading.Lock()
    failed = []

    def take():
        try:
            while not failed:
                with lock:
                    i = next(indices, None)
                if i is None:
                    return
                results[i] = work(tasks[i])
        except BaseException as exc:   # raised again in the caller's thread
            failed.append(exc)

    helper = threading.Thread(target=contextvars.copy_context().run,
                              args=(take,), name="vmma-mse", daemon=True)
    helper.start()
    try:
        take()
    finally:
        helper.join()
    if failed:
        raise failed[0]
    return results


def _step_cell_sums(kernel, n, spans, policy, bands, kinks_cells):
    """Cell-rule part, per span (lo, hi), of the sum over canonical cells
    lo < a <= hi of mult * integral over the unit cell at (a, b) of
    (g(|j+u|/n) - g(r_j/n))^2, in units of the unit cell (caller divides by
    n^2).

    bands lists (b_lo, b_hi, rule, rel): the rings b_lo < a <= b_hi take the
    band's cheapest rule, as its probe chose it, whose sum is charged
    max(rel, _GAUSS_ROUNDOFF) of itself as its error; rule None sends the
    band's cells to the adaptive path.  Each span's rings are cut band by
    band into the chunks of _ring_chunks, and the chunks of all spans form
    one ordered task list, which _chunk_cells works off on two threads (at
    most two chunks live, so no per-cell array grows with hi).  The chunk
    sums are then added span by span in task order, the order of a serial
    walk, so the bits do not depend on the threads.  Returns, per span,
    (sum, error charged, adaptive cells), the last a list of (a, b, g0,
    mult) arrays: the band cells without a rule and every cell a kink
    circle may cross.
    """
    tasks = [(span, c_lo, c_hi, rule, rel)
             for span, (lo, hi) in enumerate(spans)
             for b_lo, b_hi, rule, rel in bands
             for c_lo, c_hi in _ring_chunks(max(lo, b_lo), min(hi, b_hi))]
    chunks = _on_two_threads(
        lambda t: _chunk_cells(kernel, n, policy, kinks_cells, *t[1:4]), tasks)
    parts = [[0.0, 0.0, []] for _ in spans]
    for (span, _, _, _, rel), (s, adaptive) in zip(tasks, chunks):
        part = parts[span]
        part[2] += adaptive
        if s is not None:
            part[0] += s
            part[1] += s * max(rel, _GAUSS_ROUNDOFF)
    return [tuple(part) for part in parts]


def hybrid_mse(
    kernel: KernelSpec,
    params: SchemeParams,
    tol: float = 1e-9,
) -> MseEntry:
    """Deterministic one-point MSE of the hybrid scheme at unit volatility,
    by quadrature (no simulation); at a constant volatility sigma every
    term scales by sigma^2.

    The error field splits over disjoint cell families, giving
    E_n = D1 + D2 + D3 + D4:

      D1: inner cells j with max|j| <= kappa, integral of
          (w_j * |s|^alpha - g(|s|))^2 over the physical cell; w_j come
          from covariance.cell_weight, the function the engine's inner
          weights come from (central cell included), by the adaptive
          cells' routine.
      D2: step-kernel cells with kappa < max|j| <= n.
      D3: step-kernel cells with n < max|j| <= n_trunc.
      D4: integral of g^2 outside the truncation square (radial).

    tol bounds the summed ABSOLUTE error estimate of E_n (a quarter of tol
    per term); it is not a relative tolerance per term.  D1's quarter is
    split evenly over its cells.  In D2 and D3 each cell-rule band is
    charged max(its probe's relative discrepancy, _GAUSS_ROUNDOFF) of its
    own sum; the adaptively integrated cells -- the kink cells, and the near
    band's when its probe accepts no rule -- split a quarter of tol evenly,
    counted with their multiplicities.  A component is therefore only
    guaranteed to about tol/component relative, no accuracy at all for one
    far below tol, and pass a smaller tol when a small term matters on its
    own.  Measured: for Matern(0.5, 60) at n = 20, D2 = 1.44e-7 is 3e-15
    relative off a 24-point product-Gauss sum on the cell-rule near band,
    but was 5e-9 off with its near cells on the adaptive path.

    Emits the rate-hypothesis warning when the kernel's decay exponent makes
    the truncation growth too slow (same check as the engine).  Refuses,
    before any work, step-kernel sums that would not fit in memory
    (fields.memory_ledger), but sets no bound on the run time: the sums
    cover about n_trunc**2 / 2 canonical cells, and 1.6 M of them (n = 20,
    gamma = 1.5) took 10.3 s on two cores, so gamma = 1.5 at n = 80 (about
    1.6e9 cells) runs for hours.
    """
    if not isinstance(params, SchemeParams):
        raise ValidationError("hybrid_mse needs SchemeParams")
    check_real(tol, "tol", lo=0.0)
    N = params.n_trunc
    memory_ledger(f"the MSE at n={params.n}, gamma={params.gamma} (n_trunc={N})", {
        "task list, at most one task per ring": ((N, _TASK_BYTES), np.uint8),
        "two chunks in work": ((2, max(_CHUNK_CELLS, N + 1), _CELL_BYTES), np.uint8),
    })
    check_rate_hypothesis(kernel, params)

    alpha = kernel.alpha
    n, kappa = params.n, params.kappa
    policy = params.policy
    l_inv_n = float(kernel.eval_L(np.asarray(1.0 / n)))
    if not l_inv_n > 0.0:
        raise ValidationError(
            f"L(1/n) = {l_inv_n} at n = {n}: the scaled error normalises by "
            f"L(1/n)^2, so the kernel must not vanish at 1/n"
        )

    # ---- D1: inner cells, octant representatives.  The integrand
    # (g(|s|) - w * |s|^alpha)^2 is radial, so every cell, the origin cell
    # included, takes the adaptive radial reduction (in cell units; the n^-2
    # Jacobian is applied at the end).  The origin cell's singularity sits
    # at the endpoint r = 0, which QUADPACK never evaluates.  Kink radii are
    # passed through in cell units.  The sum is serial, in cell order.
    kinks_cells = tuple(q * n for q in kernel.kink_radii)
    tol_inner = tol * n**2 / (4.0 * (2 * kappa + 1) ** 2)
    a1, b1, m1 = octant_cells(kappa)
    w1 = np.array([cell_weight(kernel, n, j, policy) for j in zip(a1, b1)])
    v1, e1 = _adaptive_cell_integrals(kernel, n, a1, b1, w1, alpha,
                                      tol_inner, kinks_cells)
    d1 = err1 = 0.0
    for mult, v, e in zip(m1.tolist(), v1.tolist(), e1.tolist()):
        d1 += mult * v
        err1 += mult * e
    d1 /= n**2
    err1 /= n**2

    # ---- D2 and D3: step-kernel cells, octant representatives, by band.
    # Each band's rule comes from a probe on its innermost ring.
    specs = ((kappa, _NEAR_CUTOFF, _NEAR_CANDIDATES, None),
             (_NEAR_CUTOFF, _OUTER_FIRST - 1, _FAR_CANDIDATES, _FAR_ORDER),
             (_OUTER_FIRST - 1, N, _OUTER_CANDIDATES, _FAR_ORDER))
    bands = []
    far_order = _FAR_ORDER
    for i, (lo, hi, candidates, reference) in enumerate(specs):
        lo, hi = max(lo, kappa), min(hi, N)
        if lo < hi:
            rule, rel = _band_order(kernel, n, policy, kinks_cells, lo + 1,
                                    candidates, reference)
            bands.append((lo, hi, rule, rel))
            if i == 1:
                far_order = rule
    parts = _step_cell_sums(kernel, n, ((kappa, min(n, N)), (min(n, N), N)),
                            policy, bands, kinks_cells)

    # the adaptive budget is split over the cells that take the adaptive
    # path, counted with their multiplicities: the kink cells, and the near
    # band's when its probe accepts no rule.  The cell-rule bands are
    # charged their probes' discrepancies, far below tol_cell per cell, so
    # charging them would starve the adaptive cells.  Cell integrals are
    # computed in cell units, hence the n^2 Jacobian factor.
    n_adaptive = sum(int(np.sum(c[3])) for part in parts for c in part[2])
    tol_cell = tol * n**2 / (4.0 * max(n_adaptive, 1))
    sums = []
    for v, e, adaptive in parts:
        for a, b, g0, mult in adaptive:
            cv, ce = _adaptive_cell_integrals(kernel, n, a, b, g0, 0.0,
                                              tol_cell, kinks_cells)
            v += float(np.sum(mult * cv))
            e += float(np.sum(mult * ce))
        sums.append((v / n**2, e / n**2))
    (d2, err2), (d3, err3) = sums

    # ---- D4: tail outside the truncation square
    def g2(r):
        return np.asarray(kernel.eval_g(np.asarray(r))) ** 2

    d4, err4 = square_exterior_radial_integral(g2, params.c_n, tol=tol / 4.0,
                                               breakpoints=kernel.kink_radii)

    if err1 + err2 + err3 + err4 > tol:
        raise QuadratureError(
            f"MSE quadrature error estimate {err1 + err2 + err3 + err4:.2e} "
            f"exceeds tol {tol:.2e}"
        )

    e_n = d1 + d2 + d3 + d4
    scaled = float(n) ** (2.0 * (1.0 + alpha)) * l_inv_n ** (-2.0) * e_n
    return MseEntry(n=n, d1=d1, d2=d2, d3=d3, d4=d4, e_n=float(e_n),
                    scaled=float(scaled), far_order=far_order)


def mse_study(
    kernel: KernelSpec,
    ns,
    gamma: float = 0.5,
    kappa: int = 1,
    policy: EvaluationPolicy | None = None,
) -> MseReport:
    """hybrid_mse along an n-list plus the limiting j_constant and the
    fitted convergence rate of E_n."""
    ns = [check_int(n, "n", lo=1) for n in ns]
    if len(ns) < 3:
        raise ValidationError("need at least three n values for the rate fit")
    if policy is None:
        policy = DEFAULT_POLICY
    # every rung's settings before the first, so that a bad one is refused
    # before any quadrature runs
    rungs = [SchemeParams(n=n, gamma=gamma, kappa=kappa, policy=policy)
             for n in ns]
    entries = [hybrid_mse(kernel, params) for params in rungs]
    j_ref = j_constant(kernel.alpha, kappa, policy=policy)
    rate, intercept = rate_fit(ns, [e.e_n for e in entries])
    return MseReport(kernel=kernel, gamma=gamma, kappa=kappa, policy=policy,
                     entries=tuple(entries), j_ref=j_ref,
                     rate=rate, intercept=intercept)


def rate_fit(ns, errors):
    """Least-squares slope and intercept of log(error) against log(n).

    Both lists must have equal length >= 3 and positive entries; all-equal
    ns leave the slope undefined.
    """
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errors, dtype=float)
    if ns.ndim != 1 or ns.shape != errs.shape:
        raise ValidationError("ns and errors must be 1D lists of equal length")
    if ns.size < 3:
        raise ValidationError(f"need at least 3 points for a rate fit, got {ns.size}")
    if not (np.all(ns > 0) and np.all(errs > 0)):
        raise ValidationError("rate_fit needs strictly positive ns and errors")
    x = np.log(ns)
    if np.ptp(x) == 0.0:
        raise ValidationError("all ns equal; rate undefined")
    slope, intercept = np.polyfit(x, np.log(errs), 1)
    return float(slope), float(intercept)
