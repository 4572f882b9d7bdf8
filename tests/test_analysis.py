"""Tests for the statistics layer: variogram, dimension estimator, the
roughness and discretization-error studies, and the rate fit.

Oracles: exact algebraic cases (constant, iid, affine grids), the circulant
sampler as an exact reference law, closed-form error decompositions, and
frozen decomposition values for one configuration.
"""

import contextvars
import dataclasses
import itertools
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from vmma import analysis
from vmma.analysis import (
    MseEntry,
    MseReport,
    RoughnessReport,
    SchemeChoice,
    empirical_variogram,
    hybrid_mse,
    mse_study,
    parse_scheme,
    rate_fit,
    roughness_study,
    square_increment_dim,
)
from vmma.covariance import (
    DEFAULT_POLICY,
    EvaluationPolicy,
    box_power_integrals,
    j_constant,
    octant_cells,
    representative_radii,
)
from vmma.errors import DegenerateDataError, QuadratureError, ValidationError
from vmma.fields import (
    FieldGrid,
    SchemeParams,
    circulant_simulate,
    prepare_circulant,
)
from vmma.kernels import (
    ExpDecay,
    Matern,
    PurePower,
    format_kernel,
    matern_correlation,
)
from vmma.quadrature import TWELVE_POINT, radial_cell_integral


def _grid(values, spacing=0.1):
    return FieldGrid(values=np.asarray(values, dtype=np.float64), spacing=spacing)


# ---------------------------------------------------------------------------
# empirical_variogram
# ---------------------------------------------------------------------------


def test_variogram_constant_grid_is_zero():
    out = empirical_variogram(_grid(np.full((11, 11), 7.0)), 3)
    assert [v for _, v in out] == [0.0, 0.0, 0.0]


def test_variogram_lags_are_physical_distances():
    out = empirical_variogram(_grid(np.zeros((11, 11)), spacing=0.25), 4)
    assert [l for l, _ in out] == pytest.approx([0.25, 0.5, 0.75, 1.0])


def test_variogram_iid_grid_near_two():
    # iid N(0,1): E (X_a - X_b)^2 = 2 at every lag.
    side = 301
    vals = np.random.default_rng(0).standard_normal((side, side))
    out = empirical_variogram(_grid(vals), 5)
    npairs = side * (side - 1)  # per axis, lag 1; SE ~ sqrt(8)/sqrt(2*npairs)
    se = math.sqrt(8.0) / math.sqrt(2 * npairs)
    for _, v in out:
        assert abs(v - 2.0) < 4 * se


def test_variogram_matches_circulant_law():
    # Exact sampler: variogram(l) = 2 * var * (1 - corr(l/n)), 3 SE over reps.
    nu, lam, var, n = 0.5, 1.0, 1.5, 25
    corr = lambda r: matern_correlation(nu, lam, r)
    reps = 120
    per_rep = []
    plan = prepare_circulant(corr, var, n)
    for r in range(reps):
        g = circulant_simulate(corr, var, n, seed=17, replicate=r, plan=plan)
        per_rep.append([v for _, v in empirical_variogram(g, 10)])
    per_rep = np.asarray(per_rep)
    mean = per_rep.mean(axis=0)
    se = per_rep.std(axis=0, ddof=1) / math.sqrt(reps)
    for i, l in enumerate(range(1, 11)):
        target = 2.0 * var * (1.0 - float(matern_correlation(nu, lam, l / n)))
        assert abs(mean[i] - target) < 3.0 * se[i], (l, mean[i], target)


def test_variogram_slope_recovers_roughness():
    # log-log slope over small lags approaches 2 + 2*alpha for the exact
    # baseline law (slowly varying factor bends it slightly; wide tolerance).
    nu = 0.5  # alpha = -0.5, target slope 1.0
    n = 60
    corr = lambda r: matern_correlation(nu, 1.0, r)
    reps = 40
    acc = np.zeros(5)
    plan = prepare_circulant(corr, 1.0, n)
    for r in range(reps):
        g = circulant_simulate(corr, 1.0, n, seed=23, replicate=r, plan=plan)
        acc += np.array([v for _, v in empirical_variogram(g, 5)])
    acc /= reps
    lags = np.arange(1, 6) / n
    slope = np.polyfit(np.log(lags), np.log(acc), 1)[0]
    assert abs(slope - (2 + 2 * (nu - 1.0))) < 0.2


def test_variogram_validation():
    g = _grid(np.zeros((9, 9)))
    with pytest.raises(ValidationError):
        empirical_variogram(g, 0)
    with pytest.raises(ValidationError):
        empirical_variogram(g, 5)  # not < side/2
    with pytest.raises(ValidationError):
        empirical_variogram(np.zeros((9, 9)), 2)


# ---------------------------------------------------------------------------
# square_increment_dim
# ---------------------------------------------------------------------------


def test_dim_iid_grid_is_three():
    # V(l) is lag-independent for iid values, so the estimate sits at the
    # clamp boundary 3 up to MC error.
    vals = np.random.default_rng(5).standard_normal((401, 401))
    d = square_increment_dim(_grid(vals))
    assert d > 2.97
    assert d <= 3.0


def test_dim_affine_surface_degenerate():
    x, y = np.meshgrid(np.arange(11.0), np.arange(11.0))
    g = _grid(3.0 + 2.0 * x - 0.7 * y)
    with pytest.raises(DegenerateDataError):
        square_increment_dim(g)
    with pytest.raises(DegenerateDataError):
        square_increment_dim(_grid(np.zeros((11, 11))))


def test_dim_affine_and_scale_invariance():
    vals = np.random.default_rng(9).standard_normal((31, 31))
    d0 = square_increment_dim(_grid(vals))
    x, y = np.meshgrid(np.arange(31.0), np.arange(31.0))
    d_affine = square_increment_dim(_grid(vals + 5.0 + 0.3 * x - 1.2 * y))
    assert d_affine == pytest.approx(d0, abs=1e-9)
    d_scaled = square_increment_dim(_grid(1000.0 * vals))
    assert d_scaled == pytest.approx(d0, abs=1e-12)


def test_dim_recovers_exact_baseline():
    # Mean estimate over exact-law replicates near 3 - (1 + alpha) = 2.5.
    corr = lambda r: matern_correlation(0.5, 1.0, r)
    n = 50
    ds = []
    plan = prepare_circulant(corr, 1.0, n)
    for r in range(30):
        g = circulant_simulate(corr, 1.0, n, seed=29, replicate=r, plan=plan)
        ds.append(square_increment_dim(g))
    mean = float(np.mean(ds))
    assert abs(mean - 2.5) < 0.05, mean


def test_dim_validation():
    with pytest.raises(ValidationError):
        square_increment_dim(_grid(np.zeros((7, 7))))  # side < 8
    with pytest.raises(ValidationError):
        square_increment_dim(np.zeros((8, 8)))  # not a FieldGrid


# ---------------------------------------------------------------------------
# scheme parsing
# ---------------------------------------------------------------------------


def test_parse_scheme():
    s = parse_scheme("hybrid")
    assert s.kind == "hybrid" and s.kappa == 1
    s = parse_scheme("hybrid:3")
    assert s.kind == "hybrid" and s.kappa == 3
    s = parse_scheme("riemann")
    assert s.kind == "riemann"
    assert parse_scheme("hybrid:0").kappa == 0


def test_parse_scheme_rejects_malformed():
    for bad in ("hybrid:x", "hybrid:-1", "fourier", "riemann:1", ""):
        with pytest.raises(ValidationError):
            parse_scheme(bad)


def test_scheme_choice_labels():
    assert SchemeChoice("hybrid", 2).label == "hybrid:2"
    assert SchemeChoice("riemann").label == "riemann"
    with pytest.raises(ValidationError):
        SchemeChoice("riemann", 0)  # riemann takes no inner block
    with pytest.raises(ValidationError):
        SchemeChoice("hybrid", True)
    with pytest.raises(ValidationError):
        SchemeChoice("x")


# ---------------------------------------------------------------------------
# roughness_study
# ---------------------------------------------------------------------------


def test_roughness_study_shape_and_determinism():
    rep = roughness_study(
        alphas=[-0.5, -0.3],
        schemes=["hybrid:1", "riemann"],
        n=20,
        gamma=0.3,
        replicates=4,
        seed=3,
    )
    assert isinstance(rep, RoughnessReport)
    assert len(rep.rows) == 4
    for row in rep.rows:
        assert 2.0 <= row.mean_dim <= 3.0
        assert row.replicates == 4
        assert row.var_dim >= 0.0
    rep2 = roughness_study(
        alphas=[-0.5, -0.3],
        schemes=["hybrid:1", "riemann"],
        n=20,
        gamma=0.3,
        replicates=4,
        seed=3,
    )
    for a, b in zip(rep.rows, rep2.rows):
        assert a.mean_dim == b.mean_dim  # bitwise reproducible


_SMALL_STUDY = dict(alphas=[-0.5], schemes=["hybrid:1", "riemann"], n=8,
                    gamma=0.3, replicates=4, seed=3, keep_estimates=True)


def _degenerate_on(monkeypatch, calls):
    """Make analysis.square_increment_dim raise DegenerateDataError on the
    study's estimates numbered (from 0, in study order) in `calls`."""
    real, count = analysis.square_increment_dim, itertools.count()

    def estimate(grid):
        if next(count) in calls:
            raise DegenerateDataError("patched")
        return real(grid)

    monkeypatch.setattr(analysis, "square_increment_dim", estimate)


def test_roughness_study_skips_degenerate_replicates(monkeypatch):
    ref = roughness_study(**_SMALL_STUDY)
    # estimates 0-3 are the hybrid row's replicates, 4-7 the riemann row's
    _degenerate_on(monkeypatch, {1, 2})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = roughness_study(**_SMALL_STUDY)
    assert [str(w.message) for w in caught] == [
        "roughness_study: skipped 2 degenerate replicate(s) at alpha=-0.5, "
        "scheme=hybrid:1"]
    hyb, rie = rep.rows
    assert (hyb.replicates, hyb.skipped) == (2, 2)
    assert (rie.replicates, rie.skipped) == (4, 0)
    kept = np.asarray([ref.rows[0].estimates[i] for i in (0, 3)])
    assert hyb.estimates == tuple(kept) and rie == dataclasses.replace(
        ref.rows[1], seconds_first=rie.seconds_first,
        seconds_total=rie.seconds_total)
    # the CSV is that of a study over the usable estimates alone
    usable = dataclasses.replace(
        ref, rows=(dataclasses.replace(
            ref.rows[0], mean_dim=float(kept.mean()),
            var_dim=float(kept.var(ddof=1)), replicates=2, skipped=2),
            ref.rows[1]))
    assert "\n".join(rep.to_csv_lines()) == "\n".join(usable.to_csv_lines())


def test_roughness_study_needs_two_usable_estimates(monkeypatch):
    _degenerate_on(monkeypatch, {4, 5, 7})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DegenerateDataError,
                           match=r"fewer than two usable .*riemann \(3 degenerate"):
            roughness_study(**_SMALL_STUDY)


def test_roughness_study_csv_shape():
    rep = roughness_study(
        alphas=[-0.5], schemes=["hybrid:1"], n=16, gamma=0.3, replicates=3, seed=0
    )
    lines = rep.to_csv_lines()
    assert lines[0] == "alpha,scheme,kappa,mean_dim,var_dim,replicates"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "-0.5"
    assert fields[1] == "hybrid"
    assert fields[2] == "1"
    assert int(fields[5]) == 3


def test_roughness_study_custom_kernel_factory():
    rep = roughness_study(
        alphas=[-0.5],
        schemes=["hybrid:1"],
        n=16,
        gamma=0.3,
        replicates=3,
        seed=1,
        kernel_factory=lambda a: ExpDecay(a),
        keep_estimates=True,
    )
    assert len(rep.rows[0].estimates) == 3


def test_roughness_study_kappa_insensitivity():
    # Mean dimension barely moves between kappa = 1, 2, 3 at alpha <= -0.3:
    # the inner-cell refinement changes the error constant, not the scaling.
    outs = {}
    for kappa in (1, 2, 3):
        rep = roughness_study(
            alphas=[-0.5],
            schemes=[f"hybrid:{kappa}"],
            n=100,
            gamma=0.3,
            replicates=20,
            seed=7,
        )
        outs[kappa] = rep.rows[0].mean_dim
    assert abs(outs[2] - outs[1]) < 0.02
    assert abs(outs[3] - outs[1]) < 0.02


def test_roughness_study_validation():
    with pytest.raises(ValidationError):
        roughness_study(alphas=[], schemes=["hybrid:1"], n=16, replicates=3)
    with pytest.raises(ValidationError):
        roughness_study(alphas=[-0.5], schemes=[], n=16, replicates=3)
    with pytest.raises(ValidationError):
        roughness_study(alphas=[-0.5], schemes=["hybrid:1"], n=16, replicates=1)
    with pytest.raises(ValidationError):
        roughness_study(alphas=[-0.5], schemes=["hybrid:1"], n=16, replicates=3,
                        kernel_factory=lambda a: "matern:nu=0.5")


# ---------------------------------------------------------------------------
# hybrid_mse / mse_study
# ---------------------------------------------------------------------------


def test_mse_components_nonnegative_and_sum():
    k = Matern(0.5, 1.0)
    p = SchemeParams(n=10, gamma=0.5, kappa=1)
    e = hybrid_mse(k, p)
    for part in (e.d1, e.d2, e.d3, e.d4):
        assert part >= 0.0
    assert e.e_n == pytest.approx(e.d1 + e.d2 + e.d3 + e.d4, rel=1e-12)
    assert e.scaled > 0.0


def test_mse_frozen_values_matern():
    # Frozen decomposition at one configuration (tol 1e-9).
    k = Matern(0.5, 1.0)
    p = SchemeParams(n=20, gamma=0.5, kappa=1)
    e = hybrid_mse(k, p)
    assert e.d1 == pytest.approx(2.597165e-03, rel=1e-4)
    assert e.e_n == pytest.approx(1.79694475e-02, rel=1e-6)
    assert e.scaled == pytest.approx(0.124864, rel=1e-4)


def test_mse_decreases_with_n():
    k = Matern(0.5, 1.0)
    es = [
        hybrid_mse(Matern(0.5, 1.0), SchemeParams(n=n, gamma=0.5, kappa=1)).e_n
        for n in (8, 12, 18)
    ]
    assert es[0] > es[1] > es[2]


def test_mse_truncation_term_shrinks_with_gamma():
    k = ExpDecay(-0.5)
    d4 = [
        hybrid_mse(k, SchemeParams(n=8, gamma=g, kappa=1)).d4 for g in (0.3, 0.6)
    ]
    assert d4[0] > d4[1] >= 0.0


def test_mse_central_correction_fraction_declines():
    # The central cell's share of the total error falls as n grows: the
    # constant-weight approximation of the slowly varying factor improves.
    k = Matern(0.5, 1.0)
    shares = []
    for n in (10, 20, 40):
        e = hybrid_mse(k, SchemeParams(n=n, gamma=0.5, kappa=1))
        shares.append(e.d1 / e.e_n)
    assert shares[0] > shares[1] > shares[2]


def test_mse_purepower_cutoff_outside_window():
    # Cutoff radius beyond the truncation square: the tail term is exactly
    # the closed-form ring integral of r^(2 alpha) between the square and R.
    k = PurePower(-0.5, R=10.0)
    p = SchemeParams(n=4, gamma=0.5, kappa=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        e = hybrid_mse(k, p)
    # independent value computed via the exterior radial reduction with
    # elementary pieces (analytic in a throwaway script; frozen)
    assert e.d4 == pytest.approx(47.848502092464, rel=1e-9)


def test_mse_rejects_kernel_vanishing_at_one_over_n(monkeypatch):
    # scaled normalises by L(1/n)^2; a cutoff below 1/n makes that zero,
    # and the check comes before any quadrature.
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran before the L(1/n) check")

    monkeypatch.setattr(analysis, "radial_cell_integral", no_quadrature)
    monkeypatch.setattr(analysis, "square_exterior_radial_integral",
                        no_quadrature)
    k = PurePower(-0.3, R=0.02)
    with pytest.raises(ValidationError, match=r"L\(1/n\)"):
        hybrid_mse(k, SchemeParams(n=10, gamma=0.5, kappa=1))


def test_mse_entry_fields_are_plain_numbers():
    cases = [(Matern(0.5, 1.0), 20), (ExpDecay(-0.3), 20), (ExpDecay(-0.3), 40)]
    for k, n in cases:
        e = hybrid_mse(k, SchemeParams(n=n, gamma=0.5, kappa=1))
        for f in dataclasses.fields(MseEntry):
            want = int if f.name in ("n", "far_order") else float
            assert type(getattr(e, f.name)) is want, (k, n, f.name)


def test_mse_frozen_values_purepower_kink_ring():
    # R = 1 puts the kernel's cutoff circle at 20 cells, beyond the 12-cell
    # near square: the cells it crosses take the adaptive path and share
    # the adaptive budget.  Frozen D2 from the code before those cells were
    # counted in the budget split.
    k = PurePower(-0.5, R=1.0)
    e = hybrid_mse(k, SchemeParams(n=20, gamma=0.5, kappa=1))
    assert e.d2 == pytest.approx(0.08880372862490157, abs=1e-9)


def _step_kernel_reference(kernel, n, N, kappa, policy):
    """(D2 + D3, D3) by product Gauss-Legendre over every step-kernel cell
    kappa < max|j| <= N: the 12 x 12 Gauss product on cells with a > 12,
    the 24 x 24 product on the cells nearer the origin's singularity.  Representatives a >= b
    carry their octant multiplicities; representative radii follow the
    policy (midpoint |j|, optimal box(j, alpha)^(1/alpha))."""
    a, b = np.array([(a, b) for a in range(kappa + 1, N + 1)
                     for b in range(a + 1)], dtype=float).T
    mult = np.where((b == 0) | (b == a), 4.0, 8.0)
    if policy.mode == "midpoint":
        rep = np.hypot(a, b)
    else:
        rep = box_power_integrals(a, b, kernel.alpha) ** (1.0 / kernel.alpha)
    g0 = kernel.eval_g(rep / n)
    cell = np.zeros_like(a)
    for order, sel in ((24, a <= 12), (12, a > 12)):
        x, w = np.polynomial.legendre.leggauss(order)
        x, w = 0.5 * x, 0.5 * w
        for xi, wi in zip(x, w):
            r = np.hypot((a[sel] + xi)[:, None], b[sel][:, None] + x[None, :])
            d = kernel.eval_g(r / n) - g0[sel][:, None]
            cell[sel] += wi * (d * d) @ w
    return (float(np.sum(mult * cell)) / n**2,
            float(np.sum((mult * cell)[a > n])) / n**2)


@pytest.mark.parametrize("policy", [EvaluationPolicy(),
                                    EvaluationPolicy(mode="optimal")],
                         ids=["midpoint", "optimal"])
@pytest.mark.parametrize("kernel", [Matern(0.5, 1.0), Matern(0.05, 1.0),
                                    ExpDecay(-0.5)], ids=format_kernel)
def test_mse_far_cells_match_gauss_product_reference(kernel, policy):
    for n in (20, 40):
        p = SchemeParams(n=n, gamma=0.5, kappa=1, policy=policy)
        e = hybrid_mse(kernel, p)
        d23, d3 = _step_kernel_reference(kernel, n, p.n_trunc, 1, policy)
        assert e.d2 + e.d3 == pytest.approx(d23, rel=1e-13, abs=0.0), n
        assert e.d3 == pytest.approx(d3, rel=1e-13, abs=0.0), n


def test_mse_far_order_drops_for_smooth_kernel():
    e = hybrid_mse(Matern(0.5, 1.0), SchemeParams(n=20, gamma=0.5, kappa=1))
    assert e.far_order == 6


@pytest.mark.parametrize("n,rule", [(20, 6), (40, TWELVE_POINT),
                                    (80, TWELVE_POINT)])
def test_mse_outer_band_probe_picks_cheapest_rule(n, rule):
    # The outer far band's probe on its innermost ring, a = 52, tries the
    # 12-point degree-7 rule first.  It is 1.8e-14 and 1.1e-14 off the
    # 12 x 12 reference at n = 40 and 80.  At n = 20 a cell spans twice the
    # kernel's scale it spans at n = 40: both degree-7 rules miss, the
    # 12-point rule by 1.2e-13 and the 4 x 4 product by 1.6e-13, and order 6
    # (8.6e-15) is the cheapest that agrees.
    k = Matern(0.5, 1.0)
    policy = SchemeParams(n=n, gamma=0.5, kappa=1).policy
    got, rel = analysis._band_order(k, n, policy, (), analysis._OUTER_FIRST,
                                    analysis._OUTER_CANDIDATES,
                                    analysis._FAR_ORDER)
    assert got == rule
    assert rel <= analysis._GAUSS_AGREEMENT


def test_mse_default_ladder_frozen():
    # The `vmma mse` default ladder, frozen from the all-Gauss-product outer
    # far band (orders 4, 6, 8) before the 12-point rule joined its
    # candidates.  The 12-point rule moves D3 by about 1e-14 relative at
    # n = 80 and leaves the other terms bit for bit.
    frozen = {
        20: (0.002597164689229315, 0.015065128003138297,
             0.00017087219166430064, 0.00013628266529009192,
             0.017969447549322004),
        40: (0.0006565821910872221, 0.008187268846322385,
             4.437754527013013e-05, 2.5646531382208997e-06,
             0.008890793235817956),
        80: (0.00016483955373201753, 0.004267507214259484,
             1.1305983491968686e-05, 9.703299669486749e-09,
             0.00444366245478314),
    }
    rep = mse_study(Matern(0.5, 1.0), [20, 40, 80], gamma=0.5, kappa=1)
    for e in rep.entries:
        got = (e.d1, e.d2, e.d3, e.d4, e.e_n)
        assert got == pytest.approx(frozen[e.n], rel=1e-13, abs=0.0), e.n


def test_mse_far_order_falls_back_for_steep_kernel():
    # lam = 60 varies on a third of a cell at n = 20: the 8 x 8 Gauss
    # product is 4.8e-11 off the 12 x 12 product on the innermost far
    # cells, so the probe keeps the 12 x 12 product.  At n = 20 every D3
    # cell (a > 20) is a far cell, so D3 checks the far rule itself.  D2 is
    # about 1.4e-7 here and its near cells take the tensor-Gauss near band,
    # which on this steep kernel matches the 24 x 24 product reference to
    # about 3e-15 relative.
    k = Matern(0.5, 60.0)
    policy = EvaluationPolicy()
    p = SchemeParams(n=20, gamma=0.5, kappa=1, policy=policy)
    e = hybrid_mse(k, p)
    assert e.far_order == 12
    d23, d3 = _step_kernel_reference(k, 20, p.n_trunc, 1, policy)
    assert e.d3 == pytest.approx(d3, rel=1e-13, abs=0.0)
    assert e.d2 + e.d3 == pytest.approx(d23, rel=1e-13, abs=0.0)


def _adaptive_cells(kernel, n, a, b, policy, tol):
    """Per cell, the adaptive radial reduction of the integral over the unit
    cell at (a, b) of (g(|j+u|/n) - g(r_j/n))^2 (cell units)."""
    g0 = kernel.eval_g(representative_radii(a, b, kernel.alpha, policy) / n)
    out = []
    for ai, bi, gi in zip(a.tolist(), b.tolist(), g0.tolist()):
        v, _ = radial_cell_integral(lambda r: (kernel.eval_g(r / n) - gi) ** 2,
                                    ai, bi, tol=tol)
        out.append(v)
    return np.array(out)


@pytest.mark.parametrize("policy", [EvaluationPolicy(),
                                    EvaluationPolicy(mode="optimal")],
                         ids=["midpoint", "optimal"])
@pytest.mark.parametrize("kernel", [Matern(0.5, 1.0), Matern(0.05, 1.0),
                                    ExpDecay(-0.5)], ids=format_kernel)
def test_mse_near_band_cells_match_radial_reduction(kernel, policy):
    # The near band's order is chosen on its innermost ring a = kappa + 1,
    # the ring nearest the origin's singularity; there its tensor-Gauss cell
    # values reproduce the adaptive radial reduction cell by cell.
    n, kappa = 20, 1
    ring = kappa + 1
    order, _ = analysis._band_order(kernel, n, policy, (), ring,
                                    analysis._NEAR_CANDIDATES, None)
    assert order in analysis._NEAR_CANDIDATES
    a, b, _ = octant_cells(ring, ring - 1)
    g0 = kernel.eval_g(representative_radii(a, b, kernel.alpha, policy) / n)
    got = analysis._tensor_cell_integrals(kernel, n, a, b, g0, order)
    ref = _adaptive_cells(kernel, n, a, b, policy, tol=0.0)
    assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_mse_near_band_falls_back_to_adaptive(monkeypatch):
    # A near candidate that cannot match the adaptive reference (2 points)
    # sends every near-band cell, 1 < a <= 12, to the adaptive path: one
    # more radial_cell_integral call per canonical cell there.  D2 then
    # equals the all-adaptive sum over its cells within tol, and D3 (far
    # bands only at n = 20) is untouched.
    k = Matern(0.5, 1.0)
    policy = EvaluationPolicy()
    p = SchemeParams(n=20, gamma=0.5, kappa=1, policy=policy)
    calls = []
    real = analysis.radial_cell_integral

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "radial_cell_integral", counting)
    tensor = hybrid_mse(k, p)
    base = len(calls)
    monkeypatch.setattr(analysis, "_NEAR_CANDIDATES", (2,))
    calls.clear()
    fallback = hybrid_mse(k, p)
    assert len(calls) - base == sum(a + 1 for a in range(2, 13))
    a, b, mult = octant_cells(20, 1)
    d2 = float(np.sum(mult * _adaptive_cells(k, 20, a, b, policy, 1e-13))) / 20**2
    assert fallback.d2 == pytest.approx(d2, rel=0.0, abs=1e-9)
    assert fallback.d3 == tensor.d3


def test_mse_ring_chunks_do_not_change_sums(monkeypatch):
    # At n = 40 the outer band (52 <= a <= 252) spans two default chunks;
    # one ring per chunk changes only the summation order.
    k = Matern(0.5, 1.0)
    p = SchemeParams(n=40, gamma=0.5, kappa=1)
    whole = hybrid_mse(k, p)
    monkeypatch.setattr(analysis, "_CHUNK_CELLS", 1)
    rings = hybrid_mse(k, p)
    assert rings.d2 == pytest.approx(whole.d2, rel=1e-15, abs=0.0)
    assert rings.d3 == pytest.approx(whole.d3, rel=1e-15, abs=0.0)


def test_mse_peak_memory_flat_in_n():
    # The step-kernel sums walk the rings in chunks, so no per-cell array
    # grows with n: from n = 40 (31 k canonical cells) to n = 80 (257 k) the
    # traced peak grows by at most one chunk's worth, taken as eight float64
    # arrays of _CHUNK_CELLS entries.  Unchunked it grows by about 17 MB.
    k = Matern(0.5, 1.0)
    hybrid_mse(k, SchemeParams(n=20, gamma=0.5, kappa=1))  # warm the caches
    peaks = {}
    for n in (40, 80):
        tracemalloc.start()
        try:
            hybrid_mse(k, SchemeParams(n=n, gamma=0.5, kappa=1))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    chunk = 8 * 8 * analysis._CHUNK_CELLS
    assert peaks[80] <= peaks[40] + chunk, peaks


# Every field of hybrid_mse's entry, frozen from the serial chunk walk
# (before the chunks ran on two threads): Matern(0.5, 1) at n = 20 for
# kappa = 0, 1, 2; the PurePower kink ring; D1's weights under the optimal
# policy and the optimal_norm centre, and a PurePower whose kink at 1.2
# cells leaves the near band's probe ring only kink cells, so the band keeps
# the adaptive reference (these three frozen before D1 joined the
# adaptive-cell routine); and n = 40 with one ring per chunk, where many
# chunks interleave with their adaptive kink cells.
_MATERN = Matern(0.5, 1.0)
_KINK = PurePower(-0.5, R=1.0)
_FROZEN_ENTRIES = [
    (_MATERN, 20, 0, DEFAULT_POLICY, None,
     (20, 0.0012021006572525657, 0.0430502352787565, 0.00017087219166430064,
      0.00013628266529009192, 0.04455949079296346, 0.30963060532384884, 6)),
    (_MATERN, 20, 1, DEFAULT_POLICY, None,
     (20, 0.002597164689229315, 0.015065128003138297, 0.00017087219166430064,
      0.00013628266529009192, 0.017969447549322004, 0.12486432908049158, 6)),
    (_MATERN, 20, 2, DEFAULT_POLICY, None,
     (20, 0.003250094483282078, 0.008243108305248176, 0.00017087219166430064,
      0.00013628266529009192, 0.011800357645484648, 0.08199716414592187, 6)),
    (_KINK, 20, 1, DEFAULT_POLICY, None,
     (20, 5.3904389331888296e-33, 0.08880372862490411, 0.0, 0.0,
      0.08880372862490411, 1.7760745724980822, 6)),
    (_MATERN, 20, 1, EvaluationPolicy(mode="optimal"), None,
     (20, 0.0025716020129398385, 0.01505480649303712, 0.00017086690282318924,
      0.00013628266529009192, 0.01793355807409024, 0.12461494382623904, 6)),
    (_MATERN, 20, 1, EvaluationPolicy(central_mode="optimal_norm"), None,
     (20, 0.002751892564901885, 0.015065128003138297, 0.00017087219166430064,
      0.00013628266529009192, 0.018124175424994577, 0.12593948691897697, 6)),
    (PurePower(-0.5, R=0.06), 20, 0, DEFAULT_POLICY, None,
     (20, 4.097694986238866e-33, 0.11258924735308697, 0.0, 0.0,
      0.11258924735308697, 2.2517849470617395, 6)),
    (_MATERN, 40, 1, DEFAULT_POLICY, 1,
     (40, 0.0006565821910872221, 0.008187268846322385, 4.4377545270130045e-05,
      2.5646531382208997e-06, 0.008890793235817956, 0.10615269240979948, 6)),
]


@pytest.mark.parametrize("kernel, n, kappa, policy, chunk_cells, frozen",
                         _FROZEN_ENTRIES,
                         ids=["kappa0", "kappa1", "kappa2", "kink", "optimal",
                              "optimal_norm", "kink-probe-ring", "rings40"])
def test_mse_entries_frozen_bit_for_bit(kernel, n, kappa, policy, chunk_cells,
                                        frozen, monkeypatch):
    if chunk_cells is not None:
        monkeypatch.setattr(analysis, "_CHUNK_CELLS", chunk_cells)
    e = hybrid_mse(kernel, SchemeParams(n=n, gamma=0.5, kappa=kappa,
                                        policy=policy))
    assert dataclasses.astuple(e) == frozen


def test_mse_charges_d1_error_estimate(monkeypatch):
    # Each of D1's 9 inner cells reports an error of 1e-6 in cell units:
    # 9e-6 / n^2 = 2.25e-8 is over tol 1e-9, so the call must refuse it.
    real = analysis.radial_cell_integral

    def loose(*args, **kwargs):
        return real(*args, **kwargs)[0], 1e-6

    monkeypatch.setattr(analysis, "radial_cell_integral", loose)
    with pytest.raises(QuadratureError, match="2.25e-08"):
        hybrid_mse(_MATERN, SchemeParams(n=20, gamma=0.5, kappa=1))


def test_mse_charges_cell_rule_bands(monkeypatch):
    # Charging each cell-rule band its whole sum gives an error estimate of
    # D2 + D3 (1.52e-2), far over tol: the band charges reach the check.
    monkeypatch.setattr(analysis, "_GAUSS_ROUNDOFF", 1.0)
    with pytest.raises(QuadratureError, match="1.52e-02"):
        hybrid_mse(_MATERN, SchemeParams(n=20, gamma=0.5, kappa=1))


# ---------------------------------------------------------------------------
# the MSE helper thread
# ---------------------------------------------------------------------------


_TOKEN = contextvars.ContextVar("test_analysis_token")


def _chunks_on_both_threads(monkeypatch, seen):
    """Patch analysis._chunk_cells so that each thread's first chunk waits
    for the other's (both threads then work chunks) and each call appends
    (thread, _TOKEN's value) to `seen`; one ring per chunk."""
    real = analysis._chunk_cells
    both = threading.Barrier(2, timeout=30)
    first = set()

    def chunk(*args):
        me = threading.current_thread()
        seen.append((me, _TOKEN.get(None)))
        if me not in first:
            first.add(me)
            both.wait()
        return real(*args)

    monkeypatch.setattr(analysis, "_chunk_cells", chunk)
    monkeypatch.setattr(analysis, "_CHUNK_CELLS", 1)


def test_mse_chunks_run_on_the_caller_and_one_thread_that_ends_with_the_call(
        monkeypatch):
    seen = []
    _chunks_on_both_threads(monkeypatch, seen)
    start = threading.active_count()
    e = hybrid_mse(_MATERN, SchemeParams(n=40, gamma=0.5, kappa=1))
    assert threading.active_count() == start
    threads = {t for t, _ in seen}
    assert len(threads) == 2 and threading.current_thread() in threads
    (helper,) = threads - {threading.current_thread()}
    assert helper.name == "vmma-mse" and not helper.is_alive()
    assert dataclasses.astuple(e) == _FROZEN_ENTRIES[-1][-1]


def test_mse_chunks_see_the_callers_context(monkeypatch):
    seen = []
    _chunks_on_both_threads(monkeypatch, seen)
    token = _TOKEN.set("caller")
    try:
        hybrid_mse(_MATERN, SchemeParams(n=40, gamma=0.5, kappa=1))
    finally:
        _TOKEN.reset(token)
    assert len({t for t, _ in seen}) == 2
    assert {v for _, v in seen} == {"caller"}


class _ChunkFailed(Exception):
    pass


@pytest.mark.parametrize("on", ["caller", "helper"])
def test_mse_chunk_error_reaches_the_caller_and_ends_the_thread(on,
                                                                monkeypatch):
    # _tensor_cell_integrals raises in the first chunk of one thread (each
    # thread's first chunk waits for the other's, so both threads have one);
    # the failed thread takes no other chunk, and the same exception object
    # leaves hybrid_mse once the helper has been joined
    seen = []
    _chunks_on_both_threads(monkeypatch, seen)
    real = analysis._tensor_cell_integrals
    error = _ChunkFailed(on)
    caller = threading.current_thread()
    fired = []

    def on_target(thread):
        return (thread is caller) == (on == "caller")

    def failing(*args):
        me = threading.current_thread()
        if not fired and on_target(me) and any(t is me for t, _ in seen):
            fired.append(me)
            raise error
        return real(*args)

    monkeypatch.setattr(analysis, "_tensor_cell_integrals", failing)
    start = threading.active_count()
    with pytest.raises(_ChunkFailed) as raised:
        hybrid_mse(_MATERN, SchemeParams(n=40, gamma=0.5, kappa=1))
    assert raised.value is error
    assert threading.active_count() == start
    assert len([t for t, _ in seen if on_target(t)]) == 1


def test_mse_study_report_and_csv():
    k = Matern(0.5, 1.0)
    rep = mse_study(k, [8, 12, 16], gamma=0.5, kappa=1)
    assert isinstance(rep, MseReport)
    lines = rep.to_csv_lines()
    assert lines[0] == "n,D1,D2,D3,D4,E_n,scaled,J_ref"
    assert len(lines) == 5  # header + 3 rows + rate comment
    assert lines[-1].startswith("# rate,")
    assert rep.j_ref == pytest.approx(j_constant(-0.5, 1), rel=1e-12)
    # E_n decreasing along the list
    es = [e.e_n for e in rep.entries]
    assert es[0] > es[1] > es[2]
    assert rep.rate < 0.0


def test_mse_study_validation():
    with pytest.raises(ValidationError):
        mse_study(Matern(0.5), [8, 12])  # fewer than three n values
    with pytest.raises(ValidationError):
        mse_study(Matern(0.5), [8.7, 12, 16])  # never truncated to n = 8
    with pytest.raises(ValidationError):
        hybrid_mse(Matern(0.5), {"n": 8, "gamma": 0.5, "kappa": 1})


# ---------------------------------------------------------------------------
# rate_fit
# ---------------------------------------------------------------------------


def test_rate_fit_exact_power_law():
    ns = [10, 20, 40, 80]
    errors = [3.0 * n**-1.25 for n in ns]
    slope, intercept = rate_fit(ns, errors)
    assert slope == pytest.approx(-1.25, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)


def test_rate_fit_constant_errors():
    slope, _ = rate_fit([10, 20, 40], [2.0, 2.0, 2.0])
    assert slope == pytest.approx(0.0, abs=1e-14)


def test_rate_fit_validation():
    with pytest.raises(ValidationError):
        rate_fit([10, 20], [1.0, 0.5])
    with pytest.raises(ValidationError):
        rate_fit([10, 20, 30], [1.0, 0.5])
    with pytest.raises(ValidationError):
        rate_fit([10, 20, 30], [1.0, -0.5, 0.1])
    with pytest.raises(ValidationError):
        rate_fit([10, 10, 10], [1.0, 0.5, 0.2])
