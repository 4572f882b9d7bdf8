"""Tests for the closed-form covariance machinery.

Oracles: elementary closed forms (areas, asinh), scipy.integrate.dblquad as an
independent adaptive 2D quadrature, frozen high-precision values, and
structural identities (dihedral symmetry, exact resolution scaling).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from vmma import covariance
from vmma.covariance import (
    DEFAULT_POLICY,
    EvaluationPolicy,
    _tr_array,
    box_power_integrals,
    build_block,
    cell_weight,
    central_L_coefficient,
    j_constant,
    octant_cells,
    representative_radii,
)
from vmma.errors import NotPositiveDefiniteError, QuadratureError, ValidationError
from vmma.fields import SchemeParams, _octant_entries, prepare_hybrid
from vmma.kernels import ExpDecay, Matern, PurePower

OPTIMAL = EvaluationPolicy(mode="optimal", central_mode="optimal_L")


def _box(j, e):
    """box(j, e) of one octant cell j, through the array form."""
    return float(box_power_integrals(j[0], j[1], e))


def _cross(ja, jb, alpha):
    """Cross integral of the offsets ja != jb: their entry of the
    unit-resolution block, whose scale is exactly 1."""
    blk = build_block(alpha, max(map(abs, ja + jb)), 1)
    return blk.matrix[blk.offsets.index(ja), blk.offsets.index(jb)]


# ---------------------------------------------------------------------------
# triangle integrals (_tr_array)
# ---------------------------------------------------------------------------


def test_triangle_exponent_zero_gives_area():
    # {q <= y <= x <= p} is a right triangle with legs p - q.
    assert float(_tr_array(1.0, 0.0, 0.0)) == pytest.approx(0.5, rel=1e-14)
    assert float(_tr_array(2.0, 0.5, 0.0)) == pytest.approx(1.125, rel=1e-13)


def test_triangle_inverse_radius_closed_form():
    # int ||x||^-1 over {0 <= y <= x <= p} = p * asinh(1) ... by polar
    # coordinates: int_0^{pi/4} p sec(t) dt = p ln(1+sqrt2); at p = 1/2:
    assert float(_tr_array(0.5, 0.0, -1.0)) == pytest.approx(
        0.5 * math.asinh(1.0), rel=1e-13
    )


@pytest.mark.parametrize(
    "p,q,e,frozen",
    [
        (1.0, 0.5, -1.0, 0.119030817880307),
        (2.0, 1.0, -1.5, 0.165503156793049),
        (1.5, 0.0, -0.5, 1.14818576420949),
    ],
)
def test_triangle_frozen_and_dblquad(p, q, e, frozen):
    got = float(_tr_array(p, q, e))
    assert got == pytest.approx(frozen, rel=1e-12)
    ref, _ = dblquad(
        lambda y, x: (x * x + y * y) ** (e / 2.0), q, p, q, lambda x: x,
        epsabs=1e-12,
    )
    assert got == pytest.approx(ref, rel=1e-9)


# ---------------------------------------------------------------------------
# box_power_integrals
# ---------------------------------------------------------------------------


def test_box_exponent_zero_is_cell_area():
    for j in [(0, 0), (1, 0), (2, 2)]:
        assert _box(j, 0.0) == pytest.approx(1.0, rel=1e-13)


def test_box_central_inverse_radius():
    # int_{[-1/2,1/2]^2} ||x||^-1 = 4 asinh(1) = 4 ln(1 + sqrt 2).
    assert _box((0, 0), -1.0) == pytest.approx(
        4.0 * math.asinh(1.0), rel=1e-13
    )


@pytest.mark.parametrize(
    "j,e,frozen",
    [
        ((1, 0), -1.0, 1.03804973590476),
        ((1, 1), -1.8, 0.580816305479495),
        ((2, 1), -0.2, 0.851637309900972),
        ((3, 0), -1.0, 0.3348613702143),
    ],
)
def test_box_frozen_values(j, e, frozen):
    assert _box(j, e) == pytest.approx(frozen, rel=1e-12)


def test_box_vs_dblquad_noncentral():
    for j, e in [((1, 0), -1.5), ((2, 1), -0.7), ((3, 3), -1.1)]:
        a, b = j
        ref, _ = dblquad(
            lambda y, x: (x * x + y * y) ** (e / 2.0),
            a - 0.5, a + 0.5, b - 0.5, b + 0.5,
            epsabs=1e-12,
        )
        assert _box(j, e) == pytest.approx(ref, rel=1e-10), (j, e)


def test_box_central_vs_polar_quadrature():
    # Independent oracle for the singular cell: by octant symmetry
    # int = 8 * int_0^{pi/4} (sec(t)/2)^(e+2) / (e+2) dt.
    for e in (-1.8, -1.0, -0.2):
        ref, _ = quad(
            lambda t: 8.0 * (0.5 / math.cos(t)) ** (e + 2.0) / (e + 2.0),
            0.0, math.pi / 4.0, epsabs=1e-13,
        )
        assert _box((0, 0), e) == pytest.approx(ref, rel=1e-11)


def test_box_decreasing_along_axis_for_negative_exponent():
    vals = box_power_integrals(np.arange(1, 8), 0, -0.8)
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_box_requires_octant_representative():
    with pytest.raises(ValidationError):
        box_power_integrals(0, 1, -0.5)
    with pytest.raises(ValidationError):
        box_power_integrals(-1, 0, -0.5)
    # one cell off the octant fails the whole array
    with pytest.raises(ValidationError):
        box_power_integrals(np.array([0, 1]), np.array([1, 0]), -0.5)
    with pytest.raises(ValidationError):
        box_power_integrals(np.array([-1]), np.array([0]), -0.5)


def test_box_exponent_domain():
    with pytest.raises(ValidationError):
        box_power_integrals(1, 0, -2.0)
    with pytest.raises(ValidationError):
        box_power_integrals(1, 0, 0.1)
    with pytest.raises(ValidationError):
        box_power_integrals(np.array([1]), np.array([0]), -2.0)


# ---------------------------------------------------------------------------
# cross integrals: off-diagonal entries of build_block(alpha, kappa, 1)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "ja,jb,frozen",
    [
        ((0, 0), (1, 0), 1.78062690889382),
        ((1, 0), (0, 1), 1.01543503159159),
        ((2, 0), (1, 1), 0.603057865291179),
    ],
)
def test_cross_frozen_values(ja, jb, frozen):
    assert _cross(ja, jb, -0.5) == pytest.approx(
        frozen, rel=1e-9
    )


def _cross_dblquad(ja, jb, a):
    # dblquad struggles at a singularity inside the cell; integrate the four
    # quadrants around the centre separately, at a tight tolerance.
    def f(y, x):
        ra = math.hypot(ja[0] - x, ja[1] - y)
        rb = math.hypot(jb[0] - x, jb[1] - y)
        return ra**a * rb**a

    ref = 0.0
    for xs in [(-0.5, 0.0), (0.0, 0.5)]:
        for ys in [(-0.5, 0.0), (0.0, 0.5)]:
            v, _ = dblquad(f, xs[0], xs[1], ys[0], ys[1], epsabs=1e-14,
                           epsrel=1e-13)
            ref += v
    return ref


def _check_cross(pairs):
    for a in (-0.95, -0.5, -0.05):
        for ja, jb in pairs:
            ref = _cross_dblquad(ja, jb, a)
            assert _cross(ja, jb, a) == pytest.approx(
                ref, rel=0.0, abs=1e-13
            ), (a, ja, jb)


def test_cross_vs_dblquad_nonsingular():
    _check_cross([((1, 0), (0, 1))])


def test_cross_vs_dblquad_singular():
    # One anchor at the origin: integrand ~ ||u||^a near 0, integrable.
    _check_cross([((0, 0), (1, 0)), ((0, 0), (1, 1))])


def test_cross_dihedral_invariance_bit_identical():
    # One dihedral map applied to both offsets, and swapping, must give the
    # exact same float (shared canonical representative).
    base = _cross((2, 0), (1, 1), -0.4)
    images = [
        _cross((0, 2), (1, 1), -0.4),
        _cross((-2, 0), (-1, -1), -0.4),
        _cross((1, 1), (2, 0), -0.4),
        _cross((0, -2), (1, -1), -0.4),
    ]
    for v in images:
        assert v == base  # bitwise


def test_cross_alpha_domain():
    with pytest.raises(ValidationError):
        _cross((0, 0), (1, 0), -1.0)


# ---------------------------------------------------------------------------
# build_block
# ---------------------------------------------------------------------------


def test_block_shape_and_offsets():
    b = build_block(-0.5, 1, 10)
    assert b.dim == 10  # (2*1+1)^2 + 1
    assert len(b.offsets) == 9
    assert b.offsets[0] == (-1, -1) and b.offsets[-1] == (1, 1)
    assert b.matrix.shape == (10, 10)


def test_block_entries_match_closed_forms():
    n = 4
    a = -0.5
    b = build_block(a, 1, n)
    # plain-mass variance = cell area = 1/n^2
    assert b.matrix[-1, -1] == pytest.approx(n**-2.0, rel=1e-14)
    for i, off in enumerate(b.offsets):
        oc = (max(abs(off[0]), abs(off[1])), min(abs(off[0]), abs(off[1])))
        assert b.matrix[i, i] == pytest.approx(
            n ** (-2 - 2 * a) * _box(oc, 2 * a), rel=1e-13
        )
        assert b.matrix[i, -1] == pytest.approx(
            n ** (-2 - a) * (1.0 / n) * n * _box(oc, a), rel=1e-13
        )


def test_block_symmetric_and_psd():
    for alpha, kappa in [(-0.9, 0), (-0.5, 2), (-0.1, 3)]:
        b = build_block(alpha, kappa, 7)
        assert np.array_equal(b.matrix, b.matrix.T)
        # Cholesky reconstructs the matrix
        resid = np.linalg.norm(b.chol @ b.chol.T - b.matrix) / np.linalg.norm(
            b.matrix
        )
        assert resid < 1e-10
        w = np.linalg.eigvalsh(0.5 * (b.matrix + b.matrix.T))
        assert w.min() >= -1e-12 * w.max()


def test_block_resolution_scaling_is_exact():
    # matrix(n) = D matrix(1) D with D = diag(n^(-1-a), ..., n^(-1)).
    alpha, kappa = -0.7, 2
    b1 = build_block(alpha, kappa, 1)
    bn = build_block(alpha, kappa, 50)
    d = b1.dim
    scale = np.full(d, 50.0 ** (-1.0 - alpha))
    scale[-1] = 1.0 / 50.0
    expect = b1.matrix * scale[:, None] * scale[None, :]
    assert np.max(np.abs(bn.matrix - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_block_dihedral_diagonal_entries_bit_identical():
    b = build_block(-0.5, 1, 3)
    idx = {off: i for i, off in enumerate(b.offsets)}
    diag = b.matrix.diagonal()
    group = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    vals = {diag[idx[o]] for o in group}
    assert len(vals) == 1  # bitwise identical across symmetric offsets
    corners = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    assert len({diag[idx[o]] for o in corners}) == 1


def test_block_tolerance_below_rule_error_raises(monkeypatch):
    # The polar rule's orders 16 and 24 differ by up to ~1e-15 on this
    # block, so a tolerance of 1e-18 cannot be met.
    monkeypatch.setattr(covariance, "_CROSS_TOL", 1e-18)
    with pytest.raises(QuadratureError):
        build_block(-0.5, 1, 10)


def test_block_cholesky_failing_after_jitter_raises(monkeypatch):
    calls = []

    def never(matrix):
        calls.append(matrix)
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", never)
    with pytest.raises(NotPositiveDefiniteError, match="even with jitter"):
        build_block(-0.5, 1, 10)
    # the plain matrix, then the same matrix with the jitter on its diagonal
    assert len(calls) == 2
    jitter = calls[1] - calls[0]
    assert np.array_equal(jitter, np.diag(np.diag(jitter)))
    assert np.all(np.diag(jitter) > 0.0)


def test_block_validation():
    with pytest.raises(ValidationError):
        build_block(0.0, 1, 10)
    with pytest.raises(ValidationError):
        build_block(-0.5, 6, 10)
    with pytest.raises(ValidationError):
        build_block(-0.5, -1, 10)
    with pytest.raises(ValidationError):
        build_block(-0.5, 1, 0)
    with pytest.raises(ValidationError):
        build_block(-0.5, True, 4)


# ---------------------------------------------------------------------------
# evaluation radii
# ---------------------------------------------------------------------------


def test_optimal_b_norm_matches_cell_average():
    # Defining property: r*^alpha equals the cell average of ||x||^alpha.
    for j, a in [((0, 0), -0.5), ((1, 0), -0.5), ((2, 1), -0.3)]:
        r = representative_radii(j[0], j[1], a, OPTIMAL)
        assert r**a == pytest.approx(_box(j, a), rel=1e-12)


def test_optimal_b_norm_frozen():
    assert representative_radii(0, 0, -0.5, OPTIMAL) == pytest.approx(
        0.320006996938166, rel=1e-12
    )
    assert representative_radii(1, 0, -0.5, OPTIMAL) == pytest.approx(
        0.983726897754835, rel=1e-12
    )


@given(
    a=st.integers(0, 8),
    b=st.integers(0, 8),
    alpha=st.floats(-0.95, -0.05),
)
def test_optimal_b_norm_within_circumradius(a, b, alpha):
    if b > a:
        a, b = b, a
    r = representative_radii(a, b, alpha, OPTIMAL)
    center = math.hypot(a, b)
    assert max(0.0, center - 0.5 * math.sqrt(2.0)) <= r <= center + 0.5 * math.sqrt(2.0)


def test_representative_radius_policies():
    assert representative_radii(4, 3, -0.5, DEFAULT_POLICY) == 5.0
    r_opt = representative_radii(4, 3, -0.5, OPTIMAL)
    assert r_opt == pytest.approx(_box((4, 3), -0.5) ** (1 / -0.5), rel=1e-14)
    # central cell: both policies fall back to the optimal radius
    assert representative_radii(0, 0, -0.5, DEFAULT_POLICY) == pytest.approx(
        representative_radii(0, 0, -0.5, OPTIMAL)
    )


def test_representative_radii_origin_is_scalar_optimal_radius():
    # an array power differs from a Python float power in the last bit for
    # some alpha; the origin takes the float power under both modes
    for alpha in np.linspace(-0.99, -0.01, 99):
        r0 = _box((0, 0), alpha) ** (1.0 / alpha)
        for policy in (DEFAULT_POLICY, OPTIMAL):
            assert representative_radii([0], [0], alpha, policy)[0] == r0


# ---------------------------------------------------------------------------
# octant_cells
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("hi", [0, 1, 2, 7])
def test_octant_cells_index_and_orbit_sizes(hi):
    a, b, mult = octant_cells(hi)
    assert np.all((0 <= b) & (b <= a) & (a <= hi))
    # cell k sits at index a(a+1)/2 + b, the index _octant_entries reads:
    # the matrix it fills holds k exactly on cell (a[k], b[k]) and its
    # mult[k] images under the grid's symmetries
    assert np.array_equal(a * (a + 1) // 2 + b, np.arange(a.size))
    k = np.arange(-hi, hi + 1)
    filled = _octant_entries(np.arange(a.size), k[:, None], k[None, :])
    assert np.array_equal(filled[hi + b, hi + a], np.arange(a.size))
    assert np.array_equal(np.bincount(filled.ravel()), mult)
    assert mult.sum() == (2 * hi + 1) ** 2


@pytest.mark.parametrize("hi,lo", [(5, 0), (7, 3), (3, 3), (2, 4)])
def test_octant_cells_annulus(hi, lo):
    a, b, mult = octant_cells(hi, lo)
    full = octant_cells(hi)
    keep = full[0] > lo
    for got, ref in zip((a, b, mult), full):
        assert np.array_equal(got, ref[keep])
    assert mult.sum() == max(0, (2 * hi + 1) ** 2 - (2 * lo + 1) ** 2)


def test_octant_cells_validation():
    with pytest.raises(ValidationError):
        octant_cells(3, -2)


# ---------------------------------------------------------------------------
# cell_weight
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kappa", [0, 1, 2])
@pytest.mark.parametrize("mode", ["midpoint", "optimal"])
@pytest.mark.parametrize("central_mode", ["optimal_L", "optimal_norm"])
def test_cell_weight_is_the_engine_weight(kappa, mode, central_mode):
    k = Matern(0.4, 1.0)
    policy = EvaluationPolicy(mode=mode, central_mode=central_mode)
    plan = prepare_hybrid(k, SchemeParams(n=12, gamma=0.4, kappa=kappa,
                                          policy=policy))
    w = [cell_weight(k, 12, j, policy) for j in plan.block.offsets]
    assert np.array_equal(w, plan.weights)
    if central_mode == "optimal_L":
        assert cell_weight(k, 12, (0, 0), policy) == central_L_coefficient(k, 12)


# ---------------------------------------------------------------------------
# central_L_coefficient
# ---------------------------------------------------------------------------


def test_central_L_coefficient_constant_L_is_one():
    # For a kernel with L == 1 on the cell the weighted average is exactly 1.
    k = PurePower(-0.5, R=100.0)  # cutoff far outside the unit cell at n = 1
    assert central_L_coefficient(k, 1) == pytest.approx(1.0, rel=1e-12)


def test_central_L_coefficient_matern_frozen():
    k = Matern(0.5, 1.0)
    assert central_L_coefficient(k, 20) == pytest.approx(
        1.924910288284, rel=1e-10
    )
    assert central_L_coefficient(k, 80) == pytest.approx(
        2.040277765003, rel=1e-10
    )


def test_central_L_coefficient_approaches_L_at_zero():
    # As n grows the cell shrinks and the weighted average tends to L(0+).
    k = Matern(0.5, 1.0)
    l0 = k.L_at_zero()
    gap_small_n = abs(central_L_coefficient(k, 10) - l0)
    gap_large_n = abs(central_L_coefficient(k, 1000) - l0)
    assert gap_large_n < gap_small_n
    # convergence is only logarithmic for a slowly varying factor
    assert gap_large_n < 0.02 * l0


def test_central_L_coefficient_vs_direct_quadrature():
    # Independent route: 2D adaptive quadrature of the defining ratio.
    k = ExpDecay(-0.4)
    n = 5

    def num(y, x):
        r = math.hypot(x, y)
        return r ** (2 * k.alpha) * math.exp(-r / n)

    ref_num = 0.0
    for xs in [(-0.5, 0.0), (0.0, 0.5)]:
        for ys in [(-0.5, 0.0), (0.0, 0.5)]:
            v, _ = dblquad(num, xs[0], xs[1], ys[0], ys[1], epsabs=1e-12)
            ref_num += v
    ref = ref_num / _box((0, 0), 2 * k.alpha)
    assert central_L_coefficient(k, n) == pytest.approx(ref, rel=1e-8)


def test_central_L_coefficient_validation():
    for n in (0, 2.5, True):
        with pytest.raises(ValidationError):
            central_L_coefficient(Matern(0.5, 1.0), n)


@pytest.mark.parametrize("alpha", [-0.5, -0.8])
def test_central_L_coefficient_cutoff_inside_cell(alpha):
    # PurePower's cutoff n*R <= 1/2 kinks L inside the central cell, and the
    # numerator is the power integral over the disc of radius n*R.
    n, R = 10, 0.03
    e = 2.0 * alpha + 2.0
    ref = 2.0 * math.pi * (n * R) ** e / e / _box((0, 0), 2.0 * alpha)
    assert central_L_coefficient(PurePower(alpha, R=R), n) == pytest.approx(
        ref, rel=1e-12
    )


# ---------------------------------------------------------------------------
# j_constant
# ---------------------------------------------------------------------------

# Frozen reference values (midpoint policy, default truncation); computed
# once at tolerance well below the displayed digits and checked against a
# brute-force cell sum below.
J_MIDPOINT = {
    (-0.9, 0): 0.489308224155,
    (-0.9, 1): 0.089724632143,
    (-0.9, 2): 0.036965929095,
    (-0.9, 3): 0.020373605697,
    (-0.5, 0): 0.197583324955,
    (-0.5, 1): 0.076580160807,
    (-0.5, 2): 0.046682560128,
    (-0.5, 3): 0.033501308774,
    (-0.1, 0): 0.028472586992,
    (-0.1, 1): 0.023518491944,
    (-0.1, 2): 0.021291778041,
    (-0.1, 3): 0.019921652076,
}


@pytest.mark.parametrize("key", sorted(J_MIDPOINT))
def test_j_constant_frozen_midpoint(key):
    alpha, kappa = key
    assert j_constant(alpha, kappa) == pytest.approx(J_MIDPOINT[key], rel=1e-9)


def test_j_constant_optimal_below_midpoint():
    for alpha in (-0.9, -0.5, -0.1):
        j_mid = j_constant(alpha, 1)
        j_opt = j_constant(alpha, 1, policy=OPTIMAL)
        assert j_opt <= j_mid


def test_j_constant_brute_force_cross_check():
    # Independent route at kappa = 0, alpha = -0.5: direct sum of per-cell
    # L2 errors out to a large radius plus the same tail estimate evaluated
    # at a different truncation — agreement to the tail's accuracy.
    a = -0.5
    got64 = j_constant(a, 0, truncation=64)
    got160 = j_constant(a, 0, truncation=160)
    assert got64 == pytest.approx(got160, abs=3e-8)
    # Hand-rolled partial sum for the first shell ring (kappa=0, cells with
    # max|j| = 1): midpoint error per cell via dblquad.
    def cell_err(ja, jb):
        def f(y, x):
            r2 = x * x + y * y
            return (r2 ** (a / 2.0) - math.hypot(ja, jb) ** a) ** 2

        v, _ = dblquad(f, ja - 0.5, ja + 0.5, jb - 0.5, jb + 0.5, epsabs=1e-12)
        return v

    ring1 = 4 * cell_err(1, 0) + 4 * cell_err(1, 1)
    # The ring-1 contribution must be included in (and below) the total, and
    # it carries most of the kappa=0 constant for this alpha.
    assert ring1 < got64
    assert ring1 > 0.5 * got64
    assert ring1 == pytest.approx(0.121003164, abs=1e-6)


def test_j_constant_decreasing_in_kappa():
    for alpha in (-0.9, -0.5, -0.1):
        vals = [j_constant(alpha, k) for k in range(4)]
        assert all(x > y for x, y in zip(vals, vals[1:]))


def test_j_constant_truncation_insensitivity():
    for alpha in (-0.8, -0.3):
        assert j_constant(alpha, 1, truncation=64) == pytest.approx(
            j_constant(alpha, 1, truncation=128), abs=5e-8
        )


def test_j_constant_validation():
    with pytest.raises(ValidationError):
        j_constant(0.0, 1)
    with pytest.raises(ValidationError):
        j_constant(-0.5, 1.5)
    with pytest.raises(ValidationError):
        j_constant(-0.5, 1.0)
    with pytest.raises(ValidationError):
        j_constant(-0.5, 1, truncation=5)  # below 10*kappa+10
    with pytest.raises(ValidationError):
        j_constant(-0.5, 1, truncation=64.5)  # never truncated to T = 64
    with pytest.raises(ValidationError):
        j_constant(-0.5, 1, policy="optimal")  # a mode name, not a policy


def test_evaluation_policy_validation():
    with pytest.raises(ValidationError):
        EvaluationPolicy(mode="nearest")
    with pytest.raises(ValidationError):
        EvaluationPolicy(central_mode="bogus")
    # a mode name, not a policy
    with pytest.raises(ValidationError):
        representative_radii([1], [0], -0.5, "optimal")
    with pytest.raises(ValidationError):
        cell_weight(Matern(0.5, 1.0), 10, (1, 0), "optimal")
