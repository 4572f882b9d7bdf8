"""Tests for the simulation engines: parameters, noise, hybrid/Riemann/
circulant schemes, volatility models.

Oracles: Monte Carlo moments against the closed-form covariance block, exact
linearity/determinism identities, an exact circulant reference, and
distributional checks with 3-standard-error tolerances.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import fft2, ifft, irfft, next_fast_len, rfft2

import vmma.fields as fields_mod
from vmma.covariance import EvaluationPolicy, build_block, optimal_b_norm
from vmma.errors import EmbeddingError, ValidationError
from vmma.fields import (
    ConstantVol,
    ExpVmmaVolatility,
    FieldGrid,
    ProvidedGridVol,
    RateHypothesisWarning,
    SchemeParams,
    _ROW_BLOCK,
    _available_memory,
    _circular_convolve,
    _convolved_block,
    circulant_simulate,
    conv2_fft,
    fft_workers,
    hybrid_simulate,
    prepare_hybrid,
    prepare_riemann,
    riemann_kernel_matrix,
    riemann_simulate,
    rng_stream,
    sample_noise,
    scheme_variance,
    volatility_from_log_field,
)
from vmma.kernels import ExpDecay, Matern, PurePower, matern_correlation


# ---------------------------------------------------------------------------
# SchemeParams / FieldGrid
# ---------------------------------------------------------------------------


def test_scheme_params_truncation():
    p = SchemeParams(n=100, gamma=0.3)
    assert p.n_trunc == 398  # floor(100^1.3)
    assert p.c_n == pytest.approx((398 + 0.5) / 100)
    assert p.grid_side == 201
    assert SchemeParams(n=10, gamma=0.5).n_trunc == 31


def test_scheme_params_validation():
    with pytest.raises(ValidationError):
        SchemeParams(n=0)
    with pytest.raises(ValidationError):
        SchemeParams(n=10, gamma=0.0)
    with pytest.raises(ValidationError):
        SchemeParams(n=10, kappa=6)
    with pytest.raises(ValidationError):
        SchemeParams(n=10, kappa=-1)
    with pytest.raises(ValidationError):
        SchemeParams(n=10, seed=-1)
    with pytest.raises(ValidationError):
        # truncation radius below kappa: inner block would not fit
        SchemeParams(n=1, gamma=0.1, kappa=2)
    # bools are not integers: n=True would run on a 3 x 3 grid
    for bad in ({"n": True}, {"n": 8, "kappa": True}, {"n": 8, "seed": False}):
        with pytest.raises(ValidationError):
            SchemeParams(**bad)
    assert SchemeParams(n=8, seed=2**64 - 1).seed == 2**64 - 1
    with pytest.raises(ValidationError):
        SchemeParams(n=8, gamma=10**400)  # beyond float range, not OverflowError


def test_field_grid_geometry():
    g = FieldGrid(values=np.zeros((5, 5)), spacing=0.5)
    assert g.side == 5
    x, y = g.coords()
    assert x[0] == -1.0 and x[-1] == 1.0
    assert np.allclose(np.diff(x), 0.5)


def test_field_grid_validation():
    with pytest.raises(ValidationError):
        FieldGrid(values=np.zeros((4, 4)), spacing=0.1)  # even side
    with pytest.raises(ValidationError):
        FieldGrid(values=np.zeros((3, 5)), spacing=0.1)  # not square
    with pytest.raises(ValidationError):
        FieldGrid(values=np.full((3, 3), np.nan), spacing=0.1)
    with pytest.raises(ValidationError):
        FieldGrid(values=np.zeros((3, 3)), spacing=0.0)


# ---------------------------------------------------------------------------
# rng_stream / fft_workers
# ---------------------------------------------------------------------------


def test_rng_stream_reproducible_and_disjoint():
    a1 = rng_stream(42, 0, 7).standard_normal(8)
    a2 = rng_stream(42, 0, 7).standard_normal(8)
    b = rng_stream(42, 0, 8).standard_normal(8)
    c = rng_stream(42, 1, 7).standard_normal(8)
    d = rng_stream(43, 0, 7).standard_normal(8)
    assert np.array_equal(a1, a2)
    for other in (b, c, d):
        assert not np.array_equal(a1, other)
    # a fractional, bool or negative key is refused, never truncated
    for bad in ((42, 0, 1.7), (42, 0, True), (4.2, 0, 7), (42, 0, -1)):
        with pytest.raises(ValidationError):
            rng_stream(*bad)


def test_fft_workers_resolution():
    assert fft_workers() == 1
    assert fft_workers(4) == 4
    for bad in (0, 1.5, True):  # never clamped or truncated to 1 worker
        with pytest.raises(ValidationError):
            fft_workers(bad)


# ---------------------------------------------------------------------------
# volatility models
# ---------------------------------------------------------------------------


def test_constant_vol():
    v = ConstantVol(2.0)
    assert v.constant_value == 2.0
    grid = v.realize(5, 7, rng_stream(0, 1, 0))
    assert grid.shape == (15, 15)
    assert np.all(grid == 2.0)
    with pytest.raises(ValidationError):
        ConstantVol(0.0)
    with pytest.raises(ValidationError):
        ConstantVol(-1.0)


def test_provided_grid_vol():
    side = 2 * 7 + 1
    sigma = np.abs(np.random.default_rng(0).standard_normal((side, side))) + 0.1
    v = ProvidedGridVol(sigma)
    out = v.realize(5, 7, rng_stream(0, 1, 0))
    assert np.array_equal(out, sigma)
    with pytest.raises(ValidationError):
        v.realize(5, 8, rng_stream(0, 1, 0))  # wrong half for this grid
    with pytest.raises(ValidationError):
        ProvidedGridVol(np.zeros((3, 3)))  # nonpositive values
    with pytest.raises(ValidationError):
        ProvidedGridVol(np.ones((3, 4)))


def test_volatility_from_log_field():
    x = np.array([[0.0, 2.0], [-2.0, 4.0]])
    out = volatility_from_log_field(x)
    assert np.allclose(out, np.exp(x / 2.0))
    assert np.all(out > 0)
    assert np.array_equal(x, [[0.0, 2.0], [-2.0, 4.0]])  # input not mutated


def test_expvmma_validation():
    inner = ExpDecay(-0.2)
    v = ExpVmmaVolatility(inner)
    # host must be rougher than the inner kernel
    v.validate_against(ExpDecay(-0.5))
    with pytest.raises(ValidationError):
        v.validate_against(ExpDecay(-0.1))  # host smoother than inner
    with pytest.raises(ValidationError):
        v.validate_against(ExpDecay(-0.2))  # equal roughness
    with pytest.raises(ValidationError):
        ExpVmmaVolatility(inner, kappa=True)


def test_expvmma_realize_is_positive_and_deterministic():
    inner = ExpDecay(-0.2)
    v = ExpVmmaVolatility(inner, gamma=0.3, kappa=1)
    s1 = v.realize(8, 12, rng_stream(5, 1, 0))
    s2 = v.realize(8, 12, rng_stream(5, 1, 0))
    assert s1.shape == (25, 25)
    assert np.all(s1 > 0.0)
    assert np.array_equal(s1, s2)
    s3 = v.realize(8, 12, rng_stream(5, 1, 1))
    assert not np.array_equal(s1, s3)


# ---------------------------------------------------------------------------
# sample_noise
# ---------------------------------------------------------------------------


def test_sample_noise_shapes_and_determinism():
    p = SchemeParams(n=6, gamma=0.4, kappa=1, seed=9)
    block = build_block(-0.5, 1, 6)
    w1, plain = sample_noise(p, block, rng_stream(9, 0, 0))
    s1 = 2 * (6 + 1) + 1
    assert w1.shape == (s1, s1, block.dim - 1)  # power channels only
    S = 2 * (p.n_trunc + 6) + 1
    assert plain.shape == (S, S)
    w1b, plainb = sample_noise(p, block, rng_stream(9, 0, 0))
    assert np.array_equal(w1, w1b) and np.array_equal(plain, plainb)


def test_sample_noise_moments_match_block():
    # MC check: the joint vector (power channels at one cell, plain mass of
    # the same cell read out of the plain sheet) must have the closed-form
    # block covariance, within 3-4 standard errors.  Reading the plain member
    # through the sheet also verifies the overwrite wiring.
    p = SchemeParams(n=3, gamma=0.4, kappa=1, seed=1)
    block = build_block(-0.5, 1, 3)
    lo = p.n_trunc - p.kappa
    ci, cj = 4, 4  # cell inside the joint window
    reps = 4000
    draws = np.empty((reps, block.dim))
    for r in range(reps):
        w1, plain = sample_noise(p, block, rng_stream(1, 0, r))
        draws[r, :-1] = w1[ci, cj, :]
        draws[r, -1] = plain[lo + ci, lo + cj]
    emp = draws.T @ draws / reps
    se = np.sqrt(2.0 / reps)  # rough SE scale for standardized entries
    d = np.sqrt(np.diag(block.matrix))
    std_err = np.abs(emp - block.matrix) / np.outer(d, d)
    assert np.max(std_err) < 3.5 * se


def test_sample_noise_annulus_independent_of_joint_block():
    # Cells outside the joint window are the independent family: their
    # correlation with every power channel is zero (within MC error).
    p = SchemeParams(n=3, gamma=0.8, kappa=1, seed=6)
    block = build_block(-0.5, 1, 3)
    reps = 2000
    a = np.empty(reps)
    b = np.empty(reps)
    for r in range(reps):
        w1, plain = sample_noise(p, block, rng_stream(6, 0, r))
        a[r] = w1[4, 4, 0]
        b[r] = plain[0, 0]  # far corner, outside the joint window
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(reps)


def test_sample_noise_rejects_mismatched_block():
    p = SchemeParams(n=6, gamma=0.4, kappa=1)
    block = build_block(-0.5, 1, 7)  # wrong n
    with pytest.raises(ValidationError):
        sample_noise(p, block, rng_stream(0, 0, 0))
    block2 = build_block(-0.5, 2, 6)  # wrong kappa -> wrong dim
    with pytest.raises(ValidationError):
        sample_noise(p, block2, rng_stream(0, 0, 0))
    with pytest.raises(ValidationError):  # never truncated to half = 7
        sample_noise(p, build_block(-0.5, 1, 6), rng_stream(0, 0, 0), half=7.9)


@pytest.mark.parametrize("kappa", [0, 1, 2, 3])
def test_sample_noise_matches_dense_reference(kappa):
    # The row-block draw equals one dense draw bit for bit: the family as
    # standard_normal((s1, s1, d)) @ chol.T, then the (S, S)/n sheet with its
    # central s1 x s1 block replaced.  s1 and S span several row blocks.
    p = SchemeParams(n=6, gamma=0.4, kappa=kappa, seed=2)
    half = _ROW_BLOCK // 2 + 3
    block = build_block(-0.5, kappa, 6)
    s1 = 2 * (half + kappa) + 1
    S = 2 * (p.n_trunc + half) + 1
    assert s1 > _ROW_BLOCK
    rng = rng_stream(2, 0, 7)
    family = rng.standard_normal((s1, s1, block.dim)) @ block.chol.T
    sheet = rng.standard_normal((S, S)) / p.n
    lo = p.n_trunc - kappa
    sheet[lo:lo + s1, lo:lo + s1] = family[:, :, -1]
    w1, plain = sample_noise(p, block, rng_stream(2, 0, 7), half=half)
    assert np.array_equal(w1, family[:, :, :-1])
    assert np.array_equal(plain, sheet)


# ---------------------------------------------------------------------------
# conv2_fft
# ---------------------------------------------------------------------------


def _conv2_direct(a, b):
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na + nb - 1, na + nb - 1))
    for i in range(na):
        for j in range(na):
            out[i : i + nb, j : j + nb] += a[i, j] * b
    return out


@given(
    na=st.integers(1, 9),
    nb=st.integers(1, 9),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40)
def test_conv2_fft_matches_direct(na, nb, seed):
    g = np.random.default_rng(seed)
    a = g.standard_normal((na, na))
    b = g.standard_normal((nb, nb))
    got = conv2_fft(a, b)
    ref = _conv2_direct(a, b)
    assert got.shape == ref.shape
    scale = max(1.0, np.abs(ref).max())
    assert np.max(np.abs(got - ref)) <= 1e-10 * scale


def test_conv2_fft_identity_kernel():
    a = np.arange(9.0).reshape(3, 3)
    out = conv2_fft(a, np.array([[1.0]]))
    assert np.allclose(out, a, atol=1e-12)


def test_conv2_fft_rejects_nonsquare():
    with pytest.raises(ValidationError):
        conv2_fft(np.ones((2, 3)), np.ones((2, 2)))


def _block_operands(period, quarter, seed):
    """A random complex (period, period//2+1) spectrum and a kernel operand:
    a real (period//2+1)^2 quarter or a complex spectrum like the first."""
    g = np.random.default_rng(seed)
    h = period // 2 + 1
    spec = g.standard_normal((period, h)) + 1j * g.standard_normal((period, h))
    if quarter:
        return spec, g.standard_normal((h, h))
    return spec, g.standard_normal((period, h)) + 1j * g.standard_normal((period, h))


def _one_shot_block(spec, fft_a, start, side):
    """_convolved_block's product and column inverse, then all kept rows
    inverted along the rows by one irfft, as a strided full-width view."""
    period = spec.shape[0]
    h = period // 2 + 1
    upper = fft_a[h:] if fft_a.shape[0] == period else fft_a[period - h:0:-1]
    prod = np.concatenate([fft_a[:h] * spec[:h], upper * spec[h:]])
    cols = ifft(prod, axis=0)
    return irfft(cols[start:start + side], n=period, axis=1)[:, start:start + side]


@pytest.mark.parametrize("side", [_ROW_BLOCK // 2 + 1, 2 * _ROW_BLOCK + 3])
@pytest.mark.parametrize("period", [150, 147])
@pytest.mark.parametrize("quarter", [False, True])
def test_convolved_block_rows_equal_one_shot_irfft(side, period, quarter):
    # the row-block inversion, written into a fresh array or added into a
    # given one, has the one-shot inverse's bytes
    spec, fft_a = _block_operands(period, quarter, side + period)
    start = 7
    ref = _one_shot_block(spec, fft_a, start, side)
    got = _convolved_block(spec.copy(), fft_a, start, side, 1)
    assert got.shape == (side, side) and got.flags.c_contiguous
    assert got.tobytes() == np.ascontiguousarray(ref).tobytes()
    near = np.random.default_rng(period).standard_normal((side, side))
    expect = near + ref
    out = _convolved_block(spec.copy(), fft_a, start, side, 1, into=near)
    assert out is near
    assert out.tobytes() == expect.tobytes()


@pytest.mark.parametrize("quarter", [False, True])
@pytest.mark.parametrize("accumulate", [False, True])
def test_convolved_block_never_forms_a_full_width_array(quarter, accumulate):
    # Beyond the spectrum it consumes, the epilogue holds the output and one
    # block of rows: with side > 2 * _ROW_BLOCK that stays below one real
    # (side, period) array, which a one-shot row inverse would form.
    side, period = 2 * _ROW_BLOCK + 3, 512
    spec, fft_a = _block_operands(period, quarter, 1)
    near = np.zeros((side, side)) if accumulate else None
    peak = _replicate_peak(lambda: _convolved_block(spec, fft_a, 40, side, 1,
                                                    into=near))
    full = 8 * side * period
    assert peak < full, f"peak {peak / full:.2f} full-width arrays"


# ---------------------------------------------------------------------------
# hybrid scheme
# ---------------------------------------------------------------------------


def test_hybrid_output_geometry():
    k = ExpDecay(-0.5)
    p = SchemeParams(n=8, gamma=0.4, kappa=1, seed=0)
    g = hybrid_simulate(k, p)
    assert g.side == 17
    assert g.spacing == pytest.approx(1.0 / 8.0)
    x, y = g.coords()
    assert x[0] == pytest.approx(-1.0) and x[-1] == pytest.approx(1.0)


def test_hybrid_deterministic_same_seed():
    k = Matern(0.5, 1.0)
    p = SchemeParams(n=10, gamma=0.3, kappa=1, seed=77)
    g1 = hybrid_simulate(k, p)
    g2 = hybrid_simulate(k, p)
    assert np.array_equal(g1.values, g2.values)
    g3 = hybrid_simulate(k, p, replicate=1)
    assert not np.array_equal(g1.values, g3.values)


def test_hybrid_deterministic_across_workers():
    k = Matern(0.5, 1.0)
    p = SchemeParams(n=10, gamma=0.3, kappa=1, seed=5)
    g1 = hybrid_simulate(k, p, workers=1)
    g2 = hybrid_simulate(k, p, workers=2)
    assert np.array_equal(g1.values, g2.values)


# The two step-kernel engines, as (prepare, simulate) pairs.
ENGINES = pytest.mark.parametrize(
    "prepare, simulate",
    [(prepare_hybrid, hybrid_simulate), (prepare_riemann, riemann_simulate)],
    ids=["hybrid", "riemann"],
)


@ENGINES
def test_hybrid_plan_reuse_matches_cold_run(prepare, simulate):
    # the planned path (roughness_study) against the cold one (vmma simulate)
    k = ExpDecay(-0.4)
    p = SchemeParams(n=9, gamma=0.4, kappa=2, seed=11)
    plan = prepare(k, p)
    g1 = simulate(k, p, plan=plan, replicate=3)
    g2 = simulate(k, p, replicate=3)
    assert np.array_equal(g1.values, g2.values)


def test_hybrid_plan_mismatch_rejected():
    k = ExpDecay(-0.4)
    p = SchemeParams(n=9, gamma=0.4, kappa=2)
    plan = prepare_hybrid(k, p)
    with pytest.raises(ValidationError):
        hybrid_simulate(ExpDecay(-0.5), SchemeParams(n=9, gamma=0.4, kappa=2), plan=plan)
    with pytest.raises(ValidationError):
        hybrid_simulate(k, SchemeParams(n=9, gamma=0.4, kappa=1), plan=plan)
    # a plan of the other engine, in both directions
    with pytest.raises(ValidationError):
        riemann_simulate(k, p, plan=plan)
    with pytest.raises(ValidationError):
        hybrid_simulate(k, p, plan=prepare_riemann(k, p))


def test_hybrid_constant_vol_linearity_exact():
    # sigma = c multiplies the field by exactly c (same noise stream).
    k = Matern(0.5, 1.0)
    p = SchemeParams(n=8, gamma=0.4, kappa=1, seed=42)
    g1 = hybrid_simulate(k, p, ConstantVol(1.0))
    g3 = hybrid_simulate(k, p, ConstantVol(3.0))
    assert np.array_equal(g3.values, 3.0 * g1.values)


@ENGINES
def test_hybrid_variance_matches_scheme_variance(prepare, simulate):
    # The scheme's exact single-point variance (closed form) against the MC
    # variance at the central point over replicates, 3 SE.
    k = ExpDecay(-0.5)
    p = SchemeParams(n=5, gamma=0.6, kappa=1, seed=13)
    plan = prepare(k, p)
    target = scheme_variance(plan)
    reps = 3000
    center = np.empty(reps)
    for r in range(reps):
        g = simulate(k, p, plan=plan, replicate=r)
        center[r] = g.values[g.side // 2, g.side // 2]
    var = center.var()
    se = target * math.sqrt(2.0 / reps)
    assert abs(var - target) < 3.0 * se


def test_hybrid_variance_close_to_stationary_variance():
    # With a generous truncation the scheme variance approaches the field
    # variance g_squared_integral (ExpDecay integrates exactly).
    k = ExpDecay(-0.5)
    p = SchemeParams(n=6, gamma=1.2, kappa=1)
    plan = prepare_hybrid(k, p)
    target = k.g_squared_integral()
    assert scheme_variance(plan) == pytest.approx(target, rel=0.02)


def test_hybrid_gaussianity():
    # Pooled standardized field values over replicates: skewness and excess
    # kurtosis of a Gaussian field vanish.
    k = PurePower(-0.5, R=0.1)
    p = SchemeParams(n=50, gamma=0.3, kappa=1, seed=2024)
    plan = prepare_hybrid(k, p)
    vals = []
    for r in range(100):
        g = hybrid_simulate(k, p, plan=plan, replicate=r)
        vals.append(g.values.ravel())
    pooled = np.concatenate(vals)
    pooled = (pooled - pooled.mean()) / pooled.std()
    skew = float(np.mean(pooled**3))
    kurt = float(np.mean(pooled**4) - 3.0)
    assert abs(skew) < 0.05, f"skewness {skew:.4f}"
    assert abs(kurt) < 0.1, f"excess kurtosis {kurt:.4f}"


def test_hybrid_isotropy_of_increments():
    # Var of horizontal and vertical unit-lag increments agree within 3 SE.
    k = Matern(0.5, 1.0)
    p = SchemeParams(n=20, gamma=0.4, kappa=1, seed=31)
    plan = prepare_hybrid(k, p)
    dx2, dy2 = [], []
    for r in range(60):
        v = hybrid_simulate(k, p, plan=plan, replicate=r).values
        dx2.append(np.mean(np.diff(v, axis=1) ** 2))
        dy2.append(np.mean(np.diff(v, axis=0) ** 2))
    dx2 = np.array(dx2)
    dy2 = np.array(dy2)
    diff = dx2 - dy2
    se = diff.std(ddof=1) / math.sqrt(len(diff))
    assert abs(diff.mean()) < 3.0 * se + 1e-12


def test_hybrid_rate_hypothesis_warning():
    # Slow polynomial tail + small gamma: truncation may not vanish fast
    # enough; the preparation warns but proceeds.
    k = PurePower(-0.5, R=1.0, beta_decay=-4.0)
    p = SchemeParams(n=8, gamma=0.15, kappa=1)
    with pytest.warns(RateHypothesisWarning):
        prepare_hybrid(k, p)
    # comfortable gamma: no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RateHypothesisWarning)
        prepare_hybrid(k, SchemeParams(n=8, gamma=0.5, kappa=1))


def _scheme_covariance(plan, l1, l2):
    """Exact Cov(X(p), X(p+l)) of the hybrid scheme, from first principles.

    The simulated field is linear in the per-cell joint Gaussian vectors
    (power channels + plain member, covariance = the closed-form block), so
    its two-point covariance is a finite sum over shared noise cells:
    inner-inner terms through the L-weights, inner-outer cross terms through
    the block's plain column, and the step-kernel autocorrelation for cells
    both points see as plain noise.  Independent of the sampler's FFT/sheet
    layout — only the documented weight semantics enter.
    """
    params = plan.params
    n, kappa, N = params.n, params.kappa, params.n_trunc
    A = plan.a_matrix
    S = plan.block.matrix
    offsets = plan.block.offsets
    w = plan.weights
    plain = len(offsets)
    acc = 0.0
    for ia, (a1, a2) in enumerate(offsets):
        b1, b2 = a1 + l1, a2 + l2
        if max(abs(b1), abs(b2)) <= kappa:
            ib = offsets.index((b1, b2))
            acc += w[ia] * w[ib] * S[ia, ib]
        elif max(abs(b1), abs(b2)) <= N:
            acc += w[ia] * S[ia, plain] * A[b2 + N, b1 + N]
        c1, c2 = a1 - l1, a2 - l2
        if kappa < max(abs(c1), abs(c2)) <= N:
            acc += w[ia] * S[plain, ia] * A[c2 + N, c1 + N]
    m = A.shape[0]
    r20, r21 = max(0, -l2), min(m, m - l2)
    r10, r11 = max(0, -l1), min(m, m - l1)
    acc += float(np.sum(A[r20:r21, r10:r11]
                        * A[r20 + l2 : r21 + l2, r10 + l1 : r11 + l1])) / n**2
    return acc


def test_hybrid_two_point_covariance_matches_block_algebra():
    # Monte-Carlo two-point covariances of the sampler agree with the exact
    # cell-sum computed from the covariance block and the plan's weights.
    # This pins the sampler's sheet/shift wiring: any misalignment of the
    # inner-block channels against the plain sheet moves lag covariances by
    # far more than 4 SE.
    k = Matern(0.4, 1.0)
    p = SchemeParams(n=4, gamma=0.5, kappa=1, seed=91)
    plan = prepare_hybrid(k, p)
    reps = 3000
    side = 2 * p.n + 1
    fields = np.empty((reps, side, side))
    for r in range(reps):
        fields[r] = hybrid_simulate(k, p, plan=plan, replicate=r).values
    lags = [(0, 0), (1, 0), (0, 1), (2, 0), (3, 2)]
    for l1, l2 in lags:
        # pool all grid pairs at this lag (row index = second coordinate)
        a = fields[:, : side - l2 or None, : side - l1 or None]
        b = fields[:, l2:, l1:]
        prod = (a * b).mean(axis=(1, 2))     # per-replicate pooled estimate
        est = prod.mean()
        se = prod.std(ddof=1) / math.sqrt(reps)
        exact = _scheme_covariance(plan, l1, l2)
        assert abs(est - exact) <= 4.0 * se, (
            f"lag ({l1},{l2}): MC {est:.5f}, exact {exact:.5f}, SE {se:.2e}"
        )


# ---------------------------------------------------------------------------
# Riemann scheme
# ---------------------------------------------------------------------------


def test_riemann_matches_hybrid_outside_inner_block():
    # With kappa = 0 the hybrid's outer kernel matrix equals the Riemann one
    # except at the central cell (optimal radius vs exactly-integrated cell).
    from vmma.fields import riemann_kernel_matrix

    k = ExpDecay(-0.5)
    p = SchemeParams(n=6, gamma=0.4, kappa=0)
    plan = prepare_hybrid(k, p)
    rm = riemann_kernel_matrix(k, p)
    am = plan.a_matrix
    assert am.shape == rm.shape
    c = am.shape[0] // 2
    mask = np.ones(am.shape, dtype=bool)
    mask[c, c] = False
    assert np.array_equal(am[mask], rm[mask])


def test_riemann_ignores_kappa():
    k = ExpDecay(-0.5)
    g1 = riemann_simulate(k, SchemeParams(n=7, gamma=0.4, kappa=0, seed=3))
    g2 = riemann_simulate(k, SchemeParams(n=7, gamma=0.4, kappa=2, seed=3))
    assert np.array_equal(g1.values, g2.values)


def test_riemann_deterministic():
    k = Matern(0.5)
    p = SchemeParams(n=7, gamma=0.4, seed=12)
    assert np.array_equal(
        riemann_simulate(k, p).values, riemann_simulate(k, p).values
    )


# ---------------------------------------------------------------------------
# far field: circular convolution at the noise sheet's fast length, octant fill
# ---------------------------------------------------------------------------


def _far_field_direct(A, B, N, half):
    """sum_k A_k B_{i-k} for outputs i = -half..half, by direct summation.

    A covers k = -N..N and B the sheet cells -(N+half)..N+half; output row
    r reads sheet rows r..r+2N in reverse (k = N..-N), likewise columns.
    """
    side = 2 * half + 1
    out = np.empty((side, side))
    for r in range(side):
        for c in range(side):
            out[r, c] = np.sum(A * B[r:r + 2 * N + 1, c:c + 2 * N + 1][::-1, ::-1])
    return out


@pytest.mark.parametrize(
    "n, gamma, kappa, half",
    [
        (5, 0.4, 0, 5),    # S = 29, not a fast length (period 30); kappa = 0
        (5, 0.4, 1, 14),   # half = n_trunc + n, the window ExpVmmaVolatility uses
        (6, 0.3, 2, 3),    # half < n
    ],
)
def test_far_field_circular_convolution_matches_direct_sum(n, gamma, kappa, half):
    p = SchemeParams(n=n, gamma=gamma, kappa=kappa)
    N = p.n_trunc
    S = 2 * (N + half) + 1
    B = np.random.default_rng(n + half).standard_normal((S, S))
    for plan in (prepare_hybrid(Matern(0.4, 1.0), p, half=half),
                 prepare_riemann(Matern(0.4, 1.0), p, half=half)):
        got = _circular_convolve(plan.fft_a, B, plan.fshape, N,
                                 2 * half + 1, 1)
        ref = _far_field_direct(plan.a_matrix, B, N, half)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.abs(ref).max()


def _hybrid_reference(plan, sigma, rng):
    """The hybrid field assembled from the public sample_noise output: an
    explicit near sum over block.offsets plus the far field by direct sum."""
    p, half = plan.params, plan.half
    kappa, N, side = p.kappa, p.n_trunc, 2 * plan.half + 1
    w1, plain = sample_noise(p, plan.block, rng, half=half)
    near = np.zeros((side, side))
    for idx, (j1, j2) in enumerate(plan.block.offsets):
        rows = np.arange(side)[:, None] + kappa - j2
        cols = np.arange(side)[None, :] + kappa - j1
        s = sigma[rows + N - kappa, cols + N - kappa]
        near += plan.weights[idx] * w1[rows, cols, idx] * s
    return near + _far_field_direct(plan.a_matrix, sigma * plain, N, half)


@pytest.mark.parametrize("kappa", [0, 1, 2, None])
@pytest.mark.parametrize("half", [None, _ROW_BLOCK // 2 + 3])
@pytest.mark.parametrize("modulated", [False, True])
def test_hybrid_streamed_matches_sample_noise_reference(kappa, half, modulated):
    # The engine streams the family into the near sum and the sheet into the
    # far-field spectrum block by block; with s1 > _ROW_BLOCK the carried
    # family rows are exercised.  A wrong carry or row offset moves whole
    # rows by O(1), far beyond 1e-12.  kappa None is the Riemann engine: no
    # family, the whole sheet from one plain draw.
    k = Matern(0.4, 1.0)
    p = SchemeParams(n=6, gamma=0.4, kappa=kappa or 0, seed=17)
    prepare, simulate = ((prepare_riemann, riemann_simulate) if kappa is None
                         else (prepare_hybrid, hybrid_simulate))
    plan = prepare(k, p, half=half)
    S = 2 * (p.n_trunc + plan.half) + 1
    if modulated:
        rng = np.random.default_rng(3 if kappa is None else kappa)
        sigma = np.exp(0.3 * rng.standard_normal((S, S)))
        vol = ProvidedGridVol(sigma)
    else:
        sigma, vol = np.ones((S, S)), ConstantVol(1.0)
    got = simulate(k, p, vol, plan=plan, replicate=4).values
    rng = rng_stream(17, 0, 4)
    if kappa is None:
        plain = rng.standard_normal((S, S)) / p.n
        ref = _far_field_direct(riemann_kernel_matrix(k, p), sigma * plain,
                                p.n_trunc, plan.half)
    else:
        ref = _hybrid_reference(plan, sigma, rng)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.abs(ref).max()


def _replicate_peak(simulate):
    tracemalloc.start()
    try:
        simulate()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scheme", ["hybrid", "hybrid-provided", "riemann"])
def test_replicate_working_set_within_two_spectra(scheme):
    # One planned replicate holds one complex (P, P//2+1) spectrum plus
    # row blocks and the kept output rows, never the full noise family, the
    # padded sheet or a second spectrum.
    k = Matern(0.5, 1.0)
    p = SchemeParams(n=100, gamma=0.3, kappa=1, seed=3)
    if scheme == "riemann":
        plan = prepare_riemann(k, p)
        peak = _replicate_peak(lambda: riemann_simulate(k, p, plan=plan))
    else:
        plan = prepare_hybrid(k, p)
        vol = ConstantVol(1.0)
        if scheme == "hybrid-provided":
            S = 2 * (p.n_trunc + p.n) + 1
            vol = ProvidedGridVol(np.full((S, S), 1.5))
        peak = _replicate_peak(lambda: hybrid_simulate(k, p, vol, plan=plan))
    P = plan.fshape
    spectrum = P * (P // 2 + 1) * 16
    assert peak <= 2 * spectrum, f"peak {peak / spectrum:.2f} spectra"


def _centred(a, period):
    """The (2N+1)^2 matrix a, offset 0 at its middle, placed on a period x
    period torus with offset 0 at index 0: offsets 0..N in the first rows
    and columns, -N..-1 in the last N."""
    N = a.shape[0] // 2
    out = np.zeros((period, period))
    idx = np.r_[0:N + 1, period - N:period]
    src = np.r_[N:2 * N + 1, 0:N]
    out[np.ix_(idx, idx)] = a[np.ix_(src, src)]
    return out


def test_modulated_replicate_holds_one_nested_spectrum():
    # An expvmma replicate builds the nested volatility plan and runs one
    # nested replicate.  At its peak it holds the nested plan's real quarter,
    # one nested complex spectrum and arrays of about the host sheet's size
    # (the family's row window alone is 2.7 of them at n = 32, then the near
    # sum, the central family block, the row buffers and the row spectra):
    # 7.4 sheets here.  A complex plan spectrum would add three quarters of
    # a nested spectrum, 2.3 sheets.
    k = Matern(0.5, 1.0)
    p = SchemeParams(n=32, gamma=0.3, kappa=1, seed=3)
    vol = ExpVmmaVolatility(ExpDecay(-0.2))
    plan = prepare_hybrid(k, p)
    peak = _replicate_peak(lambda: hybrid_simulate(k, p, vol, plan=plan))
    N = p.n_trunc
    sheet = 8 * (2 * (N + p.n) + 1) ** 2
    P = next_fast_len(2 * (N + (N + p.n)) + 1, real=True)  # nested period
    h = P // 2 + 1
    bound = 8 * h * h + 16 * P * h + 8 * sheet
    assert peak <= bound, f"peak {(peak - 8 * h * h - 16 * P * h) / sheet:.2f} sheets"


def test_plan_build_peak_within_one_and_a_half_spectra():
    # the build holds one complex spectrum, then its real quarter, plus row
    # blocks; never the dense kernel matrix or a second spectrum
    k = Matern(0.5, 1.0)
    p = SchemeParams(n=100, gamma=0.3, kappa=1)
    P = next_fast_len(2 * (p.n_trunc + p.n) + 1, real=True)
    spectrum = 16 * P * (P // 2 + 1)
    peak = _replicate_peak(lambda: prepare_hybrid(k, p))
    assert peak <= 1.5 * spectrum, f"peak {peak / spectrum:.2f} spectra"


@pytest.mark.parametrize("mode", ["midpoint", "optimal"])
def test_plan_spectrum_equals_rfft2_of_step_kernel(mode):
    # the centred octant row fill plus the split transform is the real
    # quarter of rfft2 bit for bit
    p = SchemeParams(n=7, gamma=0.5, kappa=1, policy=EvaluationPolicy(mode=mode))
    for plan in (prepare_hybrid(Matern(0.3, 1.0), p),
                 prepare_riemann(Matern(0.3, 1.0), p)):
        P = plan.fshape
        h = P // 2 + 1
        ref = rfft2(_centred(plan.a_matrix, P), s=(P, P))[:h].real
        assert np.array_equal(plan.fft_a, ref)
        assert plan.a_sq_sum == pytest.approx(np.sum(plan.a_matrix**2),
                                              rel=1e-14)


@pytest.mark.parametrize("half, period", [(None, 36), (3, 27)])
def test_plan_spectrum_is_real_quarter(half, period):
    # an even and an odd period: the plan keeps (P//2+1)^2 reals, not the
    # complex (P, P//2+1) spectrum
    p = SchemeParams(n=6, gamma=0.3, kappa=1)
    for plan in (prepare_hybrid(Matern(0.3, 1.0), p, half=half),
                 prepare_riemann(Matern(0.3, 1.0), p, half=half)):
        h = period // 2 + 1
        assert plan.fshape == period
        assert plan.fft_a.dtype == np.float64
        assert plan.fft_a.shape == (h, h)
        ref = rfft2(_centred(plan.a_matrix, period), s=(period, period))[:h].real
        assert np.array_equal(plan.fft_a, ref)


@pytest.mark.parametrize("prepare", [prepare_hybrid, prepare_riemann])
def test_memory_preflight_refuses_before_allocating(prepare):
    # n = 5000, gamma = 0.3: period ~139 000, one spectrum ~150 GB
    p = SchemeParams(n=5000, gamma=0.3, kappa=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="MiB.*available"):
            prepare(Matern(0.5, 1.0), p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_memory_preflight_counts_plan_as_real_quarter(monkeypatch):
    # Available memory between the plan-plus-replicate estimate with a real
    # quarter plan spectrum (1.25 complex spectra) and the one with two
    # complex spectra: the plan builds.
    p = SchemeParams(n=12, gamma=0.3, kappa=1)
    P = next_fast_len(2 * (p.n_trunc + p.n) + 1, real=True)
    spectrum = 16 * P * (P // 2 + 1)
    S, side = 2 * (p.n_trunc + p.n) + 1, 2 * p.n + 1
    s1, d = side + 2, 10
    rest = 8 * (S * S + side * side) + 8 * ((_ROW_BLOCK + 2) * s1 * d + s1 * s1)
    monkeypatch.setattr(fields_mod, "_available_memory",
                        lambda: rest + int(1.5 * spectrum))
    plan = prepare_hybrid(Matern(0.5, 1.0), p)
    assert plan.fshape == P


def test_available_memory_caps_by_cgroup_limit(tmp_path):
    # MemAvailable, capped by the cgroup v2 headroom memory.max -
    # memory.current when a limit is set; "max" or no cgroup files leave it.
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal:  8000000 kB\nMemAvailable:  4000000 kB\n")
    cgroup = tmp_path / "cgroup"
    cgroup.mkdir()
    host = 4000000 * 1024

    def avail():
        return _available_memory(str(meminfo), str(cgroup))

    assert avail() == host
    (cgroup / "memory.current").write_text("5000\n")
    (cgroup / "memory.max").write_text("max\n")
    assert avail() == host
    (cgroup / "memory.max").write_text(f"{5000 + 2**30}\n")
    assert avail() == 2**30
    (cgroup / "memory.max").write_text(f"{5000 + 2 * host}\n")
    assert avail() == host
    (cgroup / "memory.max").write_text("4000\n")
    assert avail() == 0


def _dense_radii(N):
    k = np.arange(-N, N + 1)
    return k[None, :], k[:, None], np.hypot(k[None, :], k[:, None])


@pytest.mark.parametrize("kappa", [0, 1, 2])
@pytest.mark.parametrize("kernel", [Matern(0.4, 1.0), ExpDecay(-0.3)])
def test_octant_hybrid_matrix_equals_dense_evaluation(kernel, kappa):
    p = SchemeParams(n=7, gamma=0.5, kappa=kappa)
    k1, k2, r = _dense_radii(p.n_trunc)
    outside = np.maximum(np.abs(k1), np.abs(k2)) > kappa
    ref = np.zeros(r.shape)
    ref[outside] = kernel.eval_g(r[outside] / p.n)
    assert np.array_equal(prepare_hybrid(kernel, p).a_matrix, ref)


@pytest.mark.parametrize("kernel", [Matern(0.4, 1.0), ExpDecay(-0.3)])
def test_octant_riemann_matrix_equals_dense_evaluation(kernel):
    p = SchemeParams(n=7, gamma=0.5)
    N = p.n_trunc
    _, _, r = _dense_radii(N)
    r[N, N] = optimal_b_norm((0, 0), kernel.alpha)
    assert np.array_equal(riemann_kernel_matrix(kernel, p), kernel.eval_g(r / p.n))


def test_octant_optimal_policy_matches_scalar_radii():
    kernel = Matern(0.3, 1.0)
    p = SchemeParams(n=6, gamma=0.4, kappa=1,
                     policy=EvaluationPolicy(mode="optimal"))
    N = p.n_trunc
    ref = np.zeros((2 * N + 1, 2 * N + 1))
    for j2 in range(-N, N + 1):
        for j1 in range(-N, N + 1):
            if max(abs(j1), abs(j2)) > p.kappa:
                r = optimal_b_norm((j1, j2), kernel.alpha)
                ref[j2 + N, j1 + N] = kernel.eval_g(r / p.n)
    np.testing.assert_allclose(prepare_hybrid(kernel, p).a_matrix, ref,
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("half", [None, 3, 17])
def test_plan_fft_period_is_noise_sheet_fast_length(half):
    # the far field never pads to the linear size 2N+1 + S - 1
    k = ExpDecay(-0.5)
    p = SchemeParams(n=6, gamma=0.4, kappa=1)
    m0 = p.n if half is None else half
    period = next_fast_len(2 * (p.n_trunc + m0) + 1, real=True)
    assert prepare_hybrid(k, p, half=half).fshape == period
    assert prepare_riemann(k, p, half=half).fshape == period


# ---------------------------------------------------------------------------
# circulant baseline
# ---------------------------------------------------------------------------


def test_circulant_deterministic_and_geometry():
    corr = lambda r: matern_correlation(0.5, 1.0, r)
    g1 = circulant_simulate(corr, 1.0, 12, seed=5)
    g2 = circulant_simulate(corr, 1.0, 12, seed=5)
    assert np.array_equal(g1.values, g2.values)
    assert g1.side == 25
    assert g1.spacing == pytest.approx(1.0 / 12.0)
    g3 = circulant_simulate(corr, 1.0, 12, seed=5, replicate=1)
    assert not np.array_equal(g1.values, g3.values)


def test_circulant_moments():
    # Exact sampler: center variance and a lag covariance match the target
    # within 3 SE over replicates.
    corr = lambda r: matern_correlation(0.5, 1.0, r)
    var = 2.5
    n = 10
    reps = 2500
    c0 = np.empty(reps)
    c1 = np.empty(reps)
    for r in range(reps):
        v = circulant_simulate(corr, var, n, seed=8, replicate=r).values
        c0[r] = v[n, n]
        c1[r] = v[n, n + 3]
    emp_var = c0.var()
    se_var = var * math.sqrt(2.0 / reps)
    assert abs(emp_var - var) < 3 * se_var
    target_cov = var * float(matern_correlation(0.5, 1.0, 3.0 / n))
    emp_cov = np.mean(c0 * c1) - c0.mean() * c1.mean()
    prods = c0 * c1
    se_cov = prods.std(ddof=1) / math.sqrt(reps)
    assert abs(emp_cov - target_cov) < 3 * se_cov


def test_circulant_gaussian_marginal():
    # Short correlation length and pooled replicates so the effective sample
    # size supports a tight skewness bound.
    corr = lambda r: matern_correlation(0.4, 8.0, r)
    vals = np.concatenate(
        [
            circulant_simulate(corr, 1.0, 30, seed=3, replicate=r).values.ravel()
            for r in range(50)
        ]
    )
    z = (vals - vals.mean()) / vals.std()
    assert abs(float(np.mean(z**3))) < 0.06


def test_circulant_rejects_indefinite_correlation():
    # A top-hat "correlation" is not positive definite in 2D; doubling cannot
    # fix it, so the embedding must fail.
    bad = lambda r: (np.asarray(r) < 1.5).astype(float)
    with pytest.raises(EmbeddingError):
        circulant_simulate(bad, 1.0, 16, seed=0, max_doublings=1)


def _dense_circulant(correlation, variance, n, seed, replicate, max_doublings):
    """Reference embedding: correlation on every torus point at each size.

    Returns (values, M), or (message, M) when the embedding is indefinite."""
    side = 2 * n + 1
    M = next_fast_len(2 * side, real=True)
    lam, worst = None, None
    for _ in range(max_doublings + 1):
        idx = np.arange(M)
        d = np.minimum(idx, M - idx).astype(float)
        r = np.hypot(d[None, :], d[:, None]) / n
        base = variance * np.asarray(correlation(r), dtype=float)
        spec = fft2(base).real
        if spec.min() >= -1e-10 * spec.max():
            lam = np.where(spec < 0.0, 0.0, spec)
            break
        worst = spec.min()
        M = next_fast_len(2 * M, real=True)
    if lam is None:
        return (f"circulant embedding not nonnegative definite after "
                f"{max_doublings} doublings (most negative eigenvalue {worst:.6e})"), M
    rng = rng_stream(seed, 0, replicate)
    zr = rng.standard_normal((M, M))
    zi = rng.standard_normal((M, M))
    f = fft2(np.sqrt(lam) * (zr + 1j * zi))
    return f.real[:side, :side] / M, M


_TOP_HAT = lambda r: (np.asarray(r) < 1.5).astype(float)


@pytest.mark.parametrize(
    "corr, variance, n, max_doublings, doubles",
    [
        # test_05's long-range Matern: three doublings, M = 50 -> 400
        (lambda r: matern_correlation(0.4, 0.38, r), 1.7, 12, 3, True),
        (lambda r: matern_correlation(0.5, 1.0, r), 2.5, 10, 3, True),
        (lambda r: np.exp(-3.0 * np.asarray(r)), 0.8, 7, 3, False),
        (_TOP_HAT, 1.0, 16, 1, True),
    ],
)
def test_circulant_lag_table_matches_dense_embedding(corr, variance, n,
                                                     max_doublings, doubles):
    side = 2 * n + 1
    for replicate in (0, 3):
        ref, M = _dense_circulant(corr, variance, n, 11, replicate, max_doublings)
        assert (M > next_fast_len(2 * side, real=True)) == doubles
        if isinstance(ref, str):
            with pytest.raises(EmbeddingError) as exc:
                circulant_simulate(corr, variance, n, seed=11, replicate=replicate,
                                   max_doublings=max_doublings)
            assert str(exc.value) == ref
        else:
            got = circulant_simulate(corr, variance, n, seed=11, replicate=replicate,
                                     max_doublings=max_doublings).values
            assert np.array_equal(got, ref)


def test_circulant_evaluates_each_lag_once():
    calls = []

    def counting(r):
        calls.append(np.array(r, copy=True))
        return matern_correlation(0.4, 0.38, r)

    n = 12
    circulant_simulate(counting, 1.0, n, seed=0)
    h = 400 // 2  # M = 50 doubled three times
    assert len(calls) == 4
    assert all(c.ndim == 1 for c in calls)
    dist = np.concatenate(calls)
    assert dist.size == (h + 1) * (h + 2) // 2
    # the distances passed are those of the canonical lags a >= b >= 0, each
    # exactly once (distinct lags such as (5, 0) and (4, 3) may share one)
    a, b = np.tril_indices(h + 1)
    assert np.array_equal(np.sort(dist), np.sort(np.hypot(b, a) / n))


def test_circulant_validation():
    corr = lambda r: np.exp(-np.asarray(r))
    with pytest.raises(ValidationError):
        circulant_simulate(corr, 0.0, 10)
    with pytest.raises(ValidationError):
        circulant_simulate(corr, 1.0, 0)


@pytest.mark.parametrize("kwargs", [
    {"n": True},
    {"max_doublings": -1},
    {"max_doublings": 1.5},
], ids=["n-bool", "doublings-negative", "doublings-float"])
def test_circulant_rejects_bad_integer_arguments(kwargs):
    args = {"n": 6, **kwargs}
    with pytest.raises(ValidationError):
        circulant_simulate(lambda r: np.exp(-np.asarray(r)), 1.0, **args)


def test_circulant_memory_preflight_refuses_before_allocating():
    # n = 100000: torus side about 4e5, some 3.8 TB at 24 bytes per point
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="M=.*doubling 0.*MiB.*available"):
            circulant_simulate(lambda r: np.exp(-np.asarray(r)), 1.0, 100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_circulant_working_set_is_one_complex_and_one_real_array():
    # n = 12, Matern(0.4, 0.38): M = 400 after three doublings (as in
    # test_circulant_evaluates_each_lag_once); the lean body holds 24 bytes
    # per torus point plus the lag table, never the old 82.
    corr = lambda r: matern_correlation(0.4, 0.38, r)
    M = 400
    peak = _replicate_peak(lambda: circulant_simulate(corr, 1.0, 12, seed=0))
    assert peak <= 28 * M * M, f"{peak / M**2:.1f} bytes per torus point"


@pytest.mark.parametrize("corr, n", [
    (lambda r: matern_correlation(0.4, 0.38, r), 12),  # three doublings
    (lambda r: np.exp(-3.0 * np.asarray(r)), 7),  # none
])
def test_circulant_worker_count_does_not_change_bytes(corr, n):
    g1 = circulant_simulate(corr, 1.3, n, seed=19, replicate=2, workers=1)
    g2 = circulant_simulate(corr, 1.3, n, seed=19, replicate=2, workers=2)
    assert g1.values.tobytes() == g2.values.tobytes()


# ---------------------------------------------------------------------------
# hybrid with stochastic volatility
# ---------------------------------------------------------------------------


def test_hybrid_provided_vol_modulates_amplitude():
    # Two constant ProvidedGridVol surfaces scale the same noise linearly.
    k = ExpDecay(-0.5)
    p = SchemeParams(n=6, gamma=0.4, kappa=1, seed=19)
    plan = prepare_hybrid(k, p)
    side = 2 * (p.n_trunc + 6) + 1
    g1 = hybrid_simulate(
        k, p, ProvidedGridVol(np.full((side, side), 1.0)), plan=plan
    )
    g2 = hybrid_simulate(
        k, p, ProvidedGridVol(np.full((side, side), 2.0)), plan=plan
    )
    assert np.allclose(g2.values, 2.0 * g1.values, rtol=1e-12)


def test_hybrid_expvmma_runs_and_differs_from_constant():
    k = ExpDecay(-0.5)
    p = SchemeParams(n=8, gamma=0.3, kappa=1, seed=7)
    g_c = hybrid_simulate(k, p, ConstantVol(1.0))
    g_v = hybrid_simulate(k, p, ExpVmmaVolatility(ExpDecay(-0.2)))
    assert g_v.side == g_c.side
    assert not np.array_equal(g_v.values, g_c.values)
    assert np.all(np.isfinite(g_v.values))
