"""Tests for the simulation engines: parameters, noise, hybrid/Riemann/
circulant schemes, volatility models.

Oracles: Monte Carlo moments against the closed-form covariance block, exact
linearity/determinism identities, an exact circulant reference, and
distributional checks with 3-standard-error tolerances.
"""

import contextvars
import dataclasses
import hashlib
import math
import os
import sys
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.fft
from scipy.fft import fft2, ifft, irfft, next_fast_len, rfft2
from scipy.special import j0

import vmma.fields as fields_mod
from vmma.analysis import hybrid_mse, mse_study
from vmma.covariance import (
    EvaluationPolicy,
    box_power_integrals,
    build_block,
    octant_cells,
    representative_radii,
)
from vmma.errors import EmbeddingError, ValidationError
from vmma.fields import (
    ConstantVol,
    ExpVmmaVolatility,
    FieldGrid,
    ProvidedGridVol,
    RateHypothesisWarning,
    SchemeParams,
    _ROW_BLOCK,
    _SLACK_BYTES,
    _available_memory,
    _convolved_block,
    _kernel_spectrum,
    _row_spectrum,
    circulant_simulate,
    conv2_fft,
    fft_workers,
    hybrid_simulate,
    prepare_circulant,
    prepare_hybrid,
    prepare_riemann,
    riemann_simulate,
    rng_stream,
    sample_noise,
    scheme_variance,
)
from vmma.kernels import (ExpDecay, KernelSpec, Matern, PurePower,
                          matern_correlation)


# ---------------------------------------------------------------------------
# SchemeParams / FieldGrid
# ---------------------------------------------------------------------------


def test_scheme_params_truncation():
    p = SchemeParams(n=100, gamma=0.3)
    assert p.n_trunc == 398  # floor(100^1.3)
    assert p.c_n == pytest.approx((398 + 0.5) / 100)
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


def test_rng_stream_first_normals_are_frozen():
    # Every same-seed output and every dense reference here starts from
    # rng_stream, so a change in numpy's SeedSequence, Philox or normal
    # sampler would move them all together and pass every comparison.
    got = [repr(float(x)) for x in rng_stream(0, 0, 0).standard_normal(4)]
    assert got == ["-0.2059740286292238", "-0.12884495093462758",
                   "-0.28978987549091256", "-1.271943284573895"]


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
        ExpVmmaVolatility(0.5)  # not a KernelSpec


def test_expvmma_realize_is_positive_and_deterministic():
    inner = ExpDecay(-0.2)
    v = ExpVmmaVolatility(inner)
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
# the draw thread
# ---------------------------------------------------------------------------


class _DrawFailed(Exception):
    pass


_TOKEN = contextvars.ContextVar("test_fields_token")


class _Stream:
    """rng_stream(*key), recording the thread of each standard_normal call
    and the value _TOKEN has there, and raising _DrawFailed at call number
    `fail_at` (never when None)."""

    def __init__(self, *key, fail_at=None):
        self.rng, self.fail_at = rng_stream(*key), fail_at
        self.threads, self.tokens = [], []

    def standard_normal(self, *args, **kwargs):
        self.threads.append(threading.get_ident())
        self.tokens.append(_TOKEN.get(None))
        if len(self.threads) == self.fail_at:
            raise _DrawFailed(self.fail_at)
        return self.rng.standard_normal(*args, **kwargs)


_DRAW_ENGINES = ["hybrid", "riemann", "sample_noise", "circulant"]
# the engines that draw on a thread of their own (_drawn); sample_noise
# draws on the caller's
_THREAD_ENGINES = ["hybrid", "riemann", "circulant"]


def _draw_with(engine, stream, monkeypatch):
    """One call of `engine` that takes its normals from `stream`: 7 draws
    for hybrid, 3 for riemann, 2 for sample_noise and 4 for circulant."""
    k, p = Matern(0.5, 1.0), SchemeParams(n=6, gamma=0.4, kappa=1, seed=3)
    if engine == "hybrid":
        return hybrid_simulate(k, p, rng_noise=stream)
    if engine == "riemann":
        return riemann_simulate(k, p, rng_noise=stream)
    if engine == "sample_noise":
        return sample_noise(p, build_block(-0.5, 1, 6), stream)
    monkeypatch.setattr(fields_mod, "rng_stream", lambda *key: stream)
    return circulant_simulate(lambda r: matern_correlation(0.5, 1.0, r), 1.0, 6)


def _position(rng):
    """A Philox stream's position, comparable with ==."""
    state = rng.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"],
            state["has_uint32"], state["uinteger"])


def test_draws_under_contention_equal_serial_draws():
    # Four callers at once, each with its own stream, under a short switch
    # interval: a slot drawn over before it was taken, or taken twice, would
    # change the draws.
    shapes = [(3, 5), (1, 7), (4, 2, 3)] * 40
    got = {}

    def take(i):
        with fields_mod._drawn(rng_stream(8, i), shapes) as draws:
            got[i] = np.concatenate([z.ravel().copy() for z in draws])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=take, args=(i,)) for i in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for i in range(4):
        rng = rng_stream(8, i)
        ref = np.concatenate([rng.standard_normal(s).ravel() for s in shapes])
        assert got[i].tobytes() == ref.tobytes()


@pytest.mark.parametrize("engine", _THREAD_ENGINES)
def test_draw_runs_on_one_other_thread_that_ends_with_the_call(engine,
                                                                monkeypatch):
    stream = _Stream(3, 0, 0)
    start = threading.active_count()
    _draw_with(engine, stream, monkeypatch)
    assert threading.active_count() == start
    assert len(set(stream.threads)) == 1
    assert threading.get_ident() not in stream.threads


@pytest.mark.parametrize("engine", _DRAW_ENGINES)
def test_draw_sees_the_callers_context(engine, monkeypatch):
    stream = _Stream(3, 0, 0)
    token = _TOKEN.set("caller")
    try:
        _draw_with(engine, stream, monkeypatch)
    finally:
        _TOKEN.reset(token)
    assert stream.tokens and set(stream.tokens) == {"caller"}


@pytest.mark.parametrize(
    "engine, fail_at",
    [(e, f) for e in _DRAW_ENGINES for f in (1, 2, 3)
     if (e, f) != ("sample_noise", 3)])   # it makes two draws
def test_draw_error_reaches_the_caller_and_ends_the_thread(engine, fail_at,
                                                           monkeypatch):
    # the first, second and third draw fail: for riemann the third is its
    # last, for circulant the first of the imaginary part; sample_noise's
    # second is its last
    start = threading.active_count()
    with pytest.raises(_DrawFailed) as failed:
        _draw_with(engine, _Stream(3, 0, 0, fail_at=fail_at), monkeypatch)
    # checked while the exception, whose traceback holds the call's
    # frames, is still referenced
    assert failed.value.args == (fail_at,)
    assert threading.active_count() == start


@pytest.mark.parametrize("error", [ValidationError, KeyboardInterrupt])
def test_family_consumer_error_ends_the_draw_thread(error):
    # the near sum raises at the first family block, while the thread has
    # the ring full and waits for a free slot
    class Weights:
        def __getitem__(self, idx):
            raise error("consumer failed")

    k, p = Matern(0.5, 1.0), SchemeParams(n=6, gamma=0.4, kappa=1, seed=3)
    plan = dataclasses.replace(prepare_hybrid(k, p), weights=Weights())
    start = threading.active_count()
    with pytest.raises(error) as raised:
        hybrid_simulate(k, p, plan=plan)
    assert raised.value.args == ("consumer failed",)
    assert threading.active_count() == start


@pytest.mark.parametrize("modulated", [False, True])
@pytest.mark.parametrize("prepare, simulate", [
    (prepare_hybrid, hybrid_simulate), (prepare_riemann, riemann_simulate)])
def test_error_past_the_row_blocks_ends_the_draw_thread(prepare, simulate,
                                                        modulated, monkeypatch):
    # the row spectrum takes one sheet block and raises, with the draw
    # unfinished; the engine's `with` block joins its thread before the
    # error leaves the call
    k, p = Matern(0.5, 1.0), SchemeParams(n=40, gamma=0.3, kappa=1, seed=3)
    plan = prepare(k, p)
    side = 2 * (p.n_trunc + p.n) + 1
    vol = ProvidedGridVol(np.full((side, side), 2.0)) if modulated else None

    def row_spectrum(rows, *args, **kwargs):
        next(iter(rows))
        raise _DrawFailed("downstream")

    monkeypatch.setattr(fields_mod, "_row_spectrum", row_spectrum)
    start = threading.active_count()
    with pytest.raises(_DrawFailed) as raised:
        simulate(k, p, vol, plan=plan)
    assert raised.value.args == ("downstream",)
    assert threading.active_count() == start


@pytest.mark.parametrize("kappa", [0, 2])
@pytest.mark.parametrize("simulate", [hybrid_simulate, riemann_simulate])
def test_draw_leaves_the_stream_where_serial_draws_do(simulate, kappa):
    # the documented shapes drawn whole, one after the other, move a fresh
    # stream to where the engine's unit-wise threaded draw leaves rng_noise
    k, p = Matern(0.5, 1.0), SchemeParams(n=6, gamma=0.4, kappa=kappa, seed=3)
    rng = rng_stream(3, 0, 9)
    simulate(k, p, rng_noise=rng)
    ref = rng_stream(3, 0, 9)
    s1, S = 2 * (p.n + kappa) + 1, 2 * (p.n_trunc + p.n) + 1
    if simulate is hybrid_simulate:
        ref.standard_normal((s1, s1, (2 * kappa + 1) ** 2 + 1))
    ref.standard_normal((S, S))
    assert _position(rng) == _position(ref)
    ref.standard_normal(1)
    assert _position(rng) != _position(ref)


def test_circulant_draw_leaves_the_stream_where_serial_draws_do(monkeypatch):
    # zr, then zi, each (M, M)
    streams = []

    def stream(*key):
        streams.append(rng_stream(*key))
        return streams[-1]

    monkeypatch.setattr(fields_mod, "rng_stream", stream)
    corr = lambda r: matern_correlation(0.5, 1.0, r)
    circulant_simulate(corr, 1.0, 6, seed=3, replicate=9)
    M = prepare_circulant(corr, 1.0, 6).size
    ref = rng_stream(3, 0, 9)
    ref.standard_normal((M, M))
    ref.standard_normal((M, M))
    assert len(streams) == 1 and _position(streams[0]) == _position(ref)


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
    with pytest.raises(ValidationError):
        conv2_fft(np.ones((2, 2)), np.ones((2, 3)))


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


def _frozen_values(case):
    """The array a frozen case names: hybrid-k<kappa>-<volatility> at n = 20,
    riemann-<volatility> at n = 20, circulant-cold or circulant-plan at
    n = 12, and sample_noise-w1 or sample_noise-plain at half = 37."""
    k, corr = Matern(0.5, 1.0), lambda r: matern_correlation(0.5, 1.0, r)
    kind, *arg = case.split("-")
    if kind == "circulant":
        plan = prepare_circulant(corr, 1.0, 12) if arg == ["plan"] else None
        return circulant_simulate(corr, 1.0, 12, seed=7, replicate=1,
                                  plan=plan).values
    if kind == "sample_noise":
        p = SchemeParams(n=6, gamma=0.4, kappa=1)
        w1, plain = sample_noise(p, build_block(-0.5, 1, 6),
                                 rng_stream(2, 0, 7), half=37)
        return w1 if arg == ["w1"] else plain
    # sigma on the extended window of n = 20: side 2*(n_trunc + n) + 1 = 139
    sigma = np.exp(0.3 * np.random.default_rng(5).standard_normal((139, 139)))
    vol = {"const": ConstantVol(2.5), "provided": ProvidedGridVol(sigma),
           "expvmma": ExpVmmaVolatility(ExpDecay(-0.2))}[arg[-1]]
    if kind == "riemann":
        return riemann_simulate(k, SchemeParams(n=20, seed=7), vol,
                                replicate=1).values
    p = SchemeParams(n=20, kappa=int(arg[0][1:]), seed=7)
    return hybrid_simulate(k, p, vol, replicate=1).values


# sha256 of values.tobytes(): a change to an engine's arithmetic, draw
# order or stream use shows here even where the tolerance tests pass it.
_FROZEN_FIELDS = {
    "hybrid-k0-const":
        "b56f68f5cc6d71a9b0fc037dc7bcbea05e17bd78e9998a355b30a588c18239a9",
    "hybrid-k0-expvmma":
        "e94c90b2f33f03e1ab934427197fcde4102de055dd6a630dbd0e219a64bef176",
    "hybrid-k0-provided":
        "ac9586c1aac35587c10133f7b67c6694b2f57fb2df7e648a6fcdc4b06ed130c8",
    "hybrid-k1-const":
        "d8a449088a6fe78a5706226141d7a8b70bc4fa90b0a016c8a9345f09764b52d5",
    "hybrid-k1-expvmma":
        "f980eea3a961b82cbfd7295e28a62438a676f0785ed15a504825b505e48f6db8",
    "hybrid-k1-provided":
        "ece28c781417df9384af38200051c939c22344ee24e455ef6fa5d185f0956c37",
    "hybrid-k2-const":
        "e500300036be8ae16053e7d90a6b34f2dd59a2791e5373edfec47b6116e29fa1",
    "hybrid-k2-expvmma":
        "d578bbc06d8147e78fe9afb82efeafda069e650793465d006fc4f6adc98dd209",
    "hybrid-k2-provided":
        "28b8fb754450f682aa4f38b1794c264bf5295f263280950fa9f87364a5788e3f",
    "hybrid-k5-const":
        "874d1af0fdd46a535ca8f4bde496bb9c51a4cc06a346395f06a59386efbd4ffd",
    "hybrid-k5-expvmma":
        "176a388bd4e489d3b8526b6c9a5bc3ff158b4256ca1ae82e2f321d8b2bc1082c",
    "hybrid-k5-provided":
        "a8f5c7d54680d4738e41f432d3aa40a9d4f75b3cce184d314dec5ccaf34776a3",
    "riemann-provided":
        "ceee4ffb3fd649e762f1939e6ec5f088ab14fcb511d8b3fd93d9a010acdc5d80",
    "circulant-cold":
        "8b13905433da86bdb645f52abe613df109100bd97f6f2a9f1164a0f279e91b03",
    "circulant-plan":
        "8b13905433da86bdb645f52abe613df109100bd97f6f2a9f1164a0f279e91b03",
    "sample_noise-w1":
        "2ba3d79675f4b11ebc8685ba2761565580dd1ceef887369b4e3df5e15a5fae24",
    "sample_noise-plain":
        "a57101ad403eaf1514db53f9b1b0fbd5adbf30e3e70a1bb225f8464370f478ca",
}


@pytest.mark.parametrize("case", list(_FROZEN_FIELDS))
def test_fields_frozen_bit_for_bit(case):
    values = _frozen_values(case)
    assert hashlib.sha256(values.tobytes()).hexdigest() == _FROZEN_FIELDS[case]


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


def test_step_kernel_plan_checks_only_what_builds_it():
    # only the draw reads the seed, and a Riemann plan has no inner block:
    # one plan serves every seed, and a Riemann plan every kappa and
    # policy, with the cold calls' bits
    k = Matern(0.5, 1.0)
    optimal = EvaluationPolicy(mode="optimal")
    plan = prepare_hybrid(k, SchemeParams(n=8, seed=0))
    for seed in (1, 2):
        p = SchemeParams(n=8, seed=seed)
        assert np.array_equal(hybrid_simulate(k, p, plan=plan, replicate=3).values,
                              hybrid_simulate(k, p, replicate=3).values)
    with pytest.raises(ValidationError, match="different settings"):
        hybrid_simulate(k, SchemeParams(n=8, policy=optimal), plan=plan)
    plan = prepare_riemann(k, SchemeParams(n=8, kappa=1))
    p = SchemeParams(n=8, kappa=2, seed=4, policy=optimal)
    cold = riemann_simulate(k, SchemeParams(n=8, kappa=0, seed=4))
    assert np.array_equal(riemann_simulate(k, p, plan=plan).values, cold.values)
    for other in (SchemeParams(n=8, gamma=0.4), SchemeParams(n=9)):
        with pytest.raises(ValidationError, match="different settings"):
            riemann_simulate(k, other, plan=plan)


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


class _PolynomialTail(KernelSpec):
    """g(x) = x**-0.5 * (1+x)**-3.5, which decays like x**-4."""

    alpha = -0.5
    beta_decay = -4.0

    def _L(self, x):
        return (1.0 + x) ** -3.5


def test_hybrid_rate_hypothesis_warning():
    # Slow polynomial tail + small gamma: truncation may not vanish fast
    # enough; the preparation warns but proceeds.
    k = _PolynomialTail()
    p = SchemeParams(n=8, gamma=0.15, kappa=1)
    with pytest.warns(RateHypothesisWarning):
        prepare_hybrid(k, p)
    # Each warning names the line that called into the package, however deep
    # inside it the check runs: under the default once-per-location filter,
    # a warning that named a package line would hide every later call site.
    calls = {
        "prepare_hybrid": lambda: prepare_hybrid(k, p),
        "prepare_riemann": lambda: prepare_riemann(k, p),
        "cold hybrid_simulate": lambda: hybrid_simulate(k, p),
        "cold riemann_simulate": lambda: riemann_simulate(k, p),
        "hybrid_mse": lambda: hybrid_mse(k, p),
        "mse_study": lambda: mse_study(k, [8, 9, 10], gamma=p.gamma),
    }
    for name, call in calls.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        rate = [w for w in caught if w.category is RateHypothesisWarning]
        assert rate, name
        assert all(w.filename == __file__ for w in rate), (
            name, [(w.filename, w.lineno) for w in rate])
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
    k = ExpDecay(-0.5)
    p = SchemeParams(n=6, gamma=0.4, kappa=0)
    plan = prepare_hybrid(k, p)
    rm = prepare_riemann(k, p).a_matrix
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
        rows = [(0, np.pad(B, ((0, 0), (0, plan.fshape - S))))]
        got = _convolved_block(_row_spectrum(rows, plan.fshape, 1), plan.fft_a,
                               N, 2 * half + 1, 1)
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


@pytest.mark.parametrize("kappa", [0, 1, 2, 5, None])
@pytest.mark.parametrize("half", [None, _ROW_BLOCK // 2 + 3])
@pytest.mark.parametrize("modulated", [False, True])
def test_hybrid_streamed_matches_sample_noise_reference(kappa, half, modulated):
    # The engine streams the family into the near sum and the sheet into the
    # far-field spectrum block by block; every s1 here exceeds the 16-row
    # family block, so the carried family rows are exercised (kappa 5
    # carries the most, 10 rows), and at the wider half the family's plain
    # channel spans two sheet blocks of the spectrum rows that hold it.  A
    # wrong carry or row offset moves whole rows by O(1), far beyond 1e-12.
    # kappa None is the Riemann engine: no family, the whole sheet from one
    # plain draw.
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
        ref = _far_field_direct(plan.a_matrix, sigma * plain,
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


@pytest.fixture
def column_blocks(monkeypatch):
    """The period of each column-block transform (a complex fft along axis
    0 of at most _COL_BLOCK columns) that the engines take while the test
    runs, in order."""
    blocks = []

    class CountingFft:
        def __getattr__(self, name):
            return getattr(scipy.fft, name)

        def fft(self, x, *args, axis=-1, **kwargs):
            if axis == 0 and x.shape[1] <= fields_mod._COL_BLOCK:
                blocks.append(x.shape[0])
            return scipy.fft.fft(x, *args, axis=axis, **kwargs)

    monkeypatch.setattr(fields_mod, "_fft", CountingFft())
    return blocks


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
    # (the near sum, 1 of them, the family's row window, 0.7 at n = 32, and
    # the sheet's row draw, padded row buffer and row spectrum, 0.5 each):
    # 3.1 sheets here.  A complex plan spectrum would add three quarters of
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


def test_modulated_replicate_keeps_no_family_scratch():
    # As above at n = 64, where the replicate holds 1.9 sheets beyond the
    # nested quarter and spectrum.  The family's plain channel waits in the
    # spectrum's own rows: a separate (s1, s1) block for it would add about
    # 1 sheet, and drawing the family 64 rows at a time 1.4 more.
    k = Matern(0.5, 1.0)
    p = SchemeParams(n=64, gamma=0.3, kappa=1, seed=3)
    vol = ExpVmmaVolatility(ExpDecay(-0.2))
    plan = prepare_hybrid(k, p)
    peak = _replicate_peak(lambda: hybrid_simulate(k, p, vol, plan=plan))
    N = p.n_trunc
    sheet = 8 * (2 * (N + p.n) + 1) ** 2
    P = next_fast_len(2 * (N + (N + p.n)) + 1, real=True)  # nested period
    h = P // 2 + 1
    beyond = (peak - 8 * h * h - 16 * P * h) / sheet
    assert beyond <= 2.5, f"peak {beyond:.2f} sheets"


def test_cold_modulated_replicate_realises_sigma_before_host_plan():
    # A cold expvmma call runs the nested field before it builds the host
    # plan, so its peak is the warm replicate's: 1.93 sheets beyond the
    # nested quarter and spectrum at n = 64.  With the host plan built
    # first, its real quarter sits under the nested replicate: 2.18.
    k = Matern(0.5, 1.0)
    p = SchemeParams(n=64, gamma=0.3, kappa=1, seed=3)
    vol = ExpVmmaVolatility(ExpDecay(-0.2))
    peak = _replicate_peak(lambda: hybrid_simulate(k, p, vol))
    N = p.n_trunc
    sheet = 8 * (2 * (N + p.n) + 1) ** 2
    P = next_fast_len(2 * (N + (N + p.n)) + 1, real=True)  # nested period
    h = P // 2 + 1
    beyond = (peak - 8 * h * h - 16 * P * h) / sheet
    assert beyond <= 2.0, f"peak {beyond:.2f} sheets"


def test_plan_build_peak_within_one_and_a_half_spectra():
    # the build never holds the dense kernel matrix or a second spectrum
    k = Matern(0.5, 1.0)
    p = SchemeParams(n=100, gamma=0.3, kappa=1)
    P = next_fast_len(2 * (p.n_trunc + p.n) + 1, real=True)
    spectrum = 16 * P * (P // 2 + 1)
    peak = _replicate_peak(lambda: prepare_hybrid(k, p))
    assert peak <= 1.5 * spectrum, f"peak {peak / spectrum:.2f} spectra"


@pytest.mark.parametrize("n", [128, 256])
def test_plan_build_peak_below_one_spectrum(n):
    # The build holds the real quarter and the row spectra of the kernel's
    # N+1 distinct rows, about 0.6 spectra, plus the octant and row and
    # column blocks, never a whole complex spectrum: 0.84 and 0.82 spectra
    # here, against 1.32 and 1.34 with one.
    k = Matern(0.5, 1.0)
    p = SchemeParams(n=n, gamma=0.3, kappa=1)
    P = next_fast_len(2 * (p.n_trunc + p.n) + 1, real=True)
    spectrum = 16 * P * (P // 2 + 1)
    peak = _replicate_peak(lambda: prepare_hybrid(k, p))
    assert peak < spectrum, f"peak {peak / spectrum:.2f} spectra"


def test_step_kernel_octant_builds_no_whole_octant_index_arrays():
    # n = 128: the radii are formed in the octant a block of rows at a
    # time, so the table peaks at 4.6 octants (the octant, the sort's
    # permutation, the distinct radii and the kernel's temporaries on
    # them), and the sum of squares at 1.0 (the weighted squares); with the
    # whole-octant index, multiplicity and inverse arrays, 6.8 and 4.1.
    p = SchemeParams(n=128, gamma=0.3, kappa=1)
    octant = fields_mod._step_kernel_octant(Matern(0.5, 1.0), p, True)
    peak = _replicate_peak(
        lambda: fields_mod._step_kernel_octant(Matern(0.5, 1.0), p, True))
    assert peak <= 5 * octant.nbytes, f"{peak / octant.nbytes:.2f} octants"
    peak = _replicate_peak(lambda: fields_mod._octant_sq_sum(octant, p.n_trunc))
    assert peak <= 1.5 * octant.nbytes, f"{peak / octant.nbytes:.2f} octants"


@pytest.mark.parametrize("mode", ["midpoint", "optimal"])
@pytest.mark.parametrize("inner", [True, False])
def test_step_kernel_octant_equals_whole_octant_unique(mode, inner):
    # the block-wise radii and the sort-and-scatter give the bits of g on
    # np.unique of the whole octant's radii, scattered by its inverse
    k = Matern(0.3, 2.0)
    p = SchemeParams(n=20, gamma=0.3, kappa=2, policy=EvaluationPolicy(mode=mode))
    N, lo = p.n_trunc, p.kappa if inner else -1
    r = representative_radii(*octant_cells(N, lo)[:2], k.alpha,
                             p.policy if inner else EvaluationPolicy())
    r /= p.n
    x, cell = np.unique(r, return_inverse=True)
    ref = np.zeros((N + 1) * (N + 2) // 2)
    ref[ref.size - r.size:] = k.eval_g(x)[cell]
    got = fields_mod._step_kernel_octant(k, p, inner)
    assert got.tobytes() == ref.tobytes()


def test_on_distinct_calls_once_on_unique_values():
    # more values than one scatter block, most of them repeated
    rng = np.random.default_rng(4)
    r = rng.integers(0, 3000, size=3 * fields_mod._CELL_BLOCK + 5) / 7.0
    x, inverse = np.unique(r, return_inverse=True)
    calls = []

    def f(v):
        calls.append(v.copy())
        return np.sqrt(v) + 1.0

    fields_mod._on_distinct(f, r)
    assert len(calls) == 1 and np.array_equal(calls[0], x)
    assert r.tobytes() == (np.sqrt(x) + 1.0)[inverse].tobytes()


@pytest.mark.parametrize("N", [0, 1, 2, 9])
def test_octant_sq_sum_equals_multiplicity_weighted_sum(N):
    # bit for bit the sum np.sum(mult * octant**2), whole arrays
    size = (N + 1) * (N + 2) // 2
    octant = np.random.default_rng(N).standard_normal(size) * 1e-3
    ref = float(np.sum(octant_cells(N)[2] * octant**2))
    assert fields_mod._octant_sq_sum(octant, N) == ref


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


@pytest.mark.parametrize("N, period", [(70, 150), (70, 147), (70, 140)],
                         ids=["even", "odd", "2N=period"])
def test_kernel_spectrum_yields_rfft2_and_fft2_column_blocks(N, period,
                                                            column_blocks):
    # the builder's column blocks are the real quarter of rfft2 and, with
    # fft2's fill for real input on the self-conjugate columns, the half of
    # fft2; a consumer that stops after block 0 costs one column transform
    octant = np.random.default_rng(N + period).standard_normal(
        (N + 1) * (N + 2) // 2)
    k = np.arange(-N, N + 1)
    c = _centred(fields_mod._octant_entries(octant, k[:, None], k[None, :]),
                 period)
    h = period // 2 + 1
    quarter, half = np.empty((h, h)), np.empty((period, h))
    for c0, col in _kernel_spectrum(octant, N, period, 1):
        quarter[:, c0:c0 + col.shape[1]] = col[:h].real
        half[:, c0:c0 + col.shape[1]] = col.real
    for j in (0, h - 1) if period % 2 == 0 else (0,):
        half[h:, j] = half[period - h:0:-1, j]
    assert np.array_equal(quarter, rfft2(c).real[:h])
    assert np.array_equal(half, fft2(c).real[:, :h])
    assert column_blocks == [period] * -(-h // fields_mod._COL_BLOCK)

    column_blocks.clear()
    c0, _ = next(_kernel_spectrum(octant, N, period, 1))
    assert (c0, column_blocks) == (0, [period])


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
                        lambda: rest + int(1.5 * spectrum) + _SLACK_BYTES)
    plan = prepare_hybrid(Matern(0.5, 1.0), p)
    assert plan.fshape == P


def _ledger_needs(monkeypatch) -> list:
    """The estimates memory_ledger passes to require_memory, in call order."""
    needs = []
    check = fields_mod.require_memory
    monkeypatch.setattr(fields_mod, "require_memory",
                        lambda need, what: (needs.append(need), check(need, what)))
    return needs


def _assert_estimate_fits(need, peak, margin):
    # The estimate covers the traced peak, and exceeds it by no more than
    # the ledger's slack (1/64 and _SLACK_BYTES) and a measured margin, so
    # that an over-count fails too.
    assert peak <= need <= (1 + 1 / 64 + margin) * peak + _SLACK_BYTES, (
        f"estimate {need / 2**20:.3f} MiB, peak {peak / 2**20:.3f} MiB")


@pytest.mark.parametrize("n", [16, 64, 128])
@pytest.mark.parametrize("simulate,kappa", [
    pytest.param(hybrid_simulate, 1, id="hybrid_simulate"),
    pytest.param(riemann_simulate, 1, id="riemann_simulate"),
    pytest.param(hybrid_simulate, 0, id="hybrid_simulate-kappa0"),
    pytest.param(hybrid_simulate, 2, id="hybrid_simulate-kappa2"),
    pytest.param(hybrid_simulate, 5, id="hybrid_simulate-kappa5"),
])
@pytest.mark.parametrize("lognormal", [False, True], ids=["constant", "expvmma"])
def test_memory_estimate_covers_cold_traced_peak(monkeypatch, n, simulate,
                                                 kappa, lognormal):
    # A cold call's estimates (the nested plan's first, for expvmma, then
    # the host plan's) count no sigma sheet; the largest stays above the
    # whole call's traced peak.  At n = 16 the block build is the peak
    # (0.5 MiB at kappa = 1 against 0.3 MiB of named buffers), which the
    # slack's 1/4 MiB covers.  Beyond the slack the estimate exceeds the
    # peak by at most 5.3 % of it (measured: n = 16 with expvmma, n = 64 at
    # kappa = 2), and by 0.1-0.2 % at kappa = 0 with constant sigma.
    needs = _ledger_needs(monkeypatch)
    k = Matern(0.5, 1.0)
    p = SchemeParams(n=n, gamma=0.3, kappa=kappa, seed=3)
    vol = ExpVmmaVolatility(ExpDecay(-0.2)) if lognormal else ConstantVol(1.0)
    peak = _replicate_peak(lambda: simulate(k, p, vol))
    assert len(needs) == (2 if lognormal else 1)
    _assert_estimate_fits(max(needs), peak, 0.08)


def test_cold_modulated_preflight_refuses_before_allocating():
    # n = 5000 with a lognormal volatility: the nested field's check
    # refuses before any nested or host spectrum exists
    p = SchemeParams(n=5000, gamma=0.3, kappa=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="MiB.*available"):
            hybrid_simulate(Matern(0.5, 1.0), p,
                            ExpVmmaVolatility(ExpDecay(-0.2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_available_memory_caps_by_cgroup_limit(tmp_path, monkeypatch):
    # MemAvailable, else os.sysconf's free pages when meminfo has no such
    # line or cannot be read, capped by the cgroup v2 headroom memory.max -
    # memory.current when a limit is set; "max" or no cgroup files leave it.
    sysconf = {"SC_AVPHYS_PAGES": 3000000, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", sysconf.__getitem__)
    free_pages = 3000000 * 4096
    cases = [
        ("MemTotal:  8000000 kB\nMemAvailable:  4000000 kB\n", 4000000 * 1024),
        ("MemTotal:  8000000 kB\nMemFree:  1000000 kB\n", free_pages),
        (None, free_pages),  # a directory: reading it raises OSError
    ]
    for i, (text, host) in enumerate(cases):
        meminfo = tmp_path / f"meminfo{i}"
        if text is None:
            meminfo.mkdir()
        else:
            meminfo.write_text(text)
        cgroup = tmp_path / f"cgroup{i}"
        cgroup.mkdir()

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


# Cells that share a radius, such as (5, 0) and (4, 3), take one evaluation
# between them in the octant; the dense reference evaluates every cell.  The
# PurePower cutoff at radius 0.9 crosses the cells 6.3 (n = 7) and 14.4
# (n = 16) steps out, so nearby radii fall on both sides of its kink.
_OCTANT_KERNELS = [Matern(0.4, 1.0), ExpDecay(-0.3), PurePower(-0.4, 0.9)]


@pytest.mark.parametrize("kappa", [0, 1, 2])
@pytest.mark.parametrize("kernel", _OCTANT_KERNELS)
def test_octant_hybrid_matrix_equals_dense_evaluation(kernel, kappa):
    for n in (7, 16):
        p = SchemeParams(n=n, gamma=0.5, kappa=kappa)
        k1, k2, r = _dense_radii(p.n_trunc)
        outside = np.maximum(np.abs(k1), np.abs(k2)) > kappa
        ref = np.zeros(r.shape)
        ref[outside] = kernel.eval_g(r[outside] / p.n)
        assert np.array_equal(prepare_hybrid(kernel, p).a_matrix, ref)


@pytest.mark.parametrize("kernel", _OCTANT_KERNELS)
def test_octant_riemann_matrix_equals_dense_evaluation(kernel):
    for n in (7, 16):
        p = SchemeParams(n=n, gamma=0.5)
        N = p.n_trunc
        _, _, r = _dense_radii(N)
        r[N, N] = float(box_power_integrals(0, 0, kernel.alpha)) ** (1.0 / kernel.alpha)
        assert np.array_equal(prepare_riemann(kernel, p).a_matrix,
                              kernel.eval_g(r / p.n))


def test_octant_optimal_policy_matches_scalar_radii():
    kernel = Matern(0.3, 1.0)
    p = SchemeParams(n=6, gamma=0.4, kappa=1,
                     policy=EvaluationPolicy(mode="optimal"))
    N = p.n_trunc
    ref = np.zeros((2 * N + 1, 2 * N + 1))
    for j2 in range(-N, N + 1):
        for j1 in range(-N, N + 1):
            if max(abs(j1), abs(j2)) > p.kappa:
                a, b = sorted((abs(j1), abs(j2)), reverse=True)
                box = float(box_power_integrals(a, b, kernel.alpha))
                r = box ** (1.0 / kernel.alpha)
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
    plan = prepare_circulant(corr, var, n)
    for r in range(reps):
        v = circulant_simulate(corr, var, n, seed=8, replicate=r, plan=plan).values
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
    plan = prepare_circulant(corr, 1.0, 30)
    vals = np.concatenate(
        [
            circulant_simulate(corr, 1.0, 30, seed=3, replicate=r,
                               plan=plan).values.ravel()
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
_SIGN_CHANGING = lambda r: j0(8.0 * np.asarray(r)) * np.exp(-0.5 * np.asarray(r))
_GAUSSIAN = lambda r: np.exp(-(np.asarray(r) / 0.3) ** 2)


@pytest.mark.parametrize(
    "corr, variance, n, max_doublings, doubles",
    [
        # test_05's long-range Matern: three doublings, M = 50 -> 400
        (lambda r: matern_correlation(0.4, 0.38, r), 1.7, 12, 3, True),
        (lambda r: matern_correlation(0.5, 1.0, r), 2.5, 10, 3, True),
        (lambda r: np.exp(-3.0 * np.asarray(r)), 0.8, 7, 3, False),
        (_TOP_HAT, 1.0, 16, 1, True),
        # odd tori: column h is not self-conjugate there, so the spectrum's
        # conjugate fill touches column 0 only
        pytest.param(lambda r: np.exp(-3.0 * np.asarray(r)), 0.8, 10, 3, False,
                     id="odd-M45"),
        pytest.param(lambda r: matern_correlation(0.4, 8.0, r), 1.0, 30, 3, False,
                     id="odd-M125"),
        # a correlation that changes sign, so the bound sum|octant| on the
        # eigenvalues is above the spectrum at 0: accepted after two
        # doublings, indefinite with one
        pytest.param(_SIGN_CHANGING, 1.0, 6, 3, True, id="sign-change"),
        pytest.param(_SIGN_CHANGING, 1.0, 6, 1, True, id="sign-change-indefinite"),
        # no doubling allowed: the first torus is also the last
        pytest.param(lambda r: np.exp(-3.0 * np.asarray(r)), 0.8, 7, 0, False,
                     id="no-doubling"),
        pytest.param(_TOP_HAT, 1.0, 16, 0, True, id="no-doubling-indefinite"),
        # roundoff negatives in the accepted spectrum, zeroed
        pytest.param(_GAUSSIAN, 1.0, 10, 3, False, id="zeroed"),
    ],
)
def test_circulant_lag_table_matches_dense_embedding(corr, variance, n,
                                                     max_doublings, doubles,
                                                     request):
    # every field, cold or drawn from a plan, and every EmbeddingError text
    # (from either call) is the dense reference's
    side = 2 * n + 1
    try:
        plan = prepare_circulant(corr, variance, n, max_doublings=max_doublings)
    except EmbeddingError as exc:
        plan = str(exc)
    for replicate in (0, 3):
        ref, M = _dense_circulant(corr, variance, n, 11, replicate, max_doublings)
        assert (M > next_fast_len(2 * side, real=True)) == doubles
        if request.node.callspec.id.startswith("odd-"):
            assert M % 2 == 1
        if isinstance(ref, str):
            with pytest.raises(EmbeddingError) as exc:
                circulant_simulate(corr, variance, n, seed=11, replicate=replicate,
                                   max_doublings=max_doublings)
            assert str(exc.value) == ref
            assert plan == ref
        else:
            assert plan.size == M
            for kwargs in ({}, {"plan": plan}):
                got = circulant_simulate(corr, variance, n, seed=11,
                                         replicate=replicate,
                                         max_doublings=max_doublings,
                                         **kwargs).values
                assert np.array_equal(got, ref)


def test_circulant_evaluates_each_lag_once():
    calls = []

    def counting(r):
        calls.append(np.array(r, copy=True))
        return matern_correlation(0.4, 0.38, r)

    n = 12
    circulant_simulate(counting, 1.0, n, seed=0)
    # M = 50 doubled three times: one call per torus size, each on the
    # sorted distinct distances of the canonical lags a >= b >= 0 that the
    # size adds (a beyond the previous M//2); lags such as (5, 0) and
    # (4, 3) share a distance and are evaluated once
    halves = [-1, 25, 50, 100, 200]
    assert len(calls) == 4
    for c, old, h in zip(calls, halves, halves[1:]):
        assert c.ndim == 1 and np.all(np.diff(c) > 0.0)
        a, b = np.tril_indices(h + 1)
        new = a > old
        assert np.array_equal(c, np.unique(np.hypot(b[new], a[new]) / n))
    a, b = np.tril_indices(halves[-1] + 1)
    assert np.array_equal(np.unique(np.concatenate(calls)),
                          np.unique(np.hypot(b, a) / n))


def test_circulant_validation():
    corr = lambda r: np.exp(-np.asarray(r))
    with pytest.raises(ValidationError):
        circulant_simulate(corr, 0.0, 10)
    with pytest.raises(ValidationError):
        circulant_simulate(corr, 1.0, 0)


@pytest.mark.parametrize("corr, match", [
    # a scalar would broadcast to every lag: a constant field
    (lambda r: 1.0, "shape"),
    # a NaN at r = 0 would run every doubling before failing
    (lambda r: np.where(np.asarray(r) == 0.0, np.nan, np.exp(-np.asarray(r))),
     "not finite at r = 0"),
    (lambda r: np.exp(-np.asarray(r))[:-1], "shape"),
    (lambda r: np.exp(-np.asarray(r)) + 0j, "complex128 values"),
], ids=["scalar", "nan-at-0", "one-short", "complex"])
def test_circulant_rejects_bad_correlation_output(corr, match):
    with pytest.raises(ValidationError, match=match):
        circulant_simulate(corr, 1.0, 5)


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
    # n = 100000: torus side about 4e5, about 2.6 TB at 16 bytes per point
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="M=.*doubling 0.*MiB.*available"):
            circulant_simulate(lambda r: np.exp(-np.asarray(r)), 1.0, 100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_circulant_small_torus_working_set_is_one_complex_array():
    # n = 12, Matern(0.4, 0.38): M = 400 after three doublings (as in
    # test_circulant_evaluates_each_lag_once).  The body holds the complex
    # draw buffer, 16 bytes per torus point; at this small M the lag octant
    # and the spectrum builder's row and column blocks add about 3.6 more
    # (19.6 traced).  A separate real spectrum would add 8, the old body
    # held 82.
    corr = lambda r: matern_correlation(0.4, 0.38, r)
    M = 400
    peak = _replicate_peak(lambda: circulant_simulate(corr, 1.0, 12, seed=0))
    assert peak <= 24 * M * M, f"{peak / M**2:.1f} bytes per torus point"


def test_circulant_working_set_is_one_complex_array():
    # test_05's field: n = 50, M = 1728 after three doublings.  The half
    # spectrum is formed in the complex draw buffer (16 bytes per torus
    # point), the packed lag octant adds 1.0 and the builder's row block
    # about 1.0; a separate real spectrum would add 8.
    corr = lambda r: matern_correlation(0.4, 0.38, r)
    M = 1728
    peak = _replicate_peak(lambda: circulant_simulate(corr, 1.0, 50, seed=0))
    assert peak <= 20 * M * M, f"{peak / M**2:.1f} bytes per torus point"


def test_lag_octant_transient_per_new_lag():
    # The doubling from h = 216 to 432 (test_05's third torus): the new
    # lags' distances are formed and sorted in the grown octant's tail, so
    # the call peaks at 36.2 bytes per new lag (the grown octant 10.7, the
    # sort's permutation 8, the distinct distances and their values), not
    # 70.3 with whole index, multiplicity and inverse arrays, a values
    # temporary and a concatenation.
    corr = lambda r: np.exp(-np.asarray(r))
    octant = fields_mod._lag_octant(corr, 1.0, 50, np.empty(0), -1, 216)
    peak = _replicate_peak(
        lambda: fields_mod._lag_octant(corr, 1.0, 50, octant, 216, 432))
    new = 433 * 434 // 2 - octant.size
    assert peak < 60 * new, f"{peak / new:.1f} bytes per new lag"


def test_circulant_memory_estimate_covers_traced_peak(monkeypatch):
    # test_05's field again: the preflight's estimate for the accepted torus
    # (M = 1728) counts the draw buffer, the packed lag octant, the
    # spectrum builder's row and column blocks and the draw's ring, and
    # stays above the peak; beyond the slack, by 2.1 % of it.
    needs = _ledger_needs(monkeypatch)
    corr = lambda r: matern_correlation(0.4, 0.38, r)
    peak = _replicate_peak(lambda: circulant_simulate(corr, 1.0, 50, seed=0))
    M = 1728
    assert len(needs) == 4
    assert peak <= needs[-1] <= 19 * M * M, (
        f"peak {peak / M**2:.2f}, estimate {needs[-1] / M**2:.2f} bytes per point")
    _assert_estimate_fits(needs[-1], peak, 0.03)


@pytest.mark.parametrize("corr, n", [
    (lambda r: matern_correlation(0.4, 0.38, r), 12),  # three doublings
    (lambda r: np.exp(-3.0 * np.asarray(r)), 7),  # none
])
def test_circulant_worker_count_does_not_change_bytes(corr, n):
    g1 = circulant_simulate(corr, 1.3, n, seed=19, replicate=2, workers=1)
    g2 = circulant_simulate(corr, 1.3, n, seed=19, replicate=2, workers=2)
    assert g1.values.tobytes() == g2.values.tobytes()
    plan = prepare_circulant(corr, 1.3, n, workers=2)
    g3 = circulant_simulate(corr, 1.3, n, seed=19, replicate=2, workers=2,
                            plan=plan)
    assert g3.values.tobytes() == g1.values.tobytes()


def test_circulant_search_drops_a_rejected_torus_at_its_first_column_block(
        column_blocks):
    # n = 12, Matern(0.4, 0.38): the tori M = 50, 100 and 200 are rejected
    # with a negative eigenvalue in column block 0, so each transforms that
    # block only; the accepted M = 400 transforms all 13 blocks of its
    # 201-column half.  The last torus allowed is never dropped early, so
    # that its EmbeddingError reports the full minimum: with two doublings,
    # M = 200 transforms all 7 blocks.
    corr = lambda r: matern_correlation(0.4, 0.38, r)
    circulant_simulate(corr, 1.0, 12, seed=0)
    assert Counter(column_blocks) == {50: 1, 100: 1, 200: 1, 400: 13}
    column_blocks.clear()
    with pytest.raises(EmbeddingError):
        circulant_simulate(corr, 1.0, 12, seed=0, max_doublings=2)
    assert Counter(column_blocks) == {50: 1, 100: 1, 200: 7}


def test_circulant_plan_reports_its_safeguards():
    # test_05's embedding: the three rejected tori stop at their first
    # column block, so their lambda_min is an upper bound only; M = 1728 is
    # accepted with no eigenvalue zeroed.  Each bound 8 * sum|octant| is
    # 1.0-3 % above lambda_max (the correlation is positive, so lambda_max
    # is the spectrum at 0, sum|base| <= 8 * sum|octant|).
    corr = lambda r: matern_correlation(0.4, 0.38, r)
    plan = prepare_circulant(corr, Matern(0.4, 0.38).g_squared_integral(), 50)
    d = plan.diagnostics
    tori = d["tori"]
    assert [t["size"] for t in tori] == [216, 432, 864, 1728]
    assert [t["partial"] for t in tori] == [True, True, True, False]
    assert [t["lambda_min"] / t["lambda_max"] for t in tori] == pytest.approx(
        [-1.56e-3, -2.87e-4, -2.99e-6, 1.18e-7], rel=0.01)
    assert [t["bound"] / t["lambda_max"] for t in tori] == pytest.approx(
        [1.029, 1.016, 1.010, 1.009], abs=0.001)
    assert (d["size"], d["doublings"], d["zeroed"], d["most_negative"]) == (
        1728, 3, 0, 0.0)
    assert plan.size == 1728 and plan.sqrt_half.shape == (1728, 865)
    assert plan.sqrt_half.flags.c_contiguous
    assert not plan.sqrt_half.flags.writeable
    with pytest.raises(TypeError):
        d["zeroed"] = 1
    with pytest.raises(TypeError):
        tori[0]["partial"] = False


def test_circulant_plan_reports_zeroed_eigenvalues():
    # A Gaussian correlation's spectrum falls to roundoff: its first torus
    # (M = 45) is accepted with a few eigenvalues at -1e-17 of lambda_max.
    # They are counted in the half and zeroed, and the plan's square roots
    # are those of the dense spectrum clipped at 0.
    plan = prepare_circulant(_GAUSSIAN, 1.0, 10)
    d = plan.diagnostics
    M, h = plan.size, plan.size // 2
    idx = np.arange(M)
    lag = np.minimum(idx, M - idx).astype(float)
    spec = fft2(_GAUSSIAN(np.hypot(lag[None, :], lag[:, None]) / 10)).real
    half = spec[:, :h + 1]
    assert (M, d["doublings"]) == (45, 0)
    assert d["zeroed"] == np.count_nonzero(half < 0.0) > 0
    assert d["most_negative"] == half.min() == d["tori"][-1]["lambda_min"]
    assert d["most_negative"] >= -1e-10 * d["tori"][-1]["lambda_max"]
    assert np.array_equal(plan.sqrt_half, np.sqrt(np.maximum(half, 0.0)))


@pytest.mark.parametrize("change", [
    {"variance": 1.1},
    {"n": 11},
    {"max_doublings": 2},
    # the same values from another callable: the plan records the callable
    {"correlation": lambda r: matern_correlation(0.5, 1.0, r)},
], ids=["variance", "n", "max_doublings", "correlation"])
def test_circulant_plan_for_other_settings_is_refused(change):
    args = {"correlation": lambda r: matern_correlation(0.5, 1.0, r),
            "variance": 1.0, "n": 10, "max_doublings": 3}
    plan = prepare_circulant(**args)
    circulant_simulate(**args, plan=plan)
    with pytest.raises(ValidationError, match="different settings"):
        circulant_simulate(**{**args, **change}, plan=plan)


def test_prepare_circulant_memory_estimate_covers_traced_warm_peak(monkeypatch):
    # test_05's embedding: prepare_circulant checks, before each torus, the
    # plan's real half (about 4 bytes per torus point) beside the cold
    # call's buffers, so its last estimate covers a plan and a draw from it;
    # beyond the slack, by 8.4 % of the peak: the octant and the builder's
    # blocks are gone before the plan's draw.
    needs = _ledger_needs(monkeypatch)
    corr = lambda r: matern_correlation(0.4, 0.38, r)
    peak = _replicate_peak(lambda: circulant_simulate(
        corr, 1.0, 50, seed=0, plan=prepare_circulant(corr, 1.0, 50)))
    M = 1728
    assert len(needs) == 4
    assert peak <= needs[-1] <= 23 * M * M, (
        f"peak {peak / M**2:.2f}, estimate {needs[-1] / M**2:.2f} bytes per point")
    _assert_estimate_fits(needs[-1], peak, 0.10)


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
