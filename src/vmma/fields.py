"""Simulation engines for volatility-modulated moving-average fields.

Three engines produce (2n+1) x (2n+1) grids over [-1, 1]^2 with spacing 1/n:

* hybrid_simulate   — the two-part scheme: on the (2*kappa+1)^2 cells nearest
  each output point the power part of the kernel is integrated exactly
  against the noise (correlated Gaussian family, Cholesky per cell), and the
  remaining cells up to the truncation window use a step-function kernel via
  one FFT convolution.
* riemann_simulate  — the pure step-function discretization over the whole
  truncation window (one FFT convolution; known to underestimate roughness).
* circulant_simulate — exact stationary Gaussian baseline via circulant
  embedding, used as the ground-truth oracle in tests and studies; the
  embedding is built from a table of covariances on integer lags.

The two step-kernel engines share one plan type and one body: a Riemann plan
is a HybridPlan with no inner block (block and weights None), whose step
kernel covers the whole window with the central cell at its optimal radius.
Without a block no correlated family is drawn and no near sum is formed.

Index conventions: an integer grid index pair (i1, i2) denotes the physical
point (i1/n, i2/n); arrays are laid out [row, col] with the ROW tracking the
SECOND coordinate i2 and the column tracking i1.  All index windows below are
centred: an array of side 2m+1 covers indices -m..m with index 0 at the
middle.

Far field: the step-kernel matrix (side 2*N+1, N = n_trunc) is evaluated
on its octant, one kernel evaluation per distinct radius of the canonical
cells a >= b >= 0, and is convolved with the (S, S) noise sheet as a
CIRCULAR convolution of period P = next_fast_len(S).  The plan centres the
kernel on index 0 of the period (offsets 0..N in the first rows and
columns, -N..-1 in the last N).  It is even in both axes, so its spectrum
is real and even, and the plan keeps only the real quarter rfft2(centred,
s=(P, P))[:P//2+1].real.  The one builder of even spectra
(_kernel_spectrum) transforms only the N+1 distinct rows along the rows,
then yields the column transforms a block at a time, of which the plan
keeps rows 0..P//2's real part; neither the centred nor the dense matrix
nor a complex spectrum is ever held whole.
The sheet reaches one complex (P, P//2+1) spectrum a row block at a time:
each block is zero-padded to width P and transformed along its rows, then
the columns are transformed in place, which is bit-identical to rfft2(x,
s=(P, P)).  Spectrum row m is multiplied
in place by quarter row min(m, P-m) (a reversed view for the upper rows)
and inverted along the columns in place.  Only the 2*half+1 kept rows, from
row N, are inverted along the rows, _ROW_BLOCK at a time, and only their
kept columns (also from N) are stored: into one contiguous output, or added
straight into the hybrid near sum, so no full-width real array is formed.
Output i reads sheet cells i-N..i+N only, all inside the sheet, so P >= S
already rules out wrap-around and no padding to the linear size S + 2N is
needed.  The inverse split differs from irfft2 in the last bits only; the
row blocks give the one-shot row inverse's bits.  A constant volatility
scales the output in place, and a lognormal one maps its nested field to
exp(x/2) in place.

Lag table: the circulant embedding's base matrix on an M x M torus depends
only on the integer lag pair (min(i, M-i), min(j, M-j)) and is symmetric in
the two lags, so it is held as a packed octant over the canonical lags
a >= b >= 0 in octant_cells order, lag (a, b) at index a(a+1)/2 + b.  A
doubling of M appends the new lags (a beyond the old M//2): their distances
are formed and sorted in the grown octant's own tail, the correlation is
called once per torus size, on the sorted distinct distances of that size's
new lags, and its values are scattered back there.  The base matrix
is the octant's kernel centred on index 0 with N = M//2, so its spectrum is
the real part of its rfft2.  The embedding search (_circulant_search,
which describes it) takes that half (columns 0..M//2, all M rows) from the
same builder's column blocks and keeps each block zeroed below 0 and
square-rooted: in a cold call straight into the imaginary part of the
complex (M, M) draw buffer, whose first rows also hold the distinct rows'
spectra until their columns are transformed, and in prepare_circulant into
the plan's own real half, which each draw from the plan copies into its
buffer.  Neither the base matrix nor a full spectrum is ever held, and the
columns after a block that rules a torus out are never transformed.

Noise layout (fixed, part of the determinism contract): for one replicate,
the correlated family is drawn first as z ~ N(0,1) of shape (s1, s1, d) with
s1 = 2*(half+kappa)+1 and d = (2*kappa+1)^2 + 1, mapped through the block's
Cholesky factor; then the plain cell masses are drawn as an (S, S) standard
normal sheet scaled by 1/n with S = 2*(N+half)+1, whose central s1 x s1 block
is REPLACED by the plain components of the correlated family (the overdraw
keeps the layout independent of kappa).  Every engine draws through
_drawn: one thread per call owns the stream and draws the layout's normals
in its order, _FAMILY_UNIT family rows or _SHEET_UNIT sheet rows at a time,
into a ring of _RING slots, while the caller's thread maps, sums, modulates
and transforms the draws it has taken.  Unit-wise draws consume the stream
in the same order and give the same values bit for bit as single draws, so
neither the thread nor the units change an output bit or the stream's final
position.  The hybrid engine streams them: each block of _FAMILY_BLOCK
family rows is added into the near sum for the output rows it completes
(its last 2*kappa rows carry over to the next block), and each block of
_ROW_BLOCK sheet rows is modulated and transformed at once, so neither the
family nor the sheet is ever held whole.  The family's plain channel waits
for the sheet in the caller's array: the engine keeps it in the spectrum's
own rows and columns lo..lo+s1 (lo = N-kappa), each row read just before
its row block's rfft overwrites it.  The volatility, from
its own stream, is realised before the noise is drawn and, in a call that
builds its own plan, before the host plan, so a nested field
(ExpVmmaVolatility) never runs beside the host plan's quarter.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import sys
import threading
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
from scipy import fft as _fft

from .covariance import (
    DEFAULT_POLICY,
    CovarianceBlock,
    EvaluationPolicy,
    box_power_integrals,
    build_block,
    cell_weight,
    check_policy,
    octant_cells,
    representative_radii,
)
from .errors import (
    EmbeddingError,
    RateHypothesisWarning,
    ValidationError,
    check_int,
    check_real,
)
from .kernels import KernelSpec

__all__ = [
    "SchemeParams",
    "FieldGrid",
    "VolatilityModel",
    "ConstantVol",
    "ProvidedGridVol",
    "ExpVmmaVolatility",
    "volatility_from_log_field",
    "rng_stream",
    "sample_noise",
    "conv2_fft",
    "check_rate_hypothesis",
    "HybridPlan",
    "prepare_hybrid",
    "hybrid_simulate",
    "prepare_riemann",
    "riemann_simulate",
    "CirculantPlan",
    "prepare_circulant",
    "circulant_simulate",
    "scheme_variance",
    "fft_workers",
]


# ---------------------------------------------------------------------------
# Parameters and grids


@dataclass(frozen=True)
class SchemeParams:
    """Resolution and discretization controls shared by hybrid and Riemann.

    n sets the grid spacing 1/n; the kernel is truncated after n_trunc =
    floor(n**(1+gamma)) cells (physical radius c_n = (n_trunc + 1/2)/n);
    kappa is the half-width of the exactly-integrated block around each
    output point.
    """

    n: int
    gamma: float = 0.3
    kappa: int = 1
    seed: int = 0
    policy: EvaluationPolicy = field(default_factory=lambda: DEFAULT_POLICY)

    def __post_init__(self):
        check_int(self.n, "n", lo=1)
        check_real(self.gamma, "gamma", lo=0.0)
        check_int(self.kappa, "kappa", 0, 5)
        check_int(self.seed, "seed", 0, 2**64 - 1)
        check_policy(self.policy)
        if self.n_trunc < self.kappa:
            raise ValidationError(
                f"truncation window n_trunc={self.n_trunc} smaller than "
                f"kappa={self.kappa}; increase n or gamma"
            )

    @property
    def n_trunc(self) -> int:
        """Truncation half-width in cells: floor(n**(1+gamma))."""
        try:
            return int(math.floor(float(self.n) ** (1.0 + self.gamma)))
        except OverflowError:
            raise ValidationError(
                f"truncation window n**(1+gamma) out of range at n={self.n}, "
                f"gamma={self.gamma}") from None

    @property
    def c_n(self) -> float:
        """Physical truncation radius (n_trunc + 1/2)/n."""
        return (self.n_trunc + 0.5) / self.n


@dataclass(frozen=True)
class FieldGrid:
    """Square grid of field values.

    values[r, c] is the field at (origin[0] + c*spacing, origin[1] +
    r*spacing): the row index moves along the SECOND coordinate.  Sides are
    odd (2n+1 for the simulation engines).
    """

    values: np.ndarray
    spacing: float
    origin: tuple = (-1.0, -1.0)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValidationError(f"values must be a square 2D array, got {v.shape}")
        if v.shape[0] % 2 != 1:
            raise ValidationError(f"grid side must be odd, got {v.shape[0]}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("grid values must all be finite")
        check_real(self.spacing, "spacing", lo=0.0)
        object.__setattr__(self, "values", np.ascontiguousarray(v))
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))

    @property
    def side(self) -> int:
        return self.values.shape[0]

    def coords(self):
        """(x, y) 1D coordinate arrays along columns and rows."""
        k = np.arange(self.side)
        return (self.origin[0] + k * self.spacing,
                self.origin[1] + k * self.spacing)


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic named substream: Philox keyed by (seed, *path).

    Stream names used by the engines: (seed, 0, replicate) for field noise
    and (seed, 1, replicate) for volatility noise, so the same field noise is
    paired with every volatility model.  Studies extend the path with their
    own task indices.  The seed and every index must be integers >= 0.
    """
    ss = np.random.SeedSequence(
        tuple(check_int(k, "rng_stream key", lo=0) for k in (seed, *path)))
    return np.random.Generator(np.random.Philox(ss))


def fft_workers(workers: int | None = None) -> int:
    """Worker count for FFT calls: the explicit argument, else 1."""
    return 1 if workers is None else check_int(workers, "workers", lo=1)


# ---------------------------------------------------------------------------
# Volatility models


class VolatilityModel:
    """Positive volatility field sigma on the extended cell-index window.

    realize(n, half, rng, workers) returns sigma as an (S, S) array,
    S = 2*half+1, covering cell indices -half..half at spacing 1/n; workers
    caps the FFT worker count of a simulated volatility.  constant_value is
    the scalar c when sigma is deterministic-constant, else None (engines
    exploit constants by simulating at sigma=1 and scaling once at the end,
    which makes the linearity in sigma exact to the last bit).
    """

    constant_value: float | None = None

    def realize(self, n: int, half: int, rng: np.random.Generator,
                workers: int | None = None) -> np.ndarray:
        raise NotImplementedError

    def validate_against(self, kernel: KernelSpec):
        """Hook for model-vs-kernel compatibility checks (default: none)."""


@dataclass(frozen=True)
class ConstantVol(VolatilityModel):
    """sigma identically equal to a positive constant."""

    c: float = 1.0

    def __post_init__(self):
        check_real(self.c, "constant volatility", lo=0.0)

    @property
    def constant_value(self) -> float:
        return self.c

    def realize(self, n, half, rng, workers=None):
        return np.full((2 * half + 1, 2 * half + 1), self.c)


@dataclass(frozen=True)
class ProvidedGridVol(VolatilityModel):
    """User-supplied sigma values on the full extended index window."""

    sigma: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValidationError("provided sigma grid must be square")
        if not np.all(np.isfinite(s)) or np.any(s <= 0.0):
            raise ValidationError("provided sigma values must be finite and > 0")
        object.__setattr__(self, "sigma", s)

    def realize(self, n, half, rng, workers=None):
        S = 2 * half + 1
        if self.sigma.shape != (S, S):
            raise ValidationError(
                f"provided sigma grid has side {self.sigma.shape[0]}, "
                f"need {S} to cover the extended index window"
            )
        return self.sigma


def _exp_half(x: np.ndarray) -> np.ndarray:
    """exp(x/2) formed in the float array x itself; returns x."""
    x *= 0.5
    return np.exp(x, out=x)


def volatility_from_log_field(log_field: np.ndarray) -> np.ndarray:
    """Map a log-variance field x to sigma = exp(x/2), so sigma^2 = exp(x).
    The input is copied, never modified."""
    return _exp_half(np.array(log_field, dtype=float))


@dataclass(frozen=True)
class ExpVmmaVolatility(VolatilityModel):
    """Lognormal volatility: sigma^2 = exp(X') with X' itself a simulated
    rough field (hybrid scheme, unit volatility) on the extended window.

    The inner field takes the default SchemeParams truncation and block
    (gamma 0.3, kappa 1), as the grammar expvmma:<kernel> writes it.  Its
    roughness exponent must be strictly larger than the host kernel's
    (smoother volatility than field), which engines check at simulation
    time via validate_against.
    """

    inner_kernel: KernelSpec

    def __post_init__(self):
        if not isinstance(self.inner_kernel, KernelSpec):
            raise ValidationError("inner_kernel must be a KernelSpec")

    def validate_against(self, kernel: KernelSpec):
        if not self.inner_kernel.alpha > kernel.alpha:
            raise ValidationError(
                f"volatility roughness alpha'={self.inner_kernel.alpha} must "
                f"exceed the host kernel's alpha={kernel.alpha}"
            )

    def realize(self, n, half, rng, workers=None):
        params = SchemeParams(n=n)
        plan = prepare_hybrid(self.inner_kernel, params, half=half,
                              workers=workers)
        grid = hybrid_simulate(self.inner_kernel, params, ConstantVol(1.0),
                               plan=plan, rng_noise=rng, workers=workers)
        # the nested grid is this call's own, so it is mapped in place
        return _exp_half(grid.values)


# ---------------------------------------------------------------------------
# Row blocks: noise draw and FFT convolution


# Rows per block of the streamed sheet and of the row-wise FFTs.
_ROW_BLOCK = 64
# Rows per block of the correlated family's near sum; above 2*kappa (at most
# 10), so that every block completes some near-sum output rows.
_FAMILY_BLOCK = 16
# Slots in the ring of drawn normals (_drawn), and the rows of the family
# and of a plain sheet that one slot holds: the ring stays small beside one
# row block, and the units divide _FAMILY_BLOCK and _ROW_BLOCK.
_RING = 3
_FAMILY_UNIT = 4
_SHEET_UNIT = 16
# Columns per block of an even kernel's column transforms (_kernel_spectrum):
# its (period, _COL_BLOCK) complex buffer is small beside any spectrum.
_COL_BLOCK = 16
# Cells per block of an octant's radii and of their scatter (_octant_radii,
# _on_distinct): the blocks' index arrays are small beside the octant.
_CELL_BLOCK = 8192


def _padded_rows(get_rows, nrows: int, width: int):
    """Yield (r0, rows) over rows 0..nrows-1, _ROW_BLOCK at a time, where
    get_rows(r0, k) returns rows r0..r0+k-1 and they are zero-padded to
    `width` columns in one reused buffer (valid until the next block)."""
    buf = np.zeros((_ROW_BLOCK, width))
    for r0 in range(0, nrows, _ROW_BLOCK):
        k = min(_ROW_BLOCK, nrows - r0)
        rows = get_rows(r0, k)
        buf[:k, :rows.shape[1]] = rows
        yield r0, buf[:k]


@contextlib.contextmanager
def _drawn(rng: np.random.Generator, shapes: list):
    """Draw rng.standard_normal(shape) for each shape in `shapes`, in order,
    on one producer thread; the one draw routine of the three engines.

    Yields an iterator over the draws, the stream's values bit for bit.  The
    thread owns rng from the first draw to the last and fills a ring of
    _RING preallocated slots, at most _RING draws ahead of the caller, who
    meanwhile transforms the draws already taken.  Each draw is a view of
    its slot that stays valid until the next one is asked for.  The thread
    runs in a copy of the caller's context (contextvars), starts on entry
    and is stopped and joined on exit, however the block ends; an exception
    raised in it is raised in the caller's thread, the same object, when
    the caller next asks for a draw.
    """
    ring = np.empty((_RING, max(math.prod(s) for s in shapes)))
    slots = [ring[i % _RING, :math.prod(s)].reshape(s)
             for i, s in enumerate(shapes)]
    free, full = threading.Semaphore(_RING), threading.Semaphore(0)
    stop, failed = threading.Event(), []

    def produce():
        try:
            for slot in slots:
                free.acquire()
                if stop.is_set():
                    return
                rng.standard_normal(out=slot)
                full.release()
        except BaseException as exc:   # raised again in the caller's thread
            failed.append(exc)
            full.release()

    def taken():
        for slot in slots:
            full.acquire()
            if failed:
                raise failed[0]
            yield slot
            free.release()

    thread = threading.Thread(target=contextvars.copy_context().run,
                              args=(produce,), name="vmma-draw", daemon=True)
    thread.start()
    try:
        yield taken()
    finally:
        stop.set()
        free.release()
        thread.join()


def _noise_rows(rng: np.random.Generator, n: int, S: int, width: int,
                chol: np.ndarray | None = None, family: np.ndarray | None = None,
                take_family=None, central: np.ndarray | None = None):
    """Draw one replicate's noise in the fixed layout, a block of rows at a
    time, through _drawn; the draw of the step-kernel engines.

    With a Cholesky factor, first the correlated family: for each block of
    _FAMILY_BLOCK rows r0..r0+k-1, z ~ N(0,1) of shape (k, s1, d) is mapped
    to z @ chol.T in family[:k] (s1 = family.shape[1]), _FAMILY_UNIT rows
    per draw, its plain channel is stored in central[r0:r0+k] (an (s1, s1)
    float array of the caller's), then take_family(r0, k) is called, and the
    next block overwrites family[:k].  Then the plain sheet, N(0,1)/n of
    shape (S, S) with its central s1 x s1 block (from row and column
    (S-s1)//2) replaced by `central`, is yielded as (r0, rows) blocks of
    _ROW_BLOCK rows, zero-padded to `width` in one reused buffer (valid
    until the next block), into which each draw of _SHEET_UNIT rows is
    divided by n; a block's rows of `central` are read before it is
    yielded, so the caller may overwrite them from then on.  The family is
    drawn when the first sheet block is asked for.  The draws' shapes are
    the layout's rows in order, so they and the unit-wise matmuls give the
    single draw's values bit for bit.  A caller that stops before the last
    block closes the generator, which joins the draw's thread.
    """
    s1 = d = 0
    if chol is not None:
        s1, d = family.shape[1], chol.shape[0]
    lo = (S - s1) // 2
    shapes = [(min(_FAMILY_UNIT, s1 - u), s1, d)
              for u in range(0, s1, _FAMILY_UNIT)]
    shapes += [(min(_SHEET_UNIT, S - u), S) for u in range(0, S, _SHEET_UNIT)]
    buf = np.zeros((_ROW_BLOCK, width))
    with _drawn(rng, shapes) as draws:
        for r0 in range(0, s1, _FAMILY_BLOCK):
            k = min(_FAMILY_BLOCK, s1 - r0)
            for u in range(0, k, _FAMILY_UNIT):
                z = next(draws)
                np.matmul(z, chol.T, out=family[u:u + z.shape[0]])
            central[r0:r0 + k] = family[:k, :, -1]
            take_family(r0, k)
        family = None   # so that the caller can free it before the sheet
        for r0 in range(0, S, _ROW_BLOCK):
            rows = buf[:min(_ROW_BLOCK, S - r0)]
            for u in range(0, rows.shape[0], _SHEET_UNIT):
                z = next(draws)
                np.divide(z, n, out=rows[u:u + z.shape[0], :S])
            a, b = max(r0, lo), min(r0 + rows.shape[0], lo + s1)
            if a < b:
                rows[a - r0:b - r0, lo:lo + s1] = central[a - lo:b - lo]
            yield r0, rows


def sample_noise(
    params: SchemeParams,
    block: CovarianceBlock,
    rng: np.random.Generator,
    half: int | None = None,
):
    """Draw one replicate of the two Gaussian noise families.

    Returns (w1, plain):
      w1    (s1, s1, (2k+1)^2) — the power-kernel cell integrals; component
            order follows block.offsets.  s1 = 2*(half+kappa)+1.
      plain (S, S) — plain cell masses on the extended window, S =
            2*(n_trunc+half)+1.  The central s1 x s1 block holds the plain
            member of the correlated family (same cells, jointly drawn); the
            annulus outside is the independent N(0, 1/n^2) family.

    The draw order is fixed and documented in the module docstring; with a
    fixed rng state the output is bit-identical, which the determinism
    contract of the engines relies on.  The engines stream the same draw
    (_noise_rows) without holding these arrays whole.
    """
    n, kappa = params.n, params.kappa
    m0 = params.n if half is None else check_int(half, "half", lo=1)
    s1 = 2 * (m0 + kappa) + 1
    S = 2 * (params.n_trunc + m0) + 1
    d = (2 * kappa + 1) ** 2 + 1
    if block.dim != d or block.n != n:
        raise ValidationError(
            f"covariance block (dim {block.dim}, n {block.n}) does not match "
            f"params (kappa {kappa} -> dim {d}, n {n})"
        )

    w1 = np.empty((s1, s1, d))
    plain = np.empty((S, S))
    family = np.empty((_FAMILY_BLOCK, s1, d))
    lo = (S - s1) // 2

    def keep(r0, k):
        w1[r0:r0 + k] = family[:k]

    for r0, rows in _noise_rows(rng, n, S, S, block.chol, family, keep,
                                plain[lo:lo + s1, lo:lo + s1]):
        plain[r0:r0 + rows.shape[0]] = rows
    return w1[:, :, :-1], plain


def _modulated(rows, sigma: np.ndarray):
    """Multiply each (r0, rows) block of a sheet by sigma in place."""
    S = sigma.shape[1]
    for r0, block in rows:
        block[:, :S] *= sigma[r0:r0 + block.shape[0]]
        yield r0, block


def _row_spectrum(rows, period: int, workers: int | None,
                  out: np.ndarray | None = None,
                  columns: bool = True) -> np.ndarray:
    """rfft2 at (period, period) of a real array given as row blocks.

    `rows` yields (r0, block) with r0 increasing, each block zero-padded to
    width `period`; rows no block covers are zero.  Each block is
    transformed along its rows as it arrives, then the columns of the one
    complex (period, period//2+1) array, `out` when given, are transformed
    in place: the result equals rfft2(x, s=(period, period)) bit for bit.
    Rows r0.. of `out` are written only once block r0 has been yielded, so
    the producer of `rows` may keep data there until then.  With `columns`
    False the column pass is left to the caller, and `out` need only hold
    the rows the blocks cover.
    """
    w = fft_workers(workers)
    spec = (np.empty((period, period // 2 + 1), dtype=complex) if out is None
            else out)
    end = 0
    for r0, block in rows:
        spec[end:r0] = 0.0
        end = r0 + block.shape[0]
        spec[r0:end] = _fft.rfft(block, axis=1, workers=w)
    spec[end:] = 0.0
    if not columns:
        return spec
    return _fft.fft(spec, axis=0, overwrite_x=True, workers=w)


def _convolved_block(spec: np.ndarray, fft_a: np.ndarray, start: int,
                     side: int, workers: int | None,
                     into: np.ndarray | None = None) -> np.ndarray:
    """The side x side block from (start, start) of the circular convolution
    whose operands have spectra fft_a and spec (period = spec.shape[0]).

    fft_a is a kernel's complex rfft2 at the period or, for a kernel even in
    both axes and centred on index 0, its real quarter (period//2+1 rows),
    whose row min(m, period-m) is spectrum row m.  Consumes spec: the
    product and the column inverse are formed in it in place.  The kept
    rows are then inverted along the rows _ROW_BLOCK at a time, straight
    into one contiguous (side, side) array, or added into `into` (a float
    (side, side) array, returned) when it is given; no full-width real array
    is formed.  Each row's transform is the one-shot irfft's bit for bit.
    """
    w = fft_workers(workers)
    period = spec.shape[0]
    h = period // 2 + 1
    upper = fft_a[h:] if fft_a.shape[0] == period else fft_a[period - h:0:-1]
    np.multiply(fft_a[:h], spec[:h], out=spec[:h])
    np.multiply(upper, spec[h:], out=spec[h:])
    spec = _fft.ifft(spec, axis=0, overwrite_x=True, workers=w)
    out = np.empty((side, side)) if into is None else into
    for r0 in range(0, side, _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, side)
        rows = _fft.irfft(spec[start + r0:start + r1], n=period, axis=1,
                          workers=w)[:, start:start + side]
        if into is None:
            out[r0:r1] = rows
        else:
            out[r0:r1] += rows
        del rows   # before the next block is inverted
    return out


def conv2_fft(a: np.ndarray, b: np.ndarray, workers: int | None = None) -> np.ndarray:
    """Full 2D linear convolution of two real square matrices via FFT.

    Output side = side(a) + side(b) - 1.  Zero-pads to the next fast FFT
    length; equals direct summation to ~1e-12 relative.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"conv2_fft: first matrix not square 2D, got {a.shape}")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValidationError(f"conv2_fft: second matrix not square 2D, got {b.shape}")
    out = a.shape[0] + b.shape[0] - 1
    fsh = _fft.next_fast_len(out, real=True)
    fa, fb = (_row_spectrum(_padded_rows(lambda r0, k: x[r0:r0 + k],
                                         x.shape[0], fsh), fsh, workers)
              for x in (a, b))
    return _convolved_block(fb, fa, 0, out, workers)


def _available_memory(meminfo: str = "/proc/meminfo",
                      cgroup: str = "/sys/fs/cgroup") -> int:
    """Bytes a new allocation can get without swapping or hitting a memory
    limit: MemAvailable (free plus reclaimable page cache) from meminfo, else
    the free pages from os.sysconf, capped by the cgroup v2 headroom
    memory.max - memory.current when that limit is set ("max" means none)."""
    avail = None
    try:
        with open(meminfo) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    avail = int(line.split()[1]) * 1024
                    break
    except OSError:
        pass
    if avail is None:
        avail = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    try:
        with open(os.path.join(cgroup, "memory.max")) as fh:
            limit = fh.read().strip()
        with open(os.path.join(cgroup, "memory.current")) as fh:
            current = int(fh.read())
        if limit != "max":
            avail = min(avail, max(int(limit) - current, 0))
    except (OSError, ValueError):
        pass
    return avail


def _fast_len(target: int) -> int:
    """next_fast_len(target, real=True), or `target` itself beyond the
    lengths scipy's FFT takes (about 2**64 / 11): the memory check that
    follows refuses any such length."""
    try:
        return _fft.next_fast_len(target, real=True)
    except (ValueError, OverflowError):
        return target


def _require_memory(need: int, what: str):
    """Raise ValidationError, before anything is allocated, when `need` bytes
    for `what` exceed the available memory."""
    avail = _available_memory()
    if need > avail:
        # in integers: a window beyond every FFT length can need more bytes
        # than a float holds
        raise ValidationError(
            f"{what} needs about {(need + 2**19) >> 20} MiB, but only "
            f"{avail / 2**20:.0f} MiB is available"
        )


# ---------------------------------------------------------------------------
# Step-kernel schemes: hybrid and Riemann


def check_rate_hypothesis(kernel: KernelSpec, params: SchemeParams):
    """Warn (RateHypothesisWarning) when gamma is not above the threshold
    -(1+alpha)/(1+beta) of a kernel with polynomial decay x**beta, below
    which the truncation error is not guaranteed to vanish at the scheme's
    rate.  Shared by the engines and the MSE analysis.  The warning names
    the first caller outside the package, however deep inside it the check
    runs, so each user call site gets its own once-per-location warning."""
    beta = kernel.beta_decay
    if not math.isfinite(beta):
        return
    threshold = -(1.0 + kernel.alpha) / (1.0 + beta)
    if params.gamma > threshold:
        return
    frame, level = sys._getframe(1), 2
    while (frame is not None
           and frame.f_globals.get("__name__", "").startswith("vmma.")):
        frame, level = frame.f_back, level + 1
    warnings.warn(
        f"gamma={params.gamma} is not above the convergence-rate "
        f"threshold -(1+alpha)/(1+beta) = {threshold:.4g}; the scheme "
        f"still runs but the asymptotic error guarantee does not apply",
        RateHypothesisWarning,
        stacklevel=level,
    )


def _octant_radii(radius, hi: int, lo: int, out: np.ndarray) -> np.ndarray:
    """out[i] = radius(a, b) over the canonical cells a >= b >= 0 with lo <
    a <= hi, in octant_cells order.  The cells and their radii are formed
    whole rows at a time, about _CELL_BLOCK cells per block, so no index or
    multiplicity array spans the octant; radius must be elementwise."""
    rows = max(1, _CELL_BLOCK // (hi + 1))
    i = 0
    for a0 in range(lo, hi, rows):
        a, b = octant_cells(min(a0 + rows, hi), a0)[:2]
        out[i:i + a.size] = radius(a, b)
        i += a.size
    return out


def _on_distinct(f, r: np.ndarray):
    """Replace each value of the float vector r by f(x)[k], where x is the
    sorted distinct values of r (np.unique(r)) and x[k] the old value: f is
    called once, on x, and returns an array of x's shape.  r is sorted in
    place to find x and then takes the scattered values; beside it only the
    sort's permutation, a mask, x, f(x) and a _CELL_BLOCK of ranks are held,
    never np.unique's inverse index over all of r."""
    perm = np.argsort(r)
    r.sort()
    first = np.empty(r.size, dtype=bool)
    first[:1] = True
    np.not_equal(r[1:], r[:-1], out=first[1:])
    v = f(r[first])
    base = 0   # distinct values before the block
    for i0 in range(0, r.size, _CELL_BLOCK):
        rank = np.cumsum(first[i0:i0 + _CELL_BLOCK])
        rank += base - 1
        base = rank[-1] + 1
        r[perm[i0:i0 + _CELL_BLOCK]] = v[rank]


def _step_kernel_octant(kernel: KernelSpec, params: SchemeParams,
                        inner: bool) -> np.ndarray:
    """g(r_k / n) on the canonical cells a >= b >= 0 of the window max|k| <=
    N = n_trunc, cell (a, b) at index a(a+1)/2 + b.

    r_k is the representative radius (covariance.representative_radii).
    With `inner` (hybrid), the inner block max|k| <= kappa is zero and r_k
    follows params.policy.  Without (Riemann), r_k is the midpoint policy's:
    |k|, and at the central cell, where the midpoint sits on the
    singularity, the optimal radius.  r_k depends on k only through its
    octant representative (a, b) = (max|k_i|, min|k_i|), so g is evaluated
    once per distinct radius of the canonical cells.  The radii are formed
    in the octant's own step cells, which then take g.
    """
    N, lo = params.n_trunc, params.kappa if inner else -1
    policy = params.policy if inner else DEFAULT_POLICY
    octant = np.zeros((N + 1) * (N + 2) // 2)
    # cells such as (5, 0) and (4, 3) share a radius: g is evaluated once
    # per distinct radius and scattered
    _on_distinct(kernel.eval_g, _octant_radii(
        lambda a, b: representative_radii(a, b, kernel.alpha, policy) / params.n,
        N, lo, octant[(lo + 1) * (lo + 2) // 2:]))
    return octant


def _octant_entries(octant: np.ndarray, i: np.ndarray,
                    j: np.ndarray) -> np.ndarray:
    """Step-kernel entries at offsets (i, j) (broadcast): the octant entry of
    (max(|i|, |j|), min(|i|, |j|))."""
    i, j = np.abs(i), np.abs(j)
    hi, lo = np.maximum(i, j), np.minimum(i, j)
    return octant[hi * (hi + 1) // 2 + lo]


def _octant_sq_sum(octant: np.ndarray, N: int) -> float:
    """Sum of squares over the (2N+1)^2 matrix an octant fills, each
    canonical cell counted with its octant_cells multiplicity: 8, 4 on an
    axis (index a(a+1)/2) or the diagonal (a(a+1)/2 + a), 1 at the origin.
    The weighted squares are formed in one array by exact power-of-two
    scalings, so they and their sum are np.sum(mult * octant**2)'s bits."""
    sq = np.square(octant)
    sq *= 8.0
    a = np.arange(1, N + 1)
    axis = a * (a + 1) // 2
    sq[axis] *= 0.5
    sq[axis + a] *= 0.5
    sq[0] /= 8.0
    return float(np.sum(sq))


def _kernel_spectrum(octant: np.ndarray, N: int, period: int,
                     workers: int | None, rows: np.ndarray | None = None):
    """Yield (c0, col) over the column blocks of the spectrum of the kernel
    c that `octant` fills (see _octant_entries; offsets up to N, 2N <=
    period), centred on index 0: offsets 0..N in rows and columns 0..N,
    offsets -N..-1 in the last N.  col is the complex (period, k) transform
    of columns c0..c0+k-1, _COL_BLOCK at a time over columns 0..period//2,
    held in one reused buffer (valid until the next block).  c is even in
    both axes, so its spectrum is real and even: the blocks' col[:period//2
    + 1].real joined are rfft2(c, s=(period, period)).real bit for bit, and
    col.real is fft2(c).real's, except that fft2 fills the rows m >
    period//2 of the self-conjugate columns (0, and period//2 when period
    is even) from row period-m.

    Row period-m of c equals row m, so only its N+1 distinct rows are
    filled from the octant, a block of rows at a time, and transformed
    along the rows by _row_spectrum into `rows`, a complex (N+1,
    period//2+1) array or view (new when None).  Each column block is then
    transformed in a buffer holding rows 0..N, rows N..1 again from
    period-N and zeros between.  Block c0 reads its columns of `rows`
    before it is yielded, so the consumer may overwrite them from then on.
    Neither c, the dense matrix nor a whole spectrum is ever held, and a
    consumer that stops early leaves the later columns untransformed.
    """
    w = fft_workers(workers)
    h = period // 2 + 1
    offsets = np.arange(N + 1)

    def distinct_rows():
        # rows r0..r1-1 hold octant entry (r, c) at the columns c < r0 and
        # (c, r) at c >= r1, indexed without the canonical max and min,
        # which only the diagonal block needs; columns period-N.. hold
        # offsets -N..-1, filled like N..1 (at 2N = period, column N twice)
        tri = offsets * (offsets + 1) // 2
        buf = np.zeros((_ROW_BLOCK, period))
        for r0 in range(0, N + 1, _ROW_BLOCK):
            r1 = min(r0 + _ROW_BLOCK, N + 1)
            r = offsets[r0:r1, None]
            block = buf[:r1 - r0]
            block[:, :r0] = octant[tri[r] + offsets[:r0]]
            block[:, r1:N + 1] = octant[tri[r1:] + r]
            block[:, r0:r1] = _octant_entries(octant, r, offsets[r0:r1])
            block[:, period - N:] = block[:, N:0:-1]
            yield r0, block

    rows = _row_spectrum(distinct_rows(), period, w,
                         out=np.empty((N + 1, h), dtype=complex)
                         if rows is None else rows, columns=False)
    buf = np.zeros((period, _COL_BLOCK), dtype=complex)
    for c0 in range(0, h, _COL_BLOCK):
        c1 = min(c0 + _COL_BLOCK, h)
        col = buf[:, :c1 - c0]
        col[:N + 1] = rows[:, c0:c1]
        col[N + 1:period - N] = 0.0
        col[period - N:] = rows[N:0:-1, c0:c1]
        yield c0, _fft.fft(col, axis=0, overwrite_x=True, workers=w)


@dataclass(frozen=True)
class HybridPlan:
    """Replicate-independent precomputation for the step-kernel engines.

    A hybrid plan carries the inner block and its weights; a Riemann plan
    has block and weights None and a step kernel over the whole window.
    An engine takes a plan whose kernel, n and gamma, and for a hybrid plan
    kappa and policy, equal its call's; the seed is the draw's alone, so
    one plan serves every seed and replicate, and a Riemann plan every
    kappa and policy.
    """

    kernel: KernelSpec
    params: SchemeParams
    half: int
    block: CovarianceBlock | None
    weights: np.ndarray | None   # aligned with block.offsets
    fft_a: np.ndarray            # real quarter (fshape//2+1)^2 of the rfft2 of
                                 # a_matrix centred on index 0 at period fshape
    fshape: int                  # next_fast_len(S) of the (S, S) noise sheet
    a_sq_sum: float              # sum of a_matrix**2, for scheme_variance

    @property
    def a_matrix(self) -> np.ndarray:
        """The (2N+1)^2 step kernel, rebuilt on each access: the plan keeps
        only its spectrum's real quarter."""
        k = np.arange(-self.params.n_trunc, self.params.n_trunc + 1)
        return _octant_entries(
            _step_kernel_octant(self.kernel, self.params, self.block is not None),
            k[:, None], k[None, :])


def _prepare(kernel: KernelSpec, params: SchemeParams, half: int | None,
             workers: int | None, inner: bool) -> HybridPlan:
    m0 = params.n if half is None else check_int(half, "half", lo=1)
    # The plan plus one replicate: the plan's real (P//2+1)^2 spectrum
    # quarter, the replicate's complex (P, P//2+1) spectrum (which also
    # holds the family's plain channel), the output, one sheet row block
    # (its padded rows and row spectrum), the draw's ring and, with an inner
    # block, the family's row window, though it is freed before the sheet's
    # row blocks; then 1/64 of that sum for the small objects beside these
    # arrays (at kappa = 0 the arrays alone exceed the traced peak by only
    # 0.01-0.13 %, a margin that moves from run to run).  No (S, S)
    # volatility sheet: a realised one is the caller's array or the output
    # of its model's own engine, whose check counted it, and a cold
    # replicate realises it before it builds its plan.
    S = 2 * (params.n_trunc + m0) + 1
    fsh = _fast_len(S)
    h = fsh // 2 + 1
    side = 2 * m0 + 1
    need = (8 * h * h + 16 * fsh * h + 8 * side * side
            + 8 * _ROW_BLOCK * (fsh + 2 * h))
    slot = _SHEET_UNIT * S
    if inner:
        kappa = params.kappa
        s1 = side + 2 * kappa
        d = (2 * kappa + 1) ** 2 + 1
        need += 8 * (_FAMILY_BLOCK + 2 * kappa) * s1 * d
        slot = max(slot, _FAMILY_UNIT * s1 * d)
    need += 8 * _RING * slot
    need += need // 64
    _require_memory(need, f"n={params.n}, gamma={params.gamma}, half={m0} "
                          f"(plan and one replicate, FFT period {fsh})")
    check_rate_hypothesis(kernel, params)
    block = weights = None
    if inner:
        block = build_block(kernel.alpha, params.kappa, params.n)
        weights = np.array([cell_weight(kernel, params.n, j, params.policy)
                            for j in block.offsets])
    octant = _step_kernel_octant(kernel, params, inner)
    fft_a = np.empty((h, h))
    for c0, col in _kernel_spectrum(octant, params.n_trunc, fsh, workers):
        fft_a[:, c0:c0 + col.shape[1]] = col[:h].real
    return HybridPlan(
        kernel=kernel, params=params, half=m0, block=block, weights=weights,
        fft_a=fft_a, fshape=fsh,
        a_sq_sum=_octant_sq_sum(octant, params.n_trunc),
    )


def prepare_hybrid(
    kernel: KernelSpec,
    params: SchemeParams,
    half: int | None = None,
    workers: int | None = None,
) -> HybridPlan:
    """Build the reusable parts of the hybrid scheme (block, weights, FFT of
    the step kernel).  `half` widens the output window to indices -half..half
    (default n, i.e. the grid over [-1,1]^2); the discretization itself (cell
    size, truncation) is unchanged.  Raises ValidationError before building
    anything when the plan plus one replicate would not fit in memory.  That
    estimate counts no (S, S) volatility sheet: a realised sigma is the
    caller's own array, or the output of its model's own engine, whose own
    check counts it; a cold hybrid_simulate realises sigma before it builds
    its plan here.  The plan ignores params.seed: it serves hybrid_simulate
    for every seed and replicate at the same kernel, n, gamma, kappa and
    policy."""
    return _prepare(kernel, params, half, workers, inner=True)


def prepare_riemann(
    kernel: KernelSpec,
    params: SchemeParams,
    half: int | None = None,
    workers: int | None = None,
) -> HybridPlan:
    """Build the reusable parts of the Riemann-sum scheme: a HybridPlan with
    no inner block (block and weights None) whose step kernel covers the
    whole window.  `half` and the memory check, which counts no volatility
    sheet, are as in prepare_hybrid; a cold riemann_simulate realises sigma
    before it builds its plan here.  The plan reads only the kernel, n and
    gamma of `params`, and serves every seed, kappa and policy."""
    return _prepare(kernel, params, half, workers, inner=False)


def _plan_settings(params: SchemeParams, inner: bool) -> tuple:
    """The settings a step-kernel plan is built from: n and gamma, and for a
    hybrid plan kappa and the policy too.  Never the seed, which only the
    draw reads."""
    if inner:
        return params.n, params.gamma, params.kappa, params.policy
    return params.n, params.gamma


def _simulate(kernel, params, vol, replicate, plan, rng_noise, workers,
              inner: bool) -> FieldGrid:
    """One replicate of either step-kernel engine; `inner` selects hybrid
    (the plan must carry a block) or Riemann (it must not)."""
    if vol is None:
        vol = ConstantVol(1.0)
    vol.validate_against(kernel)
    if plan is not None:
        if (plan.block is not None) != inner:
            raise ValidationError(
                f"plan was prepared for the "
                f"{'Riemann' if inner else 'hybrid'} scheme")
        if (plan.kernel != kernel or _plan_settings(plan.params, inner)
                != _plan_settings(params, inner)):
            raise ValidationError("plan was prepared for different settings")
    m0 = params.n if plan is None else plan.half
    n, kappa, N = params.n, params.kappa, params.n_trunc
    side = 2 * m0 + 1
    S = 2 * (N + m0) + 1

    # sigma first: a nested field (ExpVmmaVolatility) then runs before a
    # cold call's plan exists, not beside it
    const = vol.constant_value
    sigma = None
    if const is None:
        sigma = vol.realize(n, N + m0, rng_stream(params.seed, 1, replicate),
                            workers)
    if plan is None:
        # through the public names, so that wrappers installed on them see
        # the cold runs' plan builds
        prepare = prepare_hybrid if inner else prepare_riemann
        plan = prepare(kernel, params, workers=workers)
    if rng_noise is None:
        rng_noise = rng_stream(params.seed, 0, replicate)

    P = plan.fshape
    spec = np.empty((P, P // 2 + 1), dtype=complex)
    if plan.block is None:
        noise = _noise_rows(rng_noise, n, S, P)
    else:
        # win holds family rows r0 - carry .. r0 + k - 1 while r0 is summed
        carry = 2 * kappa
        win = np.empty((carry + _FAMILY_BLOCK, side + carry, plan.block.dim))
        x_tilde = np.zeros((side, side))

        def near_sum(r0, k):
            # output row o reads family rows o .. o + 2*kappa, so once block
            # r0 is in, rows up to r0 + k - carry are complete; every block
            # completes some (the first has k > carry: s1 > carry,
            # _FAMILY_BLOCK > 10)
            nonlocal win
            o0, o1 = max(r0 - carry, 0), r0 + k - carry
            for idx, (j1, j2) in enumerate(plan.block.offsets):
                # noise cell i - j for output i: shift the family by -j
                r = o0 + kappa - j2 - (r0 - carry)
                c0 = kappa - j1
                contrib = win[r:r + o1 - o0, c0:c0 + side, idx]
                if sigma is not None:
                    contrib = contrib * sigma[N - j2 + o0:N - j2 + o1,
                                              N - j1:N - j1 + side]
                x_tilde[o0:o1] += plan.weights[idx] * contrib
            if o1 < side:
                win[:carry] = win[k:k + carry]
            else:
                win = None   # all summed: free it before the sheet's blocks

        # the family's plain channel waits in the spectrum's rows and
        # columns lo..lo+s1 (sheet cells N-kappa..) until its row rfft
        lo, s1 = N - kappa, side + carry
        noise = _noise_rows(rng_noise, n, S, P, plan.block.chol, win[carry:],
                            near_sum, spec.view(float)[lo:lo + s1, lo:lo + s1])
    try:
        rows = noise if sigma is None else _modulated(noise, sigma)
        spec = _row_spectrum(rows, P, workers, out=spec)
    finally:
        # an error past the draw leaves it suspended: join its thread here,
        # not when the traceback lets go of this frame
        noise.close()
    # the far field goes straight into the near sum, when there is one
    values = _convolved_block(spec, plan.fft_a, N, side, workers,
                              into=None if plan.block is None else x_tilde)
    if const is not None and const != 1.0:
        values *= const
    return FieldGrid(values=values, spacing=1.0 / n,
                     origin=(-m0 / n, -m0 / n))


def hybrid_simulate(
    kernel: KernelSpec,
    params: SchemeParams,
    vol: VolatilityModel | None = None,
    replicate: int = 0,
    *,
    plan: HybridPlan | None = None,
    rng_noise: np.random.Generator | None = None,
    workers: int | None = None,
) -> FieldGrid:
    """Simulate one replicate of the field by the hybrid scheme.

    The inner part sums the exactly-integrated power cells with the policy's
    L-weights (direct summation, O(n^2) per offset); the outer part is one
    FFT convolution of the step kernel with sigma-modulated plain noise.
    Noise streams: rng_stream(seed, 0, replicate) for the field, unless
    rng_noise is passed, and rng_stream(seed, 1, replicate) for the
    volatility.  The plan fixes the output window (see prepare_hybrid) and
    serves every seed; another kernel, n, gamma, kappa or policy is
    rejected with ValidationError, and so is a plan from prepare_riemann.
    The noise is streamed in row blocks (see the module docstring), so
    neither noise family is held whole.
    """
    return _simulate(kernel, params, vol, replicate, plan, rng_noise, workers,
                     inner=True)


def riemann_simulate(
    kernel: KernelSpec,
    params: SchemeParams,
    vol: VolatilityModel | None = None,
    replicate: int = 0,
    *,
    plan: HybridPlan | None = None,
    rng_noise: np.random.Generator | None = None,
    workers: int | None = None,
) -> FieldGrid:
    """Simulate one replicate by the pure step-function (Riemann-sum) scheme.

    All cells use iid plain noise N(0, 1/n^2); kappa and the policy play
    no role.  The output depends only on (kernel, n, gamma, seed/replicate,
    vol), and a plan from prepare_riemann serves any kappa, policy and seed
    at its kernel, n and gamma.  A plan from prepare_hybrid is rejected
    with ValidationError.
    """
    return _simulate(kernel, params, vol, replicate, plan, rng_noise, workers,
                     inner=False)


# ---------------------------------------------------------------------------
# Circulant-embedding baseline (exact stationary Gaussian)


def _lag_octant(correlation, variance: float, n: int, octant: np.ndarray,
                old: int, h: int) -> np.ndarray:
    """variance * correlation(hypot(b, a) / n) on the canonical integer lags
    a >= b >= 0 with a <= h, lag (a, b) at index a(a+1)/2 + b (octant_cells
    order).

    Returns `octant` (the same vector for a <= old; empty for old = -1)
    grown by the lags old < a <= h, in a new vector: their distances are
    formed in its tail, correlation is called once, on their sorted
    distinct values, and its values are scattered back there.
    ValidationError is raised unless correlation returns finite real values
    of its argument's shape.
    """
    grown = np.empty((h + 1) * (h + 2) // 2)
    grown[:octant.size] = octant

    def values(r):
        v = np.asarray(correlation(r))
        if v.shape != r.shape or v.dtype.kind not in "biuf":
            raise ValidationError(
                f"correlation returned {v.dtype} values of shape {v.shape} "
                f"for lag distances of shape {r.shape}"
            )
        v = np.asarray(v, dtype=float)
        finite = np.isfinite(v)
        if not finite.all():
            raise ValidationError(
                f"correlation is not finite at r = {r[~finite][0]:.6g}"
            )
        return variance * v

    _on_distinct(values, _octant_radii(lambda a, b: np.hypot(b, a) / n,
                                       h, old, grown[octant.size:]))
    return grown


@dataclass(frozen=True)
class CirculantPlan:
    """The circulant embedding of one correlation, searched once.

    sqrt_half is the read-only, contiguous real (M, M//2+1) half, columns
    0..M//2 of the torus of side M, of the square roots of the embedding's
    eigenvalues, those below 0 zeroed; every other column is a copy of one
    of them.  The plan records the settings it was searched for, and
    circulant_simulate(..., plan=) refuses other ones.  diagnostics is a
    read-only mapping:

      tori          for each torus tried, in order, a mapping with its side
                    `size`, lambda_min and lambda_max, the bound
                    (1 + 1e-9) * 8 * sum|octant| on every |eigenvalue|, and
                    `partial`: the search stopped that torus at a column
                    block whose minimum was below -1e-10 * bound, so its
                    lambda_min is only an upper bound on the true minimum
                    (and its lambda_max a lower bound on the maximum);
      size          the accepted torus side M;
      doublings     how many times the first torus was doubled;
      zeroed        how many eigenvalues of the accepted half were below 0
                    and set to 0;
      most_negative the most negative of them (0.0 when none).
    """

    correlation: object
    variance: float
    n: int
    max_doublings: int
    sqrt_half: np.ndarray
    diagnostics: Mapping

    @property
    def size(self) -> int:
        """The accepted torus side M."""
        return self.sqrt_half.shape[0]


def _circulant_search(correlation, variance: float, n: int,
                      max_doublings: int, workers: int | None, plan: bool):
    """Search the torus sizes for a nonnegative definite embedding; the one
    search of circulant_simulate and prepare_circulant.

    Returns (buffer, diagnostics) with the diagnostics of CirculantPlan.
    With `plan`, buffer is a new contiguous real (M, M//2+1) half of sqrt(λ)
    and the preflight also counts it; else it is the cold call's complex
    (M, M) draw buffer, whose imaginary part holds that half in columns
    0..M//2 and whose first rows keep the builder's `rows`.

    The eigenvalues are the real part of the spectrum of the base matrix,
    the lag octant's kernel centred on index 0 with N = M//2, which
    _kernel_spectrum yields a column block at a time.  Each block takes
    fft2's fill for real input on the self-conjugate columns (0, and M//2
    when M is even: rows m > M//2 take row M-m), so that it holds
    fft2(base).real bit for bit, and updates the torus's λ_min and λ_max.
    Every |λ| is at most bound = (1 + 1e-9) * 8 * sum|octant| (a canonical
    lag occurs at most 8 times on the torus), so a torus before the last
    one allowed is dropped at its first block below -1e-10 * bound, which
    the full test λ_min >= -1e-10 * λ_max rejects too (`partial` when
    columns were left untransformed).  The last torus is built whole, so
    that the EmbeddingError reports its full λ_min.  Each kept block is
    stored zeroed below 0 (counted) and square-rooted, so no pass over the
    whole half is left for the test, the zeroing or the square root.
    """
    w = fft_workers(workers)
    M = _fast_len(2 * (2 * n + 1))
    octant, old = np.empty(0), -1
    tori = []
    for doubling in range(max_doublings + 1):
        h = M // 2
        # the octant, one draw buffer (a cold call forms the half in it, a
        # plan's draws each take one) and the draw's ring, the builder's
        # complex column block and its row block (padded rows, their row
        # spectra, index arrays), and a plan's own half
        _require_memory(4 * (h + 1) * (h + 2) + 16 * M * (M + _COL_BLOCK)
                        + 8 * _RING * _SHEET_UNIT * M + 32 * _ROW_BLOCK * M
                        + (8 * M * (h + 1) if plan else 0),
                        f"circulant embedding on a torus of side M={M} "
                        f"(doubling {doubling} of {max_doublings})")
        octant, old = _lag_octant(correlation, variance, n, octant, old, h), h
        bound = (1.0 + 1e-9) * 8.0 * float(np.sum(np.abs(octant)))
        if plan:
            buf = half = np.empty((M, h + 1))
            rows = None
        else:
            buf = np.empty((M, M), dtype=complex)
            half, rows = buf.imag[:, :h + 1], buf[:h + 1, :h + 1]
        stop = -math.inf if doubling == max_doublings else -1e-10 * bound
        self_conjugate = (0, h) if M % 2 == 0 else (0,)
        lam_min, lam_max, zeroed, partial = math.inf, -math.inf, 0, False
        for c0, col in _kernel_spectrum(octant, h, M, w, rows):
            c1 = c0 + col.shape[1]
            lam = col.real
            for c in self_conjugate:
                if c0 <= c < c1:
                    lam[h + 1:, c - c0] = lam[M - h - 1:0:-1, c - c0]
            lo = float(lam.min())
            lam_min = min(lam_min, lo)
            lam_max = max(lam_max, float(lam.max()))
            if lo < stop:
                partial = c1 <= h
                break
            if lo < 0.0:
                negative = lam < 0.0
                zeroed += int(np.count_nonzero(negative))
                np.copyto(lam, 0.0, where=negative)
            np.sqrt(lam, out=half[:, c0:c1])
        tori.append(MappingProxyType({
            "size": M, "bound": bound, "lambda_min": lam_min,
            "lambda_max": lam_max, "partial": partial}))
        if not partial and lam_min >= -1e-10 * lam_max:
            break
        # a view alone would keep its buffer alive
        del half, rows, buf, col, lam
        M = _fast_len(2 * M)
    else:
        raise EmbeddingError(
            f"circulant embedding not nonnegative definite after "
            f"{max_doublings} doublings (most negative eigenvalue "
            f"{lam_min:.6e})"
        )
    return buf, MappingProxyType({
        "tori": tuple(tori), "size": M, "doublings": doubling,
        "zeroed": zeroed, "most_negative": lam_min if zeroed else 0.0,
    })


def _circulant_draw(z: np.ndarray, n: int, seed: int, replicate: int,
                    workers: int | None) -> FieldGrid:
    """The field from the complex (M, M) draw buffer z, whose imaginary part
    holds sqrt(λ) in columns 0..M//2; the one draw of circulant_simulate,
    through _drawn: zr, then zi, _SHEET_UNIT rows at a time."""
    w = fft_workers(workers)
    M, side = z.shape[0], 2 * n + 1
    h = M // 2
    # z.imag takes sqrt(λ) on the whole torus: column c > h of row m is the
    # half's entry at ((M-m) % M, M-c), so row 0 reads itself reversed and
    # rows r0..r1-1 read rows M-r0 down to M-r1+1.  numpy copies a source
    # that overlaps its destination's memory range, so the rows go a block
    # at a time to keep that copy small.
    scale = z.imag
    scale[0, h + 1:] = scale[0, M - h - 1:0:-1]
    for r0 in range(1, M, _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, M)
        scale[r0:r1, h + 1:] = scale[M - r0:M - r1:-1, M - h - 1:0:-1]

    # z = sqrt(λ) * (zr + 1j*zi) with zr, then zi, drawn as (M, M) arrays:
    # standard_normal rejects the strided z.real as out=, so both parts are
    # drawn by _drawn, _SHEET_UNIT rows at a time in the stream order.  Each
    # part is its draw times the scale still in z.imag: a*c and b*c, the
    # bits of the complex-by-real product (a + bj) * c.
    units = [(min(_SHEET_UNIT, M - r0), M) for r0 in range(0, M, _SHEET_UNIT)]
    with _drawn(rng_stream(seed, 0, replicate), units * 2) as draws:
        for part in (z.real, z.imag):
            for r0 in range(0, M, _SHEET_UNIT):
                x = next(draws)
                np.multiply(x, scale[r0:r0 + x.shape[0]],
                            out=part[r0:r0 + x.shape[0]])
    # fft2 transforms axis 0 then axis 1; only rows :side of the second pass
    # are kept, so it runs on those rows alone (same bits as fft2's)
    f = _fft.fft(z, axis=0, workers=w, overwrite_x=True)
    f = _fft.fft(f[:side], axis=1, workers=w, overwrite_x=True)
    values = f.real[:, :side] / M
    return FieldGrid(values=values, spacing=1.0 / n, origin=(-1.0, -1.0))


def _check_circulant_args(variance, n, max_doublings):
    check_int(n, "n", lo=1)
    check_int(max_doublings, "max_doublings", lo=0)
    check_real(variance, "variance", lo=0.0)


def prepare_circulant(
    correlation,
    variance: float,
    n: int,
    max_doublings: int = 3,
    workers: int | None = None,
) -> CirculantPlan:
    """Search the circulant embedding of circulant_simulate once, for every
    replicate: the arguments and the search are circulant_simulate's (see
    there), and so are the fields drawn from the plan, bit for bit.

    Before each torus size the memory check counts the plan's real
    (M, M//2+1) half (8 bytes per entry, about 4 per torus point) beside
    one draw's working set, so a plan that passes can be drawn from.
    Raises EmbeddingError when no torus tried is nonnegative definite, and
    ValidationError as circulant_simulate does.
    """
    _check_circulant_args(variance, n, max_doublings)
    half, diagnostics = _circulant_search(correlation, variance, n,
                                          max_doublings, workers, plan=True)
    half.flags.writeable = False
    return CirculantPlan(correlation=correlation, variance=variance, n=n,
                         max_doublings=max_doublings, sqrt_half=half,
                         diagnostics=diagnostics)


def circulant_simulate(
    correlation,
    variance: float,
    n: int,
    seed: int = 0,
    replicate: int = 0,
    max_doublings: int = 3,
    workers: int | None = None,
    *,
    plan: CirculantPlan | None = None,
) -> FieldGrid:
    """Exact stationary Gaussian field on the (2n+1)^2 grid over [-1,1]^2.

    correlation(r) must be an isotropic correlation function accepting array
    arguments (correlation(0) = 1); the target covariance is variance *
    correlation(distance).  It is called once per torus size tried (the
    first and each doubling), on a 1-D array of the sorted distinct
    distances hypot(a, b)/n of that size's new canonical integer lags
    a >= b >= 0 (those with a beyond the previous size's M//2), so each lag
    is evaluated in exactly one call.  The covariance is embedded on a torus
    of side >= 2*(2n+1); if the embedding spectrum has an eigenvalue below
    -1e-10 * max, the torus is doubled (up to max_doublings) and then an
    EmbeddingError reports the most negative eigenvalue.  A torus before the
    last allowed one is dropped at the first column block of its spectrum
    with a value below -1e-10 times a bound on every |eigenvalue|, which
    only a torus the full test rejects can have.  Within-tolerance negative
    eigenvalues (roundoff) are zeroed, not clipped from a truly indefinite
    spectrum.

    With `plan` from prepare_circulant(correlation, variance, n,
    max_doublings) the search is skipped and the field drawn from the
    plan's square roots, the same bits as a cold call's; a plan searched
    for other settings raises ValidationError.

    A cold call's working set at torus side M is 16 bytes per torus point,
    the one complex M^2 draw buffer, in whose imaginary part the square
    roots of the embedding's half spectrum are formed and wait for the
    draw, plus the packed lag octant, (M/2+1)(M/2+2)/2 values, and the
    spectrum builder's row and column blocks, and the draw's ring; only the
    first 2n+1 rows take the final transform's second pass (tracemalloc
    peak 52.6 MB, 17.6 bytes per point, at M = 1728).  A draw from a plan
    holds the draw buffer beside the plan (48.6 MB there, the plan's half
    12.0 MB).  Before each M's lag octant and buffer that estimate is
    checked against the available memory, and ValidationError is raised
    when it does not fit; ValidationError is also raised unless n
    is an integer >= 1, max_doublings an integer >= 0, variance finite and
    positive (bools are not integers) and correlation returns finite real
    values of its argument's shape.  The draw comes from
    rng_stream(seed, 0, replicate).
    """
    _check_circulant_args(variance, n, max_doublings)
    if plan is None:
        z = _circulant_search(correlation, variance, n, max_doublings,
                              workers, plan=False)[0]
    else:
        if (plan.correlation != correlation or plan.variance != variance
                or plan.n != n or plan.max_doublings != max_doublings):
            raise ValidationError("plan was prepared for different settings")
        M = plan.size
        z = np.empty((M, M), dtype=complex)
        z.imag[:, :M // 2 + 1] = plan.sqrt_half
    return _circulant_draw(z, n, seed, replicate, workers)


# ---------------------------------------------------------------------------
# Deterministic second-moment helper


def scheme_variance(plan: HybridPlan) -> float:
    """Exact pointwise variance of the scheme's output at unit volatility.

    The inner and outer parts use disjoint cells, so the variance is the sum
    of the weighted power-cell variances and the step-kernel energy:

        sum_j w_j^2 n^(-2-2a) box(j, 2a)  +  n^(-2) sum_k A_k^2;

    a Riemann plan (no inner block) has the second term only.
    """
    params = plan.params
    n = params.n
    outer = plan.a_sq_sum / n**2
    if plan.block is None:
        return outer
    alpha = plan.kernel.alpha
    kappa = plan.block.kappa
    # a weight depends on its cell's canonical representative only, and
    # block.offsets run row-major over [-kappa, kappa]^2
    a, b, mult = octant_cells(kappa)
    w = plan.weights[(a + kappa) * (2 * kappa + 1) + b + kappa]
    inner = float(np.sum(mult * w**2 * box_power_integrals(a, b, 2.0 * alpha)))
    inner *= float(n) ** (-2.0 - 2.0 * alpha)
    return inner + outer
