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
on its octant, one kernel evaluation per canonical cell a >= b >= 0, and is
convolved with the (S, S) noise sheet as a CIRCULAR convolution of period
P = next_fast_len(S).  The plan centres the kernel on index 0 of the period
(offsets 0..N in the first rows and columns, -N..-1 in the last N).  It is
even in both axes, so its spectrum is real and even, and the plan keeps only
the real quarter rfft2(centred, s=(P, P))[:P//2+1].real, built a block of
_ROW_BLOCK rows at a time from the octant (neither the centred nor the
dense matrix is ever held whole).  The sheet reaches one complex (P, P//2+1)
spectrum the same way: each row block is zero-padded to width P and
transformed along its rows, then the columns are transformed in place,
which is bit-identical to rfft2(x, s=(P, P)).  Spectrum row m is multiplied
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
the two lags, so the correlation is evaluated once per canonical lag
a >= b >= 0 and mirrored.  A doubling of M extends the table by the new lags
only, so each distinct lag is evaluated once across all doublings.

Noise layout (fixed, part of the determinism contract): for one replicate,
the correlated family is drawn first as z ~ N(0,1) of shape (s1, s1, d) with
s1 = 2*(half+kappa)+1 and d = (2*kappa+1)^2 + 1, mapped through the block's
Cholesky factor; then the plain cell masses are drawn as an (S, S) standard
normal sheet scaled by 1/n with S = 2*(N+half)+1, whose central s1 x s1 block
is REPLACED by the plain components of the correlated family (the overdraw
keeps the layout independent of kappa).  Both are drawn in blocks of
_ROW_BLOCK rows, which consumes the stream in the same order and gives the
same values bit for bit as single draws.  The hybrid engine streams them:
each family block is added into the near sum for the output rows it
completes (its last 2*kappa rows carry over to the next block), and each
sheet block is modulated and transformed at once, so neither the family nor
the sheet is ever held whole.  The volatility, from its own stream, is
realised before the noise is drawn.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft

from .covariance import (
    DEFAULT_POLICY,
    CovarianceBlock,
    EvaluationPolicy,
    box_power_integrals,
    build_block,
    cell_weight,
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
        if not isinstance(self.policy, EvaluationPolicy):
            raise ValidationError("policy must be an EvaluationPolicy")
        if self.n_trunc < self.kappa:
            raise ValidationError(
                f"truncation window n_trunc={self.n_trunc} smaller than "
                f"kappa={self.kappa}; increase n or gamma"
            )

    @property
    def n_trunc(self) -> int:
        """Truncation half-width in cells: floor(n**(1+gamma))."""
        return int(math.floor(float(self.n) ** (1.0 + self.gamma)))

    @property
    def c_n(self) -> float:
        """Physical truncation radius (n_trunc + 1/2)/n."""
        return (self.n_trunc + 0.5) / self.n

    @property
    def grid_side(self) -> int:
        return 2 * self.n + 1


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

    The inner field's roughness exponent must be strictly larger than the
    host kernel's (smoother volatility than field), which engines check at
    simulation time via validate_against.
    """

    inner_kernel: KernelSpec
    gamma: float = 0.3
    kappa: int = 1

    def __post_init__(self):
        if not isinstance(self.inner_kernel, KernelSpec):
            raise ValidationError("inner_kernel must be a KernelSpec")
        check_real(self.gamma, "gamma", lo=0.0)
        check_int(self.kappa, "kappa", 0, 5)

    def validate_against(self, kernel: KernelSpec):
        if not self.inner_kernel.alpha > kernel.alpha:
            raise ValidationError(
                f"volatility roughness alpha'={self.inner_kernel.alpha} must "
                f"exceed the host kernel's alpha={kernel.alpha}"
            )

    def realize(self, n, half, rng, workers=None):
        params = SchemeParams(n=n, gamma=self.gamma, kappa=self.kappa)
        plan = prepare_hybrid(self.inner_kernel, params, half=half,
                              workers=workers)
        grid = hybrid_simulate(self.inner_kernel, params, ConstantVol(1.0),
                               plan=plan, rng_noise=rng, workers=workers)
        # the nested grid is this call's own, so it is mapped in place
        return _exp_half(grid.values)


# ---------------------------------------------------------------------------
# Row blocks: noise draw and FFT convolution


# Rows per block of the streamed noise draw and of the row-wise FFTs.
_ROW_BLOCK = 64


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


def _noise_rows(rng: np.random.Generator, n: int, S: int, width: int,
                chol: np.ndarray | None = None, family: np.ndarray | None = None,
                take_family=None):
    """Draw one replicate's noise in the fixed layout, a block of rows at a
    time; the one draw routine of the step-kernel engines.

    With a Cholesky factor, first the correlated family: for each block of
    rows r0..r0+k-1, z ~ N(0,1) of shape (k, s1, d) is mapped to z @ chol.T
    in family[:k] (s1 = family.shape[1]), then take_family(r0, k) is called,
    and the next block overwrites family[:k].  Then the plain sheet, N(0,1)/n
    of shape (S, S) with its central s1 x s1 block replaced by the family's
    plain channel, is yielded as (r0, rows) blocks padded to `width` (see
    _padded_rows).  The family is drawn when the first sheet block is asked
    for.  Block-wise draws and matmuls give the single draw's values bit for
    bit.
    """
    s1 = 0
    if chol is not None:
        s1, d = family.shape[1], chol.shape[0]
        central = np.empty((s1, s1))
        for r0 in range(0, s1, _ROW_BLOCK):
            k = min(_ROW_BLOCK, s1 - r0)
            np.matmul(rng.standard_normal((k, s1, d)), chol.T, out=family[:k])
            central[r0:r0 + k] = family[:k, :, -1]
            take_family(r0, k)
    lo = (S - s1) // 2

    def sheet_rows(r0, k):
        rows = rng.standard_normal((k, S))
        rows /= n
        a, b = max(r0, lo), min(r0 + k, lo + s1)
        if a < b:
            rows[a - r0:b - r0, lo:lo + s1] = central[a - lo:b - lo]
        return rows

    yield from _padded_rows(sheet_rows, S, width)


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
    family = np.empty((_ROW_BLOCK, s1, d))

    def keep(r0, k):
        w1[r0:r0 + k] = family[:k]

    for r0, rows in _noise_rows(rng, n, S, S, block.chol, family, keep):
        plain[r0:r0 + rows.shape[0]] = rows
    return w1[:, :, :-1], plain


def _modulated(rows, sigma: np.ndarray):
    """Multiply each (r0, rows) block of a sheet by sigma in place."""
    S = sigma.shape[1]
    for r0, block in rows:
        block[:, :S] *= sigma[r0:r0 + block.shape[0]]
        yield r0, block


def _row_spectrum(rows, period: int, workers: int | None) -> np.ndarray:
    """rfft2 at (period, period) of a real array given as row blocks.

    `rows` yields (r0, block) with r0 increasing, each block zero-padded to
    width `period`; rows no block covers are zero.  Each block is
    transformed along its rows as it arrives, then the columns of the one
    complex (period, period//2+1) array are transformed in place: the result
    equals rfft2(x, s=(period, period)) bit for bit.
    """
    w = fft_workers(workers)
    spec = np.empty((period, period // 2 + 1), dtype=complex)
    end = 0
    for r0, block in rows:
        spec[end:r0] = 0.0
        end = r0 + block.shape[0]
        spec[r0:end] = _fft.rfft(block, axis=1, workers=w)
    spec[end:] = 0.0
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


def _circular_convolve(fft_a: np.ndarray, b: np.ndarray, period: int,
                       start: int, side: int, workers: int | None) -> np.ndarray:
    """Circular convolution of period `period` of a kernel, given by its
    spectrum `fft_a` at that period (see _convolved_block), with the sheet
    b; returns the side x side block from (start, start) as a contiguous
    array.  The engines feed the same path (_row_spectrum, _convolved_block)
    with their streamed sheets, and only there is a row rfft or an irfft
    taken.

    The block equals the linear convolution wherever no term wraps: for the
    far field (a plan's kernel centred on 0, start N, side 2*half+1, period
    >= side(b)) every kept output reads only cells inside the sheet; for the
    full linear convolution (kernel from index 0, start 0) the period must
    cover the whole output.
    """
    rows = _padded_rows(lambda r0, k: b[r0:r0 + k], b.shape[0], period)
    return _convolved_block(_row_spectrum(rows, period, workers), fft_a,
                            start, side, workers)


def _sheet_period(params: SchemeParams, half: int) -> int:
    """FFT period of the far field: the fast length of the noise sheet side
    S = 2*(n_trunc+half)+1."""
    return _fft.next_fast_len(2 * (params.n_trunc + half) + 1, real=True)


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
    fa = _row_spectrum(_padded_rows(lambda r0, k: a[r0:r0 + k], a.shape[0], fsh),
                       fsh, workers)
    return _circular_convolve(fa, b, fsh, 0, out, workers)


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


def _require_memory(need: int, what: str):
    """Raise ValidationError, before anything is allocated, when `need` bytes
    for `what` exceed the available memory."""
    avail = _available_memory()
    if need > avail:
        raise ValidationError(
            f"{what} needs about {need / 2**20:.0f} MiB, but only "
            f"{avail / 2**20:.0f} MiB is available"
        )


# ---------------------------------------------------------------------------
# Step-kernel schemes: hybrid and Riemann


def check_rate_hypothesis(kernel: KernelSpec, params: SchemeParams):
    """Warn (RateHypothesisWarning) when gamma is not above the threshold
    -(1+alpha)/(1+beta) of a kernel with polynomial decay x**beta, below
    which the truncation error is not guaranteed to vanish at the scheme's
    rate.  Shared by the engines and the MSE analysis."""
    _rate_warning(kernel, params)


def _rate_warning(kernel: KernelSpec, params: SchemeParams):
    # two frames up from here is the caller of check_rate_hypothesis or, via
    # _prepare, of prepare_hybrid/prepare_riemann: stacklevel 4 names it
    beta = kernel.beta_decay
    if math.isfinite(beta):
        threshold = -(1.0 + kernel.alpha) / (1.0 + beta)
        if params.gamma <= threshold:
            warnings.warn(
                f"gamma={params.gamma} is not above the convergence-rate "
                f"threshold -(1+alpha)/(1+beta) = {threshold:.4g}; the scheme "
                f"still runs but the asymptotic error guarantee does not apply",
                RateHypothesisWarning,
                stacklevel=4,
            )


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
    once per canonical cell.
    """
    N = params.n_trunc
    a, b = octant_cells(N, params.kappa if inner else -1)[:2]
    r = representative_radii(a, b, kernel.alpha,
                             params.policy if inner else DEFAULT_POLICY)
    octant = np.zeros((N + 1) * (N + 2) // 2)
    octant[octant.size - r.size:] = kernel.eval_g(r / params.n)
    return octant


def _octant_entries(octant: np.ndarray, i: np.ndarray,
                    j: np.ndarray) -> np.ndarray:
    """Step-kernel entries at offsets (i, j) (broadcast): the octant entry of
    (max(|i|, |j|), min(|i|, |j|))."""
    i, j = np.abs(i), np.abs(j)
    hi, lo = np.maximum(i, j), np.minimum(i, j)
    return octant[hi * (hi + 1) // 2 + lo]


def _octant_rows(octant: np.ndarray, N: int) -> np.ndarray:
    """The (2N+1)^2 step-kernel matrix, offset 0 at the middle."""
    k = np.arange(-N, N + 1)
    return _octant_entries(octant, k[:, None], k[None, :])


def _octant_sq_sum(octant: np.ndarray, N: int) -> float:
    """Sum of squares over the (2N+1)^2 matrix an octant fills, each
    canonical cell counted with its octant_cells multiplicity."""
    return float(np.sum(octant_cells(N)[2] * octant**2))


def _kernel_spectrum(octant: np.ndarray, N: int, period: int,
                     workers: int | None) -> np.ndarray:
    """The real quarter rfft2(c, s=(period, period))[:period//2+1].real of
    the step kernel c centred on index 0: offsets 0..N in rows and columns
    0..N, offsets -N..-1 in the last N.  c is even in both axes, so its
    spectrum is real and even and the quarter holds all of it.

    c is filled from the octant a block of rows at a time, its N+1 rows from
    the start and its N rows at the end; the rows between are zeroed inside
    _row_spectrum, and neither c nor the dense matrix is ever built.
    """
    h = period // 2 + 1
    cols = np.arange(N + 1)[None, :]

    def blocks():
        # period rows 0..N hold offsets 0..N and rows period-N.. offsets
        # -N..-1, filled like N..1; columns likewise, so each block takes
        # columns 0..N from the octant and mirrors columns N..1 to the end
        for lo, offsets in ((0, np.arange(N + 1)),
                            (period - N, np.arange(N, 0, -1))):
            def half_rows(r0, k, i=offsets[:, None]):
                return _octant_entries(octant, i[r0:r0 + k], cols)

            for r0, block in _padded_rows(half_rows, offsets.size, period):
                block[:, period - N:] = block[:, N:0:-1]
                yield lo + r0, block

    return _row_spectrum(blocks(), period, workers)[:h].real.copy()


@dataclass(frozen=True)
class HybridPlan:
    """Replicate-independent precomputation for the step-kernel engines.

    A hybrid plan carries the inner block and its weights; a Riemann plan
    has block and weights None and a step kernel over the whole window.
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
        return _octant_rows(
            _step_kernel_octant(self.kernel, self.params, self.block is not None),
            self.params.n_trunc)


def riemann_kernel_matrix(kernel: KernelSpec, params: SchemeParams) -> np.ndarray:
    """Step-kernel matrix of the Riemann scheme: g at cell midpoints for all
    cells in the truncation window, with the central cell evaluated at its
    optimal radius (the midpoint would sit on the singularity)."""
    return _octant_rows(_step_kernel_octant(kernel, params, inner=False),
                        params.n_trunc)


def _prepare(kernel: KernelSpec, params: SchemeParams, half: int | None,
             workers: int | None, inner: bool) -> HybridPlan:
    m0 = params.n if half is None else check_int(half, "half", lo=1)
    # The plan plus one replicate: the plan's real (P//2+1)^2 spectrum
    # quarter, the replicate's complex (P, P//2+1) spectrum, the (S, S)
    # volatility sheet of a modulated field (a plan serves every volatility
    # model, so it is always counted), the output and, with an inner block,
    # the family's row window and plain channel.
    fsh = _sheet_period(params, m0)
    h = fsh // 2 + 1
    S = 2 * (params.n_trunc + m0) + 1
    side = 2 * m0 + 1
    need = 8 * h * h + 16 * fsh * h + 8 * (S * S + side * side)
    if inner:
        kappa = params.kappa
        s1 = side + 2 * kappa
        d = (2 * kappa + 1) ** 2 + 1
        need += 8 * ((_ROW_BLOCK + 2 * kappa) * s1 * d + s1 * s1)
    _require_memory(need, f"n={params.n}, gamma={params.gamma}, half={m0} "
                          f"(plan and one replicate, FFT period {fsh})")
    _rate_warning(kernel, params)
    block = weights = None
    if inner:
        block = build_block(kernel.alpha, params.kappa, params.n)
        weights = np.array([cell_weight(kernel, params.n, j, params.policy)
                            for j in block.offsets])
    octant = _step_kernel_octant(kernel, params, inner)
    return HybridPlan(
        kernel=kernel, params=params, half=m0, block=block, weights=weights,
        fft_a=_kernel_spectrum(octant, params.n_trunc, fsh, workers),
        fshape=fsh, a_sq_sum=_octant_sq_sum(octant, params.n_trunc),
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
    anything when the plan plus one replicate would not fit in memory."""
    return _prepare(kernel, params, half, workers, inner=True)


def prepare_riemann(
    kernel: KernelSpec,
    params: SchemeParams,
    half: int | None = None,
    workers: int | None = None,
) -> HybridPlan:
    """Build the reusable parts of the Riemann-sum scheme: a HybridPlan with
    no inner block (block and weights None) whose step kernel covers the
    whole window.  `half` and the memory check are as in prepare_hybrid."""
    return _prepare(kernel, params, half, workers, inner=False)


def _simulate(kernel, params, vol, replicate, plan, rng_noise, workers,
              inner: bool) -> FieldGrid:
    """One replicate of either step-kernel engine; `inner` selects hybrid
    (the plan must carry a block) or Riemann (it must not)."""
    if vol is None:
        vol = ConstantVol(1.0)
    vol.validate_against(kernel)
    if plan is None:
        # through the public names, so that wrappers installed on them see
        # the cold runs' plan builds
        prepare = prepare_hybrid if inner else prepare_riemann
        plan = prepare(kernel, params, workers=workers)
    elif (plan.block is not None) != inner:
        raise ValidationError(
            f"plan was prepared for the {'Riemann' if inner else 'hybrid'} scheme")
    elif plan.kernel != kernel or plan.params != params:
        raise ValidationError("plan was prepared for different settings")
    m0 = plan.half
    n, kappa, N = params.n, params.kappa, params.n_trunc
    side = 2 * m0 + 1
    S = 2 * (N + m0) + 1

    const = vol.constant_value
    sigma = None
    if const is None:
        sigma = vol.realize(n, N + m0, rng_stream(params.seed, 1, replicate),
                            workers)
    if rng_noise is None:
        rng_noise = rng_stream(params.seed, 0, replicate)

    if plan.block is None:
        rows = _noise_rows(rng_noise, n, S, plan.fshape)
    else:
        # win holds family rows r0 - carry .. r0 + k - 1 while r0 is summed
        carry = 2 * kappa
        win = np.empty((carry + _ROW_BLOCK, side + carry, plan.block.dim))
        x_tilde = np.zeros((side, side))

        def near_sum(r0, k):
            # output row o reads family rows o .. o + 2*kappa, so once block
            # r0 is in, rows up to r0 + k - carry are complete; every block
            # completes some (the first has k > carry: s1 > carry,
            # _ROW_BLOCK > 10)
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
            win[:carry] = win[k:k + carry]

        rows = _noise_rows(rng_noise, n, S, plan.fshape, plan.block.chol,
                           win[carry:], near_sum)
    if sigma is not None:
        rows = _modulated(rows, sigma)
    spec = _row_spectrum(rows, plan.fshape, workers)
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
    volatility.  The plan fixes the output window (see prepare_hybrid).  The
    noise is streamed in row blocks (see the module docstring), so neither
    noise family is held whole.  A plan from prepare_riemann is rejected with
    ValidationError.
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

    All cells use iid plain noise N(0, 1/n^2); kappa plays no role.  The
    output depends only on (kernel, n, gamma, seed/replicate, vol).  A plan
    from prepare_hybrid is rejected with ValidationError.
    """
    return _simulate(kernel, params, vol, replicate, plan, rng_noise, workers,
                     inner=False)


# ---------------------------------------------------------------------------
# Circulant-embedding baseline (exact stationary Gaussian)


def _lag_table(correlation, variance: float, n: int, table: np.ndarray,
               h: int) -> np.ndarray:
    """variance * correlation(hypot(b, a) / n) for integer lags 0 <= a, b <= h.

    Extends `table` (the same array for a smaller h): correlation is called
    once, on the canonical lags a >= b >= 0 with a beyond the old h, and
    each value is mirrored to (b, a).
    """
    old = table.shape[0]
    out = np.empty((h + 1, h + 1))
    out[:old, :old] = table
    a, b = octant_cells(h, old - 1)[:2]
    r = np.hypot(b, a) / n
    v = variance * np.asarray(correlation(r), dtype=float)
    out[a, b] = v
    out[b, a] = v
    return out


def circulant_simulate(
    correlation,
    variance: float,
    n: int,
    seed: int = 0,
    replicate: int = 0,
    max_doublings: int = 3,
    workers: int | None = None,
) -> FieldGrid:
    """Exact stationary Gaussian field on the (2n+1)^2 grid over [-1,1]^2.

    correlation(r) must be an isotropic correlation function accepting array
    arguments (correlation(0) = 1); the target covariance is variance *
    correlation(distance).  It is called on 1-D arrays of lag distances,
    once per canonical integer lag pair across all doublings.  The
    covariance is embedded on a torus of side >= 2*(2n+1); if the embedding
    spectrum has an eigenvalue below -1e-10 * max, the torus is doubled (up
    to max_doublings) and then an EmbeddingError reports the most negative
    eigenvalue.  Within-tolerance
    negative eigenvalues (roundoff) are zeroed, not clipped from a truly
    indefinite spectrum.

    The working set at torus side M is the (M/2+1)^2 lag table plus 24
    bytes per torus point: one real and one complex M^2 array at a time,
    and only the first 2n+1 rows take the final transform's second pass
    (tracemalloc peak 77.7 MB, 26.0 bytes per point with the table, at
    M = 1728).  Before each M's table and arrays the estimate is checked
    against the available memory, and ValidationError is raised when it
    does not fit; ValidationError is also raised unless n is an integer
    >= 1, max_doublings an integer >= 0 and variance finite and positive
    (bools are not integers).  The draw comes from
    rng_stream(seed, 0, replicate).
    """
    check_int(n, "n", lo=1)
    check_int(max_doublings, "max_doublings", lo=0)
    check_real(variance, "variance", lo=0.0)
    side = 2 * n + 1
    w = fft_workers(workers)

    M = _fft.next_fast_len(2 * side, real=True)
    table = np.empty((0, 0))
    lam = None
    worst = None
    for doubling in range(max_doublings + 1):
        _require_memory(8 * (M // 2 + 1) ** 2 + 24 * M * M,
                        f"circulant embedding on a torus of side M={M} "
                        f"(doubling {doubling} of {max_doublings})")
        table = _lag_table(correlation, variance, n, table, M // 2)
        idx = np.arange(M)
        d = np.minimum(idx, M - idx)
        spec = _fft.fft2(table[d[:, None], d[None, :]], workers=w,
                         overwrite_x=True)
        mx = spec.real.max()
        mn = spec.real.min()
        if mn >= -1e-10 * mx:
            lam = spec.real.copy()
            del spec
            break
        del spec
        worst = mn
        M = _fft.next_fast_len(2 * M, real=True)
    if lam is None:
        raise EmbeddingError(
            f"circulant embedding not nonnegative definite after "
            f"{max_doublings} doublings (most negative eigenvalue {worst:.6e})"
        )
    del table
    np.copyto(lam, 0.0, where=lam < 0.0)
    np.sqrt(lam, out=lam)

    # z = sqrt(lam) * (zr + 1j*zi) with zr, then zi, drawn as (M, M) arrays:
    # standard_normal rejects the strided z.real as out=, so both parts go
    # through one reused row buffer, which keeps the stream order.
    rng = rng_stream(seed, 0, replicate)
    z = np.empty((M, M), dtype=complex)
    buf = np.empty((_ROW_BLOCK, M))
    for part in (z.real, z.imag):
        for r0 in range(0, M, _ROW_BLOCK):
            k = min(_ROW_BLOCK, M - r0)
            rng.standard_normal(out=buf[:k])
            part[r0:r0 + k] = buf[:k]
    z *= lam
    del lam
    # fft2 transforms axis 0 then axis 1; only rows :side of the second pass
    # are kept, so it runs on those rows alone (same bits as fft2's)
    f = _fft.fft(z, axis=0, workers=w, overwrite_x=True)
    f = _fft.fft(f[:side], axis=1, workers=w, overwrite_x=True)
    values = f.real[:, :side] / M
    return FieldGrid(values=values, spacing=1.0 / n, origin=(-1.0, -1.0))


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
