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
P = next_fast_len(S).  Output i reads sheet cells i-N..i+N only, all inside
the sheet, so P >= S already rules out wrap-around and no padding to the
linear size S + 2N is needed.  Both operands reach one complex (P, P//2+1)
spectrum a block of _ROW_BLOCK rows at a time: each block is zero-padded to
width P and transformed along its rows, then the columns are transformed in
place, which is bit-identical to rfft2(x, s=(P, P)).  The kernel's rows are
filled from the octant, so the plan never holds the dense matrix (a_matrix
rebuilds it on demand).  The product with the kernel spectrum is formed in
place, inverted along the columns in place, and only the 2*half+1 kept rows
are inverted along the rows; this inverse split differs from irfft2 in the
last bits only.

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
    box_power_integral,
    box_power_integrals,
    build_block,
    central_L_coefficient,
    optimal_b_norm,
    representative_radius,
)
from .errors import EmbeddingError, RateHypothesisWarning, ValidationError
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
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValidationError(f"n must be a positive integer, got {self.n}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValidationError(f"gamma must be positive, got {self.gamma}")
        if not (isinstance(self.kappa, (int, np.integer)) and 0 <= self.kappa <= 5):
            raise ValidationError(f"kappa must be an integer in 0..5, got {self.kappa}")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            raise ValidationError(f"seed must fit in u64, got {self.seed}")
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
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValidationError(f"spacing must be positive, got {self.spacing}")
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
    own task indices.
    """
    ss = np.random.SeedSequence((int(seed),) + tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def fft_workers(workers: int | None = None) -> int:
    """Worker count for FFT calls: explicit argument, else VMMA_THREADS, else 1."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("VMMA_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(f"ignoring non-integer VMMA_THREADS={env!r}")
    return 1


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
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValidationError(f"constant volatility must be > 0, got {self.c}")

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


def volatility_from_log_field(log_field: np.ndarray) -> np.ndarray:
    """Map a log-variance field x to sigma = exp(x/2), so sigma^2 = exp(x)."""
    return np.exp(0.5 * np.asarray(log_field, dtype=float))


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
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValidationError(f"gamma must be positive, got {self.gamma}")
        if not (isinstance(self.kappa, (int, np.integer)) and 0 <= self.kappa <= 5):
            raise ValidationError(f"kappa must be an integer in 0..5, got {self.kappa}")

    def validate_against(self, kernel: KernelSpec):
        if not self.inner_kernel.alpha > kernel.alpha:
            raise ValidationError(
                f"volatility roughness alpha'={self.inner_kernel.alpha} must "
                f"exceed the host kernel's alpha={kernel.alpha}"
            )

    def realize(self, n, half, rng, workers=None):
        params = SchemeParams(n=n, gamma=self.gamma, kappa=self.kappa)
        grid = hybrid_simulate(
            self.inner_kernel, params, ConstantVol(1.0),
            rng_noise=rng, half=half, workers=workers,
        )
        return volatility_from_log_field(grid.values)


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
    m0 = params.n if half is None else int(half)
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

    `rows` yields (r0, block) in order from row 0, each block zero-padded to
    width `period`; rows after the last block are zero.  Each block is
    transformed along its rows as it arrives, then the columns of the one
    complex (period, period//2+1) array are transformed in place: the result
    equals rfft2(x, s=(period, period)) bit for bit.
    """
    w = fft_workers(workers)
    spec = np.empty((period, period // 2 + 1), dtype=complex)
    end = 0
    for r0, block in rows:
        end = r0 + block.shape[0]
        spec[r0:end] = _fft.rfft(block, axis=1, workers=w)
    spec[end:] = 0.0
    return _fft.fft(spec, axis=0, overwrite_x=True, workers=w)


def _convolved_block(spec: np.ndarray, fft_a: np.ndarray, start: int,
                     side: int, workers: int | None) -> np.ndarray:
    """The side x side block from (start, start) of the circular convolution
    whose operands have spectra fft_a and spec (period = spec.shape[0]).

    Consumes spec: the product and the column inverse are formed in it in
    place, and only the kept rows are inverted along the rows.
    """
    w = fft_workers(workers)
    period = spec.shape[0]
    np.multiply(fft_a, spec, out=spec)
    spec = _fft.ifft(spec, axis=0, overwrite_x=True, workers=w)
    full = _fft.irfft(spec[start:start + side], n=period, axis=1, workers=w)
    return full[:, start:start + side]


def _circular_convolve(fft_a: np.ndarray, b: np.ndarray, period: int,
                       start: int, side: int, workers: int | None) -> np.ndarray:
    """Circular convolution of period `period` of a kernel, given by its
    rfft2 `fft_a` at that period, with the sheet b; returns the side x side
    block from (start, start).  The engines feed the same path
    (_row_spectrum, _convolved_block) with their streamed sheets.

    The block equals the linear convolution wherever no term wraps: for the
    far field (start 2N, side 2*half+1, period >= side(b)) every kept output
    reads only cells inside the sheet; for the full linear convolution
    (start 0) the period must cover the whole output.
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


def _available_memory() -> int:
    """Bytes a new allocation can get without swapping: MemAvailable (free
    plus reclaimable page cache) from /proc/meminfo where it exists, else the
    free pages from os.sysconf."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(params: SchemeParams, half: int, kappa: int | None):
    """Raise ValidationError, before anything is allocated, when a plan plus
    one replicate would not fit in the available memory.

    The estimate counts two complex (P, P//2+1) spectra (the plan's and the
    replicate's), the (S, S) volatility sheet of a modulated field (a plan
    serves every volatility model, so it is always counted), the output and,
    with an inner block (kappa not None), the family's row window and plain
    channel.
    """
    P = _sheet_period(params, half)
    S = 2 * (params.n_trunc + half) + 1
    side = 2 * half + 1
    need = 2 * 16 * P * (P // 2 + 1) + 8 * (S * S + side * side)
    if kappa is not None:
        s1 = side + 2 * kappa
        d = (2 * kappa + 1) ** 2 + 1
        need += 8 * ((_ROW_BLOCK + 2 * kappa) * s1 * d + s1 * s1)
    avail = _available_memory()
    if need > avail:
        raise ValidationError(
            f"n={params.n}, gamma={params.gamma}, half={half} needs about "
            f"{need / 2**20:.0f} MiB for the plan and one replicate (FFT "
            f"period {P}), but only {avail / 2**20:.0f} MiB is available"
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
    beta = getattr(kernel, "beta_decay", -math.inf)
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


def _inner_weights(kernel: KernelSpec, params: SchemeParams) -> np.ndarray:
    """Weights multiplying the exactly-integrated power cells.

    w_j = L(r_j / n) at the policy's representative radius; the central cell
    uses either the optimal radius or the L2-optimal averaged coefficient.
    """
    n, kappa, policy = params.n, params.kappa, params.policy
    offs = [(a, b) for a in range(-kappa, kappa + 1) for b in range(-kappa, kappa + 1)]
    w = np.empty(len(offs))
    for idx, j in enumerate(offs):
        if j == (0, 0) and policy.central_mode == "optimal_L":
            w[idx] = central_L_coefficient(kernel, n)
        else:
            r = representative_radius(j, kernel.alpha, policy)
            w[idx] = kernel.eval_L(np.asarray(r / n))
    return w


def _step_kernel_octant(kernel: KernelSpec, params: SchemeParams,
                        inner: bool) -> np.ndarray:
    """g(r_k / n) on the canonical cells a >= b >= 0 of the window max|k| <=
    N = n_trunc, cell (a, b) at index a(a+1)/2 + b.

    With `inner` (hybrid), the inner block max|k| <= kappa is zero and r_k
    is the policy's radius: the midpoint radius |k|, or under the "optimal"
    mode the L2-optimal radius box(k, alpha)**(1/alpha).  Without (Riemann),
    r_k is the midpoint radius, except at the central cell, where the
    midpoint sits on the singularity and the optimal radius is used.  Both
    radii depend on k only through its octant representative (a, b) =
    (max|k_i|, min|k_i|), so g is evaluated once per canonical cell.
    """
    n, N, alpha = params.n, params.n_trunc, kernel.alpha
    a = np.repeat(np.arange(N + 1), np.arange(1, N + 2))
    b = np.arange(a.size) - a * (a + 1) // 2
    first = (params.kappa + 1) * (params.kappa + 2) // 2 if inner else 0
    a, b = a[first:].astype(float), b[first:].astype(float)
    if inner and params.policy.mode == "optimal":
        r = box_power_integrals(a, b, alpha) ** (1.0 / alpha)
    else:
        r = np.hypot(a, b)
    if not inner:
        r[0] = optimal_b_norm((0, 0), alpha)
    octant = np.zeros(first + r.size)
    octant[first:] = kernel.eval_g(r / n)
    return octant


def _octant_rows(octant: np.ndarray, N: int, r0: int = 0,
                 k: int | None = None) -> np.ndarray:
    """Rows r0..r0+k-1 (default: all) of the centred (2N+1)^2 step-kernel
    matrix, whose cell (i, j) holds the octant entry of (max(|i|, |j|),
    min(|i|, |j|))."""
    if k is None:
        k = 2 * N + 1 - r0
    i = np.abs(np.arange(r0 - N, r0 - N + k))[:, None]
    j = np.abs(np.arange(-N, N + 1))[None, :]
    hi, lo = np.maximum(i, j), np.minimum(i, j)
    return octant[hi * (hi + 1) // 2 + lo]


def _octant_sq_sum(octant: np.ndarray, N: int) -> float:
    """Sum of squares over the (2N+1)^2 matrix an octant fills: a cell
    a > b > 0 stands for 8 cells, one on an axis or the diagonal for 4, the
    centre for 1."""
    a = np.repeat(np.arange(N + 1), np.arange(1, N + 2))
    b = np.arange(a.size) - a * (a + 1) // 2
    mult = np.where((b == 0) | (a == b), 4, 8)
    mult[0] = 1
    return float(np.sum(mult * octant**2))


def _kernel_spectrum(octant: np.ndarray, N: int, period: int,
                     workers: int | None) -> np.ndarray:
    """rfft2 at (period, period) of the step-kernel matrix, filled a block of
    rows at a time from its octant (the dense matrix is never built)."""
    rows = _padded_rows(lambda r0, k: _octant_rows(octant, N, r0, k),
                        2 * N + 1, period)
    return _row_spectrum(rows, period, workers)


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
    fft_a: np.ndarray            # rfft2 of a_matrix at period fshape
    fshape: int                  # next_fast_len(S) of the (S, S) noise sheet
    a_sq_sum: float              # sum of a_matrix**2, for scheme_variance

    @property
    def out_side(self) -> int:
        return 2 * self.half + 1

    @property
    def a_matrix(self) -> np.ndarray:
        """The (2N+1)^2 step kernel, rebuilt on each access: the plan keeps
        only its spectrum."""
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
    m0 = params.n if half is None else int(half)
    if m0 < 1:
        raise ValidationError(f"output half-width must be >= 1, got {m0}")
    _check_memory(params, m0, params.kappa if inner else None)
    _rate_warning(kernel, params)
    block = weights = None
    if inner:
        block = build_block(kernel.alpha, params.kappa, params.n)
        weights = _inner_weights(kernel, params)
    octant = _step_kernel_octant(kernel, params, inner)
    fsh = _sheet_period(params, m0)
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


def _simulate(kernel, params, vol, replicate, plan, rng_noise, rng_vol, half,
              workers, inner: bool) -> FieldGrid:
    """One replicate of either step-kernel engine; `inner` selects hybrid
    (the plan must carry a block) or Riemann (it must not)."""
    if vol is None:
        vol = ConstantVol(1.0)
    vol.validate_against(kernel)
    if plan is None:
        # through the public names, so that wrappers installed on them see
        # the cold runs' plan builds
        prepare = prepare_hybrid if inner else prepare_riemann
        plan = prepare(kernel, params, half=half, workers=workers)
    elif (plan.block is not None) != inner:
        raise ValidationError(
            f"plan was prepared for the {'Riemann' if inner else 'hybrid'} scheme")
    elif plan.kernel != kernel or plan.params != params or (
        half is not None and plan.half != int(half)
    ):
        raise ValidationError("plan was prepared for different settings")
    m0 = plan.half
    n, kappa, N = params.n, params.kappa, params.n_trunc
    side = 2 * m0 + 1
    S = 2 * (N + m0) + 1

    const = vol.constant_value
    sigma = None
    if const is None:
        if rng_vol is None:
            rng_vol = rng_stream(params.seed, 1, replicate)
        sigma = vol.realize(n, N + m0, rng_vol, workers)
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
    values = _convolved_block(spec, plan.fft_a, 2 * N, side, workers)

    if plan.block is not None:
        values = x_tilde + values
    if const is not None and const != 1.0:
        values = const * values
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
    rng_vol: np.random.Generator | None = None,
    half: int | None = None,
    workers: int | None = None,
) -> FieldGrid:
    """Simulate one replicate of the field by the hybrid scheme.

    The inner part sums the exactly-integrated power cells with the policy's
    L-weights (direct summation, O(n^2) per offset); the outer part is one
    FFT convolution of the step kernel with sigma-modulated plain noise.
    Noise streams: rng_stream(seed, 0, replicate) for the field and
    rng_stream(seed, 1, replicate) for the volatility, unless explicit
    generators are passed.  The noise is streamed in row blocks (see the
    module docstring), so neither noise family is held whole.  A plan from
    prepare_riemann is rejected with ValidationError.
    """
    return _simulate(kernel, params, vol, replicate, plan, rng_noise, rng_vol,
                     half, workers, inner=True)


def riemann_simulate(
    kernel: KernelSpec,
    params: SchemeParams,
    vol: VolatilityModel | None = None,
    replicate: int = 0,
    *,
    plan: HybridPlan | None = None,
    rng_noise: np.random.Generator | None = None,
    rng_vol: np.random.Generator | None = None,
    half: int | None = None,
    workers: int | None = None,
) -> FieldGrid:
    """Simulate one replicate by the pure step-function (Riemann-sum) scheme.

    All cells use iid plain noise N(0, 1/n^2); kappa plays no role.  The
    output depends only on (kernel, n, gamma, seed/replicate, vol).  A plan
    from prepare_hybrid is rejected with ValidationError.
    """
    return _simulate(kernel, params, vol, replicate, plan, rng_noise, rng_vol,
                     half, workers, inner=False)


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
    a, b = np.tril_indices(h + 1)
    keep = a >= old
    a, b = a[keep], b[keep]
    r = np.hypot(b.astype(float), a.astype(float)) / n
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
    rng: np.random.Generator | None = None,
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
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValidationError(f"n must be a positive integer, got {n}")
    if not (math.isfinite(variance) and variance > 0.0):
        raise ValidationError(f"variance must be positive, got {variance}")
    side = 2 * n + 1
    w = fft_workers(workers)

    M = _fft.next_fast_len(2 * side, real=True)
    table = np.empty((0, 0))
    lam = None
    worst = None
    for _ in range(max_doublings + 1):
        table = _lag_table(correlation, variance, n, table, M // 2)
        idx = np.arange(M)
        d = np.minimum(idx, M - idx)
        base = table[d[:, None], d[None, :]]
        spec = _fft.fft2(base, workers=w).real
        mx = spec.max()
        mn = spec.min()
        if mn >= -1e-10 * mx:
            lam = np.where(spec < 0.0, 0.0, spec)
            break
        worst = mn
        M = _fft.next_fast_len(2 * M, real=True)
    if lam is None:
        raise EmbeddingError(
            f"circulant embedding not nonnegative definite after "
            f"{max_doublings} doublings (most negative eigenvalue {worst:.6e})"
        )

    if rng is None:
        rng = rng_stream(seed, 0, replicate)
    zr = rng.standard_normal((M, M))
    zi = rng.standard_normal((M, M))
    f = _fft.fft2(np.sqrt(lam) * (zr + 1j * zi), workers=w)
    values = f.real[:side, :side] / M
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
    inner = 0.0
    for idx, j in enumerate(plan.block.offsets):
        a, b = abs(j[0]), abs(j[1])
        box = box_power_integral((max(a, b), min(a, b)), 2.0 * alpha)
        inner += plan.weights[idx] ** 2 * box
    inner *= float(n) ** (-2.0 - 2.0 * alpha)
    return inner + outer
