"""Machine-speed probe used to scale the benchmark's times.

The VM this benchmark was tuned on shares its host, and the speed it gives
one process drifts by 20-35 % over minutes as other jobs come and go.
A slower phase stretches the program and this probe alike, so each time is
reported as ``raw * PROBE_REF_S / probe``: its value at the speed the
reference machine had when the probe took ``PROBE_REF_S`` seconds.  A
change to vmma moves the raw time and not the probe, so it shows in full.

The probe mixes the kinds of work vmma spends its time on: first-touch page
faults on a fresh array, Bessel K, a real 2-D FFT and normal draws.  Its
arrays stay small (about 10 MB) so that it never sets a workload's peak
memory.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import fft, special

PROBE_REF_S = 0.022  # median probe time on the reference machine, quiet phase

_X = np.linspace(0.01, 5.0, 50_000)
_A = np.random.default_rng(0).standard_normal((256, 256))


def _once() -> float:
    t0 = time.perf_counter()
    np.ones(1 << 20)                              # 8 MB of fresh pages
    special.kv(0.25, _X)
    fft.rfft2(_A)
    np.random.default_rng(1).standard_normal(200_000)
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds for one probe, best of three."""
    return min(_once() for _ in range(3))


def scale(raw: float, probe_s: float) -> float:
    """raw seconds at the reference machine speed."""
    return raw * PROBE_REF_S / probe_s
