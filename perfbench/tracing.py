"""In-memory span tracer that wraps vmma's public functions from outside.

A span covers one call of a wrapped function.  Its self time is its duration
minus the time covered by the spans it caused (its direct children), so a
layer's figure excludes the layers it calls.  Spans are aggregated by name
as they close; counters record work sizes taken from argument or result
shapes, which repeat exactly from run to run.

Wrapping rebinds every module-level name in the ``vmma`` package that refers
to the original function, so names bound by ``from .fields import ...`` in
``analysis`` and ``cli`` are caught too.  ``uninstall`` restores them.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Nested perf_counter spans plus named counters, aggregated by name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._open = []       # child time accumulated by each open span
        self._patches = []    # (owner, attribute, original), in install order

    def count(self, name: str, value: int):
        self.counts[name] += int(value)

    def _wrapper(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                children = self._open.pop()
                self.self_s[span] += duration - children
                self.calls[span] += 1
                if self._open:
                    self._open[-1] += duration
            if counter is not None:
                for cname, value in counter(args, result):
                    self.count(cname, value)
            return result

        return traced

    def wrap_function(self, module, attr: str, name, counter=None):
        """Wrap ``module.attr`` and every other vmma binding of the same object.

        name is the span name, or a callable (args, kwargs) -> span name;
        counter, if given, maps (args, result) to (counter name, value) pairs.
        """
        original = getattr(module, attr)
        traced = self._wrapper(original, name, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "vmma" or mod_name.startswith("vmma.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def wrap_method(self, cls, attr: str, name, counter=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, counter))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def table(self) -> dict:
        """Aggregated spans: name -> {calls, self_s}, plus the counters."""
        spans = {k: {"calls": self.calls[k], "self_s": self.self_s[k]}
                 for k in sorted(self.calls)}
        return {"spans": spans, "counts": dict(sorted(self.counts.items()))}


# ---------------------------------------------------------------------------
# The layers measured in vmma

# Per-layer metrics and units.  A name ending in ".s" or ".self_s" is the
# self time of the span named by the rest; any other name is a counter.
LAYER_METRICS = (
    ("fields.prepare_hybrid.s", "s"),
    ("fields.prepare_hybrid.calls", "count"),
    ("fields.prepare_riemann.s", "s"),
    ("fields.sample_noise.s", "s"),
    ("fields.sample_noise.normals", "count"),
    ("fields.hybrid_simulate.self_s", "s"),
    ("fields.riemann_simulate.self_s", "s"),
    ("fields.vol_realize.s", "s"),
    ("fields.circulant_simulate.s", "s"),
    ("fields.circulant.correlation_points", "count"),
    ("kernels.bessel_k.s", "s"),
    ("kernels.bessel_k.points", "count"),
    ("analysis.hybrid_mse.n20.s", "s"),
    ("analysis.hybrid_mse.n40.s", "s"),
    ("analysis.hybrid_mse.n80.s", "s"),
    ("covariance.j_constant.s", "s"),
    ("covariance.build_block.s", "s"),
    ("analysis.square_increment_dim.s", "s"),
    ("analysis.empirical_variogram.s", "s"),
    ("gridio.write_grid.s", "s"),
    ("gridio.write_grid.bytes", "bytes"),
    ("cli.self_s", "s"),
)


def layer_values(tracer: Tracer) -> dict:
    """Current value of every per-layer metric (0 for layers not reached)."""
    out = {}
    for metric, _unit in LAYER_METRICS:
        for suffix in (".self_s", ".s"):
            if metric.endswith(suffix):
                out[metric] = tracer.self_s.get(metric[: -len(suffix)], 0.0)
                break
        else:
            out[metric] = tracer.counts.get(metric, 0)
    return out


def _normals(args, result):
    w1, plain = result  # the correlated family drew one more component
    yield "fields.sample_noise.normals", w1.shape[0] * w1.shape[1] * (w1.shape[2] + 1) + plain.size


def install_vmma_spans(tracer: Tracer):
    """Wrap the public vmma functions behind every per-layer metric."""
    from vmma import analysis, cli, covariance, fields, gridio, kernels

    def once(name):
        return lambda args, result: [(name, 1)]

    t = tracer
    t.wrap_function(fields, "prepare_hybrid", "fields.prepare_hybrid",
                    once("fields.prepare_hybrid.calls"))
    t.wrap_function(fields, "prepare_riemann", "fields.prepare_riemann")
    t.wrap_function(fields, "sample_noise", "fields.sample_noise", _normals)
    t.wrap_function(fields, "hybrid_simulate", "fields.hybrid_simulate")
    t.wrap_function(fields, "riemann_simulate", "fields.riemann_simulate")
    t.wrap_method(fields.ExpVmmaVolatility, "realize", "fields.vol_realize")
    t.wrap_function(fields, "circulant_simulate", "fields.circulant_simulate")
    t.wrap_function(kernels, "bessel_k", "kernels.bessel_k",
                    lambda args, result: [("kernels.bessel_k.points", np.size(args[1]))])
    t.wrap_function(analysis, "hybrid_mse",
                    lambda args, kwargs: "analysis.hybrid_mse.n%d" % (
                        args[1] if len(args) > 1 else kwargs["params"]).n)
    t.wrap_function(analysis, "square_increment_dim", "analysis.square_increment_dim")
    t.wrap_function(analysis, "empirical_variogram", "analysis.empirical_variogram")
    t.wrap_function(covariance, "j_constant", "covariance.j_constant")
    t.wrap_function(covariance, "build_block", "covariance.build_block")
    t.wrap_function(gridio, "write_grid", "gridio.write_grid",
                    lambda args, result: [("gridio.write_grid.bytes", os.path.getsize(result))])
    t.wrap_function(cli, "main", "cli")
