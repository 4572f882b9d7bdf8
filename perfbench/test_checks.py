"""Tests of the benchmark's own checks and tracer.

Each check must pass on the real output and fail on a deliberately wrong
one.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py

The MSE fixture runs the full three-rung study (about 20 s).
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from vmma import analysis, cli, covariance, fields, gridio, kernels  # noqa: E402


class SmallModulatedField(workloads.ModulatedField):
    N = 16


def test_direct_sum_rejects_field_shifted_by_one_cell(tmp_path):
    w = SmallModulatedField(5, tmp_path)
    w.setup()
    assert w.run_round(0) == 0
    values = gridio.read_vmg(w.paths[0]).values
    points, refs = w.direct_sums(replicate=0)
    assert checks.check_point_values(values, w.N, points, refs) == []
    for axis in (0, 1):
        shifted = np.roll(values, 1, axis=axis)
        assert checks.check_point_values(shifted, w.N, points, refs)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    w = workloads.BaselineVariogram(0, tmp_path_factory.mktemp("baseline"))
    w.setup()
    for k in range(4):
        w.run_round(k)
    return w


def test_variogram_check_rejects_target_with_wrong_lambda(baseline):
    w = baseline
    lags = np.arange(1, w.MAX_LAG + 1) / w.N
    good = checks.variogram_target(w.variance, w.NU, w.LAM, lags)
    assert checks.check_variograms(w.circ, w.hyb, good) == []
    for lam in (0.3, 0.5):
        wrong = checks.variogram_target(w.variance, w.NU, lam, lags)
        assert checks.check_variograms(w.circ, w.hyb, wrong)


@pytest.fixture(scope="module")
def mse():
    w = workloads.MseLadder(0, None)
    w.setup()
    w.run_round(0)
    report = w.reports[0]
    N0 = fields.SchemeParams(n=w.NS[0], gamma=w.GAMMA, kappa=w.KAPPA).n_trunc
    d23_ref = checks.step_kernel_error(w.NU, w.LAM, w.NS[0], N0, w.KAPPA)
    e = report.entries

    def check(j_ref=report.j_ref, d23=e[0].d2 + e[0].d3):
        return checks.check_mse(w.NS, [x.e_n for x in e], [x.scaled for x in e],
                                report.rate, j_ref, w.kernel.alpha,
                                checks.matern_L0(w.NU, w.LAM), d23, d23_ref)

    return check, e[0].d2 + e[0].d3


def test_mse_check_rejects_perturbed_d2_d3(mse):
    check, d23 = mse
    assert check() == []
    assert check(d23=d23 * (1.0 + 1e-9))


def test_mse_check_rejects_j_at_kappa_2(mse):
    check, _ = mse
    assert check(j_ref=covariance.j_constant(-0.5, 2))


def test_roughness_check_rejects_unbiased_riemann():
    def rows(riemann_mean):
        return [analysis.RoughnessRow(alpha=-0.5, scheme="hybrid", kappa=1,
                                      mean_dim=2.49, var_dim=0.0, replicates=2),
                analysis.RoughnessRow(alpha=-0.5, scheme="riemann", kappa=None,
                                      mean_dim=riemann_mean, var_dim=0.0, replicates=2)]

    assert checks.check_roughness(rows(2.30), [-0.5]) == []
    assert checks.check_roughness(rows(2.45), [-0.5])


def test_tracer_catches_from_imports_and_restores_them():
    originals = (fields.hybrid_simulate, kernels.bessel_k, cli.main)
    tracer = tracing.Tracer()
    tracing.install_vmma_spans(tracer)
    try:
        assert analysis.hybrid_simulate is fields.hybrid_simulate is cli.hybrid_simulate
        assert fields.hybrid_simulate is not originals[0]
        assert kernels.bessel_k is not originals[1]
        kernel = kernels.Matern(0.5, 1.0)
        params = fields.SchemeParams(n=8, gamma=0.3, kappa=1, seed=1)
        report = analysis.roughness_study([-0.5], ["hybrid:1"], n=8, replicates=2)
        assert report.rows[0].replicates == 2
        fields.hybrid_simulate(kernel, params)
        values = tracing.layer_values(tracer)
        assert values["fields.prepare_hybrid.calls"] == 2
        assert values["kernels.bessel_k.points"] > 0
        assert values["fields.hybrid_simulate.self_s"] > 0.0
    finally:
        tracer.uninstall()
    assert (fields.hybrid_simulate, kernels.bessel_k, cli.main) == originals
    assert analysis.hybrid_simulate is originals[0]


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
