"""Tests for the command-line interface: argument handling, config merging,
output files, exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmma.analysis import mse_study
import vmma.cli as cli_mod
from vmma.cli import build_parser, format_volatility, main, parse_volatility
from vmma.covariance import EvaluationPolicy
from vmma.errors import QuadratureError, ValidationError
from vmma.fields import (ConstantVol, ExpVmmaVolatility, ProvidedGridVol,
                         SchemeParams, hybrid_simulate)
from vmma.gridio import read_vmg, write_grid
from vmma.kernels import ExpDecay, Matern, PurePower, format_kernel, parse_kernel


# ---------------------------------------------------------------------------
# volatility grammar
# ---------------------------------------------------------------------------


def test_parse_volatility_constant():
    v = parse_volatility("const:2.5")
    assert isinstance(v, ConstantVol)
    assert v.constant_value == 2.5


def test_parse_volatility_expvmma():
    v = parse_volatility("expvmma:expdecay:alpha=-0.2")
    assert isinstance(v, ExpVmmaVolatility)
    assert isinstance(v.inner_kernel, ExpDecay)
    assert v.inner_kernel.alpha == -0.2


def test_volatility_round_trip():
    for text in ("const:1.5", "expvmma:expdecay:alpha=-0.2"):
        v = parse_volatility(text)
        assert parse_volatility(format_volatility(v)) == v


def _reals(lo, hi=None):
    """Finite floats in (lo, hi), as Python or NumPy floats."""
    x = st.floats(lo, hi, exclude_min=True, exclude_max=hi is not None,
                  allow_infinity=False)
    return x | x.map(np.float64)


_KERNELS = st.one_of(
    st.builds(Matern, _reals(0.0, 1.0), _reals(0.0)),
    st.builds(ExpDecay, _reals(-1.0, 0.0)),
    st.builds(PurePower, _reals(-1.0, 0.0), _reals(0.0)),
)


@settings(max_examples=200)
@given(kernel=_KERNELS, c=_reals(0.0))
def test_grammar_writes_every_model_exactly(kernel, c):
    # every field of every kernel family and grammar volatility survives
    # its text form bit for bit
    assert parse_kernel(format_kernel(kernel)) == kernel
    for vol in (ConstantVol(c), ExpVmmaVolatility(kernel)):
        assert parse_volatility(format_volatility(vol)) == vol


def test_parse_volatility_rejects_malformed():
    for bad in ("const", "const:0", "const:-1", "const:abc", "gauss:1",
                "expvmma:", ""):
        with pytest.raises(ValidationError):
            parse_volatility(bad)


def test_format_volatility_rejects_provided_grid():
    # a realised sigma grid has no text form
    with pytest.raises(ValidationError):
        format_volatility(ProvidedGridVol(np.ones((3, 3))))


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------


def _simulate_args(tmp_path, name, extra=(), gamma=("--gamma", "0.3")):
    # gamma=() for the circulant scheme, which takes no --gamma
    out = tmp_path / name
    return [
        "simulate",
        "--kernel", "matern:nu=0.5,lambda=1",
        "--n", "12",
        *gamma,
        "--seed", "4",
        "--out", str(out),
        *extra,
    ], out


def test_simulate_writes_vmg(tmp_path, capsys):
    argv, out = _simulate_args(tmp_path, "f.vmg")
    assert main(argv) == 0
    grid = read_vmg(out)
    assert grid.side == 25
    assert grid.spacing == pytest.approx(1.0 / 12.0)
    line = capsys.readouterr().out
    assert "scheme=hybrid" in line and "n=12" in line and str(out) in line


def test_simulate_same_seed_byte_identical(tmp_path):
    argv1, out1 = _simulate_args(tmp_path, "a.vmg")
    argv2, out2 = _simulate_args(tmp_path, "b.vmg")
    assert main(argv1) == 0
    assert main(argv2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    argv3, out3 = _simulate_args(tmp_path, "c.vmg", ["--replicate", "1"])
    assert main(argv3) == 0
    assert out1.read_bytes() != out3.read_bytes()


def test_simulate_multiple_formats(tmp_path):
    argv, out = _simulate_args(
        tmp_path, "f.vmg", ["--format", "vmg", "--format", "csv", "--format", "pgm"]
    )
    assert main(argv) == 0
    assert (tmp_path / "f.vmg").exists()
    assert (tmp_path / "f.csv").exists()
    assert (tmp_path / "f.pgm").exists()


def test_simulate_riemann_and_circulant(tmp_path):
    argv, out = _simulate_args(tmp_path, "r.vmg", ["--scheme", "riemann"])
    assert main(argv) == 0
    assert read_vmg(out).side == 25
    argv, out = _simulate_args(tmp_path, "c.vmg", ["--scheme", "circulant"],
                               gamma=())
    assert main(argv) == 0
    assert read_vmg(out).side == 25


def test_simulate_threads_do_not_change_output(tmp_path):
    argv1, out1 = _simulate_args(tmp_path, "t1.vmg", ["--threads", "1"])
    argv2, out2 = _simulate_args(tmp_path, "t2.vmg", ["--threads", "2"])
    assert main(argv1) == 0
    assert main(argv2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_threads_leave_environment_unchanged(tmp_path, monkeypatch):
    monkeypatch.delenv("VMMA_THREADS", raising=False)
    before = dict(os.environ)
    argv, out = _simulate_args(tmp_path, "env.vmg", ["--threads", "2"])
    assert main(argv) == 0
    assert "VMMA_THREADS" not in os.environ
    assert dict(os.environ) == before


def test_fft_free_commands_take_no_threads_option():
    for argv in (["mse", "--kernel", "matern:nu=0.5,lambda=1", "--threads", "2"],
                 ["covariance", "--alpha=-0.5", "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_simulate_policy_optimal_is_the_api_policy(tmp_path):
    vol = ["--vol", "expvmma:expdecay:alpha=-0.2"]
    argv, out = _simulate_args(tmp_path, "opt.vmg", ["--policy", "optimal", *vol])
    assert main(argv) == 0
    params = SchemeParams(n=12, gamma=0.3, seed=4,
                          policy=EvaluationPolicy(mode="optimal"))
    grid = hybrid_simulate(Matern(0.5, 1.0), params,
                           ExpVmmaVolatility(ExpDecay(-0.2)))
    api = write_grid(grid, tmp_path / "api.vmg", "vmg")
    assert out.read_bytes() == api.read_bytes()
    argv, mid = _simulate_args(tmp_path, "mid.vmg", vol)
    assert main(argv) == 0
    assert mid.read_bytes() != out.read_bytes()


def test_simulate_missing_kernel_exits_2(tmp_path):
    assert main(["simulate", "--n", "8", "--out", str(tmp_path / "x.vmg")]) == 2


def test_simulate_too_large_for_memory_exits_2(tmp_path, capsys):
    # n = 5000, gamma = 0.3 needs a ~150 GB far-field spectrum: the memory
    # preflight refuses it before building anything
    argv, out = _simulate_args(tmp_path, "big.vmg", ("--n", "5000"))
    assert main(argv) == 2
    assert "available" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_circulant_too_large_for_memory_exits_2(tmp_path, capsys,
                                                       monkeypatch):
    # 4 KiB available: the first torus at n = 12 (M = 50) needs about 64 KiB,
    # so the preflight refuses before the lag table is built
    import vmma.fields as fields_mod

    monkeypatch.setattr(fields_mod, "_available_memory", lambda: 4096)
    argv, out = _simulate_args(tmp_path, "big.vmg", ["--scheme", "circulant"],
                               gamma=())
    assert main(argv) == 2
    assert "available" in capsys.readouterr().err
    assert not out.exists()


_HUGE = "1" + "0" * 19   # 10**19, beyond a C ssize_t


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "2", "--gamma", "2000"],
    ["mse", "--gamma", "2000"],
    ["roughness", "--alphas=-0.5", "--schemes", "hybrid:1", "--gamma", "2000",
     "--replicates", "2"],
    ["simulate", "--n", "100", "--gamma", "100"],
    ["simulate", "--n", "100", "--gamma", "100", "--scheme", "riemann"],
    ["simulate", "--n", "1000000000", "--gamma", "1"],
    ["simulate", "--scheme", "circulant", "--n", _HUGE],
], ids=["simulate-n_trunc", "mse-n_trunc", "roughness-n_trunc",
        "hybrid-period", "riemann-period", "hybrid-fft-length",
        "circulant-torus"])
def test_out_of_range_sizes_exit_2(tmp_path, capsys, argv):
    # a truncation window beyond a float, or a noise sheet or torus beyond
    # every FFT length, is refused like any size that does not fit in
    # memory: exit 2 with a message, no traceback and no file
    out = tmp_path / "o.vmg"
    if argv[0] != "roughness":
        argv = argv + ["--kernel", "matern:nu=0.5,lambda=1"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_bad_kernel_exits_2(tmp_path, capsys):
    argv = ["simulate", "--kernel", "matern:nu=7", "--out", str(tmp_path / "x.vmg")]
    assert main(argv) == 2
    # and a volatility grammar string with a malformed constant
    argv = ["simulate", "--kernel", "matern:nu=0.5", "--vol", "const:abc",
            "--out", str(tmp_path / "x.vmg")]
    assert main(argv) == 2
    assert "bad constant volatility" in capsys.readouterr().err


def test_simulate_circulant_restrictions_exit_2(tmp_path):
    argv = [
        "simulate", "--scheme", "circulant", "--kernel", "expdecay:alpha=-0.5",
        "--out", str(tmp_path / "x.vmg"),
    ]
    assert main(argv) == 2
    argv = [
        "simulate", "--scheme", "circulant", "--kernel", "matern:nu=0.5",
        "--vol", "expvmma:expdecay:alpha=-0.2", "--out", str(tmp_path / "x.vmg"),
    ]
    assert main(argv) == 2


def test_numeric_failure_exits_3(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise QuadratureError("synthetic numeric failure")

    monkeypatch.setattr(cli_mod, "hybrid_simulate", boom)
    argv, _ = _simulate_args(tmp_path, "x.vmg")
    assert main(argv) == 3


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------


def test_config_file_supplies_values(tmp_path):
    cfg = {"kernel": "matern:nu=0.5,lambda=1", "n": 10, "seed": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "f.vmg"
    argv = ["simulate", "--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == 0
    assert read_vmg(out).side == 21


def test_flags_override_config(tmp_path):
    cfg = {"kernel": "matern:nu=0.5,lambda=1", "n": 10}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "f.vmg"
    argv = ["simulate", "--config", str(cfg_path), "--n", "8", "--out", str(out)]
    assert main(argv) == 0
    assert read_vmg(out).side == 17  # flag wins over config


def test_unknown_config_key_exits_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kernel": "matern:nu=0.5", "banana": 1}))
    argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "f.vmg")]
    assert main(argv) == 2


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2, 3]")  # not an object
    argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "f.vmg")]
    assert main(argv) == 2
    cfg_path.write_text("{not json")
    assert main(argv) == 2
    argv[2] = str(tmp_path / "missing.json")  # unreadable
    assert main(argv) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_verbose_echoes_config_json(tmp_path, capsys):
    argv, _ = _simulate_args(tmp_path, "v.vmg", ["--verbose"])
    assert main(argv) == 0
    err = capsys.readouterr().err
    echoed = json.loads(err)
    assert echoed["command"] == "simulate"
    assert echoed["n"] == 12
    assert echoed["kernel"] == "matern:nu=0.5,lambda=1"


@pytest.mark.parametrize("argv", [
    ["simulate", "--kernel", "matern:nu=0.5,lambda=1", "--n", "8",
     "--seed", "4", "--format", "vmg", "--format", "csv"],
    pytest.param(["simulate", "--kernel", "matern:nu=0.5,lambda=1",
                  "--scheme", "riemann", "--n", "8", "--gamma", "0.4",
                  "--seed", "4"], id="simulate-riemann"),
    pytest.param(["simulate", "--kernel", "matern:nu=0.5,lambda=1",
                  "--scheme", "circulant", "--n", "8", "--seed", "4"],
                 id="simulate-circulant"),
    ["roughness", "--alphas=-0.5", "--schemes", "hybrid:1,riemann",
     "--n", "10", "--replicates", "2", "--seed", "1"],
    ["mse", "--kernel", "matern:nu=0.5,lambda=1", "--n-list", "4,6,8"],
    ["covariance", "--alpha=-0.5", "--kappa", "1", "--n", "3"],
], ids=lambda argv: argv[0])
def test_verbose_echo_feeds_back_as_config(tmp_path, capsys, argv):
    run = tmp_path / "run"
    run.mkdir()
    assert main(argv + ["--out", str(run / "out"), "--verbose"]) == 0
    cfg = tmp_path / "echo.json"
    cfg.write_text(capsys.readouterr().err)
    first = {p.name: p.read_bytes() for p in run.iterdir()}
    for p in run.iterdir():
        p.unlink()
    assert main([argv[0], "--config", str(cfg)]) == 0
    assert {p.name: p.read_bytes() for p in run.iterdir()} == first


@pytest.mark.parametrize("command,cfg,key", [
    ("covariance", {"alpha": -0.5, "kappa": 1.7}, "kappa"),
    ("covariance", {"alpha": -0.5, "kappa": True}, "kappa"),
    ("covariance", {"alpha": -0.5, "kappa": "1.5"}, "kappa"),
    ("mse", {"kernel": "matern:nu=0.5,lambda=1", "n_list": [4, 6, 8],
             "gamma": True}, "gamma"),
    ("mse", {"kernel": "matern:nu=0.5,lambda=1", "n_list": [8.7, 12, 16]},
     "n_list"),
    ("simulate", {"kernel": "matern:nu=0.5,lambda=1", "n": 8,
                  "threads": 1.5}, "threads"),
    ("simulate", {"kernel": "matern:nu=0.5,lambda=1", "n": 8, "vol": 2}, "vol"),
    ("simulate", {"kernel": 5, "n": 8}, "kernel"),
    ("simulate", {"kernel": "matern:nu=0.5,lambda=1", "n": 8, "out": 5}, "out"),
    ("simulate", {"kernel": "matern:nu=0.5,lambda=1", "n": 8,
                  "formats": ["vmg", "png"]}, "formats"),
    ("simulate", {"kernel": "matern:nu=0.5,lambda=1", "n": 8,
                  "scheme": "Riemann"}, "scheme"),
    ("simulate", {"kernel": "matern:nu=0.5,lambda=1", "n": 8,
                  "policy": " Optimal "}, "policy"),
    ("simulate", {"kernel": "matern:nu=0.5,lambda=1", "n": 8,
                  "scheme": "circulant", "gamma": True}, "gamma"),
    ("covariance", {"alpha": 10**400}, "alpha"),
], ids=["float-int", "bool-int", "fractional-string", "bool-number",
        "float-in-int-list", "float-threads", "number-vol", "number-kernel",
        "number-out", "format-off-choices", "scheme-off-choices",
        "policy-off-choices", "bool-number-unused", "int-overflows-number"])
def test_config_values_are_cast_strictly(tmp_path, capsys, command, cfg, key):
    # a config value of the wrong JSON type, or outside its flag's choices,
    # is refused like the flag would be, never truncated or normalised, and
    # before any output is written: kappa 1.7 used to run kappa = 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


_IGNORED = [(key, scheme)
            for key, (_, _, kw) in cli_mod._OPTIONS["simulate"].items()
            if "schemes" in kw
            for scheme in ("hybrid", "riemann", "circulant")
            if scheme not in kw["schemes"]]


def test_ignored_options_are_the_papers():
    # gamma is the step-kernel schemes' truncation, kappa and the policy the
    # hybrid scheme's inner block; the exact circulant baseline reads none
    assert sorted(_IGNORED) == [("gamma", "circulant"), ("kappa", "circulant"),
                                ("kappa", "riemann"), ("policy", "circulant"),
                                ("policy", "riemann")]


@pytest.mark.parametrize("key,scheme", _IGNORED,
                         ids=[f"{s}-{k}" for k, s in _IGNORED])
@pytest.mark.parametrize("form", ["flag", "config"])
def test_option_the_scheme_ignores_exits_2(tmp_path, capsys, key, scheme,
                                           form):
    # a setting that cannot change the field is refused, naming it, before
    # any file is written, however it is given
    kind, default, _ = cli_mod._OPTIONS["simulate"][key]
    argv = ["simulate", "--kernel", "matern:nu=0.5,lambda=1", "--n", "8",
            "--scheme", scheme, "--out", str(tmp_path / "o.vmg")]
    if form == "flag":
        argv += ["--" + key, str(default)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: default}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert key in err and scheme in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == (
        [] if form == "flag" else ["cfg.json"])


def test_flag_rejects_fractional_kappa(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["covariance", "--alpha=-0.5", "--kappa", "1.7"])
    assert exc.value.code == 2


def test_config_accepts_integral_strings(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": -0.5, "kappa": "1", "n": "3"}))
    out, ref = tmp_path / "cfg.csv", tmp_path / "flag.csv"
    assert main(["covariance", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    assert main(["covariance", "--alpha=-0.5", "--kappa", "1", "--n", "3",
                 "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_config_for_another_command_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "mse", "alpha": -0.5}))
    assert main(["covariance", "--config", str(cfg)]) == 2
    assert "'mse' command" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# roughness command
# ---------------------------------------------------------------------------


def test_roughness_csv_outputs(tmp_path):
    out = tmp_path / "rough.csv"
    plot = tmp_path / "plot.csv"
    timing = tmp_path / "timing.csv"
    argv = [
        "roughness",
        "--alphas=-0.5,-0.3",
        "--schemes", "hybrid:1,riemann",
        "--n", "16",
        "--replicates", "3",
        "--seed", "1",
        "--out", str(out),
        "--plot-data", str(plot),
        "--timing-out", str(timing),
    ]
    assert main(argv) == 0

    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,scheme,kappa,mean_dim,var_dim,replicates"
    assert len(lines) == 1 + 4  # 2 alphas x 2 schemes

    plot_lines = plot.read_text().splitlines()
    assert plot_lines[0] == "scheme,kappa,alpha,mean_dim"
    assert len(plot_lines) == 1 + 4

    timing_lines = timing.read_text().splitlines()
    assert timing_lines[0] == "scheme,kappa,replicates,seconds"
    # one row per scheme for one-replicate cost and the full run
    assert len(timing_lines) == 1 + 2 * 2


def test_roughness_stdout_when_no_out(tmp_path, capsys):
    argv = [
        "roughness", "--alphas=-0.5", "--schemes", "hybrid:1",
        "--n", "16", "--replicates", "3",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("alpha,scheme,kappa,mean_dim")


def test_roughness_bad_scheme_exits_2():
    argv = ["roughness", "--alphas=-0.5", "--schemes", "fourier", "--n", "16"]
    assert main(argv) == 2


@pytest.mark.parametrize("form", ["flag", "config"])
def test_roughness_bad_alphas_exit_2(tmp_path, capsys, form):
    if form == "flag":
        argv = ["roughness", "--alphas=-0.5,zebra", "--schemes", "hybrid:1"]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alphas": ["-0.5", "zebra"],
                                        "schemes": ["hybrid:1"]}))
        argv = ["roughness", "--config", str(cfg_path)]
    assert main(argv) == 2
    assert "bad number list" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# mse command
# ---------------------------------------------------------------------------


def test_mse_csv_output(tmp_path):
    out = tmp_path / "mse.csv"
    argv = [
        "mse",
        "--kernel", "matern:nu=0.5,lambda=1",
        "--n-list", "8,12,16",
        "--gamma", "0.5",
        "--kappa", "1",
        "--out", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,D1,D2,D3,D4,E_n,scaled,J_ref"
    assert len(lines) == 1 + 3 + 1  # header, three rows, rate comment
    assert lines[-1].startswith("# rate,")
    first = lines[1].split(",")
    assert int(first[0]) == 8
    # E_n decreasing in n
    e_col = [float(l.split(",")[5]) for l in lines[1:4]]
    assert e_col[0] > e_col[1] > e_col[2]


def test_mse_policy_optimal_is_the_api_policy(tmp_path):
    argv = ["mse", "--kernel", "matern:nu=0.5,lambda=1", "--n-list", "8,12,16"]
    out, mid = tmp_path / "opt.csv", tmp_path / "mid.csv"
    assert main([*argv, "--policy", "optimal", "--out", str(out)]) == 0
    report = mse_study(Matern(0.5, 1.0), [8, 12, 16], gamma=0.5, kappa=1,
                       policy=EvaluationPolicy(mode="optimal"))
    assert out.read_bytes() == ("\n".join(report.to_csv_lines()) + "\n").encode()
    assert main([*argv, "--out", str(mid)]) == 0
    assert mid.read_bytes() != out.read_bytes()


def test_mse_requires_kernel():
    assert main(["mse", "--n-list", "8,12,16"]) == 2


def test_mse_bad_n_list_in_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kernel": "matern:nu=0.5,lambda=1",
                                    "n_list": [8, "twelve", 16]}))
    assert main(["mse", "--config", str(cfg_path)]) == 2
    assert "bad integer list" in capsys.readouterr().err


def test_mse_kernel_vanishing_at_one_over_n_exits_2(capsys):
    argv = ["mse", "--kernel", "power:alpha=-0.3,R=0.02", "--n-list", "10,20,40"]
    assert main(argv) == 2
    assert "L(1/n)" in capsys.readouterr().err


def test_mse_window_too_large_for_memory_exits_2(capsys):
    # n_trunc = 4**101: the step-kernel sums' task list alone would outgrow
    # any memory, so the memory check refuses it before any work
    argv = ["mse", "--kernel", "matern:nu=0.5,lambda=1", "--gamma", "100",
            "--n-list", "4,6,8"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "MiB" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# covariance command
# ---------------------------------------------------------------------------


def test_covariance_dump_kappa_zero(tmp_path, capsys):
    argv = ["covariance", "--alpha", "-0.5", "--kappa", "0", "--n", "1"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "i,j,value"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 4  # 2x2 joint matrix at kappa=0
    vals = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
    # diagonal; the power-cell variance is the frozen central box integral
    assert vals[(0, 0)] == pytest.approx(3.5254943480781726, rel=1e-12)
    assert vals[(1, 1)] == pytest.approx(1.0, rel=1e-15)
    # symmetric off-diagonal
    assert vals[(0, 1)] == vals[(1, 0)]


def test_covariance_symmetry_kappa_one(tmp_path):
    out = tmp_path / "cov.csv"
    argv = ["covariance", "--alpha", "-0.3", "--kappa", "1", "--n", "5",
            "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 100  # 10x10 block
    vals = {}
    for l in lines[1:]:
        i, j, v = l.split(",")
        vals[(int(i), int(j))] = float(v)
    for i in range(10):
        for j in range(10):
            assert vals[(i, j)] == vals[(j, i)]


def test_covariance_bad_alpha_exits_2(capsys):
    assert main(["covariance", "--alpha", "0.5", "--kappa", "0", "--n", "1"]) == 2
    assert main(["covariance", "--kappa", "0", "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert "--alpha is required" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


def test_module_invocation_smoke(tmp_path):
    out = tmp_path / "m.vmg"
    r = subprocess.run(
        [
            sys.executable, "-m", "vmma.cli",
            "simulate", "--kernel", "expdecay:alpha=-0.5",
            "--n", "8", "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert out.exists()
    assert "scheme=hybrid" in r.stdout


def test_module_invocation_error_smoke():
    r = subprocess.run(
        [sys.executable, "-m", "vmma.cli", "simulate", "--kernel", "nope:1"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 2
    assert "error" in r.stderr.lower()


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------


def _readme_commands():
    """Each `vmma ...` command of the README's sh blocks, as an argv."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines if ln.startswith("vmma ")]


def test_readme_commands_parse():
    # parse only: a renamed or dropped option breaks this, not the docs
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"simulate", "roughness", "mse",
                                              "covariance"}
    for argv in commands:
        build_parser().parse_args(argv)
