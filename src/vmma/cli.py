"""Command-line front end.

Four subcommands:

* ``vmma simulate``   — one field realization, written in any of the three
  grid formats (VMG1 binary, CSV, PGM heatmap).
* ``vmma roughness``  — the Monte-Carlo roughness study (dimension estimates
  per exponent and scheme), CSV report plus optional plot/timing data.
* ``vmma mse``        — deterministic error decomposition of the hybrid
  scheme along an n-list, CSV with the limiting constant and fitted rate.
* ``vmma covariance`` — dump of the inner-block covariance matrix.

Every command accepts ``--config FILE`` (JSON with long option names as
keys; explicit flags always win) and ``--verbose`` (echoes the effective
configuration to stderr as JSON that ``--config`` accepts back).  Each
option is declared once, in ``_OPTIONS``, with its kind, default and
argparse keywords; that one entry makes the flag, the config key, the
strict cast and choices check of every config and effective value (all
before any work starts) and the echo.  ``simulate`` takes only the options
its scheme reads: ``--gamma`` is for the hybrid and Riemann schemes,
``--kappa`` and ``--policy`` for the hybrid scheme alone, and the exact
circulant baseline takes none of the three.  Another scheme refuses such an
option, as a flag or a config key, with exit 2 before any work, and its
echo leaves the option out.
``simulate`` and ``roughness`` also accept ``--threads``, which caps the FFT
worker count of that call (1 without it) and never changes any output value;
``mse`` and ``covariance`` run no FFT and take no ``--threads``.  Every
field's normal draw runs on one extra thread beside the caller's, with or
without ``--threads``, which caps the FFT workers only; ``mse`` likewise
sums its step-kernel cells on the caller's thread and one extra thread,
with the values of a serial run bit for bit.

Exit codes: 0 success, 2 argument/usage errors, 3 numeric failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .analysis import (
    mse_study,
    parse_scheme,
    roughness_study,
)
from .covariance import EvaluationPolicy, build_block
from .errors import NumericError, ValidationError, VmmaError, check_int
from .fields import (
    ConstantVol,
    ExpVmmaVolatility,
    SchemeParams,
    VolatilityModel,
    circulant_simulate,
    hybrid_simulate,
    riemann_simulate,
)
from .gridio import write_grid
from .kernels import Matern, format_kernel, matern_correlation, parse_kernel

__all__ = ["main", "parse_volatility", "format_volatility"]

_PROG = "vmma"


# ---------------------------------------------------------------------------
# Volatility grammar


def parse_volatility(text: str) -> VolatilityModel:
    """Parse 'const:<value>' or 'expvmma:<kernel grammar>'."""
    s = text.strip()
    head, sep, rest = s.partition(":")
    head = head.lower()
    if head == "const":
        if not sep:
            raise ValidationError("volatility 'const' needs a value: const:<v>")
        try:
            c = float(rest)
        except ValueError:
            raise ValidationError(f"bad constant volatility {rest!r}") from None
        return ConstantVol(c)
    if head == "expvmma":
        if not sep or not rest:
            raise ValidationError(
                "volatility 'expvmma' needs an inner kernel: expvmma:<kernel>"
            )
        return ExpVmmaVolatility(inner_kernel=parse_kernel(rest))
    raise ValidationError(
        f"unknown volatility {text!r} (expected const:<v> or expvmma:<kernel>)"
    )


def format_volatility(vol: VolatilityModel) -> str:
    """Inverse of parse_volatility (canonical text form)."""
    if isinstance(vol, ConstantVol):
        return f"const:{float(vol.c)!r}"
    if isinstance(vol, ExpVmmaVolatility):
        return f"expvmma:{format_kernel(vol.inner_kernel)}"
    raise ValidationError(f"cannot format volatility of type {type(vol).__name__}")


# ---------------------------------------------------------------------------
# Options: each declared once


# _OPTIONS[command][key] = (kind, default, argparse keywords).  The key is the
# config key, the flag's dest and the --verbose echo key; the flag is
# "--" + key with "_" as "-", unless the keywords name another as "flag".
# kind is int, float, str or [kind] for a list (a JSON list or a
# comma-separated flag).  A simulate option that only some schemes read
# lists them as "schemes"; it is refused, and left out of the echo, for
# any other scheme.
_POLICIES = ["midpoint", "optimal"]
_THREADS = (int, None, dict(
    help="cap FFT worker count (default 1); never changes results"))
_OPTIONS = {
    "simulate": {
        "kernel": (str, None, dict(
            help="kernel grammar, e.g. matern:nu=0.5,lambda=1")),
        "scheme": (str, "hybrid", dict(choices=["hybrid", "riemann", "circulant"])),
        "n": (int, 100, dict(help="grid half-resolution (side 2n+1)")),
        "gamma": (float, 0.3, dict(
            schemes=["hybrid", "riemann"], help="truncation growth exponent")),
        "kappa": (int, 1, dict(
            schemes=["hybrid"],
            help="half-width of the exactly-integrated inner block")),
        "vol": (str, "const:1", dict(
            help="volatility: const:<v> or expvmma:<kernel>")),
        "seed": (int, 0, {}),
        "replicate": (int, 0, {}),
        "policy": (str, "midpoint", dict(
            choices=_POLICIES, schemes=["hybrid"],
            help="inner-block weight rule")),
        "out": (str, "field.vmg", dict(
            help="output path (extension follows format)")),
        "formats": ([str], ["vmg"], dict(
            flag="--format", action="append", choices=["vmg", "csv", "pgm"],
            help="output format; repeatable")),
        "threads": _THREADS,
    },
    "roughness": {
        "alphas": ([float], [-0.8, -0.7, -0.6, -0.5, -0.4, -0.3, -0.2, -0.1],
                   dict(help="comma-separated exponents")),
        "schemes": ([str], ["hybrid:0", "hybrid:1", "hybrid:2", "hybrid:3",
                            "riemann"],
                    dict(help="comma-separated: hybrid[:kappa] or riemann")),
        "n": (int, 100, {}),
        "gamma": (float, 0.3, {}),
        "replicates": (int, 100, {}),
        "seed": (int, 0, {}),
        "out": (str, None, dict(help="report CSV path (default stdout)")),
        "plot_data": (str, None, dict(
            help="write (alpha, mean_dim) pairs per scheme to this CSV")),
        "timing_out": (str, None, dict(
            help="write per-scheme wall times (1 and all replicates)")),
        "threads": _THREADS,
    },
    "mse": {
        "kernel": (str, None, dict(help="kernel grammar")),
        "n_list": ([int], [20, 40, 80], dict(
            help="comma-separated resolutions (>= 3 for the rate fit)")),
        "gamma": (float, 0.5, {}),
        "kappa": (int, 1, {}),
        "policy": (str, "midpoint", dict(choices=_POLICIES)),
        "out": (str, None, dict(help="CSV path (default stdout)")),
    },
    "covariance": {
        "alpha": (float, None, {}),
        "kappa": (int, 1, {}),
        "n": (int, 1, {}),
        "out": (str, None, dict(help="CSV path (default stdout)")),
    },
}


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    return cfg


def _effective(args: argparse.Namespace) -> tuple[dict, dict]:
    """The options of `args.command` as (raw, typed): `raw` is what
    --verbose echoes, `typed` what the command runs on.

    Merge precedence: explicit flag > config file > the table's default.
    Flags parse with None sentinels so 'explicitly given' is detectable.
    A "command" key, as the --verbose echo writes it, must name this
    subcommand, so an echoed configuration can be fed back via --config.
    Every config value, also one a flag overrides, and every effective
    value is cast strictly and checked against its choices here, before
    any work starts.  So is an option set, by flag or config, for a scheme
    outside its "schemes": it is refused, and left out of `raw` otherwise.
    """
    options = _OPTIONS[args.command]
    cfg = _load_config(args.config) if args.config else {}
    if cfg.get("command", args.command) != args.command:
        raise ValidationError(
            f"config is for the {cfg['command']!r} command, not {args.command!r}"
        )
    unknown = set(cfg) - set(options) - {"command"}
    if unknown:
        raise ValidationError(
            f"config keys not used by this command: {sorted(unknown)}"
        )
    raw, typed = {}, {}
    for key, (kind, default, kw) in options.items():
        choices = kw.get("choices")
        flag_val = getattr(args, key)
        raw[key] = flag_val if flag_val is not None else cfg.get(key, default)
        # null stands for "not given" only where the default is None
        if key in cfg and (cfg[key] is not None or default is not None):
            _cast(cfg[key], kind, key, choices)
        typed[key] = (None if raw[key] is None and default is None
                      else _cast(raw[key], kind, key, choices))
        # "scheme" precedes, in the table, every option that lists schemes
        schemes = kw.get("schemes")
        if schemes and typed["scheme"] not in schemes:
            if flag_val is not None or key in cfg:
                raise ValidationError(
                    f"{key} does not apply to the {typed['scheme']} scheme "
                    f"(only to {' and '.join(schemes)})")
            del raw[key]
    return raw, typed


_KINDS = {int: "integer", float: "number", str: "string"}


def _cast(value, kind, key, choices=None):
    """`value` as `kind` (int, float, str or [kind] for a list), or
    ValidationError naming `key`; a value outside `choices` is refused too.

    Config values arrive as JSON types and flag lists as strings, so the
    cast is strict: an integer is an int that is not a bool, or an integral
    string; a number is an int or float that is not a bool, or a numeric
    string; a string is a str.  Nothing is truncated or coerced from bool.
    """
    if isinstance(kind, list):
        return _csv(value, kind[0], key, choices)
    strict = isinstance(value, kind) or (kind is float and isinstance(value, int))
    if not isinstance(value, bool) and (strict or isinstance(value, str)):
        try:
            typed = kind(value)
        except (ValueError, OverflowError):
            pass
        else:
            if choices is None or typed in choices:
                return typed
    raise ValidationError(f"bad {_KINDS[kind]} {value!r} for {key}"
                          + (f" (choose from {', '.join(choices)})"
                             if choices else ""))


def _workers(threads) -> int | None:
    """FFT worker count from --threads; None leaves the default of 1."""
    return None if threads is None else check_int(threads, "--threads", lo=1)


def _csv(value, kind, key, choices=None) -> tuple:
    """A list from a config value (a JSON list) or a comma-separated flag,
    each item cast strictly to `kind` and checked against `choices`."""
    if isinstance(value, (list, tuple)):
        items = value
    else:
        items = [x.strip() for x in str(value).split(",") if x.strip()]
    try:
        return tuple(_cast(x, kind, key, choices) for x in items)
    except ValidationError:
        raise ValidationError(
            f"bad {_KINDS[kind]} list {value!r} for {key}"
        ) from None


def _write_lines(lines, out):
    if out is None or out == "-":
        for ln in lines:
            print(ln)
    else:
        with open(out, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands: each takes its typed options


def cmd_simulate(opt: dict) -> int:
    workers = _workers(opt["threads"])
    if not opt["kernel"]:
        raise ValidationError("--kernel is required")
    kernel = parse_kernel(opt["kernel"])
    vol = parse_volatility(opt["vol"])
    scheme, n = opt["scheme"], opt["n"]

    t0 = time.perf_counter()
    if scheme == "circulant":
        # the exact baseline is defined by a closed-form correlation, which
        # exists here for the Matern family at constant volatility only
        if not isinstance(kernel, Matern):
            raise ValidationError(
                "circulant baseline needs a matern kernel (closed-form correlation)"
            )
        if not isinstance(vol, ConstantVol):
            raise ValidationError("circulant baseline supports const volatility only")
        variance = vol.c**2 * kernel.g_squared_integral()
        grid = circulant_simulate(
            lambda r: matern_correlation(kernel.nu, kernel.lam, r),
            variance, n, seed=opt["seed"], replicate=opt["replicate"],
            workers=workers,
        )
        n_trunc = 0
    else:
        params = SchemeParams(n=n, gamma=opt["gamma"], kappa=opt["kappa"],
                              seed=opt["seed"],
                              policy=EvaluationPolicy(mode=opt["policy"]))
        n_trunc = params.n_trunc
        simulate = hybrid_simulate if scheme == "hybrid" else riemann_simulate
        grid = simulate(kernel, params, vol, replicate=opt["replicate"],
                        workers=workers)
    wall = time.perf_counter() - t0

    written = [str(write_grid(grid, opt["out"], fmt)) for fmt in opt["formats"]]
    print(f"scheme={scheme} n={n} n_trunc={n_trunc} wall={wall:.3f}s "
          f"wrote {' '.join(written)}")
    return 0


def cmd_roughness(opt: dict) -> int:
    workers = _workers(opt["threads"])
    schemes = [parse_scheme(s) for s in opt["schemes"]]

    report = roughness_study(
        opt["alphas"], schemes, n=opt["n"], gamma=opt["gamma"],
        replicates=opt["replicates"], seed=opt["seed"], workers=workers,
    )
    _write_lines(report.to_csv_lines(), opt["out"])

    if opt["plot_data"]:
        lines = ["scheme,kappa,alpha,mean_dim"]
        for sc in schemes:
            for row in report.rows:
                if row.scheme == sc.kind and row.kappa == sc.kappa:
                    kap = "" if row.kappa is None else str(row.kappa)
                    lines.append(f"{row.scheme},{kap},{row.alpha:.17g},{row.mean_dim:.17g}")
        _write_lines(lines, opt["plot_data"])

    if opt["timing_out"]:
        lines = ["scheme,kappa,replicates,seconds"]
        for sc in schemes:
            rows = [r for r in report.rows
                    if r.scheme == sc.kind and r.kappa == sc.kappa]
            kap = "" if sc.kappa is None else str(sc.kappa)
            t_first = sum(r.seconds_first for r in rows)
            t_total = sum(r.seconds_total for r in rows)
            lines.append(f"{sc.kind},{kap},1,{t_first:.6f}")
            lines.append(f"{sc.kind},{kap},{report.replicates},{t_total:.6f}")
        _write_lines(lines, opt["timing_out"])
    return 0


def cmd_mse(opt: dict) -> int:
    if not opt["kernel"]:
        raise ValidationError("--kernel is required")
    kernel = parse_kernel(opt["kernel"])
    report = mse_study(kernel, opt["n_list"], gamma=opt["gamma"],
                       kappa=opt["kappa"],
                       policy=EvaluationPolicy(mode=opt["policy"]))
    _write_lines(report.to_csv_lines(), opt["out"])
    return 0


def cmd_covariance(opt: dict) -> int:
    if opt["alpha"] is None:
        raise ValidationError("--alpha is required")
    block = build_block(opt["alpha"], opt["kappa"], opt["n"])
    lines = ["i,j,value"]
    for i in range(block.dim):
        for j in range(block.dim):
            lines.append(f"{i},{j},{block.matrix[i, j]:.17g}")
    _write_lines(lines, opt["out"])
    return 0


# ---------------------------------------------------------------------------
# Parser


_COMMANDS = {
    "simulate": (cmd_simulate, "simulate one field and write grid files"),
    "roughness": (cmd_roughness, "Monte-Carlo roughness study"),
    "mse": (cmd_mse, "deterministic hybrid-scheme error decomposition"),
    "covariance": (cmd_covariance, "dump an inner-block covariance matrix"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog=_PROG,
        description="Simulation and analysis of rough volatility-modulated "
                    "moving-average random fields on 2D grids.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for key, (kind, _, kw) in _OPTIONS[command].items():
            kw = dict(kw)
            flag = kw.pop("flag", "--" + key.replace("_", "-"))
            schemes = kw.pop("schemes", None)
            if schemes:
                kw["help"] = f"{kw['help']} ({' and '.join(schemes)} only)"
            sp.add_argument(flag, dest=key, default=None,
                            type=None if isinstance(kind, list) else kind, **kw)
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="JSON file with long option names as keys; flags win")
        sp.add_argument("--verbose", action="store_true",
                        help="echo the effective configuration to stderr")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        raw, opt = _effective(args)
        if args.verbose:
            print(json.dumps({"command": args.command, **raw}, sort_keys=True,
                             default=str), file=sys.stderr)
        return _COMMANDS[args.command][0](opt)
    except ValidationError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"{_PROG}: numeric failure: {exc}", file=sys.stderr)
        return 3
    except VmmaError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
