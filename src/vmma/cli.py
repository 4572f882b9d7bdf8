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
configuration to stderr as JSON that ``--config`` accepts back).
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
from .covariance import DEFAULT_POLICY, EvaluationPolicy, build_block
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


def _parse_policy(name: str) -> EvaluationPolicy:
    name = name.strip().lower()
    if name == "midpoint":
        return DEFAULT_POLICY
    if name == "optimal":
        return EvaluationPolicy(mode="optimal", central_mode="optimal_L")
    raise ValidationError(f"unknown policy {name!r} (midpoint or optimal)")


# ---------------------------------------------------------------------------
# Configuration plumbing


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


_STR_KEYS = ("kernel", "vol", "scheme", "policy", "out", "plot_data",
             "timing_out")


def _effective(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge precedence: explicit flag > config file > command default.

    Flags parse with None sentinels so 'explicitly given' is detectable.
    A "command" key, as the --verbose echo writes it, must name this
    subcommand, so an echoed configuration can be fed back via --config.
    The config's string options (kernel, vol, scheme, policy and the
    output paths) are cast strictly to str here, before any work starts.
    """
    cfg = _load_config(args.config) if args.config else {}
    if cfg.get("command", args.command) != args.command:
        raise ValidationError(
            f"config is for the {cfg['command']!r} command, not {args.command!r}"
        )
    unknown = set(cfg) - set(defaults) - {"command"}
    if unknown:
        raise ValidationError(
            f"config keys not used by this command: {sorted(unknown)}"
        )
    for key in _STR_KEYS:
        # null stands for "not given" only where the default is None
        if key in cfg and (cfg[key] is not None or defaults[key] is not None):
            _cast(cfg[key], str, key)
    eff = {}
    for key, default in defaults.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            eff[key] = flag_val
        elif key in cfg:
            eff[key] = cfg[key]
        else:
            eff[key] = default
    return eff


def _echo_config(eff: dict, command: str, verbose: bool):
    if verbose:
        payload = {"command": command}
        payload.update(eff)
        print(json.dumps(payload, sort_keys=True, default=str), file=sys.stderr)


_KINDS = {int: "integer", float: "number", str: "string"}


def _cast(value, kind, key):
    """`value` as `kind` (int, float or str), or ValidationError naming `key`.

    Config values arrive as JSON types and flag lists as strings, so the
    cast is strict: an integer is an int that is not a bool, or an integral
    string; a number is an int or float that is not a bool, or a numeric
    string; a string is a str.  Nothing is truncated or coerced from bool.
    """
    if not isinstance(value, bool):
        if isinstance(value, kind) or (kind is float and isinstance(value, int)):
            return kind(value)
        if isinstance(value, str):
            try:
                return kind(value)
            except ValueError:
                pass
    raise ValidationError(f"bad {_KINDS[kind]} {value!r} for {key}")


def _workers(threads) -> int | None:
    """FFT worker count from --threads; None leaves the default of 1."""
    if threads is None:
        return None
    return check_int(_cast(threads, int, "threads"), "--threads", lo=1)


def _csv(value, kind, key) -> tuple:
    """A list from a config value (a JSON list) or a comma-separated flag,
    each item cast strictly to `kind`."""
    if isinstance(value, (list, tuple)):
        items = value
    else:
        items = [x.strip() for x in str(value).split(",") if x.strip()]
    try:
        return tuple(_cast(x, kind, key) for x in items)
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
# Subcommands


def cmd_simulate(args) -> int:
    defaults = dict(kernel=None, scheme="hybrid", n=100, gamma=0.3, kappa=1,
                    vol="const:1", seed=0, replicate=0, out="field.vmg",
                    formats=["vmg"], policy="midpoint", threads=None)
    eff = _effective(args, defaults)
    _echo_config(eff, "simulate", args.verbose)
    workers = _workers(eff["threads"])
    if not eff["kernel"]:
        raise ValidationError("--kernel is required")
    kernel = parse_kernel(eff["kernel"])
    vol = parse_volatility(eff["vol"])
    scheme = eff["scheme"].lower()
    n = _cast(eff["n"], int, "n")
    seed = _cast(eff["seed"], int, "seed")
    replicate = _cast(eff["replicate"], int, "replicate")
    formats = _csv(eff["formats"], str, "formats")

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
            variance, n, seed=seed, replicate=replicate, workers=workers,
        )
        n_trunc = 0
    else:
        params = SchemeParams(n=n, gamma=_cast(eff["gamma"], float, "gamma"),
                              kappa=_cast(eff["kappa"], int, "kappa"), seed=seed,
                              policy=_parse_policy(eff["policy"]))
        n_trunc = params.n_trunc
        if scheme == "hybrid":
            grid = hybrid_simulate(kernel, params, vol, replicate=replicate,
                                   workers=workers)
        elif scheme == "riemann":
            grid = riemann_simulate(kernel, params, vol, replicate=replicate,
                                    workers=workers)
        else:
            raise ValidationError(
                f"unknown scheme {eff['scheme']!r} (hybrid, riemann, circulant)"
            )
    wall = time.perf_counter() - t0

    written = [str(write_grid(grid, eff["out"], fmt)) for fmt in formats]
    print(f"scheme={scheme} n={n} n_trunc={n_trunc} wall={wall:.3f}s "
          f"wrote {' '.join(written)}")
    return 0


def cmd_roughness(args) -> int:
    defaults = dict(
        alphas=[-0.8, -0.7, -0.6, -0.5, -0.4, -0.3, -0.2, -0.1],
        schemes=["hybrid:0", "hybrid:1", "hybrid:2", "hybrid:3", "riemann"],
        n=100, gamma=0.3, replicates=100, seed=0,
        out=None, plot_data=None, timing_out=None, threads=None,
    )
    eff = _effective(args, defaults)
    _echo_config(eff, "roughness", args.verbose)
    workers = _workers(eff["threads"])
    alphas = _csv(eff["alphas"], float, "alphas")
    schemes = [parse_scheme(s) for s in _csv(eff["schemes"], str, "schemes")]

    report = roughness_study(
        alphas, schemes, n=_cast(eff["n"], int, "n"),
        gamma=_cast(eff["gamma"], float, "gamma"),
        replicates=_cast(eff["replicates"], int, "replicates"),
        seed=_cast(eff["seed"], int, "seed"), workers=workers,
    )
    _write_lines(report.to_csv_lines(), eff["out"])

    if eff["plot_data"]:
        lines = ["scheme,kappa,alpha,mean_dim"]
        for sc in schemes:
            for row in report.rows:
                if row.scheme == sc.kind and row.kappa == sc.kappa:
                    kap = "" if row.kappa is None else str(row.kappa)
                    lines.append(f"{row.scheme},{kap},{row.alpha:.17g},{row.mean_dim:.17g}")
        _write_lines(lines, eff["plot_data"])

    if eff["timing_out"]:
        lines = ["scheme,kappa,replicates,seconds"]
        for sc in schemes:
            rows = [r for r in report.rows
                    if r.scheme == sc.kind and r.kappa == sc.kappa]
            kap = "" if sc.kappa is None else str(sc.kappa)
            t_first = sum(r.seconds_first for r in rows)
            t_total = sum(r.seconds_total for r in rows)
            lines.append(f"{sc.kind},{kap},1,{t_first:.6f}")
            lines.append(f"{sc.kind},{kap},{report.replicates},{t_total:.6f}")
        _write_lines(lines, eff["timing_out"])
    return 0


def cmd_mse(args) -> int:
    defaults = dict(kernel=None, n_list=[20, 40, 80], gamma=0.5, kappa=1,
                    policy="midpoint", out=None)
    eff = _effective(args, defaults)
    _echo_config(eff, "mse", args.verbose)
    if not eff["kernel"]:
        raise ValidationError("--kernel is required")
    kernel = parse_kernel(eff["kernel"])
    ns = _csv(eff["n_list"], int, "n_list")
    report = mse_study(kernel, ns, gamma=_cast(eff["gamma"], float, "gamma"),
                       kappa=_cast(eff["kappa"], int, "kappa"),
                       policy=_parse_policy(eff["policy"]))
    _write_lines(report.to_csv_lines(), eff["out"])
    return 0


def cmd_covariance(args) -> int:
    defaults = dict(alpha=None, kappa=1, n=1, out=None)
    eff = _effective(args, defaults)
    _echo_config(eff, "covariance", args.verbose)
    if eff["alpha"] is None:
        raise ValidationError("--alpha is required")
    block = build_block(_cast(eff["alpha"], float, "alpha"),
                        _cast(eff["kappa"], int, "kappa"),
                        _cast(eff["n"], int, "n"))
    lines = ["i,j,value"]
    for i in range(block.dim):
        for j in range(block.dim):
            lines.append(f"{i},{j},{block.matrix[i, j]:.17g}")
    _write_lines(lines, eff["out"])
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(sp, threads=False):
    sp.add_argument("--config", default=None, metavar="FILE",
                    help="JSON file with long option names as keys; flags win")
    sp.add_argument("--verbose", action="store_true",
                    help="echo the effective configuration to stderr")
    if threads:
        sp.add_argument("--threads", type=int, default=None,
                        help="cap FFT worker count (default 1); never changes "
                             "results")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog=_PROG,
        description="Simulation and analysis of rough volatility-modulated "
                    "moving-average random fields on 2D grids.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="simulate one field and write grid files")
    ps.add_argument("--kernel", help="kernel grammar, e.g. matern:nu=0.5,lambda=1")
    ps.add_argument("--scheme", choices=["hybrid", "riemann", "circulant"],
                    default=None)
    ps.add_argument("--n", type=int, default=None, help="grid half-resolution (side 2n+1)")
    ps.add_argument("--gamma", type=float, default=None,
                    help="truncation growth exponent")
    ps.add_argument("--kappa", type=int, default=None,
                    help="half-width of the exactly-integrated inner block")
    ps.add_argument("--vol", default=None,
                    help="volatility: const:<v> or expvmma:<kernel>")
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--replicate", type=int, default=None)
    ps.add_argument("--policy", choices=["midpoint", "optimal"], default=None)
    ps.add_argument("--out", default=None, help="output path (extension follows format)")
    ps.add_argument("--format", dest="formats", action="append",
                    choices=["vmg", "csv", "pgm"], default=None,
                    help="output format; repeatable")
    _add_common(ps, threads=True)
    ps.set_defaults(func=cmd_simulate)

    pr = sub.add_parser("roughness", help="Monte-Carlo roughness study")
    pr.add_argument("--alphas", default=None, help="comma-separated exponents")
    pr.add_argument("--schemes", default=None,
                    help="comma-separated: hybrid[:kappa] or riemann")
    pr.add_argument("--n", type=int, default=None)
    pr.add_argument("--gamma", type=float, default=None)
    pr.add_argument("--replicates", type=int, default=None)
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--out", default=None, help="report CSV path (default stdout)")
    pr.add_argument("--plot-data", dest="plot_data", default=None,
                    help="write (alpha, mean_dim) pairs per scheme to this CSV")
    pr.add_argument("--timing-out", dest="timing_out", default=None,
                    help="write per-scheme wall times (1 and all replicates)")
    _add_common(pr, threads=True)
    pr.set_defaults(func=cmd_roughness)

    pm = sub.add_parser("mse", help="deterministic hybrid-scheme error decomposition")
    pm.add_argument("--kernel", help="kernel grammar")
    pm.add_argument("--n-list", dest="n_list", default=None,
                    help="comma-separated resolutions (>= 3 for the rate fit)")
    pm.add_argument("--gamma", type=float, default=None)
    pm.add_argument("--kappa", type=int, default=None)
    pm.add_argument("--policy", choices=["midpoint", "optimal"], default=None)
    pm.add_argument("--out", default=None, help="CSV path (default stdout)")
    _add_common(pm)
    pm.set_defaults(func=cmd_mse)

    pc = sub.add_parser("covariance", help="dump an inner-block covariance matrix")
    pc.add_argument("--alpha", type=float, default=None)
    pc.add_argument("--kappa", type=int, default=None)
    pc.add_argument("--n", type=int, default=None)
    pc.add_argument("--out", default=None, help="CSV path (default stdout)")
    _add_common(pc)
    pc.set_defaults(func=cmd_covariance)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
