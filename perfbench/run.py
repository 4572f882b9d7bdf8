"""vmma benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: roughness, modulated-field, baseline-variogram, mse-ladder (see
perfbench/README.md).  vmma is imported from ``src/`` next to this
directory; nothing needs building.  The process runs single-threaded: FFT
workers 1, BLAS/OpenMP threads 1 and VMMA_THREADS unset.

After set-up, rounds of identical operations run until the next round would
end past S seconds (always at least one).  The outputs are then checked and
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are end to end:

    setup_s      median of seven set-ups (this process and six fresh ones):
                 process start to the first timed call
    round_s      median wall time of one round
    ops_per_s    operations completed per second over all rounds
    peak_rss_mb  peak resident memory of this process after the rounds

Each time is scaled to the reference machine speed by the probe in
speed.py, run beside every set-up and between rounds; the raw times go to
stderr.  With --trace 1 spans wrap vmma's public functions and the metrics
are the per-layer self times (raw) and counts of one set-up plus one
average round; the span table is also written to perfbench/out/.  Exit
status: 0 when the checks pass, 1 when they fail, 2 when vmma's sources are
missing.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_CHILDREN = 6
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time in seconds, and exit")
    return p.parse_args(argv)


def run_rounds(workload, seconds, probe):
    """Rounds until the next one would end past `seconds`; at least one.

    Returns the raw round times, each round's mean of the speed probes taken
    just before and just after it, and the number of failed operations."""
    times, probes, failed = [], [probe()], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        failed += workload.run_round(len(times))
        times.append(time.perf_counter() - t0)
        probes.append(probe())
        if time.perf_counter() - start + statistics.fmean(times) > seconds:
            return times, [(a + b) / 2 for a, b in zip(probes, probes[1:])], failed


def child_setup(args) -> tuple:
    """(raw set-up seconds, probe seconds) of a fresh --setup-only process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    raw, probe_s = done.stdout.strip().splitlines()[-1].split()
    return float(raw), float(probe_s)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("VMMA_THREADS", None)
    if not (SRC / "vmma" / "__init__.py").is_file():
        print(f"vmma sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import speed
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install_vmma_spans(tracer)
        workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
        workload.setup()
        setup_s = time.perf_counter() - _START
        setup_probe = speed.probe()
        if args.setup_only:
            print(repr(setup_s), repr(setup_probe))
            return 0
        at_setup = tracing.layer_values(tracer) if tracer else None
        times, probes, failed = run_rounds(workload, args.seconds, speed.probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            at_end = tracing.layer_values(tracer)
            tracer.uninstall()
        problems = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    rounds = len(times)
    print(f"raw round times: {json.dumps(times)}", file=sys.stderr)
    print(f"probe times: {json.dumps(probes)}", file=sys.stderr)
    scaled = [speed.scale(t, p) for t, p in zip(times, probes)]
    e2e = {
        "round_s": statistics.median(scaled),
        "ops_per_s": rounds * workload.ops_per_round / sum(scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        units = dict(tracing.LAYER_METRICS)
        metrics = {m: {"value": at_setup[m] + (at_end[m] - at_setup[m]) / rounds,
                       "unit": units[m]} for m in units}
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"rounds": rounds, "end_to_end": e2e,
                                          **tracer.table()}, indent=1))
        print(f"traced end to end: {json.dumps(e2e)}", file=sys.stderr)
    else:
        samples = [(setup_s, setup_probe)] + [child_setup(args) for _ in range(SETUP_CHILDREN)]
        print(f"raw set-up and probe times: {json.dumps(samples)}", file=sys.stderr)
        e2e["setup_s"] = statistics.median(speed.scale(raw, p) for raw, p in samples)
        units = dict(END_TO_END)
        metrics = {m: {"value": e2e[m], "unit": units[m]} for m in units}
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * workload.ops_per_round,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
