"""Benchmark for kguess.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Runs one workload (``sweep``, ``large-support``, ``verify``, ``cli``, or
``all`` for the four in turn) single-threaded, one operation at a time, for
``--seconds`` of whole rounds, and checks every output against the
independent computations in ``checks.py``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing.  With ``--trace 1`` they are the per-layer ones: spans around each
call into kguess, self times, and the tracing overhead against untraced
rounds of the same run.  See README.md for what each metric means.

kguess is imported from ``src/`` of the checkout this file sits in, never
from anywhere else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# One CPU for this process and every process it starts, so the calibration
# probe's interpreter runs on the CPU the workload runs on (speed.py).
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
from spans import Meter, Tracer  # noqa: E402
from speed import Speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NAMES = ("sweep", "large-support", "verify", "cli")
SETUP_REPEATS = 7
SETUP_PROBES = 2
MIN_ROUNDS = 3

# printed rate names: <kind>_per_s, except draws_per_s, and cli_<subcommand>_per_s on cli
RATE_NAMES = {"draw": "draws"}


def import_kguess() -> None:
    """Import kguess from this checkout's src/, or exit with status 2."""
    sys.path.insert(0, str(SRC))
    try:
        import kguess
    except ImportError as exc:
        print(f"perfbench: cannot import kguess from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if SRC.resolve() not in Path(kguess.__file__).resolve().parents:
        print(f"perfbench: kguess was imported from {kguess.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def build(name: str, seed: int, workdir: Path):
    from workloads import WORKLOADS

    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir)


def measure_setup(name: str, seed: int) -> list[tuple[float, float]]:
    """Wall time of fresh processes that start Python, import kguess, build
    the inputs and run one warm-up operation, each with the slowdown that
    calibration probes right before and after it show."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    calibration, times = Speed(), []
    for _ in range(SETUP_REPEATS):
        before = calibration.sample(SETUP_PROBES)
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        wall = perf_counter() - start
        after = calibration.sample(SETUP_PROBES)
        times.append((wall, 0.5 * (before + after)))
    return times


def run_rounds(workload, meter, seconds: float) -> int:
    """Whole rounds, at least MIN_ROUNDS of them, until ``seconds`` have passed."""
    start, rounds = perf_counter(), 0
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        workload.round(meter)
        rounds += 1
    return rounds


def end_to_end(workload, meter, setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    factor = meter.speed.factor
    scaled_setup = [wall / slowdown for wall, slowdown in setup]
    raw = {kind: len(t) / sum(t) for kind, t in meter.times.items()}
    pooled = np.concatenate([np.asarray(t) for t in meter.times.values()])
    tail = float(np.percentile(pooled, workload.tail))
    beyond = int(np.count_nonzero(pooled > tail))
    if workload.name == "cli":
        rss_mb = workload.peak_rss_kb / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(scaled_setup), "s"),
        "ops_per_s": (factor * math.exp(statistics.fmean(math.log(r) for r in raw.values())), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    prefix = "cli_" if workload.name == "cli" else ""
    lines = [f"  slowdown against the reference speed: {factor:.4f} ({len(meter.speed.times)} calibration probes)",
             f"  {'rate at reference speed':<40} {'raw':>14}"]
    lines += [f"  {prefix + RATE_NAMES.get(kind, kind) + '_per_s':<24} {rate * factor:14.4f} {rate:14.4f} 1/s   "
              f"({len(meter.times[kind])} calls)" for kind, rate in sorted(raw.items())]
    lines.append(f"  {prefix + 'p50_ms':<24} {float(np.median(pooled)) * 1e3:29.4f} ms    (median of all operations)")
    lines.append(f"  {prefix + 'tail_ms':<24} {tail * 1e3:29.4f} ms    (p{workload.tail:g} of {pooled.size} "
                 f"operations, {beyond} beyond it{'' if beyond >= 10 else ': too few for a tail'})")
    lines.append(f"  setup_s at reference speed: {', '.join(f'{x:.4f}' for x in scaled_setup)}")
    lines.append(f"  setup_s raw:                {', '.join(f'{wall:.4f}' for wall, _ in setup)}")
    return metrics, lines


def traced(workload, seed: int, seconds: float, workdir: Path) -> tuple[dict, list[str], object]:
    plain, tracer = Meter(Speed()), Tracer(workload.name, Speed())
    pairs, start = 0, perf_counter()
    while True:
        # alternate which goes first, so first-round costs fall on both sides
        for meter in ((plain, tracer) if pairs % 2 == 0 else (tracer, plain)):
            workload.round(meter)
        pairs += 1
        if perf_counter() - start >= seconds:
            break
    for home in layers.homes_needed(workload.name):
        other, other_tracer = build(home, seed, workdir / home), Tracer(home)
        other.round(other_tracer)
        tracer.adopt(other_tracer)
    # time inside the timed operations, where the spans are recorded, each
    # side at the reference speed so that the machine's drift between
    # rounds cancels
    overhead = (sum(map(sum, tracer.times.values())) / tracer.speed.factor) / (
        sum(map(sum, plain.times.values())) / plain.speed.factor)
    metrics = layers.per_layer(tracer, workload.name, overhead)
    lines = [f"  {'workload':<14} {'span':<38} {'count':>8} {'mean_us':>12} {'self_us':>12}"]
    for (wl, name), (n, mean, own) in sorted(tracer.self_times().items()):
        lines.append(f"  {wl:<14} {name:<38} {n:8d} {mean * 1e6:12.2f} {own * 1e6:12.2f}")
    lines.append(f"  tracing overhead: operations take {overhead:.4f}x as long in traced rounds as in "
                 f"untraced ones ({pairs} rounds of each)")
    meter = plain
    meter.attempted += tracer.attempted
    meter.failed += tracer.failed
    return metrics, lines, (meter, tracer)


def run_one(args) -> int:
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = build(args.workload, args.seed, workdir)
        if args.setup_only:
            workload.warmup(Meter())
            return 0
        setup = [] if args.trace else measure_setup(args.workload, args.seed)
        workload.warmup(Meter())
        correct, lines = True, []
        meter = Meter(Speed())
        try:
            if args.trace:
                metrics, lines, (meter, tracer) = traced(workload, args.seed, args.seconds, workdir)
                out = BENCH / "out"
                out.mkdir(exist_ok=True)
                tracer.write(out / f"trace-{args.workload}-seed{args.seed}.json")
            else:
                rounds = run_rounds(workload, meter, args.seconds)
                metrics, lines = end_to_end(workload, meter, setup)
                lines.insert(0, f"  {rounds} rounds")
        except Exception as exc:  # a wrong or crashed operation ends the run
            traceback.print_exc()
            print(f"perfbench: {args.workload}: incorrect output: {exc}", file=sys.stderr)
            correct, metrics = False, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{meter.attempted} operations attempted, {meter.failed} failed")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:14.4f} {unit}")
    result = {
        "correct": correct,
        "attempted": max(meter.attempted, 1),
        "failed": meter.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        status = 0
        for name in NAMES:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status |= subprocess.run(cmd, cwd=ROOT).returncode
        return status
    if not args.setup_only and SRC.is_dir():
        compileall.compile_dir(str(SRC), quiet=1)
    import_kguess()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
