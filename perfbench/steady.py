"""Steadiness of the end-to-end metrics across seeds.

    python3 perfbench/steady.py --seeds 1-10 [--workloads sweep,cli] [--seconds 25]

Runs ``run.py`` once per (seed, workload), seeds in the outer loop, and
prints for each workload and end-to-end metric the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json, and the
share of failed operations of every run.  The raw results are written to
``perfbench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help='"1-10" or "3,5,8"')
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seed_list(args.seeds):
        for w in workloads:
            cmd = [sys.executable, *config["command"][1:], "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - start
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result.update(seed=seed, wall_s=wall)
            runs[w].append(result)
            print(f"{w:<14} seed {seed:<3} {wall:6.1f} s  correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    print()
    print(f"{'workload':<14} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  ok")
    steady = True
    for w, results in runs.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            print(f"{w:<14} {name:<12} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {bound:6.2f}  "
                  f"{'yes' if ok else 'NO'}")
        shares = {(r["failed"], r["attempted"]) for r in results}
        same = len({Fraction(f, a) for f, a in shares}) == 1
        steady &= same and all(r["correct"] for r in results)
        print(f"{w:<14} failed share {sorted(f'{f}/{a}' for f, a in shares)} "
              f"{'identical' if same else 'DIFFERS'}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(runs, indent=1))
    print(f"\nraw results: {path.relative_to(ROOT)}; every spread below a third of its bound: {steady}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
