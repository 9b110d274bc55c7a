"""The four workloads: one round of operations each, checked as it goes.

A round always attempts the same operations, so the share of failed
operations is the same in every run whatever its seed or length.  Every
output is checked by :mod:`checks`, which does not import kguess.  Under a
:class:`spans.Tracer` the rounds also call the lower-layer functions each
operation is made of, on the same inputs, to time them on their own.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import numpy as np

import checks
import inputs
from kguess import (
    SortedPmf,
    alpha_leakage,
    as_alpha,
    as_joint,
    as_pmf,
    conditional_pmf,
    is_admissible,
    lp_feasible,
    max_expectation,
    minimal_loss,
    minimal_loss_conditional,
    minimize_expected_loss,
    project_capped_simplex,
    realize_coverage,
    robustness_condition,
    sample_guesses,
    strategy_loss,
    threshold_rank,
    tilted,
)
from kguess.cli import main as cli_main
from kguess.oracle import CappedSimplex

# alpha_leakage's own work is about 1 us per column, under 1% of the call.
# On 64x64 and 200x200 joints the call's timing noise on a shared machine,
# milliseconds even for the fastest of several timings, swamps it, so its
# self time is measured on the joints up to 16x16 only.
SELF_MAX_COLUMNS = 16
CLI_LAUNCHER = "import sys; from kguess.cli import main; sys.exit(main())"


def _loss_parts(p) -> None:
    """The public lower-layer calls minimal_loss is made of."""
    SortedPmf.from_pmf(as_pmf(p))


def _trace_loss_layers(m, p, k, alpha) -> None:
    pmf = m.aside("core.as_pmf", as_pmf, p)
    sp = m.aside("guessing.sorted_pmf", SortedPmf.from_pmf, pmf)
    if k < sp.support_size:
        m.aside("guessing.threshold_rank", threshold_rank, sp, k, alpha)
    m.self_time("guessing.minimal_loss_self", lambda: minimal_loss(p, k, alpha), lambda: _loss_parts(p))


def _loss_ops(m, p, ks, alpha) -> list:
    """minimal_loss at each budget, then one batched check."""
    reports = []
    for k in ks:
        with m.op("loss"):
            reports.append(m.call("guessing.minimal_loss", minimal_loss, p, k, alpha))
        if m.traced:
            _trace_loss_layers(m, p, k, alpha)
    checks.check_losses(p, alpha, ks, [r.value for r in reports], [r.coverage.t for r in reports])
    return reports


def _leakage_parts(P, k, alpha, columns) -> None:
    """The public lower-layer calls alpha_leakage is made of."""
    joint = as_joint(P)
    for y in columns:
        max_expectation(conditional_pmf(joint, y), k, alpha)
    max_expectation(joint.marginal_x(), k, alpha)
    robustness_condition(joint, k, alpha)


def _trace_leakage_layers(m, P, k, order) -> None:
    # alpha_leakage hands its inner calls a validated Alpha, so these calls get one too
    alpha = as_alpha(order)
    if P.shape[1] <= SELF_MAX_COLUMNS:
        columns = [int(y) for y in np.flatnonzero(P.sum(axis=0) > 0.0)]
        m.self_time("leakage.alpha_leakage_self", lambda: alpha_leakage(P, k, order),
                    lambda: _leakage_parts(P, k, alpha, columns))
    joint = m.aside("core.as_joint", as_joint, P)
    for y in np.flatnonzero(joint.probs.sum(axis=0) > 0.0):
        cond = m.aside("core.conditional_pmf", conditional_pmf, joint, int(y))
        m.aside("leakage.max_expectation", max_expectation, cond, k, alpha)
        m.aside("core.tilted", tilted, cond, alpha)
    marginal = joint.marginal_x()
    m.aside("leakage.max_expectation", max_expectation, marginal, k, alpha)
    m.aside("core.tilted", tilted, marginal, alpha)
    m.aside("leakage.robustness_condition", robustness_condition, joint, k, alpha)
    m.aside("guessing.minimal_loss_conditional", minimal_loss_conditional, joint, k, alpha)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class Sweep:
    name = "sweep"
    tail = 99.9

    def __init__(self, seed: int, workdir: Path) -> None:
        self.data = inputs.sweep(seed)

    def warmup(self, m) -> None:
        _, p = self.data["pmfs"][0]
        _loss_ops(m, p, [1], inputs.SWEEP_ALPHAS[0])

    def round(self, m) -> None:
        for _, p in self.data["pmfs"]:
            for alpha in inputs.SWEEP_ALPHAS:
                _loss_ops(m, p, range(1, p.size + 1), alpha)
        for _, P in self.data["joints"]:
            for alpha in inputs.LEAKAGE_ALPHAS:
                for k in inputs.LEAKAGE_KS:
                    with m.op("leakage"):
                        report = m.call("leakage.alpha_leakage", alpha_leakage, P, k, alpha)
                    if m.traced:
                        _trace_leakage_layers(m, P, k, alpha)
                    checks.check_leakage(P, k, alpha, report.value, report.robust)


# ---------------------------------------------------------------------------
# large-support
# ---------------------------------------------------------------------------


class LargeSupport:
    name = "large-support"
    tail = 99.9

    def __init__(self, seed: int, workdir: Path) -> None:
        self.data = inputs.large_support(seed)
        self.draw_rng = np.random.default_rng(self.data["draw_seed"])

    def warmup(self, m) -> None:
        _, p, alpha = self.data["pmfs"][0]
        _loss_ops(m, p, inputs.LARGE_KS[:1], alpha)

    def round(self, m) -> None:
        for _, p, alpha in self.data["pmfs"]:
            _loss_ops(m, p, inputs.LARGE_KS, alpha)
        for _, p, k, alpha in self.data["strategies"]:
            (report,) = _loss_ops(m, p, [k], alpha)
            with m.op("strategy"):
                mix = m.call("strategy.realize_coverage", realize_coverage, report.coverage)
                value = m.call("strategy.strategy_loss", strategy_loss, mix, p, alpha)
            if m.traced:
                m.count("strategy.components", mix.n_components)
                m.aside("strategy.is_admissible", is_admissible, report.coverage.t, k)
                m.aside("strategy.mixture_coverage", mix.coverage, p.size)
            checks.check_mixture(report.coverage.t, k, mix.subsets, mix.weights, value, report.value)
            draws = []
            for _ in range(inputs.DRAWS_PER_MIXTURE):
                with m.op("draw"):
                    draws.append(m.call("strategy.sample_guesses", sample_guesses, mix, self.draw_rng))
            checks.check_draws(report.coverage.t, mix.subsets, draws)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class Verify:
    name = "verify"
    tail = 90.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.data = inputs.verify(seed)

    def warmup(self, m) -> None:
        self._oracle(m, *self.data["oracle"][0])

    def _oracle(self, m, n, k, alpha, p) -> None:
        closed = m.aside("guessing.minimal_loss", minimal_loss, p, k, alpha)
        checks.check_loss(p, k, alpha, closed.value, closed.coverage.t)
        with m.op("oracle"):
            solution = m.call("oracle.minimize_expected_loss", minimize_expected_loss, p, k, alpha)
        if m.traced:
            m.count("oracle.iterations", solution.iterations)
            m.aside("oracle.project_capped_simplex", project_capped_simplex, k * p, CappedSimplex(n, k))
        checks.check_oracle(closed.value, solution.value, solution.gap, solution.t, k)

    def round(self, m) -> None:
        for case in self.data["oracle"]:
            self._oracle(m, *case)
        for role, t, k in self.data["lp"]:
            with m.op("lp"):
                result = m.call("oracle.lp_feasible", lp_feasible, t, k)
            if m.traced:
                m.count("oracle.lp_columns", math.comb(t.size, k))
                if result.feasible:
                    m.count("oracle.lp_witness_components", len(result.witness))
                m.aside("strategy.is_admissible", is_admissible, t, k)
            ok = checks.check_lp(t, k, result.feasible, result.witness, result.certificate,
                                 admissible=role != "perturbed")
            if not ok:
                if role != "grid-fault":
                    raise checks.CheckError(f"LP rejected a {role} coverage that keeps its total on the grid")
                m.failed += 1


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(sys.modules["kguess"].__file__).resolve().parent.parent)
    env.pop("KGUESS_PRECISION", None)
    return env


class Cli:
    name = "cli"
    tail = 75.0

    def __init__(self, seed: int, workdir: Path) -> None:
        data = inputs.cli(seed)
        self.dir = workdir
        self.env = cli_env()
        self.peak_rss_kb = 0
        self.dists = data["files"]
        for name, probs in self.dists.items():
            kind = "pmf" if probs.ndim == 1 else "joint"
            (workdir / f"{name}.json").write_text(json.dumps({"kind": kind, "probs": probs.tolist()}))
        ok, bad = data["admissible"], data["inadmissible"]
        seed_arg = str(seed)
        f = lambda name: str(workdir / f"{name}.json")  # noqa: E731
        self.invocations = [
            ("loss", ["loss", f("pmf-30"), "-k", "3", "--alpha", "2"], self._loss, "pmf-30", 3, 2.0),
            ("loss", ["loss", f("pmf-64"), "-k", "8", "--alpha", "0.5"], self._loss, "pmf-64", 8, 0.5),
            ("loss", ["loss", f("zipf-100000"), "-k", "100", "--alpha", "2"], self._loss, "zipf-100000", 100, 2.0),
            ("strategy", ["strategy", f("pmf-12"), "-k", "3", "--alpha", "1", "--seed", seed_arg],
             self._strategy, "pmf-12", 3, 1.0),
            ("strategy", ["strategy", f("pmf-30"), "-k", "5", "--alpha", "5"], self._strategy, "pmf-30", 5, 5.0),
            ("strategy", ["strategy", f("zipf-2000"), "-k", "200", "--alpha", "2"],
             self._strategy, "zipf-2000", 200, 2.0),
            ("leakage", ["leakage", f("joint-8"), "-k", "2", "--alpha", "2"], self._leakage, "joint-8", 2, 2.0),
            ("leakage", ["leakage", f("joint-16"), "-k", "4", "--alpha", "0.5"], self._leakage, "joint-16", 4, 0.5),
            ("sweep", ["sweep", f("pmf-12"), "--k-range", "1:6", "--alphas", "0.5,1,2,inf"],
             self._sweep, "pmf-12", list(range(1, 7)), [0.5, 1.0, 2.0, math.inf]),
            ("sweep", ["sweep", f("joint-8"), "--k-range", "1:3", "--alphas", "0.5,2,5"],
             self._sweep, "joint-8", [1, 2, 3], [0.5, 2.0, 5.0]),
            ("verify", ["verify", f("verify-10"), "-k", "3", "--alpha", "2"], self._verify, "verify-10", 3, 2.0),
            ("verify", ["verify", f("grid-fault-10"), "-k", "3", "--alpha", "2"],
             self._verify, "grid-fault-10", 3, 2.0),
            ("check-admissible", ["check-admissible", "--t", ok, "-k", "3", "--lp"], self._admissible, ok, 3, None),
            ("check-admissible", ["check-admissible", "--t", bad, "-k", "3", "--lp"], self._admissible, bad, 3, None),
        ]

    def _loss(self, out: Path, name, k, alpha) -> None:
        checks.check_cli_loss(json.loads(out.read_text()), self.dists[name], k, alpha)

    def _strategy(self, out: Path, name, k, alpha) -> None:
        checks.check_cli_strategy(json.loads(out.read_text()), self.dists[name], k, alpha)

    def _leakage(self, out: Path, name, k, alpha) -> None:
        checks.check_cli_leakage(json.loads(out.read_text()), self.dists[name], k, alpha)

    def _sweep(self, out: Path, name, ks, alphas) -> None:
        checks.check_cli_sweep(out.read_text(), self.dists[name], ks, alphas)

    def _verify(self, out: Path, name, k, alpha):
        ok = checks.check_cli_verify(json.loads(out.read_text()), self.dists[name], k, alpha)
        if not ok and name != "grid-fault-10":
            raise checks.CheckError(f"verify called the optimal coverage of {name} inadmissible")
        return ok

    def _admissible(self, out: Path, text, k, _):
        checks.check_cli_admissible(json.loads(out.read_text()), [float(v) for v in text.split(",")], k)

    def _spawn(self, argv: list[str]) -> None:
        """Run one kguess process; wall time is taken by the caller."""
        proc = subprocess.Popen([sys.executable, "-c", CLI_LAUNCHER, *argv], env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        stderr = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise checks.CheckError(f"kguess {' '.join(argv[:1])} exited {proc.returncode}: {stderr.decode()[-300:]}")

    def _invoke(self, m, i: int) -> None:
        kind, argv, check, *args = self.invocations[i]
        out = self.dir / f"out-{i}.txt"
        argv = [*argv, "--out", str(out)]
        with m.op(kind):
            m.call("cli.process", self._spawn, argv)
        if m.traced:
            m.count("cli.output_kb", out.stat().st_size / 1024.0)
            with redirect_stderr(StringIO()):
                m.aside("cli.main", cli_main, argv)
        if check(out, *args) is False:
            m.failed += 1

    def warmup(self, m) -> None:
        self._invoke(m, 0)

    def round(self, m) -> None:
        for i in range(len(self.invocations)):
            self._invoke(m, i)
        if m.traced:
            for _ in range(3):
                m.count("cli.import_ms", m.aside("cli.import", import_ms, self.env))


def import_ms(env: dict) -> float:
    """Milliseconds a fresh interpreter spends importing kguess.cli."""
    code = "import time; t = time.perf_counter(); import kguess.cli; print((time.perf_counter() - t) * 1e3)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return float(done.stdout)


WORKLOADS = {w.name: w for w in (Sweep, LargeSupport, Verify, Cli)}
