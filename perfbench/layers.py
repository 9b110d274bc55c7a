"""Per-layer metrics of the traced run, computed from its spans and counts.

Each metric is measured on the inputs of a named workload.  When the traced
workload is one of them, its own spans are used; otherwise the traced run
adds one traced round of the first workload named, so every traced run
reports every metric.
"""

from __future__ import annotations

import statistics

# name -> (unit, workloads whose inputs it is measured on, how)
#   ("span", s): mean duration of spans named s, in the unit
#   ("count", c): mean of the values counted under c
#   ("self", c): median of the self times spans.Tracer.self_time counted
#                under c, one per operation; a median, since one operation
#                slowed between its timings would swing a mean of these
#                small differences
#   ("gap", outer, inner): per operation, outer minus inner, averaged
SWEEP, LARGE, VERIFY, CLI = "sweep", "large-support", "verify", "cli"

METRICS = {
    "core.as_pmf_us": ("us", (SWEEP, LARGE), ("span", "core.as_pmf")),
    "core.as_joint_us": ("us", (SWEEP,), ("span", "core.as_joint")),
    "core.conditional_pmf_us": ("us", (SWEEP,), ("span", "core.conditional_pmf")),
    "core.tilted_us": ("us", (SWEEP,), ("span", "core.tilted")),
    "guessing.sorted_pmf_us": ("us", (SWEEP, LARGE), ("span", "guessing.sorted_pmf")),
    "guessing.threshold_rank_us": ("us", (SWEEP, LARGE), ("span", "guessing.threshold_rank")),
    "guessing.minimal_loss_us": ("us", (SWEEP, LARGE, VERIFY), ("span", "guessing.minimal_loss")),
    "guessing.minimal_loss_self_us": ("us", (SWEEP,), ("self", "guessing.minimal_loss_self")),
    "guessing.minimal_loss_conditional_us": ("us", (SWEEP,), ("span", "guessing.minimal_loss_conditional")),
    "leakage.max_expectation_us": ("us", (SWEEP,), ("span", "leakage.max_expectation")),
    "leakage.robustness_condition_us": ("us", (SWEEP,), ("span", "leakage.robustness_condition")),
    "leakage.alpha_leakage_us": ("us", (SWEEP,), ("span", "leakage.alpha_leakage")),
    "leakage.alpha_leakage_self_us": ("us", (SWEEP,), ("self", "leakage.alpha_leakage_self")),
    "strategy.is_admissible_us": ("us", (LARGE, VERIFY), ("span", "strategy.is_admissible")),
    "strategy.realize_coverage_us": ("us", (LARGE,), ("span", "strategy.realize_coverage")),
    "strategy.components": ("count", (LARGE,), ("count", "strategy.components")),
    "strategy.mixture_coverage_us": ("us", (LARGE,), ("span", "strategy.mixture_coverage")),
    "strategy.strategy_loss_us": ("us", (LARGE,), ("span", "strategy.strategy_loss")),
    "strategy.sample_guesses_us": ("us", (LARGE,), ("span", "strategy.sample_guesses")),
    "oracle.minimize_expected_loss_us": ("us", (VERIFY,), ("span", "oracle.minimize_expected_loss")),
    "oracle.iterations": ("count", (VERIFY,), ("count", "oracle.iterations")),
    "oracle.project_capped_simplex_us": ("us", (VERIFY,), ("span", "oracle.project_capped_simplex")),
    "oracle.lp_feasible_us": ("us", (VERIFY,), ("span", "oracle.lp_feasible")),
    "oracle.lp_columns": ("count", (VERIFY,), ("count", "oracle.lp_columns")),
    "oracle.lp_witness_components": ("count", (VERIFY,), ("count", "oracle.lp_witness_components")),
    "cli.import_ms": ("ms", (CLI,), ("count", "cli.import_ms")),
    "cli.main_ms": ("ms", (CLI,), ("span", "cli.main")),
    "cli.process_ms": ("ms", (CLI,), ("gap", "cli.process", "cli.main")),
    "cli.output_kb": ("KB", (CLI,), ("count", "cli.output_kb")),
}
SCALE = {"us": 1e6, "ms": 1e3, "count": 1.0, "KB": 1.0}


def home(metric: str, workload: str) -> str:
    homes = METRICS[metric][1]
    return workload if workload in homes else homes[0]


def homes_needed(workload: str) -> list[str]:
    """Workloads the traced run must add one round of, in a fixed order."""
    needed = {home(metric, workload) for metric in METRICS} - {workload}
    return [w for w in (SWEEP, LARGE, VERIFY, CLI) if w in needed]


def _value(tracer, workload: str, how: tuple) -> float:
    kind = how[0]
    if kind == "span":
        return statistics.fmean(tracer.durations(how[1], workload))
    if kind == "count":
        return statistics.fmean(tracer.counts[(how[1], workload)])
    if kind == "self":
        return statistics.median(tracer.counts[(how[1], workload)])
    _, outer, inner = how
    per_op = tracer.per_op({outer, inner}, workload)
    return statistics.fmean(calls[outer] - calls[inner] for calls in per_op.values() if outer in calls)


def per_layer(tracer, workload: str, overhead: float) -> dict[str, tuple[float, str]]:
    out = {}
    for metric, (unit, _, how) in METRICS.items():
        scale = SCALE[unit] if how[0] in ("span", "gap") else 1.0
        out[metric] = (_value(tracer, home(metric, workload), how) * scale, unit)
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out
