"""Information leakage measured through the multi-guess adversary.

How much easier does observing a side variable make the guessing game?
The measure compares the adversary's best attainable expectation with and
without the observation, on a logarithmic scale calibrated by the loss
order.  A sufficient flatness condition on tilted distributions tells when
extra guesses do not change the measured leakage at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Alpha,
    JointPmf,
    Pmf,
    _check_budget,
    _finite_order,
    _nonnegative,
    as_joint,
)
from .guessing import _log_expectations, _on_joint, minimal_loss

__all__ = [
    "RobustnessResult",
    "LeakageReport",
    "max_expectation",
    "alpha_leakage",
    "robustness_condition",
]

_CLAMP = 1e-9


@dataclass(frozen=True)
class RobustnessResult:
    """Whether every tilted entry (marginal and conditionals) is <= 1/k.

    When the condition holds, the leakage measured with k guesses equals
    the single-guess leakage.  ``location`` points at the largest tilted
    entry: ("marginal", x) or ("conditional", y, x).
    """

    ok: bool
    max_entry: float
    threshold: float
    location: tuple

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class LeakageReport:
    """Leakage value and exponents, and the flatness condition at the same
    budget and order (``robustness``), whose verdict ``robust`` reads."""

    value: float
    k: int
    alpha: Alpha
    numerator_exponent: float
    denominator_exponent: float
    robustness: RobustnessResult

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _nonnegative(self.value, "leakage", _CLAMP))

    @property
    def robust(self) -> bool:
        return self.robustness.ok


def _leakage_rows(joint: JointPmf, k: int, a: Alpha):
    """For the rows of :func:`_on_joint` (the marginal of X, then X given each
    column of positive mass): ln of each row's best expectation, the columns'
    masses, and the flatness condition, all from the kernel's rank stage."""
    (best, log_mass, top), weights, live = _on_joint(_log_expectations, joint, k, a)
    # Row i's largest tilted entry is entry[i], at column top[i]; argmax keeps
    # the earliest maximum: the marginal first, then columns in ascending order.
    entry = 1.0 / np.exp(log_mass)
    i = int(np.argmax(entry))
    where = ("marginal", int(top[0])) if i == 0 else ("conditional", int(live[i - 1]), int(top[i]))
    best_entry = float(entry[i])
    flat = RobustnessResult(best_entry <= 1.0 / k + 1e-12, best_entry, 1.0 / k, where)
    return best, weights, flat


def max_expectation(
    pmf: "Pmf | object", k: int, alpha: "Alpha | float | str"
) -> float:
    """Best attainable expected score of a k-guess strategy.

    Equals one minus the minimal expected loss rescaled by (a - 1) / a.
    Only finite orders other than one are in this functional's contract.
    For a point mass it is one regardless of k; for a uniform distribution
    over n symbols it is (k / n) ** ((a - 1) / a).
    """
    a = _finite_order(alpha, "max expectation", one=False)
    report = minimal_loss(pmf, k, a)
    beta = (a.value - 1.0) / a.value
    return 1.0 - beta * report.value


def alpha_leakage(
    joint: "JointPmf | object", k: int, alpha: "Alpha | float | str"
) -> LeakageReport:
    """Leakage about X from observing Y, measured by a k-guess adversary.

    The value is (a / (a - 1)) * ln(N / D) where N averages the per-column
    best expectations under the observation's marginal and D is the best
    expectation with no observation.  Nonnegative; tiny negative rounding
    (within 1e-9) is clamped to zero.  Requires a finite order other than
    one.  The report also carries the flatness condition.

    Each best expectation is read off the closed form of the optimal k-guess
    strategy (arXiv 2108.08774): with threshold rank r, the r - 1 likeliest
    symbols are guessed outright and the other k - r + 1 guesses are spread
    over the tail, so the expectation is the head mass plus
    (k - r + 1) ** ((a - 1) / a) times the a-norm of the tail.
    """
    joint = as_joint(joint)
    a = _finite_order(alpha, "leakage", one=False)
    k = _check_budget(k)
    best, weights, flatness = _leakage_rows(joint, k, a)
    # ln of N, summed in the log domain with the rows shifted by the largest:
    # at tiny orders the expectations overflow float64 while the leakage is
    # finite.  The masses sum to one up to rounding; dividing by their sum
    # makes a budget that covers every column give exactly zero.
    shift = best[1:].max()
    num = shift + math.log((weights * np.exp(best[1:] - shift)).sum() / weights.sum())
    den = float(best[0])
    value = a.value / (a.value - 1.0) * (num - den)
    return LeakageReport(value, k, a, num, den, flatness)


def robustness_condition(
    joint: "JointPmf | object", k: int, alpha: "Alpha | float | str"
) -> RobustnessResult:
    """Check the flatness condition under which extra guesses change nothing.

    Requires every entry of the tilted marginal of X and of each tilted
    conditional (columns of positive mass) to be at most 1/k, with a slack
    of 1e-12.  Finite orders only.
    """
    joint = as_joint(joint)
    a = _finite_order(alpha, "robustness condition")
    k = _check_budget(k)
    return _leakage_rows(joint, k, a)[2]
