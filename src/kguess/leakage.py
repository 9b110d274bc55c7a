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
    DomainError,
    JointPmf,
    KGuessError,
    Pmf,
    _check_budget,
    _joint_rows,
    _tilt_rows,
    as_alpha,
    as_joint,
)
from .guessing import _solve_rows, minimal_loss

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
        v = float(self.value)
        if math.isnan(v):
            raise KGuessError("leakage computed as NaN")
        if v < 0.0:
            if v < -_CLAMP:
                raise KGuessError(f"leakage came out negative: {v!r}")
            v = 0.0
        object.__setattr__(self, "value", v)

    @property
    def robust(self) -> bool:
        return self.robustness.ok


def _flatness(rows: np.ndarray, live: np.ndarray, k: int, a: Alpha):
    """Flatness condition on the rows of :func:`_joint_rows`."""
    w, total = _tilt_rows(rows, a.value)
    # Row i's largest tilted entry is 1 / total[i]; argmax keeps the earliest
    # maximum: the marginal first, then columns in ascending order.
    top = 1.0 / total
    i = int(np.argmax(top))
    x = int(np.argmax(w[i]))
    where = ("marginal", x) if i == 0 else ("conditional", int(live[i - 1]), x)
    best = float(top[i])
    return RobustnessResult(best <= 1.0 / k + 1e-12, best, 1.0 / k, where)


def max_expectation(
    pmf: "Pmf | object", k: int, alpha: "Alpha | float | str"
) -> float:
    """Best attainable expected score of a k-guess strategy.

    Equals one minus the minimal expected loss rescaled by (a - 1) / a.
    Only finite orders other than one are in this functional's contract.
    For a point mass it is one regardless of k; for a uniform distribution
    over n symbols it is (k / n) ** ((a - 1) / a).
    """
    a = as_alpha(alpha)
    if a.is_one or a.is_inf:
        raise DomainError("max expectation requires a finite order other than one")
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
    """
    joint = as_joint(joint)
    a = as_alpha(alpha)
    if a.is_one or a.is_inf:
        raise DomainError("leakage requires a finite order other than one")
    k = _check_budget(k)
    rows, weights, live = _joint_rows(joint)
    beta = (a.value - 1.0) / a.value
    t = _solve_rows(rows, k, a)[2]
    # ln of each row's best expectation sum(p * t ** beta) over its optimal
    # coverage t (max_expectation's 1 - beta * loss), summed in the log domain
    # with each row shifted by its largest term: at tiny orders t ** beta
    # overflows float64 while the leakage itself is finite
    with np.errstate(divide="ignore"):
        x = beta * np.log(t)
    x[rows == 0.0] = -np.inf  # zero atoms add nothing
    top = x.max(axis=1)
    best = top + np.log((rows * np.exp(x - top[:, None])).sum(axis=1))
    shift = best[1:].max()
    num = shift + math.log(float(np.dot(weights, np.exp(best[1:] - shift))))
    den = float(best[0])
    value = a.value / (a.value - 1.0) * (num - den)
    return LeakageReport(value, k, a, num, den, _flatness(rows, live, k, a))


def robustness_condition(
    joint: "JointPmf | object", k: int, alpha: "Alpha | float | str"
) -> RobustnessResult:
    """Check the flatness condition under which extra guesses change nothing.

    Requires every entry of the tilted marginal of X and of each tilted
    conditional (columns of positive mass) to be at most 1/k, with a slack
    of 1e-12.  Finite orders only.
    """
    joint = as_joint(joint)
    a = as_alpha(alpha)
    if a.is_inf:
        raise DomainError("robustness condition requires a finite order")
    k = _check_budget(k)
    rows, _, live = _joint_rows(joint)
    return _flatness(rows, live, k, a)
