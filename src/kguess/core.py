"""Probability primitives for the guessing toolkit.

Finite distributions (plain and joint), the tunable loss family, tilted
distributions, and the entropy functionals built on top of them.  All public
functions are pure, and the arrays stored inside the value types are marked
read-only, so values can be shared freely across threads.

Entropies are returned in nats throughout; callers wanting bits divide by
``ln 2`` (the CLI exposes a flag for that).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KGuessError",
    "ParseError",
    "InvalidDistributionError",
    "DomainError",
    "BudgetError",
    "DegenerateColumnError",
    "AdmissibilityError",
    "SizeError",
    "ConvergenceError",
    "Alpha",
    "as_alpha",
    "Pmf",
    "as_pmf",
    "JointPmf",
    "as_joint",
    "Entropy",
    "alpha_loss",
    "tilted",
    "renyi_entropy",
    "arimoto_conditional_entropy",
    "conditional_pmf",
]

# Normalization tolerance for distributions and coverage sums.
SUM_TOL = 1e-9
# Width of the snap interval around alpha = 1.
ONE_SNAP_TOL = 1e-12


class KGuessError(Exception):
    """Base class for every error raised by this package."""


class ParseError(KGuessError, ValueError):
    """Unparseable token or malformed input text."""


class InvalidDistributionError(KGuessError, ValueError):
    """Input fails a distribution invariant (shape, sign, normalization, labels)."""


class DomainError(KGuessError, ValueError):
    """Arguments lie outside an operation's contract."""


class BudgetError(DomainError):
    """Guess budget incompatible with the distribution's support."""


class DegenerateColumnError(DomainError):
    """Conditioning on an outcome of probability zero."""


class AdmissibilityError(DomainError):
    """Coverage vector is not realizable by any strategy with this budget."""


class SizeError(DomainError):
    """Problem size exceeds the limits of an exhaustive method."""


class ConvergenceError(KGuessError, RuntimeError):
    """Iterative solver failed to reach tolerance within its iteration cap."""


# ---------------------------------------------------------------------------
# order parameter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alpha:
    """Order parameter of the loss family, a value in (0, inf].

    The two special orders have exact representations: any float within
    1e-12 of one snaps to the logarithmic branch, and ``math.inf`` selects
    the 0-1 (probability-of-error) branch.  Finite non-unit orders keep the
    float given.  Sub-normal orders, for which 1 / a overflows, are rejected.
    """

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if math.isnan(v) or v < sys.float_info.min:
            raise DomainError(f"alpha {self.value!r} is not a normal float in (0, inf]")
        if abs(v - 1.0) <= ONE_SNAP_TOL:
            v = 1.0
        object.__setattr__(self, "value", v)

    @property
    def is_one(self) -> bool:
        return self.value == 1.0

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    @property
    def is_finite(self) -> bool:
        return not math.isinf(self.value)

    @classmethod
    def one(cls) -> "Alpha":
        return cls(1.0)

    @classmethod
    def infinity(cls) -> "Alpha":
        return cls(math.inf)

    @classmethod
    def from_token(cls, token: str) -> "Alpha":
        """Parse a command-line token: a decimal, ``1``, or ``inf``.

        The token ``inf`` (case-insensitive) means the 0-1 branch; a bare
        ``1`` or anything within 1e-12 of it means the logarithmic branch.
        Raises :class:`ParseError` for unreadable tokens and
        :class:`DomainError` for readable but out-of-range values.
        """
        tok = token.strip().lower()
        if tok in {"inf", "infinity"}:
            return cls.infinity()
        try:
            v = float(tok)
        except ValueError as exc:
            raise ParseError(f"cannot parse alpha token {token!r}") from exc
        return cls(v)

    def __str__(self) -> str:
        if self.is_inf:
            return "inf"
        if self.is_one:
            return "1"
        return f"{self.value:g}"


def as_alpha(alpha: "Alpha | float | int | str") -> Alpha:
    """Coerce a float, int, token string, or Alpha into an Alpha."""
    if isinstance(alpha, Alpha):
        return alpha
    if isinstance(alpha, str):
        return Alpha.from_token(alpha)
    return Alpha(float(alpha))


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


def _freeze(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


# Below this length the stable sort is the faster: 3.6 against 7.7 us at 20
# elements and 32 against 44 us at 1000, but 150 against 70 us at 2000 (the
# unstable sort plus the tied-run pass; numpy 2.4, one core).
_STABLE_SORT_MAX = 1024


def _descending(x: np.ndarray) -> np.ndarray:
    """``np.argsort(-x, kind="stable")`` for a 1-d array without NaNs.

    Long arrays are sorted by the faster unstable sort, after which only the
    runs of tied values are re-sorted, by index: one sort of the keys
    ``group * n + index`` puts each run in ascending index order and keeps
    the runs where they are.  The result is the stable order exactly.
    """
    n = x.size
    if n < _STABLE_SORT_MAX:
        return np.argsort(-x, kind="stable")
    neg = -x
    idx = np.argsort(neg)
    s = neg[idx]
    tied = s[1:] == s[:-1]
    if not tied.any():
        return idx
    in_run = np.zeros(n, dtype=bool)
    in_run[1:] = tied
    in_run[:-1] |= tied
    pos = np.flatnonzero(in_run)
    # a run starts at each member not tied to the element before it
    group = np.ones(pos.size, dtype=np.int64)
    group[1:] = ~tied[pos[1:] - 1]
    keys = np.cumsum(group) * n + idx[pos]
    keys.sort()
    idx[pos] = keys % n
    return idx


def _check_budget(k: int) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise DomainError(f"guess budget must be a positive integer, got {k!r}")
    return int(k)


def _float_array(values, what: str) -> np.ndarray:
    """Convert distribution entries to float64, or raise InvalidDistributionError."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidDistributionError(
            f"{what} must be an array of numbers: {exc}"
        ) from None


def _check_labels(labels, count: int, what: str) -> tuple[str, ...] | None:
    """Labels as strings; each must be a string or a number (not a bool)."""
    if labels is None:
        return None
    try:
        labels = tuple(labels)
    except TypeError:
        raise InvalidDistributionError(
            f"{what}: labels must be a list, got {type(labels).__name__}"
        ) from None
    for i, x in enumerate(labels):
        if isinstance(x, bool) or not isinstance(x, (str, int, float, np.integer, np.floating)):
            raise InvalidDistributionError(
                f"{what}: label {i} must be a string or a number, got {type(x).__name__}"
            )
    labels = tuple(str(x) for x in labels)
    if len(labels) != count:
        raise InvalidDistributionError(
            f"{what}: got {len(labels)} labels for {count} entries"
        )
    if len(set(labels)) != len(labels):
        raise InvalidDistributionError(f"{what}: labels must be distinct")
    return labels


@dataclass(frozen=True, eq=False)
class Pmf:
    """A probability mass function over a finite alphabet.

    Entries must be nonnegative and sum to one within 1e-9; the stored
    vector is renormalized to sum to one exactly (up to rounding) and made
    read-only.  Zero atoms are kept, so indices always line up with the
    caller's alphabet.
    """

    probs: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        p = _float_array(self.probs, "pmf")
        if p.ndim != 1 or p.size == 0:
            raise InvalidDistributionError("pmf must be a nonempty 1-d array")
        if not np.all(np.isfinite(p)):
            raise InvalidDistributionError("pmf entries must be finite")
        if np.any(p < 0.0):
            i = int(np.argmin(p))
            raise InvalidDistributionError(
                f"pmf entry {i} is negative ({float(p[i])!r})"
            )
        s = float(p.sum())
        if abs(s - 1.0) > SUM_TOL:
            raise InvalidDistributionError(
                f"pmf sums to {s!r}, outside 1 +/- {SUM_TOL}"
            )
        object.__setattr__(self, "probs", _freeze(p / s))
        object.__setattr__(
            self, "labels", _check_labels(self.labels, p.size, "pmf")
        )

    @property
    def n(self) -> int:
        return int(self.probs.size)

    @property
    def support_size(self) -> int:
        """Number of atoms with strictly positive probability."""
        return int(np.count_nonzero(self.probs > 0.0))

    @classmethod
    def uniform(cls, n: int) -> "Pmf":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, n: int, index: int = 0) -> "Pmf":
        if not 0 <= index < n:
            raise DomainError(f"point mass index {index} outside [0, {n})")
        p = np.zeros(n)
        p[index] = 1.0
        return cls(p)


def as_pmf(pmf: "Pmf | object") -> Pmf:
    """Coerce an array-like of probabilities into a validated Pmf."""
    return pmf if isinstance(pmf, Pmf) else Pmf(pmf)


@dataclass(frozen=True, eq=False)
class JointPmf:
    """A joint distribution over a pair of finite alphabets.

    ``probs[x, y]`` is the mass on the pair; the matrix is validated and
    renormalized the same way as :class:`Pmf`.
    """

    probs: np.ndarray
    x_labels: tuple[str, ...] | None = None
    y_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        p = _float_array(self.probs, "joint pmf")
        if p.ndim != 2 or p.size == 0:
            raise InvalidDistributionError("joint pmf must be a nonempty 2-d array")
        if not np.all(np.isfinite(p)):
            raise InvalidDistributionError("joint pmf entries must be finite")
        if np.any(p < 0.0):
            x, y = np.unravel_index(int(np.argmin(p)), p.shape)
            raise InvalidDistributionError(
                f"joint pmf entry ({x}, {y}) is negative ({float(p[x, y])!r})"
            )
        s = float(p.sum())
        if abs(s - 1.0) > SUM_TOL:
            raise InvalidDistributionError(
                f"joint pmf sums to {s!r}, outside 1 +/- {SUM_TOL}"
            )
        object.__setattr__(self, "probs", _freeze(p / s))
        object.__setattr__(
            self, "x_labels", _check_labels(self.x_labels, p.shape[0], "joint pmf x")
        )
        object.__setattr__(
            self, "y_labels", _check_labels(self.y_labels, p.shape[1], "joint pmf y")
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.probs.shape[0]), int(self.probs.shape[1]))

    def marginal_x(self) -> Pmf:
        return Pmf(self.probs.sum(axis=1), labels=self.x_labels)

    def marginal_y(self) -> Pmf:
        return Pmf(self.probs.sum(axis=0), labels=self.y_labels)

    @classmethod
    def product(cls, px: "Pmf | object", py: "Pmf | object") -> "JointPmf":
        """Independent coupling of two marginals."""
        px, py = as_pmf(px), as_pmf(py)
        return cls(np.outer(px.probs, py.probs), px.labels, py.labels)

    @classmethod
    def diagonal(cls, pmf: "Pmf | object") -> "JointPmf":
        """Joint with Y a perfect copy of X."""
        pmf = as_pmf(pmf)
        return cls(np.diag(pmf.probs), pmf.labels, pmf.labels)


def as_joint(joint: "JointPmf | object") -> JointPmf:
    return joint if isinstance(joint, JointPmf) else JointPmf(joint)


@dataclass(frozen=True)
class Entropy:
    """An entropy value in nats, clamped to zero from tiny negative rounding."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if math.isnan(v):
            raise KGuessError("entropy computed as NaN")
        if v < 0.0:
            if v < -1e-12:
                raise KGuessError(f"entropy came out negative: {v!r}")
            v = 0.0
        object.__setattr__(self, "value", v)

    @property
    def bits(self) -> float:
        return self.value / math.log(2.0)

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# loss family and entropies
# ---------------------------------------------------------------------------


def alpha_loss(p: float, alpha: "Alpha | float | str") -> float:
    """Loss for assigning probability ``p`` to the realized outcome.

    Parameters
    ----------
    p : float
        Probability placed on the true symbol, in [0, 1] (a slack of 1e-12
        beyond each end is clipped).
    alpha : Alpha or float or str
        Order of the loss.  Order one gives the logarithmic loss -ln p,
        infinite order gives 1 - p, and finite orders interpolate via
        (a / (a - 1)) * (1 - p ** ((a - 1) / a)).

    Returns
    -------
    float
        The loss, nonincreasing in ``p``.  At p = 0 this is +inf for
        orders <= 1 and the finite ceiling a / (a - 1) for orders > 1.
    """
    a = as_alpha(alpha)
    if math.isnan(p) or p < -1e-12 or p > 1.0 + 1e-12:
        raise DomainError(f"probability {p!r} outside [0, 1]")
    p = min(max(float(p), 0.0), 1.0)
    if a.is_inf:
        return 1.0 - p
    if a.is_one:
        return math.inf if p == 0.0 else -math.log(p)
    beta = (a.value - 1.0) / a.value
    if p == 0.0:
        return a.value / (a.value - 1.0) if a.value > 1.0 else math.inf
    # 1/beta * (1 - p**beta), written with expm1 so orders near one stay exact
    try:  # beta * ln p > 0 only below order one, where the loss tends to +inf
        return -math.expm1(beta * math.log(p)) / beta
    except OverflowError:
        return math.inf


def _tilt_rows(P: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows of P tilted to exp(a * (ln p - max ln p)), largest entry exactly one,
    and their sums: row i of the tilted pmf is w[i] / total[i]."""
    with np.errstate(divide="ignore"):
        logp = np.log(P)
    w = np.exp(a * (logp - logp.max(axis=1, keepdims=True)))
    return w, w.sum(axis=1)


def tilted(pmf: "Pmf | object", alpha: "Alpha | float | str") -> Pmf:
    """Exponential tilt of a pmf: entries proportional to p ** a.

    Order one returns the input unchanged.  Infinite order returns the
    uniform distribution over the argmax set (ties within 1e-12 of the
    maximum split equally).  The computation runs in log space, so large
    orders do not overflow.
    """
    pmf = as_pmf(pmf)
    a = as_alpha(alpha)
    if a.is_one:
        return pmf
    p = pmf.probs
    if a.is_inf:
        top = p >= float(p.max()) - 1e-12
        out = np.where(top, 1.0 / np.count_nonzero(top), 0.0)
        return Pmf(out, labels=pmf.labels)
    w, total = _tilt_rows(p[None, :], a.value)
    return Pmf(w[0] / total[0], labels=pmf.labels)


def renyi_entropy(pmf: "Pmf | object", alpha: "Alpha | float | str") -> Entropy:
    """Renyi entropy of the given order, in nats.

    Order one is the Shannon entropy, infinite order is -ln(max p), and
    finite orders evaluate ln(sum p ** a) / (1 - a) over the support.
    """
    pmf = as_pmf(pmf)
    a = as_alpha(alpha)
    p = pmf.probs[pmf.probs > 0.0]
    if a.is_inf:
        return Entropy(-math.log(float(p.max())))
    if a.is_one:
        return Entropy(float(-np.sum(p * np.log(p))))
    _, total = _tilt_rows(p[None, :], a.value)  # sum p ** a = max p ** a * total
    log_sum = a.value * math.log(p.max()) + math.log(total[0])
    return Entropy(log_sum / (1.0 - a.value))


def arimoto_conditional_entropy(
    joint: "JointPmf | object", alpha: "Alpha | float | str"
) -> Entropy:
    """Arimoto conditional entropy of X given Y, in nats.

    Defined for finite orders other than one as
    (a / (1 - a)) * ln sum_y (sum_x P(x, y) ** a) ** (1 / a).
    Orders one and infinity are outside this functional's contract and
    raise :class:`DomainError`.
    """
    joint = as_joint(joint)
    a = as_alpha(alpha)
    if a.is_one or a.is_inf:
        raise DomainError(
            "Arimoto conditional entropy requires a finite order other than one"
        )
    cols = joint.probs.T[joint.probs.sum(axis=0) > 0.0]
    _, total = _tilt_rows(cols, a.value)
    # ln (sum_x P(x, y) ** a) ** (1 / a) for each column of positive mass
    inner = np.log(cols.max(axis=1)) + np.log(total) / a.value
    top = float(inner.max())
    outer = top + math.log(np.exp(inner - top).sum())
    return Entropy(a.value / (1.0 - a.value) * outer)


def _joint_rows(joint: JointPmf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of the marginal of X, then of X given each column of positive
    mass; and those columns' masses and indices."""
    P = joint.probs
    py = P.sum(axis=0)
    live = np.flatnonzero(py > 0.0)
    cols = P.T
    if live.size < py.size:  # gather only when some column is dead
        cols, py = cols[live], py[live]
    rows = np.empty((py.size + 1, P.shape[0]))  # C order, for the row passes
    rows[0] = P.sum(axis=1)
    np.divide(cols, py[:, None], out=rows[1:])
    return rows, py, live


def conditional_pmf(joint: "JointPmf | object", y_index: int) -> Pmf:
    """Conditional distribution of X given the column ``y_index``."""
    joint = as_joint(joint)
    m = joint.probs.shape[1]
    if not 0 <= y_index < m:
        raise DomainError(f"y index {y_index} outside [0, {m})")
    col = joint.probs[:, y_index]
    mass = float(col.sum())
    if mass <= 0.0:
        raise DegenerateColumnError(
            f"cannot condition on outcome {y_index} of probability zero"
        )
    return Pmf(col / mass, labels=joint.x_labels)
