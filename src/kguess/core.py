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
# Rounding slack for entries that must lie in [0, 1] and for values that
# cannot be negative.
BOUND_SLACK = 1e-12


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


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_budget(k, what: str = "guess budget") -> int:
    """``k`` as a positive int, or DomainError: the rule for every budget and size."""
    if not _is_int(k) or k < 1:
        raise DomainError(f"{what} must be a positive integer, got {k!r}")
    return int(k)


def _check_index(i, n: int, what: str) -> int:
    """``i`` as an int in [0, n), or DomainError: the rule for every index."""
    if not _is_int(i) or not 0 <= i < n:
        raise DomainError(f"{what} {i!r} outside [0, {n})")
    return int(i)


def _trusted(cls, **fields):
    """An instance of ``cls`` holding ``fields`` as given, which its caller has
    checked: the one way the library builds a value without its constructor."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _array(values, ndim: int, what: str, error=DomainError) -> np.ndarray:
    """``values`` as a nonempty, finite float64 array of ``ndim`` dimensions,
    or ``error``: the one reader of every input array."""
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must be an array of numbers: {exc}") from None
    if arr.ndim != ndim or arr.size == 0:
        raise error(f"{what} must be a nonempty {ndim}-d array")
    if not np.isfinite(arr).all():
        raise error(f"{what} entries must be finite")
    return arr


def _indices(values, ndim: int, what: str) -> np.ndarray:
    """``values`` as a read-only, nonempty int64 array of ``ndim`` dimensions with
    nonnegative entries, or DomainError: the one reader of every index array."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be an array of integers: {exc}") from None
    if arr.ndim != ndim or arr.size == 0 or arr.dtype.kind not in "iu":  # no bools, no floats
        raise DomainError(f"{what} must be a nonempty {ndim}-d array of integers")
    arr = np.array(arr, dtype=np.int64)  # a copy; uint64 past int64 turns negative
    if (arr < 0).any():
        raise DomainError(f"{what} entries must be nonnegative")
    return _freeze(arr, np.int64)


def _distribution(values, ndim: int, what: str) -> np.ndarray:
    """``values`` as a read-only distribution of ``ndim`` dimensions: entries
    nonnegative and summing to one within SUM_TOL, renormalized to sum to one
    exactly (up to rounding).  Raises InvalidDistributionError."""
    p = _array(values, ndim, what, InvalidDistributionError)
    if (p < 0.0).any():
        at = tuple(int(i) for i in np.unravel_index(int(np.argmin(p)), p.shape))
        raise InvalidDistributionError(
            f"{what} entry {at[0] if ndim == 1 else at} is negative ({float(p[at])!r})"
        )
    s = float(p.sum())
    if abs(s - 1.0) > SUM_TOL:
        raise InvalidDistributionError(f"{what} sums to {s!r}, outside 1 +/- {SUM_TOL}")
    return _freeze(p / s)


def _outside_unit(arr: np.ndarray) -> np.ndarray:
    """Indices of the entries of ``arr`` outside [0, 1] by more than BOUND_SLACK."""
    return np.flatnonzero((arr < -BOUND_SLACK) | (arr > 1.0 + BOUND_SLACK))


def _nonnegative(value: float, what: str, slack: float) -> float:
    """``value`` as a float that cannot be negative: NaN or anything below
    ``-slack`` raises KGuessError; smaller negatives and -0.0 read 0.0."""
    v = float(value)
    if math.isnan(v):
        raise KGuessError(f"{what} computed as NaN")
    if v < -slack:
        raise KGuessError(f"{what} came out negative: {v!r}")
    return v if v > 0.0 else 0.0  # max(-0.0, 0.0) is -0.0


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
        p = _distribution(self.probs, 1, "pmf")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "labels", _check_labels(self.labels, p.size, "pmf"))

    @property
    def n(self) -> int:
        return int(self.probs.size)

    @property
    def support_size(self) -> int:
        """Number of atoms with strictly positive probability."""
        return int(np.count_nonzero(self.probs > 0.0))

    @classmethod
    def uniform(cls, n: int) -> "Pmf":
        return cls(np.full(n := _check_budget(n, "alphabet size"), 1.0 / n))

    @classmethod
    def point_mass(cls, n: int, index: int = 0) -> "Pmf":
        p = np.zeros(n := _check_budget(n, "alphabet size"))
        p[_check_index(index, n, "point mass index")] = 1.0
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
        p = _distribution(self.probs, 2, "joint pmf")
        object.__setattr__(self, "probs", p)
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
        object.__setattr__(self, "value", _nonnegative(self.value, "entropy", BOUND_SLACK))

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
    if math.isnan(p) or p < -BOUND_SLACK or p > 1.0 + BOUND_SLACK:
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
    y_index = _check_index(y_index, joint.probs.shape[1], "y index")
    col = joint.probs[:, y_index]
    mass = float(col.sum())
    if mass <= 0.0:
        raise DegenerateColumnError(
            f"cannot condition on outcome {y_index} of probability zero"
        )
    return Pmf(col / mass, labels=joint.x_labels)
