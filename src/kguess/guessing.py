"""Closed-form optimal guessing under the tunable loss family.

An adversary gets ``k`` distinct guesses at a symbol drawn from a known
finite distribution and pays the loss of the total probability mass its
guess set places on the truth.  The optimum has a threshold structure: the
``r - 1`` most likely symbols are guessed outright, and the remaining
budget is spread over the tail in proportion to tilted probabilities.
This module computes that threshold rank, the minimal expected loss, and
the per-symbol coverage probabilities, all in closed form.

Every caller runs on one kernel, ``_solve_rows``, which solves the rows of a
matrix at once in the log domain, so that extreme orders stay stable.  It needs
only a row's k largest atoms in order (the head) and one power sum over the rest
(the tail), taken in column order: O(n + k log k) per row, O(k) per rank pass.
The leakage reads each row's best expectation off the kernel's rank stage
alone (``_log_expectations``), with no pass over the coverage.  Both joint
callers run through ``_on_joint``: the marginal of X and X given each
observation, as the rows of one matrix in buffers that each thread reuses.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import (
    BOUND_SLACK,
    Alpha,
    BudgetError,
    DomainError,
    JointPmf,
    KGuessError,
    Pmf,
    SUM_TOL,
    _array,
    _check_budget,
    _descending,
    _freeze,
    _indices,
    _losses,
    _nonnegative,
    _outside_unit,
    _tilt_rows,
    _trusted,
    as_alpha,
    as_joint,
    as_pmf,
)

__all__ = [
    "SortedPmf",
    "CoverageVector",
    "LossReport",
    "threshold_rank",
    "minimal_loss",
    "optimal_coverage",
    "minimal_loss_conditional",
]


@dataclass(frozen=True, eq=False)
class SortedPmf:
    """Positive probabilities in nonincreasing order plus the sort permutation.

    ``perm[r]`` is the original index of the symbol at sorted rank ``r``.
    Zero atoms are stripped; ``size`` remembers the original length so
    results can be embedded back.  Ties sort by ascending original index
    (the order of a stable sort), which makes downstream tie-breaking
    deterministic.
    """

    probs: np.ndarray
    perm: np.ndarray
    size: int

    def __post_init__(self) -> None:
        p = _array(self.probs, 1, "sorted pmf").copy()  # so _freeze leaves the caller's writeable
        perm = _indices(self.perm, 1, "sorted pmf perm")
        size = _check_budget(self.size, "sorted pmf size")
        if perm.shape != p.shape:
            raise DomainError("sorted pmf needs matching 1-d probs and perm")
        if p[-1] <= 0.0 or np.any(np.diff(p) > 0.0):
            raise DomainError("sorted pmf entries must be positive and nonincreasing")
        srt = np.sort(perm)  # distinct and below size, so size covers the support
        if srt[-1] >= size or np.any(srt[1:] == srt[:-1]):
            raise DomainError(f"sorted pmf perm must hold distinct indices below {size}")
        object.__setattr__(self, "probs", _freeze(p))
        object.__setattr__(self, "perm", _freeze(perm, np.intp))
        object.__setattr__(self, "size", size)

    @property
    def support_size(self) -> int:
        return int(self.probs.size)

    @classmethod
    def from_pmf(cls, pmf: "Pmf | object") -> "SortedPmf":
        pmf = as_pmf(pmf)
        pos = np.flatnonzero(pmf.probs > 0.0)
        # ties stay in ascending original-index order
        order = _freeze(pos[_descending(pmf.probs[pos])], np.intp)
        return _trusted(cls, probs=_freeze(pmf.probs[order]), perm=order, size=pmf.n)


@dataclass(frozen=True, eq=False)
class CoverageVector:
    """Per-symbol probability of appearing in the guess set.

    Indexed like the original pmf.  Entries live in [0, 1] (a slack of
    1e-12 is clipped) and the total equals the number of guesses actually
    spent, an integer no larger than ``k``, within 1e-9.
    """

    t: np.ndarray
    k: int

    def __post_init__(self) -> None:
        t = _array(self.t, 1, "coverage")
        k = _check_budget(self.k)
        if _outside_unit(t).size:
            raise DomainError("coverage entries must lie in [0, 1]")
        t = np.clip(t, 0.0, 1.0)
        total = float(t.sum())
        spent = round(total)
        if abs(total - spent) > SUM_TOL or not 1 <= spent <= k:
            raise DomainError(
                f"coverage sums to {total!r}, not an integer budget in [1, {k}]"
            )
        object.__setattr__(self, "t", _freeze(t))
        object.__setattr__(self, "k", k)

    @property
    def spent(self) -> int:
        """Guesses actually used; less than ``k`` only when support is short."""
        return int(round(float(self.t.sum())))


@dataclass(frozen=True, eq=False)
class LossReport:
    """Everything the closed form knows about one instance.

    ``threshold_rank`` is the 1-based sorted rank at which deterministic
    guessing stops; entries of the sorted coverage before it equal one.
    ``multiplier`` is the positive threshold from the stationarity
    conditions (informational; coverage equals min((p / multiplier) ** a, 1)
    on the support for finite orders).
    """

    value: float
    threshold_rank: int
    coverage: CoverageVector
    alpha: Alpha
    multiplier: float

    def __post_init__(self) -> None:
        if not 1 <= self.threshold_rank <= self.coverage.k:
            raise KGuessError(
                f"threshold rank {self.threshold_rank} outside [1, {self.coverage.k}]"
            )
        if not self.multiplier > 0.0:
            raise KGuessError(f"multiplier must be positive, got {self.multiplier!r}")
        object.__setattr__(self, "value", _nonnegative(self.value, "minimal loss", BOUND_SLACK))
        object.__setattr__(self, "threshold_rank", int(self.threshold_rank))


# Below this many elements, sorting whole rows is cheaper than partitioning
# them.  Selecting the head of one row of 1000 took 21 us sorted against 21 us
# partitioned; one row of 1280, 49 against 21 us; 16 rows of 64, 21 against
# 27 us; 24 rows of 64, 28 against 25 us (numpy 2.4, one core).
_PARTITION_MIN_SIZE = 1280


def _head(
    P: np.ndarray, k: int, work: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``P``, for k <= n: the columns of its k largest atoms in
    descending order with ties by column, and the atoms there followed by the
    (k+1)-th largest atom when k < n.  Partitions in ``work``, an array of
    P's shape, when given."""
    rows, n = P.shape
    if P.size < _PARTITION_MIN_SIZE or k >= n - 1:
        head = np.argsort(-P, axis=1, kind="stable")[:, :k + 1]
        return head[:, :k], P[np.arange(rows)[:, None], head]
    H = np.empty((rows, k + 1))
    if work is None:
        H[:, k] = np.partition(P, n - k - 1, axis=1)[:, n - k - 1]  # O(n) per row
    else:
        np.copyto(work, P)
        work.partition(n - k - 1, axis=1)
        H[:, k] = work[:, n - k - 1]
    # The atoms above the (k+1)-th are the head, found in column order, so that
    # the stable sort below breaks ties by column.  A row has k of them unless
    # its k-th atom ties the (k+1)-th; such rows get the full sort.
    flat = np.flatnonzero(P > H[:, k:])
    untied = np.ones(rows, dtype=bool)
    if flat.size != rows * k:
        row = flat // n
        untied = np.bincount(row, minlength=rows) == k
        flat = flat[untied[row]]
    atoms = P.reshape(-1)[flat].reshape(-1, k)
    order = np.argsort(-atoms, axis=1, kind="stable")
    head = np.empty((rows, k), dtype=np.intp)
    head[untied] = np.take_along_axis(flat.reshape(-1, k) % n, order, axis=1)
    H[untied, :k] = np.take_along_axis(atoms, order, axis=1)
    tied = np.flatnonzero(~untied)
    if tied.size:
        head[tied] = np.argsort(-P[tied], axis=1, kind="stable")[:, :k]
        H[tied, :k] = P[tied[:, None], head[tied]]
    return head, H


def _solve_rows(
    P: np.ndarray, k: int, a: Alpha, work: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """Per row of ``P`` (nonnegative, summing to one): loss, threshold rank,
    read-only coverage and multiplier.  Ties keep column order.  A row with at
    most k positive atoms covers them: loss 0, rank their count, multiplier
    the smallest of them.  ``work``, an array of P's shape, is ``_head``'s.

    Head and tail: the rank stage reads each row's k largest atoms, ordered by
    ``_head``, and one power sum over the rest; then coverage and loss take a
    few passes over each row in column order, with no gather or scatter."""
    rows, n = P.shape
    k = min(k, n)  # every budget from n up gives the same answer
    head, H = _head(P, k, work)
    if k < n and H[:, k].min() > 0.0:  # every row's (k+1)-th largest atom is positive
        value, rank, t, multiplier = _solve_live_rows(P, head, H[:, :k], a)
        spent = k
    else:
        positive = P > 0.0
        support = positive.sum(axis=1)
        spent = np.minimum(support, k)
        value, rank, t = np.zeros(rows), support, positive.astype(np.float64)
        multiplier = H[np.arange(rows), spent - 1]
        live = np.flatnonzero(support > k)
        if live.size:
            solved = _solve_live_rows(P[live], head[live], H[live, :k], a)
            value[live], rank[live], t[live], multiplier[live] = solved
    if not np.abs(t.sum(axis=1) - spent).max() <= SUM_TOL or math.isnan(value.sum()):
        raise KGuessError("closed form missed the guesses it spends; this is a bug")
    return value, rank, _freeze(t), multiplier


def _rank_stage(P: np.ndarray, head: np.ndarray, H: np.ndarray, a: Alpha,
                work: np.ndarray | None = None):
    """Threshold search on rows with more than k positive atoms, at a finite
    order, given the columns ``head`` of each row's k largest atoms, in order,
    and the atoms ``H`` there.  Runs under the caller's ``np.errstate``, with
    divide, over and invalid ignored: ln 0 is -inf.  Given ``work``, an array
    of P's shape, the tail pass allocates no array of that size: ln P
    overwrites P, and the tail terms are formed in ``work``.

    Returns ln P and, per row: the 0-based threshold rank ``s0``; ``guessed``,
    which head atoms are guessed outright (the ranks below s0); ``lead``, ln of
    the atom at s0; ``log_left``, ln(k - s0), the guesses left for the tail;
    ``log_total``, ln of the sum of (p / e ** lead) ** a over the ranks from s0
    on; and ln of the sum of (p / max p) ** a over the whole row."""
    rows, k = head.shape
    at, col = np.arange(rows), np.arange(k)
    # Tail terms over the k-th atom, each at most one: column order, head zeroed.
    if work is None:
        logp, logh = np.log(P), np.log(H)
        y = a.value * (logp - logh[:, k - 1:])
    else:
        logp, logh = np.log(P, out=P), np.log(H)
        y = np.subtract(logp, logh[:, k - 1:], out=work)
        y *= a.value
    np.exp(y, out=y)
    y[at[:, None], head] = 0.0
    tail = y.sum(axis=1)
    del y
    # Centred on the largest atom, so that a * ln p cannot swamp ln m.
    x = a.value * (logh - logh[:, :1])
    # ln of the sum from each rank r < k to the end of the row, tail first.
    suffix = np.concatenate((np.log(tail)[:, None] + x[:, k - 1:], x[:, ::-1]), axis=1)
    suffix = np.logaddexp.accumulate(suffix, axis=1)[:, :0:-1]
    # The threshold is the first rank r with (k - r + 1) w_r <= sum(w_r:),
    # where this test is False (or NaN); rank k always passes.
    factors = np.log(np.arange(k, 0, -1, dtype=np.float64))  # ln(k - r + 1)
    s0 = (factors + x > suffix).argmin(axis=1)
    while True:
        # The tail's own sum decides: where a * ln p is large the suffix sums
        # lose digits and can pass a rank whose first tail entry exceeds one.
        lead = logh[at, s0]
        e = np.exp(a.value * (logh - lead[:, None]))
        tail_over_lead = e[:, k - 1] * tail
        e[col <= s0[:, None]] = 0.0  # sum the ranks past s0, then add the tail
        log_total = np.log1p(e.sum(axis=1) + tail_over_lead)
        log_left = factors[s0]  # ln of the guesses left for the tail
        over = log_left > log_total
        if not over.any():
            break
        s0 = s0 + over
    return logp, s0, col < s0[:, None], lead, log_left, log_total, suffix[:, 0]


def _solve_live_rows(P: np.ndarray, head: np.ndarray, H: np.ndarray, a: Alpha):
    """``_solve_rows`` on rows with more than k positive atoms, given the columns
    ``head`` of each row's k largest atoms, in order, and the atoms ``H`` there:
    the rank stage, then the passes over whole rows."""
    rows, k = head.shape
    heads = (np.arange(rows)[:, None], head)  # indexes every row's head columns
    if a.is_inf:  # the loss is the mass past the head, summed as is: 1 - head cancels
        t = P.copy()
        t[heads] = 0.0
        value = t.sum(axis=1)
        t.fill(0.0)
        t[heads] = 1.0
        return value, np.full(rows, k), t, H[:, k - 1]
    # Beyond float range the loss and the multiplier are +inf; ln 0 is -inf.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y, s0, guessed, lead, log_left, log_total, _ = _rank_stage(P, head, H, a)
        y -= lead[:, None]  # ln P, in place: arrays as large as P, few at a time
        y *= a.value
        y += (log_left - log_total)[:, None]  # now ln t past the threshold
        y[heads] = np.where(guessed, 0.0, y[heads])
        t = np.exp(y)
        value = _losses(t, a, P, y)  # over y
        multiplier = np.exp(lead + (log_total - log_left) / a.value)
    return value, s0 + 1, t, multiplier


def _log_expectations(
    P: np.ndarray, k: int, a: Alpha, work: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """Per row of ``P`` (nonnegative, summing to one), at a finite order: ln of
    the best expectation sum(p * t ** beta) over the optimal coverage t, with
    beta = (a - 1) / a; ln of the sum of (p / max p) ** a; and the column of the
    largest atom, the lowest on ties.  Given ``work``, an array of P's shape,
    it works in place as ``_rank_stage`` does, and P is overwritten.

    From the rank stage alone, in O(k) per row past it: the optimum guesses the
    r - 1 likeliest atoms outright and spreads k - r + 1 guesses over the rest,
    so the expectation is their mass plus (k - r + 1) ** beta times the a-norm
    of the rest.  A row with at most k positive atoms guesses them all: ln 1 = 0.
    """
    rows, n = P.shape
    k = min(k, n)
    head, H = _head(P, k, work)
    live = H[:, k] > 0.0 if k < n else np.zeros(rows, dtype=bool)
    best, log_mass = np.zeros(rows), np.empty(rows)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if not live.all():  # the head holds every positive atom of these rows
            log_mass[~live] = np.log(_tilt_rows(H[~live, :k], a.value)[1])
        if live.any():
            at = slice(None) if live.all() else live  # no copies when every row is live
            h, Pa = H[at, :k], P[at]
            wa = None if work is None else work[:len(Pa)]
            _, _, guessed, lead, log_left, log_total, mass = _rank_stage(Pa, head[at], h, a, wa)
            beta = (a.value - 1.0) / a.value
            spread = lead + beta * log_left + log_total / a.value
            head_mass = np.where(guessed, h, 0.0).sum(axis=1)
            best[at], log_mass[at] = np.logaddexp(np.log(head_mass), spread), mass
    return best, log_mass, head[:, 0]


# The largest array a thread's scratch keeps, in bytes: 4 MiB, 2 ** 19 float64
# entries, as in the (columns + 1) x rows matrix of a 724 x 723 joint.
_SCRATCH_BYTES = 1 << 22


class _Scratch:
    """Two float64 buffers that the joint path reuses from call to call: slot 0
    holds ``_on_joint``'s matrix of conditional rows, slot 1 one work array of
    the same (columns + 1) x rows shape.

    Allocated afresh on every call, these matrices and their temporaries made
    a repeated 200 x 200 ``alpha_leakage`` spend over half its time in page
    faults, since the C allocator hands freed memory back to the system and
    the next call faults it in again.  A buffer keeps at most _SCRATCH_BYTES
    (4 MiB); a larger array is allocated per call."""

    __slots__ = ("_flat",)

    def __init__(self) -> None:
        self._flat = [np.empty(0), np.empty(0)]

    def array(self, slot: int, shape: tuple[int, int]) -> np.ndarray:
        """An uninitialized C-order array of ``shape`` in buffer ``slot``."""
        size = shape[0] * shape[1]
        if 8 * size > _SCRATCH_BYTES:
            return np.empty(shape)
        if self._flat[slot].size < size:
            self._flat[slot] = np.empty(size)
        return self._flat[slot][:size].reshape(shape)


# ``_SCRATCH.idle`` is the thread's idle _Scratch: one per thread, so threads
# never share buffers, and lent out while in use, so that a call nested in
# another on the same thread (by a signal handler, a profiler or a debugger)
# gets buffers of its own.  A call that raises keeps what it was lent, and the
# next one starts afresh.
_SCRATCH = threading.local()


def _on_joint(solve, joint: JointPmf, k: int, a: Alpha):
    """``solve(rows, k, a, work)`` on the rows of the marginal of X, then of X
    given each column of positive mass, with ``work`` an array of their shape;
    and those columns' masses and indices.  Both arrays are the thread's
    scratch: ``solve`` may overwrite them and returns no view of them."""
    scratch, _SCRATCH.idle = getattr(_SCRATCH, "idle", None) or _Scratch(), None
    P = joint.probs
    py = P.sum(axis=0)
    live = np.flatnonzero(py > 0.0)
    cols = P.T
    if live.size < py.size:  # gather only when some column is dead
        cols, py = cols[live], py[live]
    shape = (py.size + 1, P.shape[0])  # C order, for the row passes
    rows = scratch.array(0, shape)
    rows[0] = P.sum(axis=1)
    np.divide(cols, py[:, None], out=rows[1:])
    solved = solve(rows, k, a, scratch.array(1, shape))
    _SCRATCH.idle = scratch
    return solved, py, live


def _report(rows: tuple[np.ndarray, ...], i: int, k: int, a: Alpha) -> LossReport:
    """LossReport of kernel row ``i``, which the kernel checked: no re-validation."""
    value, rank, t, multiplier = rows
    return _trusted(LossReport, value=float(value[i]), threshold_rank=int(rank[i]),
                    coverage=_trusted(CoverageVector, t=t[i], k=k), alpha=a,
                    multiplier=float(multiplier[i]))


def threshold_rank(
    sorted_pmf: SortedPmf, k: int, alpha: "Alpha | float | str"
) -> int:
    """Rank where deterministic guessing hands over to randomized coverage.

    Returns the smallest 1-based rank ``r`` in [1, k] at which spreading
    the remaining ``k - r + 1`` guesses over the tail keeps every coverage
    entry at most one.  Infinite order returns ``k`` by convention (the
    top-k indicator is the limiting optimum).  Requires ``k`` below the
    positive support size.
    """
    probs = (sorted_pmf if isinstance(sorted_pmf, SortedPmf) else as_pmf(sorted_pmf)).probs
    a = as_alpha(alpha)
    k = _check_budget(k)
    if k >= (support := int(np.count_nonzero(probs))):
        raise BudgetError(f"budget {k} not below positive support {support}")
    return int(_solve_rows(probs[None, :], k, a)[1][0])


def minimal_loss(
    pmf: "Pmf | object", k: int, alpha: "Alpha | float | str"
) -> LossReport:
    """Minimal expected loss over all strategies making ``k`` distinct guesses.

    Parameters
    ----------
    pmf : Pmf or array-like
        Distribution of the secret symbol.
    k : int
        Number of guesses, at least one.
    alpha : Alpha or float or str
        Loss order.  Order one evaluates the expected log-loss of the
        optimal coverage, infinite order the probability of missing the
        top-k set, and finite orders the tilted-tail closed form.

    Returns
    -------
    LossReport
        Value, threshold rank, coverage over the original indices (zero
        atoms get coverage zero), order, and the stationarity multiplier.

    Notes
    -----
    When the budget covers the whole positive support the loss is zero and
    every positive atom gets coverage one.
    """
    pmf = as_pmf(pmf)
    a = as_alpha(alpha)
    k = _check_budget(k)
    return _report(_solve_rows(pmf.probs[None, :], k, a), 0, k, a)


def optimal_coverage(
    pmf: "Pmf | object", k: int, alpha: "Alpha | float | str"
) -> CoverageVector:
    """Coverage vector attaining the minimal expected loss."""
    return minimal_loss(pmf, k, alpha).coverage


def minimal_loss_conditional(
    joint: "JointPmf | object", k: int, alpha: "Alpha | float | str"
) -> tuple[float, list[LossReport | None]]:
    """Minimal expected loss when the adversary observes the side variable.

    Decomposes over the observation: each column is solved on its own and
    the values are averaged under the observation's marginal.  Columns of
    probability zero are skipped and reported as None.
    """
    joint = as_joint(joint)
    a = as_alpha(alpha)
    k = _check_budget(k)
    solved, weights, live = _on_joint(_solve_rows, joint, k, a)
    reports: list[LossReport | None] = [None] * joint.shape[1]
    for i, y in enumerate(live.tolist(), 1):  # row 0 is the marginal
        reports[y] = _report(solved, i, k, a)
    return float((weights * solved[0][1:]).sum()), reports
