"""Turning coverage vectors into explicit randomized guess strategies.

A coverage vector says how often each symbol should appear among the k
guesses; this module checks that such a vector is realizable, builds an
explicit finite mixture of k-subsets achieving it, draws guesses from a
mixture, and evaluates the expected loss any mixture incurs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    Alpha,
    DomainError,
    KGuessError,
    Pmf,
    SUM_TOL,
    _array,
    _check_budget,
    _descending,
    _freeze,
    _indices,
    _outside_unit,
    _trusted,
    as_alpha,
    as_pmf,
)
from .guessing import CoverageVector

__all__ = [
    "Admissibility",
    "SubsetMixture",
    "is_admissible",
    "realize_coverage",
    "sample_guesses",
    "strategy_loss",
]

_MERGE_TOL = 1e-12
# Mixture coverage is summed this many subset members at a time, so that its
# temporaries stay small however large the mixture is.
_COVERAGE_BLOCK = 1 << 16


@dataclass(frozen=True)
class Admissibility:
    """Verdict on whether a coverage vector is realizable with budget k.

    ``violation`` is ``"bounds"`` (with the first offending ``index``) when
    an entry leaves [0, 1], or ``"sum"`` when the total misses the budget.
    """

    ok: bool
    violation: str | None = None
    index: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def is_admissible(values: "np.ndarray | object", k: int) -> Admissibility:
    """Check realizability: entries in [0, 1] and total equal to ``k``.

    Bounds carry a slack of 1e-12, the sum a slack of 1e-9.  Those two
    conditions characterize exactly the vectors obtainable as per-symbol
    inclusion probabilities of k-subset mixtures.
    """
    arr = _array(values, 1, "admissibility vector")
    k = _check_budget(k)
    bad = _outside_unit(arr)
    if bad.size:
        i = int(bad[0])
        return Admissibility(
            ok=False,
            violation="bounds",
            index=i,
            detail=f"entry {i} is {float(arr[i]):g}, outside [0, 1]",
        )
    total = float(arr.sum())
    if abs(total - k) > SUM_TOL:
        return Admissibility(
            ok=False,
            violation="sum",
            detail=f"entries sum to {total!r}, need {k}",
        )
    return Admissibility(ok=True)


@dataclass(frozen=True, eq=False)
class SubsetMixture:
    """A finite mixture of guess sets, each of the same size.

    ``subsets`` is a read-only int64 array of shape ``(components, k)``:
    row ``j`` lists the symbol indices of component ``j`` (distinct within
    the row) and ``weights[j]`` its probability.  Any rectangular nested
    sequence of integers is accepted on construction.  Weights are positive
    and sum to one within 1e-9 (renormalized exactly on construction).
    """

    subsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        s = _indices(self.subsets, 2, "mixture subsets")
        srt = np.sort(s, axis=1)
        if np.any(srt[:, 1:] == srt[:, :-1]):
            raise DomainError("indices within a component must be distinct")
        w = _array(self.weights, 1, "component weights")
        if w.shape != (s.shape[0],):
            raise DomainError("one weight per component required")
        if np.any(w <= 0.0):
            raise DomainError("component weights must be positive")
        total = float(w.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise DomainError(f"weights sum to {total!r}, outside 1 +/- {SUM_TOL}")
        object.__setattr__(self, "subsets", s)
        object.__setattr__(self, "weights", _freeze(w / total))

    @property
    def k(self) -> int:
        return self.subsets.shape[1]

    @property
    def n_components(self) -> int:
        return self.subsets.shape[0]

    def coverage(self, n: int) -> np.ndarray:
        """Per-symbol inclusion probability induced over alphabet size n."""
        self._check_alphabet(n)
        return np.concatenate((self._coverage, np.zeros(n - self._coverage.size)))

    def _check_alphabet(self, n: int) -> None:
        if (top := self._coverage.size - 1) >= n:
            raise DomainError(f"subset member {top} outside alphabet of size {n}")

    @cached_property
    def _coverage(self) -> np.ndarray:
        """Inclusion probability of each symbol from 0 to the largest member."""
        # Adds the weights in component order, as a loop would (and as one
        # bincount over the whole mixture does), a block of rows at a time.
        cover = np.zeros(int(self.subsets.max()) + 1)
        step = max(1, _COVERAGE_BLOCK // self.k)
        for start in range(0, self.n_components, step):
            block = self.subsets[start:start + step]
            np.add.at(cover, block.ravel(), np.repeat(self.weights[start:start + step], self.k))
        return _freeze(cover)

    @cached_property
    def _cum_list(self) -> list[float]:
        """The cumulative weights, as the list that the draws bisect."""
        return np.cumsum(self.weights).tolist()


def _run_lengths(bounds: np.ndarray, cells: int) -> np.ndarray:
    """Run lengths of the offset-major ranks, checked for repeated guesses.

    Rank v fills the key positions from ``bounds[v-1]`` (0 for v = 0) up to
    ``bounds[v]``, and ``bounds[-1]`` is the number of keys.  Each cell's rank
    must grow from one whole-number window to the next, so every window of
    positions (q, q + cells] must hold a bound: no run may be longer than
    ``cells``.
    """
    lengths = bounds.copy()
    lengths[1:] -= bounds[:-1]
    if lengths.max() > cells:
        raise KGuessError("decomposition produced a repeated guess; bug")
    return lengths


def realize_coverage(cov: CoverageVector) -> SubsetMixture:
    """Build an explicit mixture whose inclusion probabilities equal ``cov``.

    This is Madow's systematic design.  The cumulative sums of the coverage
    entries (largest first) cut the unit interval at their fractional parts;
    each cell picks one symbol per whole-number window, which yields at most
    n distinct subsets whose weighted union reproduces the coverage exactly.
    Symbols with zero coverage never appear.  The output is deterministic:
    cells are emitted left to right and duplicate subsets are merged.  Subsets
    hold ``cov.spent`` symbols, fewer than ``cov.k`` when the coverage spends
    fewer guesses (a budget above the support size).

    One binary search places the cumulative sums among the k * cells window
    keys, offset-major.  Along the keys the rank of the picked symbol steps up
    by one at each landing position, so the mixture is one repeat of the
    symbols by the gaps between landings, transposed to a row per cell.  The landings also
    give the merges (adjacent cells differ only where a landing falls on the
    later cell) and the repeated-guess check, in O(n); the coverage check
    reads the built subsets.
    """
    if not isinstance(cov, CoverageVector):
        raise DomainError("realize_coverage expects a CoverageVector")
    k = cov.spent
    support = np.flatnonzero(cov.t > 0.0)
    order = support[_descending(cov.t[support])]
    t = np.minimum(cov.t[order], 1.0)  # the entries are positive
    t = t * (k / float(t.sum()))
    cums = np.cumsum(t)
    cums[-1] = float(k)

    fracs = cums - np.floor(cums)
    fracs[fracs >= 1.0 - _MERGE_TOL] = 0.0
    # The cell edges: 0, the sorted fractional parts and 1, each kept only if
    # it lies more than _MERGE_TOL above the value sorted before it (1 always
    # does, fracs being below 1 - _MERGE_TOL).  Kept edges are then more than
    # _MERGE_TOL apart, so every cell gets a positive weight.
    edges = np.sort(np.concatenate(([0.0], fracs, [1.0])))
    edges = edges[np.concatenate(([True], edges[1:] - edges[:-1] > _MERGE_TOL))]
    widths = edges[1:] - edges[:-1]
    mids = 0.5 * (edges[:-1] + edges[1:])
    cells = mids.size

    # Cell c picks, in window j, the symbol of rank searchsorted(cums, j +
    # mids[c], side="right") (at most the last).  Along the offset-major keys
    # that rank is the number of cums landing at or before the key, so rank v
    # fills the keys from the landing of cums[v-1] up to that of cums[v]; the
    # last rank runs to the end.
    keys = np.arange(k, dtype=np.float64)[:, None] + mids
    bounds = np.searchsorted(keys.ravel(), cums, side="left")
    del keys  # the largest temporary; free it before the mixture
    bounds[-1] = k * cells
    lengths = _run_lengths(bounds, cells)
    subsets = np.repeat(order, lengths).reshape(k, cells).T

    # Equal subsets sit in adjacent cells, and cell c differs from cell c - 1
    # exactly when a rank steps up between them: when some landing falls on c
    # modulo cells.  Merge each run of equal cells into its first cell (the
    # last bound, k * cells, marks cell 0).
    changed = np.zeros(cells, dtype=bool)
    changed[bounds % cells] = True
    starts = np.flatnonzero(changed)
    run = np.concatenate((starts[1:], [cells])) - starts
    # Sum each run left to right, as a per-cell loop would; np.add.reduceat
    # adds runs of three or more in another order.
    weights = widths[starts]
    for step in range(1, int(run.max())):
        longer = run > step
        weights[longer] += widths[starts[longer] + step]
    subsets = subsets[starts]  # a row per component, in C order
    # Members are distinct (checked by _run_lengths) and weights positive
    # (cells wider than _MERGE_TOL); the coverage is checked below.
    mix = _trusted(SubsetMixture, subsets=_freeze(subsets, np.int64),
                   weights=_freeze(weights / weights.sum()))
    if float(np.max(np.abs(mix.coverage(cov.t.size) - cov.t))) > SUM_TOL:
        raise KGuessError("decomposition failed to reproduce the coverage; bug")
    return mix


def sample_guesses(
    mix: SubsetMixture,
    seed: "int | np.random.Generator",
    pmf: "Pmf | object | None" = None,
) -> list[int]:
    """Draw one guess set from the mixture.

    Picks a component with probability equal to its weight using the seeded
    generator and returns its indices.  Components are stored most-probable
    symbol first when built by :func:`realize_coverage`; passing ``pmf``
    re-sorts the drawn set by decreasing probability (ties by index).
    Identical seeds give identical draws.
    """
    rng = np.random.default_rng(seed)
    # the same doubles as searchsorted(cumsum(weights), u, side="right") compares
    j = bisect_right(mix._cum_list, rng.random())
    subset = mix.subsets[min(j, mix.n_components - 1)].tolist()
    if pmf is not None:
        p = as_pmf(pmf).probs
        mix._check_alphabet(p.size)
        subset.sort(key=lambda i: (-p[i], i))
    return subset


def strategy_loss(
    mix: SubsetMixture, pmf: "Pmf | object", alpha: "Alpha | float | str"
) -> float:
    """Expected loss the mixture incurs against the given distribution.

    Charges each symbol the loss of its inclusion probability, weighted by
    its mass.  Symbols of positive mass that no component ever guesses make
    the result infinite for orders at most one, matching the loss at zero
    coverage.
    """
    pmf = as_pmf(pmf)
    a = as_alpha(alpha)
    cover = mix.coverage(pmf.n)
    p = pmf.probs
    pos = p > 0.0
    if a.is_inf:
        losses = 1.0 - cover[pos]
    elif a.is_one:
        with np.errstate(divide="ignore"):
            losses = -np.log(cover[pos])
    else:
        beta = (a.value - 1.0) / a.value
        with np.errstate(divide="ignore"):
            logc = np.log(cover[pos])
        # At zero coverage beta * ln 0 is +inf below order one, giving +inf,
        # and -inf above it, giving the ceiling 1 / beta.
        losses = -np.expm1(beta * logc) / beta
    return float((p[pos] * losses).sum())
