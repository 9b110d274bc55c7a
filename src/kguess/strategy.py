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
    _losses,
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
            detail=f"entry {i} is {float(arr[i])!r}, outside [0, 1]",
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
        n = self._check_alphabet(n)
        return np.concatenate((self._coverage, np.zeros(n - self._coverage.size)))

    def _check_alphabet(self, n: int) -> int:
        """``n`` as an alphabet size that holds every member, or DomainError."""
        n = _check_budget(n, "alphabet size")
        if (top := self._coverage.size - 1) >= n:
            raise DomainError(f"subset member {top} outside alphabet of size {n}")
        return n

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

    Rank v fills the positions from ``bounds[v-1]`` (0 for v = 0) up to
    ``bounds[v]``, and ``bounds[-1]`` is the number of positions.  Each cell's
    rank must grow from one whole-number window to the next, so every window
    of positions (q, q + cells] must hold a bound: no run may be longer than
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
    cells are emitted left to right, and no two cells pick the same subset.
    Subsets hold ``cov.spent`` symbols, fewer than ``cov.k`` when the coverage
    spends fewer guesses (a budget above the support size).

    Each cumulative sum lands, by exact arithmetic, on a position of the
    k * cells (window, cell) pairs, offset-major.  Along those positions the
    rank of the picked symbol steps up by one at each landing, so the mixture
    is one repeat of the symbols by the gaps between landings, transposed to a
    row per cell.  The landings also give the repeated-guess check, in O(n);
    the coverage check reads the built subsets.
    """
    if not isinstance(cov, CoverageVector):
        raise DomainError("realize_coverage expects a CoverageVector")
    k = cov.spent
    support = np.flatnonzero(cov.t > 0.0)
    order = support[_descending(cov.t[support])]
    t = np.minimum(cov.t[order], 1.0)  # the entries are positive
    t = t * (k / float(t.sum()))
    # A partial sum can round past k before the last entry; capped at k, it
    # lands at the end like the last and cuts no cell.
    cums = np.minimum(np.cumsum(t), float(k))
    cums[-1] = float(k)

    whole = np.floor(cums)
    fracs = cums - whole  # exact: taking off the whole part rounds nothing
    # The cell edges: 0, the sorted fractional parts (those within _MERGE_TOL
    # of 1 read as 0) and 1, each kept only if it lies more than _MERGE_TOL
    # above the value sorted before it (1 always does).  Kept edges are then
    # more than _MERGE_TOL apart, so every cell gets a positive weight.
    cuts = np.where(fracs >= 1.0 - _MERGE_TOL, 0.0, fracs)
    edges = np.sort(np.concatenate(([0.0], cuts, [1.0])))
    edges = edges[np.concatenate(([True], edges[1:] - edges[:-1] > _MERGE_TOL))]
    widths = edges[1:] - edges[:-1]
    mids = 0.5 * (edges[:-1] + edges[1:])
    cells = mids.size

    # Cell c picks, in window j, the symbol of rank (at most the last) equal
    # to the number of cums at or below j + mids[c].  cums[v] lands in window
    # floor(cums[v]), on the first cell whose midpoint is not below its
    # fractional part, so rank v fills the offset-major positions from the
    # landing of cums[v-1] up to that of cums[v].
    bounds = whole.astype(np.int64) * cells + np.searchsorted(mids, fracs, side="left")
    lengths = _run_lengths(bounds, cells)
    # A row per cell, copied to C order (which frees the repeat before the
    # coverage check).  Each kept edge above 0 is the exact fractional part
    # of some cums[v] below k, strictly between the midpoints beside it, so
    # every cell but the first takes a landing and picks a higher rank than
    # the cell before it in that window: no two cells pick the same subset.
    # Members are distinct (checked by _run_lengths) and weights positive
    # (cells wider than _MERGE_TOL); the coverage is checked below.
    subsets = _freeze(np.repeat(order, lengths).reshape(k, cells).T, np.int64)
    mix = _trusted(SubsetMixture, subsets=subsets, weights=_freeze(widths / widths.sum()))
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
    coverage; otherwise it is +inf only when it lies beyond float range.
    """
    pmf = as_pmf(pmf)
    a = as_alpha(alpha)
    pos = pmf.probs > 0.0
    return float(_losses(mix.coverage(pmf.n)[pos], a, pmf.probs[pos]))
