"""Independent numerical verification of the closed forms.

Two oracles live here.  ``minimize_expected_loss`` solves the coverage
optimization directly, as a convex program over the capped simplex
{ t : 0 <= t_i <= 1, sum t_i = k }, using projected descent with a
diagonal preconditioner and a duality-gap stopping certificate.  It never
looks at the threshold structure the closed form exploits, so agreement
between the two is real evidence.

``lp_feasible`` decides, in exact arithmetic, whether a coverage vector is
a nonnegative combination of k-subset indicator columns, and on rejection
produces a separating vector certifying the answer.  Its simplex prices the
k-subset columns without listing them and pivots fraction-free: integers
over one common denominator, with rationals built only for the answer.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    Alpha,
    BudgetError,
    ConvergenceError,
    DomainError,
    KGuessError,
    Pmf,
    SizeError,
    _array,
    _check_budget,
    _finite_order,
    _freeze,
    as_pmf,
)

__all__ = [
    "CappedSimplex",
    "OracleSolution",
    "FeasibilityResult",
    "project_capped_simplex",
    "minimize_expected_loss",
    "lp_feasible",
]

_SCALE = 10**9  # common denominator for exact feasibility inputs
_MAX_ROWS = 20


@dataclass(frozen=True)
class CappedSimplex:
    """The feasible set { t in R^n : 0 <= t_i <= 1, sum t_i = k }."""

    n: int
    k: int

    def __post_init__(self) -> None:
        n, k = _check_budget(self.n, "dimension"), _check_budget(self.k)
        if k > n:
            raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)


@dataclass(frozen=True, eq=False)
class OracleSolution:
    """Feasible point, objective value, and the certified optimality gap."""

    value: float
    t: np.ndarray
    gap: float
    iterations: int


def _project(v: np.ndarray, k: int, weights: np.ndarray | None = None) -> np.ndarray:
    """Euclidean (optionally diagonally weighted) projection onto the cap.

    The projection has the form t_i = clip(v_i - lam / w_i, 0, 1) where the
    scalar lam makes the coordinates sum to k.  The sum is continuous,
    nonincreasing and linear between the 2n breakpoints w_i (v_i - 1) (where
    t_i leaves one) and w_i v_i (where it reaches zero), so the breakpoint
    method is exact (Wang & Lu, arXiv:1503.01002, with diagonal weights):
    sort the breakpoints once, binary-search them for the last one where the
    sum, computed afresh at each probe, is still at least k, and solve that
    segment's linear piece for lam from its own free set.  O(n log n).
    """
    n = v.size
    w = np.ones_like(v) if weights is None else weights
    winv = 1.0 / w
    top, bottom = w * (v - 1.0), w * v  # t_i is 1 up to top_i and 0 from bottom_i
    points = np.sort(np.concatenate((top, bottom)))
    # The sum is nonincreasing in lam, in floating point too; it is n at the
    # first breakpoint and zero at the last, which the search takes as given.
    j, past = 0, 2 * n - 1
    while past - j > 1:
        mid = (j + past) // 2
        if float(np.clip(v - points[mid] * winv, 0.0, 1.0).sum()) >= k:
            j = mid
        else:
            past = mid
    lo, hi = float(points[j]), float(points[j + 1])
    ones = top >= hi
    free = ~ones & (bottom > lo)
    slope = float(winv[free].sum())
    excess = float(v[free].sum()) + float(np.count_nonzero(ones)) - k  # = lam * slope
    lam = min(max(excess / slope, lo), hi) if slope > 0.0 else lo
    t = np.zeros(n)
    t[ones] = 1.0
    t[free] = np.clip(v[free] - lam / w[free], 0.0, 1.0)
    # polish the rounding residual: spread it over the free coordinates
    # (a local refinement of the same multiplier)
    for _ in range(4):
        residual = k - float(t.sum())
        if abs(residual) <= 1e-15 * k:
            break
        free = (t < 1.0) if residual > 0.0 else (t > 0.0)
        if not np.any(free):
            break
        t[free] = np.clip(t[free] + residual * winv[free] / winv[free].sum(), 0.0, 1.0)
    return t


def project_capped_simplex(v: "np.ndarray | object", domain: CappedSimplex) -> np.ndarray:
    """Closest point of the capped simplex to ``v`` in Euclidean norm."""
    v = _array(v, 1, "vector to project")
    if v.size != domain.n:
        raise DomainError(f"expected a vector of length {domain.n}")
    t = _project(v, domain.k)
    if abs(float(t.sum()) - domain.k) > 1e-10:
        raise KGuessError("projection failed to hit the budget; this is a bug")
    return t


def minimize_expected_loss(
    pmf: "Pmf | object",
    k: int,
    alpha: "Alpha | float | str",
    tol: float = 1e-9,
    max_iter: int = 100_000,
) -> OracleSolution:
    """Minimize the expected loss over the capped simplex numerically.

    Parameters
    ----------
    pmf, k, alpha
        Instance to solve; the order must be finite and the budget below
        the positive support size.
    tol : float
        Absolute certificate target, positive and finite: iteration stops
        once the linearized duality gap (an upper bound on objective
        suboptimality) drops below it.
    max_iter : int
        Iteration cap; exceeding it raises :class:`ConvergenceError`.

    Returns
    -------
    OracleSolution
        Feasible coverage over the original indices, its objective value,
        the final certified gap, and the iteration count.

    Notes
    -----
    Descent starts from the interior point k/n and backtracks each step by
    halving until the objective falls strictly, or stays within 4 ulp of it
    while the certificate shrinks (the tie rule for objective differences
    below float resolution).  The stopping certificate is the smaller of two
    convexity bounds: the linearization gap against the best vertex (unit
    coverage on the k most attractive coordinates) and the weak-duality floor
    from box-minimizing the Lagrangian.  Neither relies on structural
    knowledge of the optimum.
    """
    pmf = as_pmf(pmf)
    a = _finite_order(alpha, "numerical oracle")
    k = _check_budget(k)
    if not tol > 0.0:  # NaN too
        raise DomainError("tolerance must be positive")
    if math.isinf(tol):
        raise DomainError("tolerance must be finite")
    pos = np.flatnonzero(pmf.probs > 0.0)
    if k >= pos.size:
        raise BudgetError(f"budget {k} not below positive support {pos.size}")
    p = pmf.probs[pos]
    n = p.size
    av = a.value
    # iterates are kept above a floor so t ** (-1/a) stays finite; it must sit
    # well below k/n or it would distort the problem, and not below 1e-18, or
    # a coordinate whose tiny atom sinks to it gets a gradient that rejects
    # every step
    floor = max(1e-18, 10.0 ** (-250.0 * av))
    if floor >= 0.25 * k / n:
        raise DomainError(
            f"order {av:g} is too small for a float64 descent oracle at "
            f"support size {n}; the gradient would overflow"
        )

    beta = 0.0 if a.is_one else (av - 1.0) / av

    def value(ln_t: np.ndarray) -> float:
        """The objective at t, given ln t."""
        if beta == 0.0:
            return -float(np.dot(p, ln_t))
        return -float(np.dot(p, np.expm1(beta * ln_t))) / beta

    def gradient(t: np.ndarray) -> np.ndarray:
        return -p * t ** (-1.0 / av)

    # Weak-duality floor under the constrained minimum: for any lam > 0,
    # minimizing f(s) + lam * (sum(s) - k) over the unit box splits per
    # coordinate, each 1-d minimizer at min(1, (p_i / lam) ** a).  Bisection
    # picks the lam whose box minimizer spends the budget, which makes the
    # bound tight, but any lam yields a valid floor.
    ln_p = np.log(p)
    lo = math.log(float(-np.partition(-p, k - 1)[k - 1]))
    hi = math.log(float(p.max())) + math.log(n / k) / av
    if hi <= lo:
        hi = lo + 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # the bracket is two adjacent floats
            break
        spent = float(np.exp(np.minimum(av * (ln_p - mid), 0.0)).sum())
        if spent >= k:
            lo = mid
        else:
            hi = mid
    lam = math.exp(0.5 * (lo + hi))
    ln_s = np.minimum(av * (ln_p - math.log(lam)), 0.0)
    dual_floor = value(ln_s) + lam * (float(np.exp(ln_s).sum()) - k)

    def certified_gap(t: np.ndarray, f_t: float, g: np.ndarray) -> float:
        """Upper bound on f(t) - min f, from convexity alone: the
        linearization gap against the best vertex, tight in the interior, or
        the distance to the dual floor, tight when optima sit near zero."""
        linear = float(np.dot(g, t) - np.partition(g, k - 1)[:k].sum())
        return max(min(linear, f_t - dual_floor), 0.0)

    t = np.full(n, k / n)
    f_t, g = value(np.log(t)), gradient(t)
    gap = certified_gap(t, f_t, g)
    step = 1.0
    iteration = 0
    for iteration in range(1, max_iter + 1):
        if gap <= tol:
            break
        # below order one the power overflows to inf near the floor; the clip
        # caps it
        with np.errstate(over="ignore"):
            curvature = np.clip(p * (1.0 / av) * t ** (-1.0 - 1.0 / av), 1e-8, 1e18)
        # preconditioned first; where the curvature clip saturates (floored
        # coordinates) that move degenerates, so two scale-free directions
        # back it up before the loop may declare a stall
        scale = max(1.0, float(np.max(np.abs(g))))
        vertex = np.zeros(n)
        vertex[np.argpartition(g, k - 1)[:k]] = 1.0
        directions = (
            lambda s: _project(t - step * s * g / curvature, k, weights=curvature),
            lambda s: _project(t - s * g / scale, k),
            lambda s: t + s * (vertex - t),
        )
        # each direction backtracks by halving, 60 times at most; a step must
        # lower the objective, or, within 4 ulp of it (below float resolution),
        # strictly shrink the certificate
        slack = 4.0 * np.finfo(np.float64).eps * max(1.0, abs(f_t))
        candidates = (np.maximum(d(0.5**h), floor) for d in directions for h in range(60))
        for cand in candidates:
            f_cand = value(np.log(cand))
            if not f_cand <= f_t + slack:
                continue
            g_cand = gradient(cand)
            gap_cand = certified_gap(cand, f_cand, g_cand)
            if f_cand < f_t or gap_cand < gap:
                t, f_t, g, gap = cand, f_cand, g_cand, gap_cand
                step = min(step * 2.0, 1.0)
                break
        else:
            # stationary at float resolution; the gap decides the verdict
            break
    if gap > tol:
        raise ConvergenceError(
            f"no certificate below tol after {iteration} iterations (gap {gap:.3e})"
        )

    t_full = np.zeros(pmf.n)
    t_full[pos] = t
    return OracleSolution(value=f_t, t=_freeze(t_full), gap=gap, iterations=iteration)


# ---------------------------------------------------------------------------
# exact feasibility of coverage vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Outcome of the exact feasibility test.

    On rejection, ``certificate`` holds a rational separating vector y with
    sum(y over S) >= 0 for every k-subset S and y . t < 0, and
    ``certificate_valid`` records that both facts were re-checked exactly.
    On acceptance, ``witness`` lists (subset, weight) pairs whose indicator
    combination reproduces the scaled input exactly.  ``pivots`` counts the
    columns that entered the basis, the simplex's unit of work.
    """

    feasible: bool
    certificate: tuple[Fraction, ...] | None = None
    certificate_valid: bool | None = None
    witness: tuple[tuple[tuple[int, ...], Fraction], ...] | None = None
    pivots: int = 0

    def __bool__(self) -> bool:
        return self.feasible


def _first_negative_subset(c: list[int], k: int) -> tuple[int, ...] | None:
    """Lexicographically first k-subset S of indices with sum(c over S) < 0.

    Built greedily: each next index is the smallest one whose best
    completion (the smallest remaining entries after it) keeps the sum
    negative.  None when even the k smallest entries sum to >= 0.
    """
    n = len(c)
    # best[i][m] is the sum of the m smallest entries of c[i:]; one sorted
    # suffix, grown from the right, serves every i
    best = [[0]] * (n + 1)
    suffix: list[int] = []
    for i in range(n - 1, -1, -1):
        bisect.insort(suffix, c[i])
        best[i] = list(itertools.accumulate(suffix, initial=0))
    if best[0][k] >= 0:
        return None
    subset: list[int] = []
    total, i = 0, 0
    for need in range(k, 0, -1):
        while total + c[i] + best[i + 1][need - 1] >= 0:
            i += 1
        subset.append(i)
        total += c[i]
        i += 1
    return tuple(subset)


def _phase_one(
    b: list[int], k: int
) -> tuple[bool, int, list[int], list[tuple[tuple[int, ...], int]], int]:
    """Exact phase-one simplex for A q = b, q >= 0 over all k-subset columns.

    Columns are priced, not enumerated: Bland's rule enters the first column
    in combinations order with a negative reduced cost, which is the
    lexicographically first k-subset on which the reduced costs sum below
    zero.  A column is known by its subset: sorted k-tuples compare in
    combinations order, and the artificial of row i, coded (m + i,), sorts
    after every real column, so tuple comparison is Bland's order.

    The arithmetic is fraction-free (Edmonds 1967; Bareiss 1968).  With B
    the basis matrix of the sign-flipped system and D = |det B| > 0, the
    integer matrix ``inv`` holds D * B^-1 = +-adj(B) and ``x`` holds
    D * B^-1 b.  A pivot on element d_l makes d_l the new D; the pivot row
    keeps its integers and every other row i becomes
    (d_l * row_i - d_i * row_l) // D, a division that is exact because the
    result is again an adjugate.  The ratio test cross-multiplies, and the
    reduced costs are scaled by D > 0, which keeps the sign of every subset
    sum, so the pivots are those of the rational simplex.

    ``b`` holds the right-hand side as integers (any common scale).  Returns
    (feasible, D, D * y, basic, pivots): y is the final simplex multiplier
    vector in the sign-flipped space, basic lists (subset, D * value) pairs
    of the final basis restricted to real columns, and pivots counts the
    columns entered.
    """
    m = len(b)
    sign = [1 if bi >= 0 else -1 for bi in b]
    x = [abs(bi) for bi in b]
    # a basis entry is a subset, or (m + i,) for the artificial of row i;
    # only an artificial starts at m or above
    basis = [(m + i,) for i in range(m)]
    inv = [[int(i == j) for j in range(m)] for i in range(m)]
    denom = 1

    for pivots in range(200_000):
        # D * simplex multipliers for phase-one costs (1 on artificials)
        y = [0] * m
        for i in range(m):
            if basis[i][0] >= m:
                y = [u + v for u, v in zip(y, inv[i])]
        subset = _first_negative_subset([-sign[r] * y[r] for r in range(m)], k)
        if subset is None:
            artificial = sum(x[i] for i in range(m) if basis[i][0] >= m)
            basic = [(basis[i], x[i]) for i in range(m) if basis[i][0] < m]
            return artificial == 0, denom, y, basic, pivots
        d = [sum(row[r] * sign[r] for r in subset) for row in inv]
        leave = -1
        for i in range(m):
            if d[i] > 0 and (
                leave < 0
                or x[i] * d[leave] < x[leave] * d[i]
                or (x[i] * d[leave] == x[leave] * d[i] and basis[i] < basis[leave])
            ):
                leave = i
        if leave < 0:
            raise KGuessError("phase-one simplex unbounded; this is a bug")
        piv, row_l, x_l = d[leave], inv[leave], x[leave]
        for i in range(m):
            if i == leave:
                continue
            di = d[i]
            if di:
                inv[i] = [(piv * u - di * v) // denom for u, v in zip(inv[i], row_l)]
                x[i] = (piv * x[i] - di * x_l) // denom
            elif piv != denom:
                inv[i] = [piv * u // denom for u in inv[i]]
                x[i] = piv * x[i] // denom
        denom = piv
        basis[leave] = subset
    raise ConvergenceError("phase-one simplex exceeded its iteration cap")


def _snap(arr: np.ndarray) -> list[Fraction]:
    """``arr`` on the rational grid with denominator 10**9.

    Largest-remainder rounding keeps the total at round(sum(arr) * 1e9);
    entry by entry rounding can move it and so reject an admissible coverage.
    """
    scaled = arr * _SCALE
    grid = np.floor(scaled)
    short = round(float(arr.sum()) * _SCALE) - int(grid.sum())
    grid[np.argsort(grid - scaled, kind="stable")[: max(short, 0)]] += 1.0
    return [Fraction(int(v), _SCALE) for v in grid]


def lp_feasible(t: "np.ndarray | object", k: int) -> FeasibilityResult:
    """Exact test that ``t`` is a nonnegative combination of k-subset columns.

    The input is snapped to the rational grid with denominator 10**9, keeping
    its total at the grid point nearest sum(t), and the linear system is
    solved in exact arithmetic, so the verdict carries no floating-point
    doubt.  The simplex prices the k-subset columns without listing them
    (the entering column is a greedy pick over k-subsets), so memory does
    not grow with C(n, k), and it pivots on integers over one common
    denominator (fraction-free, Edmonds-Bareiss), so no pivot normalizes a
    rational.  The one limit, n <= 20, bounds the number of pivots and so
    the time: on 336 coverage and random vectors at n = 20, k = 1 to 19, the
    slowest decision took 0.63 s (Python 3.11, one core of a 2-core host).
    Under the usual normalization sum(t) = k, feasibility here coincides
    with coverage admissibility.
    """
    arr = _array(t, 1, "feasibility vector")
    k = _check_budget(k)
    n = arr.size
    if n > _MAX_ROWS:
        raise SizeError(f"exact feasibility limited to n <= {_MAX_ROWS}, got {n}")
    b = _snap(arr)
    if k > n:
        # no k-subset exists: zero is the empty combination, and -b separates
        # any other vector (its subset condition holds vacuously)
        if all(bi == 0 for bi in b):
            return FeasibilityResult(feasible=True, witness=())
        return FeasibilityResult(
            feasible=False, certificate=tuple(-bi for bi in b), certificate_valid=True
        )

    sign = [1 if bi >= 0 else -1 for bi in b]
    feasible, denom, y_flipped, basic, pivots = _phase_one([int(bi * _SCALE) for bi in b], k)

    if feasible:
        witness = tuple(
            (subset, Fraction(val, denom * _SCALE))
            for subset, val in sorted(basic)
            if val != 0
        )
        # re-derive the right-hand side from the witness, exactly
        recon = [Fraction(0)] * n
        for subset, weight in witness:
            for i in subset:
                recon[i] += weight
        if recon != b:
            raise KGuessError("feasibility witness failed verification; bug")
        return FeasibilityResult(feasible=True, witness=witness, pivots=pivots)

    # map the separating vector back through the row sign flips
    y = [Fraction(-y_flipped[i] * sign[i], denom) for i in range(n)]
    # y . S >= 0 for every k-subset S iff the k smallest entries sum >= 0
    smallest = sorted(y)[:k]
    cert_ok = sum(smallest) >= 0 and sum(yi * bi for yi, bi in zip(y, b)) < 0
    if not cert_ok:
        raise KGuessError("infeasibility certificate failed verification; bug")
    return FeasibilityResult(
        feasible=False, certificate=tuple(y), certificate_valid=True, pivots=pivots
    )
