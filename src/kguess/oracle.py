"""Independent numerical verification of the closed forms.

Two oracles live here.  ``minimize_expected_loss`` solves the coverage
optimization directly, as a convex program over the capped simplex
{ t : 0 <= t_i <= 1, sum t_i = k }, using projected descent with a
diagonal preconditioner and a duality-gap stopping certificate.  It never
looks at the threshold structure the closed form exploits, so agreement
between the two is real evidence.  The search for its dual floor's
multiplier sorts nothing, runs no rank test and uses nothing from
``guessing``: past its bracket's start at the k-th largest atom, it reads
only the box minimizer's saturated set (the atoms with s_i = 1), which the
dual floor defines anyway.

``lp_feasible`` decides, in exact arithmetic, whether a coverage vector is
a nonnegative combination of k-subset indicator columns, and on rejection
produces a separating vector certifying the answer.  Its simplex prices the
k-subset columns without listing them and pivots fraction-free: integers
over one common denominator, with rationals built only for the answer.
"""

from __future__ import annotations

import bisect
import math
import numbers
import operator
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
    SUM_TOL,
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
_EPS = float(np.finfo(np.float64).eps)
_TAU = 0.01  # fraction to the boundary: a descent step keeps this share of a coordinate
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
    points = np.concatenate((top, bottom))
    points.sort()
    # The sum is nonincreasing in lam, in floating point too; it is n at the
    # first breakpoint and zero at the last, which the search takes as given.
    j, past = 0, 2 * n - 1
    while past - j > 1:
        mid = (j + past) // 2
        if float(np.add.reduce((v - points[mid] * winv).clip(0.0, 1.0))) >= k:
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
    t[free] = (v[free] - lam / w[free]).clip(0.0, 1.0)
    # polish the rounding residual: spread it over the free coordinates
    # (a local refinement of the same multiplier)
    for _ in range(4):
        residual = k - float(t.sum())
        if abs(residual) <= 1e-15 * k:
            break
        free = (t < 1.0) if residual > 0.0 else (t > 0.0)
        if not free.any():
            break
        t[free] = (t[free] + residual * winv[free] / winv[free].sum()).clip(0.0, 1.0)
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


def _dual_multiplier(ln_p: np.ndarray, k: int, a: float) -> tuple[float, int]:
    """ln lam of the dual floor's multiplier, and the budget evaluations spent.

    At mu = ln lam the Lagrangian's box minimizer spends the budget
    B(mu) = sum_i min(1, e^y_i) with y_i = a (ln p_i - mu): the r atoms with
    y_i >= 0 are ones, the others spend their free sum F = sum e^y_i.  The
    search keeps a bracket, lo with B >= k and hi with B <= k, and each
    evaluation moves one end of it, as bisection would.  It also takes a
    Newton step: in x = e^(-a mu) the budget sum_i min(1, p_i^a x) is concave
    and piecewise linear, so its tangent at any point, on either side of the
    root, lies above it and reaches k no later; in mu that tangent meets k at
    mu + (ln F - ln(k - r)) / a, which is never below the root and so caps
    hi (Michelot, J. Optim. Theory Appl. 50, 1986; Kiwiel, Math. Programming
    112, 2008).  The next point is hi when the evaluation at least halved
    the bracket, the midpoint otherwise.  The search stops where the Newton
    bound makes no progress at a point that spends at most k, or when the
    bracket is two adjacent floats, within 200 evaluations.  ln F is formed
    shifted by the largest free y: at large orders F itself underflows, to a
    subnormal or to zero, where its logarithm is still finite.
    """
    n = ln_p.size
    lo = float(-np.partition(-ln_p, k - 1)[k - 1])  # k atoms are ones here
    hi = float(ln_p.max()) + math.log(n / k) / a  # every e^y is at most k / n
    if hi <= lo:
        hi = lo + 1e-9
    mu = 0.5 * (lo + hi)
    for evaluations in range(1, 201):
        width = hi - lo
        with np.errstate(over="ignore"):  # a huge order sends y to -inf
            y = a * (ln_p - mu)
        free = y[y < 0.0]
        r = n - free.size  # below k, since every mu tried lies above lo
        top = float(free.max())
        ln_free = top + math.log(float(np.exp(free - top).sum())) if top > -math.inf else top
        spent = r + math.exp(ln_free)
        bound = mu + (ln_free - math.log(k - r)) / a
        if spent >= k:
            lo = mu
        else:
            hi = mu
        if spent <= k and bound >= mu:  # mu is the root to rounding
            return mu, evaluations
        hi = min(hi, bound)
        if hi <= lo:  # the ends met, or a rounded bound crossed lo: the root to rounding
            return lo, evaluations
        mid = 0.5 * (lo + hi)
        if hi - lo <= 0.5 * width:
            mu = hi
        elif lo < mid < hi:
            mu = mid
        else:  # the bracket is two adjacent floats
            return mid, evaluations
    return 0.5 * (lo + hi), evaluations


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
        Absolute certificate target, a positive and finite real number:
        iteration stops once the certified gap, the smaller of the
        linearized duality gap and f(t) minus the dual floor (each an upper
        bound on objective suboptimality), drops below it.
    max_iter : int
        Iteration cap, a positive integer; exceeding it raises
        :class:`ConvergenceError`.

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
    knowledge of the optimum.  The floor's multiplier comes from a bracketed
    Newton search: in x = lam^(-alpha) the budget the box minimizer spends is
    concave and piecewise linear, so the tangent at any point reaches the
    budget no later than the function does, and its root caps the bracket
    without ever falling below the multiplier sought; a few evaluations
    replace the fifty or so of bisection to adjacent floats.  Any multiplier
    gives a valid floor, so the certificate does not rest on the search.

    The preconditioned move obeys a fraction-to-the-boundary rule (as in
    interior-point methods; Waechter & Biegler, Math. Programming 106, 2006):
    it is cut back along its direction, to t + s (cand - t) with the largest s
    in (0, 1], so that no coordinate above floor / 0.01 falls below 0.01 of
    its value in one step.  The full step overshoots: early on it clips even
    coordinates whose optimum is well inside the box to zero, and a floored
    coordinate climbs back only by a factor of about 1 + alpha per
    iteration, so the certificate would stall for a dozen iterations.
    Coordinates at or below floor / 0.01 may still drop to the floor.  A cut
    step ends no descent: the loop certifies only after an accepted step that
    was not cut, or at float stationarity, since a point left midway down to
    the floor can pass the certificate while it still spends budget on that
    coordinate, nearly ``tol`` off the minimum where one more step lands much
    closer.
    """
    pmf = as_pmf(pmf)
    a = _finite_order(alpha, "numerical oracle")
    k = _check_budget(k)
    max_iter = _check_budget(max_iter, "iteration cap")
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise DomainError(f"tolerance must be a real number, got {tol!r}")
    if not tol > 0.0:  # NaN too
        raise DomainError("tolerance must be positive")
    if not tol < math.inf:
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
    too_small = f"order {av:g} is too small for a float64 descent oracle at support size {n}"
    if floor >= 0.25 * k / n:
        raise DomainError(f"{too_small}; the gradient would overflow")

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
    # coordinate, each 1-d minimizer at min(1, (p_i / lam) ** a).  A
    # bracketed Newton search picks the lam whose box minimizer spends the
    # budget, which makes the bound tight; its Newton bounds never pass that
    # lam, since the budget is concave in lam ** -a, and any lam yields a
    # valid floor.
    ln_p = np.log(p)
    lam = math.exp(_dual_multiplier(ln_p, k, av)[0])
    # Below order one a tiny s's loss can overflow; at orders near the float
    # maximum so can a * (ln p - ln lam), whose -inf only floors ln s.
    with np.errstate(over="ignore"):
        ln_s = np.minimum(av * (ln_p - math.log(lam)), 0.0)
        dual_floor = value(ln_s) + lam * (float(np.exp(ln_s).sum()) - k)
    dual_floor = dual_floor if math.isfinite(dual_floor) else -math.inf  # +inf bounds nothing

    def certified_gap(t: np.ndarray, f_t: float, g: np.ndarray) -> float:
        """Upper bound on f(t) - min f, from convexity alone: the
        linearization gap against the best vertex, tight in the interior, or
        the distance to the dual floor, tight when optima sit near zero."""
        smallest = g.copy()
        smallest.partition(k - 1)
        linear = float(np.dot(g, t) - smallest[:k].sum())
        return max(min(linear, f_t - dual_floor), 0.0)

    def moves(t: np.ndarray, g: np.ndarray, step: float):
        """Trial points of one iteration, in the order they are tried, each
        with whether the fraction-to-the-boundary rule cut it.

        Preconditioned first; where the curvature clip saturates (floored
        coordinates) that move degenerates, so two scale-free directions
        back it up before the loop may declare a stall.  Each backtracks by
        halving, 60 times at most, and is built only once the one before it
        has failed.
        """
        # below order one the power overflows to inf near the floor; the clip
        # caps it
        with np.errstate(over="ignore"):
            curvature = (p * (1.0 / av) * t ** (-1.0 - 1.0 / av)).clip(1e-8, 1e18)
        # fraction to the boundary: no coordinate above floor / _TAU may fall
        # below _TAU of its value in one step (projected points are >= 0)
        least = np.where(t > floor / _TAU, _TAU * t, 0.0)
        for h in range(60):
            cand = _project(t - step * 0.5**h * g / curvature, k, weights=curvature)
            low = cand < least
            if low.any():
                # t and cand lie in the capped simplex, so the cut point does
                s = float(((1.0 - _TAU) * t[low] / (t[low] - cand[low])).min())
                yield t + s * (cand - t), True
            else:
                yield cand, False
        scale = max(1.0, float(abs(g).max()))
        for h in range(60):
            yield _project(t - 0.5**h * g / scale, k), False
        vertex = np.zeros(n)
        vertex[g.argpartition(k - 1)[:k]] = 1.0
        for h in range(60):
            yield t + 0.5**h * (vertex - t), False

    t = np.full(n, k / n)
    f_t, g = value(np.log(t)), gradient(t)
    gap = certified_gap(t, f_t, g)
    step = 1.0
    cut = False
    for iteration in range(1, max_iter + 1):
        if gap <= tol and not cut:
            break
        # a step must lower the objective, or, within 4 ulp of it (below
        # float resolution), strictly shrink the certificate
        slack = 4.0 * _EPS * max(1.0, abs(f_t))
        for cand, cand_cut in moves(t, g, step):
            cand = np.maximum(cand, floor)
            f_cand = value(np.log(cand))
            if not f_cand <= f_t + slack:
                continue
            g_cand = gradient(cand)
            gap_cand = certified_gap(cand, f_cand, g_cand)
            if f_cand < f_t or gap_cand < gap:
                t, f_t, g, gap, cut = cand, f_cand, g_cand, gap_cand, cand_cut
                step = min(step * 2.0, 1.0)
                break
        else:
            # stationary at float resolution; the gap decides the verdict
            break
    if gap > tol:
        raise ConvergenceError(
            f"no certificate below tol after {iteration} iterations (gap {gap:.3e})"
        )
    if abs(float(t.sum()) - k) > SUM_TOL:  # no certificate holds off the budget
        raise DomainError(f"{too_small}; its iterate floor {floor:g} leaves the budget")

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

    Built greedily: each next index i is the smallest one whose best
    completion keeps the sum negative, the best completion being the
    smallest entries of c[i + 1:].  One sorted list holds that remainder and
    loses c[i + 1] each time i advances, so each of the at most n steps sums
    at most k entries.  None when even the k smallest entries sum to >= 0.
    """
    rest = sorted(c)
    if sum(rest[:k]) >= 0:
        return None
    subset: list[int] = []
    total, i = 0, -1
    for need in range(k - 1, -1, -1):
        while True:
            i += 1
            del rest[bisect.bisect_left(rest, c[i])]  # rest is sorted(c[i + 1:])
            if total + c[i] + sum(rest[:need]) < 0:
                break
        subset.append(i)
        total += c[i]
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

    The simplex runs on the sign-flipped system diag(s) A q = |b|, s the
    signs of b, whose artificial basis is feasible.  The arithmetic is
    fraction-free (Edmonds 1967; Bareiss 1968).  With B the basis matrix of
    the flipped system and D = |det B| > 0, the integer matrix ``inv`` holds
    D * B^-1 diag(s): the flipped system's scaled inverse with column r
    multiplied by s_r once, at the start, since every pivot is a row
    operation.  So a column's entries d are plain sums of ``inv``'s columns
    over its subset, and the sum of the artificial rows is D times the
    multipliers y of A q = b itself, whose negation prices the columns.
    ``x`` holds D * B^-1 |b|.  A pivot on element d_l makes d_l the new D;
    the pivot row keeps its integers and every other row i becomes
    (d_l * row_i - d_i * row_l) // D, a division that is exact because the
    result is again an adjugate.  The ratio test cross-multiplies, and the
    reduced costs are scaled by D > 0, which keeps the sign of every subset
    sum, so the pivots are those of the rational simplex.

    ``b`` holds the right-hand side as integers (any common scale).  Returns
    (feasible, D, D * y, basic, pivots): basic lists (subset, D * value)
    pairs of the final basis restricted to real columns, and pivots counts
    the columns entered.
    """
    m = len(b)
    x = [abs(bi) for bi in b]
    # a basis entry is a subset, or (m + i,) for the artificial of row i;
    # only an artificial starts at m or above
    basis = [(m + i,) for i in range(m)]
    inv = [[(1 if bi >= 0 else -1) * (i == j) for j, bi in enumerate(b)] for i in range(m)]
    denom = 1

    for pivots in range(200_000):
        # D * simplex multipliers for phase-one costs (1 on artificials)
        artificial_rows = [inv[i] for i in range(m) if basis[i][0] >= m]
        y = list(map(sum, zip(*artificial_rows))) if artificial_rows else [0] * m
        subset = _first_negative_subset([-v for v in y], k)
        if subset is None:
            artificial = sum(x[i] for i in range(m) if basis[i][0] >= m)
            basic = [(basis[i], x[i]) for i in range(m) if basis[i][0] < m]
            return artificial == 0, denom, y, basic, pivots
        pick = operator.itemgetter(*subset)
        d = [sum(pick(row)) for row in inv] if k > 1 else list(map(pick, inv))
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
    the time: on 285 coverage and random vectors at n = 20, k = 1 to 19, the
    slowest decision (a vector with one negative entry at k = 8, 7408
    pivots) took 0.84 s, best of 5 (Python 3.11, one core of a shared
    2-core host).
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

    feasible, denom, y_scaled, basic, pivots = _phase_one([int(bi * _SCALE) for bi in b], k)

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

    # the negated multipliers separate b from the cone
    y = [Fraction(-v, denom) for v in y_scaled]
    # y . S >= 0 for every k-subset S iff the k smallest entries sum >= 0
    smallest = sorted(y)[:k]
    cert_ok = sum(smallest) >= 0 and sum(yi * bi for yi, bi in zip(y, b)) < 0
    if not cert_ok:
        raise KGuessError("infeasibility certificate failed verification; bug")
    return FeasibilityResult(
        feasible=False, certificate=tuple(y), certificate_valid=True, pivots=pivots
    )
