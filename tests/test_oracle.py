"""Tests for the numerical oracle and the exact feasibility test."""

from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kguess.core import (
    Alpha,
    BudgetError,
    ConvergenceError,
    DomainError,
    Pmf,
    SizeError,
)
from kguess.guessing import minimal_loss
from kguess.oracle import (
    CappedSimplex,
    _dual_multiplier,
    _first_negative_subset,
    _project,
    _snap,
    lp_feasible,
    minimize_expected_loss,
    project_capped_simplex,
)

pmf_raws = st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=3, max_size=9)
orders = st.sampled_from([0.3, 0.5, 0.9, 1.5, 2.0, 5.0, 20.0])


def make_pmf(raw: list[float]) -> Pmf:
    arr = np.array(raw, dtype=float)
    return Pmf(arr / arr.sum())


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


class TestProjection:
    def test_corner_case(self):
        t = project_capped_simplex(np.array([2.0, 2.0, -1.0]), CappedSimplex(3, 2))
        assert t.tolist() == pytest.approx([1.0, 1.0, 0.0], abs=1e-12)

    def test_already_feasible_is_fixed_point(self):
        v = np.array([0.9, 0.5, 0.6])
        t = project_capped_simplex(v, CappedSimplex(3, 2))
        assert t == pytest.approx(v, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            project_capped_simplex(np.array([0.5, 0.5]), CappedSimplex(3, 2))
        with pytest.raises(DomainError):
            project_capped_simplex(np.array([np.nan, 0.5]), CappedSimplex(2, 1))

    @given(
        st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=12),
        st.integers(min_value=1, max_value=11),
    )
    @settings(max_examples=200)
    def test_kkt_characterization(self, raw, k):
        v = np.array(raw)
        if k > v.size:
            return
        t = project_capped_simplex(v, CappedSimplex(v.size, k))
        assert abs(t.sum() - k) <= 1e-10
        assert np.all(t >= 0.0) and np.all(t <= 1.0)
        interior = (t > 1e-9) & (t < 1.0 - 1e-9)
        if np.any(interior):
            # one shared shift on all interior coordinates
            lam = v[interior] - t[interior]
            assert np.max(lam) - np.min(lam) <= 1e-8
            shift = float(np.mean(lam))
            rebuilt = np.clip(v - shift, 0.0, 1.0)
            assert t == pytest.approx(rebuilt, abs=1e-7)


def bisection_projection(v: np.ndarray, k: int, w: np.ndarray) -> np.ndarray:
    """Reference weighted projection: bisect on the multiplier until the
    bracket is two adjacent floats."""
    lo = float(np.min(w * (v - 1.0))) - 1.0
    hi = float(np.max(w * v)) + 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if float(np.sum(np.clip(v - mid / w, 0.0, 1.0))) > k:
            lo = mid
        else:
            hi = mid
    return np.clip(v - mid / w, 0.0, 1.0)


def test_weighted_projection_matches_bisection():
    # weights span the descent oracle's curvature clip [1e-8, 1e18]; repeated
    # values make tied breakpoints, and large or negative entries sit at the
    # bounds of the box; the last cases have the size of the largest pmfs the
    # oracle solves
    rng = np.random.default_rng(20261018)
    for case in range(620):
        n = 1000 if case >= 600 else int(rng.integers(1, 25))
        k = int(rng.integers(1, n + 1))
        v = rng.normal(0.5, 1.0, n) * 10.0 ** rng.uniform(-3.0, 1.0)
        w = 10.0 ** rng.uniform(-8.0, 18.0, n)
        if case % 3 == 0:
            v[rng.random(n) < 0.3] = 2.0
            v[rng.random(n) < 0.3] = -1.0
        if case % 4 == 0:
            v = np.round(v, 1)
            w = 10.0 ** rng.integers(-8, 19, n).astype(float)
        if case % 5 == 0:
            w[:] = w[0]
        t = _project(v, k, w)
        assert abs(float(t.sum()) - k) <= 1e-10
        assert np.all(t >= 0.0) and np.all(t <= 1.0)
        assert np.max(np.abs(t - bisection_projection(v, k, w))) <= 1e-9


def probe_by_probe_projection(v: np.ndarray, k: int, weights: np.ndarray | None) -> np.ndarray:
    """Reference: the breakpoint projection through numpy's function
    wrappers (``np.sort``, ``np.clip``, ``np.any``), with a fresh
    ``np.clip(...).sum()`` at each probe of the search; the library must
    return the same bytes, since both run the same ufuncs in the same
    order."""
    n = v.size
    w = np.ones_like(v) if weights is None else weights
    winv = 1.0 / w
    top, bottom = w * (v - 1.0), w * v
    points = np.sort(np.concatenate((top, bottom)))
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
    excess = float(v[free].sum()) + float(np.count_nonzero(ones)) - k
    lam = min(max(excess / slope, lo), hi) if slope > 0.0 else lo
    t = np.zeros(n)
    t[ones] = 1.0
    t[free] = np.clip(v[free] - lam / w[free], 0.0, 1.0)
    for _ in range(4):
        residual = k - float(t.sum())
        if abs(residual) <= 1e-15 * k:
            break
        free = (t < 1.0) if residual > 0.0 else (t > 0.0)
        if not np.any(free):
            break
        t[free] = np.clip(t[free] + residual * winv[free] / winv[free].sum(), 0.0, 1.0)
    return t


def test_projection_is_bit_identical_to_probe_by_probe_search():
    # weighted and unweighted, with ties, at k = 1, k = n - 1 and between
    rng = np.random.default_rng(20261020)
    for case in range(1500):
        n = 400 if case % 100 == 0 else int(rng.integers(2, 30))
        k = (1, n - 1, int(rng.integers(1, n)))[case % 3]
        v = rng.normal(0.5, 1.0, n) * 10.0 ** rng.uniform(-3.0, 1.0)
        if case % 4 == 0:
            v = np.round(v, 1)
        w = None if case % 2 else 10.0 ** rng.uniform(-8.0, 18.0, n)
        if w is not None and case % 5 == 0:
            w = 10.0 ** rng.integers(-8, 19, n).astype(float)
        assert _project(v, k, w).tobytes() == probe_by_probe_projection(v, k, w).tobytes()


# ---------------------------------------------------------------------------
# minimize_expected_loss
# ---------------------------------------------------------------------------


class TestDescentOracle:
    def test_uniform_four_frozen(self):
        sol = minimize_expected_loss(Pmf.uniform(4), 2, 2, tol=1e-12)
        assert sol.value == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-10)
        assert sol.t == pytest.approx([0.5] * 4, abs=1e-6)
        assert sol.gap <= 1e-12

    def test_main_example(self):
        sol = minimize_expected_loss(Pmf([0.7, 0.2, 0.1]), 2, 2, tol=1e-12)
        assert sol.value == pytest.approx(0.15278640450004208, abs=1e-10)
        assert sol.t == pytest.approx([1.0, 0.8, 0.2], abs=1e-5)

    def test_order_one(self):
        sol = minimize_expected_loss(Pmf.uniform(4), 2, 1, tol=1e-12)
        assert sol.value == pytest.approx(math.log(2.0), abs=1e-10)

    def test_zeros_are_stripped(self):
        sol = minimize_expected_loss(Pmf([0.7, 0.0, 0.2, 0.1]), 2, 2, tol=1e-12)
        assert sol.t[1] == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            minimize_expected_loss(Pmf.uniform(4), 2, Alpha.infinity())
        with pytest.raises(BudgetError):
            minimize_expected_loss(Pmf.uniform(4), 4, 2)
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                minimize_expected_loss(Pmf.uniform(4), 2, 2, tol=tol)
        with pytest.raises(DomainError):
            minimize_expected_loss(Pmf.uniform(4), 0, 2)
        for tol in ("1e-9", None, True):
            with pytest.raises(DomainError):
                minimize_expected_loss(Pmf.uniform(4), 2, 2, tol=tol)
        for max_iter in (1.5, "10", None, -3, 0, True):
            with pytest.raises(DomainError):
                minimize_expected_loss(Pmf.uniform(4), 2, 2, max_iter=max_iter)

    def test_refuses_orders_beyond_float_range(self):
        with pytest.raises(DomainError):
            minimize_expected_loss(Pmf.uniform(200), 1, 0.01)

    def test_floor_off_the_budget_is_refused(self):
        # The loss of the dual floor's tiny s overflows, so the floor bounds
        # nothing; and the iterate floor 1e-5 lies above the tiny atom's
        # optimal coverage, 5.07e-7, so the floored point misses the budget
        # and reads below the true minimum.  Neither may certify it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((DomainError, ConvergenceError)):
                minimize_expected_loss([0.5, 0.5, 1e-300], 1, 0.02)

    def test_non_convergence_is_reported(self):
        with pytest.raises(ConvergenceError):
            minimize_expected_loss(
                Pmf([0.4, 0.3, 0.2, 0.1]), 2, 2, tol=1e-300, max_iter=1
            )

    def test_tiny_atom_just_below_order_one_is_certified(self):
        # the tiny atom's coordinate sinks to the iterate floor; with a floor
        # of 1e-250 its gradient, about 1e228, would reject every step
        pmf = Pmf([0.5, 0.3, 0.2, 1e-20])
        sol = minimize_expected_loss(pmf, 1, 0.999)
        assert sol.gap <= 1e-9
        assert sol.value == pytest.approx(minimal_loss(pmf, 1, 0.999).value, abs=1e-12)

    @given(pmf_raws, orders)
    @settings(max_examples=60, deadline=None)
    def test_matches_closed_form(self, raw, alpha):
        pmf = make_pmf(raw)
        k = max(1, pmf.support_size // 2)
        if k >= pmf.support_size:
            return
        closed = minimal_loss(pmf, k, alpha)
        sol = minimize_expected_loss(pmf, k, alpha, tol=1e-13)
        denom = max(abs(closed.value), 1e-12)
        assert abs(sol.value - closed.value) / denom <= 1e-6
        assert np.max(np.abs(sol.t - closed.coverage.t)) <= 1e-4


def test_value_lies_within_its_certified_gap():
    """closed <= value <= closed + gap, up to rounding, on seeded pmfs with
    zeros, ties and atoms down to 1e-30 at orders 0.05 to 100."""
    cases = [(np.array([0.5, 0.3, 0.2, 1e-20]), 1, 0.999)]
    rng = np.random.default_rng(20261019)
    for i in range(300):
        n = int(rng.integers(3, 41))
        p = rng.dirichlet(np.full(n, float(rng.choice([0.3, 1.0, 3.0]))))
        if i % 4 == 1:
            p[rng.choice(n, size=n // 4 + 1, replace=False)] = 0.0
        elif i % 4 == 2:
            p = np.round(p * 8.0) + 1.0
        elif i % 4 == 3:
            p[rng.choice(n, size=n // 5 + 1, replace=False)] = 10.0 ** -rng.uniform(8.0, 30.0)
        support = int(np.count_nonzero(p))
        alpha = (0.05, 0.3, 0.5, 0.9, 0.999, 1.0, 1.001, 2.0, 20.0, 100.0)[i % 10]
        cases.append((p / p.sum(), int(rng.integers(1, support)), alpha))
    for p, k, alpha in cases:
        closed = minimal_loss(p, k, alpha).value
        sol = minimize_expected_loss(p, k, alpha)
        s = max(1.0, abs(closed))
        assert closed - 1e-13 * s <= sol.value <= closed + sol.gap + 1e-13 * s


def test_descent_certifies_within_twenty_iterations():
    """The fraction-to-the-boundary cut keeps coordinates off the iterate
    floor: on a grid of sizes and orders, and on pmfs a fifth of whose atoms
    lie between 1e-30 and 1e-15 at high orders, every solve certifies within
    20 iterations and brackets the closed form.  A full step that clips
    coordinates to the floor needs up to 29 (or 27) here."""
    rng = np.random.default_rng(20261021)
    cases = []
    for n, k in ((8, 3), (30, 4), (100, 10), (300, 20), (1000, 50)):
        for alpha in (0.5, 0.9, 1.0, 1.5, 2.0, 5.0, 20.0):
            concentration = (0.5, 1.0, 2.0)[len(cases) % 3]
            cases.append((rng.dirichlet(np.full(n, concentration)), k, alpha))
    for i in range(30):
        n = int(rng.integers(4, 40))
        p = rng.dirichlet(np.ones(n))
        p[rng.choice(n, size=n // 5, replace=False)] = 10.0 ** -rng.uniform(15.0, 30.0)
        cases.append((p / p.sum(), int(rng.integers(1, n)), (5.0, 20.0, 100.0)[i % 3]))
    for p, k, alpha in cases:
        closed = minimal_loss(p, k, alpha).value
        sol = minimize_expected_loss(p, k, alpha)
        s = max(1.0, abs(closed))
        assert sol.iterations <= 20, (p.size, k, alpha, sol.iterations)
        assert closed - 1e-13 * s <= sol.value <= closed + sol.gap + 1e-13 * s


def _multiplier_bracket(ln_p, k, a):
    """ln lam where the box minimizer spends at least k (k atoms at one) and
    where it spends at most k (every (p_i / lam) ** a at most k / n)."""
    lo = float(-np.partition(-ln_p, k - 1)[k - 1])
    hi = float(ln_p.max()) + math.log(ln_p.size / k) / a
    return lo, max(hi, lo + 1e-9)


def _bisected_multiplier(ln_p, k, a):
    """The budget's root by plain bisection, run until the bracket is two
    adjacent floats."""
    lo, hi = _multiplier_bracket(ln_p, k, a)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        with np.errstate(over="ignore"):
            spent = float(np.exp(np.minimum(a * (ln_p - mid), 0.0)).sum())
        lo, hi = (mid, hi) if spent >= k else (lo, mid)
    return 0.5 * (lo + hi)


def _dual_floor(p, k, a, mu):
    """The weak-duality floor at lam = e^mu: the loss (1 - s^beta) / beta
    (-ln s at order one) of the box minimizer s_i = min(1, (p_i / lam) ** a),
    plus lam times its budget excess."""
    with np.errstate(over="ignore"):
        ln_s = np.minimum(a * (np.log(p) - mu), 0.0)
    beta = (a - 1.0) / a
    loss = -ln_s if beta == 0.0 else -np.expm1(beta * ln_s) / beta
    return float(np.dot(p, loss)) + math.exp(mu) * (float(np.exp(ln_s).sum()) - k)


def test_dual_multiplier_takes_few_evaluations_and_keeps_the_floor():
    """The Newton-bracketed search for the dual floor's multiplier takes at
    most 24 budget evaluations (bisection to adjacent floats takes a median
    of 52 and up to 108 here), and its floor matches the bisected one's
    within 1e-13 and never lies above the closed-form minimum: on Dirichlet,
    tied and 1e-40-atom pmfs at every budget, at orders 0.05 to 1e300, and
    on two order-1000 pmfs where a Newton step lands where the free sum
    underflows, to a subnormal and to zero, so ln F formed in plain floats
    would raise."""
    orders = (0.05, 0.5, 0.999, 1.0, 1.001, 2.0, 20.0, 1000.0, 1e8, 1e300)
    rng = np.random.default_rng(20261027)
    pmfs = []
    for n in (6, 40):
        tied = np.round(rng.dirichlet(np.ones(n)) * 8.0) + 1.0
        tiny = rng.dirichlet(np.ones(n))
        tiny[rng.choice(n, size=n // 5 + 1, replace=False)] = 1e-40
        pmfs.extend((rng.dirichlet(np.ones(n)), tied / tied.sum(), tiny / tiny.sum()))
    cases = [(p, k, a) for p in pmfs for k in range(1, p.size) for a in orders]
    k, a = 13, 1000.0
    normal = np.finfo(float).tiny
    for seed, underflow in ((39, lambda f: 0.0 < f < normal), (72, lambda f: f == 0.0)):
        p = np.random.default_rng(seed).dirichlet(np.full(150, 0.1))
        ln_p = np.log(p)
        mid = 0.5 * sum(_multiplier_bracket(ln_p, k, a))
        y = a * (ln_p - mid)
        free = y[y < 0.0]
        ln_free = free.max() + math.log(float(np.exp(free - free.max()).sum()))
        bound = mid + (ln_free - math.log(k - (p.size - free.size))) / a
        assert underflow(float(np.exp(np.minimum(a * (ln_p - bound), 0.0))[ln_p < bound].sum()))
        cases.append((p, k, a))
    for p, k, a in cases:
        mu, evaluations = _dual_multiplier(np.log(p), k, a)
        floor = _dual_floor(p, k, a, mu)
        reference = _dual_floor(p, k, a, _bisected_multiplier(np.log(p), k, a))
        closed = minimal_loss(p, k, a).value
        assert evaluations <= 24, (p.size, k, a, evaluations)
        assert abs(floor - reference) <= 1e-13 * max(1.0, abs(reference)), (p.size, k, a)
        assert floor <= closed + 1e-13 * max(1.0, abs(closed)), (p.size, k, a)


# ---------------------------------------------------------------------------
# lp_feasible
# ---------------------------------------------------------------------------


class TestLpFeasible:
    def test_optimal_coverage_is_feasible(self):
        result = lp_feasible(np.array([1.0, 0.8, 0.2]), 2)
        assert result.feasible
        assert bool(result)
        assert result.witness is not None

    def test_witness_reconstructs_exactly(self):
        result = lp_feasible(np.array([1.0, 0.8, 0.2]), 2)
        total = {}
        for subset, weight in result.witness:
            for i in subset:
                total[i] = total.get(i, Fraction(0)) + weight
        assert total[0] == Fraction(1)
        assert total[1] == Fraction(8, 10)
        assert total[2] == Fraction(2, 10)

    def test_sum_deficit_rejected_with_certificate(self):
        result = lp_feasible(np.array([0.5, 0.4]), 2)
        assert not result.feasible
        assert result.certificate_valid
        y = result.certificate
        b = [Fraction(1, 2), Fraction(2, 5)]
        assert sum(sorted(y)[:2]) >= 0
        assert sum(yi * bi for yi, bi in zip(y, b)) < 0

    def test_overweight_entry_rejected(self):
        result = lp_feasible(np.array([1.5, 0.5]), 2)
        assert not result.feasible
        assert result.certificate_valid

    def test_budget_above_size_needs_zero(self):
        # no 3-subset of two indices exists: zero is the empty combination,
        # and -b separates anything else
        zero = lp_feasible(np.zeros(2), 3)
        assert zero.feasible and zero.witness == ()
        assert not lp_feasible(np.array([0.5, 0.5]), 3).feasible
        result = lp_feasible(np.array([0.5, -0.25]), 3)
        assert result.certificate == (Fraction(-1, 2), Fraction(1, 4))
        assert result.certificate_valid is True

    def test_size_guard(self):
        with pytest.raises(SizeError):
            lp_feasible(np.full(30, 0.5), 15)
        with pytest.raises(SizeError):
            lp_feasible(np.full(21, 0.5), 10)

    def test_largest_size_gives_verified_witness(self):
        # n = 20 at k = 8 is C(20, 8) = 125,970 columns, all priced, none listed
        p = np.random.default_rng(0).dirichlet(np.ones(20))
        t = minimal_loss(p, 8, 2).coverage.t
        result = lp_feasible(t, 8)
        assert result.feasible
        recon = [Fraction(0)] * 20
        for subset, weight in result.witness:
            assert weight > 0 and len(subset) == 8
            for i in subset:
                recon[i] += weight
        assert recon == _snap(t)

    def test_pivot_count_is_pinned(self):
        t = minimal_loss(np.arange(1, 13) / 78.0, 4, 2).coverage.t
        counts = {lp_feasible(t, 4).pivots for _ in range(3)}
        assert counts == {178}
        assert lp_feasible(np.zeros(2), 3).pivots == 0

    def test_capped_simplex_type(self):
        cs = CappedSimplex(4, 2)
        assert cs.n == 4 and cs.k == 2
        with pytest.raises(DomainError):
            CappedSimplex(2, 3)

    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_box_sum_test_on_slice(self, n, k, seed):
        """On vectors with the right total, the two tests must agree."""
        if k > n:
            return
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, 1.0, size=n)
        t *= k / t.sum()
        if np.any(t > 1.0):
            # renormalization pushed an entry over the cap: inadmissible,
            # and the cone test must reject it too
            from kguess.strategy import is_admissible

            assert not is_admissible(t, k).ok
            result = lp_feasible(t, k)
            assert not result.feasible
            assert result.certificate_valid
        else:
            from kguess.strategy import is_admissible

            assert is_admissible(t, k).ok
            assert lp_feasible(t, k).feasible


def enumerating_phase_one(columns, b, m):
    """Reference: the phase-one simplex that lists every k-subset column and
    prices them in order (Bland's rule)."""
    sign = [1 if bi >= 0 else -1 for bi in b]
    x_b = [abs(bi) for bi in b]
    ncols = len(columns)
    basis = [ncols + i for i in range(m)]
    b_inv = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    col_sets = [frozenset(c) for c in columns]
    while True:
        y = [Fraction(0)] * m
        for i in range(m):
            if basis[i] >= ncols:
                for r in range(m):
                    y[r] += b_inv[i][r]
        entering = next(
            (j for j in range(ncols) if sum(-sign[r] * y[r] for r in col_sets[j]) < 0),
            -1,
        )
        if entering < 0:
            objective = sum(x_b[i] for i in range(m) if basis[i] >= ncols)
            basic = [(basis[i], x_b[i]) for i in range(m) if basis[i] < ncols]
            return objective == 0, y, basic
        d = [sum(b_inv[i][r] * sign[r] for r in col_sets[entering]) for i in range(m)]
        ratio, leave = None, -1
        for i in range(m):
            if d[i] > 0:
                r = x_b[i] / d[i]
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leave]):
                    ratio, leave = r, i
        piv = d[leave]
        b_inv[leave] = [v / piv for v in b_inv[leave]]
        x_b[leave] = x_b[leave] / piv
        for i in range(m):
            if i != leave and d[i] != 0:
                di = d[i]
                b_inv[i] = [u - di * v for u, v in zip(b_inv[i], b_inv[leave])]
                x_b[i] -= di * x_b[leave]
        basis[leave] = entering


def enumerating_lp(t: np.ndarray, k: int):
    """(feasible, witness, certificate) as the enumerating simplex gives them."""
    b = _snap(np.asarray(t, dtype=np.float64))
    n = len(b)
    columns = list(itertools.combinations(range(n), k))
    feasible, y, basic = enumerating_phase_one(columns, b, n)
    if feasible:
        return True, tuple((columns[j], val) for j, val in sorted(basic) if val != 0), None
    return False, None, tuple(-y[i] * (1 if b[i] >= 0 else -1) for i in range(n))


def test_pricing_matches_enumeration():
    # small entries make ties and zeros; past n = 8 a third of the vectors
    # are mostly zero and the rest spread wider
    rng = np.random.default_rng(7)
    for n in range(1, 12):
        for k in range(1, n + 1):
            subsets = list(itertools.combinations(range(n), k))
            for trial in range(20):
                c = rng.integers(-4, 5, n)
                if n > 8 and trial % 3 == 0:
                    c[rng.random(n) < 0.7] = 0
                elif n > 8:
                    c = rng.integers(-50, 51, n)
                c = c.tolist()
                first = next((s for s in subsets if sum(c[i] for i in s) < 0), None)
                assert _first_negative_subset(c, k) == first


def test_lp_matches_enumerating_simplex():
    cases = []
    # the 0.25-step grid of acceptance criterion 4, inside and beyond the box
    for grid, sizes in (([i * 0.25 for i in range(5)], range(1, 6)),
                        ([i * 0.25 for i in range(-1, 6)], range(2, 5))):
        for n in sizes:
            for k in range(1, min(n, 3) + 1):
                cases += [(np.array(t), k) for t in itertools.product(grid, repeat=n)
                          if sum(t) == float(k)]
    # random coverages with the right total, each with one entry raised by
    # 1e-3 and rounded to eighths (ties make degenerate pivots)
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n))
        t = rng.uniform(0.0, 1.0, n)
        t *= k / t.sum()
        over = t.copy()
        over[int(np.argmax(t))] += 1e-3
        cases += [(t, k), (over, k), (np.round(t * 8.0) / 8.0, k)]
    # the pmf whose optimal coverage loses its total under entry-wise rounding
    rng = np.random.default_rng(0)
    rng.dirichlet(np.ones(10))
    cases.append((minimal_loss(rng.dirichlet(np.ones(10)), 3, 2).coverage.t, 3))
    for t, k in cases:
        result = lp_feasible(t, k)
        assert (result.feasible, result.witness, result.certificate) == enumerating_lp(t, k)


def fraction_phase_one(b, k):
    """Reference: the phase-one simplex with a dense ``Fraction`` basis
    inverse, pricing columns greedily like the library; it numbers each
    column by its index in combinations order and counts the columns that
    entered."""
    m = len(b)
    sign = [1 if bi >= 0 else -1 for bi in b]
    x_b = [abs(bi) for bi in b]
    rank = {s: j for j, s in enumerate(itertools.combinations(range(m), k))}
    ncols = len(rank)
    basis = [ncols + i for i in range(m)]
    b_inv = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    columns = {}
    pivots = 0
    while True:
        y = [Fraction(0)] * m
        for i in range(m):
            if basis[i] >= ncols:
                row = b_inv[i]
                for r in range(m):
                    y[r] += row[r]
        scale = 1
        for v in y:
            scale = scale // math.gcd(scale, v.denominator) * v.denominator
        subset = _first_negative_subset(
            [-sign[r] * y[r].numerator * (scale // y[r].denominator) for r in range(m)], k
        )
        if subset is None:
            objective = sum(x_b[i] for i in range(m) if basis[i] >= ncols)
            basic = [(basis[i], x_b[i]) for i in range(m) if basis[i] < ncols]
            return objective == 0, y, basic, columns, pivots
        pivots += 1
        entering = rank[subset]
        columns[entering] = subset
        d = [sum(b_inv[i][r] * sign[r] for r in subset) for i in range(m)]
        ratio, leave = None, -1
        for i in range(m):
            if d[i] > 0:
                r = x_b[i] / d[i]
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leave]):
                    ratio, leave = r, i
        piv = d[leave]
        b_inv[leave] = [v / piv for v in b_inv[leave]]
        x_b[leave] = x_b[leave] / piv
        for i in range(m):
            if i != leave and d[i] != 0:
                di = d[i]
                b_inv[i] = [u - di * v for u, v in zip(b_inv[i], b_inv[leave])]
                x_b[i] -= di * x_b[leave]
        basis[leave] = entering


def test_integer_pivots_match_fraction_simplex():
    # sizes beyond the enumerating reference: optimal coverages, the same with
    # the largest entry raised by 1e-3, and rounded to eighths
    rng = np.random.default_rng(2026)
    for n, k in ((11, 3), (12, 4), (13, 5), (14, 3), (15, 7), (16, 6)):
        t = minimal_loss(rng.dirichlet(np.ones(n)), k, 2.0).coverage.t
        over = t.copy()
        over[int(np.argmax(t))] += 1e-3
        for v in (t, over, np.round(t * 8.0) / 8.0):
            b = _snap(v)
            feasible, y, basic, columns, pivots = fraction_phase_one(b, k)
            if feasible:
                expected = (True, tuple((columns[j], w) for j, w in sorted(basic) if w != 0), None)
            else:
                expected = (False, None, tuple(-y[i] * (1 if b[i] >= 0 else -1) for i in range(n)))
            result = lp_feasible(v, k)
            assert (result.feasible, result.witness, result.certificate) == expected
            assert result.pivots == pivots
