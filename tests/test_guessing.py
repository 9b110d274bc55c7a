"""Tests for the closed-form guessing engine."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kguess.core import SUM_TOL, Alpha, BudgetError, DomainError, KGuessError, Pmf, JointPmf
from kguess.guessing import (
    _PARTITION_MIN_SIZE,
    CoverageVector,
    LossReport,
    SortedPmf,
    _head,
    _log_expectations,
    _solve_rows,
    minimal_loss,
    minimal_loss_conditional,
    optimal_coverage,
    threshold_rank,
)

MAIN_PMF = Pmf([0.7, 0.2, 0.1])

pmf_raws = st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=10)
orders = st.sampled_from([0.3, 0.5, 0.9, 1.5, 2.0, 5.0, 20.0])
# Pmfs with exact ties (small integer weights) or atoms near zero, and
# orders spread log-uniformly over 1e-6 ... 1e12.
tied_raws = st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=10)
tiny_raws = st.lists(
    st.sampled_from([1.0, 0.5, 1e-12, 1e-100, 1e-300, 5e-324, 0.0]), min_size=2, max_size=10
)
extreme_orders = st.floats(min_value=-6.0, max_value=12.0).map(lambda e: 10.0**e)


def make_pmf(raw: list[float]) -> Pmf:
    arr = np.array(raw, dtype=float)
    return Pmf(arr / arr.sum())


def make_tie_free(raw: list[float]) -> Pmf | None:
    arr = np.unique(np.array(raw, dtype=float))
    if arr.size < 2:
        return None
    return Pmf(arr / arr.sum())


# ---------------------------------------------------------------------------
# SortedPmf
# ---------------------------------------------------------------------------


class TestSortedPmf:
    def test_orders_descending_and_remembers_positions(self):
        sp = SortedPmf.from_pmf(Pmf([0.2, 0.7, 0.1]))
        assert sp.probs.tolist() == pytest.approx([0.7, 0.2, 0.1], abs=1e-15)
        assert sp.perm.tolist() == [1, 0, 2]

    def test_drops_zeros_keeps_size(self):
        sp = SortedPmf.from_pmf(Pmf([0.3, 0.0, 0.7]))
        assert sp.probs.tolist() == [0.7, 0.3]
        assert sp.size == 3

    def test_ties_break_by_original_index(self):
        sp = SortedPmf.from_pmf(Pmf([0.25, 0.25, 0.25, 0.25]))
        assert sp.perm.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "probs, perm, message",
        [([0.5, 0.5], [0], "matching 1-d"), ([0.2, 0.8], [0, 1], "nonincreasing")],
        ids=["short-perm", "ascending"],
    )
    def test_rejects_unsorted_or_mismatched_entries(self, probs, perm, message):
        with pytest.raises(DomainError, match=message):
            SortedPmf(probs, perm, 2)

    def test_support_size_counts_the_positive_atoms(self):
        assert SortedPmf.from_pmf([0.5, 0, 0.5]).support_size == 2

    def test_from_pmf_equals_validated_construction(self):
        # from_pmf skips the constructor's checks; the public constructor on
        # the same parts must give the same arrays, bit for bit.
        rng = np.random.default_rng(31)
        for n in (1, 2, 5, 40, 3000):
            w = rng.integers(0, 4, size=n).astype(float)
            w[0] = 1.0
            sp = SortedPmf.from_pmf(w / w.sum())
            checked = SortedPmf(sp.probs, sp.perm, sp.size)
            for name in ("probs", "perm"):
                got, want = getattr(sp, name), getattr(checked, name)
                assert got.dtype == want.dtype and not got.flags.writeable
                assert np.array_equal(got, want)
            assert sp.size == checked.size == n and sp.perm.dtype == np.intp

    def test_leaves_the_callers_arrays_writeable(self):
        # the constructor stores copies, as Pmf does, and freezes only those
        probs, perm = np.array([0.6, 0.4]), np.array([1, 0])
        sp = SortedPmf(probs, perm, 2)
        assert probs.flags.writeable and perm.flags.writeable
        probs[:], perm[:] = 0.5, 0
        assert sp.probs.tolist() == [0.6, 0.4] and sp.perm.tolist() == [1, 0]

    def test_long_tied_pmf_keeps_the_stable_order(self):
        # 3000 atoms on five levels, some zero: the long-array sort path
        w = np.random.default_rng(8).integers(0, 5, size=3000).astype(float)
        p = w / w.sum()
        sp = SortedPmf.from_pmf(Pmf(p))
        pos = np.flatnonzero(p > 0.0)
        assert np.array_equal(sp.perm, pos[np.argsort(-p[pos], kind="stable")])


# ---------------------------------------------------------------------------
# CoverageVector
# ---------------------------------------------------------------------------


class TestCoverageVector:
    def test_accepts_and_clips_noise(self):
        cov = CoverageVector(np.array([1.0 + 5e-13, 0.8, 0.2 - 5e-13]), 2)
        assert cov.t.max() <= 1.0
        assert cov.spent == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            CoverageVector(np.array([1.5, 0.5]), 2)

    def test_rejects_non_integer_total(self):
        with pytest.raises(DomainError):
            CoverageVector(np.array([0.7, 0.7]), 2)

    def test_spent_below_budget(self):
        cov = CoverageVector(np.array([1.0, 1.0, 0.0]), 5)
        assert cov.spent == 2

    def test_numpy_integer_budget(self):
        assert CoverageVector(np.array([1.0, 0.0]), np.int64(1)).k == 1


class TestLossReport:
    @pytest.mark.parametrize(
        "field, value",
        [("threshold_rank", 0), ("threshold_rank", 3), ("multiplier", 0.0)],
        ids=["rank-zero", "rank-above-budget", "zero-multiplier"],
    )
    def test_rejects_inconsistent_fields(self, field, value):
        report = minimal_loss(MAIN_PMF, 2, 2)
        with pytest.raises(KGuessError, match=field.replace("_", " ")):
            dataclasses.replace(report, **{field: value})


# ---------------------------------------------------------------------------
# threshold rank
# ---------------------------------------------------------------------------


class TestThresholdRank:
    def test_uniform_is_rank_one(self):
        sp = SortedPmf.from_pmf(Pmf.uniform(4))
        assert threshold_rank(sp, 2, 2) == 1

    def test_main_example_is_rank_two(self):
        sp = SortedPmf.from_pmf(MAIN_PMF)
        assert threshold_rank(sp, 2, 2) == 2

    def test_budget_must_be_below_support(self):
        sp = SortedPmf.from_pmf(Pmf.uniform(3))
        with pytest.raises(BudgetError):
            threshold_rank(sp, 3, 2)

    def test_infinite_order_uses_full_budget(self):
        sp = SortedPmf.from_pmf(MAIN_PMF)
        assert threshold_rank(sp, 2, Alpha.infinity()) == 2

    @given(pmf_raws, orders)
    @settings(max_examples=100)
    def test_single_guess_is_rank_one(self, raw, alpha):
        pmf = make_pmf(raw)
        if pmf.support_size < 2:
            return
        sp = SortedPmf.from_pmf(pmf)
        assert threshold_rank(sp, 1, alpha) == 1


# ---------------------------------------------------------------------------
# minimal_loss: frozen examples
# ---------------------------------------------------------------------------


class TestMinimalLossExamples:
    def test_main_example(self):
        report = minimal_loss(MAIN_PMF, 2, 2)
        assert report.value == pytest.approx(0.15278640450004208, abs=1e-14)
        assert report.threshold_rank == 2
        assert report.multiplier == pytest.approx(math.sqrt(0.05), abs=1e-14)
        assert report.coverage.t == pytest.approx([1.0, 0.8, 0.2], abs=1e-12)

    def test_uniform_four_order_two(self):
        report = minimal_loss(Pmf.uniform(4), 2, 2)
        assert report.value == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-14)
        assert report.coverage.t == pytest.approx([0.5] * 4, abs=1e-12)
        assert report.threshold_rank == 1

    def test_uniform_four_order_one(self):
        report = minimal_loss(Pmf.uniform(4), 2, 1)
        assert report.value == pytest.approx(math.log(2.0), abs=1e-14)

    def test_order_infinity(self):
        report = minimal_loss(Pmf([0.5, 0.3, 0.2]), 2, Alpha.infinity())
        assert report.value == pytest.approx(0.2, abs=1e-14)
        assert report.threshold_rank == 2
        assert report.coverage.t == pytest.approx([1.0, 1.0, 0.0], abs=0)
        assert report.multiplier == pytest.approx(0.3, abs=1e-14)

    def test_infinity_tie_takes_lowest_index(self):
        report = minimal_loss(Pmf([0.25, 0.25, 0.25, 0.25]), 2, Alpha.infinity())
        assert report.coverage.t.tolist() == [1.0, 1.0, 0.0, 0.0]
        n = 2 * _PARTITION_MIN_SIZE  # partitioned, not sorted whole
        report = minimal_loss(Pmf.uniform(n), 5, Alpha.infinity())
        assert report.coverage.t.tolist() == [1.0] * 5 + [0.0] * (n - 5)

    def test_order_infinity_near_a_full_budget_is_the_exact_tail_sum(self):
        # One less the k largest atoms cancels as k nears n: that route was off
        # the exact sum of the other atoms by up to 2.7e-10 relative.  A tail of
        # one or two atoms sums to the correctly rounded exact value.
        rng = np.random.default_rng(61)
        for case in range(300):
            n = int(rng.choice([3, 10, 200, 3000]))
            pmf = Pmf(rng.dirichlet(np.full(n, rng.choice([0.1, 1.0, 10.0]))))
            k = n - 1 - case % 2
            exact = sum(Fraction(float(x)) for x in np.sort(pmf.probs)[:n - k])
            assert minimal_loss(pmf, k, Alpha.infinity()).value == float(exact)

    def test_budget_covers_support(self):
        report = minimal_loss(Pmf([0.6, 0.4, 0.0]), 5, 2)
        assert report.value == 0.0
        assert report.coverage.t.tolist() == [1.0, 1.0, 0.0]
        assert report.coverage.spent == 2
        assert report.threshold_rank == 2
        assert report.multiplier == pytest.approx(0.4)

    def test_zero_symbols_never_covered(self):
        report = minimal_loss(Pmf([0.5, 0.0, 0.3, 0.2]), 2, 2)
        assert report.coverage.t[1] == 0.0

    def test_rejects_bad_budget(self):
        with pytest.raises(DomainError):
            minimal_loss(MAIN_PMF, 0, 2)
        with pytest.raises(DomainError):
            minimal_loss(MAIN_PMF, -1, 2)
        with pytest.raises(DomainError):
            minimal_loss(MAIN_PMF, True, 2)
        with pytest.raises(DomainError):
            CoverageVector(np.array([1.0, 0.0]), True)

    def test_optimal_coverage_matches_report(self):
        cov = optimal_coverage(MAIN_PMF, 2, 2)
        assert cov.t == pytest.approx([1.0, 0.8, 0.2], abs=1e-12)

    def test_tiny_order_overflows_to_infinity(self):
        # the true loss is about 3**999 / 999, beyond float range
        report = minimal_loss(Pmf([0.5, 0.3, 0.2]), 1, 0.001)
        assert report.value == math.inf
        assert report.multiplier == math.inf
        assert report.coverage.t.sum() == pytest.approx(1.0, abs=1e-12)

    def test_tail_sum_moves_a_rank_the_suffix_sums_passed(self):
        # At this order the suffix sums pass rank 2, but (k - r + 1) w_r over
        # the sum of w from r on is 1.000018, 1.000024 and 1.000018 at ranks
        # 2, 3 and 4 (80 digits) and 1 at rank 5: the correction step moves
        # the threshold three times, and without it coverage exceeds one.
        p = [0.9578574779106043, 0.009589700271314333, 0.009589700271314333,
             0.009589700271314332, 0.009589700271314328, 0.0037837210041382695]
        report = minimal_loss(p, 5, 1e11)
        assert report.threshold_rank == 5
        assert report.coverage.t.max() <= 1.0
        assert report.coverage.t.tolist() == [1.0] * 5 + [0.0]

    def test_budget_beyond_machine_integers(self):
        # Every budget from the support size up gives the same answer, and the
        # reports keep the budget asked for.
        joint = JointPmf([[0.4, 0.1], [0.1, 0.4]])
        for k in (2**63, 10**20):
            report = minimal_loss(Pmf([0.5, 0.5]), k, 2)
            assert (report.value, report.threshold_rank, report.multiplier) == (0.0, 2, 0.5)
            assert report.coverage.t.tolist() == [1.0, 1.0]
            assert (report.coverage.k, report.coverage.spent) == (k, 2)
            for alpha in (2, "inf"):
                value, columns = minimal_loss_conditional(joint, k, alpha)
                assert value == 0.0
                assert [c.coverage.k for c in columns] == [k, k]

    def test_huge_order_keeps_the_budget(self):
        report = minimal_loss(Pmf.uniform(8), 4, 1e20)
        assert report.coverage.t == pytest.approx([0.5] * 8, abs=1e-12)
        assert report.coverage.spent == 4


# ---------------------------------------------------------------------------
# minimal_loss: structural properties
# ---------------------------------------------------------------------------


class TestMinimalLossProperties:
    @given(pmf_raws, orders)
    @settings(max_examples=150)
    def test_coverage_spends_budget(self, raw, alpha):
        pmf = make_pmf(raw)
        for k in range(1, pmf.support_size):
            cov = minimal_loss(pmf, k, alpha).coverage
            assert abs(cov.t.sum() - k) <= 1e-9
            assert np.all(cov.t >= 0.0) and np.all(cov.t <= 1.0)

    @given(pmf_raws, orders)
    @settings(max_examples=150)
    def test_nonincreasing_in_budget(self, raw, alpha):
        pmf = make_pmf(raw)
        values = [
            minimal_loss(pmf, k, alpha).value
            for k in range(1, pmf.support_size + 1)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.0, abs=1e-12)

    @given(pmf_raws, orders)
    @settings(max_examples=100)
    def test_kkt_shape(self, raw, alpha):
        """Interior coverage entries follow the stationarity power law."""
        pmf = make_pmf(raw)
        if pmf.support_size < 3:
            return
        k = pmf.support_size // 2
        report = minimal_loss(pmf, k, alpha)
        lam = report.multiplier
        t, p = report.coverage.t, pmf.probs
        interior = (t > 1e-9) & (t < 1.0 - 1e-9)
        if not np.any(interior):
            return
        expected = np.exp(alpha * (np.log(p[interior]) - math.log(lam)))
        assert t[interior] == pytest.approx(expected, rel=1e-7, abs=1e-9)

    @given(pmf_raws, orders, st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_permutation_invariance(self, raw, alpha, rng):
        pmf = make_tie_free(raw)
        if pmf is None:
            return
        k = max(1, pmf.support_size // 2)
        base = minimal_loss(pmf, k, alpha)
        perm = list(range(pmf.n))
        rng.shuffle(perm)
        shuffled = minimal_loss(Pmf(pmf.probs[perm]), k, alpha)
        assert shuffled.value == pytest.approx(base.value, abs=1e-12)
        assert shuffled.threshold_rank == base.threshold_rank
        assert shuffled.multiplier == pytest.approx(base.multiplier, abs=1e-12)
        assert shuffled.coverage.t == pytest.approx(base.coverage.t[perm], abs=1e-9)

    @given(pmf_raws, orders)
    @settings(max_examples=100)
    def test_coverage_ordered_like_probabilities(self, raw, alpha):
        pmf = make_tie_free(raw)
        if pmf is None:
            return
        k = max(1, pmf.support_size // 2)
        t, p = minimal_loss(pmf, k, alpha).coverage.t, pmf.probs
        order = np.argsort(-p, kind="stable")
        assert np.all(np.diff(t[order]) <= 1e-9)

    @given(pmf_raws)
    @example(raw=[1.0] * 10)
    @settings(max_examples=60)
    def test_limits_match_special_orders(self, raw):
        pmf = make_pmf(raw)
        k = max(1, pmf.support_size // 2)
        if k >= pmf.support_size:
            return
        at_one = minimal_loss(pmf, k, 1).value
        assert minimal_loss(pmf, k, 1 + 1e-6).value == pytest.approx(at_one, abs=1e-4)
        assert minimal_loss(pmf, k, 1 - 1e-6).value == pytest.approx(at_one, abs=1e-4)
        at_inf = minimal_loss(pmf, k, Alpha.infinity()).value
        assert minimal_loss(pmf, k, 1e6).value == pytest.approx(at_inf, abs=1e-4)

    @given(
        st.one_of(tied_raws, tiny_raws),
        extreme_orders,
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=300)
    def test_extreme_orders_give_a_number_or_a_domain_error(self, raw, alpha, k):
        arr = np.array(raw, dtype=float)
        if arr.sum() == 0.0:
            return
        pmf = Pmf(arr / arr.sum())
        try:
            report = minimal_loss(pmf, k, alpha)
        except DomainError:
            return
        assert not math.isnan(report.value) and report.value >= 0.0
        assert report.multiplier > 0.0
        spent = min(k, pmf.support_size)
        assert abs(report.coverage.t.sum() - spent) <= 1e-9
        assert np.all(report.coverage.t >= 0.0) and np.all(report.coverage.t <= 1.0)

    @given(pmf_raws, orders, st.integers(min_value=1, max_value=9))
    @settings(max_examples=100)
    def test_entropy_identity_at_rank_one(self, raw, alpha, k):
        """With no saturated symbols the loss is a pure entropy expression."""
        pmf = make_pmf(raw)
        if k >= pmf.support_size:
            return
        report = minimal_loss(pmf, k, alpha)
        if report.threshold_rank != 1:
            return
        from kguess.core import renyi_entropy

        h = float(renyi_entropy(pmf, alpha))
        beta = (alpha - 1.0) / alpha
        expected = -math.expm1(beta * (math.log(k) - h)) / beta
        assert report.value == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# conditional decomposition
# ---------------------------------------------------------------------------


class TestConditional:
    def test_infinite_order_covers_each_columns_top_k(self):
        joint = JointPmf([[0.2, 0.1], [0.1, 0.2], [0.15, 0.05], [0.05, 0.15]])
        value, columns = minimal_loss_conditional(joint, 2, Alpha.infinity())
        assert value == pytest.approx(0.3, abs=1e-14)
        assert columns[0].coverage.t.tolist() == [1.0, 0.0, 1.0, 0.0]
        assert columns[1].coverage.t.tolist() == [0.0, 1.0, 0.0, 1.0]
        assert [column.coverage.spent for column in columns] == [2, 2]

    def test_frozen_example(self):
        joint = JointPmf([[0.4, 0.1], [0.1, 0.4]])
        value, columns = minimal_loss_conditional(joint, 1, 2)
        assert value == pytest.approx(0.3507577497529358, abs=1e-14)
        assert value == pytest.approx(2.0 * (1.0 - math.sqrt(0.68)), abs=1e-14)
        assert len(columns) == 2
        assert columns[0].value == pytest.approx(columns[1].value, abs=1e-14)

    def test_zero_column_reported_as_none(self):
        joint = JointPmf([[0.5, 0.0], [0.5, 0.0]])
        value, columns = minimal_loss_conditional(joint, 1, 2)
        assert columns[1] is None
        assert value == pytest.approx(2.0 * (1.0 - math.sqrt(0.5)), abs=1e-12)

    @given(
        st.lists(
            st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=3, max_size=6),
            min_size=2,
            max_size=4,
        ),
        orders,
    )
    @settings(max_examples=60)
    def test_matches_weighted_columns(self, raw, alpha):
        width = min(len(row) for row in raw)
        mat = np.array([row[:width] for row in raw]).T
        joint = JointPmf(mat / mat.sum())
        value, columns = minimal_loss_conditional(joint, 1, alpha)
        weights = joint.probs.sum(axis=0)
        total = sum(
            w * col.value for w, col in zip(weights, columns) if col is not None
        )
        assert value == pytest.approx(total, abs=1e-12)


# ---------------------------------------------------------------------------
# the kernel's top-k ordering against the full sort
# ---------------------------------------------------------------------------


def full_sort_solve_rows(P: np.ndarray, k: int, a: Alpha) -> tuple[np.ndarray, ...]:
    """The closed-form kernel with every row sorted whole and full-length
    suffix sums, kept as the reference for the partitioned kernel."""
    rows, n = P.shape
    flat = np.argsort(-P, axis=1, kind="stable")
    flat += np.arange(0, rows * n, n)[:, None]
    S = P.reshape(-1)[flat]
    if k < n and S[:, k].min() > 0.0:
        value, rank, T, multiplier = full_sort_solve_sorted_rows(S, k, a)
        spent = k
    else:
        support = (S > 0.0).sum(axis=1)
        spent = np.minimum(support, k)
        value, rank, T = np.zeros(rows), support.copy(), (S > 0.0).astype(np.float64)
        multiplier = S[np.arange(rows), support - 1]
        live = np.flatnonzero(support > k)
        if live.size:
            solved = full_sort_solve_sorted_rows(S[live], k, a)
            value[live], rank[live], T[live], multiplier[live] = solved
    if not np.abs(T.sum(axis=1) - spent).max() <= SUM_TOL or math.isnan(value.sum()):
        raise KGuessError("closed form missed the guesses it spends")
    t = np.empty(P.shape)  # C order, so that the scatter writes into t
    t.reshape(-1)[flat] = T
    return value, rank, t, multiplier


def full_sort_solve_sorted_rows(S: np.ndarray, k: int, a: Alpha) -> tuple[np.ndarray, ...]:
    rows, n = S.shape
    if a.is_inf:
        T = np.broadcast_to(np.arange(n) < k, (rows, n)).astype(np.float64)
        value = S[:, k:].sum(axis=1)
        return value, np.full(rows, k), T, S[:, k - 1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logp = np.log(S)
        x = a.value * (logp - logp[:, :1])
        suffix = np.logaddexp.accumulate(x[:, ::-1], axis=1)[:, ::-1]
        factors = np.log(np.arange(k, 0, -1, dtype=np.float64))
        s0 = np.argmin(factors + x[:, :k] - suffix[:, :k] > 0.0, axis=1)
        at, col = np.arange(rows), np.arange(n)
        while True:
            lead = logp[at, s0]
            y = a.value * (logp - lead[:, None])
            e = np.exp(y)
            e[col <= s0[:, None]] = 0.0
            log_total = np.log1p(e.sum(axis=1))
            log_left = factors[s0]
            over = log_left > log_total
            if not over.any():
                break
            s0 = s0 + over
        y += (log_left - log_total)[:, None]
        y[col < s0[:, None]] = 0.0
        T = np.exp(y)
        y[S == 0.0] = 0.0
        if not a.is_one:
            beta = (a.value - 1.0) / a.value
            y *= beta
            np.expm1(y, out=y)
            y /= beta
        y *= S
        value = -y.sum(axis=1)
        multiplier = np.exp(lead + (log_total - log_left) / a.value)
    return value, s0 + 1, T, multiplier


def rank_condition_is_tight(row: np.ndarray, k: int, a: Alpha, rank: int) -> bool:
    """(k - r + 1) p_r ** a == sum over ranks from r of p ** a, for r = rank:
    then ranks r and r + 1 give the same coverage."""
    s = np.sort(row[row > 0.0])[::-1]
    x = a.value * (np.log(s) - math.log(s[0]))
    lhs = math.log(k - rank + 1) + x[rank - 1]
    return abs(lhs - np.logaddexp.reduce(x[rank - 1:])) <= 1e-9


def partition_cases(rng: np.random.Generator) -> list[np.ndarray]:
    """Matrices just below and above the partition cut-off: random, integer
    valued (ties straddle the k-th atom), with tied largest atoms, with zero
    atoms, with rows of few positive atoms next to live rows, and with rows
    of 2, 9 and all positive atoms in turn, so that at small budgets the live
    rows hold zero atoms just past their head."""
    cut = _PARTITION_MIN_SIZE
    cases = []
    shapes = ((1, cut - 1), (1, cut), (1, cut + 300), ((cut - 1) // 64, 64), (cut // 64, 64), (5, 700))
    for rows, n in shapes:
        cases.append(rng.dirichlet(np.ones(n), size=rows))
        tied = rng.integers(1, 4, size=(rows, n)).astype(float)
        cases.append(tied / tied.sum(axis=1, keepdims=True))
        head = rng.random((rows, n))  # five tied largest atoms, inside the top 7
        head[:, rng.choice(n, size=5, replace=False)] = 2.0
        cases.append(head / head.sum(axis=1, keepdims=True))
        zeros = rng.random((rows, n)) ** 4
        zeros[rng.random((rows, n)) < 0.5] = 0.0
        zeros[:, 0] = 1.0
        zeros[: (rows + 1) // 2, 3:] = 0.0  # at most three positive atoms
        cases.append(zeros / zeros.sum(axis=1, keepdims=True))
        mixed = rng.random((rows, n)) + 0.5
        positive = np.array([2, 9, n])[np.arange(rows) % 3]
        mixed[np.argsort(rng.random((rows, n)), axis=1) >= positive[:, None]] = 0.0
        cases.append(mixed / mixed.sum(axis=1, keepdims=True))
    return cases


def test_partition_order_matches_full_sort():
    rng = np.random.default_rng(2024)
    orders = [Alpha(v) for v in (1e-6, 0.5, 1.0, 2.0, 20.0, 1e12)] + [Alpha.infinity()]
    for P in partition_cases(rng):
        n = P.shape[1]
        full = np.argsort(-P, axis=1, kind="stable")
        for k in (1, 2, 7, n - 2, n - 1, n, n + 1):
            head, H = _head(P, min(k, n))  # the kernel clamps the budget to n
            assert np.array_equal(head, full[:, :k])
            assert np.array_equal(H[:, :k], np.take_along_axis(P, full[:, :k], axis=1))
            # Position k holds the (k+1)-th largest atom, which decides liveness.
            assert np.array_equal(H[:, k:k + 1], np.take_along_axis(P, full[:, k:k + 1], axis=1))
            for a in orders:
                value, rank, t, multiplier = _solve_rows(P, k, a)
                ref_value, ref_rank, ref_t, ref_multiplier = full_sort_solve_rows(P, k, a)
                for i in np.flatnonzero(rank != ref_rank):
                    assert rank_condition_is_tight(P[i], k, a, min(rank[i], ref_rank[i]))
                if a.is_inf:
                    assert np.array_equal(t, ref_t)
                assert np.max(np.abs(t - ref_t)) <= 1e-14
                np.testing.assert_allclose(value, ref_value, rtol=1e-12, atol=0.0)
                same = rank == ref_rank
                np.testing.assert_allclose(multiplier[same], ref_multiplier[same], rtol=1e-12)


def test_log_expectations_match_the_coverage():
    """The rank stage's closed-form expectation against ln sum(p * t ** beta)
    over the coverage of the full kernel, its flatness sum against a tilt, and
    its largest atom against the full sort."""
    rng = np.random.default_rng(2025)
    for P in partition_cases(rng):
        n = P.shape[1]
        full = np.argsort(-P, axis=1, kind="stable")
        with np.errstate(divide="ignore"):
            logp = np.log(P)
        for a in [Alpha(v) for v in (1e-6, 0.5, 2.0, 20.0, 1e12)]:
            beta = (a.value - 1.0) / a.value
            tilt = np.log(np.exp(a.value * (logp - logp.max(axis=1, keepdims=True))).sum(axis=1))
            for k in (1, 2, 7, n - 1, n):
                best, log_mass, top = _log_expectations(P, k, a)
                t = _solve_rows(P, k, a)[2]
                with np.errstate(divide="ignore", invalid="ignore"):
                    terms = np.where(P > 0.0, logp + beta * np.log(t), -np.inf)
                # The leakage is (1 / beta) times a difference of these: 1e-12 there.
                np.testing.assert_allclose(best, np.logaddexp.reduce(terms, axis=1),
                                           rtol=0.0, atol=1e-12 * max(1.0, abs(beta)))
                if k >= n:
                    assert np.all(best == 0.0)  # exactly: every atom is guessed
                np.testing.assert_allclose(log_mass, tilt, rtol=0.0, atol=1e-13)
                assert np.array_equal(top, full[:, 0])
