"""Tests for coverage admissibility, decomposition, and sampling."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kguess import strategy
from kguess.core import Alpha, DomainError, KGuessError, Pmf
from kguess.guessing import CoverageVector, minimal_loss
from kguess.strategy import (
    SubsetMixture,
    _run_lengths,
    is_admissible,
    realize_coverage,
    sample_guesses,
    strategy_loss,
)

pmf_raws = st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=10)
orders = st.sampled_from([0.3, 0.5, 0.9, 1.5, 2.0, 5.0, 20.0])


def make_pmf(raw: list[float]) -> Pmf:
    arr = np.array(raw, dtype=float)
    return Pmf(arr / arr.sum())


def random_coverage(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Random point of the capped simplex via rescale-and-clip sweeps."""
    t = rng.uniform(0.0, 1.0, size=n)
    for _ in range(64):
        t = np.clip(t * (k / t.sum()), 0.0, 1.0)
        if abs(t.sum() - k) <= 1e-12:
            return t
    # each spread either lands on k or caps at least one more entry at 1
    for _ in range(n):
        free = t < 1.0
        t[free] += (k - t.sum()) / free.sum()
        t = np.clip(t, 0.0, 1.0)
        if abs(t.sum() - k) <= 1e-12:
            return t
    raise AssertionError(f"no coverage of total {k} found for n={n}")


def reference_realize(cov: CoverageVector) -> tuple[list[list[int]], np.ndarray]:
    """Per-cell loop form of realize_coverage: one search per cell, merged in a dict."""
    k = cov.k
    support = np.flatnonzero(cov.t > 0.0)
    order = support[np.argsort(-cov.t[support], kind="stable")]
    t = np.clip(cov.t[order], 0.0, 1.0)
    t = t * (k / float(t.sum()))
    cums = np.minimum(np.cumsum(t), float(k))
    cums[-1] = float(k)
    whole = np.floor(cums)
    fracs = cums - whole
    cuts = np.unique(np.concatenate(([0.0], np.where(fracs >= 1.0 - 1e-12, 0.0, fracs))))
    cuts = cuts[np.concatenate(([True], np.diff(cuts) > 1e-12))]
    edges = np.append(cuts, 1.0)
    windows = np.arange(k)
    collected: dict[tuple[int, ...], float] = {}
    for lo, hi in zip(edges[:-1], edges[1:]):
        width = hi - lo
        if width <= 1e-12:
            continue
        # cums[v] <= j + mid, exactly: symbol v is counted from window
        # floor(cums[v]) when its fractional part is at most mid, else from
        # the window after
        first = np.sort(np.where(fracs <= 0.5 * (lo + hi), whole, whole + 1.0))
        ranks = np.searchsorted(first, windows, side="right")
        subset = tuple(int(i) for i in order[np.minimum(ranks, len(order) - 1)])
        collected[subset] = collected.get(subset, 0.0) + width
    weights = np.fromiter(collected.values(), dtype=np.float64)
    return [list(s) for s in collected], weights / float(weights.sum())


def tied_coverage(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Coverage on the quarter grid: many ties, some zeros, some ones."""
    q = rng.integers(0, 5, size=n)
    while q.sum() != 4 * k:
        i = int(rng.integers(n))
        q[i] = min(4, q[i] + 1) if q.sum() < 4 * k else max(0, q[i] - 1)
    return q / 4.0


class FixedUniforms(np.random.Generator):
    """A generator whose ``random()`` returns the given uniforms in turn."""

    def __init__(self, us) -> None:
        super().__init__(np.random.PCG64(0))
        self.us = list(us)

    def random(self, *args, **kwargs):
        return self.us.pop(0)


def coverage_of_kind(rng: np.random.Generator, n: int, k: int, kind: int) -> np.ndarray:
    """Kind 0 random, 1 quarter-grid tied, 2 random with zero entries."""
    if kind == 0:
        return random_coverage(rng, n, k)
    if kind == 1:
        return tied_coverage(rng, n, k)
    # zero entries off a random support larger than k
    t = np.zeros(n)
    m = int(rng.integers(k + 1, n + 1))
    t[rng.choice(n, size=m, replace=False)] = random_coverage(rng, m, k)
    return t


def mixed_coverages(rng: np.random.Generator, trials: int) -> list[CoverageVector]:
    """Random, quarter-grid tied, and zero-entry coverages with n <= 20."""
    covs = []
    for trial in range(trials):
        n = int(rng.integers(2, 21))
        k = int(rng.integers(1, n))
        covs.append(CoverageVector(coverage_of_kind(rng, n, k, trial % 3), k))
    return covs


# ---------------------------------------------------------------------------
# is_admissible
# ---------------------------------------------------------------------------


class TestIsAdmissible:
    def test_accepts_optimal_coverage(self):
        verdict = is_admissible(np.array([1.0, 0.8, 0.2]), 2)
        assert verdict.ok
        assert bool(verdict)

    def test_bounds_violation_with_location(self):
        verdict = is_admissible(np.array([1.5, 0.5]), 2)
        assert not verdict.ok
        assert verdict.violation == "bounds"
        assert verdict.index == 0

    def test_negative_entry(self):
        verdict = is_admissible(np.array([-0.2, 1.0, 1.2]), 2)
        assert verdict.violation == "bounds"
        assert verdict.index == 0

    def test_sum_violation(self):
        verdict = is_admissible(np.array([0.5, 0.4]), 2)
        assert verdict.violation == "sum"
        assert verdict.index is None
        assert "0.9" in verdict.detail

    def test_bounds_detail_shows_the_entry_exactly(self):
        # a shortened entry could print as a value inside [0, 1]
        verdict = is_admissible(np.array([1.00000000001, 0.99999999999]), 2)
        assert verdict.detail == "entry 0 is 1.00000000001, outside [0, 1]"

    def test_bounds_reported_before_sum(self):
        verdict = is_admissible(np.array([1.2, 0.8]), 2)
        assert verdict.violation == "bounds"

    def test_tolerances(self):
        assert is_admissible(np.array([1.0 + 5e-13, 1.0 - 5e-13]), 2).ok
        assert is_admissible(np.array([0.5, 0.5 + 5e-10]), 1).ok
        assert not is_admissible(np.array([0.5, 0.5 + 5e-9]), 1).ok


# ---------------------------------------------------------------------------
# SubsetMixture
# ---------------------------------------------------------------------------


class TestSubsetMixture:
    def test_validates_members(self):
        with pytest.raises(DomainError):
            SubsetMixture(((0, 0),), (1.0,))
        with pytest.raises(DomainError):
            SubsetMixture(((0, 1), (2,)), (0.5, 0.5))
        with pytest.raises(DomainError):
            SubsetMixture(((0, 1),), (0.5,))

    @pytest.mark.parametrize(
        "weights, message",
        [([1.0], "one weight per component"), ([1.0, 0.0], "must be positive")],
        ids=["one-short", "zero-weight"],
    )
    def test_needs_one_positive_weight_per_component(self, weights, message):
        with pytest.raises(DomainError, match=message):
            SubsetMixture([[0, 1], [1, 2]], weights)

    def test_coverage(self):
        mix = SubsetMixture(((0, 1), (0, 2)), (0.8, 0.2))
        assert mix.coverage(3).tolist() == pytest.approx([1.0, 0.8, 0.2])
        assert mix.k == 2
        assert mix.n_components == 2

    @pytest.mark.parametrize("n", [2.5, "3", True, None, 0, -1])
    def test_coverage_reads_the_alphabet_size_as_a_budget(self, n):
        mix = SubsetMixture(((0, 1),), (1.0,))
        with pytest.raises(DomainError, match="alphabet size must be a positive integer"):
            mix.coverage(n)
        assert mix.coverage(np.int64(3)).tolist() == [1.0, 1.0, 0.0]

    def test_coverage_matches_repeat_bincount(self):
        # Summed a block of rows at a time; the bincount of the whole mixture
        # is the reference.  The large mixture spans several blocks.
        rng = np.random.default_rng(17)
        mixes = [realize_coverage(cov) for cov in mixed_coverages(rng, 60)]
        members = np.argsort(rng.random((4000, 300)), axis=1)[:, :40]
        weights = rng.random(4000) + 0.1
        mixes.append(SubsetMixture(members, weights / weights.sum()))
        for mix in mixes:
            n = int(mix.subsets.max()) + 2
            ref = np.bincount(
                mix.subsets.ravel(), weights=np.repeat(mix.weights, mix.k), minlength=n
            )
            assert np.max(np.abs(mix.coverage(n) - ref)) <= 1e-15

    def test_returned_coverage_is_a_copy(self):
        pmf = Pmf([0.5, 0.3, 0.2])
        built = realize_coverage(minimal_loss(pmf, 2, 2).coverage)
        for mix in (SubsetMixture(((0, 1), (1, 2), (0, 2)), (0.5, 0.3, 0.2)), built):
            before, cover = strategy_loss(mix, pmf, 2), mix.coverage(3)
            expected = cover.tolist()
            cover[:] = 0.0
            assert strategy_loss(mix, pmf, 2) == before
            assert mix.coverage(3).tolist() == expected


# ---------------------------------------------------------------------------
# realize_coverage
# ---------------------------------------------------------------------------


class TestRealizeCoverage:
    def test_main_example(self):
        cov = CoverageVector(np.array([1.0, 0.8, 0.2]), 2)
        mix = realize_coverage(cov)
        assert mix.n_components == 2
        pairs = dict(zip(map(tuple, mix.subsets.tolist()), mix.weights))
        assert pairs[(0, 1)] == pytest.approx(0.8, abs=1e-12)
        assert pairs[(0, 2)] == pytest.approx(0.2, abs=1e-12)

    def test_uniform_four(self):
        cov = CoverageVector(np.full(4, 0.5), 2)
        mix = realize_coverage(cov)
        pairs = dict(zip(map(tuple, mix.subsets.tolist()), mix.weights))
        assert pairs == {
            (0, 2): pytest.approx(0.5, abs=1e-12),
            (1, 3): pytest.approx(0.5, abs=1e-12),
        }

    def test_point_mass(self):
        cov = CoverageVector(np.array([1.0, 0.0, 0.0]), 1)
        mix = realize_coverage(cov)
        assert mix.subsets.tolist() == [[0]]
        assert mix.weights == pytest.approx((1.0,))

    def test_integral_coverage_is_deterministic(self):
        cov = CoverageVector(np.array([1.0, 0.0, 1.0, 1.0]), 3)
        mix = realize_coverage(cov)
        assert mix.subsets.tolist() == [[0, 2, 3]]

    def test_requires_coverage_vector(self):
        with pytest.raises(DomainError):
            realize_coverage([1.0, 0.8, 0.2])

    def test_budget_above_support_uses_the_guesses_spent(self):
        report = minimal_loss(Pmf([0.5, 0.5, 0.0, 0.0]), 3, 2)
        assert report.coverage.spent == 2
        mix = realize_coverage(report.coverage)
        assert mix.subsets.tolist() == [[0, 1]]
        assert mix.weights.tolist() == [1.0]

    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=1, max_value=19),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=18, k=16, seed=364)
    @settings(max_examples=200)
    def test_random_admissible_decomposes_exactly(self, n, k, seed):
        if k >= n:
            return
        rng = np.random.default_rng(seed)
        t = random_coverage(rng, n, k)
        mix = realize_coverage(CoverageVector(t, k))
        assert mix.n_components <= n
        induced = mix.coverage(n)
        assert np.max(np.abs(induced - np.clip(t, 0, 1))) <= 1e-9
        assert sum(mix.weights) == pytest.approx(1.0, abs=1e-12)
        for subset in mix.subsets.tolist():
            assert len(subset) == k
            assert len(set(subset)) == k

    def test_matches_per_cell_reference(self):
        for cov in mixed_coverages(np.random.default_rng(2024), 300):
            mix = realize_coverage(cov)
            subsets, weights = reference_realize(cov)
            assert mix.subsets.tolist() == subsets
            assert mix.weights.tolist() == weights.tolist()

    def test_mixture_equals_validated_construction(self, monkeypatch):
        # realize_coverage skips SubsetMixture's checks; the public constructor
        # on the same parts must give the same arrays, bit for bit.
        parts = []
        build = strategy._trusted

        def record(cls, **fields):
            parts.append((fields["subsets"].copy(), fields["weights"].copy()))
            return build(cls, **fields)

        monkeypatch.setattr(strategy, "_trusted", record)
        for cov in mixed_coverages(np.random.default_rng(7), 300):
            mix = realize_coverage(cov)
            checked = SubsetMixture(*parts.pop())
            for name in ("subsets", "weights"):
                got, want = getattr(mix, name), getattr(checked, name)
                assert got.dtype == want.dtype and not got.flags.writeable
                assert np.array_equal(got, want)
            assert mix._cum_list == checked._cum_list

    @given(
        st.integers(min_value=2, max_value=400),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_up_to_400_symbols(self, n, share, kind, seed):
        k = 1 + int(share * (n - 2))  # 1 .. n - 1
        cov = CoverageVector(coverage_of_kind(np.random.default_rng(seed), n, k, kind), k)
        mix = realize_coverage(cov)
        subsets, weights = reference_realize(cov)
        assert mix.subsets.tolist() == subsets
        assert mix.weights.tolist() == weights.tolist()
        for arr in (mix.subsets, mix.weights):
            assert arr.flags.c_contiguous and not arr.flags.writeable

    def test_gapped_bounds_raise_the_repeated_guess_error(self):
        # k = 3 windows of 4 cells: a run of at most 4 positions per rank
        assert _run_lengths(np.array([2, 5, 9, 12]), 4).tolist() == [2, 3, 4, 3]
        assert _run_lengths(np.array([4, 8, 12]), 4).tolist() == [4, 4, 4]
        for gapped in ([5, 9, 12], [2, 3, 8, 12], [2, 6, 7, 12]):
            # some window (q, q + 4] holds no bound: one cell repeats a symbol
            with pytest.raises(KGuessError, match="repeated guess"):
                _run_lengths(np.array(gapped), 4)

    def test_one_ulp_cell_is_its_own_component(self):
        # Cuts 0.75 - 2**-39 and 0.75 bound a cell one ulp of 8192 wide:
        # 8192 + its midpoint rounds onto the cut at 8192.75, but the exact
        # landing still tells the cell from the next one, so it stays a
        # component of its own and the coverage comes back exactly.
        w = 2.0**-39
        t = np.concatenate((np.ones(8192), [0.75, 0.5, 0.5 - w, 0.25 + w]))
        cov = CoverageVector(t, 8194)
        mix = realize_coverage(cov)
        subsets, weights = reference_realize(cov)
        assert mix.n_components == 4
        assert len({tuple(row) for row in mix.subsets.tolist()}) == 4
        assert mix.subsets.tolist() == subsets
        assert mix.weights.tolist() == weights.tolist()
        assert np.max(np.abs(mix.coverage(t.size) - t)) <= 1e-15

    def test_partial_sum_past_the_budget_cuts_no_cell(self):
        # The running sum before the 1e-13 entry rounds one ulp (1.8e-12)
        # past k = 8192; read as a cut, it would split the first cell into
        # two cells that pick the same subset.
        tail = [0.6030797192484694, 0.5343518561108214, 0.4820774335582347, 0.38049099108237455]
        t = np.concatenate((np.ones(8190), tail, [1e-13]))
        cov = CoverageVector(t, 8192)
        mix = realize_coverage(cov)
        subsets, weights = reference_realize(cov)
        assert mix.n_components == 4
        assert len({tuple(row) for row in mix.subsets.tolist()}) == 4
        assert mix.subsets.tolist() == subsets
        assert mix.weights.tolist() == weights.tolist()

    def test_large_zipf_reconstructs(self):
        p = 1.0 / np.arange(1, 10_001) ** 0.9
        report = minimal_loss(np.random.default_rng(5).permutation(p / p.sum()), 100, 2)
        mix = realize_coverage(report.coverage)
        assert mix.subsets.shape == (mix.n_components, 100)
        assert np.max(np.abs(mix.coverage(10_000) - report.coverage.t)) <= 1e-9

    @given(pmf_raws, orders)
    @settings(max_examples=100)
    def test_optimal_coverage_always_realizable(self, raw, alpha):
        pmf = make_pmf(raw)
        for k in range(1, pmf.support_size):
            report = minimal_loss(pmf, k, alpha)
            mix = realize_coverage(report.coverage)
            realized = strategy_loss(mix, pmf, alpha)
            assert realized == pytest.approx(report.value, abs=1e-9)


# ---------------------------------------------------------------------------
# sample_guesses
# ---------------------------------------------------------------------------


class TestSampleGuesses:
    MIX = SubsetMixture(((0, 1), (0, 2)), (0.8, 0.2))

    def test_deterministic_for_seed(self):
        assert sample_guesses(self.MIX, 7) == sample_guesses(self.MIX, 7)

    def test_draws_member_subsets(self):
        rng = np.random.default_rng(0)
        seen = {tuple(sorted(sample_guesses(self.MIX, rng))) for _ in range(200)}
        assert seen == {(0, 1), (0, 2)}

    def test_frequencies_match_weights(self):
        rng = np.random.default_rng(123)
        hits = sum(
            1 for _ in range(20000) if 1 in sample_guesses(self.MIX, rng)
        )
        sigma = math.sqrt(0.8 * 0.2 / 20000)
        assert abs(hits / 20000 - 0.8) <= 4 * sigma

    def test_bisection_matches_searchsorted(self):
        # Uniforms at, just below and between the cumulative weights.
        rng = np.random.default_rng(29)
        for cov in mixed_coverages(rng, 60):
            mix = realize_coverage(cov)
            cums = np.cumsum(mix.weights)
            us = np.concatenate(([0.0], cums, np.nextafter(cums, 0.0), rng.random(8)))
            for u in us.tolist():
                j = min(int(np.searchsorted(cums, u, side="right")), mix.n_components - 1)
                assert sample_guesses(mix, FixedUniforms([u])) == mix.subsets[j].tolist()

    def test_pmf_orders_output(self):
        pmf = Pmf([0.1, 0.2, 0.7])
        mix = SubsetMixture(((0, 1, 2),), (1.0,))
        assert sample_guesses(mix, 1, pmf=pmf) == [2, 1, 0]

    def test_short_pmf_raises_like_coverage(self):
        mix = SubsetMixture([[0, 5]], [1.0])
        for _ in range(2):  # the first draw finds the bound, the second reads it
            with pytest.raises(DomainError) as got:
                sample_guesses(mix, 1, pmf=[0.5, 0.5])
            assert str(got.value) == "subset member 5 outside alphabet of size 2"
        with pytest.raises(DomainError, match=str(got.value)):
            mix.coverage(2)
        assert sample_guesses(mix, 1, pmf=[0.1] * 5 + [0.5]) == [5, 0]


# ---------------------------------------------------------------------------
# strategy_loss
# ---------------------------------------------------------------------------


class TestStrategyLoss:
    def test_uniform_two_subsets_frozen(self):
        mix = SubsetMixture(((0, 1), (1, 2), (0, 2)), (1 / 3, 1 / 3, 1 / 3))
        value = strategy_loss(mix, Pmf([0.5, 0.3, 0.2]), 2)
        assert value == pytest.approx(2.0 * (1.0 - math.sqrt(2.0 / 3.0)), abs=1e-14)
        assert value == pytest.approx(0.36700683814454793, abs=1e-14)

    def test_optimal_mixture_agrees_with_closed_form(self):
        pmf = Pmf([0.7, 0.2, 0.1])
        mix = SubsetMixture(((0, 1), (0, 2)), (0.8, 0.2))
        assert strategy_loss(mix, pmf, 2) == pytest.approx(
            0.15278640450004208, abs=1e-12
        )

    def test_uncovered_symbol_low_order(self):
        mix = SubsetMixture(((0,),), (1.0,))
        assert strategy_loss(mix, Pmf([0.6, 0.4]), 1) == math.inf
        assert strategy_loss(mix, Pmf([0.6, 0.4]), 0.5) == math.inf

    def test_uncovered_symbol_high_order(self):
        mix = SubsetMixture(((0,),), (1.0,))
        # the uncovered symbol contributes its mass times the loss ceiling
        assert strategy_loss(mix, Pmf([0.6, 0.4]), 2) == pytest.approx(0.8)

    def test_loss_beyond_float_range_is_infinite(self):
        # beta = -999 at order 0.001: the rarely guessed symbol's loss
        # -expm1(beta * ln 1e-5) / beta overflows, silently, to +inf
        mix = SubsetMixture([[0], [1]], [1 - 1e-5, 1e-5])
        assert strategy_loss(mix, [0.5, 0.5], 0.001) == math.inf

    def test_weighted_loss_within_float_range_is_finite(self):
        # At order 0.02 (beta = -49) the tiny atom's loss overflows on the way,
        # as t ** beta, though 1e-300 times it is about 6e6.  Reference: the
        # rank-one optimum t = k p ** a / sum(p ** a), at 60 digits.
        p, k, alpha = [0.5, 0.5, 1e-300], 1, 0.02
        with localcontext() as ctx:
            ctx.prec = 60
            a = Decimal(alpha)
            beta = (a - 1) / a
            w = [Decimal(x) ** a for x in p]
            t = [k * x / sum(w) for x in w]
            exact = float(sum(Decimal(x) * (1 - c ** beta) / beta for x, c in zip(p, t)))
        report = minimal_loss(p, k, alpha)
        assert report.value == pytest.approx(exact, rel=1e-12)
        value = strategy_loss(realize_coverage(report.coverage), p, alpha)
        assert value == pytest.approx(exact, rel=1e-12)
        assert exact == pytest.approx(1.1489065792033e13, rel=1e-13)

    def test_members_must_index_the_pmf(self):
        mix = SubsetMixture(((0, 5),), (1.0,))
        with pytest.raises(DomainError):
            strategy_loss(mix, Pmf([0.6, 0.4]), 2)

    @given(pmf_raws, orders)
    @settings(max_examples=60)
    def test_never_beats_the_optimum(self, raw, alpha):
        pmf = make_pmf(raw)
        n = pmf.n
        if n < 3:
            return
        k = 2
        if k >= pmf.support_size:
            return
        best = minimal_loss(pmf, k, alpha).value
        rng = np.random.default_rng(42)
        for _ in range(5):
            members = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            value = strategy_loss(SubsetMixture((members,), (1.0,)), pmf, alpha)
            assert value >= best - 1e-10
