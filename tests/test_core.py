"""Tests for the shared domain types and entropy primitives."""

from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kguess.core import (
    Alpha,
    DegenerateColumnError,
    DomainError,
    Entropy,
    InvalidDistributionError,
    JointPmf,
    KGuessError,
    ParseError,
    Pmf,
    _descending,
    alpha_loss,
    arimoto_conditional_entropy,
    conditional_pmf,
    renyi_entropy,
    tilted,
)
from kguess.guessing import CoverageVector, LossReport, SortedPmf
from kguess.oracle import CappedSimplex, lp_feasible, project_capped_simplex
from kguess.strategy import SubsetMixture, is_admissible

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

probs_lists = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=10
)


def normalize(raw: list[float]) -> np.ndarray:
    arr = np.array(raw, dtype=float)
    return arr / arr.sum()


# ---------------------------------------------------------------------------
# public names
# ---------------------------------------------------------------------------


def test_public_names_unchanged():
    import kguess

    assert set(kguess.__all__) == {
        "__version__", "Alpha", "Pmf", "JointPmf", "Entropy", "SortedPmf",
        "CoverageVector", "LossReport", "SubsetMixture", "Admissibility",
        "LeakageReport", "RobustnessResult", "CappedSimplex", "OracleSolution",
        "FeasibilityResult", "KGuessError", "ParseError",
        "InvalidDistributionError", "DomainError", "BudgetError",
        "DegenerateColumnError", "AdmissibilityError", "SizeError",
        "ConvergenceError", "as_alpha", "as_pmf", "as_joint", "alpha_loss",
        "tilted", "renyi_entropy", "arimoto_conditional_entropy",
        "conditional_pmf", "threshold_rank", "minimal_loss", "optimal_coverage",
        "minimal_loss_conditional", "is_admissible", "realize_coverage",
        "sample_guesses", "strategy_loss", "max_expectation", "alpha_leakage",
        "robustness_condition", "project_capped_simplex",
        "minimize_expected_loss", "lp_feasible",
    }


# ---------------------------------------------------------------------------
# malformed input arrays
# ---------------------------------------------------------------------------

# Every public constructor or function that reads an array, fed a 2-entry input.
ARRAY_INPUTS = {
    "Pmf": (Pmf, InvalidDistributionError),
    "JointPmf": (lambda v: JointPmf([v]), InvalidDistributionError),
    "SortedPmf": (lambda v: SortedPmf(v, np.arange(2), 2), DomainError),
    "CoverageVector": (lambda v: CoverageVector(v, 1), DomainError),
    "SubsetMixture weights": (lambda v: SubsetMixture(((0,), (1,)), v), DomainError),
    "is_admissible": (lambda v: is_admissible(v, 1), DomainError),
    "lp_feasible": (lambda v: lp_feasible(v, 1), DomainError),
    "project_capped_simplex": (lambda v: project_capped_simplex(v, CappedSimplex(2, 1)), DomainError),
}
MALFORMED = {
    "strings": ["a", "b"],
    "ragged": [[0.5], [0.25, 0.25]],
    "nan": [math.nan, 0.5],
    "inf": [math.inf, 0.5],
}


@pytest.mark.parametrize("bad", list(MALFORMED), ids=str)
@pytest.mark.parametrize("name", list(ARRAY_INPUTS), ids=str)
def test_malformed_arrays_raise_typed_errors(name, bad):
    read, error = ARRAY_INPUTS[name]
    with pytest.raises(error):
        read(MALFORMED[bad])


# Every reader of an index array, fed a 2-entry input that is not one.
INDEX_INPUTS = {
    "SortedPmf perm": lambda v: SortedPmf([0.6, 0.4], v, 2),
    "SubsetMixture subsets": lambda v: SubsetMixture([v], [1.0]),
}
BAD_INDICES = {
    "strings": ["a", "b"],
    "ragged": [[0], [0, 1]],
    "floats": [0.5, 1],
    "bools": [True, False],
    "negative": [-1, 0],
}
JOINT = JointPmf([[0.25, 0.25], [0.25, 0.25]])
# Every index, size and budget argument that is not a valid integer.
BAD_INTEGERS = {
    **{f"{name} {bad}": (lambda read=read, v=v: read(v))
       for name, read in INDEX_INPUTS.items() for bad, v in BAD_INDICES.items()},
    "SortedPmf perm out of range": lambda: SortedPmf([0.6, 0.4], [5, 7], 2),
    "SortedPmf perm repeats": lambda: SortedPmf([0.6, 0.4], [1, 1], 2),
    "SortedPmf size 2.5": lambda: SortedPmf([0.6, 0.4], [0, 1], 2.5),
    "SortedPmf size str": lambda: SortedPmf([0.6, 0.4], [0, 1], "a"),
    "SortedPmf size None": lambda: SortedPmf([0.6, 0.4], [0, 1], None),
    "CappedSimplex k 1.5": lambda: CappedSimplex(3, 1.5),
    "CappedSimplex k True": lambda: CappedSimplex(3, True),
    "CappedSimplex k str": lambda: CappedSimplex(3, "a"),
    "uniform 0": lambda: Pmf.uniform(0),
    "uniform -1": lambda: Pmf.uniform(-1),
    "uniform 2.5": lambda: Pmf.uniform(2.5),
    "uniform True": lambda: Pmf.uniform(True),
    "point_mass 1.5": lambda: Pmf.point_mass(2, 1.5),
    "point_mass True": lambda: Pmf.point_mass(2, True),
    "conditional_pmf 1.5": lambda: conditional_pmf(JOINT, 1.5),
    "conditional_pmf True": lambda: conditional_pmf(JOINT, True),
    "conditional_pmf str": lambda: conditional_pmf(JOINT, "a"),
}


@pytest.mark.parametrize("case", list(BAD_INTEGERS), ids=str)
def test_malformed_integers_raise_domain_error(case):
    with pytest.raises(DomainError):
        BAD_INTEGERS[case]()


# ---------------------------------------------------------------------------
# Alpha
# ---------------------------------------------------------------------------


class TestAlpha:
    def test_snaps_to_one(self):
        assert Alpha(1.0 + 1e-13).is_one
        assert Alpha(1.0 - 1e-13).is_one
        assert not Alpha(1.0 + 1e-6).is_one

    def test_token_grammar(self):
        assert Alpha.from_token("inf").is_inf
        assert Alpha.from_token("INFINITY").is_inf
        assert Alpha.from_token(" Infinity ").is_inf
        assert Alpha.from_token("+inf").is_inf
        assert Alpha.from_token("1").is_one
        assert Alpha.from_token("2.5").value == 2.5

    def test_bad_tokens(self):
        with pytest.raises(ParseError):
            Alpha.from_token("zzz")
        with pytest.raises(ParseError):
            Alpha.from_token("")

    def test_domain(self):
        with pytest.raises(DomainError):
            Alpha(0.0)
        with pytest.raises(DomainError):
            Alpha(-2.0)
        with pytest.raises(DomainError):
            Alpha(float("nan"))
        with pytest.raises(DomainError):
            Alpha(1e-320)  # sub-normal
        with pytest.raises(DomainError):
            alpha_loss(0.5, 1e-320)

    def test_str_forms(self):
        assert str(Alpha.one()) == "1"
        assert str(Alpha.infinity()) == "inf"
        assert str(Alpha(2.0)) == "2"
        assert str(Alpha(0.5)) == "0.5"
        assert str(Alpha(1e-06)) == "1e-06"
        assert str(Alpha(1e12)) == "1e+12"
        assert str(Alpha(100.0)) == "100"
        assert str(Alpha(0.123456789)) == "0.123456789"

    def test_str_reads_back_as_the_same_order(self):
        rng = np.random.default_rng(11)
        values = 10.0 ** rng.uniform(-300, 300, 2000)
        values = np.concatenate([values, np.nextafter(values, np.inf), [2.0000001, 1 / 3]])
        for value in values:
            a = Alpha(float(value))
            assert Alpha.from_token(str(a)) == a, value


# ---------------------------------------------------------------------------
# alpha_loss
# ---------------------------------------------------------------------------


class TestAlphaLoss:
    def test_certainty_costs_nothing(self):
        for alpha in (0.3, 0.5, 1.0, 2.0, 10.0, Alpha.infinity()):
            assert alpha_loss(1.0, alpha) == 0.0

    def test_order_one_is_log_loss(self):
        assert alpha_loss(0.5, 1) == pytest.approx(math.log(2.0), abs=1e-15)
        assert alpha_loss(0.25, 1) == pytest.approx(math.log(4.0), abs=1e-15)

    def test_order_inf_is_zero_one(self):
        assert alpha_loss(0.3, Alpha.infinity()) == pytest.approx(0.7, abs=1e-15)
        assert alpha_loss(0.0, Alpha.infinity()) == 1.0

    def test_order_two_closed_value(self):
        # 2 * (1 - sqrt(0.25)) = 1
        assert alpha_loss(0.25, 2) == pytest.approx(1.0, abs=1e-15)

    def test_zero_probability(self):
        assert alpha_loss(0.0, 0.5) == math.inf
        assert alpha_loss(0.0, 1) == math.inf
        assert alpha_loss(0.0, 2) == pytest.approx(2.0)
        assert alpha_loss(0.0, 5) == pytest.approx(1.25)

    def test_overflow_is_infinite(self):
        # 1 / beta * (1 - p ** beta) with beta = -1 and p = 1e-320
        assert alpha_loss(1e-320, 0.5) == math.inf

    def test_loss_within_float_range_is_finite(self):
        # p ** beta with beta = -49 overflows, but p ** beta / 49 does not
        with localcontext() as ctx:
            ctx.prec = 60
            beta = (Decimal(0.02) - 1) / Decimal(0.02)
            exact = (1 - (beta * Decimal(5e-7).ln()).exp()) / beta
        assert alpha_loss(5e-7, 0.02) == pytest.approx(float(exact), rel=1e-12)
        assert -49.0 * math.log(5e-7) > math.log(sys.float_info.max)  # t ** beta overflows

    def test_probability_above_one_is_domain_error(self):
        with pytest.raises(DomainError, match="outside"):
            alpha_loss(1.5, 2)

    @given(st.floats(min_value=1e-6, max_value=1.0))
    def test_continuous_through_order_one(self, p):
        base = alpha_loss(p, 1)
        assert alpha_loss(p, 1.0 + 1e-9) == pytest.approx(base, abs=1e-7)
        assert alpha_loss(p, 1.0 - 1e-9) == pytest.approx(base, abs=1e-7)

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.3, max_value=20.0),
    )
    def test_decreasing_in_probability(self, p, alpha):
        assert alpha_loss(p, alpha) >= alpha_loss(min(1.0, p + 0.01), alpha)


# ---------------------------------------------------------------------------
# Pmf / JointPmf
# ---------------------------------------------------------------------------


class TestPmf:
    def test_renormalizes_exactly(self):
        pmf = Pmf([0.3, 0.3, 0.4 + 5e-10])
        assert pmf.probs.sum() == 1.0

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidDistributionError):
            Pmf([0.5, 0.3, 0.1])

    def test_rejects_negative(self):
        with pytest.raises(InvalidDistributionError):
            Pmf([1.2, -0.2])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidDistributionError):
            Pmf([math.nan, 1.0])

    def test_rejects_entries_that_are_not_numbers(self):
        for probs in (["a"], {"a": 1}, [10**400, 1], [[0.5], [0.25, 0.25]]):
            with pytest.raises(InvalidDistributionError):
                Pmf(probs)
        with pytest.raises(InvalidDistributionError):
            JointPmf([[0.5], [0.25, 0.25]])
        with pytest.raises(InvalidDistributionError, match="labels must be a list"):
            Pmf([0.5, 0.5], labels=5)
        with pytest.raises(InvalidDistributionError, match=r"negative \(-0\.2\)"):
            Pmf([1.2, -0.2])

    def test_rejects_empty_and_matrix(self):
        with pytest.raises(InvalidDistributionError):
            Pmf([])
        with pytest.raises(InvalidDistributionError):
            Pmf([[0.5, 0.5]])

    def test_read_only(self):
        pmf = Pmf([0.5, 0.5])
        with pytest.raises(ValueError):
            pmf.probs[0] = 0.9

    def test_labels(self):
        pmf = Pmf([0.5, 0.5], labels=("a", "b"))
        assert pmf.labels == ("a", "b")
        with pytest.raises(InvalidDistributionError):
            Pmf([0.5, 0.5], labels=("a",))
        with pytest.raises(InvalidDistributionError):
            Pmf([0.5, 0.5], labels=("a", "a"))
        assert Pmf([0.5, 0.5], labels=(1, 2.5)).labels == ("1", "2.5")
        for bad in ([1], {"a": True}, True, None):
            with pytest.raises(InvalidDistributionError, match="label 0 must be a string or a number"):
                Pmf([0.5, 0.5], labels=(bad, "b"))
            with pytest.raises(InvalidDistributionError, match="label 1 must be a string or a number"):
                JointPmf([[0.5, 0.5]], y_labels=("a", bad))

    def test_constructors(self):
        assert Pmf.uniform(4).probs.tolist() == [0.25] * 4
        assert Pmf.point_mass(3, 1).probs.tolist() == [0.0, 1.0, 0.0]
        assert Pmf.uniform(4).support_size == 4
        assert Pmf.point_mass(3).support_size == 1
        with pytest.raises(DomainError):
            Pmf.point_mass(3, 5)


class TestJointPmf:
    def test_marginals(self):
        joint = JointPmf([[0.4, 0.1], [0.1, 0.4]])
        assert joint.marginal_x().probs.tolist() == [0.5, 0.5]
        assert joint.marginal_y().probs.tolist() == [0.5, 0.5]

    def test_product(self):
        joint = JointPmf.product(Pmf([0.3, 0.7]), Pmf([0.4, 0.6]))
        assert joint.probs[0, 0] == pytest.approx(0.12)
        assert joint.probs[1, 1] == pytest.approx(0.42)

    def test_diagonal(self):
        joint = JointPmf.diagonal(Pmf([0.2, 0.8]))
        assert joint.probs.tolist() == [[0.2, 0.0], [0.0, 0.8]]

    def test_rejects_vector(self):
        with pytest.raises(InvalidDistributionError):
            JointPmf([0.5, 0.5])

    def test_conditional_errors(self):
        joint = JointPmf([[0.5, 0.0], [0.5, 0.0]])
        with pytest.raises(DegenerateColumnError):
            conditional_pmf(joint, 1)
        with pytest.raises(DomainError):
            conditional_pmf(joint, 5)

    def test_conditional_values(self):
        joint = JointPmf([[0.4, 0.1], [0.1, 0.4]])
        assert conditional_pmf(joint, 0).probs.tolist() == [0.8, 0.2]


# ---------------------------------------------------------------------------
# tilted
# ---------------------------------------------------------------------------


class TestTilted:
    def test_order_one_identity(self):
        pmf = Pmf([0.7, 0.3])
        assert tilted(pmf, 1).probs.tolist() == [0.7, 0.3]

    def test_order_two(self):
        out = tilted(Pmf([0.7, 0.3]), 2)
        assert out.probs[0] == pytest.approx(0.49 / 0.58, abs=1e-15)
        assert out.probs[1] == pytest.approx(0.09 / 0.58, abs=1e-15)

    def test_order_inf_uniform_on_argmax(self):
        out = tilted(Pmf([0.4, 0.4, 0.2]), Alpha.infinity())
        assert out.probs.tolist() == [0.5, 0.5, 0.0]

    def test_zeros_stay_zero(self):
        out = tilted(Pmf([0.7, 0.0, 0.3]), 2)
        assert out.probs[1] == 0.0

    @given(probs_lists, st.floats(min_value=0.3, max_value=20))
    @settings(max_examples=50)
    def test_preserves_ordering(self, raw, alpha):
        pmf = Pmf(normalize(raw))
        out = tilted(pmf, alpha)
        order = np.argsort(-pmf.probs, kind="stable")
        assert np.all(np.diff(out.probs[order]) <= 1e-12)


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------


class TestEntropies:
    def test_renyi_uniform_is_log_n(self):
        for alpha in (0.5, 1, 2, 10, Alpha.infinity()):
            value = float(renyi_entropy(Pmf.uniform(8), alpha))
            assert value == pytest.approx(math.log(8), abs=1e-12)

    def test_renyi_order_two_frozen(self):
        value = float(renyi_entropy(Pmf([0.7, 0.2, 0.1]), 2))
        assert value == pytest.approx(0.6161861394238167, abs=1e-15)
        assert value == pytest.approx(-math.log(0.54), abs=1e-15)

    def test_renyi_order_one_is_shannon(self):
        pmf = Pmf([0.7, 0.2, 0.1])
        shannon = -sum(p * math.log(p) for p in pmf.probs)
        assert float(renyi_entropy(pmf, 1)) == pytest.approx(shannon, abs=1e-12)

    def test_renyi_order_inf_is_min_entropy(self):
        value = float(renyi_entropy(Pmf([0.7, 0.2, 0.1]), Alpha.infinity()))
        assert value == pytest.approx(-math.log(0.7), abs=1e-15)

    def test_entropy_bits(self):
        ent = renyi_entropy(Pmf.uniform(2), 2)
        assert ent.bits == pytest.approx(1.0, abs=1e-12)

    def test_entropy_clamps_noise(self):
        assert float(Entropy(-1e-13)) == 0.0
        with pytest.raises(KGuessError):
            Entropy(-1e-3)

    def test_nan_entropy_is_an_error(self):
        with pytest.raises(KGuessError, match="NaN"):
            Entropy(math.nan)

    @pytest.mark.parametrize("alpha", [0.5, 1, 2, Alpha.infinity()], ids=str)
    def test_point_mass_entropy_is_positive_zero(self, alpha):
        value = renyi_entropy(Pmf([1.0, 0.0]), alpha).value
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_negative_zero_reads_positive_zero(self):
        cov = CoverageVector([1.0, 0.0], 1)
        for value in (Entropy(-0.0).value, LossReport(-0.0, 1, cov, Alpha(2), 1.0).value):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_arimoto_frozen(self):
        value = float(arimoto_conditional_entropy(JointPmf([[0.4, 0.1], [0.1, 0.4]]), 2))
        assert value == pytest.approx(0.3856624808119846, abs=1e-15)

    def test_arimoto_domain(self):
        joint = JointPmf([[0.4, 0.1], [0.1, 0.4]])
        with pytest.raises(DomainError):
            arimoto_conditional_entropy(joint, 1)
        with pytest.raises(DomainError):
            arimoto_conditional_entropy(joint, Alpha.infinity())

    @given(probs_lists, probs_lists, st.floats(min_value=0.3, max_value=20))
    @settings(max_examples=50)
    def test_arimoto_of_product_is_marginal_renyi(self, raw_x, raw_y, alpha):
        if abs(alpha - 1.0) < 1e-6:
            alpha += 0.1
        px, py = Pmf(normalize(raw_x)), Pmf(normalize(raw_y))
        joint = JointPmf.product(px, py)
        conditional = float(arimoto_conditional_entropy(joint, alpha))
        marginal = float(renyi_entropy(px, alpha))
        assert conditional == pytest.approx(marginal, abs=1e-9)

    @given(
        st.lists(
            st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=5),
            min_size=2,
            max_size=5,
        ),
        st.floats(min_value=0.3, max_value=20),
    )
    @settings(max_examples=50)
    def test_conditioning_cannot_increase_entropy(self, raw, alpha):
        if abs(alpha - 1.0) < 1e-6:
            alpha += 0.1
        width = min(len(row) for row in raw)
        mat = np.array([row[:width] for row in raw])
        joint = JointPmf(mat / mat.sum())
        conditional = float(arimoto_conditional_entropy(joint, alpha))
        marginal = float(renyi_entropy(joint.marginal_x(), alpha))
        assert conditional <= marginal + 1e-9


# ---------------------------------------------------------------------------
# descending order
# ---------------------------------------------------------------------------


class TestDescending:
    """``_descending`` must equal the stable descending argsort exactly."""

    @pytest.mark.parametrize("n", [1, 2, 19, 1023, 1024, 1025, 5000])
    def test_matches_stable_argsort(self, n):
        rng = np.random.default_rng(n)
        cases = {
            "distinct": rng.random(n),
            "quarter grid": rng.integers(0, 5, size=n) / 4.0,
            "ones heavy": np.where(rng.random(n) < 0.3, 1.0, rng.random(n)),
            "all equal": np.ones(n),
            "signed zeros": np.where(rng.random(n) < 0.5, 0.0, -0.0),
            "tail ties": np.concatenate((rng.random(n - n // 2), np.full(n // 2, 0.125))),
        }
        for name, x in cases.items():
            want = np.argsort(-x, kind="stable")
            assert np.array_equal(_descending(x), want), name

    def test_few_levels_match_stable_argsort(self):
        rng = np.random.default_rng(12)
        levels = np.array([0.0, 0.1, 0.25, 0.5, 1.0])
        for _ in range(60):
            x = rng.choice(levels[: rng.integers(1, 6)], size=int(rng.integers(1024, 1500)))
            assert np.array_equal(_descending(x), np.argsort(-x, kind="stable"))
