"""Tests for multi-guess leakage and the robustness condition."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kguess.core import (
    Alpha,
    DomainError,
    JointPmf,
    Pmf,
    _joint_rows,
    as_alpha,
    as_joint,
    conditional_pmf,
    tilted,
)
from kguess.guessing import _solve_rows, minimal_loss, minimal_loss_conditional
from kguess.leakage import (
    alpha_leakage,
    max_expectation,
    robustness_condition,
)

pmf_raws = st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=8)
finite_orders = st.sampled_from([0.3, 0.5, 1.5, 2.0, 5.0, 20.0])

JOINT22 = JointPmf([[0.4, 0.1], [0.1, 0.4]])


def make_pmf(raw: list[float]) -> Pmf:
    arr = np.array(raw, dtype=float)
    return Pmf(arr / arr.sum())


def near_uniform_joint(rng: np.random.Generator, n_x: int, n_y: int) -> JointPmf:
    """Joint whose conditionals are all close to uniform."""
    cols = 1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=(n_x, n_y))
    cols /= cols.sum(axis=0)
    weights = rng.dirichlet(np.ones(n_y))
    return JointPmf(cols * weights)


# ---------------------------------------------------------------------------
# max_expectation
# ---------------------------------------------------------------------------


class TestMaxExpectation:
    def test_frozen_main_example(self):
        value = max_expectation(Pmf([0.7, 0.2, 0.1]), 2, 2)
        assert value == pytest.approx(0.9236067977499789, abs=1e-14)

    def test_single_guess_is_tilted_norm(self):
        # k = 1, order 2: the optimum attains sqrt(sum p^2)
        value = max_expectation(Pmf([0.8, 0.2]), 1, 2)
        assert value == pytest.approx(math.sqrt(0.68), abs=1e-14)

    def test_relation_to_minimal_loss(self):
        pmf = Pmf([0.4, 0.3, 0.2, 0.1])
        for alpha in (0.5, 2.0, 5.0):
            beta = (alpha - 1.0) / alpha
            expected = 1.0 - beta * minimal_loss(pmf, 2, alpha).value
            assert max_expectation(pmf, 2, alpha) == pytest.approx(expected, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            max_expectation(Pmf([0.5, 0.5]), 1, 1)
        with pytest.raises(DomainError):
            max_expectation(Pmf([0.5, 0.5]), 1, Alpha.infinity())

    def test_full_budget_attains_one(self):
        assert max_expectation(Pmf([0.5, 0.5]), 2, 2) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# alpha_leakage
# ---------------------------------------------------------------------------


class TestAlphaLeakage:
    def test_diagonal_uniform_is_log_n(self):
        joint = JointPmf.diagonal(Pmf.uniform(5))
        report = alpha_leakage(joint, 1, 2)
        assert report.value == pytest.approx(math.log(5.0), abs=1e-12)

    def test_frozen_joint22(self):
        report = alpha_leakage(JOINT22, 1, 2)
        assert report.value == pytest.approx(math.log(1.36), abs=1e-12)
        assert report.robust

    def test_full_budget_leaks_nothing(self):
        report = alpha_leakage(JOINT22, 2, 2)
        assert report.value == pytest.approx(0.0, abs=1e-12)

    def test_product_leaks_nothing(self):
        joint = JointPmf.product(Pmf([0.3, 0.7]), Pmf([0.4, 0.6]))
        report = alpha_leakage(joint, 1, 2)
        assert report.value == pytest.approx(0.0, abs=1e-12)

    def test_exponents_reconstruct_value(self):
        report = alpha_leakage(JOINT22, 1, 3)
        rebuilt = (
            3.0 / 2.0 * (report.numerator_exponent - report.denominator_exponent)
        )
        assert report.value == pytest.approx(rebuilt, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha_leakage(JOINT22, 1, 1)
        with pytest.raises(DomainError):
            alpha_leakage(JOINT22, 1, Alpha.infinity())
        with pytest.raises(DomainError):
            alpha_leakage(JOINT22, 0, 2)
        with pytest.raises(DomainError):
            alpha_leakage(JOINT22, True, 2)
        with pytest.raises(DomainError):
            robustness_condition(JOINT22, True, 2)

    def test_tiny_orders_are_finite(self):
        # Both best expectations overflow float64 below order ~1e-3; the
        # leakage itself is finite.  At k = 1 it is the norm ratio
        # (a / (a - 1)) ln(sum_y ||P(., y)||_a / ||P_X||_a), written here
        # with logs of the norms so that it stays finite too.
        P = np.array([[0.4, 0.1], [0.1, 0.4]])
        for alpha in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.5, 2.0, 5.0):
            log_norm = lambda col: np.logaddexp.reduce(alpha * np.log(col)) / alpha
            ratio = np.logaddexp(log_norm(P[:, 0]), log_norm(P[:, 1])) - log_norm(P.sum(axis=1))
            value = alpha_leakage(P, 1, alpha).value
            assert math.isfinite(value) and value > 0.0
            assert value == pytest.approx(alpha / (alpha - 1.0) * ratio, rel=1e-9)

    def test_exponents_match_linear_formula(self):
        # the log-domain exponents agree with ln of the linear best
        # expectations 1 - beta * loss wherever those are finite
        rng = np.random.default_rng(3)
        for case in range(60):
            m = int(rng.integers(2, 9))
            P = rng.dirichlet(np.full(m * m, 0.5)).reshape(m, m)
            if case % 4 == 0:
                P[:, -1] = 0.0  # a column of zero mass
            if case % 3 == 0:
                P[0, :] = 0.0  # a symbol that never occurs
            P /= P.sum()
            k, alpha = int(rng.integers(1, m)), float(rng.choice([0.3, 0.5, 2.0, 5.0]))
            report = alpha_leakage(P, k, alpha)
            rows, weights, _ = _joint_rows(as_joint(P))
            best = 1.0 - (alpha - 1.0) / alpha * _solve_rows(rows, k, as_alpha(alpha))[0]
            assert math.log(float(np.dot(weights, best[1:]))) == pytest.approx(
                report.numerator_exponent, abs=1e-12
            )
            assert math.log(float(best[0])) == pytest.approx(
                report.denominator_exponent, abs=1e-12
            )

    @given(pmf_raws, pmf_raws, finite_orders, st.integers(min_value=1, max_value=3))
    @settings(max_examples=60)
    def test_product_joints_leak_zero(self, raw_x, raw_y, alpha, k):
        px, py = make_pmf(raw_x), make_pmf(raw_y)
        joint = JointPmf.product(px, py)
        report = alpha_leakage(joint, k, alpha)
        assert report.value == pytest.approx(0.0, abs=1e-9)

    @given(
        st.lists(
            st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=6),
            min_size=2,
            max_size=6,
        ),
        finite_orders,
    )
    @settings(max_examples=60)
    def test_nonnegative(self, raw, alpha):
        width = min(len(row) for row in raw)
        mat = np.array([row[:width] for row in raw])
        joint = JointPmf(mat / mat.sum())
        assert alpha_leakage(joint, 1, alpha).value >= 0.0


# ---------------------------------------------------------------------------
# robustness_condition
# ---------------------------------------------------------------------------


class TestRobustnessCondition:
    def test_threshold_is_one_over_k(self):
        result = robustness_condition(JOINT22, 2, 2)
        assert result.threshold == pytest.approx(0.5)

    def test_joint22_not_robust_at_two(self):
        result = robustness_condition(JOINT22, 2, 2)
        assert not result.ok
        # tilted conditional (0.8, 0.2) at order 2 is (16/17, 1/17)
        assert result.max_entry == pytest.approx(16.0 / 17.0, abs=1e-12)
        assert result.location[0] == "conditional"

    def test_any_joint_robust_at_one(self):
        assert robustness_condition(JOINT22, 1, 2).ok

    def test_marginal_offender_located(self):
        joint = JointPmf.product(Pmf([0.9, 0.1]), Pmf([0.5, 0.5]))
        result = robustness_condition(joint, 2, 2)
        assert not result.ok
        assert result.location == ("marginal", 0)

    def test_conditional_offender_located(self):
        probs = np.array([[0.05, 0.45], [0.05, 0.05], [0.05, 0.05], [0.05, 0.25]])
        joint = JointPmf(probs)
        result = robustness_condition(joint, 2, 2)
        assert not result.ok
        part, *where = result.location
        # recompute the named entry and confirm it really exceeds 1/k
        if part == "marginal":
            pmf = joint.marginal_x()
            x = where[0]
        else:
            y, x = where
            col = joint.probs[:, y]
            pmf = Pmf(col / col.sum())
        from kguess.core import tilted

        assert tilted(pmf, 2).probs[x] > 0.5

    def test_order_one_allowed(self):
        result = robustness_condition(JOINT22, 2, 1)
        assert result.max_entry == pytest.approx(0.8)
        assert not result.ok

    def test_equal_leakage_when_robust(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            joint = near_uniform_joint(rng, 6, 3)
            for k in (2, 3):
                if not robustness_condition(joint, k, 2).ok:
                    continue
                single = alpha_leakage(joint, 1, 2).value
                multi = alpha_leakage(joint, k, 2).value
                assert multi == pytest.approx(single, abs=1e-9)

    def test_report_carries_robust_flag(self):
        rng = np.random.default_rng(6)
        joint = near_uniform_joint(rng, 6, 3)
        report = alpha_leakage(joint, 2, 2)
        assert report.robust == robustness_condition(joint, 2, 2).ok


# ---------------------------------------------------------------------------
# batched columns against the per-column public functions
# ---------------------------------------------------------------------------


def reference_leakage(joint: JointPmf, k: int, alpha: float) -> float:
    """alpha_leakage as a loop over conditional_pmf columns."""
    py = joint.probs.sum(axis=0)
    numerator = 0.0
    for y in range(joint.probs.shape[1]):
        if py[y] > 0.0:
            numerator += float(py[y]) * max_expectation(conditional_pmf(joint, y), k, alpha)
    denominator = max_expectation(joint.marginal_x(), k, alpha)
    return alpha / (alpha - 1.0) * (math.log(numerator) - math.log(denominator))


def reference_flatness(joint: JointPmf, alpha: float) -> tuple[float, tuple]:
    """Largest tilted entry and its location, marginal first, then columns."""
    marg = tilted(joint.marginal_x(), alpha).probs
    best, where = float(marg.max()), ("marginal", int(np.argmax(marg)))
    py = joint.probs.sum(axis=0)
    for y in range(joint.probs.shape[1]):
        if py[y] > 0.0:
            cond = tilted(conditional_pmf(joint, y), alpha).probs
            if float(cond.max()) > best:
                best, where = float(cond.max()), ("conditional", y, int(np.argmax(cond)))
    return best, where


def batch_test_joints() -> list[JointPmf]:
    rng = np.random.default_rng(17)
    joints = []
    for n_x, n_y in ((2, 2), (5, 3), (8, 8), (12, 20)):
        joints.append(JointPmf(rng.dirichlet(np.ones(n_x * n_y)).reshape(n_x, n_y)))
        near = np.outer(rng.dirichlet(np.ones(n_x)), rng.dirichlet(np.ones(n_y)))
        near *= 1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=near.shape)
        joints.append(JointPmf(near / near.sum()))
        zeros = rng.dirichlet(np.ones(n_x * n_y)).reshape(n_x, n_y)
        zeros[:, rng.choice(n_y, size=max(1, n_y // 3), replace=False)] = 0.0
        zeros[rng.integers(n_x), :] = 0.0
        joints.append(JointPmf(zeros / zeros.sum()))
    return joints


def test_batched_columns_match_per_column_reference():
    for joint in batch_test_joints():
        n_x = joint.shape[0]
        for alpha in (0.5, 2.0, 5.0):
            for k in sorted({1, 2, max(1, n_x - 1)}):
                report = alpha_leakage(joint, k, alpha)
                assert report.value == pytest.approx(
                    max(reference_leakage(joint, k, alpha), 0.0), abs=1e-12
                )
                best, where = reference_flatness(joint, alpha)
                for condition in (report.robustness, robustness_condition(joint, k, alpha)):
                    assert condition.location == where
                    assert condition.max_entry == pytest.approx(best, abs=1e-14)
                    assert condition.ok == (best <= 1.0 / k + 1e-12)
                assert report.robust == report.robustness.ok

                total, columns = minimal_loss_conditional(joint, k, alpha)
                py = joint.probs.sum(axis=0)
                expected_total = 0.0
                for y, column in enumerate(columns):
                    if py[y] <= 0.0:
                        assert column is None
                        continue
                    single = minimal_loss(conditional_pmf(joint, y), k, alpha)
                    expected_total += float(py[y]) * single.value
                    assert column.value == pytest.approx(single.value, rel=1e-12, abs=1e-15)
                    assert column.threshold_rank == single.threshold_rank
                    assert column.multiplier == pytest.approx(single.multiplier, rel=1e-12)
                    assert column.coverage.k == single.coverage.k
                    assert np.max(np.abs(column.coverage.t - single.coverage.t)) <= 1e-12
                assert total == pytest.approx(expected_total, rel=1e-12, abs=1e-15)
