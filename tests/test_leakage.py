"""Tests for multi-guess leakage and the robustness condition."""

from __future__ import annotations

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kguess.core import (
    Alpha,
    DomainError,
    JointPmf,
    Pmf,
    arimoto_conditional_entropy,
    as_alpha,
    as_joint,
    conditional_pmf,
    renyi_entropy,
    tilted,
)
from kguess.guessing import (
    _SCRATCH,
    _SCRATCH_BYTES,
    _on_joint,
    _solve_rows,
    minimal_loss,
    minimal_loss_conditional,
)
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

    def test_full_budget_is_exactly_zero(self):
        # Every row guesses all of its atoms: expectation one, ln 1 = 0, exactly.
        P = np.random.default_rng(8).dirichlet(np.ones(16)).reshape(4, 4)
        for k in (4, 5):
            for alpha in (0.5, 2.0):
                report = alpha_leakage(P, k, alpha)
                assert report.numerator_exponent == 0.0
                assert report.denominator_exponent == 0.0
                assert report.value == 0.0 and math.copysign(1.0, report.value) == 1.0

    def test_budget_beyond_machine_integers(self):
        for k in (2**63, 10**20):
            report = alpha_leakage(JOINT22, k, 2)
            assert report.value == 0.0 and report.k == k
            assert report.robustness.threshold == 1.0 / k

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

    def test_single_guess_is_arimoto_mutual_information(self):
        # At k = 1 the leakage is Arimoto's mutual information of order a:
        # the Renyi entropy of X less the Arimoto conditional entropy.  Both
        # sides scale ln sums by a / (a - 1), which costs digits near order
        # one, so the orders stay at least 0.1 away from it.
        rng = np.random.default_rng(2108)
        for trial in range(60):
            n_x, n_y = rng.integers(2, 12, size=2)
            P = rng.dirichlet(np.full(n_x * n_y, 0.6)).reshape(n_x, n_y)
            if trial % 3 == 0:
                P[:, rng.integers(n_y)] = 0.0  # a column of zero mass
            joint = JointPmf(P / P.sum())
            for alpha in (1e-3, 0.01, 0.1, 0.5, 0.9, 1.1, 2.0, 10.0, 100.0, 1e3):
                identity = (renyi_entropy(joint.marginal_x(), alpha).value
                            - arimoto_conditional_entropy(joint, alpha).value)
                assert abs(alpha_leakage(joint, 1, alpha).value - identity) <= 1e-12

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
            solved, weights, _ = _on_joint(_solve_rows, as_joint(P), k, as_alpha(alpha))
            best = 1.0 - (alpha - 1.0) / alpha * solved[0]
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

    @pytest.mark.parametrize("k", [1, 2])
    def test_truth_value_is_the_verdict(self, k):
        result = robustness_condition(JOINT22, k, 2)
        assert bool(result) is result.ok

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


def reference_log_leakage(joint: JointPmf, k: int, alpha: float) -> float:
    """reference_leakage with each best expectation ln sum(p * t ** beta) taken
    in the log domain from minimal_loss's coverage, so that it stays finite at
    tiny orders, where the expectations overflow float64."""
    beta = (alpha - 1.0) / alpha

    def log_best(pmf: Pmf) -> float:
        p, t = pmf.probs, minimal_loss(pmf, k, alpha).coverage.t
        with np.errstate(divide="ignore"):
            return float(np.logaddexp.reduce(np.log(p[p > 0.0]) + beta * np.log(t[p > 0.0])))

    py = joint.probs.sum(axis=0)
    columns = [math.log(py[y]) + log_best(conditional_pmf(joint, y))
               for y in range(joint.shape[1]) if py[y] > 0.0]
    return (np.logaddexp.reduce(columns) - log_best(joint.marginal_x())) / beta


def test_tied_partitioned_joints_match_per_column_reference():
    # Integer-valued joints above the partition cut-off: many rows tie at the
    # k-th atom, so the kernel sorts some rows whole and partitions the rest.
    rng = np.random.default_rng(29)
    for n_x, n_y, ks in ((64, 64, (1, 2, 7, 63, 64)), (201, 200, (1, 2, 7))):
        counts = rng.integers(1, 60, size=(n_x, n_y)).astype(float)
        joint = JointPmf(counts / counts.sum())
        for alpha in (1e-6, 0.5, 2.0, 20.0, 1e12):
            best, where = reference_flatness(joint, alpha)
            for k in ks:
                report = alpha_leakage(joint, k, alpha)
                assert report.value == pytest.approx(
                    max(reference_log_leakage(joint, k, alpha), 0.0), abs=1e-12
                )
                assert report.robustness == robustness_condition(joint, k, alpha)
                assert report.robustness.location == where
                assert report.robustness.max_entry == pytest.approx(best, abs=1e-14)


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
    # 65 rows of 64: the kernel partitions them, the per-column reference sorts
    joints.append(JointPmf(rng.dirichlet(np.ones(64 * 64)).reshape(64, 64)))
    # 201 rows of 200, the sweep's largest joints, which run in the scratch
    # buffers: random, near-product, and one with a column of zero mass
    joints.extend(joints_200(rng))
    return joints


def joints_200(rng: np.random.Generator) -> list[JointPmf]:
    random = rng.dirichlet(np.ones(200 * 200)).reshape(200, 200)
    near = np.outer(rng.dirichlet(np.ones(200)), rng.dirichlet(np.ones(200)))
    near *= 1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=near.shape)
    zero = rng.dirichlet(np.ones(200 * 200)).reshape(200, 200)
    zero[:, rng.integers(200)] = 0.0
    return [JointPmf(P / P.sum()) for P in (random, near, zero)]


def check_columns_against_reference(joint: JointPmf, k: int, alpha: float) -> list:
    """minimal_loss_conditional against minimal_loss on each conditional_pmf;
    returns its column reports."""
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
    return columns


def test_batched_columns_match_per_column_reference():
    for joint in batch_test_joints():
        n_x = joint.shape[0]
        for alpha in (0.5, 2.0, 5.0, math.inf):
            for k in sorted({1, 2, max(1, n_x - 1)}):
                check_columns_against_reference(joint, k, alpha)
                if math.isinf(alpha):
                    continue  # alpha_leakage is defined for finite orders only
                report = alpha_leakage(joint, k, alpha)
                assert report.value == pytest.approx(
                    max(reference_leakage(joint, k, alpha), 0.0), abs=1e-12
                )
                best, where = reference_flatness(joint, alpha)
                assert report.robustness == robustness_condition(joint, k, alpha)
                for condition in (report.robustness, robustness_condition(joint, k, alpha)):
                    assert condition.location == where
                    assert condition.max_entry == pytest.approx(best, abs=1e-14)
                    assert condition.ok == (best <= 1.0 / k + 1e-12)
                assert report.robust == report.robustness.ok


def test_data_processing_inequality():
    # Z drawn from Y through a channel W is something an adversary who sees Y
    # can simulate, so L(X; Z) <= L(X; Y).  The largest excess seen on 6070
    # seeded cases at orders 0.3 to 50 was 1.3e-16, rounding in values of
    # order one; the tolerance allows about eight times that.
    rng = np.random.default_rng(4096)
    shapes = [tuple(int(v) for v in rng.integers(2, 9, size=3)) for _ in range(30)]
    for n_x, n_y, n_z in shapes + [(200, 200, 150)]:  # the last runs in the scratch buffers
        P = rng.dirichlet(np.full(n_x * n_y, 0.5)).reshape(n_x, n_y)
        W = rng.dirichlet(np.full(n_z, 0.5), size=n_y)
        Q = P @ W
        for alpha in (0.3, 0.5, 0.9, 1.1, 2.0, 5.0, 20.0, 50.0):
            for k in (1, 2, 3):
                observed = alpha_leakage(P, k, alpha).value
                assert alpha_leakage(Q / Q.sum(), k, alpha).value <= observed + 1e-15


# ---------------------------------------------------------------------------
# the joint path's per-thread scratch buffers
# ---------------------------------------------------------------------------


def leakage_results(joint, k: int, alpha: float) -> tuple:
    """Every value alpha_leakage and minimal_loss_conditional give, as bytes
    and exact floats, so that equal tuples mean bit-identical results."""
    report = alpha_leakage(joint, k, alpha)
    total, columns = minimal_loss_conditional(joint, k, alpha)
    return (
        report.value.hex(), report.numerator_exponent.hex(), report.denominator_exponent.hex(),
        report.robustness, total.hex(),
        [None if c is None else (c.value.hex(), c.threshold_rank, c.multiplier.hex(),
                                 c.coverage.t.tobytes()) for c in columns],
    )


def test_results_survive_later_calls():
    rng = np.random.default_rng(41)
    first, second = joints_200(rng)[:2]
    report = alpha_leakage(first, 2, 2.0)
    _, columns = minimal_loss_conditional(first, 2, 2.0)
    kept = leakage_results(first, 2, 2.0)
    fields = (report.value, report.numerator_exponent, report.robustness)
    coverages = [c.coverage.t.copy() for c in columns]
    small = JointPmf(rng.dirichlet(np.ones(12)).reshape(3, 4))
    for joint in (second, small, first, JointPmf(rng.dirichlet(np.ones(300 * 7)).reshape(300, 7))):
        for alpha in (0.5, 5.0):
            alpha_leakage(joint, 4, alpha)
            minimal_loss_conditional(joint, 1, alpha)
            robustness_condition(joint, 3, alpha)
    assert (report.value, report.numerator_exponent, report.robustness) == fields
    for column, coverage in zip(columns, coverages):
        assert np.array_equal(column.coverage.t, coverage)
    assert leakage_results(first, 2, 2.0) == kept


def test_no_result_shares_the_scratch():
    joint = joints_200(np.random.default_rng(43))[2]  # a column of zero mass
    for k, alpha in ((1, 0.5), (2, 2.0), (199, 5.0), (200, math.inf)):
        _, columns = minimal_loss_conditional(joint, k, alpha)
        buffers = _SCRATCH.idle._flat
        assert min(b.size for b in buffers) >= 200 * 200  # the call ran in them
        for column in columns:
            if column is not None:
                assert not any(np.shares_memory(column.coverage.t, b) for b in buffers)


def test_a_joint_past_the_cap_runs_outside_the_scratch():
    # 731 rows of 730 take 4.27 MB, past the 4 MiB a buffer keeps: each call
    # allocates its own arrays and leaves the thread's buffers as they were.
    alpha_leakage(joints_200(np.random.default_rng(67))[0], 2, 2.0)
    kept = list(_SCRATCH.idle._flat)
    rng = np.random.default_rng(71)
    P = rng.dirichlet(np.ones(730 * 730)).reshape(730, 730)
    P[:, rng.integers(730)] = 0.0  # a column of zero mass
    joint = JointPmf(P / P.sum())
    assert alpha_leakage(joint, 3, 2.0).value == pytest.approx(
        reference_leakage(joint, 3, 2.0), abs=1e-12
    )
    columns = check_columns_against_reference(joint, 3, 2.0)
    buffers = _SCRATCH.idle._flat
    assert all(b is a for b, a in zip(buffers, kept))
    assert max(b.size for b in buffers) <= _SCRATCH_BYTES // 8
    for column in columns:
        if column is not None:
            assert not any(np.shares_memory(column.coverage.t, b) for b in buffers)


def test_threads_match_a_sequential_run():
    joints = joints_200(np.random.default_rng(47))[:2]
    cases = [(k, alpha) for k in (1, 2, 4) for alpha in (0.5, 5.0)]
    expected = [[leakage_results(joint, k, alpha) for k, alpha in cases] for joint in joints]
    got: list[list] = [[], []]

    def run(i: int) -> None:
        for k, alpha in cases:
            got[i].append(leakage_results(joints[i], k, alpha))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected


def test_a_call_nested_in_another_gets_its_own_buffers():
    # A profiler or a debugger's prompt can run a leakage call on the thread
    # of one that is inside the kernel; neither may see the other's buffers.
    outer, inner = joints_200(np.random.default_rng(59))[:2]
    expected = leakage_results(outer, 2, 2.0), leakage_results(inner, 4, 0.5)
    nested: list = []

    def hook(frame, event, arg) -> None:
        if event == "c_call" and frame.f_code.co_name == "_rank_stage" and not nested:
            nested.append(leakage_results(inner, 4, 0.5))

    sys.setprofile(hook)
    try:
        got = leakage_results(outer, 2, 2.0)
    finally:
        sys.setprofile(None)
    assert nested and (got, nested[0]) == expected


def test_repeated_call_allocates_little():
    # Traced numpy memory, so it does not depend on the C allocator: the input
    # copy that validation makes is one joint size, and the row matrix and the
    # work array come from the scratch.  Allocated per call, they and their
    # temporaries peaked at 4.29 joint sizes.
    P = joints_200(np.random.default_rng(53))[0].probs.copy()
    alpha_leakage(P, 2, 2.0)
    tracemalloc.start()
    try:
        alpha_leakage(P, 2, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * P.nbytes
