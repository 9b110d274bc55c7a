"""End-to-end tests of the command line interface.

Every test drives ``kguess.cli.main`` in process with an argv list and
reads stdout/stderr through capsys, so the suite needs no subprocesses.
"""

from __future__ import annotations

import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kguess.cli
from kguess.cli import main
from kguess.core import ConvergenceError, ParseError
from kguess.guessing import minimal_loss

LN2 = math.log(2.0)


@pytest.fixture
def files(tmp_path):
    def write(name: str, obj) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return {
        "main": write("main.json", {"kind": "pmf", "probs": [0.7, 0.2, 0.1]}),
        "labeled": write(
            "labeled.json",
            {"kind": "pmf", "probs": [0.7, 0.2, 0.1], "labels": ["a", "b", "c"]},
        ),
        "reversed": write("rev.json", {"kind": "pmf", "probs": [0.1, 0.2, 0.7]}),
        "uniform4": write("u4.json", {"kind": "pmf", "probs": [0.25] * 4}),
        "uniform8": write("u8.json", {"kind": "pmf", "probs": [0.125] * 8}),
        "joint": write("joint.json", {"kind": "joint", "probs": [[0.4, 0.1], [0.1, 0.4]]}),
        "product": write(
            "product.json", {"kind": "joint", "probs": [[0.12, 0.28], [0.18, 0.42]]}
        ),
        "dir": str(tmp_path),
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out: str) -> dict:
    return json.loads(out)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


class TestLoss:
    def test_main_example(self, capsys, files):
        code, out, _ = run(capsys, ["loss", files["main"], "-k", "2", "--alpha", "2"])
        assert code == 0
        doc = payload(out)
        assert doc["command"] == "loss"
        assert doc["alpha"] == "2"
        assert doc["k"] == 2
        assert doc["input"]["kind"] == "pmf"
        assert doc["input"]["n"] == 3
        assert doc["input"]["digest"].startswith("sha256:")
        outs = doc["outputs"]
        assert outs["value"] == pytest.approx(0.1527864045, abs=1e-10)
        assert outs["threshold_rank"] == 2
        assert outs["multiplier"] == pytest.approx(math.sqrt(0.05), abs=1e-10)
        assert outs["coverage"] == pytest.approx([1.0, 0.8, 0.2], abs=1e-10)
        assert outs["guesses_spent"] == 2

    def test_weighted_loss_within_float_range_prints_a_finite_value(self, capsys, tmp_path):
        # the tiny atom's loss overflows on the way; its mass times it does not
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"kind": "pmf", "probs": [0.5, 0.5, 1e-300]}))
        for command, field in (("loss", "value"), ("strategy", "strategy_value")):
            code, out, err = run(capsys, [command, str(path), "-k", "1", "--alpha", "0.02"])
            assert code == 0 and err == ""
            assert payload(out)["outputs"][field] == pytest.approx(1.1489065792033e13, rel=1e-11)

    def test_round_trip_is_byte_stable(self, capsys, files):
        argv = ["loss", files["main"], "-k", "2", "--alpha", "2"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_out_file_matches_stdout(self, capsys, files, tmp_path):
        argv = ["loss", files["main"], "-k", "2", "--alpha", "2"]
        _, stdout_text, _ = run(capsys, argv)
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, argv + ["--out", str(target)])
        assert code == 0 and out == ""
        assert target.read_text() == stdout_text

    def test_stdin_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"kind": "pmf", "probs": [0.7, 0.2, 0.1]}')
        )
        code, out, _ = run(capsys, ["loss", "-", "-k", "2", "--alpha", "2"])
        assert code == 0
        assert payload(out)["outputs"]["value"] == pytest.approx(0.1527864045, abs=1e-10)

    def test_permuted_input_permutes_coverage_only(self, capsys, files):
        _, fwd, _ = run(capsys, ["loss", files["main"], "-k", "2", "--alpha", "2"])
        _, rev, _ = run(capsys, ["loss", files["reversed"], "-k", "2", "--alpha", "2"])
        a, b = payload(fwd)["outputs"], payload(rev)["outputs"]
        assert a["value"] == b["value"]
        assert a["coverage"] == b["coverage"][::-1]

    def test_joint_input_reports_per_column(self, capsys, files):
        code, out, _ = run(capsys, ["loss", files["joint"], "-k", "1", "--alpha", "2"])
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["value"] == pytest.approx(2.0 * (1.0 - math.sqrt(0.68)), abs=1e-10)
        assert len(outs["columns"]) == 2
        assert outs["columns"][0]["weight"] == pytest.approx(0.5, abs=1e-12)

    def test_joint_at_infinite_order_covers_each_columns_top_k(self, capsys, tmp_path):
        path = tmp_path / "j.json"
        probs = [[0.2, 0.1], [0.1, 0.2], [0.15, 0.05], [0.05, 0.15]]
        path.write_text(json.dumps({"kind": "joint", "probs": probs}))
        code, out, _ = run(capsys, ["loss", str(path), "-k", "2", "--alpha", "inf"])
        assert code == 0
        columns = payload(out)["outputs"]["columns"]
        assert [c["coverage"] for c in columns] == [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]
        assert [c["guesses_spent"] for c in columns] == [2, 2]

    def test_bits_at_order_one(self, capsys, files):
        code, out, _ = run(
            capsys, ["loss", files["uniform4"], "-k", "2", "--alpha", "1", "--bits"]
        )
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["value"] == pytest.approx(1.0, abs=1e-12)
        assert outs["unit"] == "bits"

    def test_bits_rejected_off_order_one(self, capsys, files):
        code, _, err = run(
            capsys, ["loss", files["uniform4"], "-k", "2", "--alpha", "2", "--bits"]
        )
        assert code == 2
        assert "order 1" in err

    def test_infinite_order_token(self, capsys, files):
        code, out, _ = run(capsys, ["loss", files["main"], "-k", "2", "--alpha", "inf"])
        assert code == 0
        doc = payload(out)
        assert doc["alpha"] == "inf"
        assert doc["outputs"]["value"] == pytest.approx(0.1, abs=1e-12)


# ---------------------------------------------------------------------------
# strategy
# ---------------------------------------------------------------------------


class TestStrategy:
    def test_main_example_mixture(self, capsys, files):
        code, out, _ = run(capsys, ["strategy", files["main"], "-k", "2", "--alpha", "2"])
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["effective_k"] == 2
        pairs = {
            tuple(s): w
            for s, w in zip(outs["mixture"]["subsets"], outs["mixture"]["weights"])
        }
        assert pairs[(0, 1)] == pytest.approx(0.8, abs=1e-9)
        assert pairs[(0, 2)] == pytest.approx(0.2, abs=1e-9)
        assert outs["strategy_value"] == pytest.approx(outs["value"], abs=1e-9)

    def test_labels_echoed_in_subsets(self, capsys, files):
        code, out, _ = run(
            capsys, ["strategy", files["labeled"], "-k", "2", "--alpha", "2"]
        )
        assert code == 0
        subsets = payload(out)["outputs"]["mixture"]["subsets"]
        assert [set(s) for s in subsets] == [{"a", "b"}, {"a", "c"}]

    def test_seed_draws_deterministic_sample(self, capsys, files):
        argv = ["strategy", files["main"], "-k", "2", "--alpha", "2", "--seed", "11"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        a, b = payload(first)["outputs"], payload(second)["outputs"]
        assert a["sample"] == b["sample"]
        assert a["seed"] == 11
        assert tuple(a["sample"]) in {(0, 1), (0, 2)}

    def test_no_seed_no_sample_field(self, capsys, files):
        _, out, _ = run(capsys, ["strategy", files["main"], "-k", "2", "--alpha", "2"])
        outs = payload(out)["outputs"]
        assert "sample" not in outs and "seed" not in outs

    def test_joint_rejected(self, capsys, files):
        code, _, err = run(capsys, ["strategy", files["joint"], "-k", "1", "--alpha", "2"])
        assert code == 2
        assert '"pmf"' in err

    def test_tiny_order_prints_an_infinite_value_without_warnings(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"kind": "pmf", "probs": [0.5, 0.3, 0.2]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["strategy", str(path), "-k", "1", "--alpha", "0.001"])
        assert code == 0 and err == ""
        assert '"strategy_value": "inf"' in out

    def test_negative_seed_is_input_error(self, capsys, files):
        argv = ["strategy", files["main"], "-k", "2", "--alpha", "2", "--seed", "-1"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "seed must be nonnegative" in err

    def test_seed_that_is_not_an_integer_is_a_usage_error(self, capsys, files):
        argv = ["strategy", files["main"], "-k", "2", "--alpha", "2", "--seed", "x"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: kguess strategy")
        assert "argument --seed: invalid int value: 'x'" in err

    def test_sample_is_printed_as_labels(self, capsys, tmp_path):
        path = tmp_path / "abc.json"
        path.write_text(json.dumps({"kind": "pmf", "probs": [0.5, 0.3, 0.2],
                                    "labels": ["a", "b", "c"]}))
        argv = ["strategy", str(path), "-k", "2", "--alpha", "2", "--seed", "3"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert payload(out)["outputs"]["sample"] == ["a", "b"]


# ---------------------------------------------------------------------------
# leakage
# ---------------------------------------------------------------------------


class TestLeakage:
    def test_diagonal_block_example(self, capsys, files):
        code, out, _ = run(capsys, ["leakage", files["joint"], "-k", "1", "--alpha", "2"])
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["value"] == pytest.approx(math.log(1.36), abs=1e-10)
        assert outs["robust"] is True
        assert outs["offender"] is None
        assert outs["unit"] == "nats"

    def test_bits_flag_scales_value(self, capsys, files):
        _, nats, _ = run(capsys, ["leakage", files["joint"], "-k", "1", "--alpha", "2"])
        _, bits, _ = run(
            capsys, ["leakage", files["joint"], "-k", "1", "--alpha", "2", "--bits"]
        )
        n, b = payload(nats)["outputs"], payload(bits)["outputs"]
        assert b["unit"] == "bits"
        assert b["value"] == pytest.approx(n["value"] / LN2, rel=1e-9)

    def test_product_leaks_nothing(self, capsys, files):
        code, out, _ = run(capsys, ["leakage", files["product"], "-k", "1", "--alpha", "3"])
        assert code == 0
        assert payload(out)["outputs"]["value"] == pytest.approx(0.0, abs=1e-9)

    def test_offender_reported_when_not_robust(self, capsys, files):
        code, out, _ = run(capsys, ["leakage", files["joint"], "-k", "2", "--alpha", "2"])
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["robust"] is False
        offender = outs["offender"]
        assert offender["part"] == "conditional"
        assert outs["max_tilted_entry"] > outs["tilted_threshold"]

    def test_tiny_order_answers(self, capsys, files):
        code, out, _ = run(capsys, ["leakage", files["joint"], "-k", "1", "--alpha", "1e-6"])
        assert code == 0
        assert 0.0 < payload(out)["outputs"]["value"] < 1e-6

    def test_order_one_is_domain_error(self, capsys, files):
        code, _, err = run(capsys, ["leakage", files["joint"], "-k", "1", "--alpha", "1"])
        assert code == 3
        assert "order" in err

    def test_pmf_rejected(self, capsys, files):
        code, _, err = run(capsys, ["leakage", files["main"], "-k", "1", "--alpha", "2"])
        assert code == 2
        assert '"joint"' in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class TestSweep:
    def test_pmf_rows_and_headers(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["sweep", files["main"], "--k-range", "1:2", "--alphas", "1,2,inf"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# kguess sweep")
        assert "kind=pmf" in lines[1]
        assert lines[2] == "# columns: k,alpha,value,threshold_rank,robust"
        rows = [line.split(",") for line in lines[3:] if line]
        assert len(rows) == 6
        by_key = {(r[0], r[1]): r for r in rows}
        assert float(by_key[("2", "2")][2]) == pytest.approx(0.1527864045, abs=1e-9)
        assert by_key[("2", "2")][3] == "2"
        assert by_key[("2", "inf")][2] == "0.1"
        assert all(r[4] == "" for r in rows)

    def test_joint_rows_carry_robust_flag(self, capsys, files):
        code, out, _ = run(
            capsys, ["sweep", files["joint"], "--k-range", "1,2", "--alphas", "2"]
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
        assert rows[0][4] == "true" and rows[1][4] == "false"
        assert rows[0][3] == "" and rows[1][3] == ""
        assert float(rows[0][2]) == pytest.approx(math.log(1.36), abs=1e-9)

    def test_close_orders_get_distinct_labels(self, capsys, files):
        argv = ["sweep", files["main"], "--k-range", "1", "--alphas", "2,2.0000001"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
        assert [row[1] for row in rows] == ["2", "2.0000001"]

    def test_values_continuous_through_order_one(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["sweep", files["main"], "--k-range", "2:2", "--alphas", "0.9999,1,1.0001"],
        )
        assert code == 0
        values = [
            float(line.split(",")[2])
            for line in out.splitlines()
            if not line.startswith("#")
        ]
        assert len(values) == 3
        assert abs(values[1] - values[0]) < 1e-4
        assert abs(values[2] - values[1]) < 1e-4

    def test_comma_k_list(self, capsys, files):
        code, out, _ = run(
            capsys, ["sweep", files["uniform8"], "--k-range", "1,3,5", "--alphas", "2"]
        )
        assert code == 0
        ks = [line.split(",")[0] for line in out.splitlines() if not line.startswith("#")]
        assert ks == ["1", "3", "5"]

    def test_bad_k_range(self, capsys, files):
        code, _, err = run(
            capsys, ["sweep", files["main"], "--k-range", "2:x", "--alphas", "2"]
        )
        assert code == 2

    def test_empty_alpha_grid(self, capsys, files):
        code, _, _ = run(
            capsys, ["sweep", files["main"], "--k-range", "1:2", "--alphas", ","]
        )
        assert code == 2

    def test_out_file_matches_stdout(self, capsys, files, tmp_path):
        for name, alphas in (("main", "1,2,inf"), ("joint", "0.5,2")):
            argv = ["sweep", files[name], "--k-range", "1:2", "--alphas", alphas]
            _, stdout_text, _ = run(capsys, argv)
            target = tmp_path / f"{name}.csv"
            code, out, _ = run(capsys, argv + ["--out", str(target)])
            assert code == 0 and out == ""
            assert target.read_bytes() == stdout_text.encode("utf-8")

    def test_budget_range_beyond_machine_integers_is_input_error(self, capsys, files):
        argv = ["sweep", files["main"], "--k-range", "1:9223372036854775808", "--alphas", "2"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "input error" in err and "1000000" in err

    def test_budget_range_holds_at_most_one_million(self):
        assert len(kguess.cli._parse_k_range("9:1000008")) == 10**6
        with pytest.raises(ParseError, match="1000000"):
            kguess.cli._parse_k_range("1:1000001")

    def test_joint_grid_with_order_one_rejected_upfront(self, capsys, files):
        code, _, err = run(
            capsys, ["sweep", files["joint"], "--k-range", "1:1", "--alphas", "1,2"]
        )
        assert code == 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestVerify:
    def test_main_example_agrees(self, capsys, files):
        code, out, _ = run(capsys, ["verify", files["main"], "-k", "2", "--alpha", "2"])
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["oracle_skipped"] is False
        assert outs["checks_agree"] is True
        assert outs["admissible"] is True
        assert outs["lp_feasible"] is True
        assert outs["abs_diff"] < 1e-8
        assert outs["max_coverage_deviation"] < 1e-4

    def test_small_order_converges(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["verify", files["uniform8"], "-k", "3", "--alpha", "0.5", "--tol", "1e-10"],
        )
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["oracle_gap"] <= 1e-6
        assert outs["checks_agree"] is True

    def test_oracle_refuses_a_point_off_the_budget(self, capsys, tmp_path):
        # the oracle's iterate floor, 1e-5 at this order, lies above the tiny
        # atom's optimal coverage: no certificate, no warning, no NaN
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"kind": "pmf", "probs": [0.5, 0.5, 1e-300]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["verify", str(path), "-k", "1", "--alpha", "0.02"])
        assert not caught
        assert code in (3, 4) and out == ""
        assert "too small for a float64 descent oracle" in err
        assert "nan" not in err and "Warning" not in err

    def test_degenerate_budget_skips_oracle(self, capsys, files):
        code, out, _ = run(capsys, ["verify", files["main"], "-k", "3", "--alpha", "2"])
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["oracle_skipped"] is True
        assert outs["closed_value"] == 0.0
        assert "reason" in outs

    def test_optimal_coverages_pass_the_exact_lp(self, capsys, tmp_path):
        # The first pmf's optimal coverage loses its total when each entry is
        # rounded to the 1e-9 grid on its own; the LP must still accept it.
        rng = np.random.default_rng(0)
        rng.dirichlet(np.ones(10))
        cases = [(rng.dirichlet(np.ones(10)), 3, "2")]
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(3, 11))
            alpha = str(rng.choice(["0.5", "2", "5"]))
            cases.append((rng.dirichlet(np.ones(n)), int(rng.integers(1, n)), alpha))
        drifted = 0
        for i, (p, k, alpha) in enumerate(cases):
            path = tmp_path / f"pmf-{i}.json"
            path.write_text(json.dumps({"kind": "pmf", "probs": p.tolist()}))
            code, out, _ = run(capsys, ["verify", str(path), "-k", str(k), "--alpha", alpha])
            assert code == 0
            outs = payload(out)["outputs"]
            assert outs["admissible"] is True
            assert outs["lp_feasible"] is True
            assert outs["checks_agree"] is True
            t = minimal_loss(p, k, float(alpha)).coverage.t
            drifted += sum(round(v * 1e9) for v in t) != k * 10**9
        # the inputs do exercise the rounding fault
        assert drifted >= 1

    def test_near_zero_atom_below_order_one_writes_no_warning(self, capsys, tmp_path):
        # The oracle's curvature overflows to inf at iterates near its floor.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"kind": "pmf", "probs": [0.2778, 1e-300, 0.5556, 0.1666]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["verify", str(path), "-k", "1", "--alpha", "0.5"])
        assert code == 0 and payload(out)["outputs"]["checks_agree"] is True
        assert err == "" and [str(w.message) for w in caught] == []

    def test_tiny_atom_just_below_order_one_is_certified(self, capsys, tmp_path):
        # the tiny atom's coordinate sinks to the iterate floor, which must not
        # be so low that its gradient rejects every step
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"kind": "pmf", "probs": [0.5, 0.3, 0.2, 1e-20]}))
        code, out, _ = run(capsys, ["verify", str(path), "-k", "1", "--alpha", "0.999"])
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["oracle_value"] == outs["closed_value"]
        assert outs["oracle_gap"] <= 1e-9 and outs["checks_agree"] is True

    @pytest.mark.parametrize("n", [20, 21])
    def test_lp_is_skipped_above_its_size_limit(self, capsys, tmp_path, n):
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps({"kind": "pmf", "probs": [1.0 / n] * n}))
        code, out, _ = run(capsys, ["verify", str(path), "-k", "3", "--alpha", "2"])
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["admissible"] is True and outs["oracle_skipped"] is False
        if n <= 20:
            assert outs["lp_feasible"] is True and outs["checks_agree"] is True
            assert "lp_skipped" not in outs
        else:
            assert outs["lp_feasible"] is None and outs["checks_agree"] is None
            assert outs["lp_skipped"] == "exact feasibility limited to n <= 20, got 21"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, files, tol):
        argv = ["verify", files["main"], "-k", "2", "--alpha", "2", "--tol", tol]
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert "tolerance" in err

    def test_convergence_failure_exit_code(self, capsys, files, monkeypatch):
        def explode(*args, **kwargs):
            raise ConvergenceError("no certificate below tol after 0 iterations")

        monkeypatch.setattr(kguess.cli, "minimize_expected_loss", explode)
        code, _, err = run(capsys, ["verify", files["main"], "-k", "2", "--alpha", "2"])
        assert code == 4
        assert "did not converge" in err


# ---------------------------------------------------------------------------
# check-admissible
# ---------------------------------------------------------------------------


class TestCheckAdmissible:
    def test_feasible_vector(self, capsys):
        code, out, _ = run(
            capsys, ["check-admissible", "--t", "1,0.8,0.2", "-k", "2", "--lp"]
        )
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["admissible"] is True
        assert outs["violation"] is None
        assert outs["lp"]["feasible"] is True
        assert outs["lp"]["witness_components"] >= 1
        assert outs["checks_agree"] is True

    def test_infeasible_vector_still_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, ["check-admissible", "--t", "0.5,0.4", "-k", "2", "--lp"]
        )
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["admissible"] is False
        assert outs["violation"]["kind"] == "sum"
        assert outs["lp"]["feasible"] is False
        assert outs["lp"]["certificate_valid"] is True
        assert outs["checks_agree"] is True

    def test_budget_above_size_prints_the_certificate(self, capsys):
        code, out, _ = run(capsys, ["check-admissible", "--t", "0.5,0.5", "-k", "3", "--lp"])
        assert code == 0
        lp = payload(out)["outputs"]["lp"]
        assert lp == {"feasible": False, "certificate": [-0.5, -0.5], "certificate_valid": True}

    def test_without_lp_flag(self, capsys):
        code, out, _ = run(capsys, ["check-admissible", "--t", "1,1", "-k", "2"])
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["admissible"] is True
        assert "lp" not in outs

    def test_envelope_has_no_input_or_order(self, capsys):
        code, out, _ = run(capsys, ["check-admissible", "--t", "1,0.8,0.2", "-k", "2"])
        assert code == 0
        assert set(payload(out)) == {"command", "k", "outputs", "version"}

    def test_unparseable_vector(self, capsys):
        code, _, _ = run(capsys, ["check-admissible", "--t", "1,zebra", "-k", "2"])
        assert code == 2

    def test_empty_vector_names_the_fault(self, capsys):
        code, out, err = run(capsys, ["check-admissible", "--t", ",", "-k", "1"])
        assert code == 2 and out == ""
        assert err == "kguess: input error: empty coverage vector\n"

    # The LP decides membership in the cone of k-subset indicators; these
    # vectors lie in it but do not sum to k, so both checks reject them.
    @pytest.mark.parametrize(
        "t, k", [("0.3,0.3", "1"), ("0,0", "3"), ("1,1", "1"), ("0.2,0.2,0.2", "1")]
    )
    def test_vector_off_its_budget_is_no_disagreement(self, capsys, t, k):
        code, out, _ = run(capsys, ["check-admissible", "--t", t, "-k", k, "--lp"])
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["admissible"] is False and outs["violation"]["kind"] == "sum"
        assert outs["lp"]["feasible"] is True
        assert outs["checks_agree"] is True

    # Entries between 1e-12 and 5e-10 outside [0, 1] fail the bounds check
    # but snap onto the LP's 1e-9 grid inside it, where both checks accept.
    @pytest.mark.parametrize(
        "t, k, index",
        [
            ("1.00000000001,0.99999999999", "2", 0),
            ("0.5,0.5,-0.00000000001,0.00000000001", "1", 2),
        ],
    )
    def test_entry_just_outside_the_unit_interval_is_no_disagreement(self, capsys, t, k, index):
        code, out, _ = run(capsys, ["check-admissible", "--t", t, "-k", k, "--lp"])
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["admissible"] is False
        assert outs["violation"]["kind"] == "bounds" and outs["violation"]["index"] == index
        assert outs["lp"]["feasible"] is True
        assert outs["checks_agree"] is True

    # Each sums to one grid step short of k on the LP's 1e-9 grid, which
    # the sum slack of is_admissible accepts and no k-subset mixture
    # reaches; how 2 - sum rounds (to at most 1e-9 for the first, just past
    # it for the second) must not decide the verdict.
    @pytest.mark.parametrize("t", ["1.0,0.383677553,0.380377364,0.235945082", "1,0.9999999991"])
    def test_sum_one_grid_step_short_is_no_disagreement(self, capsys, t):
        code, out, _ = run(capsys, ["check-admissible", "--t", t, "-k", "2", "--lp"])
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["admissible"] is True
        assert outs["lp"]["feasible"] is False and outs["lp"]["certificate_valid"] is True
        assert outs["checks_agree"] is True

    @pytest.mark.parametrize("n", [20, 21])
    def test_lp_is_skipped_above_its_size_limit(self, capsys, n):
        t = ",".join([repr(2.0 / n)] * n)
        code, out, _ = run(capsys, ["check-admissible", "--t", t, "-k", "2", "--lp"])
        assert code == 0
        outs = payload(out)["outputs"]
        assert outs["admissible"] is True
        if n <= 20:
            assert outs["lp"]["feasible"] is True and outs["checks_agree"] is True
            assert "lp_skipped" not in outs
        else:
            assert "lp" not in outs and outs["checks_agree"] is None
            assert outs["lp_skipped"] == "exact feasibility limited to n <= 20, got 21"


# ---------------------------------------------------------------------------
# input validation and process-level behavior
# ---------------------------------------------------------------------------


class TestInputs:
    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text('{"kind": "pmf", "probs": [1.0], "extra": 1}')
        code, _, err = run(capsys, ["loss", str(path), "-k", "1", "--alpha", "2"])
        assert code == 2
        assert "extra" in err

    def test_unknown_kind_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "tensor", "probs": [1.0]}')
        code, _, _ = run(capsys, ["loss", str(path), "-k", "1", "--alpha", "2"])
        assert code == 2

    def test_sum_far_from_one_rejected(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"kind": "pmf", "probs": [0.5, 0.4]}')
        code, _, _ = run(capsys, ["loss", str(path), "-k", "1", "--alpha", "2"])
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["loss", str(tmp_path / "nope.json"), "-k", "1", "--alpha", "2"]
        )
        assert code == 2
        assert "cannot read" in err

    def test_bad_alpha_token(self, capsys, files):
        code, _, err = run(capsys, ["loss", files["main"], "-k", "2", "--alpha", "two"])
        assert code == 2

    def test_budget_at_support_reports_zero_loss(self, capsys, files):
        code, out, _ = run(capsys, ["loss", files["main"], "-k", "3", "--alpha", "2"])
        assert code == 0
        assert payload(out)["outputs"]["value"] == 0.0

    @pytest.mark.parametrize(
        "command, name, extra",
        [
            ("loss", "main", ["--alpha", "2"]),
            ("loss", "joint", ["--alpha", "inf"]),
            ("strategy", "main", ["--alpha", "2", "--seed", "3"]),
            ("verify", "main", ["--alpha", "2"]),
            ("leakage", "joint", ["--alpha", "2"]),
        ],
    )
    def test_budget_beyond_machine_integers(self, capsys, files, command, name, extra):
        k = str(2**63)
        code, out, _ = run(capsys, [command, files[name], "-k", k, *extra])
        assert code == 0
        doc = payload(out)
        assert doc["k"] == 2**63
        assert doc["outputs"]["value" if command != "verify" else "closed_value"] == 0.0

    def test_sweep_budget_beyond_machine_integers(self, capsys, files):
        k = str(2**63)
        rows = (("main", "2,inf", f"{k},2,0,3,"), ("joint", "2", f"{k},2,0,,false"))
        for name, alphas, row in rows:
            code, out, _ = run(capsys, ["sweep", files[name], "--k-range", k, "--alphas", alphas])
            assert code == 0
            assert out.splitlines()[3] == row

    def test_nonpositive_budget_is_domain_error(self, capsys, files):
        code, _, _ = run(capsys, ["loss", files["main"], "-k", "0", "--alpha", "2"])
        assert code == 3

    def test_no_arguments_usage_error(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 2
        assert "usage" in err

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, ["--version"])
        assert code == 0
        assert out.startswith("kguess ")

    def test_precision_env_controls_rounding(self, capsys, files, monkeypatch):
        monkeypatch.setenv("KGUESS_PRECISION", "3")
        _, out, _ = run(capsys, ["loss", files["main"], "-k", "2", "--alpha", "2"])
        assert payload(out)["outputs"]["value"] == 0.153

    def test_precision_env_invalid(self, capsys, files, monkeypatch):
        monkeypatch.setenv("KGUESS_PRECISION", "zero")
        code, _, err = run(capsys, ["loss", files["main"], "-k", "2", "--alpha", "2"])
        assert code == 2
        assert "KGUESS_PRECISION" in err

    def test_precision_env_out_of_range(self, capsys, files, monkeypatch):
        monkeypatch.setenv("KGUESS_PRECISION", "18")
        code, out, err = run(capsys, ["loss", files["main"], "-k", "2", "--alpha", "2"])
        assert code == 2 and out == ""
        assert err == "kguess: input error: KGUESS_PRECISION must lie in [1, 17], got 18\n"

    def test_float_rounded_past_the_float_range_is_named(self, capsys, monkeypatch):
        # 1.8e308, the largest float at 3 digits, is beyond float range
        monkeypatch.setenv("KGUESS_PRECISION", "3")
        argv = ["check-admissible", "--t", "1.7976931348623157e308,0", "-k", "1"]
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        assert payload(out)["outputs"]["coverage"] == ["inf", 0.0]

    @pytest.mark.parametrize("digits", ["zero", "18"])
    def test_bad_precision_leaves_no_out_file(self, capsys, files, tmp_path, monkeypatch, digits):
        monkeypatch.setenv("KGUESS_PRECISION", digits)
        out = tmp_path / "out.json"
        argv = ["loss", files["main"], "-k", "2", "--alpha", "2", "--out", str(out)]
        code, _, err = run(capsys, argv)
        assert code == 2 and "KGUESS_PRECISION" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (b'{"kind": ', "is not valid JSON"),
            (b"[0.5, 0.5]", "distribution file must hold a JSON object"),
            (b'{"kind": "pmf"}', 'distribution file is missing the "probs" field'),
        ],
        ids=["not-json", "array", "no-probs"],
    )
    def test_unusable_document_names_the_fault(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        code, out, err = run(capsys, ["loss", str(path), "-k", "1", "--alpha", "2"])
        assert code == 2 and out == ""
        assert err.startswith("kguess: input error: ") and message in err

    @pytest.mark.parametrize(
        "k_range, message",
        [("3:1", "empty guess budget range"), ("0:2", "guess budgets must be positive")],
    )
    def test_bad_budget_range_names_the_fault(self, capsys, files, k_range, message):
        argv = ["sweep", files["main"], "--k-range", k_range, "--alphas", "2"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"kguess: input error: {message}\n"

    def test_out_into_a_missing_directory_is_an_io_error(self, capsys, files, tmp_path):
        target = tmp_path / "missing" / "out.json"
        argv = ["loss", files["main"], "-k", "2", "--alpha", "2", "--out", str(target)]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("kguess: i/o error: ")
        assert not target.parent.exists()

    @pytest.mark.parametrize(
        "doc, digest",
        [
            (
                {"kind": "pmf", "probs": [0.7, 0.2, 0.1], "labels": ["a", "b", "c"]},
                "sha256:c7ad9d24dd04dea9b26aa996f560ca6612c155ef03516db50fcaf5a5151e50e5",
            ),
            (
                {
                    "kind": "joint",
                    "probs": [[0.4, 0.1], [0.1, 0.4]],
                    "x_labels": ["u", "v"],
                    "y_labels": ["L", "R"],
                },
                "sha256:93bff9300ca912bf742e503ef5b9a9f046a7d6a68a1eef490a15010ee1a1b76a",
            ),
        ],
        ids=["pmf", "joint"],
    )
    def test_digest_is_pinned(self, capsys, tmp_path, doc, digest):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["loss", str(path), "-k", "1", "--alpha", "2"])
        assert code == 0
        assert payload(out)["input"]["digest"] == digest

    @pytest.mark.parametrize(
        "text",
        [
            b'{"kind": "pmf", "probs": ["a", "b"]}',
            b'{"kind": "pmf", "probs": {"a": 1}}',
            b'{"kind": "joint", "probs": [[0.5], [0.25, 0.25]]}',
            b'{"kind": "pmf", "probs": [' + b"9" * 401 + b", 1]}",
            b'{"kind": "pmf", "probs": [0.5, 0.5], "labels": 5}',
            b'{"kind": "pmf", "probs": [1.0], "labels": ["\xe9"]}',
            b'{"kind": "pmf", "probs": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
            b'{"kind": "pmf", "probs": [0.2, 0.3, 0.5], "labels": [[1], {"a": true}, "c"]}',
            b'{"kind": "joint", "probs": [[0.5, 0.5]], "y_labels": ["a", true]}',
        ],
        ids=["strings", "object", "ragged", "huge-integer", "scalar-labels", "not-utf8",
             "deep-nesting", "list-and-object-labels", "bool-label"],
    )
    def test_malformed_file_is_input_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        code, out, err = run(capsys, ["loss", str(path), "-k", "1", "--alpha", "2"])
        assert code == 2 and out == ""
        assert "input error" in err

    def test_digest_ignores_float_formatting(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"kind": "pmf", "probs": [0.5, 0.5]}')
        b.write_text('{"probs": [0.50, 5e-1],   "kind": "pmf"}')
        _, out_a, _ = run(capsys, ["loss", str(a), "-k", "1", "--alpha", "2"])
        _, out_b, _ = run(capsys, ["loss", str(b), "-k", "1", "--alpha", "2"])
        assert payload(out_a)["input"]["digest"] == payload(out_b)["input"]["digest"]


# ---------------------------------------------------------------------------
# envelope layout
# ---------------------------------------------------------------------------

LAYOUT_FILES = {
    "pmf": {"kind": "pmf", "probs": [0.7, 0.2, 0.1]},
    "uniform4": {"kind": "pmf", "probs": [0.25] * 4},
    "tiny-order": {"kind": "pmf", "probs": [0.5, 0.3, 0.2]},
    "labels": {"kind": "pmf", "probs": [0.4, 0.3, 0.2, 0.1],
               "labels": ["α", "猫", "😀", 'q"\\\t']},
    "zero-column": {"kind": "joint", "probs": [[0.5, 0.0], [0.5, 0.0]]},
    "joint": {"kind": "joint", "probs": [[0.4, 0.1], [0.1, 0.4]]},
}


@pytest.mark.parametrize("argv", [
    pytest.param(["loss", "pmf", "-k", "2", "--alpha", "2"], id="loss"),
    pytest.param(["loss", "zero-column", "-k", "1", "--alpha", "2"], id="loss-null-column"),
    pytest.param(["loss", "uniform4", "-k", "2", "--alpha", "1", "--bits"], id="loss-bits"),
    pytest.param(["strategy", "labels", "-k", "2", "--alpha", "2", "--seed", "3"],
                 id="strategy-labels-seed"),
    pytest.param(["strategy", "tiny-order", "-k", "1", "--alpha", "0.001"], id="strategy-inf"),
    pytest.param(["leakage", "joint", "-k", "1", "--alpha", "2"], id="leakage-robust"),
    pytest.param(["leakage", "joint", "-k", "2", "--alpha", "2"], id="leakage-offender"),
    pytest.param(["verify", "pmf", "-k", "2", "--alpha", "2"], id="verify-oracle"),
    pytest.param(["verify", "pmf", "-k", "3", "--alpha", "2"], id="verify-skipped"),
    pytest.param(["check-admissible", "--t", "1,0.8,0.2", "-k", "2"], id="check"),
    pytest.param(["check-admissible", "--t", "1,0.8,0.2", "-k", "2", "--lp"], id="check-lp"),
    pytest.param(["check-admissible", "--t", "0.5,0.5", "-k", "3", "--lp"],
                 id="check-certificate"),
])
def test_envelope_reserializes_byte_for_byte(capsys, tmp_path, monkeypatch, argv):
    if argv[1] in LAYOUT_FILES:
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(LAYOUT_FILES[argv[1]]))
        argv = [argv[0], str(path), *argv[2:]]
    for digits in (None, "3", "17"):
        if digits is not None:
            monkeypatch.setenv("KGUESS_PRECISION", digits)
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


# Keys and strings with quotes, backslashes, control and non-BMP characters.
json_texts = st.text(st.sampled_from('a"\\\x00\x1f\n\x7fé€😀') | st.characters(), max_size=6)
json_numbers = (
    st.integers() | st.sampled_from([2**64 + 1, -(2**70), -1])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e16, 1e22, 123456789012.0])
)
json_scalars = st.none() | st.booleans() | json_numbers | json_texts
envelope_values = st.recursive(
    json_scalars,
    lambda kids: (
        st.lists(kids, max_size=4)
        | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6)
        | st.lists(st.integers(), max_size=6)
        | st.lists(json_texts, max_size=6)
        | st.lists(json_numbers | st.booleans() | st.none(), max_size=6)
        | st.dictionaries(json_texts, kids, max_size=4)
    ),
    max_leaves=12,
)


def write(value, digits: int = 12) -> str:
    return "".join(kguess.cli._json_chunks(value, digits))


@given(envelope_values)
@settings(max_examples=300, deadline=None)
def test_writer_matches_the_json_encoder(value):
    # 17 digits round every finite float to itself
    expected = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False).encode(value)
    assert write(value, 17) == expected


@pytest.mark.parametrize("value, text", [
    (math.inf, '"inf"'), (-math.inf, '"-inf"'), (math.nan, '"nan"'),
    ([1.0, math.inf], '[1.0, "inf"]'), ([-math.inf, 2.0], '["-inf", 2.0]'), ([math.nan], '["nan"]'),
    ([1, 2.5, math.nan], '[1, 2.5, "nan"]'),
    ({"a": [0.5, {"b": math.inf}]}, '{"a": [0.5, {"b": "inf"}]}'),
], ids=["inf", "-inf", "nan", *(f"value{i}" for i in range(3, 8))])
def test_writer_refuses_non_finite_floats(value, text):
    """Non-finite floats are never written as numbers (json.dumps's Infinity
    and NaN are not JSON): the writer names them as strings."""
    assert write(value) == json.dumps(json.loads(text), indent=2)


def test_writer_refuses_other_types():
    with pytest.raises(TypeError):
        write({"a": [1.0, (2.0, 3.0)]})


ROUNDING_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1 / 3, -2 / 3,
    99999999999.95, 1e16, sys.float_info.max, -sys.float_info.max, 0.1 + 0.2,
]


def hexes(written: list) -> list[str]:
    """float.hex of each written float (it tells -0.0 from 0.0), and each
    written name as it stands ("inf" is also float.hex(math.inf))."""
    return [v if isinstance(v, str) else float.hex(v) for v in written]


@pytest.mark.parametrize("digits", [3, 12, 17])
def test_bulk_rounding_matches_each_entry(digits):
    # at 3 digits the largest floats round to 1.8e308, past the float range
    expected = [float.hex(float(f"{x:.{digits}g}")) for x in ROUNDING_VALUES]
    text = write(np.array(ROUNDING_VALUES), digits)
    assert hexes(json.loads(text)) == expected
    # a list of floats alone is taken whole; one with a bool in it, entry by entry
    assert write(ROUNDING_VALUES, digits) == text
    one_by_one = json.loads(write([*ROUNDING_VALUES, True], digits))
    assert hexes(one_by_one[:-1]) == expected and one_by_one[-1] is True


def test_non_finite_entries_round_to_their_names():
    written = json.loads(write(np.array([1 / 3, math.inf, -0.0, -math.inf, math.nan]), 12))
    assert written[::2] == [0.333333333333, -0.0, "nan"]
    assert written[1::2] == ["inf", "-inf"]
    assert math.copysign(1.0, written[2]) == -1.0


# ---------------------------------------------------------------------------
# generated documents and flags
# ---------------------------------------------------------------------------

# Every JSON type, huge integers among them; rendered as JSON text.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.just(10**400)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=2),
    max_leaves=4,
)
odd_texts = st.one_of(
    json_values.map(json.dumps),
    st.sampled_from([1, 60, 5_000, 100_000]).map(lambda d: "[" * d + "]" * d),
    st.sampled_from(["NaN", "Infinity", "[NaN, 1]", '"0.5"', "[[0.5], [0.25, 0.25]]"]),
)
# True about one draw in six: odd values now and then, well-formed ones mostly.
rarely = st.sampled_from([False] * 5 + [True])


@st.composite
def documents(draw, kind: str) -> str:
    """Mostly well-formed files of the given kind, with a field swapped for an
    odd value now and then: deep nesting, strings, huge integers, labels of
    every JSON type, wrong kinds, unknown fields."""
    shape = (draw(st.integers(1, 8)),) if kind == "pmf" else (draw(st.integers(1, 4)),) * 2
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=math.prod(shape),
                                 max_size=math.prod(shape))))
    probs = (raw / raw.sum() if raw.sum() > 0.0 else raw).reshape(shape).tolist()
    fields = {"kind": json.dumps(draw(st.sampled_from(["other", 3, None])) if draw(rarely) else kind),
              "probs": draw(odd_texts) if draw(rarely) else json.dumps(probs)}
    for name in ("labels",) if kind == "pmf" else ("x_labels", "y_labels"):
        if draw(st.booleans()):
            labels = draw(st.lists(json_values, min_size=shape[0], max_size=shape[0]))
            if not draw(rarely):
                labels = [str(x) for x in labels] if draw(st.booleans()) else list(range(shape[0]))
            fields[name] = json.dumps(labels)
    if draw(rarely):
        fields[draw(st.sampled_from(["extra", "labels", "kind"]))] = draw(odd_texts)
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}"


FLAG_VALUES = {  # usual values, then odd ones
    "-k": (["1", "2", "3", "5"], ["0", "-1", "x", str(10**20)]),
    "--alpha": (["0.5", "2", "5", "1", "inf"], ["nan", "-1", "abc", "1e-6", "1e12"]),
    "--k-range": (["1:3", "2", "1,2,5"], ["0:2", "3:1", "a:b"]),
    "--alphas": (["0.5,2", "1,inf"], ["nan", "", "2,x"]),
    "--seed": (["0", "7"], ["-1", "x", str(10**30)]),
    "--tol": (["1e-9", "1e-6"], ["0", "nan", "x"]),
    "--t": (["1,0.5,0.5", "0.5,0.5"], ["1,1", "x", ",", "2,-1"]),
}
COMMANDS = {  # each command's flags, those it needs first
    "loss": ["-k", "--alpha", "--bits"],
    "strategy": ["-k", "--alpha", "--seed"],
    "leakage": ["-k", "--alpha", "--bits"],
    "sweep": ["--k-range", "--alphas", "--bits"],
    "verify": ["-k", "--alpha", "--tol"],
    "check-admissible": ["--t", "-k", "--lp"],
}


@st.composite
def invocations(draw) -> tuple[list[str], str]:
    """A command and its flags, now and then with odd values, or with flags of
    other commands, repeated or missing; and a document, mostly of the kind
    the command reads."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    kind = {"leakage": "joint", "sweep": draw(st.sampled_from(["pmf", "joint"]))}.get(command, "pmf")
    if draw(rarely):
        kind = {"pmf": "joint", "joint": "pmf"}[kind]
    names = COMMANDS[command][:2] + draw(st.lists(st.sampled_from(COMMANDS[command][2:]), max_size=1))
    if draw(rarely):
        names = draw(st.lists(st.sampled_from(sorted(FLAG_VALUES) + ["--bits", "--lp"]), max_size=4))
    argv = [command]
    for name in names:
        if name in ("--bits", "--lp"):
            argv.append(name)
        else:
            argv += [name, draw(st.sampled_from(FLAG_VALUES[name][draw(rarely)]))]
    return argv, draw(documents(kind))


@given(invocations())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_generated_inputs_end_in_a_documented_exit(capsys, tmp_path, invocation):
    argv, doc = invocation
    path = tmp_path / "dist.json"
    path.write_text(doc)
    if argv[0] != "check-admissible":
        argv = [argv[0], str(path), *argv[1:]]
    code, _, err = run(capsys, argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
