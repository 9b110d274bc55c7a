"""Tests of the benchmark's checker: each check accepts a correct kguess
output and rejects a deliberately wrong one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import CheckError  # noqa: E402
from kguess import (  # noqa: E402
    alpha_leakage,
    lp_feasible,
    minimal_loss,
    minimize_expected_loss,
    realize_coverage,
    sample_guesses,
    strategy_loss,
)
from kguess.cli import main as cli_main  # noqa: E402

RNG = np.random.default_rng(12345)
P = RNG.dirichlet(np.ones(12))
JOINT = RNG.dirichlet(np.ones(36)).reshape(6, 6)
FLAT_JOINT = np.full((8, 8), 1 / 64) * (1 + 0.01 * RNG.random((8, 8)))
FLAT_JOINT /= FLAT_JOINT.sum()


def test_checker_does_not_import_kguess():
    tree = ast.parse((BENCH / "checks.py").read_text())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not [m for m in imported if m and m.split(".")[0] == "kguess"]


# -- loss -------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 20.0, math.inf])
def test_loss_accepts_kguess_and_rejects_swapped_coverage(alpha):
    rep = minimal_loss(P, 4, alpha)
    checks.check_loss(P, 4, alpha, rep.value, rep.coverage.t)
    t = rep.coverage.t.copy()
    hi, lo = int(np.argmax(t)), int(np.argmin(t))
    t[[hi, lo]] = t[[lo, hi]]
    with pytest.raises(CheckError):
        checks.check_loss(P, 4, alpha, rep.value, t)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, math.inf])
def test_loss_rejects_value_off_by_1e_6(alpha):
    rep = minimal_loss(P, 3, alpha)
    with pytest.raises(CheckError):
        checks.check_loss(P, 3, alpha, rep.value + 1e-6, rep.coverage.t)


def test_loss_rejects_covered_zero_atom_and_nonzero_value_at_full_budget():
    p = np.array([0.5, 0.0, 0.3, 0.2])
    rep = minimal_loss(p, 3, 2.0)
    checks.check_loss(p, 3, 2.0, rep.value, rep.coverage.t)
    with pytest.raises(CheckError):
        checks.check_loss(p, 3, 2.0, 1e-6, rep.coverage.t)
    t = rep.coverage.t.copy()
    t[1] = 0.1
    with pytest.raises(CheckError):
        checks.check_loss(p, 3, 2.0, rep.value, t)


def test_batched_losses_match_single_checks():
    ks = list(range(1, 13))
    reps = [minimal_loss(P, k, 5.0) for k in ks]
    checks.check_losses(P, 5.0, ks, [r.value for r in reps], [r.coverage.t for r in reps])
    bad = [r.coverage.t for r in reps]
    bad[2] = bad[3]
    with pytest.raises(CheckError):
        checks.check_losses(P, 5.0, ks, [r.value for r in reps], bad)


# -- leakage ----------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0])
def test_leakage_accepts_kguess_and_rejects_value_off_by_1e_6(k, alpha):
    rep = alpha_leakage(JOINT, k, alpha)
    checks.check_leakage(JOINT, k, alpha, rep.value, rep.robust)
    with pytest.raises(CheckError):
        checks.check_leakage(JOINT, k, alpha, rep.value + 1e-6, rep.robust)


def test_leakage_rejects_a_flipped_robust_flag():
    rep = alpha_leakage(FLAT_JOINT, 4, 2.0)
    assert rep.robust
    checks.check_leakage(FLAT_JOINT, 4, 2.0, rep.value, True)
    with pytest.raises(CheckError):
        checks.check_leakage(FLAT_JOINT, 4, 2.0, rep.value, False)
    with pytest.raises(CheckError):
        checks.check_leakage(JOINT, 4, 5.0, alpha_leakage(JOINT, 4, 5.0).value, True)


# -- strategies and draws ---------------------------------------------------


def _strategy(k=4, alpha=2.0):
    rep = minimal_loss(P, k, alpha)
    mix = realize_coverage(rep.coverage)
    return rep, mix, strategy_loss(mix, P, alpha)


def test_mixture_accepts_kguess_and_rejects_a_missing_component():
    rep, mix, value = _strategy()
    checks.check_mixture(rep.coverage.t, 4, mix.subsets, mix.weights, value, rep.value)
    with pytest.raises(CheckError):
        checks.check_mixture(rep.coverage.t, 4, mix.subsets[1:], mix.weights[1:], value, rep.value)


def test_mixture_rejects_repeated_index_and_wrong_price():
    rep, mix, value = _strategy()
    subsets = [list(s) for s in mix.subsets]
    subsets[0][1] = subsets[0][0]
    with pytest.raises(CheckError):
        checks.check_mixture(rep.coverage.t, 4, subsets, mix.weights, value, rep.value)
    with pytest.raises(CheckError):
        checks.check_mixture(rep.coverage.t, 4, mix.subsets, mix.weights, value * (1 + 1e-6), rep.value)


def test_draws_accept_the_sampler_and_reject_a_biased_one():
    rep, mix, _ = _strategy()
    rng = np.random.default_rng(7)
    draws = [sample_guesses(mix, rng) for _ in range(4000)]
    checks.check_draws(rep.coverage.t, mix.subsets, draws)
    heaviest = list(mix.subsets[int(np.argmax(mix.weights))])
    biased = [heaviest if i % 2 else d for i, d in enumerate(draws)]
    with pytest.raises(CheckError):
        checks.check_draws(rep.coverage.t, mix.subsets, biased)
    stranger = draws[:-1] + [[0, 1, 2, 3] if list(mix.subsets[0]) != [0, 1, 2, 3] else [0, 1, 2, 4]]
    with pytest.raises(CheckError):
        checks.check_draws(rep.coverage.t, mix.subsets, stranger)


# -- oracle and LP ----------------------------------------------------------


def test_oracle_bracket_and_simplex():
    rep = minimal_loss(P, 3, 1.5)
    sol = minimize_expected_loss(P, 3, 1.5)
    checks.check_oracle(rep.value, sol.value, sol.gap, sol.t, 3)
    with pytest.raises(CheckError):
        checks.check_oracle(rep.value + 1e-6, sol.value, sol.gap, sol.t, 3)
    with pytest.raises(CheckError):
        checks.check_oracle(sol.value - sol.gap - 1e-6, sol.value, sol.gap, sol.t, 3)
    with pytest.raises(CheckError):
        checks.check_oracle(rep.value, sol.value, sol.gap, sol.t * 1.01, 3)


def test_lp_accepts_kguess_verdicts_and_rejects_flipped_ones():
    rng = np.random.default_rng(1)
    _, t = inputs.clean_optimal_coverage(rng, 8, 3, 2.0)
    over, short = inputs._perturbed(t, 3)
    accepted = lp_feasible(t, 3)
    assert checks.check_lp(t, 3, True, accepted.witness, None)
    for bad in (over, short):
        res = lp_feasible(bad, 3)
        assert checks.check_lp(bad, 3, False, None, res.certificate, admissible=False)
        with pytest.raises(CheckError):  # verdict flipped to feasible
            checks.check_lp(bad, 3, True, accepted.witness, None, admissible=False)
    with pytest.raises(CheckError):  # verdict flipped to infeasible
        checks.check_lp(t, 3, False, None, lp_feasible(over, 3).certificate)
    witness = list(accepted.witness)
    witness[0] = (witness[0][0], witness[0][1] * 2)
    with pytest.raises(CheckError):
        checks.check_lp(t, 3, True, witness, None)


def test_lp_grid_fault_is_reported_not_raised():
    make, k, alpha = inputs.GRID_FAULT
    t = checks.coverage_rows(make(), [k], alpha)[0]
    assert checks.grid_drifts(t, k)
    res = lp_feasible(t, k)
    assert not res.feasible
    assert checks.check_lp(t, k, False, None, res.certificate) is False


# -- CLI envelopes ----------------------------------------------------------


def _cli(tmp_path, argv, dist=None):
    if dist is not None:
        kind = "pmf" if np.ndim(dist) == 1 else "joint"
        (tmp_path / "d.json").write_text(json.dumps({"kind": kind, "probs": np.asarray(dist).tolist()}))
        argv = [argv[0], str(tmp_path / "d.json"), *argv[1:]]
    out = tmp_path / "out.txt"
    assert cli_main([*argv, "--out", str(out)]) == 0
    return out.read_text()


def test_cli_loss_and_strategy(tmp_path):
    doc = json.loads(_cli(tmp_path, ["loss", "-k", "3", "--alpha", "2"], P))
    checks.check_cli_loss(doc, P, 3, 2.0)
    doc["outputs"]["value"] *= 1 + 1e-6
    with pytest.raises(CheckError):
        checks.check_cli_loss(doc, P, 3, 2.0)
    doc = json.loads(_cli(tmp_path, ["strategy", "-k", "3", "--alpha", "1", "--seed", "4"], P))
    checks.check_cli_strategy(doc, P, 3, 1.0)
    doc["outputs"]["mixture"]["weights"][0] /= 2
    with pytest.raises(CheckError):
        checks.check_cli_strategy(doc, P, 3, 1.0)


def test_cli_leakage_and_sweep(tmp_path):
    doc = json.loads(_cli(tmp_path, ["leakage", "-k", "2", "--alpha", "2"], JOINT))
    checks.check_cli_leakage(doc, JOINT, 2, 2.0)
    doc["outputs"]["max_tilted_entry"] += 1e-6
    with pytest.raises(CheckError):
        checks.check_cli_leakage(doc, JOINT, 2, 2.0)
    text = _cli(tmp_path, ["sweep", "--k-range", "1:3", "--alphas", "0.5,1,inf"], P)
    checks.check_cli_sweep(text, P, [1, 2, 3], [0.5, 1.0, math.inf])
    lines = text.splitlines()
    row = lines[-1].split(",")
    row[2] = repr(float(row[2]) + 1e-6)
    with pytest.raises(CheckError):
        checks.check_cli_sweep("\n".join(lines[:-1] + [",".join(row)]), P, [1, 2, 3], [0.5, 1.0, math.inf])


def test_cli_verify_and_check_admissible(tmp_path):
    rng = np.random.default_rng(2)
    p = inputs.clean_optimal_pmf(rng, 10, 3, 2.0)
    doc = json.loads(_cli(tmp_path, ["verify", "-k", "3", "--alpha", "2"], p))
    assert checks.check_cli_verify(doc, p, 3, 2.0)
    doc["outputs"]["closed_value"] += 1e-6
    with pytest.raises(CheckError):
        checks.check_cli_verify(doc, p, 3, 2.0)
    make, k, _ = inputs.GRID_FAULT
    doc = json.loads(_cli(tmp_path, ["verify", "-k", str(k), "--alpha", "2"], make()))
    assert checks.check_cli_verify(doc, make(), k, 2.0) is False
    ok, bad = inputs.admissibility_vectors(rng, 8, 3)
    for text, verdict in ((ok, True), (bad, False)):
        doc = json.loads(_cli(tmp_path, ["check-admissible", "--t", text, "-k", "3", "--lp"]))
        t = [float(v) for v in text.split(",")]
        assert doc["outputs"]["admissible"] is verdict
        checks.check_cli_admissible(doc, t, 3)
        doc["outputs"]["lp"]["feasible"] = not verdict
        with pytest.raises(CheckError):
            checks.check_cli_admissible(doc, t, 3)
