"""Independent reference computations for the kguess benchmark.

Nothing here imports kguess.  Each check recomputes the expected answer from
the paper's characterisation (the water-filling coverage, tilted norms,
exact rational feasibility) or tests a property every correct output has,
and raises :class:`CheckError` when an output disagrees.

Tolerances: coverages agree within 1e-9 absolute, values within 1e-9
relative (with a 1e-12 absolute floor for values near zero).  Printed CLI
numbers carry 12 significant digits, well inside these bounds.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

GRID = 10**9  # the exact LP works on the rational grid with this denominator
COVERAGE_TOL = 1e-9
VALUE_REL = 1e-9
VALUE_ABS = 1e-12


class CheckError(Exception):
    """An output of kguess disagrees with the reference computation."""


def close(what: str, got: float, want: float, rel: float = VALUE_REL, abs_: float = VALUE_ABS) -> None:
    got, want = float(got), float(want)
    if not math.isfinite(got) or abs(got - want) > abs_ + rel * max(abs(got), abs(want)):
        raise CheckError(f"{what}: got {got!r}, reference {want!r}")


def _vector(what: str, values, size: int | None = None) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise CheckError(f"{what}: not a numeric vector ({exc})") from None
    if arr.ndim != 1 or (size is not None and arr.size != size):
        raise CheckError(f"{what}: expected a vector of length {size}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise CheckError(f"{what}: non-finite entries")
    return arr


# ---------------------------------------------------------------------------
# reference water-filling
# ---------------------------------------------------------------------------


def _log_rows(q: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.atleast_2d(np.asarray(q, dtype=np.float64)))


def water_levels(logq: np.ndarray, ks: np.ndarray, alpha: float) -> np.ndarray:
    """Log water level L per row with sum_i min(1, exp(alpha (log q_i - L))) = k.

    ``logq`` holds one distribution per row (-inf on zero atoms) and each
    row's k must lie below its positive support.  Plain bisection on L, run
    until the bracket stops shrinking in floating point.
    """
    ks = np.asarray(ks, dtype=np.float64)
    support = np.isfinite(logq).sum(axis=1)
    lo = np.where(np.isfinite(logq), logq, np.inf).min(axis=1) - 1.0
    hi = logq.max(axis=1) + np.log(support / ks) / alpha
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid <= lo) | (mid >= hi)):
            return mid
        spent = np.exp(np.minimum(alpha * (logq - mid[:, None]), 0.0)).sum(axis=1)
        above = spent >= ks
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)


def coverage_rows(q, ks, alpha: float) -> np.ndarray:
    """Optimal coverage for finite ``alpha``, one row per (distribution, k).

    Rows whose k reaches the positive support cover the support fully.
    """
    logq = _log_rows(q)
    ks = np.broadcast_to(np.asarray(ks), (logq.shape[0],)).astype(np.int64)
    support = np.isfinite(logq).sum(axis=1)
    out = np.where(np.isfinite(logq), 1.0, 0.0)
    short = ks < support
    if np.any(short):
        levels = water_levels(logq[short], ks[short], alpha)
        out[short] = np.exp(np.minimum(alpha * (logq[short] - levels[:, None]), 0.0))
    return out


def loss_terms(p, t, alpha: float) -> float:
    """Expected loss sum_i p_i l_alpha(t_i) over the positive support."""
    p, t = np.asarray(p, dtype=np.float64), np.asarray(t, dtype=np.float64)
    pos = p > 0.0
    p, t = p[pos], t[pos]
    if math.isinf(alpha):
        return float(np.dot(p, 1.0 - t))
    with np.errstate(divide="ignore"):
        logt = np.log(t)
    if alpha == 1.0:
        return float(np.dot(p, -logt))
    beta = (alpha - 1.0) / alpha
    return float(np.dot(p, -np.expm1(beta * logt) / beta))


def top_k_mass(p, k: int) -> float:
    p = np.asarray(p, dtype=np.float64)
    return float(np.sort(p)[::-1][:k].sum())


def loss_value(p, k: int, alpha: float) -> float:
    """Reference minimal expected loss."""
    p = np.asarray(p, dtype=np.float64)
    if k >= np.count_nonzero(p > 0.0):
        return 0.0
    if math.isinf(alpha):
        return 1.0 - top_k_mass(p, k)
    return loss_terms(p, coverage_rows(p, [k], alpha)[0], alpha)


# ---------------------------------------------------------------------------
# loss and coverage
# ---------------------------------------------------------------------------


def check_loss(p, k: int, alpha: float, value: float, t, reference: np.ndarray | None = None) -> None:
    """Check one minimal-loss answer: its value and its coverage vector.

    ``reference`` may pass a precomputed reference coverage (finite orders),
    so callers can batch the water-filling over many budgets.
    """
    p = np.asarray(p, dtype=np.float64)
    t = _vector("coverage", t, p.size)
    pos = p > 0.0
    if np.any(t[~pos] != 0.0):
        raise CheckError("coverage: a zero atom has positive coverage")
    if k >= np.count_nonzero(pos):
        close("value with k >= support", value, 0.0, abs_=1e-15)
        if np.max(np.abs(t[pos] - 1.0)) > 1e-12:
            raise CheckError("coverage: k >= support but the support is not fully covered")
        return
    if math.isinf(alpha):
        ones = np.abs(t - 1.0) <= 1e-12
        if not np.all(ones | (np.abs(t) <= 1e-12)) or np.count_nonzero(ones) != k:
            raise CheckError("coverage at order inf is not a 0/1 vector with k ones")
        if p[ones].min() < p[~ones].max():
            raise CheckError("coverage at order inf does not sit on a top-k set")
        close("value at order inf", value, 1.0 - top_k_mass(p, k))
        return
    if reference is None:
        reference = coverage_rows(p, [k], alpha)[0]
    gap = float(np.max(np.abs(t - reference)))
    if gap > COVERAGE_TOL:
        i = int(np.argmax(np.abs(t - reference)))
        raise CheckError(f"coverage entry {i}: got {t[i]!r}, reference {reference[i]!r}")
    close("value vs sum p l(t)", value, loss_terms(p, t, alpha))


def check_losses(p, alpha: float, ks, values, coverages) -> None:
    """Check many budgets on one pmf and order, water-filling them in one batch."""
    p = np.asarray(p, dtype=np.float64)
    refs = None if math.isinf(alpha) else coverage_rows(np.tile(p, (len(ks), 1)), ks, alpha)
    for j, (k, value, t) in enumerate(zip(ks, values, coverages)):
        check_loss(p, int(k), alpha, value, t, None if refs is None else refs[j])


# ---------------------------------------------------------------------------
# leakage and the flatness condition
# ---------------------------------------------------------------------------


def _best_expectations(q: np.ndarray, k: int, alpha: float) -> np.ndarray:
    """sum_i q_i t_i ** ((a - 1) / a) at the optimal coverage, one per row."""
    logq = _log_rows(q)
    support = np.isfinite(logq).sum(axis=1)
    out = np.ones(logq.shape[0])
    short = k < support
    if np.any(short):
        rows = logq[short]
        levels = water_levels(rows, np.full(rows.shape[0], k), alpha)
        with np.errstate(invalid="ignore"):
            terms = np.exp(rows + (alpha - 1.0) * np.minimum(rows - levels[:, None], 0.0))
        out[short] = np.where(np.isfinite(rows), terms, 0.0).sum(axis=1)
    return out


def _columns(joint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    P = np.asarray(joint, dtype=np.float64)
    P = P / P.sum()
    py = P.sum(axis=0)
    keep = py > 0.0
    return P, py[keep], (P[:, keep] / py[keep]).T


def leakage_value(joint, k: int, alpha: float) -> float:
    """(a / (a - 1)) ln(N / D) from the reference water-filling."""
    P, py, conds = _columns(joint)
    numerator = float(np.dot(py, _best_expectations(conds, k, alpha)))
    denominator = float(_best_expectations(P.sum(axis=1), k, alpha)[0])
    return alpha / (alpha - 1.0) * math.log(numerator / denominator)


def _log_norm(rows: np.ndarray, alpha: float) -> np.ndarray:
    """ln of the alpha-(quasi)norm of each row, over its positive entries."""
    logs = _log_rows(rows)
    top = logs.max(axis=1)
    scaled = np.where(np.isfinite(logs), np.exp(alpha * (logs - top[:, None])), 0.0)
    return top + np.log(scaled.sum(axis=1)) / alpha


def leakage_single_guess(joint, alpha: float) -> float:
    """(a / (a - 1)) ln(sum_y ||P(., y)||_a / ||P_X||_a), the k = 1 leakage."""
    P = np.asarray(joint, dtype=np.float64)
    P = P / P.sum()
    cols = P.T[P.sum(axis=0) > 0.0]
    col_norms = _log_norm(cols, alpha)
    top = col_norms.max()
    log_sum = top + math.log(float(np.exp(col_norms - top).sum()))
    return alpha / (alpha - 1.0) * (log_sum - float(_log_norm(P.sum(axis=1)[None, :], alpha)[0]))


def max_tilted_entry(joint, alpha: float) -> float:
    """Largest entry of the tilted marginal of X and tilted conditionals."""
    P, _, conds = _columns(joint)
    rows = np.vstack([P.sum(axis=1)[None, :], conds])
    logs = _log_rows(rows)
    top = logs.max(axis=1)
    scaled = np.where(np.isfinite(logs), np.exp(alpha * (logs - top[:, None])), 0.0)
    return float((1.0 / scaled.sum(axis=1)).max())


def check_leakage(joint, k: int, alpha: float, value: float, robust: bool, max_entry: float | None = None) -> None:
    close("leakage value", value, leakage_value(joint, k, alpha))
    single = leakage_single_guess(joint, alpha)
    if k == 1:
        close("leakage at k=1 vs the norm ratio", value, single)
    entry = max_tilted_entry(joint, alpha)
    if max_entry is not None:
        close("max tilted entry", max_entry, entry)
    if abs(entry - 1.0 / k) > 1e-9 and bool(robust) != (entry <= 1.0 / k):
        raise CheckError(f"robust flag {robust} but the largest tilted entry is {entry!r} vs 1/k")
    if robust:
        close("robust leakage vs the single-guess leakage", value, single)


# ---------------------------------------------------------------------------
# strategies and sampling
# ---------------------------------------------------------------------------


def _subset_array(what: str, subsets, k: int, n: int) -> np.ndarray:
    try:
        arr = np.asarray(subsets, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise CheckError(f"{what}: not a rectangular integer array ({exc})") from None
    if arr.ndim != 2 or arr.shape[1] != k or arr.shape[0] == 0:
        raise CheckError(f"{what}: expected rows of {k} indices, got shape {arr.shape}")
    if arr.min() < 0 or arr.max() >= n:
        raise CheckError(f"{what}: an index lies outside [0, {n})")
    if k > 1 and np.any(np.diff(np.sort(arr, axis=1), axis=1) == 0):
        raise CheckError(f"{what}: a guess set repeats an index")
    return arr


def check_mixture(t, k: int, subsets, weights, strategy_value: float, optimal_value: float) -> None:
    """Components hold k distinct indices, weights are a distribution, the
    weighted memberships reproduce ``t`` and the mixture's loss is optimal."""
    t = _vector("coverage", t)
    members = _subset_array("mixture components", subsets, k, t.size)
    w = _vector("weights", weights, members.shape[0])
    if np.any(w <= 0.0):
        raise CheckError("mixture weights must be positive")
    close("mixture weight total", w.sum(), 1.0, rel=0.0, abs_=COVERAGE_TOL)
    induced = np.bincount(members.ravel(), weights=np.repeat(w, k), minlength=t.size)
    gap = float(np.max(np.abs(induced - t)))
    if gap > COVERAGE_TOL:
        raise CheckError(f"mixture reproduces the coverage only within {gap:.3e}")
    close("strategy loss vs the optimal value", strategy_value, optimal_value)


def hoeffding_bound(n: int, draws: int, delta: float = 1e-6) -> float:
    """Deviation every inclusion frequency stays within, jointly, w.p. 1 - delta."""
    return math.sqrt(math.log(2.0 * n / delta) / (2.0 * draws))


def check_draws(t, subsets, draws, delta: float = 1e-6) -> None:
    """Each draw is a component, and inclusion frequencies match ``t``."""
    t = _vector("coverage", t)
    components = _subset_array("mixture components", subsets, len(subsets[0]), t.size)
    drawn = _subset_array("draws", draws, components.shape[1], t.size)
    known = {row.tobytes() for row in np.sort(components, axis=1)}
    if any(row.tobytes() not in known for row in np.sort(drawn, axis=1)):
        raise CheckError("a drawn guess set is not a component of the mixture")
    freq = np.bincount(drawn.ravel(), minlength=t.size) / drawn.shape[0]
    bound = hoeffding_bound(t.size, drawn.shape[0], delta)
    worst = float(np.max(np.abs(freq - t)))
    if worst > bound:
        raise CheckError(f"inclusion frequency off by {worst:.4f}, Hoeffding bound {bound:.4f}")


# ---------------------------------------------------------------------------
# the descent oracle and the exact LP
# ---------------------------------------------------------------------------


def check_bracket(closed: float, value: float, gap: float, eps_rel: float = 1e-12) -> None:
    """value - gap - eps <= closed <= value + eps, with eps = eps_rel max(1, |value|)."""
    eps = eps_rel * max(1.0, abs(value))
    if not (value - gap - eps <= closed <= value + eps) or gap < 0.0:
        raise CheckError(f"oracle [{value - gap!r}, {value!r}] does not bracket the closed form {closed!r}")


def check_oracle(closed: float, value: float, gap: float, t, k: int) -> None:
    """The oracle brackets the closed form and its point lies in the capped simplex."""
    check_bracket(closed, value, gap)
    t = _vector("oracle coverage", t)
    if t.min() < 0.0 or t.max() > 1.0 + 1e-12 or abs(t.sum() - k) > COVERAGE_TOL:
        raise CheckError("oracle coverage leaves the capped simplex")


def grid(t) -> list[int]:
    """Numerators of ``t`` on the LP's rational grid (denominator 1e9)."""
    return [round(float(v) * GRID) for v in t]


def grid_drifts(t, k: int) -> bool:
    """True when rounding entry by entry moves the total off k."""
    return sum(grid(t)) != k * GRID


def lp_should_accept(t, k: int) -> bool:
    """Exact verdict on the gridded vector: it is a nonnegative combination
    of k-subset indicators iff it is nonnegative and no entry exceeds total/k."""
    b = grid(t)
    return min(b) >= 0 and sum(b) > 0 and k * max(b) <= sum(b)


def check_lp(t, k: int, feasible: bool, witness=None, certificate=None, admissible: bool = True) -> bool:
    """Check an exact-LP verdict on ``t`` and re-verify its proof in Fractions.

    ``admissible`` says whether ``t`` itself is admissible.  An accepted
    vector needs a witness whose weighted k-subsets reproduce ``t`` within
    1e-9.  A rejected one needs a certificate y with y . b < 0 and the k
    smallest entries of y summing to >= 0, where b is ``t`` rounded entry by
    entry to the 1e-9 grid.  Returns False when an admissible ``t`` was
    rejected and that certificate holds: the rounding moved the total off k
    (the known grid-rounding fault).  Any other disagreement raises.
    """
    t = _vector("LP input", t)
    if feasible:
        if not admissible:
            raise CheckError("LP accepted an inadmissible vector")
        if not witness:
            raise CheckError("feasible LP verdict without a witness")
        recon = [Fraction(0)] * t.size
        for subset, weight in witness:
            if len(subset) != k or len(set(subset)) != k or min(subset) < 0 or max(subset) >= t.size or weight <= 0:
                raise CheckError("LP witness has a bad component")
            for i in subset:
                recon[i] += Fraction(weight)
        tol = Fraction(COVERAGE_TOL)
        if any(abs(r - Fraction(float(v))) > tol for r, v in zip(recon, t)):
            raise CheckError("LP witness does not reproduce the vector")
        return True
    if certificate is None or len(certificate) != t.size:
        raise CheckError("infeasible LP verdict without a certificate")
    b = [Fraction(v, GRID) for v in grid(t)]
    y = [Fraction(v) for v in certificate]
    if sum(yi * bi for yi, bi in zip(y, b)) >= 0 or sum(sorted(y)[:k]) < 0:
        raise CheckError("LP infeasibility certificate does not separate")
    return not admissible


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

PRINTED_EPS = 2e-11  # bracket slack for oracle numbers printed to 12 digits


def check_cli_loss(doc: dict, p, k: int, alpha: float) -> None:
    out = doc["outputs"]
    check_loss(p, k, alpha, out["value"], out["coverage"])


def check_cli_strategy(doc: dict, p, k: int, alpha: float) -> None:
    out = doc["outputs"]
    check_loss(p, k, alpha, out["value"], out["coverage"])
    mix = out["mixture"]
    check_mixture(out["coverage"], min(k, int(np.count_nonzero(np.asarray(p) > 0))),
                  mix["subsets"], mix["weights"], out["strategy_value"], out["value"])
    if "sample" in out:
        check_draws(out["coverage"], mix["subsets"], [out["sample"]], delta=1.0)


def check_cli_leakage(doc: dict, joint, k: int, alpha: float) -> None:
    out = doc["outputs"]
    check_leakage(joint, k, alpha, out["value"], out["robust"], out["max_tilted_entry"])
    close("tilted threshold", out["tilted_threshold"], 1.0 / k)


def check_cli_sweep(text: str, dist, ks, alphas) -> None:
    rows = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
    if len(rows) != len(ks) * len(alphas):
        raise CheckError(f"sweep printed {len(rows)} rows, expected {len(ks) * len(alphas)}")
    dist = np.asarray(dist, dtype=np.float64)
    expected = [(k, a) for k in ks for a in alphas]
    for row, (k, a) in zip(rows, expected):
        if len(row) != 5 or int(row[0]) != k:
            raise CheckError(f"sweep row {row} does not match budget {k}")
        if dist.ndim == 1:
            close(f"sweep value k={k} alpha={a}", float(row[2]), loss_value(dist, k, a))
        else:
            robust = {"true": True, "false": False}.get(row[4])
            if robust is None:
                raise CheckError(f"sweep row {row} has no robust flag")
            check_leakage(dist, k, a, float(row[2]), robust)


def check_cli_verify(doc: dict, p, k: int, alpha: float) -> bool:
    """Check a verify envelope; returns False when it calls the optimal
    coverage inadmissible or infeasible (the caller counts that as failed)."""
    out = doc["outputs"]
    close("closed value", out["closed_value"], loss_value(p, k, alpha))
    if not out["oracle_skipped"]:
        check_bracket(out["closed_value"], out["oracle_value"], out["oracle_gap"], PRINTED_EPS)
    return bool(out["admissible"]) and bool(out["lp_feasible"]) and bool(out["checks_agree"])


def check_cli_admissible(doc: dict, t, k: int) -> None:
    out = doc["outputs"]
    t = np.asarray(t, dtype=np.float64)
    admissible = bool(np.all((t >= 0.0) & (t <= 1.0)) and abs(t.sum() - k) <= COVERAGE_TOL)
    if out["admissible"] != admissible:
        raise CheckError(f"check-admissible says {out['admissible']}, exact verdict {admissible}")
    lp = out["lp"]
    if lp["feasible"] != lp_should_accept(t, k):
        raise CheckError("check-admissible LP verdict disagrees with the exact verdict")
    if lp["feasible"]:
        if not 1 <= lp.get("witness_components", 0) <= t.size:
            raise CheckError("check-admissible witness size outside [1, n]")
    elif lp.get("certificate_valid") is not True or len(lp.get("certificate", ())) != t.size:
        raise CheckError("check-admissible rejection lacks a valid certificate")
