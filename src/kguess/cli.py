"""Command-line frontend.

Reads distribution files (JSON, one pmf or one joint matrix per file),
runs the library computations, and emits machine-readable results: a JSON
envelope for single queries, comma-separated rows for sweeps.

Exit codes follow a fixed contract: 0 on success, 2 on input problems
(unreadable file, malformed distribution, bad flag values), 3 on domain
errors (a query outside an operation's domain), 4 when the numerical
oracle fails to certify convergence.

Every float in an envelope is rounded to a fixed number of significant
digits before serialization (12 by default, override with the
KGUESS_PRECISION environment variable), so re-serializing a parsed
envelope reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from contextlib import nullcontext
from typing import Any, Sequence, TextIO

import numpy as np

from . import __version__
from .core import (
    Alpha,
    ConvergenceError,
    DomainError,
    InvalidDistributionError,
    JointPmf,
    KGuessError,
    ParseError,
    Pmf,
)
from .guessing import LossReport, minimal_loss, minimal_loss_conditional
from .leakage import alpha_leakage
from .oracle import lp_feasible, minimize_expected_loss
from .strategy import is_admissible, realize_coverage, sample_guesses, strategy_loss

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4

_PRECISION_ENV = "KGUESS_PRECISION"
_DEFAULT_PRECISION = 12

_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_distribution(path: str) -> tuple[Pmf | JointPmf, str]:
    """Parse a distribution file and return it with its content digest.

    The digest is a sha256 over a canonical re-serialization of the parsed
    fields, so formatting and key order do not matter but any change to
    the numbers or labels does.
    """
    try:
        text = _read_text(path)
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("distribution file must hold a JSON object")
    kind = doc.get("kind")
    if kind not in ("pmf", "joint"):
        raise ParseError(f'field "kind" must be "pmf" or "joint", got {kind!r}')
    if "probs" not in doc:
        raise ParseError('distribution file is missing the "probs" field')

    if kind == "pmf":
        allowed = {"kind", "probs", "labels"}
        unknown = set(doc) - allowed
        if unknown:
            raise ParseError(f"unknown field {sorted(unknown)[0]!r} in pmf file")
        dist: Pmf | JointPmf = Pmf(doc["probs"], labels=doc.get("labels"))
        canonical = {"kind": "pmf", "probs": doc["probs"], "labels": doc.get("labels")}
    else:
        allowed = {"kind", "probs", "x_labels", "y_labels"}
        unknown = set(doc) - allowed
        if unknown:
            raise ParseError(f"unknown field {sorted(unknown)[0]!r} in joint file")
        dist = JointPmf(
            doc["probs"],
            x_labels=doc.get("x_labels"),
            y_labels=doc.get("y_labels"),
        )
        canonical = {
            "kind": "joint",
            "probs": doc["probs"],
            "x_labels": doc.get("x_labels"),
            "y_labels": doc.get("y_labels"),
        }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    digest = "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return dist, digest


def _require_pmf(dist: Pmf | JointPmf, command: str) -> Pmf:
    if not isinstance(dist, Pmf):
        raise ParseError(f'the {command} command needs a "pmf" file, got "joint"')
    return dist


def _require_joint(dist: Pmf | JointPmf, command: str) -> JointPmf:
    if not isinstance(dist, JointPmf):
        raise ParseError(f'the {command} command needs a "joint" file, got "pmf"')
    return dist


def _precision() -> int:
    raw = os.environ.get(_PRECISION_ENV)
    if raw is None:
        return _DEFAULT_PRECISION
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"{_PRECISION_ENV} must be an integer, got {raw!r}") from None
    if not 1 <= value <= 17:
        raise ParseError(f"{_PRECISION_ENV} must lie in [1, 17], got {value}")
    return value


# ---------------------------------------------------------------------------
# output handling
# ---------------------------------------------------------------------------


def _round_floats(obj: Any, digits: int) -> Any:
    """Round every float in a nested structure to significant digits.

    Rounding before serialization is what makes envelope round-trips exact:
    a parsed envelope re-serializes to the same bytes because the floats
    already sit on the printed grid.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
        return float(f"{value:.{digits}g}")
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {key: _round_floats(val, digits) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(val, digits) for val in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biu":
            return obj.tolist()
        return [_round_floats(val, digits) for val in obj.tolist()]
    return obj


def _emit(doc: dict[str, Any], out: str | None) -> None:
    # Streamed, so the text is never held whole.  _round_floats has turned
    # every non-finite float into a string, so allow_nan cannot fail midway.
    with (
        nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8")
    ) as handle:
        json.dump(doc, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def _envelope(
    command: str,
    digest: str,
    dist: Pmf | JointPmf,
    alpha: Alpha | None,
    k: int | None,
    outputs: dict[str, Any],
) -> dict[str, Any]:
    shape: dict[str, Any] = {"digest": digest}
    if isinstance(dist, Pmf):
        shape["kind"] = "pmf"
        shape["n"] = dist.n
    else:
        shape["kind"] = "joint"
        shape["n_x"], shape["n_y"] = dist.probs.shape
    doc: dict[str, Any] = {
        "command": command,
        "version": __version__,
        "input": shape,
        "outputs": _round_floats(outputs, _precision()),
    }
    if alpha is not None:
        doc["alpha"] = str(alpha)
    if k is not None:
        doc["k"] = int(k)
    return doc


# ---------------------------------------------------------------------------
# unit conversion
# ---------------------------------------------------------------------------


def _check_bits(args: argparse.Namespace, alpha: Alpha, command: str) -> bool:
    """Validate the --bits flag for the given command and order.

    Bits conversion divides log-scale outputs by ln 2.  Leakage values are
    always log-scale; a loss value is log-scale only at order 1 (where it
    is an expected log loss), so --bits with any other order on a loss
    command is rejected rather than silently misapplied.
    """
    if not args.bits:
        return False
    if command in ("loss", "sweep-pmf") and not alpha.is_one:
        raise ParseError(
            "--bits converts log-scale outputs; loss values are log-scale "
            "only at order 1"
        )
    return True


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _loss_report_outputs(report: LossReport, scale: float) -> dict[str, Any]:
    return {
        "value": report.value / scale,
        "threshold_rank": report.threshold_rank,
        "multiplier": report.multiplier,
        "coverage": report.coverage.t,
        "guesses_spent": report.coverage.spent,
    }


def _cmd_loss(args: argparse.Namespace) -> int:
    dist, digest = _load_distribution(args.file)
    alpha = Alpha.from_token(args.alpha)
    bits = _check_bits(args, alpha, "loss")
    scale = _LN2 if bits else 1.0
    unit = "bits" if bits else "nats"

    if isinstance(dist, Pmf):
        report = minimal_loss(dist, args.k, alpha)
        outputs = _loss_report_outputs(report, scale)
    else:
        value, columns = minimal_loss_conditional(dist, args.k, alpha)
        column_docs: list[dict[str, Any] | None] = []
        weights = dist.probs.sum(axis=0)
        for j, column in enumerate(columns):
            if column is None:
                column_docs.append(None)
                continue
            doc = _loss_report_outputs(column, scale)
            doc["weight"] = float(weights[j])
            if dist.y_labels is not None:
                doc["y"] = dist.y_labels[j]
            else:
                doc["y"] = j
            column_docs.append(doc)
        outputs = {"value": value / scale, "columns": column_docs}
    if alpha.is_one:
        outputs["unit"] = unit
    _emit(_envelope("loss", digest, dist, alpha, args.k, outputs), args.out)
    return EXIT_OK


def _cmd_strategy(args: argparse.Namespace) -> int:
    dist, digest = _load_distribution(args.file)
    pmf = _require_pmf(dist, "strategy")
    alpha = Alpha.from_token(args.alpha)

    report = minimal_loss(pmf, args.k, alpha)
    mixture = realize_coverage(report.coverage)
    realized = strategy_loss(mixture, pmf, alpha)
    labels = pmf.labels
    subsets: Any = mixture.subsets
    if labels is not None:
        subsets = [[labels[i] for i in row] for row in subsets.tolist()]
    outputs: dict[str, Any] = {
        "value": report.value,
        "coverage": report.coverage.t,
        "effective_k": report.coverage.spent,
        "mixture": {"subsets": subsets, "weights": mixture.weights},
        "strategy_value": realized,
    }
    if args.seed is not None:
        guesses = sample_guesses(mixture, args.seed, pmf=pmf)
        if labels is not None:
            guesses = [labels[i] for i in guesses]
        outputs["sample"] = guesses
        outputs["seed"] = args.seed
    _emit(_envelope("strategy", digest, pmf, alpha, args.k, outputs), args.out)
    return EXIT_OK


def _cmd_leakage(args: argparse.Namespace) -> int:
    dist, digest = _load_distribution(args.file)
    joint = _require_joint(dist, "leakage")
    alpha = Alpha.from_token(args.alpha)
    scale = _LN2 if args.bits else 1.0

    report = alpha_leakage(joint, args.k, alpha)
    offender: dict[str, Any] | None = None
    if not report.robust:
        part, *where = report.robustness.location  # where is [x] or [y, x]
        offender = {"part": part, **dict(zip(("y", "x")[-len(where):], where))}
    outputs = {
        "value": report.value / scale,
        "numerator_exponent": report.numerator_exponent / scale,
        "denominator_exponent": report.denominator_exponent / scale,
        "robust": report.robust,
        "max_tilted_entry": report.robustness.max_entry,
        "tilted_threshold": report.robustness.threshold,
        "offender": offender,
        "unit": "bits" if args.bits else "nats",
    }
    _emit(_envelope("leakage", digest, joint, alpha, args.k, outputs), args.out)
    return EXIT_OK


def _seed(raw: str) -> int:
    """``--seed``: a nonnegative integer, as numpy's generators need."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {value}")
    return value


def _parse_k_range(raw: str) -> list[int]:
    raw = raw.strip()
    if not raw:
        raise ParseError("empty guess budget range")
    try:
        if ":" in raw:
            lo_text, hi_text = raw.split(":", 1)
            lo, hi = int(lo_text), int(hi_text)
            values = list(range(lo, hi + 1))
        else:
            values = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParseError(f"bad guess budget range {raw!r}: {exc}") from None
    if not values:
        raise ParseError("empty guess budget range")
    if any(v < 1 for v in values):
        raise ParseError("guess budgets must be positive")
    return values


def _parse_alpha_grid(raw: str) -> list[Alpha]:
    tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not tokens:
        raise ParseError("empty order grid")
    return [Alpha.from_token(tok) for tok in tokens]


def _cmd_sweep(args: argparse.Namespace) -> int:
    dist, digest = _load_distribution(args.file)
    ks = _parse_k_range(args.k_range)
    alphas = _parse_alpha_grid(args.alphas)
    digits = _precision()

    if isinstance(dist, JointPmf):
        bad = next((a for a in alphas if a.is_inf or a.is_one), None)
        if bad is not None:
            raise DomainError(
                f"leakage sweeps need finite orders other than 1, got {bad}"
            )
        if args.bits:
            scale = _LN2
        else:
            scale = 1.0
        kind = "joint"
    else:
        for a in alphas:
            _check_bits(args, a, "sweep-pmf")
        scale = _LN2 if args.bits else 1.0
        kind = "pmf"

    lines = [
        f"# kguess sweep v{__version__}",
        f"# input: {digest} kind={kind}",
        "# columns: k,alpha,value,threshold_rank,robust",
    ]
    for k in ks:
        for a in alphas:
            if kind == "pmf":
                report = minimal_loss(dist, k, a)
                value = report.value / scale
                lines.append(f"{k},{a},{value:.{digits}g},{report.threshold_rank},")
            else:
                report = alpha_leakage(dist, k, a)
                value = report.value / scale
                robust = "true" if report.robust else "false"
                lines.append(f"{k},{a},{value:.{digits}g},,{robust}")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    dist, digest = _load_distribution(args.file)
    pmf = _require_pmf(dist, "verify")
    alpha = Alpha.from_token(args.alpha)

    report = minimal_loss(pmf, args.k, alpha)
    positive = int(np.count_nonzero(pmf.probs > 0.0))
    outputs: dict[str, Any] = {
        "closed_value": report.value,
        "threshold_rank": report.threshold_rank,
    }
    if args.k >= positive:
        outputs["oracle_skipped"] = True
        outputs["reason"] = (
            f"budget {args.k} covers the whole positive support ({positive}); "
            "the minimal loss is 0 by inspection"
        )
    else:
        solution = minimize_expected_loss(pmf, args.k, alpha, tol=args.tol)
        deviation = float(np.max(np.abs(solution.t - report.coverage.t)))
        denom = max(abs(report.value), 1e-12)
        outputs.update(
            {
                "oracle_skipped": False,
                "oracle_value": solution.value,
                "oracle_gap": solution.gap,
                "oracle_iterations": solution.iterations,
                "abs_diff": abs(solution.value - report.value),
                "rel_diff": abs(solution.value - report.value) / denom,
                "max_coverage_deviation": deviation,
            }
        )
    admissible = is_admissible(report.coverage.t, report.coverage.spent)
    feasibility = lp_feasible(report.coverage.t, report.coverage.spent)
    outputs["admissible"] = admissible.ok
    outputs["lp_feasible"] = feasibility.feasible
    outputs["checks_agree"] = admissible.ok == feasibility.feasible
    _emit(_envelope("verify", digest, pmf, alpha, args.k, outputs), args.out)
    return EXIT_OK


def _parse_vector(raw: str) -> np.ndarray:
    tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not tokens:
        raise ParseError("empty coverage vector")
    try:
        return np.array([float(tok) for tok in tokens])
    except ValueError as exc:
        raise ParseError(f"bad coverage vector: {exc}") from None


def _cmd_check_admissible(args: argparse.Namespace) -> int:
    values = _parse_vector(args.t)
    verdict = is_admissible(values, args.k)
    outputs: dict[str, Any] = {
        "coverage": values,
        "admissible": verdict.ok,
        "violation": None,
    }
    if not verdict.ok:
        outputs["violation"] = {
            "kind": verdict.violation,
            "index": verdict.index,
            "detail": verdict.detail,
        }
    if args.lp:
        feasibility = lp_feasible(values, args.k)
        lp_doc: dict[str, Any] = {"feasible": feasibility.feasible}
        if feasibility.feasible and feasibility.witness is not None:
            lp_doc["witness_components"] = len(feasibility.witness)
        if not feasibility.feasible and feasibility.certificate is not None:
            lp_doc["certificate"] = [float(y) for y in feasibility.certificate]
            lp_doc["certificate_valid"] = feasibility.certificate_valid
        outputs["lp"] = lp_doc
        outputs["checks_agree"] = verdict.ok == feasibility.feasible
    doc: dict[str, Any] = {
        "command": "check-admissible",
        "version": __version__,
        "k": args.k,
        "outputs": _round_floats(outputs, _precision()),
    }
    _emit(doc, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kguess",
        description=(
            "Optimal k-guess strategies and leakage under tunable loss for "
            "finite discrete distributions."
        ),
    )
    parser.add_argument("--version", action="version", version=f"kguess {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, file_arg: bool = True) -> None:
        if file_arg:
            p.add_argument(
                "file",
                help='distribution file (JSON; "-" reads standard input)',
            )
        p.add_argument("--out", help="write output to this path instead of stdout")

    p_loss = sub.add_parser("loss", help="minimal expected loss and optimal coverage")
    add_common(p_loss)
    p_loss.add_argument("-k", type=int, required=True, help="number of guesses")
    p_loss.add_argument("--alpha", required=True, help='loss order (decimal, "1", or "inf")')
    p_loss.add_argument(
        "--bits", action="store_true", help="report order-1 losses in bits"
    )
    p_loss.set_defaults(func=_cmd_loss)

    p_strategy = sub.add_parser(
        "strategy", help="explicit randomized guessing strategy for the optimum"
    )
    add_common(p_strategy)
    p_strategy.add_argument("-k", type=int, required=True, help="number of guesses")
    p_strategy.add_argument("--alpha", required=True, help="loss order")
    p_strategy.add_argument(
        "--seed", type=_seed, help="also draw one guess set with this seed"
    )
    p_strategy.set_defaults(func=_cmd_strategy)

    p_leakage = sub.add_parser("leakage", help="k-guess leakage of a joint distribution")
    add_common(p_leakage)
    p_leakage.add_argument("-k", type=int, required=True, help="number of guesses")
    p_leakage.add_argument("--alpha", required=True, help="leakage order (finite, not 1)")
    p_leakage.add_argument("--bits", action="store_true", help="report in bits")
    p_leakage.set_defaults(func=_cmd_leakage)

    p_sweep = sub.add_parser("sweep", help="tabulate values over a (k, order) grid")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--k-range",
        required=True,
        help='budgets, "1:4" (inclusive) or comma list "1,2,5"',
    )
    p_sweep.add_argument(
        "--alphas", required=True, help='comma list of orders, e.g. "0.5,1,2,inf"'
    )
    p_sweep.add_argument("--bits", action="store_true", help="report in bits")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser(
        "verify", help="cross-check the closed form against the numerical oracle"
    )
    add_common(p_verify)
    p_verify.add_argument("-k", type=int, required=True, help="number of guesses")
    p_verify.add_argument("--alpha", required=True, help="loss order (finite)")
    p_verify.add_argument(
        "--tol", type=float, default=1e-9, help="oracle certificate tolerance"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_check = sub.add_parser(
        "check-admissible", help="test whether a coverage vector is realizable"
    )
    add_common(p_check, file_arg=False)
    p_check.add_argument(
        "--t", required=True, help='comma-separated coverage entries, e.g. "1,0.8,0.2"'
    )
    p_check.add_argument("-k", type=int, required=True, help="number of guesses")
    p_check.add_argument(
        "--lp",
        action="store_true",
        help="also run the exact rational feasibility test",
    )
    p_check.set_defaults(func=_cmd_check_admissible)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args))
    except (ParseError, InvalidDistributionError) as exc:
        print(f"kguess: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DomainError as exc:
        print(f"kguess: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"kguess: oracle did not converge: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"kguess: i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
