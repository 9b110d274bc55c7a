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
from typing import Any, Sequence

import numpy as np

from . import __version__
from .core import (
    Alpha,
    ConvergenceError,
    DomainError,
    InvalidDistributionError,
    JointPmf,
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

# Each file kind: its constructor and the label fields it takes besides "probs".
_KINDS: dict[str, tuple[type, tuple[str, ...]]] = {
    "pmf": (Pmf, ("labels",)),
    "joint": (JointPmf, ("x_labels", "y_labels")),
}
# Most budgets one sweep tabulates.
_MAX_BUDGETS = 10**6


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def _load_distribution(path: str) -> tuple[Pmf | JointPmf, str]:
    """Parse a distribution file and return it with its content digest.

    The digest is a sha256 over a canonical re-serialization of the parsed
    fields, so formatting and key order do not matter but any change to
    the numbers or labels does.
    """
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path!r} is not UTF-8 text: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path!r} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path!r} nests too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ParseError("distribution file must hold a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ParseError(f'field "kind" must be "pmf" or "joint", got {kind!r}')
    if "probs" not in doc:
        raise ParseError('distribution file is missing the "probs" field')
    cls, label_fields = _KINDS[kind]
    unknown = set(doc) - {"kind", "probs", *label_fields}
    if unknown:
        raise ParseError(f"unknown field {sorted(unknown)[0]!r} in {kind} file")
    labels = {name: doc.get(name) for name in label_fields}
    dist = cls(doc["probs"], **labels)
    canonical = {"kind": kind, "probs": doc["probs"], **labels}
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    digest = "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return dist, digest


def _kind(dist: Pmf | JointPmf) -> str:
    return "pmf" if isinstance(dist, Pmf) else "joint"


def _require(dist: Pmf | JointPmf, kind: str, command: str) -> Any:
    got = _kind(dist)
    if got != kind:
        raise ParseError(f'the {command} command needs a "{kind}" file, got "{got}"')
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


def _output(out: str | None) -> Any:
    """The stream a command writes to: stdout, or the --out file."""
    return nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8")


def _emit(doc: dict[str, Any], out: str | None) -> None:
    # Streamed, so the text is never held whole.  _round_floats has turned
    # every non-finite float into a string, so allow_nan cannot fail midway.
    with _output(out) as handle:
        json.dump(doc, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def _envelope(
    command: str,
    k: int,
    outputs: dict[str, Any],
    source: tuple[Pmf | JointPmf, str] | None = None,
    alpha: Alpha | None = None,
) -> dict[str, Any]:
    """The JSON document of one query; ``source`` is the (distribution,
    digest) pair of its input file, if it has one."""
    doc: dict[str, Any] = {
        "command": command,
        "version": __version__,
        "k": int(k),
        "outputs": _round_floats(outputs, _precision()),
    }
    if source is not None:
        dist, digest = source
        doc["input"] = shape = {"digest": digest, "kind": _kind(dist)}
        if isinstance(dist, Pmf):
            shape["n"] = dist.n
        else:
            shape["n_x"], shape["n_y"] = dist.shape
    if alpha is not None:
        doc["alpha"] = str(alpha)
    return doc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _loss_scale(bits: bool, alpha: Alpha) -> float:
    """Divisor of a loss value: ln 2 under --bits, which is rejected off order 1,
    the one order whose loss is log-scale (an expected log loss)."""
    if not bits:
        return 1.0
    if not alpha.is_one:
        raise ParseError(
            "--bits converts log-scale outputs; loss values are log-scale only at order 1"
        )
    return _LN2


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
    scale = _loss_scale(args.bits, alpha)

    if isinstance(dist, Pmf):
        outputs = _loss_report_outputs(minimal_loss(dist, args.k, alpha), scale)
    else:
        value, columns = minimal_loss_conditional(dist, args.k, alpha)
        weights = dist.probs.sum(axis=0)
        column_docs = [
            None if column is None else {
                **_loss_report_outputs(column, scale),
                "weight": float(weights[j]),
                "y": j if dist.y_labels is None else dist.y_labels[j],
            }
            for j, column in enumerate(columns)
        ]
        outputs = {"value": value / scale, "columns": column_docs}
    if alpha.is_one:
        outputs["unit"] = "bits" if args.bits else "nats"
    _emit(_envelope("loss", args.k, outputs, (dist, digest), alpha), args.out)
    return EXIT_OK


def _cmd_strategy(args: argparse.Namespace) -> int:
    dist, digest = _load_distribution(args.file)
    pmf: Pmf = _require(dist, "pmf", "strategy")
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
    _emit(_envelope("strategy", args.k, outputs, (pmf, digest), alpha), args.out)
    return EXIT_OK


def _cmd_leakage(args: argparse.Namespace) -> int:
    dist, digest = _load_distribution(args.file)
    joint: JointPmf = _require(dist, "joint", "leakage")
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
    _emit(_envelope("leakage", args.k, outputs, (joint, digest), alpha), args.out)
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


def _parse_k_range(raw: str) -> Sequence[int]:
    """``--k-range``: "lo:hi" (inclusive) or a comma list of positive budgets;
    a range stays a ``range``, so its size is checked before it is held."""
    raw = raw.strip()
    values: Sequence[int]
    try:
        if ":" in raw:
            lo, hi = (int(tok) for tok in raw.split(":", 1))
            values, smallest, count = range(lo, hi + 1), lo, hi - lo + 1
        else:
            values = [int(tok) for tok in raw.split(",") if tok.strip()]
            smallest, count = min(values, default=1), len(values)
    except ValueError as exc:
        raise ParseError(f"bad guess budget range {raw!r}: {exc}") from None
    if count < 1:
        raise ParseError("empty guess budget range")
    if smallest < 1:
        raise ParseError("guess budgets must be positive")
    if count > _MAX_BUDGETS:
        raise ParseError(f"guess budget range holds {count} budgets, over {_MAX_BUDGETS}")
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
    kind = _kind(dist)
    if kind == "pmf":
        scales = [_loss_scale(args.bits, a) for a in alphas]
    else:
        scales = [_LN2 if args.bits else 1.0] * len(alphas)

    # Rows are all computed before the write, so an error leaves no partial table.
    lines = [
        f"# kguess sweep v{__version__}",
        f"# input: {digest} kind={kind}",
        "# columns: k,alpha,value,threshold_rank,robust",
    ]
    for k in ks:
        for a, scale in zip(alphas, scales):
            if kind == "pmf":
                report = minimal_loss(dist, k, a)
                rank, robust = report.threshold_rank, ""
            else:
                report = alpha_leakage(dist, k, a)
                rank, robust = "", "true" if report.robust else "false"
            lines.append(f"{k},{a},{report.value / scale:.{digits}g},{rank},{robust}")
    with _output(args.out) as handle:
        handle.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    dist, digest = _load_distribution(args.file)
    pmf: Pmf = _require(dist, "pmf", "verify")
    alpha = Alpha.from_token(args.alpha)

    report = minimal_loss(pmf, args.k, alpha)
    positive = pmf.support_size
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
        diff = abs(solution.value - report.value)
        outputs.update(
            oracle_skipped=False,
            oracle_value=solution.value,
            oracle_gap=solution.gap,
            oracle_iterations=solution.iterations,
            abs_diff=diff,
            rel_diff=diff / max(abs(report.value), 1e-12),
            max_coverage_deviation=float(np.max(np.abs(solution.t - report.coverage.t))),
        )
    admissible = is_admissible(report.coverage.t, report.coverage.spent)
    feasibility = lp_feasible(report.coverage.t, report.coverage.spent)
    outputs["admissible"] = admissible.ok
    outputs["lp_feasible"] = feasibility.feasible
    outputs["checks_agree"] = admissible.ok == feasibility.feasible
    _emit(_envelope("verify", args.k, outputs, (pmf, digest), alpha), args.out)
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
    t = _parse_vector(args.t)
    verdict = is_admissible(t, args.k)
    outputs: dict[str, Any] = {"coverage": t, "admissible": verdict.ok, "violation": None}
    if not verdict.ok:
        outputs["violation"] = {
            "kind": verdict.violation,
            "index": verdict.index,
            "detail": verdict.detail,
        }
    if args.lp:
        feasibility = lp_feasible(t, args.k)
        lp_doc: dict[str, Any] = {"feasible": feasibility.feasible}
        if feasibility.feasible:
            lp_doc["witness_components"] = len(feasibility.witness)
        else:
            lp_doc["certificate"] = [float(y) for y in feasibility.certificate]
            lp_doc["certificate_valid"] = feasibility.certificate_valid
        outputs["lp"] = lp_doc
        outputs["checks_agree"] = verdict.ok == feasibility.feasible
    _emit(_envelope("check-admissible", args.k, outputs), args.out)
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

    def command(name, func, help, alpha=None, file=True, k=True):
        """A subcommand with its input file, --out, -k and --alpha, in that order."""
        p = sub.add_parser(name, help=help)
        if file:
            p.add_argument("file", help='distribution file (JSON; "-" reads standard input)')
        p.add_argument("--out", help="write output to this path instead of stdout")
        if k:
            p.add_argument("-k", type=int, required=True, help="number of guesses")
        if alpha is not None:
            p.add_argument("--alpha", required=True, help=alpha)
        p.set_defaults(func=func)
        return p

    p = command("loss", _cmd_loss, "minimal expected loss and optimal coverage",
                alpha='loss order (decimal, "1", or "inf")')
    p.add_argument("--bits", action="store_true", help="report order-1 losses in bits")

    p = command("strategy", _cmd_strategy,
                "explicit randomized guessing strategy for the optimum", alpha="loss order")
    p.add_argument("--seed", type=_seed, help="also draw one guess set with this seed")

    p = command("leakage", _cmd_leakage, "k-guess leakage of a joint distribution",
                alpha="leakage order (finite, not 1)")
    p.add_argument("--bits", action="store_true", help="report in bits")

    p = command("sweep", _cmd_sweep, "tabulate values over a (k, order) grid", k=False)
    p.add_argument(
        "--k-range", required=True, help='budgets, "1:4" (inclusive) or comma list "1,2,5"'
    )
    p.add_argument(
        "--alphas", required=True, help='comma list of orders, e.g. "0.5,1,2,inf"'
    )
    p.add_argument("--bits", action="store_true", help="report in bits")

    p = command("verify", _cmd_verify,
                "cross-check the closed form against the numerical oracle",
                alpha="loss order (finite)")
    p.add_argument("--tol", type=float, default=1e-9, help="oracle certificate tolerance")

    # --t comes before -k in this command's usage line
    p = command("check-admissible", _cmd_check_admissible,
                "test whether a coverage vector is realizable", file=False, k=False)
    p.add_argument(
        "--t", required=True, help='comma-separated coverage entries, e.g. "1,0.8,0.2"'
    )
    p.add_argument("-k", type=int, required=True, help="number of guesses")
    p.add_argument(
        "--lp", action="store_true", help="also run the exact rational feasibility test"
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
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
