"""Command-line frontend.

Reads distribution files (JSON, one pmf or one joint matrix per file),
runs the library computations, and emits machine-readable results: a JSON
envelope for single queries, comma-separated rows for sweeps.

Exit codes follow a fixed contract: 0 on success, 2 on input problems
(unreadable file, malformed distribution, bad flag values), 3 on domain
errors (a query outside an operation's domain), 4 when the numerical
oracle fails to certify convergence.

Every float in an envelope is rounded to a fixed number of significant
digits as it is written (12 by default, override with the KGUESS_PRECISION
environment variable), so re-serializing a parsed envelope reproduces it
byte for byte: an envelope is exactly ``json.dumps(envelope, indent=2,
sort_keys=True)`` of itself.  One walk of the result rounds and writes it,
streaming the text with each flat list of numbers or of strings (a coverage
or weight vector, a subset row) formatted and written as one chunk.  A
float's text is the repr of the float its ``%g`` text reads back as; the
``%g`` text is formed once and kept where it is already that repr, so only
integral texts, positive exponents, exponents of -300 or below and
precisions of 16 or 17 are parsed and written again.

As the program (``main()`` with no argument list: the console script and
``python -m kguess.cli``), the frontend freezes the garbage collector's
heap before it parses its flags, so the collection at exit skips the
objects its imports left; ``main(argv)`` leaves the caller's collector as
it was.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import sys
from contextlib import nullcontext
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator, Sequence

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
    SizeError,
)
from .guessing import LossReport, minimal_loss, minimal_loss_conditional
from .leakage import alpha_leakage
from .oracle import _snap, lp_feasible, minimize_expected_loss
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


# How a flat list of strings or of ints is written when the whole list is one chunk.
_FLAT_JSON = {str: encode_basestring_ascii, int: int.__repr__}
# The type of every leaf of an array's tolist(), by dtype kind, where one type holds them all.
_ARRAY_LEAVES = {"i": int, "u": int, "f": float}


def _float_texts(values: list[float], digits: int) -> Iterator[str]:
    """``float.__repr__`` of each value rounded to ``digits`` significant digits.

    Up to 15 digits every decimal of that many digits survives the trip
    through a normal float, so the ``%g`` text is already the repr, except
    where the two notations differ: an integral text (no "." and no "e"),
    a positive exponent (repr writes 1e+12 as 1000000000000.0) and an
    exponent of -300 or below, near the subnormals, where fewer digits
    survive.  Only those, and every text at 16 or 17 digits, are parsed and
    written again."""
    texts = map(f"%.{digits}g".__mod__, values)
    if digits > 15:
        return map(float.__repr__, map(float, texts))
    return (t if "." in t and "e" not in t or "e-" in t and t[-5:-2] != "e-3" else repr(float(t))
            for t in texts)


def _json_chunks(
    obj: Any, digits: int, indent: str = "\n", leaf: type | None = None
) -> Iterator[str]:
    """The text ``json.dumps(obj, indent=2, sort_keys=True)`` writes for a
    document with string keys once each float is rounded to ``digits``
    significant digits, in chunks: a list whose elements are all strings, all
    ints or all floats that round to finite ones is one chunk.  A float that
    is or rounds to inf or nan is written as the string "inf", "-inf" or
    "nan", and an array as its ``tolist()``.  ``indent`` is the line break
    and indentation that precede ``obj``'s closing bracket; ``leaf``, if
    given, is the type of every number in the (nested) list ``obj``, as an
    array's dtype tells, so its rows are not scanned for their types."""
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner, opener = indent + "  ", "{"
        for key, value in sorted(obj.items()):
            yield f"{opener}{inner}{encode_basestring_ascii(key)}: "
            yield from _json_chunks(value, digits, inner)
            opener = ","
        yield indent + "}"
    elif isinstance(obj, np.ndarray):
        yield from _json_chunks(obj.tolist(), digits, indent, _ARRAY_LEAVES.get(obj.dtype.kind))
    elif isinstance(obj, list):
        if not obj:
            yield "[]"
            return
        inner = indent + "  "
        if leaf is None:
            kinds = set(map(type, obj))
            kind = kinds.pop() if len(kinds) == 1 else None
        else:
            kind = list if isinstance(obj[0], list) else leaf
        texts = None
        if kind is float:
            texts = _float_texts(obj, digits)
        elif kind in _FLAT_JSON:
            texts = map(_FLAT_JSON[kind], obj)
        if texts is not None:
            # One expression, so the joined entries are freed before the chunk
            # is written.  Of a float's reprs only inf's and nan's hold an
            # "n"; such lists are written entry by entry, which names them.
            chunk = "[" + inner + ("," + inner).join(texts) + indent + "]"
            if kind is not float or "n" not in chunk:
                yield chunk
                return
        opener = "["
        for value in obj:
            yield opener + inner
            yield from _json_chunks(value, digits, inner, leaf)
            opener = ","
        yield indent + "]"
    elif isinstance(obj, str):
        yield encode_basestring_ascii(obj)
    elif obj is None:
        yield "null"
    elif isinstance(obj, bool):
        yield "true" if obj else "false"
    elif isinstance(obj, int):
        yield int.__repr__(obj)
    elif isinstance(obj, float):
        value = float(f"{obj:.{digits}g}")
        if math.isfinite(value):
            yield float.__repr__(value)
        else:
            yield '"inf"' if value > 0 else ('"-inf"' if value < 0 else '"nan"')
    else:
        raise TypeError(f"{obj!r} cannot be written as JSON")


def _envelope(
    command: str,
    k: int,
    outputs: dict[str, Any],
    dist: Pmf | JointPmf | None,
    digest: str | None,
    alpha: Alpha | None,
) -> dict[str, Any]:
    """The JSON document of one query; ``dist`` and ``digest`` describe its
    input file, if it has one."""
    doc: dict[str, Any] = {
        "command": command,
        "version": __version__,
        "k": int(k),
        "outputs": outputs,
    }
    if dist is not None:
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


def _bits_scale(bits: bool, alpha: Alpha, loss: bool) -> float:
    """Divisor of a value: ln 2 under --bits, which converts log-scale values.
    A leakage is log-scale at every order, a loss only at order 1 (an
    expected log loss), so --bits on a loss at any other order is rejected."""
    if not bits:
        return 1.0
    if loss and not alpha.is_one:
        raise ParseError(
            "--bits converts log-scale outputs; loss values are log-scale only at order 1"
        )
    return _LN2


def _comma_list(raw: str, what: str) -> list[str]:
    """The nonblank entries of a comma list, of which there must be one."""
    tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not tokens:
        raise ParseError(f"empty {what}")
    return tokens


def _checks_agree(t: np.ndarray, k: int, feasible: bool) -> bool:
    """Whether the admissibility verdict agrees with the exact LP's on the
    vector the LP decided, ``t`` snapped to its rational grid, judged there
    in exact arithmetic.  The LP decides membership in the cone of k-subset
    indicators; a grid vector is admissible when its entries lie in [0, 1]
    and sum to exactly k, which holds exactly when it lies in that cone and
    sums to k."""
    snapped = _snap(t)
    on_budget = sum(snapped) == k
    in_box = all(0 <= v <= 1 for v in snapped)
    return (in_box and on_budget) == (feasible and on_budget)


def _loss_report_outputs(report: LossReport, scale: float) -> dict[str, Any]:
    return {
        "value": report.value / scale,
        "threshold_rank": report.threshold_rank,
        "multiplier": report.multiplier,
        "coverage": report.coverage.t,
        "guesses_spent": report.coverage.spent,
    }


def _cmd_loss(args: argparse.Namespace, dist: Pmf | JointPmf, alpha: Alpha) -> dict[str, Any]:
    scale = _bits_scale(args.bits, alpha, loss=True)
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
    return outputs


def _cmd_strategy(args: argparse.Namespace, pmf: Pmf, alpha: Alpha) -> dict[str, Any]:
    report = minimal_loss(pmf, args.k, alpha)
    mixture = realize_coverage(report.coverage)
    realized = strategy_loss(mixture, pmf, alpha)
    labels = pmf.labels
    subsets: Any = mixture.subsets
    if labels is not None:
        subsets = [list(map(labels.__getitem__, row)) for row in subsets.tolist()]
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
    return outputs


def _cmd_leakage(args: argparse.Namespace, joint: JointPmf, alpha: Alpha) -> dict[str, Any]:
    scale = _bits_scale(args.bits, alpha, loss=False)
    report = alpha_leakage(joint, args.k, alpha)
    offender: dict[str, Any] | None = None
    if not report.robust:
        part, *where = report.robustness.location  # where is [x] or [y, x]
        offender = {"part": part, **dict(zip(("y", "x")[-len(where):], where))}
    return {
        "value": report.value / scale,
        "numerator_exponent": report.numerator_exponent / scale,
        "denominator_exponent": report.denominator_exponent / scale,
        "robust": report.robust,
        "max_tilted_entry": report.robustness.max_entry,
        "tilted_threshold": report.robustness.threshold,
        "offender": offender,
        "unit": "bits" if args.bits else "nats",
    }


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


def _cmd_sweep(args: argparse.Namespace, dist: Pmf | JointPmf, _: None) -> list[str]:
    ks = _parse_k_range(args.k_range)
    alphas = [Alpha.from_token(tok) for tok in _comma_list(args.alphas, "order grid")]
    digits = _precision()
    loss = isinstance(dist, Pmf)
    scales = [_bits_scale(args.bits, a, loss) for a in alphas]

    # Rows are all computed before the write, so an error leaves no partial table.
    lines = ["# columns: k,alpha,value,threshold_rank,robust"]
    for k in ks:
        for a, scale in zip(alphas, scales):
            if loss:
                report = minimal_loss(dist, k, a)
                rank, robust = report.threshold_rank, ""
            else:
                report = alpha_leakage(dist, k, a)
                rank, robust = "", "true" if report.robust else "false"
            lines.append(f"{k},{a},{report.value / scale:.{digits}g},{rank},{robust}")
    return lines


def _cmd_verify(args: argparse.Namespace, pmf: Pmf, alpha: Alpha) -> dict[str, Any]:
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
    t, spent = report.coverage.t, report.coverage.spent
    outputs["admissible"] = is_admissible(t, spent).ok
    try:
        feasible = lp_feasible(t, spent).feasible
    except SizeError as exc:  # the exact LP is limited to small alphabets
        outputs.update(lp_feasible=None, checks_agree=None, lp_skipped=str(exc))
    else:
        outputs["lp_feasible"] = feasible
        outputs["checks_agree"] = _checks_agree(t, spent, feasible)
    return outputs


def _cmd_check_admissible(args: argparse.Namespace, _: None, __: None) -> dict[str, Any]:
    tokens = _comma_list(args.t, "coverage vector")
    try:
        t = np.array([float(tok) for tok in tokens])
    except ValueError as exc:
        raise ParseError(f"bad coverage vector: {exc}") from None
    verdict = is_admissible(t, args.k)
    outputs: dict[str, Any] = {"coverage": t, "admissible": verdict.ok, "violation": None}
    if not verdict.ok:
        outputs["violation"] = {
            "kind": verdict.violation,
            "index": verdict.index,
            "detail": verdict.detail,
        }
    if args.lp:
        try:
            feasibility = lp_feasible(t, args.k)
        except SizeError as exc:  # the exact LP is limited to small alphabets
            outputs.update(checks_agree=None, lp_skipped=str(exc))
            return outputs
        lp_doc: dict[str, Any] = {"feasible": feasibility.feasible}
        if feasibility.feasible:
            lp_doc["witness_components"] = len(feasibility.witness)
        else:
            lp_doc["certificate"] = [float(y) for y in feasibility.certificate]
            lp_doc["certificate_valid"] = feasibility.certificate_valid
        outputs["lp"] = lp_doc
        outputs["checks_agree"] = _checks_agree(t, args.k, feasibility.feasible)
    return outputs


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

    def command(name, func, help, reads, alpha=None, k=True):
        """A subcommand with its input file, --out, -k and --alpha, in that order;
        ``reads`` is the kind of file it takes ("pmf", "joint" or "any"), or None."""
        p = sub.add_parser(name, help=help)
        if reads is not None:
            p.add_argument("file", help='distribution file (JSON; "-" reads standard input)')
        p.add_argument("--out", help="write output to this path instead of stdout")
        if k:
            p.add_argument("-k", type=int, required=True, help="number of guesses")
        if alpha is not None:
            p.add_argument("--alpha", required=True, help=alpha)
        p.set_defaults(func=func, reads=reads)
        return p

    p = command("loss", _cmd_loss, "minimal expected loss and optimal coverage", "any",
                alpha='loss order (decimal, "1", or "inf")')
    p.add_argument("--bits", action="store_true", help="report order-1 losses in bits")

    p = command("strategy", _cmd_strategy,
                "explicit randomized guessing strategy for the optimum", "pmf",
                alpha="loss order")
    p.add_argument("--seed", type=_seed, help="also draw one guess set with this seed")

    p = command("leakage", _cmd_leakage, "k-guess leakage of a joint distribution", "joint",
                alpha="leakage order (finite, not 1)")
    p.add_argument("--bits", action="store_true", help="report in bits")

    p = command("sweep", _cmd_sweep, "tabulate values over a (k, order) grid", "any",
                k=False)
    p.add_argument(
        "--k-range", required=True, help='budgets, "1:4" (inclusive) or comma list "1,2,5"'
    )
    p.add_argument(
        "--alphas", required=True, help='comma list of orders, e.g. "0.5,1,2,inf"'
    )
    p.add_argument("--bits", action="store_true", help="report in bits")

    p = command("verify", _cmd_verify,
                "cross-check the closed form against the numerical oracle", "pmf",
                alpha="loss order (finite)")
    p.add_argument("--tol", type=float, default=1e-9, help="oracle certificate tolerance")

    # --t comes before -k in this command's usage line
    p = command("check-admissible", _cmd_check_admissible,
                "test whether a coverage vector is realizable", None, k=False)
    p.add_argument(
        "--t", required=True, help='comma-separated coverage entries, e.g. "1,0.8,0.2"'
    )
    p.add_argument("-k", type=int, required=True, help="number of guesses")
    p.add_argument(
        "--lp", action="store_true", help="also run the exact rational feasibility test"
    )

    return parser


def _run(args: argparse.Namespace) -> None:
    """The steps every subcommand shares, in this order: read its file and
    check the file's kind, parse --alpha, run the handler, write its result.

    A handler takes the parsed flags, the distribution and the order (None
    where the command has no file or no --alpha) and returns the outputs of
    an envelope, or the lines of a table."""
    dist = digest = alpha = None
    if args.reads is not None:
        dist, digest = _load_distribution(args.file)
        got = _kind(dist)
        if args.reads not in ("any", got):
            raise ParseError(
                f'the {args.command} command needs a "{args.reads}" file, got "{got}"'
            )
    if "alpha" in args:
        alpha = Alpha.from_token(args.alpha)
    result = args.func(args, dist, alpha)
    if isinstance(result, dict):
        doc = _envelope(args.command, args.k, result, dist, digest, alpha)
        # Rounded and written in one walk, one flat list or row at a time, so
        # the text is never held whole.  The precision is read here, before
        # --out is opened, and the writer names each non-finite float, so it
        # cannot fail midway.
        chunks = _json_chunks(doc, _precision())
    else:  # a table, under a header naming what made it and from what
        header = [f"# kguess {args.command} v{__version__}",
                  f"# input: {digest} kind={_kind(dist)}"]
        chunks = ["\n".join(header + result)]
    out = nullcontext(sys.stdout) if args.out is None else open(args.out, "w", encoding="utf-8")
    with out as handle:
        handle.writelines(chunks)
        handle.write("\n")


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    With ``argv`` None, ``main`` is the program (the console script,
    ``python -m kguess.cli``) and reads ``sys.argv``; it then freezes the
    garbage collector's heap first, so the collection at exit skips the
    objects the imports left.  A caller that passes ``argv`` keeps its
    collector as it was."""
    if argv is None:
        gc.freeze()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _run(args)
        return EXIT_OK
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
