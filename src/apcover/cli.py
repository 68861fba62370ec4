"""Command-line front end.

Subcommands: ``count`` (exact counts + histogram), ``det`` (one
determinant by a chosen route), ``verify`` (sieve many assignments
against the recurrence prediction), ``oeis`` (sequence tables, optionally
in b-file format), ``bench`` (recurrence vs elimination wall time).

Output is JSON by default, one object per invocation, with every integer
rendered as an exact decimal string. For a fixed command line stdout is
byte-identical across runs and thread counts; wall-clock timing is only
included when --timing is passed (and inside bench rows, whose point is
the measurement).

Each ``_run_<command>`` returns ``(inputs, results, rows, exit_code)``: its
own inputs and results as JSON values with integers already in decimal,
and ``rows``, its CSV table, header first. A list in the results, the rows
and a row may be lazy iterables, so that ``oeis`` and ``count`` make the
decimal of each term or coefficient only as it is written. ``main`` alone
writes output, piece by piece as it is made: JSON adds ``command``, the
moduli inputs and ``timing_ms``, which is read when it is reached and so
includes the writing before it; CSV joins each row with commas; ``oeis
--bfile`` (whatever ``--format``) joins the rows after the header with
spaces. A failed write exits 4 like any internal error, after whatever was
already written.

Exit codes: 0 success/verified, 1 verification mismatch, 4 internal error;
a refusal, argparse's included, prints one ``error:`` line and exits with
its error class's ``exit_code`` (see errors.py). Every integer is printed
in full, however many digits, by ``core._decimal_str``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Iterable, Iterator
from typing import Any, NoReturn

from .core import (CoverageCounts, ModulusSystem, _decimal_str, _exact_context, _product,
                   validate_modulus_system)
from .counting import (
    coverage_counts,
    exact_coverage_histogram,
    first_primes,
    oeis_a005867,
    oeis_a067549,
)
from .determinant import (
    available_det,
    build_available_matrix,
    build_free_matrix,
    det_bareiss,
    det_laplace,
    free_det,
)
from .errors import ApcoverError, ResourceLimitError, ValidationError
from .oracle import DEFAULT_PRODUCT_LIMIT, residue_independence_check

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INTERNAL = 4
# bench folds every prefix once per --repeat, O(kmax^2) big-integer steps: at kmax
# 1000, Bareiss aside, it took 1.6 s at --repeat 1 and 3.0 s at 3 on a 2-CPU host
MAX_BENCH_KMAX = 1000
# characters per write. A batch holds at most this much on top of its last piece,
# and each write is a system call when stdout is unbuffered (PYTHONUNBUFFERED):
# against 64 Ki, the 1200-term oeis argvs peaked 0.1-0.2 MiB lower for ~140
# writes in place of ~36
WRITE_BATCH = 1 << 14

# what every _run_* returns; see the module docstring (results and rows may be lazy)
Output = tuple[dict[str, Any], dict[str, Any], Iterable[Iterable[str]], int]


def _system_from_args(args: argparse.Namespace) -> ModulusSystem:
    if args.first_k is not None:
        # distinct primes by construction, so not tested for primality again
        moduli = tuple(first_primes(args.first_k))
        return ModulusSystem(moduli, _product(moduli))
    try:
        moduli = [int(part) for part in args.primes.split(",") if part.strip() != ""]
    except ValueError:
        raise ValidationError(f"cannot parse moduli list {args.primes!r}") from None
    return validate_modulus_system(moduli, coprime_mode=args.coprime)


class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments by raising, so they leave ``main`` like any refusal."""

    def error(self, message: str) -> NoReturn:
        raise ValidationError(message)

    def _check_value(self, action: argparse.Action, value) -> None:
        # choices quoted on every Python, as 3.10 to 3.13.0 print them; 3.13.13 prints them bare
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            message = f"invalid choice: {value!r} (choose from {choices})"
            raise argparse.ArgumentError(action, message)


def _subcommand(sub, name: str, run, help: str, moduli: bool = True) -> argparse.ArgumentParser:
    """The subparser of one command, its runner, and the flags commands share."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(run=run)
    if moduli:
        group = parser.add_mutually_exclusive_group(required=True)
        group.add_argument("--primes", help="comma-separated moduli, e.g. 2,3,5")
        group.add_argument(
            "--first-k", type=int, metavar="N", help="use the first N primes"
        )
        parser.add_argument(
            "--coprime",
            action="store_true",
            help="accept pairwise-coprime composite moduli",
        )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock timing_ms in JSON output; CSV and b-file omit it "
        "(breaks byte-for-byte determinism)",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="apcover",
        description="Exact coverage counts for residue classes of coprime arithmetic progressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _subcommand(sub, "count", _run_count, "coverage counts and full histogram")

    p_det = _subcommand(sub, "det", _run_det, "one determinant by a chosen method")
    p_det.add_argument("--which", choices=("available", "free"), required=True)
    p_det.add_argument(
        "--method", choices=("recurrence", "bareiss", "laplace"), default="recurrence"
    )

    p_verify = _subcommand(
        sub, "verify", _run_verify,
        "sieve assignments and compare with the recurrence prediction",
    )
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--exhaustive", action="store_true")
    p_verify.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_PRODUCT_LIMIT,
        metavar="DECIMAL",
        help="refuse products above this (default %(default)s)",
    )
    p_verify.add_argument(
        "--threads", type=int, default=0,
        help="accepted for compatibility; verify sieves on one worker whatever it is",
    )

    p_oeis = _subcommand(sub, "oeis", _run_oeis, "emit sequence terms", moduli=False)
    p_oeis.add_argument("--sequence", choices=("A067549", "A005867"), required=True)
    p_oeis.add_argument("--terms", type=int, required=True)
    p_oeis.add_argument(
        "--bfile", action="store_true", help='plain "index value" lines for diffing'
    )

    p_bench = _subcommand(
        sub, "bench", _run_bench, "recurrence vs Bareiss wall time", moduli=False
    )
    p_bench.add_argument("--kmax", type=int, required=True)
    p_bench.add_argument("--repeat", type=int, default=3)
    p_bench.add_argument(
        "--timeout-ms",
        type=float,
        default=1000.0,
        help="skip Bareiss for larger k once one case exceeds this",
    )
    return parser


def _str_counts(counts: CoverageCounts) -> dict[str, str]:
    """The counts in decimal, in ``CoverageCounts``' field order."""
    return {name: _decimal_str(value) for name, value in counts._asdict().items()}


def _table(records: list[dict[str, Any]]) -> list[list[str]]:
    """CSV rows, header first, of flat records (bools as true/false, None empty)."""
    return [list(records[0])] + [
        ["" if v is None else str(v).lower() if isinstance(v, bool) else v
         for v in record.values()]
        for record in records
    ]


def _run_count(args: argparse.Namespace, system: ModulusSystem) -> Output:
    counts = _str_counts(coverage_counts(system))
    coefficients = exact_coverage_histogram(system)
    # the decimal of each coefficient is made as it is written
    header = [*counts, *(f"j{j}" for j in range(len(coefficients)))]
    rows = [header, itertools.chain(counts.values(), map(_decimal_str, coefficients))]
    return {}, {**counts, "histogram": map(_decimal_str, coefficients)}, rows, EXIT_OK


def _run_det(args: argparse.Namespace, system: ModulusSystem) -> Output:
    if args.method == "recurrence":
        value = available_det(system) if args.which == "available" else free_det(system)
    else:
        evaluate = det_bareiss if args.method == "bareiss" else det_laplace
        if args.which == "available":
            value = evaluate(build_available_matrix(system))
        else:
            raw = evaluate(build_free_matrix(system))
            value = raw if system.k % 2 == 0 else -raw
    inputs = {"which": args.which, "method": args.method}
    value = _decimal_str(value)
    return inputs, {"value": value}, _table([{**inputs, "value": value}]), EXIT_OK


def _run_verify(args: argparse.Namespace, system: ModulusSystem) -> Output:
    if args.threads < 0:  # scripts pass --threads; the sieve runs on one worker
        raise ValidationError("threads must be >= 0")
    report = residue_independence_check(
        system,
        trials=args.trials,
        seed=args.seed,
        product_limit=args.limit,
        exhaustive=args.exhaustive,
    )
    inputs = {
        "trials": str(args.trials),
        "seed": str(args.seed),
        "exhaustive": args.exhaustive,
        "limit": str(args.limit),
    }
    summary = {
        "mode": "exhaustive" if args.exhaustive else "random",
        "assignments_tested": str(report.assignments_tested),
        "all_match": report.all_match,
    }
    expected = _str_counts(report.expected)
    results = {
        **summary,
        "expected": expected,
        "mismatches": [
            {
                "residues": [str(r) for r in residues],
                "observed": _str_counts(observed),
            }
            for residues, observed in report.mismatches
        ],
    }
    rows = _table([{**summary, **expected}])
    return inputs, results, rows, EXIT_OK if report.all_match else EXIT_MISMATCH


def _run_oeis(args: argparse.Namespace, _system: None) -> Output:
    # The terms are folded in Decimal: on a 2-CPU host, _decimal_str of each int term took
    # 95 ms where str of the Decimal terms took 5 for 1200 A067549 terms, and 1.4 s where it
    # took 32 ms for 3000. A rounding in the exact context would raise and exit 4.
    import decimal

    sequence = oeis_a067549 if args.sequence == "A067549" else oeis_a005867
    with decimal.localcontext(_exact_context()):
        values = sequence(args.terms, one=decimal.Decimal(1))

    def terms() -> Iterator[list[str]]:  # the decimal of each term is made as it is written
        return ([str(i), str(v)] for i, v in enumerate(values, start=1))

    inputs = {"sequence": args.sequence, "terms": str(args.terms)}
    return inputs, {"terms": terms()}, itertools.chain([["index", "value"]], terms()), EXIT_OK


def _time_best(fn, repeat: int, stop_ms: float = math.inf) -> tuple[float, Any]:
    """Best wall time in ms of up to ``repeat`` runs, stopping after the first
    run over ``stop_ms``, and the (identical) result."""
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = (time.perf_counter() - start) * 1000.0
        best = min(best, elapsed)
        if elapsed > stop_ms:
            break
    return best, result


def _run_bench(args: argparse.Namespace, _system: None) -> Output:
    if args.kmax < 2:
        raise ValidationError("--kmax must be >= 2")
    if args.repeat < 1:
        raise ValidationError("--repeat must be >= 1")
    if not (math.isfinite(args.timeout_ms) and args.timeout_ms >= 0):
        raise ValidationError(
            f"--timeout-ms must be a number, finite and >= 0, got {args.timeout_ms}"
        )
    if args.kmax > MAX_BENCH_KMAX:
        raise ResourceLimitError(f"--kmax {args.kmax} exceeds the bench limit {MAX_BENCH_KMAX}")
    # distinct primes by construction, as is each prefix, so none is tested again
    moduli = tuple(first_primes(args.kmax))
    records = []
    skipped = None  # why Bareiss is skipped from this k on
    product = 1
    for k, modulus in enumerate(moduli, start=1):
        product *= modulus
        system = ModulusSystem(moduli[:k], product)
        rec_ms, rec_det = _time_best(lambda: available_det(system), args.repeat)
        record: dict[str, Any] = {"k": str(k), "recurrence_ms": f"{rec_ms:.3f}"}
        if skipped is None:
            try:
                matrix = build_available_matrix(system)
            except ResourceLimitError:
                skipped = "skipped (size limit)"
        if skipped is None:
            bar_ms, bar_det = _time_best(lambda: det_bareiss(matrix), args.repeat, args.timeout_ms)
            record["bareiss_ms"] = f"{bar_ms:.3f}"
            record["agree"] = bar_det == rec_det
            if bar_ms > args.timeout_ms:
                skipped = "skipped (timeout)"
        else:
            record["bareiss_ms"] = skipped
            record["agree"] = None
        records.append(record)
    inputs = {
        "kmax": str(args.kmax),
        "repeat": str(args.repeat),
        "timeout_ms": f"{args.timeout_ms:.3f}",
    }
    return inputs, {"rows": records}, _table(records), EXIT_OK


def _json_pieces(value: Any, indent: str = "\n") -> Iterator[str]:
    """``json.dumps(value, indent=2)`` in pieces, for a value nested at ``indent``
    (a newline and the spaces before its closing bracket).

    A list may be any iterator, read as it is written, and a callable is called
    when it is reached. Only keys and scalars go through ``json.dumps``: whether
    json's C or its Python encoder renders ``indent`` differs between releases.
    """
    if callable(value):
        value = value()
    if isinstance(value, dict):
        brackets, members = "{}", ((json.dumps(key) + ": ", item) for key, item in value.items())
    elif isinstance(value, (list, tuple, Iterator)):
        brackets, members = "[]", (("", item) for item in value)
    else:
        yield json.dumps(value)
        return
    inner = indent + "  "
    empty = True
    for key, item in members:
        yield (brackets[0] if empty else ",") + inner + key
        empty = False
        yield from _json_pieces(item, inner)
    yield brackets if empty else indent + brackets[1]


def _line_pieces(rows: Iterable[Iterable[str]], separator: str) -> Iterator[str]:
    """Each row's cells joined by ``separator`` and ended by a newline, a cell a piece."""
    for row in rows:
        cells = iter(row)
        yield next(cells, "")
        for cell in cells:
            yield separator + cell
        yield "\n"


def _write(pieces: Iterable[str]) -> None:
    """Write ``pieces`` to stdout in batches of about ``WRITE_BATCH`` characters, and flush.

    After a failed write, stdout's file descriptor is pointed at os.devnull (as
    the note on SIGPIPE in Python's ``signal`` docs advises), so the
    interpreter's own flush at exit has somewhere to put what is left in the
    buffer and cannot fail, and print, a second time.
    """
    batch: list[str] = []
    size = 0
    try:
        for piece in pieces:
            batch.append(piece)
            size += len(piece)
            if size >= WRITE_BATCH:
                sys.stdout.write("".join(batch))
                batch, size = [], 0
        sys.stdout.write("".join(batch))
        sys.stdout.flush()
    except OSError:
        with contextlib.suppress(OSError):  # a stdout without a file descriptor
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        system = _system_from_args(args) if "primes" in args else None
        inputs, results, rows, exit_code = args.run(args, system)
        if getattr(args, "bfile", False):
            pieces = _line_pieces(itertools.islice(rows, 1, None), " ")
        elif args.format == "csv":
            pieces = _line_pieces(rows, ",")
        else:
            if system is not None:
                moduli = [str(m) for m in system.moduli]
                inputs = {"moduli": moduli, "coprime": args.coprime, **inputs}
            record = {
                "command": args.command,
                "inputs": inputs,
                "results": results,
                "timing_ms": (
                    lambda: f"{(time.perf_counter() - started) * 1000.0:.3f}"
                ) if args.timing else None,
            }
            pieces = itertools.chain(_json_pieces(record), ["\n"])
        _write(pieces)
    except ApcoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # a defect or a failed write; exit 1 stays reserved for a mismatch
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return exit_code
