"""Expected CLI results, computed by the benchmark's own arithmetic.

Nothing here imports apcover. Every value an invocation is checked against
comes from a plain polynomial product or a recurrence written for the
benchmark, so a defect in a route under test cannot also hide in the
expectation. The checker also insists that repeating an argv gives
byte-identical stdout.
"""

from __future__ import annotations

import json
import math

# First five terms as published in the OEIS entries.
GOLDEN = {"A067549": (2, 5, 22, 140, 1448), "A005867": (1, 2, 8, 48, 480)}


def primes(count: int) -> list[int]:
    """The first ``count`` primes by trial division against smaller primes."""
    found: list[int] = []
    n = 2
    while len(found) < count:
        if all(n % p for p in found if p * p <= n):
            found.append(n)
        n += 1
    return found


def histogram(moduli: tuple[int, ...]) -> list[int]:
    """Coefficients of prod((m - 1) + x): integers covered exactly j times."""
    coeffs = [1]
    for m in moduli:
        coeffs = [
            (m - 1) * (coeffs[j] if j < len(coeffs) else 0)
            + (coeffs[j - 1] if j > 0 else 0)
            for j in range(len(coeffs) + 1)
        ]
    return coeffs


def counts(moduli: tuple[int, ...]) -> dict[str, str]:
    """The four counts as the CLI renders them: exact decimal strings."""
    product = math.prod(moduli)
    h = histogram(moduli)
    available = h[0] + h[1]
    return {
        "available": str(available),
        "free": str(math.prod(m - 1 for m in moduli)),
        "occupied": str(product - available),
        "product": str(product),
    }


def sequence(name: str, n_terms: int) -> list[int]:
    """A067549 (available) or A005867 (free) over the first primes, by recurrence."""
    avail, free, terms = 1, 1, []
    for p in primes(n_terms):
        avail, free = free + (p - 1) * avail, free * (p - 1)
        terms.append(avail if name == "A067549" else free)
    golden = GOLDEN[name][: len(terms)]
    if tuple(terms[: len(golden)]) != golden:
        raise RuntimeError(f"benchmark recurrence disagrees with OEIS {name}")
    return terms


def flags(argv: tuple[str, ...]) -> dict[str, str | bool]:
    """``--name value`` pairs and bare ``--switch`` flags of a generated argv."""
    out: dict[str, str | bool] = {}
    i = 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[argv[i]] = argv[i + 1]
            i += 2
        else:
            out[argv[i]] = True
            i += 1
    return out


def moduli_of(argv: tuple[str, ...]) -> tuple[int, ...]:
    f = flags(argv)
    if "--first-k" in f:
        return tuple(primes(int(f["--first-k"])))
    return tuple(int(m) for m in str(f["--primes"]).split(","))


def sieved(argv: tuple[str, ...]) -> int:
    """Integers a ``verify`` invocation sieves: product x assignments; else 0."""
    if argv[0] != "verify":
        return 0
    f = flags(argv)
    product = math.prod(moduli_of(argv))
    return product * (product if "--exhaustive" in f else int(f.get("--trials", 20)))


def expected_stdout_check(argv: tuple[str, ...]):
    """A function that takes stdout text and returns None or a reason it is wrong."""
    f = flags(argv)
    command = argv[0]
    fmt = f.get("--format", "json")
    if command == "oeis":
        name, n = str(f["--sequence"]), int(f["--terms"])
        values = [str(v) for v in sequence(name, n)]
        if "--bfile" in f:
            text = "".join(f"{i} {v}\n" for i, v in enumerate(values, start=1))
            return lambda out: None if out == text else "b-file lines differ"
        terms = [[str(i), v] for i, v in enumerate(values, start=1)]
        return _json_record(None, lambda r: r == {"terms": terms}, "terms differ")
    moduli = moduli_of(argv)
    expect = counts(moduli)
    echoed = [str(m) for m in moduli]
    if command == "count":
        hist = [str(c) for c in histogram(moduli)]
        if fmt == "csv":
            header = list(expect) + [f"j{j}" for j in range(len(hist))]
            text = ",".join(header) + "\n" + ",".join(list(expect.values()) + hist) + "\n"
            return lambda out: None if out == text else "csv row differs"
        want = {**expect, "histogram": hist}
        return _json_record(echoed, lambda r: r == want, "counts or histogram differ")
    if command == "det" and fmt == "json":
        value = expect[str(f["--which"])]
        return _json_record(echoed, lambda r: r == {"value": value}, "determinant differs")
    if command == "verify" and fmt == "json":
        tested = str(sieved(argv) // math.prod(moduli))
        want = {"assignments_tested": tested, "all_match": True, "expected": expect,
                "mismatches": []}
        return _json_record(
            echoed,
            lambda r: {key: r.get(key) for key in want} == want,
            "verify did not report all_match over the expected assignments",
        )
    raise ValueError(f"no output check for {argv}")


def _json_record(moduli: list[str] | None, accept, reason: str):
    """Check of a JSON record: its results, and the moduli it echoes, if any."""
    def check(out: str) -> str | None:
        try:
            record = json.loads(out)
            results, inputs = record["results"], record["inputs"]
        except (ValueError, KeyError, TypeError):
            return "stdout is not a JSON record with inputs and results"
        if moduli is not None and inputs.get("moduli") != moduli:
            return "echoed moduli differ"
        return None if accept(results) else reason

    return check


class Checker:
    """Checks every outcome of a fixed set of argvs against precomputed values."""

    def __init__(self, argvs):
        self._checks = {argv: expected_stdout_check(argv) for argv in set(argvs)}
        self._first_stdout: dict[tuple[str, ...], bytes] = {}

    def check(self, argv: tuple[str, ...], exit_code: int, stdout: bytes) -> str | None:
        """None when the invocation is correct, else the first reason it is not."""
        if exit_code != 0:
            return f"exit code {exit_code}"
        if self._first_stdout.setdefault(argv, stdout) != stdout:
            return "stdout differs from an earlier run of the same argv"
        try:
            text = stdout.decode()
        except UnicodeDecodeError:
            return "stdout is not UTF-8"
        return self._checks[argv](text)
