import errno
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest

import apcover.cli as cli
import apcover.determinant
from apcover.core import CoverageCounts, is_prime, validate_modulus_system
from apcover.counting import (
    coverage_counts,
    exact_coverage_histogram,
    first_primes,
    oeis_a005867,
    oeis_a067549,
)
from apcover.determinant import available_det, free_det
from apcover.oracle import DEFAULT_PRODUCT_LIMIT, IndependenceReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_count_golden(capsys):
    code, record, _ = run_json(capsys, "count", "--primes", "2,3,5")
    assert code == 0
    assert record["command"] == "count"
    assert record["inputs"]["moduli"] == ["2", "3", "5"]
    results = record["results"]
    assert results["available"] == "22"
    assert results["free"] == "8"
    assert results["occupied"] == "8"
    assert results["histogram"] == ["8", "14", "7", "1"]
    assert record["timing_ms"] is None


def test_readme_example_is_the_real_output(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    prompt = "$ apcover count --primes 2,3,5\n"
    start = readme.index(prompt) + len(prompt)
    example = readme[start : readme.index("```", start)]
    assert run(capsys, "count", "--primes", "2,3,5") == (0, example, "")


def test_count_single_prime(capsys):
    code, record, _ = run_json(capsys, "count", "--primes", "2")
    assert code == 0
    assert record["results"]["available"] == "2"
    assert record["results"]["free"] == "1"


def test_count_rejects_composite_with_exit_2(capsys):
    code, out, err = run(capsys, "count", "--primes", "4,3")
    assert code == 2
    assert out == ""
    assert "4" in err and "prime" in err


def test_count_first_k_expansion(capsys):
    code, record, _ = run_json(capsys, "count", "--first-k", "4")
    assert code == 0
    assert record["inputs"]["moduli"] == ["2", "3", "5", "7"]
    assert record["results"]["available"] == "140"


def test_count_coprime_mode(capsys):
    code, record, _ = run_json(capsys, "count", "--primes", "4,9", "--coprime")
    assert code == 0
    assert record["inputs"]["coprime"] is True
    assert record["results"]["available"] == "35"
    assert record["results"]["free"] == "24"


def test_count_past_the_old_histogram_cap(capsys):
    code, record, _ = run_json(capsys, "count", "--first-k", "26")
    assert code == 0
    results = record["results"]
    assert len(results["histogram"]) == 27
    assert results["histogram"][0] == results["free"]
    assert sum(int(c) for c in results["histogram"]) == int(results["product"])


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--primes", "2,3,5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "available,free,occupied,product,j0,j1,j2,j3"
    assert lines[1] == "22,8,8,30,8,14,7,1"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("det", "--primes", "2,3,5", "--which", "free", "--method", "bareiss"),
         "which,method,value\nfree,bareiss,8\n"),
        (("verify", "--primes", "2,3,5", "--exhaustive"),
         "mode,assignments_tested,all_match,available,free,occupied,product\n"
         "exhaustive,30,true,22,8,8,30\n"),
        # --bfile wins over --format csv
        (("oeis", "--sequence", "A005867", "--terms", "3", "--bfile"), "1 1\n2 2\n3 8\n"),
    ],
    ids=["det", "verify", "oeis-bfile"],
)
def test_csv_bytes(capsys, argv, expected):
    assert run(capsys, *argv, "--format", "csv") == (0, expected, "")


@pytest.mark.parametrize(
    "method,which,expected",
    [
        ("recurrence", "available", "1448"),
        ("bareiss", "available", "1448"),
        ("laplace", "available", "1448"),
        ("recurrence", "free", "480"),
        ("bareiss", "free", "480"),
        ("laplace", "free", "480"),
    ],
)
def test_det_methods_agree(capsys, method, which, expected):
    code, record, _ = run_json(
        capsys, "det", "--primes", "2,3,5,7,11", "--which", which, "--method", method
    )
    assert code == 0
    assert record["results"]["value"] == expected


def test_det_free_bareiss_small(capsys):
    code, record, _ = run_json(
        capsys, "det", "--primes", "2,3", "--which", "free", "--method", "bareiss"
    )
    assert code == 0
    assert record["results"]["value"] == "2"


def test_det_available_bareiss_generalized(capsys):
    code, record, _ = run_json(
        capsys, "det", "--primes", "3,5,7", "--which", "available", "--method", "bareiss"
    )
    assert code == 0
    assert record["results"]["value"] == "92"


def test_det_laplace_cap_exits_2(capsys):
    # free matrix of 12 moduli is 13x13, over the expansion cap
    code, _, err = run(
        capsys, "det", "--first-k", "12", "--which", "free", "--method", "laplace"
    )
    assert code == 2
    assert "dimension" in err
    # the available matrix of 12 moduli is exactly at the cap
    code, record, _ = run_json(
        capsys, "det", "--first-k", "12", "--which", "available", "--method", "laplace"
    )
    assert code == 0
    assert record["results"]["value"] == "3708532408320"


def test_verify_exhaustive(capsys):
    code, record, _ = run_json(capsys, "verify", "--primes", "2,3,5", "--exhaustive")
    assert code == 0
    results = record["results"]
    assert results["mode"] == "exhaustive"
    assert results["assignments_tested"] == "30"
    assert results["all_match"] is True
    assert results["expected"]["available"] == "22"
    assert results["mismatches"] == []


def test_verify_single_trial(capsys):
    code, record, _ = run_json(
        capsys, "verify", "--primes", "2,3", "--trials", "1", "--seed", "0"
    )
    assert code == 0
    assert record["results"]["assignments_tested"] == "1"
    assert record["results"]["expected"]["available"] == "5"
    assert record["results"]["expected"]["free"] == "2"


def test_verify_seven_primes_random_trials(capsys):
    code, record, _ = run_json(
        capsys,
        "verify", "--primes", "2,3,5,7,11,13,17", "--trials", "20", "--seed", "7",
    )
    assert code == 0
    results = record["results"]
    assert results["assignments_tested"] == "20"
    assert results["all_match"] is True
    assert results["expected"]["product"] == "510510"


def test_verify_product_limit_exits_3(capsys):
    code, out, err = run(capsys, "verify", "--primes", "2,3,5", "--limit", "10")
    assert code == 3
    assert out == ""
    assert "exceeds" in err


def test_verify_exhaustive_budget_exits_3(capsys):
    # 3*5*7*11*13*17*19 = 4849845 assignments, over the exhaustive budget
    code, out, err = run(
        capsys, "verify", "--primes", "3,5,7,11,13,17,19", "--exhaustive"
    )
    assert code == 3
    assert out == ""
    assert "exhaustive" in err


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    fake = IndependenceReport(
        assignments_tested=1,
        all_match=False,
        expected=CoverageCounts(available=5, free=2, occupied=1, product=6),
        mismatches=(((0, 0), CoverageCounts(available=6, free=3, occupied=0, product=6)),),
    )
    monkeypatch.setattr(cli, "residue_independence_check", lambda *a, **kw: fake)
    code, record, _ = run_json(capsys, "verify", "--primes", "2,3")
    assert code == 1
    assert record["results"]["all_match"] is False
    assert record["results"]["mismatches"][0]["observed"]["available"] == "6"
    code, out, _ = run(capsys, "verify", "--primes", "2,3", "--format", "csv")
    assert code == 1
    assert out.splitlines()[1] == "random,1,false,5,2,1,6"


FOUR_HUNDRED_ONE_DIGITS = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv, code, reason",
    [
        (("count", "--primes", "4,3"), 2, "modulus 4 is not prime"),
        (("count", "--primes", ","), 2, "at least one modulus is required"),
        (("det", "--first-k", "12", "--which", "free", "--method", "laplace"), 2,
         "limited to dimension 12, got 13"),
        (("verify", "--primes", "2,3", "--trials", "0"), 2, "trials must be >= 1"),
        (("verify", "--primes", "2,3", "--threads", "-1"), 2, "threads must be >= 0"),
        (("verify", "--primes", "2,3", "--limit", "0"), 2, "product_limit must be >= 1"),
        # the check refuses its trials before its limit
        (("verify", "--primes", "2,3", "--trials", "0", "--limit", "0"), 2,
         "error: trials must be >= 1\n"),
        # verify refuses its own --threads before the library reads --limit
        (("verify", "--primes", "2,3", "--limit", "0", "--threads", "-1"), 2,
         "error: threads must be >= 0\n"),
        (("verify", "--primes", "2,3,5", "--limit", "10"), 3,
         "product 30 exceeds sieve limit 10"),
        (("verify", "--primes", "3,5,7,11,13,17,19", "--exhaustive"), 3,
         "exceed the exhaustive budget"),
        (("verify", "--primes", "2,3,5,7,11,13,17", "--exhaustive"), 3,
         "260620460100 integers to sieve exceed the exhaustive budget"),
        # first_primes alone refuses a count below 1, for --first-k and --terms alike
        (("count", "--first-k", "0"), 2, "need at least 1 prime, got 0"),
        (("oeis", "--sequence", "A067549", "--terms", "0"), 2, "need at least 1 prime, got 0"),
        (("count", "--first-k", FOUR_HUNDRED_ONE_DIGITS), 3, "first-primes limit"),
        (("oeis", "--sequence", "A005867", "--terms", FOUR_HUNDRED_ONE_DIGITS), 3,
         "first-primes limit"),
        (("verify", "--first-k", "9", "--trials", "1000000"), 3,
         "223092870000000 integers to sieve exceed the random budget 10000000000"),
        (("verify", "--first-k", "25", "--limit", str(10**40), "--trials", "1"), 3,
         "2305567963945518424753102147331756070 integers to sieve exceed the random budget"),
        (("verify", "--first-k", "16", "--limit", str(10**20)), 3,
         "651783169543800894600 integers to sieve exceed the random budget"),
        # the window limit is checked before the budget, in both modes
        (("verify", "--first-k", "10", "--exhaustive"), 3,
         "product 6469693230 exceeds sieve limit 1000000000"),
        # each sieve call is charged at least SIEVE_CALL_INTEGERS = 16384 integers
        (("verify", "--primes", "2,3", "--trials", "1000000000"), 3,
         "16384000000000 integers to sieve exceed the random budget 10000000000"),
        # 2.4 million trials of 30-35 us each (product 6, 2-CPU host) would run 73-83 s;
        # the limit is ~610000 trials
        (("verify", "--primes", "2,3", "--trials", "2400000"), 3,
         "39321600000 integers to sieve exceed the random budget 10000000000"),
        (("det", "--first-k", "30000", "--which", "available", "--method", "bareiss"), 3,
         "matrix dimension 30000 exceeds the limit 300"),
        (("det", "--first-k", "300", "--which", "free", "--method", "laplace"), 3,
         "matrix dimension 301 exceeds the limit 300"),
        (("bench", "--kmax", "1001"), 3, "--kmax 1001 exceeds the bench limit 1000"),
        (("bench", "--kmax", "2", "--repeat", "0"), 2, "--repeat must be >= 1"),
        # NaN compares false with every time and inf exceeds none, so either would silently
        # mean "never skip"; a negative value would mean "skip after k = 1"
        (("bench", "--kmax", "2", "--timeout-ms", "nan"), 2, "--timeout-ms must be a number"),
        (("bench", "--kmax", "2", "--timeout-ms", "-1"), 2,
         "--timeout-ms must be a number, finite and >= 0, got -1.0"),
        (("bench", "--kmax", "2", "--timeout-ms", "inf"), 2,
         "--timeout-ms must be a number, finite and >= 0, got inf"),
        # argparse's own refusals take the same one-line path
        (("count", "--first-k", "abc"), 2, "error: argument --first-k: invalid int value: 'abc'"),
        (("count",), 2, "one of the arguments --primes --first-k is required"),
        (("det", "--primes", "2,3", "--which", "both"), 2,
         "argument --which: invalid choice: 'both'"),
        (("frobnicate",), 2, "invalid choice: 'frobnicate'"),
    ],
    ids=[
        "composite", "empty", "laplace-dimension-13", "trials-0", "threads-negative",
        "limit-0", "trials-0-limit-0", "limit-0-threads-negative", "over-limit",
        "exhaustive-4849845", "exhaustive-510510",
        "first-k-0", "terms-0", "first-k-401-digits", "terms-401-digits", "random-1000000-trials",
        "random-limit-1e40", "random-limit-1e20", "exhaustive-over-limit",
        "random-call-minimum", "random-call-minimum-2400000", "bareiss-dimension-30000",
        "free-dimension-301",
        "bench-kmax-1001", "bench-repeat-0", "bench-timeout-nan", "bench-timeout-negative",
        "bench-timeout-inf",
        "argparse-not-an-int", "argparse-no-moduli",
        "argparse-bad-choice", "argparse-unknown-command",
    ],
)
def test_refusal_is_one_error_line(capsys, argv, code, reason):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err
    assert "Traceback" not in err and "usage:" not in err


def test_internal_error_exits_4_in_one_line(capsys, monkeypatch):
    def broken(args, system):
        raise KeyError("histogram")

    monkeypatch.setattr(cli, "_run_count", broken)
    code, out, err = run(capsys, "count", "--primes", "2,3")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "error: internal: KeyError: 'histogram'\n"


class FailingStdout(io.StringIO):
    """A stdout that keeps its first write and raises ``error`` on every later one."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        if self.tell():
            raise self.error
        return super().write(text)


@pytest.mark.parametrize(
    "error",
    [OSError(errno.ENOSPC, "No space left on device"), BrokenPipeError(errno.EPIPE, "Broken pipe")],
    ids=["disk-full", "reader-gone"],
)
def test_failed_write_exits_4_in_one_line(capsys, monkeypatch, error):
    stdout = FailingStdout(error)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = cli.main(["oeis", "--sequence", "A067549", "--terms", "3000", "--bfile"])
    assert code == 4
    assert capsys.readouterr().err == f"error: internal: {type(error).__name__}: {error}\n"
    # what was written before the failure stays written
    assert stdout.getvalue().startswith("1 2\n2 5\n3 22\n4 140\n")


def test_closed_pipe_exits_4_in_one_line():
    # block-buffered stdout still holds output when the write fails; the
    # interpreter's flush at exit must not fail and print a second time
    env = env_with_src()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "apcover", "count", "--primes", "2,3,5"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (
        4, "error: internal: BrokenPipeError: [Errno 32] Broken pipe\n"
    )


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["count", "--help"])
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: apcover count") and err == ""


def test_oeis_bfile_bytes(capsys):
    code, out, _ = run(
        capsys, "oeis", "--sequence", "A005867", "--terms", "5", "--bfile"
    )
    assert code == 0
    assert out == "1 1\n2 2\n3 8\n4 48\n5 480\n"


def test_oeis_bfile_first_term(capsys):
    code, out, _ = run(capsys, "oeis", "--sequence", "A067549", "--terms", "1", "--bfile")
    assert code == 0
    assert out == "1 2\n"


def test_oeis_bfile_300_terms(capsys):
    from apcover.counting import first_primes
    from apcover.determinant import build_available_matrix, det_bareiss
    from apcover.core import validate_modulus_system

    code, out, _ = run(
        capsys, "oeis", "--sequence", "A067549", "--terms", "300", "--bfile"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 300
    assert lines[0] == "1 2"
    assert out.endswith("\n")
    for index in (10, 50):
        s = validate_modulus_system(first_primes(index))
        expected = det_bareiss(build_available_matrix(s))
        assert lines[index - 1] == f"{index} {expected}"


def test_oeis_json_table(capsys):
    code, record, _ = run_json(capsys, "oeis", "--sequence", "A067549", "--terms", "5")
    assert code == 0
    assert record["results"]["terms"] == [
        ["1", "2"],
        ["2", "5"],
        ["3", "22"],
        ["4", "140"],
        ["5", "1448"],
    ]


def test_oeis_csv(capsys):
    code, out, _ = run(
        capsys, "oeis", "--sequence", "A005867", "--terms", "3", "--format", "csv"
    )
    assert code == 0
    assert out == "index,value\n1,1\n2,2\n3,8\n"


def test_oeis_rejects_bad_terms(capsys):
    code, _, err = run(capsys, "oeis", "--sequence", "A005867", "--terms", "0")
    assert code == 2
    assert err == "error: need at least 1 prime, got 0\n"


def test_bench_small(capsys):
    code, record, _ = run_json(capsys, "bench", "--kmax", "4", "--repeat", "1")
    assert code == 0
    rows = record["results"]["rows"]
    assert [r["k"] for r in rows] == ["1", "2", "3", "4"]
    assert all(r["agree"] is True for r in rows)
    assert rows[1]["recurrence_ms"] != ""


def test_bench_timeout_skips_later_bareiss_rows(capsys):
    code, record, _ = run_json(
        capsys, "bench", "--kmax", "5", "--repeat", "1", "--timeout-ms", "0.000001"
    )
    assert code == 0
    rows = record["results"]["rows"]
    # the first row is measured (and over budget); everything after is skipped
    assert rows[0]["bareiss_ms"] != "skipped (timeout)"
    assert rows[0]["agree"] is True
    assert all(r["bareiss_ms"] == "skipped (timeout)" for r in rows[1:])
    assert all(r["agree"] is None for r in rows[1:])
    code, out, _ = run(
        capsys, "bench", "--kmax", "5", "--repeat", "1", "--timeout-ms", "0.000001",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1].endswith(",true")
    assert all(line.endswith(",skipped (timeout),") for line in lines[2:])
    assert len(lines) == 6


def test_bench_takes_its_primes_without_validating_them(capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return validate_modulus_system(*args, **kwargs)

    monkeypatch.setattr(cli, "validate_modulus_system", counted)
    code, record, _ = run_json(capsys, "bench", "--kmax", "6", "--repeat", "1")
    assert code == 0
    assert calls == []
    rows = record["results"]["rows"]
    assert [r["k"] for r in rows] == ["1", "2", "3", "4", "5", "6"]
    assert all(r["agree"] is True for r in rows)


def test_bench_skips_bareiss_past_the_matrix_size_limit(capsys, monkeypatch):
    # the matrix builder owns the limit; bench labels the rows it refuses
    monkeypatch.setattr(apcover.determinant, "MAX_MATRIX_DIMENSION", 3)
    code, record, _ = run_json(capsys, "bench", "--kmax", "5", "--repeat", "1")
    assert code == 0
    rows = record["results"]["rows"]
    assert all(r["agree"] is True for r in rows[:3])
    assert all(r["bareiss_ms"] == "skipped (size limit)" for r in rows[3:])
    assert all(r["agree"] is None for r in rows[3:])


def test_bench_rejects_kmax_below_2(capsys):
    code, _, err = run(capsys, "bench", "--kmax", "1")
    assert code == 2
    assert "kmax" in err


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", "--kmax", "2", "--repeat", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,recurrence_ms,bareiss_ms,agree"
    assert len(lines) == 3


def test_json_numbers_round_trip(capsys):
    _, record, _ = run_json(capsys, "count", "--first-k", "9")
    results = record["results"]
    total = int(results["product"])
    assert int(results["available"]) + int(results["occupied"]) == total
    assert sum(int(c) for c in results["histogram"]) == total
    for value in [*results["histogram"], results["available"], results["free"]]:
        assert str(int(value)) == value


def test_output_is_reproducible_in_process(capsys):
    args = ["verify", "--primes", "2,3,5,7", "--trials", "5", "--seed", "1"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_timing_flag_adds_wall_clock(capsys):
    code, record, _ = run_json(capsys, "count", "--primes", "2,3", "--timing")
    assert code == 0
    assert record["timing_ms"] is not None
    float(record["timing_ms"])


# Python >= 3.11 refuses int<->str conversions past 4300 digits by default;
# the outputs below are all at least 5000 digits long.


def decimal(n):
    """n in decimal by libmpdec's own conversion, to which no digit limit applies."""
    return str(Decimal(n))


def test_count_needs_no_change_to_the_digit_limit(capsys, monkeypatch):
    def refuse(limit):
        raise AssertionError(f"the digit limit was set to {limit}")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
    code, record, _ = run_json(capsys, "count", "--first-k", "1500")
    assert code == 0
    assert record["results"]["product"] == decimal(math.prod(first_primes(1500)))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int<->str digit limit")
def test_output_is_the_same_under_the_lowest_digit_limit(capsys):
    argv = ("count", "--first-k", "1500")
    default = run(capsys, *argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the lowest limit Python allows
    try:
        lowest = run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert default[0] == 0
    assert lowest == default


def primes_below_2_64(count):
    primes = []
    n = 2**64 - 1
    while len(primes) < count:
        if is_prime(n):
            primes.append(n)
        n -= 2
    return primes


def test_count_prints_every_digit(capsys):
    moduli = primes_below_2_64(270)
    code, record, _ = run_json(capsys, "count", "--primes", ",".join(map(str, moduli)))
    assert code == 0
    results = record["results"]
    assert len(results["product"]) >= 5000
    assert results["product"] == decimal(math.prod(moduli))
    assert results["free"] == decimal(math.prod(p - 1 for p in moduli))
    assert results["histogram"][0] == results["free"]
    assert results["histogram"][-1] == "1"


def test_det_prints_every_digit(capsys):
    code, record, _ = run_json(capsys, "det", "--first-k", "1450", "--which", "available")
    assert code == 0
    value = record["results"]["value"]
    assert len(value) >= 5000
    assert value == decimal(available_det(validate_modulus_system(first_primes(1450))))


def test_oeis_prints_every_digit(capsys):
    expected = decimal(math.prod(p - 1 for p in first_primes(1450)))
    assert len(expected) >= 5000
    code, record, _ = run_json(capsys, "oeis", "--sequence", "A005867", "--terms", "1450")
    assert code == 0
    assert record["results"]["terms"][-1] == ["1450", expected]
    code, out, _ = run(
        capsys, "oeis", "--sequence", "A005867", "--terms", "1450", "--bfile"
    )
    assert code == 0
    assert out.splitlines()[-1] == f"1450 {expected}"


# oeis folds its terms in Decimal; every other path prints core._decimal_str of an int
ROUTE_TERMS = (1, 2, 30, 300, 1450, 2500)


@functools.cache
def int_fold_in_decimal(sequence):
    """The decimal of each of the int fold's first max(ROUTE_TERMS) terms."""
    fold = oeis_a067549 if sequence == "A067549" else oeis_a005867
    return tuple(decimal(value) for value in fold(max(ROUTE_TERMS)))


@pytest.mark.parametrize("terms", ROUTE_TERMS)
@pytest.mark.parametrize("sequence", ["A067549", "A005867"])
def test_oeis_prints_the_int_fold_byte_for_byte(capsys, sequence, terms):
    rows = [[str(i), v] for i, v in enumerate(int_fold_in_decimal(sequence)[:terms], start=1)]
    record = {
        "command": "oeis",
        "inputs": {"sequence": sequence, "terms": str(terms)},
        "results": {"terms": rows},
        "timing_ms": None,
    }
    expected = {
        (): json.dumps(record, indent=2) + "\n",
        ("--format", "csv"): "index,value\n" + "".join(f"{i},{v}\n" for i, v in rows),
        ("--bfile",): "".join(f"{i} {v}\n" for i, v in rows),
    }
    for flags, stdout in expected.items():
        got = run(capsys, "oeis", "--sequence", sequence, "--terms", str(terms), *flags)
        assert got == (0, stdout, ""), flags


def test_oeis_bfile_memory_stays_near_its_terms(monkeypatch):
    # 16.6 MB of b-file; the 3000 Decimal terms alone take about 7 MiB of it in memory
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = cli.main(["oeis", "--sequence", "A067549", "--terms", "3000", "--bfile"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 12 * 2**20


def assert_streams_its_values(capsys, argv, code, inputs, results, rows):
    """stdout of ``argv`` in JSON (also under --timing, its value masked) and CSV
    equals json.dumps and str.join of the values it was made from."""
    command = argv[0]
    if "--primes" in argv or "--first-k" in argv:
        system = system_of(argv)
        coprime = {"coprime": "--coprime" in argv}
        inputs = {"moduli": [str(m) for m in system.moduli], **coprime, **inputs}
    record = {"command": command, "inputs": inputs, "results": results, "timing_ms": None}
    json_out = json.dumps(record, indent=2) + "\n"
    assert run(capsys, *argv) == (code, json_out, "")
    assert run(capsys, *argv, "--format", "csv") == (
        code, "".join(",".join(row) + "\n" for row in rows), ""
    )
    got, out, err = run(capsys, *argv, "--timing")
    masked = re.sub(r'\n  "timing_ms": "\d+\.\d{3}"\n}\n$', '\n  "timing_ms": null\n}\n', out)
    assert (got, masked, err) == (code, json_out, "")


def system_of(argv):
    if "--first-k" in argv:
        moduli = first_primes(int(argv[argv.index("--first-k") + 1]))
    else:
        moduli = [int(m) for m in argv[argv.index("--primes") + 1].split(",")]
    return validate_modulus_system(moduli, coprime_mode="--coprime" in argv)


def str_counts(counts):
    return {name: str(value) for name, value in counts._asdict().items()}


@pytest.mark.parametrize(
    "argv",
    [("--primes", "2,3,5"), ("--primes", "4,9", "--coprime"), ("--first-k", "40")],
    ids=["primes", "coprime", "first-k"],
)
def test_count_streams_its_values_byte_for_byte(capsys, argv):
    system = system_of(argv)
    counts = str_counts(coverage_counts(system))
    histogram = [str(c) for c in exact_coverage_histogram(system)]
    rows = [
        [*counts, *(f"j{j}" for j in range(len(histogram)))],
        [*counts.values(), *histogram],
    ]
    results = {**counts, "histogram": histogram}
    assert_streams_its_values(capsys, ("count", *argv), 0, {}, results, rows)


@pytest.mark.parametrize("which", ["available", "free"])
@pytest.mark.parametrize(
    "argv",
    [("--first-k", "6", "--method", "bareiss"), ("--primes", "5,2,3", "--method", "laplace"),
     ("--first-k", "300",)],
    ids=["bareiss", "laplace", "recurrence"],
)
def test_det_streams_its_values_byte_for_byte(capsys, argv, which):
    system = system_of(argv)
    method = argv[argv.index("--method") + 1] if "--method" in argv else "recurrence"
    value = str(available_det(system) if which == "available" else free_det(system))
    inputs = {"which": which, "method": method}
    rows = [["which", "method", "value"], [which, method, value]]
    assert_streams_its_values(
        capsys, ("det", *argv, "--which", which), 0, inputs, {"value": value}, rows
    )


VERIFY_HEADER = ["mode", "assignments_tested", "all_match", "available", "free", "occupied", "product"]


def test_verify_streams_its_values_byte_for_byte(capsys):
    argv = ("verify", "--primes", "2,3,5", "--exhaustive")
    counts = str_counts(coverage_counts(system_of(argv)))
    inputs = {"trials": "20", "seed": "0", "exhaustive": True, "limit": str(DEFAULT_PRODUCT_LIMIT)}
    results = {
        "mode": "exhaustive", "assignments_tested": "30", "all_match": True,
        "expected": counts, "mismatches": [],
    }
    rows = [VERIFY_HEADER, ["exhaustive", "30", "true", *counts.values()]]
    assert_streams_its_values(capsys, argv, 0, inputs, results, rows)


def test_verify_mismatches_stream_byte_for_byte(capsys, monkeypatch):
    expected = CoverageCounts(available=5, free=2, occupied=1, product=6)
    mismatches = (
        ((0, 0), CoverageCounts(available=6, free=3, occupied=0, product=6)),
        ((1, 2), CoverageCounts(available=4, free=1, occupied=2, product=6)),
    )
    fake = IndependenceReport(
        assignments_tested=7, all_match=False, expected=expected, mismatches=mismatches
    )
    monkeypatch.setattr(cli, "residue_independence_check", lambda *a, **kw: fake)
    argv = ("verify", "--primes", "2,3", "--trials", "7", "--seed", "3")
    inputs = {"trials": "7", "seed": "3", "exhaustive": False, "limit": str(DEFAULT_PRODUCT_LIMIT)}
    results = {
        "mode": "random", "assignments_tested": "7", "all_match": False,
        "expected": str_counts(expected),
        "mismatches": [
            {"residues": [str(r) for r in residues], "observed": str_counts(observed)}
            for residues, observed in mismatches
        ],
    }
    rows = [VERIFY_HEADER, ["random", "7", "false", "5", "2", "1", "6"]]
    assert_streams_its_values(capsys, argv, 1, inputs, results, rows)


def test_bench_streams_its_values_byte_for_byte(capsys, monkeypatch):
    # every run takes 1 ms, so Bareiss is over the 0.5 ms timeout at k = 1 and skipped after
    monkeypatch.setattr(cli, "_time_best", lambda fn, repeat, stop_ms=math.inf: (1.0, fn()))
    argv = ("bench", "--kmax", "4", "--repeat", "2", "--timeout-ms", "0.5")
    records = [{"k": "1", "recurrence_ms": "1.000", "bareiss_ms": "1.000", "agree": True}] + [
        {"k": str(k), "recurrence_ms": "1.000", "bareiss_ms": "skipped (timeout)", "agree": None}
        for k in range(2, 5)
    ]
    rows = [["k", "recurrence_ms", "bareiss_ms", "agree"], ["1", "1.000", "1.000", "true"]] + [
        [str(k), "1.000", "skipped (timeout)", ""] for k in range(2, 5)
    ]
    inputs = {"kmax": "4", "repeat": "2", "timeout_ms": "0.500"}
    assert_streams_its_values(capsys, argv, 0, inputs, {"rows": records}, rows)


@pytest.mark.parametrize("sequence", ["A067549", "A005867"])
def test_oeis_rounding_exits_4_and_prints_nothing(capsys, monkeypatch, sequence):
    import decimal as decimal_module

    # the 100th terms have over 200 digits, so a 50-digit context must round
    monkeypatch.setattr(decimal_module, "MAX_PREC", 50)
    code, out, err = run(capsys, "oeis", "--sequence", sequence, "--terms", "100")
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal: ") and err.count("\n") == 1


def test_verify_refusal_names_a_long_product_in_one_line(capsys):
    code, out, err = run(capsys, "verify", "--first-k", "1450")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "exceeds" in err
    assert len(err) >= 5000


def test_long_modulus_token_is_refused_in_one_line(capsys):
    code, out, err = run(capsys, "count", "--primes", "9" * 5000)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, choices", [
    (("det", "--primes", "2,3", "--which", "both"), "--which: invalid choice: 'both' (choose from"
     " 'available', 'free')"),
    (("frobnicate",), "command: invalid choice: 'frobnicate' (choose from 'count', 'det',"
     " 'verify', 'oeis', 'bench')"),
])
def test_bad_choice_refusal_quotes_the_choices_on_every_python(capsys, argv, choices):
    # argparse itself stopped quoting them in later releases (3.13.13, not 3.13.0)
    assert run(capsys, *argv) == (2, "", f"error: argument {choices}\n")


SRC = Path(__file__).resolve().parent.parent / "src"


def env_with_src():
    """This process's environment with ``src`` first on PYTHONPATH, for a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import apcover.cli", False),
        ("import apcover.cli; apcover.cli.main(['count', '--primes', '2,3,5'])", False),
        ("import apcover.cli; apcover.cli.main(['verify', '--primes', '2,3', '--trials', '1'])",
         True),
        # an exhaustive check fills and counts byte strings on the standard library
        ("import apcover.cli; apcover.cli.main(['verify', '--primes', '2,3,5', '--exhaustive'])",
         False),
        # product 6469693230 is over the default --limit: refused before any sieving
        ("import apcover.cli; apcover.cli.main(['verify', '--first-k', '10'])", False),
    ],
    ids=["import", "count", "verify", "verify-exhaustive", "verify-refused"],
)
def test_numpy_is_loaded_only_by_the_sieve(code, loaded):
    assert ("numpy" in modules_loaded_after(code, ("numpy",))) == loaded


# modules that add start-up time and that the package loads only where a command needs them
OPTIONAL_IMPORTS = ("decimal", "concurrent.futures", "dataclasses", "inspect")


@pytest.mark.parametrize(
    "code, names, loaded",
    [
        ("import apcover.cli", OPTIONAL_IMPORTS, set()),
        ("import apcover.cli; apcover.cli.main(['count', '--primes', '2,3,5'])",
         OPTIONAL_IMPORTS, set()),
        ("import apcover.cli; apcover.cli.main(['oeis', '--sequence', 'A067549', '--terms', '3'])",
         OPTIONAL_IMPORTS, {"decimal"}),
        # counts of over 2048 bits are converted in decimal
        ("import apcover.cli; apcover.cli.main(['count', '--first-k', '1500'])",
         OPTIONAL_IMPORTS, {"decimal"}),
        # the sieve runs on one worker whatever --threads asks for; it loads numpy,
        # which itself imports inspect, so inspect is not checked here
        ("import apcover.cli; apcover.cli.main(['verify', '--primes', '2,3', '--trials', '1',"
         " '--threads', '2'])", OPTIONAL_IMPORTS[:3], set()),
        # ten chunks
        ("import apcover.cli; apcover.cli.main(['verify', '--primes', '2,3,5,7,11,13,17,19',"
         " '--trials', '1', '--threads', '2'])", OPTIONAL_IMPORTS[:3], set()),
        # ten chunks, read at every degree by a library call
        ("import apcover as a; s = a.validate_modulus_system(a.first_primes(8));"
         " a.sieve_histogram(s, range(8), degree=8)", OPTIONAL_IMPORTS[:3], set()),
    ],
    ids=["import", "count", "oeis", "count-long", "verify-one-chunk", "verify-many-chunks",
         "library-degree-k"],
)
def test_decimal_and_thread_pool_are_loaded_only_where_used(code, names, loaded):
    assert modules_loaded_after(code, names) == loaded


def modules_loaded_after(code, names):
    """Which of ``names`` a fresh interpreter has imported after running ``code``."""
    env = env_with_src()
    probe = f"import sys; print(*[name for name in {names!r} if name in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", f"{code}; {probe}"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())
