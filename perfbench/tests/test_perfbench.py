"""Fast tests of the benchmark itself: its checker, its metrics and its contract.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import expected
import layers
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def cli(*argv: str) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "apcover", *argv], env=ENV,
                          capture_output=True, timeout=60)
    return proc.returncode, proc.stdout


def test_expected_values_come_from_own_arithmetic():
    assert expected.histogram((2, 3, 5)) == [8, 14, 7, 1]
    assert expected.counts((4, 9)) == {"available": "35", "free": "24",
                                       "occupied": "1", "product": "36"}
    assert expected.sequence("A067549", 5) == [2, 5, 22, 140, 1448]
    assert expected.sequence("A005867", 5) == [1, 2, 8, 48, 480]
    assert expected.primes(10)[-1] == 29


def test_corrupted_golden_value_is_refused(monkeypatch):
    monkeypatch.setitem(expected.GOLDEN, "A005867", (1, 2, 8, 48, 481))
    with pytest.raises(RuntimeError):
        expected.sequence("A005867", 30)


@pytest.mark.parametrize("argv", [
    ("count", "--primes", "5,2,3"),
    ("count", "--primes", "9,4,7", "--coprime", "--format", "csv"),
    ("det", "--primes", "3,2,5", "--which", "free", "--method", "bareiss"),
    ("verify", "--primes", "3,2,5", "--exhaustive", "--seed", "4", "--threads", "1"),
    ("oeis", "--sequence", "A067549", "--terms", "7", "--bfile"),
])
def test_checker_accepts_real_output_and_flags_tampering(argv):
    code, out = cli(*argv)
    assert expected.Checker([argv]).check(argv, code, out) is None
    tampered = out.replace(b"8", b"9", 1)
    assert tampered != out
    assert expected.Checker([argv]).check(argv, code, tampered) is not None


def test_checker_flags_nonzero_exit_and_changed_bytes():
    argv = ("count", "--primes", "2,3")
    code, out = cli(*argv)
    checker = expected.Checker([argv])
    assert checker.check(argv, 1, out) == "exit code 1"
    assert checker.check(argv, code, out) is None
    assert "differs" in checker.check(argv, code, out.replace(b"\n", b"\r\n"))


def test_checker_flags_a_verify_mismatch():
    argv = ("verify", "--primes", "2,3", "--exhaustive")
    code, out = cli(*argv)
    record = json.loads(out)
    record["results"]["all_match"] = False
    bad = json.dumps(record, indent=2).encode() + b"\n"
    assert expected.Checker([argv]).check(argv, code, bad) is not None


def test_every_workload_argv_has_a_check():
    for name in workloads.WORKLOADS:
        argvs = workloads.build(name, seed=3, threads=2)
        assert argvs == workloads.build(name, seed=3, threads=2)
        expected.Checker(argvs + [workloads.thread_probe(3, 1)])


def test_seed_changes_inputs_but_not_counts():
    a = workloads.build("cli_small", seed=1, threads=2)
    b = workloads.build("cli_small", seed=2, threads=2)
    assert a != b
    for x, y in zip(a, b):
        if x[0] != "oeis":
            assert sorted(expected.moduli_of(x)) == sorted(expected.moduli_of(y))
            assert expected.counts(expected.moduli_of(x)) == expected.counts(
                expected.moduli_of(y))


def test_self_time_and_pass_totals():
    spans = [
        [0, -1, "cli.import", 0, 100, 0, 0],
        [1, -1, "cli.main", 100, 1100, 0, 0],
        [2, 1, "oracle.check", 200, 900, 0, 0],
        [3, 2, "oracle.sieve", 300, 500, 50, 7],
        [4, 2, "oracle.sieve", 500, 600, 30, 5],
    ]
    assert layers.self_ns(spans) == {0: 100, 1: 300, 2: 400, 3: 200, 4: 100}
    m = layers.pass_metrics([(spans, 12)])
    assert m["cli.self_ms"] == 300 / 1e6
    assert m["oracle.check_self_ms"] == 400 / 1e6
    assert m["oracle.sieve_calls"] == 2 and m["oracle.ints_sieved"] == 80
    assert m["oracle.per_call_us"] == 150 / 1e3
    assert m["oracle.ints_per_s"] == 80 / 300e-9
    assert m["oracle.computed_bytes"] == 12 and m["cli.out_bytes"] == 12


def test_probes_are_spread_over_interleaved_passes(monkeypatch):
    runner = run.Runner(expected.Checker([]), deadline=float("inf"))
    log = []
    monkeypatch.setattr(runner, "probe", lambda args: log.append(args) or {"total": 0.2})
    monkeypatch.setattr(runner, "invoke", lambda argv, traced: log.append((argv, traced))
                        or run.Outcome(argv, 1.0, 0, 0, [], None))
    by_mode, probes = runner.passes([("a",), ("b",)], 10.0, modes=(False, True),
                                    probes=(("pass",), ("cal",)))
    assert len(by_mode[False]) == len(by_mode[True]) == 3
    assert [o.argv for o in by_mode[True][0]] == [("a",), ("b",)]
    assert log[:4] == [("pass",), ("cal",), (("a",), False), (("a",), True)]
    assert probes == {("pass",): [{"total": 0.2}] * run.PROBE_ROUNDS,
                      ("cal",): [{"total": 0.2}] * run.PROBE_ROUNDS}
    # Each argv pair adds 2 s of the 10, so the 16 rounds fall due 3 at a time.
    runs = [i for i, entry in enumerate(log) if isinstance(entry[0], tuple)]
    assert [b - a - 1 for a, b in zip(runs, runs[1:])] == [0, 6, 0, 6, 0, 6, 0, 6, 0, 6, 0]


def test_child_rss_is_its_own_not_the_benchmarks():
    ballast = bytearray(200 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])
    deadline = time.perf_counter() + 60
    with run.Runner(expected.Checker([]), deadline=deadline) as runner:
        seconds, rss_kib, exit_code, out, _ = runner.spawn([sys.executable, "-c", "print(1)"])
    del ballast
    assert (exit_code, out) == (0, b"1\n") and seconds > 0
    assert rss_kib < 100 << 10


def test_a_child_past_the_deadline_is_killed():
    with run.Runner(expected.Checker([]), deadline=0.0) as runner:
        with pytest.raises(TimeoutError):
            runner.spawn([sys.executable, "-c", "import time; time.sleep(60)"])
        assert runner.spawn([sys.executable, "-c", "pass"])[2] == 0


def test_peak_rss_is_the_largest_median_over_argvs():
    outcomes = [run.Outcome(argv, 1.0, rss, 0, [], None) for argv, rss in
                [(("a",), 100), (("a",), 300), (("a",), 200), (("b",), 250), (("b",), 90)]]
    assert run.peak_rss_mb(outcomes) == 200 / 1024


def test_host_scale_weights_the_calibration_parts():
    samples = [{"total": 0.5, "stream": 0.2}, {"total": 0.3, "stream": 0.1},
               {"total": 0.4, "stream": 0.1}]
    nominal = run.calibration.NOMINAL_S
    assert run.host_scale(samples, {"start": 1}) == pytest.approx(nominal["start"] / 0.3)
    assert run.host_scale(samples, {"start": 1, "stream": 2}) == pytest.approx(
        (nominal["start"] + 2 * nominal["stream"]) / (0.3 + 2 * 0.1))
    assert set(workloads.REFERENCE) == set(workloads.WORKLOADS)
    for weights in workloads.REFERENCE.values():
        assert set(weights) <= set(nominal)


def test_commit_is_unknown_outside_a_work_tree(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run._commit() == "unknown"


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(20)]) is None
    percentile, value = run.tail([float(i) for i in range(40)])
    assert (percentile, value) == (75.0, 29.0)


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert name.match(m["name"]) and unit.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("trace,listed", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, listed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_small", "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC[listed]}
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    assert {m["name"]: m["unit"] for m in SPEC[listed]}.items() <= printed.items()
    if trace == 0:
        assert printed["error_rate"] == "ratio" and printed["ints_per_s"] == "integers/s"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
