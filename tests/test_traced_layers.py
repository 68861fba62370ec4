"""The benchmark's traced run wraps apcover functions by name; these must exist.

``perfbench/traced_cli.py`` replaces attributes of ``apcover.cli`` and
``apcover.oracle`` with timed wrappers. A rename there does not fail the
program, it silently drops a per-layer metric, so the names are pinned here.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apcover.cli as cli
import apcover.oracle as oracle

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"


def load_traced_cli():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    traced = load_traced_cli()
    missing = [attr for attr, _ in traced.CLI_CALLS if not callable(getattr(cli, attr, None))]
    assert missing == []
    assert callable(oracle.coverage_counts)
    assert callable(oracle.sieve_histogram)


@pytest.mark.parametrize(
    "argv, layer",
    [
        (("count", "--primes", "2,3,5"), "counting.histogram"),
        (("verify", "--primes", "2,3", "--trials", "1"), "oracle.sieve"),
    ],
    ids=["count", "verify"],
)
def test_traced_run_records_the_layer(argv, layer):
    names = {span[2] for span in traced_spans(argv)}
    assert layer in names


def test_traced_random_check_wraps_every_sieve_call():
    # a random check calls sieve_histogram through oracle's global, once per trial
    spans = traced_spans(("verify", "--primes", "2,3", "--trials", "6"))
    assert sum(span[2] == "oracle.sieve" for span in spans) == 6


def test_traced_exhaustive_check_records_one_check_span():
    # an exhaustive check bins its blocks inside the check, with no sieve call
    spans = traced_spans(("verify", "--primes", "2,3", "--exhaustive"))
    assert sum(span[2] == "oracle.check" for span in spans) == 1


def traced_spans(argv):
    """The spans of one traced CLI run, which must exit 0."""
    marker = load_traced_cli().MARKER
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(TRACED_CLI), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    span_lines = [line for line in result.stderr.splitlines() if line.startswith(marker)]
    assert len(span_lines) == 1
    return json.loads(span_lines[0][len(marker):])
