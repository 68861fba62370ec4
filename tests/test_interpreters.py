"""The CLI writes the same stdout and stderr, and exits with the same code, on
every other Python the package claims as on the one running the tests.

Each interpreter runs under ``-I``, which ignores PYTHONPATH and the user's
site-packages, so the launcher puts ``src`` on ``sys.path`` itself (and under
``-B``, so that no interpreter leaves bytecode in ``src``). The other
interpreters may have no third-party packages, so only commands that load no
numpy are run: exhaustive checks, refusals, whose texts come partly from
argparse, and integers printed past the 4300-digit default limit on int-to-str
(3.11 on, and 3.10 from 3.10.7), in output and in a refusal alike.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
LAUNCH = ("import runpy, sys; sys.path.insert(0, sys.argv.pop(1));"
          " runpy.run_module('apcover', run_name='__main__')")
CLAIMED = ("3.10", "3.11", "3.12", "3.13")  # requires-python >= 3.10, as CI's matrix runs it

ARGVS = [
    # every exhaustive verify that CI runs
    *(("verify", "--primes", primes, "--exhaustive", "--format", "csv")
      for primes in ("2,3,5,7", "3,5,7,2", "7,2,3", "3,7", "13,2", "2,13", "7")),
    ("verify", "--first-k", "6", "--exhaustive", "--format", "csv"),
    ("verify", "--primes", "4,9,5,7,11", "--coprime", "--exhaustive", "--format", "csv"),
    # the lane-width boundary: 2-byte lanes at 65535, 4-byte lanes at 65792
    ("verify", "--primes", "3,5,17,257", "--exhaustive", "--format", "csv"),
    ("verify", "--primes", "256,257", "--coprime", "--exhaustive", "--format", "csv"),
    ("verify", "--primes", "2,3,5", "--exhaustive"),
    # integers of more than 4300 digits
    ("count", "--first-k", "1500"),
    ("det", "--first-k", "2000"),
    ("verify", "--first-k", "2000"),  # a refusal naming a product of 7483 digits
    # refusals made before any sieving
    ("count", "--primes", "4,3"),
    ("det", "--first-k", "12", "--which", "free", "--method", "laplace"),
    ("verify", "--primes", "2,3", "--trials", "0"),
    ("verify", "--primes", "2,3", "--limit", "0", "--threads", "-1"),
    ("verify", "--primes", "2,3,5,7,11,13,17", "--exhaustive"),
    ("verify", "--first-k", "10", "--exhaustive"),
    ("verify", "--first-k", "9", "--trials", "1000000"),
    ("count", "--first-k", "1" + "0" * 400),
    ("det", "--first-k", "30000", "--which", "available", "--method", "bareiss"),
    ("bench", "--kmax", "2", "--timeout-ms", "nan"),
    ("count", "--first-k", "abc"),
    ("count",),
    ("det", "--primes", "2,3", "--which", "both"),
    ("frobnicate",),
]


def starts(path):
    return subprocess.run([path, "-I", "-B", "-c", "pass"], capture_output=True,
                          timeout=60).returncode == 0


def interpreter(version):
    """The first ``python<version>`` that starts, on PATH or in a sibling of this
    interpreter's installation (as a version manager lays them out), or None.
    A version manager's shim can be on PATH and still fail to start."""
    siblings = sorted(Path(sys.base_prefix).parent.glob("*/bin"))
    for directory in [*os.get_exec_path(), *map(str, siblings)]:
        path = os.path.join(directory, f"python{version}")
        if os.access(path, os.X_OK) and starts(path):
            return path
    return None


def outputs(python):
    """(stdout, stderr, exit code) of every argv, run by ``python``."""
    def run(argv):
        result = subprocess.run([python, "-I", "-B", "-c", LAUNCH, str(SRC), *argv],
                                capture_output=True, timeout=120)
        return result.stdout, result.stderr, result.returncode

    with ThreadPoolExecutor(2) as pool:
        return dict(zip(ARGVS, pool.map(run, ARGVS)))


@pytest.fixture(scope="module")
def reference():
    return outputs(sys.executable)


@pytest.mark.parametrize("version", [v for v in CLAIMED if v != "%d.%d" % sys.version_info[:2]])
def test_cli_output_is_the_same_on_every_claimed_python(version, request):
    python = interpreter(version)
    if python is None:
        pytest.skip(f"no python{version} that starts was found")
    reference = request.getfixturevalue("reference")
    assert reference[("count", "--first-k", "1500")][2] == 0  # the launcher runs the CLI
    for argv, result in outputs(python).items():
        assert result == reference[argv], (python, argv)
