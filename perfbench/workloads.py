"""The fixed argv lists each workload runs, generated from the benchmark seed.

The seed picks each ``verify --seed`` and the order of the moduli in every
``--primes`` list. No count depends on either, so every run of a workload
checks against the same values whatever the seed.
"""

from __future__ import annotations

import random

FIRST_8 = (2, 3, 5, 7, 11, 13, 17, 19)


def _primes_flag(rng: random.Random, moduli) -> str:
    return ",".join(str(m) for m in rng.sample(list(moduli), len(moduli)))


def _verify_seed(rng: random.Random) -> str:
    """Six digits, so the output length (cli.out_bytes) is the same for every seed."""
    return str(rng.randrange(10**5, 10**6))


def cli_small(rng: random.Random, threads: int) -> list[tuple[str, ...]]:
    """README-scale commands: interpreter start and imports dominate."""
    six = FIRST_8[:6]
    return [
        ("count", "--primes", _primes_flag(rng, six)),
        ("count", "--primes", _primes_flag(rng, six), "--format", "csv"),
        ("count", "--primes", _primes_flag(rng, (4, 9, 25, 7, 11)), "--coprime"),
        ("det", "--primes", _primes_flag(rng, FIRST_8), "--which", "available",
         "--method", "recurrence"),
        ("det", "--primes", _primes_flag(rng, FIRST_8), "--which", "free",
         "--method", "bareiss"),
        ("det", "--primes", _primes_flag(rng, FIRST_8), "--which", "available",
         "--method", "laplace"),
        ("oeis", "--sequence", "A067549", "--terms", "30"),
        ("oeis", "--sequence", "A005867", "--terms", "30"),
        ("verify", "--primes", _primes_flag(rng, FIRST_8[:5]), "--exhaustive",
         "--seed", _verify_seed(rng), "--threads", str(threads)),
    ]


def sieve_window(rng: random.Random, threads: int) -> list[tuple[str, ...]]:
    """Two random assignments of the first 9 primes: 4.5e8 integers sieved."""
    return [
        ("verify", "--first-k", "9", "--trials", "2", "--seed",
         _verify_seed(rng), "--threads", str(threads)),
    ]


def sieve_small_many(rng: random.Random, threads: int) -> list[tuple[str, ...]]:
    """Every one of the 30030 assignments of the first 6 primes, one chunk each."""
    return [
        ("verify", "--first-k", "6", "--exhaustive", "--seed",
         _verify_seed(rng), "--threads", str(threads)),
    ]


def bigint_tables(rng: random.Random, threads: int) -> list[tuple[str, ...]]:
    """Exact big-integer layers: decimal encoding, the sequence fold, Bareiss.

    1200 terms on purpose: at 1300 the CLI hits Python's 4300-digit
    int-to-str limit and exits 1 with a traceback, a known defect.
    """
    tables = [
        ("oeis", "--sequence", name, "--terms", "1200", *extra)
        for extra in (("--bfile",), ())
        for name in ("A067549", "A005867")
    ]
    return tables + [
        ("det", "--first-k", "80", "--which", "available", "--method", "bareiss"),
        ("det", "--first-k", "80", "--which", "free", "--method", "bareiss"),
        ("count", "--first-k", "25"),
    ]


WORKLOADS = {
    "cli_small": cli_small,
    "sieve_window": sieve_window,
    "sieve_small_many": sieve_small_many,
    "bigint_tables": bigint_tables,
}

# The calibration parts (calibration.py) in the proportions one pass of each
# workload spends on that kind of work: how many spawns it starts, and how
# many of each work part its own work is like. A workload's times are scaled
# by these parts only, because on a shared host interpreter start, big-integer
# work, small in-cache sieves and streaming sieves on every CPU drift apart.
# cli_small's nine commands start up and then do a little of every kind, like
# the whole calibration job.
REFERENCE = {
    "cli_small": {"start": 1, "bigint": 1, "small": 1, "stream": 1},
    "sieve_window": {"start": 1, "stream": 26},
    "sieve_small_many": {"start": 1, "small": 60},
    "bigint_tables": {"start": 7, "bigint": 17},
}


def build(name: str, seed: int, threads: int) -> list[tuple[str, ...]]:
    return WORKLOADS[name](random.Random(seed), threads)


def thread_probe(seed: int, threads: int) -> tuple[str, ...]:
    """One assignment of the sieve_window system at a given thread count."""
    return ("verify", "--first-k", "9", "--trials", "1", "--seed",
            _verify_seed(random.Random(seed)), "--threads", str(threads))
