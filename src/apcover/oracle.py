"""Brute-force sieve over [1, product]: the ground truth for the identities.

For a concrete residue assignment the sieve walks the window in chunks and
keeps a one-byte coverage counter per integer. Each chunk starts from a wheel
tile (Pritchard, "Explaining the wheel sieve", Acta Informatica 17, 1982): the
chunk's smallest moduli, while their product stays within
``WHEEL_PERIOD_LIMIT`` and the chunk's length, are sieved by the same strided
adds into one period of counters that starts at the chunk's first integer, and
that period is repeated across the chunk. The remaining moduli bump every
member of their progression directly (first member located by modular
arithmetic, no per-integer trial division). Binning reads the multiplicities
only up to the degree the caller asks for, as the fold of
``counting.coverage_counts`` stops at x^1: entry j, 1 <= j <= degree, counts
the integers covered exactly j times by one comparison each; entry 0 is the
integers left at zero, counted without a comparison. Every integer is still
sieved: the truncation skips binning passes, never part of the window. Chunks
are independent and merge by integer addition, so any partition of the window,
and any degree of parallelism, produces identical results.

A window that fits in one chunk and that an exhaustive check admits (product
at most 10^5 under ``SIEVE_BUDGET``) starts from the counters of every modulus
but the system's last, kept in a one-entry cache keyed by the window and those
moduli and residues. An exhaustive check steps only the last residue up by 1
between consecutive assignments, except when the others change and it wraps
to 0, so it fills the other k - 1 moduli once per run of p_k assignments, p_k
being the last modulus listed. The first call of a run copies the cached
counters, adds the last modulus by one strided add and bins the copy as above.
When p_k pays for a table (below), a call that steps the last residue of the
previous such call up by 1 (mod p_k), with the same window, other moduli and
residues and degree, reads its histogram from a table of that run instead: a
tuple of p_k histograms, built by the second call of the run and kept in a
one-entry cache. Entry s is the histogram when the last modulus adds 1 to the
counters at s, s + p_k, ... (s = (r - 1) mod p_k). The builder bins each such
class of the cached counters, c_j(s) being how many of them the other moduli
cover j times, and sets entry j of histogram s to T_j - c_j(s) + c_(j-1)(s)
(T_0 - c_0(s) for j = 0), T_j = sum over s of c_j(s): every count is still
read off this window's counters, and nothing assumes the identities under
test. A table pays when it would serve at least ``TABLE_MIN_CALLS`` calls, the
p_k - 1 after the first of a run, because a build costs what 2-4 table reads
save: ``--primes 2,3,5,7,11`` reads a table on 10 calls in 11, while
``--primes 11,7,5,3,2`` and ``--primes 2,5,7,3`` copy on every call. A random
check repeats the other residues and steps the last up by 1 about once in
``product`` calls, so it almost never builds or reads a table. Concurrent
callers stay safe: the cached counters are read-only, each copy belongs to its
call, and a table is an immutable tuple; a race on which call came last only
decides between a table and a copy, which give the same histogram. Other
windows never touch either cache, so together they hold at most 10^5 bytes
and p_k small tuples.

numpy is imported on the first sieve call, before any worker starts, so the
exact layers never load it; ``concurrent.futures`` only when a call runs more
than one worker.

The sieve, the counts read from it and the independence check take the same
two keywords: ``product_limit``, the largest window they sieve, and
``threads``, the most workers per sieve call (0 = one per usable CPU).
"""

from __future__ import annotations

import functools
import itertools
import os
import random
from typing import Iterable, Iterator, NamedTuple

from .core import CoverageCounts, ModulusSystem, assign_residues
from .counting import coverage_counts
from .errors import ResourceLimitError, ValidationError

CHUNK_SIZE = 1 << 20
# Moduli whose product is at most this are sieved into one tile per chunk.
# On a 2-CPU host 210 and 2310 tied, and 30030 cost 1.4x at a 30030 window.
WHEEL_PERIOD_LIMIT = 2310
DEFAULT_PRODUCT_LIMIT = 10**9
SIEVE_BUDGET = 10**10  # integers sieved per check: 15-40 s at 260-650 M/s (1-2 threads)
# A sieve call costs at least what sieving this many integers does: on a 2-CPU
# host a call at product 6 took 11-17 us whether it copied the cached counters
# (an exhaustive check) or refilled them (a random one), and one that read a
# table 4-7 us at products 2310-85085, as long as 9500-37500 integers of a
# large window at 0.95-1.5 G/s (2 threads), so each call is charged at least this much.
SIEVE_CALL_INTEGERS = 16384
# A run's table (see sieve_histogram) is built only when it would serve at
# least this many calls, the p_k - 1 after the run's first: on a 2-CPU host a
# build took 22-35 us at product 2310, 58-73 us at 30030 and 131-138 us at
# 85085, what 2.0-3.7 calls save by reading a table (4-7 us) rather than
# copying, adding and binning (12-57 us).
TABLE_MIN_CALLS = 4


class IndependenceReport(NamedTuple):
    """Outcome of sieving one system under many residue assignments."""

    assignments_tested: int
    all_match: bool
    expected: CoverageCounts
    mismatches: tuple[tuple[tuple[int, ...], CoverageCounts], ...] = ()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_options(product_limit: int, threads: int) -> None:
    if product_limit < 1:
        raise ValidationError("product_limit must be >= 1")
    if threads < 0:
        raise ValidationError("threads must be >= 0")


def _check_product(system: ModulusSystem, product_limit: int) -> None:
    if system.product > product_limit:
        raise ResourceLimitError(f"product {system.product} exceeds sieve limit {product_limit}")


def _fill(lo: int, hi: int, moduli: tuple[int, ...], residues: tuple[int, ...]):
    """One uint8 coverage counter per integer of [lo, hi): the wheel tile, then strided adds."""
    import numpy as np

    n = hi - lo
    pairs = sorted(zip(moduli, residues))
    period, wheel = 1, 0  # the tile's length and how many moduli it holds
    for p, _ in pairs:
        if period * p > min(WHEEL_PERIOD_LIMIT, n):
            break
        period *= p
        wheel += 1
    tile = np.zeros(period, dtype=np.uint8)
    for p, r in pairs[:wheel]:
        tile[(r - lo) % p :: p] += 1
    # np.tile's copy, without the ~3 us of its Python wrapper
    buf = tile if period == n else tile[None].repeat(-(-n // period), axis=0).ravel()[:n]
    for p, r in pairs[wheel:]:
        buf[(r - lo) % p :: p] += 1
    return buf


@functools.lru_cache(maxsize=1)
def _shared_fill(hi: int, moduli: tuple[int, ...], residues: tuple[int, ...]):
    """The counters of [1, hi) for ``moduli``, kept for the next call and so
    made read-only: every caller adds to its own copy."""
    buf = _fill(1, hi, moduli, residues)
    buf.flags.writeable = False
    return buf


def _bin(buf, degree: int) -> list[int]:
    """Entries 0..degree of the histogram of the counters ``buf``."""
    import numpy as np

    covered = [int(np.count_nonzero(buf == j)) for j in range(1, degree + 1)]
    return [len(buf) - int(np.count_nonzero(buf)), *covered]


_last_call = None  # (window, moduli and residues but the last, degree, last residue)


def _continues_run(head: tuple, degree: int, r: int, p: int) -> bool:
    """Whether the previous call recorded here had the same ``head`` (window,
    moduli and residues but the last) and degree, and last residue r - 1
    (mod p); records this call."""
    global _last_call
    previous, _last_call = _last_call, (*head, degree, r)
    return previous == (*head, degree, (r - 1) % p)


@functools.lru_cache(maxsize=1)
def _residue_table(hi: int, moduli: tuple[int, ...], residues: tuple[int, ...],
                   p: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Entry s: entries 0..degree of the histogram of [1, hi) when a last
    modulus ``p`` adds 1 to the counters at s, s + p, ... (the residue r with
    s = (r - 1) mod p) of the shared counters of ``moduli``."""
    import numpy as np

    # row s: the counters at s, s + p, ... (p divides the window's length)
    rows = _shared_fill(hi, moduli, residues).reshape(-1, p).T.copy()
    # c[j][s]: the counters of row s that the other moduli cover j times
    c = [np.add.reduce(rows == j, axis=1, dtype=np.int32).tolist() for j in range(degree + 1)]
    total = [sum(cj) for cj in c]
    # the counters of row s move up one multiplicity: out of entry j, into j + 1
    return tuple((total[0] - c[0][s],
                  *(total[j] - c[j][s] + c[j - 1][s] for j in range(1, degree + 1)))
                 for s in range(p))


def _chunk_histogram(lo: int, hi: int, moduli: tuple[int, ...],
                     residues: tuple[int, ...], degree: int) -> list[int]:
    """Entries 0..degree of the coverage histogram of the window slice [lo, hi)."""
    return _bin(_fill(lo, hi, moduli, residues), degree)


def sieve_histogram(
    system: ModulusSystem,
    residues: Iterable[int],
    *,
    product_limit: int = DEFAULT_PRODUCT_LIMIT,
    threads: int = 1,
    degree: int | None = None,
) -> tuple[int, ...]:
    """Entry j, for j = 0..degree (default k), counts the integers in
    [1, product] covered exactly j times, by direct enumeration."""
    _check_options(product_limit, threads)
    _check_product(system, product_limit)
    residues = assign_residues(system, residues)
    degree = system.k if degree is None else degree
    if not 0 <= degree <= system.k:
        raise ValidationError(f"degree must be in [0, {system.k}], got {degree}")
    if (system.product <= CHUNK_SIZE
            and system.product * max(system.product, SIEVE_CALL_INTEGERS) <= SIEVE_BUDGET):
        # one chunk of a window that an exhaustive check admits (only it reuses
        # counters): a run's table, or a copy of the shared counters of all
        # moduli but the last plus the last
        head = (system.product + 1, system.moduli[:-1], residues[:-1])
        p, r = system.moduli[-1], residues[-1]
        if p - 1 >= TABLE_MIN_CALLS and _continues_run(head, degree, r, p):
            return _residue_table(*head, p, degree)[(r - 1) % p]
        buf = _shared_fill(*head).copy()
        buf[(r - 1) % p :: p] += 1
        return tuple(_bin(buf, degree))
    bounds = list(range(1, system.product + 1, CHUNK_SIZE)) + [system.product + 1]
    chunk_args = (bounds[:-1], bounds[1:], itertools.repeat(system.moduli),
                  itertools.repeat(residues), itertools.repeat(degree))
    cpus = _usable_cpus()
    workers = min(threads or cpus, cpus, len(bounds) - 1)
    if workers > 1:
        # imported here: concurrent.futures loads threading, queue and logging
        from concurrent.futures import ThreadPoolExecutor

        import numpy  # noqa: F401  # a first import here, not in several workers at once

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return _merge(pool.map(_chunk_histogram, *chunk_args), degree)
    return _merge(map(_chunk_histogram, *chunk_args), degree)


def _merge(partials: Iterator[list[int]], degree: int) -> tuple[int, ...]:
    """Exact sum of chunk histograms as each finishes (collecting first raised peak RSS)."""
    totals = [0] * (degree + 1)
    for hist in partials:
        for j in range(degree + 1):
            totals[j] += hist[j]
    return tuple(totals)


def oracle_counts(
    system: ModulusSystem,
    residues: Iterable[int],
    *,
    product_limit: int = DEFAULT_PRODUCT_LIMIT,
    threads: int = 1,
) -> CoverageCounts:
    """Free/available/occupied counts as the sieve actually observes them.

    Only the integers covered at most once are binned; every other integer
    of the window, all of which are sieved, is occupied.
    """
    free, once = sieve_histogram(system, residues, product_limit=product_limit,
                                 threads=threads, degree=1)
    return CoverageCounts(
        available=free + once,
        free=free,
        occupied=system.product - free - once,
        product=system.product,
    )


def _random_assignments(
    system: ModulusSystem, trials: int, seed: int
) -> Iterator[tuple[int, ...]]:
    rng = random.Random(seed)
    for _ in range(trials):
        yield tuple(rng.randrange(p) for p in system.moduli)


def residue_independence_check(
    system: ModulusSystem,
    trials: int = 20,
    seed: int = 0,
    *,
    product_limit: int = DEFAULT_PRODUCT_LIMIT,
    threads: int = 1,
    exhaustive: bool = False,
) -> IndependenceReport:
    """Sieve many assignments and compare each against the recurrence counts.

    Random mode draws ``trials`` assignments from a generator seeded with
    ``seed`` (each residue uniform in [0, p)), so reports are reproducible.
    Exhaustive mode enumerates all ``product`` assignments. Each assignment
    sieves ``product`` integers and is charged at least ``SIEVE_CALL_INTEGERS``
    for the call itself, so a check is refused, before any sieving, when its
    window exceeds the product limit or when assignments x max(product,
    ``SIEVE_CALL_INTEGERS``) exceeds ``SIEVE_BUDGET``.
    """
    _check_options(product_limit, threads)
    expected = coverage_counts(system)
    if exhaustive:
        mode, assignments = "exhaustive", system.product
        candidates = itertools.product(*(range(p) for p in system.moduli))
    else:
        if trials < 1:
            raise ValidationError("trials must be >= 1")
        mode, assignments = "random", trials
        candidates = _random_assignments(system, trials, seed)
    _check_product(system, product_limit)
    sieved = assignments * max(system.product, SIEVE_CALL_INTEGERS)
    if sieved > SIEVE_BUDGET:
        raise ResourceLimitError(
            f"{sieved} integers to sieve exceed the {mode} budget {SIEVE_BUDGET}"
        )

    tested = 0
    mismatches: list[tuple[tuple[int, ...], CoverageCounts]] = []
    for residues in candidates:
        observed = oracle_counts(system, residues, product_limit=product_limit,
                                 threads=threads)
        tested += 1
        if observed != expected and len(mismatches) < 5:
            mismatches.append((residues, observed))
    return IndependenceReport(
        assignments_tested=tested,
        all_match=not mismatches,
        expected=expected,
        mismatches=tuple(mismatches),
    )
