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

An exhaustive check enumerates the assignments in ``itertools.product``
order, so they come in blocks of q = p_(k-1) * p_k (the last two moduli
listed; the last one when k <= 2) that share every other residue. Per block it
fills the counters of the head, the other moduli, once and reshapes them to q
columns, column t holding the integers congruent to t + 1 mod q. Each column's
count of integers the head covers 0 and 1 times goes into a grid cell indexed
by their residues mod the tail moduli. Along each tail axis in turn, residue r
then turns its class's 0s into 1s and its 1s into 2s: with T_j the sum of h_j
over that axis, h_0 becomes T_0 - h_0 and h_1 becomes T_1 - h_1 + h_0. Every
count is still read off this block's counters, at least one modulus is sieved
whenever k >= 2, and nothing assumes the identities under test.

numpy is imported on the first sieve call, before any worker starts, so the
exact layers never load it; ``concurrent.futures`` only when a call runs more
than one worker.

The sieve, the counts read from it and the independence check take the same
two keywords: ``product_limit``, the largest window they sieve, and
``threads``, the most workers per sieve call (0 = one per usable CPU).
"""

from __future__ import annotations

import itertools
import math
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
# Each assignment a check tests costs at least what sieving this many integers
# does: on a 2-CPU host a random check's sieve call at product 6 took 11-17 us,
# as long as 9500-37500 integers of a large window at 0.95-1.5 G/s (2 threads),
# so each assignment is charged at least this much.
SIEVE_CALL_INTEGERS = 16384


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


def _bin(buf, degree: int) -> list[int]:
    """Entries 0..degree of the histogram of the counters ``buf``."""
    import numpy as np

    covered = [int(np.count_nonzero(buf == j)) for j in range(1, degree + 1)]
    return [len(buf) - int(np.count_nonzero(buf)), *covered]


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
    return _counts(system, *sieve_histogram(system, residues, product_limit=product_limit,
                                            threads=threads, degree=1))


def _counts(system: ModulusSystem, free: int, once: int) -> CoverageCounts:
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


def _column_sums(hits):
    """Column sums of the bool matrix ``hits``, which is folded in place.

    A sum over axis 0 makes one pass per row, each as short as a row, so while
    there are more rows than columns the bottom half of the rows is first added
    onto the top half. Each fold at most doubles an entry, so the first 7 add
    bytes (entries stay within 2**7) and the rest int32.
    """
    import numpy as np

    sums, folds = hits.view(np.uint8), 0
    while len(sums) > sums.shape[1]:
        if folds == 7:
            sums = sums.astype(np.int32)
        keep = len(sums) - len(sums) // 2  # an odd count's middle row stays as it is
        sums[: len(sums) - keep] += sums[keep:]
        sums, folds = sums[:keep], folds + 1
    return sums.sum(axis=0, dtype=np.int32)


def _exhaustive_histograms(
    system: ModulusSystem,
) -> Iterator[tuple[tuple[int, ...], tuple[int, int]]]:
    """(residues, (free, once)) for every assignment, in ``itertools.product``
    order: one fill of the head moduli per block of q = p_(k-1) * p_k assignments."""
    import numpy as np

    split = -2 if system.k >= 3 else -1  # at least one modulus is sieved when k >= 2
    head, tail = system.moduli[:split], system.moduli[split:]
    q = math.prod(tail)
    # column t holds the integers t + 1, t + 1 + q, ... (q divides the window); their
    # cell is their residue mod each tail modulus, raveled in enumeration order
    n = np.arange(1, q + 1)
    cells = np.ravel_multi_index([n % p for p in tail], tail)
    # the tail residues vary fastest, so each block's q assignments come next in this order
    assignments = itertools.product(*map(range, system.moduli))
    for residues in itertools.product(*map(range, head)):
        columns = _fill(1, system.product + 1, head, residues).reshape(-1, q)
        # h_j[cell]: the integers of the cell that the head covers j times; the
        # float64 sums are exact, as SIEVE_BUDGET keeps an exhaustive window within 10**5
        h0, h1 = (np.bincount(cells, weights=_column_sums(columns == j), minlength=q)
                  .reshape(tail) for j in (0, 1))
        for axis in range(len(tail)):
            # residue r of this axis covers the integers of class r: its 0s become 1s, its 1s 2s
            h0, h1 = h0.sum(axis, keepdims=True) - h0, h1.sum(axis, keepdims=True) - h1 + h0
        counts = zip(h0.ravel().astype(np.int64).tolist(), h1.ravel().astype(np.int64).tolist())
        yield from zip(itertools.islice(assignments, q), counts)


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
    is charged ``product`` integers, and at least ``SIEVE_CALL_INTEGERS``, so
    a check is refused, before any sieving, when its window exceeds the
    product limit or when assignments x max(product, ``SIEVE_CALL_INTEGERS``)
    exceeds ``SIEVE_BUDGET``.
    """
    _check_options(product_limit, threads)
    expected = coverage_counts(system)
    if exhaustive:
        mode, assignments = "exhaustive", system.product
        observed = _exhaustive_histograms(system)
    else:
        if trials < 1:
            raise ValidationError("trials must be >= 1")
        mode, assignments = "random", trials
        observed = ((residues, sieve_histogram(system, residues, product_limit=product_limit,
                                               threads=threads, degree=1))
                    for residues in _random_assignments(system, trials, seed))
    _check_product(system, product_limit)
    sieved = assignments * max(system.product, SIEVE_CALL_INTEGERS)
    if sieved > SIEVE_BUDGET:
        raise ResourceLimitError(
            f"{sieved} integers to sieve exceed the {mode} budget {SIEVE_BUDGET}"
        )

    # a CoverageCounts only for the mismatches kept
    want = (expected.free, expected.available - expected.free)
    tested = 0
    mismatches: list[tuple[tuple[int, ...], CoverageCounts]] = []
    for residues, hist in observed:
        tested += 1
        if hist != want and len(mismatches) < 5:
            mismatches.append((residues, _counts(system, *hist)))
    return IndependenceReport(
        assignments_tested=tested,
        all_match=not mismatches,
        expected=expected,
        mismatches=tuple(mismatches),
    )
