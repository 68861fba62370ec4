"""Brute-force sieve over [1, product]: the ground truth for the identities.

For a concrete residue assignment the sieve walks the window in chunks of
thermometer bit planes, eight integers per byte: plane j holds the integers
covered at least j times, for j = 1..degree + 1. A modulus is added by ORing
into each plane j, from the top down, the plane below it where the modulus's
progression is set, and then the progression into plane 1. Entry j of the
histogram, 1 <= j <= degree, is the popcount of plane j minus that of plane
j + 1, and entry 0 counts the integers outside plane 1. Reading stops at the
degree the caller asks for, as the fold of ``counting.coverage_counts`` stops
at x^1; every integer is still sieved, and the truncation only drops planes.

The smallest moduli, while the packed period of their product W, lcm(W, 8)
integers, fits a chunk, form a wheel (Pritchard, "Explaining the wheel sieve",
Acta Informatica 17, 1982): their planes are packed once per call from
``_fill``'s counters over that period, and so is each other modulus's
progression, over lcm(p, 8) integers. Both are repeated far enough that every
chunk, widened to whole 64-bit words, is one slice of them, and the bits
outside the chunk are masked off before counting. A modulus whose packed
period is longer than a chunk is set chunk by chunk, at its members only.
Each worker allocates its planes once per call. Chunks are independent and
their histograms add, so any partition of the window, and any number of
workers, gives identical results. A window of one chunk and at most
``COUNTER_WINDOW`` integers skips the planes, whose packing would cost more
than it saves: it is binned from ``_fill``'s counters.

An exhaustive check enumerates the assignments in ``itertools.product``
order, so they come in blocks of q = p_(k-1) * p_k (the last two moduli
listed; the last one when k <= 2) that share every other residue. Per block it
fills the counters of the head, the other moduli, once and reshapes them to q
columns, column t holding the integers congruent to t + 1 mod q. The head is
filled by ``_fill``, one uint8 counter per integer: a wheel tile of its
smallest moduli, repeated, then a strided add per other modulus. Each column's
count of integers the head covers 0 and 1 times goes into a grid cell indexed
by their residues mod the tail moduli. Along each tail axis in turn, residue r
then turns its class's 0s into 1s and its 1s into 2s: with T_j the sum of h_j
over that axis, h_0 becomes T_0 - h_0 and h_1 becomes T_1 - h_1 + h_0. Every
count is still read off this block's counters, at least one modulus is sieved
whenever k >= 2, and nothing assumes the identities under test.

numpy is imported on the first sieve call, before any worker starts, so the
exact layers never load it; ``concurrent.futures`` only when a call runs more
than one worker, which only a call that reads degree 3 or more does.

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

# Integers per chunk, one bit in each plane. On a 2-CPU host one worker sieved
# the first 9 primes at degree 1 as fast at 2**20 as at 2**21 or 2**22, and with
# the smallest peak RSS; 2**18 took over twice as long (numpy calls of a few us).
CHUNK_SIZE = 1 << 20
# One-chunk windows of at most this many integers are binned from _fill's
# counters. On a 2-CPU host, at degree 1, counters took 10-50 us to the planes'
# 43-119 us up to product 30030, and 378-588 to 587-755 us from 510510 to
# 746130; at 881790 they were within 7%, and from 10**6 the planes won by 23-33%.
COUNTER_WINDOW = 800_000
# _fill's tile holds the smallest moduli while their product is at most this.
# On a 2-CPU host 210, 2310 and 30030 tied on exhaustive checks of six primes
# in four orders, and 30030 took 1.7x as long to fill a 10**5 window of seven.
WHEEL_PERIOD_LIMIT = 2310
DEFAULT_PRODUCT_LIMIT = 10**9
# Integers sieved per check. On a 2-CPU host a random check of large windows
# sieves them in about 1 s (one worker at ~10 G/s); a check of many windows
# below 10**5, each charged max(product, SIEVE_CALL_INTEGERS), takes 11-14 s.
SIEVE_BUDGET = 10**10
# Each assignment a check tests is charged at least this many integers. On a
# 2-CPU host a random check takes 18-21 us a trial at product 6, as long as
# 0.15-0.2 M integers of a large window take; the charge is kept as it was when
# such a call cost 9500-37500 integers, so that every refusal stays the same.
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
    """One uint8 coverage counter per integer of [lo, hi): a wheel tile of the
    smallest moduli (product at most ``WHEEL_PERIOD_LIMIT``), then strided adds."""
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
    buf = tile if period == n else _repeat(tile, n)
    for p, r in pairs[wheel:]:
        buf[(r - lo) % p :: p] += 1
    return buf


def _bin(buf, degree: int) -> list[int]:
    """Entries 0..degree of the histogram of the counters ``buf``."""
    import numpy as np

    covered = [int(np.count_nonzero(buf == j)) for j in range(1, degree + 1)]
    return [len(buf) - int(np.count_nonzero(buf)), *covered]


def _packed(p: int, r: int):
    """The integers n = r (mod p) of one packed period, lcm(p, 8) integers, as
    set bits eight per byte: bit i of byte b stands for the integer 8b + i + 1."""
    import numpy as np

    bits = np.zeros(8 * _packed_period(p), dtype=bool)
    bits[(r - 1) % p :: p] = True
    return np.packbits(bits, bitorder="little")


def _repeat(pattern, length: int):
    """``pattern`` repeated along its last axis and cut to ``length`` (np.tile's
    copy, without the ~3 us of its Python wrapper)."""
    copies = pattern[..., None, :].repeat(-(-length // pattern.shape[-1]), axis=-2)
    return copies.reshape(*pattern.shape[:-1], -1)[..., :length]


def _packed_period(period: int) -> int:
    """Bytes in lcm(period, 8) integers: the period of a ``period``-periodic pattern
    packed eight integers per byte."""
    return period // math.gcd(period, 8)


def _add(planes, mask, tmp=None) -> None:
    """Add the progression ``mask`` to thermometer planes, row j - 1 holding the
    integers covered at least j times: row j gains the row below it where
    ``mask`` is set (read before any row changes), row 0 gains ``mask``."""
    import numpy as np

    planes[1:] |= np.bitwise_and(planes[:-1], mask, out=tmp)
    planes[0] |= mask


def _plane_sieve(moduli: tuple[int, ...], residues: tuple[int, ...], degree: int, span: int):
    """A function that sieves chunks [lo, hi) of at most ``span`` integers and
    returns entries 0..degree of their summed coverage histogram. Each call of
    it allocates its planes once, for all of its chunks."""
    import numpy as np

    nbytes = 8 * (((span + 62) >> 6) + 1)  # the words a chunk of span integers can touch
    pairs = sorted(zip(moduli, residues))
    period, wheel = 1, 0  # the wheel's product and how many moduli it holds
    for p, _ in pairs:
        if _packed_period(period * p) > nbytes:
            break
        period *= p
        wheel += 1
    wheel_bytes = _packed_period(period)
    counts = _fill(1, 8 * wheel_bytes + 1, [p for p, _ in pairs[:wheel]],
                   [r for _, r in pairs[:wheel]])
    planes = np.packbits(counts > np.arange(degree + 1)[:, None], axis=1, bitorder="little")
    wheel_planes = _repeat(planes, wheel_bytes + nbytes)  # any chunk is one slice
    dense, sparse = [], []
    for p, r in pairs[wheel:]:
        packed_bytes = _packed_period(p)
        if packed_bytes > nbytes:
            sparse.append((p, r))
        else:
            dense.append((_repeat(_packed(p, r), packed_bytes + nbytes), packed_bytes))

    def sieve(bounds: Iterable[tuple[int, int]]) -> list[int]:
        buf = np.empty((degree + 1, nbytes), dtype=np.uint8)
        tmp = np.empty((degree, nbytes), dtype=np.uint8)
        ones = np.zeros(degree + 1, dtype=np.uint64)  # set bits of each plane
        integers = 0
        for lo, hi in bounds:
            # the bytes of the 64-bit words holding the bits lo - 1 .. hi - 2
            start, stop = 8 * ((lo - 1) >> 6), 8 * (((hi - 2) >> 6) + 1)
            ge = buf[:, : stop - start]
            s = start % wheel_bytes
            np.copyto(ge, wheel_planes[:, s : s + stop - start])
            for mask, packed_bytes in dense:
                s = start % packed_bytes
                _add(ge, mask[s : s + stop - start], tmp[:, : stop - start])
            for p, r in sparse:
                bits = np.arange((r - 1 - 8 * start) % p, 8 * (stop - start), p)
                cols = bits >> 3
                members = ge[:, cols]
                _add(members, (1 << (bits & 7)).astype(np.uint8))
                ge[:, cols] = members
            words = ge.view("<u8")
            if (lo - 1) & 63:
                words[:, 0] &= np.uint64((1 << 64) - (1 << ((lo - 1) & 63)))
            if (hi - 1) & 63:
                words[:, -1] &= np.uint64((1 << ((hi - 1) & 63)) - 1)
            # uint32 sums: a plane of a chunk holds fewer than 2**32 bits
            ones += np.bitwise_count(words).sum(axis=1, dtype=np.uint32)
            integers += hi - lo
        at_least = ones.tolist()
        return [integers - at_least[0],
                *(at_least[j - 1] - at_least[j] for j in range(1, degree + 1))]

    return sieve


def _chunk_histogram(lo: int, hi: int, moduli: tuple[int, ...],
                     residues: tuple[int, ...], degree: int) -> list[int]:
    """Entries 0..degree of the coverage histogram of the window slice [lo, hi)."""
    return _plane_sieve(moduli, residues, degree, hi - lo)([(lo, hi)])


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
    end = system.product + 1
    if system.product <= min(CHUNK_SIZE, COUNTER_WINDOW):
        return tuple(_bin(_fill(1, end, system.moduli, residues), degree))
    bounds = [(lo, min(lo + CHUNK_SIZE, end)) for lo in range(1, end, CHUNK_SIZE)]
    sieve = _plane_sieve(system.moduli, residues, degree, min(CHUNK_SIZE, system.product))
    cpus = _usable_cpus()
    # below degree 3 each numpy call of a chunk takes a few us, and a second worker
    # does not pay for its GIL handoffs between the calls. On a 2-CPU host a call
    # on the first 9 primes took a median 30 ms on one worker and 43 on two at
    # degree 1, and 42-53 ms on either at degree 2; from degree 3 two won, with
    # medians 50-67 ms against 45-52 at degree 3 and 231 against 128 at degree 9
    workers = min(threads or cpus, cpus, len(bounds)) if degree >= 3 else 1
    if workers > 1:
        # imported here: concurrent.futures loads threading, queue and logging
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(sieve, (bounds[i::workers] for i in range(workers))))
    else:
        parts = [sieve(bounds)]
    return tuple(map(sum, zip(*parts)))


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
