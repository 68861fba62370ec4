"""Brute-force sieve over [1, product]: the ground truth for the identities.

For one residue assignment the sieve walks the window in chunks of thermometer
bit planes, eight integers per byte: plane j holds the integers covered at least
j times, j = 1..degree + 1. A modulus is added by ORing into each plane, from
the top down, the plane below it where the modulus's progression is set, then
the progression into plane 1. Entry j of the histogram is the popcount of plane
j minus that of plane j + 1 (entry 0: the integers outside plane 1). Reading
stops at the degree asked for, as the fold of ``counting.coverage_counts`` stops
at x^1; every integer is still sieved.

The smallest moduli, while lcm(W, 8) integers of their product W fit a chunk,
form a wheel (Pritchard, "Explaining the wheel sieve", Acta Informatica 17,
1982). It and each other modulus's progression are packed once per call and
repeated so that every chunk, widened to 64-bit words, is one slice of them; a
modulus packed longer than a chunk is set at its members only. Chunk histograms
add, so any partition of the window gives identical results.

An exhaustive check needs no numpy. Its tail takes the moduli from the largest
down while coprime to it, leaving one or more (the head) when k >= 2. Per head
assignment ``_fill`` fills a counter byte per integer; the integers covered 0
and 1 times per class mod the tail's product q are counted into two ints of q
lanes, each the narrowest of 2, 4 or 8 bytes that holds the window (SIMD within
a register: Fisher and Dietz, LCPC 1998). Along each tail modulus p, residue r
turns its class's 0s into 1s and 1s into 2s: h_0 becomes T_0 - h_0 and h_1
T_1 - h_1 + h_0, T_j the sum of h_j over the classes that agree mod q / p, on
all lanes at once. Two comparisons check a block; no table of the window is
built, every count is read off a fill, and nothing assumes the identities.

numpy is imported on the first sieve call. The sieve, the counts read from it
and the independence check take the same keyword ``product_limit``, the largest
window they sieve.
"""

from __future__ import annotations

import itertools
import math
import random
import struct
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

from .core import CoverageCounts, ModulusSystem, _decimal_str, _integers, assign_residues
from .counting import _counts, coverage_counts
from .errors import ResourceLimitError, ValidationError

# Integers per chunk. On a 2-CPU host the first 9 primes sieved at degree 1 as
# fast at 2**20 as at 2**21 or 2**22, with the least peak RSS; 2**18 took over
# twice as long (numpy calls of a few us).
CHUNK_SIZE = 1 << 20
DEFAULT_PRODUCT_LIMIT = 10**9
# Integers sieved per check. On a 2-CPU host a random check of large windows
# sieves them in about 1 s (~10 G/s), one of many windows below 10**5, each
# charged max(product, SIEVE_CALL_INTEGERS), in 9-41 s (18-26 s at product 6,
# 31-41 s at 2310), and the worst exhaustive one near 10**5, (313, 317), in 0.08 s.
SIEVE_BUDGET = 10**10
# Each assignment a check tests is charged at least this many integers. On a
# 2-CPU host a random check takes 30-35 us a trial at product 6, as long as
# 0.3-0.4 M integers of a large window take; the charge is kept as it was when
# such a call cost 9500-37500 integers, so that every refusal stays the same.
SIEVE_CALL_INTEGERS = 16384
# Exhaustive blocks of fewer rows than this, and than columns, fold them; a
# fold's sums must stay below 256. On a 2-CPU host, on head fills of 143, 1001
# and 15015 columns (2-byte lanes), folds took 0.05-0.85x the time of column
# counts from 2 to 47 rows, 0.71-1.13x from 62 to 79 and 0.94-1.89x from 97 to 127.
FOLD_ROWS = 128
_INC = bytes(range(1, 256)) + b"\0"  # translate tables: each byte plus one,
_FLAGS = (b"\1" + bytes(255), b"\0\1" + bytes(254))  # and flags of bytes 0 and 1
_LANES = {2: "H", 4: "I", 8: "Q"}  # struct codes of little-endian lanes by width in bytes


class IndependenceReport(NamedTuple):
    """Outcome of sieving one system under many residue assignments."""

    assignments_tested: int
    all_match: bool
    expected: CoverageCounts
    mismatches: tuple[tuple[tuple[int, ...], CoverageCounts], ...] = ()


def _check_window(system: ModulusSystem, product_limit: int) -> None:
    """Refuse a ``product_limit`` below 1, then a window [1, product] over it."""
    (product_limit,) = _integers([product_limit], "product_limit")
    if product_limit < 1:
        raise ValidationError("product_limit must be >= 1")
    if system.product > product_limit:
        raise ResourceLimitError(f"product {_decimal_str(system.product)} exceeds sieve"
                                 f" limit {_decimal_str(product_limit)}")


def _fill(lo: int, hi: int, moduli: tuple[int, ...], residues: tuple[int, ...]) -> bytearray:
    """One coverage counter byte per integer of [lo, hi). While the product of
    the smallest moduli fits the window, buf is one period of them: it is
    repeated p times before modulus p is added, by a strided translate."""
    n = hi - lo
    buf = bytearray(1)
    for p, r in sorted(zip(moduli, residues)):
        if len(buf) < n:
            buf = buf * p if len(buf) * p <= n else _tile(buf, n)
        s = (r - lo) % p
        buf[s::p] = buf[s::p].translate(_INC)
    return buf if len(buf) == n else _tile(buf, n)


def _tile(buf: bytearray, n: int) -> bytearray:
    """``buf`` repeated and cut to n bytes."""
    return buf * (n // len(buf)) + buf[: n % len(buf)]


def _repeat(pattern, length: int):
    """``pattern`` repeated along its last axis and cut to ``length`` (np.tile's
    copy, without the ~3 us of its Python wrapper)."""
    copies = pattern[..., None, :].repeat(-(-length // pattern.shape[-1]), axis=-2)
    return copies.reshape(*pattern.shape[:-1], -1)[..., :length]


def _packed_period(period: int) -> int:
    """Bytes in lcm(period, 8) integers: the period of a ``period``-periodic pattern
    packed eight integers per byte."""
    return period // math.gcd(period, 8)


def _planes(pairs: list[tuple[int, int]], degree: int):
    """Thermometer planes of the progressions n = r (mod p), (p, r) in ``pairs``,
    over one packed period of their product: row j - 1 holds the integers covered
    at least j times, eight per byte, bit i of byte b standing for 8b + i + 1."""
    import numpy as np

    period = _packed_period(math.prod(p for p, _ in pairs))
    counts = np.frombuffer(_fill(1, 8 * period + 1, [p for p, _ in pairs],
                                 [r for _, r in pairs]), dtype=np.uint8)
    # one plane's bools at a time: all rows at once took the 510510 window from
    # 251 to 357 us a call on a 2-CPU host, most of it in pages faulted afresh
    planes = np.empty((degree + 1, period), dtype=np.uint8)
    for j, plane in enumerate(planes):
        plane[:] = np.packbits(counts > j, bitorder="little")
    return planes


def _add(planes, mask, tmp=None) -> None:
    """Add the progression ``mask`` to thermometer planes, row j - 1 holding the
    integers covered at least j times: row j gains the row below it where
    ``mask`` is set (read before any row changes), row 0 gains ``mask``."""
    import numpy as np

    planes[1:] |= np.bitwise_and(planes[:-1], mask, out=tmp)
    planes[0] |= mask


def _chunk_histogram(lo: int, hi: int, moduli: tuple[int, ...],
                     residues: tuple[int, ...], degree: int) -> list[int]:
    """Entries 0..degree of the coverage histogram of the window slice [lo, hi),
    sieved in chunks of at most ``CHUNK_SIZE`` integers into planes allocated
    once for all of them."""
    import numpy as np

    span = min(CHUNK_SIZE, hi - lo)
    nbytes = 8 * (((span + 62) >> 6) + 1)  # the words a chunk of span integers can touch
    pairs = sorted(zip(moduli, residues))
    period, wheel = 1, 0  # the wheel's product and how many moduli it holds
    for p, _ in pairs:
        if _packed_period(period * p) > nbytes:
            break
        period *= p
        wheel += 1
    wheel_bytes = _packed_period(period)
    wheel_planes = _repeat(_planes(pairs[:wheel], degree), wheel_bytes + nbytes)
    dense, sparse = [], []
    for p, r in pairs[wheel:]:
        packed_bytes = _packed_period(p)
        if packed_bytes > nbytes:
            sparse.append((p, r))
        else:
            dense.append((_repeat(_planes([(p, r)], 0)[0], packed_bytes + nbytes), packed_bytes))

    buf = np.empty((degree + 1, nbytes), dtype=np.uint8)
    tmp = np.empty((degree, nbytes), dtype=np.uint8)
    ones = np.zeros(degree + 1, dtype=np.uint64)  # set bits of each plane
    for first in range(lo, hi, CHUNK_SIZE):
        end = min(first + CHUNK_SIZE, hi)
        # the bytes of the 64-bit words holding the bits first - 1 .. end - 2
        start, stop = 8 * ((first - 1) >> 6), 8 * (((end - 2) >> 6) + 1)
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
        if (first - 1) & 63:
            words[:, 0] &= np.uint64((1 << 64) - (1 << ((first - 1) & 63)))
        if (end - 1) & 63:
            words[:, -1] &= np.uint64((1 << ((end - 1) & 63)) - 1)
        # uint32 sums: a plane of a chunk holds fewer than 2**32 bits
        ones += np.bitwise_count(words).sum(axis=1, dtype=np.uint32)
    at_least = ones.tolist()
    return [hi - lo - at_least[0],
            *(at_least[j - 1] - at_least[j] for j in range(1, degree + 1))]


def sieve_histogram(
    system: ModulusSystem,
    residues: Iterable[int],
    *,
    product_limit: int = DEFAULT_PRODUCT_LIMIT,
    degree: int | None = None,
) -> tuple[int, ...]:
    """Entry j, for j = 0..degree (default k), counts the integers in
    [1, product] covered exactly j times, by direct enumeration."""
    _check_window(system, product_limit)
    residues = assign_residues(system, residues)
    (degree,) = _integers([system.k if degree is None else degree], "degree")
    if not 0 <= degree <= system.k:
        raise ValidationError(f"degree must be in [0, {system.k}], got {_decimal_str(degree)}")
    return tuple(_chunk_histogram(1, system.product + 1, system.moduli, residues, degree))


def oracle_counts(
    system: ModulusSystem,
    residues: Iterable[int],
    *,
    product_limit: int = DEFAULT_PRODUCT_LIMIT,
) -> CoverageCounts:
    """Free/available/occupied counts as the sieve actually observes them.

    Only the integers covered at most once are binned; every other integer
    of the window, all of which are sieved, is occupied.
    """
    histogram = sieve_histogram(system, residues, product_limit=product_limit, degree=1)
    return _counts(system, *histogram)


def _random_assignments(system: ModulusSystem, trials: int, seed: int) -> Iterator[tuple]:
    rng = random.Random(seed)
    for _ in range(trials):
        yield tuple(rng.randrange(p) for p in system.moduli)


def _fold(x: int, rows: int, row_bits: int) -> int:
    """The sum, lane by lane, of the ``rows`` rows of ``row_bits`` bits that x holds."""
    while rows > 1:
        keep = rows - rows // 2  # rows keep.. add onto rows 0..; an odd count's middle stays
        shift = row_bits * keep
        x, rows = (x & ((1 << shift) - 1)) + (x >> shift), keep
    return x


def _column_counts(buf: bytearray, q: int, width: int) -> list[int]:
    """How many 0s, then 1s, each column buf[t::q] holds, in lane t of q lanes of ``width``
    bytes. Fewer rows than columns and than ``FOLD_ROWS`` are folded in byte lanes."""
    rows, layout = len(buf) // q, f"<{q}{_LANES[width]}"
    if rows >= min(q, FOLD_ROWS):
        columns = [buf[t::q] for t in range(q)]
        return [int.from_bytes(struct.pack(layout, *map(bytearray.count, columns, repeat(j))),
                               "little") for j in (0, 1)]
    sums = []
    for flags in map(buf.translate, _FLAGS):
        wide = bytearray(q * width)  # each sum, below 256, in the low byte of its lane
        wide[::width] = _fold(int.from_bytes(flags, "little"), rows, 8 * q).to_bytes(q, "little")
        sums.append(int.from_bytes(wide, "little"))
    return sums


def _exhaustive_histograms(system: ModulusSystem, width: int) -> Iterator[tuple]:
    """Per block, the assignments sharing the head residues (lazily), their number
    q, then their free and once-covered counts, each in q lanes of ``width`` bytes."""
    moduli, size = system.moduli, system.product
    by_size = sorted(range(system.k), key=moduli.__getitem__)
    split, q = system.k - 1, moduli[by_size[-1]]  # the tail: by_size[split:], product q
    # k >= 2 keeps a head modulus, so that a block's lanes hold at most half the window
    while split > 1 and math.gcd(moduli[by_size[split - 1]], q) == 1:
        split -= 1
        q *= moduli[by_size[split]]
    head_moduli = tuple(moduli[i] for i in by_size[:split])
    tail = [moduli[i] for i in by_size[split:]]
    where = sorted(range(system.k), key=by_size.__getitem__)  # each modulus's place in by_size
    for residues in itertools.product(*map(range, head_moduli)):
        # lane u counts the integers u + 1 + q * N; by the CRT the lanes u % m + m * j,
        # m = q // p, share their other tail residues and take each residue mod p once
        h0, h1 = _column_counts(_fill(1, size + 1, head_moduli, residues), q, width)
        for p in tail:  # residue r covers class r: its 0s become 1s, its 1s 2s
            m = q // p  # line totals: the p rows of m lanes added, then repeated p times
            t0, t1 = (int.from_bytes(_fold(h, p, 8 * width * m).to_bytes(width * m, "little") * p,
                                     "little") for h in (h0, h1))
            h0, h1 = t0 - h0, t1 - h1 + h0  # no lane borrows: each lane of t is >= that of h
        # lane u now counts the assignment giving each tail modulus p residue u + 1 mod p
        tails = ([(u + 1) % p for p in tail] for u in range(q))
        yield (tuple(map([*residues, *t].__getitem__, where)) for t in tails), q, h0, h1


def residue_independence_check(
    system: ModulusSystem,
    trials: int = 20,
    seed: int = 0,
    *,
    product_limit: int = DEFAULT_PRODUCT_LIMIT,
    exhaustive: bool = False,
) -> IndependenceReport:
    """Sieve many assignments and compare each against the recurrence counts.

    Random mode draws ``trials`` assignments from a generator seeded with
    ``seed`` (each residue uniform in [0, p)), so reports are reproducible;
    exhaustive mode enumerates all ``product`` of them. Before any count, a check
    refuses ``trials`` below 1 (random mode only), then its limit and window, then
    assignments x max(product, ``SIEVE_CALL_INTEGERS``) over ``SIEVE_BUDGET``.
    """
    if exhaustive:
        mode, assignments = "exhaustive", system.product
    else:
        (trials,) = _integers([trials], "trials")
        if trials < 1:
            raise ValidationError("trials must be >= 1")
        mode, assignments = "random", trials
    _check_window(system, product_limit)
    sieved = assignments * max(system.product, SIEVE_CALL_INTEGERS)
    if sieved > SIEVE_BUDGET:
        raise ResourceLimitError(
            f"{_decimal_str(sieved)} integers to sieve exceed the {mode} budget {SIEVE_BUDGET}"
        )

    expected = coverage_counts(system)
    # a lane holds any count of the window, which the budget keeps below 2**64
    width = next(w for w in (2, 4, 8) if not system.product >> 8 * w)
    observed = _exhaustive_histograms(system, width) if exhaustive else (
        ((residues,), 1, *sieve_histogram(system, residues, degree=1, product_limit=product_limit))
        for residues in _random_assignments(system, trials, seed))
    # blocks are tested by two comparisons with the wanted counts in every lane (one
    # lane in random mode); a failing one is read back, a CoverageCounts made per mismatch kept
    want = (expected.free, expected.available - expected.free)
    tested, kept = 0, []  # (residues, free, once): the first five in trial or product order
    for block, lanes, *counts in observed:
        tested += lanes
        ones = int.from_bytes((1).to_bytes(width, "little") * lanes, "little")
        if counts != [want[0] * ones, want[1] * ones]:
            read = (struct.unpack(f"<{lanes}{_LANES[width]}", c.to_bytes(width * lanes, "little"))
                    for c in counts)
            found = itertools.chain(kept, (m for m in zip(block, *read) if m[1:] != want))
            kept = sorted(found)[:5] if exhaustive else [*itertools.islice(found, 5)]
    return IndependenceReport(
        assignments_tested=tested,
        all_match=not kept,
        expected=expected,
        mismatches=tuple((residues, _counts(system, *hist)) for residues, *hist in kept),
    )
