"""Counting recurrences, the full coverage histogram, and sequence terms.

The headline identities: for any system of k pairwise-coprime moduli and
ANY choice of residue classes, the window [1, product] contains exactly
``free_det`` integers in no chosen class and ``available_det`` integers in
at most one. The histogram generalizes this to every multiplicity j: the
count of integers lying in exactly j classes is the x^j coefficient of
the polynomial prod_i ((p_i - 1) + x), since by CRT each of the 2^k
covered/uncovered patterns occurs for exactly prod-over-uncovered
(p_i - 1) integers per window.
"""

from __future__ import annotations

import math

from .core import CoverageCounts, ModulusSystem, _decimal_str, _integers
from .determinant import Number, _free_and_once, coverage_polynomials
from .errors import ResourceLimitError, ValidationError

MAX_FIRST_PRIMES = 10**6  # a ~17 MB sieve
# Moduli x the sum of their bit lengths that a histogram may cost: the fold's k steps
# and the k + 1 decimals of its result both grow with it. Whole `count --format csv`
# processes on a 2-CPU host: the first 1500 primes (2.8e7) took 1.0-1.6 s, the first
# 2000 (5.2e7) 2.6 s and the first 3000 (1.2e8) 8.3 s; near the budget, the first 1958
# primes took 2.1-3.0 s, 890 primes near 2**63 2.0-2.2 s and 1250 near 2**32 2.1-2.5 s.
HISTOGRAM_BUDGET = 5 * 10**7


def coverage_counts(system: ModulusSystem) -> CoverageCounts:
    """Exact free/available/occupied counts, independent of any assignment."""
    return _counts(system, *_free_and_once(system.moduli))


def _counts(system: ModulusSystem, free: int, once: int) -> CoverageCounts:
    """The counts of a window holding ``free`` integers in no class, ``once`` in one."""
    return CoverageCounts(free + once, free, system.product - free - once, system.product)


def occ_recurrence(system: ModulusSystem) -> int:
    """Occupied count by its own recurrence, independent of available_det.

    occ(1) = 0; extending by modulus p copies the existing pattern p times
    and turns one previously exactly-once-covered integer per copy into a
    doubly covered one: occ -> P_prev + (p - 1) * occ - free_prev.
    """
    moduli = system.moduli
    occ = 0
    prefix_product = moduli[0]
    free = moduli[0] - 1
    for p in moduli[1:]:
        occ = prefix_product + (p - 1) * occ - free
        prefix_product *= p
        free *= p - 1
    return occ


def exact_coverage_histogram(system: ModulusSystem) -> tuple[int, ...]:
    """Entry j counts the integers in [1, product] covered exactly j times, j = 0..k.

    The whole polynomial prod_i ((p_i - 1) + x), in O(k^2) exact
    big-integer operations: the last prefix of the fold, refused past ``HISTOGRAM_BUDGET``.
    """
    cost = system.k * sum(m.bit_length() for m in system.moduli)
    if cost > HISTOGRAM_BUDGET:
        raise ResourceLimitError(
            f"{cost} moduli x modulus bits exceed the histogram budget {HISTOGRAM_BUDGET}"
        )
    for histogram in coverage_polynomials(system.moduli, system.k):
        pass
    return histogram


def first_primes(count: int) -> list[int]:
    """The first ``count`` primes via a plain sieve with a Rosser bound."""
    (count,) = _integers([count], "count")
    if count < 1:
        raise ValidationError(f"need at least 1 prime, got {_decimal_str(count)}")
    if count > MAX_FIRST_PRIMES:
        raise ResourceLimitError(
            f"{_decimal_str(count)} primes exceed the first-primes limit {MAX_FIRST_PRIMES}"
        )
    n = max(count, 6)  # p_n < n (ln n + ln ln n) for n >= 6
    bound = int(n * (math.log(n) + math.log(math.log(n)))) + 1
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    primes = [i for i, flag in enumerate(sieve) if flag]
    return primes[:count]


def _sequence_over_first_primes(n_terms: int, degree: int, one: Number) -> tuple[Number, ...]:
    """Sum of the coefficients up to x^degree, over each prefix of the first primes."""
    return tuple(sum(c) for c in coverage_polynomials(first_primes(n_terms), degree, one))


def oeis_a067549(n_terms: int, one: Number = 1) -> tuple[Number, ...]:
    """Available-count determinants over the first k primes, k = 1..n_terms,
    of the type of ``one`` (see ``coverage_polynomials``)."""
    return _sequence_over_first_primes(n_terms, degree=1, one=one)


def oeis_a005867(n_terms: int, one: Number = 1) -> tuple[Number, ...]:
    """Free-count determinants over the first k primes, k = 1..n_terms: prod (p_i - 1),
    of the type of ``one`` (see ``coverage_polynomials``)."""
    return _sequence_over_first_primes(n_terms, degree=0, one=one)
