"""Property tests: the product tree and the coverage-polynomial fold against
each other, elimination and the sieve, Bareiss against Laplace, and results
that must not depend on modulus order or on how the sieve runs."""

import decimal
import itertools
import math
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import apcover.oracle as oracle
from apcover.core import ModulusSystem, _decimal_str, assign_residues, validate_modulus_system
from apcover.counting import coverage_counts, exact_coverage_histogram, first_primes
from apcover.determinant import (
    available_det,
    build_available_matrix,
    build_free_matrix,
    coverage_polynomials,
    det_bareiss,
    det_laplace,
    free_det,
)
from apcover.errors import ValidationError
from apcover.oracle import sieve_histogram

# Derandomized so every run of the suite draws the same examples.
PROPERTY = settings(derandomize=True, deadline=None, database=None)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

prime_systems = st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=10, unique=True)


@st.composite
def coprime_composite_systems(draw):
    """Up to 10 pairwise-coprime moduli, each p^a or p^a * q^b from its own pair of primes."""
    primes = draw(st.permutations(SMALL_PRIMES))
    moduli = []
    for i in range(draw(st.integers(1, len(primes) // 2))):
        modulus = primes[2 * i] ** draw(st.integers(1, 2))
        if draw(st.booleans()):
            modulus *= primes[2 * i + 1] ** draw(st.integers(1, 2))
        moduli.append(modulus)
    return moduli


def check_fold_against_bareiss(moduli, coprime):
    s = validate_modulus_system(moduli, coprime_mode=coprime)
    raw_free = det_bareiss(build_free_matrix(s))
    assert free_det(s) == (raw_free if s.k % 2 == 0 else -raw_free)
    assert available_det(s) == det_bareiss(build_available_matrix(s))
    counts = exact_coverage_histogram(s)
    assert counts[0] == free_det(s)
    assert counts[0] + counts[1] == available_det(s)


@PROPERTY
@given(prime_systems)
def test_fold_matches_bareiss_on_prime_systems(moduli):
    check_fold_against_bareiss(moduli, coprime=False)


@PROPERTY
@given(coprime_composite_systems())
def test_fold_matches_bareiss_on_coprime_composite_systems(moduli):
    check_fold_against_bareiss(moduli, coprime=True)


@PROPERTY
@given(st.one_of(prime_systems, coprime_composite_systems(), st.integers(1, 200).map(first_primes)))
@example(first_primes(199))
def test_product_tree_equals_the_folds_last_prefix(moduli):
    # the first 1-200 primes give trees of up to 8 levels, odd lengths included
    s = validate_modulus_system(moduli, coprime_mode=True)
    *_, (free,) = coverage_polynomials(s.moduli, 0)
    *_, (free_again, once) = coverage_polynomials(s.moduli, 1)
    assert free_det(s) == free == free_again
    assert available_det(s) == free + once
    assert coverage_counts(s)[:2] == (free + once, free)


# holds any integer, and raises on any rounding
EXACT_DECIMALS = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow],
)


@PROPERTY
@given(st.one_of(prime_systems, coprime_composite_systems()), st.integers(0, 3))
def test_decimal_fold_prints_as_the_int_fold(moduli, degree):
    with decimal.localcontext(EXACT_DECIMALS):
        in_decimal = list(coverage_polynomials(moduli, degree, decimal.Decimal(1)))
    in_int = list(coverage_polynomials(moduli, degree))
    assert all(isinstance(c, decimal.Decimal) for coeffs in in_decimal for c in coeffs)
    assert [tuple(map(str, coeffs)) for coeffs in in_decimal] == \
        [tuple(map(str, coeffs)) for coeffs in in_int]


# any sign and 2**10 to 2**15 bits, so str(n) and splits at 2**2048 up to 2**16384 are
# taken; Decimal(n) is libmpdec's own conversion, to which no int->str digit limit applies
@PROPERTY
@given(st.integers(2**10, 2**15).flatmap(lambda bits: st.integers(-(2**bits), 2**bits)))
def test_decimal_str_is_libmpdecs_conversion(n):
    assert _decimal_str(n) == str(decimal.Decimal(n))


@PROPERTY
@given(st.one_of(prime_systems, coprime_composite_systems()).flatmap(
    lambda ms: st.tuples(st.just(ms), st.permutations(ms))
))
def test_counts_and_histogram_ignore_modulus_order(pair):
    original, permuted = (validate_modulus_system(ms, coprime_mode=True) for ms in pair)
    assert coverage_counts(original) == coverage_counts(permuted)
    assert exact_coverage_histogram(original) == exact_coverage_histogram(permuted)


@PROPERTY
@given(st.lists(st.integers(2, 200), min_size=1, max_size=12, unique=True))
@example([4, 9, 25, 7])
@example([10, 3, 9, 5])  # two clashing pairs
def test_coprime_mode_refuses_exactly_the_lists_with_a_shared_factor(moduli):
    clashing = any(math.gcd(a, b) != 1 for i, a in enumerate(moduli) for b in moduli[i + 1:])
    if not clashing:
        system = validate_modulus_system(moduli, coprime_mode=True)
        assert system.moduli == tuple(moduli) and system.product == math.prod(moduli)
        return
    with pytest.raises(ValidationError) as refusal:
        validate_modulus_system(moduli, coprime_mode=True)
    a, b = map(int, re.fullmatch(r"moduli (\d+) and (\d+) share a common factor",
                                 str(refusal.value)).groups())
    assert a in moduli and b in moduli and a != b
    assert math.gcd(a, b) != 1


SIEVE_SYSTEMS = ((2,), (2, 3), (2, 3, 5), (3, 5, 7), (2, 3, 5, 7), (2, 3, 5, 7, 11),
                 (4, 9, 5), (8, 9, 25))


@PROPERTY
@given(
    moduli=st.sampled_from(SIEVE_SYSTEMS),
    residues=st.lists(st.integers(0, 10**6), min_size=5, max_size=5),
    chunk_words=st.integers(1, 40),
)
@example(moduli=(2, 3, 5, 7, 11), residues=[1, 2, 3, 4, 5], chunk_words=1)
@example(moduli=(2, 3, 5, 7, 11), residues=[0] * 5, chunk_words=37)  # one chunk, exactly
@example(moduli=(2, 3), residues=[1] * 5, chunk_words=1)  # one word, cut to 6 bits
def test_sieve_ignores_chunk_size(moduli, residues, chunk_words):
    s = validate_modulus_system(moduli, coprime_mode=True)
    a = assign_residues(s, residues[: s.k])
    whole_window = sieve_histogram(s, a)
    with mock.patch.object(oracle, "CHUNK_WORDS", chunk_words):
        assert sieve_histogram(s, a) == whole_window
    assert whole_window == exact_coverage_histogram(s)


# Products 2310 and 30030, moduli out of order, coprime composites, and moduli
# too large to share a tile, under chunk sizes whose starts fall off the tile period.
WHEEL_SYSTEMS = ((2, 3, 5, 7, 11), (2, 3, 5, 7, 11, 13), (11, 2, 7, 3, 5),
                 (13, 11, 7, 5, 3, 2), (4, 9, 25, 7), (7, 25, 9, 4), (211, 223))


@settings(PROPERTY, max_examples=25)
@given(
    moduli=st.sampled_from(WHEEL_SYSTEMS),
    residues=st.lists(st.integers(0, 10**6), min_size=6, max_size=6),
    chunk_words=st.integers(1, 16),
)
@example(moduli=(2, 3, 5, 7, 11, 13), residues=[1, 2, 3, 4, 5, 6], chunk_words=16)
@example(moduli=(11, 2, 7, 3, 5), residues=[0] * 6, chunk_words=3)  # 24 bytes, the wheel 15
@example(moduli=(211, 223), residues=[5, 7] + [0] * 4, chunk_words=15)
def test_sieve_ignores_chunk_starts_off_the_wheel(moduli, residues, chunk_words):
    s = validate_modulus_system(moduli, coprime_mode=True)
    a = assign_residues(s, residues[: s.k])
    with mock.patch.object(oracle, "CHUNK_WORDS", chunk_words):
        assert sieve_histogram(s, a) == exact_coverage_histogram(s)


@settings(PROPERTY, max_examples=40)
@given(
    moduli=st.sampled_from(SIEVE_SYSTEMS + WHEEL_SYSTEMS),
    residues=st.lists(st.integers(0, 10**6), min_size=6, max_size=6),
    chunk_words=st.integers(1, 16),
    degree=st.integers(0, 6),
)
@example(moduli=(2, 3, 5, 7, 11, 13), residues=[1, 2, 3, 4, 5, 6], chunk_words=16, degree=1)
def test_truncated_sieve_is_a_prefix_of_the_fold(moduli, residues, chunk_words, degree):
    s = validate_modulus_system(moduli, coprime_mode=True)
    a = assign_residues(s, residues[: s.k])
    degree %= s.k + 1
    with mock.patch.object(oracle, "CHUNK_WORDS", chunk_words):
        assert sieve_histogram(s, a, degree=degree) == exact_coverage_histogram(s)[: degree + 1]


@settings(PROPERTY, max_examples=150)
@given(
    moduli=st.lists(st.one_of(st.integers(2, 40), st.integers(41, 10**5)), min_size=1,
                    max_size=8),
    residues=st.lists(st.integers(-10**6, 10**6), min_size=8, max_size=8),
    n=st.integers(1, 5000),
)
@example(moduli=[3, 7, 3, 6], residues=[2, 5, -1, 4] + [0] * 4, n=20)  # a period cut short
@example(moduli=[2, 4, 8, 16], residues=[1, 1, 1, 1] + [0] * 4, n=64)
@example(moduli=[99991, 5000], residues=[-3, 4999] + [0] * 6, n=4999)  # no period fits
def test_fill_counts_the_progressions_at_each_integer(moduli, residues, n):
    # byte i counts the pairs (p, r) with p | i + 1 - r, one integer at a time:
    # shared factors and repeats included, residues unreduced
    pairs = list(zip(moduli, residues))
    counters = oracle._fill(n, tuple(moduli), tuple(r for _, r in pairs))
    assert counters == bytearray(sum((i + 1 - r) % p == 0 for p, r in pairs) for i in range(n))


@settings(PROPERTY, max_examples=150)
@given(
    moduli=st.lists(st.one_of(st.integers(2, 40), st.integers(41, 10**5)), min_size=1,
                    max_size=8),
    residues=st.lists(st.integers(-10**6, 10**6), min_size=8, max_size=8),
    size=st.integers(1, 20000),
    chunk_words=st.integers(1, 40),
    degree=st.integers(0, 8),
)
@example(moduli=[2, 1000003], residues=[1, 5] + [0] * 6, size=1_004_099, chunk_words=977,
         degree=2)
@example(moduli=[8, 9, 25, 4], residues=[3, 1, 7, 2] + [0] * 4, size=815, chunk_words=3,
         degree=4)
def test_planes_equal_the_fill_counters_binned(moduli, residues, size, chunk_words, degree):
    # the planes on any prefix of any moduli, shared factors and repeats included:
    # wheel, dense and member-by-member moduli, chunk starts anywhere on their
    # periods, and the last word cut anywhere
    import numpy as np

    a = tuple(residues[: len(moduli)])
    degree %= len(moduli) + 1
    counters = oracle._fill(size, tuple(moduli), a)
    binned = np.bincount(counters, minlength=len(moduli) + 1)[: degree + 1].tolist()
    with mock.patch.object(oracle, "CHUNK_WORDS", chunk_words):
        assert oracle._chunk_histogram(size, tuple(moduli), a, degree) == binned


# Runs of 3 to 6 calls that share every residue but the last and step the
# last up by 1 (wrapping mod its modulus), in the order an exhaustive check
# enumerates them; residues from {0, 1, 2} but the last, so consecutive runs
# often share them too; chunks of 2 and 16 words split most of these windows.
sieve_runs = st.lists(st.tuples(
    st.sampled_from(SIEVE_SYSTEMS + WHEEL_SYSTEMS),
    st.lists(st.integers(0, 2), min_size=5, max_size=5),
    st.builds(lambda start, n: range(start, start + n), st.integers(-10**6, 10**6),
              st.integers(3, 6)),
    st.integers(0, 6),
    st.sampled_from((1 << 14, 2, 16)),
), min_size=1, max_size=4)


@settings(PROPERTY, max_examples=30)
@given(sieve_runs)
@example([((2, 3, 5, 7, 11), [1, 2, 0, 1, 0], [0, 1, 2, 3], 1, 1 << 14),
          ((2, 3, 5, 7, 11), [1, 2, 0, 1, 0], [0, 1, 2], 1, 2),
          ((2, 3, 5, 7), [1, 2, 0, 1, 0], [3, 4, 5], 4, 1 << 14),
          ((2, 3, 5, 7, 11), [1, 2, 0, 1, 0], [9, 10, 11, 12], 5, 1 << 14)])
@example([((2, 3, 5, 7, 11, 13), [1, 2, 0, 1, 0], [11, 12, 13, 14, 0], 1, 1 << 14),
          ((13, 11, 7, 5, 3, 2), [1, 2, 0, 1, 0], [0, 1, 2], 6, 1 << 14)])
def test_sieve_ignores_earlier_calls(runs):
    calls = []
    for moduli, leading, lasts, degree, chunk_words in runs:
        s = validate_modulus_system(moduli, coprime_mode=True)
        residues = [assign_residues(s, [*leading[: s.k - 1], last]) for last in lasts]
        calls += [(s, a, degree % (s.k + 1), chunk_words) for a in residues]

    def run(calls):
        results = []
        for s, residues, degree, chunk_words in calls:
            with mock.patch.object(oracle, "CHUNK_WORDS", chunk_words):
                results.append(sieve_histogram(s, residues, degree=degree))
        return results

    forward = run(calls)
    assert forward == run(calls[::-1])[::-1]
    # each equals a cold sieve of its whole window, and the fold's prefix
    assert forward == [sieve_histogram(s, a, degree=degree) for s, a, degree, _ in calls]
    assert forward == [exact_coverage_histogram(s)[: degree + 1] for s, _, degree, _ in calls]


def smallest_within(moduli, limit=10**5):
    """The smallest moduli, in increasing order, while their product stays within ``limit``."""
    kept = []
    for modulus in sorted(moduli):
        if math.prod(kept) * modulus > limit:
            break
        kept.append(modulus)
    return kept


@st.composite
def sieve_assignments(draw):
    """A prime or pairwise-coprime system with product <= 10^5, and residues
    for it drawn from [-10^6, 10^6]: unreduced and negative ones included."""
    systems = st.one_of(prime_systems, coprime_composite_systems())
    moduli = draw(systems.map(smallest_within).filter(bool))
    residues = draw(st.lists(st.integers(-10**6, 10**6), min_size=len(moduli),
                             max_size=len(moduli)))
    return moduli, residues


@PROPERTY
@given(sieve_assignments())
@example(([2, 3, 5], [-1, -4, 29]))
def test_sieve_matches_fold_on_random_systems(pair):
    moduli, residues = pair
    s = validate_modulus_system(moduli, coprime_mode=True)
    assert sieve_histogram(s, residues) == exact_coverage_histogram(s)


@st.composite
def exhaustive_systems(draw):
    """k = 1..5 moduli in any order with product <= 2310: a validated prime or
    coprime system, or unvalidated moduli in 2..9 that may share factors."""
    if draw(st.booleans()):
        systems = st.one_of(prime_systems, coprime_composite_systems())
        moduli = draw(systems.map(lambda m: smallest_within(m, 2310)).filter(bool)
                      .flatmap(st.permutations))
        return validate_modulus_system(moduli, coprime_mode=True)
    moduli = draw(st.lists(st.integers(2, 9), min_size=1, max_size=5)
                  .filter(lambda m: math.prod(m) <= 2310))
    return ModulusSystem(moduli)


@settings(PROPERTY, max_examples=30)
@given(exhaustive_systems())
@example(validate_modulus_system([7, 2, 11, 3, 5]))
@example(ModulusSystem((3, 4, 9, 2)))
def test_block_histograms_equal_cold_sieves(s):
    cold = [(residues, sieve_histogram(s, residues, degree=1))
            for residues in itertools.product(*map(range, s.moduli))]
    width = next(w for w in (2, 4, 8) if s.product < 256**w)  # the width the check picks
    table = sorted((residues, (free, once))
                   for block, lanes, *counts in oracle._exhaustive_histograms(s, width)
                   for residues, free, once in zip(block, *(lanes_of(c, lanes, width)
                                                           for c in counts), strict=True))
    assert table == cold


def lanes_of(packed, lanes, width):
    """The ``lanes`` little-endian counts of ``width`` bytes that ``packed`` holds,
    lane 0 first, read back without ``struct``."""
    raw = packed.to_bytes(lanes * width, "little")
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


square_matrices = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(-2, 2), st.integers(-10**20, 10**20)),
             min_size=n, max_size=n).map(tuple),
    min_size=n, max_size=n,
).map(tuple))


@PROPERTY
@given(square_matrices)
@example(((0, 1, 1), (1, 1, 2), (1, 2, 1)))  # zero pivot: Bareiss swaps rows
@example(((1, 2), (2, 4)))  # singular
def test_bareiss_matches_laplace(rows):
    assert det_bareiss(rows) == det_laplace(rows)
