import concurrent.futures
import functools
import inspect
import itertools
import math
import random
import sys
import tracemalloc

import pytest

import apcover.oracle as oracle
from apcover.core import (
    CoverageCounts,
    ModulusSystem,
    assign_residues,
    gamma,
    validate_modulus_system,
)
from apcover.counting import coverage_counts, exact_coverage_histogram
from apcover.errors import ResourceLimitError, ValidationError
from apcover.oracle import (
    oracle_counts,
    residue_independence_check,
    sieve_histogram,
)


def system(moduli, coprime=False):
    return validate_modulus_system(moduli, coprime_mode=coprime)


def test_sieve_histogram_examples():
    s = system([2, 3])
    assert sieve_histogram(s, assign_residues(s, [0, 0])) == (2, 3, 1)
    s1 = system([2])
    assert sieve_histogram(s1, assign_residues(s1, [1])) == (1, 1)
    s3 = system([2, 3, 5])
    assert sieve_histogram(s3, assign_residues(s3, [1, 2, 4])) == (8, 14, 7, 1)


def test_sieve_matches_definitional_gamma_count():
    rng = random.Random(5)
    for moduli in [[2, 3], [3, 5], [2, 3, 5], [2, 3, 5, 7]]:
        s = system(moduli)
        a = assign_residues(s, [rng.randrange(p) for p in moduli])
        brute = [0] * (s.k + 1)
        for n in range(1, s.product + 1):
            brute[gamma(s, a, n)] += 1
        assert list(sieve_histogram(s, a)) == brute


def test_oracle_counts_examples():
    s = system([2, 3])
    counts = oracle_counts(s, assign_residues(s, [1, 0]))
    assert (counts.available, counts.free, counts.occupied) == (5, 2, 1)
    s1 = system([2])
    counts = oracle_counts(s1, assign_residues(s1, [0]))
    assert (counts.available, counts.free, counts.occupied) == (2, 1, 0)
    s4 = system([2, 3, 5, 7])
    counts = oracle_counts(s4, assign_residues(s4, [0, 0, 0, 0]))
    assert (counts.available, counts.free) == (140, 48)


@pytest.mark.parametrize("chunk_size", [1, 7, 1 << 20, 97, 1000])
def test_chunked_execution_invariance(chunk_size, monkeypatch):
    s = system([2, 3, 5, 7])
    a = assign_residues(s, [1, 2, 3, 4])
    monkeypatch.setattr(oracle, "CHUNK_SIZE", chunk_size)
    assert sieve_histogram(s, a) == (48, 92, 56, 13, 1)
    # windows that are not a multiple of 8, even coprime composites (packed over
    # lcm(p, 8) integers), and moduli packed longer than a chunk's bytes, which
    # are set chunk by chunk: at every degree
    systems = [(3, 5, 7), (8, 9, 5), (4, 9, 25), (2, 3, 1009)]
    if chunk_size >= 1000:  # at most 2001 chunks
        systems.append((2, 1000003))
    for moduli in systems:
        s = system(moduli, coprime=True)
        a = assign_residues(s, [(5 * i + 3) % p for i, p in enumerate(moduli)])
        full = exact_coverage_histogram(s)
        for degree in range(s.k + 1):
            assert sieve_histogram(s, a, degree=degree) == full[: degree + 1]


@pytest.mark.parametrize("moduli", [(2, 3, 5, 7), (11, 2, 7, 3, 5), (4, 9, 25, 7), (211, 223),
                                    (8, 9, 25), (2, 3, 1009), (2, 3, 5, 7, 11, 13, 23)])
def test_every_window_is_sieved_by_the_planes(moduli, monkeypatch):
    # one kernel whatever the window: one call over all of it, in one chunk or more
    windows = []
    real_chunk_histogram = oracle._chunk_histogram

    def recording_chunk_histogram(lo, hi, moduli, residues, degree):
        windows.append((lo, hi))
        return real_chunk_histogram(lo, hi, moduli, residues, degree)

    monkeypatch.setattr(oracle, "_chunk_histogram", recording_chunk_histogram)
    s = system(moduli, coprime=True)
    a = assign_residues(s, [(3 * i + 1) % p for i, p in enumerate(moduli)])
    full = exact_coverage_histogram(s)
    for chunk_size in (oracle.CHUNK_SIZE, s.product - 1):
        monkeypatch.setattr(oracle, "CHUNK_SIZE", chunk_size)
        windows.clear()
        for degree in range(s.k + 1):
            assert sieve_histogram(s, a, degree=degree) == full[: degree + 1]
        assert windows == [(1, s.product + 1)] * (s.k + 1)


def test_product_limit_refusal():
    s = system([2, 3, 5])
    with pytest.raises(ResourceLimitError, match="product 30 exceeds sieve limit 10"):
        sieve_histogram(s, assign_residues(s, [0, 0, 0]), product_limit=10)


def test_sieve_agrees_with_exact_histogram():
    rng = random.Random(37)
    for moduli in [[2, 3, 5], [5, 7, 11], [2, 3, 5, 7, 11]]:
        s = system(moduli)
        expected = exact_coverage_histogram(s)
        for _ in range(5):
            a = assign_residues(s, [rng.randrange(p) for p in moduli])
            assert sieve_histogram(s, a) == expected


def test_independence_exhaustive_two_moduli():
    report = residue_independence_check(system([2, 3]), exhaustive=True)
    assert report.assignments_tested == 6
    assert report.all_match
    assert (report.expected.available, report.expected.free) == (5, 2)
    assert report.mismatches == ()


def test_independence_exhaustive_three_moduli():
    report = residue_independence_check(system([2, 3, 5]), exhaustive=True)
    assert report.assignments_tested == 30
    assert report.all_match
    expected = report.expected
    assert (expected.available, expected.free, expected.occupied) == (22, 8, 8)


def test_independence_random_trials():
    s = system([2, 3, 5, 7, 11])
    report = residue_independence_check(s, trials=20, seed=42)
    assert report.assignments_tested == 20
    assert report.all_match
    assert (report.expected.available, report.expected.free) == (1448, 480)


def test_independence_deterministic_given_seed():
    s = system([2, 3, 5, 7])
    first = residue_independence_check(s, trials=8, seed=99)
    second = residue_independence_check(s, trials=8, seed=99)
    assert first == second


def test_independence_exhaustive_budget():
    s = system([3, 5, 7, 11, 13, 17, 19])  # 4849845 assignments
    with pytest.raises(ResourceLimitError, match="exceed the exhaustive budget"):
        residue_independence_check(s, exhaustive=True)


def test_exhaustive_budget_counts_integers_sieved(monkeypatch):
    s = system([2, 3, 5])  # 30 assignments of 30 integers each
    monkeypatch.setattr(oracle, "SIEVE_CALL_INTEGERS", 1)
    monkeypatch.setattr(oracle, "SIEVE_BUDGET", 900)
    assert residue_independence_check(s, exhaustive=True).assignments_tested == 30
    monkeypatch.setattr(oracle, "SIEVE_BUDGET", 899)
    with pytest.raises(ResourceLimitError, match="900 integers to sieve exceed"):
        residue_independence_check(s, exhaustive=True)


def test_random_budget_counts_integers_sieved(monkeypatch):
    s = system([2, 3, 5])  # 7 trials of 30 integers each
    monkeypatch.setattr(oracle, "SIEVE_CALL_INTEGERS", 1)
    monkeypatch.setattr(oracle, "SIEVE_BUDGET", 210)
    assert residue_independence_check(s, trials=7).assignments_tested == 7
    monkeypatch.setattr(oracle, "SIEVE_BUDGET", 209)
    with pytest.raises(ResourceLimitError, match="210 integers to sieve exceed the random"):
        residue_independence_check(s, trials=7)


def test_budget_charges_each_sieve_call_at_least_its_minimum(monkeypatch):
    s = system([2, 3, 5])  # product 30, charged SIEVE_CALL_INTEGERS = 16384 per call
    assert oracle.SIEVE_CALL_INTEGERS == 16384
    monkeypatch.setattr(oracle, "SIEVE_BUDGET", 7 * 16384)
    assert residue_independence_check(s, trials=7).assignments_tested == 7
    monkeypatch.setattr(oracle, "SIEVE_BUDGET", 7 * 16384 - 1)
    with pytest.raises(ResourceLimitError, match="114688 integers to sieve exceed the random"):
        residue_independence_check(s, trials=7)
    # a product above the minimum is charged as itself
    big = system([2, 3, 5, 7, 11, 13])  # product 30030
    monkeypatch.setattr(oracle, "SIEVE_BUDGET", 30030)
    assert residue_independence_check(big, trials=1).assignments_tested == 1


@pytest.mark.parametrize("moduli, options, error, message", [
    ([2, 3], {"trials": 0}, ValidationError, "trials must be >= 1"),
    ([2, 3], {"product_limit": 0}, ValidationError, "product_limit must be >= 1"),
    ([2, 3, 5], {"product_limit": 10}, ResourceLimitError, "product 30 exceeds sieve limit 10"),
    ([2, 3, 5], {"product_limit": 10, "exhaustive": True}, ResourceLimitError,
     "product 30 exceeds sieve limit 10"),
    ([2, 3], {"trials": 10**9}, ResourceLimitError, "exceed the random budget"),
    ([3, 5, 7, 11, 13, 17, 19], {"exhaustive": True}, ResourceLimitError,
     "exceed the exhaustive budget"),
], ids=["trials-0", "limit-0", "random-window", "exhaustive-window", "random-budget",
        "exhaustive-budget"])
def test_a_refused_check_folds_nothing(moduli, options, error, message, monkeypatch):
    folds = []

    def counted(s):
        folds.append(s)
        return coverage_counts(s)

    monkeypatch.setattr(oracle, "coverage_counts", counted)
    with pytest.raises(error, match=message):
        residue_independence_check(system(moduli), **options)
    assert folds == []
    # the spy sees the fold of a check that runs
    residue_independence_check(system([2, 3]), trials=1)
    assert len(folds) == 1


def test_independence_matches_prediction_from_recurrences():
    s = system([2, 3, 5, 7])
    assert residue_independence_check(s, trials=5, seed=3).expected == coverage_counts(s)


def test_coprime_mode_counts_match_recurrences():
    s = system([4, 9], coprime=True)
    report = residue_independence_check(s, exhaustive=True)
    assert report.assignments_tested == 36
    assert report.all_match
    assert (report.expected.available, report.expected.free) == (35, 24)
    s2 = system([8, 9, 5], coprime=True)
    report2 = residue_independence_check(s2, trials=10, seed=1)
    assert report2.all_match
    assert report2.expected.free == 7 * 8 * 4


def test_sieve_config_validation():
    s = system([2, 3])
    for sieve in (functools.partial(sieve_histogram, s, (0, 0)),
                  functools.partial(oracle_counts, s, (0, 0)),
                  functools.partial(residue_independence_check, s)):
        with pytest.raises(ValidationError, match="product_limit must be >= 1"):
            sieve(product_limit=0)
        # read by __index__, as moduli are: NaN would compare false and lift the limit
        for limit in (30.0, float("nan"), "30"):
            with pytest.raises(ValidationError, match=f"product_limit {limit!r} is not an integer"):
                sieve(product_limit=limit)
    for degree in (1.0, "1"):
        with pytest.raises(ValidationError, match=f"degree {degree!r} is not an integer"):
            sieve_histogram(s, (0, 0), degree=degree)
    for trials in (2.5, 2.0, "2"):
        with pytest.raises(ValidationError, match=f"trials {trials!r} is not an integer"):
            residue_independence_check(s, trials=trials)
    # a bool is an int, read as 0 or 1, on one chunk and on several alike
    for moduli in ([2, 3, 5], [2, 3, 5, 7, 11, 13, 17, 19]):
        t = system(moduli)
        zeros = (0,) * t.k
        assert sieve_histogram(t, zeros, degree=True) == sieve_histogram(t, zeros, degree=1)
        assert sieve_histogram(t, zeros, degree=False) == sieve_histogram(t, zeros, degree=0)
    assert residue_independence_check(s, trials=True).assignments_tested == 1


def brute_histogram(s, a, lo, hi):
    """Coverage histogram of [lo, hi) by one gamma call per integer."""
    counts = [0] * (s.k + 1)
    for n in range(lo, hi):
        counts[gamma(s, a, n)] += 1
    return counts


# chunk starts off 1 + 210Z, so a wheel tile must be shifted to each chunk's start
@pytest.mark.parametrize("moduli", [(2, 3, 5, 7, 11), (11, 2, 7, 3, 5), (13, 2, 3, 5, 7, 11)])
def test_chunk_histogram_matches_gamma_at_any_start(moduli):
    s = system(moduli)
    a = assign_residues(s, [(7 * i + 3) % p for i, p in enumerate(moduli)])
    for lo in (2, 5, 100, 228, 1000, 2300, 2311 + 17, 30030 - 6100):
        for length in (1, 209, 211, 2311, 6000):
            hi = min(lo + length, s.product + 1)
            if lo < hi:
                hist = oracle._chunk_histogram(lo, hi, s.moduli, a, s.k)
                assert hist == brute_histogram(s, a, lo, hi)
                assert all(type(c) is int for c in hist)


@pytest.mark.parametrize(
    "moduli",
    [
        (11, 2, 7, 3, 5),  # out of order: the smallest moduli are not a prefix
        (7, 25, 4, 9),  # coprime composites
        (4, 9, 25, 7),
        (211, 223),  # no modulus small enough for a tile of more than one
        (8, 9, 25),  # even coprime composites, packed over lcm(p, 8) integers
        (2, 3, 1009),  # 1009 packs to more bytes than any chunk of this window
    ],
)
@pytest.mark.parametrize("chunk_size", [1, 97, 1000, 1 << 20])
def test_sieve_matches_gamma_on_wheel_edge_systems(moduli, chunk_size, monkeypatch):
    s = system(moduli, coprime=True)
    rng = random.Random(sum(moduli) + chunk_size)
    a = assign_residues(s, [rng.randrange(p) for p in moduli])
    monkeypatch.setattr(oracle, "CHUNK_SIZE", chunk_size)
    assert list(sieve_histogram(s, a)) == brute_histogram(s, a, 1, s.product + 1)


# the same starts, every degree: entries 0..degree of the full histogram; also
# even coprime composites, and 1009, packed longer than a slice's bytes
@pytest.mark.parametrize("moduli", [(2, 3, 5, 7, 11), (13, 2, 3, 5, 7, 11), (8, 9, 25, 7),
                                    (2, 3, 1009)])
def test_chunk_histogram_truncates_at_every_degree(moduli):
    s = system(moduli, coprime=True)
    a = assign_residues(s, [(5 * i + 2) % p for i, p in enumerate(moduli)])
    for lo in (2, 228, 2311 + 17, 30030 - 6100):
        for length in (1, 211, 6000):
            hi = min(lo + length, s.product + 1)
            if lo < hi:
                full = brute_histogram(s, a, lo, hi)
                for degree in range(s.k + 1):
                    hist = oracle._chunk_histogram(lo, hi, s.moduli, a, degree)
                    assert hist == full[: degree + 1]
                    assert all(type(c) is int for c in hist)


@pytest.mark.parametrize("degree", [-1, 4])
def test_sieve_refuses_a_degree_outside_0_to_k(degree):
    s = system([2, 3, 5])
    with pytest.raises(ValidationError, match=rf"degree must be in \[0, 3\], got {degree}"):
        sieve_histogram(s, [0, 0, 0], degree=degree)


def test_oracle_counts_asks_the_sieve_for_degree_1(monkeypatch):
    degrees = []
    real = oracle.sieve_histogram

    def spy(*args, **kwargs):
        degrees.append(inspect.signature(real).bind(*args, **kwargs).arguments.get("degree"))
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "sieve_histogram", spy)
    s = system([2, 3, 5, 7])
    assert oracle_counts(s, [1, 2, 3, 4]) == coverage_counts(s)
    assert residue_independence_check(s, trials=3).all_match
    assert degrees == [1, 1, 1, 1]


# every order of moduli whose blocks differ: four primes, a one-modulus head,
# k = 2, a large modulus with a small one, and unvalidated moduli sharing factors
EVERY_ORDER = [m for base in [(2, 3, 5, 7), (7, 2, 3), (3, 7), (49999, 2), (3, 4, 8), (6, 4, 9)]
               for m in dict.fromkeys(itertools.permutations(base))]


def listed(moduli):
    return ",".join(map(str, moduli))


def unvalidated(moduli):
    return ModulusSystem(moduli=moduli, product=math.prod(moduli))


def test_exhaustive_mismatches_are_the_first_five_in_enumeration_order(monkeypatch):
    # expected counts no assignment of a window below 110880 integers can meet
    monkeypatch.setattr(oracle, "coverage_counts", lambda _: coverage_counts(system([331, 337])))
    # (5, 2, 3): the first five assignments change the second residue too; the
    # last two read their blocks back from 2-byte lanes (65535) and 4-byte (65792)
    for moduli in [(5, 2, 3), *EVERY_ORDER, (3, 5, 17, 257), (256, 257)]:
        s = unvalidated(moduli)
        report = residue_independence_check(s, exhaustive=True)
        assert report.assignments_tested == s.product
        assert not report.all_match
        assert report.expected == coverage_counts(system([331, 337]))
        first_five = list(itertools.islice(itertools.product(*map(range, moduli)), 5))
        assert [residues for residues, _ in report.mismatches] == first_five
        for residues, observed in report.mismatches:
            free, once = oracle._chunk_histogram(1, s.product + 1, moduli, residues, 1)
            assert observed == CoverageCounts(available=free + once, free=free,
                                              occupied=s.product - free - once,
                                              product=s.product)
            if s.product < 1000:
                assert [free, once] == brute_histogram(s, residues, 1, s.product + 1)[:2]


def lane_width(s):
    """The lane width the check picks: the smallest of 2, 4 and 8 bytes that holds
    the product, which bounds every count."""
    return next(w for w in (2, 4, 8) if s.product < 256**w)


def lanes_of(packed, lanes, width):
    """The ``lanes`` little-endian counts of ``width`` bytes that ``packed`` holds,
    lane 0 first, read back without ``struct``."""
    raw = packed.to_bytes(lanes * width, "little")
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def exhaustive_table(s):
    """(residues, (free, once)) of every assignment the exhaustive blocks count,
    in ``itertools.product`` order."""
    width = lane_width(s)
    return sorted((residues, (free, once))
                  for block, lanes, *counts in oracle._exhaustive_histograms(s, width)
                  for residues, free, once in zip(block, *(lanes_of(c, lanes, width)
                                                           for c in counts), strict=True))


@pytest.mark.parametrize("moduli, want", [((6, 4, 9), (126, 66)), ((3, 4, 8), (40, 44))])
def test_exhaustive_mismatches_in_several_blocks_are_the_first_five_of_a_cold_enumeration(
        moduli, want, monkeypatch):
    # moduli that share factors, checked against the counts of one of their
    # assignments: the others mismatch or not, in blocks of the head residues,
    # the first two; the first five mismatches fall in two blocks or more, and a
    # block checked later holds some of them, (0, 1, 0) of (6, 4, 9) among them
    s = unvalidated(moduli)
    free, once = want
    expected = CoverageCounts(available=free + once, free=free,
                              occupied=s.product - free - once, product=s.product)
    monkeypatch.setattr(oracle, "coverage_counts", lambda _: expected)
    cold = ((residues, tuple(oracle._chunk_histogram(1, s.product + 1, moduli, residues, 1)))
            for residues in itertools.product(*map(range, moduli)))
    first_five = list(itertools.islice(((r, h) for r, h in cold if h != want), 5))
    assert len({residues[:2] for residues, _ in first_five}) > 1
    report = residue_independence_check(s, exhaustive=True)
    assert not report.all_match and report.assignments_tested == s.product
    assert report.mismatches == tuple((residues, oracle._counts(s, *hist))
                                      for residues, hist in first_five)


@pytest.mark.parametrize("moduli, limit", [
    ((2, 3, 5, 7, 11, 13), 1 << 19),  # tables of 30030 8-byte counts would take 480 KB
    ((49999, 2), 12 * 10**6),
    ((313, 317), 1 << 19),  # with 313 in the tail, 99221 counts a block
    ((2, 3, 5, 7, 11, 43), 3 * 10**6),  # blocks of 49665 lanes: ~2.1 MB
])
def test_exhaustive_check_holds_no_window_sized_tables(moduli, limit):
    s = system(moduli)
    residue_independence_check(s, exhaustive=True)  # so that nothing is first allocated below
    tracemalloc.start()
    try:
        assert residue_independence_check(s, exhaustive=True).all_match
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


@pytest.mark.parametrize("moduli, width, counts", [
    ((3, 5, 17, 257), 2, (59520, 32768, 6015)),  # 65535: the widest window of 2-byte lanes
    ((256, 257), 4, (65791, 65280, 1)),  # 65792: the narrowest of 4-byte lanes
])
def test_exhaustive_lanes_are_the_narrowest_that_hold_the_window(moduli, width, counts,
                                                                  monkeypatch):
    widths = []
    real = oracle._column_counts

    def spy(buf, q, lane_width):
        widths.append(lane_width)
        return real(buf, q, lane_width)

    monkeypatch.setattr(oracle, "_column_counts", spy)
    s = system(moduli, coprime=True)
    report = residue_independence_check(s, exhaustive=True)
    assert report.all_match and report.assignments_tested == s.product
    available, free, occupied = counts
    assert report.expected == CoverageCounts(available=available, free=free,
                                             occupied=occupied, product=s.product)
    assert widths and set(widths) == {width}


def assert_blocks_equal_cold_sieves(s, every=1):
    """The exhaustive blocks count every assignment once, and every ``every``-th
    one in enumeration order and the last equal a fresh sieve of that
    assignment; returns the histograms."""
    table = exhaustive_table(s)
    assert [residues for residues, _ in table] == list(itertools.product(*map(range, s.moduli)))
    for residues, hist in table[::every] + table[-1:]:
        assert hist == tuple(oracle._chunk_histogram(1, s.product + 1, s.moduli, residues, 1))
    return {hist for _, hist in table}


@pytest.mark.parametrize("moduli", EVERY_ORDER, ids=listed)
def test_block_histograms_equal_cold_sieves_in_every_order(moduli):
    # 49999 * 2 assignments: every 997th (odd, so both residues mod 2) is sieved cold
    s = unvalidated(moduli)
    histograms = assert_blocks_equal_cold_sieves(s, every=997 if s.product > 10**4 else 1)
    if all(math.gcd(a, b) == 1 for a, b in itertools.combinations(moduli, 2)):
        assert histograms == {exact_coverage_histogram(s)[:2]}


@pytest.mark.parametrize("moduli", [(2, 3, 5, 7), (3, 5, 7, 2), (2, 5, 7, 3), (2, 3, 5, 13),
                                    (4, 9, 5), (2,), (3,), (7,), (2, 3), (3, 7),
                                    (7, 2, 3), (2, 3, 5), (257, 2), (2, 3, 5, 7, 11),
                                    (4, 9, 5, 7, 11), (131, 137), (3, 5, 17, 257), (256, 257)])
def test_block_histograms_equal_cold_ones(moduli):
    # last moduli 7, 2, 3 and 13, coprime composites, k = 1 (an empty head),
    # k = 2 (one tail modulus), k = 3 (a one-modulus head), blocks of 2 rows of
    # 257 columns, tails of 3 * 5 * 7 and of 5 * 7 * 9 * 11, 131 * 137, whose
    # head 131 stays though it does not fold, and the widest windows of 2-byte
    # lanes (65535) and the narrowest of 4-byte ones (65792): every 997th
    # assignment of a window over 10**4 is sieved cold
    s = system(moduli, coprime=True)
    histograms = assert_blocks_equal_cold_sieves(s, every=997 if s.product > 10**4 else 1)
    assert histograms == {exact_coverage_histogram(s)[:2]}


@pytest.mark.parametrize("moduli", [(3, 2, 8), (5, 4, 6), (3, 4, 9, 2), (3, 4, 8), (6, 4, 9),
                                    (4, 6, 6, 8, 9)])
def test_block_histograms_follow_the_residues_where_they_depend_on_them(moduli):
    # moduli that share a factor, so the histogram of the window depends on the
    # residues: a block that assumed the identity under test, or read another
    # residue's class, would differ from a cold sieve here (the system skips
    # validation on purpose); the heads of (3, 4, 8) and (6, 4, 9) share a factor
    # with the tail, and (4, 6, 6, 8, 9) keeps 6 out of its tail 8 * 9, with which
    # it shares one, though the head (4, 6, 6) does not fold
    s = ModulusSystem(moduli=moduli, product=math.prod(moduli))
    assert len(assert_blocks_equal_cold_sieves(s)) > 1


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 300), (300, 2), (143, 143),
                                   (255, 1), (256, 1), (257, 3), (512, 2), (1025, 1), (70000, 1),
                                   (2, 3), (127, 128), (128, 129), (255, 256), (256, 257),
                                   (420, 1), (420, 421)])
def test_column_sums_equal_numpy_sums(shape):
    # rows x columns: fewer rows than columns, and than FOLD_ROWS (127 x 128 at
    # most), are folded; every other shape counts sliced columns; both widened
    # to every lane width that holds the row count
    import numpy as np

    rng = np.random.default_rng(sum(shape))
    # all zeros and all ones, whose sums are the row count: folds must not wrap
    for counts in (rng.integers(0, 3, shape, dtype=np.uint8), np.zeros(shape, dtype=np.uint8),
                   np.ones(shape, dtype=np.uint8)):
        buf, (rows, q) = bytearray(counts.tobytes()), shape
        expected = [(counts == j).sum(axis=0).tolist() for j in (0, 1)]
        for width in (w for w in (2, 4, 8) if rows < 256**w):
            packed = oracle._column_counts(buf, q, width)
            assert [lanes_of(c, q, width) for c in packed] == expected
        assert expected == [[sum(v == j for v in buf[t::q]) for t in range(q)] for j in (0, 1)]


@pytest.mark.parametrize("moduli, head, window", [
    ((2, 3, 5, 7, 11, 13), (2,), 30030),  # blocks of 3 * 5 * 7 * 11 * 13 assignments
    ((7, 3), (3,), 21),  # k = 2: blocks of the larger modulus alone
    ((131, 137), (131,), 17947),  # k = 2: 131 stays in the head though it does not fold
])
def test_exhaustive_check_fills_the_head_once_per_block(moduli, head, window, monkeypatch):
    # 2 calls for the first 6 primes, 3 for (7, 3), each over the whole window
    report, calls = exhaustive_fills(system(moduli), monkeypatch)
    assert report.all_match
    assert calls == [(1, window + 1, head, residues)
                     for residues in itertools.product(*map(range, head))]


# each system's head: the largest moduli, while pairwise coprime, form the tail
# until one modulus is left; (3, 4, 8) and (4, 6, 9) keep two, 4 sharing a
# factor with the tail 8 and 6 with the tail 9
HEADS = {(2, 3, 5, 7): (2,), (2, 3, 7): (2,), (3, 7): (3,), (2, 49999): (2,),
         (3, 4, 8): (3, 4), (4, 6, 9): (4, 6), (2, 3, 5, 7, 11, 13): (2,),
         (4, 6, 6, 8, 9): (4, 6, 6)}  # 6 shares a factor with the tail 8 * 9


@pytest.mark.parametrize("moduli", [
    *EVERY_ORDER,
    *itertools.islice(itertools.permutations((2, 3, 5, 7, 11, 13)), 0, None, 37),
    *itertools.islice(dict.fromkeys(itertools.permutations((4, 6, 6, 8, 9))), 0, None, 7),
], ids=listed)
def test_exhaustive_check_fills_the_same_head_in_every_order(moduli, monkeypatch):
    # the head's moduli in increasing order, wherever the tail moduli are listed
    head = HEADS[tuple(sorted(moduli))]
    report, calls = exhaustive_fills(unvalidated(moduli), monkeypatch)
    assert report.assignments_tested == math.prod(moduli)
    assert calls == [(1, math.prod(moduli) + 1, head, residues)
                     for residues in itertools.product(*map(range, head))]


def exhaustive_fills(s, monkeypatch):
    """The report of an exhaustive check of ``s``, and its ``_fill`` calls."""
    calls = []
    real = oracle._fill

    def spy(lo, hi, filled, residues):
        calls.append((lo, hi, tuple(filled), tuple(residues)))
        return real(lo, hi, filled, residues)

    monkeypatch.setattr(oracle, "_fill", spy)
    return residue_independence_check(s, exhaustive=True), calls


def test_concurrent_callers_get_the_histogram_of_their_own_call():
    s = system([2, 3, 5, 7, 11])
    expected = exact_coverage_histogram(s)
    # 6 leading prefixes, each followed by its 11 last residues, three times over
    assignments = [(a, b, 0, 0, last) for a in range(2) for b in range(3) for last in range(11)] * 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda a: sieve_histogram(s, a), assignments, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    # a caller that wrote to counters another one reads would skew that reader
    assert results == [expected] * len(assignments)


def test_random_check_sieves_each_trial_once_at_degree_1(monkeypatch):
    calls = []
    real = oracle.sieve_histogram

    def spy(*args, **kwargs):
        arguments = inspect.signature(real).bind(*args, **kwargs).arguments
        calls.append((tuple(arguments["residues"]), arguments.get("degree")))
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "sieve_histogram", spy)
    s = system([2, 3, 5, 7, 11, 13])
    trials, seed = 200, 3
    assert residue_independence_check(s, trials=trials, seed=seed).all_match
    assert calls == [(residues, 1) for residues in oracle._random_assignments(s, trials, seed)]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults with getrusage, as Linux reports them")
def test_one_worker_faults_its_planes_in_once_per_call_not_per_chunk():
    import resource

    s = system([2, 3, 5, 7, 11, 13, 17, 19, 23])  # 213 chunks of 2**20 integers
    a = assign_residues(s, [1, 2, 3, 4, 5, 6, 7, 8, 9])
    expected = coverage_counts(s)
    want = (expected.free, expected.available - expected.free)
    assert sieve_histogram(s, a, degree=1) == want  # numpy's first calls fault in on their own
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert sieve_histogram(s, a, degree=1) == want
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # each chunk's two 128 KiB planes are 64 pages: buffers made per chunk would
    # fault at least 213 * 64 times, where buffers made per call fault a few hundred
    assert faults < 2048


def test_a_modulus_packed_longer_than_a_chunk_takes_memory_of_a_chunk(monkeypatch):
    import tracemalloc

    # 1000003 packs to 1000003 bytes, from 8 MB of bools; a chunk of 4096
    # integers takes 520 bytes a plane, and the 489 chunks are walked, not listed
    monkeypatch.setattr(oracle, "CHUNK_SIZE", 1 << 12)
    s = system([2, 1000003])
    assert sieve_histogram(system([2, 3]), [0, 0]) == (2, 3, 1)  # imports numpy first
    tracemalloc.start()
    try:
        assert sieve_histogram(s, [1, 5], degree=1) == (1000002, 1000003)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 15


def test_a_one_chunk_window_takes_planes_not_counter_bytes():
    # two 64 KB planes of 510510 integers, sliced from the wheel 2 .. 13 packed
    # over 15015 bytes and 17 over 17: no 510510 one-byte counters
    s = system([2, 3, 5, 7, 11, 13, 17])
    expected = coverage_counts(s)
    assert sieve_histogram(system([2, 3]), [0, 0]) == (2, 3, 1)  # imports numpy first
    tracemalloc.start()
    try:
        histogram = sieve_histogram(s, [1, 2, 3, 4, 5, 6, 7], degree=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert histogram == (expected.free, expected.available - expected.free)
    assert peak < 1 << 19
