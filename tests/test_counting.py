import math
import random

import pytest

from apcover import counting
from apcover.core import ModulusSystem, assign_residues, gamma, validate_modulus_system
from apcover.counting import (
    HISTOGRAM_BUDGET,
    MAX_FIRST_PRIMES,
    coverage_counts,
    exact_coverage_histogram,
    first_primes,
    occ_recurrence,
    oeis_a005867,
    oeis_a067549,
)
from apcover.determinant import (
    available_det,
    build_available_matrix,
    build_free_matrix,
    det_bareiss,
    free_det,
)
from apcover.errors import ResourceLimitError

FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def system(moduli, coprime=False):
    return validate_modulus_system(moduli, coprime_mode=coprime)


def brute_histogram(moduli, residues, coprime=False):
    """Definitional per-integer count; the slow oracle for tiny windows."""
    s = system(moduli, coprime=coprime)
    a = assign_residues(s, residues)
    counts = [0] * (s.k + 1)
    for n in range(1, s.product + 1):
        counts[gamma(s, a, n)] += 1
    return counts


def test_coverage_counts_golden():
    assert coverage_counts(system([2, 3])).available == 5
    assert coverage_counts(system([2, 3])).free == 2
    assert coverage_counts(system([2, 3])).occupied == 1
    one = coverage_counts(system([2]))
    assert (one.available, one.free, one.occupied) == (2, 1, 0)
    four = coverage_counts(system([2, 3, 5, 7]))
    assert (four.available, four.free, four.occupied) == (140, 48, 70)


def test_occ_recurrence_golden():
    assert occ_recurrence(system([2, 3])) == 1
    assert occ_recurrence(system([2])) == 0
    assert occ_recurrence(system([2, 3, 5])) == 8


def test_occ_recurrence_complements_available():
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randint(1, 12)
        s = system(rng.sample(FIRST_PRIMES, k))
        assert occ_recurrence(s) + available_det(s) == s.product


def test_histogram_golden():
    assert exact_coverage_histogram(system([2, 3])) == (2, 3, 1)
    assert exact_coverage_histogram(system([2, 3, 5])) == (8, 14, 7, 1)


@pytest.mark.parametrize("p", [2, 5, 11])
def test_histogram_single_modulus(p):
    assert exact_coverage_histogram(system([p])) == (p - 1, 1)


def test_histogram_matches_brute_force_enumeration():
    rng = random.Random(29)
    for moduli in [[2, 3], [2, 3, 5], [3, 5, 7], [2, 3, 5, 7]]:
        residues = [rng.randrange(p) for p in moduli]
        assert (
            list(exact_coverage_histogram(system(moduli)))
            == brute_histogram(moduli, residues)
        )
    # pairwise-coprime composites go through the same CRT argument
    assert list(exact_coverage_histogram(system([4, 9], coprime=True))) == (
        brute_histogram([4, 9], [1, 5], coprime=True)
    )


def test_histogram_invariants_on_random_systems():
    rng = random.Random(31)
    for _ in range(30):
        k = rng.randint(1, 10)
        s = system(rng.sample(FIRST_PRIMES, k))
        counts = exact_coverage_histogram(s)
        assert len(counts) == k + 1
        assert all(c >= 0 for c in counts)
        assert sum(counts) == s.product
        assert counts[0] == free_det(s)
        assert counts[0] + counts[1] == available_det(s)
        assert sum(j * c for j, c in enumerate(counts)) == sum(
            s.product // p for p in s.moduli
        )


def test_histogram_k40_against_routes_outside_the_fold():
    # free_det and available_det share the histogram's fold, so check
    # k = 40 (past the old k <= 25 cap) against products and elimination.
    s = system(first_primes(40))
    counts = exact_coverage_histogram(s)
    assert len(counts) == 41
    assert counts[0] == math.prod(p - 1 for p in s.moduli)
    raw_free = det_bareiss(build_free_matrix(s))
    assert counts[0] == (raw_free if s.k % 2 == 0 else -raw_free)
    assert counts[0] + counts[1] == det_bareiss(build_available_matrix(s))
    assert sum(counts) == s.product
    assert sum(j * c for j, c in enumerate(counts)) == sum(
        s.product // p for p in s.moduli
    )


@pytest.mark.parametrize("moduli, admitted, cost", [
    # the first 1970 primes cost 49947380 moduli x modulus bits
    (first_primes(1971), 1970, 50002299),
    # 883 moduli of 64 bits cost 883 * 883 * 64 = 49900096
    ([2**64 - 59] * 884, 883, 50013184),
], ids=["first-primes", "64-bit"])
def test_a_histogram_at_its_budget_is_admitted_and_one_modulus_more_refused(
    monkeypatch, moduli, admitted, cost
):
    folded = []  # the fold is stubbed: only whether it starts is under test

    def fold(factors, degree):
        folded.append(len(factors))
        yield ()

    monkeypatch.setattr(counting, "coverage_polynomials", fold)
    assert exact_coverage_histogram(ModulusSystem(moduli[:admitted])) == ()
    with pytest.raises(ResourceLimitError) as refused:
        exact_coverage_histogram(ModulusSystem(moduli))
    assert str(refused.value) == (
        f"{cost} moduli x modulus bits exceed the histogram budget {HISTOGRAM_BUDGET}")
    assert HISTOGRAM_BUDGET == 5 * 10**7 and folded == [admitted]


def test_first_primes():
    assert first_primes(10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert first_primes(1) == [2]
    primes = first_primes(300)
    assert len(primes) == 300
    assert primes[-1] == 1987
    with pytest.raises(ValueError):
        first_primes(0)


@pytest.mark.parametrize("count", range(1, 8))
def test_first_primes_small_counts_match_trial_division(count):
    primes = [n for n in range(2, 18) if all(n % d for d in range(2, n))]
    assert first_primes(count) == primes[:count]


def test_first_primes_agree_with_sympy():
    # the CLI builds --first-k systems from first_primes without a primality test
    sympy = pytest.importorskip("sympy")
    primes = first_primes(10**4)
    assert primes == list(sympy.primerange(2, sympy.prime(10**4) + 1))
    assert all(primes[n - 1] == sympy.prime(n) for n in range(1, 10**4 + 1, 499))


def test_first_primes_limit():
    assert first_primes(20000)[-1] == 224737
    with pytest.raises(ResourceLimitError, match="first-primes limit"):
        first_primes(MAX_FIRST_PRIMES + 1)
    # refused before the float Rosser bound, which overflows here
    with pytest.raises(ResourceLimitError, match="first-primes limit"):
        first_primes(10**400)


def test_oeis_a067549_golden():
    assert oeis_a067549(5) == (2, 5, 22, 140, 1448)
    assert oeis_a067549(1) == (2,)
    assert oeis_a067549(6)[-1] == 17856


def test_oeis_a005867_golden():
    assert oeis_a005867(5) == (1, 2, 8, 48, 480)
    assert oeis_a005867(1) == (1,)
    assert oeis_a005867(6)[-1] == 5760


def test_oeis_monotonicity():
    a = oeis_a067549(50)
    assert all(x < y for x, y in zip(a, a[1:]))
    f = oeis_a005867(50)
    assert all(x <= y for x, y in zip(f, f[1:]))


def test_oeis_terms_match_determinants_spot_checks():
    a = oeis_a067549(50)
    f = oeis_a005867(50)
    for t in (10, 12, 50):
        s = system(first_primes(t))
        assert a[t - 1] == det_bareiss(build_available_matrix(s))
        raw = det_bareiss(build_free_matrix(s))
        assert f[t - 1] == (raw if t % 2 == 0 else -raw)


def test_oeis_rejects_nonpositive_terms():
    with pytest.raises(ValueError):
        oeis_a067549(0)
