import math
import random

import pytest

from apcover.core import (
    CoverageCounts,
    assign_residues,
    gamma,
    is_prime,
    validate_modulus_system,
)
from apcover.counting import first_primes
from apcover.errors import ValidationError


def test_validate_product_and_order():
    system = validate_modulus_system([2, 3, 5])
    assert system.moduli == (2, 3, 5)
    assert system.product == 30
    assert system.k == 3
    # order preserved, no canonical sort
    assert validate_modulus_system([5, 2, 3]).moduli == (5, 2, 3)


def test_validate_rejects_composite():
    with pytest.raises(ValidationError, match="modulus 4 is not prime"):
        validate_modulus_system([4, 3])


def test_validate_coprime_mode_accepts_coprime_composites():
    system = validate_modulus_system([4, 9], coprime_mode=True)
    assert system.product == 36


def test_validate_coprime_mode_rejects_shared_factor():
    with pytest.raises(ValidationError, match="moduli 4 and 6 share a common factor"):
        validate_modulus_system([4, 6], coprime_mode=True)


def test_validate_coprime_mode_on_first_k_30000_gives_the_prime_system():
    # distinct primes are coprime: the gcd scan, quadratic in bits, is skipped
    primes = first_primes(30000)
    assert validate_modulus_system(primes, coprime_mode=True) == validate_modulus_system(primes)


def test_validate_product_matches_a_running_product_past_one_run_of_32():
    primes = first_primes(200)
    for k in (31, 32, 33, 64, 65, 97, 200):
        assert validate_modulus_system(primes[:k]).product == math.prod(primes[:k])


def test_validate_coprime_mode_names_the_first_clash_and_its_earliest_partner():
    # 9 is the first modulus that clashes with an earlier one; 10 and 5 clash later
    with pytest.raises(ValidationError, match="moduli 3 and 9 share a common factor"):
        validate_modulus_system([10, 3, 9, 5], coprime_mode=True)


@pytest.mark.parametrize(
    "moduli, reason",
    [
        ([], "at least one modulus is required"),
        ([2, 2], "modulus 2 appears more than once"),
        ([1, 3], "modulus 1 is smaller than 2"),
        ([0], "modulus 0 is smaller than 2"),
        ([2**64 + 13], "does not fit in 64 bits"),
    ],
    ids=["empty", "duplicate", "one", "zero", "over-64-bits"],
)
def test_validate_rejections(moduli, reason):
    with pytest.raises(ValidationError, match=reason):
        validate_modulus_system(moduli)


@pytest.mark.parametrize(
    "moduli, reason",
    [
        ([2.9, 3.7, 5], "modulus 2.9 is not an integer"),  # int() would truncate to (2, 3, 5)
        ([2, 3, 5.0], "modulus 5.0 is not an integer"),
        (["7", "11"], "modulus '7' is not an integer"),
    ],
    ids=["floats", "integral-float", "strings"],
)
def test_validate_refuses_non_integers(moduli, reason):
    with pytest.raises(ValidationError, match=reason):
        validate_modulus_system(moduli)


def test_numpy_integers_are_taken_and_numpy_floats_refused():
    import numpy as np

    system = validate_modulus_system([np.int64(7), 2, np.uint8(3)])
    assert system == ((7, 2, 3), 42)
    assert all(type(m) is int for m in system.moduli) and type(system.product) is int
    assert assign_residues(system, [np.int64(-1), 3, np.int32(4)]) == (6, 1, 1)
    # a 0-d float array has __index__, which raises; int() would truncate it to 2
    with pytest.raises(ValidationError, match=r"residue array\(2\.5\) is not an integer"):
        assign_residues(system, [0, np.array(2.5), 1])
    with pytest.raises(ValidationError, match=r"modulus (np\.float64\()?5\.0\)? is not an integer"):
        validate_modulus_system([2, 3, np.float64(5.0)])


def test_validate_idempotent_on_own_output():
    system = validate_modulus_system([7, 2, 13])
    again = validate_modulus_system(system.moduli)
    assert again == system


@pytest.mark.parametrize(
    "n",
    # 3215031749 and 3215031767: the primes either side of the four-witness bound
    [2, 3, 5, 97, 373, 2963, 2147483647, 3215031749, 3215031767, 2**61 - 1],
)
def test_is_prime_on_primes(n):
    assert is_prime(n)


@pytest.mark.parametrize(
    "n",
    [0, 1, 4, 25, 561, 2047, 41041, 25326001, 3215031751, (2**31 - 1) * (2**13 - 1)],
)
def test_is_prime_on_composites(n):
    # includes Carmichael numbers and strong pseudoprimes to small bases: 25326001 to
    # 2, 3 and 5, and 3215031751, the four-witness bound, to 2, 3, 5 and 7
    assert not is_prime(n)


def test_is_prime_agrees_with_the_sieve_below_200000():
    primes = set(first_primes(18000))  # the 17984th prime is the last below 200000
    assert max(primes) > 200000
    assert [n for n in range(200000) if is_prime(n) != (n in primes)] == []


def is_strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


# composites above the four-witness bound that are strong pseudoprimes to bases
# 2, 3, 5 and 7: 3215031751 to those four, 2152302898747 to 2..11,
# 3474749660383 to 2..13, 341550071728321 to 2..17, 3825123056546413051 to 2..23
STRONG_PSEUDOPRIMES = [3215031751, 2152302898747, 3474749660383, 341550071728321,
                       3825123056546413051]


def test_is_prime_agrees_with_sympy_on_64_bit_integers():
    sympy = pytest.importorskip("sympy")
    assert all(is_strong_probable_prime(n, a) for n in STRONG_PSEUDOPRIMES for a in (2, 3, 5, 7))
    rng = random.Random(64)
    sample = [rng.randrange(2**32, 2**64) for _ in range(2000)]
    # odd integers near 2**64, where 2**64 - 59 is the largest prime below it, and
    # near the four-witness bound, then squares and products of two large primes
    sample += [2**64 - i for i in range(1, 200, 2)]
    sample += range(3215031751 - 100, 3215031751 + 100)
    large_primes = [sympy.prevprime(2**32 - 5 * i) for i in range(1, 6)]
    sample += [p * q for p in large_primes for q in large_primes]
    sample += STRONG_PSEUDOPRIMES
    assert is_prime(2**64 - 59)
    assert [n for n in sample if is_prime(n) != sympy.isprime(n)] == []
    assert not any(map(is_prime, STRONG_PSEUDOPRIMES))


def test_assign_residues_normalizes():
    system = validate_modulus_system([2, 3])
    assert assign_residues(system, [7, -1]) == (1, 2)


@pytest.mark.parametrize(
    "residues, reason",
    [
        ([1.9, 2.5, 4], "residue 1.9 is not an integer"),  # int() would give (1, 2, 4)
        ([1, 2, "4"], "residue '4' is not an integer"),
        ((r for r in [0, 1.0, 2]), "residue 1.0 is not an integer"),  # a one-pass iterable
    ],
    ids=["floats", "string", "generator"],
)
def test_assign_residues_refuses_non_integers(residues, reason):
    system = validate_modulus_system([2, 3, 5])
    with pytest.raises(ValidationError, match=reason):
        assign_residues(system, residues)


def test_assign_residues_length_check():
    system = validate_modulus_system([2, 3])
    with pytest.raises(ValidationError):
        assign_residues(system, [0])


def test_gamma_examples():
    system = validate_modulus_system([2, 3])
    zeros = assign_residues(system, [0, 0])
    assert gamma(system, zeros, 6) == 2
    assert gamma(system, zeros, 5) == 0
    assert gamma(system, zeros, 4) == 1


def test_gamma_out_of_range():
    system = validate_modulus_system([2, 3])
    zeros = assign_residues(system, [0, 0])
    with pytest.raises(ValidationError, match=r"0 lies outside \[1, 6\]"):
        gamma(system, zeros, 0)
    with pytest.raises(ValidationError, match=r"7 lies outside \[1, 6\]"):
        gamma(system, zeros, 7)


def test_gamma_window_sum_matches_progression_sizes():
    # every progression contributes product/p members inside one period
    rng = random.Random(1)
    for _ in range(10):
        moduli = rng.sample([2, 3, 5, 7, 11, 13], rng.randint(1, 3))
        system = validate_modulus_system(moduli)
        assignment = assign_residues(
            system, [rng.randrange(p) for p in system.moduli]
        )
        total = sum(
            gamma(system, assignment, n) for n in range(1, system.product + 1)
        )
        assert total == sum(system.product // p for p in system.moduli)


def test_gamma_membership_stable_under_period_shift():
    # reducing n + product back into the window never changes membership
    rng = random.Random(2)
    system = validate_modulus_system([2, 3, 5])
    for _ in range(20):
        assignment = assign_residues(
            system, [rng.randrange(p) for p in system.moduli]
        )
        n = rng.randint(1, system.product)
        shifted = (n + system.product - 1) % system.product + 1
        assert shifted == n
        assert gamma(system, assignment, n) == gamma(system, assignment, shifted)


def test_coverage_counts_invariants_enforced():
    CoverageCounts(available=5, free=2, occupied=1, product=6)
    with pytest.raises(ValueError):
        CoverageCounts(available=5, free=2, occupied=2, product=6)
    with pytest.raises(ValueError):
        CoverageCounts(available=2, free=3, occupied=4, product=6)
    with pytest.raises(ValueError):
        CoverageCounts(available=-1, free=0, occupied=7, product=6)


def test_coverage_counts_made_or_replaced_are_checked_too():
    counts = CoverageCounts(available=5, free=2, occupied=1, product=6)
    assert counts._replace(free=1) == CoverageCounts._make((5, 1, 1, 6))
    with pytest.raises(ValueError, match="free <= available <= product violated"):
        counts._replace(free=9)
    with pytest.raises(ValueError, match="available \\+ occupied must equal product"):
        CoverageCounts._make((1, 0, 2, 4))


def test_gamma_accepts_unreduced_direct_assignment():
    # residue classes are classes, not representatives
    system = validate_modulus_system([2, 3])
    raw = (4, 5)  # classes 0 mod 2 and 2 mod 3
    assert gamma(system, raw, 6) == 1
    assert gamma(system, raw, 2) == 2
