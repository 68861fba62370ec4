import copy
import math
import pickle
import random
import re
from decimal import Decimal
from pathlib import Path

import pytest

import apcover
from apcover.core import (
    STR_BITS,
    CoverageCounts,
    ModulusSystem,
    _decimal_str,
    assign_residues,
    gamma,
    is_prime,
    validate_modulus_system,
)
from apcover.counting import (
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
    det_bareiss,
    det_laplace,
    free_det,
)
from apcover.errors import ResourceLimitError, ValidationError
from apcover.oracle import (
    DEFAULT_PRODUCT_LIMIT,
    SIEVE_BUDGET,
    oracle_counts,
    residue_independence_check,
    sieve_histogram,
)


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


SMALL = validate_modulus_system([2, 3, 5])
# each library entry with one integer argument set to x, and the name its refusal gives x
ENTRIES = {
    "first_primes": (first_primes, "count"),
    "oeis_a067549": (oeis_a067549, "count"),
    "oeis_a005867": (oeis_a005867, "count"),
    "gamma": (lambda x: gamma(SMALL, [0, 0, 0], x), "n"),
    "det_bareiss": (lambda x: det_bareiss([[2, 1], [1, x]]), "matrix entry"),
    "det_laplace": (lambda x: det_laplace([[2, 1], [1, x]]), "matrix entry"),
    "sieve_histogram": (lambda x: sieve_histogram(SMALL, [0, 0, 0], degree=x), "degree"),
    "residue_independence_check": (lambda x: residue_independence_check(SMALL, trials=x),
                                   "trials"),
    "validate_modulus_system": (lambda x: validate_modulus_system([2, x]), "modulus"),
    "assign_residues": (lambda x: assign_residues(SMALL, [0, x, 0]), "residue"),
}


@pytest.mark.parametrize("value", [0.5, 1.5, 1e7, "3", math.nan],
                         ids=["half", "one-and-a-half", "1e7", "string", "nan"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_every_library_entry_refuses_a_non_integer_by_name(entry, value):
    call, name = ENTRIES[entry]
    with pytest.raises(ValidationError) as refused:
        call(value)
    assert str(refused.value) == f"{name} {value!r} is not an integer"


# each entry handed a bare int where it reads a sequence, and the refusal naming it
NON_SEQUENCES = {
    "validate_modulus_system": (lambda: validate_modulus_system(5), "moduli 5"),
    "assign_residues": (lambda: assign_residues(SMALL, 5), "residues 5"),
    "gamma": (lambda: gamma(SMALL, 5, 1), "residues 5"),
    "det_bareiss-rows": (lambda: det_bareiss([1, 2]), "matrix row 1"),
    "det_bareiss-one-row": (lambda: det_bareiss([[1, 2], 3]), "matrix row 3"),
    "det_laplace": (lambda: det_laplace(7), "matrix 7"),
}


@pytest.mark.parametrize("entry", NON_SEQUENCES)
def test_every_library_entry_refuses_a_non_sequence_by_name(entry):
    call, named = NON_SEQUENCES[entry]
    with pytest.raises(ValidationError) as refused:
        call()
    assert str(refused.value) == f"{named} is not a sequence"


# each entry that takes a system, handed one built by hand with no moduli
NO_MODULI = {
    "free_det": free_det,
    "available_det": available_det,
    "coverage_counts": coverage_counts,
    "occ_recurrence": occ_recurrence,
    "exact_coverage_histogram": exact_coverage_histogram,
    "oracle_counts": lambda s: oracle_counts(s, ()),
    "sieve_histogram": lambda s: sieve_histogram(s, ()),
    "residue_independence_check-random": residue_independence_check,
    "residue_independence_check-exhaustive": lambda s: residue_independence_check(
        s, exhaustive=True),
}


@pytest.mark.parametrize("entry", NO_MODULI)
def test_every_entry_refuses_a_system_with_no_moduli(entry):
    # refused as validate_modulus_system refuses the empty list, before any count
    with pytest.raises(ValidationError) as refused:
        NO_MODULI[entry](ModulusSystem(()))
    assert str(refused.value) == "at least one modulus is required"


def test_a_system_made_or_replaced_is_checked_too():
    assert ModulusSystem((2,))._replace(moduli=(3,)) == ModulusSystem._make(((3,), 3))
    for made in (lambda: ModulusSystem._make(((), 1)),
                 lambda: ModulusSystem((2,))._replace(moduli=())):
        with pytest.raises(ValidationError, match="at least one modulus is required"):
            made()


@pytest.mark.parametrize("moduli, reason", [
    ((0,), "modulus 0 is smaller than 2"),
    ((-3,), "modulus -3 is smaller than 2"),
    ((2, 1), "modulus 1 is smaller than 2"),
    ((2.5,), "modulus 2.5 is not an integer"),
    (("3",), "modulus '3' is not an integer"),
], ids=["zero", "negative", "one", "float", "string"])
def test_a_system_built_by_hand_refuses_moduli_no_count_can_read(moduli, reason):
    # unvalidated, so shared factors and repeats pass, but no modulus below 2
    with pytest.raises(ValidationError) as refused:
        ModulusSystem(moduli)
    assert str(refused.value) == reason


def test_a_system_made_replaced_or_copied_works_out_its_own_product():
    s = ModulusSystem([2, 3])
    assert s == ((2, 3), 6) and s.product == 6
    # a product passed to _make or _replace is ignored
    assert s._replace(moduli=[5, 7]) == ModulusSystem._make(([5, 7], 1)) == ((5, 7), 35)
    assert s._replace(product=7).product == 6
    for copied in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert type(copied) is ModulusSystem and copied == ((2, 3), 6)


def test_the_package_version_is_pyprojects():
    # two copies of one fact; read by a regex, since Python 3.10 has no tomllib
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]*)"$', pyproject, re.MULTILINE)[1] == apcover.__version__


def test_numpy_matrices_are_read_as_exact_ints():
    import numpy as np

    # the first 30 primes: an available determinant of 47 digits, past int64
    s = validate_modulus_system(first_primes(30))
    assert det_bareiss(np.array(build_available_matrix(s))) == available_det(s)
    assert available_det(s) == 13138650485608010339877847289243877821644800000
    # 12 primes below 2**31 on the diagonal: a product of three of them overflows int64
    primes = [p for p in range(2**31 - 1, 2**31 - 1000, -1) if is_prime(p)][:12]
    s = validate_modulus_system(primes)
    matrix = np.array(build_available_matrix(s), dtype=np.int64)
    assert det_laplace(matrix) == det_bareiss(matrix) == available_det(s)
    assert type(det_laplace(matrix)) is int and available_det(s) > 2**360
    # a float matrix is refused, where elimination would return -1.0 and expansion -0.75
    for evaluate in (det_bareiss, det_laplace):
        with pytest.raises(ValidationError, match="matrix entry 0.5 is not an integer"):
            evaluate(((0.5, 1), (1, 0.5)))


def test_numpy_counts_and_indices_give_what_ints_give():
    import numpy as np

    assert first_primes(np.int64(5)) == first_primes(5) == [2, 3, 5, 7, 11]
    assert oeis_a067549(np.int64(5)) == oeis_a067549(5)
    residues = [1, 1, 2]
    assert gamma(SMALL, residues, np.int64(7)) == gamma(SMALL, residues, 7) == 3
    assert type(gamma(SMALL, residues, np.int64(7))) is int
    assert all(type(p) is int for p in first_primes(np.int64(5)))


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


def test_coverage_counts_refuse_like_the_rest_of_the_package():
    import numpy as np

    counts = CoverageCounts(*map(np.int64, (5, 2, 1, 6)))
    assert counts == (5, 2, 1, 6) and all(type(c) is int for c in counts)
    with pytest.raises(ValidationError, match="coverage count 5.0 is not an integer"):
        CoverageCounts(available=5.0, free=2, occupied=1, product=6)
    for bad in ((5, 2, 2, 6), (2, 3, 4, 6), (-1, 0, 7, 6)):
        with pytest.raises(ValidationError):
            CoverageCounts(*bad)
    with pytest.raises(ValidationError):
        CoverageCounts(5, 2, 1, 6)._replace(free=9)


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


# Decimal(n) is libmpdec's own conversion, to which no int->str digit limit applies
@pytest.mark.parametrize("bits", [STR_BITS - 1, STR_BITS, STR_BITS + 1, 4095, 4096, 4097,
                                  8191, 8192, 8193, 2**17 - 1, 2**17, 2**17 + 1])
def test_decimal_str_equals_libmpdec_either_side_of_each_split(bits):
    for n in (0, 1, 2**bits - 1, 2**bits, 2**bits + 1):
        assert _decimal_str(n) == str(Decimal(n))
        assert _decimal_str(-n) == str(Decimal(-n))


# the first 2000 primes: a product of 7483 digits, past the default limit of 4300
FIRST_2000 = validate_modulus_system(first_primes(2000))
P = FIRST_2000.product
BIG = 10**5000


@pytest.mark.parametrize("call, error, message", [
    (lambda: residue_independence_check(FIRST_2000), ResourceLimitError,
     f"product {Decimal(P)} exceeds sieve limit {DEFAULT_PRODUCT_LIMIT}"),
    (lambda: sieve_histogram(FIRST_2000, [0] * 2000), ResourceLimitError,
     f"product {Decimal(P)} exceeds sieve limit {DEFAULT_PRODUCT_LIMIT}"),
    (lambda: oracle_counts(FIRST_2000, [0] * 2000, product_limit=P - 1), ResourceLimitError,
     f"product {Decimal(P)} exceeds sieve limit {Decimal(P - 1)}"),
    (lambda: residue_independence_check(FIRST_2000, product_limit=P, exhaustive=True),
     ResourceLimitError,
     f"{Decimal(P * P)} integers to sieve exceed the exhaustive budget {SIEVE_BUDGET}"),
    (lambda: sieve_histogram(validate_modulus_system([2, 3]), [0, 0], degree=BIG),
     ValidationError, f"degree must be in [0, 2], got {Decimal(BIG)}"),
    (lambda: gamma(FIRST_2000, [0] * 2000, 0), ValidationError,
     f"0 lies outside [1, {Decimal(P)}]"),
    (lambda: validate_modulus_system([BIG]), ValidationError,
     f"modulus {Decimal(BIG)} does not fit in 64 bits"),
    (lambda: validate_modulus_system([-BIG]), ValidationError,
     f"modulus {Decimal(-BIG)} is smaller than 2"),
    (lambda: first_primes(-BIG), ValidationError, f"need at least 1 prime, got {Decimal(-BIG)}"),
    (lambda: first_primes(BIG), ResourceLimitError,
     f"{Decimal(BIG)} primes exceed the first-primes limit 1000000"),
], ids=["check-window", "sieve-window", "counts-limit", "check-budget", "sieve-degree",
        "gamma", "modulus-large", "modulus-negative", "first-primes-negative",
        "first-primes-large"])
def test_refusals_keep_their_class_and_every_digit_past_the_digit_limit(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert str(refused.value) == message
