import itertools
import random

import pytest

from apcover.core import validate_modulus_system
from apcover.determinant import (
    available_det,
    build_available_matrix,
    build_free_matrix,
    det_bareiss,
    det_laplace,
    free_det,
)
from apcover.errors import ValidationError

FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def system(moduli, coprime=False):
    return validate_modulus_system(moduli, coprime_mode=coprime)


def test_det_routes_refuse_empty_and_non_square_matrices():
    assert det_bareiss(((1, 2), (3, 4))) == det_laplace(((1, 2), (3, 4))) == -2
    for evaluate in (det_bareiss, det_laplace):
        for rows in ((), ((1, 2), (3,)), ((1, 2),)):
            with pytest.raises(ValidationError, match="matrix must be square and nonempty"):
                evaluate(rows)


def test_build_available_matrix():
    assert build_available_matrix(system([2, 3])) == ((2, 1), (1, 3))
    assert build_available_matrix(system([2])) == ((2,),)
    assert build_available_matrix(system([3, 5, 7])) == (
        (3, 1, 1),
        (1, 5, 1),
        (1, 1, 7),
    )


def test_build_free_matrix():
    assert build_free_matrix(system([2, 3])) == (
        (1, 1, 1),
        (2, 1, 1),
        (1, 3, 1),
    )
    assert build_free_matrix(system([2])) == ((1, 1), (2, 1))
    assert build_free_matrix(system([3, 5, 7])) == (
        (1, 1, 1, 1),
        (3, 1, 1, 1),
        (1, 5, 1, 1),
        (1, 1, 7, 1),
    )


def test_det_bareiss_golden():
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert det_bareiss(identity) == 1
    assert det_bareiss(build_available_matrix(system([2, 3, 5]))) == 22
    assert det_bareiss(build_free_matrix(system([2, 3]))) == 2


def test_det_bareiss_singular_and_pivoting():
    assert det_bareiss(((1, 2), (2, 4))) == 0
    assert det_bareiss(((0, 1), (1, 0))) == -1
    assert det_bareiss(((0, 0), (0, 0))) == 0
    # zero pivot mid-elimination forces a row swap
    m = ((1, 1, 1), (1, 1, 2), (1, 2, 1))
    assert det_bareiss(m) == det_laplace(m) == -1


def test_det_laplace_golden():
    assert det_laplace(((2, 1), (1, 3))) == 5
    assert det_laplace(((17,),)) == 17
    # raw bordered determinant carries the (-1)^k sign
    assert det_laplace(build_free_matrix(system([2, 3, 5]))) == -8


def test_det_laplace_dimension_cap():
    thirteen = tuple(tuple(range(13 * i, 13 * i + 13)) for i in range(13))
    with pytest.raises(ValidationError, match="limited to dimension 12, got 13"):
        det_laplace(thirteen)


def random_matrix(rng, dim):
    return tuple(tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(dim))


def test_laplace_equals_bareiss_on_random_matrices():
    rng = random.Random(7)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 6))
        assert det_laplace(m) == det_bareiss(m)
    # a couple at the cap, where expansion is slowest
    for _ in range(2):
        m = random_matrix(rng, 12)
        assert det_laplace(m) == det_bareiss(m)


@pytest.mark.parametrize("k", range(8, 12))
def test_laplace_equals_bareiss_on_the_bordered_matrices(k):
    # the free matrix of k moduli is (k + 1) x (k + 1), within the cap up to k = 11
    s = system(FIRST_PRIMES[:k])
    for matrix in (build_available_matrix(s), build_free_matrix(s)):
        assert det_laplace(matrix) == det_bareiss(matrix)


def test_available_det_golden():
    assert available_det(system([2, 3, 5, 7, 11])) == 1448
    assert available_det(system([2])) == 2
    assert available_det(system([3, 5, 7])) == 92


def test_free_det_golden():
    assert free_det(system([2, 3, 5, 7, 11])) == 480
    assert free_det(system([3, 5, 7])) == 48


@pytest.mark.parametrize("p", [2, 3, 13, 97])
def test_free_det_single_modulus(p):
    assert free_det(system([p])) == p - 1


def test_recurrences_match_bareiss_up_to_k12():
    rng = random.Random(11)
    for _ in range(25):
        k = rng.randint(1, 12)
        moduli = rng.sample(FIRST_PRIMES, k)
        s = system(moduli)
        assert available_det(s) == det_bareiss(build_available_matrix(s))
        raw = det_bareiss(build_free_matrix(s))
        assert free_det(s) == (raw if k % 2 == 0 else -raw)


def test_free_det_is_totient_style_product():
    rng = random.Random(13)
    for _ in range(50):
        k = rng.randint(1, 12)
        moduli = rng.sample(FIRST_PRIMES, k)
        s = system(moduli)
        expected = 1
        for p in moduli:
            expected *= p - 1
        assert free_det(s) == expected


def test_available_det_permutation_invariant_exhaustively():
    for moduli in itertools.permutations([2, 3, 5, 7]):
        assert available_det(system(list(moduli))) == 140
    for moduli in itertools.permutations([3, 5, 7]):
        assert available_det(system(list(moduli))) == 92


def test_available_det_permutation_invariant_random_k8():
    rng = random.Random(17)
    base = rng.sample(FIRST_PRIMES, 8)
    reference = available_det(system(base))
    for _ in range(10):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert available_det(system(shuffled)) == reference


@pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (13, 89), (5, 97)])
def test_two_modulus_base_cases(p, q):
    s = system([p, q])
    assert available_det(s) == p * q - 1
    assert free_det(s) == (p - 1) * (q - 1)


def test_three_modulus_base_case_folds_two_modulus_values():
    # A_3 = F_2 + (p_3 - 1) A_2 for arbitrary distinct primes
    for trio in [(2, 3, 5), (3, 5, 7), (5, 11, 29)]:
        p, q, r = trio
        a2 = available_det(system([p, q]))
        f2 = free_det(system([p, q]))
        assert available_det(system([p, q, r])) == f2 + (r - 1) * a2


def test_coprime_composites_flow_through_determinants():
    s = system([4, 9], coprime=True)
    assert available_det(s) == 35
    assert free_det(s) == 24
    assert det_bareiss(build_available_matrix(s)) == 35
