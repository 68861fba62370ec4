"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; every
tolerance is pinned here, nothing is deferred.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from apcover.core import assign_residues, validate_modulus_system
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
    build_free_matrix,
    det_bareiss,
    det_laplace,
    free_det,
)
from apcover.oracle import oracle_counts, residue_independence_check, sieve_histogram

PRIMES_UP_TO_97 = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
]


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number}: PASS - {description} ({elapsed * 1000.0:.1f} ms)")


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def sample_small_prime_systems(count=50, seed=20260808, max_product=10**7):
    """Seeded systems of 3-5 distinct primes <= 97 with bounded product."""
    rng = random.Random(seed)
    systems = []
    while len(systems) < count:
        k = rng.randint(3, 5)
        moduli = rng.sample(PRIMES_UP_TO_97, k)
        product = 1
        for p in moduli:
            product *= p
        if product <= max_product:
            systems.append(validate_modulus_system(moduli))
    return systems


def test_criterion_1_oeis_golden_values():
    with criterion(1, "first five terms of both sequences, under 1 ms"):
        assert oeis_a067549(5) == (2, 5, 22, 140, 1448)
        assert oeis_a005867(5) == (1, 2, 8, 48, 480)
        runtime = best_of(3, lambda: (oeis_a067549(5), oeis_a005867(5)))
        assert runtime < 0.001, f"took {runtime * 1000.0:.3f} ms"


def test_criterion_2_worked_determinants_three_routes():
    with criterion(2, "a_2 = 5, f_2 = 2, a_3 = 22 by recurrence, Bareiss, Laplace"):
        two = validate_modulus_system([2, 3])
        three = validate_modulus_system([2, 3, 5])

        assert available_det(two) == 5
        assert det_bareiss(build_available_matrix(two)) == 5
        assert det_laplace(build_available_matrix(two)) == 5

        assert free_det(two) == 2
        assert det_bareiss(build_free_matrix(two)) == 2  # (+1)^2 sign
        assert det_laplace(build_free_matrix(two)) == 2

        assert available_det(three) == 22
        assert det_bareiss(build_available_matrix(three)) == 22
        assert det_laplace(build_available_matrix(three)) == 22


def test_criterion_3_residue_independence_first_primes():
    with criterion(3, "k = 1..7: 20 seeded assignments each match (a_k, f_k); exhaustive k <= 3"):
        for k in range(1, 8):
            system = validate_modulus_system(first_primes(k))
            report = residue_independence_check(system, trials=20, seed=1000 + k)
            assert report.assignments_tested == 20
            assert report.all_match, f"k={k}: {report.mismatches}"
            assert report.expected.available == available_det(system)
            assert report.expected.free == free_det(system)
        for k in range(1, 4):
            system = validate_modulus_system(first_primes(k))
            report = residue_independence_check(system, exhaustive=True)
            assert report.assignments_tested == system.product
            assert report.all_match


def test_criterion_4_generalized_systems_three_routes():
    with criterion(4, "50 seeded 3-5 prime systems: sieve = recurrences = Bareiss"):
        rng = random.Random(424242)
        for system in sample_small_prime_systems():
            predicted = coverage_counts(system)
            assert predicted.available == det_bareiss(build_available_matrix(system))
            raw = det_bareiss(build_free_matrix(system))
            assert predicted.free == (raw if system.k % 2 == 0 else -raw)
            assignment = assign_residues(
                system, [rng.randrange(p) for p in system.moduli]
            )
            assert oracle_counts(system, assignment) == predicted


def test_criterion_5_recurrence_consistency_random_systems():
    with criterion(5, "100 random systems (k <= 12): product formula, step recurrence, occ complement"):
        rng = random.Random(515151)
        pool = first_primes(40)
        for _ in range(100):
            k = rng.randint(1, 12)
            moduli = rng.sample(pool, k)
            system = validate_modulus_system(moduli)

            product_form = 1
            for p in moduli:
                product_form *= p - 1
            assert free_det(system) == product_form

            prefix = validate_modulus_system(moduli[:1])
            assert available_det(prefix) == moduli[0]
            for t in range(2, k + 1):
                current = validate_modulus_system(moduli[:t])
                previous = validate_modulus_system(moduli[: t - 1])
                assert available_det(current) == free_det(previous) + (
                    moduli[t - 1] - 1
                ) * available_det(previous)

            assert occ_recurrence(system) + available_det(system) == system.product


def test_criterion_6_histogram_identity():
    with criterion(6, "DP histogram = sieve histogram, 10 assignments per system, invariants exact"):
        rng = random.Random(626262)
        systems = sample_small_prime_systems() + [
            validate_modulus_system(first_primes(k)) for k in range(1, 8)
        ]
        for system in systems:
            counts = exact_coverage_histogram(system)
            assert sum(counts) == system.product
            assert counts[0] == free_det(system)
            assert counts[0] + counts[1] == available_det(system)
            assert sum(j * c for j, c in enumerate(counts)) == sum(
                system.product // p for p in system.moduli
            )
            for _ in range(10):
                assignment = assign_residues(
                    system, [rng.randrange(p) for p in system.moduli]
                )
                assert sieve_histogram(system, assignment) == counts


def test_criterion_7_cross_oracle_determinants():
    with criterion(7, "Laplace = Bareiss on 200 random matrices, dim <= 6, entries in [-9, 9]"):
        rng = random.Random(727272)
        for _ in range(200):
            dim = rng.randint(1, 6)
            matrix = tuple(
                tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(dim)
            )
            assert det_laplace(matrix) == det_bareiss(matrix)


def test_criterion_8_recurrence_performance():
    with criterion(8, "a_300 recurrence under 100 ms; strictly faster than Bareiss at k = 12"):
        big = validate_modulus_system(first_primes(300))
        assert available_det(big) > 0  # warm path once
        runtime = best_of(3, lambda: available_det(big))
        assert runtime < 0.100, f"a_300 took {runtime * 1000.0:.3f} ms"

        twelve = validate_modulus_system(first_primes(12))
        matrix = build_available_matrix(twelve)
        assert available_det(twelve) == det_bareiss(matrix)
        recurrence_time = best_of(10, lambda: available_det(twelve))
        bareiss_time = best_of(10, lambda: det_bareiss(matrix))
        assert recurrence_time < bareiss_time, (
            f"recurrence {recurrence_time * 1e6:.1f} us vs "
            f"Bareiss {bareiss_time * 1e6:.1f} us"
        )


def test_criterion_9_cli_byte_determinism():
    with criterion(9, "verify output byte-identical across runs and thread counts 1/4"):
        base = [
            sys.executable, "-m", "apcover",
            "verify", "--primes", "2,3,5,7", "--trials", "5", "--seed", "1",
        ]
        outputs = []
        for extra in ([], [], ["--threads", "1"], ["--threads", "4"]):
            result = subprocess.run(
                base + extra, capture_output=True, text=False, timeout=120
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
        record = json.loads(outputs[0])
        assert record["results"]["all_match"] is True
