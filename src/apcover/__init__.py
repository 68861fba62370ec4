"""Exact coverage counts for residue classes of coprime arithmetic progressions.

Given k pairwise-distinct prime (or pairwise-coprime) moduli with one
residue class chosen per modulus, this package counts the integers in
[1, product] lying in zero, at most one, or at least two of the chosen
classes: by structural O(k) recurrences, by exact determinants of the
associated matrices, and by a brute-force sieve, all of which must agree.
"""

from .core import (
    CoverageCounts,
    ModulusSystem,
    assign_residues,
    gamma,
    is_prime,
    validate_modulus_system,
)
from .counting import (
    coverage_counts,
    exact_coverage_histogram,
    first_primes,
    occ_recurrence,
    oeis_a005867,
    oeis_a067549,
)
from .determinant import (
    available_det,
    build_available_matrix,
    build_free_matrix,
    det_bareiss,
    det_laplace,
    free_det,
)
from .errors import ApcoverError, ResourceLimitError, ValidationError
from .oracle import (
    IndependenceReport,
    oracle_counts,
    residue_independence_check,
    sieve_histogram,
)

__version__ = "0.1.0"

__all__ = [
    "ApcoverError",
    "CoverageCounts",
    "IndependenceReport",
    "ModulusSystem",
    "ResourceLimitError",
    "ValidationError",
    "assign_residues",
    "available_det",
    "build_available_matrix",
    "build_free_matrix",
    "coverage_counts",
    "det_bareiss",
    "det_laplace",
    "exact_coverage_histogram",
    "first_primes",
    "free_det",
    "gamma",
    "is_prime",
    "occ_recurrence",
    "oeis_a005867",
    "oeis_a067549",
    "oracle_counts",
    "residue_independence_check",
    "sieve_histogram",
    "validate_modulus_system",
]
