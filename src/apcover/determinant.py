"""Structured matrices behind the two counts and exact determinant routes.

The "available" matrix of a system is k x k with the moduli on the
diagonal and ones everywhere else; the "free" matrix borders it with an
all-ones first row, making it (k+1) x (k+1). A matrix is a plain tuple of
rows; both determinant routes refuse one that is empty or not square, and
read every entry as an int by ``__index__``. Three ways to evaluate them:

* ``available_det`` / ``free_det``: products over prod_i ((p_i - 1) + x),
  whose x^0 coefficient is the free count and x^0 + x^1 coefficients the
  available count, multiplied in the balanced tree ``core._product``. The
  fold ``coverage_polynomials`` gives every prefix and every degree, for
  the sequence tables and the histogram;
* ``det_bareiss``: fraction-free elimination, exact on any integer
  matrix, the route independent of the product;
* ``det_laplace``: cofactor expansion along the last row, each minor
  evaluated once, for small matrices only, a second independent route that
  checks Bareiss.

All arithmetic is arbitrary precision throughout, whatever the entries' type
(a numpy int64 matrix too); there is no fixed-width path to overflow.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, TypeVar

from .core import ModulusSystem, _integers, _product
from .errors import ResourceLimitError, ValidationError

# Cofactor expansion of a dense random n x n matrix took 15-25 ms at n = 12 and
# 0.4-0.6 s at 16 on a 2-CPU host; the bordered 13 x 13 free matrix took 0.4 ms.
LAPLACE_MAX_DIMENSION = 12
# Bareiss on a 300 x 300 available matrix took 43 s on a 2-CPU host
MAX_MATRIX_DIMENSION = 300

Number = TypeVar("Number")  # int, or decimal.Decimal for the sequence tables
Rows = tuple[tuple[int, ...], ...]  # a matrix of arbitrary-precision integers, row by row


def _square(matrix: Sequence[Sequence[int]]) -> Rows:
    """The rows of an n x n matrix, n >= 1, as ints; any other shape is refused."""
    try:
        rows = tuple(_integers(row, "matrix entry", "matrix row") for row in matrix)
    except TypeError:
        raise ValidationError(f"matrix {matrix!r} is not a sequence") from None
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValidationError("matrix must be square and nonempty")
    return rows


def _diagonal_rows(moduli: tuple[int, ...], width: int) -> Rows:
    """Row i: ``width`` ones with moduli[i] in column i; refused above the size limit."""
    if width > MAX_MATRIX_DIMENSION:
        raise ResourceLimitError(
            f"matrix dimension {width} exceeds the limit {MAX_MATRIX_DIMENSION}"
        )
    return tuple(tuple(p if j == i else 1 for j in range(width)) for i, p in enumerate(moduli))


def build_available_matrix(system: ModulusSystem) -> Rows:
    """k x k matrix with the moduli on the diagonal, ones elsewhere."""
    return _diagonal_rows(system.moduli, system.k)


def build_free_matrix(system: ModulusSystem) -> Rows:
    """(k+1) x (k+1) bordered matrix: all-ones first row, then the moduli
    staggered one column left of the diagonal, ones elsewhere."""
    n = system.k + 1
    rows = _diagonal_rows(system.moduli, n)
    return ((1,) * n,) + rows


def det_bareiss(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free elimination.

    Partial pivoting on the first nonzero entry in column order with sign
    tracking; every intermediate division is exact, so the result is the
    true integer determinant. Singular matrices return 0.
    """
    m = [list(row) for row in _square(matrix)]
    n = len(m)
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for r in range(col + 1, n):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[col][col]
        row_c = m[col]
        for r in range(col + 1, n):
            row_r = m[r]
            factor = row_r[col]
            for c in range(col + 1, n):
                row_r[c] = (row_r[c] * pivot - factor * row_c[c]) // prev
            row_r[col] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_laplace(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by cofactor expansion along the last row.

    Each minor is evaluated once, so an n x n matrix costs at most n * 2^n
    products rather than n!; refused above ``LAPLACE_MAX_DIMENSION`` (12).
    """
    rows = _square(matrix)
    if len(rows) > LAPLACE_MAX_DIMENSION:
        raise ValidationError(
            f"cofactor expansion limited to dimension {LAPLACE_MAX_DIMENSION}, got {len(rows)}"
        )
    return _laplace(rows)


def _laplace(rows: Rows) -> int:
    """Row by row: after i rows, ``minors`` maps each set of i columns (a
    bitmask) to the determinant of the first i rows on those columns, each
    found by expanding row i over the minors of the i - 1 rows above it.
    Zero minors are dropped."""
    n = len(rows)
    minors = {0: 1}
    for row in rows:
        expanded: dict[int, int] = {}
        for cols, minor in minors.items():
            for j, v in enumerate(row):
                if v == 0 or cols >> j & 1:
                    continue
                # the cofactor's sign: (-1)^(columns of the minor right of j)
                term = -v * minor if (cols >> j).bit_count() & 1 else v * minor
                key = cols | 1 << j
                expanded[key] = expanded.get(key, 0) + term
        minors = {cols: d for cols, d in expanded.items() if d}
    return minors.get((1 << n) - 1, 0)


def coverage_polynomials(
    moduli: Iterable[int], degree: int, one: Number = 1
) -> Iterator[tuple[Number, ...]]:
    """Coefficients of prod_i ((p_i - 1) + x) over each prefix of ``moduli``,
    lowest degree first and truncated above x^degree. The x^j coefficient
    counts the integers in [1, product] lying in exactly j chosen classes.
    A running fold, for the jobs that read every prefix or every degree.

    ``one`` starts the fold and sets the coefficients' type: the int 1, or
    ``Decimal(1)`` when the terms are wanted in decimal. A Decimal fold is
    exact only under a context that cannot round, such as
    ``core._exact_context()``; a table of its terms prints faster than
    ``core._decimal_str`` converts the int terms one by one."""
    coeffs = [one]
    for p in moduli:
        weight = p - 1
        if len(coeffs) <= degree:
            coeffs.append(0)
        for j in range(len(coeffs) - 1, 0, -1):
            coeffs[j] = coeffs[j] * weight + coeffs[j - 1]
        coeffs[0] *= weight
        yield tuple(coeffs)


def _free_and_once(moduli: Iterable[int]) -> tuple[int, int]:
    """The x^0 and x^1 coefficients of prod_i ((p_i - 1) + x), in ``core._product``."""
    return _product(((p - 1, 1) for p in moduli),
                    lambda a, b: (a[0] * b[0], a[0] * b[1] + a[1] * b[0]))


def free_det(system: ModulusSystem) -> int:
    """F_k, the free count: the product of (p_i - 1) over the system, in ``core._product``.

    Equals (-1)^k times the raw determinant of the bordered free matrix,
    so it is never negative; callers that evaluate that matrix directly
    apply the sign themselves.
    """
    return _product(p - 1 for p in system.moduli)


def available_det(system: ModulusSystem) -> int:
    """A_k, the available count: the x^0 + x^1 coefficients of prod_i ((p_i - 1) + x),
    from ``_free_and_once``; equals the determinant of the available matrix for every
    modulus order."""
    return sum(_free_and_once(system.moduli))
