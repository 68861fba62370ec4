"""Validated domain values for systems of arithmetic progressions.

A modulus system is an ordered sequence of moduli whose product, worked out by the
system, defines the counting window [1, product]; validated, they are distinct primes,
or pairwise-coprime integers behind an explicit flag. An assignment, a plain tuple of
residues, picks one residue class per modulus; ``gamma`` is the per-integer coverage
multiplicity: in how many of the chosen classes an integer lies.

The system and its counts are named tuples, so immutable; a system refuses moduli no
count can read (none, or one below 2), and ``CoverageCounts`` counts that break its
invariants. All functions are pure, so concurrent use needs no coordination.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from typing import Iterable

from .errors import ValidationError

MAX_MODULUS = 2**64 - 1
STR_BITS = 2048  # str(n) below 2**2048 has 617 digits or fewer: no digit limit is below 640

# Sinclair's seven Miller-Rabin bases decide every n < 2**64, the modulus range accepted
# above, as checked against the base-2 strong pseudoprimes below 2**64 (Feitsma and
# Galway). The bases are not prime, so n is first trial-divided by the first 12 primes,
# and a base that n divides is skipped: a prime such as 73 or 193 would fail it.
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n <= 2**64 - 1."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ModulusSystem(namedtuple("ModulusSystem", "moduli product")):
    """k >= 1 moduli in user order, each at least 2, with their exact product, worked out here."""

    __slots__ = ()

    def __new__(cls, moduli: Iterable[int]) -> ModulusSystem:
        moduli = _integers(moduli, "modulus", "moduli")
        if not moduli:
            raise ValidationError("at least one modulus is required")
        small = next((m for m in moduli if m < 2), None)
        if small is not None:
            raise ValidationError(f"modulus {_decimal_str(small)} is smaller than 2")
        return super().__new__(cls, moduli, _product(moduli))

    @classmethod
    def _make(cls, iterable: Iterable) -> ModulusSystem:
        moduli, _ = iterable  # both fields read, as _replace requires; the product is remade
        return cls(moduli)

    def __getnewargs__(self) -> tuple:  # pickle and copy make a system from its moduli alone
        return (self.moduli,)

    @property
    def k(self) -> int:
        return len(self.moduli)


class CoverageCounts(namedtuple("CoverageCounts", "available free occupied product")):
    """Exact window counts: gamma = 0 (free), <= 1 (available), >= 2 (occupied)."""

    __slots__ = ()

    def __new__(cls, available: int, free: int, occupied: int, product: int) -> CoverageCounts:
        counts = _integers((available, free, occupied, product), "coverage count")
        available, free, occupied, product = counts
        if min(counts) < 0:
            raise ValidationError("coverage counts must be nonnegative")
        if available + occupied != product:
            raise ValidationError("available + occupied must equal product")
        if not free <= available <= product:
            raise ValidationError("free <= available <= product violated")
        return super().__new__(cls, *counts)

    @classmethod
    def _make(cls, iterable: Iterable) -> CoverageCounts:
        # namedtuple's own _make, which _replace calls too, would skip the checks
        return cls(*iterable)


def _integers(values: Iterable[int], what: str, name: str = "argument") -> tuple[int, ...]:
    """``values``, the argument ``name``, as ints by ``__index__``: a float or a str is refused,
    not truncated. The one integer reader: every entry reads each integer argument here."""
    try:
        values = tuple(values)
        return tuple(map(operator.index, values))
    except TypeError:
        if not isinstance(values, tuple):  # only a tuple once read
            raise ValidationError(f"{name} {values!r} is not a sequence") from None
        for v in values:
            try:
                operator.index(v)
            except TypeError:
                raise ValidationError(f"{what} {v!r} is not an integer") from None
        raise


def validate_modulus_system(
    moduli: Iterable[int], coprime_mode: bool = False
) -> ModulusSystem:
    """Validate moduli and return the system with its exact product.

    Order is preserved. With ``coprime_mode`` false every modulus must be
    prime; with it true pairwise coprimality is enough, which is all the
    counting identities actually require.
    """
    ms = _integers(moduli, "modulus", "moduli")
    for m in ms:
        if m < 2:
            raise ValidationError(f"modulus {_decimal_str(m)} is smaller than 2")
        if m > MAX_MODULUS:
            raise ValidationError(f"modulus {_decimal_str(m)} does not fit in 64 bits")
    seen: set[int] = set()
    for m in ms:
        if m in seen:
            raise ValidationError(f"modulus {m} appears more than once")
        seen.add(m)
    composite = next((m for m in ms if not is_prime(m)), None)
    if composite is not None:
        if not coprime_mode:
            raise ValidationError(f"modulus {composite} is not prime")
        # distinct primes are coprime, so only a list with a composite is scanned
        _check_pairwise_coprime(ms)
    return ModulusSystem(ms)


def _check_pairwise_coprime(ms: tuple[int, ...]) -> None:
    product = 1
    for m in ms:
        # coprime to every earlier modulus iff coprime to their product; if not,
        # an earlier modulus shares the factor, so the scan stops before m
        if math.gcd(product, m) != 1:
            partner = next(p for p in ms if math.gcd(p, m) != 1)
            raise ValidationError(f"moduli {partner} and {m} share a common factor")
        product *= m


def _product(values: Iterable, multiply=operator.mul):
    """The product of ``values``, in order, by ``multiply`` in a balanced tree (Bernstein 2008):
    a running product re-reads the whole product for every factor, which is quadratic."""
    values = list(values)
    while len(values) > 1:  # adjacent pairs multiplied; an odd count's last factor waits
        values = [*map(multiply, values[::2], values[1::2]), *values[len(values) & ~1 :]]
    return values[0]


def assign_residues(system: ModulusSystem, residues: Iterable[int]) -> tuple[int, ...]:
    """One residue per modulus of ``system``, each reduced into [0, p_i).

    Every function that takes residues passes them through here, so any
    sequence of integers of the right length, unreduced or negative, is a
    valid assignment.
    """
    rs = _integers(residues, "residue", "residues")
    if len(rs) != system.k:
        raise ValidationError(f"expected {system.k} residues, got {len(rs)}")
    return tuple(r % p for r, p in zip(rs, system.moduli))


def gamma(system: ModulusSystem, residues: Iterable[int], n: int) -> int:
    """Number of chosen residue classes containing n, for n in [1, product]."""
    (n,) = _integers([n], "n")
    if not 1 <= n <= system.product:
        raise ValidationError(f"{_decimal_str(n)} lies outside [1, {_decimal_str(system.product)}]")
    reduced = assign_residues(system, residues)
    return sum(1 for p, r in zip(system.moduli, reduced) if n % p == r)


def _exact_context():
    """A decimal context that holds any integer exactly and traps every rounding."""
    import decimal

    return decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                           traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow])


@functools.cache
def _power(h: int):
    """2**h in decimal, for h a power of two from ``STR_BITS`` up."""
    half = _power(h >> 1) if h > STR_BITS else _exact_context().create_decimal(1 << h // 2)
    return _exact_context().multiply(half, half)


def _decimal(n: int):
    """n as an exact Decimal: past ``STR_BITS`` bits, hi * 2**h + lo, h a power of two."""
    context = _exact_context()
    if n.bit_length() <= STR_BITS:
        return context.create_decimal(n)
    h = 1 << (n.bit_length() - 1).bit_length() - 1  # the largest below n's length
    return context.add(context.multiply(_decimal(n >> h), _power(h)), _decimal(n & (1 << h) - 1))


def _decimal_str(n: int) -> str:
    """``str(n)`` whatever the int->str digit limit. Past ``STR_BITS`` bits, n is joined in
    decimal from halves, as CPython 3.12's _pylong does (gh-90716): subquadratic where
    str(int) is not before 3.12."""
    return str(n) if n.bit_length() <= STR_BITS else str(_decimal(n))
