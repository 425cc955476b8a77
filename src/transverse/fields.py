"""Exact coefficient arithmetic: arbitrary-precision rationals and prime fields.

Over the rationals (the default and the ground truth) a scalar is an
``int`` or a ``fractions.Fraction``.  Over GF(p) it is an ``int`` in
[0, p), and :meth:`PrimeField.scalar` is the one rule that brings an int or
a Fraction there.  There is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Rationals:
    """The field of rationals; elements are ints and ``fractions.Fraction``."""

    name = "rational"

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a prime p; elements are ints in [0, p)."""

    def __init__(self, p: int = 32003):
        if not _is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def scalar(self, x) -> int:
        """x in GF(p) as the int in [0, p): an int reduced mod p, a
        Fraction n/d read exactly as n times the inverse of d.  Raises
        DomainError when d vanishes mod p or x is neither."""
        p = self.p
        if isinstance(x, int):
            return x % p
        if isinstance(x, Fraction):
            if not x.denominator % p:
                raise DomainError(f"denominator of {x} vanishes mod {p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        raise DomainError(f"cannot interpret {x!r} in GF({p})")

    from_int = scalar

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


QQ = Rationals()


def field_to_json(field) -> str | dict:
    """The field as a job document names it: "rational" or {"prime": p}."""
    return "rational" if not hasattr(field, "p") else {"prime": field.p}
