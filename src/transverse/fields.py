"""Exact coefficient arithmetic: arbitrary-precision rationals and prime fields.

Every scalar in the package is either a ``fractions.Fraction`` (rational
backend, the default and the ground truth) or an :class:`FpElement` (prime
field backend, faster on large strands).  There is no floating point
anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError


class FpElement:
    """An element of GF(p), stored as the canonical representative in [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, int):
            return FpElement(other, self.p)
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise DomainError(f"mixed prime moduli {self.p} and {other.p}")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return FpElement(self.value * pow(o.value, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.p
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return str(self.value)


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
    """The field of rationals; elements are ``fractions.Fraction``."""

    name = "rational"

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def convert(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise DomainError(f"cannot interpret {x!r} as a rational")

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
    """GF(p) for a prime p; elements are :class:`FpElement`."""

    def __init__(self, p: int = 32003):
        if not _is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def from_int(self, n: int) -> FpElement:
        return FpElement(n, self.p)

    def convert(self, x) -> FpElement:
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise DomainError(f"mixed prime moduli {self.p} and {x.p}")
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise DomainError(f"denominator of {x} vanishes mod {self.p}")
            return FpElement(x.numerator, self.p) / FpElement(x.denominator, self.p)
        raise DomainError(f"cannot interpret {x!r} in GF({self.p})")

    @property
    def zero(self) -> FpElement:
        return FpElement(0, self.p)

    @property
    def one(self) -> FpElement:
        return FpElement(1, self.p)

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
