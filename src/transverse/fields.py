"""Exact coefficient arithmetic: arbitrary-precision rationals and prime fields.

Over the rationals (the default and the ground truth) a scalar is an
``int`` or a ``fractions.Fraction``.  Over GF(p) it is an ``int`` in
[0, p).  ``field.scalar`` is the one rule that brings an int or a Fraction
to its form in a table: over GF(p) that int, over QQ an int where it is
integral.  There is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError


# Miller-Rabin on the first thirteen primes as bases is exact below this
# bound, psi_13 (Sorenson-Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017); the bases up to 37 alone are exact only
# below psi_12 = 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; raises DomainError for p >= _MR_BOUND,
    where these bases no longer decide primality."""
    if p >= _MR_BOUND:
        raise DomainError(f"prime fields need p < {_MR_BOUND}, got {p}")
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x not in (1, p - 1) and all(
            (x := x * x % p) != p - 1 for _ in range(s - 1)
        ):
            return False
    return True


class Rationals:
    """The field of rationals; elements are ints and ``fractions.Fraction``."""

    name = "rational"

    def scalar(self, x):
        """x as a table stores it: an integral Fraction as its int, anything
        else unchanged."""
        return x.numerator if type(x) is Fraction and x.denominator == 1 else x

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
