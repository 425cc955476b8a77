"""Monomials and rings.

The package computes on monomials and on monomial-matrix scalar tables,
whose every entry is one term s x^e; :meth:`Ring.format_term` is the one
rule that writes such a term as text.  Everything is immutable after
construction.  The canonical order used throughout the package (term
iteration, generator lists, monomial bases) is descending lexicographic
order on exponent vectors, so all outputs are byte-deterministic.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import ge, le

from .errors import DimensionError, DomainError, ParseError, Record
from .fields import QQ, PrimeField, Rationals


# sets a field of an immutable record, past its refusing __setattr__
_set = object.__setattr__


class Monomial(Record):
    """A monomial given by its exponent vector; immutable and hashed on
    ``(exps,)``."""

    __slots__ = _fields = ("exps",)
    __setattr__ = __delattr__ = Record._immutable

    def __init__(self, exps: tuple[int, ...]):
        if exps and min(exps) < 0:
            raise DomainError(f"negative exponent in {exps}")
        _set(self, "exps", exps)

    def __hash__(self):
        return hash((self.exps,))

    @property
    def degree(self) -> int:
        return sum(self.exps)

    @property
    def is_one(self) -> bool:
        return not any(self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        _check_len(self, other)
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def divides(self, other: "Monomial") -> bool:
        _check_len(self, other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def lcm(self, other: "Monomial") -> "Monomial":
        _check_len(self, other)
        return Monomial(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exps) if e)

    # descending lex == ascending in this key
    def sort_key(self) -> tuple[int, ...]:
        return tuple(-e for e in self.exps)


def _check_len(m1: Monomial, m2: Monomial):
    if len(m1.exps) != len(m2.exps):
        raise DimensionError(
            f"monomials over {len(m1.exps)} and {len(m2.exps)} variables"
        )


def minimal_monomials(mons) -> tuple[Monomial, ...]:
    """Divisibility-minimal elements, deduplicated, in canonical order;
    raises DimensionError for monomials over different numbers of
    variables.  Divisibility is tested on the kept exponent tuples."""
    mons = sorted(set(mons), key=lambda m: (m.degree, m.sort_key()))
    for m in mons:
        if len(m.exps) != len(mons[0].exps):
            _check_len(mons[0], m)
    kept: list = []
    out: list[Monomial] = []
    for m in mons:
        e = m.exps
        if not any(all(map(le, g, e)) for g in kept):
            kept.append(e)
            out.append(m)
    return tuple(sorted(out, key=Monomial.sort_key))


_NAME_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*?)(?:\^(\d+))?$")
# a variable name as _NAME_RE reads it back
_VAR_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class Ring(Record):
    """A standard graded polynomial ring, optionally modulo a monomial ideal.

    ``modulus`` holds the minimal monomial generators of the ideal being
    quotiented out; the residue ring has k-basis the monomials divisible by
    none of them.  All variables have internal degree 1.  Immutable, and
    hashed on ``(names, field, modulus)``.
    """

    __slots__ = ("names", "field", "modulus", "_one", "_kill")
    _fields = ("names", "field", "modulus")
    __setattr__ = __delattr__ = Record._immutable

    def __init__(
        self,
        names: tuple[str, ...],
        field: Rationals | PrimeField = QQ,
        modulus: tuple[Monomial, ...] = (),
    ):
        names = tuple(names)
        for name in names:
            if not (isinstance(name, str) and _VAR_RE.fullmatch(name)):
                raise DomainError(
                    f"variable name {name!r} is not of the form "
                    "[A-Za-z_][A-Za-z_0-9]*"
                )
        if len(set(names)) != len(names):
            raise DomainError("variable names must be distinct")
        modulus = minimal_monomials(modulus)
        for m in modulus:
            if len(m.exps) != len(names):
                raise DimensionError("modulus monomial has wrong variable count")
            if m.is_one:
                raise DomainError("cannot quotient by the unit ideal")
        _set(self, "names", names)
        _set(self, "field", field)
        _set(self, "modulus", modulus)
        _set(self, "_one", Monomial((0,) * len(names)))
        _set(self, "_kill", tuple(m.exps for m in modulus))

    def __hash__(self):
        return hash((self.names, self.field, self.modulus))

    @property
    def nvars(self) -> int:
        return len(self.names)

    def one_monomial(self) -> Monomial:
        return self._one

    def kills(self, e: tuple) -> bool:
        """True iff x^e is zero in this ring (divisible by a modulus
        generator), for an exponent tuple e; raises DimensionError for one
        over another number of variables when there is a modulus."""
        if not self._kill:
            return False
        if len(e) != len(self.names):
            raise DimensionError(
                f"monomials over {len(e)} and {len(self.names)} variables"
            )
        return any(all(map(ge, e, g)) for g in self._kill)

    def quotient(self, extra) -> "Ring":
        gens = tuple(self.modulus) + tuple(extra)
        return Ring(self.names, self.field, gens)

    def parse_monomial(self, text: str) -> Monomial:
        """Parse strings like ``x1^2*x2`` or ``1`` into a monomial."""
        text = text.strip()
        if text in ("1", ""):
            return self.one_monomial()
        exps = [0] * self.nvars
        for factor in text.split("*"):
            m = _NAME_RE.match(factor.strip())
            if not m:
                raise ParseError(f"malformed monomial factor {factor!r}")
            name, power = m.group(1), m.group(2)
            if name not in self.names:
                raise ParseError(f"unknown variable {name!r} in {text!r}")
            exps[self.names.index(name)] += int(power) if power else 1
        return Monomial(tuple(exps))

    def format_monomial(self, m: Monomial) -> str:
        return self.format_term(m.exps, 1)

    def format_term(self, exps, scalar) -> str:
        """The term s x^exps as text: the scalar alone at x^0, the monomial
        alone at s = 1, "-" and the monomial at s = -1, else "s*monomial"."""
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(self.names, exps) if e)
        cs = str(scalar)
        if not mono:
            return cs
        return mono if cs == "1" else f"-{mono}" if cs == "-1" else f"{cs}*{mono}"

    def __repr__(self):
        base = f"{self.field}[{','.join(self.names)}]"
        if self.modulus:
            gens = ",".join(self.format_monomial(m) for m in self.modulus)
            return f"{base}/({gens})"
        return base


def monomials_of_degree(ring: Ring, t: int, extra: tuple[Monomial, ...] = ()):
    """All degree-t monomials nonzero in ``ring`` and killed by no ``extra``
    generator, in canonical (descending lex) order."""
    return list(_degree_monomials(ring, t, tuple(extra)))


def _exponent_vectors(t: int, n: int):
    """Exponent vectors of degree t in n variables, descending lex."""
    if n == 1:
        yield (t,)
    elif n > 1:
        for e in range(t, -1, -1):
            for rest in _exponent_vectors(t - e, n - 1):
                yield (e,) + rest
    elif t == 0:
        yield ()


@lru_cache(maxsize=128)
def _degree_monomials(ring: Ring, t: int, extra: tuple[Monomial, ...]):
    """Cached body of :func:`monomials_of_degree`: the kill test runs on raw
    exponent vectors, and a Monomial is built only for the survivors."""
    if t < 0:
        return ()
    # each generator as its (variable, exponent) pairs with exponent > 0
    gens = [
        [(k, e) for k, e in enumerate(g.exps) if e]
        for g in ring.modulus + extra
    ]
    return tuple(
        Monomial(exps)
        for exps in _exponent_vectors(t, ring.nvars)
        if not any(all(exps[k] >= e for k, e in g) for g in gens)
    )
