"""Monomials, sparse polynomials, and sparse polynomial matrices.

Everything is immutable after construction.  The canonical order used
throughout the package (term iteration, generator lists, monomial bases)
is descending lexicographic order on exponent vectors, so all outputs are
byte-deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionError, DomainError, ParseError, RingMismatchError
from .fields import QQ, PrimeField, Rationals


@dataclass(frozen=True, slots=True)
class Monomial:
    """A monomial given by its exponent vector."""

    exps: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.exps):
            raise DomainError(f"negative exponent in {self.exps}")

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

    def divide(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other; raises if not divisible."""
        _check_len(self, other)
        if not other.divides(self):
            raise DomainError("monomial quotient is not exact")
        return Monomial(tuple(a - b for a, b in zip(self.exps, other.exps)))

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
    """Divisibility-minimal elements, deduplicated, in canonical order."""
    mons = sorted(set(mons), key=lambda m: (m.degree, m.sort_key()))
    out: list[Monomial] = []
    for m in mons:
        if not any(g.divides(m) for g in out):
            out.append(m)
    return tuple(sorted(out, key=Monomial.sort_key))


_NAME_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*?)(?:\^(\d+))?$")


@dataclass(frozen=True)
class Ring:
    """A standard graded polynomial ring, optionally modulo a monomial ideal.

    ``modulus`` holds the minimal monomial generators of the ideal being
    quotiented out; the residue ring has k-basis the monomials divisible by
    none of them.  All variables have internal degree 1.
    """

    names: tuple[str, ...]
    field: Rationals | PrimeField = QQ
    modulus: tuple[Monomial, ...] = ()

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise DomainError("variable names must be distinct")
        object.__setattr__(self, "modulus", minimal_monomials(self.modulus))
        for m in self.modulus:
            if len(m.exps) != self.nvars:
                raise DimensionError("modulus monomial has wrong variable count")
            if m.is_one:
                raise DomainError("cannot quotient by the unit ideal")
        object.__setattr__(self, "_one", Monomial((0,) * self.nvars))
        # each modulus generator as its (variable, exponent) pairs, e > 0
        object.__setattr__(self, "_kill", tuple(
            tuple((k, e) for k, e in enumerate(m.exps) if e) for m in self.modulus
        ))

    @property
    def nvars(self) -> int:
        return len(self.names)

    def monomial(self, *exps: int) -> Monomial:
        if len(exps) != self.nvars:
            raise DimensionError(f"expected {self.nvars} exponents, got {len(exps)}")
        return Monomial(tuple(exps))

    def one_monomial(self) -> Monomial:
        return self._one

    def kills(self, m: Monomial) -> bool:
        """True iff m is zero in this ring (divisible by a modulus generator);
        raises DimensionError for a monomial over another number of
        variables when there is a modulus."""
        if not self._kill:
            return False
        exps = m.exps
        if len(exps) != self.nvars:
            raise DimensionError(
                f"monomials over {len(exps)} and {self.nvars} variables"
            )
        return any(all(exps[k] >= e for k, e in g) for g in self._kill)

    def quotient(self, extra) -> "Ring":
        gens = tuple(self.modulus) + tuple(extra)
        return Ring(self.names, self.field, gens)

    def base(self) -> "Ring":
        return Ring(self.names, self.field, ())

    def with_field(self, field) -> "Ring":
        return Ring(self.names, field, self.modulus)

    def variable(self, i: int) -> "Polynomial":
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {Monomial(tuple(exps)): self.field.one})

    def variables(self) -> list["Polynomial"]:
        return [self.variable(i) for i in range(self.nvars)]

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
        if m.is_one:
            return "1"
        parts = []
        for name, e in zip(self.names, m.exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

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


class Polynomial:
    """A sparse polynomial: finite map monomial -> nonzero scalar.

    Construction drops zero coefficients and monomials that vanish in the
    ring (quotient by a monomial ideal), and over GF(p) brings each
    coefficient into [0, p) by :meth:`PrimeField.scalar`, so values are
    always canonical.
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: Ring, terms: dict):
        if isinstance(ring.field, PrimeField):
            terms = {m: ring.field.scalar(c) for m, c in terms.items()}
        clean = {}
        for m, c in terms.items():
            if not c:
                continue
            if ring.kills(m):
                continue
            clean[m] = c
        self.ring = ring
        self._terms = clean

    @classmethod
    def zero(cls, ring: Ring) -> "Polynomial":
        return cls(ring, {})

    @classmethod
    def one(cls, ring: Ring) -> "Polynomial":
        return cls(ring, {ring.one_monomial(): ring.field.one})

    @classmethod
    def from_monomial(cls, ring: Ring, m: Monomial, coeff=1) -> "Polynomial":
        return cls(ring, {m: coeff})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Term pairs in canonical (descending lex) order."""
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key())

    def term_dict(self) -> dict:
        return dict(self._terms)

    @property
    def constant_term(self):
        return self._terms.get(self.ring.one_monomial(), self.ring.field.zero)

    @property
    def homogeneous_degree(self):
        """Total degree if all terms share it, else None; None when zero."""
        degs = {m.degree for m in self._terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(self.ring, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self._terms.items()})

    def scale(self, c) -> "Polynomial":
        if not c:
            return Polynomial.zero(self.ring)
        return Polynomial(self.ring, {m: c * v for m, v in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ring(other)
        acc: dict = {}
        kills = self.ring.kills
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                if kills(m):
                    continue
                s = acc.get(m, 0) + c1 * c2
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        return Polynomial(self.ring, acc)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for m, c in self.terms():
            mono = self.ring.format_monomial(m)
            cs = str(c)
            if mono == "1":
                piece = cs
            elif cs == "1":
                piece = mono
            elif cs == "-1":
                piece = f"-{mono}"
            else:
                piece = f"{cs}*{mono}"
            parts.append(piece)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


class PolyMatrix:
    """A sparse matrix of polynomials; absent entries are zero."""

    __slots__ = ("ring", "nrows", "ncols", "entries")

    def __init__(self, ring: Ring, nrows: int, ncols: int, entries: dict):
        if nrows < 0 or ncols < 0:
            raise DimensionError("negative matrix dimension")
        clean = {}
        for (r, c), p in entries.items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise DimensionError(f"entry index ({r},{c}) out of range")
            if p.ring != ring:
                raise RingMismatchError("matrix entry in wrong ring")
            if not p.is_zero:
                clean[(r, c)] = p
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.entries = clean

    @classmethod
    def zero(cls, ring: Ring, nrows: int, ncols: int) -> "PolyMatrix":
        return cls(ring, nrows, ncols, {})

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "PolyMatrix":
        one = Polynomial.one(ring)
        return cls(ring, n, n, {(i, i): one for i in range(n)})

    def entry(self, r: int, c: int) -> Polynomial:
        return self.entries.get((r, c), Polynomial.zero(self.ring))

    def column(self, c: int) -> dict[int, Polynomial]:
        return {r: p for (r, cc), p in self.entries.items() if cc == c}

    def apply(self, vec: list[Polynomial]) -> list[Polynomial]:
        if len(vec) != self.ncols:
            raise DimensionError(f"expected vector of length {self.ncols}")
        out = [Polynomial.zero(self.ring) for _ in range(self.nrows)]
        for (r, c), p in self.entries.items():
            out[r] = out[r] + p * vec[c]
        return out

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ncols != other.nrows:
            raise DimensionError("matrix shapes do not compose")
        if self.ring != other.ring:
            raise RingMismatchError("matrices over different rings")
        acc: dict = {}
        by_col: dict[int, list] = {}
        for (r, c), p in self.entries.items():
            by_col.setdefault(c, []).append((r, p))
        for (k, c), q in other.entries.items():
            for r, p in by_col.get(k, []):
                key = (r, c)
                prod = p * q
                acc[key] = acc[key] + prod if key in acc else prod
        return PolyMatrix(self.ring, self.nrows, other.ncols, acc)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols}, {len(self.entries)} entries)"
