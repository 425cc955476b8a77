"""Monomial ideals and the transversality predicates.

All ideal arithmetic here is exact lcm/divisibility combinatorics on
minimal generating sets; no Groebner machinery is needed for monomial
ideals, and that covers every construction in the package.
"""

from __future__ import annotations

from functools import reduce

from .errors import DomainError, Record, RingMismatchError
from .poly import Monomial, Ring, minimal_monomials, monomials_of_degree


class MonomialIdeal(Record):
    """A monomial ideal, stored by its minimal generators in canonical order.

    The zero ideal is the empty generator list; the unit ideal is generated
    by 1.  Immutable, and hashed on ``(ring, gens)``.
    """

    __slots__ = _fields = ("ring", "gens")
    __setattr__ = __delattr__ = Record._immutable

    def __init__(self, ring: Ring, gens: tuple[Monomial, ...]):
        for g in gens:
            if len(g.exps) != ring.nvars:
                raise DomainError("generator has wrong variable count")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", minimal_monomials(gens))

    def __hash__(self):
        return hash((self.ring, self.gens))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return any(g.is_one for g in self.gens)

    def contains(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.gens)

    def max_gen_degree(self) -> int:
        return max((g.degree for g in self.gens), default=0)

    def quotient_ring(self) -> Ring:
        return self.ring.quotient(self.gens)

    def with_ring(self, ring: Ring) -> "MonomialIdeal":
        return MonomialIdeal(ring, self.gens)

    def __str__(self):
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(self.ring.format_monomial(g) for g in self.gens) + ")"


def minimalize_generators(ring: Ring, gens) -> MonomialIdeal:
    return MonomialIdeal(ring, tuple(gens))


def _check_rings(I: MonomialIdeal, J: MonomialIdeal):
    if I.ring != J.ring:
        raise RingMismatchError(f"{I.ring} vs {J.ring}")


def ideal_product(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_rings(I, J)
    return MonomialIdeal(I.ring, tuple(g * h for g in I.gens for h in J.gens))


def ideal_intersection(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Intersection via pairwise lcms — exact for monomial ideals."""
    _check_rings(I, J)
    return MonomialIdeal(I.ring, tuple(g.lcm(h) for g in I.gens for h in J.gens))


def is_transverse(I: MonomialIdeal, J: MonomialIdeal) -> bool:
    """True iff the intersection and the product have the same minimal
    generators (the generating sets are canonical, so set equality decides)."""
    return transverse_product(I, J) is not None


def transverse_product(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal | None:
    """IJ when I and J are transverse (see :func:`is_transverse`), else
    None, so that a caller who needs both builds the product once."""
    _check_rings(I, J)
    for K in (I, J):
        if K.is_zero or K.is_unit:
            raise DomainError("transversality needs nonzero proper ideals")
    IJ = ideal_product(I, J)
    return IJ if ideal_intersection(I, J).gens == IJ.gens else None


def lcm_closure(pts) -> frozenset:
    """The lcms of the nonempty subsets of ``pts``, exponent tuples."""
    out: set = set()
    for p in pts:
        out |= {tuple(map(max, p, c)) for c in out}
        out.add(p)
    return frozenset(out)


def lcm_lattice(I: MonomialIdeal) -> frozenset:
    """The lcm lattice L_I: the exponent vectors of the lcms of all subsets
    of the generators, the empty lcm 1 included."""
    return lcm_closure([(0,) * I.ring.nvars, *(g.exps for g in I.gens)])


def transversality_witness(I: MonomialIdeal, J: MonomialIdeal):
    """A minimal generator of the intersection outside the product, if any."""
    prod = ideal_product(I, J)
    for m in ideal_intersection(I, J).gens:
        if not prod.contains(m):
            return m
    return None


def regular_sequence(ring: Ring, elems) -> list[Monomial]:
    """The monomials of a monomial regular sequence: nonunit monomials with
    pairwise disjoint supports, given as monomials or monomial strings."""
    mons = []
    for a in elems:
        if isinstance(a, str):
            a = ring.parse_monomial(a)
        elif not isinstance(a, Monomial):
            raise DomainError("regular sequence entries must be monomials")
        if a.is_one:
            raise DomainError("regular sequence entries must be nonunits")
        mons.append(a)
    for i in range(len(mons)):
        for j in range(i + 1, len(mons)):
            if mons[i].support() & mons[j].support():
                raise DomainError(
                    "regular sequence needs pairwise disjoint supports"
                )
    return mons


def is_sequentially_transverse(ideals) -> bool:
    ideals = list(ideals)
    if len(ideals) < 2:
        raise DomainError("need at least two ideals")
    prefix = ideals[0]
    for nxt in ideals[1:]:
        prefix = transverse_product(prefix, nxt)
        if prefix is None:
            return False
    return True


def product_of(ideals) -> MonomialIdeal:
    return reduce(ideal_product, ideals)


def degree_basis_mod_ideal(I: MonomialIdeal, t: int) -> list[Monomial]:
    """Monomial k-basis of (R/I)_t, canonically ordered."""
    if t < 0:
        raise DomainError("degree must be nonnegative")
    return monomials_of_degree(I.ring, t, I.gens)
