"""Monomial ideals and the transversality predicates.

All ideal arithmetic here is exact lcm/divisibility combinatorics on
minimal generating sets; no Groebner machinery is needed for monomial
ideals, and that covers every construction in the package.
"""

from __future__ import annotations

from operator import le

from .errors import DomainError, Record, RingMismatchError
from .poly import (
    Monomial, Ring, _check_len, minimal_monomials, monomials_of_degree,
)


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
        """True iff a generator divides m, tested on exponent tuples;
        raises DimensionError for m over another number of variables."""
        e = m.exps
        if self.gens and len(e) != self.ring.nvars:
            _check_len(self.gens[0], m)
        return any(all(map(le, g.exps, e)) for g in self.gens)

    def max_gen_degree(self) -> int:
        return max((g.degree for g in self.gens), default=0)

    def quotient_ring(self) -> Ring:
        return self.ring.quotient(self.gens)


def maximal_ideal(ring: Ring) -> MonomialIdeal:
    """The ideal m of the variables: R/m is the residue field k."""
    n = ring.nvars
    return MonomialIdeal(ring, tuple(
        Monomial(tuple(int(k == j) for k in range(n))) for j in range(n)
    ))


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


def _code(pts):
    """The rank code of the exponent tuples ``pts``, a nonempty list: the
    distinct nonzero exponents of x_k in ``pts`` get the ranks 1, ..., m_k in
    increasing order, and rank j is j consecutive bits from the offset of
    x_k, so a variable is at most as wide as the number of points, whatever
    its exponents.  Ranks keep the order of each variable, so lcm is |, g
    divides b iff g & ~b == 0, b_k > g_k iff b has the bit offset_k +
    rank(g_k), and the exponent of x_k is read off the bit count of its
    run.  Returns the codes of ``pts`` and, per variable, (offset, run
    mask, the exponents by rank)."""
    runs, codes, at = [], [0] * len(pts), 0
    for col in zip(*pts):
        vals = sorted({0, *col})
        bits = {e: ((1 << j) - 1) << at for j, e in enumerate(vals)}
        codes = [c | bits[e] for c, e in zip(codes, col)]
        runs.append((at, (1 << (len(vals) - 1)) - 1, vals))
        at += len(vals) - 1
    return codes, runs


def _fold(codes) -> set:
    """The lcms of the nonempty subsets of the coded points ``codes``.

    The points are visited in a linear extension of <=, by bit count, and
    only atoms extend the closure.  Lemma: a point p that is the lcm of
    others is, when it is reached, already in the closure of the points
    before it, since each of them is < p; and a point in an lcm-closed set
    adds nothing to it.  So a point already in the closure is skipped.
    """
    out: set = set()
    for p in sorted(set(codes), key=int.bit_count):
        if p not in out:
            out |= {p | c for c in out}
            out.add(p)
    return out


def lcm_closure(pts) -> frozenset:
    """The lcms of the nonempty subsets of ``pts``, exponent tuples."""
    pts = list(set(pts))
    if not pts:
        return frozenset()
    codes, runs = _code(pts)
    return frozenset(
        tuple([vals[(c >> o & m).bit_count()] for o, m, vals in runs])
        for c in _fold(codes)
    )


def lcm_lattice(I: MonomialIdeal) -> frozenset:
    """The lcm lattice L_I: the exponent vectors of the lcms of all subsets
    of the generators, the empty lcm 1 included."""
    return lcm_closure([(0,) * I.ring.nvars, *(g.exps for g in I.gens)])


def upper_koszul_facets(I: MonomialIdeal):
    """For each point b != 0 of the lcm lattice L_I, its total degree and
    the facet set {U_g} of the upper Koszul complex K^b(I): U_g = {k : b_k
    > g_k}, a bitmask over the variables, for each generator g dividing
    x^b, read on the rank code."""
    gens = [g.exps for g in I.gens]
    codes, runs = _code(gens)
    # per g, (the bit of b_k > g_k, the bit of x_k), for g_k below the top
    probes = [
        [(1 << (o + j), 1 << k)
         for k, ((o, m, vals), e) in enumerate(zip(runs, g))
         if m >> (j := vals.index(e))]
        for g in gens
    ]
    # |b| is the bit count of b and, for each bit that stands for a step of
    # w > 1 in an exponent, w - 1 more: one mask per such w
    extra: dict = {}
    for o, _, vals in runs:
        for j, (lo, hi) in enumerate(zip(vals, vals[1:])):
            if hi - lo > 1:
                extra[hi - lo - 1] = extra.get(hi - lo - 1, 0) | 1 << (o + j)
    extra = list(extra.items())
    for b in _fold(codes):
        t = b.bit_count()
        if extra:
            t += sum([w * (b & M).bit_count() for w, M in extra])
        yield t, frozenset(
            sum(x for bit, x in probe if b & bit)
            for g, probe in zip(codes, probes) if not g & ~b
        )


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


def degree_basis_mod_ideal(I: MonomialIdeal, t: int) -> list[Monomial]:
    """Monomial k-basis of (R/I)_t, canonically ordered; kept while
    perfbench/tracer.py names this function as a span."""
    if t < 0:
        raise DomainError("degree must be nonnegative")
    return monomials_of_degree(I.ring, t, I.gens)
