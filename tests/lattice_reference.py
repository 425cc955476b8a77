"""Reference copies of the lcm-lattice fold and the Betti oracle on
exponent tuples, before both moved to the rank code of ``ideals``.

``tuple_lcm_closure`` is the earlier ``ideals.lcm_closure``, copied
unchanged: the atoms-only fold on exponent tuples.  ``reference_betti_numbers``
is the earlier ``resolutions.betti_numbers``, copied unchanged except that
it folds the lattice with ``tuple_lcm_closure`` and reads each facet set
through ``tuple_facets``, the earlier loop body: it scans every generator
at every lattice point on tuples and ranks every boundary of each K^b by
exact elimination over the ring's field, with no GF(2) pass.
"""

from operator import le

from transverse import linalg
from transverse.complexes import BettiTable
from transverse.errors import DomainError


def tuple_lcm_closure(pts) -> frozenset:
    """The lcms of the nonempty subsets of ``pts``, exponent tuples, by the
    atoms-only fold in the linear extension (sum(p), p)."""
    out: set = set()
    for p in sorted(set(pts), key=lambda p: (sum(p), p)):
        if p not in out:
            out |= {tuple(map(max, p, c)) for c in out}
            out.add(p)
    return frozenset(out)


def tuple_facets(gens, b) -> frozenset:
    """The facet set {U_g} of K^b, U_g = {k : b_k > g_k} as a bitmask over
    the variables, for the generators g dividing x^b, read on tuples."""
    bits = [1 << k for k in range(len(b))]
    return frozenset(
        sum(x for x, gk, bk in zip(bits, g, b) if bk > gk)
        for g in gens if all(map(le, g, b))
    )


def reference_betti_numbers(I) -> BettiTable:
    """Graded Betti numbers of R/I from the upper Koszul simplicial
    complexes, every rank by exact elimination."""
    if I.is_zero or I.is_unit:
        raise DomainError("Betti numbers need a nonzero proper ideal")
    if I.ring.modulus:
        raise DomainError("expected an ideal over the ambient polynomial ring")
    gens = [g.exps for g in I.gens]
    bits = [1 << k for k in range(I.ring.nvars)]
    entries = {(0, 0): 1}
    homology: dict = {}  # facet set -> [(face size s, dim H~_{s-1})]
    for b in tuple_lcm_closure([(0,) * I.ring.nvars, *gens]):
        if not any(b):
            continue
        facets = tuple_facets(gens, b)
        if facets not in homology:
            faces = {0}  # the empty face; submask enumeration stops short of it
            for U in facets:
                T = U
                while T:
                    faces.add(T)
                    T = (T - 1) & U
            levels: dict = {}  # face size -> {face: index}
            for T in sorted(faces):
                level = levels.setdefault(T.bit_count(), {})
                level[T] = len(level)
            ranks = {}  # rank of the boundary out of each face size
            for s, level in levels.items():
                if s == 1:
                    ranks[s] = 1  # every vertex maps onto the empty face
                elif s:
                    lower = levels[s - 1]
                    rows = [
                        {lower[T ^ bit]: -1 if pos % 2 else 1
                         for pos, bit in enumerate(x for x in bits if T & x)}
                        for T in level
                    ]
                    ranks[s] = linalg.rank(rows, I.ring.field)
            homology[facets] = [
                (s, h) for s, level in levels.items()
                if (h := len(level) - ranks.get(s, 0) - ranks.get(s + 1, 0))
            ]
        for s, h in homology[facets]:
            key = (s + 1, sum(b))
            entries[key] = entries.get(key, 0) + h
    return BettiTable(dict(sorted(entries.items())))
