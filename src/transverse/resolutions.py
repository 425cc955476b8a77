"""Constructors for the concrete resolutions: Koszul and Taylor complexes,
the twisted Koszul complexes behind the Golod and Tate resolutions,
minimization by unit-entry pruning, comparison-map lifting, the upper-Koszul
Betti oracle and Tor dimensions read off the minimal resolution."""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add, sub

from . import linalg
from .complexes import (
    BettiTable, GradedFreeComplex, Homology, complex_from_boundary,
)
from .errors import DimensionError, DomainError, ExactnessError
from .exterior import wedge_subsets
from .ideals import MonomialIdeal, maximal_ideal, upper_koszul_facets
from .poly import Monomial, Ring, minimal_monomials


def _subset_label(prefix: str, S: tuple[int, ...]) -> str:
    return prefix + "{" + ",".join(str(s + 1) for s in S) + "}"


def _subset_complex(ring: Ring, exps: list, combine, prefix: str) -> GradedFreeComplex:
    """The complex with a generator e_S, labelled prefix{S}, for each subset
    S of range(len(exps)), listed per level in ``meta["subsets"]``: its
    multidegree m_S folds ``combine`` over the exps[j], j in S, from zero,
    and d(e_{j1}^...^e_{jr}) = sum_l (-1)^(l+1) x^(m_S - m_{S minus jl})
    e_{S minus jl}."""
    subsets = [sorted(combinations(range(len(exps)), i)) for i in range(len(exps) + 1)]
    zero = (0,) * ring.nvars

    def mdeg(S):
        m = zero
        for j in S:
            m = tuple(map(combine, m, exps[j]))
        return m

    def boundary(S):
        return {S[:pos] + S[pos + 1:]: -1 if pos % 2 else 1 for pos in range(len(S))}

    return complex_from_boundary(
        ring, subsets, mdeg, lambda S: _subset_label(prefix, S), boundary,
        meta={"subsets": subsets},
    )


def koszul_complex(elements: list[Monomial], ring: Ring) -> GradedFreeComplex:
    """The Koszul complex over ``ring`` on monomials x^a of positive degree.

    Generators e_S for subsets S, with d(e_{j1}^...^e_{jr}) =
    sum_l (-1)^(l+1) x^(a_jl) e_{S \\ jl}; generator multidegrees add.
    Raises DomainError for an element that is not a nonunit monomial or
    that ``ring`` kills, and DimensionError for one over another number of
    variables.
    """
    if not elements:
        raise DomainError("need at least one element")
    for a in elements:
        if not isinstance(a, Monomial) or a.is_one:
            raise DomainError(f"{a!r} is not a monomial of positive degree")
        if len(a.exps) != ring.nvars:
            raise DimensionError(f"{a!r} is not over {ring.nvars} variables")
        if ring.kills(a.exps):
            raise DomainError(f"{ring.format_monomial(a)} is zero in {ring}")
    return _subset_complex(ring, [a.exps for a in elements], add, "e")


@lru_cache(maxsize=16)
def koszul_on_variables(ring: Ring) -> GradedFreeComplex:
    """The Koszul complex resolving the residue field over ``ring``, built
    once per ring (complexes are immutable)."""
    return koszul_complex(maximal_ideal(ring).gens, ring)


def twisted_koszul(S: Ring, words, n_max: int, twist, word_label):
    """The Koszul complex on the variables of ``S`` tensored with adjoined
    symbols, with a differential twisted by chosen cycles, through
    homological degree n_max (Tate 1957; Avramov 1998, section 5).

    ``words`` lists (word, homological degree, multidegree) triples in
    basis order.  A basis key (T, w) stands for e_T (x) w, of homological
    degree |T| + deg w and multidegree 1_T + mdeg w, labelled "e{T}" +
    ``word_label(w)``; its boundary is d(e_T) w + (-1)^|T| sum s e_T ^ a w'
    over the triples (s, a, w') of ``twist(w)``, which is computed once per
    word.  Each a is an :class:`exterior.Element`, whose block must be
    mdeg w - mdeg w', so the complex is written as monomial-matrix scalars
    with no polynomial arithmetic: d(e_T) gives +-1 at x_k and e_T ^ s x^(b
    - 1_U) e_U gives +-s, and an entry whose monomial S kills is dropped.
    Raises DomainError for a twist value off its multidegree.  Returns the
    complex and its basis keys per level.
    """
    levels: list[list] = [[] for _ in range(n_max + 1)]
    mdeg = {}
    for w, d, m in words:
        mdeg[w] = m
        for h in range(min(S.nvars, n_max - d) + 1):
            levels[d + h].extend((T, w) for T in combinations(range(S.nvars), h))
    twists: dict = {}

    def scalars(w):
        """twist(w) as [(w', [(U, +-s)])], each value checked to lie in
        its multidegree."""
        out = []
        for s, a, rest in twist(w):
            if a.b != tuple(map(sub, mdeg[w], mdeg[rest])):
                raise DomainError(
                    f"the twist of {word_label(w)!r} is off its multidegree"
                )
            out.append((rest, [(U, s * c) for U, c in a.terms.items()]))
        return out

    def boundary(key):
        T, w = key
        out = {(T[:pos] + T[pos + 1:], w): -1 if pos % 2 else 1
               for pos in range(len(T))}
        if w not in twists:
            twists[w] = scalars(w)
        base = -1 if len(T) % 2 else 1
        for rest, terms in twists[w]:
            for U, s in terms:
                st = wedge_subsets(T, U)
                if st is not None:
                    k = (st[1], rest)
                    out[k] = out.get(k, 0) + base * st[0] * s
        return out

    C = complex_from_boundary(
        S, levels,
        lambda key: tuple(e + (k in key[0]) for k, e in enumerate(mdeg[key[1]])),
        lambda key: _subset_label("e", key[0]) + word_label(key[1]),
        boundary,
    )
    return C, levels


def taylor_complex(I: MonomialIdeal, gens=None) -> GradedFreeComplex:
    """The Taylor resolution of R/I: generators e_S indexed by subsets of the
    generators, internal degree deg lcm_S, with lcm-ratio entries.

    It resolves every monomial ideal, and minimizing it gives
    :func:`minimal_resolution`.  ``gens`` overrides the (minimal) stored
    generators with a possibly redundant generating sequence of I; raises
    DomainError for another ideal, DimensionError for other variables.
    """
    if I.is_zero or I.is_unit:
        raise DomainError("Taylor complex needs a nonzero proper ideal")
    ring = I.ring
    exps = [g.exps for g in (I.gens if gens is None else gens)]
    if any(len(e) != ring.nvars for e in exps):
        raise DimensionError(f"a generator is not over {ring.nvars} variables")
    if gens is not None and minimal_monomials(gens) != I.gens:
        raise DomainError("gens do not generate the ideal")
    return _subset_complex(ring, exps, max, "T")


def betti_numbers(I: MonomialIdeal) -> BettiTable:
    """Graded Betti numbers of R/I over the ring's field, from the upper
    Koszul simplicial complexes.

    beta_{i,b}(I) = dim H~_{i-1}(K^b(I); k) with K^b(I) the simplicial
    complex of the squarefree T in supp b with x^(b-T) in I (Miller-
    Sturmfels, Combinatorial Commutative Algebra, Thm 1.34), and it
    vanishes unless b is in the lcm lattice L_I (Gasharov-Peeva-Welker
    1999).  ``ideals.upper_koszul_facets`` gives the facets U_g = {k : b_k
    > g_k} of each K^b; faces are bitmasks over the variables, so each b of
    L_I costs ranks on at most 2^|supp b| faces instead of the 2^r subsets
    of the r generators.  K^b depends on b only through its facet set, so
    its reduced homology is taken once per distinct facet set within a
    call (:func:`_reduced_homology`).  A face of size s contributes to
    beta_{s+1,b}(R/I), and beta_{0,0}(R/I) = 1.

    This is the package's Betti oracle; it shares only ``linalg`` with the
    strand engine.
    """
    if I.is_zero or I.is_unit:
        raise DomainError("Betti numbers need a nonzero proper ideal")
    if I.ring.modulus:
        raise DomainError("expected an ideal over the ambient polynomial ring")
    entries = {(0, 0): 1}
    homology: dict = {}  # facet set -> [(face size s, dim H~_{s-1})]
    for t, facets in upper_koszul_facets(I):
        if facets not in homology:
            homology[facets] = _reduced_homology(facets, I.ring.field)
        for s, h in homology[facets]:
            key = (s + 1, t)
            entries[key] = entries.get(key, 0) + h
    return BettiTable(dict(sorted(entries.items())))


def _reduced_homology(facets, field) -> list:
    """[(s, dim H~_{s-1})] of the simplicial complex with these facets,
    bitmasks over the variables, where it is nonzero.

    Over QQ the boundaries are first ranked over GF(2) by XOR.  Lemma: the
    GF(2) rank of an integer matrix is at most its QQ rank, so dim_QQ H~ <=
    dim_GF(2) H~ in each degree, and both alternate to the same Euler
    characteristic; so where the GF(2) homology lies in one degree at most,
    the QQ homology equals it.  Only where it spans two or more (torsion,
    as on the projective plane) are QQ ranks taken.  Over GF(p), p odd,
    the ranks are taken over GF(p) alone.
    """
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

    def vertices(T):
        while T:
            yield T & -T
            T &= T - 1

    def dims(rank_of):
        # every vertex maps onto the empty face, a boundary of rank 1
        ranks = {s: 1 if s == 1 else rank_of(level, levels[s - 1])
                 for s, level in levels.items() if s}
        return [(s, h) for s, level in levels.items()
                if (h := len(level) - ranks.get(s, 0) - ranks.get(s + 1, 0))]

    p = getattr(field, "p", 0)
    if p in (0, 2):
        out = dims(lambda level, lower: linalg.xor_rank(
            [sum(1 << lower[T ^ x] for x in vertices(T)) for T in level]
        ))
        if p or len(out) <= 1:
            return out
    return dims(lambda level, lower: linalg.rank([
        {lower[T ^ x]: -1 if pos % 2 else 1
         for pos, x in enumerate(vertices(T))}
        for T in level
    ], field))


def minimal_resolution(I: MonomialIdeal) -> GradedFreeComplex:
    """The minimal free resolution of R/I as a complex: the minimized Taylor
    complex.  Betti numbers alone come from :func:`betti_numbers`."""
    return minimize_complex(taylor_complex(I))


def minimize_complex(C: GradedFreeComplex) -> GradedFreeComplex:
    """Prune unit entries until the complex is minimal.

    Scans entries in (homological degree, row, col) order, cancels the first
    unit entry u (one with m_c = m_r) via the corresponding change of basis
    (Schur complement s - s_pc s_pr / u on d_i, drop row on d_{i+1}, drop
    column on d_{i-1}), and repeats to a fixpoint.  It works on the scalar
    tables: the Schur update of entry (r', c') lies in its multidegree
    m_c' - m_r', and is dropped where R/Q kills that monomial.  Cancelling
    in d_i creates no unit in another differential, so each d_i is
    cleared in turn.
    """
    ring, md, length = C.ring, C.mdegs, C.length
    p = getattr(ring.field, "p", 0)
    scalar = ring.field.scalar
    killed = ring.kills if ring.modulus else None
    # cols[i][c] = {r: s} and rows[i][r] = {c: s} for the entries of d_i,
    # each column in the order its entries arose
    cols = [{}] + [
        {c: dict(col) for c, col in C.table(i).items()} for i in range(1, length + 1)
    ]
    rows = [{}]
    for i in range(1, length + 1):
        by_row: dict = {}
        for c, col in cols[i].items():
            for r, s in col.items():
                by_row.setdefault(r, {})[c] = s
        rows.append(by_row)
    alive = [set(range(C.rank(i))) for i in range(length + 1)]

    def drop_row(i, r):
        for c in rows[i].pop(r, {}):
            del cols[i][c][r]

    def drop_col(i, c):
        for r in cols[i].pop(c, {}):
            del rows[i][r][c]

    for i in range(1, length + 1):
        lo, hi = md[i - 1], md[i]
        units = [(r, c) for c, col in cols[i].items() for r in col if hi[c] == lo[r]]
        heapq.heapify(units)
        while units:
            r, c = heapq.heappop(units)
            if r not in cols[i].get(c, ()):
                continue
            u = cols[i][c][r]
            inv = pow(u, -1, p) if p else 1 / Fraction(u)
            col_c = [(rr, s) for rr, s in cols[i][c].items() if rr != r]
            row_r = [(cc, s) for cc, s in rows[i][r].items() if cc != c]
            for rr, pc in col_c:
                for cc, pr in row_r:
                    if killed and killed(tuple(map(sub, hi[cc], lo[rr]))):
                        continue
                    col = cols[i].setdefault(cc, {})
                    if t := scalar(col.get(rr, 0) - pc * pr * inv):
                        col[rr] = rows[i].setdefault(rr, {})[cc] = t
                        if hi[cc] == lo[rr]:
                            heapq.heappush(units, (rr, cc))
                    elif rr in col:
                        del col[rr]
                        del rows[i][rr][cc]
            drop_row(i, r)
            drop_col(i, c)
            if i < length:
                drop_row(i + 1, c)
            if i > 1:
                drop_col(i - 1, r)
            alive[i].discard(c)
            alive[i - 1].discard(r)

    kept = [sorted(level) for level in alive]
    top = length  # trim trailing zero terms
    while top > 0 and not kept[top]:
        top -= 1
    remap = [{old: new for new, old in enumerate(level)} for level in kept]
    tables = [
        {remap[i][c]: [(remap[i - 1][r], s) for r, s in cols[i][c].items()]
         for c in kept[i] if cols[i].get(c)}
        for i in range(1, top + 1)
    ]
    return GradedFreeComplex(
        ring,
        [[md[i][old] for old in kept[i]] for i in range(top + 1)],
        tables,
        [[C.labels[i][old] for old in kept[i]] for i in range(top + 1)],
    )


def tor_dims(I: MonomialIdeal, J: MonomialIdeal, D: int | None = None) -> dict:
    """Graded dims of Tor_i(R/I, R/J) for i >= 1 on the strands t <= D, read
    off H_i(F (x) R/J) with F the minimal free resolution of R/I."""
    if any(K.is_zero or K.is_unit for K in (I, J)):
        raise DomainError("Tor dimensions need nonzero proper ideals")
    F = minimal_resolution(I)
    if D is None:
        D = F.max_degree() + J.max_gen_degree() + 2
    H = Homology(F, J)
    out = {}
    for t in range(0, D + 1):
        for i, d in H.strand_dims(t, 1, F.length).items():
            if d:
                out[(i, t)] = d
    return dict(sorted(out.items()))


def tor_independence(I: MonomialIdeal, J: MonomialIdeal) -> bool:
    """True iff Tor_i(R/I, R/J) = 0 for all i >= 1, in every multidegree.

    Tor_i(R/I, R/J) = H_i(F (x) R/J), F the minimal free resolution of R/I,
    is constant on each cell of :meth:`Homology.cell_failures`, so the check
    runs on finitely many cells.
    """
    if any(K.is_zero or K.is_unit for K in (I, J)):
        raise DomainError("Tor dimensions need nonzero proper ideals")
    F = minimal_resolution(I)
    return not Homology(F, J).cell_failures(1, F.length)


def lift_comparison_map(
    source: GradedFreeComplex, target: GradedFreeComplex
) -> list[dict]:
    """Lift the identity on degree 0 to a chain map source -> target.

    The image of each generator e is solved as an exact scalar system on
    the multidegree block b = mdeg(e) of the target, the only block where
    the right-hand side lives; among the (homotopy-many) solutions the
    echelon-canonical one is chosen, so the image lies in that block.
    Each map phi_i is returned as a scalar table {e: [(g, s)]} in the form
    of :meth:`GradedFreeComplex.table`, an entry s x^(b - m_g), with
    phi_0 = {0: [(0, 1)]}; the right-hand side phi(d e) is read off the
    tables: an entry s x^(b - m_r) of d e and s' x^(m_r - m_g) of phi(r)
    give s s' at the generator g of the block.  Raises
    :class:`ExactnessError` when some block system has no solution, i.e.
    the target fails to be exact where needed.
    """
    ring = source.ring
    if target.ring != ring:
        raise DomainError("source and target over different rings")
    if source.rank(0) != 1 or target.rank(0) != 1:
        raise DomainError("comparison lifting needs rank-1 degree-0 terms")
    scalar = ring.field.scalar
    tables = [{0: [(0, 1)]}]
    H = Homology(target)
    for i, mdegs in enumerate(source.mdegs[1:], start=1):
        table, d = {}, source.table(i)
        for e, b in enumerate(mdegs):
            # a generator g absent from the block has x^(b - m_g) killed
            index, acc = H.strand_index(i - 1, b), {}
            for r, s in d.get(e, ()):
                for g, t in tables[i - 1].get(r, ()):
                    if (col := index.get(g)) is not None:
                        acc[col] = acc.get(col, 0) + s * t
            rhs = {col: c for col, v in acc.items() if (c := scalar(v))}
            basis_hi = H.basis(i, b)
            if not basis_hi:
                if rhs:
                    raise ExactnessError(
                        f"no solution lifting generator {e} in degree {i}: "
                        f"target is zero at multidegree {b}"
                    )
                continue
            rows = H._rows(i, b, basis_hi, H.basis(i - 1, b))
            sol = linalg.solve(rows, len(basis_hi), rhs, ring.field)
            if sol is None:
                raise ExactnessError(
                    f"target not exact in degree {i}, multidegree {b}: "
                    f"comparison map cannot be lifted"
                )
            if sol:
                table[e] = [(basis_hi[c][0], scalar(v)) for c, v in sol.items()]
        tables.append(table)
    return tables
