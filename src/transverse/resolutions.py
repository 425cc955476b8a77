"""Constructors for the concrete resolutions: Koszul and Taylor complexes,
the twisted Koszul complexes behind the Golod and Tate resolutions,
minimization by unit-entry pruning, comparison-map lifting, the upper-Koszul
Betti oracle and Tor dimensions read off the minimal resolution."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import le, sub

from . import linalg
from .complexes import (
    BettiTable, GradedFreeComplex, Homology, complex_from_boundary, table_scalar,
)
from .errors import DomainError, ExactnessError
from .exterior import k_acc, k_apply, k_coords, k_element, wedge_subsets
from .ideals import MonomialIdeal, lcm_lattice
from .poly import Monomial, PolyMatrix, Polynomial, Ring


def _subset_label(prefix: str, S: tuple[int, ...]) -> str:
    return prefix + "{" + ",".join(str(s + 1) for s in S) + "}"


def koszul_complex(elements: list[Polynomial]) -> GradedFreeComplex:
    """The Koszul complex on homogeneous elements of positive degree.

    Generators e_S for subsets S, with d(e_{j1}^...^e_{jr}) =
    sum_l (-1)^(l+1) a_{jl} e_{S \\ jl}; generator degrees add.
    """
    if not elements:
        raise DomainError("need at least one element")
    ring = elements[0].ring
    degs = []
    for a in elements:
        if a.ring != ring:
            raise DomainError("elements over different rings")
        d = a.homogeneous_degree
        if d is None or d <= 0 or a.is_zero:
            raise DomainError(f"{a} is not homogeneous of positive degree")
        degs.append(d)
    c = len(elements)
    subsets = [sorted(combinations(range(c), i)) for i in range(c + 1)]

    def boundary(S):
        return {
            S[:pos] + S[pos + 1:]: elements[j].scale(1 if pos % 2 == 0 else -1)
            for pos, j in enumerate(S)
        }

    return complex_from_boundary(
        ring, subsets, lambda S: sum(degs[j] for j in S),
        lambda S: _subset_label("e", S), boundary, meta={"subsets": subsets},
    )


@lru_cache(maxsize=16)
def koszul_on_variables(ring: Ring) -> GradedFreeComplex:
    """The Koszul complex resolving the residue field over ``ring``, built
    once per ring (complexes are immutable)."""
    return koszul_complex(ring.variables())


def twisted_koszul(S: Ring, words, n_max: int, twist, word_label):
    """The Koszul complex on the variables of ``S`` tensored with adjoined
    symbols, with a differential twisted by chosen cycles, through
    homological degree n_max (Tate 1957; Avramov 1998, section 5).

    ``words`` lists (word, homological degree, multidegree) triples in
    basis order.  A basis key (T, w) stands for e_T (x) w, of homological
    degree |T| + deg w and multidegree 1_T + mdeg w, labelled "e{T}" +
    ``word_label(w)``; its boundary is d(e_T) w + (-1)^|T| sum s e_T ^ a w'
    over the triples (s, a, w') of ``twist(w)``, which is computed once per
    word.  Each term c x^a e_S of a must lie in multidegree mdeg w - mdeg
    w', so the complex is written as monomial-matrix scalars with no
    polynomial arithmetic: d(e_T) gives +-1 at x_k and e_T ^ c x^a e_S gives
    +-c, and an entry whose monomial S kills is dropped.  Raises DomainError
    for a term off its multidegree.  Returns the complex and its basis keys
    per level.
    """
    n = S.nvars
    scalar = table_scalar(S.field)
    levels: list[list] = [[] for _ in range(n_max + 1)]
    mdeg = {}
    for w, d, m in words:
        mdeg[w] = m
        for h in range(min(n, n_max - d) + 1):
            levels[d + h].extend((T, w) for T in combinations(range(n), h))
    mdegs = [
        [tuple(e + (k in T) for k, e in enumerate(mdeg[w])) for T, w in level]
        for level in levels
    ]
    live = [not S.kills(Monomial(tuple(int(k == j) for k in range(n))))
            for j in range(n)]
    twists: dict = {}

    def scalars(w):
        """twist(w) as [(w', [(S, +-c)])], each term checked to lie in its
        multidegree."""
        out = []
        for s, a, rest in twist(w):
            want = tuple(map(sub, mdeg[w], mdeg[rest]))
            terms = []
            for U, p in a.items():
                for mono, c in p.term_dict().items():
                    if tuple(e + (k in U) for k, e in enumerate(mono.exps)) != want:
                        raise DomainError(
                            f"a term of the twist of {word_label(w)!r} is off "
                            f"its multidegree"
                        )
                    terms.append((U, s * scalar(c)))
            out.append((rest, terms))
        return out

    tables = []
    for i in range(1, n_max + 1):
        idx = {key: r for r, key in enumerate(levels[i - 1])}
        table = {}
        for c, (T, w) in enumerate(levels[i]):
            acc: dict = {}  # row -> scalar
            for pos, k in enumerate(T):
                if live[k]:
                    acc[idx[(T[:pos] + T[pos + 1:], w)]] = -1 if pos % 2 else 1
            if w not in twists:
                twists[w] = scalars(w)
            base = -1 if len(T) % 2 else 1
            for rest, terms in twists[w]:
                for U, s in terms:
                    st = wedge_subsets(T, U)
                    if st is not None:
                        r = idx[(st[1], rest)]
                        acc[r] = acc.get(r, 0) + base * st[0] * s
            if col := [(r, v) for r, x in acc.items() if (v := scalar(x))]:
                table[c] = col
        tables.append(table)
    C = GradedFreeComplex.from_tables(
        S, mdegs, tables,
        [[_subset_label("e", T) + word_label(w) for T, w in level]
         for level in levels],
    )
    return C, levels


def taylor_complex(I: MonomialIdeal, gens=None) -> GradedFreeComplex:
    """The Taylor resolution of R/I: generators e_S indexed by subsets of the
    generators, internal degree deg lcm_S, with lcm-ratio entries.

    It resolves every monomial ideal, and minimizing it gives
    :func:`minimal_resolution`.  ``gens`` overrides the (minimal) stored
    generators with an explicit, possibly redundant, generating sequence.
    """
    if I.is_zero or I.is_unit:
        raise DomainError("Taylor complex needs a nonzero proper ideal")
    ring = I.ring
    gens = tuple(gens) if gens is not None else I.gens
    r = len(gens)
    subsets = [sorted(combinations(range(r), i)) for i in range(r + 1)]
    one = ring.one_monomial()

    def lcm_of(S):
        m = one
        for j in S:
            m = m.lcm(gens[j])
        return m

    lcms = [{S: lcm_of(S) for S in subsets[i]} for i in range(r + 1)]

    def boundary(S):
        out = {}
        for pos in range(len(S)):
            rest = S[:pos] + S[pos + 1:]
            ratio = lcms[len(S)][S].divide(lcms[len(rest)][rest])
            out[rest] = Polynomial.from_monomial(
                ring, ratio, 1 if pos % 2 == 0 else -1
            )
        return out

    return complex_from_boundary(
        ring, subsets, lambda S: lcms[len(S)][S].degree,
        lambda S: _subset_label("T", S), boundary,
        meta={"subsets": subsets, "lcms": lcms},
    )


def betti_numbers(I: MonomialIdeal) -> BettiTable:
    """Graded Betti numbers of R/I over the ring's field, from the upper
    Koszul simplicial complexes.

    beta_{i,b}(I) = dim H~_{i-1}(K^b(I); k) with K^b(I) the simplicial
    complex of the squarefree T in supp b with x^(b-T) in I (Miller-
    Sturmfels, Combinatorial Commutative Algebra, Thm 1.34), and it
    vanishes unless b is in the lcm lattice L_I (Gasharov-Peeva-Welker
    1999).  The facets of K^b are U_g = {k : b_k > g_k}, one per generator
    g dividing x^b; faces are bitmasks over the variables, so each b of L_I
    costs ranks on at most 2^|supp b| faces instead of the 2^r subsets of
    the r generators.  A face of size s contributes to
    beta_{s+1,b}(R/I), and beta_{0,0}(R/I) = 1.

    This is the package's Betti oracle; it shares only ``linalg`` with the
    strand engine.
    """
    if I.is_zero or I.is_unit:
        raise DomainError("Betti numbers need a nonzero proper ideal")
    if I.ring.modulus:
        raise DomainError("expected an ideal over the ambient polynomial ring")
    gens = [g.exps for g in I.gens]
    bits = [1 << k for k in range(I.ring.nvars)]
    entries = {(0, 0): 1}
    for b in lcm_lattice(I):
        if not any(b):
            continue
        faces = {0}  # the empty face; submask enumeration below stops short of it
        for g in gens:
            if all(map(le, g, b)):
                U = sum(x for x, gk, bk in zip(bits, g, b) if bk > gk)
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
        for s, level in levels.items():
            h = len(level) - ranks.get(s, 0) - ranks.get(s + 1, 0)
            if h:
                key = (s + 1, sum(b))
                entries[key] = entries.get(key, 0) + h
    return BettiTable(dict(sorted(entries.items())))


def minimal_resolution(I: MonomialIdeal) -> GradedFreeComplex:
    """The minimal free resolution of R/I as a complex: the minimized Taylor
    complex.  Betti numbers alone come from :func:`betti_numbers`."""
    return minimize_complex(taylor_complex(I))


def minimize_complex(C: GradedFreeComplex) -> GradedFreeComplex:
    """Prune unit entries until the complex is minimal.

    Scans entries in (homological degree, row, col) order, cancels the first
    entry with a nonzero constant term via the corresponding change of basis
    (Schur complement on d_i, drop row on d_{i+1}, drop column on d_{i-1}),
    and repeats to a fixpoint.
    """
    ring = C.ring
    length = C.length
    mats = [dict(C.diff(i).entries) for i in range(1, length + 1)]
    alive = [list(range(C.rank(i))) for i in range(length + 1)]
    degs = [list(C.degs(i)) for i in range(length + 1)]

    def find_unit():
        for i in range(1, length + 1):
            for (r, c) in sorted(mats[i - 1]):
                if mats[i - 1][(r, c)].constant_term:
                    return i, r, c
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        i, r, c = hit
        mat = mats[i - 1]
        u = mat[(r, c)].constant_term
        rowvals = {cc: p for (rr, cc), p in mat.items() if rr == r and cc != c}
        colvals = {rr: p for (rr, cc), p in mat.items() if cc == c and rr != r}
        for rr, pc in colvals.items():
            for cc, pr in rowvals.items():
                k_acc(mat, (rr, cc), -(pc * pr).scale(1 / u))
        for key in [k for k in mat if k[0] == r or k[1] == c]:
            del mat[key]
        if i <= length - 1:
            up = mats[i]
            for key in [k for k in up if k[0] == c]:
                del up[key]
        if i >= 2:
            down = mats[i - 2]
            for key in [k for k in down if k[1] == r]:
                del down[key]
        alive[i].remove(c)
        alive[i - 1].remove(r)

    remap = [
        {old: new for new, old in enumerate(alive[i])} for i in range(length + 1)
    ]
    new_degs = [[degs[i][old] for old in alive[i]] for i in range(length + 1)]
    new_labels = [
        [C.labels[i][old] for old in alive[i]] for i in range(length + 1)
    ]
    new_diffs = []
    for i in range(1, length + 1):
        entries = {
            (remap[i - 1][r], remap[i][c]): p for (r, c), p in mats[i - 1].items()
        }
        new_diffs.append(
            PolyMatrix(ring, len(alive[i - 1]), len(alive[i]), entries)
        )
    # trim trailing zero terms
    top = length
    while top > 0 and not new_degs[top]:
        top -= 1
    out = GradedFreeComplex(
        ring, new_degs[: top + 1], new_diffs[:top], new_labels[: top + 1]
    )
    return out


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
    is constant on each cell of :meth:`Homology.cells`, so the check runs
    on finitely many cells.
    """
    if any(K.is_zero or K.is_unit for K in (I, J)):
        raise DomainError("Tor dimensions need nonzero proper ideals")
    F = minimal_resolution(I)
    return not Homology(F, J).cell_failures(1, F.length)


def lift_comparison_map(
    source: GradedFreeComplex, target: GradedFreeComplex
) -> list[PolyMatrix]:
    """Lift the identity on degree 0 to a chain map source -> target.

    The image of each generator e is solved as an exact scalar system on
    the multidegree block mdeg(e) of the target, the only block where the
    right-hand side lives; among the (homotopy-many) solutions the
    echelon-canonical one is chosen, so the image lies in that block.
    Raises :class:`ExactnessError` when some block system has no solution,
    i.e. the target fails to be exact where needed.  Raises DomainError
    when either complex is not Z^n-graded (see ``GradedFreeComplex.mdegs``).
    """
    ring = source.ring
    if target.ring != ring:
        raise DomainError("source and target over different rings")
    if source.rank(0) != 1 or target.rank(0) != 1:
        raise DomainError("comparison lifting needs rank-1 degree-0 terms")
    phis = [PolyMatrix.identity(ring, 1)]
    H = Homology(target)
    for i, mdegs in enumerate(source.mdegs[1:], start=1):
        entries = {}
        for e, b in enumerate(mdegs):
            # rhs = phi_{i-1}(d^S_i e) in block coordinates of target_{i-1}
            rhs = k_coords(
                k_apply(phis[i - 1], source.diff(i).column(e)),
                H.strand_index(i - 1, b),
            )
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
            for g, p in k_element(sol, basis_hi, ring).items():
                entries[(g, e)] = p
        phis.append(PolyMatrix(ring, target.rank(i), source.rank(i), entries))
    return phis
