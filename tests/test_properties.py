"""Property tests: independent pipelines agree on random monomial ideals
and complexes.

The examples are derandomized, so every run draws the same ideals.
"""

from itertools import combinations, product
from operator import add, sub

from hypothesis import given, settings, strategies as st

from transverse import linalg
from transverse.complexes import (
    BettiTable, GradedFreeComplex, Homology, betti_table, star_product,
    strand_matrix, table_scalar,
)
from transverse.exterior import Element
from transverse.fields import QQ, PrimeField
from transverse.golod import KoszulHomology
from transverse.ideals import MonomialIdeal, lcm_lattice
from transverse.obstructions import QuotientTor, tate_resolution
from transverse.poly import Monomial, Polynomial, Ring
from transverse.resolutions import (
    betti_numbers, koszul_complex, minimal_resolution, taylor_complex,
)

from cell_sweep_reference import reference_cell_failures
from polynomial_elements import k_element
from conftest import strand_dims_from_cells


@st.composite
def monomial_ideals(draw):
    """A nonzero proper monomial ideal in at most 4 variables, given by at
    most 6 nonconstant monomials (minimalized to an antichain)."""
    nvars = draw(st.integers(1, 4))
    field = draw(st.sampled_from([QQ, PrimeField(2)]))
    ring = Ring(tuple(f"x{i + 1}" for i in range(nvars)), field)
    exps = st.tuples(*[st.integers(0, 2)] * nvars).filter(any)
    gens = draw(st.lists(exps, min_size=1, max_size=6))
    return MonomialIdeal(ring, tuple(Monomial(e) for e in gens))


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(monomial_ideals())
def test_lattice_taylor_and_koszul_totals_agree(I):
    lattice = betti_numbers(I).totals()
    taylor = betti_table(minimal_resolution(I)).totals()
    koszul = KoszulHomology(I).dims()
    assert lattice == taylor
    assert {i: v for i, v in enumerate(lattice) if i >= 1} == koszul


# ---------------------------------------------------------------------------
# the Betti oracle against lcm blocks of Taylor (x) k


def lcm_block_betti(I):
    """Graded Betti numbers of R/I from the lcm blocks of Taylor (x) k.

    For m in the lcm lattice, beta_{i,m}(R/I) is H_i of the scalar complex
    on the subsets S of generators with lcm(S) = m, where S maps to
    sum_pos (-1)^pos (S minus its pos-th element) over the faces whose lcm
    is still m (Gasharov-Peeva-Welker 1999).  It visits all 2^r subsets of
    the r generators, so it serves as a reference only.
    """
    gens = [g.exps for g in I.gens]
    one = (0,) * I.ring.nvars
    lcm = {(): one}
    blocks = {(one, 0): {(): 0}}  # (lcm, |S|) -> {S: index in the block}
    for size in range(1, len(gens) + 1):
        for S in combinations(range(len(gens)), size):
            m = lcm[S] = tuple(map(max, lcm[S[:-1]], gens[S[-1]]))
            block = blocks.setdefault((m, size), {})
            block[S] = len(block)
    ranks = {}  # rank of the boundary out of each block
    for (m, size), block in blocks.items():
        lower = blocks.get((m, size - 1))
        if not lower:
            continue
        # reverse lexicographic rows fill in far less during elimination
        rows = []
        for S in reversed(block):
            row = {}
            for pos in range(size):
                face = lower.get(S[:pos] + S[pos + 1:])
                if face is not None:
                    row[face] = 1 if pos % 2 == 0 else -1
            rows.append(row)
        ranks[(m, size)] = linalg.rank(rows, I.ring.field)
    entries: dict = {}
    for (m, size), block in blocks.items():
        b = len(block) - ranks.get((m, size), 0) - ranks.get((m, size + 1), 0)
        if b:
            key = (size, sum(m))
            entries[key] = entries.get(key, 0) + b
    return BettiTable(dict(sorted(entries.items())))


@st.composite
def oracle_ideals(draw):
    """A nonzero proper monomial ideal in at most 5 variables over QQ,
    GF(2) or GF(32003), given by at most 10 monomials with exponents at
    most 2 in two adjacent degrees, so that most of them stay minimal."""
    nvars = draw(st.integers(1, 5))
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(32003)]))
    ring = Ring(tuple(f"x{i + 1}" for i in range(nvars)), field)
    rng = draw(st.randoms(use_true_random=False))
    d = rng.randint(1, 2 * nvars - 1)
    pool = [e for e in product(range(3), repeat=nvars) if sum(e) in (d, d + 1)]
    gens = rng.sample(pool, min(len(pool), rng.randint(1, 10)))
    return MonomialIdeal(ring, tuple(Monomial(e) for e in gens))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(oracle_ideals())
def test_upper_koszul_matches_lcm_blocks(I):
    assert betti_numbers(I) == lcm_block_betti(I)


# ---------------------------------------------------------------------------
# multidegree blocks: a supported Homology against the full strands


@st.composite
def guard_ideals(draw):
    """A nonzero proper monomial ideal in at most 4 variables over QQ or
    GF(32003), given by at most 4 nonconstant monomials."""
    nvars = draw(st.integers(1, 4))
    field = draw(st.sampled_from([QQ, PrimeField(32003)]))
    ring = Ring(tuple(f"x{i + 1}" for i in range(nvars)), field)
    exps = st.tuples(*[st.integers(0, 2)] * nvars).filter(any)
    gens = draw(st.lists(exps, min_size=1, max_size=4))
    return MonomialIdeal(ring, tuple(Monomial(e) for e in gens))


@st.composite
def regular_sequence_cases(draw):
    """(a, M): a monomial regular sequence (pairwise disjoint supports,
    linear entries included) and an ideal M containing it."""
    I = draw(guard_ideals())
    ring, n = I.ring, I.ring.nvars
    # owner[k] = j puts x_k into a_j; -1 leaves it out of the sequence
    owner = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)
                 .filter(lambda o: max(o) >= 0))
    powers = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    seq = [
        Monomial(tuple(e if o == j else 0 for o, e in zip(owner, powers)))
        for j in sorted(set(owner) - {-1})
    ]
    return seq, MonomialIdeal(ring, I.gens + tuple(seq))


def assert_blocks_match_strands(H, levels, degrees):
    """H on the multidegree blocks of each strand against a Homology of the
    same complex, Q and keys on the whole strand: the block dims sum to the
    strand dim, the keyed block representatives together are the strand's,
    express/is_boundary agree on the part of a strand vector in one block,
    and every block the support skips has zero homology."""
    ring = H.complex.ring
    scalar = table_scalar(ring.field)
    full = Homology(H.complex, H.extra, H.keys)

    def keyed(G, i, basis):
        return [(G.keys[i][g], m) for g, m in basis]

    def block_of(i, key, m):
        return tuple(map(add, H.mdegs[i][key], m.exps))

    for i in levels:
        for t in degrees:
            ref = full.stratum(i, t)
            full_basis = keyed(full, i, ref.basis)
            at = {km: col for col, km in enumerate(full_basis)}
            strata = {b: H.stratum(i, b)
                      for b in sorted({block_of(i, *km) for km in full_basis})}
            assert H.dim(i, t) == ref.dim == sum(
                sh.dim for sh in strata.values()
            ), (i, t)
            kept = set(H._pieces(i, t))
            assert all(sh.dim == 0 for b, sh in strata.items() if b not in kept)
            # the block representatives, in the strand order of their pivots
            found = []
            for b, sh in strata.items():
                basis = keyed(H, i, sh.basis)
                found += [(at[basis[min(v)]], b, k_element(v, basis, ring))
                          for v in sh.representatives]
            found.sort(key=lambda f: f[0])
            assert [rep for *_, rep in found] == [
                k_element(v, full_basis, ring) for v in ref.representatives
            ], (i, t)
            owner = [b for _, b, _ in found]
            # unit vectors, most of them not cycles
            step = max(1, len(full_basis) // 10)
            vecs = [{c: ring.field.one} for c in range(0, len(full_basis), step)]
            bounds = ref._boundaries.rows
            vecs += ref.representatives + bounds[:3]
            combo: dict = {}
            for v in ref.representatives + bounds:
                for c, a in v.items():
                    combo[c] = combo.get(c, 0) + a
            vecs.append({c: a for c, a in combo.items() if a})
            for v in vecs:
                parts: dict = {}
                for c, a in v.items():
                    parts.setdefault(block_of(i, *full_basis[c]), {})[c] = a
                for b, part in parts.items():
                    # the part as an element of its block, keyed as H is
                    x = Element(b, {
                        full_basis[c][0]: scalar(a) for c, a in part.items()
                    })
                    # the base method: QuotientTor.express takes exterior
                    # elements, and x is keyed by the Tate basis
                    got = Homology.express(H, i, x)
                    want = ref.express(part)
                    assert (got is None) == (want is None), (i, b)
                    if got is not None:
                        assert got == [w for w, o in zip(want, owner) if o == b]
                        assert not any(w for w, o in zip(want, owner) if o != b)
                    assert H.is_boundary(i, x) == ref.is_boundary(part)


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(guard_ideals())
def test_koszul_blocks_match_full_strands(I):
    H = KoszulHomology(I)
    top = max(sum(b) for b in lcm_lattice(I))
    assert_blocks_match_strands(H, range(H.complex.length + 1), range(top + 2))


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(regular_sequence_cases())
def test_quotient_tor_blocks_match_full_strands(case):
    a, M = case
    n_max = 3
    qt = QuotientTor(tate_resolution(a, M.ring, n_max), M)
    D = qt.tate.complex.max_degree() + M.max_gen_degree() + 1
    # the top level is cut by the truncation, not by boundaries
    assert_blocks_match_strands(qt, range(n_max), range(D + 1))


# ---------------------------------------------------------------------------
# exactness on cells: Homology.cell_failures against whole strands


@st.composite
def small_ideals(draw, ring):
    """A nonzero proper monomial ideal of ``ring`` by at most 3 monomials."""
    exps = st.tuples(*[st.integers(0, 2)] * ring.nvars).filter(any)
    gens = draw(st.lists(exps, min_size=1, max_size=3))
    return MonomialIdeal(ring, tuple(Monomial(e) for e in gens))


@st.composite
def monomial_complexes(draw):
    """(C, Q): a monomial complex over R or R/M with generators Q added.

    - star: the star product of two Taylor complexes over R, which fails
      to be exact exactly where Tor_{>=2} of the pair lives (J = I often);
    - koszul: the Koszul complex on 1 to 3 monomials a_j over R (Q = 0)
      or over R/M with a random Q, with multidegrees sum_{j in S} mdeg(a_j)
      (M may kill an a_j, and then d alone does not fix them, so the
      complex over R/M keeps those of K); a_1 + a_2 is not
      lcm(a_1, a_2) when they share a variable, so over R its multidegrees
      are not lcm-closed;
    - taylor: a Taylor complex over R with a random Q.
    """
    kind = draw(st.sampled_from(["star", "koszul", "koszul/M", "taylor"]))
    nvars = draw(st.integers(2 if kind == "star" else 1, 3))
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(32003)]))
    ring = Ring(tuple(f"x{i + 1}" for i in range(nvars)), field)
    if kind == "star":
        I = draw(small_ideals(ring).filter(lambda I: len(I.gens) > 1))
        J = draw(st.just(I) | small_ideals(ring))
        return star_product(taylor_complex(I), taylor_complex(J)), None
    if kind == "taylor":
        Q = draw(st.none() | small_ideals(ring))
        return taylor_complex(draw(small_ideals(ring))), Q
    exps = st.tuples(*[st.integers(0, 2)] * nvars).filter(any)
    a = draw(st.lists(exps, min_size=1, max_size=3))
    K = koszul_complex([Polynomial.from_monomial(ring, Monomial(e)) for e in a])
    if kind == "koszul":
        return K, None
    quotient = ring.quotient(draw(small_ideals(ring)).gens)
    md, tables = K.mdegs, []
    for i in range(1, K.length + 1):
        table = {}
        for c, col in K.table(i).items():
            col = [(r, s) for r, s in col if not quotient.kills(
                Monomial(tuple(map(sub, md[i][c], md[i - 1][r]))))]
            if col:
                table[c] = col
        tables.append(table)
    Q = draw(st.none() | small_ideals(ring))
    return GradedFreeComplex(quotient, md, tables), Q


def strand_failures(C, Q, top, D):
    """The strand reference: (i, t, dim H_i) for 0 <= i <= top, t <= D,
    eliminating each whole degree-t strand."""
    H = Homology(C, Q)
    out = []
    for t in range(D + 1):
        dims = H.strand_dims(t, 0, top)
        out += [(i, t, d) for i, d in dims.items() if d]
    return out


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(monomial_complexes())
def test_cells_match_whole_strands(case):
    C, Q = case
    top = C.length
    H = Homology(C, Q)
    failures = H.cell_failures(0, top)
    assert failures == sorted(failures, key=lambda f: (f[0], sum(f[1]), f[1]))
    cells = H.cells(range(top + 1))
    # past the highest corner every strand is a union of cells already seen
    D = max(sum(c) for c in cells) + 1
    want = {(i, t): d for i, t, d in strand_failures(C, Q, top, D)}
    assert strand_dims_from_cells(cells, failures, D) == want
    # the walk of the grid equals the earlier per-cell sweep, also with the
    # unit points and a range that leaves C_0 out
    n = C.ring.nvars
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    for lo, points in ((0, ()), (0, units), (2, units)):
        assert H.cell_failures(lo, top, points) == reference_cell_failures(
            H, lo, top, points
        )


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(monomial_complexes())
def test_scalar_block_rows_match_strand_matrix(case):
    """On each cell, d_i read off the scalar table on the generators
    present is the matrix that strand_matrix assembles on the block bases,
    so it has the same rank."""
    C, Q = case
    H, field = Homology(C, Q), C.ring.field
    for b in H.cells(range(C.length + 1)):
        for i in range(1, C.length + 1):
            upper, lower = H._basis(i, b), H._basis(i - 1, b)
            block = H._block_rows(i, [g for g, _ in upper], [g for g, _ in lower])
            strand = strand_matrix(C, i, upper, lower)
            assert block == strand
            assert linalg.rank(block, field) == linalg.rank(strand, field)
    # integral rationals are kept as ints, for the integer fast path
    if field is QQ:
        for i in range(1, C.length + 1):
            assert all(
                type(s) is int for col in C.table(i).values() for _, s in col
            )
