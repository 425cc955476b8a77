"""Graded free chain complexes and their calculus.

A :class:`GradedFreeComplex` stores, per homological degree, the
multidegrees of the free generators, plus each differential as a monomial
matrix: one scalar per entry, the monomial being fixed by the
multidegrees.  Every builder writes these tables, and the output
formats their entries one term at a time.  All homology is computed
on strands or on their multidegree blocks: the internal-degree-t slice of
``C (x) R/Q``, or its multidegree-b slice, is a finite complex of vector
spaces whose differentials are exact scalar matrices.  Exactness in every
multidegree is certified on finitely many cells, one block each.

Sign convention for tensor products: d(f (x) g) = d(f) (x) g + (-1)^|f| f (x) d(g),
the left factor carrying the sign.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache, cached_property
from itertools import accumulate, islice, pairwise, repeat
from math import lcm
from operator import add, ge, lshift, sub
from re import finditer

from . import linalg
from .errors import DimensionError, DomainError, Record, RingMismatchError
from .fields import field_to_json
from .ideals import MonomialIdeal, lcm_closure
from .poly import Monomial, monomials_of_degree


class GradedFreeComplex:
    """A complex of Z^n-graded free modules in nonnegative homological
    degrees, stored as monomial matrices (Miller-Sturmfels, Combinatorial
    Commutative Algebra, ch. 1).

    ``mdegs[i]`` lists the multidegrees m_g of the generators of C_i, and
    ``degrees[i]`` their totals, the internal degrees.  Each entry of d_i is
    one term s x^(m_c - m_r), so ``table(i)`` holds d_i as the scalars
    {c: [(r, s)]} of its nonzero entries.  A GF(p) scalar is its int value
    in [0, p) and an integral rational an int, so elimination rows need no
    conversion.  Text and JSON output format each entry from the tables
    through :meth:`Ring.format_term`.

    Raises DimensionError for a table index out of range or a multidegree
    of the wrong length, and DomainError for an entry whose exponent
    m_c - m_r is negative.  Instances are immutable, so the report of
    :func:`validate_complex` is kept on first use.
    """

    __slots__ = (
        "ring", "mdegs", "degrees", "labels", "meta", "_tables", "_validation",
    )

    def __init__(self, ring, mdegs, tables, labels=None, meta=None):
        mdegs = tuple(tuple(level) for level in mdegs)
        tables = tuple(tables)
        if len(tables) != max(len(mdegs) - 1, 0):
            raise DimensionError("need one differential per positive degree")
        n = ring.nvars
        if any(len(m) != n for level in mdegs for m in level):
            raise DimensionError(f"a multidegree is not over {n} variables")
        for i, table in enumerate(tables, start=1):
            hi, lo = mdegs[i], mdegs[i - 1]
            for c, col in table.items():
                if not 0 <= c < len(hi):
                    raise DimensionError(f"d_{i} column {c} out of range")
                for r, _ in col:
                    if not 0 <= r < len(lo):
                        raise DimensionError(f"d_{i} row {r} out of range")
                    if not all(map(ge, hi[c], lo[r])):
                        raise DomainError(
                            f"d_{i}[{r},{c}] has a negative exponent"
                        )
        if labels is None:
            labels = tuple(
                tuple(f"F{i}[{k}]" for k in range(len(level)))
                for i, level in enumerate(mdegs)
            )
        else:
            labels = tuple(tuple(ls) for ls in labels)
        self.ring = ring
        self.mdegs = mdegs
        self.degrees = tuple(tuple(sum(m) for m in level) for level in mdegs)
        self.labels = labels
        self.meta = dict(meta) if meta else {}
        self._tables, self._validation = tables, None

    def table(self, i: int) -> dict:
        """{c: [(r, s)]}: the scalar s of each nonzero entry d_i[r, c] =
        s x^(m_c - m_r); empty off the range."""
        return self._tables[i - 1] if 1 <= i <= self.length else {}

    @property
    def length(self) -> int:
        return len(self.degrees) - 1

    def rank(self, i: int) -> int:
        if 0 <= i < len(self.degrees):
            return len(self.degrees[i])
        return 0

    def degs(self, i: int) -> tuple[int, ...]:
        if 0 <= i < len(self.degrees):
            return self.degrees[i]
        return ()

    def total_ranks(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.degrees)

    def max_degree(self) -> int:
        return max((max(d, default=0) for d in self.degrees), default=0)

    # not a Record, so without this a complex would print as an address
    def __repr__(self):
        return f"GradedFreeComplex(ranks={self.total_ranks()})"


class ValidationReport(Record):
    __slots__ = _fields = ("ok", "problems")

    def __init__(self, ok: bool, problems: list[str] | None = None):
        self.ok = ok
        self.problems = [] if problems is None else problems

    def __bool__(self):
        return self.ok


def validate_complex(C: GradedFreeComplex) -> ValidationReport:
    """Check d o d = 0 exactly, once per complex: the report is kept on C.

    Every entry is homogeneous by construction: it is one term whose
    monomial the multidegrees fix.  On the tables, entry (r, c) of
    d_i o d_{i+1} is the sum of s s' over the middle generators times
    x^(m_c - m_r), which takes one kill test in R/Q.  Never raises;
    reports the first violation with its indices.
    """
    if C._validation is None:
        C._validation = _validate(C)
    return C._validation


def _validate(C: GradedFreeComplex) -> ValidationReport:
    """The report of :func:`validate_complex`, computed."""
    ring, md = C.ring, C.mdegs
    p = getattr(ring.field, "p", 0)
    for i in range(1, C.length):
        lower, failures = C.table(i), []
        for c, col in C.table(i + 1).items():
            acc: dict = {}
            for k, s in col:
                for r, t in lower.get(k, ()):
                    acc[r] = acc.get(r, 0) + t * s
            for r, s in acc.items():
                if s % p if p else s:
                    if not ring.kills(tuple(map(sub, md[i + 1][c], md[i - 1][r]))):
                        failures.append((r, c, s))
        if failures:
            r, c, s = min(failures, key=lambda f: f[:2])
            # the raw sum over GF(p) may lie outside [0, p)
            s = ring.field.scalar(s)
            return ValidationReport(False, [
                f"d_{i} o d_{i + 1} != 0, first nonzero entry at ({r},{c}): "
                f"{ring.format_term(map(sub, md[i + 1][c], md[i - 1][r]), s)}"
            ])
    return ValidationReport(True)


def is_minimal(C: GradedFreeComplex) -> bool:
    """True iff no differential entry is a unit: no entry has m_c = m_r."""
    md = C.mdegs
    return not any(
        md[i][c] == md[i - 1][r]
        for i in range(1, C.length + 1)
        for c, col in C.table(i).items() for r, _ in col
    )


def complex_from_boundary(ring, levels, mdeg, label, boundary, meta=None):
    """The free complex with basis keys ``levels[i]`` in homological degree
    i, generator multidegrees ``mdeg(key)`` and labels ``label(key)``.

    ``boundary(key)`` is d(key) as scalars {lower key: s}, each standing
    for s x^(mdeg(key) - mdeg(lower)); column order follows ``levels[i]``
    and row order that of the boundary.  A zero scalar, or an entry whose
    monomial R/Q kills, is dropped.  The kill test runs once per distinct
    monomial: the entries of a complex share few of them (in a twisted
    Koszul complex, mostly the x_k of d(e_T)).
    """
    scalar = ring.field.scalar
    killed = cache(ring.kills) if ring.modulus else None
    mdegs = [[mdeg(key) for key in level] for level in levels]
    tables = []
    for i in range(1, len(levels)):
        idx = {key: r for r, key in enumerate(levels[i - 1])}
        lo, table = mdegs[i - 1], {}
        for c, (key, m) in enumerate(zip(levels[i], mdegs[i])):
            col = []
            for lower, s in boundary(key).items():
                r = idx[lower]
                if (s := scalar(s)) and not (
                    killed and killed(tuple(map(sub, m, lo[r])))
                ):
                    col.append((r, s))
            if col:
                table[c] = col
        tables.append(table)
    labels = [[label(key) for key in level] for level in levels]
    return GradedFreeComplex(ring, mdegs, tables, labels, meta)


# ---------------------------------------------------------------------------
# tensor products, star product


def tensor_basis(F: GradedFreeComplex, G: GradedFreeComplex, n: int):
    """Basis of (F (x) G)_n as (i, j, fi, gj), ordered by (i, fi, gj)."""
    out = []
    for i in range(0, n + 1):
        j = n - i
        for fi in range(F.rank(i)):
            for gj in range(G.rank(j)):
                out.append((i, j, fi, gj))
    return out


def _tensor_boundary(F: GradedFreeComplex, G: GradedFreeComplex, lo: int = 0):
    """d(f (x) g) = d(f) (x) g + (-1)^|f| f (x) d(g) on keys (i, j, fi, gj),
    as scalars, without the terms whose factor drops below homological
    degree ``lo``."""

    def boundary(key):
        i, j, fi, gj = key
        out: dict = {}
        if i > lo:
            for r, s in F.table(i).get(fi, ()):
                out[(i - 1, j, r, gj)] = s
        if j > lo:
            sign = -1 if i % 2 else 1
            for r, s in G.table(j).get(gj, ()):
                out[(i, j - 1, fi, r)] = sign * s
        return out

    return boundary


def _tensor_mdeg(F: GradedFreeComplex, G: GradedFreeComplex):
    """The multidegree m_f + m_g of a key (i, j, fi, gj)."""
    return lambda k: tuple(map(add, F.mdegs[k[0]][k[2]], G.mdegs[k[1]][k[3]]))


def tensor_complexes(F: GradedFreeComplex, G: GradedFreeComplex) -> GradedFreeComplex:
    if F.ring != G.ring:
        raise RingMismatchError("tensor factors over different rings")
    return complex_from_boundary(
        F.ring,
        [tensor_basis(F, G, n) for n in range(F.length + G.length + 1)],
        _tensor_mdeg(F, G),
        lambda k: f"{F.labels[k[0]][k[2]]}(x){G.labels[k[1]][k[3]]}",
        _tensor_boundary(F, G),
    )


def star_basis(F: GradedFreeComplex, G: GradedFreeComplex, n: int):
    """Basis of (F*G)_n for n >= 1 as (i, j, fi, gj), ordered by (i, fi, gj)."""
    return [k for k in tensor_basis(F, G, n + 1) if k[0] >= 1 and k[1] >= 1]


def star_product(F: GradedFreeComplex, G: GradedFreeComplex) -> GradedFreeComplex:
    """The star product: (F*G)_0 = R, (F*G)_n = sum of F_i (x) G_j over
    i+j = n+1 with i,j >= 1; the front differential is d1^F (x) d1^G and the
    higher ones are the tensor differential without its i = 0 and j = 0
    terms."""
    if F.ring != G.ring:
        raise RingMismatchError("star factors over different rings")
    if F.rank(0) != 1 or G.rank(0) != 1:
        raise DomainError("star product needs F_0 = G_0 = R of rank 1")
    for name, X in (("left", F), ("right", G)):
        rep = validate_complex(X)
        if not rep:
            raise DomainError(f"{name} star factor is not a complex: {rep.problems[0]}")
    # the generator 1 of (F*G)_0 is keyed as f_0 (x) g_0
    unit = (0, 0, 0, 0)
    higher = _tensor_boundary(F, G, lo=1)
    mdeg = _tensor_mdeg(F, G)
    # d_1 has one row, so a column of d_1 holds at most the scalar at row 0
    front_F, front_G = (
        {c: col[0][1] for c, col in X.table(1).items()} for X in (F, G)
    )

    def boundary(key):
        i, j, fi, gj = key
        if i + j > 2:
            return higher(key)
        if fi in front_F and gj in front_G:
            return {unit: front_F[fi] * front_G[gj]}
        return {}

    return complex_from_boundary(
        F.ring,
        [[unit]] + [star_basis(F, G, n) for n in range(1, F.length + G.length)],
        lambda k: mdeg(k) if k[0] else (0,) * F.ring.nvars,
        lambda k: f"{F.labels[k[0]][k[2]]}*{G.labels[k[1]][k[3]]}" if k[0] else "1",
        boundary,
    )


# ---------------------------------------------------------------------------
# strands


def _extra_gens(Q) -> tuple[Monomial, ...]:
    if Q is None:
        return ()
    if isinstance(Q, MonomialIdeal):
        return Q.gens
    return tuple(Q)


def strand_basis(C: GradedFreeComplex, i: int, t: int, extra=()):
    """Basis of the degree-t strand of (C (x) R/Q)_i as (generator, monomial)
    pairs, ordered by (generator, descending lex)."""
    extra = _extra_gens(extra)
    by_degree: dict = {}
    out = []
    for g, dg in enumerate(C.degs(i)):
        if dg not in by_degree:
            by_degree[dg] = monomials_of_degree(C.ring, t - dg, extra)
        out.extend((g, m) for m in by_degree[dg])
    return out


def strand_matrix(C: GradedFreeComplex, i: int, basis_hi, basis_lo):
    """Scalar rows of d_i from the strand basis ``basis_hi`` in degree i to
    ``basis_lo`` one degree down (rows indexed by ``basis_lo``), read off
    the scalar table.

    It serves only whole strands (see :class:`Homology` for blocks).  Every
    entry d_i[r, c] is the one term s x^(m_c - m_r), so x^(m_c - m_r) m has
    the degree of the lower basis and a lookup that misses it can only be a
    monomial killed in R/Q.
    """
    idx = {(r, m.exps): k for k, (r, m) in enumerate(basis_lo)}
    rows = [dict() for _ in basis_lo]
    md, table = C.mdegs, C.table(i)
    shifts = {
        c: [(r, tuple(map(sub, md[i][c], md[i - 1][r])), s) for r, s in table[c]]
        for c in {g for g, _ in basis_hi} if c in table
    }
    for col, (g, m) in enumerate(basis_hi):
        for r, e, s in shifts.get(g, ()):
            row = idx.get((r, tuple(map(add, m.exps, e))))
            if row is not None:
                rows[row][col] = s
    return rows


class StrandHomology(Record):
    """Homology of one strand or block, with canonical (RREF) cycle
    representatives.

    ``t`` is the degree t of a strand or the multidegree b of a block;
    ``_classes`` is the RREF of the representatives and ``_boundaries``
    that of the boundaries, both :class:`linalg.EchelonForm`.
    """

    __slots__ = _fields = (
        "i", "t", "basis", "dim", "cycle_dim", "boundary_dim",
        "_classes", "_boundaries", "_field",
    )

    @property
    def representatives(self) -> list[dict]:
        return self._classes.rows

    def express(self, vec: dict):
        """Coordinates of a cycle's class in the representative basis, or
        None if the vector is not a cycle class in this strand.

        The representatives vanish at the boundary pivots, so reducing by
        the boundary RREF leaves the unique combination of representatives
        in the class; being in RREF, they carry its coordinates at their
        pivots.
        """
        v = self._boundaries.reduce(vec)
        zero = self._field.zero
        coords = [v.get(p, zero) for p in self._classes.pivots]
        return None if self._classes.reduce(v) else coords


class Homology:
    """Homology of C (x) R/Q: the one code that builds bases, assembles
    matrices and eliminates them.

    It works on multidegree blocks b and on whole strands t.  The block of
    C_i at b has the basis (g, x^(b - m_g)) over the generators g of
    multidegree m_g <= b (``mdegs``) whose monomial survives in R/Q.
    Blocks are complexes on disjoint coordinates, and the degree-t strand
    is the direct sum of the blocks of total degree t.  A multihomogeneous
    element x = (b, {key: s}) (``exterior.Element``) lies in one block b,
    which fixes the monomial of each key, so :meth:`express` reads its
    scalars as block coordinates and :meth:`rank_modulo` as scalars of the
    generators present.

    An entry d_i[r, c] is one term s x^(m_c - m_r), so a block matrix is
    the scalar table ``C.table(i)`` on the generators present;
    :func:`strand_matrix` serves only whole strands.

    It keeps the rank of d_i on each strand or block it has eliminated,
    each stratum and boundary RREF asked for and the keyed index of each
    block an element is expressed in, with the bases of those.  A strand is
    keyed (i, t) and a block (i, b).  ``keys[i][g]`` names generator g of
    C_i (g itself when ``keys`` is None); its multidegree is
    ``C.mdegs[i][g]``.
    """

    def __init__(self, C: GradedFreeComplex, Q=None, keys=None):
        self.complex = C
        self.keys = keys
        self.extra = _extra_gens(Q)
        self.ranks: dict = {}  # (i, piece) -> rank of d_i on the piece
        self.strata: dict = {}
        self.images: dict = {}  # (i, piece) -> RREF of the image of d_{i+1}
        self.indexes: dict = {}
        self.bases: dict = {}  # the bases of the strata and indexes
        self._kill = [g.exps for g in C.ring.modulus + self.extra]

    @cached_property
    def mdegs(self) -> list[dict]:
        """{key: multidegree} of the generators of each C_i, in order."""
        C = self.complex
        keys = self.keys
        if keys is None:
            keys = [range(C.rank(i)) for i in range(C.length + 1)]
        return [dict(zip(k, m)) for k, m in zip(keys, C.mdegs)]

    def basis(self, i: int, s) -> list:
        """The basis in degree i of the whole strand s = t or of the block
        s = b, kept for later queries."""
        key = (i, s)
        if key not in self.bases:
            self.bases[key] = self._basis(i, s)
        return self.bases[key]

    def _basis(self, i: int, s) -> list:
        """The basis of :meth:`basis`, not kept."""
        kept = self.bases.get((i, s))
        if kept is not None:
            return kept
        if isinstance(s, int):
            return strand_basis(self.complex, i, s, self.extra)
        return [(g, Monomial(tuple(map(sub, s, self.complex.mdegs[i][g]))))
                for g in self._present(i, s)]

    def _present(self, i: int, b) -> list:
        """The generators g of C_i present on the block b, ascending:
        m_g <= b, and no q in the modulus or Q divides x^(b - m_g)."""
        mdegs = self.complex.mdegs[i] if 0 <= i < len(self.mdegs) else ()
        # x^(b - m_g) divides x^b, so only a q dividing x^b can kill it
        kill = [k for k in self._kill if all(map(ge, b, k))]
        out = []
        for g, m in enumerate(mdegs):
            if all(map(ge, b, m)):
                e = tuple(map(sub, b, m))
                for k in kill:
                    if all(map(ge, e, k)):
                        break
                else:
                    out.append(g)
        return out

    def strand_dims(self, s, lo: int, hi: int) -> dict:
        """{i: dim H_i} of the whole strand s = t or of the block s = b for
        lo <= i <= hi, from ranks alone: dim H_i = |B_i| - r_i - r_{i+1}
        (dim coker d_1 for i = 0).  Each rank r_i is taken once per piece
        for the life of this object.
        """
        basis = cache(self._basis)

        def rank(j):
            key, upper, lower = (j, s), basis(j, s), basis(j - 1, s)
            if key not in self.ranks:
                self.ranks[key] = linalg.rank(
                    self._rows(j, s, upper, lower), self.complex.ring.field
                ) if upper and lower else 0
            return self.ranks[key]

        return {
            i: len(basis(i, s)) - rank(i) - rank(i + 1) for i in range(lo, hi + 1)
        }

    def dim(self, i: int, s) -> int:
        """dim H_i of the whole strand s = t or of the block s = b."""
        return self.strand_dims(s, i, i)[i]

    def _rows(self, j: int, s, upper: list, lower: list) -> list:
        """Scalar rows of d_j between the bases of the piece s in degrees
        j and j - 1: by :func:`strand_matrix` on a strand s = t, from the
        scalar table on a block s = b."""
        if isinstance(s, int):
            return strand_matrix(self.complex, j, upper, lower)
        return self._block_rows(j, [g for g, _ in upper], [g for g, _ in lower])

    def _block_rows(self, j: int, upper: list, lower: list) -> list:
        """Scalar rows of d_j on a block, from the generators ``upper`` of
        C_j present there to those ``lower`` of C_{j-1}."""
        at = {g: k for k, g in enumerate(lower)}
        rows: list = [{} for _ in lower]
        table = self.complex.table(j)
        for col, c in enumerate(upper):
            for r, s in table.get(c, ()):
                if r in at:
                    rows[at[r]][col] = s
        return rows

    def cell_failures(self, lo: int, hi: int) -> list:
        """(i, b, dim H_i) for lo <= i <= hi wherever H_i is nonzero on a
        cell, b its lower corner, ordered by (i, |b|, b).

        The block of C_i at b is spanned by the generators present there,
        with the scalars of d as matrix entries, so it changes only where
        b_k crosses a threshold m_g[k] + q[k], q in gens(Q) or q = 0; the
        cells are the boxes of that grid.  Over R the block at b is the
        block at lcm{m_g : m_g <= b}, and the cells are the points of the
        lcm-closure of the m_g (Bayer-Sturmfels, "Cellular resolutions of
        monomial modules", 1998; Miller-Sturmfels, Ch. 4).
        H_i is constant on each cell, so this is H_i in every multidegree.
        Generator g is present at b when m_g <= b and m_g <= b - q for no q
        in gens(Q): ANDs over the variables of bitsets looked up once per
        threshold.  Over R/Q the grid is walked depth first, one variable
        at a time, and a prefix where no generator has m_g <= b is skipped,
        since no cell below it can fail; the cells along the last variable
        are read in one loop per prefix, with no call per cell.  Over R the
        lcm-closure points are read with the same bitsets.  Each distinct
        presence is swept once; the rank of d_i on a block depends only on
        the generators present in degrees i and i - 1, and is taken once
        per such pair.

        Ranks are taken over GF(2) first, by XOR on bitsets: per column of
        d_j, the rows where its scalar is odd, a QQ column scaled first by
        the lcm of its denominators.  Over GF(2) these ranks are exact.
        Over QQ, on a complex (:func:`validate_complex`), they decide a
        block by this lemma: an integer matrix has GF(2) rank rho <= its
        QQ rank r, since a minor that is odd is nonzero, and d o d = 0
        gives r_i + r_{i+1} <= n_i on each block with n_i generators.  So
        n_i - rho_i - rho_{i+1} = 0 proves H_i = 0 and r = rho for both
        maps; only where it is nonzero are the QQ ranks taken exactly, on
        the scalar table.  Over GF(p) with p odd, and over QQ on a map
        that is not a complex, every rank is taken on the scalar table.
        """
        C = self.complex
        levels = range(max(lo - 1, 0), min(hi + 1, C.length) + 1)
        gens = [m for i in levels for m in self.mdegs[i].values()]
        spans, start = {}, 0
        for i in levels:
            spans[i] = (start, (1 << len(self.mdegs[i])) - 1)
            start += len(self.mdegs[i])
        kill = self._kill
        shifts = [(0,) * C.ring.nvars, *kill]
        axes = [sorted({p[k] + q[k] for p in gens for q in shifts})
                for k in range(C.ring.nvars)]
        # per variable k, one step per threshold v: v, the generators g
        # with m_g[k] <= v, and those with m_g[k] <= v - q[k] per q; the
        # first j generators in the order of m_g[k] are masks[j], built only
        # for the j a step reads, so that the masks hold O(thresholds * N)
        # bits and not the Theta(N^2) of every prefix.  The bits 1 << g are
        # distinct, so the sum of a run of them is their OR
        steps = []
        for k, values in enumerate(axes):
            order = sorted(range(len(gens)), key=lambda g: gens[g][k])
            vals = [gens[g][k] for g in order]
            read = sorted({bisect_right(vals, v - q[k]) for v in values for q in shifts})
            bits = map(lshift, repeat(1), order)
            runs = (sum(islice(bits, b - a)) for a, b in pairwise([0, *read]))
            masks = dict(zip(read, accumulate(runs)))
            steps.append([
                (v, masks[bisect_right(vals, v)],
                 [masks[bisect_right(vals, v - q[k])] for q in kill])
                for v in values
            ])

        def present_in(present):
            # the set bits alone: bit g is character g of the reversed string
            return [m.start() for m in finditer("1", bin(present)[:1:-1])]

        field = C.ring.field
        p = getattr(field, "p", 0)
        odd: dict = {}  # j -> per column of d_j, the bitset of its odd rows
        bounded = p == 2 or (not p and self._is_complex)
        if bounded:
            for j in levels[1:]:
                odd[j] = cols = [0] * len(self.mdegs[j])
                for c, col in C.table(j).items():
                    scale = lcm(*(s.denominator for _, s in col))
                    for r, s in col:
                        if s * scale % 2:
                            cols[c] |= 1 << r
        ranks: dict = {}  # (j, present in C_j, present in C_{j-1}) -> rank
        ranks2: dict = {}  # the same keys -> rank over GF(2) of the odd bits

        def rank(key):
            if key not in ranks:
                j, upper, lower = key
                ranks[key] = upper and lower and linalg.rank(
                    self._block_rows(j, present_in(upper), present_in(lower)),
                    field,
                )
            return ranks[key]

        def rank2(key):
            if key not in ranks2:
                j, upper, lower = key
                ranks2[key] = upper and lower and linalg.xor_rank(
                    [v for g in present_in(upper) if (v := odd[j][g] & lower)]
                )
            return ranks2[key]

        def block_dims(bits):
            # [(i, dim H_i)] on the block with these generators present
            keys = [(j, bits.get(j, 0), bits.get(j - 1, 0))
                    for j in range(lo, hi + 2)]
            n = [bits.get(i, 0).bit_count() for i in range(lo, hi + 1)]
            if bounded:
                rho = [rank2(key) for key in keys]
                dims = [size - a - b for size, a, b in zip(n, rho, rho[1:])]
                # the GF(2) ranks are exact over GF(2); over QQ, a zero
                # proves both its ranks exact (the lemma)
                if p == 2 or not any(dims):
                    ranks.update(zip(keys, rho))
                    return list(zip(range(lo, hi + 1), dims))
                for t, d in enumerate(dims):
                    if not d:
                        ranks[keys[t]], ranks[keys[t + 1]] = rho[t], rho[t + 1]
            return [(lo + t, size - rank(keys[t]) - rank(keys[t + 1]))
                    for t, size in enumerate(n)]

        failures, nonzero = [], {}  # present -> [(i, dim H_i)] where nonzero

        def sweep(b, present):
            found = nonzero.get(present)
            if found is None:
                found = nonzero[present] = [(i, d) for i, d in block_dims(
                    {i: present >> s & full for i, (s, full) in spans.items()}
                ) if d]
            if found:
                failures.extend((i, b, d) for i, d in found)

        every = (1 << len(gens)) - 1
        last = len(steps) - 1

        def walk(k, prefix, here, killed):
            # here: the generators with m_g <= b on the variables before k;
            # killed: per q, those with m_g <= b - q there.  At the last
            # variable each threshold is a cell, its presence read in this
            # loop and its point built only where that is new or fails
            if k == last:
                for v, at, shifted in steps[k]:
                    if at := at & here:
                        for a, s in zip(killed, shifted):
                            at &= ~(a & s)
                        found = nonzero.get(at)
                        if found is None or found:
                            sweep((*prefix, v), at)
                return
            for v, at, shifted in steps[k]:
                if at := at & here:
                    walk(k + 1, (*prefix, v), at,
                         [a & s for a, s in zip(killed, shifted)])

        if kill:
            walk(0, (), every, [every] * len(kill))
        else:
            lookup = [{v: at for v, at, _ in step} for step in steps]
            for b in sorted(lcm_closure(set(gens))):
                present = every
                for at, v in zip(lookup, b):
                    present &= at[v]
                sweep(b, present)
        return sorted(failures, key=lambda f: (f[0], sum(f[1]), f[1]))

    def boundaries(self, i: int, s) -> linalg.EchelonForm:
        """The RREF of the image of d_{i+1} on the whole strand s = t or the
        block s = b, in the columns of ``basis(i, s)``, computed once per
        (i, s); it keeps the rank of d_{i+1} there.  :meth:`rank_modulo`
        does not build it.

        d o d = 0 is checked once per object on the scalar tables
        (:func:`validate_complex`, no elimination); on a map that is not a
        complex this raises DomainError, since its boundaries need not be
        cycles.
        """
        key = (i, s)
        if key not in self.images:
            if not self._is_complex:
                raise DomainError("homology needs a complex, but d o d != 0")
            field = self.complex.ring.field
            basis_i, basis_hi = self.basis(i, s), self._basis(i + 1, s)
            n = len(basis_i)
            if basis_i and basis_hi:
                rows = self._rows(i + 1, s, basis_hi, basis_i)
                form = linalg.echelon(
                    linalg.rows_from_columns(rows, len(basis_hi)), n, field
                )
            else:
                form = linalg.EchelonForm(n, [], [], field)
            self.ranks[(i + 1, s)] = form.rank
            self.images[key] = form
        return self.images[key]

    @property
    def _is_complex(self) -> bool:
        return validate_complex(self.complex).ok

    def stratum(self, i: int, s) -> StrandHomology:
        """H_i of the whole strand s = t or the block s = b with canonical
        representatives, computed once per (i, s) on :meth:`boundaries`,
        which refuses a map that is not a complex.

        Let Z be the kernel of d_i on the piece, B the image of d_{i+1} and
        P the pivot columns of the RREF of B, whose pivots are units.  When
        d o d = 0, so that B lies in Z, reducing by that RREF maps Z onto
        Z' = {z in Z : z_p = 0 for p in P} with kernel B: Z = B (+) Z'.  So
        the representatives, the RREF of the cycles reduced against the
        boundaries, are the RREF kernel basis of d_i on the columns outside
        P, and dim Z = dim Z' + rank B gives r_i = |B_i| - dim Z' - rank B.
        """
        key = (i, s)
        if key not in self.strata:
            self.strata[key] = self._stratum(i, s)
        return self.strata[key]

    def _stratum(self, i: int, s) -> StrandHomology:
        field = self.complex.ring.field
        bound = self.boundaries(i, s)
        basis_i = self.basis(i, s)
        n = len(basis_i)
        if not basis_i:
            return StrandHomology(i, s, basis_i, 0, 0, 0, bound, bound, field)
        # Z' of the lemma: the cycles on the columns off the boundary pivots,
        # each row with its columns ascending
        kept = [c for c in range(n) if c not in bound.row_at]
        lower = self._basis(i - 1, s)
        if lower and kept:
            rows = self._rows(i, s, [basis_i[c] for c in kept], lower)
            reps = [{kept[c]: z[c] for c in sorted(z)}
                    for z in linalg.kernel_basis(rows, len(kept), field)]
        else:  # d_i maps to zero, or no column is kept: unit vectors span Z'
            reps = [{c: field.one} for c in kept]
        classes = linalg.EchelonForm(n, [min(z) for z in reps], reps, field)
        cycle_dim = len(reps) + bound.rank
        self.ranks[(i, s)] = n - cycle_dim
        return StrandHomology(
            i, s, basis_i, len(reps), cycle_dim, bound.rank, classes, bound,
            field,
        )

    def strand_index(self, i: int, b) -> dict:
        """{key: column} of the block b in degree i, built once per (i, b):
        b fixes the monomial of every key."""
        if (i, b) not in self.indexes:
            keys, basis = list(self.mdegs[i]), self.basis(i, b)
            self.indexes[(i, b)] = {keys[g]: c for c, (g, _) in enumerate(basis)}
        return self.indexes[(i, b)]

    def coords(self, i: int, x) -> dict:
        """{column: s} of an element x = (b, {key: s}) in degree i on its
        block b.  Raises KeyError for a key absent from the block."""
        index = self.strand_index(i, x.b)
        return {index[key]: s for key, s in x.terms.items()}

    def express(self, i: int, x):
        """Coordinates of the class of a cycle x = (b, {key: s}) in the
        canonical basis of ``stratum(i, b)``, or None if it is not a cycle
        class."""
        return self.stratum(i, x.b).express(self.coords(i, x))

    @cached_property
    def _generator(self) -> list[dict]:
        """{key: g} of the generators of each C_i."""
        return [{key: g for g, key in enumerate(level)} for level in self.mdegs]

    def rank_modulo(self, i: int, xs: list) -> int:
        """The rank modulo the boundaries of elements xs = (b, {key: s}) of
        one block b in degree i, on vectors {g: s} over the generators g
        present: d_{i+1} spans the boundaries by its table columns there
        (:func:`linalg.rank_modulo`).  Refuses a map that is not a complex,
        as :meth:`boundaries` does, and a key off the block (KeyError)."""
        if not self._is_complex:
            raise DomainError("homology needs a complex, but d o d != 0")
        (b,) = {x.b for x in xs}  # one block, else ValueError
        lower, at = set(self._present(i, b)), self._generator[i]
        vecs = [{at[key]: s for key, s in x.terms.items()} for x in xs]
        if absent := {g for v in vecs for g in v} - lower:
            raise KeyError(f"generators {sorted(absent)} are not on the block {b}")
        table = self.complex.table(i + 1)
        image = [{r: s for r, s in table.get(c, ()) if r in lower}
                 for c in self._present(i + 1, b)]
        return linalg.rank_modulo(image, vecs, self.complex.ring.field)

    def is_boundary(self, i: int, x) -> bool:
        """Whether the element x = (b, {key: s}) is a boundary: its rank
        modulo the boundaries of its block is 0 (:meth:`rank_modulo`)."""
        return not x.terms or not self.rank_modulo(i, [x])


def strand_homology(C: GradedFreeComplex, Q, t: int, i: int) -> StrandHomology:
    """H_i of the degree-t strand of C (x) R/Q with canonical representatives;
    kept while perfbench/tracer.py names this wrapper as a span."""
    return Homology(C, Q).stratum(i, t)


def strand_homology_dim(C: GradedFreeComplex, Q, t: int, i: int) -> int:
    """dim H_i of the degree-t strand of C (x) R/Q, from ranks alone; kept
    while perfbench/tracer.py names this wrapper as a span."""
    return Homology(C, Q).dim(i, t)


# ---------------------------------------------------------------------------
# Betti tables and resolution certificates


class BettiTable(Record):
    """Graded Betti numbers beta_{i,t}, read off a minimal complex or
    computed by ``resolutions.betti_numbers``."""

    __slots__ = _fields = ("entries",)

    def total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def totals(self) -> tuple[int, ...]:
        if not self.entries:
            return ()
        top = max(i for i, _ in self.entries)
        return tuple(self.total(i) for i in range(top + 1))

    def staircase(self) -> str:
        """Conventional staircase rendering: row j holds beta_{i, i+j}."""
        if not self.entries:
            return "(empty)"
        top = max(i for i, _ in self.entries)
        jmax = max(t - i for i, t in self.entries)
        jmin = min(t - i for i, t in self.entries)
        width = max(len(str(v)) for v in self.entries.values())
        width = max(width, len(str(top)), 2)
        lines = []
        head = " " * 7 + "".join(str(i).rjust(width + 1) for i in range(top + 1))
        lines.append(head)
        totals = self.totals()
        lines.append(
            "total:".rjust(7)
            + "".join(str(v).rjust(width + 1) for v in totals)
        )
        for j in range(jmin, jmax + 1):
            row = [self.entries.get((i, i + j), 0) for i in range(top + 1)]
            cells = "".join(
                (str(v) if v else ".").rjust(width + 1) for v in row
            )
            lines.append(f"{j}:".rjust(7) + cells)
        return "\n".join(lines)

    def to_json(self):
        return {f"{i},{t}": v for (i, t), v in sorted(self.entries.items())}

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries


def betti_table(C: GradedFreeComplex) -> BettiTable:
    """Count generators by (homological degree, internal degree).

    Only meaningful on minimal complexes, where the counts are the graded
    Betti numbers.
    """
    if not is_minimal(C):
        raise DomainError("complex is not minimal; run minimize_complex first")
    entries: dict = {}
    for i, degs in enumerate(C.degrees):
        for t in degs:
            entries[(i, t)] = entries.get((i, t), 0) + 1
    return BettiTable(entries)


class ResolutionCertificate(Record):
    """Outcome of :func:`verify_resolution`: C is a complex, whether it is
    minimal, and the three clauses.

    ``validation`` is the :class:`ValidationReport` of d o d = 0;
    ``minimal`` is reported, not required; ``strand_failures`` holds
    (i, b, dim H_i) per failing cell and ``coker_failures``
    (b, dim coker d_1, dim (R/I)_b); ``betti_got`` and ``betti_want`` are
    :class:`BettiTable` or None where the clause is not run.
    """

    __slots__ = _fields = (
        "ideal", "validation", "minimal", "strand_failures", "coker_failures",
        "betti_ok", "betti_got", "betti_want",
    )

    @property
    def exactness_ok(self) -> bool:
        return not self.strand_failures

    @property
    def coker_ok(self) -> bool:
        return not self.coker_failures

    @property
    def ok(self) -> bool:
        clauses = (self.validation.ok, self.exactness_ok, self.coker_ok, self.betti_ok)
        return all(clauses)


def verify_resolution(
    C: GradedFreeComplex, I: MonomialIdeal, top: int | None = None
) -> ResolutionCertificate:
    """Certify that C resolves the cyclic module R/I over R = ``C.ring``,
    a polynomial ring modulo Q = ``C.ring.modulus``, in every multidegree:
    through homological degree ``top``, or wholly when ``top`` is None.
    The residue field k is R/m, m = :func:`ideals.maximal_ideal`.

    C must be a complex: :func:`validate_complex` finds d o d = 0.  Without
    that, ranks give no homology, so no clause is run and the certificate
    reports the validation alone.  Whether C is minimal is reported, not
    required.
    Clause (a): H_i = 0 for 1 <= i <= top (``C.length`` when None) on every
    cell of :meth:`Homology.cell_failures`, hence in every multidegree.
    Clause (b): coker d_1 = R/I: C_0 is R in degree 0 and, modulo Q, the
    monomials of the entries of d_1 generate I.  A failure is (b, dim
    coker d_1, dim (R/I)_b) at each minimal generator b of one of I + Q and
    image + Q outside the other, or (0, the degrees of C_0, (0,)) when C_0
    is not R.
    Clause (c), on a whole resolution only: the minimized Betti table, read
    off C itself when C is minimal (minimization cancels only entries with
    m_c = m_r, so it leaves a minimal complex as it is), equals the graded
    Betti numbers of R/I from
    ``resolutions.betti_numbers``, which reads them off the upper Koszul
    simplicial complexes K^b(I) for b in the lcm lattice of I: ranks of
    their scalar boundaries, a cross-check that shares no code with (a) or
    with the minimization.  With ``top`` given it holds vacuously, and
    ``betti_got`` and ``betti_want`` are None.  The oracle takes I over a
    polynomial ring only (DomainError otherwise), so over R/Q pass ``top``.
    """
    from .resolutions import betti_numbers, minimize_complex

    validation, minimal, whole = validate_complex(C), is_minimal(C), top is None
    want = betti_numbers(I) if whole else None
    if not validation.ok:
        got = BettiTable({}) if whole else None
        return ResolutionCertificate(I, validation, minimal, [], [], False, got, want)
    strand_failures = Homology(C).cell_failures(1, C.length if whole else top)
    coker_failures = _coker_failures(C, I)
    got = betti_table(C if minimal else minimize_complex(C)) if whole else None
    return ResolutionCertificate(
        I, validation, minimal, strand_failures, coker_failures, got == want,
        got, want,
    )


def _coker_failures(C: GradedFreeComplex, I: MonomialIdeal) -> list:
    """Where coker d_1 and R/I differ, see clause (b) of
    :func:`verify_resolution`."""
    zero = (0,) * C.ring.nvars
    if C.degs(0) != (0,):
        return [(zero, C.degs(0), (0,))]
    md, Q, d1 = C.mdegs, C.ring.modulus, C.table(1)
    # C_0 is R in degree 0, so a nonzero column c of d_1 has the monomial
    # x^(m_c): when these are the minimal generators of I, image = I
    n = len(I.gens)
    if (n and C.rank(1) == n and all(d1.get(c) for c in range(n))
            and set(md[1]) == {g.exps for g in I.gens}):
        return []
    image = MonomialIdeal(C.ring, (*Q, *(
        Monomial(tuple(map(sub, md[1][c], md[0][r])))
        for c, col in d1.items() for r, _ in col
    )))
    want = MonomialIdeal(C.ring, (*Q, *I.gens))
    out = [(g.exps, 1, 0) for g in want.gens if not image.contains(g)]
    out += [(g.exps, 0, 1) for g in image.gens if not want.contains(g)]
    return sorted(out, key=lambda f: (sum(f[0]), f[0]))


# ---------------------------------------------------------------------------
# serialization


def complex_to_json(C: GradedFreeComplex) -> dict:
    ring = {"vars": list(C.ring.names), "field": field_to_json(C.ring.field)}
    if C.ring.modulus:
        ring["modulus"] = [C.ring.format_monomial(m) for m in C.ring.modulus]
    fmt, md, diffs = C.ring.format_term, C.mdegs, []
    for i in range(1, C.length + 1):
        # each entry is one term s x^(m_c - m_r), with s nonzero and canonical
        entries = sorted((r, c, s) for c, col in C.table(i).items() for r, s in col)
        diffs.append({
            "index": i,
            "rows": C.rank(i - 1),
            "cols": C.rank(i),
            "entries": [[r, c, fmt(map(sub, md[i][c], md[i - 1][r]), s)]
                        for r, c, s in entries],
        })
    return {
        "ring": ring,
        "degrees": [list(d) for d in C.degrees],
        "labels": [list(l) for l in C.labels],
        "differentials": diffs,
    }
