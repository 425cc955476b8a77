"""Graded free chain complexes and their calculus.

A :class:`GradedFreeComplex` stores, per homological degree, the internal
degrees and multidegrees of the free generators, plus each differential as
a monomial matrix: one scalar per entry, the monomial being fixed by the
multidegrees.  Its polynomial differentials are a view built when read,
or, for a complex given by polynomials, the input its tables are read off.
All homology is computed on strands or on their multidegree
blocks: the internal-degree-t slice of ``C (x) R/Q``, or its multidegree-b
slice, is a finite complex of vector spaces whose differentials are exact
scalar matrices.  Exactness in every multidegree is certified on finitely
many cells, one block each.

Sign convention for tensor products: d(f (x) g) = d(f) (x) g + (-1)^|f| f (x) d(g),
the left factor carrying the sign.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import product
from operator import add, ge, sub

from . import linalg
from .errors import DimensionError, DomainError, RingMismatchError
from .exterior import k_acc, k_coords
from .fields import field_to_json
from .ideals import MonomialIdeal
from .poly import Monomial, PolyMatrix, Polynomial, monomials_of_degree


class GradedFreeComplex:
    """A complex of graded free modules in nonnegative homological degrees.

    ``degrees[i]`` lists the internal degrees of the generators of the i-th
    term.  Every complex the package builds on monomials is Z^n-graded, each
    entry of d_i one term s x^(m_c - m_r): ``mdegs[i]`` lists the
    multidegrees m_g of the generators of C_i, and ``table(i)`` is d_i as a
    monomial matrix (Miller-Sturmfels, Combinatorial Commutative Algebra,
    ch. 1), the scalars {c: [(r, s)]} of its nonzero entries.  A GF(p)
    scalar is its int value in [0, p) and an integral rational an int, so
    elimination rows need no conversion.  ``diffs[i-1]``, the matrix of
    d_i : F_i -> F_{i-1} with polynomial entries, is a view built on first
    read from a complex made by :meth:`from_tables`.

    A complex given by polynomial differentials reads its multidegrees and
    tables off them on first use, and raises DomainError there when it is
    not Z^n-graded (see :meth:`_read_tables`).  Instances are immutable.
    """

    __slots__ = ("ring", "degrees", "labels", "meta", "_diffs", "_mdegs", "_tables")

    def __init__(self, ring, degrees, diffs, labels=None, meta=None):
        degrees = tuple(tuple(d) for d in degrees)
        diffs = tuple(diffs)
        if len(diffs) != max(len(degrees) - 1, 0):
            raise DimensionError("need one differential per positive degree")
        for i, mat in enumerate(diffs, start=1):
            if mat.ring != ring:
                raise RingMismatchError("differential over wrong ring")
            if (mat.nrows, mat.ncols) != (len(degrees[i - 1]), len(degrees[i])):
                raise DimensionError(f"differential {i} has wrong shape")
        self._set(ring, degrees, labels, meta)
        self._diffs, self._mdegs, self._tables = diffs, None, None

    @classmethod
    def from_tables(cls, ring, mdegs, tables, labels=None, meta=None):
        """The complex with generator multidegrees ``mdegs``, internal
        degrees their totals, and d_i given by ``tables[i-1]`` in the
        scalar form of :meth:`table`; each entry s at (r, c) stands for
        s x^(m_c - m_r), which the caller keeps a monomial."""
        mdegs = tuple(tuple(m) for m in mdegs)
        tables = tuple(tables)
        if len(tables) != max(len(mdegs) - 1, 0):
            raise DimensionError("need one differential per positive degree")
        self = cls.__new__(cls)
        degrees = tuple(tuple(sum(m) for m in level) for level in mdegs)
        self._set(ring, degrees, labels, meta)
        self._diffs, self._mdegs, self._tables = None, mdegs, tables
        return self

    def _set(self, ring, degrees, labels, meta):
        if labels is None:
            labels = tuple(
                tuple(f"F{i}[{k}]" for k in range(len(degs)))
                for i, degs in enumerate(degrees)
            )
        else:
            labels = tuple(tuple(ls) for ls in labels)
        self.ring = ring
        self.degrees = degrees
        self.labels = labels
        self.meta = dict(meta) if meta else {}

    @property
    def diffs(self) -> tuple:
        if self._diffs is None:
            ring, md = self.ring, self._mdegs
            self._diffs = tuple(
                PolyMatrix(ring, self.rank(i - 1), self.rank(i), {
                    (r, c): _term(ring, md[i][c], md[i - 1][r], s)
                    for c, col in table.items() for r, s in col
                })
                for i, table in enumerate(self._tables, start=1)
            )
        return self._diffs

    @property
    def mdegs(self) -> tuple:
        """The multidegree of every generator, per homological degree."""
        if self._mdegs is None:
            self._read_tables()
        return self._mdegs

    def table(self, i: int) -> dict:
        """{c: [(r, s)]}: the scalar s of each nonzero entry d_i[r, c] =
        s x^(m_c - m_r); empty off the range."""
        if self._tables is None:
            self._read_tables()
        return self._tables[i - 1] if 1 <= i <= self.length else {}

    def _read_tables(self):
        """Read the multidegrees and tables off polynomial differentials.

        C_0 = R sits in multidegree 0.  Each entry of d_i must be one term
        s x^a of degree deg(c) - deg(r), and then a generator of C_i has
        the multidegree of its row plus a; every entry of its column must
        agree on it.  A generator whose column is zero takes its
        multidegree from its row in d_{i+1}: an entry s x^a there, in a
        column another row fixes at m, puts it at m - a.  Raises
        DomainError for a multi-term or inhomogeneous entry, a disagreeing
        column or a generator that no entry fixes.
        """

        def term(i, r, c, p):
            terms = p.term_dict()
            if len(terms) != 1:
                raise DomainError(f"d_{i}[{r},{c}] = {p} is not a single term")
            return next(iter(terms.items()))

        scalar = table_scalar(self.ring.field)
        out, tables = [[(0,) * self.ring.nvars] * self.rank(0)], []
        for i in range(1, self.length + 1):
            rows, level, table = out[i - 1], [None] * self.rank(i), {}
            for (r, c), p in self._diffs[i - 1].entries.items():
                mono, s = term(i, r, c, p)
                if mono.degree != self.degrees[i][c] - self.degrees[i - 1][r]:
                    raise DomainError(f"d_{i}[{r},{c}] is not homogeneous")
                m = tuple(map(add, rows[r], mono.exps))
                if level[c] is None:
                    level[c] = m
                elif level[c] != m:
                    raise DomainError(f"d_{i} column {c} disagrees on its multidegree")
                table.setdefault(c, []).append((r, scalar(s)))
            if None in level and i < self.length:
                up = [(r, c, term(i + 1, r, c, p)[0].exps)
                      for (r, c), p in sorted(self._diffs[i].entries.items())]
                above: dict = {}
                for r, c, a in up:
                    if level[r] is not None and c not in above:
                        above[c] = tuple(map(add, level[r], a))
                for r, c, a in up:
                    if level[r] is None and c in above:
                        level[r] = tuple(map(sub, above[c], a))
            for c, m in enumerate(level):
                if m is None:
                    raise DomainError(
                        f"d_{i} column {c} has no entry to fix its multidegree"
                    )
            out.append(level)
            tables.append(table)
        self._mdegs = tuple(tuple(level) for level in out)
        self._tables = tuple(tables)

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

    def diff(self, i: int) -> PolyMatrix:
        """The matrix of d_i; a zero matrix of the right shape off the range."""
        if 1 <= i <= self.length:
            return self.diffs[i - 1]
        return PolyMatrix.zero(self.ring, self.rank(i - 1), self.rank(i))

    def total_ranks(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.degrees)

    def max_degree(self) -> int:
        return max((max(d, default=0) for d in self.degrees), default=0)

    def __repr__(self):
        return f"GradedFreeComplex(ranks={self.total_ranks()})"


def table_scalar(field):
    """The map from a scalar of ``field`` (or an int) to its form in a
    table: a GF(p) element as its int value in [0, p), a rational as an
    int where it is integral."""
    p = getattr(field, "p", 0)
    if p:
        return lambda c: (c if type(c) is int else c.value) % p
    return lambda c: c.numerator if type(c) is Fraction and c.denominator == 1 else c


@dataclass
class ValidationReport:
    ok: bool
    problems: list[str] = field(default_factory=list)

    def __bool__(self):
        return self.ok


def validate_complex(C: GradedFreeComplex) -> ValidationReport:
    """Check d o d = 0 exactly and homogeneity of every entry.

    A complex with tables is homogeneous: reading them off polynomials
    checks every entry, and :meth:`GradedFreeComplex.from_tables` takes
    the internal degrees from the multidegrees.  On the tables, entry
    (r, c) of d_i o d_{i+1} is the sum of s s' over the middle generators
    times x^(m_c - m_r), which takes one kill test in R/Q.  A complex whose
    entries are not single terms is checked on its polynomials.  Never
    raises; reports the first violations with their indices.
    """
    try:
        md = C.mdegs
    except DomainError:
        return _validate_polynomials(C)
    ring = C.ring
    p = getattr(ring.field, "p", 0)
    kill = [g.exps for g in ring.modulus]
    for i in range(1, C.length):
        lower, failures = C.table(i), []
        for c, col in C.table(i + 1).items():
            acc: dict = {}
            for k, s in col:
                for r, t in lower.get(k, ()):
                    acc[r] = acc.get(r, 0) + t * s
            for r, s in acc.items():
                if s % p if p else s:
                    e = tuple(map(sub, md[i + 1][c], md[i - 1][r]))
                    if not any(all(map(ge, e, g)) for g in kill):
                        failures.append((r, c, s))
        if failures:
            r, c, s = min(failures, key=lambda f: f[:2])
            return ValidationReport(False, [
                f"d_{i} o d_{i + 1} != 0, first nonzero entry at ({r},{c}): "
                f"{_term(ring, md[i + 1][c], md[i - 1][r], s)}"
            ])
    return ValidationReport(True)


def _term(ring, hi, lo, s) -> Polynomial:
    """s x^(hi - lo) in ``ring``."""
    return Polynomial.from_monomial(ring, Monomial(tuple(map(sub, hi, lo))), s)


def _validate_polynomials(C: GradedFreeComplex) -> ValidationReport:
    """:func:`validate_complex` on the polynomial differentials, the one
    path for entries that are not single terms."""
    problems = []
    for i in range(1, C.length + 1):
        mat = C.diff(i)
        rdegs, cdegs = C.degs(i - 1), C.degs(i)
        for (r, c), p in sorted(mat.entries.items()):
            want = cdegs[c] - rdegs[r]
            if want < 0:
                problems.append(
                    f"d_{i}[{r},{c}] maps degree {cdegs[c]} below degree {rdegs[r]}"
                )
            elif p.homogeneous_degree != want:
                problems.append(
                    f"d_{i}[{r},{c}] = {p} is not homogeneous of degree {want}"
                )
        if problems:
            break
    for i in range(1, C.length):
        comp = C.diff(i) @ C.diff(i + 1)
        if not comp.is_zero:
            r, c = sorted(comp.entries)[0]
            problems.append(
                f"d_{i} o d_{i + 1} != 0, first nonzero entry at ({r},{c}): "
                f"{comp.entries[(r, c)]}"
            )
            break
    return ValidationReport(not problems, problems)


def is_minimal(C: GradedFreeComplex) -> bool:
    """True iff no differential entry has a nonzero constant term: on the
    tables, no entry has m_c = m_r."""
    try:
        md = C.mdegs
    except DomainError:
        return not any(
            p.constant_term for mat in C.diffs for p in mat.entries.values()
        )
    return not any(
        md[i][c] == md[i - 1][r]
        for i in range(1, C.length + 1)
        for c, col in C.table(i).items() for r, _ in col
    )


def complex_from_boundary(ring, levels, degree, label, boundary, meta=None):
    """The free complex with basis keys ``levels[i]`` in homological degree
    i, generator degrees ``degree(key)`` and labels ``label(key)``.

    ``boundary(key)`` is d(key) as an element keyed by the previous level;
    column order follows ``levels[i]`` and row order ``levels[i - 1]``.
    """
    diffs = []
    for i in range(1, len(levels)):
        idx = {key: r for r, key in enumerate(levels[i - 1])}
        entries: dict = {}
        for col, key in enumerate(levels[i]):
            for lower, p in boundary(key).items():
                k_acc(entries, (idx[lower], col), p)
        diffs.append(PolyMatrix(ring, len(levels[i - 1]), len(levels[i]), entries))
    degrees = [[degree(key) for key in lvl] for lvl in levels]
    labels = [[label(key) for key in lvl] for lvl in levels]
    return GradedFreeComplex(ring, degrees, diffs, labels, meta)


# ---------------------------------------------------------------------------
# tensor products, truncation, star product


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
    without the terms whose factor drops below homological degree ``lo``."""

    def boundary(key):
        i, j, fi, gj = key
        out: dict = {}
        if i > lo:
            for r, p in F.diff(i).column(fi).items():
                k_acc(out, (i - 1, j, r, gj), p)
        if j > lo:
            sign = -1 if i % 2 else 1
            for r, p in G.diff(j).column(gj).items():
                k_acc(out, (i, j - 1, fi, r), p.scale(sign))
        return out

    return boundary


def tensor_complexes(F: GradedFreeComplex, G: GradedFreeComplex) -> GradedFreeComplex:
    if F.ring != G.ring:
        raise RingMismatchError("tensor factors over different rings")
    return complex_from_boundary(
        F.ring,
        [tensor_basis(F, G, n) for n in range(F.length + G.length + 1)],
        lambda k: F.degs(k[0])[k[2]] + G.degs(k[1])[k[3]],
        lambda k: f"{F.labels[k[0]][k[2]]}(x){G.labels[k[1]][k[3]]}",
        _tensor_boundary(F, G),
    )


def stupid_truncation(C: GradedFreeComplex, n: int) -> GradedFreeComplex:
    """(F_{>=n}, d_{>=n}): terms below n zeroed, d_n zeroed, the rest kept."""
    if n < 0:
        raise DomainError("truncation index must be nonnegative")
    if n == 0:
        return C
    if n > C.length:
        return GradedFreeComplex(C.ring, ((),), ())
    degrees = [() if i < n else C.degs(i) for i in range(C.length + 1)]
    diffs = []
    for i in range(1, C.length + 1):
        if i > n:
            diffs.append(C.diff(i))
        else:
            diffs.append(
                PolyMatrix.zero(C.ring, len(degrees[i - 1]), len(degrees[i]))
            )
    labels = [() if i < n else C.labels[i] for i in range(C.length + 1)]
    return GradedFreeComplex(C.ring, degrees, diffs, labels)


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

    def boundary(key):
        i, j, fi, gj = key
        if i + j > 2:
            return higher(key)
        p = F.diff(1).entry(0, fi) * G.diff(1).entry(0, gj)
        return {} if p.is_zero else {unit: p}

    return complex_from_boundary(
        F.ring,
        [[unit]] + [star_basis(F, G, n) for n in range(1, F.length + G.length)],
        lambda k: F.degs(k[0])[k[2]] + G.degs(k[1])[k[3]] if k[0] else 0,
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
    ``basis_lo`` one degree down (rows indexed by ``basis_lo``).

    It serves only whole strands (see :class:`Homology` for blocks).
    Raises DomainError if some entry of d_i in a column of ``basis_hi`` is
    not homogeneous of degree deg(column) - deg(row), even where its stray
    terms die in R/Q.
    """
    # every entry used is checked once to be homogeneous of degree
    # deg(col) - deg(row), so m*mono has the degree of the lower basis and a
    # lookup that misses it can only be a monomial killed in R/Q
    idx = {(r, m.exps): k for k, (r, m) in enumerate(basis_lo)}
    rows = [dict() for _ in basis_lo]
    rdegs, cdegs = C.degs(i - 1), C.degs(i)
    cols = {g for g, _ in basis_hi}
    by_col: dict[int, list] = {}
    for (r, c), p in C.diff(i).entries.items():
        if c not in cols:
            continue
        want = cdegs[c] - rdegs[r]
        terms = []
        for mono, coeff in p.term_dict().items():
            if mono.degree != want:
                raise DomainError(f"d_{i}[{r},{c}] is not homogeneous")
            terms.append((mono.exps, coeff))
        by_col.setdefault(c, []).append((r, terms))
    for col, (g, m) in enumerate(basis_hi):
        for r, terms in by_col.get(g, ()):
            for exps, coeff in terms:
                row = idx.get((r, tuple(map(add, m.exps, exps))))
                if row is None:
                    continue
                cur = rows[row].get(col)
                s = coeff if cur is None else cur + coeff
                if s:
                    rows[row][col] = s
                else:
                    del rows[row][col]
    return rows


@dataclass
class StrandHomology:
    """Homology of one strand or block, with canonical (RREF) cycle
    representatives."""

    i: int
    t: object  # the degree t of a strand or the multidegree b of a block
    basis: list
    dim: int
    cycle_dim: int
    boundary_dim: int
    _classes: linalg.EchelonForm  # the RREF of the representatives
    _boundaries: linalg.EchelonForm
    _field: object

    @property
    def representatives(self) -> list[dict]:
        return self._classes.rows

    def is_boundary(self, vec: dict) -> bool:
        return self._boundaries.contains(vec)

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
    element lies in one block, so :meth:`express` and :meth:`is_boundary`
    take that block.  A ``support`` maps i to a set that holds every
    multidegree where H_i can be nonzero (the caller names the theorem that
    says so); :meth:`strand_dims` then sums over those blocks alone.

    An entry d_i[r, c] is one term s x^(m_c - m_r), so a block matrix is
    the scalar table ``C.table(i)`` on the generators present;
    :func:`strand_matrix` serves only whole strands.

    It keeps the rank of d_i on each strand or block it has eliminated,
    each stratum asked for and the keyed index of each block an element is
    expressed in, with the bases of those two.  A strand is keyed (i, t)
    and a block (i, b).  ``keys[i][g]`` names generator g of C_i (g itself
    when ``keys`` is None); its multidegree is ``C.mdegs[i][g]``.
    """

    def __init__(self, C: GradedFreeComplex, Q=None, keys=None, support=None):
        self.complex = C
        self.keys = keys
        self.extra = _extra_gens(Q)
        self.support = support
        self.ranks: dict = {}  # (i, piece) -> rank of d_i on the piece
        self.strata: dict = {}
        self.indexes: dict = {}
        self.bases: dict = {}  # the bases of the strata and indexes
        self._blocks: dict = {}  # i -> {t: the supported blocks of degree t}
        self._kill = [g.exps for g in C.ring.modulus + self.extra]

    @cached_property
    def mdegs(self) -> list[dict]:
        """{key: multidegree} of the generators of each C_i, in order."""
        C = self.complex
        keys = self.keys
        if keys is None:
            keys = [range(C.rank(i)) for i in range(C.length + 1)]
        return [dict(zip(k, m)) for k, m in zip(keys, C.mdegs)]

    def _pieces(self, i: int, t: int):
        """The pieces that :meth:`strand_dims` sums over in the degree-t
        strand of degree i: the strand itself, or its supported blocks."""
        if self.support is None:
            return (t,)
        if i not in self._blocks:
            by_degree: dict = {}
            for b in sorted(self.support(i)):
                by_degree.setdefault(sum(b), []).append(b)
            self._blocks[i] = by_degree
        return self._blocks[i].get(t, ())

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
        mdegs = self.mdegs[i].values() if 0 <= i < len(self.mdegs) else ()
        out = []
        for g, m in enumerate(mdegs):
            e = tuple(map(sub, s, m))
            if min(e) >= 0 and not any(all(map(ge, e, k)) for k in self._kill):
                out.append((g, Monomial(e)))
        return out

    def strand_dims(self, t: int, lo: int, hi: int) -> dict:
        """{i: dim H_i} of the degree-t strand for lo <= i <= hi, from ranks
        alone: dim H_i = |B_i| - r_i - r_{i+1} (dim coker d_1 for i = 0),
        summed over the pieces.  Each rank r_i is taken once per piece for
        the life of this object.
        """
        basis = cache(self._basis)

        def rank(j, s):
            key, upper, lower = (j, s), basis(j, s), basis(j - 1, s)
            if key not in self.ranks:
                self.ranks[key] = linalg.rank(
                    self._rows(j, s, upper, lower), self.complex.ring.field
                ) if upper and lower else 0
            return self.ranks[key]

        return {
            i: sum(
                len(basis(i, s)) - rank(i, s) - rank(i + 1, s)
                for s in self._pieces(i, t)
            )
            for i in range(lo, hi + 1)
        }

    def dim(self, i: int, t: int) -> int:
        return self.strand_dims(t, i, i)[i]

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

    def cells(self, levels, points=()) -> list:
        """One point of each cell on which the blocks of the C_i, i in
        ``levels``, are constant: each the lower corner of its cell.

        The block of C_i at b is spanned by the generators present there
        (m_g <= b and x^(b - m_g) not in Q), with the scalars of d as
        matrix entries, so it changes only where b_k crosses a threshold
        m_g[k] + q[k], q in gens(Q) or q = 0; the cells are the boxes of
        that grid.  Over R the block at b is the block at lcm{m_g : m_g <=
        b}, and the cells are the points of the lcm-closure of the m_g
        (Bayer-Sturmfels, "Cellular resolutions of monomial modules", 1998;
        Miller-Sturmfels, Ch. 4).  ``points`` are further multidegrees
        that split the cells as generators would.  In both cases the cell
        of b is the largest cell point <= b, when there is one; otherwise
        no generator is present at b.
        """
        pts = {m for i in levels for m in self.mdegs[i].values()}
        pts.update(points)
        if not self._kill:
            out: set = set()
            for p in sorted(pts):
                out |= {tuple(map(max, p, c)) for c in out}
                out.add(p)
            return sorted(out)
        shifts = [(0,) * self.complex.ring.nvars, *self._kill]
        axes = [
            sorted({p[k] + q[k] for p in pts for q in shifts})
            for k in range(self.complex.ring.nvars)
        ]
        return list(product(*axes))

    def cell_failures(self, lo: int, hi: int, points=()) -> list:
        """(i, b, dim H_i) for lo <= i <= hi wherever H_i is nonzero on a
        cell of :meth:`cells` (with ``points``), b its lower corner,
        ordered by (i, |b|, b).

        H_i is constant on each cell, so this is H_i in every multidegree.
        Which generators are present at b is read off bitsets per
        variable, and each distinct presence is swept once; the rank of d_i
        on a block depends only on the generators present in degrees i and
        i - 1, and is taken once per such pair, on the scalar table.
        """
        C = self.complex
        levels = range(max(lo - 1, 0), min(hi + 1, C.length) + 1)
        gens = [m for i in levels for m in self.mdegs[i].values()]
        spans, start = {}, 0
        for i in levels:
            spans[i] = (start, (1 << len(self.mdegs[i])) - 1)
            start += len(self.mdegs[i])
        # per variable k: the values of m_g[k], at index j the generators
        # g with m_g[k] <= the j-th value (none at j = 0), and the lookups
        axes = []
        for k in range(C.ring.nvars):
            vals, masks, acc = [], [0], 0
            for v, g in sorted((m[k], g) for g, m in enumerate(gens)):
                acc |= 1 << g
                if vals and vals[-1] == v:
                    masks[-1] = acc
                else:
                    vals.append(v)
                    masks.append(acc)
            axes.append((vals, masks, {}))

        def below(c):
            out = (1 << len(gens)) - 1
            for (vals, masks, seen), v in zip(axes, c):
                if v not in seen:
                    seen[v] = masks[bisect_right(vals, v)]
                out &= seen[v]
            return out

        def present_in(present):
            return [g for g in range(present.bit_length()) if present >> g & 1]

        ranks: dict = {}  # (j, present in C_j, present in C_{j-1}) -> rank

        def rank(j, bits):
            key = (j, bits.get(j, 0), bits.get(j - 1, 0))
            if key not in ranks:
                ranks[key] = key[1] and key[2] and linalg.rank(
                    self._block_rows(j, present_in(key[1]), present_in(key[2])),
                    C.ring.field,
                )
            return ranks[key]

        failures, dims = [], {}  # dims: present -> [(i, dim H_i)]
        for b in self.cells(levels, points):
            present = below(b)
            for q in self._kill:
                if present:
                    present &= ~below(tuple(map(sub, b, q)))
            if present not in dims:
                bits = {i: present >> s & full for i, (s, full) in spans.items()}
                dims[present] = [
                    (i, bits.get(i, 0).bit_count() - rank(i, bits) - rank(i + 1, bits))
                    for i in range(lo, hi + 1)
                ]
            failures += [(i, b, d) for i, d in dims[present] if d]
        return sorted(failures, key=lambda f: (f[0], sum(f[1]), f[1]))

    def stratum(self, i: int, s) -> StrandHomology:
        """H_i of the whole strand s = t or the block s = b with canonical
        representatives (cycles reduced against the boundary RREF),
        computed once per (i, s)."""
        key = (i, s)
        if key not in self.strata:
            self.strata[key] = self._stratum(i, s)
        return self.strata[key]

    def _stratum(self, i: int, s) -> StrandHomology:
        field = self.complex.ring.field
        basis_i = self.basis(i, s)
        n = len(basis_i)
        empty = linalg.EchelonForm(n, [], [], field)
        if not basis_i:
            return StrandHomology(i, s, basis_i, 0, 0, 0, empty, empty, field)
        if i >= 1:
            rows = self._rows(i, s, basis_i, self._basis(i - 1, s))
            cycles = linalg.kernel_basis(rows, n, field)
        else:
            cycles = [{k: field.one} for k in range(n)]
        basis_hi = self._basis(i + 1, s)
        bound = empty
        if basis_hi:
            rows_up = self._rows(i + 1, s, basis_hi, basis_i)
            bcols = linalg.rows_from_columns(rows_up, len(basis_hi))
            bound = linalg.echelon(bcols, n, field)
        # the two eliminations give r_i = |B_i| - dim Z_i and r_{i+1} = dim B_i
        self.ranks[(i, s)] = n - len(cycles)
        self.ranks[(i + 1, s)] = bound.rank
        reduced = [v for v in map(bound.reduce, cycles) if v]
        classes = linalg.echelon(reduced, n, field) if reduced else empty
        return StrandHomology(
            i, s, basis_i, classes.rank, len(cycles), bound.rank, classes, bound,
            field,
        )

    def strand_index(self, i: int, s) -> dict:
        """{(key, monomial): column} of the strand or block s in degree i,
        built once per (i, s)."""
        key = (i, s)
        if key not in self.indexes:
            basis = self.basis(i, s)
            if self.keys is not None:
                basis = [(self.keys[i][g], m) for g, m in basis]
            self.indexes[key] = {bm: col for col, bm in enumerate(basis)}
        return self.indexes[key]

    def express(self, i: int, b, x: dict):
        """Coordinates of the class of a cycle x of the block b in the
        canonical basis of ``stratum(i, b)``, or None if it is not a cycle
        class.  Raises KeyError for a term of x off the block."""
        return self.stratum(i, b).express(k_coords(x, self.strand_index(i, b)))

    def is_boundary(self, i: int, b, x: dict) -> bool:
        """Whether x, an element of the block b, is a boundary."""
        return not x or self.stratum(i, b).is_boundary(
            k_coords(x, self.strand_index(i, b))
        )


def strand_homology(C: GradedFreeComplex, Q, t: int, i: int) -> StrandHomology:
    """H_i of the degree-t strand of C (x) R/Q with canonical representatives;
    kept while perfbench/tracer.py names this wrapper as a span."""
    return Homology(C, Q).stratum(i, t)


def strand_homology_dim(C: GradedFreeComplex, Q, t: int, i: int) -> int:
    """dim H_i of the degree-t strand of C (x) R/Q, from ranks alone; kept
    while perfbench/tracer.py names this wrapper as a span."""
    return Homology(C, Q).dim(i, t)


def resolves_k_failures(C: GradedFreeComplex, top: int):
    """The "C resolves the residue field" certificate, in every multidegree.

    Returns ``(validation, minimal, strand_failures, coker_failures)``: the
    d o d = 0 and homogeneity report, whether C is minimal, the cells
    (i, b, dim H_i) where H_i != 0 for 1 <= i <= top, and the cells
    (b, dim coker d_1, dim k_b) where coker d_1 is not k, both from
    :meth:`Homology.cell_failures`.  The unit vectors split the cells so
    that the origin is a cell of its own.
    """
    n = C.ring.nvars
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    failures = Homology(C).cell_failures(0, top, units)
    zero = (0,) * n
    h0 = {b: d for i, b, d in failures if i == 0}
    coker_failures = [(b, d, 0) for b, d in h0.items() if b != zero]
    if h0.get(zero, 0) != 1:
        coker_failures.insert(0, (zero, h0.get(zero, 0), 1))
    strand_failures = [f for f in failures if f[0] >= 1]
    return validate_complex(C), is_minimal(C), strand_failures, coker_failures


# ---------------------------------------------------------------------------
# Betti tables and resolution certificates


@dataclass
class BettiTable:
    """Graded Betti numbers beta_{i,t}, read off a minimal complex or
    computed by ``resolutions.betti_numbers``."""

    entries: dict

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


@dataclass
class ResolutionCertificate:
    """Outcome of the resolution check for a monomial ideal: C is a complex,
    plus the three clauses of :func:`verify_resolution`."""

    ideal: MonomialIdeal
    validation: ValidationReport  # d o d = 0 and homogeneity
    strand_failures: list  # (i, b, dim H_i) per failing cell
    coker_failures: list  # (b, dim coker d_1, dim (R/I)_b)
    betti_ok: bool
    betti_got: BettiTable
    betti_want: BettiTable

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

    def summary(self) -> str:
        lines = [
            "d o d = 0 and homogeneous: "
            + ("PASS" if self.validation.ok else f"FAIL: {self.validation.problems}"),
            "exactness in every multidegree: "
            + ("PASS" if self.exactness_ok else f"FAIL at {self.strand_failures[:3]}"),
            "cokernel of d_1 matches R/I: "
            + ("PASS" if self.coker_ok else f"FAIL at {self.coker_failures[:3]}"),
            "Betti table matches lcm-lattice Betti numbers: "
            + ("PASS" if self.betti_ok else "FAIL"),
        ]
        return "\n".join(lines)


def verify_resolution(C: GradedFreeComplex, I: MonomialIdeal) -> ResolutionCertificate:
    """Certify that C is a free resolution of R/I, in every multidegree.

    C must be a complex: :func:`validate_complex` finds d o d = 0 and every
    entry homogeneous.  Without that, ranks give no homology and the
    exactness clause proves nothing.
    Clause (a): H_i = 0 for 1 <= i <= length on every cell of
    :meth:`Homology.cells`, hence in every multidegree.
    Clause (b): coker d_1 = R/I: C_0 is R in degree 0 and the monomials of
    the entries of d_1 generate I.  A failure is (b, dim coker d_1, dim
    (R/I)_b) at each minimal generator b of one ideal outside the other,
    or (0, the degrees of C_0, (0,)) when C_0 is not R.
    Clause (c): the minimized Betti table equals the graded Betti numbers of
    R/I from ``resolutions.betti_numbers``, which reads them off the upper
    Koszul simplicial complexes K^b(I) for b in the lcm lattice of I: ranks
    of their scalar boundaries, a cross-check that shares no code with (a)
    or with the minimization.
    Raises DomainError when C is not Z^n-graded (see ``GradedFreeComplex.mdegs``).
    """
    from .resolutions import betti_numbers, minimize_complex

    strand_failures = Homology(C).cell_failures(1, C.length)
    coker_failures = _coker_failures(C, I)
    got = betti_table(minimize_complex(C))
    want_table = betti_numbers(I)
    return ResolutionCertificate(
        I, validate_complex(C), strand_failures, coker_failures,
        got == want_table, got, want_table,
    )


def _coker_failures(C: GradedFreeComplex, I: MonomialIdeal) -> list:
    """Where coker d_1 and R/I differ, see clause (b) of
    :func:`verify_resolution`."""
    zero = (0,) * C.ring.nvars
    if C.degs(0) != (0,):
        return [(zero, C.degs(0), (0,))]
    image = MonomialIdeal(
        C.ring, tuple(m for p in C.diff(1).entries.values() for m in p.term_dict())
    )
    out = [(g.exps, 1, 0) for g in I.gens if not image.contains(g)]
    out += [(g.exps, 0, 1) for g in image.gens if not I.contains(g)]
    return sorted(out, key=lambda f: (sum(f[0]), f[0]))


# ---------------------------------------------------------------------------
# serialization


def complex_to_json(C: GradedFreeComplex) -> dict:
    ring = {"vars": list(C.ring.names), "field": field_to_json(C.ring.field)}
    if C.ring.modulus:
        ring["modulus"] = [C.ring.format_monomial(m) for m in C.ring.modulus]
    diffs = []
    for i in range(1, C.length + 1):
        mat = C.diff(i)
        diffs.append(
            {
                "index": i,
                "rows": mat.nrows,
                "cols": mat.ncols,
                "entries": [
                    [r, c, str(p)] for (r, c), p in sorted(mat.entries.items())
                ],
            }
        )
    return {
        "ring": ring,
        "degrees": [list(d) for d in C.degrees],
        "labels": [list(l) for l in C.labels],
        "differentials": diffs,
    }
