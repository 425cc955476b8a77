"""Graded free chain complexes and their calculus.

A :class:`GradedFreeComplex` stores, per homological degree, the internal
degrees of the free generators, plus sparse homogeneous polynomial
differentials.  All homology is computed on strands: the internal-degree-t
slice of ``C (x) R/Q`` is a finite complex of vector spaces whose
differentials are exact scalar matrices.

Sign convention for tensor products: d(f (x) g) = d(f) (x) g + (-1)^|f| f (x) d(g),
the left factor carrying the sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from operator import add

from . import linalg
from .errors import DimensionError, DomainError, RingMismatchError
from .exterior import k_acc, k_coords
from .fields import field_to_json
from .ideals import MonomialIdeal, degree_basis_mod_ideal
from .poly import Monomial, PolyMatrix, monomials_of_degree


class GradedFreeComplex:
    """A complex of graded free modules in nonnegative homological degrees.

    ``degrees[i]`` lists the internal degrees of the generators of the i-th
    term; ``diffs[i-1]`` is the matrix of d_i : F_i -> F_{i-1}.  Instances
    are immutable.
    """

    __slots__ = ("ring", "degrees", "diffs", "labels", "meta")

    def __init__(self, ring, degrees, diffs, labels=None, meta=None):
        degrees = tuple(tuple(d) for d in degrees)
        diffs = tuple(diffs)
        if len(diffs) != max(len(degrees) - 1, 0):
            raise DimensionError("need one differential per positive degree")
        for i, mat in enumerate(diffs, start=1):
            if mat.ring != ring:
                raise RingMismatchError("differential over wrong ring")
            if mat.nrows != len(degrees[i - 1]) or mat.ncols != len(degrees[i]):
                raise DimensionError(f"differential {i} has wrong shape")
        if labels is None:
            labels = tuple(
                tuple(f"F{i}[{k}]" for k in range(len(degs)))
                for i, degs in enumerate(degrees)
            )
        else:
            labels = tuple(tuple(ls) for ls in labels)
        self.ring = ring
        self.degrees = degrees
        self.diffs = diffs
        self.labels = labels
        self.meta = dict(meta) if meta else {}

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


@dataclass
class ValidationReport:
    ok: bool
    problems: list[str] = field(default_factory=list)

    def __bool__(self):
        return self.ok


def validate_complex(C: GradedFreeComplex) -> ValidationReport:
    """Check d o d = 0 exactly and homogeneity of every entry.

    Never raises; reports the first violations with their indices.
    """
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


def multidegrees(C: GradedFreeComplex) -> list[list[tuple[int, ...]]]:
    """The Z^n-degree of every generator, read off the differentials.

    C_0 = R sits in multidegree 0.  Each entry of d_i must be one term
    c x^a, and then a generator of C_i has the multidegree of its row plus
    a; every entry of its column must agree on it.  Raises DomainError for
    a multi-term entry, a disagreeing column or a column with no entry.
    """
    zero = (0,) * C.ring.nvars
    out = [[zero] * C.rank(0)]
    for i in range(1, C.length + 1):
        rows = out[i - 1]
        level: list = [None] * C.rank(i)
        for (r, c), p in C.diff(i).entries.items():
            terms = p.term_dict()
            if len(terms) != 1:
                raise DomainError(f"d_{i}[{r},{c}] = {p} is not a single term")
            m = tuple(map(add, rows[r], next(iter(terms)).exps))
            if level[c] is None:
                level[c] = m
            elif level[c] != m:
                raise DomainError(f"d_{i} column {c} disagrees on its multidegree")
        for c, m in enumerate(level):
            if m is None:
                raise DomainError(
                    f"d_{i} column {c} has no entry to fix its multidegree"
                )
        out.append(level)
    return out


def is_minimal(C: GradedFreeComplex) -> bool:
    """True iff no differential entry has a nonzero constant term."""
    for mat in C.diffs:
        for p in mat.entries.values():
            if p.constant_term:
                return False
    return True


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

    Raises DomainError if some entry of d_i is not homogeneous of degree
    deg(column) - deg(row), even where its stray terms die in R/Q.
    """
    # every entry is checked once to be homogeneous of degree
    # deg(col) - deg(row), so m*mono has the degree of the lower basis and a
    # lookup that misses it can only be a monomial killed in R/Q
    idx = {(r, m.exps): k for k, (r, m) in enumerate(basis_lo)}
    rows = [dict() for _ in basis_lo]
    rdegs, cdegs = C.degs(i - 1), C.degs(i)
    by_col: dict[int, list] = {}
    for (r, c), p in C.diff(i).entries.items():
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
    """Homology of one strand, with canonical (RREF) cycle representatives."""

    i: int
    t: int
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
    """Strand homology of C (x) R/Q: the one code that enumerates strand
    bases, assembles strand matrices and eliminates them.

    It keeps the rank of d_i on each strand (i, t) it has eliminated, each
    stratum asked for and the keyed index of each strand an element is
    expressed in, with the bases of those two; it keeps no matrix.
    ``keys[i][g]`` names generator g of C_i (g itself when ``keys`` is None).
    """

    def __init__(self, C: GradedFreeComplex, Q=None, keys=None):
        self.complex = C
        self.keys = keys
        self.extra = _extra_gens(Q)
        self.ranks: dict = {}  # (i, t) -> rank of d_i on the degree-t strand
        self.strata: dict = {}
        self.indexes: dict = {}
        self.bases: dict = {}  # the bases of the strata and indexes

    def basis(self, i: int, t: int) -> list:
        """The degree-t strand basis in degree i, kept for later queries."""
        key = (i, t)
        if key not in self.bases:
            self.bases[key] = strand_basis(self.complex, i, t, self.extra)
        return self.bases[key]

    def _basis(self, i: int, t: int) -> list:
        """The degree-t strand basis in degree i, not kept."""
        kept = self.bases.get((i, t))
        return strand_basis(self.complex, i, t, self.extra) if kept is None else kept

    def matrix(self, i: int, t: int):
        """Scalar rows of d_i on the degree-t strand, between kept bases."""
        return strand_matrix(self.complex, i, self.basis(i, t), self.basis(i - 1, t))

    def strand_dims(self, t: int, lo: int, hi: int) -> dict:
        """{i: dim H_i} of the degree-t strand for lo <= i <= hi, from ranks
        alone: dim H_i = |B_i| - r_i - r_{i+1} (dim coker d_1 for i = 0).
        Each rank r_i is taken once per (i, t) for the life of this object.
        """
        @cache
        def basis(j):
            return self._basis(j, t)

        def rank(j):
            key = (j, t)
            if key not in self.ranks:
                self.ranks[key] = 0
                if basis(j) and basis(j - 1):
                    rows = strand_matrix(self.complex, j, basis(j), basis(j - 1))
                    self.ranks[key] = linalg.rank(rows, self.complex.ring.field)
            return self.ranks[key]

        return {i: len(basis(i)) - rank(i) - rank(i + 1) for i in range(lo, hi + 1)}

    def dim(self, i: int, t: int) -> int:
        return self.strand_dims(t, i, i)[i]

    def stratum(self, i: int, t: int) -> StrandHomology:
        """H_i of the degree-t strand with canonical representatives (cycles
        reduced against the boundary RREF), computed once per (i, t)."""
        key = (i, t)
        if key not in self.strata:
            self.strata[key] = self._stratum(i, t)
        return self.strata[key]

    def _stratum(self, i: int, t: int) -> StrandHomology:
        C, field = self.complex, self.complex.ring.field
        basis_i = self.basis(i, t)
        n = len(basis_i)
        empty = linalg.EchelonForm(n, [], [], field)
        if not basis_i:
            return StrandHomology(i, t, basis_i, 0, 0, 0, empty, empty, field)
        if i >= 1:
            rows = strand_matrix(C, i, basis_i, self._basis(i - 1, t))
            cycles = linalg.kernel_basis(rows, n, field)
        else:
            cycles = [{k: field.one} for k in range(n)]
        basis_hi = self._basis(i + 1, t)
        bound = empty
        if basis_hi:
            rows_up = strand_matrix(C, i + 1, basis_hi, basis_i)
            bcols = linalg.rows_from_columns(rows_up, len(basis_hi))
            bound = linalg.echelon(bcols, n, field)
        # the two eliminations give r_i = |B_i| - dim Z_i and r_{i+1} = dim B_i
        self.ranks[(i, t)] = n - len(cycles)
        self.ranks[(i + 1, t)] = bound.rank
        reduced = [v for v in map(bound.reduce, cycles) if v]
        classes = linalg.echelon(reduced, n, field) if reduced else empty
        return StrandHomology(
            i, t, basis_i, classes.rank, len(cycles), bound.rank, classes, bound,
            field,
        )

    def strand_index(self, i: int, t: int) -> dict:
        """{(key, monomial): column} of the degree-t strand in degree i,
        built once per (i, t)."""
        key = (i, t)
        if key not in self.indexes:
            basis = self.basis(i, t)
            if self.keys is not None:
                basis = [(self.keys[i][g], m) for g, m in basis]
            self.indexes[key] = {bm: col for col, bm in enumerate(basis)}
        return self.indexes[key]

    def express(self, i: int, t: int, x: dict):
        """Coordinates of the class of a cycle in the canonical basis, or
        None if it is not a cycle class."""
        return self.stratum(i, t).express(k_coords(x, self.strand_index(i, t)))

    def is_boundary(self, i: int, t: int, x: dict) -> bool:
        if not x:
            return True
        return self.stratum(i, t).is_boundary(k_coords(x, self.strand_index(i, t)))


def strand_homology(C: GradedFreeComplex, Q, t: int, i: int) -> StrandHomology:
    """H_i of the degree-t strand of C (x) R/Q with canonical representatives;
    kept while perfbench/tracer.py names this wrapper as a span."""
    return Homology(C, Q).stratum(i, t)


def strand_homology_dim(C: GradedFreeComplex, Q, t: int, i: int) -> int:
    """dim H_i of the degree-t strand of C (x) R/Q, from ranks alone; kept
    while perfbench/tracer.py names this wrapper as a span."""
    return Homology(C, Q).dim(i, t)


def resolution_failures(C: GradedFreeComplex, top: int, D: int, hilbert):
    """Where C fails to resolve a module M on the strands t <= D.

    Returns ``(strand_failures, coker_failures)``, both ordered by t, then i:
    (i, t, dim H_i) for each 1 <= i <= top with H_i != 0, and
    (t, dim coker d_1, hilbert(t)) wherever coker d_1 misses M's Hilbert
    function ``hilbert``.
    """
    H = Homology(C)
    strand_failures, coker_failures = [], []
    for t in range(0, D + 1):
        dims = H.strand_dims(t, 0, top)
        strand_failures += [(i, t, dims[i]) for i in range(1, top + 1) if dims[i]]
        want = hilbert(t)
        if dims[0] != want:
            coker_failures.append((t, dims[0], want))
    return strand_failures, coker_failures


def resolves_k_failures(C: GradedFreeComplex, top: int, D: int):
    """The "C resolves the residue field" certificate on the strands t <= D.

    Returns ``(validation, minimal, strand_failures, coker_failures)``: the
    d o d = 0 and homogeneity report, whether C is minimal, and the failures
    of :func:`resolution_failures` for H_i, 1 <= i <= top, and coker d_1 = k,
    the strand failures ordered by (i, t).
    """
    strand_failures, coker_failures = resolution_failures(
        C, top, D, lambda t: int(t == 0)
    )
    strand_failures.sort()
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
    bound: int
    validation: ValidationReport  # d o d = 0 and homogeneity
    strand_failures: list  # (i, t, dim H_i)
    coker_failures: list  # (t, got, want)
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
            f"strand exactness (t <= {self.bound}): "
            + ("PASS" if self.exactness_ok else f"FAIL at {self.strand_failures[:3]}"),
            "cokernel of d_1 matches R/I: "
            + ("PASS" if self.coker_ok else f"FAIL at {self.coker_failures[:3]}"),
            "Betti table matches lcm-lattice Betti numbers: "
            + ("PASS" if self.betti_ok else "FAIL"),
        ]
        return "\n".join(lines)


def verify_resolution(
    C: GradedFreeComplex, I: MonomialIdeal, D: int | None = None
) -> ResolutionCertificate:
    """Certify that C is a free resolution of R/I.

    C must be a complex: :func:`validate_complex` finds d o d = 0 and every
    entry homogeneous.  Without that, ranks give no homology and the strand
    clauses prove nothing.
    Clause (a): every strand H_i vanishes for 1 <= i <= length, 0 <= t <= D.
    Clause (b): coker(d_1) has the Hilbert function of R/I up to D.
    Clause (c): the minimized Betti table equals the graded Betti numbers of
    R/I computed independently from the lcm lattice of I — the oracle that
    makes the finite strand check a sound certificate.
    """
    from .resolutions import betti_numbers, minimize_complex

    if D is None:
        D = C.max_degree() + 2
    strand_failures, coker_failures = resolution_failures(
        C, C.length, D, lambda t: len(degree_basis_mod_ideal(I, t))
    )
    got = betti_table(minimize_complex(C))
    want_table = betti_numbers(I)
    return ResolutionCertificate(
        I, D, validate_complex(C), strand_failures, coker_failures,
        got == want_table, got, want_table,
    )


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
