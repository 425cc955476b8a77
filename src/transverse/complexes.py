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
from operator import add

from . import linalg
from .errors import DimensionError, DomainError, RingMismatchError
from .ideals import MonomialIdeal, degree_basis_mod_ideal
from .poly import Monomial, PolyMatrix, Polynomial, monomials_of_degree


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


def is_minimal(C: GradedFreeComplex) -> bool:
    """True iff no differential entry has a nonzero constant term."""
    for mat in C.diffs:
        for p in mat.entries.values():
            if p.constant_term:
                return False
    return True


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


def tensor_complexes(F: GradedFreeComplex, G: GradedFreeComplex) -> GradedFreeComplex:
    if F.ring != G.ring:
        raise RingMismatchError("tensor factors over different rings")
    ring = F.ring
    length = F.length + G.length
    bases = [tensor_basis(F, G, n) for n in range(length + 1)]
    degrees, labels = [], []
    for n in range(length + 1):
        degrees.append([F.degs(i)[fi] + G.degs(j)[gj] for i, j, fi, gj in bases[n]])
        labels.append(
            [f"{F.labels[i][fi]}(x){G.labels[j][gj]}" for i, j, fi, gj in bases[n]]
        )
    diffs = []
    for n in range(1, length + 1):
        idx = {key: k for k, key in enumerate(bases[n - 1])}
        entries = {}
        for col, (i, j, fi, gj) in enumerate(bases[n]):
            if i >= 1:
                for (r, cc), p in F.diff(i).entries.items():
                    if cc != fi:
                        continue
                    row = idx[(i - 1, j, r, gj)]
                    entries[(row, col)] = entries.get(
                        (row, col), Polynomial.zero(ring)
                    ) + p
            if j >= 1:
                sign = -1 if i % 2 else 1
                for (r, cc), p in G.diff(j).entries.items():
                    if cc != gj:
                        continue
                    row = idx[(i, j - 1, fi, r)]
                    entries[(row, col)] = entries.get(
                        (row, col), Polynomial.zero(ring)
                    ) + p.scale(sign)
        diffs.append(PolyMatrix(ring, len(bases[n - 1]), len(bases[n]), entries))
    return GradedFreeComplex(ring, degrees, diffs, labels)


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
    out = []
    for i in range(1, n + 1):
        j = n + 1 - i
        for fi in range(F.rank(i)):
            for gj in range(G.rank(j)):
                out.append((i, j, fi, gj))
    return out


def star_product(F: GradedFreeComplex, G: GradedFreeComplex) -> GradedFreeComplex:
    """The star product: (F*G)_0 = R, (F*G)_n = sum of F_i (x) G_j over
    i+j = n+1 with i,j >= 1; the front differential is d1^F (x) d1^G and the
    higher ones come from the tensor product of the brutal truncations."""
    if F.ring != G.ring:
        raise RingMismatchError("star factors over different rings")
    if F.rank(0) != 1 or G.rank(0) != 1:
        raise DomainError("star product needs F_0 = G_0 = R of rank 1")
    for name, X in (("left", F), ("right", G)):
        rep = validate_complex(X)
        if not rep:
            raise DomainError(f"{name} star factor is not a complex: {rep.problems[0]}")
    ring = F.ring
    length = F.length + G.length - 1
    # (F*G)_n = (F_{>=1} (x) G_{>=1})_{n+1} for n >= 1, with the same basis
    # order and the same differentials from d_2 on
    T = tensor_complexes(stupid_truncation(F, 1), stupid_truncation(G, 1))
    bases = {n: star_basis(F, G, n) for n in range(1, length + 1)}
    degrees = [(0,)] + list(T.degrees[2:])
    labels = [("1",)] + [
        [f"{F.labels[i][fi]}*{G.labels[j][gj]}" for i, j, fi, gj in bases[n]]
        for n in range(1, length + 1)
    ]
    # d_1 = d1^F (x) d1^G : entries are products of the two column entries
    entries = {}
    for col, (i, j, fi, gj) in enumerate(bases[1]):
        p = F.diff(1).entry(0, fi) * G.diff(1).entry(0, gj)
        if not p.is_zero:
            entries[(0, col)] = p
    diffs = [PolyMatrix(ring, 1, len(bases[1]), entries)] + list(T.diffs[2:])
    return GradedFreeComplex(
        ring, degrees, diffs, labels, meta={"star_factors": (F, G)}
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


def strand_matrix(C, i, t, extra=(), basis_hi=None, basis_lo=None):
    """Scalar rows of d_i on the degree-t strand (rows indexed by the strand
    basis one degree down, columns by the degree-i strand basis)."""
    extra = _extra_gens(extra)
    if basis_hi is None:
        basis_hi = strand_basis(C, i, t, extra)
    if basis_lo is None:
        basis_lo = strand_basis(C, i - 1, t, extra)
    # for a homogeneous entry, m*mono is nonzero in R/Q exactly when it is in
    # the lower basis; a miss is only looked at to skip it or to fail loudly
    idx = {(r, m.exps): k for k, (r, m) in enumerate(basis_lo)}
    rows = [dict() for _ in basis_lo]
    kills = C.ring.kills
    by_col: dict[int, list] = {}
    for (r, c), p in C.diff(i).entries.items():
        terms = [(mono.exps, coeff) for mono, coeff in p.term_dict().items()]
        by_col.setdefault(c, []).append((r, terms))
    for col, (g, m) in enumerate(basis_hi):
        for r, terms in by_col.get(g, ()):
            for exps, coeff in terms:
                mm = tuple(map(add, m.exps, exps))
                row = idx.get((r, mm))
                if row is None:
                    mono = Monomial(mm)
                    if kills(mono) or any(q.divides(mono) for q in extra):
                        continue
                    raise DomainError(f"d_{i}[{r},{g}] is not homogeneous")
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
    representatives: list[dict]
    cycle_dim: int
    boundary_dim: int
    _boundaries: linalg.EchelonForm
    _field: object

    def is_boundary(self, vec: dict) -> bool:
        return self._boundaries.contains(vec)

    def express(self, vec: dict):
        """Coordinates of a cycle's class in the representative basis, or
        None if the vector is not a cycle class in this strand."""
        k = len(self.representatives)
        cols = self.representatives + self._boundaries.rows
        rows = linalg.rows_from_columns(cols, len(self.basis))
        sol = linalg.solve(rows, len(cols), vec, self._field)
        if sol is None:
            return None
        zero = self._field.zero
        return [sol.get(j, zero) for j in range(k)]


def strand_homology(C: GradedFreeComplex, Q, t: int, i: int) -> StrandHomology:
    """dim H_i of the degree-t strand of C (x) R/Q, plus canonical
    representatives (cycles reduced against the boundary RREF)."""
    extra = _extra_gens(Q)
    field = C.ring.field
    basis_i = strand_basis(C, i, t, extra)
    if not basis_i:
        return StrandHomology(
            i, t, basis_i, 0, [], 0, 0, linalg.EchelonForm(0, [], [], field), field
        )
    basis_lo = strand_basis(C, i - 1, t, extra) if i >= 1 else []
    n = len(basis_i)
    if i >= 1:
        rows = strand_matrix(C, i, t, extra, basis_i, basis_lo)
        cycles = linalg.kernel_basis(rows, n, field)
    else:
        one = field.one
        cycles = [{k: one} for k in range(n)]
    basis_hi = strand_basis(C, i + 1, t, extra)
    if basis_hi:
        rows_up = strand_matrix(C, i + 1, t, extra, basis_hi, basis_i)
        bcols = linalg.rows_from_columns(rows_up, len(basis_hi))
        bound = linalg.echelon(bcols, n, field)
    else:
        bound = linalg.EchelonForm(n, [], [], field)
    reduced = [bound.reduce(z) for z in cycles]
    reduced = [v for v in reduced if v]
    reps = linalg.echelon(reduced, n, field).rows if reduced else []
    return StrandHomology(
        i, t, basis_i, len(reps), reps, len(cycles), bound.rank, bound, field
    )


def strand_homology_dims(C: GradedFreeComplex, Q, t: int, lo: int, hi: int):
    """{i: dim H_i} of the degree-t strand of C (x) R/Q for lo <= i <= hi.

    Each strand basis B_i is enumerated once and each rank r_i of
    d_i : B_i -> B_{i-1} taken once, so dim H_i = |B_i| - r_i - r_{i+1};
    dim H_0 is the dimension of coker d_1.
    """
    extra = _extra_gens(Q)
    bases = {i: strand_basis(C, i, t, extra) for i in range(lo - 1, hi + 2)}
    ranks = {}
    for i in range(lo, hi + 2):
        ranks[i] = 0
        if bases[i] and bases[i - 1]:
            rows = strand_matrix(C, i, t, extra, bases[i], bases[i - 1])
            ranks[i] = linalg.rank(rows, C.ring.field)
    return {
        i: len(bases[i]) - ranks[i] - ranks[i + 1] for i in range(lo, hi + 1)
    }


def resolution_failures(C: GradedFreeComplex, top: int, D: int, hilbert):
    """Where C fails to resolve a module M on the strands t <= D.

    Returns ``(strand_failures, coker_failures)``, both ordered by t, then i:
    (i, t, dim H_i) for each 1 <= i <= top with H_i != 0, and
    (t, dim coker d_1, hilbert(t)) wherever coker d_1 misses M's Hilbert
    function ``hilbert``.
    """
    strand_failures, coker_failures = [], []
    for t in range(0, D + 1):
        dims = strand_homology_dims(C, None, t, 0, top)
        strand_failures += [(i, t, dims[i]) for i in range(1, top + 1) if dims[i]]
        want = hilbert(t)
        if dims[0] != want:
            coker_failures.append((t, dims[0], want))
    return strand_failures, coker_failures


def strand_homology_dim(C: GradedFreeComplex, Q, t: int, i: int) -> int:
    """Fast dimension-only strand homology (forward elimination ranks)."""
    return strand_homology_dims(C, Q, t, i, i)[i]


# ---------------------------------------------------------------------------
# Betti tables and resolution certificates


@dataclass
class BettiTable:
    """Graded ranks beta_{i,t} read off a minimal complex."""

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
    """Outcome of the three-clause resolution check for a monomial ideal."""

    ideal: MonomialIdeal
    bound: int
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
        return self.exactness_ok and self.coker_ok and self.betti_ok

    def summary(self) -> str:
        lines = [
            f"strand exactness (t <= {self.bound}): "
            + ("PASS" if self.exactness_ok else f"FAIL at {self.strand_failures[:3]}"),
            "cokernel of d_1 matches R/I: "
            + ("PASS" if self.coker_ok else f"FAIL at {self.coker_failures[:3]}"),
            "Betti table matches minimized Taylor oracle: "
            + ("PASS" if self.betti_ok else "FAIL"),
        ]
        return "\n".join(lines)


def verify_resolution(
    C: GradedFreeComplex, I: MonomialIdeal, D: int | None = None
) -> ResolutionCertificate:
    """Certify that C is a free resolution of R/I.

    Clause (a): every strand H_i vanishes for 1 <= i <= length, 0 <= t <= D.
    Clause (b): coker(d_1) has the Hilbert function of R/I up to D.
    Clause (c): the minimized Betti table equals the independently minimized
    Taylor resolution of I — the oracle that makes the finite strand check a
    sound certificate.
    """
    from .resolutions import minimize_complex, taylor_complex

    if D is None:
        D = C.max_degree() + 2
    strand_failures, coker_failures = resolution_failures(
        C, C.length, D, lambda t: len(degree_basis_mod_ideal(I, t))
    )
    got = betti_table(minimize_complex(C, certify=False))
    want_table = betti_table(minimize_complex(taylor_complex(I), certify=False))
    return ResolutionCertificate(
        I, D, strand_failures, coker_failures, got == want_table, got, want_table
    )


# ---------------------------------------------------------------------------
# serialization


def complex_to_json(C: GradedFreeComplex) -> dict:
    ring = {
        "vars": list(C.ring.names),
        "field": "rational"
        if not hasattr(C.ring.field, "p")
        else {"prime": C.ring.field.p},
    }
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
