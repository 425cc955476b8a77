"""Obstruction theory over complete-intersection quotients.

For a monomial regular sequence a_1..a_c (pairwise disjoint supports) with
S = R/(a), the residue field is resolved over S by the Tate complex: the
exterior algebra on the variables joined with divided powers y_j of degree
2 killing the cycles z_j with d(z_j) = a_j.  Tensoring with R/M computes
Tor^S, the exterior inclusion induces the change-of-rings map from Koszul
homology over R, and the kernel of the induced map modulo the Tor_1-product
subspace is the obstruction to DG-module structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import linalg
from .complexes import (
    GradedFreeComplex,
    is_minimal,
    resolution_failures,
    strand_homology,
    validate_complex,
)
from .errors import CertificationError, DomainError
from .exterior import k_wedge, k_with_ring
from .golod import KoszulHomology
from .ideals import MonomialIdeal, is_transverse, ideal_product
from .poly import Monomial, PolyMatrix, Polynomial, Ring
from .resolutions import minimize_complex, taylor_complex


def _check_regular_sequence(ring: Ring, elems) -> list[Monomial]:
    mons = []
    for a in elems:
        if isinstance(a, Polynomial):
            terms = a.term_dict()
            if len(terms) != 1:
                raise DomainError("regular sequence entries must be monomials")
            a = next(iter(terms))
        if not isinstance(a, Monomial):
            a = ring.parse_monomial(a)
        if a.is_one or a.degree < 1:
            raise DomainError("regular sequence entries must be nonunits")
        mons.append(a)
    for i in range(len(mons)):
        for j in range(i + 1, len(mons)):
            if mons[i].support() & mons[j].support():
                raise DomainError(
                    "regular sequence needs pairwise disjoint supports"
                )
    return mons


@dataclass
class TateComplex:
    """Truncated Tate resolution of k over S = R/(a)."""

    ring: Ring  # the quotient ring S
    sequence: list
    cycles: list  # z_j as (variable index, cofactor monomial)
    complex: GradedFreeComplex
    basis: list  # per homological degree: list of (subset, exponent tuple)
    certificate: dict

    @property
    def n_max(self) -> int:
        return self.complex.length


def tate_resolution(a, ring: Ring | None = None, n_max: int = 6) -> TateComplex:
    """Build and certify the Tate complex through homological degree n_max.

    z_j is chosen as (a_j / x_i) e_i for the smallest variable index i
    dividing a_j; any other choice differs by a boundary.
    """
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    if ring is None:
        if not a:
            raise DomainError("need a ring when the sequence is empty")
        first = a[0]
        ring = first.ring if isinstance(first, Polynomial) else None
        if ring is None:
            raise DomainError("pass the ambient ring explicitly")
    mons = _check_regular_sequence(ring, a)
    S = ring.quotient(mons) if mons else ring
    n = ring.nvars
    c = len(mons)
    cycles = []
    for m in mons:
        i = min(m.support())
        exps = [0] * n
        exps[i] = 1
        cycles.append((i, m.divide(Monomial(tuple(exps)))))

    def weights(total):
        # exponent tuples m with 2 * sum(m) == total
        if total % 2:
            return []
        out = []

        def rec(prefix, rest, k):
            if k == c - 1:
                out.append(tuple(prefix + [rest]))
                return
            for e in range(rest, -1, -1):
                rec(prefix + [e], rest - e, k + 1)

        w = total // 2
        if c == 0:
            return [()] if w == 0 else []
        rec([], w, 0)
        return out

    levels = []
    for deg in range(n_max + 1):
        lvl = []
        for h in range(min(n, deg) + 1):
            for m in weights(deg - h):
                for Ssub in combinations(range(n), h):
                    lvl.append((tuple(Ssub), m))
        lvl.sort(key=lambda sm: (sm[1], sm[0]))
        levels.append(lvl)

    def internal(Ssub, m):
        return len(Ssub) + sum(e * mons[j].degree for j, e in enumerate(m))

    degrees = [[internal(Ssub, m) for Ssub, m in lvl] for lvl in levels]
    labels = [
        [
            "e{" + ",".join(str(s + 1) for s in Ssub) + "}"
            + "".join(f"y{j + 1}^({e})" for j, e in enumerate(m) if e)
            for Ssub, m in lvl
        ]
        for lvl in levels
    ]
    diffs = []
    for deg in range(1, n_max + 1):
        idx = {sm: r for r, sm in enumerate(levels[deg - 1])}
        entries: dict = {}

        def add(key, col, poly):
            if poly.is_zero:
                return
            row = idx[key]
            cur = entries.get((row, col))
            s = poly if cur is None else cur + poly
            if s.is_zero:
                entries.pop((row, col), None)
            else:
                entries[(row, col)] = s

        for col, (Ssub, m) in enumerate(levels[deg]):
            for pos, s in enumerate(Ssub):
                rest = tuple(x for x in Ssub if x != s)
                sign = 1 if pos % 2 == 0 else -1
                exps = [0] * n
                exps[s] = 1
                add(
                    (rest, m), col,
                    Polynomial.from_monomial(S, Monomial(tuple(exps)),
                                             S.field.from_int(sign)),
                )
            ssign = -1 if len(Ssub) % 2 else 1
            for j in range(c):
                if m[j] == 0:
                    continue
                i, cof = cycles[j]
                if i in Ssub:
                    continue
                wsign = (-1) ** sum(1 for s in Ssub if s > i)
                m2 = tuple(e - 1 if k == j else e for k, e in enumerate(m))
                union = tuple(sorted(Ssub + (i,)))
                add(
                    (union, m2), col,
                    Polynomial.from_monomial(
                        S, cof, S.field.from_int(ssign * wsign)
                    ),
                )
        diffs.append(PolyMatrix(S, len(levels[deg - 1]), len(levels[deg]), entries))
    C = GradedFreeComplex(S, degrees, diffs, labels, meta={"tate_basis": levels})

    rep = validate_complex(C)
    minimal = is_minimal(C)
    D = max((max(d, default=0) for d in degrees), default=0) + 1
    strand_failures, coker_failures = resolution_failures(
        C, n_max - 1, D, lambda t: int(t == 0)
    )
    strand_failures.sort()
    cert = {
        "valid": rep.ok,
        "minimal": minimal,
        "strand_failures": strand_failures,
        "coker_failures": coker_failures,
    }
    if not rep.ok or strand_failures or coker_failures:
        raise CertificationError(f"Tate complex failed its certificate: {cert}")
    return TateComplex(S, mons, cycles, C, levels, cert)


# ---------------------------------------------------------------------------
# Tor over the quotient and the change-of-rings data


class QuotientTor:
    """Strand homology data of T (x)_S R/M with cached strata."""

    def __init__(self, tate: TateComplex, M: MonomialIdeal):
        for a in tate.sequence:
            if not M.contains(a):
                raise DomainError("the regular sequence must lie in M")
        self.tate = tate
        self.M = M
        self.strata: dict = {}

    def stratum(self, i: int, t: int):
        key = (i, t)
        if key not in self.strata:
            self.strata[key] = strand_homology(
                self.tate.complex, self.M, t, i
            )
        return self.strata[key]

    def dims(self, i: int, tmax: int) -> dict:
        return {
            t: self.stratum(i, t).dim
            for t in range(0, tmax + 1)
            if self.stratum(i, t).dim
        }


def tor_over_quotient(a, M: MonomialIdeal, n_max: int = 6, D: int | None = None):
    """Total dims of Tor_i^S(R/M, k) for 0 <= i <= n_max, summed over
    internal degrees up to the reporting bound.

    The Tate complex is built one level past n_max so the top homology is
    cut out by genuine boundaries, not by the truncation.
    """
    tate = a if isinstance(a, TateComplex) else None
    if tate is None or tate.n_max < n_max + 1:
        seq = a.sequence if isinstance(a, TateComplex) else a
        tate = tate_resolution(seq, M.ring, n_max + 1)
    qt = QuotientTor(tate, M)
    if D is None:
        D = max(
            (max(d, default=0) for d in tate.complex.degrees), default=0
        ) + M.max_gen_degree() + 1
    return [sum(qt.dims(i, D).values()) for i in range(0, n_max + 1)]


@dataclass
class ChangeOfRingsMap:
    i: int
    strands: list  # t values carrying source classes
    matrix_rows: list
    dim_source: int
    dim_target_blocks: int
    rank: int
    columns: list  # per source class: target coordinates (dict)


def change_of_rings_map(
    a, M: MonomialIdeal, i: int,
    source: KoszulHomology | None = None,
    qt: QuotientTor | None = None,
    n_max: int | None = None,
) -> ChangeOfRingsMap:
    """The map H_i(K^R (x) R/M) -> H_i(T (x)_S R/M) induced by the exterior
    inclusion, assembled per strand in the canonical homology bases."""
    ring = M.ring
    if source is None:
        source = KoszulHomology(M)
    if qt is None:
        tate = tate_resolution(a, ring, n_max or (i + 2))
        qt = QuotientTor(tate, M)
    if i == 0:
        return ChangeOfRingsMap(0, [0], [{0: ring.field.one}], 1, 1, 1, [{0: ring.field.one}])
    srcs = source.classes_at(i)
    strands = sorted({c.t for c in srcs})
    cols = []
    offsets: dict = {}
    total_target = 0
    for t in strands:
        sh = qt.stratum(i, t)
        offsets[t] = total_target
        total_target += sh.dim
    for cls in srcs:
        sh = qt.stratum(i, cls.t)
        basis_index = {
            (bm[0], bm[1]): k for k, bm in enumerate(
                [(qt.tate.basis[i][g], m) for g, m in sh.basis]
            )
        }
        vec = {}
        for S, p in cls.rep.items():
            for mono, coeff in p.term_dict().items():
                key = ((S, (0,) * len(qt.tate.sequence)), mono)
                vec_k = basis_index[key]
                vec[vec_k] = coeff
        lam = sh.express(vec)
        if lam is None:
            raise CertificationError(
                f"exterior image of class {cls.label} is not a cycle class"
            )
        col = {
            offsets[cls.t] + k: v for k, v in enumerate(lam) if v
        }
        cols.append(col)
    rows = linalg.rows_from_columns(cols, total_target)
    rank = linalg.rank(rows, ring.field)
    return ChangeOfRingsMap(
        i, strands, rows, len(srcs), total_target, rank, cols
    )


def tor_product_subspace(
    a, M: MonomialIdeal, i: int, source: KoszulHomology | None = None
):
    """The subspace Tor_1(S,k) . Tor_{i-1}(M-quotient,k) inside Tor_i,
    spanned by classes [z_j ^ w]; returned as echelonized coordinate vectors
    in the canonical basis of H_i together with the raw wedge cycles."""
    ring = M.ring
    mons = _check_regular_sequence(ring, a)
    for m in mons:
        if not M.contains(m):
            raise DomainError("the regular sequence must lie in M")
    if source is None:
        source = KoszulHomology(M)
    if i < 1:
        raise DomainError("the product subspace lives in positive degrees")
    quotient = M.quotient_ring()
    zs = []
    for m in mons:
        v = min(m.support())
        exps = [0] * ring.nvars
        exps[v] = 1
        cof = m.divide(Monomial(tuple(exps)))
        zs.append(
            {(v,): Polynomial.from_monomial(quotient, cof)}
        )
    if i == 1:
        lowers = [({(): Polynomial.one(quotient)}, 0)]
    else:
        lowers = [
            (k_with_ring(c.rep, quotient), c.t) for c in source.classes_at(i - 1)
        ]
    vectors = []
    cycles = []
    n_i = len(source.classes_at(i))
    index_of = {c.index: k for k, c in enumerate(source.classes_at(i))}
    for z, (zm) in zip(zs, mons):
        for w, tw in lowers:
            wedge = k_wedge(z, w)
            t = zm.degree + tw
            if all(p.is_zero for p in wedge.values()):
                continue
            lam = source.express(i, t, k_with_ring(wedge, ring))
            if lam is None:
                raise CertificationError("product wedge is not a cycle class")
            vec = {}
            for k, cls in enumerate(
                [c for c in source.classes_at(i) if c.t == t]
            ):
                if lam[k]:
                    vec[index_of[cls.index]] = lam[k]
            vectors.append(vec)
            cycles.append((wedge, t))
    ech = linalg.echelon(vectors, n_i, ring.field)
    return ech, cycles


@dataclass
class ObstructionRow:
    i: int
    dim_tor_R: int
    dim_product: int
    dim_tor_S: int
    rank: int
    dim_obstruction: int


@dataclass
class ObstructionReport:
    sequence: list
    M: MonomialIdeal
    rows: list
    product_maps_to_zero: bool = True

    @property
    def all_vanish(self) -> bool:
        return all(r.dim_obstruction == 0 for r in self.rows)

    def nonzero_degrees(self):
        return [r.i for r in self.rows if r.dim_obstruction]

    def table(self) -> str:
        head = f"{'i':>3} {'torR':>6} {'prod':>6} {'torS':>6} {'rank':>6} {'o_i':>6}"
        lines = [head]
        for r in self.rows:
            lines.append(
                f"{r.i:>3} {r.dim_tor_R:>6} {r.dim_product:>6} "
                f"{r.dim_tor_S:>6} {r.rank:>6} {r.dim_obstruction:>6}"
            )
        return "\n".join(lines)

    def to_json(self):
        return {
            "sequence": [self.M.ring.format_monomial(m) for m in self.sequence],
            "rows": [
                {
                    "i": r.i,
                    "tor_R": r.dim_tor_R,
                    "product_subspace": r.dim_product,
                    "tor_S": r.dim_tor_S,
                    "rank": r.rank,
                    "obstruction": r.dim_obstruction,
                }
                for r in self.rows
            ],
            "product_maps_to_zero": self.product_maps_to_zero,
            "all_vanish": self.all_vanish,
        }


def projective_dimension(M: MonomialIdeal) -> int:
    mini = minimize_complex(taylor_complex(M), certify=False)
    return mini.length


def avramov_obstruction(
    a, M: MonomialIdeal, n_max: int | None = None
) -> ObstructionReport:
    """The graded obstructions o_i for 2 <= i <= n_max: kernel dimensions of
    the induced map from Tor_i^R(R/M,k) modulo the Tor_1-product subspace to
    Tor_i^S(R/M,k).

    Well-definedness is certified, not assumed: every product-subspace class
    is pushed through the change-of-rings map and must land on zero.
    """
    ring = M.ring
    mons = _check_regular_sequence(ring, a)
    for m in mons:
        if not M.contains(m):
            raise DomainError("the regular sequence must lie in M")
    if n_max is None:
        n_max = projective_dimension(M) + 1
    source = KoszulHomology(M)
    tate = tate_resolution(mons, ring, n_max + 1)
    qt = QuotientTor(tate, M)
    D = max(
        (max(d, default=0) for d in tate.complex.degrees), default=0
    ) + M.max_gen_degree() + 1
    rows = []
    product_ok = True
    for i in range(2, n_max + 1):
        phi = change_of_rings_map(mons, M, i, source=source, qt=qt)
        ech, cycles = tor_product_subspace(mons, M, i, source=source)
        # certify the induced map is well defined: products map to zero
        for wedge, t in cycles:
            sh = qt.stratum(i, t)
            basis_index = {
                ((qt.tate.basis[i][g], m)): k
                for k, (g, m) in enumerate(sh.basis)
            }
            vec = {}
            for Ssub, p in wedge.items():
                for mono, coeff in p.term_dict().items():
                    key = ((Ssub, (0,) * len(mons)), mono)
                    vec[basis_index[key]] = coeff
            lam = sh.express(vec)
            if lam is None or any(lam):
                product_ok = False
        dim_torS = sum(qt.dims(i, D).values())
        s = phi.dim_source
        p = ech.rank
        o = (s - p) - phi.rank
        rows.append(ObstructionRow(i, s, p, dim_torS, phi.rank, o))
    return ObstructionReport(mons, M, rows, product_ok)


@dataclass
class InjectivityCertificate:
    rows: list  # (i, dim_tor_R, rank)

    @property
    def ok(self) -> bool:
        return all(r[1] == r[2] for r in self.rows)


def verify_injectivity(a, I: MonomialIdeal, J: MonomialIdeal, n_max: int = 4):
    """Certify that Tor_i^R(R/IJ,k) -> Tor_i^S(R/IJ,k) is injective for
    2 <= i <= n_max, the change-of-rings consequence of a trivial Tor
    algebra."""
    if not is_transverse(I, J):
        raise DomainError("injectivity certificate needs transverse ideals")
    M = ideal_product(I, J)
    report = avramov_obstruction(a, M, n_max)
    if not report.product_maps_to_zero:
        raise CertificationError("product subspace does not map to zero")
    return InjectivityCertificate(
        [(r.i, r.dim_tor_R, r.rank) for r in report.rows]
    )
