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

from itertools import product
from operator import add

from . import linalg
from .complexes import Homology, verify_resolution
from .errors import CertificationError, DomainError, Record
from .exterior import Element, k_restrict, k_wedge
from .golod import KoszulHomology
from .ideals import (
    MonomialIdeal, lcm_lattice, maximal_ideal, regular_sequence,
    transverse_product,
)
from .poly import Monomial, Ring
from .resolutions import betti_numbers, twisted_koszul


def _tate_cycle(a: Monomial) -> Element:
    """z = (a / x_i) e_i for the smallest variable index i dividing a, so
    that d(z) = a; any other choice differs by a boundary.  It lies in the
    block mdeg(a)."""
    return Element(a.exps, {(min(a.support()),): 1})


def _sequence_mdeg(sequence, nvars: int, c) -> tuple:
    """sum_j c_j mdeg(a_j) over the monomials a of ``sequence``."""
    return tuple(
        sum(cj * a.exps[k] for cj, a in zip(c, sequence)) for k in range(nvars)
    )


class TateComplex(Record):
    """Truncated Tate resolution of k over S = R/(a).

    ``ring`` is the quotient ring S; ``cycles`` are the z_j as exterior
    elements, see :func:`_tate_cycle`; ``basis`` lists (subset, exponent
    tuple) per homological degree; ``certificate`` is the
    ResolutionCertificate of ``complex``.
    """

    __slots__ = _fields = (
        "ring", "sequence", "cycles", "complex", "basis", "certificate",
    )


def tate_resolution(a, ring: Ring, n_max: int = 6) -> TateComplex:
    """Build and certify the Tate complex through homological degree n_max,
    with the cycles z_j of :func:`_tate_cycle`: d o d = 0, and H_i = 0 for
    1 <= i < n_max and coker d_1 = k in every multidegree (see
    :func:`verify_resolution`).  The key (T, m) sits in multidegree
    1_T + sum_j m_j mdeg(a_j): over S a linear a_j kills its variable x_k,
    so the differential alone would not fix the multidegree of e_k."""
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    mons = regular_sequence(ring, a)
    S = ring.quotient(mons) if mons else ring
    zs = [_tate_cycle(m) for m in mons]
    # d(e_S y^(m)) = d(e_S) y^(m) + (-1)^|S| e_S ^ z_j y^(m - 1_j)
    words = [
        (m, 2 * sum(m), _sequence_mdeg(mons, ring.nvars, m))
        for m in product(range(n_max // 2 + 1), repeat=len(mons))
        if 2 * sum(m) <= n_max
    ]

    def twist(m):
        return [
            (1, z, m[:j] + (m[j] - 1,) + m[j + 1:])
            for j, z in enumerate(zs) if m[j]
        ]

    def word_label(m):
        return "".join(f"y{j + 1}^({e})" for j, e in enumerate(m) if e)

    C, levels = twisted_koszul(S, words, n_max, twist, word_label)
    # a linear a_j leaves a unit entry, so minimality is reported, not required
    cert = verify_resolution(C, maximal_ideal(S), n_max - 1)
    if not cert.ok:
        raise CertificationError(f"Tate complex failed its certificate: {cert}")
    return TateComplex(S, mons, zs, C, levels, cert)


# ---------------------------------------------------------------------------
# Tor over the quotient and the change-of-rings data


class QuotientTor(Homology):
    """Homology of T (x)_S R/M on multidegree blocks, with cached strata.

    In degree i the support is the blocks b = m + sum_j c_j mdeg(a_j) with
    m in the lcm lattice L_M, c_j >= 0 and 2 sum_j c_j <= i: R/M has the
    S-free resolution F (x) D(y_1..y_c), F the R-free resolution of R/M
    (generators in L_M) and y_j of homological degree 2 and multidegree
    mdeg(a_j) (Shamash, J. Algebra 12, 1969; Eisenbud, "Homological algebra
    on a complete intersection", Trans. AMS 260, 1980), so Tor_i^S(R/M,
    k)_b vanishes off these blocks.  Classes are expressed in the block of
    their multidegree.
    """

    def __init__(self, tate: TateComplex, M: MonomialIdeal):
        for a in tate.sequence:
            if not M.contains(a):
                raise DomainError("the regular sequence must lie in M")
        super().__init__(tate.complex, M, tate.basis)
        self.tate = tate
        self.M = M
        self._lattice = lcm_lattice(M)

    def support(self, i: int) -> set:
        """The blocks where Tor_i^S(R/M, k) can be nonzero, see the class."""
        seq, out = self.tate.sequence, set()
        for c in product(range(i // 2 + 1), repeat=len(seq)):
            if 2 * sum(c) <= i:
                shift = _sequence_mdeg(seq, self.M.ring.nvars, c)
                out |= {tuple(map(add, m, shift)) for m in self._lattice}
        return out

    def express(self, i: int, x: Element):
        """Coordinates, in the canonical basis of its block, of the class
        of an exterior cycle x included into the Tate complex, or None if
        it is not a cycle class.  The key S of x is the key (S, 0) of the
        Tate complex, of the same multidegree 1_S."""
        zero = (0,) * len(self.tate.sequence)
        return super().express(
            i, Element(x.b, {(S, zero): s for S, s in x.terms.items()})
        )

    def total_dim(self, i: int) -> int:
        """dim Tor_i^S(R/M, k): dim H_i summed over the supported blocks, a
        finite set."""
        return sum(self.dim(i, b) for b in sorted(self.support(i)))


def tor_over_quotient(a, M: MonomialIdeal, n_max: int = 6):
    """Total dims of Tor_i^S(R/M, k) for 0 <= i <= n_max, see
    :meth:`QuotientTor.total_dim`.

    The Tate complex is built one level past n_max so the top homology is
    cut out by genuine boundaries, not by the truncation.
    """
    qt = QuotientTor(tate_resolution(a, M.ring, n_max + 1), M)
    return [qt.total_dim(i) for i in range(n_max + 1)]


class ChangeOfRingsMap(Record):
    __slots__ = _fields = ("dim_source", "dim_target_blocks", "rank")


def change_of_rings_map(
    source: KoszulHomology, qt: QuotientTor, i: int
) -> ChangeOfRingsMap:
    """The map H_i(K^R (x) R/M) -> H_i(T (x)_S R/M) induced by the exterior
    inclusion, assembled per multidegree block of the source classes in the
    canonical homology bases."""
    if i == 0:
        return ChangeOfRingsMap(1, 1, 1)
    srcs = source.classes_at(i)
    offsets: dict = {}
    total_target = 0
    for b in sorted({c.b for c in srcs}):
        offsets[b] = total_target
        total_target += qt.stratum(i, b).dim
    cols = []
    for cls in srcs:
        lam = qt.express(i, cls.rep)
        if lam is None:
            raise CertificationError(
                f"exterior image of class {cls.label} is not a cycle class"
            )
        cols.append({offsets[cls.b] + k: v for k, v in enumerate(lam) if v})
    rows = linalg.rows_from_columns(cols, total_target)
    return ChangeOfRingsMap(
        len(srcs), total_target, linalg.rank(rows, qt.M.ring.field)
    )


def tor_product_subspace(source: KoszulHomology, qt: QuotientTor, i: int):
    """The subspace Tor_1(S,k) . Tor_{i-1}(M-quotient,k) inside Tor_i,
    spanned by classes [z_j ^ w]; returned as echelonized coordinate vectors
    in the canonical basis of H_i together with the nonzero wedge cycles,
    each in its multidegree block mdeg(a_j) + mdeg(w)."""
    if i < 1:
        raise DomainError("the product subspace lives in positive degrees")
    ring = qt.M.ring
    quotient = qt.M.quotient_ring()
    if i == 1:
        lowers = [Element((0,) * ring.nvars, {(): 1})]
    else:
        lowers = [k_restrict(quotient, c.rep) for c in source.classes_at(i - 1)]
    vectors = []
    cycles = []
    for z in qt.tate.cycles:
        z = k_restrict(quotient, z)
        for w in lowers:
            wedge = k_wedge(quotient, z, w)
            if not wedge.terms:
                continue
            vec = source.class_coords(i, wedge)
            if vec is None:
                raise CertificationError("product wedge is not a cycle class")
            vectors.append(vec)
            cycles.append(wedge)
    ech = linalg.echelon(vectors, len(source.classes_at(i)), ring.field)
    return ech, cycles


class ObstructionRow(Record):
    __slots__ = _fields = (
        "i", "dim_tor_R", "dim_product", "dim_tor_S", "rank", "dim_obstruction",
    )


class ObstructionReport(Record):
    __slots__ = _fields = ("sequence", "M", "rows", "product_maps_to_zero")

    @property
    def all_vanish(self) -> bool:
        return all(r.dim_obstruction == 0 for r in self.rows)

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
    return max(i for i, _ in betti_numbers(M).entries)


def avramov_obstruction(
    a, M: MonomialIdeal, n_max: int | None = None
) -> ObstructionReport:
    """The graded obstructions o_i for 2 <= i <= n_max: kernel dimensions of
    the induced map from Tor_i^R(R/M,k) modulo the Tor_1-product subspace to
    Tor_i^S(R/M,k).

    Well-definedness is certified, not assumed: every product-subspace class
    is pushed through the change-of-rings map and must land on zero.
    """
    if n_max is None:
        n_max = projective_dimension(M) + 1
    elif n_max < 2:
        raise DomainError("n_max must be at least 2: obstructions start at i = 2")
    # tate_resolution checks that a is a regular sequence, QuotientTor that
    # it lies in M; the steps below take these objects and check nothing
    qt = QuotientTor(tate_resolution(a, M.ring, n_max + 1), M)
    source = KoszulHomology(M)
    rows = []
    product_ok = True
    for i in range(2, n_max + 1):
        phi = change_of_rings_map(source, qt, i)
        ech, cycles = tor_product_subspace(source, qt, i)
        # certify the induced map is well defined: products map to zero
        for wedge in cycles:
            lam = qt.express(i, wedge)
            if lam is None or any(lam):
                product_ok = False
        s, p = phi.dim_source, ech.rank
        rows.append(ObstructionRow(i, s, p, 0, phi.rank, (s - p) - phi.rank))
    # dim Tor_i^S comes last, so that it reads the ranks the strata stored
    for row in rows:
        row.dim_tor_S = qt.total_dim(row.i)
    return ObstructionReport(qt.tate.sequence, M, rows, product_ok)


class InjectivityCertificate(Record):
    """``rows`` holds (i, dim_tor_R, rank) per degree."""

    __slots__ = _fields = ("rows",)

    @property
    def ok(self) -> bool:
        return all(r[1] == r[2] for r in self.rows)


def verify_injectivity(a, I: MonomialIdeal, J: MonomialIdeal, n_max: int = 4):
    """Certify that Tor_i^R(R/IJ,k) -> Tor_i^S(R/IJ,k) is injective for
    2 <= i <= n_max, the change-of-rings consequence of a trivial Tor
    algebra."""
    M = transverse_product(I, J)
    if M is None:
        raise DomainError("injectivity certificate needs transverse ideals")
    report = avramov_obstruction(a, M, n_max)
    if not report.product_maps_to_zero:
        raise CertificationError("product subspace does not map to zero")
    return InjectivityCertificate(
        [(r.i, r.dim_tor_R, r.rank) for r in report.rows]
    )
