"""Koszul homology with explicit cycle representatives, the Kunneth-style
isomorphism for transverse products, the trivial Massey operation, and the
resulting minimal free resolution of the residue field over R/IJ (with its
Poincare series certificate)."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .complexes import (
    GradedFreeComplex,
    StrandHomology,
    is_minimal,
    resolution_failures,
    strand_homology,
    strand_homology_dims,
    validate_complex,
)
from .errors import CertificationError, DomainError
from .exterior import (
    KElement,
    k_add,
    k_diff,
    k_from_strand_vector,
    k_is_zero,
    k_neg,
    k_to_strand_vector,
    k_wedge,
    k_with_ring,
)
from .ideals import MonomialIdeal, ideal_product, is_transverse
from .poly import PolyMatrix, Polynomial, Ring
from .resolutions import koszul_on_variables, minimize_complex, taylor_complex


@dataclass(frozen=True)
class KoszulClass:
    """A basis class of H_i(K (x) R/I) with its canonical cycle representative.

    The representative is an exterior element whose coefficients are reduced
    modulo the ideal (no term lies in it), so it lifts to the ambient ring
    or to any intermediate quotient unchanged.
    """

    i: int
    t: int
    index: int
    label: str
    rep: KElement


class KoszulHomology:
    """Basis data for H_{>=1}(K (x) R/I) over the ambient polynomial ring.

    Strand homology objects are cached per (i, t) so classes can be
    re-expressed in the canonical basis later (boundary tests, Kunneth
    matrices, product triviality checks).
    """

    def __init__(self, I: MonomialIdeal, max_i=None):
        if I.is_zero or I.is_unit:
            raise DomainError("Koszul homology needs a nonzero proper ideal")
        ring = I.ring
        if ring.modulus:
            raise DomainError("expected an ideal over the ambient polynomial ring")
        self.ideal = I
        self.ring = ring
        self.K = koszul_on_variables(ring)
        # the minimized Taylor resolution pins the exact (i, t) support of
        # the homology; strand elimination then recomputes each dimension
        # independently and the two pipelines must agree on the nose
        table = _betti_oracle(I)
        top = max((i for i, _ in table), default=0)
        if max_i is not None:
            top = min(top, max_i)
        self.strata: dict = {}
        classes = []
        for i in range(1, top + 1):
            for t in sorted(t for (ii, t) in table if ii == i):
                sh = strand_homology(self.K, I, t, i)
                self.strata[(i, t)] = sh
                if sh.dim != table[(i, t)]:
                    raise CertificationError(
                        f"strand homology dim {sh.dim} at ({i},{t}) deviates "
                        f"from the Taylor oracle value {table[(i, t)]}"
                    )
                for v in sh.representatives:
                    rep = k_from_strand_vector(
                        v, [(self._subset(i, g), m) for g, m in sh.basis], ring
                    )
                    classes.append(
                        KoszulClass(i, t, len(classes), f"z{len(classes)}", rep)
                    )
        self.classes = tuple(classes)

    def _subset(self, i, g):
        return self.K.meta["subsets"][i][g]

    def stratum(self, i: int, t: int) -> StrandHomology:
        key = (i, t)
        if key not in self.strata:
            self.strata[key] = strand_homology(self.K, self.ideal, t, i)
        return self.strata[key]

    def strand_index(self, i: int, t: int) -> dict:
        sh = self.stratum(i, t)
        return {
            (self._subset(i, g), m): col for col, (g, m) in enumerate(sh.basis)
        }

    def dims(self) -> dict:
        out: dict = {}
        for c in self.classes:
            out[c.i] = out.get(c.i, 0) + 1
        return out

    def graded_dims(self) -> dict:
        out: dict = {}
        for c in self.classes:
            out[(c.i, c.t)] = out.get((c.i, c.t), 0) + 1
        return out

    def classes_at(self, i: int):
        return [c for c in self.classes if c.i == i]

    def express(self, i: int, t: int, x: KElement):
        """Coordinates of the class of a cycle in the canonical basis."""
        sh = self.stratum(i, t)
        vec = k_to_strand_vector(x, self.strand_index(i, t))
        return sh.express(vec)

    def is_boundary(self, i: int, t: int, x: KElement) -> bool:
        if k_is_zero(x):
            return True
        sh = self.stratum(i, t)
        return sh.is_boundary(k_to_strand_vector(x, self.strand_index(i, t)))


def _betti_oracle(I: MonomialIdeal) -> dict:
    """Graded Betti numbers of R/I in positive degrees via the minimized
    Taylor resolution."""
    from .complexes import betti_table

    mini = minimize_complex(taylor_complex(I), certify=False)
    return {
        (i, t): v for (i, t), v in betti_table(mini).entries.items() if i >= 1
    }


def koszul_homology(I: MonomialIdeal) -> KoszulHomology:
    """Basis of H_{>=1}(R/I): Koszul homology of the quotient, with canonical
    representatives; total dimensions equal the Betti numbers of R/I."""
    return KoszulHomology(I)


# ---------------------------------------------------------------------------
# Kunneth map and Tor independence


@dataclass
class KunnethRow:
    n: int
    dim_source: int
    dim_target: int
    rank: int

    @property
    def bijective(self) -> bool:
        return self.dim_source == self.dim_target == self.rank


@dataclass
class KunnethCertificate:
    I: MonomialIdeal
    J: MonomialIdeal
    rows: list

    @property
    def ok(self) -> bool:
        return all(r.bijective for r in self.rows)

    def dims(self):
        return {r.n: r.dim_target for r in self.rows}


def kunneth_map(
    I: MonomialIdeal,
    J: MonomialIdeal,
    HI: KoszulHomology | None = None,
    HJ: KoszulHomology | None = None,
    HIJ: KoszulHomology | None = None,
) -> KunnethCertificate:
    """Certificate that [z1] (x) [z2] -> [z1 ^ d(z2)] is an isomorphism
    from the shifted tensor product of H(R/I) and H(R/J) onto H(R/IJ)."""
    if not is_transverse(I, J):
        raise DomainError("Kunneth map requires transverse ideals")
    HI = HI or koszul_homology(I)
    HJ = HJ or koszul_homology(J)
    IJ = ideal_product(I, J)
    HIJ = HIJ or koszul_homology(IJ)
    ring = I.ring
    quotient = IJ.quotient_ring()
    nmax = max((c.i for c in HIJ.classes), default=0)
    nmax = max(
        nmax,
        max(
            (a.i + b.i - 1 for a in HI.classes for b in HJ.classes), default=0
        ),
    )
    rows = []
    for n in range(1, nmax + 1):
        pairs = [
            (a, b) for a in HI.classes for b in HJ.classes if a.i + b.i == n + 1
        ]
        target = HIJ.classes_at(n)
        tindex = {c.index: k for k, c in enumerate(target)}
        cols = []
        for a, b in pairs:
            za = k_with_ring(a.rep, quotient)
            zb = k_with_ring(b.rep, quotient)
            image = k_wedge(za, k_diff(quotient, zb))
            t = a.t + b.t
            coords = HIJ.express(n, t, k_with_ring(image, ring))
            if coords is None:
                raise CertificationError(
                    f"Kunneth image of ({a.label},{b.label}) is not a cycle class"
                )
            # coords are relative to the (n, t) stratum's representatives;
            # place them against the classes of that stratum
            col = {}
            stratum_classes = [c for c in target if c.t == t]
            for lam, cls in zip(coords, stratum_classes):
                if lam:
                    col[tindex[cls.index]] = lam
            cols.append(col)
        rows_mat = linalg.rows_from_columns(cols, len(target))
        rank = linalg.rank(rows_mat, ring.field)
        rows.append(KunnethRow(n, len(pairs), len(target), rank))
    return KunnethCertificate(I, J, rows)


def tor_independence(I: MonomialIdeal, J: MonomialIdeal, D: int | None = None) -> bool:
    """True iff H_i(F (x) R/J) = 0 for all i >= 1 and strands t <= D, where F
    is the minimal free resolution of R/I.

    By rigidity of Tor over the polynomial ring this bounded check decides
    Tor-independence outright: a nonzero Tor_1 = (I cap J)/IJ has a witness
    below the generator-degree bound.
    """
    for K in (I, J):
        if K.is_zero or K.is_unit:
            raise DomainError("Tor independence needs nonzero proper ideals")
    F = minimize_complex(taylor_complex(I), certify=False)
    if D is None:
        D = F.max_degree() + J.max_gen_degree() + 2
    return not any(
        any(strand_homology_dims(F, J, t, 1, F.length).values())
        for t in range(0, D + 1)
    )


def tor_dims(I: MonomialIdeal, J: MonomialIdeal, D: int | None = None) -> dict:
    """Graded dims of Tor_i(R/I, R/J) for i >= 1 up to the strand bound."""
    F = minimize_complex(taylor_complex(I), certify=False)
    if D is None:
        D = F.max_degree() + J.max_gen_degree() + 2
    out = {}
    for t in range(0, D + 1):
        for i, d in strand_homology_dims(F, J, t, 1, F.length).items():
            if d:
                out[(i, t)] = d
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# the Golod construction


@dataclass
class GolodBasis:
    """Index data for the Golod resolution of k over R/IJ.

    ``pairs[k] = (a, b)`` enumerates the formal symbols v_{a,b}; the symbol's
    homological degree is |z_a| + |z_b| and its internal degree adds the
    internal degrees of the two classes.  ``h[k]`` is the canonical cycle
    d(z_a) ^ z_b representing the corresponding basis class of H(R/IJ).
    """

    I: MonomialIdeal
    J: MonomialIdeal
    HI: KoszulHomology
    HJ: KoszulHomology
    HIJ: KoszulHomology
    quotient: Ring
    pairs: list
    h: list

    def vdeg(self, k: int) -> int:
        a, b = self.pairs[k]
        return self.HI.classes[a].i + self.HJ.classes[b].i

    def vdeg_internal(self, k: int) -> int:
        a, b = self.pairs[k]
        return self.HI.classes[a].t + self.HJ.classes[b].t

    def zI(self, k: int) -> KElement:
        a, _ = self.pairs[k]
        return k_with_ring(self.HI.classes[a].rep, self.quotient)

    def zJ(self, k: int) -> KElement:
        _, b = self.pairs[k]
        return k_with_ring(self.HJ.classes[b].rep, self.quotient)


def golod_basis(I: MonomialIdeal, J: MonomialIdeal) -> GolodBasis:
    if not is_transverse(I, J):
        raise DomainError("the Golod construction requires transverse ideals")
    HI = koszul_homology(I)
    HJ = koszul_homology(J)
    IJ = ideal_product(I, J)
    HIJ = koszul_homology(IJ)
    quotient = IJ.quotient_ring()
    pairs = sorted(
        ((a.index, b.index) for a in HI.classes for b in HJ.classes),
        key=lambda ab: (
            HI.classes[ab[0]].i + HJ.classes[ab[1]].i,
            ab[0],
            ab[1],
        ),
    )
    basis = GolodBasis(I, J, HI, HJ, HIJ, quotient, pairs, [])
    for k in range(len(pairs)):
        basis.h.append(k_wedge(k_diff(quotient, basis.zI(k)), basis.zJ(k)))
    return basis


def massey_mu(basis: GolodBasis, word: tuple) -> KElement:
    """The trivial Massey operation on tuples of basis classes h_{a,b}:
    mu(h_1, ..., h_p) = d(z_{a1}) ^ z_{b1} ^ z_{a2} ^ z_{b2} ^ ... ^ z_{bp},
    reduced in K (x) R/IJ."""
    if not word:
        raise DomainError("Massey operation needs a nonempty tuple")
    quotient = basis.quotient
    out = k_wedge(k_diff(quotient, basis.zI(word[0])), basis.zJ(word[0]))
    for k in word[1:]:
        out = k_wedge(out, basis.zI(k))
        out = k_wedge(out, basis.zJ(k))
    return out


def mu_bar(basis: GolodBasis, word: tuple) -> KElement:
    """The bar-twisted value of mu on a tuple, with the degree bookkeeping of
    the defining equality chain: bar carries (-1)^(w+1) where w is the sum of
    |z_a| + |z_b| over the tuple (one more than the homological degree of the
    wedge itself, whose leading factor is a differential)."""
    val = massey_mu(basis, word)
    w = sum(basis.vdeg(k) for k in word)
    return val if (w + 1) % 2 == 0 else k_neg(val)


def massey_identity_residual(basis: GolodBasis, word: tuple) -> KElement:
    """d mu(word) - sum_i bar(mu(prefix)) ^ mu(suffix); zero exactly when the
    defining trivial-Massey identity holds for this tuple."""
    lhs = k_diff(basis.quotient, massey_mu(basis, word))
    rhs: KElement = {}
    for i in range(1, len(word)):
        rhs = k_add(rhs, k_wedge(mu_bar(basis, word[:i]), massey_mu(basis, word[i:])))
    return k_add(lhs, k_neg(rhs))


@dataclass
class GolodCertificate:
    ranks: tuple
    series_coeffs: tuple
    ranks_match: bool
    valid: bool
    minimal: bool
    strand_failures: list
    coker_failures: list
    triviality_failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.ranks_match
            and self.valid
            and self.minimal
            and not self.strand_failures
            and not self.coker_failures
            and not self.triviality_failures
        )


def _words(basis: GolodBasis, max_internal: int, max_deg: int):
    """All tensor words in the v symbols with homological degree <= max_deg,
    ordered by (length, lex); repetition allowed."""
    out = [((), 0, 0)]
    frontier = [((), 0, 0)]
    while frontier:
        nxt = []
        for word, d, ti in frontier:
            for k in range(len(basis.pairs)):
                dd = d + basis.vdeg(k)
                tt = ti + basis.vdeg_internal(k)
                if dd <= max_deg and tt <= max_internal:
                    item = (word + (k,), dd, tt)
                    nxt.append(item)
        out.extend(sorted(nxt))
        frontier = nxt
    return out


def golod_resolution(
    I: MonomialIdeal, J: MonomialIdeal, n_max: int = 6, basis: GolodBasis | None = None
) -> GradedFreeComplex:
    """The minimal free resolution of the residue field over R/IJ up to
    homological degree n_max, built from the trivial Massey operation.

    T_n is spanned by words e_S (x) v_{a1,b1} (x) ... (x) v_{ap,bp} with
    |S| + sum deg(v) = n; the differential applies the Koszul differential
    to the front and contracts prefixes through mu.  The output is
    certified: d^2 = 0, minimality, strand exactness below n_max, and
    coker(d_1) = k.
    """
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    basis = basis or golod_basis(I, J)
    S = basis.quotient
    n = S.nvars
    from itertools import combinations

    subsets = [tuple(sorted(combinations(range(n), h))) for h in range(n + 1)]
    maxdeg_gen = ideal_product(I, J).max_gen_degree()
    D = n_max * max(1, maxdeg_gen)
    words = [
        (w, d, ti) for (w, d, ti) in _words(basis, D, n_max) if d <= n_max
    ]
    levels: list[list] = [[] for _ in range(n_max + 1)]
    for w, d, ti in sorted(words, key=lambda x: (len(x[0]), x[0])):
        for h in range(0, n + 1):
            if d + h <= n_max:
                for Ssub in subsets[h]:
                    levels[d + h].append((Ssub, w))
    for lvl in levels:
        lvl.sort(key=lambda sw: (len(sw[1]), sw[1], len(sw[0]), sw[0]))

    def internal_degree(Ssub, w):
        return len(Ssub) + sum(basis.vdeg_internal(k) for k in w)

    degrees = [
        [internal_degree(Ssub, w) for Ssub, w in lvl] for lvl in levels
    ]
    labels = [
        [
            "e{" + ",".join(str(s + 1) for s in Ssub) + "}"
            + "".join(f"v({a},{b})" for a, b in (basis.pairs[k] for k in w))
            for Ssub, w in lvl
        ]
        for lvl in levels
    ]
    diffs = []
    for deg in range(1, n_max + 1):
        idx = {sw: r for r, sw in enumerate(levels[deg - 1])}
        entries: dict = {}

        def add(row_key, col, poly):
            if poly.is_zero:
                return
            row = idx[row_key]
            key = (row, col)
            cur = entries.get(key)
            s = poly if cur is None else cur + poly
            if s.is_zero:
                entries.pop(key, None)
            else:
                entries[key] = s

        for col, (Ssub, w) in enumerate(levels[deg]):
            # Koszul part d(e_S) (x) word
            front: KElement = {Ssub: Polynomial.one(S)}
            for T, p in k_diff(S, front).items():
                add((T, w), col, p)
            # Massey corrections: (-1)^|S| e_S ^ mu(prefix) (x) suffix, the
            # prefix value normalized by (-1)^(j+1) so that the bar-twisted
            # Massey identity makes the squares cancel
            base_sign = -1 if len(Ssub) % 2 else 1
            for j in range(1, len(w) + 1):
                mu = massey_mu(basis, w[:j])
                val = k_wedge(front, mu)
                sign = base_sign * (1 if (j + 1) % 2 == 0 else -1)
                for T, p in val.items():
                    add((T, w[j:]), col, p.scale(sign))
        diffs.append(
            PolyMatrix(S, len(levels[deg - 1]), len(levels[deg]), entries)
        )
    C = GradedFreeComplex(
        S, degrees, diffs, labels, meta={"golod_basis": basis, "levels": levels}
    )

    rep = validate_complex(C)
    strand_failures, coker_failures = resolution_failures(
        C, n_max - 1, D, lambda t: int(t == 0)
    )
    strand_failures.sort()
    cert = GolodCertificate(
        C.total_ranks(), (), True, rep.ok, is_minimal(C), strand_failures,
        coker_failures,
    )
    if not (rep.ok and cert.minimal and not strand_failures and not coker_failures):
        raise CertificationError(
            "Golod resolution failed its own certificate: "
            + ("; ".join(rep.problems) or f"strands {strand_failures[:3]}, "
               f"coker {coker_failures[:3]}")
        )
    C.meta["certificate"] = cert
    return C


@dataclass
class PoincareSeries:
    """(1+t)^n over 1 - sum dim H_i t^(i+1), expanded to a bound."""

    numerator: tuple
    denominator: tuple
    coefficients: tuple

    def coefficient(self, n: int) -> int:
        return self.coefficients[n]


def golod_poincare(
    I: MonomialIdeal, J: MonomialIdeal, n_max: int = 6,
    HIJ: KoszulHomology | None = None,
) -> PoincareSeries:
    if not is_transverse(I, J):
        raise DomainError("the Golod series requires transverse ideals")
    n = I.ring.nvars
    HIJ = HIJ or koszul_homology(ideal_product(I, J))
    dims = HIJ.dims()
    num = [1]
    for _ in range(n):
        num = [a + b for a, b in zip(num + [0], [0] + num)]
    den = [0] * (max(dims, default=0) + 2)
    den[0] = 1
    for i, d in dims.items():
        den[i + 1] -= d
    coeffs = []
    for k in range(n_max + 1):
        c = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            c -= den[j] * coeffs[k - j]
        coeffs.append(c)
    if any(c < 0 for c in coeffs):
        raise CertificationError("Poincare expansion has a negative coefficient")
    return PoincareSeries(tuple(num), tuple(den), tuple(coeffs))


def verify_golod(I: MonomialIdeal, J: MonomialIdeal, n_max: int = 5) -> GolodCertificate:
    """Full Golod certificate: the resolution's own checks, rank agreement
    with the Poincare series, and triviality of all pairwise products of
    positive-degree Koszul homology classes of R/IJ."""
    basis = golod_basis(I, J)
    C = golod_resolution(I, J, n_max, basis=basis)
    cert: GolodCertificate = C.meta["certificate"]
    series = golod_poincare(I, J, n_max, HIJ=basis.HIJ)
    cert.series_coeffs = tuple(series.coefficients)
    cert.ranks_match = tuple(C.total_ranks()) == cert.series_coeffs[: n_max + 1]
    HIJ = basis.HIJ
    for c1 in HIJ.classes:
        for c2 in HIJ.classes:
            prod = k_wedge(
                k_with_ring(c1.rep, basis.quotient),
                k_with_ring(c2.rep, basis.quotient),
            )
            prod = k_with_ring(prod, I.ring)
            if not HIJ.is_boundary(c1.i + c2.i, c1.t + c2.t, prod):
                cert.triviality_failures.append((c1.label, c2.label))
    return cert
