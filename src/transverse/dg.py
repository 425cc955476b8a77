"""Multiplicative structures on resolutions.

Every complex here is multigraded, so a product or module action is stored
once, as the scalars of monomial matrices on basis pairs (see
_MonomialMatrices); its polynomial tables are a read-only view.  All
identities (Leibniz, square-zero, commutativity, associativity) are
certified exactly on basis pairs/triples by comparing scalars.  Square-zero
is a quadratic identity, so it is certified on the spanning set of
generators (diagonal plus S_1 squares), which is exactly what the iterated
star construction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import linalg
from .complexes import GradedFreeComplex, star_basis, star_product, table_scalar
from .errors import CertificationError, DomainError
from .exterior import wedge_subsets
from .ideals import MonomialIdeal, regular_sequence
from .poly import Monomial, Polynomial
from .resolutions import koszul_complex, lift_comparison_map, taylor_complex


class _Product:
    """A product on basis pairs of a multigraded complex, stored as the
    scalars of its monomial matrices (see _MonomialMatrices):
    ``scalars[key][(u, v)]`` lists the (w, c) with
    f_u . f_v = sum_w c x^(m_u + m_v - m_w) f_w.  ``tables`` is the same
    product with polynomial values, a read-only view built when read.
    """

    def __init__(self, matrices: _MonomialMatrices, scalars: dict):
        self.matrices = matrices
        self.complex = matrices.complex
        self.scalars = scalars

    @cached_property
    def tables(self) -> dict:
        """key -> {(u, v): {w: Polynomial}}"""
        M = self.matrices
        out = {}
        for key, tab in self.scalars.items():
            i, j = self._bidegree(key)
            out[key] = M.elements(i + j, tab, M.md[i], M.md[j])
        return out

    def to_json(self) -> dict:
        """Tables as triple lists: [left index, right index, result vector]."""
        return {
            self._label(key): [
                [u, v, {str(w): str(p) for w, p in sorted(val.items())}]
                for (u, v), val in sorted(tab.items())
            ]
            for key, tab in sorted(self.tables.items())
        }


class DegreeOneProduct(_Product):
    """A product C_1 (x) C_j -> C_{j+1}, keyed by j."""

    @staticmethod
    def _bidegree(j: int) -> tuple:
        return 1, j

    _label = str

    def value(self, j: int, u: int, v: int) -> dict:
        return self.tables.get(j, {}).get((u, v), {})

    def degree_one(self) -> DegreeOneProduct:
        return self

    @cached_property
    def certificate(self) -> ProductCertificate:
        """The degree-one identities, certified once per product."""
        return certify_degree_one(self)


class FullProduct(_Product):
    """A product on all bidegrees C_i (x) C_j -> C_{i+j}, keyed by (i, j)."""

    @staticmethod
    def _bidegree(key: tuple) -> tuple:
        return key

    @staticmethod
    def _label(key: tuple) -> str:
        return "%d,%d" % key

    def value(self, i: int, j: int, u: int, v: int) -> dict:
        return self.tables.get((i, j), {}).get((u, v), {})

    def degree_one(self) -> DegreeOneProduct:
        """The C_1 (x) C_j part, on the same matrices and scalars."""
        return DegreeOneProduct(
            self.matrices, {j: tab for (i, j), tab in self.scalars.items() if i == 1}
        )


@dataclass
class ProductCertificate:
    leibniz_failures: list = field(default_factory=list)
    square_failures: list = field(default_factory=list)
    commutativity_failures: list = field(default_factory=list)
    associativity_failures: list = field(default_factory=list)
    checked_pairs: int = 0
    checked_triples: int = 0

    @property
    def ok(self) -> bool:
        return not (
            self.leibniz_failures
            or self.square_failures
            or self.commutativity_failures
            or self.associativity_failures
        )


# ---------------------------------------------------------------------------
# exterior-type products on Koszul and Taylor complexes


def _exterior_full_product(C: GradedFreeComplex) -> FullProduct:
    """e_S . e_T = sign(S,T) x^(m_S + m_T - m_{S u T}) e_{S u T} on a
    subset-indexed complex: the monomial is 1 on a Koszul complex and
    lcm_S lcm_T / lcm_{S u T} on a Taylor complex.  A pair whose monomial
    R/Q kills has no value."""
    M = _MonomialMatrices(C)
    md = M.md
    subsets = C.meta["subsets"]
    index = [
        {S: k for k, S in enumerate(subsets[i])} for i in range(len(subsets))
    ]
    scalars: dict = {}
    top = C.length
    for i in range(0, top + 1):
        for j in range(0, top - i + 1):
            tab = {}
            for u, S in enumerate(subsets[i]):
                for v, T in enumerate(subsets[j]):
                    st = wedge_subsets(S, T)
                    if st is None:
                        continue
                    sign, U = st
                    terms = M.terms(
                        [(index[i + j][U], sign)], i + j, (md[i][u], md[j][v])
                    )
                    if terms:
                        tab[(u, v)] = terms
            scalars[(i, j)] = tab
    return FullProduct(M, scalars)


def koszul_dg_product(K: GradedFreeComplex) -> FullProduct:
    """The exterior-algebra product on a Koszul complex; raises
    DomainError unless K was built by ``koszul_complex``."""
    if "subsets" not in K.meta:
        raise DomainError("expected a complex built by koszul_complex")
    return _exterior_full_product(K)


def taylor_dg_product(I: MonomialIdeal, C: GradedFreeComplex | None = None) -> FullProduct:
    """The classical associative DG product on the Taylor complex of I,
    certified in full (Leibniz, graded commutativity, associativity, odd
    squares) before being returned."""
    C = C or taylor_complex(I)
    prod = _exterior_full_product(C)
    cert = certify_full_dg(prod)
    if not cert.ok:
        raise CertificationError(
            f"Taylor product failed certification: "
            f"leibniz {cert.leibniz_failures[:2]}, "
            f"assoc {cert.associativity_failures[:2]}"
        )
    return prod


class _MonomialMatrices:
    """The differentials of a multigraded complex, and products on it, as
    monomial matrices (Miller-Sturmfels, Combinatorial Commutative Algebra,
    ch. 1): every entry is one term c x^a with x^a forced by the
    multidegrees, so an identity on a basis pair or triple is a sum of
    scalars keyed by target generator.

    QQ scalars are ints where integral and Fractions otherwise; GF(p)
    scalars are the ints ``FpElement.value``, reduced mod p only at the zero
    test.  Nothing divides, so every sum is exact.  A zero column, such as
    an entry of d_1 that R/Q kills, is refused: the identities read d(f)
    off the columns.
    """

    def __init__(self, C: GradedFreeComplex):
        self.complex = C
        self.md = C.mdegs
        self.p = getattr(C.ring.field, "p", 0)
        self.modulus = [g.exps for g in C.ring.modulus]
        self.scalar = table_scalar(C.ring.field)
        self.d: dict = {}  # i -> {col: [(row, c)]}, the tables of C
        for i in range(1, C.length + 1):
            cols = C.table(i)
            for col in range(C.rank(i)):
                if col not in cols:
                    raise DomainError(f"d_{i} column {col} is zero")
            self.d[i] = cols

    def elements(self, level: int, table: dict, left, right) -> dict:
        """The polynomial values {(u, v): {w: c x^(left[u] + right[v] - m_w)}}
        of the scalars ``table`` of a map into C_level; ``left`` and
        ``right`` give the multidegrees of the sources."""
        md, ring = self.md, self.complex.ring
        convert = ring.field.convert
        return {
            (u, v): {
                w: Polynomial.from_monomial(ring, Monomial(tuple(
                    a + b - e for a, b, e in zip(left[u], right[v], md[level][w])
                )), convert(c))
                for w, c in terms
            }
            for (u, v), terms in table.items()
        }

    def terms(self, pairs, level: int, sources) -> list:
        """The (w, c) of ``pairs``, scalars keyed by generator of C_level in
        the multidegree of ``sources``, that are nonzero in R/Q, with c
        reduced mod p."""
        p, out = self.p, []
        for w, c in pairs:
            c = c % p if p else c
            if c and not self._killed(level, w, sources):
                out.append((w, c))
        return out

    def vanishes(self, res: dict, level: int, sources) -> bool:
        """True iff the sum with scalars ``res``, keyed by generator of
        C_level, is zero in R/Q.  The sum lies in the multidegree of the
        product of ``sources`` (multidegree vectors), so the monomial of
        coefficient w is that minus m_w: one kill test per target."""
        return not self.terms(res.items(), level, sources)

    def support(self, level: int, sources) -> list:
        """The generators w of C_level that a sum in the multidegree of the
        product of ``sources`` can reach: those where that multidegree
        minus m_w is a monomial and R/Q does not kill it."""
        md = self.md
        return [
            w for w in range(len(md[level]) if level < len(md) else 0)
            if min(self._exponents(level, w, sources)) >= 0
            and not self._killed(level, w, sources)
        ]

    def _exponents(self, level: int, w: int, sources) -> list:
        m = [-e for e in self.md[level][w]]
        for s in sources:
            m = [a + b for a, b in zip(m, s)]
        return m

    def _killed(self, level: int, w: int, sources) -> bool:
        if not self.modulus:
            return False
        m = self._exponents(level, w, sources)
        return any(all(a >= b for a, b in zip(m, g)) for g in self.modulus)


def _axpy(res: dict, c, terms) -> None:
    """res += c * terms on scalars keyed by generator."""
    for w, e in terms:
        res[w] = res.get(w, 0) + c * e


def certify_full_dg(prod: FullProduct) -> ProductCertificate:
    """All four DG-algebra axioms plus associativity, exhaustively on basis
    pairs and triples, on the scalars of the monomial matrices."""
    C = prod.complex
    top = C.length
    M, P = prod.matrices, prod.scalars
    d, md = M.d, M.md
    cert = ProductCertificate()
    for i in range(0, top + 1):
        for j in range(0, top - i + 1):
            Pij, Pji = P.get((i, j), {}), P.get((j, i), {})
            Pdi, Pdj = P.get((i - 1, j), {}), P.get((i, j - 1), {})
            d_ij, d_i, d_j = d.get(i + j, {}), d.get(i, {}), d.get(j, {})
            sign = 1 if i % 2 else -1
            comm = 1 if (i * j) % 2 else -1
            for u in range(C.rank(i)):
                for v in range(C.rank(j)):
                    cert.checked_pairs += 1
                    uv = Pij.get((u, v), ())
                    # Leibniz: d(xy) - dx.y - (-1)^i x.dy = 0
                    res: dict = {}
                    for w, c in uv:
                        _axpy(res, c, d_ij.get(w, ()))
                    for r, e in d_i.get(u, ()):
                        _axpy(res, -e, Pdi.get((r, v), ()))
                    for r, e in d_j.get(v, ()):
                        _axpy(res, sign * e, Pdj.get((u, r), ()))
                    sources = (md[i][u], md[j][v])
                    if not M.vanishes(res, i + j - 1, sources):
                        cert.leibniz_failures.append((i, j, u, v))
                    # graded commutativity: xy - (-1)^(ij) yx = 0
                    res = dict(uv)
                    _axpy(res, comm, Pji.get((v, u), ()))
                    if not M.vanishes(res, i + j, sources):
                        cert.commutativity_failures.append((i, j, u, v))
            if i % 2 and i == j:
                for u in range(C.rank(i)):
                    if Pij.get((u, u)):
                        cert.square_failures.append((i, u))
    for i in range(1, top + 1):
        for j in range(1, top - i + 1):
            for k in range(1, top - i - j + 1):
                Pij, Pij_k = P.get((i, j), {}), P.get((i + j, k), {})
                Pjk, Pi_jk = P.get((j, k), {}), P.get((i, j + k), {})
                for u in range(C.rank(i)):
                    for v in range(C.rank(j)):
                        uv = Pij.get((u, v), ())
                        for w in range(C.rank(k)):
                            cert.checked_triples += 1
                            # (xy)z - x(yz) = 0
                            res = {}
                            for x, c in uv:
                                _axpy(res, c, Pij_k.get((x, w), ()))
                            for x, c in Pjk.get((v, w), ()):
                                _axpy(res, -c, Pi_jk.get((u, x), ()))
                            sources = (md[i][u], md[j][v], md[k][w])
                            if not M.vanishes(res, i + j + k, sources):
                                cert.associativity_failures.append(
                                    (i, j, k, u, v, w)
                                )
    return cert


def certify_degree_one(prod: DegreeOneProduct) -> ProductCertificate:
    """The two degree-one identities, exhaustively on basis pairs:
    (a) d(f1.fj) = d(f1) fj - f1.d(fj), and (b) f1.(f1.fj) = 0, together
    with the degree-one squares f1.f1 = 0 that iterated constructions need;
    on the scalars of the monomial matrices."""
    C = prod.complex
    if C.rank(0) != 1:
        raise DomainError("degree-one certification expects C_0 = R")
    top = C.length
    M, P = prod.matrices, prod.scalars
    d, md = M.d, M.md
    alpha = [d[1][u][0][1] for u in range(C.rank(1))]
    cert = ProductCertificate()
    for j in range(1, top + 1):
        Pj, Pdown, Pup = P.get(j, {}), P.get(j - 1, {}), P.get(j + 1, {})
        d_up, d_j = d.get(j + 1, {}), d[j]
        for u in range(C.rank(1)):
            a = alpha[u]
            for v in range(C.rank(j)):
                cert.checked_pairs += 1
                uv = Pj.get((u, v), ())
                # d(f1.fj) - d(f1) fj + f1.d(fj) = 0
                res = {v: -a}
                for w, c in uv:
                    _axpy(res, c, d_up.get(w, ()))
                if j == 1:
                    res[u] = res.get(u, 0) + alpha[v]
                else:
                    for r, e in d_j.get(v, ()):
                        _axpy(res, e, Pdown.get((u, r), ()))
                if not M.vanishes(res, j, (md[1][u], md[j][v])):
                    cert.leibniz_failures.append(("leibniz", j, u, v))
                sq: dict = {}
                for w, c in uv:
                    _axpy(sq, c, Pup.get((u, w), ()))
                if not M.vanishes(sq, j + 2, (md[1][u], md[1][u], md[j][v])):
                    cert.square_failures.append(("square", j, u, v))
        if j == 1:
            for u in range(C.rank(1)):
                if Pj.get((u, u)):
                    cert.square_failures.append(("self-square", u))
    return cert


# ---------------------------------------------------------------------------
# the degree-one product on star products


def star_degree_one_product(
    F: GradedFreeComplex,
    G: GradedFreeComplex,
    prodF: DegreeOneProduct | FullProduct,
    prodG: DegreeOneProduct | FullProduct,
) -> DegreeOneProduct:
    """The two-case degree-one product on F*G:

    (f1 (x) g1) . (fa (x) gb) = (-1)^a d(f1) fa (x) g1.gb,  plus
    d(gb) f1.fa (x) g1 when b = 1.

    Inputs must satisfy the degree-one identities; the output is certified
    the same way (exhaustively on basis pairs) before being returned.  The
    table is assembled as scalars on the monomial matrices of F*G: the term
    at target w is the product of the scalars of d(f1) or d(gb) and of the
    input value, times x^(m_p + m_x - m_w).
    """
    prodF, prodG = prodF.degree_one(), prodG.degree_one()
    for name, pr in (("left", prodF), ("right", prodG)):
        if not pr.certificate.ok:
            raise CertificationError(
                f"{name} input product fails the degree-one identities"
            )
    S = star_product(F, G)
    M = _MonomialMatrices(S)
    md = M.md
    bases = {n: star_basis(F, G, n) for n in range(1, S.length + 1)}
    index = {n: {key: k for k, key in enumerate(bases[n])} for n in bases}
    dF, dG = prodF.matrices.d[1], prodG.matrices.d[1]
    PF, PG = prodF.scalars, prodG.scalars
    scalars: dict = {}
    for j in range(1, S.length + 1):
        tab: dict = {}
        target = index.get(j + 1, {})
        for p_idx, (_, _, uf, ug) in enumerate(bases[1]):
            ((_, alpha),) = dF[uf]
            for x_idx, (a, b, fa, gb) in enumerate(bases[j]):
                found = []
                signed = -alpha if a % 2 else alpha
                for w, q in PG.get(b, {}).get((ug, gb), ()):
                    found.append((target[(a, b + 1, fa, w)], signed * q))
                if b == 1:
                    ((_, beta),) = dG[gb]
                    for w, q in PF.get(a, {}).get((uf, fa), ()):
                        found.append((target[(a + 1, 1, w, ug)], beta * q))
                # the two cases land on (a, b + 1, ., .) and (a + 1, 1, ., .),
                # so each target has one term; R/Q may kill its monomial
                terms = M.terms(found, j + 1, (md[1][p_idx], md[j][x_idx]))
                if terms:
                    tab[(p_idx, x_idx)] = terms
        scalars[j] = tab
    prod = DegreeOneProduct(M, scalars)
    cert = prod.certificate
    if not cert.ok:
        raise CertificationError(
            f"star degree-one product failed: "
            f"{(cert.leibniz_failures + cert.square_failures)[:3]}"
        )
    return prod


# ---------------------------------------------------------------------------
# DG-module structure over a Koszul complex


@dataclass
class ActionCertificate:
    leibniz_failures: list = field(default_factory=list)
    relation_failures: list = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not (self.leibniz_failures or self.relation_failures)


@dataclass
class ModuleAction:
    """A DG-module action of a Koszul complex K on a resolution C, stored
    as monomial-matrix scalars: ``scalars[(i, j)][(S, v)]`` lists the
    (w, c) with e_S * f_v = sum_w c x^(m_S + m_v - m_w) f_w, for e_S in K_i
    and f_v in C_j.  ``tables`` is the polynomial view, built when read."""

    koszul: GradedFreeComplex
    matrices: _MonomialMatrices
    phi: list
    scalars: dict
    certificate: ActionCertificate

    @property
    def complex(self) -> GradedFreeComplex:
        return self.matrices.complex

    @cached_property
    def tables(self) -> dict:
        """(i, j) -> {(subset, v): {w: Polynomial}}"""
        M, subsets = self.matrices, self.koszul.meta["subsets"]
        mK = self.koszul.mdegs
        return {
            (i, j): M.elements(i + j, tab, dict(zip(subsets[i], mK[i])), M.md[j])
            for (i, j), tab in self.scalars.items()
        }


def koszul_module_action(
    C: GradedFreeComplex, prod: DegreeOneProduct | FullProduct, elements: list
) -> ModuleAction:
    """Make C a DG-module over the Koszul complex on a monomial regular
    sequence contained in the resolved ideal: lift a comparison map phi, act
    by k1 * f = phi_1(k1) . f, and extend through the exterior algebra.

    The extension is certified: the action kills the exterior relations on a
    spanning set (diagonal and polarized degree-one pairs) and satisfies the
    module Leibniz rule on all basis pairs.  Like the product, the action
    works on monomial-matrix scalars: every value and identity is a sum of
    scalars keyed by target generator, with one kill test per target.  C is
    the complex of the product.
    """
    prod = prod.degree_one()
    M, P = prod.matrices, prod.scalars
    d, md = M.d, M.md
    ring = C.ring
    mons = regular_sequence(ring, elements)
    polys = [Polynomial.from_monomial(ring, m) for m in mons]
    for m, f in zip(mons, polys):
        if not any(all(a >= b for a, b in zip(m.exps, g)) for g in md[1]):
            raise DomainError(f"{f} is not in the resolved ideal")
    K = koszul_complex(polys)
    phi = lift_comparison_map(K, C)
    MK = _MonomialMatrices(K)
    subsets, mK = K.meta["subsets"], MK.md
    # the lift solves for phi_1(e_s) on the multidegree block of a_s, so
    # it lies there by construction: its entry at w is one term
    # c x^(mdeg a_s - m_w)
    phi1: list = [[] for _ in mons]
    for (w, s), f in phi[1].entries.items():
        (c,) = f.term_dict().values()
        phi1[s].append((w, M.scalar(c)))

    def act(S: tuple, j: int, vec):
        """e_S * vec on (generator of C_j, scalar) pairs: e_s * f =
        phi_1(e_s) . f for each s in S, the last one first."""
        for s in reversed(S):
            out: dict = {}
            Pj = P.get(j, {})
            for w, a in phi1[s]:
                for v, b in vec:
                    _axpy(out, a * b, Pj.get((w, v), ()))
            vec, j = out.items(), j + 1
        return vec

    scalars: dict = {}
    for i in range(1, K.length + 1):
        for j in range(1, C.length + 1):
            tab = {}
            for S, mS in zip(subsets[i], mK[i]):
                for v in range(C.rank(j)):
                    terms = M.terms(act(S, j, [(v, 1)]), i + j, (mS, md[j][v]))
                    if terms:
                        tab[(S, v)] = terms
            if tab:
                scalars[(i, j)] = tab
    cert = ActionCertificate()
    # exterior relations on the spanning set: s.(s'.f) + s'.(s.f) = 0
    for s in range(len(mons)):
        for s2 in range(s, len(mons)):
            for j in range(1, C.length + 1):
                for v in range(C.rank(j)):
                    cert.checked += 1
                    res = dict(act((s, s2), j, [(v, 1)]))
                    if s != s2:
                        _axpy(res, 1, act((s2, s), j, [(v, 1)]))
                    sources = (mK[1][s], mK[1][s2], md[j][v])
                    if not M.vanishes(res, j + 2, sources):
                        cert.relation_failures.append((s, s2, j, v))
    # module Leibniz: d(e_S * f) = d(e_S) * f + (-1)^|S| e_S * d(f)
    for i in range(1, K.length + 1):
        sign = 1 if i % 2 else -1
        for j in range(1, C.length + 1):
            if i + j > C.length + 1:
                continue
            tab, d_ij = scalars.get((i, j), {}), d.get(i + j, {})
            lower, left = scalars.get((i - 1, j), {}), scalars.get((i, j - 1), {})
            for Sidx, (S, mS) in enumerate(zip(subsets[i], mK[i])):
                for v in range(C.rank(j)):
                    cert.checked += 1
                    res = {}
                    for w, c in tab.get((S, v), ()):
                        _axpy(res, c, d_ij.get(w, ()))
                    for r, q in MK.d[i][Sidx]:
                        if i == 1:
                            res[v] = res.get(v, 0) - q
                        else:
                            _axpy(res, -q, lower.get((subsets[i - 1][r], v), ()))
                    if j == 1:
                        # d(f) lands in C_0 = R, where e_s acts on the unit
                        # as phi_1(e_s)
                        ((_, beta),) = d[1][v]
                        _axpy(res, sign * beta, act(S[:-1], 1, phi1[S[-1]]))
                    else:
                        for r, e in d[j][v]:
                            _axpy(res, sign * e, left.get((S, r), ()))
                    if not M.vanishes(res, i + j - 1, (mS, md[j][v])):
                        cert.leibniz_failures.append((i, j, S, v))
    return ModuleAction(K, M, phi, scalars, cert)


# ---------------------------------------------------------------------------
# experimental associativity probe


@dataclass
class ProbeStage:
    n: int
    blocks: list
    variables: int
    assoc_enforced: bool
    leibniz_unsolvable: list


@dataclass
class ProbeReport:
    """Findings of the experimental extension attempt; never a claim.

    ``extension_found`` records whether Leibniz-compatible products exist in
    every requested bidegree; ``associative`` whether the canonical choice
    also has vanishing associators on all tested basis triples.
    """

    bound: int
    stages: list
    tested_triples: int = 0
    residual_triples: list = field(default_factory=list)

    @property
    def extension_found(self) -> bool:
        return all(not s.leibniz_unsolvable for s in self.stages)

    @property
    def associative(self) -> bool:
        return self.extension_found and not self.residual_triples


def associativity_probe(
    C: GradedFreeComplex, prod: DegreeOneProduct | FullProduct, bound=None
) -> ProbeReport:
    """Try to extend a degree-one product to C_i (x) C_j -> C_{i+j} for
    i + j <= bound by solving the Leibniz constraints stage by stage,
    preferring solutions that also satisfy the associativity constraints
    that are linear at each stage; then report associator residuals on all
    basis triples.  Report-only: the outcome is data, not a theorem.

    The unknowns are the scalars c_uvw of f_u.f_v = sum_w c_uvw
    x^(m_u + m_v - m_w) f_w, one per generator w of C_{i+j} whose monomial
    R/Q does not kill, and each constraint is a sum of scalars keyed by
    target generator (see _MonomialMatrices).  C_0 = R acts as the unit.
    C is the complex of the product; raises DomainError unless C and the
    product are multigraded.
    """
    prod = prod.degree_one()
    if bound is None:
        bound = C.length + 1
    if bound <= 0:
        return ProbeReport(bound=bound, stages=[])
    M = prod.matrices
    d, md, p = M.d, M.md, M.p
    known = {(1, j): tab for j, tab in prod.scalars.items()}
    unit = {v: e for v, col in d.get(1, {}).items() for r, e in col if r == 0}

    def value(i: int, j: int, u: int, v: int):
        return known.get((i, j), {}).get((u, v), ())

    def reduced(c):
        return c % p if p else c

    def emit(rows: list, rhs_of: dict, eqs: dict, rhs: dict, level: int, sources):
        """Append one row per target generator of C_level whose monomial
        R/Q does not kill; ``eqs`` holds its unknowns, ``rhs`` its right
        side."""
        for g in sorted(set(eqs) | set(rhs)):
            if M._killed(level, g, sources):
                continue
            row = {x: c for x, c in eqs.get(g, {}).items() if reduced(c)}
            c = reduced(rhs.get(g, 0))
            if c:
                rhs_of[len(rows)] = c
            if row or c:
                rows.append(row)

    stages = []
    for n in range(3, bound + 1):
        blocks = [(i, n - i) for i in range(2, n) if C.rank(i) and C.rank(n - i)]
        # (i, j, u, v) -> {w: column}; columns in (block, pair, w) order
        unknowns: dict = {}
        nvars = 0
        for i, j in blocks:
            for u in range(C.rank(i)):
                for v in range(C.rank(j)):
                    ws = M.support(n, (md[i][u], md[j][v]))
                    unknowns[(i, j, u, v)] = {w: nvars + k for k, w in enumerate(ws)}
                    nvars += len(ws)
        rows: list = []
        rhs_of: dict = {}
        unsolvable = []

        # Leibniz: d(f_u.f_v) = d(f_u).f_v + (-1)^i f_u.d(f_v)
        d_n = d.get(n, {})
        for i, j in blocks:
            sign = -1 if i % 2 else 1
            for u in range(C.rank(i)):
                for v in range(C.rank(j)):
                    sources = (md[i][u], md[j][v])
                    rhs: dict = {}
                    for r, e in d[i].get(u, ()):
                        _axpy(rhs, e, value(i - 1, j, r, v))
                    if j == 1:
                        rhs[u] = rhs.get(u, 0) + sign * unit.get(v, 0)
                    else:
                        for r, e in d[j].get(v, ()):
                            _axpy(rhs, sign * e, value(i, j - 1, u, r))
                    cols = unknowns[(i, j, u, v)]
                    if not cols:
                        if not M.vanishes(rhs, n - 1, sources):
                            unsolvable.append(((i, j), (u, v)))
                        continue
                    eqs: dict = {}
                    for w, x in cols.items():
                        for r, e in d_n.get(w, ()):
                            eqs.setdefault(r, {})[x] = e
                    emit(rows, rhs_of, eqs, rhs, n - 1, sources)
        n_leibniz = len(rows)

        # associativity constraints that are linear at this stage:
        # (f_x.f_y).f_z - f_x.(f_y.f_z) = 0
        for a in range(1, n - 1):
            for b in range(1, n - a):
                c_deg = n - a - b
                if not (C.rank(a) and C.rank(b) and C.rank(c_deg)):
                    continue
                for x in range(C.rank(a)):
                    for y in range(C.rank(b)):
                        xy = value(a, b, x, y)
                        for z in range(C.rank(c_deg)):
                            eqs, rhs = {}, {}
                            for w, s in xy:
                                for g, col in unknowns[(a + b, c_deg, w, z)].items():
                                    eqs.setdefault(g, {})[col] = s
                            for w, s in value(b, c_deg, y, z):
                                if a == 1:
                                    _axpy(rhs, s, value(1, b + c_deg, x, w))
                                    continue
                                for g, col in unknowns[(a, b + c_deg, x, w)].items():
                                    eqs.setdefault(g, {})[col] = -s
                            sources = (md[a][x], md[b][y], md[c_deg][z])
                            emit(rows, rhs_of, eqs, rhs, n, sources)

        sol = None
        assoc_enforced = False
        if nvars or rows:
            sol = linalg.solve(rows, nvars, rhs_of, C.ring.field)
            if sol is not None:
                assoc_enforced = True
            else:
                leibniz_rhs = {r: c for r, c in rhs_of.items() if r < n_leibniz}
                sol = linalg.solve(rows[:n_leibniz], nvars, leibniz_rhs, C.ring.field)
                if sol is None:
                    unsolvable.append(("stage", n))
        sol = sol or {}
        for block in blocks:
            known[block] = {}
        for (i, j, u, v), cols in unknowns.items():
            terms = [(w, M.scalar(sol[x])) for w, x in cols.items() if x in sol]
            if terms:
                known[(i, j)][(u, v)] = terms
        stages.append(ProbeStage(n, blocks, nvars, assoc_enforced, unsolvable))

    report = ProbeReport(bound=bound, stages=stages)
    for a in range(1, bound - 1):
        for b in range(1, bound - a):
            for c_deg in range(1, bound - a - b + 1):
                for x in range(C.rank(a)):
                    for y in range(C.rank(b)):
                        xy = value(a, b, x, y)
                        for z in range(C.rank(c_deg)):
                            report.tested_triples += 1
                            res: dict = {}
                            for w, s in xy:
                                _axpy(res, s, value(a + b, c_deg, w, z))
                            for w, s in value(b, c_deg, y, z):
                                _axpy(res, -s, value(a, b + c_deg, x, w))
                            sources = (md[a][x], md[b][y], md[c_deg][z])
                            if not M.vanishes(res, a + b + c_deg, sources):
                                report.residual_triples.append(
                                    ((a, b, c_deg), (x, y, z))
                                )
    return report
