"""Multiplicative structures on resolutions.

A product is stored as an explicit table on basis pairs with values in the
target term; all identities (Leibniz, square-zero, commutativity,
associativity) are certified exactly on basis pairs/triples.  Every complex
here is multigraded, so the certificates compare scalars of monomial
matrices, not polynomials.  Square-zero is a quadratic identity, so it is certified on
the spanning set of generators (diagonal plus S_1 squares), which is
exactly what the iterated star construction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import linalg
from .complexes import (
    GradedFreeComplex,
    multidegrees,
    star_basis,
    star_product,
)
from .errors import CertificationError, DomainError
from .exterior import (
    KElement,
    k_acc,
    k_apply,
    k_axpy,
    k_bilinear,
    wedge_subsets,
)
from .ideals import MonomialIdeal, regular_sequence
from .poly import Monomial, Polynomial
from .resolutions import koszul_complex, lift_comparison_map, taylor_complex


class DegreeOneProduct:
    """A product C_1 (x) C_j -> C_{j+1} given by tables on basis pairs.

    ``tables`` holds the values as elements, ``scalars`` the same product
    on the monomial matrices of the complex (see _MonomialMatrices).  A
    product built from tables derives its scalars on first use; one built
    by :meth:`from_scalars` builds its tables only when they are read.
    """

    def __init__(self, complex: GradedFreeComplex, tables: dict):
        self.complex = complex
        self.tables = tables

    @classmethod
    def from_scalars(cls, matrices: _MonomialMatrices, scalars: dict):
        prod = cls.__new__(cls)
        prod.complex, prod.matrices, prod.scalars = matrices.complex, matrices, scalars
        return prod

    @cached_property
    def tables(self) -> dict:
        """j -> {(u, v): KElement}"""
        M = self.matrices
        return {j: M.elements(1, j, tab) for j, tab in self.scalars.items()}

    @cached_property
    def matrices(self) -> _MonomialMatrices:
        return _MonomialMatrices(self.complex)

    @cached_property
    def scalars(self) -> dict:
        """j -> {(u, v): [(w, c)]} for 1 <= j <= length."""
        M, top = self.matrices, self.complex.length
        return {
            j: M.table(1, j, tab) for j, tab in self.tables.items() if 1 <= j <= top
        }

    def value(self, j: int, u: int, v: int) -> KElement:
        return self.tables.get(j, {}).get((u, v), {})

    def apply(self, j: int, left: KElement, right: KElement) -> KElement:
        """Bilinear extension with polynomial coefficients on both slots."""
        return k_bilinear(self.tables.get(j, {}), left, right)

    @cached_property
    def certificate(self) -> ProductCertificate:
        """The degree-one identities, certified once per product."""
        return certify_degree_one(self)

    def to_json(self) -> dict:
        """Tables as triple lists: [left index, right index, result vector]."""
        return {
            str(j): [
                [u, v, {str(w): str(p) for w, p in sorted(val.items())}]
                for (u, v), val in sorted(tab.items())
            ]
            for j, tab in sorted(self.tables.items())
        }


class FullProduct:
    """A product on all bidegrees C_i (x) C_j -> C_{i+j}."""

    def __init__(self, complex: GradedFreeComplex, tables: dict):
        self.complex = complex
        self.tables = tables  # (i, j) -> {(u, v): KElement}

    def value(self, i: int, j: int, u: int, v: int) -> KElement:
        return self.tables.get((i, j), {}).get((u, v), {})

    def degree_one(self) -> DegreeOneProduct:
        tables = {}
        for (i, j), tab in self.tables.items():
            if i == 1:
                tables[j] = dict(tab)
        return DegreeOneProduct(self.complex, tables)

    def to_json(self) -> dict:
        return {
            f"{i},{j}": [
                [u, v, {str(w): str(p) for w, p in sorted(val.items())}]
                for (u, v), val in sorted(tab.items())
            ]
            for (i, j), tab in sorted(self.tables.items())
        }


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


def _exterior_full_product(C: GradedFreeComplex, lcms=None) -> FullProduct:
    """e_S . e_T = sign(S,T) c(S,T) e_{S u T} on a subset-indexed complex;
    the coefficient is 1 for Koszul and lcm_S lcm_T / lcm_{S u T} for Taylor."""
    subsets = C.meta["subsets"]
    index = [
        {S: k for k, S in enumerate(subsets[i])} for i in range(len(subsets))
    ]
    ring = C.ring
    tables: dict = {}
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
                    if lcms is None:
                        coeff = Polynomial.constant(ring, sign)
                    else:
                        mono = (lcms[i][S] * lcms[j][T]).divide(lcms[i + j][U])
                        coeff = Polynomial.from_monomial(
                            ring, mono, ring.field.from_int(sign)
                        )
                    # R/Q may kill the coefficient: then the product is zero
                    if not coeff.is_zero:
                        tab[(u, v)] = {index[i + j][U]: coeff}
            tables[(i, j)] = tab
    return FullProduct(C, tables)


def koszul_dg_product(K: GradedFreeComplex) -> FullProduct:
    """The exterior-algebra product on a Koszul complex."""
    if "subsets" not in K.meta:
        raise DomainError("expected a complex built by koszul_complex")
    return _exterior_full_product(K)


def taylor_dg_product(I: MonomialIdeal, C: GradedFreeComplex | None = None) -> FullProduct:
    """The classical associative DG product on the Taylor complex of I,
    certified in full (Leibniz, graded commutativity, associativity, odd
    squares) before being returned."""
    C = C or taylor_complex(I)
    prod = _exterior_full_product(C, C.meta["lcms"])
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
    test.  Nothing divides, so every sum is exact.
    """

    def __init__(self, C: GradedFreeComplex):
        self.complex = C
        self.md = multidegrees(C)
        self.p = getattr(C.ring.field, "p", 0)
        self.modulus = [g.exps for g in C.ring.modulus]
        self.d: dict = {}  # i -> {col: [(row, c)]}
        for i in range(1, C.length + 1):
            cols: dict = {}
            for (r, col), p in C.diff(i).entries.items():
                (c,) = p.term_dict().values()
                cols.setdefault(col, []).append((r, self.scalar(c)))
            self.d[i] = cols

    def scalar(self, c):
        if self.p:
            return c.value
        return c.numerator if c.denominator == 1 else c

    def table(self, i: int, j: int, tab: dict) -> dict:
        """{(u, v): [(w, c)]} for a product C_i (x) C_j -> C_{i+j} given by
        ``tab`` on basis pairs.  Raises DomainError unless each value is a
        sum of terms c x^(m_u + m_v - m_w) f_w."""
        md = self.md
        level = md[i + j] if i + j < len(md) else []
        out = {}
        for (u, v), val in tab.items():
            terms = []
            for w, p in val.items():
                t = list(p.term_dict().items())
                if not t:
                    continue
                if not 0 <= w < len(level):
                    raise DomainError(
                        f"product ({i},{j})[{u},{v}] has a term outside the complex"
                    )
                want = tuple(
                    a + b - e for a, b, e in zip(md[i][u], md[j][v], level[w])
                )
                if len(t) != 1 or t[0][0].exps != want:
                    raise DomainError(
                        f"product ({i},{j})[{u},{v}] has coefficient {p} at {w}, "
                        f"not a multiple of the monomial with exponents {want}"
                    )
                terms.append((w, self.scalar(t[0][1])))
            if terms:
                out[(u, v)] = terms
        return out

    def elements(self, i: int, j: int, table: dict) -> dict:
        """The inverse of :meth:`table`: {(u, v): {w: c x^(m_u + m_v - m_w)}}."""
        md, ring = self.md, self.complex.ring
        convert = ring.field.convert
        return {
            (u, v): {
                w: Polynomial.from_monomial(ring, Monomial(tuple(
                    a + b - e for a, b, e in zip(md[i][u], md[j][v], md[i + j][w])
                )), convert(c))
                for w, c in terms
            }
            for (u, v), terms in table.items()
        }

    def vanishes(self, res: dict, level: int, sources) -> bool:
        """True iff the sum with scalars ``res``, keyed by generator of
        C_level, is zero in R/Q.  The sum lies in the multidegree of the
        product of ``sources`` ((level, generator) pairs), so the monomial
        of coefficient w is that minus m_w: one kill test per target."""
        p = self.p
        for w, s in res.items():
            if (s % p if p else s) and not self._killed(level, w, sources):
                return False
        return True

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
        md = self.md
        m = [-e for e in md[level][w]]
        for lv, g in sources:
            m = [a + b for a, b in zip(m, md[lv][g])]
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
    M = _MonomialMatrices(C)
    P = {
        (i, j): M.table(i, j, tab)
        for (i, j), tab in prod.tables.items()
        if i >= 0 and j >= 0 and i + j <= top
    }
    d = M.d
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
                    if not M.vanishes(res, i + j - 1, ((i, u), (j, v))):
                        cert.leibniz_failures.append((i, j, u, v))
                    # graded commutativity: xy - (-1)^(ij) yx = 0
                    res = dict(uv)
                    _axpy(res, comm, Pji.get((v, u), ()))
                    if not M.vanishes(res, i + j, ((i, u), (j, v))):
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
                            if not M.vanishes(
                                res, i + j + k, ((i, u), (j, v), (k, w))
                            ):
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
    d = M.d
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
                if not M.vanishes(res, j, ((1, u), (j, v))):
                    cert.leibniz_failures.append(("leibniz", j, u, v))
                sq: dict = {}
                for w, c in uv:
                    _axpy(sq, c, Pup.get((u, w), ()))
                if not M.vanishes(sq, j + 2, ((1, u), (1, u), (j, v))):
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
    if isinstance(prodF, FullProduct):
        prodF = prodF.degree_one()
    if isinstance(prodG, FullProduct):
        prodG = prodG.degree_one()
    for name, pr in (("left", prodF), ("right", prodG)):
        if not pr.certificate.ok:
            raise CertificationError(
                f"{name} input product fails the degree-one identities"
            )
    S = star_product(F, G)
    M = _MonomialMatrices(S)
    p = M.p
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
                sources = ((1, p_idx), (j, x_idx))
                terms = []
                for k, c in found:
                    c = c % p if p else c
                    if c and not M._killed(j + 1, k, sources):
                        terms.append((k, c))
                if terms:
                    tab[(p_idx, x_idx)] = terms
        scalars[j] = tab
    prod = DegreeOneProduct.from_scalars(M, scalars)
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
    """A DG-module action of a Koszul complex on a resolution."""

    koszul: GradedFreeComplex
    complex: GradedFreeComplex
    phi: list
    tables: dict  # (i, j) -> {(subset, v): KElement}
    certificate: ActionCertificate

    def act(self, i: int, j: int, S: tuple, vec: KElement) -> KElement:
        one = Polynomial.one(self.complex.ring)
        return k_bilinear(self.tables.get((i, j), {}), {S: one}, vec)


def koszul_module_action(
    C: GradedFreeComplex, prod: DegreeOneProduct | FullProduct, elements: list
) -> ModuleAction:
    """Make C a DG-module over the Koszul complex on a monomial regular
    sequence contained in the resolved ideal: lift a comparison map phi, act
    by k1 * f = phi_1(k1) . f, and extend through the exterior algebra.

    The extension is certified: the action kills the exterior relations on a
    spanning set (diagonal and polarized degree-one pairs) and satisfies the
    module Leibniz rule on all basis pairs.
    """
    if isinstance(prod, FullProduct):
        prod = prod.degree_one()
    ring = C.ring
    mons = regular_sequence(ring, elements)
    polys = [Polynomial.from_monomial(ring, m) for m in mons]
    d1_entries = [p for (_, _), p in sorted(C.diff(1).entries.items())]
    d1_monos = [
        next(iter(p.term_dict()))
        for p in d1_entries
        if len(p.term_dict()) == 1
    ]
    if len(d1_monos) == len(d1_entries):
        for m, p in zip(mons, polys):
            if not any(g.divides(m) for g in d1_monos):
                raise DomainError(f"{p} is not in the resolved ideal")
    K = koszul_complex(polys)
    phi = lift_comparison_map(K, C)
    phi1_cols = [phi[1].column(s) for s in range(len(polys))]

    def act1(s: int, j: int, vec: KElement) -> KElement:
        return prod.apply(j, phi1_cols[s], vec)

    subsets = K.meta["subsets"]
    one = Polynomial.one(ring)

    # e_S acting on 1 in C_0: the iterated product of the phi_1 images
    scalar_act: dict = {(): {0: one}}
    for i in range(1, K.length + 1):
        for S in subsets[i]:
            if i == 1:
                scalar_act[S] = dict(phi1_cols[S[0]])
            else:
                scalar_act[S] = act1(S[0], i - 1, scalar_act[S[1:]])

    tables: dict = {}
    for i in range(1, K.length + 1):
        for j in range(1, C.length + 1):
            tab = {}
            for S in subsets[i]:
                for v in range(C.rank(j)):
                    vec: KElement = {v: one}
                    jj = j
                    for s in reversed(S):
                        vec = act1(s, jj, vec)
                        jj += 1
                    if vec:
                        tab[(S, v)] = vec
            if tab:
                tables[(i, j)] = tab
    cert = ActionCertificate()
    # exterior relations on the spanning set: s.(s'.f) + s'.(s.f) = 0
    for s in range(len(polys)):
        for s2 in range(s, len(polys)):
            for j in range(1, C.length + 1):
                for v in range(C.rank(j)):
                    cert.checked += 1
                    a = act1(s, j + 1, act1(s2, j, {v: one}))
                    if s == s2:
                        if a:
                            cert.relation_failures.append((s, s2, j, v))
                        continue
                    k_axpy(a, 1, act1(s2, j + 1, act1(s, j, {v: one})))
                    if a:
                        cert.relation_failures.append((s, s2, j, v))
    # module Leibniz: d(e_S * f) = d(e_S) * f + (-1)^|S| e_S * d(f)
    action = ModuleAction(K, C, phi, tables, cert)
    for i in range(1, K.length + 1):
        for j in range(1, C.length + 1):
            if i + j > C.length + 1:
                continue
            tab = tables.get((i, j), {})
            for Sidx, S in enumerate(subsets[i]):
                dS = K.diff(i).column(Sidx)
                sign = 1 if i % 2 else -1
                for v in range(C.rank(j)):
                    cert.checked += 1
                    res = k_apply(C.diff(i + j), tab.get((S, v), {}))
                    for r, q in dS.items():
                        if i - 1 == 0:
                            k_acc(res, v, -q)
                        else:
                            Sr = subsets[i - 1][r]
                            k_axpy(res, -q, action.act(i - 1, j, Sr, {v: one}))
                    if j == 1:
                        # d(f) lands in C_0 = R: e_S acts through its
                        # iterated product on the unit
                        beta = C.diff(1).entry(0, v)
                        k_axpy(res, beta.scale(sign), scalar_act[S])
                    else:
                        term = action.act(i, j - 1, S, C.diff(j).column(v))
                        k_axpy(res, sign, term)
                    if res:
                        cert.leibniz_failures.append((i, j, S, v))
    return action


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
    if isinstance(prod, FullProduct):
        prod = prod.degree_one()
    if bound is None:
        bound = C.length + 1
    if bound <= 0:
        return ProbeReport(bound=bound, stages=[])
    M = prod.matrices
    d, p = M.d, M.p
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
                    ws = M.support(n, ((i, u), (j, v)))
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
                    sources = ((i, u), (j, v))
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
                            sources = ((a, x), (b, y), (c_deg, z))
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
                            sources = ((a, x), (b, y), (c_deg, z))
                            if not M.vanishes(res, a + b + c_deg, sources):
                                report.residual_triples.append(
                                    ((a, b, c_deg), (x, y, z))
                                )
    return report
