"""Multiplicative structures on resolutions.

Every complex here is multigraded, with its differentials stored as the
scalars ``table(i)`` of monomial matrices over the multidegrees ``mdegs``.
So a product or module action is stored once, as scalars on basis pairs
read the same way.  All identities (Leibniz, square-zero, commutativity,
associativity) are certified exactly on basis pairs/triples as sums of
scalars keyed by target generator (see _nonzero).  GF(p) scalars are
reduced mod p only at the zero test and nothing divides, so every sum is
exact.  Square-zero is a quadratic identity, so it is certified on the
spanning set of generators (diagonal plus S_1 squares), which is exactly
what the iterated star construction consumes.
"""

from __future__ import annotations

from functools import cached_property

from . import linalg
from .complexes import GradedFreeComplex, star_product
from .errors import CertificationError, DomainError, Record
from .exterior import wedge_subsets
from .ideals import MonomialIdeal, regular_sequence
from .resolutions import koszul_complex, lift_comparison_map, taylor_complex


class _Product:
    """A product on basis pairs of a multigraded complex, stored as scalars:
    ``scalars[key][(u, v)]`` lists the (w, c) with
    f_u . f_v = sum_w c x^(m_u + m_v - m_w) f_w.  Raises DomainError if the
    complex has a zero column (see _refuse_zero_columns).
    """

    def __init__(self, C: GradedFreeComplex, scalars: dict):
        _refuse_zero_columns(C)
        self.complex = C
        self.scalars = scalars


def _refuse_zero_columns(C: GradedFreeComplex) -> None:
    """Raise DomainError if some column of a differential of C is zero, such
    as an entry of d_1 that R/Q kills: the identities read d(f) off the
    columns."""
    for i in range(1, C.length + 1):
        cols = C.table(i)
        for col in range(C.rank(i)):
            if col not in cols:
                raise DomainError(f"d_{i} column {col} is zero")


def _exponents(m, sources) -> tuple:
    """The multidegree of the product of ``sources`` (multidegree vectors)
    minus m."""
    return tuple(sum(s) - e for s, e in zip(zip(*sources), m))


def _nonzero(C: GradedFreeComplex):
    """The function ``nonzero(pairs, level, sources)``: the (w, c) of
    ``pairs``, scalars keyed by generator of C_level in the multidegree of
    the product of ``sources``, that are nonzero in R/Q, with c reduced mod
    p.  The monomial at w is that multidegree minus m_w, so each target
    takes one kill test.  A target that C_level does not have has no
    monomial, so it is kept, never killed.  A sum is zero in R/Q iff none
    is left.  p and the kill test are bound once per certificate or
    assembly, not per target.
    """
    md, p = C.mdegs, getattr(C.ring.field, "p", 0)
    killed = C.ring.kills if C.ring.modulus else None

    def nonzero(pairs, level: int, sources) -> list:
        out = []
        for w, c in pairs:
            c = c % p if p else c
            if c and not (killed and w < len(md[level])
                          and killed(_exponents(md[level][w], sources))):
                out.append((w, c))
        return out

    return nonzero


class DegreeOneProduct(_Product):
    """A product C_1 (x) C_j -> C_{j+1}, keyed by j."""

    def degree_one(self) -> DegreeOneProduct:
        return self

    @cached_property
    def certificate(self) -> ProductCertificate:
        """The degree-one identities, certified once per product."""
        return certify_degree_one(self)


class FullProduct(_Product):
    """A product on all bidegrees C_i (x) C_j -> C_{i+j}, keyed by (i, j)."""

    def degree_one(self) -> DegreeOneProduct:
        """The C_1 (x) C_j part, on the same complex and scalars."""
        return DegreeOneProduct(
            self.complex, {j: tab for (i, j), tab in self.scalars.items() if i == 1}
        )


def _list(failures: list | None) -> list:
    """The list a certificate was given, or a new empty one."""
    return [] if failures is None else failures


class ProductCertificate(Record):
    __slots__ = _fields = (
        "leibniz_failures", "square_failures", "commutativity_failures",
        "associativity_failures", "checked_pairs", "checked_triples",
    )

    def __init__(
        self,
        leibniz_failures: list | None = None,
        square_failures: list | None = None,
        commutativity_failures: list | None = None,
        associativity_failures: list | None = None,
        checked_pairs: int = 0,
        checked_triples: int = 0,
    ):
        self.leibniz_failures = _list(leibniz_failures)
        self.square_failures = _list(square_failures)
        self.commutativity_failures = _list(commutativity_failures)
        self.associativity_failures = _list(associativity_failures)
        self.checked_pairs = checked_pairs
        self.checked_triples = checked_triples

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
    md, nonzero = C.mdegs, _nonzero(C)
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
                    terms = nonzero(
                        [(index[i + j][U], sign)], i + j, (md[i][u], md[j][v])
                    )
                    if terms:
                        tab[(u, v)] = terms
            scalars[(i, j)] = tab
    return FullProduct(C, scalars)


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


def _axpy(res: dict, c, terms) -> None:
    """res += c * terms on scalars keyed by generator."""
    for w, e in terms:
        res[w] = res.get(w, 0) + c * e


def certify_full_dg(prod: FullProduct) -> ProductCertificate:
    """All four DG-algebra axioms plus associativity, exhaustively on basis
    pairs and triples, on the scalars of the product and the differentials."""
    C, P = prod.complex, prod.scalars
    top, md, nonzero = C.length, C.mdegs, _nonzero(C)
    cert = ProductCertificate()
    for i in range(0, top + 1):
        for j in range(0, top - i + 1):
            Pij, Pji = P.get((i, j), {}), P.get((j, i), {})
            Pdi, Pdj = P.get((i - 1, j), {}), P.get((i, j - 1), {})
            d_ij, d_i, d_j = C.table(i + j), C.table(i), C.table(j)
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
                    if nonzero(res.items(), i + j - 1, sources):
                        cert.leibniz_failures.append((i, j, u, v))
                    # graded commutativity: xy - (-1)^(ij) yx = 0
                    res = dict(uv)
                    _axpy(res, comm, Pji.get((v, u), ()))
                    if nonzero(res.items(), i + j, sources):
                        cert.commutativity_failures.append((i, j, u, v))
            if i % 2 and i == j:
                for u in range(C.rank(i)):
                    if Pij.get((u, u)):
                        cert.square_failures.append((i, u))
    cert.associativity_failures, cert.checked_triples = _associator_sweep(
        C, P, top, nonzero
    )
    return cert


def _associator_sweep(C: GradedFreeComplex, P: dict, top: int, nonzero) -> tuple:
    """The basis triples (i, j, k, u, v, w) with i, j, k >= 1 and
    i + j + k <= top whose associator (f_u f_v) f_w - f_u (f_v f_w) is
    nonzero in R/Q, in sweep order, and the number of triples swept.  ``P``
    holds the product's scalars keyed by bidegree (i, j); ``nonzero`` is
    ``_nonzero(C)``."""
    md, failures, swept = C.mdegs, [], 0
    for i in range(1, top + 1):
        for j in range(1, top - i + 1):
            for k in range(1, top - i - j + 1):
                Pij, Pij_k = P.get((i, j), {}), P.get((i + j, k), {})
                Pjk, Pi_jk = P.get((j, k), {}), P.get((i, j + k), {})
                for u in range(C.rank(i)):
                    for v in range(C.rank(j)):
                        uv = Pij.get((u, v), ())
                        for w in range(C.rank(k)):
                            swept += 1
                            # (xy)z - x(yz) = 0
                            res: dict = {}
                            for x, c in uv:
                                _axpy(res, c, Pij_k.get((x, w), ()))
                            for x, c in Pjk.get((v, w), ()):
                                _axpy(res, -c, Pi_jk.get((u, x), ()))
                            sources = (md[i][u], md[j][v], md[k][w])
                            if nonzero(res.items(), i + j + k, sources):
                                failures.append((i, j, k, u, v, w))
    return failures, swept


def _rows(tab: dict, n: int, m: int) -> list:
    """The values ``tab[(u, v)]`` as rows[u][v] for u < n and v < m, with
    () where none is stored; a key outside that range is ignored."""
    rows = [[()] * m for _ in range(n)]
    for (u, v), val in tab.items():
        if 0 <= u < n and 0 <= v < m:
            rows[u][v] = val
    return rows


def certify_degree_one(prod: DegreeOneProduct) -> ProductCertificate:
    """The two degree-one identities, exhaustively on basis pairs:
    (a) d(f1.fj) = d(f1) fj - f1.d(fj), and (b) f1.(f1.fj) = 0, together
    with the degree-one squares f1.f1 = 0 that iterated constructions need;
    on the scalars of the product and the differentials.

    The product is read once per level as rows f_u.f_v = rows[u][v] (see
    _rows), and the levels below, at and above j shift as j advances.  A
    key outside the levels is ignored."""
    C, P = prod.complex, prod.scalars
    if C.rank(0) != 1:
        raise DomainError("degree-one certification expects C_0 = R")
    # over QQ with no modulus a sum is zero exactly when all its values are
    nonzero = _nonzero(C) if C.ring.modulus or hasattr(C.ring.field, "p") else None
    top, md, n1, d_1 = C.length, C.mdegs, C.rank(1), C.table(1)
    alpha = [d_1[u][0][1] for u in range(n1)]
    cert = ProductCertificate()
    leibniz, square = cert.leibniz_failures, cert.square_failures

    down, here = None, _rows(P.get(1, {}), n1, C.rank(1))
    for j in range(1, top + 1):
        n_up, d_up, d_j, mdj = C.rank(j + 1), C.table(j + 1), C.table(j), md[j]
        up = _rows(P.get(j + 1, {}), n1, n_up)
        for u in range(n1):
            a, mu, up_u = alpha[u], md[1][u], up[u]
            down_u = down and down[u]
            for v, uv in enumerate(here[u]):
                # d(f1.fj) - d(f1) fj + f1.d(fj) = 0
                res = {v: -a}
                get = res.get
                for w, c in uv:
                    for r, e in d_up.get(w, ()):
                        res[r] = get(r, 0) + c * e
                if j == 1:
                    res[u] = get(u, 0) + alpha[v]
                else:
                    for r, e in d_j.get(v, ()):
                        for x, q in down_u[r]:
                            res[x] = get(x, 0) + e * q
                if (nonzero(res.items(), j, (mu, mdj[v])) if nonzero
                        else any(res.values())):
                    leibniz.append(("leibniz", j, u, v))
                if uv:
                    sq: dict = {}
                    get = sq.get
                    for w, c in uv:
                        # a target off C_{j+1} has no row
                        for x, e in up_u[w] if 0 <= w < n_up else ():
                            sq[x] = get(x, 0) + c * e
                    if (nonzero(sq.items(), j + 2, (mu, mu, mdj[v])) if nonzero
                            else any(sq.values())):
                        square.append(("square", j, u, v))
        cert.checked_pairs += n1 * C.rank(j)
        if j == 1:
            for u in range(n1):
                if here[u][u]:
                    square.append(("self-square", u))
        down, here = here, up
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

    Each input product must live on its factor (same multidegrees, else
    DomainError) and satisfy the degree-one identities; the output is
    certified the same way (exhaustively on basis pairs) before being
    returned.  The table is assembled as scalars on F*G: the term at target
    w is the product of the scalars of d(f1) or d(gb) and of the input
    value, times x^(m_p + m_x - m_w).
    """
    prodF, prodG = prodF.degree_one(), prodG.degree_one()
    for name, X, pr in (("left", F, prodF), ("right", G, prodG)):
        if pr.complex.mdegs != X.mdegs:
            raise DomainError(
                f"{name} input product is not on the {name} factor's complex"
            )
        if not pr.certificate.ok:
            raise CertificationError(
                f"{name} input product fails the degree-one identities"
            )
    S = star_product(F, G)
    md, ring = S.mdegs, S.ring
    dF, dG = prodF.complex.table(1), prodG.complex.table(1)
    PF, PG = prodF.scalars, prodG.scalars
    # over QQ with no modulus nothing can drop: each term is the product of
    # two nonzero table scalars
    nonzero = _nonzero(S) if ring.modulus or hasattr(ring.field, "p") else None
    rF = [F.rank(a) for a in range(S.length + 3)]
    rG = [G.rank(b) for b in range(S.length + 3)]
    nG1 = rG[1]
    # (F*G)_n lists F_a (x) G_b by (a, fa, gb), so that key sits at
    # off[n][a] + fa rank(G_b) + gb
    off = [None]
    for n in range(1, S.length + 2):
        off.append([0] * (n + 2))
        for a in range(1, n + 1):
            off[n][a + 1] = off[n][a] + rF[a] * rG[n + 1 - a]
    alphas = [dF[u][0][1] for u in range(rF[1])]
    betas = [dG[v][0][1] for v in range(nG1)]
    rowsF = [_rows(PF.get(a, {}), rF[1], rF[a]) for a in range(len(rF))]
    rowsG = [_rows(PG.get(b, {}), nG1, rG[b]) for b in range(len(rG))]
    # only the pairs with a value in G, unless b = 1 and f1.fa has one
    nonempty = [[[(gb, t) for gb, t in enumerate(row) if t] for row in rows]
                for rows in rowsG]
    scalars: dict = {}
    for j in range(1, S.length + 1):
        tab: dict = {}
        mdj, here, there = md[j], off[j], off[j + 1]
        for p_idx, mp in enumerate(md[1]):
            uf, ug = divmod(p_idx, nG1)
            alpha = alphas[uf]
            for a in range(1, j + 1):
                b = j + 1 - a
                signed = -alpha if a % 2 else alpha
                g_row, g_some = rowsG[b][ug], nonempty[b][ug]
                g_at, g_step, nGb = there[a], rG[b + 1], rG[b]
                f_row, f_at = rowsF[a][uf] if b == 1 else None, there[a + 1] + ug
                for fa in range(rF[a]):
                    x_fa, g_fa = here[a] + fa * nGb, g_at + fa * g_step
                    f_terms = f_row and f_row[fa]
                    for gb, g_terms in enumerate(g_row) if f_terms else g_some:
                        found = []
                        for w, q in g_terms:
                            found.append((g_fa + w, signed * q))
                        if f_terms:
                            beta = betas[gb]
                            for w, q in f_terms:
                                found.append((f_at + w * nG1, beta * q))
                        # the two cases land on (a, b + 1, ., .) and
                        # (a + 1, 1, ., .), so each target has one term; R/Q
                        # may kill its monomial
                        if nonzero:
                            found = nonzero(found, j + 1, (mp, mdj[x_fa + gb]))
                        if found:
                            tab[(p_idx, x_fa + gb)] = found
        scalars[j] = tab
    prod = DegreeOneProduct(S, scalars)
    cert = prod.certificate
    if not cert.ok:
        raise CertificationError(
            f"star degree-one product failed: "
            f"{(cert.leibniz_failures + cert.square_failures)[:3]}"
        )
    return prod


# ---------------------------------------------------------------------------
# DG-module structure over a Koszul complex


class ActionCertificate(Record):
    __slots__ = _fields = ("leibniz_failures", "relation_failures", "checked")

    def __init__(
        self,
        leibniz_failures: list | None = None,
        relation_failures: list | None = None,
        checked: int = 0,
    ):
        self.leibniz_failures = _list(leibniz_failures)
        self.relation_failures = _list(relation_failures)
        self.checked = checked

    @property
    def ok(self) -> bool:
        return not (self.leibniz_failures or self.relation_failures)


class ModuleAction(Record):
    """A DG-module action of a Koszul complex K on a resolution C, stored
    as scalars: ``scalars[(i, j)][(S, v)]`` lists the (w, c) with
    e_S * f_v = sum_w c x^(m_S + m_v - m_w) f_w, for e_S in K_i and f_v in
    C_j.  ``phi`` is the comparison map K -> C as the scalar tables of
    :func:`lift_comparison_map`."""

    _fields = ("koszul", "complex", "phi", "scalars", "certificate")


def koszul_module_action(
    C: GradedFreeComplex, prod: DegreeOneProduct | FullProduct, elements: list
) -> ModuleAction:
    """Make C a DG-module over the Koszul complex on a monomial regular
    sequence contained in the resolved ideal: lift a comparison map phi, act
    by k1 * f = phi_1(k1) . f, and extend through the exterior algebra.

    The extension is certified: the action kills the exterior relations on a
    spanning set (diagonal and polarized degree-one pairs) and satisfies the
    module Leibniz rule on all basis pairs.  Like the product, the action
    works on scalars: every value and identity is a sum of scalars keyed by
    target generator, with one kill test per target.  C is the complex of
    the product; raises DomainError unless their multidegrees agree.
    """
    if prod.complex.mdegs != C.mdegs:
        raise DomainError("the product is not on the complex it acts on")
    P = prod.degree_one().scalars
    md, nonzero, ring = C.mdegs, _nonzero(C), C.ring
    mons = regular_sequence(ring, elements)
    for m in mons:
        if not any(all(a >= b for a, b in zip(m.exps, g)) for g in md[1]):
            raise DomainError(f"{ring.format_monomial(m)} is not in the resolved ideal")
    K = koszul_complex(mons, ring)
    phi = lift_comparison_map(K, C)
    _refuse_zero_columns(K)
    subsets, mK = K.meta["subsets"], K.mdegs
    # the lift solves for phi_1(e_s) on the multidegree block of a_s: its
    # entry at w is one term c x^(mdeg a_s - m_w), and the table holds c
    phi1 = [phi[1].get(s, []) for s in range(len(mons))]

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
                    terms = nonzero(act(S, j, [(v, 1)]), i + j, (mS, md[j][v]))
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
                    if nonzero(res.items(), j + 2, sources):
                        cert.relation_failures.append((s, s2, j, v))
    # module Leibniz: d(e_S * f) = d(e_S) * f + (-1)^|S| e_S * d(f)
    for i in range(1, K.length + 1):
        sign, dK = 1 if i % 2 else -1, K.table(i)
        for j in range(1, C.length + 1):
            if i + j > C.length + 1:
                continue
            tab, d_ij, d_j = scalars.get((i, j), {}), C.table(i + j), C.table(j)
            lower, left = scalars.get((i - 1, j), {}), scalars.get((i, j - 1), {})
            for Sidx, (S, mS) in enumerate(zip(subsets[i], mK[i])):
                for v in range(C.rank(j)):
                    cert.checked += 1
                    res = {}
                    for w, c in tab.get((S, v), ()):
                        _axpy(res, c, d_ij.get(w, ()))
                    for r, q in dK[Sidx]:
                        if i == 1:
                            res[v] = res.get(v, 0) - q
                        else:
                            _axpy(res, -q, lower.get((subsets[i - 1][r], v), ()))
                    if j == 1:
                        # d(f) lands in C_0 = R, where e_s acts on the unit
                        # as phi_1(e_s)
                        ((_, beta),) = d_j[v]
                        _axpy(res, sign * beta, act(S[:-1], 1, phi1[S[-1]]))
                    else:
                        for r, e in d_j[v]:
                            _axpy(res, sign * e, left.get((S, r), ()))
                    if nonzero(res.items(), i + j - 1, (mS, md[j][v])):
                        cert.leibniz_failures.append((i, j, S, v))
    return ModuleAction(K, C, phi, scalars, cert)


# ---------------------------------------------------------------------------
# experimental associativity probe


class ProbeStage(Record):
    __slots__ = _fields = (
        "n", "blocks", "variables", "assoc_enforced", "leibniz_unsolvable",
    )


class ProbeReport(Record):
    """Findings of the experimental extension attempt; never a claim.

    ``extension_found`` records whether Leibniz-compatible products exist in
    every requested bidegree; ``associative`` whether the canonical choice
    also has vanishing associators on all tested basis triples.
    """

    __slots__ = _fields = ("bound", "stages", "tested_triples", "residual_triples")

    def __init__(
        self, bound: int, stages: list, tested_triples: int = 0,
        residual_triples: list | None = None,
    ):
        self.bound = bound
        self.stages = stages
        self.tested_triples = tested_triples
        self.residual_triples = _list(residual_triples)

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
    target generator (see _nonzero).  C_0 = R acts as the unit.
    C is the complex of the product; raises DomainError unless their
    multidegrees agree.
    """
    if prod.complex.mdegs != C.mdegs:
        raise DomainError("the product is not on the probed complex")
    prod = prod.degree_one()
    if bound is None:
        bound = C.length + 1
    if bound <= 0:
        return ProbeReport(bound=bound, stages=[])
    md, p = C.mdegs, getattr(C.ring.field, "p", 0)
    nonzero, killed = _nonzero(C), C.ring.kills
    scalar = C.ring.field.scalar
    known = {(1, j): tab for j, tab in prod.scalars.items()}
    unit = {v: e for v, col in C.table(1).items() for r, e in col if r == 0}

    def value(i: int, j: int, u: int, v: int):
        return known.get((i, j), {}).get((u, v), ())

    def reduced(c):
        return c % p if p else c

    def support(level: int, sources) -> list:
        """The generators w of C_level that a sum in the multidegree of the
        product of ``sources`` can reach: those where that multidegree
        minus m_w is a monomial and R/Q does not kill it."""
        out = []
        for w in range(C.rank(level)):
            e = _exponents(md[level][w], sources)
            if min(e) >= 0 and not killed(e):
                out.append(w)
        return out

    def emit(rows: list, rhs_of: dict, eqs: dict, rhs: dict, level: int, sources):
        """Append one row per target generator of C_level whose monomial
        R/Q does not kill; ``eqs`` holds its unknowns, ``rhs`` its right
        side."""
        for g in sorted(set(eqs) | set(rhs)):
            if killed(_exponents(md[level][g], sources)):
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
                    ws = support(n, (md[i][u], md[j][v]))
                    unknowns[(i, j, u, v)] = {w: nvars + k for k, w in enumerate(ws)}
                    nvars += len(ws)
        rows: list = []
        rhs_of: dict = {}
        unsolvable = []

        # Leibniz: d(f_u.f_v) = d(f_u).f_v + (-1)^i f_u.d(f_v)
        d_n = C.table(n)
        for i, j in blocks:
            sign, d_i, d_j = -1 if i % 2 else 1, C.table(i), C.table(j)
            for u in range(C.rank(i)):
                for v in range(C.rank(j)):
                    sources = (md[i][u], md[j][v])
                    rhs: dict = {}
                    for r, e in d_i.get(u, ()):
                        _axpy(rhs, e, value(i - 1, j, r, v))
                    if j == 1:
                        rhs[u] = rhs.get(u, 0) + sign * unit.get(v, 0)
                    else:
                        for r, e in d_j.get(v, ()):
                            _axpy(rhs, sign * e, value(i, j - 1, u, r))
                    cols = unknowns[(i, j, u, v)]
                    if not cols:
                        if nonzero(rhs.items(), n - 1, sources):
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
            terms = [(w, scalar(sol[x])) for w, x in cols.items() if x in sol]
            if terms:
                known[(i, j)][(u, v)] = terms
        stages.append(ProbeStage(n, blocks, nvars, assoc_enforced, unsolvable))

    failures, tested = _associator_sweep(C, known, bound, nonzero)
    return ProbeReport(
        bound=bound,
        stages=stages,
        tested_triples=tested,
        residual_triples=[((i, j, k), (u, v, w)) for i, j, k, u, v, w in failures],
    )
