"""Differential tests: the Koszul module action, on the scalars of monomial
matrices, against a reference copy of the polynomial code it replaced.

``koszul_module_action`` converts the phi_1 columns to scalars once and
computes every action value and every certificate identity as a sum of
scalars keyed by target generator, with one kill test per target.  The
reference below is the earlier body, unchanged except that the product and
the action are applied through :func:`k_bilinear` on their polynomial
tables.  Each test asserts equal comparison maps, equal action tables and
equal certificates (the failure lists in order, and the count of checked
pairs), or the same error with the same text.

The inputs are star products of Taylor complexes of ideals on disjoint
variables and Koszul complexes over QQ, GF(2), GF(3) and GF(32003), with
regular sequences of one and two elements; star products over a quotient
R/Q that kills some action values; and mutated degree-one products whose
action certificate fails.
"""

import random

import pytest

from transverse.dg import (
    ActionCertificate,
    DegreeOneProduct,
    FullProduct,
    koszul_dg_product,
    koszul_module_action,
    star_degree_one_product,
    taylor_dg_product,
)
from transverse.errors import DomainError
from transverse.fields import QQ, PrimeField
from transverse.ideals import MonomialIdeal, regular_sequence
from transverse.poly import Monomial, Polynomial, Ring
from transverse.resolutions import koszul_complex, lift_comparison_map, taylor_complex

from polynomial_elements import KElement, k_acc, k_apply, k_axpy
from test_dg_certificate_reference import from_tables, k_bilinear, mutants, random_ideal

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)]
NAMES = ("x1", "x2", "x3", "x4", "x5", "x6")


# ---------------------------------------------------------------------------
# reference implementation


def koszul_module_action_ref(C, prod, elements):
    """Make C a DG-module over the Koszul complex on a monomial regular
    sequence contained in the resolved ideal: lift a comparison map phi, act
    by k1 * f = phi_1(k1) . f, and extend through the exterior algebra.
    Returns phi, the action tables and the certificate."""
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
        return k_bilinear(prod.tables.get(j, {}), phi1_cols[s], vec)

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

    def act(i: int, j: int, S: tuple, vec: KElement) -> KElement:
        return k_bilinear(tables.get((i, j), {}), {S: one}, vec)

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
                            k_axpy(res, -q, act(i - 1, j, Sr, {v: one}))
                    if j == 1:
                        # d(f) lands in C_0 = R: e_S acts through its
                        # iterated product on the unit
                        beta = C.diff(1).entry(0, v)
                        k_axpy(res, beta.scale(sign), scalar_act[S])
                    else:
                        term = act(i, j - 1, S, C.diff(j).column(v))
                        k_axpy(res, sign, term)
                    if res:
                        cert.leibniz_failures.append((i, j, S, v))
    return phi, tables, cert


# ---------------------------------------------------------------------------
# comparison


def outcome(C, prod, elements):
    """phi, the action tables and the certificate of the scalar action, or
    the type and text of its error."""
    try:
        act = koszul_module_action(C, prod, elements)
    except DomainError as e:
        return type(e), str(e)
    return act.phi, act.tables, act.certificate


def assert_same(C, prod, elements):
    """Both actions agree; returns the certificate (None when both raise)."""
    try:
        want = koszul_module_action_ref(C, prod, elements)
    except DomainError as e:
        want = type(e), str(e)
    got = outcome(C, prod, elements)
    assert len(got) == len(want)
    if len(got) == 2:
        assert got == want
        return None
    (phi, tables, cert), (phi_ref, tables_ref, cert_ref) = got, want
    assert [A.entries for A in phi] == [A.entries for A in phi_ref]
    assert tables == tables_ref
    assert cert == cert_ref
    return cert


def sequences(ring, ideals):
    """Regular sequences in the product of ``ideals``: each product of one
    generator per ideal, and the pairs of them with disjoint supports."""
    prods = [Monomial((0,) * ring.nvars)]
    for I in ideals:
        prods = [m * g for m in prods for g in I.gens]
    singles = [[m] for m in sorted(set(prods), key=Monomial.sort_key)]
    pairs = [
        [m, n] for (m,), (n,) in zip(singles, singles[1:] + singles[:1])
        if m != n and not m.support() & n.support()
    ]
    return [[Polynomial.from_monomial(ring, m) for m in seq] for seq in singles + pairs]


def star(ideals):
    """The star product of the Taylor complexes of ``ideals`` with its
    degree-one product."""
    items = []
    for I in ideals:
        C = taylor_complex(I)
        items.append((C, taylor_dg_product(I, C)))
    (C, prod), rest = items[0], items[1:]
    for D, prodD in rest:
        prod = star_degree_one_product(C, D, prod, prodD)
        C = prod.complex
    return prod


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_star_products(field):
    rng = random.Random(f"action-ref:{field}")
    ring = Ring(NAMES, field)
    outcomes = {1: [], 2: []}
    for factors in (((0, 1), (2, 3)), ((0, 1), (2, 3), (4, 5))):
        for _ in range(2):
            ideals = [
                random_ideal(rng, ring, variables, rng.choice(((1, 2), (2, 2))))
                for variables in factors
            ]
            prod = star(ideals)
            seqs = sequences(ring, ideals)
            for elements in seqs[:4] + [s for s in seqs if len(s) == 2][:4]:
                cert = assert_same(prod.complex, prod, elements)
                outcomes[len(elements)].append(cert.ok)
    # one element always acts; two need not anticommute through the
    # degree-one product, and both codes list the same relation failures
    assert all(outcomes[1]) and outcomes[2]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_koszul_complexes(field):
    # on the exterior product of a Koszul complex two elements anticommute
    R = Ring(NAMES, field)

    def monomials(*names):
        return [Polynomial.from_monomial(R, R.parse_monomial(s)) for s in names]

    K = koszul_complex(monomials("x1^2", "x2*x3", "x4"))
    prod = koszul_dg_product(K)
    for names in (("x1^2*x2", "x4*x5"), ("x1^2", "x2*x3"), ("x1^2*x4", "x2*x3*x5")):
        cert = assert_same(K, prod, monomials(*names))
        assert cert.ok and cert.checked == 41
    # and an element outside the ideal is refused by both
    assert assert_same(K, prod, monomials("x5")) is None


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(32003)], ids=str)
def test_quotient_rings(field):
    # a = g h x5 for generators g, h of the two ideals, and Q = (c) for a
    # monomial c of an action value over R that contains x5 and does not
    # divide a: Q kills nothing in the complexes or in K, so both actions
    # run over R/Q, and the kill test drops the values of c
    rng = random.Random(f"action-ref-quotient:{field}")
    R = Ring(NAMES[:5], field)
    x5 = R.parse_monomial("x5")
    for _ in range(3):
        A = random_ideal(rng, R, (0, 1), (2, 2))
        B = random_ideal(rng, R, (2, 3), rng.choice(((1, 2), (2, 2))))
        a = rng.choice(A.gens) * rng.choice(B.gens) * x5
        prod = star([A, B])
        act = koszul_module_action(prod.complex, prod, [Polynomial.from_monomial(R, a)])
        c = min(
            (m for tab in act.tables.values() for val in tab.values()
             for p in val.values() for m in p.term_dict()
             if m.exps[4] and not m.divides(a)),
            key=Monomial.sort_key,
        )
        Q = R.quotient([c])
        prod_Q = star([MonomialIdeal(Q, A.gens), MonomialIdeal(Q, B.gens)])
        elements_Q = [Polynomial.from_monomial(Q, a)]
        assert assert_same(prod_Q.complex, prod_Q, elements_Q).ok
        act_Q = koszul_module_action(prod_Q.complex, prod_Q, elements_Q)
        assert terms(act_Q) < terms(act)


def terms(act) -> int:
    return sum(len(val) for tab in act.tables.values() for val in tab.values())


def test_mutated_products():
    """Mutated degree-one tables break the action's Leibniz rule or its
    exterior relations; both actions list the same failures."""
    failing = 0
    for field in FIELDS:
        rng = random.Random(f"action-ref-mutants:{field}")
        R = Ring(NAMES, field)
        monomials = [
            Polynomial.from_monomial(R, R.parse_monomial(s))
            for s in ("x1^2", "x2*x3", "x4", "x1^2*x4", "x2*x3*x5")
        ]
        K = koszul_complex(monomials[:3])
        ideals = [
            random_ideal(rng, R, (0, 1), (2, 2)),
            random_ideal(rng, R, (2, 3), (1, 2)),
        ]
        cases = [
            (koszul_dg_product(K).degree_one(), monomials[3:]),
            (star(ideals), sequences(R, ideals)[0]),
        ]
        for prod, elements in cases:
            for tables in mutants(rng, prod.tables, 4):
                mutant = from_tables(DegreeOneProduct, prod.complex, tables)
                failing += not assert_same(mutant.complex, mutant, elements).ok
    assert failing >= 24
