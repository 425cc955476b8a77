"""Differential tests: the scalar DG certificates against reference copies
of the polynomial code they replaced.

``certify_degree_one`` and ``certify_full_dg`` check each identity on the
scalars of monomial matrices, with one kill test per target coefficient.
The references below compute every identity with the polynomial
arithmetic of ``polynomial_elements``, which drops killed monomials on the
way.  They are the earlier bodies, unchanged except that both products
are applied through :func:`k_bilinear` on their polynomial tables
(``polynomial_elements.product_tables``).  Each test asserts that the two
give equal certificates, field by field: the failure lists with their
order, and the pair and triple counts.  The inputs are star products of sequentially
transverse triples, mutants of them (sign flip, dropped term, value scaled
by 2) over QQ, GF(2), GF(3) and GF(32003), and Taylor products over a
quotient R/Q that kills some of their lcm coefficients.

A product stores only scalars, so the mutants are built from polynomial
tables by :func:`from_tables`, which the other reference tests share.
"""

import random

import pytest

from transverse import dg
from transverse.complexes import table_scalar
from transverse.dg import (
    DegreeOneProduct,
    FullProduct,
    ProductCertificate,
    certify_degree_one,
    certify_full_dg,
    star_degree_one_product,
    taylor_dg_product,
)
from transverse.errors import DomainError
from transverse.fields import QQ, PrimeField
from transverse.ideals import MonomialIdeal
from transverse.poly import Monomial, Polynomial, Ring
from transverse.resolutions import taylor_complex

from polynomial_elements import (
    KElement, column, k_acc, k_apply, k_axpy, p_mul, product_tables,
    product_value,
)
from polynomial_elements import one as unit

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)]
NAMES = ("x1", "x2", "x3", "x4", "x5", "x6")


# ---------------------------------------------------------------------------
# reference implementations


def k_bilinear(table: dict, x: KElement, y: KElement) -> KElement:
    """The bilinear map with values table[(u, v)] on basis pairs, at (x, y)."""
    out: KElement = {}
    for u, p in x.items():
        for v, q in y.items():
            val = table.get((u, v))
            if val:
                k_axpy(out, p_mul(p, q), val)
    return out


def full_apply(tables, i, j, left, right):
    """The bilinear extension of a full product with polynomial tables
    ``tables``, with polynomial coefficients on both slots."""
    return k_bilinear(tables.get((i, j), {}), left, right)


def from_tables(cls, C, tables: dict):
    """The ``cls`` product on C whose polynomial tables are ``tables``,
    keyed like its scalars.  Raises DomainError unless each value is a sum
    of terms c x^(m_u + m_v - m_w) f_w with f_w in the complex, or if a
    differential of C has a zero column."""
    md, scalar = C.mdegs, table_scalar(C.ring.field)
    scalars = {}
    for key, tab in tables.items():
        i, j = (1, key) if cls is DegreeOneProduct else key
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
                terms.append((w, scalar(t[0][1])))
            if terms:
                out[(u, v)] = terms
        scalars[key] = out
    return cls(C, scalars)


def certify_full_dg_ref(prod) -> ProductCertificate:
    """All four DG-algebra axioms plus associativity, exhaustively on basis
    pairs and triples."""
    C, tables = prod.complex, product_tables(prod)
    cert = ProductCertificate()
    top = C.length
    one = unit(C.ring)
    for i in range(0, top + 1):
        for j in range(0, top - i + 1):
            for u in range(C.rank(i)):
                for v in range(C.rank(j)):
                    cert.checked_pairs += 1
                    uv = product_value(tables, (i, j), u, v)
                    # Leibniz: d(xy) - dx.y - (-1)^i x.dy = 0
                    res = k_apply(C.diff(i + j), uv) if i + j >= 1 else {}
                    if i >= 1:
                        term = full_apply(
                            tables, i - 1, j, column(C.diff(i), u), {v: one}
                        )
                        k_axpy(res, -1, term)
                    if j >= 1:
                        term = full_apply(
                            tables, i, j - 1, {u: one}, column(C.diff(j), v)
                        )
                        k_axpy(res, 1 if i % 2 else -1, term)
                    if res:
                        cert.leibniz_failures.append((i, j, u, v))
                    # graded commutativity: xy - (-1)^(ij) yx = 0
                    res = dict(uv)
                    k_axpy(res, 1 if (i * j) % 2 else -1,
                           product_value(tables, (j, i), v, u))
                    if res:
                        cert.commutativity_failures.append((i, j, u, v))
            if i % 2 and i == j:
                for u in range(C.rank(i)):
                    if product_value(tables, (i, i), u, u):
                        cert.square_failures.append((i, u))
    for i in range(1, top + 1):
        for j in range(1, top - i + 1):
            for k in range(1, top - i - j + 1):
                for u in range(C.rank(i)):
                    for v in range(C.rank(j)):
                        for w in range(C.rank(k)):
                            cert.checked_triples += 1
                            res = full_apply(
                                tables, i + j, k,
                                product_value(tables, (i, j), u, v), {w: one},
                            )
                            right = full_apply(
                                tables, i, j + k, {u: one},
                                product_value(tables, (j, k), v, w),
                            )
                            k_axpy(res, -1, right)
                            if res:
                                cert.associativity_failures.append(
                                    (i, j, k, u, v, w)
                                )
    return cert


def certify_degree_one_ref(prod) -> ProductCertificate:
    """The two degree-one identities, exhaustively on basis pairs:
    (a) d(f1.fj) = d(f1) fj - f1.d(fj), and (b) f1.(f1.fj) = 0, together
    with the degree-one squares f1.f1 = 0 that iterated constructions need."""
    C, tables = prod.complex, product_tables(prod)
    cert = ProductCertificate()
    one, zero = unit(C.ring), Polynomial(C.ring, {})
    if C.rank(0) != 1:
        raise DomainError("degree-one certification expects C_0 = R")
    for j in sorted(set(tables) | set(range(1, C.length + 1))):
        if j < 1 or j > C.length:
            continue
        for u in range(C.rank(1)):
            alpha = column(C.diff(1), u).get(0, zero)
            for v in range(C.rank(j)):
                cert.checked_pairs += 1
                uv = product_value(tables, j, u, v)
                # d(f1.fj) - d(f1) fj + f1.d(fj) = 0
                res = k_apply(C.diff(j + 1), uv)
                k_acc(res, v, p_mul(alpha, -1))
                if j == 1:
                    k_acc(res, u, column(C.diff(1), v).get(0, zero))
                else:
                    term = k_bilinear(
                        tables.get(j - 1, {}), {u: one}, column(C.diff(j), v)
                    )
                    k_axpy(res, 1, term)
                if res:
                    cert.leibniz_failures.append(("leibniz", j, u, v))
                sq = k_bilinear(tables.get(j + 1, {}), {u: one}, uv)
                if sq:
                    cert.square_failures.append(("square", j, u, v))
        if j == 1:
            for u in range(C.rank(1)):
                if product_value(tables, 1, u, u):
                    cert.square_failures.append(("self-square", u))
    return cert


# ---------------------------------------------------------------------------
# random data


def random_ideal(rng, ring, variables, degrees):
    """Monomials in ``variables`` of the given degrees, drawn until no one
    divides another."""
    while True:
        gens = []
        for d in degrees:
            exps = [0] * ring.nvars
            for _ in range(d):
                exps[rng.choice(variables)] += 1
            gens.append(Monomial(tuple(exps)))
        if len(set(gens)) == len(gens) and not any(
            g.divides(h) for g in gens for h in gens if g != h
        ):
            return MonomialIdeal(ring, tuple(gens))


def star_triple(rng, field, degrees_a):
    """The degree-one product on T_A * T_B * T_C for ideals on disjoint
    variables, which makes the triple sequentially transverse."""
    ring = Ring(NAMES, field)
    items = []
    factors = (((0, 1), degrees_a), ((2, 3), (1, 2)), ((4, 5), (2, 2)))
    for variables, degrees in factors:
        I = random_ideal(rng, ring, variables, degrees)
        C = taylor_complex(I)
        items.append((C, taylor_dg_product(I, C)))
    (C, prod), rest = items[0], items[1:]
    for D, prodD in rest:
        prod = star_degree_one_product(C, D, prod, prodD)
        C = prod.complex
    return prod


def mutants(rng, tables, count):
    """Copies of product tables with one value changed at a seeded place:
    a term's sign flipped, a term dropped, or the whole value scaled by 2."""
    places = [
        (key, pair, w)
        for key, tab in sorted(tables.items())
        for pair, val in sorted(tab.items())
        for w in sorted(val)
    ]
    for kind in ("flip", "drop", "double"):
        for key, pair, w in rng.sample(places, min(count, len(places))):
            new = {
                k: {p: dict(val) for p, val in tab.items()} for k, tab in tables.items()
            }
            val = new[key][pair]
            if kind == "flip":
                val[w] = p_mul(val[w], -1)
            elif kind == "drop":
                del val[w]
            else:
                new[key][pair] = {x: p_mul(p, 2) for x, p in val.items()}
            yield new


def quotient_taylor_cases(rng, field, count):
    """Taylor products over R/(c), c the first lcm coefficient of the
    product over R that divides no differential entry: c kills some
    coefficients of the product and no entry of the complex."""
    R = Ring(NAMES[:4], field)
    found = 0
    while found < count:
        I = random_ideal(rng, R, (0, 1, 2, 3), (2, 2, 2, 2))
        C = taylor_complex(I)
        entries = [
            next(iter(p.term_dict())) for mat in C.diffs for p in mat.entries.values()
        ]
        coeffs = sorted(
            {m for tab in product_tables(taylor_dg_product(I, C)).values()
             for val in tab.values() for p in val.values() for m in p.term_dict()},
            key=lambda m: (-m.degree, m.sort_key()),
        )
        for c in coeffs:
            if not c.is_one and not any(c.divides(e) for e in entries):
                Q = R.quotient([c])
                yield taylor_dg_product(MonomialIdeal(Q, I.gens))
                found += 1
                break


# ---------------------------------------------------------------------------
# the scalar certificates against the references


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_star_products_and_their_mutants(field):
    rng = random.Random(f"star:{field}")
    failing = 0
    for degrees_a in ((1, 2), (2, 2, 2)):
        prod = star_triple(rng, field, degrees_a)
        cert = certify_degree_one(prod)
        assert cert.ok
        assert cert == certify_degree_one_ref(prod)
        for tables in mutants(rng, product_tables(prod), 2):
            mutant = from_tables(DegreeOneProduct, prod.complex, tables)
            cert = certify_degree_one(mutant)
            assert cert == certify_degree_one_ref(mutant)
            failing += not cert.ok
    assert failing >= 6


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(32003)], ids=str)
def test_taylor_products_over_a_quotient(field, monkeypatch):
    rng = random.Random(f"taylor:{field}")
    kills = []
    killer = dg._killer

    def traced_killer(ring):
        killed = killer(ring)

        def traced_killed(e):
            out = killed(e)
            kills.append(out)
            return out

        return traced_killed

    monkeypatch.setattr(dg, "_killer", traced_killer)
    failing = 0
    for prod in quotient_taylor_cases(rng, field, 3):
        cert = certify_full_dg(prod)
        assert cert.ok and cert.checked_triples
        assert cert == certify_full_dg_ref(prod)
        assert certify_degree_one(prod.degree_one()) == certify_degree_one_ref(
            prod.degree_one()
        )
        for tables in mutants(rng, product_tables(prod), 2):
            mutant = from_tables(FullProduct, prod.complex, tables)
            cert = certify_full_dg(mutant)
            assert cert == certify_full_dg_ref(mutant)
            failing += not cert.ok
    # the kill test decides some target coefficients
    assert any(kills) and failing >= 6


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_nonzero_self_square(field):
    # on the Taylor complex of (x1^2, x1*x2), e2.e2 = x2 e12 is a
    # multihomogeneous value that the odd-square clauses must reject
    R = Ring(NAMES[:2], field)
    prod = taylor_dg_product(MonomialIdeal(R, (Monomial((2, 0)), Monomial((1, 1)))))
    tables = {k: dict(tab) for k, tab in product_tables(prod).items()}
    tables[(1, 1)][(1, 1)] = {0: Polynomial.from_monomial(R, Monomial((0, 1)))}
    mutant = from_tables(FullProduct, prod.complex, tables)
    cert = certify_full_dg(mutant)
    assert cert.square_failures == [(1, 1)]
    assert cert == certify_full_dg_ref(mutant)
    cert = certify_degree_one(mutant.degree_one())
    assert ("self-square", 1) in cert.square_failures
    assert cert == certify_degree_one_ref(mutant.degree_one())
