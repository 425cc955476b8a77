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
import sys

import pytest

from transverse import cli, dg
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
from transverse.poly import Monomial, Ring
from transverse.resolutions import taylor_complex

from polynomial_elements import (
    KElement, Polynomial, column, k_acc, k_apply, k_axpy, p_mul, poly_diff,
    product_tables, product_value,
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
    md, scalar = C.mdegs, C.ring.field.scalar
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
                    res = k_apply(poly_diff(C, i + j), uv) if i + j >= 1 else {}
                    if i >= 1:
                        term = full_apply(
                            tables, i - 1, j, column(poly_diff(C, i), u), {v: one}
                        )
                        k_axpy(res, -1, term)
                    if j >= 1:
                        term = full_apply(
                            tables, i, j - 1, {u: one}, column(poly_diff(C, j), v)
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
            alpha = column(poly_diff(C, 1), u).get(0, zero)
            for v in range(C.rank(j)):
                cert.checked_pairs += 1
                uv = product_value(tables, j, u, v)
                # d(f1.fj) - d(f1) fj + f1.d(fj) = 0
                res = k_apply(poly_diff(C, j + 1), uv)
                k_acc(res, v, p_mul(alpha, -1))
                if j == 1:
                    k_acc(res, u, column(poly_diff(C, 1), v).get(0, zero))
                else:
                    term = k_bilinear(
                        tables.get(j - 1, {}), {u: one}, column(poly_diff(C, j), v)
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
            next(iter(p.term_dict()))
            for i in range(1, C.length + 1) for p in poly_diff(C, i).entries.values()
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
    original = Ring.kills

    def traced_kills(ring, e):
        # only the kill tests that dg makes, not those of the builders
        out = original(ring, e)
        if sys._getframe(1).f_globals["__name__"] == dg.__name__:
            kills.append(out)
        return out

    monkeypatch.setattr(Ring, "kills", traced_kills)
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


# ---------------------------------------------------------------------------
# the row-list reading of certify_degree_one


def degree_one_cases(field):
    """Degree-one products over ``field``: two star triples over R and, for
    the R/Q case, the degree-one parts of Taylor products over a quotient
    that kills some of their coefficients."""
    if field == "R/Q":
        rng = random.Random("rows:R/Q")
        return [prod.degree_one() for prod in quotient_taylor_cases(rng, QQ, 2)]
    rng = random.Random(f"rows:{field}")
    return [star_triple(rng, field, degrees) for degrees in ((1, 2), (2, 2, 2))]


ROW_FIELDS = FIELDS + ["R/Q"]


def with_scalars(prod, change) -> DegreeOneProduct:
    """A copy of ``prod`` whose scalars ``change`` has edited in place."""
    scalars = {j: dict(tab) for j, tab in prod.scalars.items()}
    change(scalars)
    return DegreeOneProduct(prod.complex, scalars)


@pytest.mark.parametrize("field", ROW_FIELDS, ids=str)
def test_keys_outside_the_levels_are_ignored(field):
    for prod in degree_one_cases(field):
        C = prod.complex
        top, n1 = C.length, C.rank(1)

        def junk(scalars):
            # levels 0, top + 1 and beyond, and pairs off the ranks of a
            # level
            for j in (0, top + 1, top + 3, -1):
                scalars[j] = {(0, 0): [(0, 5)], (n1, 0): [(1, 3)]}
            for j in range(1, top + 1):
                for key in ((n1, 0), (-1, 0), (0, C.rank(j)), (0, -1), (n1 + 4, -2)):
                    scalars.setdefault(j, {})[key] = [(0, 7)]

        cert = certify_degree_one(with_scalars(prod, junk))
        assert cert.ok
        assert cert == certify_degree_one(prod) == certify_degree_one_ref(prod)


@pytest.mark.parametrize("field", ROW_FIELDS, ids=str)
@pytest.mark.parametrize("j", [1, 2])
def test_a_target_off_the_next_level(field, j):
    # f_u.f_v in C_{j+1} gets a term at a generator that C_{j+1} does not
    # have: there is nothing to look up for it in d(f_u.f_v) or in
    # f_u.(f_u.f_v), but it stays a term where the value is summed: in
    # f_u.d(f_x) for each f_x in C_{j+1} whose boundary holds f_v, and in
    # f_u.(f_u.f_t) for each f_t in C_{j-1} whose product with f_u does
    for prod in degree_one_cases(field):
        C, P = prod.complex, prod.scalars

        def summed(u, v):
            """The pairs (u, t) in C_1 x C_{j-1} whose value holds f_v."""
            return [t for (s, t), val in sorted(P.get(j - 1, {}).items())
                    if s == u and any(w == v for w, _ in val)]

        u, v = next(
            (u, v) for u in range(1, C.rank(1)) for v in range(C.rank(j))
            if ((u, v) in P[j] if j == 1 else summed(u, v))
        )
        mutant = with_scalars(prod, lambda scalars: scalars[j].update(
            {(u, v): [*P[j].get((u, v), ()), (C.rank(j + 1), 1)]}
        ))
        cert = certify_degree_one(mutant)
        assert cert.leibniz_failures == [
            ("leibniz", j + 1, u, x) for x in range(C.rank(j + 1))
            if any(r == v for r, _ in C.table(j + 1)[x])
        ] != []
        assert cert.square_failures == [("square", j - 1, u, t) for t in summed(u, v)]


@pytest.mark.parametrize("ring", ["R", "R/Q"])
def test_a_full_product_target_off_its_level(ring):
    # f_0.f_1 in C_2 gets a term at a generator that C_2 does not have:
    # nothing is looked up for it, but it stays a term, never killed, where
    # the value is summed: in f_0.f_1 + f_1.f_0, in d(f_u).f_1 for each f_u
    # in C_2 whose boundary holds f_0, and in f_0.d(f_v) for each f_v in
    # C_2 whose boundary holds f_1
    rng = random.Random(f"off:{ring}")
    if ring == "R":
        R = Ring(NAMES[:4], QQ)
        prod = taylor_dg_product(random_ideal(rng, R, (0, 1, 2, 3), (2, 2, 2, 2)))
    else:
        prod = next(quotient_taylor_cases(rng, QQ, 1))
    C, P = prod.complex, prod.scalars
    scalars = {key: dict(tab) for key, tab in P.items()}
    scalars[(1, 1)][(0, 1)] = [*P[(1, 1)].get((0, 1), ()), (C.rank(2), 1)]
    cert = certify_full_dg(FullProduct(C, scalars))
    clean, d2 = certify_full_dg(prod), C.table(2)
    assert clean.ok and bool(C.ring.modulus) == (ring == "R/Q")
    assert cert.leibniz_failures == [
        (1, 2, 0, v) for v in range(C.rank(2)) if any(r == 1 for r, _ in d2[v])
    ] + [(2, 1, u, 1) for u in range(C.rank(2)) if any(r == 0 for r, _ in d2[u])]
    assert cert.commutativity_failures == [(1, 1, 0, 1), (1, 1, 1, 0)]
    assert (cert.square_failures, cert.associativity_failures) == ([], [])
    assert (cert.checked_pairs, cert.checked_triples) == (
        clean.checked_pairs, clean.checked_triples
    )


@pytest.mark.parametrize("field", ROW_FIELDS, ids=str)
def test_pairs_with_empty_values(field):
    rng = random.Random(f"empty:{field}")
    for prod in degree_one_cases(field):
        C = prod.complex

        def fill(scalars):
            # every pair without a value gets an empty one
            for j in range(1, C.length + 1):
                for u in range(C.rank(1)):
                    for v in range(C.rank(j)):
                        scalars.setdefault(j, {}).setdefault((u, v), [])

        filled = with_scalars(prod, fill)
        assert certify_degree_one(filled) == certify_degree_one(prod)
        assert certify_degree_one(filled) == certify_degree_one_ref(filled)
        places = sorted((j, key) for j, tab in prod.scalars.items() for key in tab)

        def empty(scalars):
            # a few values emptied: the square sum of those pairs is zero
            for j, key in rng.sample(places, 3):
                scalars[j][key] = []

        mutant = with_scalars(filled, empty)
        cert = certify_degree_one(mutant)
        assert not cert.ok
        assert cert == certify_degree_one_ref(mutant)


def homotopy_mutant(prod, u0, v0, j0, w):
    """prod + d h - h (1 (x) d) for the homotopy h with h(f_u0, f_v0) = f_w
    in C_{j0+2} and 0 elsewhere: a chain map again, so the Leibniz identity
    still holds, while f1.(f1.fj) = 0 need not.  Needs
    m_w <= m_u0 + m_v0, so that h is multihomogeneous."""
    C, scalar = prod.complex, prod.complex.ring.field.scalar

    def add(scalars, j, key, terms):
        val = dict(scalars[j].get(key, ()))
        for x, c in terms:
            val[x] = scalar(val.get(x, 0) + c)
        scalars[j][key] = [(x, c) for x, c in val.items() if c]

    def change(scalars):
        scalars.setdefault(j0 + 1, {})
        add(scalars, j0, (u0, v0), C.table(j0 + 2)[w])
        for v, col in C.table(j0 + 1).items():
            for r, e in col:
                if r == v0:
                    add(scalars, j0 + 1, (u0, v), [(w, -e)])

    return with_scalars(prod, change)


@pytest.mark.parametrize("field", ROW_FIELDS, ids=str)
def test_a_mutant_that_breaks_only_the_square_identity(field):
    found = 0
    for prod in degree_one_cases(field):
        C, md = prod.complex, prod.complex.mdegs
        for j0 in range(1, C.length - 1):
            candidates = [
                (u0, v0, w)
                for u0 in range(C.rank(1))
                for v0 in range(C.rank(j0))
                for w in range(C.rank(j0 + 2))
                if all(map(lambda a, b, e: e <= a + b,
                           md[1][u0], md[j0][v0], md[j0 + 2][w]))
            ]
            for u0, v0, w in candidates:
                mutant = homotopy_mutant(prod, u0, v0, j0, w)
                cert = certify_degree_one(mutant)
                assert cert.leibniz_failures == []
                assert cert == certify_degree_one_ref(mutant)
                if cert.square_failures:
                    found += 1
                    break
    assert found


@pytest.mark.parametrize("field", [None, {"prime": 2}, {"prime": 32003}])
def test_dg_verify_visits_every_pair(field):
    # 12 generators of C_1 times the 63 of C_1, ..., C_5: every pair is
    # checked
    document = {
        "ring": {"vars": list(NAMES)},
        "ideals": {"A": ["x1^2", "x1*x2", "x2^2"], "B": ["x3^2", "x4^2"],
                   "C": ["x5", "x6"]},
        "command": "dg-verify",
        "args": {"ideals": ["A", "B", "C"]},
    }
    report, code = cli.cmd_dispatch(cli.parse_input(document, field))
    assert code == 0 and report["pass"] is True
    assert report["ranks"] == [1, 12, 24, 19, 7, 1]
    assert report["checked_pairs"] == 756 == 12 * sum(report["ranks"][1:])
