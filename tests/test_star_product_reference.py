"""Differential tests: the star degree-one product, assembled on the
scalars of monomial matrices, against a reference copy of the polynomial
assembly it replaced.

``star_degree_one_product`` builds the table of F*G as scalars
{j: {(p, x): [(w, c)]}}, the value at target w being c x^(m_p + m_x - m_w),
and builds its polynomial tables only when they are read.  The reference
below is the earlier body, unchanged: it multiplies ``Polynomial`` values
on every basis pair.  Each test asserts the same outcome from both: equal
tables, with the pairs and the targets inside each value in the same order
(the polynomial reference code follows that order), and equal
certificates; or the same error with the same text.

The inputs are Taylor products of ideals on disjoint variables, which makes
them sequentially transverse, over QQ, GF(2), GF(3) and GF(32003): pairs
with full and with degree-one inputs, and triples whose left input is the
star product of the first two.  Over a quotient R/Q that kills a
coefficient of the star table, Q also kills an entry of d_1 of F*G (on
Taylor inputs every coefficient divides one), so both raise the same
DomainError.  Mutated inputs fail their certificates in both the same way.
"""

import random

import pytest

from transverse.complexes import GradedFreeComplex, star_basis, star_product
from transverse.dg import (
    DegreeOneProduct,
    FullProduct,
    star_degree_one_product,
    taylor_dg_product,
)
from transverse.errors import CertificationError, DomainError
from transverse.fields import QQ, PrimeField
from transverse.ideals import MonomialIdeal
from transverse.poly import Ring
from transverse.resolutions import taylor_complex

from polynomial_elements import KElement, k_acc
from test_dg_certificate_reference import (
    certify_degree_one_ref,
    from_tables,
    mutants,
    random_ideal,
)

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)]
NAMES = ("x1", "x2", "x3", "x4", "x5", "x6")
# (variables, generator degrees to choose from) of the three factors
FACTORS = (
    ((0, 1), ((1, 2), (2, 2, 2))),
    ((2, 3), ((1, 2), (2, 2))),
    ((4, 5), ((2, 2),)),
)


# ---------------------------------------------------------------------------
# reference implementation


def star_degree_one_product_ref(
    F: GradedFreeComplex,
    G: GradedFreeComplex,
    prodF: DegreeOneProduct | FullProduct,
    prodG: DegreeOneProduct | FullProduct,
) -> DegreeOneProduct:
    """The two-case degree-one product on F*G:

    (f1 (x) g1) . (fa (x) gb) = (-1)^a d(f1) fa (x) g1.gb,  plus
    d(gb) f1.fa (x) g1 when b = 1.

    Inputs must satisfy the degree-one identities; the output is certified
    the same way (exhaustively on basis pairs) before being returned.
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
    bases = {n: star_basis(F, G, n) for n in range(1, S.length + 1)}
    index = {n: {key: k for k, key in enumerate(bases[n])} for n in bases}
    tables: dict = {}
    for j in range(1, S.length + 1):
        tab: dict = {}
        target = index.get(j + 1, {})
        for p_idx, (_, _, uf, ug) in enumerate(bases[1]):
            alpha = F.diff(1).entry(0, uf)
            for x_idx, (a, b, fa, gb) in enumerate(bases[j]):
                out: KElement = {}
                sign = -1 if a % 2 else 1
                for w, q in prodG.value(b, ug, gb).items():
                    key = (a, b + 1, fa, w)
                    if key in target:
                        k_acc(out, target[key], (alpha * q).scale(sign))
                if b == 1:
                    beta = G.diff(1).entry(0, gb)
                    for w, q in prodF.value(a, uf, fa).items():
                        key = (a + 1, 1, w, ug)
                        if key in target:
                            k_acc(out, target[key], beta * q)
                if out:
                    tab[(p_idx, x_idx)] = out
        tables[j] = tab
    prod = from_tables(DegreeOneProduct, S, tables)
    cert = prod.certificate
    if not cert.ok:
        raise CertificationError(
            f"star degree-one product failed: "
            f"{(cert.leibniz_failures + cert.square_failures)[:3]}"
        )
    return prod


# ---------------------------------------------------------------------------
# comparison


def snapshot(prod: DegreeOneProduct):
    """Tables in their insertion order, and the certificate."""
    tables = [
        (j, [(pair, list(val.items())) for pair, val in tab.items()])
        for j, tab in prod.tables.items()
    ]
    return tables, prod.certificate


def outcome(star, F, G, prodF, prodG):
    """The snapshot of the product, or the type and text of its error."""
    try:
        prod = star(F, G, prodF, prodG)
    except (CertificationError, DomainError) as e:
        return type(e), str(e)
    return snapshot(prod)


def assert_same(F, G, prodF, prodG):
    """Both assemblies agree; returns the scalar-built product (or None
    when both raise)."""
    want = outcome(star_degree_one_product_ref, F, G, prodF, prodG)
    try:
        prod = star_degree_one_product(F, G, prodF, prodG)
    except (CertificationError, DomainError) as e:
        assert (type(e), str(e)) == want
        return None
    assert "tables" not in vars(prod)
    assert snapshot(prod) == want
    assert certify_degree_one_ref(prod) == prod.certificate
    # the scalars are what the tables convert back to, reduced mod p
    assert from_tables(DegreeOneProduct, prod.complex, prod.tables).scalars == prod.scalars
    return prod


def taylor_factors(rng, ring, choose):
    """Three Taylor complexes with their products, of ideals on the
    variable pairs of FACTORS with degrees picked by ``choose``."""
    out = []
    for variables, options in FACTORS:
        I = random_ideal(rng, ring, variables, choose(options))
        C = taylor_complex(I)
        out.append((C, taylor_dg_product(I, C)))
    return out


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_sequentially_transverse_pairs_and_triples(field):
    rng = random.Random(f"star-ref:{field}")
    ring = Ring(NAMES, field)
    passed = 0
    for _ in range(3):
        (A, pA), (B, pB), (C, pC) = taylor_factors(rng, ring, rng.choice)
        # full and degree-one inputs
        assert_same(A, B, pA, pB)
        AB = assert_same(A, B, pA.degree_one(), pB.degree_one())
        assert AB is not None
        # the iterated triple: the left input is the scalar-built product
        ABC = assert_same(AB.complex, C, AB, pC)
        assert ABC is not None
        ref_AB = star_degree_one_product_ref(A, B, pA, pB)
        ref_ABC = star_degree_one_product_ref(ref_AB.complex, C, ref_AB, pC)
        assert snapshot(ABC) == snapshot(ref_ABC)
        # and with the star on the right
        BC = star_degree_one_product(B, C, pB, pC)
        assert assert_same(A, BC.complex, pA, BC) is not None
        passed += 1
    assert passed == 3


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_quotient_rings(field):
    # Q = (c) for c a coefficient monomial of the star table over R that
    # divides no generator: both raise the DomainError of the killed entry
    # of d_1; Q = (c) for a c that divides nothing in the complexes leaves
    # both tables as over R
    rng = random.Random(f"star-ref-quotient:{field}")
    R = Ring(NAMES[:4], field)
    refused = kept = 0
    while refused < 3:
        A = random_ideal(rng, R, (0, 1), (2, 2))
        B = random_ideal(rng, R, (2, 3), rng.choice(((1, 2), (2, 2))))
        sp = star_degree_one_product(
            taylor_complex(A), taylor_complex(B),
            taylor_dg_product(A), taylor_dg_product(B),
        )
        coeffs = sorted(
            {m for tab in sp.tables.values() for val in tab.values()
             for p in val.values() for m in p.term_dict()},
            key=lambda m: (-m.degree, m.sort_key()),
        )
        gens = A.gens + B.gens
        killing = [m for m in coeffs if not any(m.divides(g) for g in gens)]
        unrelated = R.monomial(max(g.exps[0] for g in gens) + 1, 0, 0, 0)
        for c in killing[:2] + [unrelated]:
            Q = R.quotient([c])
            A_Q, B_Q = MonomialIdeal(Q, A.gens), MonomialIdeal(Q, B.gens)
            F, G = taylor_complex(A_Q), taylor_complex(B_Q)
            pF, pG = taylor_dg_product(A_Q, F), taylor_dg_product(B_Q, G)
            prod = assert_same(F, G, pF, pG)
            if c == unrelated:
                assert prod is not None and prod.scalars == sp.scalars
                kept += 1
            else:
                assert prod is None
                with pytest.raises(DomainError, match="d_1 column"):
                    star_degree_one_product(F, G, pF, pG)
                refused += 1
    assert kept >= 2


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mutated_inputs(field):
    rng = random.Random(f"star-ref-mutants:{field}")
    ring = Ring(NAMES, field)
    (A, pA), (B, pB), (C, pC) = taylor_factors(rng, ring, lambda o: o[0])
    AB = star_degree_one_product(A, B, pA, pB)
    refused = 0
    cases = [
        (A, B, pA.degree_one(), pB, "left"),
        (A, B, pA, pB.degree_one(), "right"),
        (AB.complex, C, AB, pC, "left"),
    ]
    for F, G, prodF, prodG, side in cases:
        mutated = prodF if side == "left" else prodG
        for tables in mutants(rng, mutated.tables, 2):
            mutant = from_tables(DegreeOneProduct, mutated.complex, tables)
            args = (mutant, prodG) if side == "left" else (prodF, mutant)
            if assert_same(F, G, *args) is None:
                with pytest.raises(CertificationError, match=f"^{side} input"):
                    star_degree_one_product(F, G, *args)
                refused += 1
    # over GF(2) a sign flip changes nothing
    assert refused >= 10
