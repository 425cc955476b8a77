"""Differential tests: the scalar associativity probe against a reference
copy of the strand-vector probe it replaced.

``associativity_probe`` solves for the multigraded scalars c_uvw of
f_u.f_v = sum_w c_uvw x^(m_u + m_v - m_w) f_w.  The reference below solves
the same Leibniz and associativity constraints on whole strand vectors: one
unknown per strand basis element (generator, monomial) of the total degree
of the pair.  It is the earlier body, unchanged.  Every constraint is
multihomogeneous, so the strand system is a direct sum of blocks by excess
multidegree, only the zero-excess block has a right side, and the RREF
solution is zero off it and equal to the scalar solution on it.  Each test
asserts equal reports on every field but ``variables``, which counts the
unknowns and is pinned separately.

The inputs are star products of Taylor resolutions and of Koszul complexes
over QQ, GF(2) and GF(32003), one over a quotient R/Q that kills some
unknowns, a seeded random product, and seeded mutants of its degree-one
table, which the Leibniz constraints cannot always absorb.
"""

import random

import pytest

from transverse import linalg
from transverse.complexes import GradedFreeComplex, Homology, strand_matrix
from transverse.dg import (
    DegreeOneProduct,
    FullProduct,
    ProbeReport,
    ProbeStage,
    associativity_probe,
    koszul_dg_product,
    star_degree_one_product,
    taylor_dg_product,
)
from transverse.fields import QQ, PrimeField
from transverse.ideals import MonomialIdeal
from transverse.poly import Ring
from transverse.resolutions import taylor_complex

from conftest import koszul
from polynomial_elements import (
    KElement, Polynomial, column, k_axpy, k_coords, k_element, poly_diff,
    product_tables,
)
from test_dg_certificate_reference import (
    from_tables,
    k_bilinear,
    mutants,
    random_ideal,
)

FIELDS = [QQ, PrimeField(2), PrimeField(32003)]
NAMES = ("x1", "x2", "x3", "x4", "x5")


# ---------------------------------------------------------------------------
# reference implementation


def associativity_probe_ref(
    C: GradedFreeComplex, prod: DegreeOneProduct | FullProduct, bound=None
) -> ProbeReport:
    """Try to extend a degree-one product to C_i (x) C_j -> C_{i+j} for
    i + j <= bound by solving the Leibniz constraints strand by strand,
    preferring solutions that also satisfy the associativity constraints
    that are linear at each stage; then report associator residuals on all
    basis triples.  Report-only: the outcome is data, not a theorem.
    """
    if isinstance(prod, FullProduct):
        prod = prod.degree_one()
    if bound is None:
        bound = C.length + 1
    if bound <= 0:
        return ProbeReport(bound=bound, stages=[])
    ring = C.ring
    field_ = ring.field
    one = Polynomial(ring, {ring.one_monomial(): 1})
    known: dict = {}
    for j, tab in product_tables(prod).items():
        known[(1, j)] = dict(tab)
    H = Homology(C)
    indexes: dict = {}

    def strand_index(n: int, t: int) -> dict:
        """{(generator, monomial): column} of the degree-t strand of C_n."""
        if (n, t) not in indexes:
            indexes[(n, t)] = {gm: k for k, gm in enumerate(H.basis(n, t))}
        return indexes[(n, t)]

    def mul(i: int, j: int, left: KElement, right: KElement) -> KElement:
        out: KElement = {}
        if i == 0:
            k_axpy(out, left.get(0, Polynomial(ring, {})), right)
        elif j == 0:
            k_axpy(out, right.get(0, Polynomial(ring, {})), left)
        else:
            out = k_bilinear(known.get((i, j), {}), left, right)
        return out

    stages = []
    for n in range(3, bound + 1):
        blocks = [(i, n - i) for i in range(2, n) if n - i >= 1]
        blocks = [
            (i, j) for (i, j) in blocks if C.rank(i) and C.rank(j)
        ]
        var_index: dict = {}
        var_meta = []
        for (i, j) in blocks:
            for u in range(C.rank(i)):
                for v in range(C.rank(j)):
                    t = C.degs(i)[u] + C.degs(j)[v]
                    for c in range(len(H.basis(n, t))):
                        var_index[((i, j), (u, v), c)] = len(var_meta)
                        var_meta.append(((i, j), (u, v), c))
        nvars = len(var_meta)
        leibniz_rows: list = []
        leibniz_rhs: dict = {}
        unsolvable = []

        def emit_unknown(rowmap, block, pair, t_pair, coeff_poly, level_t, sign):
            """Add sign * coeff_poly * m_block(pair) into rowmap coordinates."""
            idx_out = strand_index(n, level_t)
            for c, (g, m) in enumerate(H.basis(n, t_pair)):
                var = var_index.get((block, pair, c))
                if var is None:
                    continue
                for mono, sc in coeff_poly.term_dict().items():
                    mm = m * mono
                    if ring.kills(mm.exps):
                        continue
                    k = idx_out[(g, mm)]
                    rowmap.setdefault(k, {})
                    s = rowmap[k].get(var, 0) + (sc if sign > 0 else -sc)
                    if s:
                        rowmap[k][var] = s
                    else:
                        rowmap[k].pop(var, None)

        # Leibniz constraints per block and basis pair; d_n on each strand
        # is assembled once per stage
        matrices: dict = {}
        for (i, j) in blocks:
            for u in range(C.rank(i)):
                for v in range(C.rank(j)):
                    t = C.degs(i)[u] + C.degs(j)[v]
                    rhs_vec = mul(i - 1, j, column(poly_diff(C, i), u), {v: one})
                    term = mul(i, j - 1, {u: one}, column(poly_diff(C, j), v))
                    k_axpy(rhs_vec, -1 if i % 2 else 1, term)
                    rhs_coords = k_coords(rhs_vec, strand_index(n - 1, t))
                    if not H.basis(n, t):
                        if rhs_coords:
                            unsolvable.append(((i, j), (u, v)))
                        continue
                    if t not in matrices:
                        matrices[t] = strand_matrix(
                            H.complex, n, H.basis(n, t), H.basis(n - 1, t)
                        )
                    for k, row_k in enumerate(matrices[t]):
                        row = {}
                        for c, val in row_k.items():
                            var = var_index[((i, j), (u, v), c)]
                            row[var] = val
                        if row or k in rhs_coords:
                            leibniz_rows.append(row)
                            if k in rhs_coords:
                                leibniz_rhs[len(leibniz_rows) - 1] = rhs_coords[k]

        # associativity constraints that are linear at this stage
        assoc_rows: list = []
        assoc_rhs: dict = {}
        for a in range(1, n - 1):
            for b in range(1, n - a):
                c_deg = n - a - b
                if c_deg < 1:
                    continue
                if not (C.rank(a) and C.rank(b) and C.rank(c_deg)):
                    continue
                for x in range(C.rank(a)):
                    for y in range(C.rank(b)):
                        xy = mul(a, b, {x: one}, {y: one})
                        for z in range(C.rank(c_deg)):
                            t_total = (
                                C.degs(a)[x] + C.degs(b)[y] + C.degs(c_deg)[z]
                            )
                            rowmap: dict = {}
                            const: KElement = {}
                            # left: m_{a+b,c}(m_ab(x,y), z) - unknown block
                            for w, p in xy.items():
                                t_pair = C.degs(a + b)[w] + C.degs(c_deg)[z]
                                emit_unknown(
                                    rowmap, (a + b, c_deg), (w, z), t_pair,
                                    p, t_total, +1,
                                )
                            # right: m_{a,b+c}(x, m_bc(y,z))
                            yz = mul(b, c_deg, {y: one}, {z: one})
                            if a == 1:
                                const = mul(1, b + c_deg, {x: one}, yz)
                            else:
                                for w, p in yz.items():
                                    t_pair = C.degs(a)[x] + C.degs(b + c_deg)[w]
                                    emit_unknown(
                                        rowmap, (a, b + c_deg), (x, w), t_pair,
                                        p, t_total, -1,
                                    )
                            const_coords = k_coords(
                                const, strand_index(n, t_total)
                            )
                            for k in set(rowmap) | set(const_coords):
                                row = rowmap.get(k, {})
                                if row or k in const_coords:
                                    assoc_rows.append(row)
                                    if k in const_coords:
                                        assoc_rhs[len(assoc_rows) - 1] = (
                                            const_coords[k]
                                        )

        sol = None
        assoc_enforced = False
        if nvars or leibniz_rows or assoc_rows:
            all_rows = leibniz_rows + assoc_rows
            all_rhs = dict(leibniz_rhs)
            for r, v in assoc_rhs.items():
                all_rhs[len(leibniz_rows) + r] = v
            sol = linalg.solve(all_rows, nvars, all_rhs, field_)
            if sol is not None:
                assoc_enforced = True
            else:
                sol = linalg.solve(leibniz_rows, nvars, leibniz_rhs, field_)
                if sol is None:
                    unsolvable.append(("stage", n))
        if sol is None:
            sol = {}
        # install solved tables
        per_block: dict = {}
        for var, val in sol.items():
            block, pair, c = var_meta[var]
            per_block.setdefault(block, {}).setdefault(pair, {})[c] = val
        for (i, j) in blocks:
            tab: dict = {}
            got = per_block.get((i, j), {})
            for u in range(C.rank(i)):
                for v in range(C.rank(j)):
                    coords = got.get((u, v))
                    if not coords:
                        continue
                    t = C.degs(i)[u] + C.degs(j)[v]
                    vec = k_element(coords, H.basis(n, t), ring)
                    if vec:
                        tab[(u, v)] = vec
            known[(i, j)] = tab
        stages.append(
            ProbeStage(n, blocks, nvars, assoc_enforced, unsolvable)
        )

    report = ProbeReport(bound=bound, stages=stages)
    for a in range(1, bound - 1):
        for b in range(1, bound - a):
            for c_deg in range(1, bound - a - b + 1):
                for x in range(C.rank(a)):
                    for y in range(C.rank(b)):
                        xy = mul(a, b, {x: one}, {y: one})
                        for z in range(C.rank(c_deg)):
                            report.tested_triples += 1
                            res = mul(a + b, c_deg, xy, {z: one})
                            yz = mul(b, c_deg, {y: one}, {z: one})
                            k_axpy(res, -1, mul(a, b + c_deg, {x: one}, yz))
                            if res:
                                report.residual_triples.append(
                                    ((a, b, c_deg), (x, y, z))
                                )
    return report


# ---------------------------------------------------------------------------
# inputs


def taylor_star(field, left, right, modulus=()):
    """The degree-one product on T_I * T_J over R/(modulus), R in x1..x4."""
    R = Ring(NAMES[:4], field)
    R = R.quotient([R.parse_monomial(m) for m in modulus]) if modulus else R
    items = []
    for gens in (left, right):
        I = MonomialIdeal(R, tuple(R.parse_monomial(m) for m in gens))
        C = taylor_complex(I)
        items.append((C, taylor_dg_product(I, C)))
    (F, pF), (G, pG) = items
    return star_degree_one_product(F, G, pF, pG)


def koszul_star(field):
    R = Ring(NAMES, field)
    F = koszul(R, 0, 1)
    G = koszul(R, 2, 3, 4)
    return star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))


def seeded_star(field, rng=None):
    """T_I * T_J for seeded random I in x1, x2 and J in x3, x4."""
    rng = rng or random.Random(f"probe:{field}")
    R = Ring(NAMES[:4], field)
    items = []
    for variables, degrees in (((0, 1), (2, 2)), ((2, 3), (2, 3))):
        I = random_ideal(rng, R, variables, degrees)
        C = taylor_complex(I)
        items.append((C, taylor_dg_product(I, C)))
    (F, pF), (G, pG) = items
    return star_degree_one_product(F, G, pF, pG)


# name -> (builder, scalar unknowns per stage)
CASES = {
    "koszul_star_koszul": (koszul_star, [60, 36, 0]),
    "cli_digest_job": (
        lambda f: taylor_star(f, ("x1^2", "x1*x2"), ("x3", "x4")), [10, 0],
    ),
    "taylor_star_quadrics": (
        lambda f: taylor_star(f, ("x1^2", "x1*x2"), ("x3*x4", "x4^2")), [12, 0],
    ),
    "taylor_star_square": (
        lambda f: taylor_star(f, ("x1^2", "x1*x2", "x2^2"), ("x3^2", "x4^2")),
        [126, 69, 0],
    ),
    "taylor_star_quotient": (
        lambda f: taylor_star(
            f, ("x1^2", "x1*x2"), ("x3*x4", "x4^2"), ("x1^2*x2*x4",)
        ),
        [12, 0],
    ),
    "taylor_star_seeded": (seeded_star, None),
}


def stage_fields(rep):
    return [
        (s.n, s.blocks, s.assoc_enforced, s.leibniz_unsolvable) for s in rep.stages
    ]


# ---------------------------------------------------------------------------
# the scalar probe against the reference


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(CASES))
def test_probe_matches_reference(name, field):
    build, variables = CASES[name]
    prod = build(field)
    rep = associativity_probe(prod.complex, prod)
    ref = associativity_probe_ref(prod.complex, prod)
    assert rep.bound == ref.bound
    assert stage_fields(rep) == stage_fields(ref)
    assert rep.tested_triples == ref.tested_triples
    assert rep.residual_triples == ref.residual_triples
    assert rep.extension_found and rep.tested_triples
    if variables is not None:
        assert [s.variables for s in rep.stages] == variables
    # the scalar unknowns are the zero-excess part of the strand unknowns
    assert all(
        s.variables <= t.variables for s, t in zip(rep.stages, ref.stages)
    )


def test_mutants_match_reference():
    """Mutated degree-one tables break Leibniz or associativity.  A pair with
    no scalar unknown and a right side that is not zero is listed by the
    scalar probe; the reference lists it only when the pair's whole strand
    is empty, and otherwise finds the stage unsolvable.  Nothing else may
    differ."""
    residual = fallback = 0
    for field in FIELDS:
        rng = random.Random(f"probe:{field}")
        prod = seeded_star(field, rng)
        for tables in mutants(rng, product_tables(prod), 2):
            mutant = from_tables(DegreeOneProduct, prod.complex, tables)
            rep = associativity_probe(mutant.complex, mutant)
            ref = associativity_probe_ref(mutant.complex, mutant)
            assert rep.bound == ref.bound
            assert rep.tested_triples == ref.tested_triples
            assert rep.residual_triples == ref.residual_triples
            for s, t in zip(rep.stages, ref.stages, strict=True):
                assert (s.n, s.blocks) == (t.n, t.blocks)
                assert s.assoc_enforced == t.assoc_enforced
                extra = [e for e in s.leibniz_unsolvable if e not in t.leibniz_unsolvable]
                kept = [e for e in s.leibniz_unsolvable if e not in extra]
                assert kept == t.leibniz_unsolvable
                assert not extra or ("stage", s.n) in kept
                assert all(e[0] != "stage" for e in extra)
                # solvable for Leibniz alone, not with associativity
                fallback += bool(s.variables) and not (
                    s.assoc_enforced or s.leibniz_unsolvable
                )
            residual += bool(rep.residual_triples)
    assert residual >= 12 and fallback >= 3
