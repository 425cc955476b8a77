"""Differential tests for the rank code of the lcm lattice.

- ``ideals.lcm_closure`` folds on the rank code (the j-th smallest nonzero
  exponent of x_k among the points as j consecutive bits); the reference
  is the tuple fold it replaced, ``lattice_reference.tuple_lcm_closure``,
  on point sets with variables that no point uses, exponents up to 40 and
  of 10^9, repeats, one point and none.
- ``ideals.upper_koszul_facets`` yields the degree and the facet set of
  K^b for each b != 0 of L_I; the reference reads them off tuples.
- ``resolutions.betti_numbers`` ranks over GF(2) by XOR first and takes QQ
  ranks only where the GF(2) homology spans two or more degrees; the
  reference ``reference_betti_numbers`` ranks every boundary by exact
  elimination.  Controls on the Stanley-Reisner ideal of the 6-vertex
  projective plane, whose homology has 2-torsion, count both kinds of rank.
- ``_coker_failures``, clause (b) of ``verify_resolution``, answers from
  the column multidegrees of d_1 when they are the minimal generators of I
  and builds no ideal then; otherwise it compares the two ideals as before.

The examples are derandomized, so every run draws the same ideals.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from transverse import complexes, linalg, resolutions
from transverse.complexes import (
    GradedFreeComplex, _coker_failures, star_product, verify_resolution,
)
from transverse.fields import QQ, PrimeField
from transverse.ideals import (
    MonomialIdeal, _code, ideal_product, lcm_closure, lcm_lattice,
    upper_koszul_facets,
)
from transverse.poly import Monomial, Ring
from transverse.resolutions import betti_numbers, minimal_resolution

from conftest import ideal
from lattice_reference import (
    reference_betti_numbers, tuple_facets, tuple_lcm_closure,
)

FIELDS = [QQ, PrimeField(2), PrimeField(3)]


# ---------------------------------------------------------------------------
# the coded fold


@st.composite
def point_lists(draw):
    """Exponent tuples in 1 to 6 variables, some variables zero in every
    point, exponents up to 1, 3 or 40 or sparse up to 10^9, with repeats,
    in any order."""
    n = draw(st.integers(1, 6))
    unused = draw(st.sets(st.integers(0, n - 1), max_size=n))
    exps = draw(st.sampled_from([
        st.integers(0, 1), st.integers(0, 3), st.integers(0, 40),
        st.sampled_from([0, 2, 7, 10**9 - 1, 10**9]),
    ]))
    point = st.tuples(*[
        st.just(0) if k in unused else exps for k in range(n)
    ])
    pts = draw(st.lists(point, max_size=8))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3)) if pts else []
    return draw(st.permutations(pts))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(point_lists())
def test_coded_fold_equals_the_tuple_fold(pts):
    assert lcm_closure(pts) == tuple_lcm_closure(pts)
    assert lcm_closure(iter(pts)) == tuple_lcm_closure(pts)


@pytest.mark.parametrize("pts", [
    [],
    [(0, 0, 0)],
    [(2, 0, 40)],
    [(2, 0, 40)] * 3,
    [()],
    [(0, 0), (0, 0)],
    [(40, 0, 0), (0, 0, 40), (0, 0, 0)],
    [(1, 0, 0, 2), (0, 0, 3, 1), (1, 0, 3, 2), (0, 0, 0, 0)],
], ids=["empty", "zero", "one point", "repeats", "no variables",
        "repeated zero", "wide", "a point that is an lcm"])
def test_coded_fold_on_the_edge_cases(pts):
    assert lcm_closure(pts) == tuple_lcm_closure(pts)


def test_the_code_is_as_wide_as_the_ranks_not_the_exponents():
    # x1^(10^9) is one bit: a variable takes one bit per distinct nonzero
    # exponent, so memory does not grow with the exponents themselves
    pts = [(10**9, 0, 3), (1, 10**9, 0), (0, 2, 10**9 + 1), (0, 0, 0)]
    codes, runs = _code(pts)
    assert [m.bit_count() for _, m, _ in runs] == [2, 2, 2]
    assert max(codes).bit_length() <= 6
    assert lcm_closure(pts) == tuple_lcm_closure(pts)
    R = Ring(("x1", "x2", "x3"))
    I = MonomialIdeal(R, tuple(Monomial(p) for p in pts[:3]))
    want = Counter(
        (sum(b), tuple_facets(pts[:3], b)) for b in tuple_lcm_closure(pts[:3])
    )
    assert Counter(upper_koszul_facets(I)) == want
    assert betti_numbers(I) == reference_betti_numbers(I)


def test_lcm_lattice_is_a_frozenset_of_tuples():
    R = Ring(("x1", "x2", "x3", "x4"))
    L = lcm_lattice(ideal(R, "x1^40", "x1*x2^3", "x2*x4"))
    assert type(L) is frozenset
    assert all(type(b) is tuple and all(type(e) is int for e in b) for b in L)
    assert L == {(0, 0, 0, 0), (40, 0, 0, 0), (1, 3, 0, 0), (0, 1, 0, 1),
                 (40, 3, 0, 0), (40, 1, 0, 1), (1, 3, 0, 1), (40, 3, 0, 1)}


@st.composite
def ideals(draw, fields=(QQ,), exps=st.integers(0, 3)):
    """Monomial ideals of 1 to 6 generators, exponents drawn from ``exps``,
    in 1 to 6 variables, over one of ``fields``."""
    n = draw(st.integers(1, 6))
    field = draw(st.sampled_from(fields))
    R = Ring(tuple(f"x{k + 1}" for k in range(n)), field)
    gens = draw(st.lists(
        st.tuples(*[exps] * n).filter(any), min_size=1, max_size=6
    ))
    return MonomialIdeal(R, tuple(Monomial(g) for g in gens))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(ideals(exps=st.sampled_from([0, 1, 2, 3, 5, 10**9])))
def test_facets_equal_the_tuple_facets(I):
    gens = [g.exps for g in I.gens]
    want = Counter(
        (sum(b), tuple_facets(gens, b)) for b in tuple_lcm_closure(gens)
    )
    assert Counter(upper_koszul_facets(I)) == want


# ---------------------------------------------------------------------------
# the Betti oracle


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(ideals(FIELDS))
def test_oracle_equals_the_elimination_oracle(I):
    assert betti_numbers(I) == reference_betti_numbers(I)


# x1x2x4, x1x2x5, x1x3x5, x1x3x6, x1x4x6, x2x3x4, x2x3x6, x2x5x6, x3x4x5,
# x4x5x6 as variable indices
RP2_NONFACES = [
    (0, 1, 3), (0, 1, 4), (0, 2, 4), (0, 2, 5), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 4, 5), (2, 3, 4), (3, 4, 5),
]


def rp2_ideal(field):
    """The Stanley-Reisner ideal of the 6-vertex projective plane whose
    facets are the other ten triangles on six vertices; its 1-skeleton is
    complete, so the ten non-faces generate it."""
    R = Ring(tuple(f"x{v + 1}" for v in range(6)), field)
    return MonomialIdeal(R, tuple(
        Monomial(tuple(int(v in T) for v in range(6))) for T in RP2_NONFACES
    ))


def counted_oracle(monkeypatch, I):
    """betti_numbers(I), with {facet set: [(kind of rank, rows)]} for the
    linalg.rank and linalg.xor_rank calls of each distinct facet set."""
    calls: dict = {}
    current = []
    homology = resolutions._reduced_homology

    def tracing_homology(facets, field):
        current.append(calls.setdefault(facets, []))
        try:
            return homology(facets, field)
        finally:
            current.pop()

    def counting(name):
        f = getattr(linalg, name)

        def counted(rows, *args):
            current[-1].append((name, len(rows)))
            return f(rows, *args)
        return counted

    with monkeypatch.context() as m:
        m.setattr(resolutions, "_reduced_homology", tracing_homology)
        for name in ("rank", "xor_rank"):
            m.setattr(linalg, name, counting(name))
        return betti_numbers(I), calls


@pytest.mark.parametrize("field, totals", [
    (QQ, (1, 10, 15, 6)),
    (PrimeField(2), (1, 10, 15, 7, 1)),
    (PrimeField(3), (1, 10, 15, 6)),
], ids=str)
def test_rp2_over_each_field(monkeypatch, field, totals):
    I = rp2_ideal(field)
    assert sorted(map(I.ring.format_monomial, I.gens)) == [
        "x1*x2*x4", "x1*x2*x5", "x1*x3*x5", "x1*x3*x6", "x1*x4*x6",
        "x2*x3*x4", "x2*x3*x6", "x2*x5*x6", "x3*x4*x5", "x4*x5*x6",
    ]
    table, calls = counted_oracle(monkeypatch, I)
    assert table.totals() == totals
    assert table == reference_betti_numbers(I)
    kinds = Counter(name for ranks in calls.values() for name, _ in ranks)
    if field == QQ:
        # the GF(2) homology spans two degrees only on K^b at b = (1,...,1),
        # so only that facet set takes QQ ranks: one per face size 2 and 3
        exact = [facets for facets, ranks in calls.items()
                 if any(name == "rank" for name, _ in ranks)]
        gens = [g.exps for g in I.gens]
        assert exact == [tuple_facets(gens, (1,) * 6)]
        assert kinds["rank"] == 2
    elif field.p == 2:
        assert kinds["rank"] == 0 and kinds["xor_rank"] > 0
    else:
        assert kinds["xor_rank"] == 0 and kinds["rank"] > 0


# ---------------------------------------------------------------------------
# clause (b) of verify_resolution


def counted_coker_failures(monkeypatch, C, I):
    """_coker_failures(C, I) and the MonomialIdeals it built."""
    built = []

    def counting(*args):
        built.append(args)
        return MonomialIdeal(*args)

    with monkeypatch.context() as m:
        m.setattr(complexes, "MonomialIdeal", counting)
        return _coker_failures(C, I), built


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_star_product_builds_no_ideal(monkeypatch, field):
    R = Ring(("x1", "x2", "x3", "x4", "x5"), field)
    I, J = ideal(R, "x1^2", "x1*x2", "x2*x3"), ideal(R, "x4^2", "x4*x5")
    C = star_product(minimal_resolution(I), minimal_resolution(J))
    IJ = ideal_product(I, J)
    assert _coker_failures(C, IJ) == []
    failures, built = counted_coker_failures(monkeypatch, C, IJ)
    assert failures == [] and built == []
    assert verify_resolution(C, IJ).ok


def test_a_redundant_generator_takes_the_general_path(monkeypatch):
    # d_1 = (x1, x1x2) for I = (x1): the column multidegrees are not the
    # minimal generators of I, but they generate it
    R = Ring(("x1", "x2"))
    C = GradedFreeComplex(R, [[(0, 0)], [(1, 0), (1, 1)]],
                          [{0: [(0, 1)], 1: [(0, 1)]}])
    I = ideal(R, "x1")
    failures, built = counted_coker_failures(monkeypatch, C, I)
    assert failures == [] and len(built) == 2
    # C resolves nothing, (x2, -1) being a cycle, but clause (b) holds
    cert = verify_resolution(C, I, 1)
    assert cert.coker_ok and cert.strand_failures


def test_a_missing_generator_reports_as_before(monkeypatch):
    # d_1 = (x1^2, x1x2) for I = (x1^2, x1x2, x2^2): x2^2 is missing, the
    # failure list of the two-ideal comparison
    R = Ring(("x1", "x2"))
    C = GradedFreeComplex(R, [[(0, 0)], [(2, 0), (1, 1)]],
                          [{0: [(0, 1)], 1: [(0, 1)]}])
    I = ideal(R, "x1^2", "x1*x2", "x2^2")
    failures, built = counted_coker_failures(monkeypatch, C, I)
    assert failures == [((0, 2), 1, 0)] and len(built) == 2
    # a generator of C_1 whose column of d_1 is zero: the multidegrees are
    # those of I, but the image misses x2^2
    C = GradedFreeComplex(R, [[(0, 0)], [(2, 0), (1, 1), (0, 2)]],
                          [{0: [(0, 1)], 1: [(0, 1)]}])
    failures, built = counted_coker_failures(monkeypatch, C, I)
    assert failures == [((0, 2), 1, 0)] and len(built) == 2
