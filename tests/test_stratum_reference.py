"""Differential tests: ``Homology.stratum``, which takes one kernel of d_i on
the columns off the boundary pivots, against the earlier stratum
(``stratum_reference``), which took the full cycle kernel, reduced every
cycle against the boundary RREF and echelonized what was left.

Each piece is compared field by field: the basis, the dimensions, both
RREFs, the ranks left in ``Homology.ranks``, and ``express`` and
``is_boundary`` on random vectors.  The boundary rows come from the same
code, so their dict key order is compared as it is.  The class rows are the
same unique RREF; the earlier key order followed the order of elimination,
and the rows now list their columns ascending, so they are compared with
the reference rows in ascending key order.

A count gate pins the eliminations of one Koszul homology, and a map that
is not a complex is refused by ``stratum`` while its ranks still answer.
"""

import random

import pytest

from transverse import linalg
from transverse.complexes import (
    GradedFreeComplex, Homology, strand_homology, validate_complex,
)
from transverse.errors import DomainError
from transverse.fields import QQ, PrimeField
from transverse.golod import koszul_homology
from transverse.ideals import ideal_product, lcm_lattice, minimalize_generators
from transverse.obstructions import tate_resolution
from transverse.poly import Monomial, Ring
from transverse.resolutions import koszul_on_variables

from cell_sweep_reference import reference_cell_failures
from conftest import ideal
from stratum_reference import reference_stratum
from test_elimination_reference import combination

FIELDS = [QQ, PrimeField(2), PrimeField(32003)]


def same(a, b):
    """Equal values and equal key order."""
    return list(a.items()) == list(b.items())


def ascending(row):
    return dict(sorted(row.items()))


def random_ideal(rng, ring, gens, top):
    exps = {tuple(rng.randint(0, top) for _ in range(ring.nvars))
            for _ in range(gens)}
    return minimalize_generators(ring, [Monomial(e) for e in exps if sum(e)])


class Seen:
    """The kinds of piece the comparisons have met."""

    def __init__(self):
        self.kinds = set()

    def note(self, H, i, sh):
        if i == 0 and sh.basis:
            self.kinds.add("i = 0")
        if sh.basis and sh.dim == 0:
            self.kinds.add("H_i = 0")
        if sh.dim and sh.boundary_dim:
            self.kinds.add("classes beside boundaries")
        if sh.basis and not H._basis(i + 1, sh.t):
            self.kinds.add("empty upper basis")


def assert_stratum_is_reference(rng, H, i, s, seen):
    field = H.complex.ring.field
    want, ranks = reference_stratum(H, i, s)
    got = H.stratum(i, s)
    # every field: basis, dims and both echelon forms with their pivots
    assert got == want
    assert all(same(g, w) for g, w in
               zip(got._boundaries.rows, want._boundaries.rows))
    assert len(got.representatives) == len(want.representatives)
    assert all(same(g, ascending(w)) for g, w in
               zip(got.representatives, want.representatives))
    assert [type(v) for r in got.representatives for v in r.values()] == [
        type(v) for r in want.representatives for v in r.values()]
    # the ranks the earlier code stored
    assert {k: H.ranks[k] for k in ranks} == ranks
    # express and is_boundary on random vectors, cycles and boundaries
    n = len(got.basis)
    vecs = [{}] + [{c: field.one} for c in range(min(n, 4))]
    reps, bounds = want.representatives, want._boundaries.rows
    for _ in range(3):
        vecs.append(combination(rng, field, reps + bounds))
        vecs.append(combination(rng, field, bounds))
        vecs.append({rng.randrange(n): field.one} if n else {})
    for v in vecs:
        assert got.express(v) == want.express(v)
        assert got.is_boundary(v) == want.is_boundary(v)
    seen.note(H, i, got)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_koszul_blocks_of_random_ideals(field):
    rng = random.Random(31)
    seen = Seen()
    for _ in range(12):
        R = Ring(tuple(f"x{k + 1}" for k in range(rng.randint(3, 5))), field)
        I = random_ideal(rng, R, rng.randint(2, 6), 2)
        if I.is_zero or I.is_unit:
            continue
        H = Homology(koszul_on_variables(R), I)
        blocks = sorted(lcm_lattice(I))
        blocks += [tuple(rng.randint(0, 3) for _ in range(R.nvars))
                   for _ in range(4)]
        for b in blocks:
            for i in range(R.nvars + 2):
                assert_stratum_is_reference(rng, H, i, b, seen)
    assert seen.kinds == {"i = 0", "H_i = 0", "classes beside boundaries",
                          "empty upper basis"}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_whole_strands(field):
    rng = random.Random(32)
    seen = Seen()
    for _ in range(4):
        R = Ring(("x1", "x2", "x3", "x4"), field)
        I = random_ideal(rng, R, rng.randint(2, 5), 2)
        if I.is_zero or I.is_unit:
            continue
        K = koszul_on_variables(R)
        for t in range(6):
            for i in range(R.nvars + 1):
                sh = strand_homology(K, I, t, i)
                H = Homology(K, I)
                assert sh == reference_stratum(H, i, t)[0]
                assert_stratum_is_reference(rng, H, i, t, seen)
    assert {"i = 0", "H_i = 0", "classes beside boundaries"} <= seen.kinds


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_tate_blocks_over_a_quotient(field):
    rng, pick = random.Random(33), random.Random(34)
    seen = Seen()
    R = Ring(("x1", "x2", "x3", "x4"), field)
    a = [R.parse_monomial("x1^2"), R.parse_monomial("x3*x4")]
    T = tate_resolution(a, R, 5).complex
    M = ideal(R, "x1^2", "x1*x2", "x2*x3", "x3*x4")
    for Q in (None, M):
        H = Homology(T, Q)
        # 400 and 600 cells: a fixed sample of each
        for b in pick.sample(H.cells(range(T.length + 1)), 60):
            for i in range(T.length + 1):
                assert_stratum_is_reference(rng, H, i, b, seen)
    assert seen.kinds == {"i = 0", "H_i = 0", "classes beside boundaries",
                          "empty upper basis"}


def test_stratum_of_an_empty_piece():
    R = Ring(("x1", "x2"))
    H = Homology(koszul_on_variables(R), ideal(R, "x1", "x2"))
    seen = Seen()
    for i in range(-1, 4):
        assert_stratum_is_reference(random.Random(0), H, i, (0, 0), seen)
        assert_stratum_is_reference(random.Random(0), H, i, 0, seen)
    assert H.stratum(3, (1, 1)).basis == []


def not_a_complex():
    """A Tate complex with one entry of d_5 doubled: d_4 o d_5 != 0."""
    R = Ring(("x1", "x2", "x3", "x4"))
    a = [R.parse_monomial("x1^2"), R.parse_monomial("x3*x4")]
    T = tate_resolution(a, R, 6).complex
    for c, col in sorted(T.table(5).items()):
        tables = [dict(T.table(j)) for j in range(1, T.length + 1)]
        tables[4][c] = [(r, 2 * s) for r, s in col[:1]] + col[1:]
        C = GradedFreeComplex(T.ring, T.mdegs, tables)
        if not validate_complex(C).ok:
            return C
    raise AssertionError("no mutant breaks d o d = 0")


def test_a_map_that_is_not_a_complex_is_refused_but_still_ranked():
    C = not_a_complex()
    units = [tuple(int(k == j) for k in range(4)) for j in range(4)]
    H = Homology(C)
    # cell_failures reads |B_i| - r_i - r_{i+1} as before, negative values
    # included
    failures = H.cell_failures(0, 5, units)
    assert failures == reference_cell_failures(Homology(C), 0, 5, units)
    assert any(d < 0 for _, _, d in failures)
    field = C.ring.field
    for b in H.cells(range(C.length + 1))[:60]:
        dims = H.strand_dims(b, 0, 5)

        def rank(j):
            upper, lower = H._basis(j, b), H._basis(j - 1, b)
            if not (upper and lower):
                return 0
            return linalg.rank(H._rows(j, b, upper, lower), field)

        assert dims == {i: len(H._basis(i, b)) - rank(i) - rank(i + 1)
                        for i in range(6)}
    ranks = dict(H.ranks)
    for i, b, _ in failures:
        with pytest.raises(DomainError) as err:
            H.stratum(i, b)
        assert str(err.value) == "homology needs a complex, but d o d != 0"
    assert not H.strata and H.ranks == ranks


def test_elimination_count_gate():
    # koszul_homology of IJ = (x1^2, x1x2, x2x3)(x4^2, x4x5) over QQ takes
    # exactly these eliminations: one echelon of the boundaries and one
    # kernel on the columns off their pivots per stratum, none where d_i
    # is zero, and the rank calls of the Betti oracle.  The earlier strata
    # took 66 echelon calls on 221 rows with the same 6 rank calls
    R = Ring(("x1", "x2", "x3", "x4", "x5"))
    IJ = ideal_product(ideal(R, "x1^2", "x1*x2", "x2*x3"),
                       ideal(R, "x4^2", "x4*x5"))
    calls = {"echelon": 0, "rank": 0}
    rows_in = []

    def counting(name, f):
        def counted(rows, *args, **kwargs):
            rows = list(rows)
            calls[name] += 1
            rows_in.append(len(rows))
            return f(rows, *args, **kwargs)
        return counted

    with pytest.MonkeyPatch.context() as m:
        m.setattr(linalg, "echelon", counting("echelon", linalg.echelon))
        m.setattr(linalg, "rank", counting("rank", linalg.rank))
        H = koszul_homology(IJ)
    assert H.dims() == {1: 6, 2: 7, 3: 2}
    assert calls == {"echelon": 37, "rank": 6}
    assert sum(rows_in) == 128
