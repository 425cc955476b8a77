"""Differential tests: ``Homology.cell_failures``, which walks the grid of
cells by prefixes of its variables, against the earlier per-cell sweep
(``cell_sweep_reference``), compared as raw lists.

Each case also counts the eliminations of both.  The walk skips only
cells where no generator is present, whose ranks are 0 without an
elimination, so it ranks the same keys as the sweep.  Where the walk's
GF(2) bound applies (over GF(2), and over QQ on a complex) it takes one
``linalg.xor_rank`` per key the sweep ranks with ``linalg.rank``, and a
``linalg.rank`` only where the bound leaves a gap; otherwise it takes the
sweep's ``linalg.rank`` calls and no XOR rank.  Mutants of the Golod, Tate
and star complexes whose tables have a smaller rank mod 2 reach the QQ
ranks that close such gaps.
"""

import tracemalloc
from collections import Counter
from fractions import Fraction
from operator import add, le

import pytest

from transverse import linalg
from transverse.complexes import (
    GradedFreeComplex, Homology, star_product,
    validate_complex, verify_resolution,
)
from transverse.fields import QQ, PrimeField
from transverse.golod import _golod_complex, golod_resolution
from transverse.ideals import ideal_product, maximal_ideal
from transverse.obstructions import tate_resolution
from transverse.poly import Ring
from transverse.resolutions import koszul_complex, koszul_on_variables, taylor_complex

from cell_sweep_reference import reference_cell_failures, reference_cells
from conftest import ideal

FIELDS = [QQ, PrimeField(2), PrimeField(32003)]


def counted(monkeypatch, f, *args):
    """f(*args) and the numbers of its linalg.rank and linalg.xor_rank
    calls, as {"rank": n, "xor_rank": m}."""
    calls = {"rank": 0, "xor_rank": 0}

    def counting(name):
        original = getattr(linalg, name)

        def wrapper(*a, **k):
            calls[name] += 1
            return original(*a, **k)

        return wrapper

    with monkeypatch.context() as m:
        for name in calls:
            m.setattr(linalg, name, counting(name))
        out = f(*args)
    return out, calls


def bounded(H):
    """Whether the walk ranks H's blocks over GF(2) first: over GF(2), and
    over QQ on a complex."""
    p = getattr(H.complex.ring.field, "p", 0)
    return p == 2 or not p and validate_complex(H.complex).ok


def assert_walk_is_sweep(monkeypatch, H, lo, hi, gaps=0):
    """The walk equals the sweep, ranking the same keys; where the GF(2)
    bound applies, exactly ``gaps`` keys take a QQ rank."""
    walk, walk_calls = counted(monkeypatch, H.cell_failures, lo, hi)
    sweep, sweep_calls = counted(monkeypatch, reference_cell_failures, H, lo, hi)
    assert walk == sweep
    assert sweep_calls["xor_rank"] == 0
    if bounded(H):
        assert walk_calls == {"rank": gaps, "xor_rank": sweep_calls["rank"]}
    else:
        assert walk_calls == sweep_calls
    return walk


def ring4(field):
    return Ring(("x1", "x2", "x3", "x4"), field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_tate_complex_over_each_field(monkeypatch, field):
    R = ring4(field)
    a = [R.parse_monomial("x1^2"), R.parse_monomial("x4^2")]
    H = Homology(tate_resolution(a, R, 5).complex)
    assert len(H._kill) == 2
    # exact in degrees 1..4, and H_0 = k
    assert assert_walk_is_sweep(monkeypatch, H, 0, 4) == [
        (0, (0, 0, 0, 0), 1)
    ]
    assert assert_walk_is_sweep(monkeypatch, H, 2, 4) == []
    assert_walk_is_sweep(monkeypatch, H, 0, 5)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_golod_resolution_over_each_field(monkeypatch, field):
    R = ring4(field)
    G = golod_resolution(ideal(R, "x1", "x2^2"), ideal(R, "x3", "x4"), 4)
    H = Homology(G)
    out = assert_walk_is_sweep(monkeypatch, H, 0, 3)
    assert out == [(0, (0, 0, 0, 0), 1)]
    assert_walk_is_sweep(monkeypatch, H, 1, 4)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_koszul_over_r_with_extra_generators(monkeypatch, field):
    # Koszul homology of R/IJ: over R with Q = IJ, as KoszulHomology reads it
    R = ring4(field)
    IJ = ideal_product(ideal(R, "x1", "x2"), ideal(R, "x3^2", "x4"))
    H = Homology(koszul_on_variables(R), IJ)
    out = assert_walk_is_sweep(monkeypatch, H, 0, 4)
    assert {i for i, _, _ in out} == {0, 1, 2, 3}  # pd R/IJ = 3
    assert_walk_is_sweep(monkeypatch, H, 1, 3)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_star_product_over_r_with_unit_points(monkeypatch, field):
    # over R the cells are lcm-closure points
    R = Ring(("x1", "x2", "x3", "x4", "x5"), field)
    S = star_product(
        taylor_complex(ideal(R, "x1^2", "x1*x2", "x2*x3")),
        taylor_complex(ideal(R, "x4^2", "x4*x5")),
    )
    H = Homology(S)
    assert not H._kill
    assert_walk_is_sweep(monkeypatch, H, 1, S.length)
    assert_walk_is_sweep(monkeypatch, H, 0, S.length)


def test_a_whole_prefix_with_nothing_present(monkeypatch):
    # K(x, y) over k[x, y]/(x^2), walked from degree 2 so that C_0 is not
    # among the levels: at b_x = 0 only e_y is present, and at b_y = 0 it
    # drops out, so the walk skips the prefix (0, 0), a cell of the sweep
    R = Ring(("x", "y"))
    S = R.quotient([R.parse_monomial("x^2")])
    K = koszul_complex([S.parse_monomial(m) for m in ("x", "y")], S)
    H = Homology(K)
    gens = [m for i in (1, 2) for m in K.mdegs[i]]
    assert (0, 0) in reference_cells(H, (1, 2))
    assert [m for m in gens if m[0] == 0] == [(0, 1)]
    assert assert_walk_is_sweep(monkeypatch, H, 2, 2) == []
    # H_1 = Tor_1(S, k) sits at x^2
    assert assert_walk_is_sweep(monkeypatch, H, 1, 2) == [(1, (2, 0), 1)]
    # over R/(x1^3), H_1 != 0 where d_1 maps both generators of C_1 to that
    # of C_0: no bound proves H_1 = 0 there, so that one key takes a QQ rank
    R = Ring(("x1", "x2", "x3"))
    S = R.quotient([R.parse_monomial("x1^3")])
    K = koszul_complex([S.parse_monomial(m) for m in ("x1^2*x2", "x1*x3")], S)
    assert_walk_is_sweep(monkeypatch, Homology(K), 1, 2, gaps=1)


def test_a_map_that_is_not_a_complex(monkeypatch):
    # a Tate differential with one entry of d_5 doubled: d_4 o d_5 != 0, and
    # |B_i| - r_i - r_{i+1} then reads negative "dimensions"; the walk and
    # the sweep return the same raw lists, negative values included
    R = ring4(QQ)
    a = [R.parse_monomial("x1^2"), R.parse_monomial("x3*x4")]
    T = tate_resolution(a, R, 6).complex
    negative = False
    for c, col in sorted(T.table(5).items())[:12]:
        tables = [dict(T.table(j)) for j in range(1, T.length + 1)]
        tables[4][c] = [(r, 2 * s) for r, s in col[:1]] + col[1:]
        C = GradedFreeComplex(T.ring, T.mdegs, tables)
        if validate_complex(C).ok:
            continue
        out = assert_walk_is_sweep(monkeypatch, Homology(C), 0, 5)
        negative |= any(d < 0 for _, _, d in out)
    assert negative


def test_rank_count_gate_on_the_golod_flagship(monkeypatch):
    # the cells of the flagship certificate take exactly these eliminations,
    # one XOR rank per key, and the GF(2) bound decides every block, so no
    # QQ rank; a walk that ranks a key twice, or bypasses the rank memo,
    # takes more
    R = ring4(QQ)
    I, J = ideal(R, "x1", "x2"), ideal(R, "x3", "x4")
    for n_max, want in ((5, 226), (6, 373)):
        G = golod_resolution(I, J, n_max)
        out, calls = counted(
            monkeypatch, verify_resolution, G, maximal_ideal(G.ring), n_max - 1
        )
        assert out.ok and out.strand_failures == out.coker_failures == []
        assert calls == {"rank": 0, "xor_rank": want}


def test_mask_memory_gate_on_the_golod_flagship():
    # the cell certificate builds the prefix masks of the generators only
    # at the thresholds a step reads: at n_max 9 its traced peak is about
    # 3.5 MiB, where every prefix of every variable took about 17.7 MiB
    R = ring4(QQ)
    C, _ = _golod_complex(ideal(R, "x1", "x2"), ideal(R, "x3", "x4"), 9)
    H = Homology(C)
    tracemalloc.start()
    try:
        assert H.cell_failures(1, 8) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def without_top_generator(C, g):
    """C without generator g of its top level C_n: column g of d_n gone,
    so it is still a complex."""
    n = C.length
    mdegs = [list(m) for m in C.mdegs]
    del mdegs[n][g]
    top = {c - (c > g): col for c, col in C.table(n).items() if c != g}
    return GradedFreeComplex(
        C.ring, mdegs, [C.table(i) for i in range(1, n)] + [top]
    )


def present_at(H, levels, b):
    """The generators (i, g) of the C_i, i in ``levels``, present at b:
    m_g <= b, and m_g + q <= b for no q in gens(Q)."""
    def below(m):
        return all(map(le, m, b))

    return frozenset(
        (i, g) for i in levels for g, m in enumerate(H.mdegs[i].values())
        if below(m) and not any(below(tuple(map(add, m, q))) for q in H._kill)
    )


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_failing_presence_at_leaves_along_the_last_variable(monkeypatch, field):
    # the Golod complex over R/IJ without its first generator of C_4, at
    # x1x2x3x4: H_3 != 0 from there up.  The walk reads the cells along
    # x4 in one loop per prefix, and must list a failing presence at each
    # of its leaves, also where its dimensions are already known
    C = golod_flagship_like(ring4(field))
    n = C.length
    assert C.mdegs[n][0] == (1, 1, 1, 1)
    H = Homology(without_top_generator(C, 0))
    # over QQ the failing blocks leave the GF(2) bound 10 gaps to close
    walk = assert_walk_is_sweep(
        monkeypatch, H, 0, n - 1, gaps=10 if field == QQ else 0
    )
    assert (0, (0, 0, 0, 0), 1) in walk
    assert [b for i, b, _ in walk if b[:3] == (1, 1, 1)] == [
        (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 1, 3)
    ]
    leaves = Counter(
        (b[:-1], present_at(H, range(n + 1), b)) for i, b, _ in walk if i
    )
    assert max(leaves.values()) >= 2


# mutants on which the GF(2) bound falls short: complexes over QQ whose
# integer tables have a smaller rank mod 2, so that only the exact QQ ranks
# decide their blocks


def mapped(C, j, f):
    """C with each column c of d_j replaced by f(c, [(r, s)]), zeros
    dropped and scalars put in the form of the tables."""
    scalar = C.ring.field.scalar
    table = {}
    for c in range(C.rank(j)):
        col = [(r, v) for r, s in f(c, C.table(j).get(c, ())) if (v := scalar(s))]
        if col:
            table[c] = col
    tables = [table if i == j else C.table(i) for i in range(1, C.length + 1)]
    return GradedFreeComplex(C.ring, C.mdegs, tables)


def scaled(C, j, s):
    """d_j times s: still a complex."""
    return mapped(C, j, lambda c, col: [(r, s * t) for r, t in col])


def rebased(C, j, gens, A, inv):
    """C in the basis of C_j that takes the generators ``gens``, all of one
    multidegree, to their combinations by the columns of the matrix A,
    whose inverse is ``inv``: d_j times A, and inv times d_{j+1}."""
    at = {g: k for k, g in enumerate(gens)}

    def new_columns(c, col):
        if c not in at:
            return col
        out: dict = {}
        for k, g in enumerate(gens):
            for r, s in C.table(j).get(g, ()):
                out[r] = out.get(r, 0) + A[k][at[c]] * s
        return sorted(out.items())

    def new_rows(c, col):
        out = dict(col)
        old = [out.pop(g, 0) for g in gens]
        for k, g in enumerate(gens):
            out[g] = sum(inv[k][m] * v for m, v in enumerate(old))
        return sorted(out.items())

    return mapped(mapped(C, j, new_columns), j + 1, new_rows)


def same_multidegree(C):
    """(j, g, h): the first two generators g < h of one C_j, 2 <= j <
    length, with one multidegree and nonzero columns of d_j."""
    for j in range(2, C.length):
        seen = {}
        for g, m in enumerate(C.mdegs[j]):
            if g in C.table(j):
                if m in seen:
                    return j, seen[m], g
                seen[m] = g
    raise AssertionError("no two generators of one multidegree")


def mutants(C):
    """{name: (mutant, whether it must take QQ ranks over QQ)}."""
    j, g, h = same_multidegree(C)
    p = getattr(C.ring.field, "p", 0)
    out = {
        # every entry of d_2 doubled, of d_3 times -2: even over GF(2)
        "d_2 times 2": (scaled(C, 2, 2), True),
        "d_3 times -2": (scaled(C, 3, -2), True),
    }
    if p != 2:  # 1/2 is no scalar of GF(2)
        # e_g -> 2 e_g: column g of d_j doubled and row g of d_{j+1}
        # halved, so that the columns of d_{j+1} through g hold Fractions
        half = Fraction(1, 2)
        out["e_g doubled"] = (rebased(C, j, [g], [[2]], [[half]]), False)
        # e_g + e_h and e_g - e_h: H = 0 over QQ still, but the two new
        # columns of d_j agree mod 2, as do the rows of d_{j+1} scaled to
        # integers
        out["e_g + e_h, e_g - e_h"] = (rebased(
            C, j, [g, h], [[1, 1], [1, -1]], [[half, half], [half, -half]]
        ), True)
    else:
        out["e_g + e_h, e_h"] = (rebased(
            C, j, [g, h], [[1, 0], [1, 1]], [[1, 0], [-1, 1]]
        ), False)
    return out


def golod_flagship_like(R):
    return golod_resolution(ideal(R, "x1", "x2^2"), ideal(R, "x3", "x4"), 4)


def tate(R):
    # the divided power on x3x4 shares its multidegree with e_3 ^ e_4
    a = [R.parse_monomial("x1^2"), R.parse_monomial("x3*x4")]
    return tate_resolution(a, R, 5).complex


def star(R):
    R5 = Ring(("x1", "x2", "x3", "x4", "x5"), R.field)
    return star_product(
        taylor_complex(ideal(R5, "x1^2", "x1*x2", "x2*x3")),
        taylor_complex(ideal(R5, "x4^2", "x4*x5", "x5^2")),
    )


@pytest.mark.parametrize("build", [golod_flagship_like, tate, star])
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mutants_where_the_bound_falls_short(monkeypatch, field, build):
    C = build(ring4(field))
    for name, (M, short) in mutants(C).items():
        assert validate_complex(M).ok, name
        H = Homology(M)
        walk, calls = counted(monkeypatch, H.cell_failures, 0, M.length)
        sweep, _ = counted(monkeypatch, reference_cell_failures, H, 0, M.length)
        assert walk == sweep, name
        if field == QQ:
            # where the bound left a gap, the exact QQ ranks closed it
            assert calls["rank"] or not short, name
            # a change of basis over QQ keeps the homology
            assert walk == Homology(C).cell_failures(0, M.length), name


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
def test_a_column_of_fractions_scaled_to_integers(monkeypatch, field):
    # d_2 has the columns (1/2, 1) and (1, 2) = 2 (1/2, 1), of rank 1, and
    # d_1 = (2, -1) kills both; H_2 = 1.  Scaled by the lcm of its
    # denominators the first column is (1, 2), odd at row 0 alone, so the
    # GF(2) rank of d_2 is 1; read unscaled, 1/2 would count as odd and
    # give rank 2 > 1, and the bound would prove H_2 = 0.  Here H_1 = 0
    # by the bound, which proves both ranks exact, so no QQ rank is taken
    scalar = field.scalar
    R = Ring(("x",), field)
    zero = (0,)
    C = GradedFreeComplex(R, [[zero], [zero] * 2, [zero] * 2], [
        {0: [(0, scalar(2))], 1: [(0, scalar(-1))]},
        {0: [(0, scalar(Fraction(1, 2))), (1, 1)], 1: [(0, 1), (1, scalar(2))]},
    ])
    assert validate_complex(C).ok
    H = Homology(C)
    assert assert_walk_is_sweep(monkeypatch, H, 0, 2) == [
        (2, zero, 1)
    ]
