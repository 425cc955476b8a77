"""Differential tests: ``Homology.cell_failures``, which walks the grid of
cells by prefixes of its variables, against the earlier per-cell sweep
(``cell_sweep_reference``), compared as raw lists.

Each case also counts the ``linalg.rank`` calls of both: the walk skips
only cells where no generator is present, whose ranks are 0 without an
elimination, so the two take the same ranks.
"""

import pytest

from transverse import linalg
from transverse.complexes import (
    GradedFreeComplex, Homology, resolves_k_failures, star_product,
    validate_complex,
)
from transverse.fields import QQ, PrimeField
from transverse.golod import golod_resolution
from transverse.ideals import ideal_product
from transverse.obstructions import tate_resolution
from transverse.poly import Polynomial, Ring
from transverse.resolutions import koszul_complex, koszul_on_variables, taylor_complex

from cell_sweep_reference import reference_cell_failures, reference_cells
from conftest import ideal

FIELDS = [QQ, PrimeField(2), PrimeField(32003)]


def units(n):
    return [tuple(int(k == j) for k in range(n)) for j in range(n)]


def counted(monkeypatch, f, *args):
    """f(*args) and the number of linalg.rank calls it made."""
    calls = []
    rank = linalg.rank

    def counting(*a, **k):
        calls.append(1)
        return rank(*a, **k)

    with monkeypatch.context() as m:
        m.setattr(linalg, "rank", counting)
        out = f(*args)
    return out, len(calls)


def assert_walk_is_sweep(monkeypatch, H, lo, hi, points=()):
    walk, walk_ranks = counted(monkeypatch, H.cell_failures, lo, hi, points)
    sweep, sweep_ranks = counted(
        monkeypatch, reference_cell_failures, H, lo, hi, points
    )
    assert walk == sweep
    assert walk_ranks == sweep_ranks
    return walk


def ring4(field):
    return Ring(("x1", "x2", "x3", "x4"), field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_tate_complex_over_each_field(monkeypatch, field):
    R = ring4(field)
    a = [R.parse_monomial("x1^2"), R.parse_monomial("x4^2")]
    H = Homology(tate_resolution(a, R, 5).complex)
    assert len(H._kill) == 2
    # with the unit points: exact in degrees 1..4, and coker d_1 = k
    assert assert_walk_is_sweep(monkeypatch, H, 0, 4, units(4)) == [
        (0, (0, 0, 0, 0), 1)
    ]
    assert assert_walk_is_sweep(monkeypatch, H, 2, 4, units(4)) == []
    assert_walk_is_sweep(monkeypatch, H, 0, 5)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_golod_resolution_over_each_field(monkeypatch, field):
    R = ring4(field)
    G = golod_resolution(ideal(R, "x1", "x2^2"), ideal(R, "x3", "x4"), 4)
    H = Homology(G)
    out = assert_walk_is_sweep(monkeypatch, H, 0, 3, units(4))
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
    assert_walk_is_sweep(monkeypatch, H, 1, 3, units(4))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_star_product_over_r_with_unit_points(monkeypatch, field):
    # over R the cells are lcm-closure points, and the unit points split them
    R = Ring(("x1", "x2", "x3", "x4", "x5"), field)
    S = star_product(
        taylor_complex(ideal(R, "x1^2", "x1*x2", "x2*x3")),
        taylor_complex(ideal(R, "x4^2", "x4*x5")),
    )
    H = Homology(S)
    assert not H._kill
    assert_walk_is_sweep(monkeypatch, H, 1, S.length)
    assert_walk_is_sweep(monkeypatch, H, 0, S.length, units(5))


def test_a_whole_prefix_with_nothing_present(monkeypatch):
    # every generator of C_1 and C_2 has exponent >= 1 in x1, while the unit
    # points put the threshold 0 on that axis: over R/(x1^3) the walk skips
    # the whole prefix b_1 = 0
    R = Ring(("x1", "x2", "x3"))
    S = R.quotient([R.parse_monomial("x1^3")])
    a = [Polynomial.from_monomial(S, S.parse_monomial(m)) for m in ("x1^2*x2", "x1*x3")]
    K = koszul_complex(a)
    H = Homology(K)
    gens = [m for i in (1, 2) for m in K.mdegs[i]]
    cells = reference_cells(H, (1, 2), units(3))
    assert min(b[0] for b in cells) < min(m[0] for m in gens)
    assert [b for b in cells if b[0] == 0]
    assert assert_walk_is_sweep(monkeypatch, H, 2, 2, units(3))
    assert_walk_is_sweep(monkeypatch, H, 1, 2, units(3))


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
        out = assert_walk_is_sweep(monkeypatch, Homology(C), 0, 5, units(4))
        negative |= any(d < 0 for _, _, d in out)
    assert negative


def test_rank_count_gate_on_the_golod_flagship(monkeypatch):
    # the cells of the flagship certificate take exactly these eliminations;
    # a walk that ranks a key twice, or bypasses the rank memo, takes more
    R = ring4(QQ)
    I, J = ideal(R, "x1", "x2"), ideal(R, "x3", "x4")
    for n_max, want in ((5, 226), (6, 373)):
        G = golod_resolution(I, J, n_max)
        out, ranks = counted(monkeypatch, resolves_k_failures, G, n_max - 1)
        assert out[0].ok and out[2:] == ([], [])
        assert ranks == want
