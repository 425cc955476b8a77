import pytest

from transverse.ideals import minimalize_generators
from transverse.poly import Ring


@pytest.fixture
def R4():
    return Ring(("x1", "x2", "x3", "x4"))


@pytest.fixture
def Rxy():
    return Ring(("x", "y"))


def ideal(ring, *gens):
    return minimalize_generators(ring, [ring.parse_monomial(g) for g in gens])


@pytest.fixture
def flagship(R4):
    # the running example: transverse pair (x1,x2), (x3,x4)
    return ideal(R4, "x1", "x2"), ideal(R4, "x3", "x4")


def minimize_checked(C):
    """minimize_complex(C), with dim H_i (i >= 1) of the strands t up to two
    past the lowest degree in C_1 compared before and after."""
    from transverse.complexes import Homology
    from transverse.resolutions import minimize_complex

    tmax = min(C.degs(1) if C.length else (), default=0) + 2
    strands = [(i, t) for i in range(1, C.length + 1) for t in range(tmax + 1)]
    H = Homology(C)
    before = [H.dim(i, t) for i, t in strands]
    out = minimize_complex(C)
    H = Homology(out)
    assert [H.dim(i, t) for i, t in strands] == before
    return out


def strand_dims_from_cells(cells, failures, D):
    """{(i, t): dim H_i} on the strands t <= D, nonzero entries only, read
    off cell failures (i, b, dim): each multidegree b' of degree t takes the
    homology of its cell, whose corner is the largest cell point <= b'."""
    from functools import reduce
    from itertools import product

    cells = set(cells)
    at: dict = {}
    for i, b, d in failures:
        at.setdefault(b, []).append((i, d))
    n = len(next(iter(cells)))
    out: dict = {}
    for b in product(range(D + 1), repeat=n):
        if sum(b) > D:
            continue
        below = [c for c in cells if all(x <= y for x, y in zip(c, b))]
        if not below:
            continue
        corner = reduce(lambda x, y: tuple(map(max, x, y)), below)
        assert corner in cells, (b, corner)
        for i, d in at.get(corner, ()):
            out[(i, sum(b))] = out.get((i, sum(b)), 0) + d
    return out
