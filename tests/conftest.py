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
