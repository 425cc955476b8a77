import pytest

from transverse.ideals import minimalize_generators
from transverse.poly import Monomial, Ring


@pytest.fixture
def R4():
    return Ring(("x1", "x2", "x3", "x4"))


@pytest.fixture
def Rxy():
    return Ring(("x", "y"))


def ideal(ring, *gens):
    return minimalize_generators(ring, [ring.parse_monomial(g) for g in gens])


def variables(ring, *idx):
    """The monomials x_k of ``ring`` for k in idx, every one when idx is
    empty."""
    n = ring.nvars
    return [Monomial(tuple(int(k == j) for k in range(n))) for j in idx or range(n)]


def koszul(ring, *idx):
    """The Koszul complex over ``ring`` on :func:`variables` (ring, *idx)."""
    from transverse.resolutions import koszul_complex

    return koszul_complex(variables(ring, *idx), ring)


@pytest.fixture
def flagship(R4):
    # the running example: transverse pair (x1,x2), (x3,x4)
    return ideal(R4, "x1", "x2"), ideal(R4, "x3", "x4")


def assert_polynomials_only_a_view():
    """No module of the package names Polynomial or PolyMatrix, and a
    complex has no ``diff`` or ``diffs``: the polynomial view lives in
    ``polynomial_elements``, and the package formats each table entry as
    one term through ``Ring.format_term``."""
    import re
    from importlib import import_module
    from pathlib import Path

    from transverse.complexes import GradedFreeComplex

    assert not {"diff", "diffs"} & set(dir(GradedFreeComplex))
    for path in Path(import_module("transverse").__file__).parent.glob("*.py"):
        assert not re.search(r"\bPoly(nomial|Matrix)\b", path.read_text()), path


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
