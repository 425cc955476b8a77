"""Property tests: three independent pipelines agree on random monomial ideals.

The examples are derandomized, so every run draws the same ideals.
"""

from hypothesis import given, settings, strategies as st

from transverse.complexes import betti_table
from transverse.fields import QQ, PrimeField
from transverse.golod import KoszulHomology
from transverse.ideals import MonomialIdeal
from transverse.poly import Monomial, Ring
from transverse.resolutions import betti_numbers, minimal_resolution


@st.composite
def monomial_ideals(draw):
    """A nonzero proper monomial ideal in at most 4 variables, given by at
    most 6 nonconstant monomials (minimalized to an antichain)."""
    nvars = draw(st.integers(1, 4))
    field = draw(st.sampled_from([QQ, PrimeField(2)]))
    ring = Ring(tuple(f"x{i + 1}" for i in range(nvars)), field)
    exps = st.tuples(*[st.integers(0, 2)] * nvars).filter(any)
    gens = draw(st.lists(exps, min_size=1, max_size=6))
    return MonomialIdeal(ring, tuple(Monomial(e) for e in gens))


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(monomial_ideals())
def test_lattice_taylor_and_koszul_totals_agree(I):
    lattice = betti_numbers(I).totals()
    taylor = betti_table(minimal_resolution(I)).totals()
    koszul = KoszulHomology(I).dims()
    assert lattice == taylor
    assert {i: v for i, v in enumerate(lattice) if i >= 1} == koszul
