"""Reference tests for the work the star verification no longer repeats.

- ``lcm_closure`` visits its points in a linear extension of <= and lets
  only atoms extend the closure; the reference is the plain fold it
  replaced, which extends the closure by every point in the given order.
- ``verify_resolution`` reads clause (c) off C itself when C is minimal,
  and minimizes only a candidate that is not.
- ``_coker_failures``, clause (b) of ``verify_resolution``, returns at
  once when the two minimal generating sets are equal and tests
  containment on exponent tuples otherwise; the reference is the two-way
  test by pairwise ``Monomial.divides``, on mutants of d_1.
- ``complex_to_json`` formats each table entry s x^(m_c - m_r) through
  ``Ring.format_term``; the reference is the earlier rendering through the
  ``Polynomial``/``PolyMatrix`` view, ``str`` of each entry of ``poly_diff(C, i)``.

The examples are derandomized, so every run draws the same point sets.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from transverse import resolutions
from transverse.complexes import (
    GradedFreeComplex, _coker_failures, betti_table, complex_to_json,
    is_minimal, star_product, verify_resolution,
)
from transverse.fields import QQ, PrimeField, field_to_json
from transverse.golod import _golod_complex
from transverse.ideals import MonomialIdeal, ideal_product, lcm_closure
from transverse.poly import Monomial, Ring
from transverse.resolutions import minimal_resolution, minimize_complex, taylor_complex

from conftest import ideal
from polynomial_elements import poly_diff


def reference_lcm_closure(pts) -> frozenset:
    """The lcms of the nonempty subsets of ``pts``: each point, in the
    given order, extends the closure."""
    out: set = set()
    for p in pts:
        out |= {tuple(map(max, p, c)) for c in out}
        out.add(p)
    return frozenset(out)


@st.composite
def point_lists(draw):
    """Exponent tuples in 1 to 4 variables, with repeats, in any order, the
    zero vector among them or not."""
    n = draw(st.integers(1, 4))
    pts = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=9))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3)) if pts else []
    if draw(st.booleans()):
        pts.append((0,) * n)
    return draw(st.permutations(pts))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(point_lists())
def test_lcm_closure_equals_the_plain_fold(pts):
    assert lcm_closure(pts) == reference_lcm_closure(pts)
    assert lcm_closure(iter(pts)) == reference_lcm_closure(pts)


# ---------------------------------------------------------------------------
# clause (c) of verify_resolution


def counted_minimize(monkeypatch):
    calls = []

    def counting(C):
        calls.append(C)
        return minimize_complex(C)

    monkeypatch.setattr(resolutions, "minimize_complex", counting)
    return calls


@pytest.mark.parametrize("field", [QQ, PrimeField(3)])
def test_a_minimal_star_product_is_not_minimized(monkeypatch, field):
    R = Ring(("x1", "x2", "x3", "x4", "x5"), field)
    I, J = ideal(R, "x1^2", "x1*x2", "x2*x3"), ideal(R, "x4^2", "x4*x5")
    C = star_product(minimal_resolution(I), minimal_resolution(J))
    assert is_minimal(C)
    calls = counted_minimize(monkeypatch)
    cert = verify_resolution(C, ideal_product(I, J))
    assert cert.ok and cert.minimal
    assert calls == []
    assert cert.betti_got == betti_table(minimize_complex(C)) == cert.betti_want


def test_a_non_minimal_taylor_complex_is_minimized_once(monkeypatch):
    R = Ring(("x1", "x2", "x3"))
    I = ideal(R, "x1*x2", "x2*x3", "x1*x3")
    T = taylor_complex(I)
    assert not is_minimal(T)
    calls = counted_minimize(monkeypatch)
    cert = verify_resolution(T, I)
    assert cert.ok and not cert.minimal
    assert calls == [T]
    assert cert.betti_got == betti_table(minimize_complex(T)) == cert.betti_want


# ---------------------------------------------------------------------------
# complex_to_json against the polynomial view


def reference_complex_json(C: GradedFreeComplex) -> dict:
    """The JSON of C rendered through the polynomial view, as before."""
    ring = {"vars": list(C.ring.names), "field": field_to_json(C.ring.field)}
    if C.ring.modulus:
        ring["modulus"] = [C.ring.format_monomial(m) for m in C.ring.modulus]
    diffs = []
    for i in range(1, C.length + 1):
        mat = poly_diff(C, i)
        diffs.append({
            "index": i,
            "rows": mat.nrows,
            "cols": mat.ncols,
            "entries": [[r, c, str(p)] for (r, c), p in sorted(mat.entries.items())],
        })
    return {
        "ring": ring,
        "degrees": [list(d) for d in C.degrees],
        "labels": [list(l) for l in C.labels],
        "differentials": diffs,
    }


def _taylor(field):
    R = Ring(("x1", "x2", "x3"), field)
    return taylor_complex(ideal(R, "x1*x2", "x2*x3", "x1*x3"))


def _fractions():
    # scalars 1/2, -3/2 and -1 on d_1, and 1 and -1/2 on d_2
    R = Ring(("x", "y"))
    return GradedFreeComplex(
        R, [[(0, 0)], [(1, 0), (0, 2), (1, 1)], [(1, 2)]],
        [{0: [(0, Fraction(1, 2))], 1: [(0, Fraction(-3, 2))], 2: [(0, -1)]},
         {0: [(2, 1), (1, Fraction(-1, 2))]}],
    )


def _golod_flagship():
    R = Ring(("x1", "x2", "x3", "x4"))
    C, _ = _golod_complex(ideal(R, "x1", "x2"), ideal(R, "x3", "x4"), 3)
    assert C.ring.modulus
    return C


@pytest.mark.parametrize("build", [
    lambda: _taylor(QQ),
    lambda: _taylor(PrimeField(3)),
    lambda: minimize_complex(_taylor(QQ)),
    lambda: star_product(*(minimal_resolution(ideal(
        Ring(("x1", "x2", "x3", "x4"), PrimeField(3)), *gens))
        for gens in (("x1^2", "x1*x2"), ("x3^2", "x3*x4", "x4^3")))),
    _fractions,
    _golod_flagship,
], ids=["taylor QQ", "taylor GF(3)", "minimized taylor", "star GF(3)",
        "fractions", "golod over R/IJ"])
def test_complex_json_equals_the_polynomial_view(build):
    C = build()
    assert complex_to_json(C) == reference_complex_json(C)


def test_the_cases_reach_every_kind_of_term():
    # constants 1 and -1, a bare monomial, a negated one, a scalar times a
    # monomial, GF(3)'s 2 in place of -1, and fractions
    texts = {
        e[2]
        for build in (lambda: _taylor(QQ), lambda: _taylor(PrimeField(3)),
                      _fractions)
        for d in complex_to_json(build())["differentials"]
        for e in d["entries"]
    }
    assert {"1", "-1", "x2", "-x2", "x1*x2", "2", "2*x2", "1/2*x",
            "-1/2*x", "-3/2*y^2", "-x*y"} <= texts


# ---------------------------------------------------------------------------
# clause (b) of verify_resolution against the two-way containment


def reference_coker_failures(C, I) -> list:
    """Clause (b) as before: the minimal generators of I + Q and of
    image d_1 + Q, each tested against the other ideal by pairwise
    ``Monomial.divides``."""
    zero = (0,) * C.ring.nvars
    if C.degs(0) != (0,):
        return [(zero, C.degs(0), (0,))]
    md, Q = C.mdegs, C.ring.modulus
    image = MonomialIdeal(C.ring, (*Q, *(
        Monomial(tuple(a - b for a, b in zip(md[1][c], md[0][r])))
        for c, col in C.table(1).items() for r, _ in col
    )))
    want = MonomialIdeal(C.ring, (*Q, *I.gens))

    def contains(K, m):
        return any(g.divides(m) for g in K.gens)

    out = [(g.exps, 1, 0) for g in want.gens if not contains(image, g)]
    out += [(g.exps, 0, 1) for g in image.gens if not contains(want, g)]
    return sorted(out, key=lambda f: (sum(f[0]), f[0]))


def d1_mutants(C):
    """C cut to d_1, then with one column of d_1 dropped, or with the
    multidegree of one generator of C_1 raised or lowered by one variable."""
    md, table = C.mdegs, C.table(1)
    yield GradedFreeComplex(C.ring, md[:2], [table])
    for c in range(C.rank(1)):
        yield GradedFreeComplex(
            C.ring, md[:2], [{k: col for k, col in table.items() if k != c}]
        )
        for k in range(C.ring.nvars):
            for step in (1, -1):
                moved = list(md[1])
                moved[c] = tuple(e + step * (i == k) for i, e in enumerate(moved[c]))
                if min(moved[c]) >= 0:
                    yield GradedFreeComplex(C.ring, [md[0], moved], [table])


@pytest.mark.parametrize("modulus", [(), ("x1^3", "x2^2*x4")], ids=["R", "R/Q"])
def test_coker_failures_equal_the_two_way_containment(modulus):
    R = Ring(("x1", "x2", "x3", "x4"))
    R = R.quotient([R.parse_monomial(m) for m in modulus])
    I, J = ideal(R, "x1^2", "x1*x2", "x2^2"), ideal(R, "x3*x4", "x4^2")
    IJ = ideal_product(I, J)
    kinds = set()
    for C, K in ((star_product(taylor_complex(I), taylor_complex(J)), IJ),
                 (taylor_complex(I), I)):
        for D in d1_mutants(C):
            got = _coker_failures(D, K)
            assert got == reference_coker_failures(D, K)
            kinds.add(tuple(sorted({f[1:] for f in got})))
    # equal ideals, generators missing from the image, and extra ones
    assert {(), ((1, 0),), ((0, 1),)} <= kinds
