"""Differential tests: block elements on scalars against the polynomial
element helpers they replaced (``polynomial_elements``).

An element is its multidegree block b and one scalar per exterior key S,
the term s x^(b - 1_S) e_S; ``as_polynomial`` reads it as the {S:
Polynomial} of the earlier code.  On seeded inputs over QQ, GF(2) and
GF(32003), the tests assert that

- each Koszul class representative is ``k_element`` of its stratum
  representative;
- ``k_wedge``, ``k_diff`` and ``k_restrict``, over R and over R/Q, read as
  polynomials, are the reference ``k_wedge``, ``k_diff`` and
  ``k_with_ring`` of the polynomial readings; a term the ring kills would
  show as a key with a zero polynomial, which the reference never holds;
- the Massey values and the trivial-Massey residuals are the reference
  left fold with the reference helpers;
- the Tate cycles are the polynomial cycles (a / x_i) e_i, and their
  wedges with the Koszul classes of R/M are the reference wedges;
- ``Homology.express`` and ``is_boundary`` on Kunneth images, products of
  classes, change-of-rings images and Tate wedges give what the stratum
  gives on ``k_coords`` of the polynomial reading in the block's
  {(key, monomial): column} index;
- ``lift_comparison_map`` on the scalar tables gives, read through
  ``chain_map``, the polynomial matrices, or the error, of the earlier lift
  (``reference_lift``), over R and over R/Q.
"""

import itertools
import random
from operator import add

import pytest

from transverse import linalg
from transverse.complexes import Homology
from transverse.errors import ExactnessError
from transverse.exterior import Element, k_diff, k_restrict, k_wedge
from transverse.fields import QQ, PrimeField
from transverse.golod import (
    KoszulHomology, golod_basis, kunneth_map, massey_identity_residual,
    massey_mu,
)
from transverse.ideals import MonomialIdeal, ideal_product, minimalize_generators
from transverse.obstructions import (
    QuotientTor, _tate_cycle, tate_resolution, tor_product_subspace,
)
from transverse.poly import Monomial, PolyMatrix, Polynomial, Ring
from transverse.resolutions import (
    koszul_complex, lift_comparison_map, minimize_complex, taylor_complex,
)

from polynomial_elements import (
    as_polynomial, chain_map, column, k_apply, k_axpy, k_coords, k_element,
    k_with_ring, one,
)
import polynomial_elements as ref
from test_scalar_complex_reference import NAMES, random_ideal, random_monomial

FIELDS = [QQ, PrimeField(2), PrimeField(32003)]


def reference_express(H: Homology, i: int, x: Element, key=lambda S: S):
    """The earlier ``Homology.express``: the stratum's answer on the
    polynomial reading of x in the {(key, monomial): column} index of its
    block; ``key`` maps an exterior key to the key of H."""
    ring = H.complex.ring.base()
    index = {
        (list(H.mdegs[i])[g], m): col for col, (g, m) in enumerate(H.basis(i, x.b))
    }
    poly = {key(S): p for S, p in as_polynomial(ring, x).items()}
    return H.stratum(i, x.b).express(k_coords(poly, index))


def assert_same_operations(ring, xs):
    """wedge, diff and restriction to ``ring`` on the elements ``xs`` of the
    ambient ring agree with the reference, over the ambient ring and over
    ``ring``."""
    base = ring.base()
    for x in xs:
        assert as_polynomial(ring, k_restrict(ring, x)) == k_with_ring(
            as_polynomial(base, x), ring
        )
    for R in (base, ring):
        ys = [k_restrict(R, x) for x in xs]
        for x in ys:
            assert as_polynomial(R, k_diff(R, x)) == ref.k_diff(
                R, as_polynomial(R, x)
            )
        for x, y in itertools.product(ys, repeat=2):
            w = k_wedge(R, x, y)
            assert w.b == tuple(map(add, x.b, y.b))
            assert as_polynomial(R, w) == ref.k_wedge(
                as_polynomial(R, x), as_polynomial(R, y)
            )


def assert_reps_are_the_strata(H):
    """Each class representative is k_element of its stratum's
    representative, the classes of a block in the order of its RREF."""
    ring = H.complex.ring
    blocks = sorted({(c.i, c.b) for c in H.classes})
    for i, b in blocks:
        sh = H.stratum(i, b)
        keyed = [(H.keys[i][g], m) for g, m in sh.basis]
        reps = [c.rep for c in H.classes if (c.i, c.b) == (i, b)]
        assert len(reps) == len(sh.representatives)
        for rep, v in zip(reps, sh.representatives):
            assert rep.b == b
            assert as_polynomial(ring, rep) == k_element(v, keyed, ring)


def reference_massey(q, zI, zJ, word):
    """The earlier left fold of massey_mu on polynomial elements."""
    a = word[0]
    out = ref.k_wedge(ref.k_diff(q, zI[a]), zJ[a])
    for k in word[1:]:
        out = ref.k_wedge(ref.k_wedge(out, zI[k]), zJ[k])
    return out


def transverse_pair(field, seed):
    rng = random.Random(300 + seed)
    R = Ring(NAMES, field)
    I = random_ideal(R, rng, (0, 1), rng.randint(1, 2))
    J = random_ideal(R, rng, (2, 3), rng.randint(1, 2))
    return R, I, J


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_koszul_classes_and_massey_values(field, seed):
    R, I, J = transverse_pair(field, seed)
    basis = golod_basis(I, J)
    q = basis.quotient
    H = basis.HIJ
    for K in (basis.HI, basis.HJ, H):
        assert_reps_are_the_strata(K)
    reps = [c.rep for K in (basis.HI, basis.HJ, H) for c in K.classes]
    assert_same_operations(q, reps)
    # the Massey values on words of up to three symbols, and the residuals
    zI = [k_with_ring(as_polynomial(R, basis.HI.classes[a].rep), q)
          for a, _ in basis.pairs]
    zJ = [k_with_ring(as_polynomial(R, basis.HJ.classes[b].rep), q)
          for _, b in basis.pairs]
    words = [w for p in (1, 2, 3)
             for w in itertools.product(range(len(basis.pairs)), repeat=p)]
    for word in words[:40]:
        mu = massey_mu(basis, word)
        assert mu.b == tuple(map(sum, zip(*(basis.vmdeg(k) for k in word))))
        assert as_polynomial(q, mu) == reference_massey(q, zI, zJ, word)
    for word in words[:12]:
        want = ref.k_diff(q, reference_massey(q, zI, zJ, word))
        for i in range(1, len(word)):
            w = sum(basis.vdeg(k) for k in word[:i])
            bar: dict = {}
            k_axpy(bar, 1 if (w + 1) % 2 == 0 else -1,
                   reference_massey(q, zI, zJ, word[:i]))
            k_axpy(want, -1, ref.k_wedge(
                bar, reference_massey(q, zI, zJ, word[i:])
            ))
        assert massey_identity_residual(basis, word).terms == want == {}
    # express and is_boundary on the Kunneth images and the products
    assert kunneth_map(I, J).ok
    checked = 0
    for a, b in itertools.product(basis.HI.classes, basis.HJ.classes):
        image = k_wedge(q, k_restrict(q, a.rep), k_diff(q, k_restrict(q, b.rep)))
        n = a.i + b.i - 1
        assert H.express(n, image) == reference_express(H, n, image)
        checked += 1
    for c1, c2 in itertools.product(H.classes, repeat=2):
        prod = k_wedge(q, k_restrict(q, c1.rep), k_restrict(q, c2.rep))
        n = c1.i + c2.i
        if n <= H.complex.length:
            want = reference_express(H, n, prod)
            assert H.express(n, prod) == want
            assert H.is_boundary(n, prod) == (
                not prod.terms or H.stratum(n, prod.b).is_boundary(
                    k_coords(as_polynomial(R, prod), {
                        (list(H.mdegs[n])[g], m): col
                        for col, (g, m) in enumerate(H.basis(n, prod.b))
                    })
                )
            )
    assert checked


def tate_cases(field, seed):
    """(sequence, M) pairs: the classical example and a seeded sequence of
    one or two products of generators of a transverse pair."""
    R, I, J = transverse_pair(field, seed)
    classical = minimalize_generators(R, [
        R.parse_monomial(g) for g in ("x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2")
    ])
    M = ideal_product(I, J)
    # a generator of IJ and, where its support allows, the square of a
    # generator of I: M then also holds that square
    a = [M.gens[0]]
    other = I.gens[-1]
    if not other.support() & a[0].support():
        a.append(other * other)
    return [
        ([R.parse_monomial("x1^2"), R.parse_monomial("x4^2")], classical),
        (a, minimalize_generators(R, list(M.gens) + a[1:])),
    ]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_tate_cycles_and_their_wedges(field, seed):
    for a, M in tate_cases(field, seed):
        R = M.ring
        T = tate_resolution(a, R, 4)
        S = T.ring
        qt = QuotientTor(T, M)
        source = KoszulHomology(M)
        zero = (0,) * len(T.sequence)
        for m, z in zip(T.sequence, T.cycles):
            # the earlier cycle (a / x_i) e_i over S
            i = min(m.support())
            xi = Monomial(tuple(int(k == i) for k in range(R.nvars)))
            assert z == _tate_cycle(m)
            assert as_polynomial(S, z) == {
                (i,): Polynomial.from_monomial(S, m.divide(xi))
            }
        quotient = M.quotient_ring()
        reps = [c.rep for c in source.classes]
        assert_same_operations(quotient, T.cycles + reps)
        for i in range(1, 4):
            ech, cycles = tor_product_subspace(source, qt, i)
            # the wedges z_j ^ w, each against the reference wedge
            lowers = ([Element((0,) * R.nvars, {(): 1})] if i == 1
                      else [c.rep for c in source.classes_at(i - 1)])
            want = []
            for z in T.cycles:
                for w in lowers:
                    p = ref.k_wedge(
                        k_with_ring(as_polynomial(R, z), quotient),
                        k_with_ring(as_polynomial(R, w), quotient),
                    )
                    if p:
                        want.append(p)
            assert [as_polynomial(quotient, w) for w in cycles] == want
            for w in cycles:
                assert qt.express(i, w) == reference_express(
                    qt, i, w, lambda U: (U, zero)
                )
                assert source.express(i, w) == reference_express(source, i, w)
            # the change-of-rings images of the classes
            for c in source.classes_at(i):
                assert qt.express(i, c.rep) == reference_express(
                    qt, i, c.rep, lambda U: (U, zero)
                )


def reference_lift(source, target):
    """The earlier ``lift_comparison_map`` on polynomial elements, with the
    {(key, monomial): column} index of each block built here."""
    ring = source.ring
    phis = [PolyMatrix(ring, 1, 1, {(0, 0): one(ring)})]
    H = Homology(target)
    for i, mdegs in enumerate(source.mdegs[1:], start=1):
        entries = {}
        for e, b in enumerate(mdegs):
            index = {gm: col for col, gm in enumerate(H.basis(i - 1, b))}
            rhs = k_coords(k_apply(phis[i - 1], column(source.diff(i), e)), index)
            basis_hi = H.basis(i, b)
            if not basis_hi:
                if rhs:
                    raise ExactnessError(
                        f"no solution lifting generator {e} in degree {i}: "
                        f"target is zero at multidegree {b}"
                    )
                continue
            rows = H._rows(i, b, basis_hi, H.basis(i - 1, b))
            sol = linalg.solve(rows, len(basis_hi), rhs, ring.field)
            if sol is None:
                raise ExactnessError(
                    f"target not exact in degree {i}, multidegree {b}: "
                    f"comparison map cannot be lifted"
                )
            for g, p in k_element(sol, basis_hi, ring).items():
                entries[(g, e)] = p
        phis.append(PolyMatrix(ring, target.rank(i), source.rank(i), entries))
    return phis


def lift(source, target):
    """``lift_comparison_map`` read through its polynomial view."""
    return chain_map(source, target, lift_comparison_map(source, target))


def lift_or_error(lift, source, target):
    try:
        return lift(source, target)
    except ExactnessError as exc:
        return str(exc)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_lift_on_the_tables_matches_the_polynomial_lift(field, seed):
    # over R the Taylor complex resolves R/I and every lift exists; over
    # R/Q it need not, and where a product x^(b - m_r) x^(m_r - m_g) dies
    # the right-hand side loses that term
    rng = random.Random(400 + seed)
    R = Ring(NAMES, field)
    Q = R.quotient([random_monomial(rng, range(4), 2, 3)])
    found = []
    for ring in (R, Q):
        I = random_ideal(ring, rng, range(4), 3)
        regular = [g for g in I.gens]
        regular = [g for k, g in enumerate(regular)
                   if not any(g.support() & h.support() for h in regular[:k])]
        K = koszul_complex(regular, ring)
        for target in (taylor_complex(I), minimize_complex(taylor_complex(I))):
            got = lift_or_error(lift, K, target)
            want = lift_or_error(reference_lift, K, target)
            assert got == want
            found.append(isinstance(got, str))
    assert not all(found)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_lift_drops_a_product_that_r_q_kills(field):
    # over R/(x1 x3), lifting K(x1, x2 x3) into the Taylor complex of (x1,
    # x2): phi(d e_12) = x1 phi(e_2) - x2 x3 phi(e_1) has the term x1 x3
    # T_2, which dies although both of its factors x1 and x3 T_2 live
    R = Ring(NAMES, field)
    S = R.quotient([R.parse_monomial("x1*x3")])
    I = MonomialIdeal(S, (R.parse_monomial("x1"), R.parse_monomial("x2")))
    K = koszul_complex([R.parse_monomial("x1"), R.parse_monomial("x2*x3")], S)
    got = lift(K, taylor_complex(I))
    assert got == reference_lift(K, taylor_complex(I))
    assert str(got[2].entries[0, 0]) == "x3"
