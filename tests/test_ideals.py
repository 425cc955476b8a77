import random
from functools import reduce

import pytest

from transverse.errors import DomainError
from transverse.ideals import (
    MonomialIdeal,
    degree_basis_mod_ideal,
    ideal_intersection,
    ideal_product,
    is_sequentially_transverse,
    is_transverse,
    minimalize_generators,
    transversality_witness,
)
from transverse.poly import Monomial, monomials_of_degree
from conftest import ideal


def brute_force_equal(I, J, bound):
    """Oracle: two monomial ideals agree iff they contain the same monomials
    up to a degree bound past both generator degrees."""
    for t in range(bound + 1):
        for m in monomials_of_degree(I.ring, t):
            if I.contains(m) != J.contains(m):
                return False
    return True


class TestMinimalize:
    def test_redundant_generator(self, R4):
        I = ideal(R4, "x1", "x1*x2")
        assert I.gens == (R4.parse_monomial("x1"),)

    def test_pairwise_incomparable(self, R4):
        gens = ("x1*x3", "x1*x4", "x2*x3", "x2*x4")
        I = ideal(R4, *gens)
        assert len(I.gens) == 4

    def test_empty_is_zero_ideal(self, R4):
        I = minimalize_generators(R4, [])
        assert I.is_zero


class TestProductIntersection:
    def test_disjoint_support_product(self, R4, flagship):
        I, J = flagship
        P = ideal_product(I, J)
        assert P == ideal(R4, "x1*x3", "x1*x4", "x2*x3", "x2*x4")

    def test_principal_product(self, Rxy):
        I = ideal(Rxy, "x")
        J = ideal(Rxy, "y")
        assert ideal_product(I, J) == ideal(Rxy, "x*y")

    def test_unit_ideal_identity(self, R4):
        I = ideal(R4, "x1*x3", "x2")
        one = ideal(R4, "1")
        assert ideal_product(I, one) == I

    def test_intersection_disjoint(self, R4, flagship):
        I, J = flagship
        assert ideal_intersection(I, J) == ideal_product(I, J)

    def test_intersection_overlap(self, R4):
        # oracle: pairwise lcms of (x1,x2) and (x2,x3) minimalize to (x2, x1x3)
        I = ideal(R4, "x1", "x2")
        J = ideal(R4, "x2", "x3")
        got = ideal_intersection(I, J)
        assert got == ideal(R4, "x2", "x1*x3")
        assert brute_force_equal(got, ideal(R4, "x2", "x1*x3"), 4)

    def test_self_intersection(self, Rxy):
        I = ideal(Rxy, "x")
        assert ideal_intersection(I, I) == I


class TestTransverse:
    def test_disjoint_supports(self, flagship):
        assert is_transverse(*flagship)

    def test_shared_variable(self, R4):
        I = ideal(R4, "x1", "x2")
        J = ideal(R4, "x2", "x3")
        assert not is_transverse(I, J)
        w = transversality_witness(I, J)
        assert R4.format_monomial(w) == "x2"

    def test_principal(self, Rxy):
        assert is_transverse(ideal(Rxy, "x"), ideal(Rxy, "y"))

    def test_symmetry_random(self, R4):
        rng = random.Random(5150)
        for _ in range(40):
            gens1 = [
                Monomial(tuple(rng.randint(0, 2) for _ in range(4)))
                for _ in range(rng.randint(1, 3))
            ]
            gens2 = [
                Monomial(tuple(rng.randint(0, 2) for _ in range(4)))
                for _ in range(rng.randint(1, 3))
            ]
            I = MonomialIdeal(R4, tuple(gens1))
            J = MonomialIdeal(R4, tuple(gens2))
            if I.is_zero or I.is_unit or J.is_zero or J.is_unit:
                continue
            assert is_transverse(I, J) == is_transverse(J, I)
            # product always sits inside the intersection
            inter = ideal_intersection(I, J)
            for g in ideal_product(I, J).gens:
                assert inter.contains(g)

    def test_disjoint_support_always_transverse(self, R4):
        rng = random.Random(31)
        for _ in range(40):
            gens1 = [
                Monomial((rng.randint(0, 2), rng.randint(0, 2), 0, 0))
                for _ in range(rng.randint(1, 3))
            ]
            gens2 = [
                Monomial((0, 0, rng.randint(0, 2), rng.randint(0, 2)))
                for _ in range(rng.randint(1, 3))
            ]
            I = MonomialIdeal(R4, tuple(gens1))
            J = MonomialIdeal(R4, tuple(gens2))
            if I.is_zero or I.is_unit or J.is_zero or J.is_unit:
                continue
            assert is_transverse(I, J)

    def test_zero_or_unit_rejected(self, R4):
        I = ideal(R4, "x1")
        with pytest.raises(DomainError):
            is_transverse(I, minimalize_generators(R4, []))
        with pytest.raises(DomainError):
            is_transverse(I, ideal(R4, "1"))


class TestSequentiallyTransverse:
    def test_disjoint_triple(self, R4):
        fam = [ideal(R4, "x1"), ideal(R4, "x2"), ideal(R4, "x3")]
        assert is_sequentially_transverse(fam)

    def test_failure_at_second_step(self, R4):
        fam = [ideal(R4, "x1", "x2"), ideal(R4, "x3", "x4"), ideal(R4, "x2", "x3")]
        assert not is_sequentially_transverse(fam)

    def test_pair(self, Rxy):
        assert is_sequentially_transverse([ideal(Rxy, "x"), ideal(Rxy, "y")])

    def test_needs_two(self, Rxy):
        with pytest.raises(DomainError):
            is_sequentially_transverse([ideal(Rxy, "x")])

    def test_product_of(self, R4):
        fam = [ideal(R4, "x1"), ideal(R4, "x2"), ideal(R4, "x3")]
        assert reduce(ideal_product, fam) == ideal(R4, "x1*x2*x3")


class TestDegreeBasis:
    def test_linear_quotient(self, R4):
        I = ideal(R4, "x1", "x2")
        basis = degree_basis_mod_ideal(I, 1)
        assert [R4.format_monomial(m) for m in basis] == ["x3", "x4"]

    def test_xy_quotient(self, Rxy):
        I = ideal(Rxy, "x*y")
        basis = degree_basis_mod_ideal(I, 2)
        assert [Rxy.format_monomial(m) for m in basis] == ["x^2", "y^2"]

    def test_degree_zero(self, R4):
        I = ideal(R4, "x1^2", "x4^2")
        assert [m.is_one for m in degree_basis_mod_ideal(I, 0)] == [True]

    def test_counting_identity(self, R4):
        rng = random.Random(777)
        for _ in range(20):
            gens = [
                Monomial(tuple(rng.randint(0, 2) for _ in range(4)))
                for _ in range(rng.randint(1, 4))
            ]
            I = MonomialIdeal(R4, tuple(gens))
            if I.is_unit:
                continue
            for t in range(5):
                all_t = monomials_of_degree(R4, t)
                in_ideal = sum(1 for m in all_t if I.contains(m))
                assert len(degree_basis_mod_ideal(I, t)) == len(all_t) - in_ideal
