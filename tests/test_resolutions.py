import random
import sys
from itertools import combinations

import pytest

from transverse import linalg, resolutions
from transverse.complexes import (
    GradedFreeComplex,
    betti_table,
    is_minimal,
    star_product,
    strand_homology_dim,
    validate_complex,
    verify_resolution,
)
from transverse.errors import DimensionError, DomainError, ExactnessError
from transverse.fields import QQ, PrimeField
from transverse.golod import koszul_homology, kunneth_map
from transverse.ideals import MonomialIdeal, ideal_product, lcm_lattice
from transverse.obstructions import projective_dimension
from transverse.poly import Monomial, Ring
from transverse.resolutions import (
    betti_numbers,
    koszul_complex,
    lift_comparison_map,
    minimal_resolution,
    minimize_complex,
    taylor_complex,
)

from conftest import ideal, koszul, minimize_checked, variables
from polynomial_elements import Polynomial, chain_map, column, compose, poly_diff
from test_complexes import random_monomial_ideal


class TestKoszul:
    def test_two_variables(self, Rxy):
        K = koszul(Rxy, 0, 1)
        assert K.total_ranks() == (1, 2, 1)
        col = column(poly_diff(K, 2), 0)
        assert str(col[0]) == "-y" and str(col[1]) == "x"

    def test_binomial_ranks(self, R4):
        K = koszul(R4, 0, 1, 2, 3)
        assert K.total_ranks() == (1, 4, 6, 4, 1)
        assert validate_complex(K).ok

    def test_single_monomial(self, R4):
        m = R4.parse_monomial("x1*x3")
        K = koszul_complex([m], R4)
        assert K.total_ranks() == (1, 1)
        assert poly_diff(K, 1).entries == {(0, 0): Polynomial.from_monomial(R4, m)}

    def test_rejects_inhomogeneous(self, Rxy):
        x, y = variables(Rxy)
        with pytest.raises(DomainError):
            koszul_complex([Polynomial(Rxy, {x: 1, y * y: 1})], Rxy)


class TestTaylor:
    def test_flagship_binomial_ranks(self, R4, flagship):
        IJ = ideal_product(*flagship)
        T = taylor_complex(IJ)
        assert T.total_ranks() == (1, 4, 6, 4, 1)

    def test_coprime_equals_koszul(self, Rxy):
        T = taylor_complex(ideal(Rxy, "x", "y"))
        K = koszul(Rxy, 0, 1)
        assert T.degrees == K.degrees
        for i in (1, 2):
            assert poly_diff(T, i).entries == poly_diff(K, i).entries

    def test_random_taylor_valid_and_resolves(self, R4):
        rng = random.Random(2024)
        count = 0
        for _ in range(25):
            I = random_monomial_ideal(R4, rng)
            if I.is_unit:
                continue
            count += 1
            T = taylor_complex(I)
            assert validate_complex(T).ok
            cert = verify_resolution(T, I)
            assert cert.exactness_ok and cert.coker_ok
        assert count >= 20

    def test_rejects_zero_and_unit(self, R4):
        with pytest.raises(DomainError):
            taylor_complex(MonomialIdeal(R4, ()))
        with pytest.raises(DomainError):
            taylor_complex(ideal(R4, "1"))

    def test_rejects_a_generator_over_other_variables(self, R4):
        # the lcm fold would truncate it to the shorter length instead
        I = ideal(R4, "x1", "x2")
        for gens in ([Monomial((1, 0, 0, 0)), Monomial((0, 1, 0))],
                     [Monomial((1, 0, 0, 0, 1))]):
            with pytest.raises(DimensionError):
                taylor_complex(I, gens=gens)

    def test_rejects_gens_that_do_not_generate_the_ideal(self, R4):
        # a sequence is taken only when its minimal monomials are I.gens:
        # a smaller ideal, two larger ones, the unit ideal, the empty
        # sequence and another principal ideal are refused; a redundant
        # generating sequence is built
        I = ideal(R4, "x1^2", "x1*x2")
        m = R4.parse_monomial
        for gens in ([m("x1^2")], [m("x1^2"), m("x1*x2"), m("x3")],
                     [m("x1"), m("x1*x2")], [m("1")], []):
            with pytest.raises(DomainError):
                taylor_complex(I, gens=gens)
        with pytest.raises(DomainError):
            taylor_complex(ideal(R4, "x1"), gens=[m("x2")])
        T = taylor_complex(I, gens=[m("x1*x2"), m("x1^2*x2"), m("x1^2")])
        assert T.total_ranks() == (1, 3, 3, 1)
        assert validate_complex(T).ok and not is_minimal(T)


class TestMinimize:
    def test_flagship(self, R4, flagship):
        IJ = ideal_product(*flagship)
        M = minimize_checked(taylor_complex(IJ))
        assert M.total_ranks() == (1, 4, 4, 1)
        assert is_minimal(M)

    def test_fixpoint_on_minimal(self, R4):
        K = koszul(R4, 0, 1)
        M = minimize_checked(K)
        assert M.total_ranks() == K.total_ranks()
        for i in (1, 2):
            assert poly_diff(M, i).entries == poly_diff(K, i).entries

    def test_collapse_to_principal(self, Rxy):
        T = taylor_complex(
            ideal(Rxy, "x"),
            gens=[Rxy.parse_monomial("x"), Rxy.parse_monomial("x*y")],
        )
        M = minimize_checked(T)
        assert M.total_ranks() == (1, 1)
        assert str(poly_diff(M, 1).entries[0, 0]) == "x"

    def test_strand_homology_preserved(self, R4):
        rng = random.Random(8)
        for _ in range(8):
            I = random_monomial_ideal(R4, rng)
            if I.is_unit:
                continue
            T = taylor_complex(I)
            M = minimize_checked(T)  # the before/after comparison is the test
            assert is_minimal(M)

    def test_length_zero_returned(self, R4):
        for C in (GradedFreeComplex(R4, [[(0, 0, 0, 0)]], []),
                  GradedFreeComplex(R4, [()], [])):
            M = minimize_complex(C)
            assert (M.length, M.degrees) == (0, C.degrees)

    def test_betti_agrees_with_koszul_homology(self, R4, flagship):
        # Tor via minimized Taylor == Tor via Koszul strand dims
        IJ = ideal_product(*flagship)
        M = minimize_checked(taylor_complex(IJ))
        table = betti_table(M)
        K = koszul(R4, 0, 1, 2, 3)
        for i in range(1, 4):
            total = sum(v for (ii, _), v in table.entries.items() if ii == i)
            strands = sum(
                strand_homology_dim(K, IJ, t, i) for t in range(0, 9)
            )
            assert total == strands


# facets of the 6-vertex triangulation of the real projective plane
RP2_FACETS = {
    (0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5),
}


def _rp2_ideal(field):
    """Stanley-Reisner ideal of RP^2: its 1-skeleton is complete, so it is
    generated by the 10 triangles that are not facets."""
    R = Ring(tuple(f"x{v + 1}" for v in range(6)), field)
    gens = [
        Monomial(tuple(int(v in T) for v in range(6)))
        for T in combinations(range(6), 3)
        if T not in RP2_FACETS
    ]
    return MonomialIdeal(R, tuple(gens))


class TestBettiOracle:
    @pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=str)
    def test_agrees_with_minimized_taylor(self, field):
        R = Ring(("x1", "x2", "x3", "x4"), field)
        rng = random.Random(6)
        for _ in range(12):
            I = random_monomial_ideal(R, rng, max_gens=6)
            assert betti_numbers(I) == betti_table(minimal_resolution(I))

    def test_rp2_depends_on_characteristic(self):
        char0 = {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}
        for field in (QQ, PrimeField(3)):
            assert betti_numbers(_rp2_ideal(field)).entries == char0
        char2 = dict(char0)
        char2.update({(3, 6): 1, (4, 6): 1})
        I = _rp2_ideal(PrimeField(2))
        assert betti_numbers(I).entries == char2
        assert betti_table(minimal_resolution(I)).entries == char2

    def test_rejects_zero_and_unit(self, R4):
        with pytest.raises(DomainError):
            betti_numbers(MonomialIdeal(R4, ()))
        with pytest.raises(DomainError):
            betti_numbers(ideal(R4, "1"))

    def test_rejects_ideal_over_a_quotient_ring(self, R4):
        I = ideal(R4.quotient([R4.parse_monomial("x4^3")]), "x1", "x2")
        with pytest.raises(DomainError, match="ambient polynomial ring"):
            betti_numbers(I)

    def test_ranks_at_most_lattice_times_faces(self, R4, monkeypatch):
        # 20 generators: the 2^20 generator subsets are never visited, only
        # the faces of K^b over the 4 variables for each b in L_I
        I = ideal_product(
            ideal(R4, "x1^4", "x1^3*x2", "x1^2*x2^2", "x1*x2^3", "x2^4"),
            ideal(R4, "x3^3", "x3^2*x4", "x3*x4^2", "x4^3"),
        )
        assert len(I.gens) == 20
        rows_in = {"rank": [], "xor_rank": []}

        def counting(name, f):
            def counted(rows, *args):
                rows_in[name].append(len(rows))
                return f(rows, *args)
            return counted

        for name in rows_in:
            f = counting(name, getattr(linalg, name))
            monkeypatch.setattr(linalg, name, f)
        table = betti_numbers(I)
        assert table.totals() == (1, 20, 31, 12)
        # over QQ every K^b here has GF(2) homology in one degree at most,
        # so the XOR ranks decide it: 31 rows in 10 calls, none exact
        assert rows_in["rank"] == []
        assert (len(rows_in["xor_rank"]), sum(rows_in["xor_rank"])) == (10, 31)
        assert sum(rows_in["xor_rank"]) <= len(lcm_lattice(I)) * 2 ** R4.nvars

    def test_vertices_onto_the_empty_face_rank_without_elimination(
        self, R4, monkeypatch
    ):
        # every K^b of these ideals is at most two vertices and the empty
        # face, and the boundary onto the empty face has rank 1
        calls = []
        for name in ("rank", "xor_rank"):
            monkeypatch.setattr(linalg, name, lambda *args: calls.append(args))
        assert betti_numbers(ideal(R4, "x1", "x2")).totals() == (1, 2, 1)
        assert betti_numbers(ideal(R4, "x1^2", "x2")).totals() == (1, 2, 1)
        assert betti_numbers(ideal(R4, "x1*x2")).totals() == (1, 1)
        assert calls == []

    def test_oracle_paths_build_no_taylor_complex(self, R4, monkeypatch):
        I = ideal(R4, "x1^2", "x1*x2", "x2^2")
        J = ideal(R4, "x3", "x4^2")
        S = star_product(minimal_resolution(I), minimal_resolution(J))

        def refuse(*args, **kwargs):
            raise AssertionError("taylor_complex called on an oracle path")

        original = resolutions.taylor_complex
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "transverse":
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, refuse)
        IJ = ideal_product(I, J)
        assert verify_resolution(S, IJ).ok
        assert koszul_homology(IJ).dims() == {1: 6, 2: 7, 3: 2}
        assert kunneth_map(I, J).ok
        avramov = ideal(R4, "x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2")
        assert projective_dimension(avramov) == 4


class TestLift:
    def test_lift_to_self_satisfies_chain_identity(self, R4):
        K = koszul(R4, 0, 1)
        phis = chain_map(K, K, lift_comparison_map(K, K))
        for i in range(1, K.length + 1):
            assert compose(poly_diff(K, i), phis[i]) == compose(phis[i - 1], poly_diff(K, i))

    def test_lift_principal_into_star_resolution(self, R4, flagship):
        IJ = ideal_product(*flagship)
        target = minimize_checked(taylor_complex(IJ))
        src = koszul_complex([R4.parse_monomial("x1*x3")], R4)
        phis = chain_map(src, target, lift_comparison_map(src, target))
        # phi_1(e) has degree-0 coefficients and d(phi_1(e)) = x1*x3
        img = compose(poly_diff(target, 1), phis[1])
        assert str(img.entries[0, 0]) == "x1*x3"
        for p in phis[1].entries.values():
            assert set(p.term_dict()) == {R4.one_monomial()}

    def test_lift_ci_into_avramov_resolution(self, R4):
        M = ideal(R4, "x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2")
        target = minimize_checked(taylor_complex(M))
        src = koszul_complex([R4.parse_monomial(m) for m in ("x1^2", "x4^2")], R4)
        phis = chain_map(src, target, lift_comparison_map(src, target))
        for i in range(1, src.length + 1):
            assert compose(poly_diff(target, i), phis[i]) == compose(phis[i - 1], poly_diff(src, i))

    def test_lift_fails_into_non_resolution(self, R4):
        # target with H_1 != 0: Koszul complex of (x1, x2) truncated badly
        from transverse.complexes import GradedFreeComplex

        # d_1 = x1*x2
        target = GradedFreeComplex(
            R4, [[(0, 0, 0, 0)], [(1, 1, 0, 0)]], [{0: [(0, 1)]}]
        )
        src = koszul(R4, 0, 1)
        with pytest.raises(ExactnessError):
            lift_comparison_map(src, target)


def test_untwisted_koszul_is_the_koszul_complex(R4):
    from transverse.complexes import complex_to_json
    from transverse.resolutions import koszul_on_variables, twisted_koszul

    C, levels = twisted_koszul(
        R4, [((), 0, (0,) * R4.nvars)], R4.nvars, lambda w: [], lambda w: ""
    )
    assert complex_to_json(C) == complex_to_json(koszul_on_variables(R4))
    assert [len(lvl) for lvl in levels] == [1, 4, 6, 4, 1]
