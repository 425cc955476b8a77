import json
import random
import re

import pytest

from transverse.complexes import (
    BettiTable,
    GradedFreeComplex,
    Homology,
    betti_table,
    is_minimal,
    resolves_k_failures,
    star_product,
    strand_homology,
    strand_homology_dim,
    stupid_truncation,
    tensor_complexes,
    validate_complex,
    verify_resolution,
)
from transverse.errors import CertificationError, DimensionError, DomainError
from transverse.exterior import Element
from transverse.fields import QQ, PrimeField
from transverse.ideals import MonomialIdeal, ideal_product
from transverse.obstructions import tate_resolution
from transverse.poly import Monomial, Polynomial, Ring
from transverse.resolutions import koszul_complex, taylor_complex

from conftest import ideal, koszul, minimize_checked


def random_monomial_ideal(ring, rng, max_gens=3, max_exp=2):
    gens = [
        Monomial(tuple(rng.randint(0, max_exp) for _ in range(ring.nvars)))
        for _ in range(rng.randint(1, max_gens))
    ]
    gens = [g for g in gens if not g.is_one and g.degree > 0]
    if not gens:
        gens = [Monomial(tuple([1] + [0] * (ring.nvars - 1)))]
    return MonomialIdeal(ring, tuple(gens))


class TestValidate:
    def test_koszul_valid(self, R4):
        K = koszul(R4, 0, 1)
        assert validate_complex(K).ok

    def test_square_nonzero_detected(self, Rxy):
        # d_1 = d_2 = x
        C = GradedFreeComplex(
            Rxy, [[(0, 0)], [(1, 0)], [(2, 0)]], [{0: [(0, 1)]}, {0: [(0, 1)]}]
        )
        rep = validate_complex(C)
        assert not rep.ok
        assert rep.problems == ["d_1 o d_2 != 0, first nonzero entry at (0,0): x^2"]

    def test_constructor_checks_the_tables(self, Rxy):
        with pytest.raises(DimensionError, match="one differential per"):
            GradedFreeComplex(Rxy, [[(0, 0)], [(1, 0)]], [])
        with pytest.raises(DimensionError, match="column 1 out of range"):
            GradedFreeComplex(Rxy, [[(0, 0)], [(1, 0)]], [{1: [(0, 1)]}])
        with pytest.raises(DimensionError, match="row 1 out of range"):
            GradedFreeComplex(Rxy, [[(0, 0)], [(1, 0)]], [{0: [(1, 1)]}])
        with pytest.raises(DimensionError, match="not over 2 variables"):
            GradedFreeComplex(Rxy, [[(0, 0)], [(1,)]], [{}])
        # x^(m_c - m_r) = y/x is no monomial
        with pytest.raises(DomainError, match=r"d_1\[0,0\] has a negative exponent"):
            GradedFreeComplex(Rxy, [[(1, 0)], [(0, 1)]], [{0: [(0, 1)]}])
        C = GradedFreeComplex(Rxy, [[(1, 0)], [(2, 1)]], [{0: [(0, 5)]}])
        assert C.degrees == ((1,), (3,))
        assert [str(p) for p in C.diff(1).entries.values()] == ["5*x*y"]

    def test_star_of_valid_resolutions_valid(self, R4):
        F = koszul(R4, 0, 1)
        G = koszul(R4, 2, 3)
        assert validate_complex(star_product(F, G)).ok


class TestTensor:
    def test_two_lines(self, Rxy):
        F = koszul(Rxy, 0)
        G = koszul(Rxy, 1)
        T = tensor_complexes(F, G)
        assert T.total_ranks() == (1, 2, 1)
        assert validate_complex(T).ok
        entries = {k: str(v) for k, v in T.diff(2).entries.items()}
        assert sorted(entries.values()) == ["-x2", "x1"] or sorted(
            entries.values()
        ) == ["-y", "x"]

    def test_unit_factor(self, R4):
        F = koszul(R4, 0, 1)
        unit = GradedFreeComplex(R4, [[(0, 0, 0, 0)]], [])
        T = tensor_complexes(F, unit)
        assert T.total_ranks() == F.total_ranks()
        for i in range(1, 3):
            assert T.diff(i).entries == F.diff(i).entries

    def test_random_tensors_valid(self, R4):
        rng = random.Random(42)
        for _ in range(20):
            I = random_monomial_ideal(R4, rng)
            J = random_monomial_ideal(R4, rng)
            if I.is_unit or J.is_unit:
                continue
            T = tensor_complexes(taylor_complex(I), taylor_complex(J))
            assert validate_complex(T).ok


class TestTruncation:
    def test_at_zero_is_identity(self, R4):
        K = koszul(R4, 0, 1)
        assert stupid_truncation(K, 0) is K

    def test_koszul_above_one(self, Rxy):
        K = koszul(Rxy, 0, 1)
        T = stupid_truncation(K, 1)
        assert T.total_ranks() == (0, 2, 1)
        assert not T.diff(1).entries
        assert T.diff(2).entries == K.diff(2).entries

    def test_beyond_length_is_zero(self, Rxy):
        K = koszul(Rxy, 0, 1)
        Z = stupid_truncation(K, K.length + 1)
        assert Z.total_ranks() == (0,)


class TestStarProduct:
    def test_principal_pair(self, Rxy):
        F = koszul(Rxy, 0)
        G = koszul(Rxy, 1)
        S = star_product(F, G)
        assert S.total_ranks() == (1, 1)
        assert str(S.diff(1).entries[0, 0]) == "x*y"

    def test_flagship_ranks_and_degrees(self, R4):
        F = koszul(R4, 0, 1)
        G = koszul(R4, 2, 3)
        S = star_product(F, G)
        assert S.total_ranks() == (1, 4, 4, 1)
        assert S.degrees == ((0,), (2, 2, 2, 2), (3, 3, 3, 3), (4,))
        # oracle cross-check: minimized Taylor complex of the product ideal
        IJ = ideal_product(ideal(R4, "x1", "x2"), ideal(R4, "x3", "x4"))
        M = minimize_checked(taylor_complex(IJ))
        assert M.total_ranks() == S.total_ranks()

    def test_three_fold_principal(self, R4):
        Fs = [koszul(R4, i) for i in range(3)]
        S = star_product(star_product(Fs[0], Fs[1]), Fs[2])
        assert S.total_ranks() == (1, 1)
        assert str(S.diff(1).entries[0, 0]) == "x1*x2*x3"

    def test_rank_formula_random(self, R4):
        rng = random.Random(11)
        for _ in range(10):
            I = random_monomial_ideal(R4, rng)
            J = random_monomial_ideal(R4, rng)
            if I.is_unit or J.is_unit:
                continue
            F, G = taylor_complex(I), taylor_complex(J)
            S = star_product(F, G)
            for n in range(1, S.length + 1):
                want = sum(
                    F.rank(i) * G.rank(n + 1 - i) for i in range(1, n + 1)
                )
                assert S.rank(n) == want
            assert validate_complex(S).ok

    def test_betti_symmetry(self, R4):
        F = koszul(R4, 0, 1)
        G = taylor_complex(ideal(R4, "x3*x4", "x3^2"))
        S1 = star_product(F, G)
        S2 = star_product(G, F)
        assert sorted(map(sorted, S1.degrees)) == sorted(map(sorted, S2.degrees))

    def test_needs_rank_one_base(self, R4):
        F = koszul(R4, 0, 1)
        T = stupid_truncation(F, 1)
        with pytest.raises(DomainError):
            star_product(T, F)


class TestIsMinimal:
    def test_koszul_minimal(self, R4):
        assert is_minimal(koszul(R4, 0, 1))

    def test_taylor_unit_entry(self, Rxy):
        # the Taylor complex on the redundant sequence (x, xy) has the unit
        # entry lcm/lcm = 1 in its differential
        I = ideal(Rxy, "x")
        T = taylor_complex(I, gens=[Rxy.parse_monomial("x"), Rxy.parse_monomial("x*y")])
        assert not is_minimal(T)

    def test_taylor_triangle_not_minimal(self, R4):
        # minimal generators can still give a non-minimal Taylor complex
        T = taylor_complex(ideal(R4, "x1*x2", "x2*x3", "x1*x3"))
        assert not is_minimal(T)

    def test_star_of_minimal_is_minimal(self, R4):
        F = koszul(R4, 0, 1)
        G = koszul(R4, 2, 3)
        assert is_minimal(star_product(F, G))


class TestStrandHomology:
    def test_line_mod_x(self, Rxy):
        K = koszul(Rxy, 0, 1)
        I = ideal(Rxy, "x")
        sh = strand_homology(K, I, 1, 1)
        assert sh.dim == 1
        assert sh.representatives == [{0: Rxy.field.one}]

    def test_xy_strand(self, Rxy):
        K = koszul(Rxy, 0, 1)
        I = ideal(Rxy, "x*y")
        sh = strand_homology(K, I, 2, 1)
        assert sh.dim == 1
        # canonical representative is x*e2 (echelon picks the later block)
        rep = sh.representatives[0]
        basis = sh.basis
        nonzero = {basis[k] for k in rep}
        assert nonzero == {(1, Rxy.parse_monomial("x"))} or nonzero == {
            (0, Rxy.parse_monomial("y"))
        }

    def test_beyond_length_vanishes(self, Rxy):
        K = koszul(Rxy, 0, 1)
        assert strand_homology_dim(K, None, 3, 5) == 0

    def test_agrees_with_betti(self, R4):
        # for a minimal complex, strand homology of C (x) k gives the ranks
        IJ = ideal_product(ideal(R4, "x1", "x2"), ideal(R4, "x3", "x4"))
        M = minimize_checked(taylor_complex(IJ))
        table = betti_table(M)
        full = MonomialIdeal(R4, tuple(R4.parse_monomial(v) for v in R4.names))
        for (i, t), want in table.entries.items():
            assert strand_homology_dim(M, full, t, i) == want


class TestVerifyResolution:
    def test_koszul_resolves_linear(self, R4):
        K = koszul(R4, 0, 1)
        I = ideal(R4, "x1", "x2")
        assert verify_resolution(K, I).ok

    def test_flagship_star(self, R4, flagship):
        I, J = flagship
        S = star_product(
            koszul(R4, 0, 1), koszul(R4, 2, 3)
        )
        cert = verify_resolution(S, ideal_product(I, J))
        assert cert.ok

    def test_star_fails_when_higher_tor_nonzero(self, R4):
        # I = J = (x1,x2): Tor_2(R/I, R/J) != 0, so the star product of the
        # Koszul resolutions is not a resolution; the certificate pinpoints
        # the failure at H_1 on the one cell b = (1, 1, *, *), of total
        # degree 2, where Tor_2 = e_12 (x) R/I lives.
        F = koszul(R4, 0, 1)
        S = star_product(F, F)
        I = ideal(R4, "x1", "x2")
        cert = verify_resolution(S, ideal_product(I, I))
        assert not cert.ok
        assert cert.strand_failures == [(1, (1, 1, 0, 0), 1)]
        assert sum(cert.strand_failures[0][1]) == 2

    def test_non_transverse_pair_with_vanishing_higher_tor_passes(self, R4):
        # (x1,x2) and (x2,x3) are NOT transverse, yet Tor_i vanishes for
        # i >= 2, and H_i(F*G) = Tor_{i+1}(R/I,R/J): the star product is a
        # resolution of R/IJ regardless.  The derivation is in the docstring
        # of test_criterion_2_non_transversality_control_as_stated in
        # tests/test_acceptance.py.
        I = ideal(R4, "x1", "x2")
        J = ideal(R4, "x2", "x3")
        S = star_product(
            koszul(R4, 0, 1), koszul(R4, 1, 2)
        )
        cert = verify_resolution(S, ideal_product(I, J))
        assert cert.ok

    def test_non_complex_fails(self):
        # over Q[x], d_1 = (x 0) and d_2 = (1 1)^T give d_1 d_2 = x != 0;
        # every strand clause would pass, so only the d o d = 0 clause can
        # catch it; ranks of a non-complex give no homology, so no other
        # clause is run and the summary reports the validation alone
        R = Ring(("x",))
        C = GradedFreeComplex(
            R, [[(0,)], [(1,), (1,)], [(1,)]],
            [{0: [(0, 1)]}, {0: [(0, 1), (1, 1)]}],
        )
        cert = verify_resolution(C, ideal(R, "x"))
        assert cert.strand_failures == cert.coker_failures == []
        assert not cert.betti_ok and cert.betti_got == BettiTable({})
        assert not cert.validation.ok and not cert.ok
        assert cert.summary() == (
            "d o d = 0 and homogeneous: FAIL: ['d_1 o d_2 != 0, first nonzero "
            "entry at (0,0): x']"
        )


def drop_generator(C, i, g):
    """C without generator g of C_i: its column of d_i and its row of
    d_{i+1} go."""
    labels, mdegs = ([list(x) for x in y] for y in (C.labels, C.mdegs))
    del labels[i][g], mdegs[i][g]
    tables = []
    for j in range(1, C.length + 1):
        table = {}
        for c, col in C.table(j).items():
            if j == i and c == g:
                continue
            col = [(r - (j == i + 1 and r > g), s)
                   for r, s in col if not (j == i + 1 and r == g)]
            if col:
                table[c - (j == i and c > g)] = col
        tables.append(table)
    return GradedFreeComplex(C.ring, mdegs, tables, labels)


class TestCellCertificates:
    """Exactness in every multidegree, from one point per cell."""

    def test_star_with_a_top_generator_dropped(self):
        from transverse.resolutions import minimal_resolution

        R = Ring(("x1", "x2", "x3", "x4", "x5"))
        I = ideal(R, "x1^2", "x1*x2", "x2*x3")
        J = ideal(R, "x4^2", "x4*x5")
        S = star_product(minimal_resolution(I), minimal_resolution(J))
        assert S.total_ranks() == (1, 6, 7, 2)
        assert verify_resolution(S, ideal_product(I, J)).ok
        top = S.length
        lost = S.mdegs[top][-1]
        cert = verify_resolution(
            drop_generator(S, top, S.rank(top) - 1), ideal_product(I, J)
        )
        # still a complex with the right cokernel: only the exactness
        # clause and the Betti cross-check see the lost syzygy, at the
        # multidegree of the dropped generator and the cell above it
        assert cert.validation.ok and cert.coker_ok and not cert.betti_ok
        assert lost == (1, 1, 1, 2, 1)
        assert cert.strand_failures == [(2, lost, 1), (2, (2, 1, 1, 2, 1), 1)]

    def test_tate_with_a_generator_of_c5_dropped(self, R4):
        a = [R4.parse_monomial("x1^2"), R4.parse_monomial("x3*x4")]
        T = tate_resolution(a, R4, 5)
        mdegs = T.complex.mdegs
        assert T.complex.total_ranks() == (1, 4, 8, 12, 16, 20)
        for g in range(T.complex.rank(5)):
            C = drop_generator(T.complex, 5, g)
            rep, _, strand_failures, coker_failures = resolves_k_failures(C, 4)
            # a complex, but H_4 no longer dies, first at the multidegree
            # of the dropped generator
            assert rep.ok and not coker_failures
            assert strand_failures and {f[0] for f in strand_failures} == {4}
            assert strand_failures[0][1] == mdegs[5][g], g

    def test_non_complex_reports_the_validation_alone(self, R4):
        # a generator of C_5 dropped with d_6 kept leaves d_5 o d_6 != 0;
        # there dim H_i = |B_i| - r_i - r_{i+1} reads negative
        # "dimensions" off the ranks, so no cell is swept
        a = [R4.parse_monomial("x1^2"), R4.parse_monomial("x3*x4")]
        T = tate_resolution(a, R4, 6)
        broken = [drop_generator(T.complex, 5, g) for g in range(T.complex.rank(5))]
        broken = [C for C in broken if not validate_complex(C).ok]
        assert broken
        assert any(
            d < 0 for C in broken for _, _, d in Homology(C).cell_failures(0, 5)
        )
        for C in broken:
            rep, _, strand_failures, coker_failures = resolves_k_failures(C, 5)
            assert not rep.ok and "d_5 o d_6 != 0" in rep.problems[0]
            assert strand_failures == coker_failures == []
        # the same for verify_resolution, on a star product with a generator
        # of C_2 dropped and d_3 kept
        from transverse.resolutions import minimal_resolution

        R = Ring(("x1", "x2", "x3", "x4", "x5"))
        I = ideal(R, "x1^2", "x1*x2", "x2*x3")
        J = ideal(R, "x4^2", "x4*x5")
        S = star_product(minimal_resolution(I), minimal_resolution(J))
        broken = [drop_generator(S, 2, g) for g in range(S.rank(2))]
        broken = [C for C in broken if not validate_complex(C).ok]
        assert broken
        for C in broken:
            cert = verify_resolution(C, ideal_product(I, J))
            assert not cert.ok and cert.summary().startswith(
                "d o d = 0 and homogeneous: FAIL"
            )
            assert cert.strand_failures == cert.coker_failures == []

    def test_origin_is_a_cell_of_its_own(self, Rxy):
        # K(x) over k[x, y] leaves coker d_1 = k[y]; the cell of the origin
        # over R would hold every y^j without the unit points
        K = koszul(Rxy, 0)
        rep, minimal, strand_failures, coker_failures = resolves_k_failures(K, 1)
        assert rep.ok and minimal and strand_failures == []
        assert coker_failures == [((0, 1), 1, 0)]
        K2 = koszul(Rxy)
        assert resolves_k_failures(K2, 2)[2:] == ([], [])

    def test_exactness_in_degrees_no_strand_bound_reached(self):
        # the star product of K(x^50) and K(y^50) has two cells, where
        # strands would need every degree up to 100
        R = Ring(("x", "y"))
        I, J = ideal(R, "x^50"), ideal(R, "y^50")
        S = star_product(koszul_complex(I.gens, R), koszul_complex(J.gens, R))
        assert Homology(S).cells(range(S.length + 1)) == [(0, 0), (50, 50)]
        assert verify_resolution(S, ideal_product(I, J)).ok

    def test_cokernel_is_an_ideal_equality(self, R4):
        K = koszul(R4, 0, 1)
        # the image (x1, x2) of d_1 has x2 outside I = (x1, x2^2): there
        # coker d_1 is 0 and R/I is not
        cert = verify_resolution(K, ideal(R4, "x1", "x2^2"))
        assert cert.exactness_ok and cert.coker_failures == [((0, 1, 0, 0), 0, 1)]
        # I = (x1, x2, x3) has x3 outside the image
        cert = verify_resolution(K, ideal(R4, "x1", "x2", "x3"))
        assert cert.coker_failures == [((0, 0, 1, 0), 1, 0)]
        assert "cokernel of d_1 matches R/I: FAIL" in cert.summary()

    def test_cokernel_needs_c0_to_be_r(self, Rxy):
        C = GradedFreeComplex(Rxy, [[(1, 0)], [(2, 0)]], [{0: [(0, 1)]}])
        cert = verify_resolution(C, ideal(Rxy, "x"))
        assert cert.coker_failures == [((0, 0), (1,), (0,))]


class TestMultidegrees:
    def test_not_multigraded_is_a_domain_error(self, R4):
        x1, x2, x3 = (R4.parse_monomial(x) for x in ("x1", "x2", "x3"))
        with pytest.raises(DomainError, match="not a monomial"):
            koszul_complex([Polynomial(R4, {x1: 1, x2: 1}), x3], R4)
        with pytest.raises(DomainError, match="not a monomial"):
            koszul_complex([R4.one_monomial()], R4)


class TestBettiTable:
    def test_koszul(self, R4):
        K = koszul(R4, 0, 1)
        t = betti_table(K)
        assert t.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}

    def test_flagship_totals(self, R4, flagship):
        IJ = ideal_product(*flagship)
        M = minimize_checked(taylor_complex(IJ))
        assert betti_table(M).totals() == (1, 4, 4, 1)

    def test_length_zero(self, R4):
        C = GradedFreeComplex(R4, [[(0, 0, 0, 0)]], [])
        assert betti_table(C).entries == {(0, 0): 1}

    def test_requires_minimal(self, R4):
        T = taylor_complex(ideal(R4, "x1*x2", "x2*x3", "x1*x3"))
        with pytest.raises(DomainError):
            betti_table(T)

    def test_staircase_render(self, R4, flagship):
        IJ = ideal_product(*flagship)
        M = minimize_checked(taylor_complex(IJ))
        text = betti_table(M).staircase()
        assert "total:" in text
        lines = text.splitlines()
        assert lines[1].split()[1:] == ["1", "4", "4", "1"]


def test_validate_all_constructors(R4, flagship):
    from transverse.golod import golod_resolution
    from transverse.obstructions import tate_resolution

    I, J = flagship
    IJ = ideal_product(I, J)
    F = koszul(R4, 0, 1)
    G = koszul(R4, 2, 3)
    for C in (
        F,
        taylor_complex(IJ),
        minimize_checked(taylor_complex(IJ)),
        tensor_complexes(F, G),
        stupid_truncation(F, 1),
        star_product(F, G),
        golod_resolution(I, J, 3),
        tate_resolution([R4.parse_monomial("x1*x3")], R4, 4).complex,
    ):
        assert validate_complex(C).ok


def test_complex_json_schema(R4):
    from transverse.complexes import complex_to_json

    K = koszul(R4, 0, 1)
    js = complex_to_json(K)
    assert js["ring"]["vars"] == ["x1", "x2", "x3", "x4"]
    assert js["degrees"] == [[0], [1, 1], [2]]
    d2 = js["differentials"][1]
    assert (d2["rows"], d2["cols"]) == (2, 1)
    assert [e[2] for e in d2["entries"]] == ["-x2", "x1"]


def test_strand_dim_paths_agree(R4):
    # the rank-only path and the representative path must agree everywhere
    rng = random.Random(515)
    from transverse.complexes import strand_homology, strand_homology_dim

    for _ in range(6):
        I = random_monomial_ideal(R4, rng)
        if I.is_unit:
            continue
        T = taylor_complex(I)
        for i in range(0, T.length + 1):
            for t in range(0, 6):
                sh = strand_homology(T, I, t, i)
                assert sh.dim == strand_homology_dim(T, I, t, i)
                assert sh.dim == sh.cycle_dim - sh.boundary_dim


class TestStrandEngine:
    """Homology.strand_dims (one rank per differential per strand) against
    the representative path, on complexes with homology."""

    @staticmethod
    def assert_dims_agree(C, Q, tmax=6):
        nonzero = 0
        H = Homology(C, Q)
        for t in range(0, tmax + 1):
            dims = H.strand_dims(t, 0, C.length)
            for i in range(0, C.length + 1):
                assert dims[i] == strand_homology(C, Q, t, i).dim, (i, t)
                nonzero += i >= 1 and dims[i] > 0
        assert nonzero  # the complex is not exact, so the check has teeth

    def test_koszul_over_quotient_ring(self):
        base = Ring(("x1", "x2", "x3"))
        mod = tuple(base.parse_monomial(m) for m in ("x1^2", "x1*x2", "x3^3"))
        quotient = Ring(base.names, modulus=mod)
        self.assert_dims_agree(koszul(quotient), None)

    def test_koszul_with_extra_generators(self, R4):
        K = koszul(R4, 0, 1, 2, 3)
        self.assert_dims_agree(K, ideal(R4, "x1*x2", "x2*x3^2", "x4^2"))

    def test_star_with_a_column_of_d2_zeroed(self, R4):
        F = minimize_checked(taylor_complex(ideal(R4, "x1^2", "x1*x2", "x2^2")))
        broken = {c: col for c, col in F.table(2).items() if c != 0}
        F = GradedFreeComplex(R4, F.mdegs, [F.table(1), broken], F.labels)
        S = star_product(F, koszul(R4, 2, 3))
        self.assert_dims_agree(S, None)

    @staticmethod
    def cripple_golod_basis(monkeypatch, I, J):
        """Make the Golod constructions on (I, J) use a basis without
        v_(0,0): nothing then kills the class it stands for in H_1."""
        from transverse import golod

        b = golod.golod_basis(I, J)
        crippled = golod.GolodBasis(
            b.I, b.J, b.HI, b.HJ, b.IJ, b.pairs[1:], b.h[1:]
        )
        monkeypatch.setattr(golod, "golod_basis", lambda *_: crippled)

    # H_1 on the cell (1, 0, 1, 0) and H_3 on three cells of degree 4 (the
    # strand failures (1, 2, 1) and (3, 4, 3) of whole strands)
    CRIPPLED_FAILURES = [(1, (1, 0, 1, 0), 1), (3, (1, 1, 1, 1), 1),
                         (3, (1, 1, 2, 0), 1), (3, (2, 0, 1, 1), 1)]

    def test_golod_certificate_catches_a_missing_symbol(
        self, R4, flagship, monkeypatch
    ):
        from transverse.golod import golod_resolution

        self.cripple_golod_basis(monkeypatch, *flagship)
        with pytest.raises(CertificationError, match=re.escape(
            f"strands {self.CRIPPLED_FAILURES[:3]}"
        )):
            golod_resolution(*flagship, 4)

    def test_golod_verify_reports_a_missing_symbol(
        self, R4, flagship, monkeypatch, tmp_path, capsys
    ):
        # a resolution that fails its own certificate is a certified
        # failure of the golod verify job: pass false and exit 1
        from transverse.cli import main
        from transverse.golod import verify_golod

        self.cripple_golod_basis(monkeypatch, *flagship)
        cert = verify_golod(*flagship, 4)
        assert not cert.ok and cert.valid and cert.minimal
        assert cert.strand_failures == self.CRIPPLED_FAILURES
        job = tmp_path / "golod.json"
        job.write_text(json.dumps({
            "ring": {"vars": ["x1", "x2", "x3", "x4"]},
            "ideals": {"I": ["x1", "x2"], "J": ["x3", "x4"]},
            "command": "golod",
            "args": {"left": "I", "right": "J", "mode": "verify", "n_max": 4},
            "format": "json",
        }))
        assert main([str(job)]) == 1
        out = capsys.readouterr()
        assert '"pass": false' in out.out and out.err == ""

    def test_term_off_its_multidegree_fails_loudly(self, Rxy):
        # over k[x, y]/(xy) the symbol y kills the cycle x e_2 of multidegree
        # x*y; declared at x*y^2 it cannot map there: the block of the
        # twist value must be mdeg(w) - mdeg(w'), and the builder used to
        # take the monomial of a twist term as given
        from transverse.resolutions import twisted_koszul

        S = Rxy.quotient([Rxy.parse_monomial("x*y")])
        # x e_2 lies in the block x*y
        x_e2 = Element((1, 1), {(1,): 1})

        def build(m):
            return twisted_koszul(
                S, [((), 0, (0, 0)), (("y",), 2, m)], 2,
                lambda w: [(1, x_e2, ())] if w else [], "".join,
            )[0]

        with pytest.raises(DomainError, match="twist of 'y' is off its multidegree"):
            build((1, 2))
        C = build((1, 1))
        assert validate_complex(C).ok
        assert Homology(C).cell_failures(1, 1) == []


class TestHomology:
    def test_stratum_is_cached(self, R4, flagship):
        from transverse.complexes import Homology
        from transverse.ideals import lcm_lattice
        from transverse.resolutions import koszul_on_variables

        K = koszul_on_variables(R4)
        IJ = ideal_product(*flagship)
        lattice = lcm_lattice(IJ)
        H = Homology(K, IJ, K.meta["subsets"])
        blocks = sorted(b for b in lattice if sum(b) == 3)
        assert len(blocks) == 4
        strata = [H.stratum(2, b) for b in blocks]
        assert all(H.stratum(2, b) is sh for b, sh in zip(blocks, strata))
        # only the blocks asked for are kept, each once
        assert set(H.strata) == {(2, b) for b in blocks}
        # the whole strand carries no more homology than its blocks in the
        # lcm lattice, by strata and by ranks alike
        whole = H.stratum(2, 3)
        assert whole.dim == H.dim(2, 3) == sum(sh.dim for sh in strata) > 0

    def test_subclasses_share_the_one_cache(self):
        from transverse.golod import KoszulHomology
        from transverse.obstructions import QuotientTor

        for cls in (KoszulHomology, QuotientTor):
            assert "stratum" not in vars(cls) and "strand_index" not in vars(cls)
        # the tracer wraps KoszulHomology.__init__ on the class itself
        assert "__init__" in vars(KoszulHomology)

    def test_is_boundary_and_express(self, R4, flagship):
        from transverse.golod import koszul_homology

        H = koszul_homology(ideal_product(*flagship))
        for c in H.classes:
            assert c.rep.b == c.b and not H.is_boundary(c.i, c.rep)
            # a representative expresses as its own unit vector
            peers = [d for d in H.classes_at(c.i) if d.b == c.b]
            assert H.express(c.i, c.rep) == [int(d is c) for d in peers]
        assert H.is_boundary(1, Element((1, 0, 1, 0), {}))


class TestOneStrandEngine:
    """Homology is the one door to strands: counts of one small job each."""

    @staticmethod
    def record_matrices(monkeypatch):
        """Wrap the three doors to a scalar matrix; returns the key of every
        matrix assembled and of every one ranked: ("strand", complex, i,
        upper basis, lower basis) for strand_matrix, ("block", complex, i,
        upper generators, lower generators) for Homology._block_rows, and
        ("piece", complex, i, s) for Homology._rows on the strand or block
        s (whose rows then rank under the piece key)."""
        from transverse import complexes, linalg

        keep, key_of, built, ranked = [], {}, [], []
        matrix, rank = complexes.strand_matrix, linalg.rank
        block_rows, piece_rows = Homology._block_rows, Homology._rows

        def record(rows, key):
            keep.append(rows)
            key_of[id(rows)] = key
            built.append(key)
            return rows

        def traced_matrix(C, i, basis_hi, basis_lo):
            key = ("strand", id(C), i, tuple(basis_hi), tuple(basis_lo))
            return record(matrix(C, i, basis_hi, basis_lo), key)

        def traced_block_rows(self, i, upper, lower):
            key = ("block", id(self.complex), i, tuple(upper), tuple(lower))
            return record(block_rows(self, i, upper, lower), key)

        def traced_piece_rows(self, i, s, upper, lower):
            key = ("piece", id(self.complex), i, s)
            return record(piece_rows(self, i, s, upper, lower), key)

        def traced_rank(rows, field):
            if id(rows) in key_of:
                ranked.append(key_of[id(rows)])
            return rank(rows, field)

        monkeypatch.setattr(complexes, "strand_matrix", traced_matrix)
        monkeypatch.setattr(Homology, "_block_rows", traced_block_rows)
        monkeypatch.setattr(Homology, "_rows", traced_piece_rows)
        monkeypatch.setattr(linalg, "rank", traced_rank)
        return built, ranked

    def test_classical_obstruction_assembles_each_strand_matrix_once(
        self, R4, monkeypatch
    ):
        from transverse import linalg, obstructions

        built, ranked = self.record_matrices(monkeypatch)
        spans, xor_ranked = [], []
        check, xor_rank = obstructions.resolves_k_failures, linalg.xor_rank

        def traced_xor_rank(rows):
            xor_ranked.append(1)
            return xor_rank(rows)

        def traced_check(*args, **kwargs):
            start = len(built), len(ranked), len(xor_ranked)
            out = check(*args, **kwargs)
            spans.append((start, (len(built), len(ranked), len(xor_ranked))))
            return out

        monkeypatch.setattr(linalg, "xor_rank", traced_xor_rank)
        monkeypatch.setattr(obstructions, "resolves_k_failures", traced_check)
        M = ideal(R4, "x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2")
        a = [R4.parse_monomial("x1^2"), R4.parse_monomial("x4^2")]
        rep = obstructions.avramov_obstruction(a, M, 6)
        assert rep.nonzero_degrees() == [4]
        # no whole strand: every matrix is read off a scalar table
        assert "strand" not in {key[0] for key in built}
        # the Tate certificate: 357 linalg.xor_rank calls, one per distinct
        # (i, upper, lower), on the odd bits of the tables; the GF(2) bound
        # decides every block, so no block matrix is assembled and no QQ
        # rank taken
        ((b0, r0, x0), (b1, r1, x1)), = spans
        assert built[b0:b1] == [] and ranked[r0:r1] == []
        assert x1 - x0 == len(xor_ranked) == 357
        # Tor over S: the strata and dims of KoszulHomology and QuotientTor
        # take 119 pieces, each a multidegree block assembled and
        # eliminated once: the change-of-rings strata are the blocks of the
        # source classes, and the Tor^S dimensions rank the other supported
        # blocks, reading the ranks those strata stored.  A stratum whose
        # lower basis is empty assembles no d_i, a zero map
        rest = built[:b0] + built[b1:]
        pieces = [key for key in rest if key[0] == "piece"]
        assert len(pieces) == 119 and len(set(pieces)) == 119
        assert all(isinstance(s, tuple) for *_, s in pieces)
        rest_ranked = ranked[:r0] + ranked[r1:]
        assert rest_ranked and set(rest_ranked) < set(pieces)

    def test_probe_assembles_no_strand(self, monkeypatch):
        from transverse import complexes
        from transverse.dg import (
            associativity_probe, koszul_dg_product, star_degree_one_product,
        )

        R = Ring(("x1", "x2", "x3", "x4", "x5"))
        F = koszul(R, 0, 1)
        G = koszul(R, 2, 3, 4)
        sp = star_degree_one_product(
            F, G, koszul_dg_product(F), koszul_dg_product(G)
        )
        built, _ = self.record_matrices(monkeypatch)
        bases = []
        basis = complexes.strand_basis

        def traced_basis(*args, **kwargs):
            bases.append(args)
            return basis(*args, **kwargs)

        monkeypatch.setattr(complexes, "strand_basis", traced_basis)
        rep = associativity_probe(sp.complex, sp)
        assert rep.stages and rep.associative
        # the unknowns are multigraded scalars: no strand basis is
        # enumerated and no strand matrix assembled
        assert built == [] and bases == []

    def test_kunneth_builds_each_strand_index_once(self, R4, monkeypatch):
        from transverse.golod import _kunneth_rows, golod_basis
        from transverse.ideals import lcm_lattice

        from kunneth_reference import reference_homology

        built: dict = {}
        index = Homology.strand_index

        def traced_index(self, i, s):
            out = index(self, i, s)
            built.setdefault((id(self), i, s), []).append(out)
            return out

        monkeypatch.setattr(Homology, "strand_index", traced_index)
        I, J = ideal(R4, "x1^2", "x1*x2"), ideal(R4, "x3*x4", "x4^2")
        basis = golod_basis(I, J)
        HIJ = reference_homology(basis)

        def kunneth_columns():
            # the columns of the earlier Kunneth certificate: the classes of
            # the h in the basis of H(R/IJ)
            return [HIJ.class_coords(basis.vdeg(k) - 1, h)
                    for k, h in enumerate(basis.h)]

        first = kunneth_columns()
        rows = _kunneth_rows(basis)
        # the second passes ask again for every index the first ones built,
        # on the basis of H(R/IJ) and on K (x) R/IJ
        assert None not in first and kunneth_columns() == first
        assert _kunneth_rows(basis) == rows and all(r.bijective for r in rows)
        assert {s[0] for s in built} == {id(HIJ), id(basis.KIJ)}
        assert built and all(len(calls) > 1 for calls in built.values())
        for calls in built.values():
            assert all(c is calls[0] for c in calls)
        # every Kunneth image d(z_a) ^ z_b lies in the block b_a + b_b, a
        # point of the lcm lattice of IJ: only such blocks are indexed
        lattice = lcm_lattice(ideal_product(I, J))
        assert all(isinstance(s, tuple) and s in lattice for _, _, s in built)

    def test_kunneth_job_builds_one_koszul_complex(self, monkeypatch):
        from transverse import resolutions
        from transverse.cli import cmd_dispatch, parse_input

        built = []
        koszul = resolutions.koszul_complex

        def traced(elements, ring):
            built.append(len(elements))
            return koszul(elements, ring)

        monkeypatch.setattr(resolutions, "koszul_complex", traced)
        resolutions.koszul_on_variables.cache_clear()
        doc = {
            "ring": {"vars": ["x1", "x2", "x3", "x4", "x5"]},
            "ideals": {"I": ["x1^2", "x1*x2", "x2*x3"], "J": ["x4^2", "x4*x5"]},
            "command": "kunneth-verify",
            "args": {"left": "I", "right": "J"},
        }
        _, code = cmd_dispatch(parse_input(doc))
        # the Koszul homologies of I, J and IJ share one Koszul complex
        assert code == 0 and built == [5]

    @pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
    @pytest.mark.parametrize("strata_first", [True, False])
    def test_ranks_stored_by_strata_equal_a_rank_pass(self, field, strata_first):
        from transverse.resolutions import koszul_on_variables

        R = Ring(("x1", "x2", "x3", "x4"), field)
        K = koszul_on_variables(R)
        Q = ideal(R, "x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2")
        strands = [(i, t) for i in range(0, K.length + 1) for t in range(0, 7)]
        H = Homology(K, Q)
        if strata_first:
            strata = {key: H.stratum(*key).dim for key in strands}
        dims = {(i, t): H.dim(i, t) for i, t in strands}
        if not strata_first:
            strata = {key: H.stratum(*key).dim for key in strands}
        fresh = Homology(K, Q)
        for t in range(0, 7):
            fresh.strand_dims(t, 0, K.length)
        assert H.ranks == fresh.ranks
        assert dims == strata and any(dims.values())
