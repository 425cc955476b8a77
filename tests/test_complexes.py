import random

import pytest

from transverse.complexes import (
    GradedFreeComplex,
    betti_table,
    is_minimal,
    star_product,
    strand_homology,
    strand_homology_dim,
    strand_homology_dims,
    stupid_truncation,
    tensor_complexes,
    validate_complex,
    verify_resolution,
)
from transverse.errors import CertificationError, DomainError
from transverse.ideals import MonomialIdeal, ideal_product
from transverse.poly import Monomial, PolyMatrix, Ring
from transverse.resolutions import koszul_complex, minimize_complex, taylor_complex

from conftest import ideal


def _vars(ring, *idx):
    return [ring.variable(i) for i in idx]


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
        K = koszul_complex(_vars(R4, 0, 1))
        assert validate_complex(K).ok

    def test_square_nonzero_detected(self, Rxy):
        x = Rxy.variable(0)
        C = GradedFreeComplex(
            Rxy,
            [(0,), (1,), (2,)],
            [
                PolyMatrix(Rxy, 1, 1, {(0, 0): x}),
                PolyMatrix(Rxy, 1, 1, {(0, 0): x}),
            ],
        )
        rep = validate_complex(C)
        assert not rep.ok
        assert "d_1 o d_2" in rep.problems[0]

    def test_inhomogeneous_detected(self, Rxy):
        x = Rxy.variable(0)
        C = GradedFreeComplex(
            Rxy, [(0,), (2,)], [PolyMatrix(Rxy, 1, 1, {(0, 0): x})]
        )
        assert not validate_complex(C).ok

    def test_star_of_valid_resolutions_valid(self, R4):
        F = koszul_complex(_vars(R4, 0, 1))
        G = koszul_complex(_vars(R4, 2, 3))
        assert validate_complex(star_product(F, G)).ok


class TestTensor:
    def test_two_lines(self, Rxy):
        F = koszul_complex([Rxy.variable(0)])
        G = koszul_complex([Rxy.variable(1)])
        T = tensor_complexes(F, G)
        assert T.total_ranks() == (1, 2, 1)
        assert validate_complex(T).ok
        entries = {k: str(v) for k, v in T.diff(2).entries.items()}
        assert sorted(entries.values()) == ["-x2", "x1"] or sorted(
            entries.values()
        ) == ["-y", "x"]

    def test_unit_factor(self, R4):
        F = koszul_complex(_vars(R4, 0, 1))
        unit = GradedFreeComplex(R4, [(0,)], [])
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
        K = koszul_complex(_vars(R4, 0, 1))
        assert stupid_truncation(K, 0) is K

    def test_koszul_above_one(self, Rxy):
        K = koszul_complex(_vars(Rxy, 0, 1))
        T = stupid_truncation(K, 1)
        assert T.total_ranks() == (0, 2, 1)
        assert T.diff(1).is_zero
        assert T.diff(2).entries == K.diff(2).entries

    def test_beyond_length_is_zero(self, Rxy):
        K = koszul_complex(_vars(Rxy, 0, 1))
        Z = stupid_truncation(K, K.length + 1)
        assert Z.total_ranks() == (0,)


class TestStarProduct:
    def test_principal_pair(self, Rxy):
        F = koszul_complex([Rxy.variable(0)])
        G = koszul_complex([Rxy.variable(1)])
        S = star_product(F, G)
        assert S.total_ranks() == (1, 1)
        assert str(S.diff(1).entry(0, 0)) == "x*y"

    def test_flagship_ranks_and_degrees(self, R4):
        F = koszul_complex(_vars(R4, 0, 1))
        G = koszul_complex(_vars(R4, 2, 3))
        S = star_product(F, G)
        assert S.total_ranks() == (1, 4, 4, 1)
        assert S.degrees == ((0,), (2, 2, 2, 2), (3, 3, 3, 3), (4,))
        # oracle cross-check: minimized Taylor complex of the product ideal
        IJ = ideal_product(ideal(R4, "x1", "x2"), ideal(R4, "x3", "x4"))
        M = minimize_complex(taylor_complex(IJ))
        assert M.total_ranks() == S.total_ranks()

    def test_three_fold_principal(self, R4):
        Fs = [koszul_complex([R4.variable(i)]) for i in range(3)]
        S = star_product(star_product(Fs[0], Fs[1]), Fs[2])
        assert S.total_ranks() == (1, 1)
        assert str(S.diff(1).entry(0, 0)) == "x1*x2*x3"

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
        F = koszul_complex(_vars(R4, 0, 1))
        G = taylor_complex(ideal(R4, "x3*x4", "x3^2"))
        S1 = star_product(F, G)
        S2 = star_product(G, F)
        assert sorted(map(sorted, S1.degrees)) == sorted(map(sorted, S2.degrees))

    def test_needs_rank_one_base(self, R4):
        F = koszul_complex(_vars(R4, 0, 1))
        T = stupid_truncation(F, 1)
        with pytest.raises(DomainError):
            star_product(T, F)


class TestIsMinimal:
    def test_koszul_minimal(self, R4):
        assert is_minimal(koszul_complex(_vars(R4, 0, 1)))

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
        F = koszul_complex(_vars(R4, 0, 1))
        G = koszul_complex(_vars(R4, 2, 3))
        assert is_minimal(star_product(F, G))


class TestStrandHomology:
    def test_line_mod_x(self, Rxy):
        K = koszul_complex(_vars(Rxy, 0, 1))
        I = ideal(Rxy, "x")
        sh = strand_homology(K, I, 1, 1)
        assert sh.dim == 1
        assert sh.representatives == [{0: Rxy.field.one}]

    def test_xy_strand(self, Rxy):
        K = koszul_complex(_vars(Rxy, 0, 1))
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
        K = koszul_complex(_vars(Rxy, 0, 1))
        assert strand_homology_dim(K, None, 3, 5) == 0

    def test_agrees_with_betti(self, R4):
        # for a minimal complex, strand homology of C (x) k gives the ranks
        IJ = ideal_product(ideal(R4, "x1", "x2"), ideal(R4, "x3", "x4"))
        M = minimize_complex(taylor_complex(IJ))
        table = betti_table(M)
        full = MonomialIdeal(R4, tuple(R4.parse_monomial(v) for v in R4.names))
        for (i, t), want in table.entries.items():
            assert strand_homology_dim(M, full, t, i) == want


class TestVerifyResolution:
    def test_koszul_resolves_linear(self, R4):
        K = koszul_complex(_vars(R4, 0, 1))
        I = ideal(R4, "x1", "x2")
        assert verify_resolution(K, I).ok

    def test_flagship_star(self, R4, flagship):
        I, J = flagship
        S = star_product(
            koszul_complex(_vars(R4, 0, 1)), koszul_complex(_vars(R4, 2, 3))
        )
        cert = verify_resolution(S, ideal_product(I, J))
        assert cert.ok

    def test_star_fails_when_higher_tor_nonzero(self, R4):
        # I = J = (x1,x2): Tor_2(R/I, R/J) != 0, so the star product of the
        # Koszul resolutions is not a resolution; the certificate pinpoints
        # the failure at H_1 (strand t = 2).
        F = koszul_complex(_vars(R4, 0, 1))
        S = star_product(F, F)
        I = ideal(R4, "x1", "x2")
        cert = verify_resolution(S, ideal_product(I, I))
        assert not cert.ok
        assert cert.strand_failures[0][0] == 1
        assert cert.strand_failures[0][1] == 2

    def test_non_transverse_pair_with_vanishing_higher_tor_passes(self, R4):
        # (x1,x2) and (x2,x3) are NOT transverse, yet Tor_i vanishes for
        # i >= 2, and H_i(F*G) = Tor_{i+1}(R/I,R/J): the star product is a
        # resolution of R/IJ regardless.  See the decisions ledger.
        I = ideal(R4, "x1", "x2")
        J = ideal(R4, "x2", "x3")
        S = star_product(
            koszul_complex(_vars(R4, 0, 1)), koszul_complex(_vars(R4, 1, 2))
        )
        cert = verify_resolution(S, ideal_product(I, J))
        assert cert.ok


class TestBettiTable:
    def test_koszul(self, R4):
        K = koszul_complex(_vars(R4, 0, 1))
        t = betti_table(K)
        assert t.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}

    def test_flagship_totals(self, R4, flagship):
        IJ = ideal_product(*flagship)
        M = minimize_complex(taylor_complex(IJ))
        assert betti_table(M).totals() == (1, 4, 4, 1)

    def test_length_zero(self, R4):
        C = GradedFreeComplex(R4, [(0,)], [])
        assert betti_table(C).entries == {(0, 0): 1}

    def test_requires_minimal(self, R4):
        T = taylor_complex(ideal(R4, "x1*x2", "x2*x3", "x1*x3"))
        with pytest.raises(DomainError):
            betti_table(T)

    def test_staircase_render(self, R4, flagship):
        IJ = ideal_product(*flagship)
        M = minimize_complex(taylor_complex(IJ))
        text = betti_table(M).staircase()
        assert "total:" in text
        lines = text.splitlines()
        assert lines[1].split()[1:] == ["1", "4", "4", "1"]


def test_validate_all_constructors(R4, flagship):
    from transverse.golod import golod_resolution
    from transverse.obstructions import tate_resolution

    I, J = flagship
    IJ = ideal_product(I, J)
    F = koszul_complex(_vars(R4, 0, 1))
    G = koszul_complex(_vars(R4, 2, 3))
    for C in (
        F,
        taylor_complex(IJ),
        minimize_complex(taylor_complex(IJ)),
        tensor_complexes(F, G),
        stupid_truncation(F, 1),
        star_product(F, G),
        golod_resolution(I, J, 3),
        tate_resolution([R4.parse_monomial("x1*x3")], R4, 4).complex,
    ):
        assert validate_complex(C).ok


def test_complex_json_schema(R4):
    from transverse.complexes import complex_to_json

    K = koszul_complex(_vars(R4, 0, 1))
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
    """strand_homology_dims (one rank per differential per strand) against
    the representative path, on complexes with homology."""

    @staticmethod
    def assert_dims_agree(C, Q, tmax=6):
        nonzero = 0
        for t in range(0, tmax + 1):
            dims = strand_homology_dims(C, Q, t, 0, C.length)
            for i in range(0, C.length + 1):
                assert dims[i] == strand_homology(C, Q, t, i).dim, (i, t)
                nonzero += i >= 1 and dims[i] > 0
        assert nonzero  # the complex is not exact, so the check has teeth

    def test_koszul_over_quotient_ring(self):
        base = Ring(("x1", "x2", "x3"))
        mod = tuple(base.parse_monomial(m) for m in ("x1^2", "x1*x2", "x3^3"))
        quotient = Ring(base.names, modulus=mod)
        self.assert_dims_agree(koszul_complex(quotient.variables()), None)

    def test_koszul_with_extra_generators(self, R4):
        K = koszul_complex(_vars(R4, 0, 1, 2, 3))
        self.assert_dims_agree(K, ideal(R4, "x1*x2", "x2*x3^2", "x4^2"))

    def test_star_with_a_column_of_d2_zeroed(self, R4):
        F = minimize_complex(taylor_complex(ideal(R4, "x1^2", "x1*x2", "x2^2")))
        d2 = F.diff(2)
        broken = PolyMatrix(
            R4, d2.nrows, d2.ncols,
            {(r, c): p for (r, c), p in d2.entries.items() if c != 0},
        )
        F = GradedFreeComplex(R4, F.degrees, [F.diff(1), broken], F.labels)
        S = star_product(F, koszul_complex(_vars(R4, 2, 3)))
        self.assert_dims_agree(S, None)

    def test_golod_certificate_catches_a_missing_symbol(self, R4, flagship):
        from dataclasses import replace

        from transverse.golod import golod_basis, golod_resolution

        I, J = flagship
        basis = golod_basis(I, J)
        # without v_(0,0) nothing kills the class it stands for in H_1
        crippled = replace(basis, pairs=basis.pairs[1:], h=basis.h[1:])
        with pytest.raises(CertificationError, match=r"\[\(1, 2, 1\), \(3, 4, 3\)\]"):
            golod_resolution(I, J, 4, basis=crippled)

    def test_inhomogeneous_entry_fails_loudly(self, Rxy):
        x, y = Rxy.variables()
        C = GradedFreeComplex(
            Rxy, [(0,), (1,)], [PolyMatrix(Rxy, 1, 1, {(0, 0): x + y * y})]
        )
        with pytest.raises(DomainError, match="not homogeneous"):
            strand_homology_dim(C, None, 1, 1)
