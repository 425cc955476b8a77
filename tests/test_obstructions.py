from math import comb

import pytest

from transverse import obstructions
from transverse.errors import DomainError
from transverse.golod import KoszulHomology
from transverse.ideals import ideal_product
from transverse.obstructions import (
    QuotientTor,
    avramov_obstruction,
    change_of_rings_map,
    projective_dimension,
    tate_resolution,
    tor_over_quotient,
    tor_product_subspace,
    verify_injectivity,
)
from conftest import ideal, koszul


def divided_weight_count(c, w):
    return comb(w + c - 1, c - 1) if c > 0 else (1 if w == 0 else 0)


class TestTate:
    def test_square_in_two_vars(self, Rxy):
        T = tate_resolution([Rxy.parse_monomial("x^2")], Rxy, 6)
        assert T.complex.total_ranks() == (1, 2, 2, 2, 2, 2, 2)

    def test_xy_same_counting(self, Rxy):
        T = tate_resolution([Rxy.parse_monomial("x*y")], Rxy, 6)
        assert T.complex.total_ranks() == (1, 2, 2, 2, 2, 2, 2)

    def test_empty_sequence_is_koszul(self, R4):
        T = tate_resolution([], R4, 4)
        assert T.complex.total_ranks() == (1, 4, 6, 4, 1)

    def test_rank_formula(self, R4):
        a = [R4.parse_monomial("x1^2"), R4.parse_monomial("x4^2")]
        T = tate_resolution(a, R4, 6)
        nv, c = 4, 2
        for n in range(7):
            want = sum(
                comb(nv, h) * divided_weight_count(c, (n - h) // 2)
                for h in range(min(nv, n) + 1)
                if (n - h) % 2 == 0
            )
            assert T.complex.rank(n) == want

    def test_rejects_overlapping_supports(self, Rxy):
        with pytest.raises(DomainError):
            tate_resolution(
                [Rxy.parse_monomial("x*y"), Rxy.parse_monomial("y")], Rxy, 3
            )


class TestTorOverQuotient:
    def test_free_module(self, Rxy):
        a = [Rxy.parse_monomial("x*y")]
        A = ideal(Rxy, "x*y")
        dims = tor_over_quotient(a, A, 5)
        assert dims == [1, 0, 0, 0, 0, 0]

    def test_residue_field(self, Rxy):
        a = [Rxy.parse_monomial("x*y")]
        m = ideal(Rxy, "x", "y")
        assert tor_over_quotient(a, m, 5) == [1, 2, 2, 2, 2, 2]

    def test_hypersurface_periodicity(self, Rxy):
        a = [Rxy.parse_monomial("x*y")]
        M = ideal(Rxy, "x")
        assert tor_over_quotient(a, M, 5) == [1, 1, 1, 1, 1, 1]

    def test_sequence_must_lie_in_module(self, Rxy):
        a = [Rxy.parse_monomial("x*y")]
        with pytest.raises(DomainError):
            tor_over_quotient(a, ideal(Rxy, "x^2"), 3)


def homologies(a, M, n_max):
    """Koszul homology over R and Tor over S = R/(a), as the obstruction
    pass builds them."""
    return KoszulHomology(M), QuotientTor(tate_resolution(a, M.ring, n_max), M)


class TestChangeOfRings:
    def test_exterior_part_full_rank(self, Rxy):
        a = [Rxy.parse_monomial("x*y")]
        m = ideal(Rxy, "x", "y")
        phi = change_of_rings_map(*homologies(a, m, 3), 1)
        assert (phi.dim_source, phi.dim_target_blocks, phi.rank) == (2, 2, 2)

    def test_degree_two_injective_not_surjective(self, Rxy):
        a = [Rxy.parse_monomial("x*y")]
        m = ideal(Rxy, "x", "y")
        phi = change_of_rings_map(*homologies(a, m, 4), 2)
        assert (phi.dim_source, phi.rank) == (1, 1)
        assert phi.dim_target_blocks == 2

    def test_degree_zero_identity(self, Rxy):
        a = [Rxy.parse_monomial("x*y")]
        m = ideal(Rxy, "x", "y")
        phi = change_of_rings_map(*homologies(a, m, 2), 0)
        assert phi.rank == 1 and phi.dim_source == 1


class TestProductSubspace:
    def test_trivial_for_transverse_product(self, R4, flagship):
        IJ = ideal_product(*flagship)
        a = [R4.parse_monomial("x1*x3")]
        source, qt = homologies(a, IJ, 4)
        for i in (2, 3):
            ech, cycles = tor_product_subspace(source, qt, i)
            assert ech.rank == 0

    def test_degree_one_sees_the_generator(self, R4, flagship):
        IJ = ideal_product(*flagship)
        a = [R4.parse_monomial("x1*x3")]
        ech, _ = tor_product_subspace(*homologies(a, IJ, 2), 1)
        assert ech.rank == 1

    def test_complete_intersection_fills_everything(self, R4):
        a = [R4.parse_monomial("x1^2"), R4.parse_monomial("x4^2")]
        A = ideal(R4, "x1^2", "x4^2")
        H, qt = homologies(a, A, 3)
        for i in (1, 2):
            ech, _ = tor_product_subspace(H, qt, i)
            assert ech.rank == len(H.classes_at(i))


class TestObstruction:
    def test_module_equals_ci_vanishes(self, R4):
        a = [R4.parse_monomial("x1^2"), R4.parse_monomial("x4^2")]
        rep = avramov_obstruction(a, ideal(R4, "x1^2", "x4^2"), 4)
        assert rep.all_vanish
        assert rep.product_maps_to_zero

    def test_transverse_product_vanishes(self, R4, flagship):
        IJ = ideal_product(*flagship)
        rep = avramov_obstruction([R4.parse_monomial("x1*x3")], IJ, 4)
        assert rep.all_vanish
        assert rep.product_maps_to_zero

    def test_avramov_counterexample(self, R4):
        # the classical ideal whose minimal resolution carries no DG-module
        # structure over the resolution of the inner complete intersection;
        # witnessing degree and dimension frozen from this pipeline
        M = ideal(R4, "x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2")
        a = [R4.parse_monomial("x1^2"), R4.parse_monomial("x4^2")]
        assert projective_dimension(M) == 4
        rep = avramov_obstruction(a, M)
        assert rep.product_maps_to_zero
        assert not rep.all_vanish
        assert [r.i for r in rep.rows if r.dim_obstruction] == [4]
        row = [r for r in rep.rows if r.i == 4][0]
        assert row.dim_obstruction == 1
        assert row.dim_tor_R == 1 and row.rank == 0

    def test_consistency_with_dg_module_existence(self, R4, flagship):
        # where a certified DG K-module action exists, obstructions vanish
        from transverse.dg import koszul_dg_product, koszul_module_action, star_degree_one_product

        I, J = flagship
        F = koszul(R4, 0, 1)
        G = koszul(R4, 2, 3)
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        act = koszul_module_action(sp.complex, sp, [R4.parse_monomial("x1*x3")])
        assert act.certificate.ok
        rep = avramov_obstruction(
            [R4.parse_monomial("x1*x3")], ideal_product(I, J), 4
        )
        assert rep.all_vanish

    def test_report_table_and_json(self, R4, flagship):
        IJ = ideal_product(*flagship)
        rep = avramov_obstruction([R4.parse_monomial("x1*x3")], IJ, 3)
        text = rep.table()
        assert "o_i" in text and "torR" in text
        js = rep.to_json()
        assert js["all_vanish"] is True
        assert js["sequence"] == ["x1*x3"]

    def test_invariant_dims(self, R4):
        M = ideal(R4, "x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2")
        a = [R4.parse_monomial("x1^2"), R4.parse_monomial("x4^2")]
        rep = avramov_obstruction(a, M)
        for r in rep.rows:
            assert r.dim_obstruction == (r.dim_tor_R - r.dim_product) - r.rank
            assert 0 <= r.dim_obstruction <= r.dim_tor_R


class TestQuotientTorDims:
    def test_dims_from_ranks_match_the_strata(self, R4):
        M = ideal(R4, "x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2")
        a = [R4.parse_monomial("x1^2"), R4.parse_monomial("x4^2")]
        tate = tate_resolution(a, R4, 6)
        qt = QuotientTor(tate, M)
        D = tate.complex.max_degree() + M.max_gen_degree() + 1
        dims = {i: {t: qt.dim(i, t) for t in range(0, D + 1)} for i in range(0, 6)}
        # dimensions from ranks build no stratum
        assert qt.strata == {}
        ref = QuotientTor(tate, M)
        for i, got in dims.items():
            assert got == {t: ref.stratum(i, t).dim for t in range(0, D + 1)}
        assert sum(dims[4].values()) > 0


class TestOnePass:
    def test_classical_example_builds_each_object_once(self, R4, monkeypatch):
        # the per-degree steps take the Koszul homology and Tor over S that
        # the pass built; the sequence is checked by tate_resolution alone
        calls = {}
        for name in ("regular_sequence", "_tate_cycle", "KoszulHomology",
                     "tate_resolution"):
            def counted(*args, _f=getattr(obstructions, name), _n=name):
                calls[_n] = calls.get(_n, 0) + 1
                return _f(*args)
            monkeypatch.setattr(obstructions, name, counted)
        M = ideal(R4, "x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2")
        a = [R4.parse_monomial("x1^2"), R4.parse_monomial("x4^2")]
        rep = avramov_obstruction(a, M, 6)
        assert [r.i for r in rep.rows if r.dim_obstruction] == [4]
        assert calls == {"regular_sequence": 1, "_tate_cycle": 2,
                         "KoszulHomology": 1, "tate_resolution": 1}

    def test_one_tor_bound(self, R4):
        M = ideal(R4, "x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2")
        a = [R4.parse_monomial("x1^2"), R4.parse_monomial("x4^2")]
        rep = avramov_obstruction(a, M, 5)
        assert [r.dim_tor_S for r in rep.rows] == tor_over_quotient(a, M, 5)[2:]


class TestInjectivity:
    def test_flagship(self, R4, flagship):
        cert = verify_injectivity([R4.parse_monomial("x1*x3")], *flagship, n_max=4)
        assert cert.ok
        assert [(i, s) for i, s, _ in cert.rows] == [(2, 4), (3, 1), (4, 0)]

    def test_principal_pair(self, Rxy):
        cert = verify_injectivity(
            [Rxy.parse_monomial("x*y")], ideal(Rxy, "x"), ideal(Rxy, "y"), 4
        )
        assert cert.ok

    def test_rejects_non_transverse(self, R4):
        with pytest.raises(DomainError):
            verify_injectivity(
                [R4.parse_monomial("x1*x2")],
                ideal(R4, "x1", "x2"),
                ideal(R4, "x2", "x3"),
                3,
            )


def test_counterexample_over_prime_field(R4):
    from transverse.fields import PrimeField
    from transverse.ideals import MonomialIdeal
    from transverse.poly import Ring

    Rp = Ring(R4.names, PrimeField(32003))
    M = MonomialIdeal(
        Rp, tuple(Rp.parse_monomial(s) for s in
                  ("x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2"))
    )
    a = [Rp.parse_monomial("x1^2"), Rp.parse_monomial("x4^2")]
    rep = avramov_obstruction(a, M)
    assert [r.i for r in rep.rows if r.dim_obstruction] == [4]
    assert [(r.i, r.dim_tor_R, r.rank, r.dim_obstruction) for r in rep.rows] == [
        (2, 7, 4, 0), (3, 4, 0, 0), (4, 1, 0, 1), (5, 0, 0, 0)
    ]


def test_six_variable_obstruction_report():
    # M = (x1^2, x1x2, x2^2)(x3x4, x4^2) in 6 variables, a = (x1^2 x3 x4),
    # n_max 6: the full report, as computed when the Tate self-check still
    # eliminated every strand up to its degree bound
    from transverse.poly import Ring

    R6 = Ring(tuple(f"x{i}" for i in range(1, 7)))
    M = ideal_product(ideal(R6, "x1^2", "x1*x2", "x2^2"), ideal(R6, "x3*x4", "x4^2"))
    rep = avramov_obstruction([R6.parse_monomial("x1^2*x3*x4")], M, 6)
    rows = [
        {"i": i, "obstruction": 0, "product_subspace": 0, "rank": r,
         "tor_R": r, "tor_S": 7}
        for i, r in ((2, 7), (3, 2), (4, 0), (5, 0), (6, 0))
    ]
    assert rep.to_json() == {
        "all_vanish": True, "product_maps_to_zero": True, "rows": rows,
        "sequence": ["x1^2*x3*x4"],
    }
    assert rep.table() == "\n".join([
        "  i   torR   prod   torS   rank    o_i",
        "  2      7      0      7      7      0",
        "  3      2      0      7      2      0",
        "  4      0      0      7      0      0",
        "  5      0      0      7      0      0",
        "  6      0      0      7      0      0",
    ])
