import itertools
import random
from functools import reduce

import pytest

from transverse.complexes import Homology
from transverse.errors import DomainError
from transverse.exterior import k_diff, k_restrict, k_wedge
from transverse.fields import QQ, PrimeField
from transverse.golod import (
    _triviality_failures,
    golod_basis,
    golod_poincare,
    golod_resolution,
    koszul_homology,
    kunneth_map,
    massey_identity_residual,
    massey_mu,
    verify_golod,
)
from transverse.ideals import MonomialIdeal, ideal_product, is_transverse
from transverse.poly import Monomial, Ring
from transverse.resolutions import koszul_on_variables, tor_dims, tor_independence

from conftest import assert_polynomials_only_a_view, ideal
from kunneth_reference import reference_homology


def expand_series(num, den, n):
    """Oracle: power-series coefficients of num/den by naive long division."""
    coeffs = []
    for k in range(n + 1):
        c = num[k] if k < len(num) else 0
        for j in range(1, k + 1):
            d = den[j] if j < len(den) else 0
            c -= d * coeffs[k - j]
        coeffs.append(c)
    return coeffs


class TestKoszulHomology:
    def test_complete_intersection(self, R4):
        H = koszul_homology(ideal(R4, "x1", "x2"))
        assert H.dims() == {1: 2, 2: 1}
        # representatives: e1, e2 in degree 1 and e1^e2 in degree 2
        reps = [c.rep for c in H.classes_at(1)]
        assert [set(r.terms) for r in reps] == [{(0,)}, {(1,)}]
        assert [set(c.rep.terms) for c in H.classes_at(2)] == [{(0, 1)}]
        # each in its block, where its monomial is 1
        assert [c.b for c in H.classes] == [(1, 0, 0, 0), (0, 1, 0, 0),
                                            (1, 1, 0, 0)]

    def test_principal_xy(self, Rxy):
        H = koszul_homology(ideal(Rxy, "x*y"))
        assert H.dims() == {1: 1}

    def test_flagship_product(self, R4, flagship):
        H = koszul_homology(ideal_product(*flagship))
        assert H.dims() == {1: 4, 2: 4, 3: 1}
        assert H.graded_dims() == {(1, 2): 4, (2, 3): 4, (3, 4): 1}

    def test_total_dims_equal_betti(self, R4):
        from transverse.complexes import betti_table
        from transverse.resolutions import minimize_complex, taylor_complex

        rng = random.Random(360)
        for _ in range(6):
            gens = [
                Monomial(tuple(rng.randint(0, 2) for _ in range(4)))
                for _ in range(rng.randint(1, 3))
            ]
            I = MonomialIdeal(R4, tuple(gens))
            if I.is_unit or I.is_zero:
                continue
            H = koszul_homology(I)
            table = betti_table(minimize_complex(taylor_complex(I)))
            for i in range(1, 5):
                want = sum(v for (ii, _), v in table.entries.items() if ii == i)
                assert H.dims().get(i, 0) == want


class TestKunneth:
    def test_principal_pair(self, Rxy):
        cert = kunneth_map(ideal(Rxy, "x"), ideal(Rxy, "y"))
        assert cert.ok
        assert [(r.n, r.dim_target) for r in cert.rows] == [(1, 1)]

    def test_principal_image_is_not_a_boundary(self, Rxy):
        # the image z1 ^ d(z2) of the generator pair is a multiple of y*e1
        # (up to sign), and it generates H_1(R/(xy))
        I, J = ideal(Rxy, "x"), ideal(Rxy, "y")
        HI, HJ = koszul_homology(I), koszul_homology(J)
        HIJ = koszul_homology(ideal_product(I, J))
        quotient = ideal_product(I, J).quotient_ring()
        z1 = k_restrict(quotient, HI.classes[0].rep)
        z2 = k_restrict(quotient, HJ.classes[0].rep)
        image = k_wedge(quotient, z1, k_diff(quotient, z2))
        # the block xy gives e1 the monomial y
        assert image.b == (1, 1) and set(image.terms) == {(0,)}
        assert image.terms[(0,)] in (1, -1)
        assert not HIJ.is_boundary(1, image)

    def test_flagship(self, R4, flagship):
        cert = kunneth_map(*flagship)
        assert cert.ok
        assert {r.n: r.dim_target for r in cert.rows} == {1: 4, 2: 4, 3: 1}

    def test_symmetry(self, R4, flagship):
        I, J = flagship
        a = kunneth_map(I, J)
        b = kunneth_map(J, I)
        assert [(r.n, r.dim_target) for r in a.rows] == [
            (r.n, r.dim_target) for r in b.rows
        ]

    def test_dimension_identity_random_pairs(self, R4):
        rng = random.Random(314)
        tested = 0
        while tested < 6:
            gens1 = [
                Monomial((rng.randint(0, 2), rng.randint(0, 2), 0, 0))
                for _ in range(rng.randint(1, 2))
            ]
            gens2 = [
                Monomial((0, 0, rng.randint(0, 2), rng.randint(0, 2)))
                for _ in range(rng.randint(1, 2))
            ]
            I = MonomialIdeal(R4, tuple(gens1))
            J = MonomialIdeal(R4, tuple(gens2))
            if I.is_zero or I.is_unit or J.is_zero or J.is_unit:
                continue
            tested += 1
            HI, HJ = koszul_homology(I), koszul_homology(J)
            HIJ = koszul_homology(ideal_product(I, J))
            for n in range(1, 8):
                want = sum(
                    HI.dims().get(i, 0) * HJ.dims().get(n + 1 - i, 0)
                    for i in range(1, n + 1)
                )
                assert HIJ.dims().get(n, 0) == want
            assert kunneth_map(I, J).ok

    def test_requires_transverse(self, R4):
        with pytest.raises(DomainError):
            kunneth_map(ideal(R4, "x1", "x2"), ideal(R4, "x2", "x3"))

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
    def test_the_two_representatives_differ_by_a_sign(self, field):
        # d(z_a ^ z_b) = d(z_a) ^ z_b + (-1)^|z_a| z_a ^ d(z_b) is a boundary,
        # so the class of h_{a,b} is -(-1)^|z_a| that of z_a ^ d(z_b)
        rng = random.Random(29)
        R = Ring(("x1", "x2", "x3", "x4"), field)
        scalar = field.scalar

        def random_ideal(vars_):
            return MonomialIdeal(R, tuple(
                Monomial(tuple(rng.randint(0, 2) if k in vars_ else 0
                               for k in range(4)))
                for _ in range(rng.randint(1, 3))
            ))

        checked = 0
        while checked < 40:
            I, J = random_ideal((0, 1)), random_ideal((2, 3))
            if I.is_unit or J.is_unit:
                continue
            basis = golod_basis(I, J)
            # a basis of H(R/IJ) with representatives, by elimination
            q, HIJ = basis.quotient, reference_homology(basis)
            for k, (a, b) in enumerate(basis.pairs):
                n, sign = basis.vdeg(k) - 1, -(-1) ** basis.HI.classes[a].i
                other = k_wedge(q, basis.zI(k), k_diff(q, basis.zJ(k)))
                want = HIJ.class_coords(n, other)
                assert want is not None
                assert HIJ.class_coords(n, basis.h[k]) == {
                    c: scalar(sign * s) for c, s in want.items()
                }
                checked += 1


class TestTorIndependence:
    def test_transverse_pair(self, flagship):
        assert tor_independence(*flagship)

    def test_non_transverse_pair(self, R4):
        assert not tor_independence(ideal(R4, "x1", "x2"), ideal(R4, "x2", "x3"))

    def test_self_principal(self, Rxy):
        I = ideal(Rxy, "x")
        assert not tor_independence(I, I)
        assert (1, 1) in tor_dims(I, I)

    def test_tor_lives_off_the_lattice_sums(self, Rxy):
        # Tor_1(R/(x), R/(x)) = (x)/(x^2) = x k[y] has a class in every
        # degree t >= 1, so Tor over R, unlike Tor(-, k), has no support in
        # the sums m + m' of L_I + L_J = {1, x, x^2}: tor_dims keeps whole
        # strands
        I = ideal(Rxy, "x")
        assert tor_dims(I, I, 6) == {(1, t): 1 for t in range(1, 7)}

    def test_matches_transversality(self, R4):
        rng = random.Random(2718)
        tested = 0
        while tested < 8:
            gens1 = [
                Monomial(tuple(rng.randint(0, 1) for _ in range(4)))
                for _ in range(rng.randint(1, 2))
            ]
            gens2 = [
                Monomial(tuple(rng.randint(0, 1) for _ in range(4)))
                for _ in range(rng.randint(1, 2))
            ]
            I = MonomialIdeal(R4, tuple(gens1))
            J = MonomialIdeal(R4, tuple(gens2))
            if I.is_zero or I.is_unit or J.is_zero or J.is_unit:
                continue
            tested += 1
            # rigidity: transversality (Tor_1 = 0) decides everything
            assert tor_independence(I, J) == is_transverse(I, J)


class TestMassey:
    def test_singleton_is_representative(self, R4, flagship):
        # the Golod complex seeds mu of one symbol with h[k]; on the
        # flagship and on quadrics on both sides
        quadrics = ideal(R4, "x1^2", "x1*x2"), ideal(R4, "x3^2", "x4^2")
        for pair in (flagship, quadrics):
            basis = golod_basis(*pair)
            for k in range(len(basis.pairs)):
                assert massey_mu(basis, (k,)) == basis.h[k]
                assert basis.h[k].b == basis.vmdeg(k)

    def test_repeated_factor_vanishes(self, Rxy):
        basis = golod_basis(ideal(Rxy, "x"), ideal(Rxy, "y"))
        assert len(basis.pairs) == 1
        assert massey_mu(basis, (0, 0)).terms == {}

    def test_identity_exhaustive_small(self, Rxy):
        basis = golod_basis(ideal(Rxy, "x"), ideal(Rxy, "y"))
        for p in range(1, 4):
            for word in itertools.product(range(len(basis.pairs)), repeat=p):
                assert massey_identity_residual(basis, word).terms == {}

    def test_identity_flagship_pairs(self, R4, flagship):
        basis = golod_basis(*flagship)
        for p in range(1, 3):
            for word in itertools.product(range(len(basis.pairs)), repeat=p):
                assert massey_identity_residual(basis, word).terms == {}


class TestGolodResolution:
    def test_principal_pair_ranks(self, Rxy):
        C = golod_resolution(ideal(Rxy, "x"), ideal(Rxy, "y"), 4)
        assert C.total_ranks() == (1, 2, 2, 2, 2)

    def test_flagship_ranks(self, R4, flagship):
        C = golod_resolution(*flagship, n_max=5)
        assert C.total_ranks() == (1, 4, 10, 24, 58, 140)

    def test_certificate_attached(self, Rxy):
        cert = verify_golod(ideal(Rxy, "x"), ideal(Rxy, "y"), 3)
        assert cert.ok and cert.resolution.validation.ok and cert.resolution.minimal
        assert not cert.resolution.strand_failures
        assert not cert.resolution.coker_failures

    def test_requires_transverse(self, R4):
        with pytest.raises(DomainError):
            golod_resolution(ideal(R4, "x1", "x2"), ideal(R4, "x2", "x3"), 3)

    def test_massey_mu_once_per_distinct_prefix(self, monkeypatch, flagship):
        from collections import Counter

        from transverse import golod

        n_max = 5
        basis = golod_basis(*flagship)
        # the Massey value of each distinct prefix of two or more symbols is
        # made once, from the value of the prefix one shorter; that of one
        # symbol k is the class h[k] of the basis, so neither is called
        calls = Counter()
        original, extend = golod.massey_mu, golod._massey_extend

        def counting(b, word):
            calls[word] += 1
            return original(b, word)

        def extending(b, word, prefix):
            calls[word] += 1
            return extend(b, word, prefix)

        monkeypatch.setattr(golod, "massey_mu", counting)
        monkeypatch.setattr(golod, "_massey_extend", extending)
        monkeypatch.setattr(golod, "golod_basis", lambda *_: basis)
        golod_resolution(*flagship, n_max=n_max)
        # the internal bound of golod_resolution: n_max times the largest
        # generator degree of IJ, which is 2 here
        words = golod._words(basis, 2 * n_max, n_max)
        assert calls == Counter(
            {w[:j]: 1 for w, _, _ in words for j in range(2, len(w) + 1)}
        )


    def test_massey_prefix_memo_is_the_left_fold(self, monkeypatch, flagship):
        # the twist of every word carries the values massey_mu folds from
        # scratch, words of three symbols included
        from transverse import golod

        seen = []
        original = golod.twisted_koszul

        def recording(S, words, n_max, twist, word_label):
            seen.append((words, twist))
            return original(S, words, n_max, twist, word_label)

        monkeypatch.setattr(golod, "twisted_koszul", recording)
        basis = golod_basis(*flagship)
        monkeypatch.setattr(golod, "golod_basis", lambda *_: basis)
        golod_resolution(*flagship, n_max=6)
        ((words, twist),) = seen
        assert max(len(w) for w, _, _ in words) == 3
        for w, _, _ in words:
            assert twist(w) == [
                (1 if j % 2 else -1, massey_mu(basis, w[:j]), w[j:])
                for j in range(1, len(w) + 1)
            ]


class TestPoincare:
    def test_flagship_series(self, R4, flagship):
        ps = golod_poincare(*flagship, n_max=6)
        assert ps.numerator == (1, 4, 6, 4, 1)
        assert ps.denominator == (1, 0, -4, -4, -1)
        assert list(ps.coefficients) == expand_series(
            list(ps.numerator), list(ps.denominator), 6
        )
        assert ps.coefficients == (1, 4, 10, 24, 58, 140, 338)

    def test_series_bound(self, R4, flagship):
        assert golod_poincare(*flagship, n_max=0).coefficients == (1,)
        with pytest.raises(DomainError):
            golod_poincare(*flagship, n_max=-1)

    def test_principal_series(self, Rxy):
        ps = golod_poincare(ideal(Rxy, "x"), ideal(Rxy, "y"), 6)
        assert ps.numerator == (1, 2, 1)
        assert ps.denominator == (1, 0, -1)
        # (1+t)^2/(1-t^2) = (1+t)/(1-t): all later coefficients are 2
        assert ps.coefficients == (1, 2, 2, 2, 2, 2, 2)

    def test_oracle_expansion(self, R4, flagship):
        ps = golod_poincare(*flagship, n_max=8)
        assert list(ps.coefficients) == expand_series(
            list(ps.numerator), list(ps.denominator), 8
        )


class TestVerifyGolod:
    def test_flagship(self, R4, flagship):
        cert = verify_golod(*flagship, n_max=5)
        assert cert.ok
        assert cert.ranks == (1, 4, 10, 24, 58, 140)
        assert cert.ranks == cert.series_coeffs[:6]

    def test_principal(self, Rxy):
        cert = verify_golod(ideal(Rxy, "x"), ideal(Rxy, "y"), n_max=6)
        assert cert.ok

    def test_triviality_of_products(self, R4, flagship):
        # every pairwise product of positive-degree classes bounds
        cert = verify_golod(*flagship, n_max=2)
        assert not cert.triviality_failures


def count_boundary_tests(monkeypatch):
    """The list that gets the degree of each ``Homology.is_boundary`` test."""
    calls = []
    original = Homology.is_boundary

    def counting(self, i, x):
        calls.append(i)
        return original(self, i, x)

    monkeypatch.setattr(Homology, "is_boundary", counting)
    return calls


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
def test_triviality_failures_equal_the_ordered_pairs(monkeypatch, field):
    # over R/(x1^2, x2^2) the classes z0 = x1 e1 and z1 = x2 e2 of H_1
    # multiply to the class x1x2 e12 of H_2, so H_1 H_1 != 0: the clause,
    # which tests each unordered pair once, must list the failures of all
    # ordered pairs, both ways and in the order of itertools.product
    R = Ring(("x1", "x2"), field)
    I = ideal(R, "x1^2", "x2^2")
    q = I.quotient_ring()
    K = koszul_on_variables(R)
    KQ = Homology(K, q.modulus, K.meta["subsets"])
    classes = koszul_homology(I).classes
    h = [k_restrict(q, c.rep) for c in classes]
    degrees = [c.i for c in classes]
    labels = [c.label for c in classes]
    assert degrees == [1, 1, 2]
    want = [
        (labels[k], labels[l])
        for k, l in itertools.product(range(len(h)), repeat=2)
        if not KQ.is_boundary(degrees[k] + degrees[l], k_wedge(q, h[k], h[l]))
    ]
    calls = count_boundary_tests(monkeypatch)
    assert _triviality_failures(KQ, q, h, degrees, labels) == want
    assert want == [("z0", "z1"), ("z1", "z0")]
    # the pairs k <= l of degree at most 2: (z0, z0), (z0, z1), (z1, z1)
    assert calls == [2, 2, 2]


def test_boundary_test_count_gate_on_the_golod_flagship(monkeypatch, flagship):
    # beside the cell certificate's 226 XOR ranks: the 9 classes h of the
    # flagship (degrees 1, 1, 1, 1, 2, 2, 2, 2, 3) make 45 unordered pairs,
    # 5 of them of degree past 4 (2 with 3, and 3 with 3), so the
    # triviality clause takes 40 boundary tests, not one per ordered pair
    # (81)
    calls = count_boundary_tests(monkeypatch)
    cert = verify_golod(*flagship, n_max=5)
    assert cert.ok and not cert.triviality_failures
    assert len(calls) == 40 and max(calls) == 4


def count_transverse(monkeypatch):
    """The list that gets one entry per transversality test in golod: a
    ``transverse_product`` call, which also builds IJ."""
    from transverse import golod
    from transverse.ideals import transverse_product

    calls = []

    def counting(I, J):
        calls.append((I, J))
        return transverse_product(I, J)

    monkeypatch.setattr(golod, "transverse_product", counting)
    return calls


@pytest.mark.parametrize("job", ["kunneth", "verify"])
def test_one_transversality_test_per_job(monkeypatch, flagship, job):
    calls = count_transverse(monkeypatch)
    if job == "kunneth":
        assert kunneth_map(*flagship).ok
    else:
        assert verify_golod(*flagship, n_max=3).ok
    assert calls == [flagship]


@pytest.mark.parametrize("run, message", [
    (lambda I, J: kunneth_map(I, J), "Kunneth map requires transverse ideals"),
    (lambda I, J: verify_golod(I, J, 3),
     "the Golod construction requires transverse ideals"),
    (lambda I, J: golod_basis(I, J),
     "the Golod construction requires transverse ideals"),
    (lambda I, J: golod_poincare(I, J, 3),
     "the Golod series requires transverse ideals"),
])
def test_one_refusal_per_non_transverse_job(monkeypatch, R4, run, message):
    calls = count_transverse(monkeypatch)
    I, J = ideal(R4, "x1", "x2"), ideal(R4, "x2", "x3")
    with pytest.raises(DomainError) as err:
        run(I, J)
    assert str(err.value) == message
    assert calls == [(I, J)]


def test_multi_ideal_kunneth_dims(R4):
    # iterated formula for a sequentially transverse triple in 6 variables
    R6 = Ring(("x1", "x2", "x3", "x4", "x5", "x6"))
    fam = [
        ideal(R6, "x1", "x2"),
        ideal(R6, "x3", "x4"),
        ideal(R6, "x5", "x6"),
    ]
    from transverse.ideals import is_sequentially_transverse

    assert is_sequentially_transverse(fam)
    Hs = [koszul_homology(I) for I in fam]
    H = koszul_homology(reduce(ideal_product, fam))
    for ell in range(1, 8):
        want = 0
        for j1 in range(1, ell + 3):
            for j2 in range(1, ell + 3):
                j3 = ell + 2 - j1 - j2
                if j3 < 1:
                    continue
                want += (
                    Hs[0].dims().get(j1, 0)
                    * Hs[1].dims().get(j2, 0)
                    * Hs[2].dims().get(j3, 0)
                )
        assert H.dims().get(ell, 0) == want


def test_three_fold_star_resolves_triple_product():
    from transverse.complexes import star_product, verify_resolution
    from transverse.resolutions import minimize_complex, taylor_complex

    R6 = Ring(tuple(f"x{i + 1}" for i in range(6)))
    fam = [
        ideal(R6, "x1", "x2"),
        ideal(R6, "x3", "x4"),
        ideal(R6, "x5", "x6"),
    ]
    F = [minimize_complex(taylor_complex(I)) for I in fam]
    S = star_product(star_product(F[0], F[1]), F[2])
    assert S.total_ranks() == (1, 8, 12, 6, 1)
    assert verify_resolution(S, reduce(ideal_product, fam)).ok


def test_golod_with_non_ci_factor(R4):
    I = ideal(R4, "x1^2", "x1*x2")
    J = ideal(R4, "x3", "x4")
    cert = verify_golod(I, J, n_max=4)
    assert cert.ok
    assert cert.ranks == (1, 4, 10, 24, 58)


def test_golod_three_by_two_complete_intersections():
    R5 = Ring(tuple(f"x{i + 1}" for i in range(5)))
    I = ideal(R5, "x1", "x2", "x3")
    J = ideal(R5, "x4", "x5")
    cert = verify_golod(I, J, n_max=4)
    assert cert.ok
    # oracle: (1+t)^5 / (1 - 6t^2 - 9t^3 - 5t^4 - t^5)
    assert list(cert.ranks) == expand_series(
        [1, 5, 10, 10, 5, 1], [1, 0, -6, -9, -5, -1], 4
    )
    assert cert.ranks == (1, 5, 16, 49, 151)


def test_golod_certificate_does_no_polynomial_arithmetic(flagship):
    # the resolution is written and checked as monomial-matrix scalars and
    # every element (Koszul classes, Kunneth images, Massey values, Tate
    # cycles and their wedges) is a block of scalars: no module of the
    # package names Polynomial, and a complex has no polynomial view
    from transverse import golod, obstructions

    assert_polynomials_only_a_view()
    cert = golod.verify_golod(*flagship, n_max=5)
    assert cert.ok and cert.ranks == (1, 4, 10, 24, 58, 140)
    assert golod.kunneth_map(*flagship).ok
    R = flagship[0].ring
    M = ideal(R, "x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2")
    a = [R.parse_monomial("x1^2"), R.parse_monomial("x4^2")]
    rep = obstructions.avramov_obstruction(a, M, 5)
    assert [r.i for r in rep.rows if r.dim_obstruction] == [4]
