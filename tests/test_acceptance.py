"""Acceptance suite: one test per criterion, one PASS line each (run with -s).

Everything here is exact arithmetic; all tolerances are zero.  Criterion 2
is the control on the other side of the transversality hypothesis: its
non-transverse pair has Tor_1 != 0 but Tor_2 = 0, so its star product still
resolves R/IJ (derivation in its docstring).  The supplementary control
below it uses a pair with Tor_2 != 0, where the star product must fail at
H_1.
"""

import itertools
import random

from transverse.complexes import (
    Homology,
    betti_table,
    star_product,
    verify_resolution,
)
from transverse.dg import (
    certify_degree_one,
    koszul_dg_product,
    star_degree_one_product,
    taylor_dg_product,
)
from transverse.fields import PrimeField
from transverse.golod import (
    golod_basis,
    golod_resolution,
    koszul_homology,
    kunneth_map,
    massey_identity_residual,
    verify_golod,
)
from transverse.ideals import MonomialIdeal, ideal_product, is_transverse
from transverse.obstructions import (
    avramov_obstruction,
    projective_dimension,
    verify_injectivity,
)
from transverse.poly import Monomial, Ring
from transverse.resolutions import (
    koszul_complex,
    minimize_complex,
    taylor_complex,
    tor_dims,
    tor_independence,
)

from cell_sweep_reference import reference_cells
from conftest import ideal, koszul, strand_dims_from_cells


def _pass(n, msg):
    print(f"\nACCEPTANCE {n}: PASS - {msg}")


def _flagship_ring():
    return Ring(("x1", "x2", "x3", "x4"))


def _flagship_pair(R=None):
    R = R or _flagship_ring()
    return ideal(R, "x1", "x2"), ideal(R, "x3", "x4")


def generated_transverse_pairs(count=10, seed=20250809):
    """Disjoint-support random pairs; transversality is then automatic and
    independently asserted.  Product generator counts are capped so the
    lcm-lattice Betti oracle, which visits every subset of the product's
    generators, stays at desk scale."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nvars = rng.choice((4, 5, 6))
        split = rng.randint(1, nvars - 1)
        ring = Ring(tuple(f"x{i + 1}" for i in range(nvars)))

        def block(lo, hi):
            gens = []
            for _ in range(rng.randint(1, 2)):
                exps = [0] * nvars
                for v in range(lo, hi):
                    exps[v] = rng.randint(0, 2)
                m = Monomial(tuple(exps))
                if m.degree > 0:
                    gens.append(m)
            return gens

        gens1 = block(0, split)
        gens2 = block(split, nvars)
        if not gens1 or not gens2:
            continue
        I = MonomialIdeal(ring, tuple(gens1))
        J = MonomialIdeal(ring, tuple(gens2))
        if I.is_unit or J.is_unit:
            continue
        IJ = ideal_product(I, J)
        if len(IJ.gens) > 6 or IJ.max_gen_degree() > 5:
            continue
        out.append((I, J))
    return out


def generated_non_transverse_pairs(count=6, seed=4242):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nvars = rng.choice((3, 4))
        ring = Ring(tuple(f"x{i + 1}" for i in range(nvars)))
        gens1 = [
            Monomial(tuple(rng.randint(0, 2) for _ in range(nvars)))
            for _ in range(rng.randint(1, 2))
        ]
        gens2 = [
            Monomial(tuple(rng.randint(0, 2) for _ in range(nvars)))
            for _ in range(rng.randint(1, 2))
        ]
        I = MonomialIdeal(ring, tuple(g for g in gens1 if g.degree))
        J = MonomialIdeal(ring, tuple(g for g in gens2 if g.degree))
        if I.is_zero or I.is_unit or J.is_zero or J.is_unit:
            continue
        if is_transverse(I, J):
            continue
        if len(ideal_product(I, J).gens) > 6:
            continue
        out.append((I, J))
    return out


def _minimal_resolution(I):
    return minimize_complex(taylor_complex(I))


def _cell_strand_dims(S, cert, D):
    """{(i, t): dim H_i(S)_t} for t <= D, from the failing cells of the
    resolution certificate ``cert`` of S."""
    cells = reference_cells(Homology(S), range(S.length + 1))
    return strand_dims_from_cells(cells, cert.strand_failures, D)


def test_criterion_1_star_product_resolutions():
    R = _flagship_ring()
    I, J = _flagship_pair(R)
    F = koszul_complex(I.gens, R)
    G = koszul_complex(J.gens, R)
    S = star_product(F, G)
    IJ = ideal_product(I, J)
    cert = verify_resolution(S, IJ)
    assert cert.ok
    assert betti_table(minimize_complex(S)).totals() == (1, 4, 4, 1)
    assert cert.betti_want.totals() == (1, 4, 4, 1)

    pairs = generated_transverse_pairs(10)
    assert len(pairs) >= 10
    for I, J in pairs:
        assert is_transverse(I, J)
        S = star_product(_minimal_resolution(I), _minimal_resolution(J))
        assert verify_resolution(S, ideal_product(I, J)).ok
    _pass(1, f"flagship Betti (1,4,4,1) and {len(pairs)} generated pairs certified")


def test_criterion_2_non_transversality_control_as_stated():
    """Non-transversality alone does not break the star construction.

    For I=(x1,x2), J=(x2,x3) the pair is not transverse: Tor_1(R/I, R/J) =
    (I n J)/IJ != 0.  The homology of a star product of resolutions is
    H_i(F*G) = Tor_{i+1}(R/I, R/J) for i >= 1 (from the long exact sequence
    of 0 -> F_{>=1} + G_{>=1} -> (F(x)G)_{>=1} -> (F*G)_{>=1}[-1] -> 0), so
    only Tor_{>=2} obstructs exactness, and Tor_1 does not.  Here
    Tor_2(R/I, R/J) = H_2(Koszul(x1,x2) (x) R/(x2,x3)) = ker(x1 on
    R/(x2,x3)) = 0, so the star product IS the minimal free resolution of
    R/IJ.  By hand: IJ = (x1x2, x1x3, x2^2, x2x3) has standard monomials
    x1^a, x2 and x3^c times powers of x4, giving the K-polynomial
    1 - 4t^2 + 4t^3 - t^4, i.e. Betti numbers (1,4,4,1) in degrees
    0, 2, 3, 4.  The certificate's H_1 verdict is tied to Tor_2 strand by
    strand, its cells read back onto the strands; the supplementary control
    below uses a pair with Tor_2 != 0, where the H_1 failure is forced.
    """
    R = _flagship_ring()
    I = ideal(R, "x1", "x2")
    J = ideal(R, "x2", "x3")
    assert not is_transverse(I, J)
    F = koszul_complex(I.gens, R)
    G = koszul_complex(J.gens, R)
    S = star_product(F, G)
    cert = verify_resolution(S, ideal_product(I, J))
    D = S.max_degree() + 2  # the strand bound of the strand certificate
    tor = tor_dims(I, J, D)
    assert any(i == 1 for (i, _) in tor)  # Tor_1 != 0 witnesses non-transversality
    assert not any(i == 2 for (i, _) in tor)  # Tor_2 = 0 for this pair
    # H_i(F*G)_t = Tor_{i+1}(R/I, R/J)_t: the certificate fails at i = 1
    # exactly where Tor_2 != 0, and nowhere here
    homology = _cell_strand_dims(S, cert, D)
    assert homology == {(i - 1, t): d for (i, t), d in tor.items() if i >= 2}
    assert cert.ok
    assert cert.strand_failures == [] and cert.coker_failures == []
    assert cert.betti_ok
    assert cert.betti_got.entries == {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1}
    _pass(2, "stated non-transverse pair has Tor_1 != 0 but Tor_2 = 0, so its "
             "star product resolves R/IJ with Betti numbers (1,4,4,1)")


def test_criterion_2_supplement_control_where_failure_is_forced():
    # The hypothesis IS load-bearing: a pair with Tor_2 != 0 makes the star
    # product fail exactly at H_1.
    R = _flagship_ring()
    I = ideal(R, "x1", "x2")
    F = koszul_complex(I.gens, R)
    S = star_product(F, F)
    cert = verify_resolution(S, ideal_product(I, I))
    assert not cert.ok
    assert cert.strand_failures[0][0] == 1
    assert not cert.betti_ok
    # and H_1 is Tor_2 strand by strand, read off the cells
    D = S.max_degree() + 2
    tor = tor_dims(I, I, D)
    want = {(i - 1, t): d for (i, t), d in tor.items() if i >= 2}
    assert want and _cell_strand_dims(S, cert, D) == want
    _pass("2s", "control pair with nonvanishing Tor_2 fails at H_1 as required")


def test_criterion_3_kunneth_isomorphism():
    I, J = _flagship_pair()
    HI = koszul_homology(I)
    HJ = koszul_homology(J)
    HIJ = koszul_homology(ideal_product(I, J))
    assert HIJ.dims() == {1: 4, 2: 4, 3: 1}
    cert = kunneth_map(I, J)
    assert cert.ok

    pairs = generated_transverse_pairs(10, seed=777)
    for I, J in pairs:
        HI, HJ = koszul_homology(I), koszul_homology(J)
        HIJ = koszul_homology(ideal_product(I, J))
        for n in range(1, 9):
            want = sum(
                HI.dims().get(i, 0) * HJ.dims().get(n + 1 - i, 0)
                for i in range(1, n + 1)
            )
            assert HIJ.dims().get(n, 0) == want
        assert kunneth_map(I, J).ok
    _pass(3, f"dimension identity and bijectivity on flagship + {len(pairs)} pairs")


def test_criterion_4_trivial_massey_operation():
    basis = golod_basis(*_flagship_pair())
    assert len(basis.pairs) == 9
    checked = 0
    for p in (1, 2, 3):
        for word in itertools.product(range(9), repeat=p):
            assert massey_identity_residual(basis, word).terms == {}
            checked += 1
    assert checked == 9 + 81 + 729
    _pass(4, f"defining identity exact on all {checked} tuples with p <= 3")


def test_criterion_5_golod_resolution():
    I, J = _flagship_pair()
    cert = verify_golod(I, J, n_max=5)
    assert cert.ok
    assert cert.ranks == (1, 4, 10, 24, 58, 140)
    assert cert.series_coeffs[:6] == (1, 4, 10, 24, 58, 140)
    assert cert.resolution.minimal and cert.resolution.validation.ok
    # exactness through homological degree 4
    assert not cert.resolution.strand_failures
    assert not cert.triviality_failures  # exhaustive pairwise products bound

    Rxy = Ring(("x", "y"))
    cert2 = verify_golod(ideal(Rxy, "x"), ideal(Rxy, "y"), n_max=5)
    assert cert2.ok
    assert cert2.ranks == (1, 2, 2, 2, 2, 2)
    _pass(5, "ranks (1,4,10,24,58,140) and (1,2,2,2,2,2) match the series; "
             "d^2=0, minimal, exact, trivial products")


def test_criterion_6_degree_one_products_exhaustive():
    checked = []
    R = _flagship_ring()
    # five pairs built from Koszul/Taylor inputs
    pair_specs = [
        (R, ("x1", "x2"), ("x3", "x4")),
        (R, ("x1",), ("x2",)),
        (R, ("x1", "x2"), ("x3*x4",)),
        (R, ("x1^2", "x1*x2"), ("x3", "x4")),
        (R, ("x1*x2",), ("x3*x4",)),
    ]
    for ring, gens1, gens2 in pair_specs:
        I = ideal(ring, *gens1)
        J = ideal(ring, *gens2)
        assert is_transverse(I, J)
        F, G = taylor_complex(I), taylor_complex(J)
        sp = star_degree_one_product(
            F, G, taylor_dg_product(I, F), taylor_dg_product(J, G)
        )
        cert = certify_degree_one(sp)
        assert cert.ok and cert.checked_pairs > 0
        checked.append(cert.checked_pairs)
    # three-fold sequentially transverse product
    R6 = Ring(("x1", "x2", "x3", "x4", "x5", "x6"))
    F = koszul(R6, 0, 1)
    G = koszul(R6, 2, 3)
    H = koszul(R6, 4, 5)
    sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
    sp3 = star_degree_one_product(sp.complex, H, sp, koszul_dg_product(H))
    cert = certify_degree_one(sp3)
    assert cert.ok
    checked.append(cert.checked_pairs)
    _pass(6, f"Leibniz and square-zero exact on all basis pairs for "
             f"{len(checked)} products ({sum(checked)} pairs total)")


def test_criterion_7_obstruction_vanishing_flagship():
    R = _flagship_ring()
    I, J = _flagship_pair(R)
    a = [R.parse_monomial("x1*x3")]
    cert = verify_injectivity(a, I, J, n_max=4)
    assert cert.ok
    rep = avramov_obstruction(a, ideal_product(I, J), 4)
    assert rep.all_vanish and rep.product_maps_to_zero
    _pass(7, "induced maps injective for 2 <= i <= 4 and all o_i = 0")


def test_criterion_8_obstruction_nonvanishing_counterexample():
    R = _flagship_ring()
    M = ideal(R, "x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2")
    a = [R.parse_monomial("x1^2"), R.parse_monomial("x4^2")]
    pd = projective_dimension(M)
    rep = avramov_obstruction(a, M)
    assert rep.product_maps_to_zero
    assert not rep.all_vanish
    assert any(r.i <= pd for r in rep.rows if r.dim_obstruction)
    # frozen regression values from this pipeline: o_4 is one-dimensional
    assert [r.i for r in rep.rows if r.dim_obstruction] == [4]
    assert [r.dim_obstruction for r in rep.rows if r.i == 4] == [1]
    _pass(8, f"o_4 = 1 != 0 with pd(R/M) = {pd}: no DG-module structure exists")


def test_criterion_9_tor_independence():
    pairs = generated_transverse_pairs(8, seed=909)
    pairs.append(_flagship_pair())
    for I, J in pairs:
        assert tor_independence(I, J)
    non_pairs = generated_non_transverse_pairs(6)
    R = _flagship_ring()
    non_pairs.append((ideal(R, "x1", "x2"), ideal(R, "x2", "x3")))
    for I, J in non_pairs:
        assert not tor_independence(I, J)
        dims = tor_dims(I, J)
        assert any(i == 1 for (i, _) in dims)  # Tor_1 is the witness
    _pass(9, f"Tor vanishes on {len(pairs)} transverse pairs; Tor_1 != 0 on "
             f"{len(non_pairs)} non-transverse pairs")


def test_criterion_10_cross_pipeline_consistency():
    R = _flagship_ring()
    I, J = _flagship_pair(R)
    IJ = ideal_product(I, J)
    examples = [I, IJ, ideal(R, "x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2")]
    for M in examples:
        table = betti_table(minimize_complex(taylor_complex(M)))
        H = koszul_homology(M)
        for i in range(1, 6):
            want = sum(v for (ii, _), v in table.entries.items() if ii == i)
            assert H.dims().get(i, 0) == want
    # Kunneth prediction agrees with both pipelines on the flagship
    HI, HJ = koszul_homology(I), koszul_homology(J)
    HIJ = koszul_homology(IJ)
    for n in range(1, 5):
        want = sum(
            HI.dims().get(i, 0) * HJ.dims().get(n + 1 - i, 0)
            for i in range(1, n + 1)
        )
        assert HIJ.dims().get(n, 0) == want

    # prime-field backend agrees on every dimension output
    Rp = Ring(R.names, PrimeField(32003))
    for M in examples:
        Mp = MonomialIdeal(Rp, M.gens)
        t_q = betti_table(minimize_complex(taylor_complex(M)))
        t_p = betti_table(minimize_complex(taylor_complex(Mp)))
        assert t_q.entries == t_p.entries
        assert koszul_homology(M).graded_dims() == koszul_homology(Mp).graded_dims()
    Ip, Jp = MonomialIdeal(Rp, I.gens), MonomialIdeal(Rp, J.gens)
    gq = golod_resolution(I, J, 4)
    gp = golod_resolution(Ip, Jp, 4)
    assert gq.total_ranks() == gp.total_ranks()
    assert kunneth_map(Ip, Jp).ok
    _pass(10, "Taylor, Koszul-strand, and Kunneth pipelines agree; "
              "GF(32003) matches the rationals on all dimensions")
