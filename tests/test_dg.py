import json
from functools import reduce

import pytest

from transverse.complexes import GradedFreeComplex, star_basis
from transverse.dg import (
    DegreeOneProduct,
    associativity_probe,
    certify_degree_one,
    certify_full_dg,
    koszul_dg_product,
    koszul_module_action,
    star_degree_one_product,
    taylor_dg_product,
)
from transverse.errors import DomainError
from transverse.ideals import ideal_product
from transverse.poly import Monomial, Ring
from transverse.resolutions import koszul_complex, taylor_complex

from conftest import assert_polynomials_only_a_view, ideal, koszul, variables
from polynomial_elements import (
    Polynomial, one, p_add, p_mul, poly_diff, product_tables, product_to_json,
    product_value,
)
from test_dg_certificate_reference import from_tables


class TestTaylorProduct:
    def test_coprime_is_koszul_wedge(self, Rxy):
        I = ideal(Rxy, "x", "y")
        prod = taylor_dg_product(I)
        val = product_value(product_tables(prod), (1, 1), 0, 1)
        assert {k: str(v) for k, v in val.items()} == {0: "1"}

    def test_lcm_coefficient(self, R4):
        I = ideal(R4, "x1*x3", "x1*x4")
        prod = taylor_dg_product(I)
        # e1.e2 = (x1x3 * x1x4 / x1x3x4) e12 = x1 e12
        val = product_value(product_tables(prod), (1, 1), 0, 1)
        assert {k: str(v) for k, v in val.items()} == {0: "x1"}

    def test_overlapping_square_zero(self, R4):
        I = ideal(R4, "x1*x3", "x1*x4", "x2*x3")
        tables = product_tables(taylor_dg_product(I))
        for u in range(3):
            assert product_value(tables, (1, 1), u, u) == {}

    def test_full_axioms_on_four_generators(self, R4, flagship):
        IJ = ideal_product(*flagship)
        prod = taylor_dg_product(IJ)
        cert = certify_full_dg(prod)
        assert cert.ok
        assert cert.checked_triples > 0


class TestStarDegreeOne:
    def test_principal_case_square(self, Rxy):
        F = koszul(Rxy, 0)
        G = koszul(Rxy, 1)
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        # single generator e(x)f: its square vanishes
        assert product_value(product_tables(sp), 1, 0, 0) == {}

    def test_flagship_case_b_gt_one(self, R4):
        F = koszul(R4, 0, 1)
        G = koszul(R4, 2, 3)
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        b1 = star_basis(F, G, 1)
        p = b1.index((1, 1, 0, 0))  # e1 (x) f1
        x = b1.index((1, 1, 0, 1))  # e1 (x) f2
        val = product_value(product_tables(sp), 1, p, x)
        b2 = star_basis(F, G, 2)
        # lands in F_1 (x) G_2 with coefficient (-1)^1 d(e1) = -x1
        assert {b2[k]: str(v) for k, v in val.items()} == {(1, 2, 0, 0): "-x1"}

    def test_flagship_leibniz_instance(self, R4):
        F = koszul(R4, 0, 1)
        G = koszul(R4, 2, 3)
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        S = sp.complex
        b1 = star_basis(F, G, 1)
        p = b1.index((1, 1, 0, 0))
        x = b1.index((1, 1, 0, 1))
        prod_vec = product_value(product_tables(sp), 1, p, x)
        lhs = {}
        for v, q in prod_vec.items():
            for r, e in ((k[0], val) for k, val in poly_diff(S, 2).entries.items() if k[1] == v):
                lhs[r] = p_add(lhs.get(r, Polynomial(R4, {})), p_mul(e, q))
        lhs = {k: v for k, v in lhs.items() if not v.is_zero}
        alpha = poly_diff(S, 1).entries[0, p]
        beta = poly_diff(S, 1).entries[0, x]
        rhs = {x: alpha, p: p_mul(beta, -1)}
        assert lhs == rhs

    def test_exhaustive_certification(self, R4):
        F = koszul(R4, 0, 1)
        G = koszul(R4, 2, 3)
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        cert = certify_degree_one(sp)
        assert cert.ok
        assert cert.checked_pairs == 4 * (4 + 4 + 1)

    def test_taylor_inputs(self, R4):
        # non-CI factor through its Taylor resolution
        I = ideal(R4, "x1*x2", "x1^2")
        J = ideal(R4, "x3", "x4")
        F = taylor_complex(I)
        G = taylor_complex(J)
        sp = star_degree_one_product(F, G, taylor_dg_product(I, F), taylor_dg_product(J, G))
        assert certify_degree_one(sp).ok

    def test_three_fold_iterated(self, R4):
        R6 = Ring(("x1", "x2", "x3", "x4", "x5", "x6"))
        F = koszul(R6, 0, 1)
        G = koszul(R6, 2, 3)
        H = koszul(R6, 4, 5)
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        sp2 = star_degree_one_product(sp.complex, H, sp, koszul_dg_product(H))
        cert = certify_degree_one(sp2)
        assert cert.ok


class TestModuleAction:
    def test_koszul_self_action(self, R4):
        # a = the ideal's own generators: phi is the identity, action = wedge
        K = koszul(R4, 0, 1)
        act = koszul_module_action(K, koszul_dg_product(K), variables(R4, 0, 1))
        assert act.certificate.ok
        assert act.phi[1] == {0: [(0, 1)], 1: [(1, 1)]}

    def test_principal_inside_ci(self, R4):
        K = koszul(R4, 0, 1)
        act = koszul_module_action(K, koszul_dg_product(K), [R4.parse_monomial("x1*x2")])
        assert act.certificate.ok
        # d(phi_1(e)) = x1*x2: phi_1(e) lies in the block of x1*x2, where
        # the scalars of d_1 o phi_1 sum to 1
        (col,) = act.phi[1].values()
        assert sum(c * s for w, c in col for _, s in K.table(1)[w]) == 1

    def test_star_flagship_action(self, R4):
        F = koszul(R4, 0, 1)
        G = koszul(R4, 2, 3)
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        act = koszul_module_action(sp.complex, sp, [R4.parse_monomial("x1*x3")])
        assert act.certificate.ok

    def test_rejects_element_outside_ideal(self, R4):
        F = koszul(R4, 0, 1)
        G = koszul(R4, 2, 3)
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        with pytest.raises(DomainError):
            koszul_module_action(sp.complex, sp, [R4.parse_monomial("x1*x2")])

    def test_rejects_overlapping_supports(self, R4):
        K = koszul(R4, 0, 1)
        with pytest.raises(DomainError):
            koszul_module_action(
                K, koszul_dg_product(K), [R4.parse_monomial("x1"), R4.parse_monomial("x1*x2")]
            )


class TestAssociativityProbe:
    def test_flagship_length_three(self, R4):
        F = koszul(R4, 0, 1)
        G = koszul(R4, 2, 3)
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        rep = associativity_probe(sp.complex, sp)
        assert rep.extension_found
        assert rep.associative
        assert rep.tested_triples > 0

    def test_koszul_star_koszul_length_four(self):
        R5 = Ring(("x1", "x2", "x3", "x4", "x5"))
        F = koszul(R5, 0, 1)
        G = koszul(R5, 2, 3, 4)
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        rep = associativity_probe(sp.complex, sp)
        assert rep.extension_found
        assert rep.associative

    def test_not_multigraded(self, R4):
        # x1 + x2 is not a monomial: no complex is built to probe
        x1, x2, x3 = variables(R4, 0, 1, 2)
        with pytest.raises(DomainError, match="not a monomial"):
            koszul_complex([Polynomial(R4, {x1: 1, x2: 1}), x3], R4)

    def test_zero_bound_empty(self, R4):
        F = koszul(R4, 0, 1)
        G = koszul(R4, 2, 3)
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        rep = associativity_probe(sp.complex, sp, 0)
        assert rep.stages == [] and rep.tested_triples == 0


class TestSerialization:
    def test_degree_one_tables_as_triples(self, R4):
        F = koszul(R4, 0, 1)
        G = koszul(R4, 2, 3)
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        js = product_to_json(sp)
        assert set(js) <= {"1", "2", "3"}
        for triples in js.values():
            for u, v, vec in triples:
                assert isinstance(u, int) and isinstance(v, int)
                assert all(isinstance(p, str) for p in vec.values())

    def test_killed_coefficient_stores_nothing(self, R4):
        # R/Q kills lcm_S lcm_T / lcm_(S u T) = x1 x2 x3 x4 of e_{0,1}.e_{2,3}
        Q = R4.quotient([R4.parse_monomial("x1*x2*x3*x4")])
        prod = taylor_dg_product(ideal(Q, "x1*x3", "x2*x4", "x1*x4", "x2*x3"))
        assert product_value(product_tables(prod), (2, 2), 2, 3) == {}
        js = product_to_json(prod)
        assert all(
            p != "0" for tab in js.values() for _, _, vec in tab for p in vec.values()
        )

    def test_full_product_tables(self, R4):
        I = ideal(R4, "x1*x3", "x1*x4")
        js = product_to_json(taylor_dg_product(I))
        assert "1,1" in js


class TestCaseIndependence:
    def test_b_equals_two_columns_recomputed_independently(self, R4):
        # re-derive the b=2 slice of the product directly from the defining
        # formula and compare entrywise with the assembled tables
        from transverse.complexes import star_basis

        F = koszul(R4, 0, 1)
        G = koszul(R4, 2, 3)
        pF, pG = koszul_dg_product(F), koszul_dg_product(G)
        sp = star_degree_one_product(F, G, pF, pG)
        tables, tables_G = product_tables(sp), product_tables(pG.degree_one())
        for j in range(1, sp.complex.length + 1):
            basis_j = star_basis(F, G, j)
            basis_t = star_basis(F, G, j + 1)
            index_t = {key: k for k, key in enumerate(basis_t)}
            for p_idx, (_, _, uf, ug) in enumerate(star_basis(F, G, 1)):
                alpha = poly_diff(F, 1).entries[0, uf]
                for x_idx, (a, b, fa, gb) in enumerate(basis_j):
                    if b != 2:
                        continue
                    expected = {}
                    for w, q in product_value(tables_G, 2, ug, gb).items():
                        key = (a, 3, fa, w)
                        if key in index_t:
                            expected[index_t[key]] = p_mul(
                                p_mul(alpha, q), -1 if a % 2 else 1
                            )
                    expected = {k: v for k, v in expected.items() if not v.is_zero}
                    assert product_value(tables, j, p_idx, x_idx) == expected


def test_probe_taylor_koszul_star(R4):
    # pairing of a Taylor resolution with a Koszul complex: the canonical
    # extension again comes out associative
    I = ideal(R4, "x1^2", "x1*x2")
    F = taylor_complex(I)
    G = koszul(R4, 2, 3)
    sp = star_degree_one_product(F, G, taylor_dg_product(I, F), koszul_dg_product(G))
    rep = associativity_probe(sp.complex, sp)
    assert rep.extension_found and rep.associative


class TestRegularSequenceCheck:
    """The module action takes its sequence through ideals.regular_sequence;
    TestModuleAction covers overlapping supports."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda R: [Polynomial(R, dict.fromkeys(variables(R, 0, 1), 1))],
            lambda R: [R.one_monomial()],
        ],
        ids=["two-term", "unit"],
    )
    def test_module_action_rejects(self, R4, make):
        K = koszul(R4, 0, 1)
        with pytest.raises(DomainError, match="regular sequence"):
            koszul_module_action(K, koszul_dg_product(K), make(R4))

    @pytest.mark.parametrize(
        "ci", [["x1*x3", "x2*x3"], ["1"]], ids=["overlapping-supports", "unit"]
    )
    def test_cli_exits_two(self, tmp_path, capsys, ci):
        from transverse.cli import main

        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "ring": {"vars": ["x1", "x2", "x3", "x4"]},
            "ideals": {"I": ["x1", "x2"], "J": ["x3", "x4"]},
            "command": "module-action",
            "args": {"ideals": ["I", "J"], "ci": ci},
        }))
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert "regular sequence" in err and "Traceback" not in err


def _dg_job(tmp_path, command, args):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "ring": {"vars": ["x1", "x2", "x3", "x4", "x5", "x6"]},
        "ideals": {"A": ["x1^2", "x2"], "B": ["x3", "x4"], "C": ["x5", "x6"]},
        "command": command,
        "args": args,
        "format": "json",
    }))
    return path


def test_dg_verify_certifies_each_product_once(tmp_path, capsys, monkeypatch):
    # A, B, C and the intermediate A*B and final A*B*C: five products, each
    # certified once although A*B is an input of the second star step and
    # the CLI reports the final certificate
    from transverse import dg
    from transverse.cli import main

    calls = []
    original = dg.certify_degree_one

    def counting(prod):
        calls.append(prod)
        return original(prod)

    monkeypatch.setattr(dg, "certify_degree_one", counting)
    path = _dg_job(tmp_path, "dg-verify", {"ideals": ["A", "B", "C"]})
    assert main([str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert len(calls) == 5
    assert len({id(p) for p in calls}) == 5


def test_dg_verify_certificates_do_no_polynomial_arithmetic(
    tmp_path, capsys, monkeypatch
):
    # the Taylor products, the certificates, the star products and their
    # degree-one products work on scalars: no module of the package names
    # Polynomial; the certificates visit exactly the pairs and triples they
    # did when they multiplied polynomials, and no product builds its
    # polynomial tables
    from transverse import dg
    from transverse.cli import main

    counts = []
    stars = []

    def entered(name, done=None):
        original = getattr(dg, name)

        def run(*args):
            out = original(*args)
            if done:
                done(out)
            return out

        monkeypatch.setattr(dg, name, run)

    def counted(name):
        entered(
            name, lambda c: counts.append((name, c.checked_pairs, c.checked_triples))
        )

    counted("certify_degree_one")
    counted("certify_full_dg")
    entered("star_degree_one_product", stars.append)
    assert_polynomials_only_a_view()
    path = _dg_job(tmp_path, "dg-verify", {"ideals": ["A", "B", "C"]})
    assert main([str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["checked_pairs"] == 216
    full, one = "certify_full_dg", "certify_degree_one"
    assert counts == [(full, 11, 0)] * 3 + [
        (one, 6, 0), (one, 6, 0), (one, 36, 0), (one, 6, 0), (one, 216, 0)
    ]
    assert len(stars) == 2
    assert not any("tables" in vars(prod) for prod in stars)


def test_module_action_does_no_polynomial_arithmetic(tmp_path, capsys):
    # the action works on scalars, and so do K and the lift phi, whose
    # inputs are monomials and whose output is scalar tables: no module of
    # the package names Polynomial
    from transverse.cli import main

    assert_polynomials_only_a_view()
    path = _dg_job(
        tmp_path, "module-action", {"ideals": ["A", "B", "C"], "ci": ["x1^2*x3*x5"]}
    )
    assert main([str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


class TestMultigrading:
    """The certificates read every multidegree off the differentials; a
    complex or product that is not multigraded is refused in one line."""

    def test_taylor_multidegrees_are_the_lcms(self, R4):
        I = ideal(R4, "x1*x3", "x1*x4", "x2*x3")
        C = taylor_complex(I)
        # oracle: Monomial.lcm folded over the generators of each subset
        want = [
            [reduce(Monomial.lcm, (I.gens[j] for j in S), R4.one_monomial()).exps
             for S in C.meta["subsets"][i]]
            for i in range(4)
        ]
        assert [list(m) for m in C.mdegs] == want

    def _refused(self, call):
        with pytest.raises(DomainError) as err:
            call()
        assert "\n" not in str(err.value)
        return str(err.value)

    def test_two_term_differential(self, R4):
        # no complex, hence no product or module action, has the entry x1 + x2
        x1, x2, x3 = variables(R4, 0, 1, 2)
        assert "not a monomial" in self._refused(
            lambda: koszul_complex([Polynomial(R4, {x1: 1, x2: 1}), x3], R4)
        )

    def test_value_with_the_wrong_monomial(self, R4):
        F = koszul(R4, 0, 1)
        G = koszul(R4, 2, 3)
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        tables = {j: dict(tab) for j, tab in product_tables(sp).items()}
        pair, val = sorted(tables[1].items())[0]
        x1 = Polynomial.from_monomial(R4, R4.parse_monomial("x1"))
        tables[1][pair] = {w: p_mul(p, x1) for w, p in val.items()}
        assert "product (1,1)" in self._refused(
            lambda: from_tables(DegreeOneProduct, sp.complex, tables)
        )

    def test_value_beyond_the_top(self, R4):
        # a (1, length) value would land in C_{length+1}, which is not there
        F = koszul(R4, 0, 1)
        G = koszul(R4, 2, 3)
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        top = sp.complex.length
        tables = {j: dict(tab) for j, tab in product_tables(sp).items()}
        tables[top] = {(0, 0): {0: one(R4)}}
        assert "outside the complex" in self._refused(
            lambda: from_tables(DegreeOneProduct, sp.complex, tables)
        )

    def test_product_on_another_complex(self):
        # F = Taylor of (x1^2, x1*x2), G = Koszul on x3, x4, x5: with the two
        # products swapped, each lives on the other factor's complex; a
        # module action or probe of G with the product of F is no
        # certified failure either
        R5 = Ring(("x1", "x2", "x3", "x4", "x5"))
        I = ideal(R5, "x1^2", "x1*x2")
        F, G = taylor_complex(I), koszul(R5, 2, 3, 4)
        prodF, prodG = taylor_dg_product(I, F), koszul_dg_product(G)
        assert "left input product" in self._refused(
            lambda: star_degree_one_product(F, G, prodG, prodF)
        )
        assert "right input product" in self._refused(
            lambda: star_degree_one_product(F, G, prodF, prodF)
        )
        assert "acts on" in self._refused(
            lambda: koszul_module_action(G, prodF, [R5.parse_monomial("x3")])
        )
        assert "probed complex" in self._refused(
            lambda: associativity_probe(G, prodF)
        )

    def test_empty_column(self, R4):
        # d_1 = (x1 0)
        C = GradedFreeComplex(
            R4, [[(0, 0, 0, 0)], [(1, 0, 0, 0), (0, 1, 0, 0)]], [{0: [(0, 1)]}]
        )
        assert "d_1 column 1 is zero" in self._refused(
            lambda: from_tables(DegreeOneProduct, C, {})
        )
