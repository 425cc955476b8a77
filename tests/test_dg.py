import json

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
from transverse.poly import Polynomial, Ring
from transverse.resolutions import koszul_complex, taylor_complex

from conftest import ideal
from test_dg_certificate_reference import from_tables


def _vars(ring, *idx):
    return [ring.variable(i) for i in idx]


def _mono(ring, s):
    return Polynomial.from_monomial(ring, ring.parse_monomial(s))


class TestTaylorProduct:
    def test_coprime_is_koszul_wedge(self, Rxy):
        I = ideal(Rxy, "x", "y")
        prod = taylor_dg_product(I)
        val = prod.value(1, 1, 0, 1)
        assert {k: str(v) for k, v in val.items()} == {0: "1"}

    def test_lcm_coefficient(self, R4):
        I = ideal(R4, "x1*x3", "x1*x4")
        prod = taylor_dg_product(I)
        # e1.e2 = (x1x3 * x1x4 / x1x3x4) e12 = x1 e12
        val = prod.value(1, 1, 0, 1)
        assert {k: str(v) for k, v in val.items()} == {0: "x1"}

    def test_overlapping_square_zero(self, R4):
        I = ideal(R4, "x1*x3", "x1*x4", "x2*x3")
        prod = taylor_dg_product(I)
        for u in range(3):
            assert prod.value(1, 1, u, u) == {}

    def test_full_axioms_on_four_generators(self, R4, flagship):
        IJ = ideal_product(*flagship)
        prod = taylor_dg_product(IJ)
        cert = certify_full_dg(prod)
        assert cert.ok
        assert cert.checked_triples > 0


class TestStarDegreeOne:
    def test_principal_case_square(self, Rxy):
        F = koszul_complex([Rxy.variable(0)])
        G = koszul_complex([Rxy.variable(1)])
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        # single generator e(x)f: its square vanishes
        assert sp.value(1, 0, 0) == {}

    def test_flagship_case_b_gt_one(self, R4):
        F = koszul_complex(_vars(R4, 0, 1))
        G = koszul_complex(_vars(R4, 2, 3))
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        b1 = star_basis(F, G, 1)
        p = b1.index((1, 1, 0, 0))  # e1 (x) f1
        x = b1.index((1, 1, 0, 1))  # e1 (x) f2
        val = sp.value(1, p, x)
        b2 = star_basis(F, G, 2)
        # lands in F_1 (x) G_2 with coefficient (-1)^1 d(e1) = -x1
        assert {b2[k]: str(v) for k, v in val.items()} == {(1, 2, 0, 0): "-x1"}

    def test_flagship_leibniz_instance(self, R4):
        F = koszul_complex(_vars(R4, 0, 1))
        G = koszul_complex(_vars(R4, 2, 3))
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        S = sp.complex
        b1 = star_basis(F, G, 1)
        p = b1.index((1, 1, 0, 0))
        x = b1.index((1, 1, 0, 1))
        prod_vec = sp.value(1, p, x)
        lhs = {}
        for v, q in prod_vec.items():
            for r, e in ((k[0], val) for k, val in S.diff(2).entries.items() if k[1] == v):
                cur = lhs.get(r, Polynomial.zero(R4))
                lhs[r] = cur + e * q
        lhs = {k: v for k, v in lhs.items() if not v.is_zero}
        alpha = S.diff(1).entry(0, p)
        beta = S.diff(1).entry(0, x)
        rhs = {x: alpha, p: -beta}
        rhs = {k: v for k, v in rhs.items() if not v.is_zero}
        assert lhs == rhs

    def test_exhaustive_certification(self, R4):
        F = koszul_complex(_vars(R4, 0, 1))
        G = koszul_complex(_vars(R4, 2, 3))
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
        F = koszul_complex(_vars(R6, 0, 1))
        G = koszul_complex(_vars(R6, 2, 3))
        H = koszul_complex(_vars(R6, 4, 5))
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        sp2 = star_degree_one_product(sp.complex, H, sp, koszul_dg_product(H))
        cert = certify_degree_one(sp2)
        assert cert.ok


class TestModuleAction:
    def test_koszul_self_action(self, R4):
        # a = the ideal's own generators: phi is the identity, action = wedge
        K = koszul_complex(_vars(R4, 0, 1))
        act = koszul_module_action(K, koszul_dg_product(K), _vars(R4, 0, 1))
        assert act.certificate.ok
        assert act.phi[1].entries == {(0, 0): Polynomial.one(R4), (1, 1): Polynomial.one(R4)}

    def test_principal_inside_ci(self, R4):
        K = koszul_complex(_vars(R4, 0, 1))
        act = koszul_module_action(K, koszul_dg_product(K), [_mono(R4, "x1*x2")])
        assert act.certificate.ok
        # d(phi_1(e)) = x1*x2
        col = [act.phi[1].entry(r, 0) for r in range(2)]
        img = K.diff(1).apply(col)
        assert str(img[0]) == "x1*x2"

    def test_star_flagship_action(self, R4):
        F = koszul_complex(_vars(R4, 0, 1))
        G = koszul_complex(_vars(R4, 2, 3))
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        act = koszul_module_action(sp.complex, sp, [_mono(R4, "x1*x3")])
        assert act.certificate.ok

    def test_rejects_element_outside_ideal(self, R4):
        F = koszul_complex(_vars(R4, 0, 1))
        G = koszul_complex(_vars(R4, 2, 3))
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        with pytest.raises(DomainError):
            koszul_module_action(sp.complex, sp, [_mono(R4, "x1*x2")])

    def test_rejects_overlapping_supports(self, R4):
        K = koszul_complex(_vars(R4, 0, 1))
        with pytest.raises(DomainError):
            koszul_module_action(
                K, koszul_dg_product(K), [_mono(R4, "x1"), _mono(R4, "x1*x2")]
            )


class TestAssociativityProbe:
    def test_flagship_length_three(self, R4):
        F = koszul_complex(_vars(R4, 0, 1))
        G = koszul_complex(_vars(R4, 2, 3))
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        rep = associativity_probe(sp.complex, sp)
        assert rep.extension_found
        assert rep.associative
        assert rep.tested_triples > 0

    def test_koszul_star_koszul_length_four(self):
        R5 = Ring(("x1", "x2", "x3", "x4", "x5"))
        F = koszul_complex([R5.variable(0), R5.variable(1)])
        G = koszul_complex([R5.variable(2), R5.variable(3), R5.variable(4)])
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        rep = associativity_probe(sp.complex, sp)
        assert rep.extension_found
        assert rep.associative

    def test_not_multigraded(self, R4):
        # x1 + x2 is not one term: no complex is built to probe
        with pytest.raises(DomainError, match="not a single term"):
            koszul_complex([R4.variable(0) + R4.variable(1), R4.variable(2)])

    def test_zero_bound_empty(self, R4):
        F = koszul_complex(_vars(R4, 0, 1))
        G = koszul_complex(_vars(R4, 2, 3))
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        rep = associativity_probe(sp.complex, sp, 0)
        assert rep.stages == [] and rep.tested_triples == 0


class TestSerialization:
    def test_degree_one_tables_as_triples(self, R4):
        F = koszul_complex(_vars(R4, 0, 1))
        G = koszul_complex(_vars(R4, 2, 3))
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        js = sp.to_json()
        assert set(js) <= {"1", "2", "3"}
        for triples in js.values():
            for u, v, vec in triples:
                assert isinstance(u, int) and isinstance(v, int)
                assert all(isinstance(p, str) for p in vec.values())

    def test_killed_coefficient_stores_nothing(self, R4):
        # R/Q kills lcm_S lcm_T / lcm_(S u T) = x1 x2 x3 x4 of e_{0,1}.e_{2,3}
        Q = R4.quotient([R4.parse_monomial("x1*x2*x3*x4")])
        prod = taylor_dg_product(ideal(Q, "x1*x3", "x2*x4", "x1*x4", "x2*x3"))
        assert prod.value(2, 2, 2, 3) == {}
        js = prod.to_json()
        assert all(
            p != "0" for tab in js.values() for _, _, vec in tab for p in vec.values()
        )

    def test_full_product_tables(self, R4):
        I = ideal(R4, "x1*x3", "x1*x4")
        js = taylor_dg_product(I).to_json()
        assert "1,1" in js


class TestCaseIndependence:
    def test_b_equals_two_columns_recomputed_independently(self, R4):
        # re-derive the b=2 slice of the product directly from the defining
        # formula and compare entrywise with the assembled tables
        from transverse.complexes import star_basis

        F = koszul_complex(_vars(R4, 0, 1))
        G = koszul_complex(_vars(R4, 2, 3))
        pF, pG = koszul_dg_product(F), koszul_dg_product(G)
        sp = star_degree_one_product(F, G, pF, pG)
        for j in range(1, sp.complex.length + 1):
            basis_j = star_basis(F, G, j)
            basis_t = star_basis(F, G, j + 1)
            index_t = {key: k for k, key in enumerate(basis_t)}
            for p_idx, (_, _, uf, ug) in enumerate(star_basis(F, G, 1)):
                alpha = F.diff(1).entry(0, uf)
                for x_idx, (a, b, fa, gb) in enumerate(basis_j):
                    if b != 2:
                        continue
                    expected = {}
                    for w, q in pG.degree_one().value(2, ug, gb).items():
                        key = (a, 3, fa, w)
                        if key in index_t:
                            expected[index_t[key]] = (alpha * q).scale(
                                -1 if a % 2 else 1
                            )
                    expected = {k: v for k, v in expected.items() if not v.is_zero}
                    assert sp.value(j, p_idx, x_idx) == expected


def test_probe_taylor_koszul_star(R4):
    # pairing of a Taylor resolution with a Koszul complex: the canonical
    # extension again comes out associative
    I = ideal(R4, "x1^2", "x1*x2")
    F = taylor_complex(I)
    G = koszul_complex(_vars(R4, 2, 3))
    sp = star_degree_one_product(F, G, taylor_dg_product(I, F), koszul_dg_product(G))
    rep = associativity_probe(sp.complex, sp)
    assert rep.extension_found and rep.associative


class TestRegularSequenceCheck:
    """The module action takes its sequence through ideals.regular_sequence;
    TestModuleAction covers overlapping supports."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda R: [R.variable(0) + R.variable(1)],
            lambda R: [Polynomial.one(R)],
        ],
        ids=["two-term", "unit"],
    )
    def test_module_action_rejects(self, R4, make):
        K = koszul_complex(_vars(R4, 0, 1))
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
    # the CLI reports the final certificate; and five complexes, each with
    # one set of monomial matrices (the degree-one part of a Taylor product
    # shares those of its full product)
    from transverse import dg
    from transverse.cli import main

    calls = []
    original = dg.certify_degree_one

    def counting(prod):
        calls.append(prod)
        return original(prod)

    built = []
    build = dg._MonomialMatrices.__init__

    def building(self, C):
        built.append(C)
        build(self, C)

    monkeypatch.setattr(dg, "certify_degree_one", counting)
    monkeypatch.setattr(dg._MonomialMatrices, "__init__", building)
    path = _dg_job(tmp_path, "dg-verify", {"ideals": ["A", "B", "C"]})
    assert main([str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert len(calls) == 5
    assert len({id(p) for p in calls}) == 5
    assert len(built) == 5
    assert len({id(C) for C in built}) == 5


def test_dg_verify_certificates_do_no_polynomial_arithmetic(
    tmp_path, capsys, monkeypatch
):
    # the Taylor products, the certificates, the star products and their
    # degree-one products work on scalars: no Polynomial is built,
    # multiplied or scaled inside them; the certificates
    # visit exactly the pairs and triples they did when they multiplied
    # polynomials, and no product builds its polynomial tables
    from transverse import dg
    from transverse.cli import main

    inside = []
    counts = []
    polynomial_ops = []
    stars = []

    def entered(name, done=None):
        original = getattr(dg, name)

        def run(*args):
            inside.append(name)
            try:
                out = original(*args)
            finally:
                inside.pop()
            if done:
                done(out)
            return out

        monkeypatch.setattr(dg, name, run)

    def counted(name):
        entered(
            name, lambda c: counts.append((name, c.checked_pairs, c.checked_triples))
        )

    def watched(op):
        original = getattr(Polynomial, op)

        def run(*args):
            if inside:
                polynomial_ops.append((op, inside[-1]))
            return original(*args)

        monkeypatch.setattr(Polynomial, op, run)

    counted("certify_degree_one")
    counted("certify_full_dg")
    entered("taylor_dg_product")
    entered("star_degree_one_product", stars.append)
    entered("star_product")
    watched("__mul__")
    watched("scale")
    watched("__init__")
    path = _dg_job(tmp_path, "dg-verify", {"ideals": ["A", "B", "C"]})
    assert main([str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["checked_pairs"] == 216
    assert polynomial_ops == []
    full, one = "certify_full_dg", "certify_degree_one"
    assert counts == [(full, 11, 0)] * 3 + [
        (one, 6, 0), (one, 6, 0), (one, 36, 0), (one, 6, 0), (one, 216, 0)
    ]
    assert len(stars) == 2
    assert not any("tables" in vars(prod) for prod in stars)


def test_module_action_does_no_polynomial_arithmetic(tmp_path, capsys, monkeypatch):
    # the action works on scalars, and so do K and the lift phi: no
    # Polynomial product or scaling happens inside koszul_module_action
    from transverse import dg
    from transverse.cli import main

    inside = []
    polynomial_ops = []

    def entered(name):
        original = getattr(dg, name)

        def run(*args):
            inside.append(name)
            try:
                return original(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(dg, name, run)

    def watched(op):
        original = getattr(Polynomial, op)

        def run(*args):
            if "koszul_module_action" in inside:
                polynomial_ops.append((op, inside[-1]))
            return original(*args)

        monkeypatch.setattr(Polynomial, op, run)

    for name in ("koszul_module_action", "koszul_complex", "lift_comparison_map"):
        entered(name)
    watched("__mul__")
    watched("scale")
    path = _dg_job(
        tmp_path, "module-action", {"ideals": ["A", "B", "C"], "ci": ["x1^2*x3*x5"]}
    )
    assert main([str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert polynomial_ops == []


class TestMultigrading:
    """The certificates read every multidegree off the differentials; a
    complex or product that is not multigraded is refused in one line."""

    def test_taylor_multidegrees_are_the_lcms(self, R4):
        C = taylor_complex(ideal(R4, "x1*x3", "x1*x4", "x2*x3"))
        lcms = C.meta["lcms"]
        want = [[lcms[i][S].exps for S in C.meta["subsets"][i]] for i in range(4)]
        assert [list(m) for m in C.mdegs] == want

    def _refused(self, call):
        with pytest.raises(DomainError) as err:
            call()
        assert "\n" not in str(err.value)
        return str(err.value)

    def test_two_term_differential(self, R4):
        # no complex, hence no product or module action, has the entry x1 + x2
        x1, x2, x3 = _vars(R4, 0, 1, 2)
        assert "not a single term" in self._refused(
            lambda: koszul_complex([x1 + x2, x3])
        )

    def test_value_with_the_wrong_monomial(self, R4):
        F = koszul_complex(_vars(R4, 0, 1))
        G = koszul_complex(_vars(R4, 2, 3))
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        tables = {j: dict(tab) for j, tab in sp.tables.items()}
        pair, val = sorted(tables[1].items())[0]
        x1 = R4.variable(0)
        tables[1][pair] = {w: p * x1 for w, p in val.items()}
        assert "product (1,1)" in self._refused(
            lambda: from_tables(DegreeOneProduct, sp.complex, tables)
        )

    def test_value_beyond_the_top(self, R4):
        # a (1, length) value would land in C_{length+1}, which is not there
        F = koszul_complex(_vars(R4, 0, 1))
        G = koszul_complex(_vars(R4, 2, 3))
        sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
        top = sp.complex.length
        tables = {j: dict(tab) for j, tab in sp.tables.items()}
        tables[top] = {(0, 0): {0: Polynomial.one(R4)}}
        assert "outside the complex" in self._refused(
            lambda: from_tables(DegreeOneProduct, sp.complex, tables)
        )

    def test_empty_column(self, R4):
        # d_1 = (x1 0)
        C = GradedFreeComplex(
            R4, [[(0, 0, 0, 0)], [(1, 0, 0, 0), (0, 1, 0, 0)]], [{0: [(0, 1)]}]
        )
        assert "d_1 column 1 is zero" in self._refused(
            lambda: from_tables(DegreeOneProduct, C, {})
        )
