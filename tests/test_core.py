import ast
import itertools
import random
from fractions import Fraction
from operator import add, sub
from pathlib import Path

import pytest

from transverse import linalg
from transverse.complexes import Homology, strand_basis
from transverse.errors import DimensionError, DomainError
from transverse.exterior import Element, k_diff, k_restrict, k_sum, k_wedge
from transverse.fields import QQ, PrimeField
from transverse.ideals import minimalize_generators
from transverse.poly import (
    Monomial,
    PolyMatrix,
    Polynomial,
    Ring,
    monomials_of_degree,
)
from transverse.resolutions import koszul_on_variables, taylor_complex


class TestMonomials:
    def test_lcm_examples(self, R4):
        m = R4.parse_monomial
        assert m("x1^2*x2").lcm(m("x2*x3")) == m("x1^2*x2*x3")
        assert m("x1*x4").lcm(m("1")) == m("x1*x4")
        assert m("x1").lcm(m("x1^3")) == m("x1^3")

    def test_divides_examples(self, R4):
        m = R4.parse_monomial
        assert m("x1").divides(m("x1*x2"))
        assert not m("x1^2").divides(m("x1*x2"))
        assert m("1").divides(m("x3^5"))

    def test_length_mismatch(self, R4, Rxy):
        with pytest.raises(DimensionError):
            R4.parse_monomial("x1").lcm(Rxy.parse_monomial("x"))
        with pytest.raises(DimensionError):
            R4.parse_monomial("x1").divides(Rxy.parse_monomial("x"))

    def test_parse_round_trip(self, R4):
        for text in ("x1^2*x2", "x4", "1", "x1*x2*x3*x4"):
            m = R4.parse_monomial(text)
            assert R4.parse_monomial(R4.format_monomial(m)) == m

    def test_degree(self, R4):
        assert R4.parse_monomial("x1^2*x3").degree == 3
        assert R4.one_monomial().degree == 0


class TestPolynomials:
    def test_product_of_conjugates(self, Rxy):
        x = Rxy.variable(0)
        y = Rxy.variable(1)
        assert (x + y) * (x - y) == x * x - y * y

    def test_mul_by_zero(self, Rxy):
        p = Rxy.variable(0) + Rxy.variable(1)
        assert (p * Polynomial.zero(Rxy)).is_zero

    def test_homogeneity_tag(self, Rxy):
        x, y = Rxy.variable(0), Rxy.variable(1)
        assert (x * y).homogeneous_degree == 2
        assert (x + y).homogeneous_degree == 1
        assert (x * x + y).homogeneous_degree is None

    def test_mul_commutative_associative_random(self, R4):
        rng = random.Random(7)

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                m = Monomial(tuple(rng.randint(0, 2) for _ in range(4)))
                terms[m] = Fraction(rng.randint(-3, 3))
            return Polynomial(R4, terms)

        for _ in range(60):
            p, q, r = rand_poly(), rand_poly(), rand_poly()
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            if (
                p.homogeneous_degree is not None
                and q.homogeneous_degree is not None
                and not (p * q).is_zero
            ):
                assert (p * q).homogeneous_degree == (
                    p.homogeneous_degree + q.homogeneous_degree
                )

    def test_product_of_variables(self, Rxy):
        x, y = Rxy.variable(0), Rxy.variable(1)
        assert x * y == Polynomial.from_monomial(Rxy, Rxy.parse_monomial("x*y"))
        assert x * y == y * x

    def test_quotient_ring_reduction(self, Rxy):
        S = Rxy.quotient([Rxy.parse_monomial("x*y")])
        x, y = S.variable(0), S.variable(1)
        assert (x * y).is_zero
        assert not (x * x).is_zero

    def test_str_deterministic(self, R4):
        p = R4.variable(3) + R4.variable(0) + R4.variable(1).scale(-2)
        assert str(p) == "x1 - 2*x2 + x4"


class TestScalarRank:
    def test_identity(self):
        rows = [{i: Fraction(1)} for i in range(3)]
        for i, r in enumerate(rows):
            rows[i] = {i: Fraction(1)}
        assert linalg.rank(rows, QQ) == 3
        assert linalg.kernel_basis(rows, 3, QQ) == []

    def test_proportional_rows(self):
        rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
        assert linalg.rank(rows, QQ) == 1
        kern = linalg.kernel_basis(rows, 2, QQ)
        assert len(kern) == 1
        # spanned by (-2, 1): check proportionality
        v = kern[0]
        assert v[0] * 1 - v[1] * (-2) == 0

    def test_zero_matrix(self):
        rows = [dict() for _ in range(2)]
        assert linalg.rank(rows, QQ) == 0
        assert len(linalg.kernel_basis(rows, 5, QQ)) == 5

    def test_rank_nullity_random(self):
        rng = random.Random(99)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = []
            for _ in range(nrows):
                row = {
                    c: Fraction(rng.randint(-4, 4))
                    for c in range(ncols)
                    if rng.random() < 0.6
                }
                rows.append({c: v for c, v in row.items() if v})
            r = linalg.rank(rows, QQ)
            k = len(linalg.kernel_basis(rows, ncols, QQ))
            assert r + k == ncols

    def test_rational_prime_agreement_random(self):
        rng = random.Random(1234)
        F = PrimeField(32003)
        for _ in range(30):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            data = [
                [(r, c, rng.randint(-5, 5)) for c in range(ncols)]
                for r in range(nrows)
            ]
            rows_q = [
                {c: Fraction(v) for (_, c, v) in row if v} for row in data
            ]
            rows_p = [
                {c: F.from_int(v) for (_, c, v) in row if v} for row in data
            ]
            assert linalg.rank(rows_q, QQ) == linalg.rank(rows_p, F)

    def test_echelon_is_canonical(self):
        # same row space, different presentations -> identical RREF
        rows1 = [{0: Fraction(2), 1: Fraction(4)}, {1: Fraction(3), 2: Fraction(1)}]
        rows2 = [
            {0: Fraction(1), 1: Fraction(2)},
            {0: Fraction(2), 1: Fraction(7), 2: Fraction(1)},
        ]
        e1 = linalg.echelon(rows1, 3, QQ)
        e2 = linalg.echelon(rows2, 3, QQ)
        assert e1.pivots == e2.pivots
        assert e1.rows == e2.rows

    def test_solve(self):
        rows = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(2)}]
        sol = linalg.solve(rows, 2, {0: Fraction(3), 1: Fraction(4)}, QQ)
        assert sol == {0: Fraction(1), 1: Fraction(2)}
        assert linalg.solve([{0: Fraction(0)}], 1, {0: Fraction(1)}, QQ) is None


class TestMatrixApply:
    def test_identity(self, Rxy):
        A = PolyMatrix.identity(Rxy, 2)
        v = [Rxy.variable(0), Rxy.variable(1)]
        assert A.apply(v) == v

    def test_koszul_relation(self, Rxy):
        x, y = Rxy.variable(0), Rxy.variable(1)
        A = PolyMatrix(Rxy, 1, 2, {(0, 0): x, (0, 1): y})
        out = A.apply([y, -x])
        assert out[0].is_zero

    def test_single_entry(self, R4):
        p = Polynomial.from_monomial(R4, R4.parse_monomial("x1*x3"))
        A = PolyMatrix(R4, 1, 1, {(0, 0): p})
        assert A.apply([Polynomial.one(R4)]) == [p]

    def test_dimension_error(self, Rxy):
        A = PolyMatrix.identity(Rxy, 2)
        with pytest.raises(DimensionError):
            A.apply([Polynomial.one(Rxy)])


def test_ring_kills_matches_divisibility(R4, Rxy):
    Q = R4.quotient([R4.parse_monomial(m) for m in ("x1^2", "x2*x3", "x4^3")])
    for exps in itertools.product(range(4), repeat=4):
        m = Monomial(exps)
        assert Q.kills(m) == any(g.divides(m) for g in Q.modulus), exps
    assert not R4.kills(R4.parse_monomial("x1^9"))
    # a monomial over another number of variables is refused
    with pytest.raises(DimensionError):
        Q.kills(Rxy.parse_monomial("x"))
    with pytest.raises(DimensionError):
        Polynomial.from_monomial(Q, Monomial((1, 1, 1, 1, 1)))


def test_monomials_of_degree_order(R4):
    ms = monomials_of_degree(R4, 2)
    assert len(ms) == 10
    # descending lex, so x1^2 first, x4^2 last
    assert ms[0] == R4.parse_monomial("x1^2")
    assert ms[-1] == R4.parse_monomial("x4^2")


def _brute_force_degree(ring, t, extra):
    """Reference enumeration: every exponent vector, filtered and sorted."""
    gens = ring.modulus + tuple(extra)
    cands = (
        Monomial(e)
        for e in itertools.product(range(t + 1), repeat=ring.nvars)
        if sum(e) == t
    )
    kept = [m for m in cands if not any(g.divides(m) for g in gens)]
    return sorted(kept, key=Monomial.sort_key)


@pytest.mark.parametrize(
    "names, modulus, extra",
    [
        (("x",), (), ()),
        (("x", "y"), ("x*y",), ()),
        (("x1", "x2", "x3"), (), ("x1^2", "x2*x3")),
        (("x1", "x2", "x3", "x4"), ("x1*x2", "x3^3"), ("x4^2", "x1*x3")),
        (("a", "b", "c", "d", "e"), ("a^2*b",), ()),
    ],
)
def test_monomials_of_degree_matches_brute_force(names, modulus, extra):
    base = Ring(names)
    ring = Ring(names, modulus=tuple(base.parse_monomial(m) for m in modulus))
    extra = tuple(ring.parse_monomial(m) for m in extra)
    for t in range(0, 7):
        assert monomials_of_degree(ring, t, extra) == _brute_force_degree(
            ring, t, extra
        )
    assert monomials_of_degree(ring, -1, extra) == []


def test_monomials_of_degree_returns_fresh_list(R4):
    first = monomials_of_degree(R4, 2)
    first.clear()
    again = monomials_of_degree(R4, 2)
    assert len(again) == 10
    assert again is not first


class TestScalarRankFull:
    def test_rank_kernel_image_shapes(self):
        rows = [
            {0: Fraction(1), 1: Fraction(2), 2: Fraction(0)},
            {0: Fraction(2), 1: Fraction(4), 2: Fraction(1)},
        ]
        kern = linalg.kernel_basis(rows, 3)
        img = linalg.echelon(linalg.rows_from_columns(rows, 3), 2).rows
        assert linalg.rank(rows) == 2 == 3 - len(kern)
        assert len(kern) == 1
        assert len(img) == 2

    def test_image_basis_canonical(self):
        # column space of [[1,2],[2,4]] is spanned by (1,2)
        rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
        img = linalg.echelon(linalg.rows_from_columns(rows, 2), 2).rows
        assert img == [{0: Fraction(1), 1: Fraction(2)}]


def _dense_rref_oracle(mat):
    """Naive dense RREF over Fraction, the reference for the sparse engine."""
    m = [row[:] for row in mat]
    nrows, ncols = len(m), len(m[0]) if m else 0
    piv_rows = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv_rows.append(c)
        r += 1
    return piv_rows, m[: len(piv_rows)]


class TestAgainstDenseOracle:
    def test_random_rref_matches(self):
        rng = random.Random(60323)
        for _ in range(60):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            dense = [
                [Fraction(rng.randint(-6, 6)) if rng.random() < 0.55 else Fraction(0)
                 for _ in range(ncols)]
                for _ in range(nrows)
            ]
            sparse = [
                {c: v for c, v in enumerate(row) if v} for row in dense
            ]
            pivots, reduced = _dense_rref_oracle(dense)
            ech = linalg.echelon(sparse, ncols, QQ)
            assert ech.pivots == pivots
            got = [
                [row.get(c, Fraction(0)) for c in range(ncols)] for row in ech.rows
            ]
            assert got == reduced
            assert linalg.rank(sparse, QQ) == len(pivots)
            kern = linalg.kernel_basis(sparse, ncols, QQ)
            assert len(kern) == ncols - len(pivots)
            for v in kern:
                for row in sparse:
                    s = sum(row.get(c, Fraction(0)) * vc for c, vc in v.items())
                    assert s == 0


class TestElements:
    """Block elements (b, {key: scalar}) and their one wedge, differential,
    restriction, sum and block-coordinate path."""

    def test_cancelling_sum_drops_key(self, Rxy):
        x = Element((1, 1), {(0,): 1, (1,): 2})
        y = Element((1, 1), {(0,): 1})
        assert k_sum(Rxy, [(1, x), (-1, y)]) == Element((1, 1), {(1,): 2})
        assert k_sum(Rxy, [(1, x), (-1, x)]) == Element((1, 1), {})
        # over GF(2) the scalars are ints in [0, 2), and 1 + 1 cancels
        F2 = Rxy.with_field(PrimeField(2))
        assert k_sum(F2, [(1, y), (1, y)]) == Element((1, 1), {})
        assert k_sum(F2, [(-1, y)]) == y
        with pytest.raises(DomainError, match="blocks"):
            k_sum(Rxy, [(1, x), (1, Element((1, 0), {(0,): 1}))])

    def test_wedge_and_diff_over_quotient_drop_killed_terms(self):
        base = Ring(("x", "y"))
        Q = base.quotient([base.parse_monomial("x^2"), base.parse_monomial("x*y")])
        ex, ey = Element((1, 0), {(0,): 1}), Element((0, 1), {(1,): 1})
        x = Element((1, 0), {(): 1})
        # e_x ^ e_y survives; d of it is x e_y - y e_x, alive in Q
        exy = k_wedge(Q, ex, ey)
        assert exy == Element((1, 1), {(0, 1): 1})
        assert k_wedge(Q, ey, ex) == Element((1, 1), {(0, 1): -1})
        assert k_diff(Q, exy) == Element((1, 1), {(1,): 1, (0,): -1})
        # x * (y e_x) = xy e_x and d(y e_x) = xy: both zero in Q, not in R
        y_ex = Element((1, 1), {(0,): 1})
        assert k_wedge(Q, x, y_ex) == Element((2, 1), {})
        assert k_wedge(base, x, y_ex) == Element((2, 1), {(0,): 1})
        assert k_diff(Q, y_ex) == Element((1, 1), {})
        assert k_diff(base, y_ex) == Element((1, 1), {(): 1})
        # overlapping keys wedge to zero
        assert k_wedge(base, ex, ex) == Element((2, 0), {})
        # restriction drops the killed terms and keeps the rest
        mixed = Element((1, 1), {(): 3, (0,): 5, (1,): 7})
        assert k_restrict(Q, mixed) == Element((1, 1), {(0,): 5, (1,): 7})
        assert k_restrict(base, mixed) is mixed

    @staticmethod
    def _round_trip(H, i, t, seed):
        """Elements of the blocks of the degree-t strand of C_i, keyed as H
        is: their scalars are their block coordinates, and the block fixes
        the monomial x^(b - m_key) of each basis column."""
        rng = random.Random(seed)
        keys = list(H.mdegs[i])
        blocks = sorted({tuple(map(add, H.mdegs[i][keys[g]], m.exps))
                         for g, m in strand_basis(H.complex, i, t, H.extra)})
        assert blocks
        for b in blocks:
            basis = H.basis(i, b)
            assert [m.exps for _, m in basis] == [
                tuple(map(sub, b, H.mdegs[i][keys[g]])) for g, _ in basis
            ]
            vec = {k: rng.choice((1, -1, 2, Fraction(1, 3)))
                   for k in range(len(basis))}
            x = Element(b, {keys[g]: vec[k] for k, (g, _) in enumerate(basis)})
            assert H.coords(i, x) == vec

    def test_coordinates_round_trip_koszul_strand(self, R4):
        K = koszul_on_variables(R4)
        Q = [R4.parse_monomial("x1^2"), R4.parse_monomial("x2*x3")]
        H = Homology(K, Q, K.meta["subsets"])
        for i, t in ((1, 3), (2, 3), (2, 4)):
            self._round_trip(H, i, t, seed=10 * i + t)

    def test_coordinates_round_trip_taylor_strand(self, R4):
        I = minimalize_generators(
            R4, [R4.parse_monomial(g) for g in ("x1^2", "x1*x2", "x3*x4")]
        )
        H = Homology(taylor_complex(I))
        for i, t in ((1, 3), (2, 4), (3, 5)):
            self._round_trip(H, i, t, seed=10 * i + t)

    def test_coordinates_reject_terms_outside_the_strand(self, R4):
        K = koszul_on_variables(R4)
        H = Homology(K, None, K.meta["subsets"])
        # e_2 has multidegree x2, which lies below no block of x1^2
        with pytest.raises(KeyError):
            H.coords(1, Element((2, 0, 0, 0), {(1,): 1}))
        # x1^2 e_{} is absent from the block x1^2 over R/(x1^2)
        H = Homology(K, [R4.parse_monomial("x1^2")], K.meta["subsets"])
        assert H.coords(1, Element((2, 0, 0, 0), {(0,): 1})) == {0: 1}
        with pytest.raises(KeyError):
            H.coords(0, Element((2, 0, 0, 0), {(): 1}))


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``__future__`` excepted)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_detected():
    src = "from a import b, c\nimport d.e\nimport f as g\nprint(c, d)\n"
    assert _unused_imports(src) == ["b (line 1)", "g (line 3)"]


def test_no_unused_imports():
    package = Path(__file__).resolve().parent.parent / "src" / "transverse"
    found = {
        path.name: _unused_imports(path.read_text())
        for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
    }
    assert found and not {name: u for name, u in found.items() if u}


def _tracer_targets() -> list[tuple[str, str]]:
    """(module, attribute) of every entry of TARGETS in perfbench/tracer.py,
    read from the source so that nothing is imported or written there."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_tracer_targets_resolve():
    import importlib

    targets = _tracer_targets()
    assert targets
    missing = []
    for modname, attr in targets:
        home = importlib.import_module(f"transverse.{modname}")
        if "." in attr:
            # the tracer patches a method in the class's own __dict__
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name, None)
            ok = cls is not None and meth in vars(cls)
        else:
            ok = callable(getattr(home, attr, None))
        if not ok:
            missing.append(f"{modname}.{attr}")
    assert not missing
