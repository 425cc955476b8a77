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
from transverse.poly import Monomial, Ring, monomials_of_degree
from transverse.resolutions import koszul_on_variables, taylor_complex

from conftest import koszul, variables
from polynomial_elements import (
    PolyMatrix, Polynomial, compose, p_add, p_mul, poly_diff,
)


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


# the records that keep a hand-written constructor, since each validates,
# normalises or derives a value, or gives each instance fresh lists
HAND_WRITTEN = {
    "Monomial", "Ring", "MonomialIdeal", "EchelonForm", "ValidationReport",
    "ProductCertificate", "ActionCertificate", "ProbeReport",
}


def _record_classes() -> dict:
    """{name: class} of every Record subclass the package defines."""
    # dg and obstructions are the modules with records that importing the
    # package does not load
    import transverse.dg
    import transverse.obstructions
    from transverse.errors import Record

    found, todo = {}, [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("transverse."):
                found[sub.__name__] = sub
            todo.append(sub)
    return found


def _generated(cls) -> bool:
    from transverse.errors import _constructor

    return cls.__init__.__code__ is _constructor("", ()).__code__


def _stores_only(init: ast.FunctionDef) -> bool:
    """Whether the body of ``init`` only stores parameters as they are,
    by ``self.f = p`` or ``_set(self, "f", p)`` (a docstring aside)."""
    params = {a.arg for a in init.args.args[1:]}
    body = init.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]

    def stores(node):
        if isinstance(node, ast.Assign):
            value, (target,) = node.value, node.targets
            return isinstance(target, ast.Attribute) and isinstance(
                value, ast.Name) and value.id in params
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            args = node.value.args
            return len(args) == 3 and isinstance(args[2], ast.Name) and (
                args[2].id in params)
        return False

    return bool(body) and all(map(stores, body))


def _plain_constructors(source: str) -> list[str]:
    """The Record subclasses of ``source`` whose ``__init__`` only stores
    its parameters, the work the generated constructor does."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
            isinstance(b, ast.Name) and b.id == "Record" for b in node.bases
        ):
            found += [node.name for f in node.body
                      if isinstance(f, ast.FunctionDef)
                      and f.name == "__init__" and _stores_only(f)]
    return found


def _records():
    """(record, its field tuple, an equal record, an unequal record of the
    same class, its repr) for the four hashed value types and for
    KoszulClass, which is immutable but has no hash."""
    from transverse.golod import KoszulClass
    from transverse.ideals import MonomialIdeal

    R = Ring(("x", "y"))
    x2, x3, xy, y = (Monomial(e) for e in ((2, 0), (3, 0), (1, 1), (0, 1)))
    # the modulus and the generators are made minimal on construction
    Q = Ring(("x", "y"), PrimeField(3), (x3, x2, xy))
    I = MonomialIdeal(R, (x3, y, x2))
    # a stand-in rep of None: the class is unhashable all the same
    z = KoszulClass(1, 1, (1, 0), 0, "z0", None)
    return [
        (Monomial((1, 2)), ((1, 2),), Monomial((1, 2)), Monomial((2, 1)),
         "Monomial(exps=(1, 2))"),
        (R, (("x", "y"), QQ, ()), Ring(("x", "y")), Ring(("x", "z")),
         "QQ[x,y]"),
        (Q, (("x", "y"), PrimeField(3), (x2, xy)),
         Ring(("x", "y"), PrimeField(3), (xy, x2)),
         Ring(("x", "y"), QQ, (x2, xy)), "GF(3)[x,y]/(x^2,x*y)"),
        (I, (R, (x2, y)), MonomialIdeal(R, (y, x2)), MonomialIdeal(R, (x3, y)),
         "MonomialIdeal(ring=QQ[x,y], gens=(Monomial(exps=(2, 0)), "
         "Monomial(exps=(0, 1))))"),
        (z, (1, 1, (1, 0), 0, "z0", None),
         KoszulClass(1, 1, (1, 0), 0, "z0", None),
         KoszulClass(1, 1, (1, 0), 1, "z1", None),
         "KoszulClass(i=1, t=1, b=(1, 0), index=0, label='z0', rep=None)"),
    ]


class TestRecords:
    """The hashed value types hash their field tuple, compare on it within
    one class and refuse assignment; KoszulClass compares and refuses the
    same way but has no hash.  ``lcm_lattice`` returns a frozenset of
    Monomials, so the hash fixes an iteration order and with it output
    bytes.  A record with no ``__init__`` of its own gets one from the base
    that takes exactly its fields, positionally and in ``_fields`` order."""

    @pytest.mark.parametrize("case", range(5))
    def test_hash_equality_and_repr(self, case):
        x, fields, twin, other, text = _records()[case]
        if case == 4:
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == hash(fields) == hash(twin)
        assert x == twin and not x != twin
        assert x != other and not x == other
        assert x != fields and not x == fields and x != "x"
        assert x.__eq__(fields) is NotImplemented
        assert repr(x) == text

    @pytest.mark.parametrize(
        "case, name", enumerate(("exps", "names", "modulus", "gens", "rep"))
    )
    def test_fields_are_immutable(self, case, name):
        x, fields = _records()[case][:2]
        value = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert getattr(x, name) is value and value in fields

    def test_a_koszul_class_with_its_representative_is_unhashable(self, R4):
        from transverse.golod import koszul_homology

        H = koszul_homology(minimalize_generators(R4, [R4.parse_monomial("x1")]))
        with pytest.raises(TypeError):
            hash(H.classes[0])

    def test_construction_checks(self, R4):
        from transverse.ideals import MonomialIdeal

        with pytest.raises(DomainError, match="negative exponent"):
            Monomial((1, -1))
        with pytest.raises(DomainError, match="distinct"):
            Ring(("x", "x"))
        with pytest.raises(DimensionError, match="variable count"):
            Ring(("x", "y"), QQ, (Monomial((1, 0, 0)),))
        with pytest.raises(DomainError, match="unit ideal"):
            Ring(("x", "y"), QQ, (Monomial((0, 0)),))
        with pytest.raises(DomainError, match="variable count"):
            MonomialIdeal(R4, (Monomial((1, 0)),))

    @pytest.mark.parametrize(
        "name", ["1", "", "x^2", "x*y", "2x", "x-y", " x", 1, None]
    )
    def test_ring_refuses_names_its_monomials_cannot_read(self, name):
        with pytest.raises(DomainError, match="variable name"):
            Ring(("x", name))

    def test_ring_accepts_identifier_names(self):
        R = Ring(("x", "_y", "z10", "X_1"))
        m = R.parse_monomial("x*_y^2*z10*X_1^3")
        assert R.parse_monomial(R.format_monomial(m)) == m

    def test_ring_names_in_a_list_are_a_tuple(self):
        from transverse.golod import koszul_homology

        R = Ring(["x1", "x2"])
        assert R.names == ("x1", "x2") and R == Ring(("x1", "x2"))
        assert hash(R) == hash(Ring(("x1", "x2")))
        # koszul_homology hashes the ring (koszul_on_variables is cached)
        H = koszul_homology(minimalize_generators(R, [R.parse_monomial("x1*x2")]))
        assert H.dims() == {1: 1}

    def test_mutable_records_compare_by_fields_and_do_not_hash(self):
        # row_at is derived, so neither equality nor repr reads it
        a = linalg.EchelonForm(2, [0], [{0: 1, 1: 2}], QQ)
        assert a == linalg.echelon([{0: 2, 1: 4}], 2, QQ)
        assert a != linalg.EchelonForm(3, [0], [{0: 1, 1: 2}], QQ)
        assert a.row_at == {0: {0: 1, 1: 2}}
        assert repr(a) == (
            "EchelonForm(ncols=2, pivots=[0], rows=[{0: 1, 1: 2}], field=QQ)"
        )
        with pytest.raises(TypeError):
            hash(a)

    def test_the_records_that_keep_their_constructor(self):
        records = _record_classes()
        kept = {name for name, cls in records.items() if not _generated(cls)}
        assert kept == HAND_WRITTEN
        assert len(records) - len(kept) == 16

    @pytest.mark.parametrize("name", sorted(
        n for n, c in _record_classes().items() if _generated(c)))
    def test_fields_round_trip(self, name):
        cls = _record_classes()[name]
        n = len(cls._fields)
        values = tuple(object() for _ in range(n))
        x = cls(*values)
        got = x._values(x)
        assert (got,) == values if n == 1 else got == values
        assert all(getattr(x, f) is v for f, v in zip(cls._fields, values))
        with pytest.raises(TypeError, match=f"takes {n} positional"):
            cls(*values[1:])
        with pytest.raises(TypeError, match=f"but {n + 1} were given"):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*values[1:], **{cls._fields[0]: values[0]})

    def test_plain_constructors_detected(self):
        src = (
            "class A(Record):\n"
            "    def __init__(self, a, b):\n"
            "        'doc'\n"
            "        self.a = a\n"
            "        _set(self, 'b', b)\n"
            "class B(Record):\n"
            "    def __init__(self, a):\n"
            "        self.a = [] if a is None else a\n"
            "class C:\n"
            "    def __init__(self, a):\n"
            "        self.a = a\n"
        )
        assert _plain_constructors(src) == ["A"]

    def test_no_record_writes_a_constructor_that_only_stores(self):
        package = Path(__file__).resolve().parent.parent / "src" / "transverse"
        found = {
            path.name: _plain_constructors(path.read_text())
            for path in sorted(package.glob("*.py"))
        }
        assert found and not {name: c for name, c in found.items() if c}


def test_obstruction_names_load_on_first_access():
    # importing the package does not load transverse.obstructions (the
    # import gate in test_cli.py checks that in a fresh interpreter); its
    # four exported names still resolve through the package
    import transverse
    from transverse import obstructions, tate_resolution

    assert transverse.avramov_obstruction is obstructions.avramov_obstruction
    assert tate_resolution is obstructions.tate_resolution
    for name in ("tor_over_quotient", "verify_injectivity"):
        assert getattr(transverse, name) is getattr(obstructions, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        transverse.no_such_name
    star: dict = {}
    exec("from transverse import *", star)
    assert star["verify_injectivity"] is obstructions.verify_injectivity
    assert star["obstructions"] is obstructions


class TestPolynomials:
    """The sum and product of ``polynomial_elements``, which the reference
    tests compute with, and the read-only view itself."""

    def test_product_of_conjugates(self, Rxy):
        x, y = (Polynomial.from_monomial(Rxy, m) for m in variables(Rxy))
        plus, minus = p_add(x, y), p_add(x, p_mul(y, -1))
        assert p_mul(plus, minus) == p_add(p_mul(x, x), p_mul(p_mul(y, y), -1))

    def test_mul_by_zero(self, Rxy):
        p = Polynomial(Rxy, dict.fromkeys(variables(Rxy), 1))
        assert p_mul(p, Polynomial(Rxy, {})).is_zero and p_mul(p, 0).is_zero

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
            assert p_mul(p, q) == p_mul(q, p)
            assert p_mul(p_mul(p, q), r) == p_mul(p, p_mul(q, r))

    def test_product_of_variables(self, Rxy):
        x, y = (Polynomial.from_monomial(Rxy, m) for m in variables(Rxy))
        assert p_mul(x, y) == Polynomial.from_monomial(Rxy, Rxy.parse_monomial("x*y"))
        assert p_mul(x, y) == p_mul(y, x)

    def test_quotient_ring_reduction(self, Rxy):
        S = Rxy.quotient([Rxy.parse_monomial("x*y")])
        x, y = variables(S)
        # the view drops a term that the ring kills
        assert Polynomial(S, {x * y: 1, x * x: 2}).term_dict() == {x * x: 2}
        assert Polynomial.from_monomial(S, x * y).is_zero

    def test_str_deterministic(self, R4):
        x1, x2, _, x4 = variables(R4)
        assert str(Polynomial(R4, {x4: 1, x1: 1, x2: -2})) == "x1 - 2*x2 + x4"


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
                {c: F.scalar(v) for (_, c, v) in row if v} for row in data
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
    def test_koszul_relation(self, Rxy):
        # d_1 d_2 = 0 on the view of the Koszul complex on x, y
        K = koszul(Rxy)
        assert poly_diff(K, 1).entries[0, 0] == Polynomial.from_monomial(Rxy, variables(Rxy)[0])
        assert compose(poly_diff(K, 1), poly_diff(K, 2)) == PolyMatrix(Rxy, 1, 1, {})


def test_ring_kills_matches_divisibility(R4, Rxy):
    # Ring.kills reads an exponent tuple
    Q = R4.quotient([R4.parse_monomial(m) for m in ("x1^2", "x2*x3", "x4^3")])
    for exps in itertools.product(range(4), repeat=4):
        m = Monomial(exps)
        assert Q.kills(exps) == any(g.divides(m) for g in Q.modulus), exps
    assert not R4.kills((9, 0, 0, 0))
    # an exponent tuple over another number of variables is refused
    with pytest.raises(DimensionError):
        Q.kills((1, 0))
    with pytest.raises(DimensionError):
        Q.kills((0, 0, 0, 0, 1))
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
        F2 = Ring(Rxy.names, PrimeField(2))
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
