import random
from fractions import Fraction

import pytest

from transverse import linalg
from transverse.complexes import tensor_complexes
from transverse.errors import DomainError, RingMismatchError
from transverse.fields import QQ, PrimeField
from transverse.golod import koszul_homology
from transverse.ideals import ideal_product
from transverse.poly import Polynomial, Ring
from transverse.resolutions import koszul_complex, taylor_complex

from conftest import ideal

PRIMES = (2, 3, 32003)


def _random_rational(rng):
    num = rng.randint(-50, 50)
    den = rng.randint(1, 30)
    return Fraction(num, den)


@pytest.mark.parametrize("backend", ["rational", "prime"])
def test_field_axioms_on_sampled_triples(backend):
    """Over GF(p) a scalar is an int in [0, p): each operation is the int
    operation followed by the rule :meth:`PrimeField.scalar`, and the
    inverse of a is the rule on the Fraction 1/a."""
    rng = random.Random(20240511)
    field = QQ if backend == "rational" else PrimeField(32003)

    def norm(x):
        return x if field is QQ else field.scalar(x)

    def sample():
        if field is QQ:
            return _random_rational(rng)
        return rng.randint(0, field.p - 1)

    for _ in range(1000):
        a, b, c = (sample() for _ in range(3))
        assert norm(norm(a + b) + c) == norm(a + norm(b + c))
        assert norm(norm(a * b) * c) == norm(a * norm(b * c))
        assert norm(a * norm(b + c)) == norm(norm(a * b) + norm(a * c))
        assert norm(a + norm(-a)) == field.zero
        assert norm(a + field.zero) == a
        assert norm(a * field.one) == a
        if a != field.zero:
            assert norm(a * norm(Fraction(1) / a)) == field.one


def test_prime_field_canonical_range():
    F = PrimeField(7)
    x = F.from_int(-3)
    assert type(x) is int and x == 4
    assert F.from_int(10) == F.from_int(3) == 3
    assert (F.zero, F.one) == (0, 1)


def test_fraction_conversion_mod_p():
    F = PrimeField(7)
    assert F.scalar(Fraction(1, 2)) == 4  # 2*4 = 8 = 1 mod 7
    assert F.scalar(Fraction(-3, 5)) == 5  # 5*5 = 25 = -3 mod 7
    with pytest.raises(DomainError):
        F.scalar(Fraction(1, 7))
    with pytest.raises(DomainError):
        F.scalar(0.5)


def test_fraction_scalars_in_rank_and_koszul_complex():
    F = PrimeField(7)
    assert linalg.rank([{0: Fraction(1, 2)}], F) == 1
    assert linalg.rank([{0: Fraction(1, 2)}, {0: 4}], F) == 1
    with pytest.raises(DomainError):
        linalg.rank([{0: Fraction(1, 7)}], F)
    R = Ring(("x1", "x2"), F)
    x1 = R.parse_monomial("x1")
    K = koszul_complex([Polynomial.from_monomial(R, x1, Fraction(1, 2))])
    assert K.table(1) == {0: [(0, 4)]}
    with pytest.raises(DomainError):
        koszul_complex([Polynomial.from_monomial(R, x1, Fraction(1, 7))])


def test_nonprime_modulus_rejected():
    with pytest.raises(DomainError):
        PrimeField(32001)


def test_rings_over_different_primes_do_not_mix():
    R7 = Ring(("x1", "x2"), PrimeField(7))
    R11 = Ring(("x1", "x2"), PrimeField(11))
    with pytest.raises(RingMismatchError):
        R7.variable(0) + R11.variable(0)
    with pytest.raises(RingMismatchError):
        ideal_product(ideal(R7, "x1"), ideal(R11, "x2"))
    with pytest.raises(RingMismatchError):
        tensor_complexes(koszul_complex([R7.variable(0)]),
                         koszul_complex([R11.variable(1)]))


def _assert_in_range(p, scalars):
    scalars = list(scalars)
    assert scalars
    assert all(type(s) is int and 0 <= s < p for s in scalars)


@pytest.mark.parametrize("p", PRIMES)
def test_every_prime_field_scalar_is_an_int_in_range(p):
    F = PrimeField(p)
    rng = random.Random(p)
    # rows with negative ints and Fractions whose denominators are units
    rows = [
        {c: rng.choice((-1, 2, -5, 7, Fraction(1, 5), Fraction(-2, 7)))
         for c in rng.sample(range(8), 4)}
        for _ in range(6)
    ]
    ech = linalg.echelon(rows, 8, F)
    _assert_in_range(p, (s for row in ech.rows for s in row.values()))
    reduced = ech.reduce({c: -1 for c in range(8)}).values()
    assert all(type(s) is int and 0 <= s < p for s in reduced)
    kernel = linalg.kernel_basis(rows, 8, F)
    _assert_in_range(p, (s for v in kernel for s in v.values()))
    rhs = {0: -1, 3: Fraction(1, 5)}
    sol = linalg.solve([{c: 1} for c in range(8)], 8, rhs, F)
    _assert_in_range(p, sol.values())

    R = Ring(("x1", "x2", "x3", "x4"), F)
    I = ideal(R, "x1^2", "x1*x2", "x2*x3")
    H = koszul_homology(ideal_product(I, ideal(R, "x3", "x4^2")))
    _assert_in_range(p, (
        s for c in H.classes for v in H.stratum(c.i, c.b).representatives
        for s in v.values()
    ))
    _assert_in_range(p, (s for c in H.classes for s in c.rep.terms.values()))
    C = taylor_complex(I)
    _assert_in_range(p, (
        s for i in range(1, C.length + 1)
        for f in C.diff(i).entries.values() for s in f.term_dict().values()
    ))
