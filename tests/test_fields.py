import random
import time
from fractions import Fraction

import pytest

from transverse import linalg
from transverse.complexes import tensor_complexes
from transverse.errors import DomainError, RingMismatchError
from transverse.fields import QQ, PrimeField, _is_prime
from transverse.golod import koszul_homology
from transverse.ideals import ideal_product
from transverse.poly import Ring
from transverse.resolutions import taylor_complex

from conftest import ideal, koszul
from polynomial_elements import PolyMatrix, Polynomial, poly_diff

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


def test_large_prime_accepted_quickly():
    # trial division would take about 1.5e9 steps on 2^61 - 1
    start = time.perf_counter()
    F = PrimeField(2**61 - 1)
    assert time.perf_counter() - start < 1
    assert F.scalar(-1) == 2**61 - 2


@pytest.mark.parametrize("n", [
    561,  # a Carmichael number
    3215031751,  # 151 * 751 * 28351, a strong pseudoprime to bases 2, 3, 5, 7
    318665857834031151167461,  # a strong pseudoprime to every base up to 37
    0, 1, 4, 2**61 + 1,
])
def test_composites_refused(n):
    with pytest.raises(DomainError, match="not prime"):
        PrimeField(n)


def test_primality_agrees_with_trial_division():
    def prime(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [p for p in range(2000) if _is_prime(p)] == [
        p for p in range(2000) if prime(p)
    ]


def test_oversized_prime_refused():
    # Miller-Rabin on the bases up to 41 decides primality only below psi_13
    with pytest.raises(DomainError, match="prime fields need p <"):
        PrimeField(3317044064679887385961981)
    with pytest.raises(DomainError, match="prime fields need p <"):
        PrimeField(2**89 - 1)


def test_prime_field_canonical_range():
    F = PrimeField(7)
    x = F.scalar(-3)
    assert type(x) is int and x == 4
    assert F.scalar(10) == F.scalar(3) == 3
    assert (F.zero, F.one) == (0, 1)


def test_fraction_conversion_mod_p():
    F = PrimeField(7)
    assert F.scalar(Fraction(1, 2)) == 4  # 2*4 = 8 = 1 mod 7
    assert F.scalar(Fraction(-3, 5)) == 5  # 5*5 = 25 = -3 mod 7
    with pytest.raises(DomainError):
        F.scalar(Fraction(1, 7))
    with pytest.raises(DomainError):
        F.scalar(0.5)


def test_field_scalar_is_the_table_form():
    # the rule each table applied before fields owned it, kept here as the
    # reference: GF(p) through PrimeField.scalar, over QQ an integral
    # Fraction as its int and anything else unchanged
    def reference(field, c):
        if isinstance(field, PrimeField):
            return field.scalar(c)
        return c.numerator if type(c) is Fraction and c.denominator == 1 else c

    values = [0, 1, -1, 7, -12, 2**70, Fraction(0), Fraction(6, 3),
              Fraction(-8, 4), Fraction(1, 2), Fraction(-3, 5),
              Fraction(22, 7), Fraction(-2**70, 3)]
    # no denominator above vanishes mod 11, 13 or 32003
    for field in (QQ, PrimeField(11), PrimeField(13), PrimeField(32003)):
        for c in values:
            got = field.scalar(c)
            want = reference(field, c)
            assert got == want and type(got) is type(want), (field, c)
    # QQ keeps a non-integral Fraction, and an int, as the same object
    half = Fraction(1, 2)
    assert QQ.scalar(half) is half and QQ.scalar(-5) == -5
    assert type(QQ.scalar(Fraction(-4, 2))) is int
    # GF(p) reduces into [0, p)
    assert PrimeField(11).scalar(-12) == 10 and PrimeField(2).scalar(Fraction(-3, 5)) == 1


def test_fraction_scalars_in_rank_and_koszul_complex():
    F = PrimeField(7)
    assert linalg.rank([{0: Fraction(1, 2)}], F) == 1
    assert linalg.rank([{0: Fraction(1, 2)}, {0: 4}], F) == 1
    with pytest.raises(DomainError):
        linalg.rank([{0: Fraction(1, 7)}], F)


def test_nonprime_modulus_rejected():
    with pytest.raises(DomainError):
        PrimeField(32001)


def test_rings_over_different_primes_do_not_mix():
    R7 = Ring(("x1", "x2"), PrimeField(7))
    R11 = Ring(("x1", "x2"), PrimeField(11))
    x1 = R7.parse_monomial("x1")
    with pytest.raises(RingMismatchError):
        PolyMatrix(R7, 1, 1, {(0, 0): Polynomial.from_monomial(R11, x1)})
    with pytest.raises(RingMismatchError):
        ideal_product(ideal(R7, "x1"), ideal(R11, "x2"))
    with pytest.raises(RingMismatchError):
        tensor_complexes(koszul(R7, 0), koszul(R11, 1))


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
        for f in poly_diff(C, i).entries.values() for s in f.term_dict().values()
    ))
