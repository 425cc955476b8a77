"""Differential tests: the elimination kernel against reference copies of
the straightforward code it replaced.

``EchelonForm.reduce`` visits only the pivots in a vector's support,
``kernel_basis`` builds its free-column vectors in one pass over the RREF
rows, ``_int_row`` clears denominators in integer arithmetic and
``StrandHomology.express`` reads coordinates off the cached RREFs.  Each is
compared here, value for value and in dict key order, with the full-sweep
or ``solve``-based version below, on seeded random sparse matrices over QQ
(with non-integral entries), GF(2) and GF(32003), and on the strata of
Koszul homology.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from transverse import linalg
from transverse.fields import QQ, PrimeField
from transverse.golod import koszul_homology
from transverse.ideals import ideal_product
from transverse.poly import Ring

from conftest import ideal

FIELDS = [QQ, PrimeField(2), PrimeField(32003)]


# ---------------------------------------------------------------------------
# reference implementations


def reduce_ref(ech, vec):
    """Subtract the projection of ``vec``, sweeping every pivot."""
    v = dict(vec)
    prime = getattr(ech.field, "p", 0)
    for p, row in zip(ech.pivots, ech.rows):
        c = v.get(p)
        if not c:
            continue
        for col, val in row.items():
            s = v.get(col, 0) - c * val
            if prime:
                s %= prime
            if s:
                v[col] = s
            else:
                v.pop(col, None)
    return v


def kernel_basis_ref(rows, ncols, field):
    """Free-column vectors built column by column, scanning every pivot."""
    ech = linalg.echelon(rows, ncols, field)
    pivset = set(ech.pivots)
    free = [c for c in range(ncols) if c not in pivset]
    one = field.one
    vecs = []
    for f in free:
        v = {f: one}
        for p, row in zip(ech.pivots, ech.rows):
            c = row.get(f)
            if c:
                v[p] = -c
        vecs.append(v)
    if not vecs:
        return []
    return linalg.echelon(vecs, ncols, field).rows


def int_row_ref(row):
    """Clear denominators through Fraction multiplication."""
    if not row:
        return {}
    denom = 1
    for v in row.values():
        if isinstance(v, Fraction):
            denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = {c: int(v * denom) if isinstance(v, Fraction) else v * denom
            for c, v in row.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return {c: v for c, v in ints.items() if v}


def express_ref(sh, vec):
    """Coordinates by one augmented elimination of [representatives |
    boundaries]."""
    k = len(sh.representatives)
    cols = sh.representatives + sh._boundaries.rows
    rows = linalg.rows_from_columns(cols, len(sh.basis))
    sol = linalg.solve(rows, len(cols), vec, sh._field)
    if sol is None:
        return None
    zero = sh._field.zero
    return [sol.get(j, zero) for j in range(k)]


# ---------------------------------------------------------------------------
# random data


def scalar(rng, field):
    if field is QQ:
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 9)))
    return field.from_int(rng.randrange(field.p))


def combination(rng, field, vecs):
    prime = getattr(field, "p", 0)
    out = {}
    for v in vecs:
        c = scalar(rng, field)
        for col, val in v.items():
            s = out.get(col, 0) + c * val
            if prime:
                s %= prime
            if s:
                out[col] = s
            else:
                out.pop(col, None)
    return out


def random_rows(rng, field, nrows, ncols, density):
    """Sparse rows, a few of them combinations of earlier ones, in a
    shuffled column order so dict key order is not sorted."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            rows.append(combination(rng, field, rng.sample(rows, min(2, len(rows)))))
            continue
        cols = [c for c in range(ncols) if rng.random() < density]
        rng.shuffle(cols)
        row = {}
        for c in cols:
            v = scalar(rng, field)
            if v:
                row[c] = v
        rows.append(row)
    return rows


def cases(seed, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        field = rng.choice(FIELDS)
        ncols = rng.randint(1, 14)
        nrows = rng.randint(0, 12)
        density = rng.choice((0.15, 0.35, 0.7))
        yield rng, field, random_rows(rng, field, nrows, ncols, density), ncols


def same(a, b):
    """Equal values and equal key order."""
    return list(a.items()) == list(b.items())


# ---------------------------------------------------------------------------
# the kernel against the references


@pytest.mark.parametrize("seed", range(5))
def test_reduce_matches_full_sweep(seed):
    for rng, field, rows, ncols in cases(seed):
        ech = linalg.echelon(rows, ncols, field)
        vecs = random_rows(rng, field, 6, ncols, 0.5)
        vecs.append(combination(rng, field, rows))
        for vec in vecs:
            got, want = ech.reduce(vec), reduce_ref(ech, vec)
            assert same(got, want)
        # a vector of the row space reduces to zero
        assert ech.reduce(vecs[-1]) == {}


@pytest.mark.parametrize("seed", range(5))
def test_kernel_basis_matches_column_loop(seed):
    for _, field, rows, ncols in cases(100 + seed):
        got = linalg.kernel_basis(rows, ncols, field)
        want = kernel_basis_ref(rows, ncols, field)
        assert len(got) == len(want)
        assert all(same(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("seed", range(5))
def test_int_row_matches_fraction_multiplication(seed):
    rng = random.Random(200 + seed)
    for _ in range(200):
        row = {}
        cols = list(range(rng.randint(0, 10)))
        rng.shuffle(cols)
        for c in cols:
            kind = rng.random()
            if kind < 0.1:
                row[c] = Fraction(0)
            elif kind < 0.3:
                row[c] = rng.randint(-20, 20)
            else:
                row[c] = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        got, want = linalg._int_row(row), int_row_ref(row)
        assert same(got, want)
        assert all(type(v) is int for v in got.values())


@pytest.mark.parametrize("seed", range(3))
def test_int_row_fast_path_matches_fraction_path(seed, monkeypatch):
    rng = random.Random(300 + seed)
    rows = []
    for _ in range(200):
        cols = rng.sample(range(12), rng.randint(0, 10))
        rows.append({c: rng.choice([0, rng.randint(-40, 40)]) for c in cols})
    want = [linalg._int_row({c: Fraction(v) for c, v in row.items()})
            for row in rows]

    def refuse(*args):
        raise AssertionError("an all-int row cleared its denominators")

    # all-int rows take the fast path, which never calls lcm
    monkeypatch.setattr(linalg, "lcm", refuse)
    got = [linalg._int_row(row) for row in rows]
    assert got == want
    assert all(type(v) is int for row in got for v in row.values())


# ---------------------------------------------------------------------------
# express on the strata of Koszul homology


def _homologies():
    R = Ring(("x1", "x2", "x3", "x4"))
    yield koszul_homology(ideal_product(
        ideal(R, "x1^2", "x1*x2"), ideal(R, "x3*x4", "x4^2")
    ))
    Rp = R.with_field(PrimeField(32003))
    yield koszul_homology(ideal_product(
        ideal(Rp, "x1", "x2^2"), ideal(Rp, "x3^2", "x3*x4")
    ))


def test_express_matches_solve_on_every_stratum():
    rng = random.Random(7)
    seen_none = seen_boundary = seen_class = 0
    for H in _homologies():
        field = H.complex.ring.field
        # the classes live on multidegree blocks; add the whole strands
        # they sum to
        assert {type(s) for _, s in H.strata} == {tuple}
        for i, t in H.graded_dims():
            H.stratum(i, t)
        assert {type(s) for _, s in H.strata} == {int, tuple}
        for sh in H.strata.values():
            bounds = sh._boundaries.rows
            vecs = [{}]
            vecs += [{c: field.one} for c in range(len(sh.basis))]
            vecs += list(sh.representatives)
            for _ in range(4):
                vecs.append(combination(rng, field, sh.representatives + bounds))
            if bounds:
                vecs.append(combination(rng, field, bounds))
            for vec in vecs:
                got, want = sh.express(vec), express_ref(sh, vec)
                assert got == want
                if want is None:
                    seen_none += 1
                    continue
                assert [type(c) for c in got] == [type(c) for c in want]
                if vec and not any(want):
                    seen_boundary += 1
                if any(want):
                    seen_class += 1
    assert seen_none and seen_boundary and seen_class
