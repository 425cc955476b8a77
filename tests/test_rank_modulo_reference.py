"""Differential tests: ranks modulo the boundaries in one forward pass
(``linalg.rank_modulo`` and ``Homology.rank_modulo``) against the RREF
path they replaced in the Kunneth rows and the Golod product clause.

``linalg.rank_modulo(base, rows)`` is compared with rank(base + rows) -
rank(base) on seeded random integer, rational and GF(p) rows.
``Homology.rank_modulo`` is compared, block by block, with the rank of the
block coordinates (``coords``) reduced by the boundary RREF
(``boundaries``), on the Kunneth images h = d(z_a) ^ z_b and the products
h_k ^ h_l of three transverse pairs over QQ, GF(2) and GF(3).  Controls:
h plus a boundary keeps its rank, a boundary in place of h drops it by
one, a key off the block raises KeyError, elements of two blocks raise
ValueError and a map with d o d != 0 is refused.  Count gates pin the eliminations that ``kunneth_map`` and
``verify_golod`` still take.
"""

import copy
import itertools
import random

import pytest

from transverse import linalg
from transverse.complexes import Homology
from transverse.errors import DomainError
from transverse.exterior import Element, k_diff, k_sum, k_wedge
from transverse.fields import QQ, PrimeField
from transverse.golod import golod_basis, kunneth_map, verify_golod
from transverse.poly import Ring

from conftest import ideal
from test_elimination_reference import combination, random_rows
from test_stratum_reference import not_a_complex

FIELDS = [QQ, PrimeField(2), PrimeField(3)]
NAMES = ("x1", "x2", "x3", "x4", "x5")
PAIRS = {
    "flagship": (4, ("x1", "x2"), ("x3", "x4")),
    "squares": (4, ("x1^2", "x1*x2"), ("x3^2", "x4^2")),
    "kunneth5": (5, ("x1^2", "x1*x2", "x2*x3"), ("x4^2", "x4*x5")),
}


# ---------------------------------------------------------------------------
# linalg.rank_modulo


def integer_rows(rng, nrows, ncols):
    return [{c: v for c in rng.sample(range(ncols), rng.randint(0, ncols))
             if (v := rng.randint(-4, 4))} for _ in range(nrows)]


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3),
                                   PrimeField(32003)], ids=str)
@pytest.mark.parametrize("seed", range(12))
def test_linalg_rank_modulo_is_the_rank_difference(field, seed):
    rng = random.Random(4100 + seed)
    ncols = rng.randint(1, 9)
    for make in (integer_rows, lambda rng, n, c: random_rows(rng, field, n, c, 0.5)):
        base = make(rng, rng.randint(0, 7), ncols)
        rows = make(rng, rng.randint(0, 5), ncols)
        if base:
            # rows in the span of the base, alone and beside the others
            inside = [combination(rng, field, rng.sample(base, min(3, len(base))))
                      for _ in range(2)]
            assert linalg.rank_modulo(base, inside, field) == 0
            rows += inside
        rng.shuffle(rows)
        before = copy.deepcopy((base, rows))
        want = linalg.rank(base + rows, field) - linalg.rank(base, field)
        assert linalg.rank_modulo(base, rows, field) == want
        assert (base, rows) == before
        assert linalg.rank_modulo([], rows, field) == linalg.rank(rows, field)


# ---------------------------------------------------------------------------
# Homology.rank_modulo on the Golod basis


def golod_case(name, field):
    """(basis, ref): the Golod basis of the pair and a second K (x) R/IJ,
    on which the reference ranks are taken."""
    n, I, J = PAIRS[name]
    R = Ring(NAMES[:n], field)
    basis = golod_basis(ideal(R, *I), ideal(R, *J))
    K = basis.KIJ.complex
    return basis, Homology(K, basis.quotient.modulus, K.meta["subsets"])


def reference_rank(ref: Homology, i: int, xs: list) -> int:
    """The rank of xs modulo the boundaries on the RREF path: block
    coordinates reduced by ``boundaries``, then ranked."""
    B = ref.boundaries(i, xs[0].b)
    return linalg.rank([B.reduce(ref.coords(i, x)) for x in xs],
                       ref.complex.ring.field)


def blocks(basis) -> tuple:
    """({(n, b): [h]}, {(n, b): [h_k ^ h_l]}): the Kunneth images and the
    nonzero products of degree at most nvars, k <= l, by block."""
    q, h = basis.quotient, basis.h
    degrees = [basis.vdeg(k) - 1 for k in range(len(h))]
    images, products = {}, {}
    for k, x in enumerate(h):
        images.setdefault((degrees[k], x.b), []).append(x)
    for k, l in itertools.combinations_with_replacement(range(len(h)), 2):
        n = degrees[k] + degrees[l]
        if n <= q.nvars and (x := k_wedge(q, h[k], h[l])).terms:
            products.setdefault((n, x.b), []).append(x)
    return images, products


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", PAIRS)
def test_rank_modulo_equals_the_rref_path(name, field):
    basis, ref = golod_case(name, field)
    KIJ = basis.KIJ
    images, products = blocks(basis)
    # on the five-variable pair every product h_k ^ h_l is zero in R/IJ
    assert images and bool(products) == (name != "kunneth5")
    for (n, _), xs in [*images.items(), *products.items()]:
        assert KIJ.rank_modulo(n, xs) == reference_rank(ref, n, xs)
        for x in xs:
            assert KIJ.is_boundary(n, x) == (not reference_rank(ref, n, [x]))
    # the images are a basis of H(R/IJ): independent modulo the boundaries
    assert all(KIJ.rank_modulo(n, xs) == len(xs) for (n, _), xs in images.items())
    assert not KIJ.images and not KIJ.indexes and not KIJ.strata


def off_block_keys(ref: Homology, i: int, b: tuple):
    """The keys of C_i absent from the block b."""
    return [key for key in ref.mdegs[i] if key not in ref.strand_index(i, b)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", PAIRS)
def test_controls(name, field):
    basis, ref = golod_case(name, field)
    q, KIJ = basis.quotient, basis.KIJ
    images, _ = blocks(basis)
    swapped = absent = 0
    for (n, b), hs in images.items():
        rank = KIJ.rank_modulo(n, hs)
        # the boundaries d(e_T) of the keys T present in degree n + 1
        upper = (Element(b, {T: 1}) for T in ref.strand_index(n + 1, b))
        for d in (d for e in upper if (d := k_diff(q, e)).terms):
            plus = k_sum(q, [(1, hs[0]), (1, d)])
            assert KIJ.rank_modulo(n, [plus, *hs[1:]]) == rank
            assert KIJ.rank_modulo(n, [d, *hs[1:]]) == rank - 1
            assert KIJ.is_boundary(n, d) and not KIJ.is_boundary(n, plus)
            swapped += 1
        for key in off_block_keys(ref, n, b):
            off = Element(b, {**hs[0].terms, key: 1})
            with pytest.raises(KeyError):
                KIJ.rank_modulo(n, [off, *hs[1:]])
            with pytest.raises(KeyError):
                KIJ.is_boundary(n, off)
            absent += 1
    assert swapped and absent
    # elements of two blocks are refused
    mixed = [hs[0] for (n, _), hs in images.items() if n == 1]
    assert len(mixed) > 1
    with pytest.raises(ValueError):
        KIJ.rank_modulo(1, mixed)


def test_a_map_that_is_not_a_complex_is_refused():
    C = not_a_complex()
    H = Homology(C)
    b = C.mdegs[4][0]
    for i in range(C.length):
        x = Element(b, {0: 1})
        with pytest.raises(DomainError) as err:
            H.rank_modulo(i, [x])
        assert str(err.value) == "homology needs a complex, but d o d != 0"
        with pytest.raises(DomainError):
            H.is_boundary(i, x)
    assert not H.images and not H.ranks


# ---------------------------------------------------------------------------
# count gates


def count_calls(monkeypatch, targets) -> dict:
    """{name: calls} of each (owner, name) in ``targets``, counted from now."""
    calls = dict.fromkeys((name for _, name in targets), 0)
    for owner, name in targets:
        def counted(*args, _f=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_kunneth_elimination_count_gate(monkeypatch):
    # kunneth_map on (x1^2, x1x2, x2x3), (x4^2, x4x5) takes the 6 echelon
    # calls of the strata of K (x) R/I and K (x) R/J and builds no strand
    # index; the Kunneth rows ranked on the boundary RREFs took 21 echelon
    # and 15 strand_index calls
    R = Ring(NAMES)
    I, J = ideal(R, "x1^2", "x1*x2", "x2*x3"), ideal(R, "x4^2", "x4*x5")
    calls = count_calls(monkeypatch, [(linalg, "echelon"),
                                      (Homology, "strand_index")])
    cert = kunneth_map(I, J)
    assert cert.ok and [(r.n, r.rank) for r in cert.rows] == [(1, 6), (2, 7), (3, 2)]
    assert calls == {"echelon": 6, "strand_index": 0}


def test_golod_elimination_count_gate(monkeypatch, flagship):
    # verify_golod on the flagship at n_max 5 takes no echelon call: its
    # Koszul homologies of I and J have no boundaries to reduce by, and the
    # Kunneth rows and the product clause rank modulo the boundaries
    # (14 echelon and 17 strand_index calls on the boundary RREFs)
    calls = count_calls(monkeypatch, [(linalg, "echelon"),
                                      (Homology, "strand_index")])
    assert verify_golod(*flagship, n_max=5).ok
    assert calls == {"echelon": 0, "strand_index": 0}
