"""Differential tests: complexes stored as monomial-matrix scalar tables
against reference copies of the polynomial code they replaced.

``reference_twisted_koszul`` is the earlier polynomial builder of the Golod
and Tate resolutions, unchanged except that it is handed words with their
internal degree (the total of the multidegree the builder now takes): it
applies ``k_diff`` and ``k_wedge`` to every basis key and collects the
polynomials through ``complex_from_boundary``.  ``reference_validate`` is
the earlier ``validate_complex``: the homogeneity clause and d o d as a
``PolyMatrix`` product, which drops killed monomials on the way.

On Koszul, Taylor, star, Golod and Tate complexes over R and over R/Q, and
over QQ, GF(2) and GF(32003), the tests assert that

- the polynomial view of each complex equals the reference complex entry
  for entry, in the same order, with the same degrees and labels;
- ``validate_complex`` returns the same ``ok`` and ``problems`` as the
  reference, on each complex and on its mutants: a flipped sign, a dropped
  entry, the entries of a complex over R/Q read over R (where the terms of
  d o d that die only in R/Q survive) and an entry moved off its
  multidegree.  Every mutant is one the reference rejects.
"""

import random
from itertools import islice

import pytest

from transverse import golod, obstructions
from transverse.complexes import (
    GradedFreeComplex,
    ValidationReport,
    complex_from_boundary,
    star_product,
    validate_complex,
)
from transverse.errors import DomainError
from transverse.exterior import k_acc, k_diff, k_wedge
from transverse.fields import QQ, PrimeField
from transverse.golod import golod_resolution
from transverse.ideals import MonomialIdeal
from transverse.obstructions import tate_resolution
from transverse.poly import Monomial, PolyMatrix, Polynomial, Ring
from transverse.resolutions import _subset_label, koszul_complex, taylor_complex

FIELDS = [QQ, PrimeField(2), PrimeField(32003)]
NAMES = ("x1", "x2", "x3", "x4")


# ---------------------------------------------------------------------------
# reference implementations


def reference_validate(C):
    """d o d = 0 and homogeneity on the polynomial differentials."""
    problems = []
    for i in range(1, C.length + 1):
        mat = C.diff(i)
        rdegs, cdegs = C.degs(i - 1), C.degs(i)
        for (r, c), p in sorted(mat.entries.items()):
            want = cdegs[c] - rdegs[r]
            if want < 0:
                problems.append(
                    f"d_{i}[{r},{c}] maps degree {cdegs[c]} below degree {rdegs[r]}"
                )
            elif p.homogeneous_degree != want:
                problems.append(
                    f"d_{i}[{r},{c}] = {p} is not homogeneous of degree {want}"
                )
        if problems:
            break
    for i in range(1, C.length):
        comp = C.diff(i) @ C.diff(i + 1)
        if not comp.is_zero:
            r, c = sorted(comp.entries)[0]
            problems.append(
                f"d_{i} o d_{i + 1} != 0, first nonzero entry at ({r},{c}): "
                f"{comp.entries[(r, c)]}"
            )
            break
    return ValidationReport(not problems, problems)


def reference_twisted_koszul(S, words, n_max, twist, word_label):
    """The polynomial twisted Koszul builder; ``words`` carry the internal
    degree of each word."""
    from itertools import combinations

    n = S.nvars
    levels = [[] for _ in range(n_max + 1)]
    internal = {}
    for w, d, ti in words:
        internal[w] = ti
        for h in range(min(n, n_max - d) + 1):
            levels[d + h].extend((T, w) for T in combinations(range(n), h))
    twists = {}

    def boundary(key):
        T, w = key
        front = {T: Polynomial.one(S)}
        out = {(U, w): p for U, p in k_diff(S, front).items()}
        if w not in twists:
            twists[w] = twist(w)
        base = -1 if len(T) % 2 else 1
        for s, a, rest in twists[w]:
            for U, p in k_wedge(front, a).items():
                k_acc(out, (U, rest), p.scale(base * s))
        return out

    C = complex_from_boundary(
        S, levels, lambda key: len(key[0]) + internal[key[1]],
        lambda key: _subset_label("e", key[0]) + word_label(key[1]),
        boundary,
    )
    return C, levels


def twisted_pair(monkeypatch, module, build):
    """The complex that ``build()`` makes through ``module.twisted_koszul``
    and the reference builder's complex on the same words and twist."""
    seen = []
    original = module.twisted_koszul

    def recording(S, words, n_max, twist, word_label):
        seen.append((S, words, n_max, twist, word_label))
        return original(S, words, n_max, twist, word_label)

    monkeypatch.setattr(module, "twisted_koszul", recording)
    C = build()
    (S, words, n_max, twist, word_label), = seen
    ref, _ = reference_twisted_koszul(
        S, [(w, d, sum(m)) for w, d, m in words], n_max, twist, word_label
    )
    return C, ref


# ---------------------------------------------------------------------------
# instances


def random_monomial(rng, vars_, lo=1, hi=2):
    exps = [0] * len(NAMES)
    while not lo <= sum(exps) <= hi:
        exps = [rng.randint(0, hi) if k in vars_ else 0 for k in range(len(NAMES))]
    return Monomial(tuple(exps))


def random_ideal(ring, rng, vars_, ngens):
    return MonomialIdeal(
        ring, tuple(random_monomial(rng, vars_) for _ in range(ngens))
    )


def instances(field, seed):
    """[(name, complex)]: complexes built from polynomials over one field."""
    rng = random.Random(seed)
    R = Ring(NAMES, field)
    Q = R.quotient([random_monomial(rng, range(4), 2, 3) for _ in range(2)])
    out = [
        ("koszul over R", koszul_complex([
            Polynomial.from_monomial(R, random_monomial(rng, range(4)))
            for _ in range(3)
        ])),
        ("koszul over R/Q", koszul_complex(Q.variables())),
        ("taylor", taylor_complex(random_ideal(R, rng, range(4), 3))),
        ("star", star_product(
            taylor_complex(random_ideal(R, rng, (0, 1), 2)),
            taylor_complex(random_ideal(R, rng, (2, 3), 2)),
        )),
    ]
    return out


def golod_pair(monkeypatch, R, rng):
    I = random_ideal(R, rng, (0, 1), rng.randint(1, 2))
    J = random_ideal(R, rng, (2, 3), rng.randint(1, 2))
    return twisted_pair(monkeypatch, golod, lambda: golod_resolution(I, J, 4))


def tate_pair(monkeypatch, R, rng):
    # a linear element kills its variable, so d(e_k) = 0 over S; the
    # quadric leaves d o d = 0 only modulo itself
    a = [Monomial((1, 0, 0, 0)), random_monomial(rng, (2, 3), 2, 2)]
    return twisted_pair(
        monkeypatch, obstructions, lambda: tate_resolution(a, R, 4).complex
    )


# ---------------------------------------------------------------------------
# mutants of a polynomial complex


def with_diffs(C, ring, diffs):
    return GradedFreeComplex(ring, C.degrees, diffs, C.labels)


def replaced(C, i, key, p):
    """C with entry ``key`` of d_i set to ``p`` (dropped when zero)."""
    diffs = list(C.diffs)
    entries = dict(diffs[i - 1].entries)
    entries[key] = p
    diffs[i - 1] = PolyMatrix(C.ring, C.rank(i - 1), C.rank(i), entries)
    return with_diffs(C, C.ring, diffs)


def moved_off(C, i, key):
    """Entry ``key`` of d_i with one exponent moved to another variable,
    each way the ring does not kill."""
    ((mono, c),) = C.diff(i).entries[key].term_dict().items()
    for k, e in enumerate(mono.exps):
        for k2 in range(len(mono.exps)):
            if e and k2 != k:
                exps = list(mono.exps)
                exps[k] -= 1
                exps[k2] += 1
                p = Polynomial(C.ring, {Monomial(tuple(exps)): c})
                if p:
                    yield replaced(C, i, key, p)


def mutants(C, rng):
    """{kind: mutants, made when drawn} of the kinds that apply, in a
    seeded order of the entries."""
    entries = [
        (i, key) for i in range(1, C.length + 1) for key in sorted(C.diff(i).entries)
    ]
    rng.shuffle(entries)
    out = {
        "flipped sign": (
            replaced(C, i, key, -C.diff(i).entries[key]) for i, key in entries
        ),
        "dropped entry": (
            replaced(C, i, key, Polynomial.zero(C.ring)) for i, key in entries
        ),
        "off its multidegree": (m for i, key in entries for m in moved_off(C, i, key)),
    }
    if C.ring.modulus:
        base = C.ring.base()
        out["dies only in R/Q"] = iter([
            with_diffs(C, base, [d.with_ring(base) for d in C.diffs])
        ])
    return out


def assert_same_verdicts(C, rng, must_reject=()):
    """validate_complex agrees with the reference on C and on the first
    mutant of each kind that the reference rejects; ``must_reject`` names
    the kinds where some mutant has to be rejected."""
    assert validate_complex(C) == reference_validate(C)
    for kind, found in mutants(C, rng).items():
        rejected = [m for m in islice(found, 8) if not reference_validate(m).ok]
        assert rejected or kind not in must_reject, kind
        for m in rejected[:2]:
            want = reference_validate(m)
            assert validate_complex(m) == want, (kind, want.problems)
            assert not want.ok


def assert_same_complex(C, ref):
    assert C.degrees == ref.degrees and C.labels == ref.labels
    for i in range(1, C.length + 1):
        assert list(C.diff(i).entries.items()) == list(ref.diff(i).entries.items())


def as_tables(C):
    """C rebuilt from its multidegrees and scalar tables."""
    return GradedFreeComplex.from_tables(
        C.ring, C.mdegs, [C.table(i) for i in range(1, C.length + 1)], C.labels
    )


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_polynomial_complexes_round_trip_and_validate(field, seed):
    cases = instances(field, seed)
    rng = random.Random(100 + seed)
    for name, C in cases:
        # reading the tables off the polynomials and viewing them again
        # gives the polynomials back
        assert_same_complex(as_tables(C), C)
        must = {"dropped entry", "off its multidegree"}
        if field.name != "GF(2)":
            must.add("flipped sign")
        assert_same_verdicts(C, rng, must if C.length > 1 else ())


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_golod_and_tate_match_the_polynomial_builder(field, seed, monkeypatch):
    R = Ring(NAMES, field)
    rng = random.Random(200 + seed)
    for C, ref in (golod_pair(monkeypatch, R, rng), tate_pair(monkeypatch, R, rng)):
        assert C._diffs is None  # the view is built only here
        assert_same_complex(C, ref)
        assert validate_complex(C) == reference_validate(ref)
        must = {"dropped entry", "dies only in R/Q"}
        if field.name != "GF(2)":
            must.add("flipped sign")
        assert_same_verdicts(ref, rng, must)


def test_mutants_of_the_tables_match_their_views():
    # a sign flipped in a stored table, as the Golod and Tate certificates
    # read them: the scalar d o d and the view's polynomial d o d agree
    R = Ring(NAMES, QQ)
    C = tate_resolution([Monomial((1, 0, 0, 0)), Monomial((0, 0, 1, 1))], R, 4).complex
    for i in range(1, C.length + 1):
        for c, col in sorted(C.table(i).items()):
            tables = [dict(C.table(j)) for j in range(1, C.length + 1)]
            tables[i - 1][c] = [(col[0][0], -col[0][1])] + col[1:]
            mutant = GradedFreeComplex.from_tables(C.ring, C.mdegs, tables)
            want = reference_validate(mutant)
            assert validate_complex(mutant) == want
            if i < C.length:
                assert not want.ok


def test_not_single_terms_take_the_polynomial_path():
    R = Ring(NAMES)
    x1, x2, x3, _ = R.variables()
    K = koszul_complex([x1 + x2, x3])
    with pytest.raises(DomainError, match="not a single term"):
        K.mdegs
    assert validate_complex(K) == reference_validate(K)
    bad = replaced(K, 1, (0, 0), x1 + x3)
    assert validate_complex(bad) == reference_validate(bad)
    assert not validate_complex(bad).ok
