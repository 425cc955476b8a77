"""Differential tests: complexes built as monomial-matrix scalar tables
against reference copies of the polynomial builders they replaced.

The references below are the earlier polynomial code, copied unchanged
except that each returns a :class:`RefComplex` (degrees, ``PolyMatrix``
differentials, labels and meta, which the earlier complex stored), that
they call the arithmetic of ``polynomial_elements`` for the removed
``Polynomial`` and ``PolyMatrix`` operators, and that
``reference_twisted_koszul`` takes the internal degree of each word:

- ``reference_complex_from_boundary`` collects polynomial boundaries;
- ``reference_tensor_boundary``, ``reference_tensor`` and
  ``reference_star`` (with its front differential d1^F (x) d1^G) multiply
  and scale the polynomial entries of their factors;
- ``reference_koszul``, ``reference_taylor``, ``reference_truncation`` and
  ``reference_minimize`` (unit pruning with polynomial Schur updates);
- ``reference_twisted_koszul`` applies ``k_diff`` and ``k_wedge`` to every
  basis key of a Golod or Tate resolution, with each twist value read as a
  polynomial element (``polynomial_elements.as_polynomial``);
- ``reference_validate`` checks homogeneity and d o d as a ``PolyMatrix``
  product, which drops killed monomials on the way.

On seeded inputs over QQ, GF(2) and GF(32003), over R and over R/Q, the
tests assert that

- the polynomial view of each complex equals the reference complex entry
  for entry and in order, with the same degrees, labels and meta.  A table
  holds d_i column by column, so the view of a minimized complex lists its
  columns in turn; within each column the order is the reference's;
- ``validate_complex`` returns the same ``ok`` and ``problems`` as the
  reference, on each complex and on its mutants: a flipped sign, a dropped
  entry and the tables of a complex over R/Q read over R (where the terms
  of d o d that die only in R/Q survive).  A flipped sign or a dropped
  entry is rejected exactly when some term of some d_i o d_{i+1} survives
  in R/Q;
- the builders build no ``Polynomial``, which has no arithmetic.
"""

import random
from fractions import Fraction
from itertools import combinations, islice
from operator import sub

import pytest

from transverse import complexes, golod, obstructions, resolutions
from transverse.complexes import (
    GradedFreeComplex,
    ValidationReport,
    star_product,
    stupid_truncation,
    table_scalar,
    tensor_complexes,
    tensor_basis,
    validate_complex,
)
from transverse.errors import DimensionError, DomainError
from transverse.fields import QQ, PrimeField
from transverse.golod import golod_resolution
from transverse.ideals import MonomialIdeal
from transverse.obstructions import tate_resolution
from transverse.poly import Monomial, PolyMatrix, Polynomial, Ring
from transverse.resolutions import (
    _subset_label, koszul_complex, minimize_complex, taylor_complex,
)

from conftest import assert_polynomials_only_a_view, koszul, variables
from polynomial_elements import (
    as_polynomial, column, compose, k_acc, k_diff, k_wedge, one, p_mul,
)

FIELDS = [QQ, PrimeField(2), PrimeField(32003)]
NAMES = ("x1", "x2", "x3", "x4")


# ---------------------------------------------------------------------------
# reference implementations


class RefComplex:
    """What the earlier complex stored: degrees, polynomial differentials,
    labels and meta."""

    def __init__(self, ring, degrees, diffs, labels=None, meta=None):
        self.ring = ring
        self.degrees = tuple(tuple(d) for d in degrees)
        self.diffs = tuple(diffs)
        if labels is None:
            labels = [[f"F{i}[{k}]" for k in range(len(d))]
                      for i, d in enumerate(self.degrees)]
        self.labels = tuple(tuple(ls) for ls in labels)
        self.meta = dict(meta) if meta else {}

    @property
    def length(self):
        return len(self.degrees) - 1

    def rank(self, i):
        return len(self.degrees[i]) if 0 <= i < len(self.degrees) else 0

    def degs(self, i):
        return self.degrees[i] if 0 <= i < len(self.degrees) else ()

    def diff(self, i):
        if 1 <= i <= self.length:
            return self.diffs[i - 1]
        return PolyMatrix.zero(self.ring, self.rank(i - 1), self.rank(i))


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
            elif {m.degree for m in p.term_dict()} != {want}:
                problems.append(
                    f"d_{i}[{r},{c}] = {p} is not homogeneous of degree {want}"
                )
        if problems:
            break
    for i in range(1, C.length):
        comp = compose(C.diff(i), C.diff(i + 1))
        if comp.entries:
            r, c = sorted(comp.entries)[0]
            problems.append(
                f"d_{i} o d_{i + 1} != 0, first nonzero entry at ({r},{c}): "
                f"{comp.entries[(r, c)]}"
            )
            break
    return ValidationReport(not problems, problems)


def reference_complex_from_boundary(ring, levels, degree, label, boundary, meta=None):
    diffs = []
    for i in range(1, len(levels)):
        idx = {key: r for r, key in enumerate(levels[i - 1])}
        entries: dict = {}
        for col, key in enumerate(levels[i]):
            for lower, p in boundary(key).items():
                k_acc(entries, (idx[lower], col), p)
        diffs.append(PolyMatrix(ring, len(levels[i - 1]), len(levels[i]), entries))
    degrees = [[degree(key) for key in lvl] for lvl in levels]
    labels = [[label(key) for key in lvl] for lvl in levels]
    return RefComplex(ring, degrees, diffs, labels, meta)


def reference_koszul(elements):
    if not elements:
        raise DomainError("need at least one element")
    ring = elements[0].ring
    degs = []
    for a in elements:
        if a.ring != ring:
            raise DomainError("elements over different rings")
        d = {m.degree for m in a.term_dict()}
        if len(d) != 1 or 0 in d:
            raise DomainError(f"{a} is not homogeneous of positive degree")
        degs.append(d.pop())
    c = len(elements)
    subsets = [sorted(combinations(range(c), i)) for i in range(c + 1)]

    def boundary(S):
        return {
            S[:pos] + S[pos + 1:]: p_mul(elements[j], 1 if pos % 2 == 0 else -1)
            for pos, j in enumerate(S)
        }

    return reference_complex_from_boundary(
        ring, subsets, lambda S: sum(degs[j] for j in S),
        lambda S: _subset_label("e", S), boundary, meta={"subsets": subsets},
    )


def reference_taylor(I, gens=None):
    ring = I.ring
    gens = tuple(gens) if gens is not None else I.gens
    r = len(gens)
    subsets = [sorted(combinations(range(r), i)) for i in range(r + 1)]
    one = ring.one_monomial()

    def lcm_of(S):
        m = one
        for j in S:
            m = m.lcm(gens[j])
        return m

    lcms = [{S: lcm_of(S) for S in subsets[i]} for i in range(r + 1)]

    def boundary(S):
        out = {}
        for pos in range(len(S)):
            rest = S[:pos] + S[pos + 1:]
            ratio = lcms[len(S)][S].divide(lcms[len(rest)][rest])
            out[rest] = Polynomial.from_monomial(
                ring, ratio, 1 if pos % 2 == 0 else -1
            )
        return out

    return reference_complex_from_boundary(
        ring, subsets, lambda S: lcms[len(S)][S].degree,
        lambda S: _subset_label("T", S), boundary,
        meta={"subsets": subsets, "lcms": lcms},
    )


def reference_tensor_boundary(F, G, lo=0):
    def boundary(key):
        i, j, fi, gj = key
        out: dict = {}
        if i > lo:
            for r, p in column(F.diff(i), fi).items():
                k_acc(out, (i - 1, j, r, gj), p)
        if j > lo:
            sign = -1 if i % 2 else 1
            for r, p in column(G.diff(j), gj).items():
                k_acc(out, (i, j - 1, fi, r), p_mul(p, sign))
        return out

    return boundary


def reference_tensor(F, G):
    return reference_complex_from_boundary(
        F.ring,
        [tensor_basis(F, G, n) for n in range(F.length + G.length + 1)],
        lambda k: F.degs(k[0])[k[2]] + G.degs(k[1])[k[3]],
        lambda k: f"{F.labels[k[0]][k[2]]}(x){G.labels[k[1]][k[3]]}",
        reference_tensor_boundary(F, G),
    )


def reference_truncation(C, n):
    degrees = [() if i < n else C.degs(i) for i in range(C.length + 1)]
    diffs = []
    for i in range(1, C.length + 1):
        if i > n:
            diffs.append(C.diff(i))
        else:
            diffs.append(
                PolyMatrix.zero(C.ring, len(degrees[i - 1]), len(degrees[i]))
            )
    labels = [() if i < n else C.labels[i] for i in range(C.length + 1)]
    return RefComplex(C.ring, degrees, diffs, labels)


def reference_star(F, G):
    for X in (F, G):
        assert reference_validate(X).ok
    unit = (0, 0, 0, 0)
    higher = reference_tensor_boundary(F, G, lo=1)

    def boundary(key):
        i, j, fi, gj = key
        if i + j > 2:
            return higher(key)
        zero = Polynomial(F.ring, {})
        p = p_mul(column(F.diff(1), fi).get(0, zero), column(G.diff(1), gj).get(0, zero))
        return {} if p.is_zero else {unit: p}

    return reference_complex_from_boundary(
        F.ring,
        [[unit]] + [
            [k for k in tensor_basis(F, G, n + 1) if k[0] >= 1 and k[1] >= 1]
            for n in range(1, F.length + G.length)
        ],
        lambda k: F.degs(k[0])[k[2]] + G.degs(k[1])[k[3]] if k[0] else 0,
        lambda k: f"{F.labels[k[0]][k[2]]}*{G.labels[k[1]][k[3]]}" if k[0] else "1",
        boundary,
    )


def reference_minimize(C):
    ring = C.ring
    length = C.length
    mats = [dict(C.diff(i).entries) for i in range(1, length + 1)]
    alive = [list(range(C.rank(i))) for i in range(length + 1)]
    degs = [list(C.degs(i)) for i in range(length + 1)]

    def constant_term(p):
        return p.term_dict().get(ring.one_monomial(), 0)

    def find_unit():
        for i in range(1, length + 1):
            for (r, c) in sorted(mats[i - 1]):
                if constant_term(mats[i - 1][(r, c)]):
                    return i, r, c
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        i, r, c = hit
        mat = mats[i - 1]
        u = constant_term(mat[(r, c)])
        rowvals = {cc: p for (rr, cc), p in mat.items() if rr == r and cc != c}
        colvals = {rr: p for (rr, cc), p in mat.items() if cc == c and rr != r}
        for rr, pc in colvals.items():
            for cc, pr in rowvals.items():
                k_acc(mat, (rr, cc), p_mul(p_mul(pc, pr), -Fraction(1, u)))
        for key in [k for k in mat if k[0] == r or k[1] == c]:
            del mat[key]
        if i <= length - 1:
            up = mats[i]
            for key in [k for k in up if k[0] == c]:
                del up[key]
        if i >= 2:
            down = mats[i - 2]
            for key in [k for k in down if k[1] == r]:
                del down[key]
        alive[i].remove(c)
        alive[i - 1].remove(r)

    remap = [
        {old: new for new, old in enumerate(alive[i])} for i in range(length + 1)
    ]
    new_degs = [[degs[i][old] for old in alive[i]] for i in range(length + 1)]
    new_labels = [
        [C.labels[i][old] for old in alive[i]] for i in range(length + 1)
    ]
    new_diffs = []
    for i in range(1, length + 1):
        entries = {
            (remap[i - 1][r], remap[i][c]): p for (r, c), p in mats[i - 1].items()
        }
        new_diffs.append(
            PolyMatrix(ring, len(alive[i - 1]), len(alive[i]), entries)
        )
    top = length
    while top > 0 and not new_degs[top]:
        top -= 1
    return RefComplex(
        ring, new_degs[: top + 1], new_diffs[:top], new_labels[: top + 1]
    )


def reference_twisted_koszul(S, words, n_max, twist, word_label):
    """The polynomial twisted Koszul builder; ``words`` carry the internal
    degree of each word, and the twist values are read as polynomial
    elements."""
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
        front = {T: one(S)}
        out = {(U, w): p for U, p in k_diff(S, front).items()}
        if w not in twists:
            twists[w] = twist(w)
        base = -1 if len(T) % 2 else 1
        for s, a, rest in twists[w]:
            for U, p in k_wedge(front, as_polynomial(S, a)).items():
                k_acc(out, (U, rest), p_mul(p, base * s))
        return out

    C = reference_complex_from_boundary(
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


def random_term(ring, rng):
    """x^a alive in ``ring``.  The coefficient that the Koszul inputs
    carried before they became monomials is still drawn, so the seeded
    inputs drawn after it stay as they were."""
    m = random_monomial(rng, range(4))
    while ring.kills(m):
        m = random_monomial(rng, range(4))
    rng.choice((1, -1, 3, -7))
    return m


def pairs(ring, rng):
    """[(name, complex, reference)] over ``ring``: each builder on seeded
    inputs, the same inputs handed to its reference copy."""
    elements = [random_term(ring, rng) for _ in range(3)]
    I = random_ideal(ring, rng, range(4), 3)
    # a redundant generating sequence leaves unit entries to prune
    gens = [random_monomial(rng, range(4)) for _ in range(3)]
    gens += [gens[0].lcm(gens[1]), gens[1].lcm(gens[2])]
    left = random_ideal(ring, rng, (0, 1), 2)
    right = random_ideal(ring, rng, (2, 3), 2)

    T, T_ref = taylor_complex(I), reference_taylor(I)
    K = koszul_complex(elements, ring)
    K_ref = reference_koszul([Polynomial.from_monomial(ring, m) for m in elements])
    redundant = MonomialIdeal(ring, tuple(gens))
    R, R_ref = taylor_complex(redundant, gens), reference_taylor(redundant, gens)
    M, M_ref = minimize_complex(R), reference_minimize(R_ref)
    F, F_ref = taylor_complex(left), reference_taylor(left)
    G, G_ref = taylor_complex(right), reference_taylor(right)
    MF, MF_ref = minimize_complex(F), reference_minimize(F_ref)
    MG, MG_ref = minimize_complex(G), reference_minimize(G_ref)
    V = [Polynomial.from_monomial(ring, m) for m in variables(ring)]
    return [
        ("koszul", K, K_ref),
        ("koszul on the variables", koszul(ring), reference_koszul(V)),
        ("taylor", T, T_ref),
        ("taylor on redundant generators", R, R_ref),
        ("minimized taylor", M, M_ref),
        ("tensor", tensor_complexes(T, K), reference_tensor(T_ref, K_ref)),
        ("truncation", stupid_truncation(R, 1), reference_truncation(R_ref, 1)),
        ("star", star_product(F, G), reference_star(F_ref, G_ref)),
        ("star of minimized", star_product(MF, MG), reference_star(MF_ref, MG_ref)),
    ]


def instances(field, seed):
    """[(name, complex, reference)] over R and over R/Q."""
    rng = random.Random(seed)
    R = Ring(NAMES, field)
    Q = R.quotient([random_monomial(rng, range(4), 2, 3) for _ in range(2)])
    return [
        (f"{name} over {ring_name}", C, ref)
        for ring_name, ring in (("R", R), ("R/Q", Q))
        for name, C, ref in pairs(ring, rng)
    ]


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
# mutants of the tables


def with_tables(C, ring, tables):
    return GradedFreeComplex(ring, C.mdegs, tables, C.labels, C.meta)


def replaced(C, i, c, k, s):
    """C with the k-th entry of column c of d_i set to the scalar ``s``,
    dropped when zero."""
    tables = [dict(C.table(j)) for j in range(1, C.length + 1)]
    col = list(tables[i - 1][c])
    if s:
        col[k] = (col[k][0], s)
    else:
        del col[k]
    tables[i - 1][c] = col
    if not col:
        del tables[i - 1][c]
    return with_tables(C, C.ring, tables)


def mutants(C, rng):
    """{kind: mutants, made when drawn} of the kinds that apply, in a
    seeded order of the entries."""
    scalar = table_scalar(C.ring.field)
    entries = [
        (i, c, k, s)
        for i in range(1, C.length + 1)
        for c, col in sorted(C.table(i).items())
        for k, (_, s) in enumerate(col)
    ]
    rng.shuffle(entries)
    out = {
        "flipped sign": (replaced(C, i, c, k, scalar(-s)) for i, c, k, s in entries),
        "dropped entry": (replaced(C, i, c, k, 0) for i, c, k, _ in entries),
    }
    if C.ring.modulus:
        tables = [C.table(i) for i in range(1, C.length + 1)]
        out["dies only in R/Q"] = iter([with_tables(C, C.ring.base(), tables)])
    return out


def composite_survives(C):
    """True when some term s s' x^(m_c - m_r) of some d_i o d_{i+1}, one
    per entry (r, k) of d_i and (k, c) of d_{i+1}, survives in R/Q.

    Flipping the sign of such an entry, or dropping it, changes the entry
    (r, c) of a zero d_i o d_{i+1} by -2 s s' or -s s', so some flip (in
    odd characteristic) and some drop is rejected exactly when one does."""
    md = C.mdegs
    return any(
        not C.ring.kills(Monomial(tuple(map(sub, md[i + 1][c], md[i - 1][r]))))
        for i in range(1, C.length)
        for c, col in C.table(i + 1).items()
        for k, _ in col
        for r, _ in C.table(i).get(k, ())
    )


def assert_same_verdicts(C, rng, must_reject=(), never_rejected=()):
    """validate_complex agrees with the reference on C and on the first two
    mutants of each kind that the reference rejects, among the first eight
    or, for a kind in ``must_reject``, the first rejected at all.  Some
    mutant of each kind in ``must_reject`` has to be rejected, and none of
    a kind in ``never_rejected`` may be."""
    assert validate_complex(C) == reference_validate(C)
    for kind, found in mutants(C, rng).items():
        verdicts = ((m, reference_validate(m)) for m in found)
        rejected = [m for m, v in islice(verdicts, 8) if not v.ok]
        if kind in must_reject and not rejected:
            rejected = [next((m for m, v in verdicts if not v.ok), None)]
            assert rejected[0] is not None, kind
        if kind in never_rejected:
            assert not rejected and all(v.ok for _, v in verdicts), kind
        for m in rejected[:2]:
            want = reference_validate(m)
            assert validate_complex(m) == want, (kind, want.problems)
            assert not want.ok


def assert_same_complex(C, ref, by_column=False):
    """The view of C is the reference complex, meta included; ``by_column``
    compares the reference's entries column by column, in their order
    within each."""
    assert (C.degrees, C.labels) == (ref.degrees, ref.labels)
    assert C.meta == ref.meta
    assert C.length == ref.length
    for i in range(1, C.length + 1):
        # the view drops no entry: the tables hold none that R/Q kills
        assert len(C.diff(i).entries) == sum(map(len, C.table(i).values()))
        want = list(ref.diff(i).entries.items())
        if by_column:
            want.sort(key=lambda e: e[0][1])
        assert list(C.diff(i).entries.items()) == want


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_polynomial_complexes_round_trip_and_validate(field, seed):
    # every builder gives the complex its polynomial reference gave, and
    # rebuilt from its multidegrees and tables it gives the same view
    rng = random.Random(100 + seed)
    for name, C, ref in instances(field, seed):
        assert_same_complex(C, ref, by_column="minimized" in name)
        tables = [C.table(i) for i in range(1, C.length + 1)]
        assert_same_complex(with_tables(C, C.ring, tables), C)
        assert validate_complex(C) == reference_validate(ref)
        # a mutant is rejected exactly when some term of d o d survives
        kinds = {"dropped entry"}
        if field.name != "GF(2)":
            kinds.add("flipped sign")
        if composite_survives(C):
            assert_same_verdicts(C, rng, must_reject=kinds)
        else:
            assert_same_verdicts(C, rng, never_rejected=kinds)


def test_no_mutant_rejected_when_every_term_of_d_o_d_dies():
    # over QQ[x1..x4]/(x1x2x4, x4^2) the Taylor complex of (x1x4, x2x4)
    # has ranks (1, 2, 1) and d_1 o d_2 lives in the one monomial
    # lcm = x1x2x4, which R/Q kills: flipped or dropped, it stays a complex
    Q = Ring(NAMES, QQ).quotient([Monomial((1, 1, 0, 1)), Monomial((0, 0, 0, 2))])
    I = MonomialIdeal(Q, (Monomial((1, 0, 0, 1)), Monomial((0, 1, 0, 1))))
    C = taylor_complex(I)
    assert C.total_ranks() == (1, 2, 1) and not composite_survives(C)
    assert_same_complex(C, reference_taylor(I))
    kinds = ("flipped sign", "dropped entry")
    assert_same_verdicts(C, random.Random(0), never_rejected=kinds)
    # over R the same tables have the surviving term x1x2x4
    R = with_tables(C, Q.base(), [C.table(1), C.table(2)])
    assert composite_survives(R)
    assert_same_verdicts(R, random.Random(0), must_reject=kinds)


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
        assert_same_verdicts(C, rng, must)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_minimize_drops_a_schur_update_that_r_q_kills(field):
    # d_1 has the unit at (0, 0) and x at (1, 0) and (0, 1): pruning the
    # unit leaves -x^2 at (1, 1) over R, and nothing over R/(x1^2)
    R = Ring(NAMES, field)
    x, x2 = (1, 0, 0, 0), (2, 0, 0, 0)
    zero = (0, 0, 0, 0)
    for ring, want in ((R, 1), (R.quotient([Monomial(x2)]), 0)):
        C = GradedFreeComplex(
            ring, [[x, zero], [x, x2]], [{0: [(0, 1), (1, 1)], 1: [(0, 1)]}]
        )
        M = minimize_complex(C)
        assert_same_complex(
            M, reference_minimize(RefComplex(ring, C.degrees, C.diffs, C.labels))
        )
        assert sum(map(len, M.table(1).values())) == want


def test_mutants_of_the_tables_match_their_views():
    # a sign flipped in a stored table, as the Golod and Tate certificates
    # read them: the scalar d o d and the view's polynomial d o d agree
    R = Ring(NAMES, QQ)
    C = tate_resolution([Monomial((1, 0, 0, 0)), Monomial((0, 0, 1, 1))], R, 4).complex
    for i in range(1, C.length + 1):
        for c, col in sorted(C.table(i).items()):
            tables = [dict(C.table(j)) for j in range(1, C.length + 1)]
            tables[i - 1][c] = [(col[0][0], -col[0][1])] + col[1:]
            mutant = GradedFreeComplex(C.ring, C.mdegs, tables)
            want = reference_validate(mutant)
            assert validate_complex(mutant) == want
            if i < C.length:
                assert not want.ok


def test_koszul_refuses_elements_that_are_not_one_term():
    R = Ring(NAMES)
    x1, x2, x3, _ = variables(R)
    for bad in (Polynomial(R, {x1: 1, x2: 1}), Polynomial.from_monomial(R, x1),
                R.one_monomial(), "x1"):
        with pytest.raises(DomainError, match="not a monomial of positive degree"):
            koszul_complex([bad, x3], R)
    with pytest.raises(DomainError, match="x1\\^2 is zero in"):
        koszul_complex([x1 * x1, x3], R.quotient([x1 * x1]))
    with pytest.raises(DimensionError, match="not over 4 variables"):
        koszul_complex([Monomial((1, 0)), x3], R)


def test_builders_do_no_polynomial_arithmetic(monkeypatch):
    # no Polynomial is built inside a builder, and none builds the view of
    # a complex; there is no Polynomial arithmetic to call
    inside, polynomial_ops = [], []

    def entered(module, name):
        original = getattr(module, name)

        def run(*args, **kwargs):
            inside.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(module, name, run)

    for name in ("koszul_complex", "taylor_complex", "minimize_complex",
                 "twisted_koszul"):
        entered(resolutions, name)
    for name in ("tensor_complexes", "star_product", "stupid_truncation"):
        entered(complexes, name)
    entered(obstructions, "twisted_koszul")
    assert_polynomials_only_a_view()
    original = Polynomial.__init__

    def init(*args):
        if inside:
            polynomial_ops.append(inside[-1])
        original(*args)

    monkeypatch.setattr(Polynomial, "__init__", init)

    R = Ring(NAMES, PrimeField(32003))
    Q = R.quotient([Monomial((1, 1, 0, 0))])
    x1, x2, x3, x4 = variables(R)
    I = MonomialIdeal(R, (Monomial((2, 0, 0, 0)), Monomial((1, 1, 0, 0))))
    J = MonomialIdeal(R, (Monomial((0, 0, 1, 1)), Monomial((0, 0, 0, 2))))
    built = [
        resolutions.koszul_complex([x1, x2, x3 * x4], R),
        koszul(Q),
        complexes.tensor_complexes(
            resolutions.taylor_complex(I), resolutions.taylor_complex(J)
        ),
        complexes.stupid_truncation(resolutions.taylor_complex(I), 1),
    ]
    F = resolutions.minimize_complex(resolutions.taylor_complex(I))
    G = resolutions.minimize_complex(resolutions.taylor_complex(J))
    built.append(complexes.star_product(F, G))
    built.append(tate_resolution([Monomial((1, 0, 0, 0)), Monomial((0, 0, 1, 1))],
                                 R, 4).complex)
    assert polynomial_ops == []
    assert all(C._diffs is None for C in built)
