"""Reference copies of the polynomial element helpers that the package
replaced by block elements on scalars (``transverse.exterior.Element``),
and the polynomial view they compute with.

:class:`Polynomial` and :class:`PolyMatrix` were the package's read-only
output view of the scalar tables.  They moved here less
``Polynomial.__bool__``, ``PolyMatrix.zero`` and ``PolyMatrix.__repr__``,
which nothing calls; the package formats each entry s x^(m_c - m_r) of
``C.table(i)`` through ``Ring.format_term`` instead.  :func:`poly_diff`
reads d_i of a complex as a ``PolyMatrix``, as ``C.diff(i)`` did.  The
sum, product, scaling, column and composition that the references call
are the plain functions :func:`p_add`, :func:`p_mul`, :func:`column` and
:func:`compose` here; :func:`one` is the unit, and :func:`chain_map` reads
the scalar tables of a chain map as polynomial matrices.

An element here is a plain dict mapping a basis key to a nonzero
``Polynomial``.  ``KElement``, ``k_acc``, ``k_axpy``, ``k_apply``,
``k_coords``, ``k_element``, ``k_wedge``, ``k_diff`` and ``k_with_ring``
are the earlier code, copied unchanged except that they call these
functions for the removed operators, and that ``k_diff`` and
``k_with_ring`` build with the ``Polynomial`` constructor what the removed
``Polynomial.mul_monomial`` and ``Polynomial.with_ring`` returned.  The
reference tests compute with them; :func:`as_polynomial` reads a block
element as one of them.

:func:`product_tables`, :func:`product_value`, :func:`product_to_json` and
:func:`action_tables` are the polynomial view of the DG products and module
actions of ``transverse.dg``, which were their ``tables``, ``value`` and
``to_json``, moved here unchanged except that each is a function of the
product or action, and ``product_value`` reads tables already built.
"""

from functools import lru_cache
from operator import add, sub

from transverse.dg import DegreeOneProduct
from transverse.errors import DimensionError, RingMismatchError
from transverse.exterior import Element, wedge_subsets
from transverse.fields import PrimeField
from transverse.poly import Monomial, Ring


class Polynomial:
    """A sparse polynomial, read-only: finite map monomial -> nonzero scalar.

    Construction drops zero coefficients and monomials that vanish in the
    ring (quotient by a monomial ideal), and over GF(p) brings each
    coefficient into [0, p) by :meth:`PrimeField.scalar`, so values are
    always canonical.
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: Ring, terms: dict):
        if isinstance(ring.field, PrimeField):
            terms = {m: ring.field.scalar(c) for m, c in terms.items()}
        self.ring = ring
        self._terms = {m: c for m, c in terms.items() if c and not ring.kills(m.exps)}

    @classmethod
    def from_monomial(cls, ring: Ring, m: Monomial, coeff=1) -> "Polynomial":
        return cls(ring, {m: coeff})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Term pairs in canonical (descending lex) order."""
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key())

    def term_dict(self) -> dict:
        return dict(self._terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __str__(self):
        if not self._terms:
            return "0"
        parts = [self.ring.format_term(m.exps, c) for m, c in self.terms()]
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


class PolyMatrix:
    """A sparse matrix of polynomials, read-only; absent entries are zero."""

    __slots__ = ("ring", "nrows", "ncols", "entries")

    def __init__(self, ring: Ring, nrows: int, ncols: int, entries: dict):
        if nrows < 0 or ncols < 0:
            raise DimensionError("negative matrix dimension")
        clean = {}
        for (r, c), p in entries.items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise DimensionError(f"entry index ({r},{c}) out of range")
            if p.ring != ring:
                raise RingMismatchError("matrix entry in wrong ring")
            if not p.is_zero:
                clean[(r, c)] = p
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.entries = clean

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.entries == other.entries
        )


def _term(ring, hi, lo, s) -> Polynomial:
    """s x^(hi - lo) in ``ring``."""
    return Polynomial.from_monomial(ring, Monomial(tuple(map(sub, hi, lo))), s)


@lru_cache(maxsize=1024)
def poly_diff(C, i: int) -> PolyMatrix:
    """d_i of the complex C as a PolyMatrix, the entry s x^(m_c - m_r) at
    (r, c) for each scalar of ``C.table(i)``; a zero matrix of the right
    shape off the range.  A complex hashes by identity and is immutable,
    so the view is kept per (C, i), as the complex once kept it: the
    references read d_i inside their loops.  Read it, do not change it."""
    md = C.mdegs
    return PolyMatrix(C.ring, C.rank(i - 1), C.rank(i), {
        (r, c): _term(C.ring, md[i][c], md[i - 1][r], s)
        for c, col in C.table(i).items() for r, s in col
    })


KElement = dict  # generator index or subset tuple -> Polynomial


def one(ring: Ring) -> Polynomial:
    return Polynomial(ring, {ring.one_monomial(): 1})


def p_add(p: Polynomial, q: Polynomial) -> Polynomial:
    """p + q, in the ring of p."""
    terms = p.term_dict()
    for m, c in q.term_dict().items():
        terms[m] = terms.get(m, 0) + c
    return Polynomial(p.ring, terms)


def p_mul(p: Polynomial, q) -> Polynomial:
    """p q for a polynomial q, or p scaled by a scalar q; terms that the
    ring kills drop out on construction."""
    if not isinstance(q, Polynomial):
        return Polynomial(p.ring, {m: q * c for m, c in p.term_dict().items()})
    acc: dict = {}
    for m1, c1 in p.term_dict().items():
        for m2, c2 in q.term_dict().items():
            acc[m1 * m2] = acc.get(m1 * m2, 0) + c1 * c2
    return Polynomial(p.ring, acc)


def column(A: PolyMatrix, c: int) -> dict:
    """{r: A[r, c]} over the nonzero entries of column c."""
    return {r: p for (r, cc), p in A.entries.items() if cc == c}


def compose(A: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    """The matrix product A B."""
    acc: dict = {}
    for (r, k), p in A.entries.items():
        for c, q in ((c, q) for (kk, c), q in B.entries.items() if kk == k):
            pq = p_mul(p, q)
            acc[r, c] = p_add(acc[r, c], pq) if (r, c) in acc else pq
    return PolyMatrix(A.ring, A.nrows, B.ncols, acc)


def chain_map(source, target, tables) -> list:
    """The polynomial view of the scalar tables {e: [(g, s)]} of a chain
    map source -> target (``resolutions.lift_comparison_map``): phi_i as a
    PolyMatrix with the entry s x^(m_e - m_g) at (g, e)."""
    ring = source.ring
    return [
        PolyMatrix(ring, target.rank(i), source.rank(i), {
            (g, e): _term(ring, source.mdegs[i][e], target.mdegs[i][g], s)
            for e, col in table.items() for g, s in col
        })
        for i, table in enumerate(tables)
    ]


def k_acc(acc: dict, key, p: Polynomial) -> None:
    """acc[key] += p in place, dropping the key when the sum is zero."""
    cur = acc.get(key)
    s = p if cur is None else p_add(cur, p)
    if s.is_zero:
        acc.pop(key, None)
    else:
        acc[key] = s


def k_axpy(acc: KElement, c, x: KElement) -> None:
    """acc += c x in place; c is a scalar or a polynomial."""
    for key, p in x.items():
        k_acc(acc, key, p_mul(p, c))


def k_apply(A: PolyMatrix, x: KElement) -> KElement:
    """A x for an element keyed by the column indices of A."""
    out: KElement = {}
    for c, p in x.items():
        k_axpy(out, p, column(A, c))
    return out


def k_wedge(x: KElement, y: KElement) -> KElement:
    out: KElement = {}
    for S, p in x.items():
        for T, q in y.items():
            st = wedge_subsets(S, T)
            if st is not None:
                k_acc(out, st[1], p_mul(p_mul(p, q), st[0]))
    return out


def _var_monomial(ring: Ring, j: int):
    exps = [0] * ring.nvars
    exps[j] = 1
    return Monomial(tuple(exps))


def k_diff(ring: Ring, x: KElement) -> KElement:
    """Koszul differential with d(e_i) = x_i, extended as an antiderivation:
    d(p e_{j1..jr}) = sum_l (-1)^(l+1) x_{jl} p e_{S minus jl}."""
    out: KElement = {}
    for S, p in x.items():
        for pos, j in enumerate(S):
            rest = tuple(v for v in S if v != j)
            sign = 1 if pos % 2 == 0 else -1
            xj = _var_monomial(ring, j)
            shifted = Polynomial(p.ring, {m * xj: c for m, c in p.term_dict().items()})
            k_acc(out, rest, p_mul(shifted, sign))
    return out


def k_with_ring(x: KElement, ring: Ring) -> KElement:
    out = {}
    for S, p in x.items():
        q = Polynomial(ring, p.term_dict())
        if not q.is_zero:
            out[S] = q
    return out


def k_coords(x: KElement, index: dict) -> dict:
    """Coordinates of ``x`` in a strand basis {(key, monomial): column}.

    Raises KeyError if some term lies outside the strand (wrong degree)."""
    return {
        index[(key, mono)]: coeff
        for key, p in x.items()
        for mono, coeff in p.term_dict().items()
    }


def k_element(vec: dict, basis: list, ring: Ring) -> KElement:
    """Inverse of :func:`k_coords` for a strand basis [(key, monomial)] of
    monomials nonzero in ``ring``."""
    acc: dict = {}
    for col, coeff in vec.items():
        key, mono = basis[col]
        acc.setdefault(key, {})[mono] = coeff
    return {key: Polynomial(ring, terms) for key, terms in acc.items()}


def as_polynomial(ring: Ring, x: Element) -> KElement:
    """The block element x = (b, {S: s}) as {S: s x^(b - 1_S)} over
    ``ring``."""
    return {
        S: Polynomial(ring, {Monomial(tuple(
            e - (k in S) for k, e in enumerate(x.b)
        )): s})
        for S, s in x.terms.items()
    }


# ---------------------------------------------------------------------------
# the polynomial view of the DG products and module actions


def _elements(C, level: int, table: dict, left, right) -> dict:
    """The polynomial values {(u, v): {w: c x^(left[u] + right[v] - m_w)}}
    of the scalars ``table`` of a map into C_level; ``left`` and ``right``
    give the multidegrees of the sources."""
    ring, md = C.ring, C.mdegs
    return {
        (u, v): {
            w: _term(ring, tuple(map(add, left[u], right[v])), md[level][w], c)
            for w, c in terms
        }
        for (u, v), terms in table.items()
    }


def product_tables(prod) -> dict:
    """key -> {(u, v): {w: polynomial}} of a ``DegreeOneProduct`` (keyed by
    j, the bidegree (1, j)) or a ``FullProduct`` (keyed by (i, j))."""
    C, md = prod.complex, prod.complex.mdegs
    out = {}
    for key, tab in prod.scalars.items():
        i, j = (1, key) if isinstance(prod, DegreeOneProduct) else key
        out[key] = _elements(C, i + j, tab, md[i], md[j])
    return out


def product_value(tables: dict, key, u: int, v: int) -> dict:
    """f_u . f_v at ``key`` (j, or (i, j)) of :func:`product_tables`."""
    return tables.get(key, {}).get((u, v), {})


def product_to_json(prod) -> dict:
    """Tables as triple lists: [left index, right index, result vector]."""
    label = str if isinstance(prod, DegreeOneProduct) else "%d,%d".__mod__
    return {
        label(key): [
            [u, v, {str(w): str(p) for w, p in sorted(val.items())}]
            for (u, v), val in sorted(tab.items())
        ]
        for key, tab in sorted(product_tables(prod).items())
    }


def action_tables(act) -> dict:
    """(i, j) -> {(subset, v): {w: polynomial}} of a ``ModuleAction``."""
    subsets, mK = act.koszul.meta["subsets"], act.koszul.mdegs
    md = act.complex.mdegs
    return {
        (i, j): _elements(
            act.complex, i + j, tab, dict(zip(subsets[i], mK[i])), md[j]
        )
        for (i, j), tab in act.scalars.items()
    }
