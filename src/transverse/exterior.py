"""Sparse elements of free modules with polynomial coefficients.

An element is a plain dict mapping a basis key to a nonzero polynomial
coefficient.  The key is a generator index of a free module (a term of a
resolution) or a sorted index tuple (an exterior basis subset of the
Koszul algebra K (x) R/Q).  These are the cycles, wedges, Massey values
and comparison-map columns of the Golod and obstruction machinery; the DG
products and module actions work on monomial-matrix scalars (see ``dg``).

The accumulating helpers write in place, and only into dicts their caller
created; every other helper returns a fresh element.  A strand basis is a
list of (key, monomial) pairs, and :func:`k_coords` and :func:`k_element`
convert between elements and scalar coordinates on it.
"""

from __future__ import annotations

from .poly import Monomial, PolyMatrix, Polynomial, Ring

KElement = dict  # generator index or subset tuple -> Polynomial


def wedge_subsets(S: tuple, T: tuple):
    """Merge sign and union for e_S ^ e_T, or None when they overlap."""
    if set(S) & set(T):
        return None
    inversions = sum(1 for s in S for t in T if s > t)
    sign = -1 if inversions % 2 else 1
    return sign, tuple(sorted(S + T))


def k_acc(acc: dict, key, p: Polynomial) -> None:
    """acc[key] += p in place, dropping the key when the sum is zero."""
    cur = acc.get(key)
    s = p if cur is None else cur + p
    if s.is_zero:
        acc.pop(key, None)
    else:
        acc[key] = s


def k_axpy(acc: KElement, c, x: KElement) -> None:
    """acc += c x in place; c is a scalar or a polynomial."""
    for key, p in x.items():
        k_acc(acc, key, p * c)


def k_is_zero(x: KElement) -> bool:
    return not x


def k_apply(A: PolyMatrix, x: KElement) -> KElement:
    """A x for an element keyed by the column indices of A."""
    out: KElement = {}
    for c, p in x.items():
        k_axpy(out, p, A.column(c))
    return out


def k_wedge(x: KElement, y: KElement) -> KElement:
    out: KElement = {}
    for S, p in x.items():
        for T, q in y.items():
            st = wedge_subsets(S, T)
            if st is not None:
                k_acc(out, st[1], (p * q).scale(st[0]))
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
            k_acc(out, rest, p.mul_monomial(_var_monomial(ring, j)).scale(sign))
    return out


def k_with_ring(x: KElement, ring: Ring) -> KElement:
    out = {}
    for S, p in x.items():
        q = p.with_ring(ring)
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
