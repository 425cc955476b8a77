"""Multihomogeneous elements of the Koszul algebra K (x) R/Q, on scalars.

Every element the Golod and obstruction machinery makes lies in one
multidegree b: the Koszul cycles, the Kunneth images d(z_a) ^ z_b, the
trivial Massey values and the Tate cycles.  On b each exterior basis key
S, a sorted tuple of variable indices of multidegree 1_S, has the fixed
monomial x^(b - 1_S) (the monomial-matrix view of Miller-Sturmfels,
Combinatorial Commutative Algebra, ch. 1).  So an :class:`Element` is its
block b and one scalar per key: the term at S is s x^(b - 1_S) e_S.  A
scalar is stored in the table form of ``field.scalar``, so ``Homology``
reads an element as block coordinates with no conversion.

An element holds no zero scalar and no term its ring kills.  It does not
carry its ring: each operation takes the ring it works in, and
:func:`k_restrict` reads an element in a quotient of its ring.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from .errors import DomainError


class Element(NamedTuple):
    """sum of s x^(b - 1_S) e_S over the items (S, s) of ``terms``."""

    b: tuple
    terms: dict


def wedge_subsets(S: tuple, T: tuple):
    """Merge sign and union for e_S ^ e_T, or None when they overlap."""
    if set(S) & set(T):
        return None
    inversions = sum(1 for s in S for t in T if s > t)
    sign = -1 if inversions % 2 else 1
    return sign, tuple(sorted(S + T))


def _monomial(b: tuple, S: tuple) -> tuple:
    """The exponents of x^(b - 1_S)."""
    return tuple(e - (k in S) for k, e in enumerate(b))


def _element(ring, b: tuple, acc: dict) -> Element:
    """The element of block b with the sums ``acc``, without the zero
    scalars and the terms ``ring`` kills."""
    scalar = ring.field.scalar
    killed = ring.kills if ring.modulus else None
    return Element(b, {
        S: s for S, v in acc.items()
        if (s := scalar(v)) and not (killed and killed(_monomial(b, S)))
    })


def k_wedge(ring, x: Element, y: Element) -> Element:
    """x ^ y: the blocks add, and each pair of keys merges with the sign
    of :func:`wedge_subsets`."""
    acc: dict = {}
    for S, s in x.terms.items():
        for T, t in y.terms.items():
            st = wedge_subsets(S, T)
            if st is not None:
                acc[st[1]] = acc.get(st[1], 0) + st[0] * s * t
    return _element(ring, tuple(map(add, x.b, y.b)), acc)


def k_diff(ring, x: Element) -> Element:
    """The Koszul differential d(e_i) = x_i as an antiderivation: the term
    s x^(b - 1_S) e_S goes to sum_l (-1)^(l+1) s x^(b - 1_{S minus j_l})
    e_{S minus j_l}, in the same block b."""
    acc: dict = {}
    for S, s in x.terms.items():
        for pos in range(len(S)):
            rest = S[:pos] + S[pos + 1:]
            acc[rest] = acc.get(rest, 0) + (-s if pos % 2 else s)
    return _element(ring, x.b, acc)


def k_restrict(ring, x: Element) -> Element:
    """x read in ``ring``, a ring on the same variables and field: the
    terms it kills dropped."""
    if not ring.modulus:
        return x
    return Element(x.b, {
        S: s for S, s in x.terms.items() if not ring.kills(_monomial(x.b, S))
    })


def k_sum(ring, parts) -> Element:
    """sum c x over the pairs (c, x) of ``parts``, a nonempty list of
    elements of one block and integer coefficients c.  Raises DomainError
    for elements of different blocks."""
    b = parts[0][1].b
    acc: dict = {}
    for c, x in parts:
        if x.b != b:
            raise DomainError(f"elements of the blocks {b} and {x.b} added")
        for S, s in x.terms.items():
            acc[S] = acc.get(S, 0) + c * s
    return _element(ring, b, acc)
