"""Reference copies of the polynomial element helpers that the package
replaced by block elements on scalars (``transverse.exterior.Element``).

An element here is a plain dict mapping a basis key to a nonzero
``Polynomial``.  ``KElement``, ``k_acc``, ``k_axpy``, ``k_apply``,
``k_coords``, ``k_element``, ``k_wedge``, ``k_diff`` and ``k_with_ring``
are the earlier code, copied unchanged except that ``k_diff`` and
``k_with_ring`` build with the ``Polynomial`` constructor what the removed
``Polynomial.mul_monomial`` and ``Polynomial.with_ring`` returned.  The
reference tests compute with them; :func:`as_polynomial` reads a block
element as one of them.
"""

from transverse.exterior import Element, wedge_subsets
from transverse.poly import Monomial, PolyMatrix, Polynomial, Ring

KElement = dict  # generator index or subset tuple -> Polynomial


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
            xj = _var_monomial(ring, j)
            shifted = Polynomial(p.ring, {m * xj: c for m, c in p.term_dict().items()})
            k_acc(out, rest, shifted.scale(sign))
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
