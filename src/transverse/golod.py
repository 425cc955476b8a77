"""Koszul homology with explicit cycle representatives, the Kunneth-style
isomorphism for transverse products, the trivial Massey operation, and the
resulting minimal free resolution of the residue field over R/IJ (with its
Poincare series certificate)."""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import product
from operator import add, itemgetter

from .complexes import GradedFreeComplex, Homology, verify_resolution
from .errors import CertificationError, DomainError, Record
from .exterior import Element, k_diff, k_restrict, k_sum, k_wedge
from .ideals import MonomialIdeal, lcm_lattice, maximal_ideal, transverse_product
from .poly import Ring
from .resolutions import betti_numbers, koszul_on_variables, twisted_koszul


class KoszulClass(Record):
    """A basis class of H_i(K (x) R/I) with its canonical cycle representative.

    The representative is an :class:`exterior.Element` of the multidegree
    block ``b``, of total degree ``t``: the scalars {S: s} of its terms
    s x^(b - 1_S) e_S, one per exterior key, read off the canonical
    representative of the block's stratum.  No term lies in I, so it is a
    cycle over the ambient ring and, restricted, over any quotient between.
    Immutable and unhashable, like the dict its ``rep`` holds.
    """

    __slots__ = _fields = ("i", "t", "b", "index", "label", "rep")
    __setattr__ = __delattr__ = Record._immutable


class KoszulHomology(Homology):
    """Basis data for H_{>=1}(K (x) R/I) over the ambient polynomial ring.

    The homology is taken on the multidegree blocks b of the lcm lattice
    L_I: H_i(K (x) R/I)_b = Tor_i(R/I, k)_b, which the Taylor resolution
    computes, vanishes unless b is in L_I (Gasharov-Peeva-Welker, "The
    lcm-lattice in monomial resolutions", 1999).  The block strata are
    cached, so a class is re-expressed in the canonical basis of its block
    later (the Tor_1-product subspace of the obstructions).
    Within a strand t the classes are ordered by the strand position
    (generator, descending lex) of their pivots.

    Each dimension is checked against ``resolutions.betti_numbers``, and the
    check is not circular: the block at b here has the faces T of supp b
    with x^(b-T) not in I, the complement of the upper Koszul complex K^b(I)
    that the oracle ranks.  The long exact sequence of 0 -> I -> R -> R/I
    -> 0 links the two homologies, but they come from different matrices.
    """

    def __init__(self, I: MonomialIdeal):
        if I.is_zero or I.is_unit:
            raise DomainError("Koszul homology needs a nonzero proper ideal")
        ring = I.ring
        if ring.modulus:
            raise DomainError("expected an ideal over the ambient polynomial ring")
        K = koszul_on_variables(ring)
        super().__init__(K, I, K.meta["subsets"])
        blocks: dict = {}  # t -> the blocks of L_I of degree t, in order
        for b in sorted(lcm_lattice(I)):
            blocks.setdefault(sum(b), []).append(b)
        # the lcm-lattice Betti numbers pin the exact (i, t) support of the
        # homology; block elimination then recomputes each dimension
        # independently and the two pipelines must agree on the nose
        table = {
            (i, t): v for (i, t), v in betti_numbers(I).entries.items() if i >= 1
        }
        scalar = ring.field.scalar
        classes = []
        for i, t in sorted(table):
            found = []  # (strand position of the pivot, b, representative)
            for b in blocks.get(t, ()):
                sh = self.stratum(i, b)
                keys = [self.keys[i][g] for g, _ in sh.basis]
                for v in sh.representatives:
                    # the pivot of an RREF row is its leading column
                    g, m = sh.basis[min(v)]
                    rep = Element(b, {keys[c]: scalar(s) for c, s in v.items()})
                    found.append(((g, m.sort_key()), b, rep))
            if len(found) != table[(i, t)]:
                raise CertificationError(
                    f"strand homology dim {len(found)} at ({i},{t}) deviates "
                    f"from the lcm-lattice Betti number {table[(i, t)]}"
                )
            for _, b, rep in sorted(found, key=itemgetter(0)):
                n = len(classes)
                classes.append(KoszulClass(i, t, b, n, f"z{n}", rep))
        self.classes = tuple(classes)

    def dims(self) -> dict:
        out: dict = {}
        for c in self.classes:
            out[c.i] = out.get(c.i, 0) + 1
        return out

    def graded_dims(self) -> dict:
        out: dict = {}
        for c in self.classes:
            out[(c.i, c.t)] = out.get((c.i, c.t), 0) + 1
        return out

    def classes_at(self, i: int):
        return [c for c in self.classes if c.i == i]

    def class_coords(self, i: int, x: Element):
        """The class of a cycle x as a sparse vector over ``classes_at(i)``,
        or None if it is not a cycle class."""
        lam = self.express(i, x)
        if lam is None:
            return None
        at = [k for k, c in enumerate(self.classes_at(i)) if c.b == x.b]
        return {k: v for k, v in zip(at, lam) if v}


def koszul_homology(I: MonomialIdeal) -> KoszulHomology:
    """Basis of H_{>=1}(R/I): Koszul homology of the quotient, with canonical
    representatives; total dimensions equal the Betti numbers of R/I."""
    return KoszulHomology(I)


# ---------------------------------------------------------------------------
# Kunneth map


class KunnethRow(Record):
    __slots__ = _fields = ("n", "dim_source", "dim_target", "rank")

    @property
    def bijective(self) -> bool:
        return self.dim_source == self.dim_target == self.rank


class KunnethCertificate(Record):
    __slots__ = _fields = ("I", "J", "rows")

    @property
    def ok(self) -> bool:
        return all(r.bijective for r in self.rows)


def kunneth_map(I: MonomialIdeal, J: MonomialIdeal) -> KunnethCertificate:
    """Certificate that [z_a] (x) [z_b] -> h_{a,b} = [d(z_a) ^ z_b], the
    classes of ``GolodBasis.h``, is an isomorphism from the shifted tensor
    product of H(R/I) and H(R/J) onto H(R/IJ): row n ranks the images of
    the symbols of degree n + 1 in H_n (the Kunneth bijectivity, Avramov,
    "Infinite free resolutions", 5.2).

    No basis of H(R/IJ) is built.  Each h is checked to be a cycle, and on
    each block b of degree n the rank of the h there modulo the boundaries
    (:meth:`Homology.rank_modulo`, no RREF) is their rank in H_n(R/IJ)_b.
    The blocks are disjoint, so row n sums these ranks.  Its target
    dimension is the lcm-lattice Betti number beta_n(R/IJ)
    (``betti_numbers``), as H_n(K (x) R/IJ) = Tor_n(R/IJ, k).  Independent
    classes as many as the dimension form a basis, so a row with
    dim_source = dim_target = rank is bijective.

    d(z_a ^ z_b) = d(z_a) ^ z_b + (-1)^|z_a| z_a ^ d(z_b) is a boundary in
    K (x) R/IJ, so [d(z_a) ^ z_b] = -(-1)^|z_a| [z_a ^ d(z_b)]: the other
    representative changes each column at most by its sign, and no row.
    """
    IJ = transverse_product(I, J)
    if IJ is None:
        raise DomainError("Kunneth map requires transverse ideals")
    return KunnethCertificate(I, J, _kunneth_rows(_golod_basis(I, J, IJ)))


def _kunneth_rows(basis: GolodBasis) -> list:
    """The rows of :func:`kunneth_map` on the classes ``basis.h``, ranked
    by degree and block modulo the boundaries of ``basis.KIJ``.  Raises
    CertificationError on an h that is not a cycle."""
    q, KIJ = basis.quotient, basis.KIJ
    blocks: dict = {}  # (n, b) -> the h of the block
    for k, h in enumerate(basis.h):
        if k_diff(q, h).terms:
            a, b = basis.pairs[k]
            raise CertificationError(
                f"Kunneth image of ({basis.HI.classes[a].label},"
                f"{basis.HJ.classes[b].label}) is not a cycle class"
            )
        # h_{a,b} lies in the block b_a + b_b
        n = basis.vdeg(k) - 1
        blocks.setdefault((n, h.b), []).append(h)
    ranks: dict = {}
    for (n, _), hs in blocks.items():
        ranks[n] = ranks.get(n, 0) + KIJ.rank_modulo(n, hs)
    dims = basis.dims
    sources = Counter(basis.vdeg(k) - 1 for k in range(len(basis.pairs)))
    return [
        KunnethRow(n, sources[n], dims.get(n, 0), ranks.get(n, 0))
        for n in range(1, max([*dims, *sources], default=0) + 1)
    ]


# ---------------------------------------------------------------------------
# the Golod construction


class GolodBasis(Record):
    """Index data for the Golod resolution of k over R/IJ.

    ``pairs[k] = (a, b)`` enumerates the formal symbols v_{a,b}; the symbol's
    homological degree is |z_a| + |z_b| and its internal degree adds the
    internal degrees of the two classes.  ``h[k]`` is the canonical cycle
    d(z_a) ^ z_b representing the corresponding basis class of H(R/IJ).
    Each class representative is moved to R/IJ once, and d(z_a) is taken
    once per class of H(R/I), on first use.  No basis of H(R/IJ) is built:
    ``KIJ`` ranks the classes of the certificates modulo boundaries, ``dims``
    holds the dimensions, both on first use.  ``IJ`` is the product, built
    once per job, and ``quotient`` its quotient ring R/IJ.
    """

    _fields = ("I", "J", "HI", "HJ", "IJ", "pairs", "h")

    @cached_property
    def quotient(self) -> Ring:
        return self.IJ.quotient_ring()

    @cached_property
    def KIJ(self) -> Homology:
        """K (x) R/IJ over the ambient ring, keyed by exterior keys."""
        K = koszul_on_variables(self.I.ring)
        return Homology(K, self.quotient.modulus, K.meta["subsets"])

    @cached_property
    def dims(self) -> dict:
        """{n: dim H_n(R/IJ)} for n >= 1, from the lcm-lattice oracle."""
        return _homology_dims(self.IJ)

    def vdeg(self, k: int) -> int:
        a, b = self.pairs[k]
        return self.HI.classes[a].i + self.HJ.classes[b].i

    def vmdeg(self, k: int) -> tuple:
        a, b = self.pairs[k]
        return tuple(map(add, self.HI.classes[a].b, self.HJ.classes[b].b))

    @cached_property
    def _reps(self) -> tuple:
        """The representatives of H(R/I) and of H(R/J) in R/IJ, and the
        differentials of the first."""
        q = self.quotient
        zI, zJ = ([k_restrict(q, c.rep) for c in H.classes]
                  for H in (self.HI, self.HJ))
        return zI, zJ, [k_diff(q, z) for z in zI]

    def zI(self, k: int) -> Element:
        return self._reps[0][self.pairs[k][0]]

    def dzI(self, k: int) -> Element:
        return self._reps[2][self.pairs[k][0]]

    def zJ(self, k: int) -> Element:
        return self._reps[1][self.pairs[k][1]]


def golod_basis(I: MonomialIdeal, J: MonomialIdeal) -> GolodBasis:
    IJ = transverse_product(I, J)
    if IJ is None:
        raise DomainError("the Golod construction requires transverse ideals")
    return _golod_basis(I, J, IJ)


def _golod_basis(I: MonomialIdeal, J: MonomialIdeal, IJ: MonomialIdeal) -> GolodBasis:
    """:func:`golod_basis` of a pair already known to be transverse, with
    their product IJ."""
    HI = koszul_homology(I)
    HJ = koszul_homology(J)
    pairs = sorted(
        ((a.index, b.index) for a in HI.classes for b in HJ.classes),
        key=lambda ab: (HI.classes[ab[0]].i + HJ.classes[ab[1]].i, *ab),
    )
    basis = GolodBasis(I, J, HI, HJ, IJ, pairs, [])
    quotient = basis.quotient
    basis.h.extend(
        k_wedge(quotient, basis.dzI(k), basis.zJ(k)) for k in range(len(pairs))
    )
    return basis


def massey_mu(basis: GolodBasis, word: tuple) -> Element:
    """The trivial Massey operation on tuples of basis classes h_{a,b}:
    mu(h_1, ..., h_p) = d(z_{a1}) ^ z_{b1} ^ z_{a2} ^ z_{b2} ^ ... ^ z_{bp},
    reduced in K (x) R/IJ, in the block that sums the multidegrees of the
    symbols of the word."""
    if not word:
        raise DomainError("Massey operation needs a nonempty tuple")
    q = basis.quotient
    out = k_wedge(q, basis.dzI(word[0]), basis.zJ(word[0]))
    for j in range(2, len(word) + 1):
        out = _massey_extend(basis, word[:j], out)
    return out


def _massey_extend(basis: GolodBasis, word: tuple, prefix: Element) -> Element:
    """mu(word) from ``prefix`` = mu(word[:-1]): the last two wedges of the
    left fold in :func:`massey_mu`."""
    k, q = word[-1], basis.quotient
    return k_wedge(q, k_wedge(q, prefix, basis.zI(k)), basis.zJ(k))


def mu_bar(basis: GolodBasis, word: tuple) -> Element:
    """The bar-twisted value of mu on a tuple, with the degree bookkeeping of
    the defining equality chain: bar carries (-1)^(w+1) where w is the sum of
    |z_a| + |z_b| over the tuple (one more than the homological degree of the
    wedge itself, whose leading factor is a differential)."""
    w = sum(basis.vdeg(k) for k in word)
    return k_sum(basis.quotient, [(1 if (w + 1) % 2 == 0 else -1,
                                   massey_mu(basis, word))])


def massey_identity_residual(basis: GolodBasis, word: tuple) -> Element:
    """d mu(word) - sum_i bar(mu(prefix)) ^ mu(suffix); zero exactly when the
    defining trivial-Massey identity holds for this tuple.  Every term lies
    in the block of the word."""
    q = basis.quotient
    return k_sum(q, [(1, k_diff(q, massey_mu(basis, word)))] + [
        (-1, k_wedge(q, mu_bar(basis, word[:i]), massey_mu(basis, word[i:])))
        for i in range(1, len(word))
    ])


class GolodCertificate(Record):
    """``resolution`` is the ResolutionCertificate that C resolves k below
    n_max, and ``kunneth_rows`` are the rows of :func:`kunneth_map`."""

    __slots__ = _fields = (
        "ranks", "series_coeffs", "ranks_match", "resolution", "kunneth_rows",
        "triviality_failures",
    )

    @property
    def ok(self) -> bool:
        return (
            self.ranks_match
            and self.resolution.ok
            and self.resolution.minimal
            and all(r.bijective for r in self.kunneth_rows)
            and not self.triviality_failures
        )


def _words(basis: GolodBasis, max_internal: int, max_deg: int):
    """All tensor words in the v symbols with homological degree <= max_deg
    and internal degree <= max_internal, as (word, homological degree,
    multidegree), ordered by (length, lex); repetition allowed."""
    out = [((), 0, (0,) * basis.quotient.nvars)]
    frontier = out[:]
    while frontier:
        nxt = []
        for word, d, m in frontier:
            for k in range(len(basis.pairs)):
                dd = d + basis.vdeg(k)
                mm = tuple(map(add, m, basis.vmdeg(k)))
                if dd <= max_deg and sum(mm) <= max_internal:
                    nxt.append((word + (k,), dd, mm))
        out.extend(sorted(nxt))
        frontier = nxt
    return out


def _golod_complex(I: MonomialIdeal, J: MonomialIdeal, n_max: int) -> tuple:
    """(C, basis): the twisted complex of the Golod resolution up to
    homological degree n_max, and the Golod basis it is built on."""
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    basis = golod_basis(I, J)
    D = n_max * max(1, basis.IJ.max_gen_degree())
    # prefix -> mu(prefix): h[k] on one symbol k, else from mu(prefix[:-1])
    mu: dict = {(k,): h for k, h in enumerate(basis.h)}

    def twist(w):
        # Massey corrections e_S ^ mu(prefix) (x) suffix, the prefix value
        # normalized by (-1)^(j+1) so that the bar-twisted Massey identity
        # makes the squares cancel
        out = []
        for j in range(1, len(w) + 1):
            p = w[:j]
            if p not in mu:
                mu[p] = _massey_extend(basis, p, mu[p[:-1]])
            out.append((1 if (j + 1) % 2 == 0 else -1, mu[p], w[j:]))
        return out

    def word_label(w):
        return "".join(f"v({a},{b})" for a, b in (basis.pairs[k] for k in w))

    C, _ = twisted_koszul(
        basis.quotient, _words(basis, D, n_max), n_max, twist, word_label
    )
    return C, basis


def golod_resolution(
    I: MonomialIdeal, J: MonomialIdeal, n_max: int = 6
) -> GradedFreeComplex:
    """The minimal free resolution of the residue field over R/IJ up to
    homological degree n_max, built from the trivial Massey operation.

    T_n is spanned by words e_S (x) v_{a1,b1} (x) ... (x) v_{ap,bp} with
    |S| + sum deg(v) = n; the differential applies the Koszul differential
    to the front and contracts prefixes through mu.  The output is
    certified: d^2 = 0, minimality, exactness below n_max and coker(d_1) = k,
    each in every multidegree (see :func:`verify_resolution`); a failure
    raises CertificationError.  :func:`verify_golod` reports the same
    checks instead.
    """
    C, _ = _golod_complex(I, J, n_max)
    cert = verify_resolution(C, maximal_ideal(C.ring), n_max - 1)
    if not (cert.ok and cert.minimal):
        raise CertificationError(
            "Golod resolution failed its own certificate: "
            + ("; ".join(cert.validation.problems)
               or f"strands {cert.strand_failures[:3]}, "
               f"coker {cert.coker_failures[:3]}")
        )
    return C


class PoincareSeries(Record):
    """(1+t)^n over 1 - sum dim H_i t^(i+1), expanded to a bound."""

    __slots__ = _fields = ("numerator", "denominator", "coefficients")


def golod_poincare(I: MonomialIdeal, J: MonomialIdeal, n_max: int = 6) -> PoincareSeries:
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    IJ = transverse_product(I, J)
    if IJ is None:
        raise DomainError("the Golod series requires transverse ideals")
    return _poincare(I.ring.nvars, _homology_dims(IJ), n_max)


def _homology_dims(IJ: MonomialIdeal) -> dict:
    """{n: dim H_n(K (x) R/IJ)} for n >= 1: the total lcm-lattice Betti
    numbers beta_n(R/IJ), since H_n(K (x) R/IJ) = Tor_n(R/IJ, k)."""
    dims: dict = {}
    for (n, _), v in betti_numbers(IJ).entries.items():
        if n:
            dims[n] = dims.get(n, 0) + v
    return dims


def _poincare(n: int, dims: dict, n_max: int) -> PoincareSeries:
    """The series of :func:`golod_poincare` in n variables from the
    dimensions {i: dim H_i(R/IJ)}, checked by the caller."""
    num = [1]
    for _ in range(n):
        num = [a + b for a, b in zip(num + [0], [0] + num)]
    den = [0] * (max(dims, default=0) + 2)
    den[0] = 1
    for i, d in dims.items():
        den[i + 1] -= d
    coeffs = []
    for k in range(n_max + 1):
        c = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            c -= den[j] * coeffs[k - j]
        coeffs.append(c)
    if any(c < 0 for c in coeffs):
        raise CertificationError("Poincare expansion has a negative coefficient")
    return PoincareSeries(tuple(num), tuple(den), tuple(coeffs))


def verify_golod(I: MonomialIdeal, J: MonomialIdeal, n_max: int = 5) -> GolodCertificate:
    """Full Golod certificate: the resolution's own checks, rank agreement
    with the Poincare series, and triviality of all pairwise products of
    positive-degree Koszul homology classes of R/IJ.  A resolution that
    fails its checks is a certified failure here, not an error.

    The products are taken on the classes h = d(z_a) ^ z_b of the basis the
    resolution is built on, certified to be a basis of H_{>=1}(R/IJ) by the
    rows of :func:`kunneth_map`: a row that is not bijective is a certified
    failure.  On a basis, every product of classes is trivial exactly when
    each h_k ^ h_l is a boundary, since a boundary times a cycle is a
    boundary; so the products are tested against the boundaries alone,
    each unordered pair once (:func:`_triviality_failures`).
    The series is read off the lcm-lattice Betti numbers of IJ, which are
    the dimensions of H(R/IJ).
    """
    C, basis = _golod_complex(I, J, n_max)
    resolution = verify_resolution(C, maximal_ideal(C.ring), n_max - 1)
    kunneth_rows = _kunneth_rows(basis)
    series = _poincare(I.ring.nvars, basis.dims, n_max).coefficients
    triviality_failures = _triviality_failures(
        basis.KIJ, basis.quotient, basis.h,
        [basis.vdeg(k) - 1 for k in range(len(basis.h))],
        [f"v({a},{b})" for a, b in basis.pairs],
    )
    ranks = C.total_ranks()
    return GolodCertificate(
        ranks, series, tuple(ranks) == series[: n_max + 1], resolution,
        kunneth_rows, triviality_failures,
    )


def _triviality_failures(KIJ: Homology, q: Ring, h: list, degrees: list,
                         labels: list) -> list:
    """The pairs (labels[k], labels[l]), in the order of ``product``, whose
    product h_k ^ h_l is not a boundary of K (x) q, ``KIJ`` over the ring
    ``q``; h_k is a cycle of homological degree ``degrees[k]``.

    Each unordered pair is tested once, by this lemma.  K (x) q is strictly
    graded-commutative, so h_l ^ h_k = (-1)^(|h_k| |h_l|) h_k ^ h_l, and a
    product is a boundary exactly when its mirror is; a product of degree
    past the number of variables is 0, a boundary, and is not tested.
    A failing pair is listed both ways.  Each test is a rank modulo the
    boundaries of one block (:meth:`Homology.is_boundary`).
    """
    top = q.nvars
    failing = {
        # the product lies in the block b_k + b_l
        (k, l)
        for k in range(len(h)) for l in range(k, len(h))
        if degrees[k] + degrees[l] <= top
        and not KIJ.is_boundary(degrees[k] + degrees[l], k_wedge(q, h[k], h[l]))
    }
    return [(labels[k], labels[l]) for k, l in product(range(len(h)), repeat=2)
            if (min(k, l), max(k, l)) in failing]
