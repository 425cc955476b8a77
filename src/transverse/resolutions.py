"""Constructors for the concrete resolutions: Koszul and Taylor complexes,
minimization by unit-entry pruning, and comparison-map lifting."""

from __future__ import annotations

from itertools import combinations

from . import linalg
from .complexes import (
    GradedFreeComplex,
    complex_from_boundary,
    strand_basis,
    strand_homology_dim,
    strand_matrix,
)
from .errors import DomainError, ExactnessError
from .exterior import k_acc, k_apply, k_coords, k_element
from .ideals import MonomialIdeal
from .poly import PolyMatrix, Polynomial, Ring


def _subset_label(prefix: str, S: tuple[int, ...]) -> str:
    return prefix + "{" + ",".join(str(s + 1) for s in S) + "}"


def koszul_complex(elements: list[Polynomial]) -> GradedFreeComplex:
    """The Koszul complex on homogeneous elements of positive degree.

    Generators e_S for subsets S, with d(e_{j1}^...^e_{jr}) =
    sum_l (-1)^(l+1) a_{jl} e_{S \\ jl}; generator degrees add.
    """
    if not elements:
        raise DomainError("need at least one element")
    ring = elements[0].ring
    degs = []
    for a in elements:
        if a.ring != ring:
            raise DomainError("elements over different rings")
        d = a.homogeneous_degree
        if d is None or d <= 0 or a.is_zero:
            raise DomainError(f"{a} is not homogeneous of positive degree")
        degs.append(d)
    c = len(elements)
    subsets = [sorted(combinations(range(c), i)) for i in range(c + 1)]

    def boundary(S):
        return {
            S[:pos] + S[pos + 1:]: elements[j].scale(1 if pos % 2 == 0 else -1)
            for pos, j in enumerate(S)
        }

    return complex_from_boundary(
        ring, subsets, lambda S: sum(degs[j] for j in S),
        lambda S: _subset_label("e", S), boundary, meta={"subsets": subsets},
    )


def koszul_on_variables(ring: Ring) -> GradedFreeComplex:
    """The Koszul complex resolving the residue field over ``ring``."""
    return koszul_complex(ring.variables())


def taylor_complex(I: MonomialIdeal, gens=None) -> GradedFreeComplex:
    """The Taylor resolution of R/I: generators e_S indexed by subsets of the
    generators, internal degree deg lcm_S, with lcm-ratio entries.

    This is the package's internal exactness oracle: it resolves every
    monomial ideal, so comparing against its minimization certifies other
    candidate resolutions.  ``gens`` overrides the (minimal) stored
    generators with an explicit, possibly redundant, generating sequence.
    """
    if I.is_zero or I.is_unit:
        raise DomainError("Taylor complex needs a nonzero proper ideal")
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

    return complex_from_boundary(
        ring, subsets, lambda S: lcms[len(S)][S].degree,
        lambda S: _subset_label("T", S), boundary,
        meta={"subsets": subsets, "lcms": lcms},
    )


def minimal_resolution(I: MonomialIdeal) -> GradedFreeComplex:
    """The minimal free resolution of R/I: the minimized Taylor complex.

    This is the package's Betti oracle."""
    return minimize_complex(taylor_complex(I), certify=False)


def minimize_complex(C: GradedFreeComplex, certify: bool = True) -> GradedFreeComplex:
    """Prune unit entries until the complex is minimal.

    Scans entries in (homological degree, row, col) order, cancels the first
    entry with a nonzero constant term via the corresponding change of basis
    (Schur complement on d_i, drop row on d_{i+1}, drop column on d_{i-1}),
    and repeats to a fixpoint.  With ``certify`` the strand homology of a
    sample of low strands is compared before and after.
    """
    ring = C.ring
    length = C.length
    mats = [dict(C.diff(i).entries) for i in range(1, length + 1)]
    alive = [list(range(C.rank(i))) for i in range(length + 1)]
    degs = [list(C.degs(i)) for i in range(length + 1)]

    if certify:
        tmax = min((d for d in degs[1]), default=0) + 2
        before = {
            (i, t): strand_homology_dim(C, None, t, i)
            for i in range(1, length + 1)
            for t in range(tmax + 1)
        }

    def find_unit():
        for i in range(1, length + 1):
            for (r, c) in sorted(mats[i - 1]):
                if mats[i - 1][(r, c)].constant_term:
                    return i, r, c
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        i, r, c = hit
        mat = mats[i - 1]
        u = mat[(r, c)].constant_term
        rowvals = {cc: p for (rr, cc), p in mat.items() if rr == r and cc != c}
        colvals = {rr: p for (rr, cc), p in mat.items() if cc == c and rr != r}
        for rr, pc in colvals.items():
            for cc, pr in rowvals.items():
                k_acc(mat, (rr, cc), -(pc * pr).scale(1 / u))
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
    # trim trailing zero terms
    top = length
    while top > 0 and not new_degs[top]:
        top -= 1
    out = GradedFreeComplex(
        ring, new_degs[: top + 1], new_diffs[:top], new_labels[: top + 1]
    )
    if certify:
        for (i, t), want in before.items():
            got = strand_homology_dim(out, None, t, i)
            if got != want:
                raise ExactnessError(
                    f"minimization changed H_{i} in strand {t}: {want} -> {got}"
                )
    return out


def lift_comparison_map(
    source: GradedFreeComplex,
    target: GradedFreeComplex,
    phi0: PolyMatrix | None = None,
) -> list[PolyMatrix]:
    """Lift the identity on degree 0 to a chain map source -> target.

    Each generator's image is solved strand-by-strand as an exact scalar
    system; among the (homotopy-many) solutions the echelon-canonical one is
    chosen.  Raises :class:`ExactnessError` when some strand system has no
    solution, i.e. the target fails to be exact where needed.
    """
    ring = source.ring
    if target.ring != ring:
        raise DomainError("source and target over different rings")
    if source.rank(0) != 1 or target.rank(0) != 1:
        raise DomainError("comparison lifting needs rank-1 degree-0 terms")
    if phi0 is None:
        phi0 = PolyMatrix.identity(ring, 1)
    phis = [phi0]
    field = ring.field
    for i in range(1, source.length + 1):
        entries = {}
        for e in range(source.rank(i)):
            t = source.degs(i)[e]
            # rhs = phi_{i-1}(d^S_i e) in strand coordinates of target_{i-1}
            basis_lo = strand_basis(target, i - 1, t)
            rhs = k_coords(
                k_apply(phis[i - 1], source.diff(i).column(e)),
                {bm: k for k, bm in enumerate(basis_lo)},
            )
            basis_hi = strand_basis(target, i, t)
            if not basis_hi:
                if rhs:
                    raise ExactnessError(
                        f"no solution lifting generator {e} in degree {i}: "
                        f"target has no strand {t}"
                    )
                continue
            rows = strand_matrix(target, i, t, (), basis_hi, basis_lo)
            sol = linalg.solve(rows, len(basis_hi), rhs, field)
            if sol is None:
                raise ExactnessError(
                    f"target not exact in degree {i}, strand {t}: "
                    f"comparison map cannot be lifted"
                )
            for g, p in k_element(sol, basis_hi, ring).items():
                entries[(g, e)] = p
        phis.append(PolyMatrix(ring, target.rank(i), source.rank(i), entries))
    return phis
