"""Reference copy of the stratum that ``Homology._stratum`` replaced by one
kernel on the columns off the boundary pivots.

``reference_stratum`` is the earlier ``Homology._stratum``, copied
unchanged except that it is a function of the ``Homology`` object ``self``
and stores nothing: it takes the full cycle kernel of d_i (two
eliminations), reduces every cycle against the boundary RREF and takes the
RREF of what is left (a third).  It also returns the two ranks the earlier
code stored in ``self.ranks``.  It never looks at d o d, so on a map that
is not a complex it still answers.
"""

from transverse import linalg
from transverse.complexes import StrandHomology


def reference_stratum(self, i: int, s):
    """(stratum, {(j, s): rank of d_j}) for H_i of the piece s."""
    field = self.complex.ring.field
    basis_i = self._basis(i, s)
    n = len(basis_i)
    empty = linalg.EchelonForm(n, [], [], field)
    if not basis_i:
        return StrandHomology(i, s, basis_i, 0, 0, 0, empty, empty, field), {}
    if i >= 1:
        rows = self._rows(i, s, basis_i, self._basis(i - 1, s))
        cycles = linalg.kernel_basis(rows, n, field)
    else:
        cycles = [{k: field.one} for k in range(n)]
    basis_hi = self._basis(i + 1, s)
    bound = empty
    if basis_hi:
        rows_up = self._rows(i + 1, s, basis_hi, basis_i)
        bcols = linalg.rows_from_columns(rows_up, len(basis_hi))
        bound = linalg.echelon(bcols, n, field)
    # the two eliminations give r_i = |B_i| - dim Z_i and r_{i+1} = dim B_i
    ranks = {(i, s): n - len(cycles), (i + 1, s): bound.rank}
    reduced = [v for v in map(bound.reduce, cycles) if v]
    classes = linalg.echelon(reduced, n, field) if reduced else empty
    return StrandHomology(
        i, s, basis_i, classes.rank, len(cycles), bound.rank, classes, bound,
        field,
    ), ranks
