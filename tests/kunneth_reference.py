"""Reference copy of the Kunneth certificate that ``golod.kunneth_map``
replaced by ranks modulo the boundaries.

``reference_kunneth_rows`` is the earlier ``kunneth_map`` after its
transversality test, copied unchanged except that it is a function of the
Golod basis and builds the Koszul homology of R/IJ itself: a second basis
of H(R/IJ) by elimination (``KoszulHomology``, whose dimensions are checked
against the lcm-lattice Betti numbers), in which it expresses each class
h = d(z_a) ^ z_b with ``class_coords``.  ``reference_homology`` builds that
basis, for the tests that read its classes.
"""

from transverse import linalg
from transverse.errors import CertificationError
from transverse.golod import GolodBasis, KoszulHomology, KunnethRow
from transverse.ideals import ideal_product


def reference_homology(basis: GolodBasis) -> KoszulHomology:
    """The basis of H_{>=1}(R/IJ) that the Golod basis held before."""
    return KoszulHomology(ideal_product(basis.I, basis.J))


def reference_kunneth_rows(basis: GolodBasis, HIJ=None) -> list:
    """The rows of the earlier ``kunneth_map`` on ``basis.h``."""
    HIJ = reference_homology(basis) if HIJ is None else HIJ
    symbols = range(len(basis.pairs))
    nmax = max((c.i for c in HIJ.classes), default=0)
    nmax = max(nmax, max((basis.vdeg(k) - 1 for k in symbols), default=0))
    rows = []
    for n in range(1, nmax + 1):
        source = [k for k in symbols if basis.vdeg(k) == n + 1]
        target = HIJ.classes_at(n)
        cols = []
        for k in source:
            # h_{a,b} lies in the block b_a + b_b
            col = HIJ.class_coords(n, basis.h[k])
            if col is None:
                a, b = basis.pairs[k]
                raise CertificationError(
                    f"Kunneth image of ({basis.HI.classes[a].label},"
                    f"{basis.HJ.classes[b].label}) is not a cycle class"
                )
            cols.append(col)
        rank = linalg.rank(
            linalg.rows_from_columns(cols, len(target)), basis.I.ring.field
        )
        rows.append(KunnethRow(n, len(source), len(target), rank))
    return rows
