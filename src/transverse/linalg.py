"""Exact sparse Gaussian elimination over the rationals and prime fields.

Rows are sparse dicts ``{column: scalar}``.  The rational path clears
denominators and runs fraction-free integer elimination with gcd
normalization, so the hot loop never touches ``Fraction``; unit pivots are
restored only when the reduced echelon form is assembled.  Pivot columns
are always the leading (smallest) columns, which makes every output the
unique RREF of the row space — canonical and deterministic.  Over GF(2)
a rank can also be taken on rows packed into int bitsets (:func:`xor_rank`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import Record
from .fields import PrimeField, QQ


class EchelonForm(Record):
    """Reduced row echelon form: unit pivots, pivot columns ascending.
    ``row_at`` maps each pivot to its row and is not a field."""

    __slots__ = ("ncols", "pivots", "rows", "field", "row_at")
    _fields = ("ncols", "pivots", "rows", "field")

    def __init__(self, ncols: int, pivots: list[int], rows: list[dict], field):
        self.ncols = ncols
        self.pivots = pivots
        self.rows = rows  # rows[k][pivots[k]] == 1, fully reduced
        self.field = field
        self.row_at = dict(zip(pivots, rows))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """Subtract the projection of ``vec`` onto the row space.

        Each row vanishes at every other pivot, so subtracting it changes no
        other pivot coordinate: only the pivots in the support of ``vec``
        need a visit, in ascending order as a full sweep would make them.
        Over GF(p) the result is reduced mod p.
        """
        row_at = self.row_at
        if isinstance(self.field, PrimeField):
            return _reduce_prime(vec, row_at, self.field)
        v = dict(vec)
        for p in sorted(c for c in vec if c in row_at):
            c = v[p]
            if not c:
                continue
            for col, val in row_at[p].items():
                s = v.get(col, 0) - c * val
                if s:
                    v[col] = s
                else:
                    v.pop(col, None)
        return v

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


def _reduce_prime(vec: dict, row_at: dict, field: PrimeField) -> dict:
    """:meth:`EchelonForm.reduce` over GF(p)."""
    p, scalar = field.p, field.scalar
    v = {col: s for col, val in vec.items() if (s := scalar(val))}
    for q in sorted(col for col in v if col in row_at):
        c = v[q]
        for col, val in row_at[q].items():
            s = (v.get(col, 0) - c * val) % p
            if s:
                v[col] = s
            else:
                v.pop(col, None)
    return v


def _int_row(row: dict) -> dict[int, int]:
    """Clear denominators and divide by the content, in integer arithmetic
    on the numerators and denominators (ints have both); a row of ints has
    no denominator to clear."""
    if all(type(v) is int for v in row.values()):
        ints = {c: v for c, v in row.items() if v}
    else:
        denom = lcm(*(v.denominator for v in row.values()))
        ints = {c: v.numerator * (denom // v.denominator)
                for c, v in row.items() if v}
    g = gcd(*ints.values())
    if g > 1:
        return {c: v // g for c, v in ints.items()}
    return ints


def _axpy_int(a: int, row: dict, b: int, piv: dict) -> dict:
    """a*row - b*piv over the integers, then divide by the content."""
    out = dict()
    for c, v in row.items():
        out[c] = a * v
    for c, v in piv.items():
        s = out.get(c, 0) - b * v
        if s:
            out[c] = s
        else:
            out.pop(c, None)
    g = 0
    for v in out.values():
        g = gcd(g, v)
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return out


def _forward_rational(rows) -> dict[int, dict]:
    pivrows: dict[int, dict] = {}
    for raw in rows:
        row = _int_row(raw)
        while row:
            c = min(row)
            piv = pivrows.get(c)
            if piv is None:
                pivrows[c] = row
                break
            row = _axpy_int(piv[c], row, row[c], piv)
    return pivrows


def _forward_prime(rows, field: PrimeField) -> dict[int, dict]:
    p, scalar = field.p, field.scalar
    pivrows: dict[int, dict] = {}
    for raw in rows:
        row = {c: s for c, v in raw.items() if (s := scalar(v))}
        while row:
            c = min(row)
            piv = pivrows.get(c)
            if piv is None:
                inv = pow(row[c], p - 2, p)
                pivrows[c] = {k: (v * inv) % p for k, v in row.items()}
                break
            f = row[c]
            for k, v in piv.items():
                s = (row.get(k, 0) - f * v) % p
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
    return pivrows


def rank(rows, field=QQ) -> int:
    """Rank via forward elimination only."""
    if isinstance(field, PrimeField):
        return len(_forward_prime(rows, field))
    return len(_forward_rational(rows))


def xor_rank(rows) -> int:
    """Rank over GF(2) of rows given as int bitsets, by XOR elimination:
    a row is reduced by the pivot row of its leading bit until it is zero
    or leads with a bit that has no pivot row yet."""
    pivrows: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length()
            piv = pivrows.get(top)
            if piv is None:
                pivrows[top] = row
                break
            row ^= piv
    return len(pivrows)


def echelon(rows, ncols: int, field=QQ) -> EchelonForm:
    """The unique RREF of the span of ``rows``."""
    if isinstance(field, PrimeField):
        p = field.p
        pivrows = _forward_prime(rows, field)
        pivots = sorted(pivrows)
        # back-reduce, descending pivot order
        for pc in reversed(pivots):
            row = pivrows[pc]
            for qc in sorted(k for k in row if k != pc and k in pivrows):
                f = row[qc]
                if not f:
                    continue
                for k, v in pivrows[qc].items():
                    s = (row.get(k, 0) - f * v) % p
                    if s:
                        row[k] = s
                    else:
                        row.pop(k, None)
        return EchelonForm(ncols, pivots, [pivrows[pc] for pc in pivots], field)

    pivrows = _forward_rational(rows)
    pivots = sorted(pivrows)
    for pc in reversed(pivots):
        row = pivrows[pc]
        for qc in sorted(k for k in row if k != pc and k in pivrows):
            if row.get(qc):
                row = _axpy_int(pivrows[qc][qc], row, row[qc], pivrows[qc])
        pivrows[pc] = row
    out = []
    for pc in pivots:
        row = pivrows[pc]
        lead = row[pc]
        out.append({c: Fraction(v, lead) for c, v in row.items()})
    return EchelonForm(ncols, pivots, out, field)


def kernel_basis(rows, ncols: int, field=QQ) -> list[dict]:
    """Canonical basis of the null space of the matrix whose rows are given.

    The standard free-column vectors are re-echelonized so the result is the
    RREF basis of the kernel.
    """
    ech = echelon(rows, ncols, field)
    one = field.one
    free = {c: {c: one} for c in range(ncols) if c not in ech.row_at}
    # one pass over the RREF rows: the non-pivot columns of a row are free
    for p, row in zip(ech.pivots, ech.rows):
        for c, val in row.items():
            v = free.get(c)
            if v is not None and val:
                v[p] = -val
    if not free:
        return []
    canon = echelon(list(free.values()), ncols, field)
    return canon.rows


def solve(rows, ncols: int, rhs: dict, field=QQ):
    """A particular solution of ``A x = rhs`` (rows of A given), or None.

    Free variables are set to zero; with leading-column pivoting this is the
    echelon-canonical solution.
    """
    aug = []
    for i, row in enumerate(rows):
        r = dict(row)
        b = rhs.get(i)
        if b:
            r[ncols] = b
        aug.append(r)
    ech = echelon(aug, ncols + 1, field)
    if ncols in ech.pivots:
        return None
    sol = {}
    for p, row in zip(ech.pivots, ech.rows):
        v = row.get(ncols)
        if v:
            sol[p] = v
    return sol


def rows_from_columns(cols: list[dict], nrows: int) -> list[dict]:
    """Transpose a list of sparse column vectors into sparse rows."""
    rows: list[dict] = [dict() for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = v
    return rows
