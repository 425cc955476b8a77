"""Reference copy of the per-cell sweep that ``Homology.cell_failures``
replaced by a walk of the threshold grid.

``reference_cells`` and ``reference_cell_failures`` are the earlier
``Homology.cells`` and ``Homology.cell_failures``, copied unchanged except
that each is a function of the ``Homology`` object ``self`` and the sweep
lists its cells with ``reference_cells``.  The sweep visits every cell of
the grid and reads the presence of each generator with ``below``, one
AND over the variables per call, 1 + |gens(Q)| calls per cell.
"""

from bisect import bisect_right
from itertools import product
from operator import sub
from re import finditer

from transverse import linalg


def reference_cells(self, levels, points=()) -> list:
    """One point of each cell on which the blocks of the C_i, i in
    ``levels``, are constant: each the lower corner of its cell.

    The block of C_i at b is spanned by the generators present there
    (m_g <= b and x^(b - m_g) not in Q), with the scalars of d as
    matrix entries, so it changes only where b_k crosses a threshold
    m_g[k] + q[k], q in gens(Q) or q = 0; the cells are the boxes of
    that grid.  Over R the block at b is the block at lcm{m_g : m_g <=
    b}, and the cells are the points of the lcm-closure of the m_g
    (Bayer-Sturmfels, "Cellular resolutions of monomial modules", 1998;
    Miller-Sturmfels, Ch. 4).  ``points`` are further multidegrees
    that split the cells as generators would.  In both cases the cell
    of b is the largest cell point <= b, when there is one; otherwise
    no generator is present at b.
    """
    pts = {m for i in levels for m in self.mdegs[i].values()}
    pts.update(points)
    if not self._kill:
        out: set = set()
        for p in sorted(pts):
            out |= {tuple(map(max, p, c)) for c in out}
            out.add(p)
        return sorted(out)
    shifts = [(0,) * self.complex.ring.nvars, *self._kill]
    axes = [
        sorted({p[k] + q[k] for p in pts for q in shifts})
        for k in range(self.complex.ring.nvars)
    ]
    return list(product(*axes))


def reference_cell_failures(self, lo: int, hi: int, points=()) -> list:
    """(i, b, dim H_i) for lo <= i <= hi wherever H_i is nonzero on a
    cell of :meth:`cells` (with ``points``), b its lower corner,
    ordered by (i, |b|, b).

    H_i is constant on each cell, so this is H_i in every multidegree.
    Which generators are present at b is read off bitsets per
    variable, and each distinct presence is swept once; the rank of d_i
    on a block depends only on the generators present in degrees i and
    i - 1, and is taken once per such pair, on the scalar table.
    """
    C = self.complex
    levels = range(max(lo - 1, 0), min(hi + 1, C.length) + 1)
    gens = [m for i in levels for m in self.mdegs[i].values()]
    spans, start = {}, 0
    for i in levels:
        spans[i] = (start, (1 << len(self.mdegs[i])) - 1)
        start += len(self.mdegs[i])
    # per variable k: the values of m_g[k], at index j the generators
    # g with m_g[k] <= the j-th value (none at j = 0), and the lookups
    axes = []
    for k in range(C.ring.nvars):
        vals, masks, acc = [], [0], 0
        for v, g in sorted((m[k], g) for g, m in enumerate(gens)):
            acc |= 1 << g
            if vals and vals[-1] == v:
                masks[-1] = acc
            else:
                vals.append(v)
                masks.append(acc)
        axes.append((vals, masks, {}))

    def below(c):
        out = (1 << len(gens)) - 1
        for (vals, masks, seen), v in zip(axes, c):
            if v not in seen:
                seen[v] = masks[bisect_right(vals, v)]
            out &= seen[v]
        return out

    def present_in(present):
        # the set bits alone: bit g is character g of the reversed string
        return [m.start() for m in finditer("1", bin(present)[:1:-1])]

    ranks: dict = {}  # (j, present in C_j, present in C_{j-1}) -> rank

    def rank(j, bits):
        key = (j, bits.get(j, 0), bits.get(j - 1, 0))
        if key not in ranks:
            ranks[key] = key[1] and key[2] and linalg.rank(
                self._block_rows(j, present_in(key[1]), present_in(key[2])),
                C.ring.field,
            )
        return ranks[key]

    failures, dims = [], {}  # dims: present -> [(i, dim H_i)]
    for b in reference_cells(self, levels, points):
        present = below(b)
        for q in self._kill:
            if present:
                present &= ~below(tuple(map(sub, b, q)))
        if present not in dims:
            bits = {i: present >> s & full for i, (s, full) in spans.items()}
            dims[present] = [
                (i, bits.get(i, 0).bit_count() - rank(i, bits) - rank(i + 1, bits))
                for i in range(lo, hi + 1)
            ]
        failures += [(i, b, d) for i, d in dims[present] if d]
    return sorted(failures, key=lambda f: (f[0], sum(f[1]), f[1]))
