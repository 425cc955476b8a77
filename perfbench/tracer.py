"""Outside-in tracer: wraps public functions of the program for one traced
run and records a span per call.

Nothing in ``transverse`` knows about it. ``install`` replaces each listed
function in its defining module and in every module that bound it with
``from .x import y``; ``uninstall`` puts the originals back, so untraced runs
carry no wrappers. Spans are kept in memory and written out at the end.

A span's self time is its duration minus the durations of the traced calls
made inside it. The tracer's own bookkeeping is charged to neither side.
"""

from __future__ import annotations

import sys
import time
from math import comb


def _elimination(args, kwargs) -> dict:
    rows = args[0]
    out = {"linalg.calls": 1}
    if isinstance(rows, (list, tuple)):
        out["linalg.rows_in"] = len(rows)
        out["linalg.nnz_in"] = sum(len(r) for r in rows)
    return out


def _total_rank(C) -> int:
    return sum(C.total_ranks())


def _enum_examined(args, kwargs) -> dict:
    """Monomials of degree t in n variables: C(t+n-1, n-1), computed from
    the arguments rather than counted inside the enumeration."""
    ring, t = args[0], args[1]
    n = ring.nvars
    examined = comb(t + n - 1, n - 1) if t >= 0 and n > 0 else 0
    return {"poly.monomials_examined": examined}


# (module, attribute or Class.method, span name, count before, count after)
# ``before`` sees the call's arguments; ``after`` sees arguments and result.
# Both return increments of named counters.
TARGETS = (
    ("poly", "monomials_of_degree", "poly.enum", _enum_examined,
     lambda a, k, r: {"poly.monomials_kept": len(r)}),
    ("complexes", "strand_basis", "complexes.strand_basis", None, None),
    ("complexes", "strand_matrix", "complexes.strand_matrix", None,
     lambda a, k, r: {"complexes.strand_rows": len(r),
                      "complexes.strand_nnz": sum(len(row) for row in r)}),
    ("complexes", "strand_homology", "complexes.strand_homology", None, None),
    ("complexes", "strand_homology_dim", "complexes.strand_homology", None,
     None),
    ("complexes", "verify_resolution", "complexes.verify_resolution", None,
     None),
    ("complexes", "star_product", "complexes.star_product", None, None),
    # every elimination is a rank or echelon call, also those made inside
    # kernel_basis and solve; all four share one span name for self time
    ("linalg", "rank", "linalg.eliminate", _elimination,
     lambda a, k, r: {"linalg.rank_out": r}),
    ("linalg", "echelon", "linalg.eliminate", _elimination,
     lambda a, k, r: {"linalg.rank_out": r.rank}),
    ("linalg", "kernel_basis", "linalg.eliminate", None, None),
    ("linalg", "solve", "linalg.eliminate", None, None),
    ("resolutions", "taylor_complex", "resolutions.taylor", None,
     lambda a, k, r: {"resolutions.taylor_terms": _total_rank(r)}),
    ("resolutions", "minimize_complex", "resolutions.minimize",
     lambda a, k: {"resolutions.rank_in": _total_rank(a[0])},
     lambda a, k, r: {"resolutions.rank_out": _total_rank(r)}),
    ("golod", "KoszulHomology.__init__", "golod.koszul_homology", None,
     lambda a, k, r: {"golod.classes": len(a[0].classes)}),
    ("golod", "golod_basis", "golod.basis", None, None),
    ("golod", "golod_poincare", "golod.basis", None, None),
    ("golod", "golod_resolution", "golod.resolution", None,
     lambda a, k, r: {"golod.resolution_rank": _total_rank(r)}),
    ("golod", "kunneth_map", "golod.kunneth", None, None),
    ("golod", "verify_golod", "golod.verify", None, None),
    ("exterior", "k_wedge", "exterior.wedge", None, None),
    ("exterior", "k_diff", "exterior.diff", None, None),
    ("dg", "taylor_dg_product", "dg.product", None, None),
    ("dg", "star_degree_one_product", "dg.product", None, None),
    ("dg", "certify_degree_one", "dg.certify", None,
     lambda a, k, r: {"dg.checked_pairs": r.checked_pairs}),
    ("ideals", "is_transverse", "ideals.transverse", None, None),
    ("ideals", "is_sequentially_transverse", "ideals.transverse", None, None),
    ("ideals", "degree_basis_mod_ideal", "ideals.degree_basis", None, None),
    ("cli", "parse_input", "cli.parse", None, None),
    ("cli", "render_report", "cli.render", None,
     lambda a, k, r: {"cli.output_bytes": len(r.encode("utf-8"))}),
)


class Tracer:
    """Span recorder. ``wrap`` turns a function into a traced one; ``install``
    applies ``wrap`` to every target in the loaded program."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, job, start, end, parent span index or -1)
        self.spans: list[tuple] = []
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.job = -1
        self._stack: list[list] = []  # [span index, start, child time]
        self._patches: list[tuple] = []

    def wrap(self, fn, name, before=None, after=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        self.self_time.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)
        clock, stack, spans = self.clock, self._stack, self.spans

        def traced(*args, **kwargs):
            t_enter = clock()
            pre = before(args, kwargs) if before else None
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                start = frame[1]
                spans[idx] = (nid, self.job, start, end, parent)
                self.self_time[name] += (end - start) - frame[2]
                self.calls[name] += 1
            if pre:
                self._add(pre)
            if after:
                self._add(after(args, kwargs, result))
            if stack:
                stack[-1][2] += clock() - t_enter
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _add(self, counts):
        for key, v in counts.items():
            self.counts[key] = self.counts.get(key, 0) + v

    def install(self, package: str = "transverse", targets=TARGETS):
        """Wrap every target wherever the loaded package binds it."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for modname, attr, name, before, after in targets:
            home = sys.modules[f"{package}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(orig, name, before, after))
                continue
            orig = getattr(home, attr)
            traced = self.wrap(orig, name, before, after)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, traced)

    def uninstall(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_self_time(self) -> float:
        return sum(self.self_time.values())

    def spans_json(self) -> dict:
        return {"names": self.names,
                "columns": ["name", "job", "start", "end", "parent"],
                "spans": [list(s) for s in self.spans]}
