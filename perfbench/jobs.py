"""Seeded job documents for the four benchmark workloads.

A workload is a list of slots. A slot fixes the command, its arguments and,
for every ideal, the variables it lives in and the exact degrees of its
minimal generators. One round draws one job per slot; a run works through
rounds 0, 1, 2, ... of its seed. Fixing the degree profile per slot keeps the
mix of job sizes the same from seed to seed, so the per-run medians measure
the program rather than the luck of the draw. The sizes keep a job well
under a second, so that a run holds enough jobs for a median and a tail.

Every ideal is drawn by rejection until its generators form an antichain
(no generator divides another), so each minimal generating set has exactly
the stated size: a redundant draw would silently shrink the Taylor complex.
The ideals of one job live on disjoint sets of variables, which makes every
pair transverse and every list sequentially transverse.
"""

from __future__ import annotations

import itertools
import json
import random

V4 = ("x1", "x2", "x3", "x4")
V5 = ("x1", "x2", "x3", "x4", "x5")
V6 = ("x1", "x2", "x3", "x4", "x5", "x6")


def _slot(command, ring, ideals, args):
    """ideals: name -> (variables, generator degrees, tight), where tight is
    True or False to require or forbid that every generator is needed for
    the lcm of all of them, and None for either."""
    return {"command": command, "vars": ring, "ideals": ideals, "args": args}


def _golod_slots():
    # one ideal is linear, the other has a quadric: with quadrics on both
    # sides a job costs two to three times as much, and a mix of the two
    # kinds puts the median between two clusters of job times
    out = []
    for di, dj in (((1, 1), (1, 2)), ((1, 1), (2, 2)),
                   ((1, 2), (1, 1)), ((2, 2), (1, 1))):
        out.append(_slot(
            "golod", V4,
            {"I": (V4[:2], di, None), "J": (V4[2:], dj, None)},
            {"left": "I", "right": "J", "mode": "verify", "n_max": 3},
        ))
    return out


def _star_slots():
    # IJ has 9 generators, so the Taylor oracle in the verification has 512
    # terms and its minimization dominates; a tight I resolves with length 3
    # and doubles the strand checks beside it
    return [_slot(
        "star-resolve", V5,
        {"I": (V5[:3], (2, 2, 2), False), "J": (V5[3:], (2, 2, 2), None)},
        {"left": "I", "right": "J", "verify": True},
    )] * 6


def _kunneth_slots():
    # a tight I (no generator divides the lcm of the other two) can resolve
    # with length 3 and reach strand degree 5, which costs several times as
    # much and would split the job times into two clusters
    return [_slot(
        "kunneth-verify", V5,
        {"I": (V5[:3], (2, 2, 2), False), "J": (V5[3:], (2, 2, 2), None)},
        {"left": "I", "right": "J"},
    )] * 3


def _dg_slots():
    out = []
    for dc in ((1, 1), (1, 2), (2, 2)):
        out.append(_slot(
            "dg-verify", V6,
            {"A": (V6[0:2], (2, 2, 2), None), "B": (V6[2:4], (2, 2), None),
             "C": (V6[4:6], dc, None)},
            {"ideals": ["A", "B", "C"]},
        ))
    return out


WORKLOADS = {
    "golod": _golod_slots(),
    "star": _star_slots(),
    "kunneth": _kunneth_slots(),
    "dg": _dg_slots(),
}


def _exponents(nvars: int, d: int):
    """All exponent vectors of total degree d, in a fixed order."""
    out = []
    for c in itertools.combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for v in c:
            e[v] += 1
        out.append(tuple(e))
    return out


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def format_monomial(names, exps) -> str:
    return "*".join(
        v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e
    )


def _lcm(gens):
    return tuple(map(max, zip(*gens)))


def is_tight(gens) -> bool:
    """True when no generator divides the lcm of the others."""
    return all(
        not _divides(g, _lcm(gens[:k] + gens[k + 1:]))
        for k, g in enumerate(gens)
    )


def random_antichain(rng: random.Random, names, degrees, tight=None):
    """Monomials in ``names`` with exactly the given degrees, no one dividing
    another, drawn uniformly per degree and rejected until an antichain
    (and, unless ``tight`` is None, until is_tight agrees with it)."""
    pools = [_exponents(len(names), d) for d in degrees]
    while True:
        gens = [rng.choice(pool) for pool in pools]
        if len(set(gens)) < len(gens) or any(
            _divides(a, b) for a, b in itertools.permutations(gens, 2)
        ):
            continue
        if tight is None or is_tight(gens) == tight:
            return sorted(format_monomial(names, g) for g in gens)


def round_jobs(workload: str, seed: int, rnd: int) -> list[dict]:
    """The job documents of one round: one per slot, in slot order, no two
    alike."""
    rng = random.Random(f"{workload}:{seed}:{rnd}")
    docs = []
    for slot in WORKLOADS[workload]:
        while True:
            doc = {
                "ring": {"vars": list(slot["vars"]), "field": "rational"},
                "ideals": {
                    name: random_antichain(rng, names, degrees, tight)
                    for name, (names, degrees, tight) in slot["ideals"].items()
                },
                "command": slot["command"],
                "args": dict(slot["args"]),
                "format": "json",
            }
            if doc not in docs:
                break
        docs.append(doc)
    return docs


def doc_key(doc: dict) -> str:
    """Canonical text of a job document, used to look up its digest."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
