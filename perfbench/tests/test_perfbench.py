"""Tests of the benchmark itself: generator, tracer and count stability.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from transverse.ideals import (  # noqa: E402
    is_sequentially_transverse,
    is_transverse,
    minimalize_generators,
)
from transverse.poly import Ring  # noqa: E402


def _ideal(ring, gens):
    return minimalize_generators(ring, [ring.parse_monomial(g) for g in gens])


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    for seed in (0, 7):
        for rnd in (0, 3):
            assert jobs.round_jobs(workload, seed, rnd) == jobs.round_jobs(
                workload, seed, rnd)
    draws = {jobs.doc_key(d) for s in range(5) for d in jobs.round_jobs(workload, s, 0)}
    assert len(draws) > 1


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_generator_sizes_and_transversality(workload):
    slots = jobs.WORKLOADS[workload]
    for seed in range(4):
        for rnd in range(2):
            docs = jobs.round_jobs(workload, seed, rnd)
            assert len(docs) == len(slots)
            for doc, slot in zip(docs, slots):
                ring = Ring(tuple(doc["ring"]["vars"]))
                ideals = {}
                for name, (names, degrees, tight) in slot["ideals"].items():
                    gens = doc["ideals"][name]
                    I = _ideal(ring, gens)
                    # exactly the stated number of minimal generators
                    assert len(I.gens) == len(degrees)
                    assert sorted(g.degree for g in I.gens) == sorted(degrees)
                    used = {ring.names[v] for g in I.gens
                            for v, e in enumerate(g.exps) if e}
                    assert used <= set(names)
                    if tight is not None:
                        exps = [g.exps for g in I.gens]
                        assert jobs.is_tight(exps) == tight
                    ideals[name] = I
                if doc["command"] == "dg-verify":
                    order = doc["args"]["ideals"]
                    assert is_sequentially_transverse([ideals[n] for n in order])
                else:
                    assert is_transverse(ideals["I"], ideals["J"])


def test_is_tight():
    # x1*x3 divides lcm(x1^2, x3^2); no generator of (x1*x3, x2^2, x3^2)
    # divides the lcm of the other two
    assert not jobs.is_tight([(2, 0, 0), (1, 0, 1), (0, 0, 2)])
    assert jobs.is_tight([(1, 0, 1), (0, 2, 0), (0, 0, 2)])


class _ManualClock:
    """A clock that moves only when the toy functions say so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_self_time_on_toy_call_tree():
    clock = _ManualClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 4

    def middle():
        clock.now += 3
        leaf_t()

    def root():
        clock.now += 1
        middle_t()
        clock.now += 2
        leaf_t()

    leaf_t = tracer.wrap(leaf, "leaf")
    middle_t = tracer.wrap(middle, "middle")
    root_t = tracer.wrap(root, "root")
    root_t()
    assert tracer.self_time == {"leaf": 8.0, "middle": 3.0, "root": 3.0}
    assert tracer.calls == {"leaf": 2, "middle": 1, "root": 1}
    assert tracer.layer_self_time() == 14.0
    names = [tracer.names[s[0]] for s in tracer.spans]
    parents = [s[4] for s in tracer.spans]
    # spans in call order; each points at the span that caused it
    assert names == ["root", "middle", "leaf", "leaf"]
    assert parents == [-1, 0, 1, 0]
    assert tracer.spans[0][2:4] == (0.0, 14.0)


def test_tracer_rebinds_every_import_and_restores():
    pkg = types.ModuleType("toypkg")
    home = types.ModuleType("toypkg.home")
    user = types.ModuleType("toypkg.user")

    def f(x):
        return [x] * x

    home.f = f
    user.f = f  # as ``from .home import f`` leaves it
    mods = {"toypkg": pkg, "toypkg.home": home, "toypkg.user": user}
    sys.modules.update(mods)
    try:
        tracer = Tracer()
        targets = (("home", "f", "toy.f", None,
                    lambda a, k, r: {"toy.items": len(r)}),)
        tracer.install("toypkg", targets)
        assert home.f is not f and user.f is home.f
        user.f(3)
        home.f(2)
        tracer.uninstall()
        assert home.f is f and user.f is f
        assert tracer.calls["toy.f"] == 2
        assert tracer.counts == {"toy.items": 5}
    finally:
        for name in mods:
            del sys.modules[name]


def test_per_layer_counts_repeat_exactly():
    run.RUNS.mkdir(exist_ok=True)
    program = run.Program()
    doc = jobs.round_jobs("golod", 0, 0)[0]
    path = run.write_job(doc)
    seen = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            _, code, stdout = program.run(path)
        assert code == 0 and run.job_failure(code, stdout) is None
        seen.append((tracer.calls, tracer.counts, stdout))
    path.unlink()
    assert seen[0] == seen[1]
    calls, counts, _ = seen[0]
    assert calls["poly.enum"] > 0 and counts["poly.monomials_kept"] > 0
    assert counts["linalg.calls"] > 0 and counts["golod.classes"] > 0
    # untraced afterwards: the program's own functions are back in place
    assert not hasattr(program.cli.golod.verify_golod, "__wrapped__")


def test_tail_percentile():
    assert run.tail_percentile([float(x) for x in range(1, 101)]) == (90, 90.0)
    assert run.tail_percentile([1.0] * 10) is None
