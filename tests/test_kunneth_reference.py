"""Differential tests: the Kunneth certificate on the classes h = d(z_a) ^
z_b from the boundaries alone, against the earlier certificate
(``kunneth_reference``), which built a basis of H(R/IJ) by elimination and
expressed each h in it.

On seeded transverse pairs over QQ, GF(2) and GF(32003) the rows (n,
dim_source, dim_target, rank) of ``kunneth_map`` and of ``verify_golod``
are the reference rows, and the product clause of ``verify_golod`` agrees
with the earlier clause on the basis of H(R/IJ).  Two mutants of the
basis: an h made into a non-cycle is refused by both with one message,
and an h replaced by a boundary makes its row fail in both, and with it
``verify_golod`` and both CLI jobs (exit 1, report keys unchanged).  A
count pins that neither certificate builds a Koszul homology of IJ.
"""

import itertools
import json
import random

import pytest

from transverse import golod
from transverse.cli import main
from transverse.errors import CertificationError
from transverse.exterior import Element, k_diff, k_restrict, k_wedge
from transverse.fields import QQ, PrimeField
from transverse.golod import (
    GolodBasis, KoszulHomology, golod_poincare, kunneth_map, verify_golod,
)
from transverse.ideals import MonomialIdeal
from transverse.poly import Monomial, Ring

from kunneth_reference import reference_homology, reference_kunneth_rows

FIELDS = [QQ, PrimeField(2), PrimeField(32003)]
NAMES = ("x1", "x2", "x3", "x4", "x5")


def random_ideal(rng, ring, vars_):
    gens = []
    for _ in range(rng.randint(1, 3)):
        exps = [0] * ring.nvars
        while not 1 <= sum(exps) <= 3:
            exps = [rng.randint(0, 2) if k in vars_ else 0
                    for k in range(ring.nvars)]
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(ring, tuple(gens))


def transverse_pair(field, seed):
    """A pair on the disjoint variables x1..x3 and x4, x5."""
    rng = random.Random(3100 + seed)
    R = Ring(NAMES, field)
    return random_ideal(rng, R, (0, 1, 2)), random_ideal(rng, R, (3, 4))


def trivial_on_reference(basis, HIJ) -> bool:
    """The earlier product clause of ``verify_golod``: every product of two
    classes of the basis of H(R/IJ) is a boundary."""
    q = basis.quotient
    reps = [k_restrict(q, c.rep) for c in HIJ.classes]
    return all(
        HIJ.is_boundary(c1.i + c2.i, k_wedge(q, z1, z2))
        for (c1, z1), (c2, z2) in itertools.product(zip(HIJ.classes, reps),
                                                    repeat=2)
    )


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(6))
def test_rows_equal_the_reference(field, seed):
    I, J = transverse_pair(field, seed)
    rows = kunneth_map(I, J).rows
    basis = golod.golod_basis(I, J)
    HIJ = reference_homology(basis)
    assert rows == reference_kunneth_rows(basis, HIJ)
    assert rows and all(r.bijective for r in rows)
    assert sum(r.rank for r in rows) == len(HIJ.classes)
    cert = verify_golod(I, J, 2)
    assert cert.kunneth_rows == rows
    assert (not cert.triviality_failures) == trivial_on_reference(basis, HIJ)
    assert cert.ok


def block_keys(basis, b, size):
    """Elements e_S of the block b with |S| = size, alive in R/IJ."""
    q = basis.quotient
    for S in itertools.combinations(range(q.nvars), size):
        if all(b[k] for k in S):
            x = k_restrict(q, Element(b, {S: 1}))
            if x.terms:
                yield x


def mutant(basis, kind):
    """(k, basis with h[k] replaced): by a non-cycle h + e_S, or by a
    nonzero boundary d(e_T) of the block of h."""
    q = basis.quotient
    for k, h in enumerate(basis.h):
        n = basis.vdeg(k) - 1
        if kind == "non-cycle":
            found = (
                Element(h.b, {**h.terms, **e.terms})
                for e in block_keys(basis, h.b, n)
                if not set(e.terms) & set(h.terms) and k_diff(q, e).terms
            )
        else:
            found = (
                d for e in block_keys(basis, h.b, n + 1)
                if (d := k_diff(q, e)).terms
            )
        x = next(found, None)
        if x is not None:
            h = list(basis.h)
            h[k] = x
            return k, GolodBasis(basis.I, basis.J, basis.HI, basis.HJ,
                                 basis.IJ, basis.pairs, h)
    raise AssertionError(f"no {kind} mutant")


@pytest.fixture(params=["flagship", "five"])
def pair(request, flagship):
    if request.param == "flagship":
        return flagship
    return transverse_pair(QQ, 0)


def test_a_non_cycle_is_refused(monkeypatch, pair):
    k, bad = mutant(golod.golod_basis(*pair), "non-cycle")
    a, b = bad.pairs[k]
    message = (f"Kunneth image of ({bad.HI.classes[a].label},"
               f"{bad.HJ.classes[b].label}) is not a cycle class")
    with pytest.raises(CertificationError) as want:
        reference_kunneth_rows(bad)
    assert str(want.value) == message
    monkeypatch.setattr(golod, "_golod_basis", lambda *_: bad)
    monkeypatch.setattr(golod, "golod_basis", lambda *_: bad)
    with pytest.raises(CertificationError) as got:
        kunneth_map(*pair)
    assert str(got.value) == message
    with pytest.raises(CertificationError) as got:
        verify_golod(*pair, 2)
    assert str(got.value) == message


def test_a_boundary_fails_its_row(monkeypatch, pair):
    basis = golod.golod_basis(*pair)
    k, bad = mutant(basis, "boundary")
    n = basis.vdeg(k) - 1
    rows = reference_kunneth_rows(bad)
    assert [r.n for r in rows if not r.bijective] == [n]
    monkeypatch.setattr(golod, "_golod_basis", lambda *_: bad)
    monkeypatch.setattr(golod, "golod_basis", lambda *_: bad)
    cert = kunneth_map(*pair)
    assert cert.rows == rows and not cert.ok
    assert cert.rows[n - 1].rank == cert.rows[n - 1].dim_target - 1
    golod_cert = verify_golod(*pair, 2)
    assert golod_cert.kunneth_rows == rows and not golod_cert.ok


def run_job(tmp_path, capsys, pair, command, args):
    I, J = pair
    ring = I.ring
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "ring": {"vars": list(ring.names)},
        "ideals": {name: [ring.format_monomial(g) for g in X.gens]
                   for name, X in (("I", I), ("J", J))},
        "command": command,
        "args": {"left": "I", "right": "J", **args},
        "format": "json",
    }))
    code = main([str(job)])
    out = capsys.readouterr()
    assert out.err == ""
    return code, json.loads(out.out)


@pytest.mark.parametrize("command, args, keys", [
    ("kunneth-verify", {}, ["command", "pass", "rows"]),
    ("golod", {"mode": "verify", "n_max": 2},
     ["command", "minimal", "mode", "pass", "ranks", "series",
      "trivial_products"]),
])
def test_a_failed_row_is_a_certified_failure(
    monkeypatch, tmp_path, capsys, flagship, command, args, keys
):
    code, report = run_job(tmp_path, capsys, flagship, command, args)
    assert code == 0 and report["pass"] is True and list(report) == keys
    _, bad = mutant(golod.golod_basis(*flagship), "boundary")
    monkeypatch.setattr(golod, "_golod_basis", lambda *_: bad)
    monkeypatch.setattr(golod, "golod_basis", lambda *_: bad)
    code, report = run_job(tmp_path, capsys, flagship, command, args)
    assert code == 1 and report["pass"] is False and list(report) == keys


def test_no_koszul_homology_of_the_product(monkeypatch, flagship):
    # kunneth_map and verify_golod build the Koszul homology of I and of J
    # and no basis of H(R/IJ): no stratum of K (x) R/IJ, only boundaries;
    # golod_poincare builds none
    built = []
    init = KoszulHomology.__init__

    def counting(self, I):
        built.append(I)
        init(self, I)

    monkeypatch.setattr(KoszulHomology, "__init__", counting)
    assert kunneth_map(*flagship).ok
    assert built == list(flagship)
    built.clear()
    basis = golod.golod_basis(*flagship)
    monkeypatch.setattr(golod, "golod_basis", lambda *_: basis)
    assert verify_golod(*flagship, 3).ok
    assert built == list(flagship)
    assert basis.KIJ.images and not basis.KIJ.strata
    built.clear()
    assert golod_poincare(*flagship, 4).coefficients == (1, 4, 10, 24, 58)
    assert built == []
