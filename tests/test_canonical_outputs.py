"""Byte-identity pins for canonical outputs.

Each case renders one output as text and compares its sha256 digest with a
value captured once from a known-good revision.  The cases cover one job
per CLI command (the JSON report plus the exit code) and the objects that
no report prints: degree-one product tables, the Golod and Tate complexes
(a minimal one, a non-minimal one and one over an empty sequence), the
Koszul, Taylor (with a redundant generator), tensor and star complexes,
Koszul class representatives, comparison maps and module-action tables,
and the associativity probe's findings.  The GF(p) cases run five of the
jobs over GF(2), GF(3) and GF(32003), and build a comparison map, Koszul
class representatives and a star degree-one product table over GF(3).

A refactor that changes no algorithm, basis order or canonical choice must
leave every digest unchanged, so the digests are never edited; print the
current ones with ``PYTHONPATH=src python tests/test_canonical_outputs.py``.
"""

import hashlib
import json

import pytest

from transverse.cli import COMMANDS, cmd_dispatch, parse_input, render_report
from transverse.complexes import complex_to_json, star_product, tensor_complexes
from transverse.dg import (
    associativity_probe,
    koszul_dg_product,
    koszul_module_action,
    star_degree_one_product,
    taylor_dg_product,
)
from transverse.fields import QQ, PrimeField
from transverse.golod import golod_resolution, koszul_homology
from transverse.ideals import ideal_product, is_sequentially_transverse
from transverse.obstructions import tate_resolution
from transverse.poly import Polynomial, Ring
from transverse.resolutions import (
    koszul_complex,
    lift_comparison_map,
    minimal_resolution,
    taylor_complex,
)

from conftest import ideal
from polynomial_elements import as_polynomial

VARS4 = ["x1", "x2", "x3", "x4"]
VARS5 = ["x1", "x2", "x3", "x4", "x5"]

# one small job per CLI command: (ring variables, ideals, args)
JOBS = {
    "check-transverse": (
        VARS4, {"I": ["x1*x2", "x3"], "J": ["x2*x4", "x3^2"]},
        {"left": "I", "right": "J"},
    ),
    "resolve": (
        VARS4, {"I": ["x1^2", "x1*x2", "x2*x3"]},
        {"ideal": "I", "method": "taylor"},
    ),
    "star-resolve": (
        VARS4, {"I": ["x1^2", "x1*x2"], "J": ["x3", "x4^2"]},
        {"left": "I", "right": "J"},
    ),
    "koszul-homology": (
        VARS4, {"I": ["x1*x2", "x2*x3", "x3*x4"]}, {"ideal": "I"},
    ),
    "kunneth-verify": (
        VARS4, {"I": ["x1^2", "x1*x2"], "J": ["x3", "x4"]},
        {"left": "I", "right": "J"},
    ),
    "golod": (
        VARS4, {"I": ["x1", "x2"], "J": ["x3^2", "x3*x4"]},
        {"left": "I", "right": "J", "mode": "verify", "n_max": 3},
    ),
    "dg-verify": (
        VARS5, {"A": ["x1^2", "x1*x2"], "B": ["x3", "x4"], "C": ["x5^2"]},
        {"ideals": ["A", "B", "C"]},
    ),
    "module-action": (
        VARS4, {"I": ["x1^2", "x1*x2"], "J": ["x3", "x4"]},
        {"ideals": ["I", "J"], "ci": ["x1^2*x3"]},
    ),
    "obstruction": (
        VARS4, {"M": ["x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2"]},
        {"module": "M", "ci": ["x1^2", "x4^2"], "n_max": 4},
    ),
    "injectivity-verify": (
        VARS4, {"I": ["x1", "x2"], "J": ["x3", "x4"]},
        {"left": "I", "right": "J", "ci": ["x1*x3"], "n_max": 3},
    ),
    "associativity-probe": (
        VARS4, {"I": ["x1^2", "x1*x2"], "J": ["x3", "x4"]},
        {"ideals": ["I", "J"]},
    ),
}


# the jobs run again over GF(p): the two whose JSON holds a complex, and
# three that eliminate over the field
PRIME_COMMANDS = (
    "resolve", "star-resolve", "koszul-homology", "module-action", "obstruction",
)
PRIMES = (2, 3, 32003)


def _run_job(command: str, field="rational") -> str:
    names, ideals, args = JOBS[command]
    spec = parse_input({
        "ring": {"vars": names, "field": field},
        "ideals": ideals,
        "command": command,
        "args": args,
        "format": "json",
    })
    report, code = cmd_dispatch(spec)
    return f"exit {code}\n" + render_report(report, "json")


def _dumps(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True)


def _matrix(A) -> list:
    return [A.nrows, A.ncols,
            [[r, c, str(p)] for (r, c), p in sorted(A.entries.items())]]


def _vec(v: dict) -> dict:
    return {str(k): str(p) for k, p in sorted(v.items())}


def _star_triple(field=QQ) -> str:
    R = Ring(tuple(VARS5), field)
    ideals = [ideal(R, "x1^2", "x1*x2"), ideal(R, "x3", "x4"), ideal(R, "x5^2")]
    assert is_sequentially_transverse(ideals)
    C = taylor_complex(ideals[0])
    prod = taylor_dg_product(ideals[0], C)
    for I in ideals[1:]:
        D = taylor_complex(I)
        prod = star_degree_one_product(C, D, prod, taylor_dg_product(I, D))
        C = prod.complex
    return _dumps(prod.to_json())


def _golod_flagship() -> str:
    R = Ring(tuple(VARS4))
    C = golod_resolution(ideal(R, "x1", "x2"), ideal(R, "x3", "x4"), 4)
    return _dumps(complex_to_json(C))


def _tate() -> str:
    R = Ring(tuple(VARS4))
    seq = [R.parse_monomial("x1^2"), R.parse_monomial("x2*x3")]
    return _dumps(complex_to_json(tate_resolution(seq, R, 4).complex))


def _tate_non_minimal() -> str:
    # x1 is killed in S, so d(y1) = e1 has a unit entry
    R = Ring(tuple(VARS4))
    seq = [R.parse_monomial("x1"), R.parse_monomial("x3^2")]
    return _dumps(complex_to_json(tate_resolution(seq, R, 4).complex))


def _tate_empty() -> str:
    R = Ring(tuple(VARS4))
    return _dumps(complex_to_json(tate_resolution([], R, 3).complex))


def _taylor_tensor_koszul() -> str:
    R = Ring(tuple(VARS4))
    F = taylor_complex(ideal(R, "x1^2", "x1*x2"))
    G = koszul_complex([R.variable(2), R.variable(3)])
    return _dumps(complex_to_json(tensor_complexes(F, G)))


def _star_taylor_koszul() -> str:
    R = Ring(tuple(VARS4))
    F = taylor_complex(ideal(R, "x1^2", "x1*x2"))
    G = koszul_complex([R.variable(2), R.variable(3)])
    return _dumps(complex_to_json(star_product(F, G)))


def _koszul_mixed() -> str:
    R = Ring(tuple(VARS4))
    elems = [Polynomial.from_monomial(R, R.parse_monomial(g))
             for g in ("x1^2", "x2*x3", "x4")]
    return _dumps(complex_to_json(koszul_complex(elems)))


def _taylor_redundant() -> str:
    R = Ring(tuple(VARS4))
    I = ideal(R, "x1^2", "x1*x2")
    gens = list(I.gens) + [R.parse_monomial("x1^2*x2")]
    return _dumps(complex_to_json(taylor_complex(I, gens=gens)))


def _koszul_reps(field=QQ) -> str:
    R = Ring(tuple(VARS4), field)
    IJ = ideal_product(ideal(R, "x1^2", "x1*x2"), ideal(R, "x3", "x4^2"))
    H = koszul_homology(IJ)
    return _dumps([
        [c.i, c.t, c.index, c.label,
         [[list(S), str(p)] for S, p in sorted(as_polynomial(R, c.rep).items())]]
        for c in H.classes
    ])


def _comparison_map(field) -> str:
    R = Ring(tuple(VARS4), field)
    I = ideal(R, "x1^2", "x1*x2", "x2*x3")
    # the sequence against the generator order, so phi_2 carries -1 = 2
    K = koszul_complex([Polynomial.from_monomial(R, R.parse_monomial(g))
                        for g in ("x2*x3", "x1^2")])
    phi = lift_comparison_map(K, minimal_resolution(I))
    return _dumps([_matrix(A) for A in phi])


def _module_action() -> str:
    R = Ring(tuple(VARS4))
    F = taylor_complex(ideal(R, "x1^2", "x1*x2"))
    G = koszul_complex([R.variable(2), R.variable(3)])
    sp = star_degree_one_product(
        F, G, taylor_dg_product(ideal(R, "x1^2", "x1*x2"), F),
        koszul_dg_product(G),
    )
    ci = [Polynomial.from_monomial(R, R.parse_monomial("x1^2*x3"))]
    act = koszul_module_action(sp.complex, sp, ci)
    return _dumps({
        "phi": [_matrix(A) for A in act.phi],
        "tables": [
            [i, j, [[list(S), v, _vec(val)]
                    for (S, v), val in sorted(tab.items())]]
            for (i, j), tab in sorted(act.tables.items())
        ],
        "checked": act.certificate.checked,
        "ok": act.certificate.ok,
    })


def _probe() -> str:
    R = Ring(tuple(VARS5))
    F = koszul_complex([R.variable(0), R.variable(1)])
    G = koszul_complex([R.variable(2), R.variable(3), R.variable(4)])
    sp = star_degree_one_product(F, G, koszul_dg_product(F), koszul_dg_product(G))
    rep = associativity_probe(sp.complex, sp)
    return _dumps({
        "bound": rep.bound,
        "stages": [
            [s.n, [list(b) for b in s.blocks], s.variables, s.assoc_enforced,
             repr(s.leibniz_unsolvable)]
            for s in rep.stages
        ],
        "tested_triples": rep.tested_triples,
        "residual_triples": repr(rep.residual_triples),
    })


OBJECTS = {
    "star_degree_one_triple": _star_triple,
    "golod_resolution_flagship": _golod_flagship,
    "tate_resolution": _tate,
    "tate_resolution_non_minimal": _tate_non_minimal,
    "tate_resolution_empty": _tate_empty,
    "tensor_taylor_koszul": _taylor_tensor_koszul,
    "star_taylor_koszul": _star_taylor_koszul,
    "koszul_mixed_degrees": _koszul_mixed,
    "taylor_redundant_generator": _taylor_redundant,
    "koszul_representatives": _koszul_reps,
    "module_action": _module_action,
    "associativity_probe": _probe,
    "gf3_comparison_map": lambda: _comparison_map(PrimeField(3)),
    "gf3_koszul_representatives": lambda: _koszul_reps(PrimeField(3)),
    "gf3_star_degree_one_triple": lambda: _star_triple(PrimeField(3)),
}

DIGESTS = {
    "cli:check-transverse": "8b4201919f1950a0ef232095c654737ed46c249c9b654eddb6be1deebf853462",
    "cli:resolve": "d2e1eef33ed7605f8c86245e47637e0544acd5f1d4596f82cb071480c965a034",
    "cli:star-resolve": "32eb6057bfe780f4e0a7f091109f00f1abeb0bccada951f1063363961acfbdd5",
    "cli:koszul-homology": "b49f79f1f95ed21e7e4bffa32b5d0365a49622f5f789e7412daf2ed59edf3135",
    "cli:kunneth-verify": "f43844e418f39311819d776eafc2259319fece5d1f3c19d2b320331d1b1dff6f",
    "cli:golod": "4f80379ca409b8a84be239aa1ab908fc363abbacffcf497d19d5d3cf7e8365d8",
    "cli:dg-verify": "3a2515e2258d085aac450d25d7a8e2c25e829a23be93a101e855f3d74c2e4b03",
    "cli:module-action": "89c5fad9726d386686d1980b05f1e687871d555b3d497f3c1f0f1ce0f386f0de",
    "cli:obstruction": "f188264d8f7a7afe34e3a689f53b87261024a658fc79d5f455d48cf6a67c26c7",
    "cli:injectivity-verify": "275742692612ad4d807b7886b196d43f865e299b0abcb61387ebaba3de84d54d",
    "cli:associativity-probe": "9ecb8da0017ed3dc47e1c8bc72a39b58f3460c257ce6f930d963dcc5f9d5aa80",
    "cli:resolve:GF(2)": "d95a3846014443b467fd67d2e43f4e68ee76b4c2c5764b6c572e47d428ca4b84",
    "cli:resolve:GF(3)": "1e6524bae204bbeaa936db7716d20b841b35b9c2ace5c6253cd54ebe7f7f5eb0",
    "cli:resolve:GF(32003)": "b1e98fadf06362629e93f72d3b610b65d0a33064a08397e9e4d816b83b73bb29",
    "cli:star-resolve:GF(2)": "bcbe0bd64c01d02ed5eb95b1d3d76aba51ae0a9c30517a81cff4d5f26fcb648d",
    "cli:star-resolve:GF(3)": "66d7d097578cf33055285b3e6aff01e74379709ea5bbd45689712e738005b5a2",
    "cli:star-resolve:GF(32003)": "205dca2a833b0452bb4ad05ced0093304393abebbc194ef319eb7ea8d4f5299d",
    "cli:koszul-homology:GF(2)": "b49f79f1f95ed21e7e4bffa32b5d0365a49622f5f789e7412daf2ed59edf3135",
    "cli:koszul-homology:GF(3)": "b49f79f1f95ed21e7e4bffa32b5d0365a49622f5f789e7412daf2ed59edf3135",
    "cli:koszul-homology:GF(32003)": "b49f79f1f95ed21e7e4bffa32b5d0365a49622f5f789e7412daf2ed59edf3135",
    "cli:module-action:GF(2)": "89c5fad9726d386686d1980b05f1e687871d555b3d497f3c1f0f1ce0f386f0de",
    "cli:module-action:GF(3)": "89c5fad9726d386686d1980b05f1e687871d555b3d497f3c1f0f1ce0f386f0de",
    "cli:module-action:GF(32003)": "89c5fad9726d386686d1980b05f1e687871d555b3d497f3c1f0f1ce0f386f0de",
    "cli:obstruction:GF(2)": "f188264d8f7a7afe34e3a689f53b87261024a658fc79d5f455d48cf6a67c26c7",
    "cli:obstruction:GF(3)": "f188264d8f7a7afe34e3a689f53b87261024a658fc79d5f455d48cf6a67c26c7",
    "cli:obstruction:GF(32003)": "f188264d8f7a7afe34e3a689f53b87261024a658fc79d5f455d48cf6a67c26c7",
    "obj:associativity_probe": "019b6fe10137ccfd46ecac0beaa0e1ce9d172cf7574b1446e68527dc297d98df",
    "obj:gf3_comparison_map": "2c1157d61dc44ef4a8c5a90bdf05fd44c858687f38746b479c610d978e47db12",
    "obj:gf3_koszul_representatives": "d8bf4e07e2d40280be8ab2b00e772ea9f1b5a70c94ce6614fc0450e80c5a6484",
    "obj:gf3_star_degree_one_triple": "800d57dc1d77082ace60de46706b42d0c12102c67a514dfa3b273ca0cb841e5d",
    "obj:golod_resolution_flagship": "49372344b27926061a5360db86b3d099cb5649412bf73e35327d0ea1c5edf124",
    "obj:koszul_mixed_degrees": "95d55551ba1f66c2ef9f1aca6a361a60672ed47dcdbbd8101fba4505a6050510",
    "obj:koszul_representatives": "c408e6d4b6e10cc257072bb019995401df61d5b6e99babcabba8a329d59052c6",
    "obj:module_action": "9faf94b859d9a6fa978284aa67c52dc7d31c8f28ca47daa5aad571eae0ddd38f",
    "obj:star_degree_one_triple": "df734b90182cd3ed6756e37cbfe520038191493b456b4852f11e6c7fcf973279",
    "obj:star_taylor_koszul": "79ade5b29fab3532c58b27289dba084c78b9572ed2fca914804a03852f07a851",
    "obj:tate_resolution": "391c86e2cff17ab3cf4e9ba0201a6519b381e289d0727b09fbde0d2f62c7a955",
    "obj:tate_resolution_empty": "045becf092d77520e812124a5f902b348d9c6cbda88c856eb233ea9feef9abbb",
    "obj:tate_resolution_non_minimal": "0c6a79fb911bc455083bcd892ba12f031d9f7c6f6d87a905d7666e2711beea0b",
    "obj:taylor_redundant_generator": "e2a6a269d3191c80a3e24ef3185f41d15b17a9f4ba67c0f90698e4961441226f",
    "obj:tensor_taylor_koszul": "b3b8018048bedbc02e82543269c2bc368087b2e72090880badc84656bdf6ce35",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_command_has_a_job():
    assert set(JOBS) == set(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_report_unchanged(command):
    assert _digest(_run_job(command)) == DIGESTS[f"cli:{command}"]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("command", PRIME_COMMANDS)
def test_prime_field_report_unchanged(command, p):
    assert _digest(_run_job(command, {"prime": p})) == DIGESTS[f"cli:{command}:GF({p})"]


@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_object_unchanged(name):
    assert _digest(OBJECTS[name]()) == DIGESTS[f"obj:{name}"]


if __name__ == "__main__":
    for command in COMMANDS:
        print(f'    "cli:{command}": "{_digest(_run_job(command))}",')
    for command in PRIME_COMMANDS:
        for p in PRIMES:
            digest = _digest(_run_job(command, {"prime": p}))
            print(f'    "cli:{command}:GF({p})": "{digest}",')
    for name in sorted(OBJECTS):
        print(f'    "obj:{name}": "{_digest(OBJECTS[name]())}",')
