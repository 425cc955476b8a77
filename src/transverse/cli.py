"""Command-line front end: JSON job documents in, certificates and tables out.

Exit codes: 0 for pass/success, 1 for a certified failure (for example a
non-transverse pair under check-transverse, or a failed verification), 2
for input errors.  Output is byte-deterministic for identical documents.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import complexes, dg, golod, obstructions, resolutions
from .errors import AlgebraError, ParseError
from .fields import QQ, PrimeField, field_to_json
from .ideals import (
    MonomialIdeal,
    ideal_intersection,
    ideal_product,
    is_sequentially_transverse,
    is_transverse,
    minimalize_generators,
    regular_sequence,
    transversality_witness,
)
from .poly import Ring

COMMANDS = (
    "check-transverse",
    "resolve",
    "star-resolve",
    "koszul-homology",
    "kunneth-verify",
    "golod",
    "dg-verify",
    "module-action",
    "obstruction",
    "injectivity-verify",
    "associativity-probe",
)

DOCUMENT_KEYS = ("ring", "ideals", "command", "args", "format")
RING_KEYS = ("vars", "field")
FIELD_KEYS = ("prime",)
# the args key that --bound sets, for the commands that take a bound
BOUND_KEYS = dict.fromkeys(("golod", "obstruction", "injectivity-verify"), "n_max")
BOUND_KEYS["associativity-probe"] = "bound"


class JobSpec:
    """A validated job document."""

    def __init__(self, ring, ideals, command, args, fmt):
        self.ring = ring
        self.ideals = ideals
        self.command = command
        self.args = args
        self.format = fmt

    def ideal(self, name: str) -> MonomialIdeal:
        if not isinstance(name, str):
            raise ParseError(f"args: expected an ideal name, got {name!r}")
        if name not in self.ideals:
            raise ParseError(f"args reference undefined ideal {name!r}")
        return self.ideals[name]

    def to_document(self) -> dict:
        return {
            "ring": {"vars": list(self.ring.names),
                     "field": field_to_json(self.ring.field)},
            "ideals": {
                name: [self.ring.format_monomial(g) for g in I.gens]
                for name, I in sorted(self.ideals.items())
            },
            "command": self.command,
            "args": self.args,
            "format": self.format,
        }


def _refuse_unknown_keys(spec: dict, known: tuple, where: str) -> None:
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ParseError(
            f"{where}: unknown key {unknown[0]!r}; expected {', '.join(known)}"
        )


def parse_input(document, field_override=None) -> JobSpec:
    """Validate a job document (dict or JSON text) into a JobSpec; unknown
    keys of the document, its ring or its field are refused (those of args
    vary)."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON at line {e.lineno}, col {e.colno}: {e.msg}")
    if not isinstance(document, dict):
        raise ParseError("job document must be a JSON object")
    _refuse_unknown_keys(document, DOCUMENT_KEYS, "job document")
    ring_spec = document.get("ring")
    if not isinstance(ring_spec, dict) or "vars" not in ring_spec:
        raise ParseError("ring: expected an object with a 'vars' list")
    _refuse_unknown_keys(ring_spec, RING_KEYS, "ring")
    names = ring_spec["vars"]
    if (
        not isinstance(names, list)
        or not names
        or not all(isinstance(v, str) for v in names)
    ):
        raise ParseError("ring.vars: expected a nonempty list of strings")
    field_spec = field_override or ring_spec.get("field", "rational")
    if field_spec == "rational":
        field = QQ
    elif isinstance(field_spec, dict) and "prime" in field_spec:
        _refuse_unknown_keys(field_spec, FIELD_KEYS, "ring.field")
        p = field_spec["prime"]
        if type(p) is not int:
            raise ParseError(f"ring.field.prime: expected an integer, got {p!r}")
        field = PrimeField(p)
    else:
        raise ParseError(
            f"ring.field: expected 'rational' or {{'prime': p}}, got {field_spec!r}"
        )
    try:
        ring = Ring(tuple(names), field)
    except AlgebraError as e:
        raise ParseError(f"ring: {e}")
    ideals = {}
    ideal_specs = document.get("ideals") or {}
    if not isinstance(ideal_specs, dict):
        raise ParseError("ideals: expected an object of named generator lists")
    for name, gens in ideal_specs.items():
        if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
            raise ParseError(f"ideals.{name}: expected a list of monomial strings")
        mons = []
        for k, g in enumerate(gens):
            try:
                mons.append(ring.parse_monomial(g))
            except AlgebraError as e:
                raise ParseError(f"ideals.{name}[{k}]: {e}")
        ideals[name] = minimalize_generators(ring, mons)
    command = document.get("command")
    if command not in COMMANDS:
        raise ParseError(
            f"command: expected one of {', '.join(COMMANDS)}; got {command!r}"
        )
    args = document.get("args") or {}
    if not isinstance(args, dict):
        raise ParseError("args: expected an object")
    for key in ("n_max", "bound"):
        if args.get(key) is not None and type(args[key]) is not int:
            raise ParseError(f"args.{key}: expected an integer, got {args[key]!r}")
    if "verify" in args and type(args["verify"]) is not bool:
        raise ParseError(f"args.verify: expected true or false, got {args['verify']!r}")
    fmt = document.get("format", "text")
    if fmt not in ("json", "text"):
        raise ParseError("format: expected 'json' or 'text'")
    return JobSpec(ring, ideals, command, args, fmt)


def _resolution_for(spec: JobSpec, I: MonomialIdeal, method: str):
    if method == "taylor":
        return resolutions.taylor_complex(I)
    if method == "koszul":
        from .poly import Polynomial

        # the Koszul complex resolves R/I only on a regular sequence
        return resolutions.koszul_complex(
            [Polynomial.from_monomial(I.ring, g)
             for g in regular_sequence(I.ring, I.gens)]
        )
    if method == "minimal":
        return resolutions.minimal_resolution(I)
    raise ParseError(f"args.method: unknown method {method!r}")


def _ideal_list(spec: JobSpec):
    names = spec.args.get("ideals")
    if not isinstance(names, list) or len(names) < 2:
        raise ParseError("args.ideals: expected a list of at least two ideal names")
    return [spec.ideal(n) for n in names]


def _ci_monomials(spec: JobSpec):
    ci = spec.args.get("ci")
    if not isinstance(ci, list) or not ci or not all(isinstance(s, str) for s in ci):
        raise ParseError("args.ci: expected a list of monomial strings")
    return [spec.ring.parse_monomial(s) for s in ci]


# the certified refusal of the star-product commands
_NOT_TRANSVERSE = {"pass": False, "reason": "ideals are not sequentially transverse"}


def _star_with_product(ideals_list):
    """Iterated star product of Taylor resolutions with the degree-one
    product of each stage, certified along the way; None unless the ideals
    are sequentially transverse, which the construction needs."""
    if not is_sequentially_transverse(ideals_list):
        return None
    items = []
    for I in ideals_list:
        C = resolutions.taylor_complex(I)
        items.append((C, dg.taylor_dg_product(I, C)))
    C, prod = items[0]
    for D, prodD in items[1:]:
        prod = dg.star_degree_one_product(C, D, prod, prodD)
        C = prod.complex
    return C, prod


def cmd_dispatch(spec: JobSpec):
    """Run the job; returns (report dict, exit code)."""
    bound = spec.args.get("n_max")
    if spec.command == "check-transverse":
        I = spec.ideal(spec.args.get("left", "I"))
        J = spec.ideal(spec.args.get("right", "J"))
        ok = is_transverse(I, J)
        report = {
            "command": "check-transverse",
            "transverse": ok,
            "product": [I.ring.format_monomial(m) for m in ideal_product(I, J).gens],
            "intersection": [
                I.ring.format_monomial(m) for m in ideal_intersection(I, J).gens
            ],
        }
        if not ok:
            w = transversality_witness(I, J)
            report["witness"] = I.ring.format_monomial(w)
        return report, 0 if ok else 1

    if spec.command == "resolve":
        I = spec.ideal(spec.args.get("ideal", "I"))
        method = spec.args.get("method", "minimal")
        C = _resolution_for(spec, I, method)
        report = {
            "command": "resolve",
            "method": method,
            "ranks": list(C.total_ranks()),
            "complex": complexes.complex_to_json(C),
        }
        if complexes.is_minimal(C):
            table = complexes.betti_table(C)
            report["betti"] = table.to_json()
            report["staircase"] = table.staircase()
        return report, 0

    if spec.command == "star-resolve":
        I = spec.ideal(spec.args.get("left", "I"))
        J = spec.ideal(spec.args.get("right", "J"))
        F = resolutions.minimal_resolution(I)
        G = resolutions.minimal_resolution(J)
        S = complexes.star_product(F, G)
        IJ = ideal_product(I, J)
        report = {
            "command": "star-resolve",
            "ranks": list(S.total_ranks()),
            "complex": complexes.complex_to_json(S),
        }
        code = 0
        if spec.args.get("verify", True):
            cert = complexes.verify_resolution(S, IJ)
            report["verification"] = {
                "pass": cert.ok,
                "strand_failures": cert.strand_failures[:5],
                "coker_failures": cert.coker_failures[:5],
                "betti_ok": cert.betti_ok,
            }
            report["betti"] = cert.betti_want.to_json()
            report["staircase"] = cert.betti_want.staircase()
            code = 0 if cert.ok else 1
        return report, code

    if spec.command == "koszul-homology":
        I = spec.ideal(spec.args.get("ideal", "I"))
        H = golod.koszul_homology(I)
        report = {
            "command": "koszul-homology",
            "dims": {str(i): d for i, d in sorted(H.dims().items())},
            "graded_dims": {
                f"{i},{t}": d for (i, t), d in sorted(H.graded_dims().items())
            },
        }
        return report, 0

    if spec.command == "kunneth-verify":
        I = spec.ideal(spec.args.get("left", "I"))
        J = spec.ideal(spec.args.get("right", "J"))
        cert = golod.kunneth_map(I, J)
        report = {
            "command": "kunneth-verify",
            "pass": cert.ok,
            "rows": [
                {
                    "n": r.n,
                    "dim_source": r.dim_source,
                    "dim_target": r.dim_target,
                    "rank": r.rank,
                }
                for r in cert.rows
            ],
        }
        return report, 0 if cert.ok else 1

    if spec.command == "golod":
        I = spec.ideal(spec.args.get("left", "I"))
        J = spec.ideal(spec.args.get("right", "J"))
        mode = spec.args.get("mode", "verify")
        if mode not in ("verify", "resolution", "series"):
            raise ParseError(
                f"args.mode: expected verify, resolution or series; got {mode!r}"
            )
        n_max = 5 if bound is None else bound
        if mode == "series":
            ps = golod.golod_poincare(I, J, n_max)
            report = {
                "command": "golod",
                "mode": "series",
                "numerator": list(ps.numerator),
                "denominator": list(ps.denominator),
                "coefficients": list(ps.coefficients),
            }
            return report, 0
        if mode == "resolution":
            C = golod.golod_resolution(I, J, n_max)
            return {
                "command": "golod",
                "mode": "resolution",
                "ranks": list(C.total_ranks()),
            }, 0
        cert = golod.verify_golod(I, J, n_max)
        report = {
            "command": "golod",
            "mode": "verify",
            "pass": cert.ok,
            "ranks": list(cert.ranks),
            "series": list(cert.series_coeffs),
            "minimal": cert.minimal,
            "trivial_products": not cert.triviality_failures,
        }
        return report, 0 if cert.ok else 1

    if spec.command == "dg-verify":
        star = _star_with_product(_ideal_list(spec))
        if star is None:
            return {"command": spec.command, **_NOT_TRANSVERSE}, 1
        C, prod = star
        cert = prod.certificate
        report = {
            "command": "dg-verify",
            "pass": cert.ok,
            "ranks": list(C.total_ranks()),
            "checked_pairs": cert.checked_pairs,
            "leibniz_failures": cert.leibniz_failures[:5],
            "square_failures": cert.square_failures[:5],
        }
        return report, 0 if cert.ok else 1

    if spec.command == "module-action":
        ideals_list = _ideal_list(spec)
        ci = _ci_monomials(spec)
        star = _star_with_product(ideals_list)
        if star is None:
            return {"command": spec.command, **_NOT_TRANSVERSE}, 1
        C, prod = star
        action = dg.koszul_module_action(C, prod, ci)
        cert = action.certificate
        report = {
            "command": "module-action",
            "pass": cert.ok,
            "checked": cert.checked,
            "leibniz_failures": cert.leibniz_failures[:5],
            "relation_failures": cert.relation_failures[:5],
        }
        return report, 0 if cert.ok else 1

    if spec.command == "obstruction":
        M = spec.ideal(spec.args.get("module", "M"))
        seq = _ci_monomials(spec)
        rep = obstructions.avramov_obstruction(seq, M, bound)
        report = {"command": "obstruction", "report": rep.to_json(),
                  "table": rep.table()}
        return report, 0

    if spec.command == "injectivity-verify":
        I = spec.ideal(spec.args.get("left", "I"))
        J = spec.ideal(spec.args.get("right", "J"))
        seq = _ci_monomials(spec)
        n_max = 4 if bound is None else bound
        cert = obstructions.verify_injectivity(seq, I, J, n_max)
        report = {
            "command": "injectivity-verify",
            "pass": cert.ok,
            "rows": [
                {"i": i, "dim_tor_R": s, "rank": r} for i, s, r in cert.rows
            ],
        }
        return report, 0 if cert.ok else 1

    if spec.command == "associativity-probe":
        probe_bound = spec.args.get("bound")
        # the first stage is n = 3; a smaller bound would test nothing
        if probe_bound is not None and probe_bound < 3:
            raise ParseError(f"args.bound: expected at least 3, got {probe_bound}")
        star = _star_with_product(_ideal_list(spec))
        if star is None:
            return {"command": spec.command, **_NOT_TRANSVERSE}, 1
        C, prod = star
        rep = dg.associativity_probe(C, prod, probe_bound)
        report = {
            "command": "associativity-probe",
            "note": "experimental findings only",
            "bound": rep.bound,
            "extension_found": rep.extension_found,
            "associative": rep.associative,
            "tested_triples": rep.tested_triples,
            "residual_triples": len(rep.residual_triples),
        }
        return report, 0

    raise ParseError(f"unhandled command {spec.command!r}")


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    lines = []
    for key, val in report.items():
        if key == "complex":
            continue
        if key in ("table", "staircase"):
            lines.append(str(val))
        elif isinstance(val, dict):
            lines.append(f"{key}:")
            for k, v in val.items():
                if k == "table":
                    lines.append(str(v))
                else:
                    lines.append(f"  {k}: {v}")
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            for row in val:
                lines.append(
                    "  " + "  ".join(f"{k}={v}" for k, v in row.items())
                )
        else:
            lines.append(f"{key}: {val}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="transverse",
        description="exact homological certificates for products of "
        "transverse monomial ideals",
    )
    parser.add_argument("job", help="path to a JSON job document, or - for stdin")
    parser.add_argument("--format", choices=("json", "text"), default=None)
    parser.add_argument(
        "--field", default=None,
        help="override the ring field: 'rational' or 'prime[:p]'",
    )
    parser.add_argument(
        "--bound", type=int, default=None,
        help="override args.n_max, or args.bound of associativity-probe",
    )
    opts = parser.parse_args(argv)
    try:
        if opts.job == "-":
            text = sys.stdin.read()
        else:
            with open(opts.job, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    field_override = None
    if opts.field:
        if opts.field == "rational":
            field_override = "rational"
        elif opts.field == "prime" or (
            opts.field.startswith("prime:") and opts.field[6:].isdecimal()
        ):
            _, _, p = opts.field.partition(":")
            field_override = {"prime": int(p) if p else 32003}
        else:
            print(f"error: bad --field {opts.field!r}", file=sys.stderr)
            return 2
    try:
        spec = parse_input(text, field_override)
        if opts.bound is not None:
            if spec.command not in BOUND_KEYS:
                raise ParseError(f"--bound: {spec.command} takes no bound")
            spec.args[BOUND_KEYS[spec.command]] = opts.bound
        if opts.format:
            spec.format = opts.format
        report, code = cmd_dispatch(spec)
    except ParseError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except AlgebraError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(render_report(report, spec.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
