import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from transverse.cli import COMMAND_TABLE, cmd_dispatch, main, parse_input, render_report
from transverse.errors import ParseError

RING = {"vars": ["x1", "x2", "x3", "x4"], "field": "rational"}


def job(command, args, ideals=None, ring=None, fmt="json"):
    return {
        "ring": ring or RING,
        "ideals": ideals if ideals is not None else {"I": ["x1", "x2"], "J": ["x3", "x4"]},
        "command": command,
        "args": args,
        "format": fmt,
    }


class TestParse:
    def test_valid_document(self):
        doc = {
            "ring": {"vars": ["x", "y"], "field": "rational"},
            "ideals": {"I": ["x"], "J": ["y"]},
            "command": "check-transverse",
            "args": {"left": "I", "right": "J"},
        }
        spec = parse_input(json.dumps(doc))
        assert spec.ring.names == ("x", "y")
        assert spec.ideal("I").gens[0].exps == (1, 0)

    def test_unknown_variable_named(self):
        doc = job("check-transverse", {}, ideals={"I": ["z"]})
        with pytest.raises(ParseError, match="'z'"):
            parse_input(doc)

    def test_prime_field_selected(self):
        doc = job("koszul-homology", {"ideal": "I"})
        doc["ring"] = {"vars": ["x1", "x2", "x3", "x4"], "field": {"prime": 32003}}
        spec = parse_input(doc)
        assert spec.ring.field.p == 32003

    def test_bad_json_has_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_input("{ broken")

    def test_unknown_command(self):
        with pytest.raises(ParseError, match="command"):
            parse_input(job("frobnicate", {}))

    def test_round_trip(self):
        # the spec keeps everything the document says
        doc = job("check-transverse", {"left": "I", "right": "J"})
        spec = parse_input(doc)
        assert list(spec.ring.names) == doc["ring"]["vars"]
        assert {
            name: [spec.ring.format_monomial(g) for g in I.gens]
            for name, I in spec.ideals.items()
        } == doc["ideals"]
        assert (spec.command, spec.args, spec.format) == (
            doc["command"], doc["args"], doc["format"]
        )


class TestDispatch:
    def test_star_resolve_flagship(self):
        spec = parse_input(job("star-resolve", {"left": "I", "right": "J"}))
        report, code = cmd_dispatch(spec)
        assert code == 0
        assert report["ranks"] == [1, 4, 4, 1]
        assert report["verification"]["pass"] is True

    def test_check_transverse_failure_exit_one(self):
        spec = parse_input(
            job(
                "check-transverse",
                {"left": "I", "right": "J"},
                ideals={"I": ["x1", "x2"], "J": ["x2", "x3"]},
            )
        )
        report, code = cmd_dispatch(spec)
        assert code == 1
        assert report["transverse"] is False
        assert report["witness"] == "x2"

    def test_obstruction_report_exit_zero(self):
        spec = parse_input(
            job(
                "obstruction",
                {"module": "M", "ci": ["x1^2", "x4^2"]},
                ideals={"M": ["x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2"]},
            )
        )
        report, code = cmd_dispatch(spec)
        assert code == 0
        rows = report["report"]["rows"]
        assert any(r["obstruction"] for r in rows)

    def test_golod_series(self):
        spec = parse_input(
            job("golod", {"left": "I", "right": "J", "mode": "series", "n_max": 5})
        )
        report, code = cmd_dispatch(spec)
        assert code == 0
        assert report["coefficients"] == [1, 4, 10, 24, 58, 140]

    def test_dg_verify(self):
        spec = parse_input(job("dg-verify", {"ideals": ["I", "J"]}))
        report, code = cmd_dispatch(spec)
        assert code == 0 and report["pass"] is True

    def test_kunneth(self):
        spec = parse_input(job("kunneth-verify", {"left": "I", "right": "J"}))
        report, code = cmd_dispatch(spec)
        assert code == 0 and report["pass"] is True

    def test_injectivity(self):
        spec = parse_input(
            job(
                "injectivity-verify",
                {"left": "I", "right": "J", "ci": ["x1*x3"], "n_max": 4},
            )
        )
        report, code = cmd_dispatch(spec)
        assert code == 0 and report["pass"] is True

    def test_module_action(self):
        spec = parse_input(
            job("module-action", {"ideals": ["I", "J"], "ci": ["x1*x3"]})
        )
        report, code = cmd_dispatch(spec)
        assert code == 0 and report["pass"] is True

    def test_associativity_probe(self):
        spec = parse_input(job("associativity-probe", {"ideals": ["I", "J"]}))
        report, code = cmd_dispatch(spec)
        assert code == 0
        assert report["associative"] is True

    def test_associativity_probe_four_variables(self, monkeypatch):
        # the unknowns are multigraded scalars, so this job runs in about
        # a second
        from transverse import dg

        stages = []
        probe = dg.associativity_probe

        def traced_probe(*args):
            rep = probe(*args)
            stages.extend(rep.stages)
            return rep

        monkeypatch.setattr(dg, "associativity_probe", traced_probe)
        ideals = {"I": ["x1^2", "x1*x2", "x2^2"], "J": ["x3*x4", "x4^2", "x3^2"]}
        spec = parse_input(job("associativity-probe", {"ideals": ["I", "J"]}, ideals))
        report, code = cmd_dispatch(spec)
        assert code == 0
        assert report["extension_found"] is True and report["associative"] is True
        assert report["tested_triples"] == 39366 and report["residual_triples"] == 0
        assert [s.variables for s in stages] == [1014, 1494, 414, 0]

    def test_resolve_minimal(self):
        spec = parse_input(job("resolve", {"ideal": "I", "method": "minimal"}))
        report, code = cmd_dispatch(spec)
        assert code == 0
        assert report["ranks"] == [1, 2, 1]


class TestNotSequentiallyTransverse:
    """Every command that builds the star product with its degree-one
    product refuses a pair that is not sequentially transverse."""

    @pytest.mark.parametrize(
        "command, args",
        [
            ("dg-verify", {}),
            ("module-action", {"ci": ["x1*x3"]}),
            ("associativity-probe", {}),
        ],
        ids=["dg-verify", "module-action", "associativity-probe"],
    )
    def test_certified_refusal(self, tmp_path, capsys, command, args):
        ideals = {"I": ["x1", "x2"], "J": ["x2", "x3"]}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job(command, {"ideals": ["I", "J"], **args}, ideals)))
        assert main([str(path)]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "command": command,
            "pass": False,
            "reason": "ideals are not sequentially transverse",
        }


class TestRender:
    def test_json_byte_stable(self):
        spec = parse_input(job("check-transverse", {"left": "I", "right": "J"}))
        r1, _ = cmd_dispatch(spec)
        r2, _ = cmd_dispatch(parse_input(job("check-transverse", {"left": "I", "right": "J"})))
        assert render_report(r1, "json") == render_report(r2, "json")

    def test_empty_report_renders_empty(self):
        assert render_report({}, "text") == ""

    def test_text_contains_key_lines(self):
        spec = parse_input(job("golod", {"left": "I", "right": "J", "mode": "series", "n_max": 5}, fmt="text"))
        report, _ = cmd_dispatch(spec)
        text = render_report(report, "text")
        assert "coefficients: [1, 4, 10, 24, 58, 140]" in text


class TestMain:
    def test_file_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job("check-transverse", {"left": "I", "right": "J"})))
        code = main([str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["transverse"] is True

    def test_input_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main([str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["/nonexistent/job.json"]) == 2

    def test_field_override_and_threads(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job("koszul-homology", {"ideal": "I"})))
        code = main([str(path), "--field", "prime:32003", "--format", "json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dims"] == {"1": 2, "2": 1}

    def test_determinism_across_runs(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(
            json.dumps(job("golod", {"left": "I", "right": "J", "n_max": 3}))
        )
        main([str(path)])
        out1 = capsys.readouterr().out
        main([str(path)])
        out2 = capsys.readouterr().out
        assert out1 == out2


OBSTRUCTION_MODULE = {"M": ["x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2"]}


class TestInputErrorsExitTwo:
    """Malformed input exits 2 with a one-line message, never a traceback."""

    @staticmethod
    def run(tmp_path, capsys, doc, *flags):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc))
        code = main([str(path), *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        return err

    def test_field_override_not_a_number(self, tmp_path, capsys):
        doc = job("koszul-homology", {"ideal": "I"})
        err = self.run(tmp_path, capsys, doc, "--field", "prime:abc")
        assert "--field" in err

    def test_malformed_field_override_is_an_input_error(self, tmp_path, capsys):
        doc = job("koszul-homology", {"ideal": "I"})
        err = self.run(tmp_path, capsys, doc, "--field", "bogus")
        assert err.startswith("input error: --field: ")

    def test_document_prime_not_a_number(self, tmp_path, capsys):
        doc = job("koszul-homology", {"ideal": "I"})
        doc["ring"] = {"vars": ["x1", "x2", "x3", "x4"], "field": {"prime": "q"}}
        assert "ring.field.prime" in self.run(tmp_path, capsys, doc)

    @pytest.mark.parametrize("prime", [2.5, 7.0, "7", True, None, [7]])
    def test_document_prime_not_an_integer(self, tmp_path, capsys, prime):
        # only a JSON integer is a prime, as for args.n_max: 2.5 must not
        # run over GF(2), nor "7" or 7.0 over GF(7)
        doc = job("koszul-homology", {"ideal": "I"})
        doc["ring"] = {"vars": ["x1", "x2", "x3", "x4"], "field": {"prime": prime}}
        assert "ring.field.prime" in self.run(tmp_path, capsys, doc)

    @pytest.mark.parametrize("prime", [3215031751, 3317044064679887385961981])
    def test_field_override_composite_or_oversized(self, tmp_path, capsys, prime):
        # a strong pseudoprime to the bases 2, 3, 5 and 7 is refused, and a
        # p past the bound of the deterministic primality test is refused
        # at once instead of running a test that would not decide it
        doc = job("check-transverse", {"left": "I", "right": "J"})
        err = self.run(tmp_path, capsys, doc, "--field", f"prime:{prime}")
        assert str(prime) in err

    @pytest.mark.parametrize("flags, field, p", [
        (("--field", "prime:4"), None, 4),
        (("--field", "prime:1"), None, 1),
        ((), {"prime": 3215031751}, 3215031751),
    ], ids=["--field prime:4", "--field prime:1", "document prime"])
    def test_a_prime_that_is_refused_is_an_input_error(
        self, tmp_path, capsys, flags, field, p
    ):
        # a p that PrimeField refuses reads as the other malformed rings do
        ring = {"vars": ["x1", "x2", "x3", "x4"]}
        if field:
            ring["field"] = field
        doc = job("check-transverse", {"left": "I", "right": "J"}, ring=ring)
        err = self.run(tmp_path, capsys, doc, *flags)
        assert err.startswith(f"input error: ring.field.prime: {p} ")

    @pytest.mark.parametrize("names",[["1", "x"], ["x", "x^2"], ["", "x"],
                                       ["x*y"], ["x y"], ["x1", "é"]])
    def test_variable_names_the_monomial_grammar_cannot_read(
        self, tmp_path, capsys, names
    ):
        doc = job("check-transverse", {}, ideals={}, ring={"vars": names})
        err = self.run(tmp_path, capsys, doc)
        assert err.startswith("input error: ring: variable name")

    def test_document_field_unknown_key(self, tmp_path, capsys):
        doc = job("koszul-homology", {"ideal": "I"})
        doc["ring"] = {"vars": ["x1", "x2", "x3", "x4"],
                       "field": {"prime": 7, "bogus": 1}}
        assert "ring.field: unknown key 'bogus'" in self.run(tmp_path, capsys, doc)

    def test_n_max_as_string(self, tmp_path, capsys):
        doc = job("golod", {"left": "I", "right": "J", "n_max": "5"})
        assert "args.n_max" in self.run(tmp_path, capsys, doc)

    def test_ideals_as_list(self, tmp_path, capsys):
        doc = job("koszul-homology", {"ideal": "I"}, ideals=["x1"])
        assert "ideals:" in self.run(tmp_path, capsys, doc)

    def test_generator_not_a_string(self, tmp_path, capsys):
        doc = job("koszul-homology", {"ideal": "I"}, ideals={"I": [3]})
        assert "ideals.I" in self.run(tmp_path, capsys, doc)

    def test_ci_entry_not_a_string(self, tmp_path, capsys):
        doc = job("obstruction", {"module": "I", "ci": [3]})
        assert "args.ci" in self.run(tmp_path, capsys, doc)

    def test_golod_resolution_n_max_zero(self, tmp_path, capsys):
        # an explicit 0 is used as given, not replaced by the default
        doc = job("golod", {"left": "I", "right": "J", "mode": "resolution",
                            "n_max": 0})
        assert "n_max" in self.run(tmp_path, capsys, doc)

    def test_golod_verify_bound_zero(self, tmp_path, capsys):
        doc = job("golod", {"left": "I", "right": "J", "mode": "verify"})
        assert "n_max" in self.run(tmp_path, capsys, doc, "--bound", "0")

    def test_injectivity_n_max_zero(self, tmp_path, capsys):
        doc = job("injectivity-verify",
                  {"left": "I", "right": "J", "ci": ["x1*x3"], "n_max": 0})
        assert "n_max" in self.run(tmp_path, capsys, doc)

    def test_injectivity_n_max_one(self, tmp_path, capsys):
        doc = job("injectivity-verify",
                  {"left": "I", "right": "J", "ci": ["x1*x3"], "n_max": 1})
        assert "n_max" in self.run(tmp_path, capsys, doc)

    def test_obstruction_n_max_zero(self, tmp_path, capsys):
        doc = job("obstruction", {"module": "M", "ci": ["x1^2", "x4^2"],
                                  "n_max": 0}, ideals=OBSTRUCTION_MODULE)
        assert "n_max" in self.run(tmp_path, capsys, doc)

    def test_obstruction_n_max_one(self, tmp_path, capsys):
        # no degree i >= 2 to check, so no vanishing may be claimed
        doc = job("obstruction", {"module": "M", "ci": ["x1^2", "x4^2"],
                                  "n_max": 1}, ideals=OBSTRUCTION_MODULE)
        assert "n_max" in self.run(tmp_path, capsys, doc)

    def test_obstruction_bound_one(self, tmp_path, capsys):
        doc = job("obstruction", {"module": "M", "ci": ["x1^2", "x4^2"]},
                  ideals=OBSTRUCTION_MODULE)
        assert "n_max" in self.run(tmp_path, capsys, doc, "--bound", "1")

    def test_golod_series_negative_n_max(self, tmp_path, capsys):
        doc = job("golod", {"left": "I", "right": "J", "mode": "series",
                            "n_max": -1})
        assert "n_max" in self.run(tmp_path, capsys, doc)

    def test_golod_unknown_mode(self, tmp_path, capsys):
        doc = job("golod", {"left": "I", "right": "J", "mode": "seriez"})
        assert "args.mode" in self.run(tmp_path, capsys, doc)

    def test_star_resolve_verify_not_a_boolean(self, tmp_path, capsys):
        doc = job("star-resolve", {"left": "I", "right": "J", "verify": "no"})
        assert "args.verify" in self.run(tmp_path, capsys, doc)

    def test_ideal_reference_not_a_string(self, tmp_path, capsys):
        doc = job("check-transverse", {"left": ["I"], "right": "J"})
        assert "ideal name" in self.run(tmp_path, capsys, doc)

    @pytest.mark.parametrize("bound", [0, 2])
    def test_probe_bound_below_first_stage(self, tmp_path, capsys, bound):
        # stages start at n = 3: a smaller bound tests no triple
        doc = job("associativity-probe", {"ideals": ["I", "J"], "bound": bound})
        assert "args.bound" in self.run(tmp_path, capsys, doc)

    def test_ideal_list_entry_not_a_string(self, tmp_path, capsys):
        doc = job("dg-verify", {"ideals": ["I", ["J"]]})
        assert "ideal name" in self.run(tmp_path, capsys, doc)

    def test_unknown_document_key(self, tmp_path, capsys):
        # a misspelt "format" would otherwise print text and exit 0
        doc = job("check-transverse", {"left": "I", "right": "J"})
        doc["fromat"] = doc.pop("format")
        assert "'fromat'" in self.run(tmp_path, capsys, doc)

    def test_unknown_ring_key(self, tmp_path, capsys):
        # a misspelt "field" would otherwise compute over QQ and exit 0
        doc = job("koszul-homology", {"ideal": "I"})
        doc["ring"] = {"vars": ["x1", "x2", "x3", "x4"], "feild": {"prime": 2}}
        assert "'feild'" in self.run(tmp_path, capsys, doc)

    def test_unknown_args_key(self, tmp_path, capsys):
        # a misspelt "n_max" would otherwise run at the default n_max 5
        doc = job("golod", {"left": "I", "right": "J", "mode": "verify", "n_mx": 2})
        assert self.run(tmp_path, capsys, doc) == (
            "input error: args: unknown key 'n_mx'; expected left, right, mode, n_max\n"
        )

    @pytest.mark.parametrize("value", [False, [], 0, "", None, 7],
                             ids=["false", "[]", "0", "empty string", "null", "7"])
    def test_args_that_is_not_an_object(self, tmp_path, capsys, value):
        # only an absent "args" reads as {}: a falsy one would otherwise run
        # the flagship verify at the default n_max 5 and exit 0
        doc = job("golod", value)
        assert self.run(tmp_path, capsys, doc) == "input error: args: expected an object\n"

    @pytest.mark.parametrize("value", [False, [], 0, "", None, 7],
                             ids=["false", "[]", "0", "empty string", "null", "7"])
    def test_ideals_that_is_not_an_object(self, tmp_path, capsys, value):
        doc = job("golod", {"left": "I", "right": "J"})
        doc["ideals"] = value
        assert self.run(tmp_path, capsys, doc) == (
            "input error: ideals: expected an object of named generator lists\n"
        )

    def test_absent_args_and_ideals_read_as_empty(self):
        doc = job("check-transverse", {})
        del doc["args"], doc["ideals"]
        spec = parse_input(doc)
        assert (spec.args, spec.ideals) == ({}, {})

    def test_probe_bound_flag_below_first_stage(self, tmp_path, capsys):
        doc = job("associativity-probe", {"ideals": ["I", "J"]})
        assert "args.bound" in self.run(tmp_path, capsys, doc, "--bound", "1")

    def test_bound_flag_on_a_command_without_a_bound(self, tmp_path, capsys):
        doc = job("dg-verify", {"ideals": ["I", "J"]})
        assert "--bound" in self.run(tmp_path, capsys, doc, "--bound", "4")


def test_probe_bound_flag_sets_the_probe_bound(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job("associativity-probe", {"ideals": ["I", "J"]})))
    assert main([str(path), "--bound", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["bound"] == 3


def test_readme_job_documents_run(tmp_path, capsys):
    # every ```json block of README.md is a job document that runs cleanly
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text("utf-8"), re.S)
    assert blocks
    path = tmp_path / "job.json"
    for text in blocks:
        path.write_text(text)
        assert main([str(path)]) == 0, text
        assert not capsys.readouterr().err


def test_readme_command_table_matches_the_cli():
    # each row of README's command table names a command and, in its args
    # column, exactly the keys that command's args may hold
    readme = Path(__file__).resolve().parent.parent / "README.md"
    rows = re.findall(r"^\| `([a-z-]+)` +\|([^|]*)\|", readme.read_text("utf-8"), re.M)
    table = {command: tuple(re.findall(r"`([^`]+)`", keys)) for command, keys in rows}
    assert table == {command: keys for command, (_, keys) in COMMAND_TABLE.items()}
    assert list(table) == list(COMMAND_TABLE)


def test_readme_quick_start_runs(capsys):
    # the ```python block of README.md runs, and each expression with a
    # comment evaluates to the value the comment begins with
    import ast

    readme = Path(__file__).resolve().parent.parent / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text("utf-8"), re.S)
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if isinstance(stmt, ast.Expr) and tail.startswith("#"):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            assert tail[1:].strip().startswith(repr(value)), (tail, value)
            checked.append(repr(value))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked == ["True", "True", "{1: 4, 2: 4, 3: 1}", "(1, 4, 10, 24, 58, 140)"]
    assert "total:" in capsys.readouterr().out


def test_resolve_koszul_refuses_a_sequence_that_is_not_regular(tmp_path, capsys):
    # the Koszul complex on (x1^2, x1*x2) is no resolution of R/I: its
    # table would read 2,4 where the Betti table of R/I has 2,3
    path = tmp_path / "job.json"
    doc = job("resolve", {"ideal": "I", "method": "koszul"},
              ideals={"I": ["x1^2", "x1*x2"]})
    path.write_text(json.dumps(doc))
    assert main([str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: regular sequence needs pairwise disjoint supports\n"


def test_resolve_koszul_on_a_regular_sequence(tmp_path, capsys):
    from transverse.resolutions import betti_numbers

    path = tmp_path / "job.json"
    doc = job("resolve", {"ideal": "I", "method": "koszul"},
              ideals={"I": ["x1^2", "x2*x3", "x4"]})
    path.write_text(json.dumps(doc))
    assert main([str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    I = parse_input(doc).ideal("I")
    assert report["ranks"] == [1, 3, 3, 1]
    assert report["betti"] == betti_numbers(I).to_json()


def test_resolve_staircase_rendered(capsys, tmp_path):
    path = tmp_path / "job.json"
    path.write_text(
        json.dumps(job("resolve", {"ideal": "I", "method": "minimal"}, fmt="text"))
    )
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "total:" in out
    # three data rows for Koszul(x1,x2): header, totals, single j-row
    block = [l for l in out.splitlines() if l.strip().startswith(("0", "total", "0:"))]
    assert any("1  2  1" in l.replace("  ", " ") or l.split()[-3:] == ["1", "2", "1"] for l in out.splitlines())


def src_env():
    """The environment of a fresh interpreter that imports this checkout's
    ``src``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def run_cli_subprocess(script, *paths, flags=()):
    """Run ``script`` with the job files ``paths`` as its arguments in a
    fresh interpreter, started with ``flags``, that imports this checkout's
    ``src``; 30 s at most."""
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *map(str, paths)],
        capture_output=True, text=True, timeout=30, env=src_env(),
    )


# run in a fresh interpreter, since pytest itself loads dataclasses; -S
# keeps site hooks (.pth files) from loading modules before the script
IMPORT_GATE = """\
import io, sys
from contextlib import redirect_stdout

UNUSED = ("dataclasses", "inspect", "transverse.obstructions")


def loaded():
    return [name for name in UNUSED if name in sys.modules]


def run(path):
    with redirect_stdout(io.StringIO()):
        code = cli.main([path])
    if code != 0:
        sys.exit(f"{path}: exit {code}")


if loaded():
    sys.exit(f"loaded at start-up: {loaded()}")
from transverse import cli
if loaded():
    sys.exit(f"loaded by import transverse.cli: {loaded()}")
*paths, obstruction = sys.argv[1:]
for path in paths:
    run(path)
    if loaded():
        sys.exit(f"loaded by {path}: {loaded()}")
run(obstruction)
if "transverse.obstructions" not in sys.modules:
    sys.exit("the obstruction job did not load transverse.obstructions")
"""


def test_commands_import_only_what_they_use(tmp_path):
    # a deterministic start-up gate: the package imports neither
    # dataclasses nor inspect, and only the obstruction commands load
    # transverse.obstructions
    docs = {
        "golod": job("golod", {"left": "I", "right": "J", "mode": "verify",
                               "n_max": 3}),
        "star-resolve": job("star-resolve", {"left": "I", "right": "J"}),
        "kunneth-verify": job("kunneth-verify", {"left": "I", "right": "J"}),
        "dg-verify": job("dg-verify", {"ideals": ["I", "J"]}),
        "obstruction": job("obstruction", {"module": "M", "ci": ["x1^2", "x4^2"]},
                           ideals={"M": ["x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2"]}),
    }
    paths = []
    for command, doc in docs.items():
        paths.append(tmp_path / f"{command}.json")
        paths[-1].write_text(json.dumps(doc))
    out = run_cli_subprocess(IMPORT_GATE, *paths, flags=("-S", "-W", "error"))
    assert out.returncode == 0, out.stderr


def test_koszul_homology_of_a_high_power_enumerates_no_degree(tmp_path):
    # the one block of H_1 is b = (99999, 0, 0); whole strands of degree
    # 99999 in 3 variables would take minutes, so a regression fails on the
    # timeout instead of holding the job
    path = tmp_path / "job.json"
    doc = job("koszul-homology", {"ideal": "I"}, ideals={"I": ["x1^99999"]},
              ring={"vars": ["x1", "x2", "x3"], "field": "rational"})
    path.write_text(json.dumps(doc))
    script = (
        "import sys\n"
        "from transverse import cli, complexes, ideals, poly\n"
        "def refuse(*args):\n"
        "    raise AssertionError('monomials_of_degree called')\n"
        "for module in (complexes, ideals, poly):\n"
        "    module.monomials_of_degree = refuse\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    out = run_cli_subprocess(script, path)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["graded_dims"] == {"1,99999": 1}


def test_star_resolve_of_high_powers_enumerates_no_degree(tmp_path):
    # the certificate checks the two cells (0, 0, 0) and (99999, 99999, 0);
    # strands up to the degree 199998 of the star product would never end
    path = tmp_path / "job.json"
    doc = job("star-resolve", {"left": "I", "right": "J"},
              ideals={"I": ["x1^99999"], "J": ["x2^99999"]},
              ring={"vars": ["x1", "x2", "x3"], "field": "rational"})
    path.write_text(json.dumps(doc))
    script = (
        "import sys\n"
        "from transverse import cli, complexes, ideals, poly\n"
        "def refuse(*args):\n"
        "    raise AssertionError('monomials_of_degree called')\n"
        "for module in (complexes, ideals, poly):\n"
        "    module.monomials_of_degree = refuse\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    out = run_cli_subprocess(script, path)
    assert out.returncode == 0, out.stderr
    verification = json.loads(out.stdout)["verification"]
    assert verification == {"pass": True, "strand_failures": [],
                            "coker_failures": [], "betti_ok": True}


def test_star_resolve_of_sixteen_generators_verifies(tmp_path):
    # the Betti oracle of (x1,x2)^3 (x3,x4)^3 takes faces of K^b over 4
    # variables, not the 2^16 subsets of the 16 generators
    path = tmp_path / "job.json"
    doc = job("star-resolve", {"left": "I", "right": "J"},
              ideals={"I": ["x1^3", "x1^2*x2", "x1*x2^2", "x2^3"],
                      "J": ["x3^3", "x3^2*x4", "x3*x4^2", "x4^3"]})
    path.write_text(json.dumps(doc))
    script = "import sys\nfrom transverse import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    out = run_cli_subprocess(script, path)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["verification"]["pass"] is True
    assert report["betti"] == {"0,0": 1, "1,6": 16, "2,7": 24, "3,8": 9}


def test_complex_without_multidegrees_exits_2(tmp_path, capsys, monkeypatch):
    # every complex is Z^n-graded; building one that is not is refused as
    # an input error, not a traceback
    from transverse import complexes
    from transverse.resolutions import koszul_complex

    from polynomial_elements import Polynomial

    def star_product(F, G):
        x1, x2, x3 = (F.ring.parse_monomial(x) for x in ("x1", "x2", "x3"))
        return koszul_complex([Polynomial(F.ring, {x1: 1, x2: 1}), x3], F.ring)

    monkeypatch.setattr(complexes, "star_product", star_product)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job("star-resolve", {"left": "I", "right": "J"})))
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a monomial" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, args, ideals, code", [
    ("golod", {"left": "I", "right": "J", "mode": "verify"}, None, 0),
    ("check-transverse", {"left": "I", "right": "J"},
     {"I": ["x1", "x2"], "J": ["x2", "x3"]}, 1),
])
def test_a_closed_pipe_keeps_the_exit_code(tmp_path, command, args, ideals, code):
    # a reader that closes stdout before the report is written, as
    # `| head -c 10` may: no traceback, and the job's own exit code
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job(command, args, ideals=ideals)))
    proc = subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "transverse.cli", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
    )
    # the interpreter takes far longer to start than this close
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=30) == code
    assert err == b""


@pytest.mark.parametrize("where", ["dispatch", "render"])
def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, where):
    # exit 1 is a certified failure; a job that runs out of memory, in its
    # computation or in rendering its report, is refused with a message
    from transverse import cli

    def exhausted(*args):
        raise MemoryError

    if where == "dispatch":
        handler, *rest = COMMAND_TABLE["golod"]
        monkeypatch.setitem(COMMAND_TABLE, "golod", (exhausted, *rest))
    else:
        monkeypatch.setattr(cli, "render_report", exhausted)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job("golod", {"left": "I", "right": "J", "mode": "verify"})))
    assert main([str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: out of memory: the job needs more memory than the "
                   "process can get\n")
    assert "Traceback" not in err


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("limit_kb", [60_000, 100_000])
def test_out_of_memory_under_an_address_space_limit(tmp_path, limit_kb):
    # the flagship certificate at n_max 12 needs about 343 MB, so under
    # these limits it runs out in the strand checks; the message itself
    # needs memory, which the job's frames hold until the handler has left
    # them, so it must still be printed, once, with exit 2
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_kb * 1024,) * 2)

    path = tmp_path / "job.json"
    path.write_text(json.dumps(job("golod", {"left": "I", "right": "J", "mode": "verify"})))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "transverse.cli", str(path),
         "--bound", "12"],
        capture_output=True, text=True, env=src_env(), preexec_fn=limit,
        timeout=60,
    )
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == ("error: out of memory: the job needs more memory "
                          "than the process can get\n")
