import json

import pytest

from transverse.cli import cmd_dispatch, main, parse_input, render_report
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
        spec = parse_input(job("check-transverse", {"left": "I", "right": "J"}))
        again = parse_input(spec.to_document())
        assert again.to_document() == spec.to_document()


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

    def test_resolve_minimal(self):
        spec = parse_input(job("resolve", {"ideal": "I", "method": "minimal"}))
        report, code = cmd_dispatch(spec)
        assert code == 0
        assert report["ranks"] == [1, 2, 1]


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
        code = main([str(path), "--field", "prime:32003", "--threads", "4", "--format", "json"])
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
        main([str(path), "--threads", "8"])
        out2 = capsys.readouterr().out
        assert out1 == out2


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

    def test_document_prime_not_a_number(self, tmp_path, capsys):
        doc = job("koszul-homology", {"ideal": "I"})
        doc["ring"] = {"vars": ["x1", "x2", "x3", "x4"], "field": {"prime": "q"}}
        assert "ring.field.prime" in self.run(tmp_path, capsys, doc)

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
