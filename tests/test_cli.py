"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core.spec import dump_specification, load_specification
from repro.relational.csvio import dump_database_json
from repro.workloads import gtopdb


@pytest.fixture
def database_file(tmp_path):
    path = tmp_path / "gtopdb.json"
    dump_database_json(gtopdb.paper_instance(), path)
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    from repro.core.policy import CitationPolicy

    payload = dump_specification(gtopdb.citation_views(), CitationPolicy.default())
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


QUERY = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"


class TestCite:
    def test_cite_with_specification(self, database_file, spec_file, capsys):
        code = main(["cite", "--database", database_file, "--spec", spec_file, QUERY])
        assert code == 0
        out = capsys.readouterr().out
        assert "IUPHAR/BPS Guide to PHARMACOLOGY" in out

    def test_cite_with_default_views(self, database_file, capsys):
        code = main(["cite", "--database", database_file, "--title", "GtoPdb", QUERY])
        assert code == 0
        assert "GtoPdb" in capsys.readouterr().out

    def test_cite_sql_query(self, database_file, spec_file, capsys):
        code = main(
            [
                "cite",
                "--database",
                database_file,
                "--spec",
                spec_file,
                "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("fmt,marker", [("bibtex", "@misc{"), ("ris", "TY  - DATA"), ("xml", "<citation"), ("json", '"records"')])
    def test_output_formats(self, database_file, spec_file, capsys, fmt, marker):
        code = main(
            ["cite", "--database", database_file, "--spec", spec_file, "--format", fmt, QUERY]
        )
        assert code == 0
        assert marker in capsys.readouterr().out

    def test_show_answers(self, database_file, spec_file, capsys):
        code = main(
            ["cite", "--database", database_file, "--spec", spec_file, "--show-answers", QUERY]
        )
        assert code == 0
        assert "answer tuple" in capsys.readouterr().err

    def test_error_exit_code_on_bad_query(self, database_file, spec_file, capsys):
        code = main(["cite", "--database", database_file, "--spec", spec_file, "Q(X :- R(X)"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestValidateAndViews:
    def test_validate_good_spec(self, database_file, spec_file, capsys):
        assert main(["validate", "--database", database_file, "--spec", spec_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_spec(self, database_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"views": [{"view": "V(X) :- Nope(X)"}]}), encoding="utf-8")
        assert main(["validate", "--database", database_file, "--spec", str(bad)]) == 1
        assert "ERROR" in capsys.readouterr().out

    def test_views_lists_defaults(self, database_file, capsys):
        assert main(["views", "--database", database_file]) == 0
        out = capsys.readouterr().out
        assert "All_Family" in out
        assert "Per_Family" in out

    def test_views_as_json_round_trips(self, database_file, capsys):
        assert main(["views", "--database", database_file, "--as-json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        views, _policy = load_specification(payload, schema=gtopdb.schema())
        assert views


class TestExplainAndDemo:
    def test_explain(self, database_file, spec_file, capsys):
        assert main(["explain", "--database", database_file, "--spec", spec_file, QUERY]) == 0
        out = capsys.readouterr().out
        assert "Rewritings considered" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "CV1(11)" in out
