"""End-to-end command tests: output schemas, formats, files, exit codes."""

from __future__ import annotations

import json

import jsonschema
import pytest

from cayley_cliques.cayley import CLIQUE_REPORT_SCHEMA, GRAPH_SCHEMA, CayleyGraph
from cayley_cliques.charsum import EPSILON_SCHEMA, KATZ_REPORT_SCHEMA
from cayley_cliques.cli import main
from cayley_cliques.ff import FIELD_SCHEMA
from cayley_cliques.verify import THEOREM_REPORT_SCHEMA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_command(capsys):
    code, out, _ = run(capsys, "field", "--p", "3", "--s", "4")
    doc = json.loads(out)
    jsonschema.validate(doc, FIELD_SCHEMA)
    assert code == 0
    assert doc == {"p": 3, "e": 4, "modulus": [1, 0, 1, 1, 1], "g": 10}


def test_graph_info_command(capsys):
    code, out, _ = run(capsys, "graph-info", "--p", "13", "--s", "1", "--d", "3")
    doc = json.loads(out)
    jsonschema.validate(doc, GRAPH_SCHEMA)
    assert code == 0
    assert doc["kind"] == "paley" and doc["connection_size"] == 4


def test_verify_command_reports_the_size_nine_extension(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--s", "1", "--n", "4",
                       "--d", "4", "--kind", "peisert")
    doc = json.loads(out)
    jsonschema.validate(doc, THEOREM_REPORT_SCHEMA)
    assert code == 0
    assert doc["extended_clique_size"] == 9
    assert doc["verdict"] == "counterexample_below_threshold"


def test_verify_text_format_carries_the_verdict(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--s", "1", "--n", "4",
                       "--d", "4", "--kind", "peisert", "--format", "text")
    assert code == 0
    assert "verdict: counterexample_below_threshold" in out


def test_even_characteristic_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--p", "2", "--s", "1", "--n", "4",
                         "--d", "4", "--kind", "peisert")
    assert code == 2
    assert "p must be an odd prime" in err
    assert out == ""


def test_missing_required_flag_is_a_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--p", "3")
    assert code == 2
    assert "--s" in err or "required" in err


def test_conjecture_command(capsys):
    code, out, _ = run(capsys, "conjecture", "--p", "3", "--s", "4", "--d", "10")
    doc = json.loads(out)
    assert code == 0
    assert doc["r"] == 2
    jsonschema.validate(doc["report"], THEOREM_REPORT_SCHEMA)
    assert doc["report"]["verdict"] == "consistent"


def test_conjecture_without_qualifying_r_is_reported(capsys):
    code, out, _ = run(capsys, "conjecture", "--p", "13", "--s", "1", "--d", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc == {"q": 13, "d": 3, "r": None, "verdict": "no_qualifying_r"}


def test_katz_command(capsys):
    code, out, _ = run(capsys, "katz", "--p", "3", "--s", "1", "--n", "4", "--d", "8")
    doc = json.loads(out)
    jsonschema.validate(doc, KATZ_REPORT_SCHEMA)
    assert code == 0
    assert doc["max_ratio"] <= 1 + 1e-9


def test_epsilon_command(capsys):
    code, out, _ = run(capsys, "epsilon", "--d", "6")
    doc = json.loads(out)
    jsonschema.validate(doc, EPSILON_SCHEMA)
    assert code == 0
    assert doc["epsilon_star"] == pytest.approx(0.5, abs=1e-9)
    assert doc["paper_bound"] == pytest.approx(0.43633, abs=5e-6)


def test_epsilon_rejects_odd_d(capsys):
    code, _, err = run(capsys, "epsilon", "--d", "5")
    assert code == 2 and "--d" in err


def test_clique_extend_command(capsys):
    code, out, _ = run(capsys, "clique-extend", "--p", "3", "--s", "1", "--n", "4",
                       "--d", "4", "--kind", "peisert")
    doc = json.loads(out)
    jsonschema.validate(doc, CLIQUE_REPORT_SCHEMA)
    assert code == 0
    assert doc["clique"] == [0, 1, 2, 9, 10, 11, 18, 19, 20]
    assert doc["is_maximal"] is True


def test_clique_extend_budget_error(capsys):
    code, _, err = run(capsys, "clique-extend", "--p", "3", "--s", "1", "--n", "4",
                       "--d", "4", "--kind", "peisert", "--exact-budget", "3")
    assert code == 2
    assert "budget" in err.lower()


def test_broken_invariant_exits_1_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(CayleyGraph, "_extend_exact", lambda self, base, budget: base)
    code, out, err = run(capsys, "clique-extend", "--p", "3", "--s", "1", "--n", "4",
                         "--d", "4", "--kind", "peisert")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sweep_to_files(capsys, tmp_path):
    out_path = tmp_path / "reports.jsonl"
    code, out, _ = run(capsys, "sweep", "--max-order", "100", "--kind", "peisert",
                       "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines
    for line in lines:
        jsonschema.validate(json.loads(line), THEOREM_REPORT_SCHEMA)
    summary = (tmp_path / "reports.csv").read_text().splitlines()
    assert summary[0] == "p,s,n,d,kind,verdict,extended_size"
    assert len(summary) == len(lines) + 1
    assert str(out_path) in out


def test_sweep_stdout_formats_agree(capsys):
    code, jsonl, _ = run(capsys, "sweep", "--max-order", "100", "--kind", "peisert")
    assert code == 0
    code, csv_text, _ = run(capsys, "sweep", "--max-order", "100", "--kind", "peisert",
                            "--format", "csv")
    assert code == 0
    docs = [json.loads(line) for line in jsonl.splitlines()]
    rows = csv_text.splitlines()[1:]
    assert len(docs) == len(rows)
    for doc, row in zip(docs, rows):
        case = doc["case"]
        assert row.startswith(f"{case['p']},{case['s']},{case['n']},{case['d']},{case['kind']}")
        assert doc["verdict"] in row


def test_sweep_output_is_byte_stable(capsys):
    args = ("sweep", "--max-order", "200", "--kind", "both")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_cap_env_var_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("CAYLEY_CLIQUE_CAP", "1000")
    code, _, err = run(capsys, "field", "--p", "5", "--s", "6")
    assert code == 2 and "cap" in err
    code, out, _ = run(capsys, "field", "--p", "5", "--s", "6", "--cap", "20000")
    assert code == 0 and json.loads(out)["p"] == 5
    monkeypatch.setenv("CAYLEY_CLIQUE_CAP", "banana")
    code, _, err = run(capsys, "field", "--p", "3", "--s", "2")
    assert code == 2 and "CAYLEY_CLIQUE_CAP" in err


def test_csv_format_outside_sweep_is_rejected(capsys):
    code, _, err = run(capsys, "field", "--p", "3", "--s", "2", "--format", "csv")
    assert code == 2
    assert "--format" in err or "invalid choice" in err


def test_unknown_command_is_a_usage_error(capsys):
    code, _, err = run(capsys, "spelunk")
    assert code == 2
