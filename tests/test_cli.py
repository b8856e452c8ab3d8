"""End-to-end command tests: output schemas, formats, files, exit codes."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_pow_mod, gf_strip

from cayley_cliques import cli, ff, verify
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


def test_verify_reports_the_paley_counterexample_gp_5_8_3(capsys):
    code, out, _ = run(capsys, "verify", "--p", "5", "--s", "1", "--n", "8",
                       "--d", "3", "--kind", "paley")
    doc = json.loads(out)
    jsonschema.validate(doc, THEOREM_REPORT_SCHEMA)
    assert code == 0
    assert doc["verdict"] == "counterexample_below_threshold"
    assert len(doc["witnesses"]) == 960 and 5000 in doc["witnesses"]
    assert doc["extended_clique_size"] == 25
    assert doc["extension_method"] == "exact"


def test_gp_5_8_3_extension_by_a_table_free_oracle():
    """With galoistools on the package's modulus, w = code 5000 is adjacent
    to all of F_5 (w - a is a cube) and F_5 + F_5 w is a clique of 25."""
    p, e = 5, 8
    f = list(reversed(ff._smallest_irreducible(p, e)))
    cube_exponent = (p**e - 1) // 3

    def is_cube(digits):  # digits low first, not all zero
        return gf_pow_mod(gf_strip(digits[::-1]), cube_exponent, f, p, ZZ) == [1]

    w = [5000 // p**i % p for i in range(e)]
    assert w == [0, 0, 0, 0, 3, 1, 0, 0]
    assert all(is_cube([(w[0] - a) % p] + w[1:]) for a in range(p))
    span = [[(a + b * w[0]) % p] + [b * c % p for c in w[1:]] for a in range(p) for b in range(p)]
    assert all(is_cube(x) for x in span if any(x))
    assert sum(any(x) for x in span) == 24


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


def test_epsilon_beyond_the_cap_exits_2_before_computing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "epsilon_star", None)  # a call would raise, not allocate
    monkeypatch.delenv("CAYLEY_CLIQUE_CAP", raising=False)
    code, out, err = run(capsys, "epsilon", "--d", "100000000")
    assert code == 2 and "cap" in err and out == ""
    code, out, err = run(capsys, "epsilon", "--cap", "100", "--d", "102")
    assert code == 2 and "cap" in err and out == ""
    # Below the cap but past the memory limit of J and its weights.
    code, out, err = run(capsys, "epsilon", "--d", str(cli.EPSILON_MAX_D + 2))
    assert code == 2 and out == ""
    assert err == (f"error: --d {cli.EPSILON_MAX_D + 2} exceeds {cli.EPSILON_MAX_D}, the limit "
                   "of epsilon: its J and weights take about 110 bytes per unit of d\n")


def test_epsilon_stdout_bytes_are_pinned(capsys):
    """sha256 of the concatenated stdout of epsilon --d D over every even D
    up to 2000, recorded from the convex-hull implementation it replaced."""
    digest = hashlib.sha256()
    for d in range(2, 2001, 2):
        code, out, _ = run(capsys, "epsilon", "--d", str(d))
        assert code == 0, d
        digest.update(out.encode())
    assert digest.hexdigest() == "72dcad9acb49ef5535500bbe8397b73ea9a0400703ba214c7c355be72a1595f2"


def test_clique_extend_command(capsys):
    code, out, _ = run(capsys, "clique-extend", "--p", "3", "--s", "1", "--n", "4",
                       "--d", "4", "--kind", "peisert")
    doc = json.loads(out)
    jsonschema.validate(doc, CLIQUE_REPORT_SCHEMA)
    assert code == 0
    assert doc["clique"] == [0, 1, 2, 9, 10, 11, 18, 19, 20]
    assert doc["is_maximal"] is True


@pytest.mark.parametrize("command,digest", [
    ("verify", "6639934e993904848b5ea0c6f46495c04a2797e005f0bb83d31a9e7512e71c2d"),
    ("clique-extend", "2885b372ad270393ad10c4a11c8841e9ab71fc2c793673f659c71146d5301033"),
], ids=["verify", "clique-extend"])
def test_exact_extension_of_a_960_pool_is_pinned(capsys, command, digest):
    """GP(5^8, 3) over F_5: pool of 960 witnesses, extended exactly to 25."""
    code, out, _ = run(capsys, command, "--p", "5", "--s", "1", "--n", "8", "--d", "3", "--kind", "paley")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command,digest", [
    ("verify", "c4dc300a384b62fa4b3892c6c289d47dcfad809dc3edab8662d8bc5074a71558"),
    ("clique-extend", "9331912fd84c74bcfc200258a2e208b3a44a359fbf4cc667cee00ba14745326c"),
], ids=["verify", "clique-extend"])
def test_greedy_extension_of_a_2160_pool_is_pinned(capsys, command, digest):
    """GP*(3^12, 182) over F_9: pool of 2,160 witnesses, over the default
    budget, extended greedily to 27."""
    code, out, _ = run(capsys, command, "--p", "3", "--s", "2", "--n", "6", "--d", "182", "--kind", "peisert")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_clique_extend_budget_error(capsys):
    # Over budget (the pool of F_3 has 12 vertices) the extension is greedy.
    argv = ["clique-extend", "--p", "3", "--s", "1", "--n", "4", "--d", "4", "--kind", "peisert"]
    code, out, _ = run(capsys, *argv, "--exact-budget", "3")
    assert code == 0
    assert json.loads(out)["method"] == "greedy"
    assert run(capsys, *argv, "--exact-budget", "0")[:2] == (0, out)
    code, out, err = run(capsys, *argv, "--exact-budget", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "budget" in err


@pytest.mark.parametrize("argv", [
    ["clique-extend", "--p", "3", "--s", "1", "--n", "4", "--d", "4", "--strategy", "exact"],
    ["katz", "--p", "3", "--s", "1", "--n", "4", "--d", "8", "--kind", "peisert"],
])
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "3", "--s", "1", "--n", "2", "--d", "2"],
    ["sweep", "--max-order", "100"],
])
def test_negative_exact_budget_exits_2_before_verifying(capsys, argv):
    code, out, err = run(capsys, *argv, "--exact-budget", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "budget" in err


def test_broken_invariant_exits_1_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(CayleyGraph, "_extend_exact", lambda self, base, logs: base)
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


def test_field_of_2_to_the_31_elements_exits_2_whatever_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(ff, "_smallest_generator", None)  # a call would raise, not allocate
    code, _, err = run(capsys, "field", "--p", "2147483659", "--s", "1", "--cap", str(2**40))
    assert code == 2 and "2^31" in err


def _assert_refused_past_2_to_the_31(argv, timeout):
    """The command, in its own process, exits 2 with empty stdout and one
    error line that names 2^31."""
    root = Path(__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "cayley_cliques.cli", *argv],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "2^31" in lines[0], lines
    return lines[0]


@pytest.mark.parametrize("argv", [
    ["field", "--p", "2147483659", "--s", "1"],  # a prime past 2^31
    ["conjecture", "--p", "13", "--s", "9", "--d", "2"],  # q = 13^9 > 2^31
])
def test_arguments_past_2_to_the_31_exit_2_with_one_error_line(argv):
    _assert_refused_past_2_to_the_31(argv, timeout=120)


@pytest.mark.parametrize("argv", [
    ["field", "--p", "3", "--s", "100000000"],
    ["verify", "--p", "3", "--s", "1", "--n", "100000000", "--d", "2"],
    ["katz", "--p", "3", "--s", "1", "--n", "100000000", "--d", "2"],
    ["conjecture", "--p", "3", "--s", "100000000", "--d", "2"],
])
def test_huge_exponents_are_refused_before_any_power_is_computed(argv):
    """3^(10^8) has about 48 million digits; the refusal comes from the
    exponent alone, so neither the power nor its digits are ever computed."""
    line = _assert_refused_past_2_to_the_31(argv, timeout=20)
    assert line == "error: field size 3^100000000 is not below the int32 table limit 2^31"


def test_sweep_beyond_2_to_the_31_exits_2_before_enumerating(capsys, monkeypatch):
    monkeypatch.setattr(verify, "primerange", None)  # enumerating would raise, not exit 2
    code, _, err = run(capsys, "sweep", "--max-order", str(2**31), "--cap", str(2**32))
    assert code == 2 and "2^31" in err


def test_sweep_with_a_negative_max_order_exits_2_before_enumerating(capsys, monkeypatch):
    monkeypatch.setattr(verify, "primerange", None)  # enumerating would raise, not exit 2
    code, out, err = run(capsys, "sweep", "--max-order", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "max_order" in err


def test_theorem1_sweep_past_the_table_limit_exits_2_before_sweeping():
    # n = 7 needs max order 36^7 > 2^31; n = 2..6 must not be swept first.
    root = Path(__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(root / "scripts" / "theorem1_sweep.py"),
                           "--n-max", "7"], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and "2^31" in done.stderr


@pytest.mark.parametrize("max_order", [str(10**8), str(3 * 10**9), "-3"])
def test_reproduce_counterexamples_past_the_field_cap_exits_2_before_running(max_order):
    # 10^8 is past the 2^24 cap, 3*10^9 not below 2^31 and -3 negative; the
    # pinned cases must not run first, and exit 1 stays for a wrong size or
    # a VIOLATION.
    root = Path(__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(root / "scripts" / "reproduce_counterexamples.py"),
                           "--max-order", max_order], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "max_order" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("max_order", ["8", "-1", str(2**24 + 1)])
def test_katz_scan_outside_its_field_range_exits_2_before_scanning(max_order):
    # Below 9 no field is scanned (the summary had no worst report to name);
    # past 2^24 build_field would refuse a field mid-scan.
    root = Path(__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(root / "scripts" / "katz_scan.py"),
                           "--max-order", max_order], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_katz_scan_at_the_smallest_order_scans_gf9():
    root = Path(__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(root / "scripts" / "katz_scan.py"),
                           "--max-order", "9"], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "3 scans; worst ratio 1.000000 (GF(3^2) r=1 d=8)"


def test_reproduce_counterexamples_script_to_2500():
    root = Path(__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(root / "scripts" / "reproduce_counterexamples.py"),
                           "--max-order", "2500"], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "16 counterexamples, 0 violations"
    assert sum(line.endswith("semilinear orbits") for line in lines) == 16
    assert "p=3 s=1 n=4 d=4: subfield F_3 sits in a maximal clique of size 9" in done.stdout


def test_sweep_workers_flag_is_gone(capsys):
    code, _, err = run(capsys, "sweep", "--max-order", "100", "--workers", "2")
    assert code == 2 and "--workers" in err


# The sweep calls of the paley-sweep and peisert-hunt benchmark workloads
# (perfbench/workloads.py).  Their JSONL lines and CSV rows were recorded in
# perfbench/reference/ before the int32 tables and the log-domain scan.
REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference"
PINNED_SWEEPS = {
    "paley-sweep": [
        ["--kind", "paley", "--n-min", str(n), "--n-max", str(n),
         "--max-base", str(b), "--max-order", str(b**n)]
        for n, b in ((3, 4), (4, 9), (5, 16), (6, 9))
    ],
    "peisert-hunt": [["--kind", "peisert", "--max-order", "5000"]],
}


@pytest.mark.parametrize("workload", sorted(PINNED_SWEEPS))
def test_sweeps_match_the_recorded_benchmark_outputs(workload, tmp_path, capsys):
    recorded = json.loads((REFERENCE / f"{workload}.json").read_text())
    seen = {}
    for i, args in enumerate(PINNED_SWEEPS[workload]):
        out = tmp_path / f"sweep{i}.jsonl"
        code, _, _ = run(capsys, "sweep", *args, "--out", str(out))
        lines = out.read_text().splitlines()
        rows = out.with_suffix(".csv").read_text().splitlines()[1:]
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            c = json.loads(line)["case"]
            key = f"case {c['p']} {c['s']} {c['n']} {c['d']} {c['kind']}"
            seen[key] = {"rc": code, "jsonl": line, "csv": row}
    assert seen == {k: v for k, v in recorded.items() if k.startswith("case ")}


# The single calls of the peisert-hunt and field-build workloads, by their
# reference keys: "verify p s n d kind" and "field p e".
PINNED_CALLS = {
    "peisert-hunt": ["verify 3 1 4 4 peisert", "verify 5 1 6 62 peisert"],
    "field-build": ["field 13 6", "field 16777213 1", "field 4093 2"],
}


@pytest.mark.parametrize("workload", sorted(PINNED_CALLS))
def test_single_calls_match_the_recorded_benchmark_outputs(workload, capsys):
    recorded = json.loads((REFERENCE / f"{workload}.json").read_text())
    calls = {k: v for k, v in recorded.items() if not k.startswith("case ")}
    assert sorted(calls) == PINNED_CALLS[workload]
    for key, want in calls.items():
        command, *values = key.split()
        flags = ("--p", "--s", "--n", "--d", "--kind")[:len(values)]
        code, out, _ = run(capsys, command, *[a for pair in zip(flags, values) for a in pair])
        assert {"rc": code, "json": out} == want, key


def _katz_scan_calls(max_order: int = 729):
    """The katz calls of the katz-scan workload: every GF(p^E), E >= 2, of
    order <= max_order, every proper r | E and every d > 1 dividing p^E - 1."""
    for p in sympy.primerange(3, math.isqrt(max_order) + 1):
        e = 2
        while p**e <= max_order:
            for r in sympy.divisors(e)[:-1]:
                for d in sympy.divisors(p**e - 1)[1:]:
                    yield ["katz", "--p", str(p), "--s", str(r), "--n", str(e // r), "--d", str(d)]
            e += 1


def test_katz_scans_match_the_recorded_benchmark_outputs(capsys):
    """Every katz call of the katz-scan workload, byte for byte against
    perfbench/reference/katz-scan.json (recorded before the magnitude memo
    and the log-residue theta set)."""
    recorded = json.loads((REFERENCE / "katz-scan.json").read_text())
    seen = {}
    for argv in _katz_scan_calls():
        code, out, _ = run(capsys, *argv)
        seen["katz " + " ".join(argv[2::2])] = {"rc": code, "json": out}
    assert len(seen) == 233
    assert seen == recorded


def test_repeated_calls_in_one_process_match_fresh_processes(capsys):
    """main reuses one parser; no default or state may leak between calls."""
    calls = [
        ["katz", "--p", "3", "--s", "1", "--n", "4"],  # no --d: argparse exits 2
        ["verify", "--p", "3", "--s", "1", "--n", "4", "--d", "4", "--kind", "peisert",
         "--exact-budget", "5"],
        ["verify", "--p", "3", "--s", "1", "--n", "4", "--d", "4", "--kind", "peisert"],
        ["katz", "--p", "3", "--s", "1", "--n", "4", "--d", "8"],
        ["katz", "--p", "3", "--s", "1", "--n", "4"],
    ]
    src = Path(__file__).parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    script = "import sys; from cayley_cliques.cli import main; sys.exit(main(sys.argv[1:]))"
    in_process = [run(capsys, *argv) for argv in calls]
    for argv, got in zip(calls, in_process):
        alone = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert got == (alone.returncode, alone.stdout, alone.stderr), argv
    assert [code for code, _, _ in in_process] == [2, 0, 0, 0, 2]
    assert json.loads(in_process[1][1]) != json.loads(in_process[2][1])


def test_no_command_imports_sympy(tmp_path):
    """sympy is a test oracle only: one call of every subcommand in a fresh
    interpreter must leave it out of sys.modules."""
    calls = [
        ["field", "--p", "3", "--s", "2"],
        ["graph-info", "--p", "13", "--s", "1", "--d", "3"],
        ["verify", "--p", "3", "--s", "1", "--n", "4", "--d", "4", "--kind", "peisert"],
        ["conjecture", "--p", "3", "--s", "4", "--d", "10"],
        ["sweep", "--max-order", "100", "--kind", "both", "--out", str(tmp_path / "s.jsonl")],
        ["katz", "--p", "3", "--s", "1", "--n", "4", "--d", "8"],
        ["epsilon", "--d", "6"],
        ["clique-extend", "--p", "3", "--s", "1", "--n", "4", "--d", "4", "--kind", "peisert"],
    ]
    src = Path(__file__).parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    script = (
        "import json, sys\n"
        "from cayley_cliques.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'sympy')\n"
        "print(json.dumps([codes, loaded]), file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-c", script, json.dumps(calls)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    codes, loaded = json.loads(done.stderr.splitlines()[-1])
    assert codes == [0] * len(calls)
    assert loaded == []


def test_csv_format_outside_sweep_is_rejected(capsys):
    code, _, err = run(capsys, "field", "--p", "3", "--s", "2", "--format", "csv")
    assert code == 2
    assert "--format" in err or "invalid choice" in err


def test_unknown_command_is_a_usage_error(capsys):
    code, _, err = run(capsys, "spelunk")
    assert code == 2
