"""Case verdicts, conjecture instances, and sweep behavior."""

from __future__ import annotations

import math

import jsonschema
import pytest

from cayley_cliques import (
    CayleyGraph,
    GraphKind,
    NoQualifyingR,
    SweepConfig,
    build_field,
    check_hypotheses,
    conjecture_r,
    enumerate_cases,
    epsilon_star,
    find_counterexamples,
    make_case,
    make_graph,
    sweep,
    verify_case,
    verify_conjecture_case,
)
from cayley_cliques.charsum import _segment_closest, half_circle_points, unit_root
from cayley_cliques.cli import main
from cayley_cliques.verify import THEOREM_REPORT_SCHEMA, report_lines, summary_csv

# ---------------------------------------------------------------------------
# hypothesis regimes

def test_paley_above_square_threshold_is_theorem1():
    regime = check_hypotheses(make_case(3, 1, 2, 2, "paley"))
    assert regime.name == "theorem1" and regime.threshold == 1.0


def test_paley_below_square_threshold():
    regime = check_hypotheses(make_case(3, 1, 4, 4, "paley"))
    assert regime.name == "below_threshold"
    assert regime.threshold == pytest.approx(9.0)
    assert regime.epsilon == pytest.approx(1.0)


def test_peisert_regimes():
    # q = 3 is under every sufficient condition for n = 4, d = 4
    low = check_hypotheses(make_case(3, 1, 4, 4, "peisert"))
    assert low.name == "below_threshold"
    assert low.threshold == pytest.approx(18.0)
    # q = 19 clears the epsilon route but not the d^4/pi^2 route
    mid = check_hypotheses(make_case(19, 1, 4, 4, "peisert"))
    assert mid.name == "proposition"
    assert mid.epsilon == pytest.approx(math.sin(math.pi / 4), abs=1e-12)
    # q = 13 at n = 2 clears the d^4/pi^2 route outright
    high = check_hypotheses(make_case(13, 1, 2, 4, "peisert"))
    assert high.name == "theorem2"
    assert high.threshold == pytest.approx(4**4 / (math.pi**2 * 9), abs=1e-9)



def test_peisert_epsilon_is_the_hull_distance_bit_for_bit():
    # check_hypotheses reads the Peisert eps* off the closing chord; the
    # regime_epsilon and regime_threshold bytes depend on exact equality.
    for d in range(4, 1001, 2):
        chord = _segment_closest(unit_root(d, d // 2 - 1), unit_root(d, 0))[0]
        assert chord == epsilon_star(half_circle_points(d)).epsilon_star, d
    regime = check_hypotheses(make_case(3, 1, 4, 4, "peisert"))
    assert regime.epsilon == epsilon_star(half_circle_points(4)).epsilon_star

def test_case_validation():
    with pytest.raises(ValueError, match="odd prime"):
        make_case(2, 1, 4, 4, "peisert")
    with pytest.raises(ValueError, match="not prime"):
        make_case(9, 1, 2, 2, "paley")
    with pytest.raises(ValueError):
        make_case(3, 1, 1, 2, "paley")
    with pytest.raises(ValueError):
        make_case(3, 1, 2, 1, "paley")
    with pytest.raises(ValueError, match="mod"):
        make_case(3, 1, 2, 5, "paley")
    with pytest.raises(ValueError):
        make_case(3, 1, 4, 7, "peisert")


# ---------------------------------------------------------------------------
# single-case verdicts

def test_gp9_2_subfield_is_maximal_clique():
    report = verify_case(make_case(3, 1, 2, 2, "paley"))
    assert report.verdict == "consistent"
    assert report.subfield_clique and report.maximal_subfield_clique
    assert report.maximal_clique is True
    assert report.witnesses == ()
    assert report.extended_clique_size is None


def test_gpstar81_4_is_a_below_threshold_counterexample():
    report = verify_case(make_case(3, 1, 4, 4, "peisert"))
    assert report.verdict == "counterexample_below_threshold"
    assert report.maximal_clique is False
    assert report.extended_clique_size == 9
    assert report.extension_method == "exact"
    assert len(report.witnesses) == 12


def test_nested_subfield_clique_is_vacuous():
    # in GP(81,10) the subfield F_9 is a clique, so F_3 is not maximal
    # among subfield cliques and the theorem says nothing about it
    report = verify_case(make_case(3, 1, 4, 10, "paley"))
    assert report.subfield_clique
    assert not report.maximal_subfield_clique
    assert report.maximal_clique is None
    assert report.verdict == "vacuous"


def test_witnesses_are_sound():
    report = verify_case(make_case(3, 1, 4, 4, "peisert"))
    table = build_field(3, 4)
    graph = make_graph(table, GraphKind.peisert(4))
    for theta in report.witnesses:
        assert all(graph.adjacent(theta, c) for c in table.subfield_elements(1))


def test_verify_case_accepts_prebuilt_table():
    table = build_field(3, 4)
    case = make_case(3, 1, 4, 4, "peisert")
    assert verify_case(case, table=table) == verify_case(case)
    with pytest.raises(ValueError, match="GF"):
        verify_case(case, table=build_field(3, 2))


def test_report_json_validates():
    report = verify_case(make_case(3, 1, 4, 4, "peisert"))
    doc = report.to_json()
    jsonschema.validate(doc, THEOREM_REPORT_SCHEMA)
    assert doc["verdict"] == "counterexample_below_threshold"
    assert doc["case"] == {"p": 3, "s": 1, "n": 4, "d": 4, "kind": "peisert"}


# ---------------------------------------------------------------------------
# conjecture instances

def test_conjecture_r_examples():
    assert conjecture_r(81, 10) == 2
    assert conjecture_r(9, 4) == 1
    assert conjecture_r(13, 3) is None
    assert conjecture_r(25, 3) == 1


def test_conjecture_r_validation():
    with pytest.raises(ValueError, match="prime power"):
        conjecture_r(12, 3)
    with pytest.raises(ValueError, match="mod"):
        conjecture_r(13, 4)
    with pytest.raises(ValueError):
        conjecture_r(81, 1)


def test_conjecture_case_rebases_to_paley():
    report = verify_conjecture_case(81, 10)
    assert report.case == make_case(3, 2, 2, 10, "paley")
    assert report.verdict == "consistent"

    report = verify_conjecture_case(9, 4)
    assert report.case == make_case(3, 1, 2, 4, "paley")
    assert report.verdict == "consistent"

    report = verify_conjecture_case(25, 3)
    assert report.case == make_case(5, 1, 2, 3, "paley")
    assert report.verdict == "consistent"


def test_conjecture_case_without_qualifying_r():
    with pytest.raises(NoQualifyingR):
        verify_conjecture_case(13, 3)


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(max_order=100, n_min=1)
    with pytest.raises(ValueError):
        SweepConfig(max_order=100, n_min=4, n_max=3)
    with pytest.raises(ValueError):
        SweepConfig(max_order=1 << 30)
    with pytest.raises(ValueError):
        SweepConfig(max_order=100, kinds=("paley", "petersen"))


def test_enumeration_is_sorted_and_admissible():
    cases = enumerate_cases(SweepConfig(max_order=750))
    keys = [c.sort_key() for c in cases]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    for case in cases:
        assert case.order <= 750
        assert (case.order - 1) % (2 * case.d) == 0
        if case.kind.name == "peisert":
            assert case.d % 2 == 0 and case.d >= 4


def test_enumeration_below_smallest_graph_is_empty():
    assert enumerate_cases(SweepConfig(max_order=8)) == []
    assert sweep(SweepConfig(max_order=8)) == []


def test_sweep_reports_follow_verdict_invariants():
    reports = sweep(SweepConfig(max_order=700))
    assert [r.case.sort_key() for r in reports] == [
        c.sort_key() for c in enumerate_cases(SweepConfig(max_order=700))
    ]
    for r in reports:
        jsonschema.validate(r.to_json(), THEOREM_REPORT_SCHEMA)
        assert (r.verdict == "vacuous") == (not r.maximal_subfield_clique)
        if r.maximal_subfield_clique and r.maximal_clique is False:
            assert r.verdict in ("counterexample_below_threshold", "VIOLATION")
            assert r.extended_clique_size > r.case.q
        if r.verdict == "consistent":
            assert r.maximal_clique is True and r.witnesses == ()
        assert r.verdict != "VIOLATION"


def test_sweep_is_deterministic_and_worker_count_invariant():
    config = SweepConfig(max_order=650)
    first = report_lines(sweep(config))
    assert first == report_lines(sweep(config))
    parallel = SweepConfig(max_order=650, workers=2)
    assert first == report_lines(sweep(parallel))


def _sweep_outputs(directory) -> tuple[str, str, bytes, bytes]:
    """The criterion-4 Paley grid for n <= 5, then `sweep --kind peisert --max-order 729`."""
    directory.mkdir()
    reports = []
    for n in (2, 3, 4, 5):
        base_cap = (n - 1) ** 2
        reports += sweep(SweepConfig(max_order=max(base_cap**n, 9), n_min=n, n_max=n,
                                     max_base=base_cap, kinds=("paley",)))
    out = directory / "peisert.jsonl"
    assert main(["sweep", "--kind", "peisert", "--max-order", "729", "--out", str(out)]) == 0
    return (report_lines(reports), summary_csv(reports),
            out.read_bytes(), out.with_suffix(".csv").read_bytes())


def test_sweeps_are_byte_identical_to_the_subfield_membership_scan(tmp_path, monkeypatch):
    closed_form = _sweep_outputs(tmp_path / "closed")
    scanned = []

    def membership_scan(graph, r):
        # Build F_{p^r} and test every unit's class directly.
        table = graph.table
        scanned.append(r)
        return all(int(table.log[x]) % graph.d in graph.j
                   for x in table.subfield_elements(r) if x != 0)

    monkeypatch.setattr(CayleyGraph, "subfield_is_clique", membership_scan)
    assert _sweep_outputs(tmp_path / "scan") == closed_form
    assert scanned


def test_peisert_sweep_finds_the_81_counterexample():
    found = find_counterexamples(SweepConfig(max_order=81, kinds=("peisert",)))
    assert any(r.case == make_case(3, 1, 4, 4, "peisert") for r in found)
    assert all(r.verdict == "counterexample_below_threshold" for r in found)
    by_case = {r.case.sort_key(): r for r in found}
    assert by_case[(3, 1, 4, 4, "peisert")].extended_clique_size == 9


def test_peisert_counterexamples_sit_below_the_theorem2_threshold():
    for r in find_counterexamples(SweepConfig(max_order=700, kinds=("peisert",))):
        n, d = r.case.n, r.case.d
        assert r.case.q <= (n - 1) ** 2 * d**4 / (math.pi**2 * (d - 1) ** 2)


def test_small_paley_sweep_has_no_counterexamples():
    config = SweepConfig(max_order=9**4, n_min=2, n_max=4, max_base=9, kinds=("paley",))
    assert find_counterexamples(config) == []


def test_counterexamples_need_order_at_least_81():
    assert find_counterexamples(SweepConfig(max_order=50)) == []


def test_summary_csv_shape():
    reports = sweep(SweepConfig(max_order=100, kinds=("peisert",)))
    lines = summary_csv(reports).splitlines()
    assert lines[0] == "p,s,n,d,kind,verdict,extended_size"
    assert len(lines) == len(reports) + 1
    assert all(line.count(",") == 6 for line in lines)
