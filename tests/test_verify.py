"""Case verdicts, conjecture instances, and sweep behavior."""

from __future__ import annotations

import gc
import hashlib
import math
import weakref

import jsonschema
import pytest

from cayley_cliques import (
    CaseParams,
    CayleyGraph,
    GraphKind,
    HypothesisRegime,
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
    verify,
    verify_case,
    verify_conjecture_case,
)
from cayley_cliques.charsum import _segment_closest, unit_root
from cayley_cliques.cli import main
from cayley_cliques.verify import THEOREM_REPORT_SCHEMA, report_lines, summary_csv
from field_oracle import graph_adjacency

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
    # check_hypotheses reads the Peisert eps* off the closing chord in O(1);
    # the regime_epsilon and regime_threshold bytes depend on exact equality.
    for d in range(4, 1001, 2):
        chord = _segment_closest(unit_root(d, d // 2 - 1), unit_root(d, 0))[0]
        assert chord == epsilon_star(d, range(d // 2)).epsilon_star, d
    regime = check_hypotheses(make_case(3, 1, 4, 4, "peisert"))
    assert regime.epsilon == epsilon_star(4, range(2)).epsilon_star


def test_half_circle_gap_has_no_threshold():
    # J = {0, 2} in Z_4 has largest gap 2 = d/2: eps* is 0 and no
    # proposition threshold exists.
    regime = check_hypotheses(CaseParams(3, 1, 4, 4, GraphKind.residue_class(4, {0, 2})))
    assert regime == HypothesisRegime("below_threshold", None, 0.0)


def test_regimes_of_the_order_million_grid_are_pinned():
    """sha256 of (name, threshold, epsilon) for every case up to order 10^6
    and n <= 20, recorded from the convex-hull implementation it replaced."""
    digest = hashlib.sha256()
    cases = 0
    for c in enumerate_cases(SweepConfig(max_order=10**6, n_max=20)):
        r = check_hypotheses(c)
        digest.update(f"{c.p},{c.s},{c.n},{c.d},{c.kind.name}:{r.name},"
                      f"{r.threshold!r},{r.epsilon!r}\n".encode())
        cases += 1
    assert cases == 19085
    assert digest.hexdigest() == "1e1cc53c7a5f3f6871f941a6604666ea956ede3f4528f8492d6035d214525fba"


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


def test_verify_case_scans_the_witness_pool_once(monkeypatch):
    """One common-neighbour scan, for F's pool; the extension and its
    maximality check both work on that pool."""
    scanned = []
    common_neighbors = CayleyGraph.common_neighbors

    def recorded(self, vertices):
        found = common_neighbors(self, vertices)
        scanned.append((len(set(vertices)), len(found)))
        return found
    monkeypatch.setattr(CayleyGraph, "common_neighbors", recorded)
    report = verify_case(make_case(5, 1, 6, 62, "peisert"))
    assert report.extended_clique_size == 25
    assert scanned == [(5, 680)]


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
    assert graph_adjacency(graph, report.witnesses, table.subfield_elements(1)).all()


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
    with pytest.raises(ValueError, match="2\\^31"):
        SweepConfig(max_order=1 << 31, cap=1 << 32)
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


def _brute_force_cases(config: SweepConfig) -> list:
    """Every (p, s, n, d, kind) under the config, straight from the definitions."""
    cases = []
    for p in range(3, math.isqrt(config.max_order) + 1):
        if any(p % k == 0 for k in range(2, p)):
            continue
        for s in range(1, config.max_order.bit_length()):
            q = p**s
            if config.max_base is not None and q > config.max_base:
                continue
            for n in range(config.n_min, config.n_max + 1):
                order = q**n
                if order > config.max_order:
                    continue
                for d in range(2, order):
                    if (order - 1) % (2 * d) or (config.d_max is not None and d > config.d_max):
                        continue
                    for kind in config.kinds:
                        if kind == "paley" or (d % 2 == 0 and d >= 4):
                            cases.append(make_case(p, s, n, d, kind))
    return sorted(cases, key=lambda c: c.sort_key())


@pytest.mark.parametrize("max_order", [81, 750, 5000])
@pytest.mark.parametrize("bounds", [
    {},
    {"n_min": 3, "n_max": 4},
    {"n_max": 2},
    {"n_min": 4, "n_max": 12},
    {"d_max": 6},
    {"max_base": 9},
    {"kinds": ("peisert",)},
    {"kinds": ("peisert", "paley"), "n_max": 3, "d_max": 40, "max_base": 25},
], ids=str)
def test_enumeration_matches_a_brute_force_oracle(max_order, bounds):
    config = SweepConfig(max_order=max_order, **bounds)
    assert enumerate_cases(config) == _brute_force_cases(config)


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


def test_sweep_is_deterministic():
    config = SweepConfig(max_order=650)
    assert report_lines(sweep(config)) == report_lines(sweep(config))


def test_sweep_holds_one_field_table_at_a_time(monkeypatch):
    live = weakref.WeakSet()
    built = []
    real_build = verify.build_field

    def tracked_build(p, e, *, cap):
        gc.collect()
        assert not live, f"GF({p}^{e}) is built while another table is alive"
        table = real_build(p, e, cap=cap)
        live.add(table)
        built.append((p, e))
        return table

    monkeypatch.setattr(verify, "build_field", tracked_build)
    reports = sweep(SweepConfig(max_order=750))
    fields = sorted({(r.case.p, r.case.s * r.case.n) for r in reports})
    assert built == fields and len(fields) > 1


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
