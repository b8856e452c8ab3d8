"""Graph construction, clique predicates, and the clique search engine."""

from __future__ import annotations

import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from clique_corpus import corpus, exhaustive_max_clique, induced_bitmasks
from cayley_cliques import (
    CapExceeded,
    CayleyGraph,
    DegenerateModulus,
    EmptyJ,
    ExactBudgetExceeded,
    GraphKind,
    InvariantError,
    NotAClique,
    SelfLoopQuery,
    build_field,
    make_graph,
    maximum_clique,
)

# ---------------------------------------------------------------------------
# kinds

def test_paley_kind_is_class_zero():
    kind = GraphKind.paley(3)
    assert kind.name == "paley" and kind.d == 3 and kind.j == frozenset({0})


def test_peisert_kind_takes_lower_half_classes():
    kind = GraphKind.peisert(6)
    assert kind.name == "peisert" and kind.j == frozenset({0, 1, 2})


def test_peisert_d2_collapses_to_paley():
    kind = GraphKind.peisert(2)
    assert kind.name == "paley" and kind.j == frozenset({0})


def test_kind_validation():
    with pytest.raises(ValueError):
        GraphKind.paley(1)
    with pytest.raises(ValueError):
        GraphKind.peisert(5)
    with pytest.raises(EmptyJ):
        GraphKind.residue_class(4, set())
    with pytest.raises(ValueError):
        GraphKind.residue_class(4, {0, 4})
    with pytest.raises(ValueError):
        GraphKind.from_name("payley", 2)


# ---------------------------------------------------------------------------
# connection sets and adjacency

def test_cubic_residues_mod_13(gp13_3):
    assert sorted(int(x) for x in gp13_3.connection_set()) == [1, 5, 8, 12]
    assert {x for x in range(1, 13) if gp13_3.in_connection_set(x)} == {1, 5, 8, 12}


@pytest.mark.parametrize(
    "p,e,d,kind",
    [(13, 1, 3, "paley"), (3, 2, 2, "paley"), (3, 4, 4, "peisert"), (5, 2, 4, "peisert")],
)
def test_connection_set_is_symmetric(p, e, d, kind):
    graph = make_graph(build_field(p, e), GraphKind.from_name(kind, d))
    table = graph.table
    members = {int(x) for x in graph.connection_set()}
    assert 0 not in members
    assert members == {table.neg(x) for x in members}
    assert len(members) == (table.q - 1) * len(graph.kind.j) // d


def test_paley_edges_inside_peisert_edges():
    table = build_field(3, 4)
    paley = make_graph(table, GraphKind.paley(4))
    peisert = make_graph(table, GraphKind.peisert(4))
    paley_s = {int(x) for x in paley.connection_set()}
    peisert_s = {int(x) for x in peisert.connection_set()}
    assert paley_s < peisert_s


def test_degenerate_modulus_rejected(gf13):
    with pytest.raises(DegenerateModulus):
        make_graph(gf13, GraphKind.paley(5))


def test_self_loop_query_rejected(gp13_3):
    with pytest.raises(SelfLoopQuery):
        gp13_3.adjacent(7, 7)


GRAPHS_FOR_PROPS = [
    make_graph(build_field(13, 1), GraphKind.paley(3)),
    make_graph(build_field(3, 4), GraphKind.peisert(4)),
    make_graph(build_field(5, 2), GraphKind.paley(2)),
]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_adjacency_is_translation_invariant(data):
    graph = data.draw(st.sampled_from(GRAPHS_FOR_PROPS))
    q = graph.table.q
    x = data.draw(st.integers(0, q - 1))
    y = data.draw(st.integers(0, q - 1).filter(lambda v: v != x))
    t = data.draw(st.integers(0, q - 1))
    shifted = graph.adjacent(graph.table.add(x, t), graph.table.add(y, t))
    assert graph.adjacent(x, y) == shifted
    assert graph.adjacent(x, y) == graph.adjacent(y, x)


# ---------------------------------------------------------------------------
# cliques in GP*(81,4)

def test_subfield_f3_is_clique_but_not_maximal(gpstar81_4):
    assert gpstar81_4.subfield_is_clique(1)
    assert gpstar81_4.is_maximal_subfield_clique(1)
    maximal, witnesses = gpstar81_4.is_maximal_clique({0, 1, 2})
    assert not maximal
    assert witnesses == [9, 10, 11, 12, 13, 14, 18, 19, 20, 24, 25, 26]


def test_common_neighbors_sorted_and_adjacent(gpstar81_4):
    pool = gpstar81_4.common_neighbors({0, 1, 2})
    assert pool == sorted(pool)
    assert not set(pool) & {0, 1, 2}
    for theta in pool:
        assert all(gpstar81_4.adjacent(theta, c) for c in (0, 1, 2))


def test_exact_extension_reaches_size_nine(gpstar81_4):
    report = gpstar81_4.extend_to_maximal_clique((0, 1, 2), "exact")
    assert report.method == "exact"
    assert report.is_maximal and report.witnesses == ()
    assert len(report.clique) == 9
    assert set(report.clique) >= {0, 1, 2}
    assert gpstar81_4.is_clique(report.clique)
    assert report.clique == (0, 1, 2, 9, 10, 11, 18, 19, 20)


def test_greedy_extension_is_maximal(gpstar81_4):
    report = gpstar81_4.extend_to_maximal_clique((0, 1, 2), "greedy")
    assert report.method == "greedy"
    assert report.is_maximal
    assert gpstar81_4.is_clique(report.clique)
    assert gpstar81_4.is_maximal_clique(report.clique) == (True, [])
    # greedy must pick the smallest-code common neighbor at every step
    grown = [0, 1, 2]
    while pool := gpstar81_4.common_neighbors(grown):
        grown.append(min(pool))
    assert report.clique == tuple(sorted(grown))


def test_exact_budget_enforced(gpstar81_4):
    with pytest.raises(ExactBudgetExceeded):
        gpstar81_4.extend_to_maximal_clique((0, 1, 2), "exact", exact_budget=5)


def test_extension_of_maximal_clique_is_identity(gf9):
    graph = make_graph(gf9, GraphKind.paley(2))
    report = graph.extend_to_maximal_clique((0, 1, 2), "exact")
    assert report.clique == (0, 1, 2)
    assert graph.is_maximal_clique({0, 1, 2}) == (True, [])
    assert graph.common_neighbors({0, 1, 2}) == []


def test_non_clique_input_rejected(gpstar81_4):
    with pytest.raises(NotAClique):
        gpstar81_4.is_maximal_clique({0, 1, 2, 9, 12})
    with pytest.raises(NotAClique):
        gpstar81_4.extend_to_maximal_clique((0, 3), "greedy")
    with pytest.raises(NotAClique):
        gpstar81_4.is_maximal_subfield_clique(2)


# ---------------------------------------------------------------------------
# subfield cliques vs the divisibility rule

@pytest.mark.parametrize("p,e", [(3, 4), (3, 6), (5, 4)])
def test_paley_subfield_clique_iff_divisibility(p, e):
    table = build_field(p, e)
    half = (table.q - 1) // 2
    for d in range(2, 50):
        if half % d != 0:
            continue
        graph = make_graph(table, GraphKind.paley(d))
        for r in range(1, e):
            if e % r != 0:
                continue
            predicted = (table.q - 1) % (d * (p**r - 1)) == 0
            assert graph.subfield_is_clique(r) == predicted, (d, r)


def test_maximal_subfield_clique_layers():
    table = build_field(3, 4)
    graph = make_graph(table, GraphKind.paley(10))
    # d=10 divides (81-1)/(9-1) = 10, so F_9 is a clique containing F_3
    assert graph.subfield_is_clique(1) and graph.subfield_is_clique(2)
    assert not graph.is_maximal_subfield_clique(1)
    assert graph.is_maximal_subfield_clique(2)


def _fields_up_to(order: int):
    for p in sympy.primerange(3, order + 1):
        e = 1
        while p**e <= order:
            yield p, e
            e += 1


def _kinds_for(d: int, rng: random.Random) -> list[GraphKind]:
    kinds = [GraphKind.paley(d)] if d >= 2 else []
    if d >= 4 and d % 2 == 0:
        kinds.append(GraphKind.peisert(d))
    kinds.append(GraphKind.residue_class(d, rng.sample(range(d), rng.randint(1, d))))
    # a J holding every multiple of a random divisor h of d, so that the
    # residue kind sees subfield cliques too
    h = rng.choice(sympy.divisors(d))
    extra = rng.sample(range(d), rng.randint(0, d - 1))
    kinds.append(GraphKind.residue_class(d, set(range(0, d, h)) | set(extra)))
    return kinds


def test_subfield_clique_matches_log_table_scan():
    """Closed-form subfield test vs the log classes of exp[::step] = F_{p^r}*.

    Every GF(p^E) of order <= 4096, every d | (q-1)/2, every r | E (r = E
    included); Paley, Peisert and seeded random class sets J.
    """
    rng = random.Random(20221)
    outcomes = {(name, verdict): 0 for name in ("paley", "peisert", "residue")
                for verdict in (True, False)}
    for p, e in _fields_up_to(4096):
        table = build_field(p, e)
        for d in sympy.divisors(table.qm1 // 2):
            for kind in _kinds_for(d, rng):
                graph = make_graph(table, kind)
                for r in sympy.divisors(e):
                    step = table.qm1 // (p**r - 1)
                    classes = set((table.log[table.exp[::step]] % d).tolist())
                    expected = classes <= kind.j
                    assert graph.subfield_is_clique(r) == expected, (p, e, kind, r)
                    outcomes[kind.name, expected] += 1
    assert all(outcomes.values()), outcomes


def test_corrupt_tables_are_caught_by_the_subfield_cross_checks(gf81, monkeypatch):
    graph = make_graph(gf81, GraphKind.peisert(4))
    log = gf81.log.copy()
    log[2] += 2  # F_3* = {1, 2}; class of 2 leaves J = {0, 1}
    monkeypatch.setattr(gf81, "log", log)
    with pytest.raises(InvariantError, match="corrupt tables"):
        graph.subfield_is_clique(1)


def test_extension_that_stops_short_is_an_invariant_error(gpstar81_4, monkeypatch):
    monkeypatch.setattr(CayleyGraph, "_extend_exact", lambda self, base, budget: base)
    with pytest.raises(InvariantError, match="non-maximal"):
        gpstar81_4.extend_to_maximal_clique((0, 1, 2), "exact")


# ---------------------------------------------------------------------------
# maximum clique engine vs exhaustive enumeration

@pytest.mark.parametrize("name,neighbors", corpus(), ids=lambda v: v if isinstance(v, str) else "")
def test_maximum_clique_matches_exhaustive_search(name, neighbors):
    assert maximum_clique(neighbors).bit_count() == exhaustive_max_clique(neighbors)


def test_maximum_clique_result_is_a_clique():
    for _, neighbors in corpus():
        mask = maximum_clique(neighbors)
        members = [i for i in range(len(neighbors)) if mask >> i & 1]
        for i in members:
            for k in members:
                if i != k:
                    assert neighbors[i] >> k & 1


def test_clique_number_by_vertex_transitivity(gf9, gp13_3):
    assert make_graph(gf9, GraphKind.paley(2)).clique_number() == 3
    # cubic residues mod 13 are pairwise non-adjacent, so edges are the
    # largest cliques
    neighborhood = induced_bitmasks(gp13_3, [1, 5, 8, 12])
    assert neighborhood == [0, 0, 0, 0]
    assert gp13_3.clique_number() == 2


def test_clique_number_cap(gpstar81_4):
    with pytest.raises(CapExceeded):
        gpstar81_4.clique_number(cap=10)
    assert gpstar81_4.clique_number() == 9


def test_graph_json(gpstar81_4):
    doc = gpstar81_4.to_json()
    assert doc["p"] == 3 and doc["E"] == 4 and doc["d"] == 4
    assert doc["kind"] == "peisert" and doc["J"] == [0, 1]
    assert doc["connection_size"] == 40
