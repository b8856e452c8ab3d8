"""Graph construction, clique predicates, and the clique search engine."""

from __future__ import annotations

import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import cayley_cliques
from clique_corpus import _unpack_masks, corpus, exhaustive_max_clique, induced_bitmasks
from cayley_cliques import (
    CapExceeded,
    CayleyGraph,
    DegenerateModulus,
    EmptyJ,
    FieldTable,
    GraphKind,
    InvariantError,
    NotAClique,
    build_field,
    make_graph,
    maximum_clique,
)
from cayley_cliques import cayley
from cayley_cliques.cayley import _bits, _degeneracy_order, _row_masks, _rows_per_block
from field_oracle import FieldOracle, adjacent, graph_adjacency

# ---------------------------------------------------------------------------
# the package's public names

def test_every_export_resolves_and_no_retired_name_is_exported():
    assert all(hasattr(cayley_cliques, name) for name in cayley_cliques.__all__)
    retired = {"SelfLoopQuery", "ZeroArgument"}
    assert not retired & (set(cayley_cliques.__all__) | set(vars(cayley_cliques)))
    retired_methods = {
        cayley_cliques.FieldTable: ("sub", "mul", "inv", "pow", "elements", "neg", "add_many", "sub_many"),
        cayley_cliques.CayleyGraph: ("adjacent", "in_connection_set", "connection_set",
                                     "_member_mask", "_codes"),
        cayley_cliques.Character: ("chi_class",),
        cayley_cliques.RootOfUnitySum: ("add_class", "total"),
    }
    for cls, names in retired_methods.items():
        assert not [name for name in names if hasattr(cls, name)], cls


# ---------------------------------------------------------------------------
# kinds

def test_paley_kind_is_class_zero():
    kind = GraphKind.paley(3)
    assert kind.name == "paley" and kind.d == 3 and kind.j == frozenset({0})


def test_peisert_kind_takes_lower_half_classes():
    kind = GraphKind.peisert(6)
    assert kind.name == "peisert" and kind.j == range(3)


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
    for j in ({0.5}, {np.float64(1.0)}):
        with pytest.raises(TypeError, match="is not an integer"):
            GraphKind.residue_class(4, j)
    assert GraphKind.residue_class(4, {np.int64(1), 3}).j == frozenset({1, 3})
    with pytest.raises(ValueError):
        GraphKind.from_name("payley", 2)


# ---------------------------------------------------------------------------
# connection sets and adjacency

def test_cubic_residues_mod_13(gp13_3):
    assert gp13_3.common_neighbors([0]) == [1, 5, 8, 12]
    oracle = FieldOracle.of(gp13_3.table)
    assert {x for x in range(1, 13) if oracle.cls(x, 3) == 0} == {1, 5, 8, 12}


@pytest.mark.parametrize(
    "p,e,d,kind",
    [(13, 1, 3, "paley"), (3, 2, 2, "paley"), (3, 4, 4, "peisert"), (5, 2, 4, "peisert")],
)
def test_connection_set_is_symmetric(p, e, d, kind):
    graph = make_graph(build_field(p, e), GraphKind.from_name(kind, d))
    table = graph.table
    oracle = FieldOracle.of(table)
    members = set(graph.common_neighbors([0]))
    assert members == set(np.flatnonzero(oracle.members(d, graph.kind.j)).tolist())
    assert 0 not in members
    assert members == {oracle.neg(x) for x in members}
    assert len(members) == (table.q - 1) * len(graph.kind.j) // d


def test_paley_edges_inside_peisert_edges():
    table = build_field(3, 4)
    paley = make_graph(table, GraphKind.paley(4))
    peisert = make_graph(table, GraphKind.peisert(4))
    paley_s = set(paley.common_neighbors([0]))
    peisert_s = set(peisert.common_neighbors([0]))
    assert paley_s < peisert_s


def test_degenerate_modulus_rejected(gf13):
    with pytest.raises(DegenerateModulus):
        make_graph(gf13, GraphKind.paley(5))


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

    def kernel(u: int, v: int) -> bool:
        """The pair kernel on two units, the 0 rule when one is 0."""
        return graph.is_clique([u, v])
    shifted = kernel(graph.table.add(x, t), graph.table.add(y, t))
    assert kernel(x, y) == shifted == kernel(y, x) == adjacent(graph, x, y)


# GP(81, 2) and GP(625, 2), whose subfields F_9 and F_25 are cliques: subsets
# drawn from the subfield plus a few arbitrary codes are cliques or not.
IS_CLIQUE_CASES = [
    (make_graph(build_field(3, 4), GraphKind.paley(2)), 2),
    (make_graph(build_field(5, 4), GraphKind.paley(2)), 2),
]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_is_clique_matches_pairwise_adjacency(data):
    graph, r = data.draw(st.sampled_from(IS_CLIQUE_CASES))
    vertices = data.draw(st.sets(st.sampled_from(graph.table.subfield_elements(r))))
    vertices |= data.draw(st.sets(st.integers(0, graph.table.q - 1), max_size=2))
    vs = sorted(vertices)
    expected = graph_adjacency(graph, vs, vs)[np.triu_indices(len(vs), 1)].all()
    assert graph.is_clique(vertices) == expected


@pytest.mark.parametrize("p,e", [(3, 4), (5, 4), (7, 4), (3, 6)])
def test_pair_kernel_matches_pairwise_adjacency(graphs, p, e):
    """The log-domain pair kernel against the table-free oracle on random
    sets of units, given by their logs in random order.  From GF(5^4) on,
    the 200-vertex set spans three row blocks."""
    rng = random.Random(p**e)
    q = p**e
    assert _rows_per_block(200) < 200
    for kind in (GraphKind.paley(2), GraphKind.peisert(4)):
        graph = graphs(p, e, kind)
        for size in (1, 2, 40, min(q - 1, 200)):
            vs = rng.sample(range(1, q), size)
            expected = graph_adjacency(graph, vs, vs)
            logs = graph.table.log[vs].astype(np.int64)
            assert np.array_equal(graph._induced_adjacency(logs), expected), (kind, size)
            # Rows and columns from different sets.
            assert np.array_equal(graph._pair_adjacency(logs[:7], logs), expected[:7])
            assert np.array_equal(graph._pair_adjacency(logs, logs[-5:]), expected[:, -5:])


@pytest.mark.parametrize("p,e", [(3, 4), (5, 4)])
def test_zero_rule_at_the_boundary_matches_the_oracle(graphs, p, e):
    """0 has no log: is_clique, common_neighbors and the extension decide
    its pairs by 0 ~ v iff v in S.  Sets with 0 inside, sets in S that
    have 0 as a common neighbor (and as a witness the extension takes),
    and the empty set, against the table-free oracle."""
    rng = random.Random(p * 1000 + e)
    q = p**e
    for kind in (GraphKind.paley(2), GraphKind.peisert(4)):
        graph = graphs(p, e, kind)
        oracle = FieldOracle.of(graph.table)
        member = oracle.members(graph.d, graph.j)
        units_in_s = np.flatnonzero(member).tolist()
        assert graph.is_clique([]) and graph.common_neighbors([]) == list(range(q))
        assert graph.is_clique([0]) and graph.common_neighbors([0]) == units_in_s
        for size in (1, 2, 3):
            for vs in ([0] + rng.sample(range(1, q), size), rng.sample(units_in_s, size)):
                adjacency = graph_adjacency(graph, range(q), vs)
                is_clique = adjacency[vs][np.triu_indices(len(vs), 1)].all()
                assert graph.is_clique(vs) == is_clique, (kind, vs)
                expected = [x for x in range(q) if adjacency[x].all()]
                assert graph.common_neighbors(vs) == expected, (kind, vs)
                assert (0 in expected) == (0 not in vs and member[vs].all())
        base = [1]  # in S, without 0: its pool holds 0, the smallest witness
        assert graph.common_neighbors(base)[0] == 0
        greedy = graph.extend_to_maximal_clique(base, exact_budget=0).clique
        assert greedy[0] == 0 and graph.is_maximal_clique(greedy) == (True, [])
        if q < 100:
            assert graph.extend_to_maximal_clique(base).clique == _reference_extension(graph, base)


@pytest.mark.parametrize("vertices", [[-1, 0], [-12, 0], [13], [0, 1, 13]])
def test_codes_outside_the_field_are_refused(gf13, vertices):
    """-1 and -12 would wrap to units, 13 would index past the tables."""
    graph = make_graph(gf13, GraphKind.paley(3))
    for call in (graph.is_clique, graph.common_neighbors, graph.is_maximal_clique,
                 graph.extend_to_maximal_clique):
        with pytest.raises(ValueError, match=r"not a code of GF\(13\)"):
            call(vertices)


@pytest.mark.parametrize("vertices", [[0, 1.5], [1.0, 5], [0, np.float64(1.0)], [np.float32(8)]])
def test_codes_that_are_no_integers_are_refused(gp13_3, vertices):
    """1.5 would truncate to the code 1 when the logs are read; 1.0 is refused too."""
    for call in (gp13_3.is_clique, gp13_3.common_neighbors, gp13_3.is_maximal_clique,
                 gp13_3.extend_to_maximal_clique):
        with pytest.raises(TypeError, match="is not an integer"):
            call(vertices)


def test_numpy_integer_codes_are_codes(gp13_3):
    vertices = [np.int64(0), np.uint8(8)]
    assert gp13_3.is_clique(vertices) and not gp13_3.is_clique(vertices + [np.int32(1)])
    assert gp13_3.common_neighbors(vertices[1:]) == gp13_3.common_neighbors([8]) == [0, 3, 7, 9]
    assert gp13_3.extend_to_maximal_clique(vertices[1:]).clique == (0, 8)


def test_is_clique_row_blocks_cover_every_pair(gf625, monkeypatch):
    """With blocks of two rows, F_25 plus any one code is a clique exactly
    when the code is adjacent to all of F_25, wherever it sorts."""
    graph = make_graph(gf625, GraphKind.paley(2))
    subfield = gf625.subfield_elements(2)
    monkeypatch.setattr(cayley, "_PAIR_BLOCK", 64)
    assert _rows_per_block(len(subfield) + 1) == 2
    assert graph.is_clique(subfield)
    adjacency = graph_adjacency(graph, range(gf625.q), subfield)
    for x in range(gf625.q):
        expected = x in subfield or adjacency[x].all()
        assert graph.is_clique(subfield + (x,)) == expected, x


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
    assert graph_adjacency(gpstar81_4, pool, [0, 1, 2]).all()


def test_exact_extension_reaches_size_nine(gpstar81_4):
    report = gpstar81_4.extend_to_maximal_clique((0, 1, 2))
    assert report.method == "exact"
    assert report.is_maximal and report.witnesses == ()
    assert len(report.clique) == 9
    assert set(report.clique) >= {0, 1, 2}
    assert gpstar81_4.is_clique(report.clique)
    assert report.clique == (0, 1, 2, 9, 10, 11, 18, 19, 20)


def test_greedy_extension_is_maximal(gpstar81_4):
    report = gpstar81_4.extend_to_maximal_clique((0, 1, 2), exact_budget=0)
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
    # The pool of F_3 has 12 vertices: exact up to a budget of 12, greedy past it.
    assert gpstar81_4.extend_to_maximal_clique((0, 1, 2), exact_budget=12).method == "exact"
    over = gpstar81_4.extend_to_maximal_clique((0, 1, 2), exact_budget=11)
    assert over == gpstar81_4.extend_to_maximal_clique((0, 1, 2), exact_budget=0)
    assert over.method == "greedy"
    with pytest.raises(ValueError, match="budget"):
        gpstar81_4.extend_to_maximal_clique((0, 1, 2), exact_budget=-1)


def test_extension_of_maximal_clique_is_identity(gf9):
    graph = make_graph(gf9, GraphKind.paley(2))
    report = graph.extend_to_maximal_clique((0, 1, 2))
    assert report.clique == (0, 1, 2)
    assert graph.is_maximal_clique({0, 1, 2}) == (True, [])
    assert graph.common_neighbors({0, 1, 2}) == []


@pytest.mark.parametrize("budget", [2000, 0])
def test_one_shot_iterables_are_read_once(gpstar81_4, budget):
    """An iterator gives what the list gives: the clique test does not spend it."""
    for vertices in ([0, 1, 2], [12, 13, 14], [0, 1, 2, 9, 10, 11]):
        witnesses = gpstar81_4.is_maximal_clique(vertices)
        assert gpstar81_4.is_maximal_clique(iter(vertices)) == witnesses
        assert gpstar81_4.is_maximal_clique(v for v in vertices) == witnesses
        report = gpstar81_4.extend_to_maximal_clique(vertices, exact_budget=budget)
        assert gpstar81_4.extend_to_maximal_clique(iter(vertices), exact_budget=budget) == report
        assert set(report.clique) >= set(vertices)
    assert len(gpstar81_4.is_maximal_clique(iter([0, 1, 2]))[1]) == 12
    assert gpstar81_4.extend_to_maximal_clique(iter([12, 13, 14])).clique == (0, 1, 2, 12, 13, 14, 24, 25, 26)
    with pytest.raises(NotAClique, match="^the set of 5 vertices is not a clique$"):
        gpstar81_4.is_maximal_clique(iter([0, 1, 2, 9, 12]))


def test_non_clique_input_rejected(gpstar81_4):
    with pytest.raises(NotAClique, match="^the set of 5 vertices is not a clique$"):
        gpstar81_4.is_maximal_clique({0, 1, 2, 9, 12})
    with pytest.raises(NotAClique):
        gpstar81_4.extend_to_maximal_clique((0, 3), exact_budget=0)
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


@pytest.mark.parametrize("r", [2.0, 2.5, np.float64(1.0)])
def test_subfield_is_clique_refuses_non_integral_r(gpstar81_4, r):
    with pytest.raises(TypeError, match=rf"^r={re.escape(repr(r))} is not an integer$"):
        gpstar81_4.subfield_is_clique(r)


def test_subfield_is_clique_takes_numpy_integers(gpstar81_4):
    assert [gpstar81_4.subfield_is_clique(np.int64(r)) for r in (1, 2, 4)] == \
        [gpstar81_4.subfield_is_clique(r) for r in (1, 2, 4)]


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
                    expected = classes <= set(kind.j)
                    assert graph.subfield_is_clique(r) == expected, (p, e, kind, r)
                    outcomes[kind.name, expected] += 1
    assert all(outcomes.values()), outcomes


def test_common_neighbors_of_subfields_match_a_whole_field_scan():
    """Log-domain witness scan vs a scan of every code.

    The oracle subtracts digit by digit and takes S from the table-free
    classes, so it shares no table read with the scan.  Every GF(p^E) of
    order <= 4096, every d | (q-1)/2, every proper r | E; Paley, Peisert
    and seeded random class sets J.  F plus its smallest witness contains
    F, so it takes the same scan and is checked too.
    """
    rng = random.Random(20227)
    with_witnesses = without = 0
    for p, e in _fields_up_to(4096):
        if e == 1:
            continue
        table = build_field(p, e)
        pow_p = p ** np.arange(e)
        digits = np.arange(table.q)[:, None] // pow_p % p
        for d in sympy.divisors(table.qm1 // 2):
            for kind in _kinds_for(d, rng):
                graph = make_graph(table, kind)
                in_s = FieldOracle.of(table).members(d, kind.j)
                for r in sympy.divisors(e)[:-1]:
                    base = table.subfield_elements(r)
                    assert graph._subfield_within(base) == r
                    adjacent_to_all = np.ones(table.q, dtype=bool)
                    for f in base:
                        adjacent_to_all &= in_s[(digits - digits[f]) % p @ pow_p]
                    expected = np.flatnonzero(adjacent_to_all).tolist()
                    assert graph.common_neighbors(base) == expected, (p, e, kind, r)
                    if not expected:
                        without += 1
                        continue
                    with_witnesses += 1
                    adjacent_to_all &= in_s[(digits - digits[expected[0]]) % p @ pow_p]
                    assert graph.common_neighbors(base + (expected[0],)) == (
                        np.flatnonzero(adjacent_to_all).tolist()
                    ), (p, e, kind, r)
    assert with_witnesses and without


def _with_log(table, log):
    """A table with the same exp and a replaced log."""
    return FieldTable(table.params, table.g, table.exp, log)


def test_corrupt_tables_are_caught_by_the_subfield_cross_checks(gf81):
    log = gf81.log.copy()
    log[2] += 2  # F_3* = {1, 2}; class of 2 leaves J = {0, 1}
    graph = make_graph(_with_log(gf81, log), GraphKind.peisert(4))
    with pytest.raises(InvariantError, match="corrupt tables"):
        graph.subfield_is_clique(1)


def test_extension_that_stops_short_is_an_invariant_error(gpstar81_4, monkeypatch):
    monkeypatch.setattr(CayleyGraph, "_extend_exact", lambda self, base, logs: [])
    with pytest.raises(InvariantError, match="non-maximal"):
        gpstar81_4.extend_to_maximal_clique((0, 1, 2))


def test_extension_that_drops_an_added_vertex_is_an_invariant_error(gpstar81_4, monkeypatch):
    """A maximum clique of the pool of F_3 (6 pool indices) less one: the
    dropped witness is adjacent to all the rest, so the result is not maximal."""
    extend_exact = CayleyGraph._extend_exact

    def dropped(self, base, logs):
        chosen = extend_exact(self, base, logs)
        assert len(chosen) == 6
        return chosen[1:]
    monkeypatch.setattr(CayleyGraph, "_extend_exact", dropped)
    with pytest.raises(InvariantError, match="non-maximal"):
        gpstar81_4.extend_to_maximal_clique((0, 1, 2))


# ---------------------------------------------------------------------------
# orbit-rooted exact extension vs the whole-pool search it replaced

def _reference_degeneracy_order(neighbors: list[int]) -> list[int]:
    n = len(neighbors)
    remaining = (1 << n) - 1
    degs = [nb.bit_count() for nb in neighbors]
    order = []
    for _ in range(n):
        best_v, best_d = -1, n + 1
        for v in range(n):
            if remaining >> v & 1 and degs[v] < best_d:
                best_v, best_d = v, degs[v]
        order.append(best_v)
        remaining ^= 1 << best_v
        for u in range(n):
            if remaining >> u & 1 and neighbors[best_v] >> u & 1:
                degs[u] -= 1
    return order


def _reference_seeded_search(neighbors: list[int], seed: int) -> int:
    """The seeded whole-graph colour-bound search, kept as it was before
    the orbit-rooted extension: the seed comes back unless a strictly
    larger clique is met, otherwise the first clique of the maximum size."""
    n = len(neighbors)
    order = _reference_degeneracy_order(neighbors)[::-1]
    pos = {v: i for i, v in enumerate(order)}
    relabeled = [sum(1 << pos[u] for u in range(n) if neighbors[v] >> u & 1) for v in order]
    best_mask, best_size = 0, seed.bit_count()

    def expand(r_mask: int, r_size: int, p_mask: int) -> None:
        nonlocal best_mask, best_size
        order_v, bound_v, color, rem = [], [], 0, p_mask
        while rem:
            color += 1
            avail = rem
            while avail:
                low = avail & -avail
                order_v.append(low.bit_length() - 1)
                bound_v.append(color)
                avail &= ~(relabeled[low.bit_length() - 1] | low)
                rem ^= low
        for i in range(len(order_v) - 1, -1, -1):
            if r_size + bound_v[i] <= best_size:
                return
            vbit = 1 << order_v[i]
            new_p = p_mask & relabeled[order_v[i]]
            if new_p:
                expand(r_mask | vbit, r_size + 1, new_p)
            elif r_size + 1 > best_size:
                best_mask, best_size = r_mask | vbit, r_size + 1
            p_mask ^= vbit

    expand(0, 0, (1 << n) - 1)
    if not best_mask:
        return seed
    return sum(1 << order[i] for i in range(n) if best_mask >> i & 1)


def _reference_extension(graph, base) -> tuple[int, ...]:
    """Base plus the seeded search over its whole witness pool."""
    pool = graph.common_neighbors(base)
    neighbors = induced_bitmasks(graph, pool)
    seed, cand = 0, (1 << len(pool)) - 1
    while cand:  # greedy: smallest remaining common neighbour first
        low = cand & -cand
        seed |= low
        cand &= neighbors[low.bit_length() - 1]
    best = _reference_seeded_search(neighbors, seed)
    return tuple(sorted(list(base) + [v for i, v in enumerate(pool) if best >> i & 1]))


# (p, E, r, kind): GP*(81,4); GF(3^6) cases whose greedy seed is not
# optimal, so the stop-at-optimum pass runs; GF(5^4), GF(7^4) and GF(5^6)
# cases whose seed is optimal; and a residue kind on GF(7^4) with
# gcd(step, d) = 2 < d, where L = lcm(step, d) = 3 step and the seed (21)
# is not optimal (49).
ORBIT_CASES = [
    (3, 4, 1, GraphKind.peisert(4)),
    (3, 6, 1, GraphKind.peisert(26)),
    (3, 6, 1, GraphKind.peisert(52)),
    (3, 6, 1, GraphKind.peisert(182)),
    (3, 6, 1, GraphKind.peisert(364)),
    (5, 4, 1, GraphKind.peisert(12)),
    (7, 4, 1, GraphKind.peisert(16)),
    (7, 4, 1, GraphKind.residue_class(6, {0, 1, 2, 4})),
    (5, 6, 1, GraphKind.peisert(186)),
]
NX_CASES = [c for c in ORBIT_CASES if c[:2] != (5, 6)]


def _case_id(value):
    return f"{value.name}{value.d}" if isinstance(value, GraphKind) else str(value)


@pytest.fixture(scope="module")
def graphs():
    tables = {}

    def graph(p, e, kind):
        if (p, e) not in tables:
            tables[p, e] = build_field(p, e)
        return make_graph(tables[p, e], kind)
    return graph


@pytest.mark.parametrize("p,e,r,kind", ORBIT_CASES, ids=_case_id)
def test_orbit_extension_matches_the_whole_pool_search(graphs, p, e, r, kind):
    graph = graphs(p, e, kind)
    base = graph.table.subfield_elements(r)
    report = graph.extend_to_maximal_clique(base)
    assert report.clique == _reference_extension(graph, base)


def _brute_force_frobenius_powers(graph) -> list[int]:
    """The k < E for which x -> x^(p^k) maps every element of S into S,
    with S and the powers from the table-free oracle."""
    t = graph.table
    oracle = FieldOracle.of(t)
    member = oracle.members(graph.d, graph.j)
    members = np.flatnonzero(member)
    return [k for k in range(t.e) if member[oracle.pow_many(members, t.p**k)].all()]


@pytest.mark.parametrize("p,e,r,kind", ORBIT_CASES, ids=_case_id)
def test_pool_orbits_partition_the_pool_into_free_orbits(graphs, p, e, r, kind):
    """Each orbit is a union of free <g^L> x| F orbits, permuted by Frobenius.

    Images are computed here with the table-free oracle, and K by brute
    force over S, so neither relies on the log-domain code under test.
    """
    graph = graphs(p, e, kind)
    t = graph.table
    oracle = FieldOracle.of(t)
    base = list(t.subfield_elements(r))
    pool = np.array(graph.common_neighbors(base), dtype=np.int64)
    orbits = graph._pool_orbits(base, t.log[pool].astype(np.int64))
    period = math.lcm(t.subfield_step(r), kind.d)
    units = np.array([oracle.pow(t.g, period * j) for j in range(t.qm1 // period)])
    group_order = len(units) * p**r
    ks = _brute_force_frobenius_powers(graph)

    def affine(xs: np.ndarray) -> np.ndarray:
        """u x + f for every x in xs (rows), u in units and f in the base."""
        return oracle.add_many(oracle.mul_many(xs[:, None], units)[:, :, None], base).reshape(len(xs), -1)

    images = affine(pool)
    frobenius = np.stack([oracle.pow_many(pool, p**k) for k in ks], axis=1)
    assert sorted(np.concatenate(orbits).tolist()) == list(range(len(pool)))
    assert all(int(orbit[0]) == int(orbit.min()) for orbit in orbits)
    assert [int(orbit[0]) for orbit in orbits] == sorted(int(orbit[0]) for orbit in orbits)
    for orbit in orbits:
        assert len(orbit) % group_order == 0
        assert group_order * len(ks) % len(orbit) == 0
        members = {int(pool[i]) for i in orbit}
        # The whole G'-orbit of the first member, so no two orbits merged.
        assert set(affine(frobenius[orbit[0]]).ravel().tolist()) == members
        for i in orbit:
            assert len(set(images[i].tolist())) == group_order  # free
            assert set(images[i].tolist()) <= members
            assert set(frobenius[i].tolist()) <= members


@pytest.mark.parametrize("p,e", [(3, 4), (5, 4), (7, 4), (3, 6)])
def test_frobenius_powers_match_a_brute_force_scan(graphs, p, e):
    """k is in K exactly when x -> x^(p^k) maps S into S, for every kind."""
    rng = random.Random(p * 100 + e)
    qm1 = p**e - 1
    kinds = []
    for d in sympy.divisors(qm1 // 2):
        if d > 1:
            kinds.append(GraphKind.paley(d))
        if d % 2 == 0:
            kinds.append(GraphKind.peisert(d))
        if d > 2:
            j = {c for c in range(d) if rng.random() < 0.4} or {rng.randrange(d)}
            kinds.append(GraphKind.residue_class(d, j))
    for kind in kinds:
        graph = graphs(p, e, kind)
        assert graph._frobenius_powers() == _brute_force_frobenius_powers(graph), kind
        if kind.name == "paley":
            assert graph._frobenius_powers() == list(range(e))


def test_non_subfield_base_takes_the_whole_pool_search(gpstar81_4):
    """A base that is no subfield has single witnesses as its orbits."""
    base = [0, 9]
    assert gpstar81_4.is_clique(base)
    pool = gpstar81_4.common_neighbors(base)
    orbits = gpstar81_4._pool_orbits(base, gpstar81_4.table.log[pool].astype(np.int64))
    assert [orbit.tolist() for orbit in orbits] == [[i] for i in range(len(pool))]
    report = gpstar81_4.extend_to_maximal_clique(base)
    assert report.clique == _reference_extension(gpstar81_4, base)


def _networkx_omega(graph, pool) -> int:
    """Clique number of the pool by networkx, from the oracle's adjacency."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(len(pool)))
    nxg.add_edges_from(np.argwhere(np.triu(graph_adjacency(graph, pool, pool), 1)).tolist())
    return nx.max_weight_clique(nxg, weight=None)[1]


@pytest.mark.parametrize("p,e,r,kind", NX_CASES, ids=_case_id)
def test_extension_size_matches_networkx_on_witness_pools(graphs, p, e, r, kind):
    graph = graphs(p, e, kind)
    base = graph.table.subfield_elements(r)
    pool = graph.common_neighbors(base)
    omega = _networkx_omega(graph, pool)
    assert len(graph.extend_to_maximal_clique(base).clique) == len(base) + omega
    # The orbit search alone, with no greedy seed to fall back on.
    logs = graph.table.log[pool].astype(np.int64)
    orbits = graph._pool_orbits(list(base), logs)
    assert CayleyGraph._orbit_clique_size(graph._induced_adjacency(logs), orbits, 0) == omega


@pytest.mark.parametrize("p,e,r,kind", NX_CASES, ids=_case_id)
def test_orbit_clique_size_does_not_depend_on_the_orbit_order(graphs, p, e, r, kind):
    """The networkx clique number for the orbits in given, reversed and
    largest-first order, from no seed and from a seed one below it."""
    graph = graphs(p, e, kind)
    base = list(graph.table.subfield_elements(r))
    pool = graph.common_neighbors(base)
    omega = _networkx_omega(graph, pool)
    logs = graph.table.log[pool].astype(np.int64)
    adjacency = graph._induced_adjacency(logs)
    orbits = graph._pool_orbits(base, logs)
    largest_first = sorted(orbits, key=len, reverse=True)
    for ordered in (orbits, orbits[::-1], largest_first):
        for lower in (0, omega - 1):
            assert CayleyGraph._orbit_clique_size(adjacency, ordered, lower) == omega


def _with_zech(table, moves: dict[int, int]):
    """A table with the same exp and log and a zech whose entries at the keys
    of `moves` are replaced: x + g^0 = x (1 + 1/x), so setting the entry at
    -log x to log y - log x sends x + 1 to y, and setting it to -1 sends it
    to 0."""
    zech, log = table.zech.copy(), table.log
    for x, y in moves.items():
        zech[-log[x] % table.qm1] = (log[y] - log[x]) % table.qm1 if y else -1
    corrupt = FieldTable(table.params, table.g, table.exp, log)
    zech.setflags(write=False)
    corrupt.zech = zech  # shadows the cached property
    return corrupt


def _gpstar81_pool() -> tuple[list[int], np.ndarray]:
    """F_3 and the logs of its GP*(81,4) witness pool, in code order."""
    table = build_field(3, 4)
    pool = make_graph(table, GraphKind.peisert(4)).common_neighbors([0, 1, 2])
    return [0, 1, 2], table.log[pool].astype(np.int64)


def test_orbit_image_outside_the_pool_is_an_invariant_error(gf81):
    """A zech entry that sends 12 + 1 to 3 or to 0, outside the pool of F_3
    (zech = -1 is the image 0, although log 12 - 1 is the log of 13)."""
    base, logs = _gpstar81_pool()
    for image in (3, 0):
        graph = make_graph(_with_zech(gf81, {12: image}), GraphKind.peisert(4))
        with pytest.raises(InvariantError, match="does not permute the witness pool at witness 12"):
            graph._pool_orbits(base, logs)


def test_pool_log_that_exp_does_not_invert_is_an_invariant_error(gf81):
    """The extension reads the pool's logs once and checks them by exp."""
    log = gf81.log.copy()
    log[12] = (log[12] + 40) % 80  # the log of -12 = 24: same class, so 12 stays a witness
    graph = make_graph(_with_log(gf81, log), GraphKind.peisert(4))
    assert 12 in graph.common_neighbors([0, 1, 2])
    with pytest.raises(InvariantError, match="exp does not invert log at witness 12"):
        graph.extend_to_maximal_clique((0, 1, 2))


def test_frobenius_image_that_splits_a_slice_is_an_invariant_error(gf81):
    # In GP*(81,4) the pool is two <g^L> x| F orbits, {9,10,11,18,19,20}
    # and {12,13,14,24,25,26}, which x -> x^9 swaps.  Swapping the logs of
    # 10 and 13 keeps x^9 a permutation of the pool, but the Zech table
    # built from the swapped logs sends 26 + 1 out of the pool.
    graph = make_graph(gf81, GraphKind.peisert(4))
    base, logs = _gpstar81_pool()
    assert len(graph._pool_orbits(base, logs)) == 1
    log = gf81.log.copy()
    log[[10, 13]] = log[[13, 10]]
    corrupt = make_graph(_with_log(gf81, log), GraphKind.peisert(4))
    with pytest.raises(InvariantError, match="does not permute the witness pool at witness 26"):
        corrupt._pool_orbits(base, logs)


def test_merged_g_orbits_are_an_invariant_error(gf81):
    """x -> x + 1 still permutes the GP*(81,4) pool but trades the images of
    9 and 12, which joins its two <g^L> x| F orbits into one of 12."""
    base, logs = _gpstar81_pool()
    graph = make_graph(_with_zech(gf81, {9: 13, 12: 10}), GraphKind.peisert(4))
    with pytest.raises(InvariantError, match=r"orbit of witness 9 .* \|G\| = 6 elements"):
        graph._pool_orbits(base, logs)


def test_orbit_invariance_check_survives_optimize():
    src = Path(cayley_cliques.__file__).parents[1]
    script = (
        "import sys\n"
        "from cayley_cliques import FieldTable, GraphKind, InvariantError, build_field, make_graph\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(2)\n"
        "import numpy as np\n"
        "good = build_field(3, 4)\n"
        "log = good.log.copy()\n"
        "log[12] = (log[12] + 40) % 80\n"
        "table = FieldTable(good.params, good.g, good.exp, log)\n"
        "try:\n"
        "    make_graph(table, GraphKind.peisert(4)).extend_to_maximal_clique((0, 1, 2))\n"
        "except InvariantError as exc:\n"
        "    print(exc)\n"
        "zech = good.zech.copy()\n"
        "zech[-good.log[12] % 80] = (good.log[3] - good.log[12]) % 80\n"
        "zech.setflags(write=False)\n"
        "table = FieldTable(good.params, good.g, good.exp, good.log)\n"
        "table.zech = zech\n"
        "logs = good.log[[9, 10, 11, 12, 13, 14, 18, 19, 20, 24, 25, 26]].astype(np.int64)\n"
        "try:\n"
        "    make_graph(table, GraphKind.peisert(4))._pool_orbits([0, 1, 2], logs)\n"
        "except InvariantError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "exp does not invert log at witness 12" in done.stdout
    assert "does not permute the witness pool at witness 12" in done.stdout


# ---------------------------------------------------------------------------
# maximum clique engine vs exhaustive enumeration

@pytest.mark.parametrize("name,neighbors", corpus(), ids=lambda v: v if isinstance(v, str) else "")
def test_maximum_clique_matches_exhaustive_search(name, neighbors):
    assert maximum_clique(_unpack_masks(neighbors)).bit_count() == exhaustive_max_clique(neighbors)


def _random_graph(n: int, density: float, rng: random.Random) -> list[int]:
    neighbors = [0] * n
    for i in range(n):
        for k in range(i + 1, n):
            if rng.random() < density:
                neighbors[i] |= 1 << k
                neighbors[k] |= 1 << i
    return neighbors


def test_degeneracy_order_matches_the_reference():
    """The numpy removal order vs the scalar loop, ties included.

    The corpus holds regular graphs (every degree tied); sparse random
    graphs have many ties on few distinct degrees.
    """
    rng = random.Random(31)
    graphs = [neighbors for _, neighbors in corpus()]
    graphs += [_random_graph(n, density, rng)
               for n in (1, 10, 37, 120, 300) for density in (0.02, 0.1, 0.5, 0.9)]
    for neighbors in graphs:
        adjacency = _unpack_masks(neighbors)
        assert _row_masks(adjacency) == neighbors
        assert _degeneracy_order(adjacency) == _reference_degeneracy_order(neighbors)


def _uncut_maximum_clique(neighbors: list[int], bound: int = 0, stop_at: int | None = None) -> int:
    """maximum_clique as it was before the colour-class cut, kept verbatim:
    every colour class is listed, and the bound check stops the loop."""
    n = len(neighbors)
    if n == 0:
        return 0
    adjacency = _unpack_masks(neighbors)
    order = _degeneracy_order(adjacency)
    order.reverse()  # densest core gets the low labels
    relabeled = _row_masks(adjacency[np.ix_(order, order)])

    best_mask = 0
    best_size = bound

    def expand(r_mask: int, r_size: int, p_mask: int) -> None:
        nonlocal best_mask, best_size
        # Greedy coloring of the candidates; color = clique-size upper bound.
        order_v: list[int] = []
        bound_v: list[int] = []
        color = 0
        rem = p_mask
        while rem:
            color += 1
            avail = rem
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                order_v.append(v)
                bound_v.append(color)
                avail &= ~(relabeled[v] | low)
                rem ^= low
        for i in range(len(order_v) - 1, -1, -1):
            if r_size + bound_v[i] <= best_size:
                return
            v = order_v[i]
            vbit = 1 << v
            new_p = p_mask & relabeled[v]
            if new_p:
                expand(r_mask | vbit, r_size + 1, new_p)
            elif r_size + 1 > best_size:
                best_mask, best_size = r_mask | vbit, r_size + 1
                if stop_at is not None and best_size >= stop_at:
                    # No branch can beat n vertices: every open frame
                    # returns at its next bound check.
                    best_size = n
            p_mask ^= vbit

    expand(0, 0, (1 << n) - 1)
    # map back to the original labels
    out = 0
    for i in _bits(best_mask):
        out |= 1 << order[i]
    return out


def _first_orbit_subproblem(graph, r: int) -> tuple[list[int], int]:
    """The first rooted subproblem _orbit_clique_size searches for the
    subfield F_{p^r}: N(w) in the witness pool, for w the smallest member
    of the largest orbit, and the bound it is asked to beat."""
    base = list(graph.table.subfield_elements(r))
    logs = graph.table.log[graph.common_neighbors(base)].astype(np.int64)
    adjacency = graph._induced_adjacency(logs)
    orbit = max(graph._pool_orbits(base, logs), key=len)
    sub = np.flatnonzero(adjacency[orbit[0]])
    seed = len(graph._extend_greedy(logs))
    return _row_masks(adjacency[np.ix_(sub, sub)]), seed - 1


def test_colour_class_cut_leaves_the_search_unchanged(graphs, monkeypatch):
    """Same mask as the uncut search, so the same first optimum-size clique,
    for seeded bounds below, at and above the clique number, with and
    without stop_at.

    Beyond the corpus and the GF(3^6) witness pools, dense random graphs
    (where the Re-NUMBER skip fires) and the first orbit subproblem of
    GP*(15625,62) (343 vertices, asked to beat 19 = its clique number).
    """
    fits_fewer_classes = cayley._fits_fewer_classes
    renumbered = []

    def counted(*args):
        renumbered.append(fits_fewer_classes(*args))
        return renumbered[-1]
    monkeypatch.setattr(cayley, "_fits_fewer_classes", counted)
    rng = random.Random(61)
    cases = [neighbors for _, neighbors in corpus()]
    for p, e, r, kind in ORBIT_CASES:
        if (p, e) == (3, 6):
            graph = graphs(p, e, kind)
            pool = graph.common_neighbors(graph.table.subfield_elements(r))
            cases.append(_row_masks(graph._induced_adjacency(graph.table.log[pool].astype(np.int64))))
    dense = [_random_graph(n, density, rng)
             for n, density in [(40, 0.9), (60, 0.8), (80, 0.7), (100, 0.6), (150, 0.5), (150, 0.6)]]
    subproblem, bound = _first_orbit_subproblem(graphs(5, 6, GraphKind.peisert(62)), 1)
    assert (len(subproblem), bound) == (343, 19)
    cases += dense + [subproblem]
    for neighbors in cases:
        adjacency = _unpack_masks(neighbors)
        omega = maximum_clique(adjacency).bit_count()
        assert _uncut_maximum_clique(neighbors).bit_count() == omega
        runs = [(0, None), (max(omega - 1, 0), None), (omega, None)]
        for _ in range(4):
            bound = rng.randrange(omega + 1)
            runs.append((bound, rng.choice([None, rng.randint(bound + 1, omega + 1)])))
        runs += [(omega + 1, None), (max(omega - 2, 0), omega), (max(omega - 1, 0), omega + 1)]
        for bound, stop_at in runs:
            assert (maximum_clique(adjacency, bound, stop_at)
                    == _uncut_maximum_clique(neighbors, bound, stop_at)), (bound, stop_at)
    assert any(renumbered) and not all(renumbered)


def test_maximum_clique_result_is_a_clique():
    for _, neighbors in corpus():
        mask = maximum_clique(_unpack_masks(neighbors))
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
