"""Graph construction, clique predicates, and the clique search engine."""

from __future__ import annotations

import math
import os
import random
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
    report = graph.extend_to_maximal_clique(base, "exact")
    assert report.clique == _reference_extension(graph, base)


@pytest.mark.parametrize("p,e,r,kind", ORBIT_CASES, ids=_case_id)
def test_pool_orbits_partition_the_pool_into_free_orbits(graphs, p, e, r, kind):
    graph = graphs(p, e, kind)
    base = list(graph.table.subfield_elements(r))
    pool = np.array(graph.common_neighbors(base), dtype=np.int64)
    orbits = graph._pool_orbits(base, pool)
    step = graph.table.subfield_step(r)
    group_order = graph.table.qm1 // math.lcm(step, kind.d) * p**r
    assert all(len(orbit) == group_order for orbit in orbits)
    assert sorted(np.concatenate(orbits).tolist()) == list(range(len(pool)))
    assert [int(orbit[0]) for orbit in orbits] == sorted(int(o.min()) for o in orbits)


def test_non_subfield_base_takes_the_whole_pool_search(gpstar81_4):
    base = [0, 9]
    assert gpstar81_4.is_clique(base)
    pool = np.array(gpstar81_4.common_neighbors(base), dtype=np.int64)
    assert gpstar81_4._pool_orbits(base, pool) is None
    report = gpstar81_4.extend_to_maximal_clique(base, "exact")
    assert report.clique == _reference_extension(gpstar81_4, base)


@pytest.mark.parametrize("p,e,r,kind", NX_CASES, ids=_case_id)
def test_extension_size_matches_networkx_on_witness_pools(graphs, p, e, r, kind):
    graph = graphs(p, e, kind)
    base = graph.table.subfield_elements(r)
    pool = graph.common_neighbors(base)
    nxg = nx.Graph()
    nxg.add_nodes_from(pool)
    nxg.add_edges_from((u, v) for i, u in enumerate(pool) for v in pool[i + 1:]
                       if graph.adjacent(u, v))
    _, omega = nx.max_weight_clique(nxg, weight=None)
    assert len(graph.extend_to_maximal_clique(base, "exact").clique) == len(base) + omega
    # The orbit search alone, with no greedy seed to fall back on.
    vertices = np.array(pool, dtype=np.int64)
    orbits = graph._pool_orbits(list(base), vertices)
    assert CayleyGraph._orbit_clique_size(graph._induced_adjacency(vertices), orbits, 0) == omega


def test_orbit_image_outside_the_pool_is_an_invariant_error(gf81, monkeypatch):
    graph = make_graph(gf81, GraphKind.peisert(4))
    log = gf81.log.copy()
    log[12] = (log[12] + 40) % 80  # the log of -12: same class, so 12 stays a witness
    monkeypatch.setattr(gf81, "log", log)
    with pytest.raises(InvariantError, match="orbit of witness 12"):
        graph.extend_to_maximal_clique((0, 1, 2), "exact")


def test_orbit_invariance_check_survives_optimize():
    src = Path(cayley_cliques.__file__).parents[1]
    script = (
        "import sys\n"
        "from cayley_cliques import GraphKind, InvariantError, build_field, make_graph\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(2)\n"
        "table = build_field(3, 4)\n"
        "log = table.log.copy()\n"
        "log[12] = (log[12] + 40) % 80\n"
        "table.log = log\n"
        "try:\n"
        "    make_graph(table, GraphKind.peisert(4)).extend_to_maximal_clique((0, 1, 2))\n"
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
    assert "orbit of witness 12" in done.stdout


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
