"""Small graphs with independently computable clique numbers.

Graphs are neighbor bitmask lists; _unpack_masks turns one into the
boolean adjacency matrix that maximum_clique takes.  The oracle enumerates
every clique by ordered backtracking, so its answer does not depend on any
pruning logic in the implementation under test.
"""

from __future__ import annotations

import functools

import numpy as np

from cayley_cliques import GraphKind, build_field, make_graph
from field_oracle import graph_adjacency


def _unpack_masks(neighbors: list[int]) -> np.ndarray:
    """Neighbor bitmasks as a boolean adjacency matrix; inverse of cayley._row_masks."""
    n = len(neighbors)
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in neighbors), dtype=np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)


def induced_bitmasks(graph, vertices: list[int]) -> list[int]:
    """Adjacency of the induced subgraph by the table-free field oracle, as
    neighbor bitmasks."""
    adjacency = graph_adjacency(graph, vertices, vertices)
    return [sum(1 << int(k) for k in np.flatnonzero(row)) for row in adjacency]


def exhaustive_max_clique(neighbors: list[int]) -> int:
    """Visit every clique once; no bounds, no pivoting."""
    best = 0

    def extend(size: int, candidates: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while candidates:
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            extend(size + 1, candidates & neighbors[v])

    extend(0, (1 << len(neighbors)) - 1)
    return best


def _cycle(n: int) -> list[int]:
    return [(1 << ((i + 1) % n)) | (1 << ((i - 1) % n)) for i in range(n)]


def _complete(n: int) -> list[int]:
    full = (1 << n) - 1
    return [full ^ (1 << i) for i in range(n)]


def _from_edges(n: int, edges: list[tuple[int, int]]) -> list[int]:
    neighbors = [0] * n
    for u, v in edges:
        neighbors[u] |= 1 << v
        neighbors[v] |= 1 << u
    return neighbors


def _petersen() -> list[int]:
    return _from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])


def _connection_subgraph(p: int, e: int, d: int, kind_name: str) -> tuple[str, list[int]]:
    table = build_field(p, e)
    graph = make_graph(table, GraphKind.from_name(kind_name, d))
    vertices = [int(x) for x in graph.connection_set()]
    return f"{kind_name}({p}^{e},{d})|S", induced_bitmasks(graph, vertices)


@functools.cache
def corpus() -> list[tuple[str, list[int]]]:
    graphs: list[tuple[str, list[int]]] = [
        ("empty8", [0] * 8),
        ("K12", _complete(12)),
        ("C7", _cycle(7)),
        ("petersen", _petersen()),
        ("bowtie", _from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])),
    ]
    # connection-set-induced subgraphs; by vertex transitivity their clique
    # number is one less than the ambient graph's
    for p, e, d, kind in [
        (13, 1, 3, "paley"),
        (3, 2, 2, "paley"),
        (3, 2, 4, "paley"),
        (3, 2, 4, "peisert"),
        (5, 2, 2, "paley"),
        (5, 2, 4, "paley"),
        (5, 2, 4, "peisert"),
        (3, 3, 13, "paley"),
        (7, 2, 2, "paley"),
        (7, 2, 4, "peisert"),
        (7, 2, 6, "peisert"),
        (3, 4, 8, "paley"),
        (3, 4, 20, "paley"),
        (13, 2, 12, "paley"),
    ]:
        graphs.append(_connection_subgraph(p, e, d, kind))
    # the common neighborhood of F_3 in GP*(81,4), whose maximum clique
    # joins with F_3 into the size-9 maximal clique
    table = build_field(3, 4)
    graph = make_graph(table, GraphKind.peisert(4))
    pool = [int(x) for x in graph.common_neighbors({0, 1, 2})]
    graphs.append(("peisert(3^4,4)|N(F_3)", induced_bitmasks(graph, pool)))
    return graphs
