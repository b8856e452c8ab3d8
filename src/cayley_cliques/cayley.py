"""Generalized Paley and Peisert graphs with implicit adjacency.

A graph here is Cay(GF(q)^+, S) where S is a union of multiplicative
residue classes mod d: x belongs to S iff x != 0 and log(x) mod d lies in
a class set J.  Paley graphs take J = {0} (the d-th powers), Peisert
graphs take J = {0, ..., d/2 - 1}.  Requiring q == 1 (mod 2d) makes
-1 a d-th power, so S = -S and the graphs are undirected.

No adjacency matrix is materialized; adjacency queries go through the
field's log table, and neighborhood scans filter candidate arrays one
clique vertex at a time.  Exact maximum-clique searches run on bitset
adjacency rows of small induced subgraphs only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ff import CapExceeded, Element, FieldTable, InvariantError


class DegenerateModulus(ValueError):
    """Field size incompatible with the residue order: q != 1 (mod 2d)."""


class EmptyJ(ValueError):
    """Empty residue class set."""


class SelfLoopQuery(ValueError):
    """Adjacency query with u == v."""


class NotAClique(ValueError):
    """A vertex set that was required to be a clique is not one."""


class ExactBudgetExceeded(RuntimeError):
    """Induced subgraph too large for the exact clique search."""


@dataclass(frozen=True)
class GraphKind:
    """Connection-set recipe: residue classes J inside Z_d."""

    name: str  # "paley" | "peisert" | "residue"
    d: int
    j: frozenset[int]

    @staticmethod
    def paley(d: int) -> "GraphKind":
        if d < 2:
            raise ValueError(f"paley kind needs d > 1, got {d}")
        return GraphKind("paley", d, frozenset({0}))

    @staticmethod
    def peisert(d: int) -> "GraphKind":
        if d % 2 != 0 or d < 2:
            raise ValueError(f"peisert kind needs even d >= 2, got {d}")
        if d == 2:
            # J = {0} either way; keep the canonical name.
            return GraphKind.paley(2)
        return GraphKind("peisert", d, frozenset(range(d // 2)))

    @staticmethod
    def residue_class(d: int, j: frozenset[int] | set[int]) -> "GraphKind":
        if d < 1:
            raise ValueError(f"residue kind needs d >= 1, got {d}")
        j = frozenset(int(x) for x in j)
        if not j:
            raise EmptyJ("residue class set J must be nonempty")
        if any(x < 0 or x >= d for x in j):
            raise ValueError(f"J={sorted(j)} not a subset of Z_{d}")
        return GraphKind("residue", d, j)

    @staticmethod
    def from_name(name: str, d: int) -> "GraphKind":
        if name == "paley":
            return GraphKind.paley(d)
        if name == "peisert":
            return GraphKind.peisert(d)
        raise ValueError(f"unknown graph kind {name!r}")


@dataclass(frozen=True)
class CliqueReport:
    clique: tuple[Element, ...]
    is_maximal: bool
    witnesses: tuple[Element, ...]
    method: str

    def to_json(self) -> dict:
        return {
            "clique": list(self.clique),
            "is_maximal": self.is_maximal,
            "witnesses": list(self.witnesses),
            "method": self.method,
        }


GRAPH_SCHEMA = {
    "type": "object",
    "required": ["p", "E", "d", "kind", "J", "g", "modulus"],
    "properties": {
        "p": {"type": "integer"},
        "E": {"type": "integer"},
        "d": {"type": "integer"},
        "kind": {"type": "string", "enum": ["paley", "peisert", "residue"]},
        "J": {"type": "array", "items": {"type": "integer"}},
        "g": {"type": "integer"},
        "modulus": {"type": "array", "items": {"type": "integer"}},
        "connection_size": {"type": "integer"},
    },
    "additionalProperties": False,
}

CLIQUE_REPORT_SCHEMA = {
    "type": "object",
    "required": ["clique", "is_maximal", "witnesses", "method"],
    "properties": {
        "clique": {"type": "array", "items": {"type": "integer"}},
        "is_maximal": {"type": "boolean"},
        "witnesses": {"type": "array", "items": {"type": "integer"}},
        "method": {"type": "string", "enum": ["greedy", "exact"]},
    },
    "additionalProperties": False,
}


class CayleyGraph:
    """Cay(GF(q)^+, S) for S a union of residue classes; built by make_graph."""

    def __init__(self, table: FieldTable, kind: GraphKind):
        self.table = table
        self.kind = kind
        self.d = kind.d
        self.j = kind.j
        lut = np.zeros(kind.d, dtype=bool)
        lut[sorted(kind.j)] = True
        lut.setflags(write=False)
        self._j_lut = lut

    def __repr__(self) -> str:
        return f"CayleyGraph({self.kind.name}, q={self.table.q}, d={self.d})"

    # ----------------------------------------------------------- adjacency

    def in_connection_set(self, x: Element) -> bool:
        if x == 0:
            return False
        return bool(self._j_lut[int(self.table.log[x]) % self.d])

    def connection_set(self) -> np.ndarray:
        """All codes in S, ascending."""
        codes = np.arange(self.table.q, dtype=np.int64)
        return codes[self._member_mask(codes)]

    def _member_mask(self, codes: np.ndarray) -> np.ndarray:
        residues = self.table.log[codes] % self.d  # log[0] = -1 folds to d-1; masked below
        return (codes != 0) & self._j_lut[residues]

    def adjacent(self, u: Element, v: Element) -> bool:
        if u == v:
            raise SelfLoopQuery(f"adjacency of {u} with itself is undefined")
        return self.in_connection_set(self.table.sub(u, v))

    # -------------------------------------------------------------- cliques

    def is_clique(self, vertices) -> bool:
        vs = sorted(set(vertices))
        for i in range(len(vs)):
            for k in range(i + 1, len(vs)):
                if not self.adjacent(vs[i], vs[k]):
                    return False
        return True

    def common_neighbors(self, vertices) -> list[Element]:
        """Vertices adjacent to every element of the set, ascending.

        Filters the full code range one clique vertex at a time; members of
        the set drop out on their own pass (x - x = 0 is never in S).
        """
        cand = np.arange(self.table.q, dtype=np.int64)
        for c in sorted(set(vertices)):
            cand = cand[self._member_mask(self.table.sub_many(cand, c))]
            if cand.size == 0:
                break
        return [int(v) for v in cand]

    def is_maximal_clique(self, vertices) -> tuple[bool, list[Element]]:
        """(maximal?, witnesses); witnesses are the common neighbors, ascending."""
        if not self.is_clique(vertices):
            raise NotAClique(f"{sorted(set(vertices))} is not a clique")
        witnesses = self.common_neighbors(vertices)
        return (len(witnesses) == 0, witnesses)

    def extend_to_maximal_clique(
        self, vertices, strategy: str = "exact", exact_budget: int = 2000
    ) -> CliqueReport:
        """Grow a clique until maximal.

        greedy: repeatedly add the smallest common neighbor.
        exact: maximum clique of the subgraph induced on the common
        neighbors (so the result is a maximum clique containing the input);
        refuses if that subgraph exceeds exact_budget vertices.
        """
        if not self.is_clique(vertices):
            raise NotAClique(f"{sorted(set(vertices))} is not a clique")
        base = sorted(set(vertices))
        if strategy == "greedy":
            clique = self._extend_greedy(base)
        elif strategy == "exact":
            clique = self._extend_exact(base, exact_budget)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        leftover = self.common_neighbors(clique)
        if leftover:
            raise InvariantError(
                f"{strategy} extension of {base} stopped at a non-maximal clique: "
                f"{len(leftover)} common neighbors remain"
            )
        return CliqueReport(tuple(clique), True, (), strategy)

    def _extend_greedy(self, base: list[Element]) -> list[Element]:
        cur = list(base)
        pool = np.array(self.common_neighbors(cur), dtype=np.int64)
        while pool.size:
            v = int(pool[0])
            cur.append(v)
            pool = pool[self._member_mask(self.table.sub_many(pool, v))]
        return sorted(cur)

    def _extend_exact(self, base: list[Element], exact_budget: int) -> list[Element]:
        pool = self.common_neighbors(base)
        if len(pool) > exact_budget:
            raise ExactBudgetExceeded(
                f"{len(pool)} common neighbors exceed the exact-search budget {exact_budget}"
            )
        if not pool:
            return list(base)
        masks = self._induced_masks(np.array(pool, dtype=np.int64))
        # Seed the search with the greedy extension restricted to the pool.
        pool_index = {v: i for i, v in enumerate(pool)}
        seed = 0
        for v in self._extend_greedy(base):
            if v in pool_index:
                seed |= 1 << pool_index[v]
        best = maximum_clique(masks, seed=seed)
        chosen = [pool[i] for i in _bits(best)]
        return sorted(base + chosen)

    def _induced_masks(self, vertices: np.ndarray) -> list[int]:
        masks = []
        for i, v in enumerate(vertices):
            row = self._member_mask(self.table.sub_many(vertices, int(v)))
            row[i] = False
            masks.append(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little"))
        return masks

    def clique_number(self, *, cap: int = 4096) -> int:
        """Exact clique number; vertex-transitivity roots the search at 0."""
        if self.table.q > cap:
            raise CapExceeded(f"clique_number on q={self.table.q} exceeds cap {cap}")
        s = self.connection_set()
        masks = self._induced_masks(s)
        return 1 + maximum_clique(masks).bit_count()

    # ------------------------------------------------------------ subfields

    def subfield_is_clique(self, r: int) -> bool:
        """Is the subfield F_{p^r} a clique?

        Closed form, O(d): the units of F_{p^r} are g^(k * step) with
        step = (q-1)/(p^r-1), and d divides step * (p^r-1), so their classes
        mod d are exactly the multiples of h = gcd(step, d).  Differences of
        subfield elements are subfield elements, so F_{p^r} is a clique iff
        every multiple of h lies in J.  No field element is built.

        Two cross-checks guard the tables: for the Paley kind the answer must
        be d | step, and for a proper subfield (r < e) the log classes of its
        p^r - 1 <= sqrt(q) units must agree.  Disagreement raises
        InvariantError.
        """
        step = self.table.subfield_step(r)
        closed = bool(self._j_lut[:: math.gcd(step, self.d)].all())
        divides = step % self.d == 0
        if self.kind.name == "paley" and closed != divides:
            raise InvariantError(
                f"closed form ({closed}) contradicts divisibility "
                f"({divides}) for F_{{{self.table.p}^{r}}}"
            )
        if r < self.table.e:
            by_scan = bool(self._member_mask(self.table.exp[::step]).all())
            if by_scan != closed:
                raise InvariantError(
                    f"membership scan ({by_scan}) contradicts the closed form "
                    f"({closed}) for F_{{{self.table.p}^{r}}}: corrupt tables"
                )
        return closed

    def is_maximal_subfield_clique(self, r: int) -> bool:
        """Clique F_{p^r} contained in no strictly larger subfield clique."""
        if not self.subfield_is_clique(r):
            raise NotAClique(f"subfield F_{{{self.table.p}^{r}}} is not a clique")
        e = self.table.e
        for m in range(2 * r, e + 1, r):
            if e % m == 0 and self.subfield_is_clique(m):
                return False
        return True

    # --------------------------------------------------------------- output

    def to_json(self) -> dict:
        t = self.table
        return {
            "p": t.p,
            "E": t.e,
            "d": self.d,
            "kind": self.kind.name,
            "J": sorted(self.j),
            "g": t.g,
            "modulus": list(t.params.modulus),
            "connection_size": int(t.qm1 * len(self.j) // self.d),
        }


def make_graph(table: FieldTable, kind: GraphKind) -> CayleyGraph:
    """Validate compatibility and wrap the field in a graph view."""
    if not kind.j:
        raise EmptyJ("residue class set J must be nonempty")
    if table.qm1 % (2 * kind.d) != 0:
        raise DegenerateModulus(
            f"q = {table.q} is not 1 mod 2d = {2 * kind.d}; classes would be "
            "ill-defined or the graph directed"
        )
    # q == 1 (mod 2d), checked above, puts log(-1) = (q-1)/2 in class 0 mod d,
    # so S = -S; the assert records that consequence and cannot fail.
    assert (table.qm1 // 2) % kind.d == 0
    return CayleyGraph(table, kind)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _degeneracy_order(neighbors: list[int]) -> list[int]:
    """Vertices in repeated-minimum-degree removal order."""
    n = len(neighbors)
    remaining = (1 << n) - 1
    degs = [nb.bit_count() for nb in neighbors]
    order = []
    for _ in range(n):
        best_v, best_d = -1, n + 1
        scan = remaining
        while scan:
            low = scan & -scan
            scan ^= low
            v = low.bit_length() - 1
            if degs[v] < best_d:
                best_v, best_d = v, degs[v]
        order.append(best_v)
        remaining ^= 1 << best_v
        nbs = neighbors[best_v] & remaining
        while nbs:
            low = nbs & -nbs
            nbs ^= low
            degs[low.bit_length() - 1] -= 1
    return order


def maximum_clique(neighbors: list[int], seed: int = 0) -> int:
    """Maximum clique of a bitset-encoded graph, as a vertex bitmask.

    neighbors[v] is the bitmask of vertices adjacent to v (irreflexive,
    symmetric).  Branch and bound in the Bron-Kerbosch family, with the
    pivot rule strengthened to a greedy coloring: candidates expand in
    color order and a branch is cut when R plus its color bound cannot
    beat the incumbent.  Vertices are relabeled in degeneracy order first,
    which keeps the colorings tight.  seed is a known clique bitmask used
    as the initial incumbent.
    """
    n = len(neighbors)
    if n == 0:
        return seed
    order = _degeneracy_order(neighbors)
    order.reverse()  # densest core gets the low labels
    pos = {v: i for i, v in enumerate(order)}
    relabeled: list[int] = []
    for v in order:
        mask, nbs = 0, neighbors[v]
        while nbs:
            low = nbs & -nbs
            nbs ^= low
            mask |= 1 << pos[low.bit_length() - 1]
        relabeled.append(mask)

    best_mask = 0
    best_size = seed.bit_count()
    found_better = False

    def expand(r_mask: int, r_size: int, p_mask: int) -> None:
        nonlocal best_mask, best_size, found_better
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
                found_better = True
            p_mask ^= vbit

    expand(0, 0, (1 << n) - 1)
    if not found_better:
        return seed
    # map back to the original labels
    out = 0
    for i in _bits(best_mask):
        out |= 1 << order[i]
    return out
