"""Generalized Paley and Peisert graphs with implicit adjacency.

A graph here is Cay(GF(q)^+, S) where S is a union of multiplicative
residue classes mod d: x belongs to S iff x != 0 and log(x) mod d lies in
a class set J.  Paley graphs take J = {0} (the d-th powers), Peisert
graphs take J = {0, ..., d/2 - 1}.  Requiring q == 1 (mod 2d) makes
-1 a d-th power, so S = -S and the graphs are undirected.

No adjacency matrix of the whole graph is materialized.  One kernel, a
Zech lookup on the logs of two units, decides every adjacency (see
_pair_adjacency).  Codes become logs once, at the public boundary, where
0 takes one rule, 0 ~ v iff v lies in S; codes come back only for the
witnesses and cliques returned.  Scans filter candidate exponents one
kernel row per clique vertex; a set holding a subfield starts from one
exponent per coset of a subgroup fixing the subfield and S (see
common_neighbors).  Exact searches take boolean matrices of the kernel,
with bitset rows only inside the search (see maximum_clique).

The exact extension of a subfield F uses the graph's symmetry.  The maps
x -> ux + f with f in F and u in the units of F that lie in class 0 mod d
fix F and S, so they permute the witness pool W (the common neighbors of
F), and they act on it without fixed points.  The Frobenius maps
x -> x^(p^k) fix F, and they fix S whenever p^k J = J (mod d), which for
the Paley kind is every k.  Together they form a semilinear group G'
inside AGammaL(1, q), which by Lim and Praeger (Michigan Math. J. 2009)
holds the automorphisms of generalized Paley graphs in most cases.  Its
orbits on W, the connected components of at most r + 2 generator
permutations of W for F = F_{p^r} (see _pool_orbits), need not be free.
Take the orbits in any fixed order: every maximum clique of W can be
moved onto one through the smallest member of an orbit, avoiding all
orbits taken before it.  So the search runs one rooted subproblem per
orbit (vertex-rooted branch and bound, as in Tomita et al., J. Global
Optim. 2010), each only asked to beat the best size so far, and takes the
largest orbits first, since removing them shrinks every later subproblem
the most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ff import CapExceeded, Element, FieldTable, InvariantError, _integer


class DegenerateModulus(ValueError):
    """Field size incompatible with the residue order: q != 1 (mod 2d)."""


class EmptyJ(ValueError):
    """Empty residue class set."""


class NotAClique(ValueError):
    """A vertex set that was required to be a clique is not one."""


@dataclass(frozen=True)
class GraphKind:
    """Connection-set recipe: residue classes J inside Z_d.

    The Peisert kind keeps J = {0, ..., d/2 - 1} as a range, so a case with
    a large d holds no set of d/2 ints.
    """

    name: str  # "paley" | "peisert" | "residue"
    d: int
    j: frozenset[int] | range

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
        return GraphKind("peisert", d, range(d // 2))

    @staticmethod
    def residue_class(d: int, j: frozenset[int] | set[int]) -> "GraphKind":
        if d < 1:
            raise ValueError(f"residue kind needs d >= 1, got {d}")
        j = frozenset(_integer("class", x) for x in j)
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

    # ------------------------------------------------------ connection set

    def _in_s(self, logs: np.ndarray) -> np.ndarray:
        """Membership in S of the units with these logs: log mod d in J."""
        return self._j_lut[logs % self.d]

    def _s_logs(self, n: int) -> np.ndarray:
        """The exponents k < n with k mod d in J, ascending; d divides n."""
        return np.flatnonzero(np.tile(self._j_lut, n // self.d))

    def _vertex_logs(self, vertices) -> tuple[list[Element], bool, np.ndarray]:
        """Codes to logs: the distinct vertices ascending, whether 0 is one,
        and the others' logs in code order.  A code that is no integer
        (operator.index) raises TypeError, one outside [0, q) ValueError."""
        codes, q = sorted({_integer("vertex", v) for v in vertices}), self.table.q
        if codes and not 0 <= codes[0] <= codes[-1] < q:
            raise ValueError(f"vertex {codes[0] if codes[0] < 0 else codes[-1]} is not a code of GF({q})")
        zero = int(codes[:1] == [0])
        return codes, bool(zero), self.table.log[np.array(codes[zero:], dtype=np.int64)].astype(np.int64)

    # -------------------------------------------------------------- cliques

    def is_clique(self, vertices) -> bool:
        """Every pair adjacent: the 0 rule, then kernel row blocks against the later vertices."""
        _, zero, logs = self._vertex_logs(vertices)
        if zero and not self._in_s(logs).all():
            return False
        step = _rows_per_block(len(logs))
        for lo in range(0, len(logs), step):
            block = self._pair_adjacency(logs[lo : lo + step], logs[lo:])
            # u - u = 0 is never in S: the diagonal is the one pair not to check.
            np.fill_diagonal(block, True)
            if not block.all():
                return False
        return True

    def common_neighbors(self, vertices) -> list[Element]:
        """Vertices adjacent to every element of the set, ascending.

        The candidates are exponents.  When the set contains a proper
        subfield F = F_{p^r}, with step = (q-1)/(p^r-1) and L = lcm(step, d),
        g^L lies in F* and in class 0 mod d, so multiplying by it fixes F and
        S and the common neighbors of F are a union of <g^L>-orbits.  Only
        the exponents k < L with k mod d in J are read (the c = 0 pass),
        filtered by the logs of F* (the multiples of step) and expanded by
        the multiples of L.  Any other set starts from every unit exponent,
        and 0 joins by the 0 rule.  Each remaining vertex then filters the
        candidates; members of the set drop out on their own pass (x - x = 0
        is never in S).  exp is read once, for the codes returned.
        """
        t = self.table
        codes, zero, logs = self._vertex_logs(vertices)
        r = self._subfield_within(codes)
        if r is None:
            cand = self._s_logs(t.qm1) if zero else np.arange(t.qm1)
            head = [0] if not zero and self._in_s(logs).all() else []
        else:
            step = t.subfield_step(r)
            period = math.lcm(step, self.d)
            reps = self._filter(self._s_logs(period), np.arange(0, t.qm1, step))
            cand = (reps[:, None] + np.arange(0, t.qm1, period)).ravel()
            logs, head = logs[logs % step != 0], []
        return head + np.sort(t.exp[self._filter(cand, logs)]).tolist()

    def _filter(self, cand: np.ndarray, logs) -> np.ndarray:
        """Candidate units adjacent to every vertex, as logs: a kernel row each, the 0 rule for -1."""
        for lu in logs:
            if cand.size == 0:
                break
            cand = cand[self._row(lu, cand)]
        return cand

    def _row(self, lu, cand: np.ndarray) -> np.ndarray:
        """Adjacency of one vertex, by its log, to candidate units: a kernel row, the 0 rule for -1."""
        return self._in_s(cand) if lu < 0 else self._pair_adjacency(np.array([lu]), cand)[0]

    def _subfield_within(self, vertices) -> int | None:
        """Degree r of the largest proper subfield F_{p^r} inside the set, or None."""
        t = self.table
        present = set(vertices)
        for r in range(t.e - 1, 0, -1):
            if t.e % r == 0 and t.p**r <= len(present) and present.issuperset(t.subfield_elements(r)):
                return r
        return None

    def is_maximal_clique(self, vertices) -> tuple[bool, list[Element]]:
        """(maximal?, witnesses); witnesses are the common neighbors, ascending.
        vertices may be any iterable, an iterator too: it is read once."""
        vertices = list(vertices)
        if not self.is_clique(vertices):
            raise NotAClique(f"the set of {len(set(vertices))} vertices is not a clique")
        witnesses = self.common_neighbors(vertices)
        return (len(witnesses) == 0, witnesses)

    def extend_to_maximal_clique(self, vertices, *, exact_budget: int = 2000) -> CliqueReport:
        """Grow a clique until maximal, exactly when its witness pool is small.

        A pool (the common neighbors) of at most exact_budget vertices gets
        the exact extension: a maximum clique of the subgraph induced on the
        pool, so the result is a maximum clique containing the input.  A
        larger pool gets the greedy one, which repeatedly adds the smallest
        common neighbor.  The report's method names which ran.

        A base that is a subfield splits its pool into large orbits, one
        rooted subproblem each.  Any other base runs one subproblem per
        witness, so its exact extension costs far more.  On GP*(7^4, 16),
        base {0, 1} (pool 599) took 0.7 s and F_7 (pool 84) 3 ms, best of 3
        on a 2-core VM.
        """
        if exact_budget < 0:
            raise ValueError(f"exact budget must be >= 0, got {exact_budget}")
        vertices = list(vertices)  # read once: an iterator would be spent by the clique test
        _, pool = self.is_maximal_clique(vertices)
        return self._extend(vertices, pool, exact_budget)

    def _extend(self, vertices, pool: list[Element], exact_budget: int) -> CliqueReport:
        """extend_to_maximal_clique for a clique whose witness pool is known.

        pool must be the common neighbors of vertices, ascending, as
        is_maximal_clique returns them; a caller that already holds them
        skips the second scan.  Its logs (-1 for 0) are read once, checked
        by exp; the extensions work on them and return pool indices, which
        become codes here, once.  Maximality is checked on the pool: a
        clique holding the base has as its common neighbors the pool
        vertices adjacent to every added vertex (0 by the 0 rule), so those
        are left over.
        """
        base = sorted(set(vertices))
        zero = int(pool[:1] == [0])
        logs = self.table.log[np.array(pool, dtype=np.int64)].astype(np.int64)
        units = logs[zero:]
        wrong = np.flatnonzero(self.table.exp[units] != pool[zero:]) + zero
        if wrong.size:
            raise InvariantError(f"exp does not invert log at witness {pool[wrong[0]]}: corrupt tables")
        if len(pool) <= exact_budget:
            method, chosen = "exact", self._extend_exact(base, logs)
        else:
            method, chosen = "greedy", self._extend_greedy(logs)
        in_clique = np.zeros(len(pool), dtype=bool)
        in_clique[chosen] = True
        leftover = self._filter(units[~in_clique[zero:]], logs[in_clique]).size
        leftover += zero and not in_clique[0] and bool(self._in_s(units[in_clique[zero:]]).all())
        if leftover:
            raise InvariantError(
                f"{method} extension of {base} stopped at a non-maximal clique: "
                f"{leftover} common neighbors remain"
            )
        return CliqueReport(tuple(sorted(base + [pool[i] for i in chosen])), True, (), method)

    def _extend_greedy(self, logs: np.ndarray) -> list[int]:
        """Pool indices of the greedy extension of a pool W (as logs, in
        code order): repeatedly the first, so smallest, common neighbor left."""
        chosen, cand = [], np.arange(len(logs))
        while cand.size:
            chosen.append(int(cand[0]))
            cand = cand[1:][self._row(logs[cand[0]], logs[cand[1:]])]
        return chosen

    def _extend_exact(self, base: list[Element], logs: np.ndarray) -> list[int]:
        """Pool indices of a maximum clique of the witness pool W (as logs).

        The maximum clique size comes from one rooted subproblem per orbit of
        W (see _pool_orbits: under x -> u x^(p^k) + f when the base is a
        subfield F, else single witnesses).  The clique returned is the one
        a single search of W seeded with the greedy extension
        (_extend_greedy) returns: the seed when nothing beats it, else the
        first clique of the optimum size that search meets.  The search
        reads W's boolean adjacency matrix.
        """
        adjacency = self._induced_adjacency(logs)
        seed = self._extend_greedy(logs)
        size = self._orbit_clique_size(adjacency, self._pool_orbits(base, logs), len(seed))
        if size == len(seed):
            return seed
        # The bound, and every prune it enables, only skips branches that
        # cannot reach `size`; the colourings and visit order do not depend
        # on it, so this meets the same first size-`size` clique as an
        # unbounded run.
        return list(_bits(maximum_clique(adjacency, bound=size - 1, stop_at=size)))

    def _frobenius_powers(self) -> list[int]:
        """The k < E for which x -> x^(p^k) maps S onto S, ascending.

        x^(p^k) has class p^k * (log x) mod d, and multiplying by p^k
        permutes Z_d (d divides q - 1 = p^E - 1), so S is fixed exactly
        when p^k J = J (mod d): for every class c, c and p^k c lie both in
        J or both outside it.  One set test for every kind; Paley gets all
        of Z_E.  These k form a subgroup of Z_E, as p^E = 1 (mod d).
        """
        classes = np.arange(self.d, dtype=np.int64)
        p, lut = self.table.p, self._j_lut
        return [k for k in range(self.table.e)
                if np.array_equal(lut[classes * pow(p, k, self.d) % self.d], lut)]

    def _pool_orbits(self, base: list[Element], logs: np.ndarray) -> list[np.ndarray]:
        """Orbits of the witness pool under the semilinear group G'.

        For a pool given by its logs, base = F_{p^r}, step = (q-1)/(p^r-1)
        and L = lcm(step, d): g^L lies in F* and in class 0 mod d, so
        G = {x -> ux + f : u in <g^L>, f in F} fixes F and S and maps the
        pool onto itself.  With u != 1 it fixes only a point of F, which
        the pool avoids, so G acts freely: its orbits have |G| = p^r (q-1)/L
        elements.  x -> g^L x (log + L) and the translations by theta^i,
        i < r, for theta = g^step (an F_p-basis of F; log x + zech[i step -
        log x], zech = -1 being the image 0) generate G; the Frobenius map
        x -> x^(p^k0) (log times p^k0), k0 the smallest positive member of K
        (see _frobenius_powers; K is a subgroup of Z_E), joins them to
        generate G' = {x -> u x^(p^k) + f : k in K}.  The orbits are the
        components of these permutations of the pool (looked up through one
        argsort of its logs), |G| times a divisor of |K| elements, not always
        free: pool-index arrays, ordered by their smallest member, which
        comes first.  A base that is no subfield has single-witness orbits.

        A generator image outside the pool or hit twice, and a G-orbit not
        of |G| elements, raise InvariantError.
        """
        t, n = self.table, len(logs)
        label = np.arange(n)
        r = self._subfield_within(base)
        if n == 0 or r is None or t.p**r != len(base):
            return list(label[:, None])
        by_log = np.argsort(logs)

        def permutation(name: str, images: np.ndarray) -> np.ndarray:
            at = by_log[np.searchsorted(logs, images, sorter=by_log).clip(max=n - 1)]
            at[logs[at] != images] = n  # outside the pool
            bad = (at == n) | (np.bincount(at)[at] > 1)
            if bad.any():
                raise InvariantError(f"{name} over F_{{{t.p}^{r}}} does not permute the witness pool "
                                     f"at witness {t.exp[logs[np.argmax(bad)]]}: corrupt tables")
            return at

        step = t.subfield_step(r)
        period = math.lcm(step, self.d)
        gens = [permutation(f"x -> g^{period} x", (logs + period) % t.qm1)]
        for f in range(0, step * r, step):  # log theta^i = i step
            z = t.zech[(f - logs) % t.qm1]
            gens.append(permutation(f"x -> x + g^{f}", np.where(z < 0, -1, (logs + z) % t.qm1)))
        label = _min_labels(gens, label)
        size = t.p**r * t.qm1 // period
        wrong = np.bincount(label)[label] != size
        if wrong.any():
            w = t.exp[logs[np.argmax(wrong)]]
            raise InvariantError(f"the orbit of witness {w} under x -> ux + f over F_{{{t.p}^{r}}} "
                                 f"does not have |G| = {size} elements: corrupt tables")
        for k in self._frobenius_powers()[1:2]:
            images = logs * pow(t.p, k, t.qm1) % t.qm1
            label = _min_labels([permutation(f"x -> x^({t.p}^{k})", images)], label)
        order = np.argsort(label, kind="stable")
        return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)

    @staticmethod
    def _orbit_clique_size(adjacency: np.ndarray, orbits: list[np.ndarray], lower: int) -> int:
        """Clique number of the pool, given a clique of `lower` vertices.

        The orbits are those of a group of graph automorphisms that maps
        the pool onto itself; only that invariance is used, not freeness.
        A maximum clique C meets a first orbit O_i; a group element moves
        C onto a clique through O_i's smallest member w_i, and since it
        maps each orbit onto itself the image still avoids O_1, ...,
        O_{i-1}.  So the answer is the largest 1 + omega of N(w_i) minus
        the earlier orbits, and each subproblem only has to beat the best
        size so far.

        That holds for any order of the orbits; they are taken largest
        first (a stable sort, so ties keep their given order), which takes
        the most vertices out of every later subproblem.
        """
        best = lower
        free = np.ones(len(adjacency), dtype=bool)  # outside finished orbits
        for orbit in sorted(orbits, key=len, reverse=True):
            if np.count_nonzero(free) <= best:
                break
            sub = np.flatnonzero(adjacency[orbit[0]] & free)
            if sub.size >= best:
                found = maximum_clique(adjacency[np.ix_(sub, sub)], bound=best - 1)
                if found:
                    best = 1 + found.bit_count()
            free[orbit] = False
        return best

    def _induced_adjacency(self, logs: np.ndarray) -> np.ndarray:
        """Boolean adjacency matrix of the subgraph induced on distinct vertices.

        Vertices come as logs, a leading -1 being 0 (the 0 rule).  The pair
        kernel fills row blocks of about _PAIR_BLOCK pairs, so the index
        temporaries stay small; the diagonal is False as u - u = 0 is not in S.
        """
        n = len(logs)
        zero = int(n > 0 and logs[0] < 0)
        rows = np.zeros((n, n), dtype=bool)
        step = _rows_per_block(n)
        for lo in range(zero, n, step):
            rows[lo : lo + step, zero:] = self._pair_adjacency(logs[lo : lo + step], logs[zero:])
        if zero:
            rows[0, 1:] = rows[1:, 0] = self._in_s(logs[1:])
        return rows

    def _pair_adjacency(self, lu: np.ndarray, lv: np.ndarray) -> np.ndarray:
        """Matrix of u - v in S for units u (rows) and v (columns), given by logs.

        The one adjacency kernel: -v = g^(log v + (q-1)/2), so
        u - v = g^(log u) (1 + g^(log v + (q-1)/2 - log u)) = g^(log u + z)
        with z = zech[(log v + (q-1)/2 - log u) mod (q-1)], and the pair is
        adjacent when z >= 0 (z = -1 is u = v) and (log u + z) mod d lies in
        J: one zech read per pair, no other table.  0 has no log; callers
        apply the 0 rule, 0 ~ v iff v in S (0 - v = -v and S = -S).
        """
        t, d = self.table, self.d
        lu = lu[:, None]
        # Both terms lie in [0, q-1), so one conditional subtraction reduces.
        at = lv + (t.qm1 // 2 - lu) % t.qm1
        at -= t.qm1 * (at >= t.qm1)
        z = t.zech[at]
        cls = lu % d + z
        cls -= cls // d * d  # numpy divides by a scalar faster than it takes `%`
        return (z >= 0) & self._j_lut[cls]

    def clique_number(self, *, cap: int = 4096) -> int:
        """Exact clique number; vertex-transitivity roots the search at 0, so it runs on S's exponents."""
        if self.table.q > cap:
            raise CapExceeded(f"clique_number on q={self.table.q} exceeds cap {cap}")
        return 1 + maximum_clique(self._induced_adjacency(self._s_logs(self.table.qm1))).bit_count()

    # ------------------------------------------------------------ subfields

    def subfield_is_clique(self, r: int) -> bool:
        """Is the subfield F_{p^r} a clique?

        Closed form, O(d): the units of F_{p^r} are g^(k * step) with
        step = (q-1)/(p^r-1), and d divides step * (p^r-1), so their classes
        mod d are exactly the multiples of h = gcd(step, d).  Differences of
        subfield elements are subfield elements, so F_{p^r} is a clique iff
        every multiple of h lies in J.  No field element is built.

        For a proper subfield (r < e) a cross-check guards the tables: the
        log classes of its p^r - 1 <= sqrt(q) units must agree with the
        closed form.  Disagreement raises InvariantError.
        """
        step = self.table.subfield_step(r)
        closed = bool(self._j_lut[:: math.gcd(step, self.d)].all())
        if r < self.table.e:
            codes = self.table.exp[::step]
            by_scan = bool(((codes != 0) & self._in_s(self.table.log[codes])).all())
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
    return CayleyGraph(table, kind)


_PAIR_BLOCK = 1 << 14  # pairs per row block of the pair kernel


def _rows_per_block(n: int) -> int:
    """Rows of an n-column pair-kernel block holding about _PAIR_BLOCK pairs."""
    return max(1, _PAIR_BLOCK // max(n, 1))


def _min_labels(perms: list[np.ndarray], label: np.ndarray) -> np.ndarray:
    """Smallest index joined to each i by the permutations; label[i] <= i starts joined to i."""
    while True:
        before, label = label, label.copy()
        for at in perms:  # labels flow both ways, then one pointer jump
            np.minimum(label, label[at], out=label)
            label[at] = np.minimum(label[at], label)
        label = label[label]
        if np.array_equal(label, before):
            return label


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _degeneracy_order(adjacency: np.ndarray) -> list[int]:
    """Vertices in repeated-minimum-degree removal order; ties go to the lowest label."""
    n = len(adjacency)
    degs = adjacency.sum(axis=1, dtype=np.int64)
    order = []
    for _ in range(n):
        v = int(np.argmin(degs))
        order.append(v)
        degs -= adjacency[v]
        # Above any live degree (< n) even after the <= n - 1 decrements to come.
        degs[v] = 2 * n + 1
    return order


def maximum_clique(adjacency: np.ndarray, bound: int = 0, stop_at: int | None = None) -> int:
    """Maximum clique of a graph, as a bitmask of its vertex indices.

    adjacency is the boolean adjacency matrix (irreflexive, symmetric).
    Vertices are relabeled in degeneracy order first, which keeps the
    colorings tight, and the relabeled rows become neighbor bitmasks:
    those bitmasks exist only inside the search.  Branch and bound in the
    Bron-Kerbosch family, with the pivot rule strengthened to a greedy
    coloring: candidates expand in color order and a branch is cut when R
    plus its color bound cannot beat the incumbent.

    Three further bounds only prune: each skips work that provably holds
    no clique above the incumbent, so the search visits a subset of the
    nodes of the plain color-bound search, in the same order, and
    returns the same mask.  Color classes numbered at most kmin =
    best - |R| are colored but never listed, since no later gain of the
    incumbent can let them pass the cut (the "kmin" of San Segundo's
    bitset BBMC, 2011); the coloring stops, and the node returns, once
    the uncolored candidates could not reach a class above kmin.  A branch
    on v at the boundary color (|R| + color = best + 1) needs a clique
    with one vertex in each lower class; it is skipped when N(v) fits into
    one class fewer (the Re-NUMBER test of Tomita et al.'s MCS, J. Global
    Optim. 2010; see _fits_fewer_classes).

    bound is a clique size known to be reachable: only larger cliques are
    sought, and 0 comes back when there is none.  The incumbent changes
    only on strict gains, so the answer is the first clique of the
    maximum size the search meets.  With stop_at the search ends at the
    first clique of at least that size.
    """
    n = len(adjacency)
    if n == 0:
        return 0
    order = _degeneracy_order(adjacency)
    order.reverse()  # densest core gets the low labels
    relabeled = _row_masks(adjacency[np.ix_(order, order)])
    # Coloring v closes it and its neighbors to the open class: one AND.
    closed = [~(nb | 1 << v) for v, nb in enumerate(relabeled)]

    best_mask = 0
    best_size = bound

    def expand(r_mask: int, r_size: int, p_mask: int) -> None:
        nonlocal best_mask, best_size
        # Greedy coloring of the candidates; color = clique-size upper bound.
        # best_size only grows, so a vertex colored <= kmin fails the bound
        # check below whenever it is reached: those classes are colored but
        # not listed.
        kmin = best_size - r_size
        order_v: list[int] = []
        bound_v: list[int] = []
        classes: list[int] = []  # classes[c - 1]: the vertices colored c
        rem = p_mask
        while rem:
            color = len(classes) + 1
            avail, before = rem, rem
            if color <= kmin:
                if rem.bit_count() <= kmin - color + 1:
                    return  # every class left would be numbered <= kmin
                while avail:
                    low = avail & -avail
                    avail &= closed[low.bit_length() - 1]
                    rem ^= low
            else:
                while avail:
                    low = avail & -avail
                    v = low.bit_length() - 1
                    order_v.append(v)
                    bound_v.append(color)
                    avail &= closed[v]
                    rem ^= low
            classes.append(before ^ rem)
        for i in range(len(order_v) - 1, -1, -1):
            color = bound_v[i]
            if r_size + color <= best_size:
                return
            v = order_v[i]
            vbit = 1 << v
            new_p = p_mask & relabeled[v]
            if new_p:
                if (r_size + color > best_size + 1
                        or not _fits_fewer_classes(new_p, classes[: color - 1], relabeled)):
                    expand(r_mask | vbit, r_size + 1, new_p)
            elif r_size + 1 > best_size:
                best_mask, best_size = r_mask | vbit, r_size + 1
                if stop_at is not None and best_size >= stop_at:
                    # No branch can beat n vertices: every open frame
                    # returns at its next bound check.
                    best_size = n
            p_mask ^= vbit

    expand(0, 0, (1 << n) - 1)
    return sum(1 << order[i] for i in _bits(best_mask))  # back to the input labels


def _fits_fewer_classes(cand: int, classes: list[int], neighbors: list[int]) -> bool:
    """Can cand, which lies inside the union of the color classes, be
    colored with one class fewer?

    Yes when cand misses a class, or meets some class i in one vertex u
    that has no neighbor in cand inside some other class j: u then joins
    class j and class i is empty (Re-NUMBER).  A clique in cand has at
    most one vertex per class, so it is then smaller than len(classes).
    """
    hits = [cls & cand for cls in classes]
    for i, hit in enumerate(hits):
        if hit & (hit - 1):
            continue  # two or more vertices of class i
        if not hit:
            return True
        adjacent = cand & neighbors[hit.bit_length() - 1]
        if any(not other & adjacent for j, other in enumerate(hits) if j != i):
            return True
    return False


def _row_masks(adjacency: np.ndarray) -> list[int]:
    """Rows of a boolean adjacency matrix as neighbor bitmasks."""
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]
