"""Multiplicative characters, exact root-of-unity sums, and the geometry
of lower-bounded sets.

A character of order d on GF(q)* (d | q-1) sends exp[k] to zeta_d^(k mod d).
Sums over field elements are accumulated exactly as integer counts per
root-of-unity class; floating point enters only when a magnitude is needed,
and then through compensated summation, so 1e-9 tolerances are meaningful.
Equal counts give equal magnitudes, so the Katz scan computes one magnitude
per distinct class-count vector, and it finds its theta from log residues
(theta lies in a subfield exactly when its log is a multiple of that
subfield's step) instead of testing each element's degree.

The epsilon_star computation is plane geometry: the optimal constant for
which every multiset sum from a set M of unit vectors has modulus >= eps
times its size equals the distance from the origin to the convex hull of M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .ff import Element, FieldTable, NotADivisor


class ZeroArgument(ValueError):
    """Character evaluated at 0, which is outside its domain."""


class ZeroEncountered(ValueError):
    """A sum term theta + a hit 0, where the character is undefined."""


class TrivialCharacter(ValueError):
    """Order-1 character where a nontrivial one is required."""


class NoValidTheta(ValueError):
    """No element generates the required extension (r = E leaves none)."""


class OddD(ValueError):
    """Odd d where the half-circle construction needs an even one."""


class Character:
    """Multiplicative character of order exactly d on the field's units."""

    def __init__(self, table: FieldTable, d: int):
        if d < 1 or table.qm1 % d != 0:
            raise NotADivisor(f"character order d={d} must divide q-1={table.qm1}")
        self.table = table
        self.d = d

    @property
    def is_trivial(self) -> bool:
        return self.d == 1

    def chi_class(self, x: Element) -> int:
        """k with chi(x) = zeta_d^k; hard error at 0."""
        if x == 0:
            raise ZeroArgument("character undefined at 0")
        return self.table.log_view[x] % self.d

    def value(self, x: Element) -> complex:
        return unit_root(self.d, self.chi_class(x))

    def __repr__(self) -> str:
        return f"Character(GF({self.table.p}^{self.table.e}), d={self.d})"


def unit_root(d: int, j: int) -> complex:
    angle = 2.0 * math.pi * (j % d) / d
    return complex(math.cos(angle), math.sin(angle))


@lru_cache(maxsize=1)
def _unit_circle(d: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """cos and sin of 2.0 * pi * j / d for j < d.  Every magnitude of a
    Katz scan has the same d, so one table is kept."""
    angles = [2.0 * math.pi * j / d for j in range(d)]
    return tuple(map(math.cos, angles)), tuple(map(math.sin, angles))


@dataclass
class RootOfUnitySum:
    """Exact sum of d-th roots of unity, kept as integer class counts."""

    d: int
    counts: list[int]

    @staticmethod
    def zero(d: int) -> "RootOfUnitySum":
        return RootOfUnitySum(d, [0] * d)

    def add_class(self, j: int, mult: int = 1) -> None:
        self.counts[j % self.d] += mult

    @property
    def total(self) -> int:
        return sum(self.counts)

    def value(self) -> complex:
        cos, sin = _unit_circle(self.d)
        re = math.fsum(c * cos[j] for j, c in enumerate(self.counts) if c)
        im = math.fsum(c * sin[j] for j, c in enumerate(self.counts) if c)
        return complex(re, im)

    def magnitude(self) -> float:
        return abs(self.value())


def line_sum(chi: Character, theta: Element, base_elements) -> RootOfUnitySum:
    """Sum of chi(theta + a) over a in base_elements, exactly.

    theta must avoid -base_elements; a zero term raises ZeroEncountered.
    """
    table, d = chi.table, chi.d
    add, log = table.add, table.log_view
    acc = RootOfUnitySum.zero(d)
    counts = acc.counts
    for a in base_elements:
        x = add(theta, a)
        if x == 0:
            raise ZeroEncountered(f"theta={theta} plus a={a} is 0")
        counts[log[x] % d] += 1
    return acc


@dataclass(frozen=True)
class KatzReport:
    """Worst ratio of |sum_a chi(theta+a)| to the bound (n-1) sqrt(q)."""

    p: int
    E: int
    r: int
    d: int
    n: int
    bound: float
    max_ratio: float
    worst_theta: Element
    theta_count: int

    @property
    def bound_satisfied(self) -> bool:
        return self.max_ratio <= 1.0 + 1e-9

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "E": self.E,
            "r": self.r,
            "d": self.d,
            "max_ratio": self.max_ratio,
            "worst_theta": self.worst_theta,
            "bound": self.bound,
        }


KATZ_REPORT_SCHEMA = {
    "type": "object",
    "required": ["p", "E", "r", "d", "max_ratio", "worst_theta", "bound"],
    "properties": {
        "p": {"type": "integer"},
        "E": {"type": "integer"},
        "r": {"type": "integer"},
        "d": {"type": "integer"},
        "max_ratio": {"type": "number"},
        "worst_theta": {"type": "integer"},
        "bound": {"type": "number"},
    },
    "additionalProperties": False,
}


def katz_bound_check(table: FieldTable, r: int, d: int) -> KatzReport:
    """Scan |sum_{a in F_{p^r}} chi(theta + a)| <= (n-1) sqrt(p^r) over all
    theta with F_{p^r}(theta) the whole field, chi of order d.

    The ratio to the bound should never exceed 1 (up to 1e-9 float fuzz);
    a larger value means corrupt tables, not new mathematics.

    The valid theta come from their log residues
    (FieldTable.full_degree_elements), in ascending order.  The magnitude, a
    function of the class counts alone, is computed once per distinct count
    vector, so max_ratio and worst_theta are those of a per-theta evaluation.
    """
    if d == 1:
        raise TrivialCharacter("the Katz bound needs a nontrivial character")
    if r < 1 or table.e % r != 0:
        raise NotADivisor(f"r={r} does not divide E={table.e}")
    if r == table.e:
        raise NoValidTheta("r = E leaves no proper extension to draw theta from")
    chi = Character(table, d)
    base = table.subfield_elements(r)
    n = table.e // r
    bound = (n - 1) * math.sqrt(table.p**r)
    thetas = table.full_degree_elements(r).tolist()
    if not thetas:
        raise NoValidTheta(f"no element generates degree {n} over F_{table.p}^{r}")
    ratios: dict[tuple[int, ...], float] = {}
    max_ratio = -1.0
    worst_theta = -1
    for theta in thetas:
        acc = line_sum(chi, theta, base)
        key = tuple(acc.counts)
        ratio = ratios.get(key)
        if ratio is None:
            ratio = ratios[key] = acc.magnitude() / bound
        if ratio > max_ratio:
            max_ratio, worst_theta = ratio, theta
    return KatzReport(table.p, table.e, r, d, n, bound, max_ratio, worst_theta, len(thetas))


# --------------------------------------------------------------------------
# epsilon-lower-bounded sets

@dataclass(frozen=True)
class EpsilonResult:
    """Distance from the origin to the convex hull of the input points,
    with hull weights witnessing it: |sum w_i x_i| = epsilon_star."""

    epsilon_star: float
    weights: tuple[float, ...]


EPSILON_SCHEMA = {
    "type": "object",
    "required": ["d", "J", "epsilon_star", "weights"],
    "properties": {
        "d": {"type": "integer"},
        "J": {"type": "array", "items": {"type": "integer"}},
        "epsilon_star": {"type": "number"},
        "weights": {"type": "array", "items": {"type": "number"}},
        "paper_bound": {"type": "number"},
        "analytic": {"type": "number"},
    },
    "additionalProperties": False,
}


def _cross(a: complex, b: complex) -> float:
    return a.real * b.imag - a.imag * b.real


def _segment_closest(a: complex, b: complex) -> tuple[float, float]:
    """(distance to origin, parameter t of the closest point on [a, b])."""
    ab = b - a
    denom = abs(ab) ** 2
    t = 0.0 if denom == 0.0 else min(1.0, max(0.0, -(a.real * ab.real + a.imag * ab.imag) / denom))
    return abs(a + t * ab), t


def epsilon_star(points) -> EpsilonResult:
    """Optimal lower-bound constant of a set of unit-modulus points.

    Every size-k multiset sum from the set has modulus >= epsilon_star * k,
    and some convex combination attains it; that is the distance from the
    origin to the convex hull.  Points on the unit circle are in convex
    position, so the hull is just the angular sort.
    """
    pts = [complex(z) for z in points]
    if not pts:
        raise ValueError("epsilon_star needs at least one point")
    for z in pts:
        if abs(abs(z) - 1.0) > 1e-9:
            raise ValueError(f"point {z} is not unit modulus")

    uniq: list[complex] = []
    where: dict[tuple[float, float], int] = {}
    owner: list[int] = []  # index into pts holding each unique point's weight
    for idx, z in enumerate(pts):
        key = (round(z.real, 12), round(z.imag, 12))
        if key not in where:
            where[key] = len(uniq)
            uniq.append(z)
            owner.append(idx)

    weights = [0.0] * len(pts)
    m = len(uniq)
    if m == 1:
        weights[owner[0]] = 1.0
        return EpsilonResult(abs(uniq[0]), tuple(weights))

    order = sorted(range(m), key=lambda i: math.atan2(uniq[i].imag, uniq[i].real))
    poly = [uniq[i] for i in order]

    strictly_inside = m >= 3 and all(
        _cross(poly[i], poly[(i + 1) % m]) > 1e-12 for i in range(m)
    )
    if strictly_inside:
        wts, idxs = _zero_combination(poly)
        for w, i in zip(wts, idxs):
            weights[owner[order[i]]] = w
        return EpsilonResult(0.0, tuple(weights))

    best = math.inf
    best_edge = (0, 0, 0.0)
    edges = range(m) if m >= 3 else range(1)  # two points: single segment
    for i in edges:
        k = (i + 1) % m
        dist, t = _segment_closest(poly[i], poly[k])
        if dist < best:
            best = dist
            best_edge = (i, k, t)
    i, k, t = best_edge
    weights[owner[order[i]]] += 1.0 - t
    weights[owner[order[k]]] += t
    return EpsilonResult(best, tuple(weights))


def _zero_combination(poly: list[complex]) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Convex weights over <= 3 polygon vertices summing to the origin."""
    m = len(poly)
    for i, k in combinations(range(m), 2):
        if abs(poly[i] + poly[k]) <= 1e-12:
            return (0.5, 0.5), (i, k)
    for i, k, l in combinations(range(m), 3):
        a, b, c = poly[i], poly[k], poly[l]
        det = _cross(a - c, b - c)
        if abs(det) < 1e-12:
            continue
        w1 = _cross(-c, b - c) / det
        w2 = _cross(a - c, -c) / det
        w3 = 1.0 - w1 - w2
        if w1 >= -1e-12 and w2 >= -1e-12 and w3 >= -1e-12:
            w1, w2, w3 = max(w1, 0.0), max(w2, 0.0), max(w3, 0.0)
            s = w1 + w2 + w3
            return (w1 / s, w2 / s, w3 / s), (i, k, l)
    raise RuntimeError("origin inside hull but no witnessing triangle found")  # unreachable


def half_circle_points(d: int) -> list[complex]:
    """The set {zeta_d^j : 0 <= j <= d/2 - 1} (the Peisert connection classes)."""
    if d % 2 != 0:
        raise OddD(f"half-circle set needs even d, got {d}")
    return [unit_root(d, j) for j in range(d // 2)]


@dataclass(frozen=True)
class LemmaBoundReport:
    d: int
    epsilon_star: float
    paper_bound: float  # pi/d - pi/d^2
    analytic: float  # sin(pi/d), the exact chord distance


def verify_lemma_bound(d: int) -> LemmaBoundReport:
    """Check the half-circle set is (pi/d - pi/d^2)-lower bounded.

    The hull's closest edge to the origin is the chord from angle 0 to
    angle pi - 2 pi/d, at distance sin(pi/d); that must dominate the
    pi/d - pi/d^2 estimate.
    """
    if d % 2 != 0:
        raise OddD(f"need even d, got {d}")
    if d < 4:
        raise ValueError(f"need d >= 4, got {d}")
    eps = epsilon_star(half_circle_points(d)).epsilon_star
    paper_bound = math.pi / d - math.pi / d**2
    analytic = math.sin(math.pi / d)
    if not (eps >= paper_bound and abs(eps - analytic) <= 1e-9):
        raise RuntimeError(
            f"half-circle epsilon* {eps} violates bounds (coarse {paper_bound}, chord {analytic})"
        )
    return LemmaBoundReport(d, eps, paper_bound, analytic)
