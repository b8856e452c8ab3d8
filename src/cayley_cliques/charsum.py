"""Multiplicative characters, exact root-of-unity sums, and the geometry
of lower-bounded sets.

A character of order d on GF(q)* (d | q-1) sends exp[k] to zeta_d^(k mod d).
A Character holds only the table and d; line_sum reads the class of each
term off the log table.  Sums over field elements are accumulated exactly
as integer counts per root-of-unity class (RootOfUnitySum); floating point
enters only when a magnitude is needed, and then through compensated
summation, so 1e-9 tolerances are meaningful.
Equal counts give equal magnitudes, so the Katz scan computes one magnitude
per distinct class-count vector, and it finds its theta from log residues
(theta lies in a subfield exactly when its log is a multiple of that
subfield's step) instead of testing each element's degree.

The epsilon_star computation is plane geometry: the optimal constant for
which every multiset sum from M = {zeta_d^j : j in J} has modulus >= eps
times its size equals the distance from the origin to the convex hull of M.
That distance is a function of the largest cyclic gap G between the
classes of J: -cos(pi G / d) when 2G > d, and exactly 0 otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .ff import Element, FieldTable, NotADivisor


class ZeroEncountered(ValueError):
    """A sum term theta + a hit 0, where the character is undefined."""


class TrivialCharacter(ValueError):
    """Order-1 character where a nontrivial one is required."""


class NoValidTheta(ValueError):
    """No element generates the required extension (r = E leaves none)."""


class Character:
    """Multiplicative character of order exactly d on the field's units:
    the table and d, which line_sum and katz_bound_check read."""

    def __init__(self, table: FieldTable, d: int):
        if d < 1 or table.qm1 % d != 0:
            raise NotADivisor(f"character order d={d} must divide q-1={table.qm1}")
        self.table = table
        self.d = d

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
    """Distance from the origin to the convex hull of {zeta_d^j : j in J},
    with weights over sorted J witnessing it: |sum w_j zeta_d^j| =
    epsilon_star.  weights is None when epsilon_star is 0."""

    epsilon_star: float
    weights: tuple[float, ...] | None


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


def _segment_closest(a: complex, b: complex) -> tuple[float, float]:
    """(distance to origin, parameter t of the closest point on [a, b])."""
    ab = b - a
    denom = abs(ab) ** 2
    t = 0.0 if denom == 0.0 else min(1.0, max(0.0, -(a.real * ab.real + a.imag * ab.imag) / denom))
    return abs(a + t * ab), t


def epsilon_star(d: int, j) -> EpsilonResult:
    """Optimal lower-bound constant of the class set J in Z_d.

    Every size-k multiset sum from {zeta_d^j : j in J} has modulus
    >= epsilon_star * k, and some convex combination attains it; that is
    the distance from the origin to the convex hull of those points.  Let
    G be the largest cyclic gap between consecutive classes of J.  When
    2G <= d no open half-plane through the origin holds all the points, so
    the origin lies in the hull and epsilon_star is exactly 0.  Otherwise
    the closest point is on the chord across that gap, at distance
    -cos(pi G / d); the weights sit on the chord's two ends.
    """
    classes = sorted(set(j))
    if not classes:
        raise ValueError("epsilon_star needs a nonempty class set J")
    if classes[0] < 0 or classes[-1] >= d:
        raise ValueError(f"class set J spans {classes[0]}..{classes[-1]}, not inside Z_{d}")
    m = len(classes)
    gaps = [classes[i + 1] - classes[i] for i in range(m - 1)]
    gaps.append(classes[0] + d - classes[-1])
    gap = max(gaps)
    if 2 * gap <= d:
        return EpsilonResult(0.0, None)
    # The chord runs counterclockwise across the gap.  A two-class J runs it
    # from the smaller class, which keeps the weights that `epsilon --d 4`
    # prints in their order.
    i = 0 if m == 2 else gaps.index(gap)
    k = (i + 1) % m
    dist, t = _segment_closest(unit_root(d, classes[i]), unit_root(d, classes[k]))
    weights = [0.0] * m
    weights[i] += 1.0 - t
    weights[k] += t
    return EpsilonResult(dist, tuple(weights))
