"""Hypothesis checking, single-case verdicts, conjecture instances, sweeps.

A case is (p, s, n, d, kind): the graph lives on GF(p^(s n)) and the base
subfield is F_{p^s}.  verify_case decides whether that subfield is a
maximal subfield clique and, if so, whether it is maximal as a clique at
all; the verdict cross-references which sufficient condition (if any)
promised maximality:

  theorem1         Paley kind, q > (n-1)^2
  theorem2         Peisert kind, q > (n-1)^2 d^4 / (pi^2 (d-1)^2)
  proposition      0 in J and q > (n-1)^2 / eps*^2 for the class set's eps*
  below_threshold  no sufficient condition applies

A maximal subfield clique that is not a maximal clique is then either a
legitimate small-field counterexample (below threshold) or a VIOLATION,
which would falsify the implementation rather than the mathematics.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .cayley import GraphKind, make_graph
from .charsum import _segment_closest, epsilon_star, unit_root
from .ff import (DEFAULT_CAP, MAX_FIELD, FieldTable, build_field, divisors, factorize,
                 is_prime, primerange, refuse_huge_power)


class NoQualifyingR(ValueError):
    """No subfield degree r with d | (q-1)/(p^r-1); the conjecture is silent."""


@dataclass(frozen=True)
class CaseParams:
    """One verification instance: base field F_{p^s}, extension degree n,
    residue order d, graph kind on GF(p^(s n))."""

    p: int
    s: int
    n: int
    d: int
    kind: GraphKind

    @property
    def q(self) -> int:
        return self.p**self.s

    @property
    def order(self) -> int:
        return self.q**self.n

    def sort_key(self) -> tuple:
        return (self.p, self.s, self.n, self.d, self.kind.name)

    def to_json(self) -> dict:
        return {"p": self.p, "s": self.s, "n": self.n, "d": self.d, "kind": self.kind.name}


def make_case(p: int, s: int, n: int, d: int, kind_name: str) -> CaseParams:
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p == 2:
        raise ValueError("p must be an odd prime")
    if s < 1:
        raise ValueError(f"s={s} must be >= 1")
    if n < 2:
        raise ValueError(f"n={n} must be >= 2: the subfield must be proper")
    if d < 2:
        raise ValueError(f"d={d} must be > 1")
    kind = GraphKind.from_name(kind_name, d)
    refuse_huge_power(p, s * n)
    q = p**s
    if (q**n - 1) % (2 * d) != 0:
        raise ValueError(f"q^n = {q**n} is not 1 mod 2d = {2 * d}")
    return CaseParams(p, s, n, d, kind)


@dataclass(frozen=True)
class HypothesisRegime:
    """Which sufficient condition applies, and the q-threshold it imposes.

    threshold is the most lenient applicable bound (so for below_threshold
    it is the bound q failed to clear); epsilon is the class set's
    epsilon_star when the proposition route was evaluated.
    """

    name: str  # theorem1 | theorem2 | proposition | below_threshold
    threshold: float | None
    epsilon: float | None = None


def check_hypotheses(case: CaseParams) -> HypothesisRegime:
    q, n, d = case.q, case.n, case.d
    if case.kind.name == "paley":
        thr = float((n - 1) ** 2)
        if q > thr:
            return HypothesisRegime("theorem1", thr)
    if case.kind.name == "peisert":
        thr = (n - 1) ** 2 * d**4 / (math.pi**2 * (d - 1) ** 2)
        if q > thr:
            return HypothesisRegime("theorem2", thr)
    # The epsilon route assumes the graph contains the Paley graph GP(q^n, d),
    # i.e. class 0 is part of the connection set.
    if 0 in case.kind.j:
        if case.kind.name == "peisert":
            # epsilon_star(d, J) in O(1): the half-circle set's largest gap
            # runs from class d/2 - 1 back to 0.
            eps = _segment_closest(unit_root(d, d // 2 - 1), unit_root(d, 0))[0]
        else:
            eps = epsilon_star(d, case.kind.j).epsilon_star
        if eps > 0.0:
            thr = (n - 1) ** 2 / eps**2
            name = "proposition" if q > thr else "below_threshold"
            return HypothesisRegime(name, thr, eps)
        return HypothesisRegime("below_threshold", None, eps)
    return HypothesisRegime("below_threshold", None)


@dataclass(frozen=True)
class TheoremReport:
    case: CaseParams
    regime: HypothesisRegime
    subfield_clique: bool
    maximal_subfield_clique: bool
    maximal_clique: bool | None  # None when the maximality scan is vacuous
    witnesses: tuple[int, ...]
    extended_clique_size: int | None
    extension_method: str | None
    verdict: str  # consistent | VIOLATION | counterexample_below_threshold | vacuous

    def to_json(self) -> dict:
        return {
            "case": self.case.to_json(),
            "hypothesis_regime": self.regime.name,
            "regime_threshold": self.regime.threshold,
            "regime_epsilon": self.regime.epsilon,
            "subfield_clique": self.subfield_clique,
            "maximal_subfield_clique": self.maximal_subfield_clique,
            "maximal_clique": self.maximal_clique,
            "witnesses": list(self.witnesses),
            "extended_clique_size": self.extended_clique_size,
            "extension_method": self.extension_method,
            "verdict": self.verdict,
        }


THEOREM_REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "case",
        "hypothesis_regime",
        "subfield_clique",
        "maximal_subfield_clique",
        "maximal_clique",
        "witnesses",
        "extended_clique_size",
        "verdict",
    ],
    "properties": {
        "case": {
            "type": "object",
            "required": ["p", "s", "n", "d", "kind"],
            "properties": {
                "p": {"type": "integer"},
                "s": {"type": "integer"},
                "n": {"type": "integer"},
                "d": {"type": "integer"},
                "kind": {"type": "string"},
            },
        },
        "hypothesis_regime": {
            "type": "string",
            "enum": ["theorem1", "theorem2", "proposition", "below_threshold"],
        },
        "regime_threshold": {"type": ["number", "null"]},
        "regime_epsilon": {"type": ["number", "null"]},
        "subfield_clique": {"type": "boolean"},
        "maximal_subfield_clique": {"type": "boolean"},
        "maximal_clique": {"type": ["boolean", "null"]},
        "witnesses": {"type": "array", "items": {"type": "integer"}},
        "extended_clique_size": {"type": ["integer", "null"]},
        "extension_method": {"type": ["string", "null"]},
        "verdict": {
            "type": "string",
            "enum": ["consistent", "VIOLATION", "counterexample_below_threshold", "vacuous"],
        },
    },
    "additionalProperties": False,
}


def _verdict(regime: HypothesisRegime, maximal_subfield: bool, maximal: bool | None) -> str:
    if not maximal_subfield:
        return "vacuous"
    if maximal:
        return "consistent"
    return "counterexample_below_threshold" if regime.name == "below_threshold" else "VIOLATION"


def verify_case(
    case: CaseParams,
    *,
    cap: int = DEFAULT_CAP,
    exact_budget: int = 2000,
    table: FieldTable | None = None,
) -> TheoremReport:
    """Full pipeline for one case: build, classify, scan, extend, judge."""
    if exact_budget < 0:
        raise ValueError(f"exact budget must be >= 0, got {exact_budget}")
    E = case.s * case.n
    if table is None:
        table = build_field(case.p, E, cap=cap)
    elif (table.p, table.e) != (case.p, E):
        raise ValueError(f"supplied table is GF({table.p}^{table.e}), case needs GF({case.p}^{E})")
    graph = make_graph(table, case.kind)
    regime = check_hypotheses(case)

    subfield_clique = graph.subfield_is_clique(case.s)
    maximal_subfield = graph.is_maximal_subfield_clique(case.s) if subfield_clique else False

    maximal: bool | None = None
    witnesses: tuple[int, ...] = ()
    ext_size: int | None = None
    ext_method: str | None = None
    if maximal_subfield:
        subfield = table.subfield_elements(case.s)
        maximal, wits = graph.is_maximal_clique(subfield)
        witnesses = tuple(wits)
        if not maximal:
            ext = graph._extend(subfield, wits, exact_budget)
            ext_size = len(ext.clique)
            ext_method = ext.method

    return TheoremReport(
        case,
        regime,
        subfield_clique,
        maximal_subfield,
        maximal,
        witnesses,
        ext_size,
        ext_method,
        _verdict(regime, maximal_subfield, maximal),
    )


# --------------------------------------------------------------------------
# conjecture instances

def _prime_power(q: int) -> tuple[int, int]:
    factors = factorize(q)
    if not factors or any(f != factors[0] for f in factors):
        raise ValueError(f"q={q} is not a prime power")
    return factors[0], len(factors)


def conjecture_r(q: int, d: int) -> int | None:
    """Largest r dividing s (q = p^s) with d | (q-1)/(p^r-1), or None.

    The predicted maximal clique of GP(q, d) is then the subfield F_{p^r}.
    """
    if d < 2:
        raise ValueError(f"d={d} must be > 1")
    p, s = _prime_power(q)
    if (q - 1) % (2 * d) != 0:
        raise ValueError(f"q = {q} is not 1 mod 2d = {2 * d}")
    for r in range(s, 0, -1):
        if s % r == 0 and ((q - 1) // (p**r - 1)) % d == 0:
            return r
    return None


def verify_conjecture_case(q: int, d: int, *, cap: int = DEFAULT_CAP) -> TheoremReport:
    """Check the predicted subfield F_{p^r} against the actual scan in GP(q, d).

    This is exactly a Paley case with base degree r and extension s/r.
    """
    r = conjecture_r(q, d)
    p, s = _prime_power(q)
    if r is None:
        raise NoQualifyingR(f"no r dividing {s} has d={d} | (q-1)/(p^r-1) for q={q}")
    return verify_case(make_case(p, r, s // r, d, "paley"), cap=cap)


# --------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepConfig:
    """Enumeration bounds: all cases with q^n <= max_order, n in
    [n_min, n_max], optional caps on d and on the base size q."""

    max_order: int
    n_min: int = 2
    n_max: int = 6
    d_max: int | None = None
    max_base: int | None = None
    kinds: tuple[str, ...] = ("paley", "peisert")
    cap: int = DEFAULT_CAP
    exact_budget: int = 2000

    def __post_init__(self):
        if self.n_min < 2:
            raise ValueError("n_min must be >= 2")
        if self.n_max < self.n_min:
            raise ValueError("n_max must be >= n_min")
        if self.max_order < 0:
            raise ValueError(f"max_order must be >= 0, got {self.max_order}")
        if self.max_order >= MAX_FIELD:
            raise ValueError(f"max_order {self.max_order} is not below the table limit 2^31")
        if self.max_order > self.cap:
            raise ValueError(f"max_order {self.max_order} exceeds the field cap {self.cap}")
        if self.exact_budget < 0:
            raise ValueError(f"exact budget must be >= 0, got {self.exact_budget}")
        for k in self.kinds:
            if k not in ("paley", "peisert"):
                raise ValueError(f"unknown kind {k!r}")


def _field_groups(config: SweepConfig) -> Iterator[tuple[int, int, list[CaseParams]]]:
    """(p, E, cases) for each field GF(p^E) that carries a case, by (p, E).

    The cases of GF(p^E) are the (p, s, n, d, kind) with s n = E; d runs
    over the divisors of (p^E - 1)/2, computed once per field.
    """
    for p in primerange(3, math.isqrt(config.max_order) + 1):
        E = config.n_min
        while (order := p**E) <= config.max_order:
            bases = [s for s in range(1, E // config.n_min + 1)
                     if E % s == 0 and E // s <= config.n_max
                     and (config.max_base is None or p**s <= config.max_base)]
            ds = [d for d in (divisors((order - 1) // 2) if bases else ())
                  if d >= 2 and (config.d_max is None or d <= config.d_max)]
            cases = [make_case(p, s, E // s, d, kind_name)
                     for s in bases for d in ds for kind_name in config.kinds
                     if kind_name == "paley" or (d % 2 == 0 and d >= 4)]
            if cases:
                yield p, E, cases
            E += 1


def enumerate_cases(config: SweepConfig) -> list[CaseParams]:
    """All admissible cases under the config, sorted by (p, s, n, d, kind)."""
    cases = [case for _, _, group in _field_groups(config) for case in group]
    return sorted(cases, key=CaseParams.sort_key)


def _verify_field(p: int, E: int, cases: list[CaseParams],
                  config: SweepConfig) -> list[TheoremReport]:
    """One field's cases on one table, which is released on return."""
    table = build_field(p, E, cap=config.cap)
    return [verify_case(c, exact_budget=config.exact_budget, table=table) for c in cases]


def sweep(config: SweepConfig) -> list[TheoremReport]:
    """Run every enumerated case, one field table at a time; output is sorted
    and run-to-run identical."""
    reports = [report for p, E, cases in _field_groups(config)
               for report in _verify_field(p, E, cases, config)]
    return sorted(reports, key=lambda r: r.case.sort_key())


def find_counterexamples(config: SweepConfig) -> list[TheoremReport]:
    """Sweep, keeping the cases with a maximal subfield clique that is not
    a maximal clique.  Any of these outside the below-threshold regime
    carries the VIOLATION verdict and means a bug, not a discovery."""
    return [
        r
        for r in sweep(config)
        if r.maximal_subfield_clique and r.maximal_clique is False
    ]


# --------------------------------------------------------------------------
# serialization

def report_lines(reports: list[TheoremReport]) -> str:
    """JSON-lines, one report per line, byte-stable across runs."""
    return "".join(
        json.dumps(r.to_json(), sort_keys=True, separators=(",", ":")) + "\n" for r in reports
    )


SUMMARY_FIELDS = ("p", "s", "n", "d", "kind", "verdict", "extended_size")


def summary_csv(reports: list[TheoremReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SUMMARY_FIELDS)
    for r in reports:
        writer.writerow(
            [
                r.case.p,
                r.case.s,
                r.case.n,
                r.case.d,
                r.case.kind.name,
                r.verdict,
                "" if r.extended_clique_size is None else r.extended_clique_size,
            ]
        )
    return buf.getvalue()
