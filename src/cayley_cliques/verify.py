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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import sympy

from .cayley import CayleyGraph, ExactBudgetExceeded, GraphKind, make_graph
from .charsum import _segment_closest, epsilon_star, unit_root
from .ff import DEFAULT_CAP, FieldTable, build_field, factorize


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
    if not sympy.isprime(p):
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
            # The half-circle hull is closest to the origin on its closing chord.
            eps = _segment_closest(unit_root(d, d // 2 - 1), unit_root(d, 0))[0]
        else:
            eps = epsilon_star([unit_root(d, j) for j in sorted(case.kind.j)]).epsilon_star
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
            try:
                ext = graph.extend_to_maximal_clique(subfield, "exact", exact_budget)
            except ExactBudgetExceeded:
                ext = graph.extend_to_maximal_clique(subfield, "greedy")
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
    p, s = _prime_power(q)
    r = conjecture_r(q, d)
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
    workers: int = 1
    cap: int = DEFAULT_CAP
    exact_budget: int = 2000

    def __post_init__(self):
        if self.n_min < 2:
            raise ValueError("n_min must be >= 2")
        if self.n_max < self.n_min:
            raise ValueError("n_max must be >= n_min")
        if self.max_order > self.cap:
            raise ValueError(f"max_order {self.max_order} exceeds the field cap {self.cap}")
        for k in self.kinds:
            if k not in ("paley", "peisert"):
                raise ValueError(f"unknown kind {k!r}")


def enumerate_cases(config: SweepConfig) -> list[CaseParams]:
    """All admissible cases under the config, sorted by (p, s, n, d, kind)."""
    cases: list[CaseParams] = []
    q_limit = int(math.isqrt(config.max_order))
    for p in sympy.primerange(3, q_limit + 1):
        s = 1
        while (q := p**s) <= q_limit:
            if config.max_base is not None and q > config.max_base:
                break
            for n in range(config.n_min, config.n_max + 1):
                order = q**n
                if order > config.max_order:
                    break
                half = (order - 1) // 2
                for d in sympy.divisors(half):
                    if d < 2 or (config.d_max is not None and d > config.d_max):
                        continue
                    for kind_name in config.kinds:
                        if kind_name == "peisert" and (d % 2 != 0 or d < 4):
                            continue
                        cases.append(make_case(p, s, n, d, kind_name))
            s += 1
    cases.sort(key=CaseParams.sort_key)
    return cases


def _field_groups(cases: list[CaseParams]) -> list[tuple[tuple[int, int], list[CaseParams]]]:
    groups: dict[tuple[int, int], list[CaseParams]] = {}
    for case in cases:
        groups.setdefault((case.p, case.s * case.n), []).append(case)
    return sorted(groups.items())


def _run_group(args: tuple[tuple[int, int], list[CaseParams], int, int]) -> list[TheoremReport]:
    (p, E), group, cap, exact_budget = args
    table = build_field(p, E, cap=cap)
    return [verify_case(c, cap=cap, exact_budget=exact_budget, table=table) for c in group]


def sweep(config: SweepConfig) -> list[TheoremReport]:
    """Run every enumerated case; output is sorted and run-to-run identical."""
    cases = enumerate_cases(config)
    groups = _field_groups(cases)
    payload = [(key, group, config.cap, config.exact_budget) for key, group in groups]
    if config.workers > 1 and len(groups) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunks = list(pool.map(_run_group, payload))
    else:
        chunks = [_run_group(item) for item in payload]
    reports = [report for chunk in chunks for report in chunk]
    reports.sort(key=lambda r: r.case.sort_key())
    return reports


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
