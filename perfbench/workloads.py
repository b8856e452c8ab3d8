"""The four benchmark workloads: their operations, how to run them, how to check them.

A workload is a list of *calls* into the package's public entry points
(``cayley_cliques.cli.main``).  One call can yield several *operations*:
a sweep call yields one operation per case verdict, every other call
yields exactly one.  Each operation has a stable key and an output value,
and the client compares {key: value} with the reference recorded from the
seed commit, so the order in which calls are issued never matters.

The inputs are fixed enumerations; the seed only permutes the order in
which the independent calls are issued.

Nothing in this module imports cayley_cliques at import time: the client
uses the checking half without loading the package.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("paley-sweep", "peisert-hunt", "katz-scan", "field-build")

# Paley sweep grid of the below-threshold check (theorem 1 needs q > (n-1)^2):
# every prime power q <= (n-1)^2 for n = 3..5 (n = 2 has none), and n = 6
# cut to q <= 9.  The n = 6 groups q = 11 and q = 13 are left out because
# each alone takes about a minute or more.
PALEY_GRID = ((3, 4), (4, 9), (5, 16), (6, 9))

# GP*(81, 4) and GP*(15625, 62): the two counterexamples the paper names,
# with the sizes of the maximal cliques their base subfields extend to.
PEISERT_PINNED = {(3, 1, 4, 4): 9, (5, 1, 6, 62): 25}
PEISERT_SWEEP_MAX_ORDER = 5000

KATZ_MAX_ORDER = 729

# Field builds: a degree-6 extension, a degree-2 extension over a large
# prime and a prime field, so both the e >= 2 and e == 1 paths are timed.
# Values are the modulus (constant term first) and generator code.
FIELDS = {
    (13, 6): ([1, 0, 0, 0, 0, 1, 1], 15),
    (4093, 2): ([1, 3, 1], 4097),
    (16777213, 1): ([0, 1], 5),
}

KATZ_RATIO_LIMIT = 1.0 + 1e-9


# --------------------------------------------------------------------------
# calls

def katz_triples(max_order: int = KATZ_MAX_ORDER) -> list[tuple[int, int, int, int]]:
    """(p, r, E/r, d) for every GF(p^E), E >= 2, order <= max_order, every
    proper divisor r of E and every d > 1 dividing p^E - 1."""
    import sympy

    out = []
    for p in sympy.primerange(3, int(max_order**0.5) + 1):
        e = 2
        while p**e <= max_order:
            for r in sympy.divisors(e)[:-1]:
                for d in sympy.divisors(p**e - 1)[1:]:
                    out.append((p, r, e // r, d))
            e += 1
    return out


def calls(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one pass of the workload, in seed order.

    Sweep calls get an ``--out`` placeholder that the worker fills in.
    """
    if workload == "paley-sweep":
        argvs = [
            ["sweep", "--kind", "paley", "--n-min", str(n), "--n-max", str(n),
             "--max-base", str(b), "--max-order", str(b**n), "--out", None]
            for n, b in PALEY_GRID
        ]
    elif workload == "peisert-hunt":
        argvs = [
            ["verify", "--p", str(p), "--s", str(s), "--n", str(n), "--d", str(d),
             "--kind", "peisert"]
            for p, s, n, d in PEISERT_PINNED
        ]
        argvs.append(["sweep", "--kind", "peisert",
                      "--max-order", str(PEISERT_SWEEP_MAX_ORDER), "--out", None])
    elif workload == "katz-scan":
        argvs = [
            ["katz", "--p", str(p), "--s", str(r), "--n", str(n), "--d", str(d)]
            for p, r, n, d in katz_triples()
        ]
    elif workload == "field-build":
        argvs = [["field", "--p", str(p), "--s", str(e)] for p, e in FIELDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(argvs)
    return argvs


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def call_key(argv: list[str]) -> str:
    """Key of a single-operation call, e.g. ``katz 3 1 2 4``."""
    cmd = argv[0]
    if cmd == "verify":
        names = ("--p", "--s", "--n", "--d", "--kind")
    elif cmd == "katz":
        names = ("--p", "--s", "--n", "--d")
    elif cmd == "field":
        names = ("--p", "--s")
    else:
        return "call " + " ".join(str(a) for a in argv)
    return " ".join([cmd] + [_flag(argv, n) for n in names])


def sweep_operations(rc: int, jsonl: str, csv: str) -> dict[str, dict]:
    """One operation per case: its JSONL line and CSV row, keyed by case."""
    lines = jsonl.splitlines()
    rows = csv.splitlines()[1:]  # drop the header
    ops: dict[str, dict] = {}
    for i in range(max(len(lines), len(rows))):
        line = lines[i] if i < len(lines) else None
        row = rows[i] if i < len(rows) else None
        try:
            c = json.loads(line)["case"]
            key = f"case {c['p']} {c['s']} {c['n']} {c['d']} {c['kind']}"
        except (TypeError, ValueError, KeyError):  # missing or malformed line
            key = f"line {i}: {line} / {row}"
        ops[key] = {"rc": rc, "jsonl": line, "csv": row}
    return ops


# --------------------------------------------------------------------------
# checking

def _paper_fact_holds(workload: str, key: str, value: dict) -> bool:
    """The paper's facts, checked on every output independently of the reference."""
    if value.get("rc") is None:
        return False
    if key.startswith("case "):
        doc = json.loads(value["jsonl"]) if value.get("jsonl") else None
        if doc is None or doc["verdict"] == "VIOLATION":
            return False
        if workload == "paley-sweep" and doc["maximal_subfield_clique"]:
            # no Paley counterexample exists in this range
            return doc["maximal_clique"] is True
        return True
    doc = json.loads(value["json"])
    if key.startswith("verify "):
        p, s, n, d, _ = key.split()[1:]
        size = PEISERT_PINNED[(int(p), int(s), int(n), int(d))]
        return (value["rc"] == 0 and doc["maximal_subfield_clique"] is True
                and doc["maximal_clique"] is False and doc["extended_clique_size"] == size)
    if key.startswith("katz "):
        return value["rc"] == 0 and doc["max_ratio"] <= KATZ_RATIO_LIMIT
    if key.startswith("field "):
        modulus, g = FIELDS[(doc["p"], doc["e"])]
        return value["rc"] == 0 and doc["modulus"] == modulus and doc["g"] == g
    return False


def check(workload: str, got: dict[str, dict], reference: dict[str, dict]) -> tuple[int, int]:
    """(attempted, failed) for one pass.

    An operation fails when it is missing, unexpected, differs from the
    reference, raised, exited with an unexpected code, or breaks a fact
    the paper states.
    """
    keys = set(reference) | set(got)
    failed = 0
    for key in keys:
        value = got.get(key)
        if value is None or value != reference.get(key):
            failed += 1
            continue
        try:
            ok = _paper_fact_holds(workload, key, value)
        except (KeyError, TypeError, ValueError):
            ok = False
        failed += not ok
    return len(keys), failed
