"""Spans and work counters recorded from outside the package.

A Tracer wraps the public functions of each module by patching module
and class attributes, and restores every attribute on uninstall.  Each
call of a wrapped function records one span (name, start, end, parent,
run id) in flat in-memory arrays; the worker sets the run id to the index
of the CLI call the span belongs to.  The counters are derived from the
call's arguments and result only, never from inside the package, so they
repeat exactly across runs and seeds.
"""

from __future__ import annotations

import resource
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Counter hooks: (counters, args, kwargs, result) -> None.

def _count_build_field(c, args, kwargs, table):
    c["ff.build_field.elements"] += table.q
    c["ff.build_field.peak_rss_mb"] = max(c["ff.build_field.peak_rss_mb"], _rss_mb())


def _count_subfield_elements(c, args, kwargs, elems):
    c["ff.subfield_elements.elements"] += len(elems)


def _count_common_neighbors(c, args, kwargs, found):
    c["cayley.common_neighbors.scanned"] += args[0].table.q
    c["cayley.common_neighbors.found"] += len(found)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_maximum_clique(c, args, kwargs, mask):
    c["cayley.maximum_clique.vertices"] += len(_arg(args, kwargs, 0, "neighbors"))
    c["cayley.maximum_clique.clique_size"] += mask.bit_count()


def _count_katz(c, args, kwargs, report):
    c["charsum.katz_bound_check.thetas"] += report.theta_count


def _count_line_sum(c, args, kwargs, acc):
    c["charsum.line_sum.terms"] += len(_arg(args, kwargs, 2, "base_elements"))


def _count_verdict(c, args, kwargs, report):
    c[f"verify.cases_by_verdict.{report.verdict}"] += 1


# (span name, module, class or None, attribute, counter hook)
TARGETS = (
    ("ff.build_field", "ff", None, "build_field", _count_build_field),
    ("ff.subfield_elements", "ff", "FieldTable", "subfield_elements", _count_subfield_elements),
    ("ff.add", "ff", "FieldTable", "add", None),
    ("ff.degree_over_base", "ff", "FieldTable", "degree_over_base", None),
    ("cayley.subfield_is_clique", "cayley", "CayleyGraph", "subfield_is_clique", None),
    ("cayley.common_neighbors", "cayley", "CayleyGraph", "common_neighbors", _count_common_neighbors),
    ("cayley.extend_to_maximal_clique", "cayley", "CayleyGraph", "extend_to_maximal_clique", None),
    ("cayley.maximum_clique", "cayley", None, "maximum_clique", _count_maximum_clique),
    ("charsum.katz_bound_check", "charsum", None, "katz_bound_check", _count_katz),
    ("charsum.line_sum", "charsum", None, "line_sum", _count_line_sum),
    ("verify.check_hypotheses", "verify", None, "check_hypotheses", None),
    ("verify.verify_case", "verify", None, "verify_case", _count_verdict),
    ("verify.sweep", "verify", None, "sweep", None),
    ("verify.report_lines", "verify", None, "report_lines", None),
    ("cli.main", "cli", None, "main", None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)
VERDICTS = ("consistent", "VIOLATION", "counterexample_below_threshold", "vacuous")
COUNTERS = (
    "ff.build_field.elements",
    "ff.build_field.peak_rss_mb",
    "ff.subfield_elements.elements",
    "cayley.common_neighbors.scanned",
    "cayley.common_neighbors.found",
    "cayley.maximum_clique.vertices",
    "cayley.maximum_clique.clique_size",
    "charsum.katz_bound_check.thetas",
    "charsum.line_sum.terms",
) + tuple(f"verify.cases_by_verdict.{v}" for v in VERDICTS)


class Tracer:
    """Records spans of the wrapped functions between install() and uninstall()."""

    package = "cayley_cliques"

    def __init__(self):
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.runs = array("H")
        self.counters: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name_id: int, fn, hook):
        names, starts, ends = self.names, self.starts, self.ends
        parents, runs, stack, counters = self.parents, self.runs, self._stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if n == self.package or n.startswith(self.package + ".")]
        for name_id, (_, mod_name, cls_name, attr, hook) in enumerate(TARGETS):
            module = sys.modules[f"{self.package}.{mod_name}"]
            if cls_name is not None:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name_id, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name_id, original, hook)
            # Every module that imported the function holds its own binding.
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- results

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.names, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "run": np.frombuffer(self.runs, dtype=np.uint16).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), **self.spans())

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: self time and call count per span name, plus counters."""
        s = self.spans()
        own = self_times(s["start"], s["end"], s["parent"])
        n = len(SPAN_NAMES)
        self_s = np.bincount(s["name"], weights=own, minlength=n)
        calls = np.bincount(s["name"], minlength=n)
        out: dict[str, float] = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{name}.calls"] = int(calls[i])
        for key in COUNTERS:
            out[key] = self.counters[key]
        scanned = out["cayley.common_neighbors.scanned"]
        out["cayley.common_neighbors.hit_ratio"] = (
            out["cayley.common_neighbors.found"] / scanned if scanned else 0.0
        )
        return out


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread, so children of a span are nested in it
    and never overlap each other.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered
