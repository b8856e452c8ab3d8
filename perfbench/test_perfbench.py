"""Tests of the benchmark's own machinery.

Run from the root of the checkout: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import Worker  # noqa: E402


def _reference(name: str) -> dict:
    return json.loads((HERE / "reference" / f"{name}.json").read_text())


# ------------------------------------------------------------------ spans

def test_self_time_subtracts_direct_children_only():
    # a [0, 10] contains b [1, 4] and d [5, 9]; b contains c [2, 3]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert spans.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_self_times_sum_to_the_root_span():
    rng = np.random.default_rng(0)
    start, end, parent = [0.0], [100.0], [-1]

    def nest(span, lo, hi, depth):
        t = lo
        while depth and t < hi - 2:
            a = t + rng.uniform(0, 1)
            b = min(hi, a + rng.uniform(0.5, 10))
            start.append(a)
            end.append(b)
            parent.append(span)
            nest(len(start) - 1, a, b, depth - 1)
            t = b
    nest(0, 0.0, 100.0, 4)
    own = spans.self_times(np.array(start), np.array(end), np.array(parent))
    assert own.min() >= 0
    assert own.sum() == pytest.approx(100.0)


def _bindings(package):
    """Every attribute the tracer may patch, mapped to the id of the object it holds."""
    modules = [m for n, m in sys.modules.items()
               if n == package.__name__ or n.startswith(package.__name__ + ".")]
    out = {}
    for mod in modules:
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = id(value)
    for _, mod_name, cls_name, attr, _ in spans.TARGETS:
        if cls_name is not None:
            cls = getattr(sys.modules[f"{package.__name__}.{mod_name}"], cls_name)
            out[(cls.__qualname__, attr)] = id(cls.__dict__[attr])
    return out


def test_traced_pass_restores_every_wrapped_attribute(tmp_path):
    import cayley_cliques

    worker = Worker("katz-scan", 0, tmp_path / "work", tmp_path / "spans.npz")
    worker.argvs = [a for a in worker.argvs if a[1:5] == ["--p", "3", "--s", "1"]][:3]
    before = _bindings(cayley_cliques)

    reply = worker.run_pass(traced=True)

    assert _bindings(cayley_cliques) == before
    m = reply["metrics"]
    assert m["cli.main.calls"] == 3
    assert m["charsum.katz_bound_check.calls"] == 3
    assert m["charsum.line_sum.calls"] == m["charsum.katz_bound_check.thetas"]
    assert m["ff.add.calls"] == m["charsum.line_sum.terms"]
    saved = np.load(tmp_path / "spans.npz")
    assert len(saved["start"]) == sum(m[f"{n}.calls"] for n in spans.SPAN_NAMES)
    assert (saved["end"] >= saved["start"]).all()
    assert sorted(set(saved["run"].tolist())) == [0, 1, 2]


def test_tracer_restores_attributes_when_the_traced_call_raises(tmp_path):
    import cayley_cliques

    worker = Worker("field-build", 0, tmp_path / "work", None)
    worker.argvs = [["field", "--p", "4", "--s", "1"]]  # not prime: the CLI exits 2
    before = _bindings(cayley_cliques)
    reply = worker.run_pass(traced=True)
    assert _bindings(cayley_cliques) == before
    assert reply["ops"] == {"field 4 1": {"rc": 2, "json": ""}}


# ------------------------------------------------------------- checking

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reference_passes_its_own_check(name):
    ref = _reference(name)
    assert workloads.check(name, ref, ref) == (len(ref), 0)


def test_corrupted_outputs_raise_the_error_count():
    ref = _reference("field-build")
    total = len(ref)

    changed = copy.deepcopy(ref)
    changed["field 13 6"]["json"] = changed["field 13 6"]["json"].replace('"g": 15', '"g": 17')
    assert workloads.check("field-build", changed, ref) == (total, 1)

    wrong_rc = copy.deepcopy(ref)
    wrong_rc["field 4093 2"]["rc"] = 1
    assert workloads.check("field-build", wrong_rc, ref) == (total, 1)

    missing = {k: v for k, v in ref.items() if k != "field 4093 2"}
    assert workloads.check("field-build", missing, ref) == (total, 1)

    extra = dict(ref, **{"call field --p 3": {"rc": None, "error": "boom"}})
    assert workloads.check("field-build", extra, ref) == (total + 1, 1)


def test_paper_facts_fail_even_when_the_reference_agrees():
    ref = _reference("peisert-hunt")
    key = "verify 5 1 6 62 peisert"
    bad = copy.deepcopy(ref)
    bad[key]["json"] = bad[key]["json"].replace('"extended_clique_size": 25',
                                                '"extended_clique_size": 24')
    assert bad[key] != ref[key]
    assert workloads.check("peisert-hunt", bad, bad) == (len(ref), 1)

    sweep_key = next(k for k in ref if k.startswith("case "))
    violating = copy.deepcopy(ref)
    line = json.loads(violating[sweep_key]["jsonl"])
    line["verdict"] = "VIOLATION"
    violating[sweep_key]["jsonl"] = json.dumps(line)
    assert workloads.check("peisert-hunt", violating, violating) == (len(ref), 1)


def test_katz_bound_fact():
    ref = _reference("katz-scan")
    key = next(iter(ref))
    doc = json.loads(ref[key]["json"])
    doc["max_ratio"] = 1.01
    bad = dict(ref, **{key: {"rc": 0, "json": json.dumps(doc)}})
    assert workloads.check("katz-scan", bad, bad) == (len(ref), 1)


# ------------------------------------------------------------- workloads

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_permutes_the_same_calls(name):
    a, b = workloads.calls(name, 1), workloads.calls(name, 2)
    assert sorted(map(str, a)) == sorted(map(str, b))
    assert workloads.calls(name, 1) == a


def test_reference_keys_match_the_enumerated_calls():
    assert len(workloads.katz_triples()) == len(_reference("katz-scan")) == 233
    assert {workloads.call_key(a) for a in workloads.calls("katz-scan", 0)} == set(
        _reference("katz-scan"))
    assert len(_reference("paley-sweep")) == 268
    assert {workloads.call_key(a) for a in workloads.calls("field-build", 0)} == set(
        _reference("field-build"))


def test_benchmark_json_declares_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(spans.Tracer().metrics()) | {"trace.wall_s", "trace.overhead_s"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_malformed_sweep_output_is_a_failed_operation():
    ref = _reference("paley-sweep")
    ops = workloads.sweep_operations(0, "not json\n", "p,s,n,d,kind,verdict,extended_size\n")
    assert len(ops) == 1
    assert workloads.check("paley-sweep", ops, ref) == (len(ref) + 1, len(ref) + 1)
