"""Tests of the benchmark itself: span arithmetic, the scaling of times by
the reference, wrapper install and restore, the correctness gate, and
agreement with BENCHMARK.json and the reference's quiet times.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

import pmodcalc
import pmodcalc.cli  # noqa: F401
import run
import tracing
import workloads
import worker
from pmodcalc import FieldSpec, Lattice, free_module, print_pmod, random_module

from conftest import ROOT


# -- span arithmetic ----------------------------------------------------------


def test_self_time_of_a_synthetic_span_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds b [6, 8] (a recursion
    # of b under c) and d [8.5, 9].
    spans = [
        ("a", -1, 0.0, 10.0, None),
        ("b", 0, 1.0, 4.0, 1),
        ("c", 0, 5.0, 9.0, None),
        ("b", 2, 6.0, 8.0, 2),
        ("d", 2, 8.5, 9.0, None),
    ]
    stats = tracing.aggregate(spans)
    assert stats["a"].self_s == pytest.approx(10 - 3 - 4)
    assert stats["c"].self_s == pytest.approx(4 - 2 - 0.5)
    assert stats["b"].self_s == pytest.approx(3 + 2)
    assert stats["b"].calls == 2
    assert stats["a"].incl_s == pytest.approx(10)
    assert dict(stats["b"].incl_by_tag) == pytest.approx({1: 3.0, 2: 2.0})


def test_nested_spans_of_one_name_count_inclusive_time_once():
    spans = [("f", -1, 0.0, 5.0, 0), ("f", 0, 1.0, 3.0, 1), ("g", 1, 1.5, 2.0, None)]
    stats = tracing.aggregate(spans)
    assert stats["f"].incl_s == pytest.approx(5.0)
    assert dict(stats["f"].incl_by_tag) == pytest.approx({0: 5.0})
    assert stats["f"].self_s == pytest.approx((5 - 2) + (2 - 0.5))
    layers = tracing.layer_self_times({"linalg.rref": stats["f"], "lattice.grid": stats["g"]})
    assert layers["linalg"] == pytest.approx(4.5) and layers["lattice"] == pytest.approx(0.5)


def test_times_are_scaled_by_the_reference_run_next_to_them():
    # Item over reference per pass: item 0 3, 3, 2 (median 3); item 1 2, 2, 3 (2).
    passes = [[0.3, 0.5], [0.6, 0.4], [0.2, 0.9]]
    ref_passes = [[0.1, 0.25], [0.2, 0.2], [0.1, 0.3]]
    quiet = {"items_s": [0.1, 0.2], "setup_s": 0.5}
    m = worker.latency_metrics(passes, ref_passes, quiet["items_s"])
    assert m["wall_s"]["value"] == pytest.approx(0.3 + 0.4)
    assert m["item_p50_ms"]["value"] == pytest.approx(350)
    assert m["item_tail_ms"]["value"] == pytest.approx(400)
    segments = [{"passes": passes[:2], "ref_passes": ref_passes[:2], "setup_s": 0.2,
                 "ref_setup_s": 0.1, "peak_rss_mib": 30.0},
                {"passes": passes[2:], "ref_passes": ref_passes[2:], "setup_s": 0.3,
                 "ref_setup_s": 0.1, "peak_rss_mib": 31.0},
                {"passes": [], "ref_passes": [], "setup_s": 0.5,
                 "ref_setup_s": 0.1, "peak_rss_mib": 29.0}]
    m = run.untraced_metrics(segments, quiet)
    assert m["wall_s"]["value"] == pytest.approx(0.7)
    assert m["setup_s"]["value"] == pytest.approx(3 * 0.5)  # median of 2, 3, 5
    assert m["peak_rss_mib"]["value"] == 31.0


# -- install and restore ------------------------------------------------------


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "pmodcalc" or name.startswith("pmodcalc."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
                if isinstance(obj, type):
                    for cattr, cobj in vars(obj).items():
                        out[(name, attr, cattr)] = cobj
    return out


def test_restore_puts_back_every_original():
    before = _bindings()
    tracer = tracing.Tracer()
    patched = tracer.install()
    try:
        assert patched > 50
        # A function imported by name into another module is wrapped there too.
        assert tracing.is_traced(pmodcalc.calculus.rank)
        assert tracing.is_traced(pmodcalc.resolution.parent_cube)
        assert tracing.is_traced(vars(pmodcalc.Lattice)["grid"])
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert tracing.installed() == []


def test_traced_calls_are_seen_through_every_import_path():
    lat = Lattice.grid([2, 2])
    f = random_module(lat, FieldSpec(2), "trace-test", max_gens=3, max_rels=2)
    with tracing.Tracer() as tracer:
        pmodcalc.pdim(f)
        pmodcalc.t_lower(f, 1)
        pmodcalc.t_lower(f, 1)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["resolution.betti.calls"][0] == 1
    assert metrics["calculus.koszul.calls"][0] == lat.n
    assert metrics["lattice.cubes.calls"][0] == lat.n
    assert metrics["calculus.t_lower.calls"][0] == 2
    assert metrics["calculus.t_lower.cache_hits"][0] == 1
    assert metrics["linalg.rref.calls"][0] > 0
    assert metrics["linalg.rref.cells"][0] > 0
    assert metrics["calculus.t_lower.n1.incl_s"][0] > 0
    assert tracing.installed() == []


# -- the gate -----------------------------------------------------------------


@pytest.fixture
def analyze_item(tmp_path):
    lat = Lattice.grid([2, 2])
    f = free_module(lat, FieldSpec(2), {"1,0": 1, "0,2": 1})
    path = tmp_path / "free.pmod"
    path.write_text(print_pmod(f))
    return workloads._analyze_item(pmodcalc, "free", str(path), f)


def test_gate_passes_the_true_value_and_flags_a_tampered_pin(analyze_item):
    digest = json.loads(json.dumps(analyze_item.digest(analyze_item.run())))
    assert workloads.gate(analyze_item, digest, {"free": digest}) == []
    tampered = dict(digest, pdim=digest["pdim"] + 1)
    assert workloads.gate(analyze_item, digest, {"free": tampered}) == [
        "differs from the pinned value"]
    assert workloads.gate(analyze_item, digest, {}) == ["no pinned value for this item"]


def test_gate_invariants_catch_a_wrong_answer_without_a_pin(analyze_item):
    digest = json.loads(json.dumps(analyze_item.digest(analyze_item.run())))
    wrong = dict(digest, betti=[["1,0", 0, 1]])
    assert any("Betti" in e for e in workloads.gate(analyze_item, wrong, None))
    wrong = dict(digest, total_dim=digest["total_dim"] + 1)
    assert any("total_dim" in e for e in workloads.gate(analyze_item, wrong, None))


def test_repeat_pass_must_match_the_first(analyze_item):
    gate = worker.Gate({})
    result = analyze_item.run()
    assert not gate.ok(analyze_item, result)  # no pin for "free" in an empty table
    gate = worker.Gate(None)
    assert gate.ok(analyze_item, result) and gate.ok(analyze_item, result)
    code, text = result
    payload = json.loads(text)
    payload["codegree"] += 1
    assert not gate.ok(analyze_item, (code, json.dumps(payload)))
    assert gate.errors["free"] == ["differs from the first pass"]


# -- BENCHMARK.json -----------------------------------------------------------


def test_benchmark_json_names_every_metric_the_runs_report(analyze_item):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with tracing.Tracer() as tracer:
        analyze_item.run()
    layer = {name: unit for name, (_, unit) in tracing.layer_metrics(tracer).items()}
    layer["trace.overhead_ratio"] = "ratio"
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layer
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert e2e == {"wall_s", "item_p50_ms", "item_tail_ms", "setup_s", "peak_rss_mib"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_every_reference_item_has_a_quiet_time(tmp_path):
    with open(run.QUIET, encoding="utf-8") as fh:
        quiet = json.load(fh)
    assert sorted(quiet) == sorted(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        items, _ = worker.set_up_reference(name, 0, str(tmp_path))
        assert len(quiet[name]["items_s"]) == len(items)
        assert all(t > 0 for t in quiet[name]["items_s"]) and quiet[name]["setup_s"] > 0
