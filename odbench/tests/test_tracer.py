import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer as tr  # noqa: E402


def test_self_time_on_hand_built_span_tree():
    #   a [0, 10]
    #   +-- b [1, 4]
    #   |   +-- c [2, 3]
    #   +-- b [5, 9]
    names = ["a", "b", "c"]
    name_id = [0, 1, 2, 1]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    s = tr.span_summary(names, name_id, parent, start, end)
    assert s["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert s["b"] == {"calls": 2, "s": 7.0, "self_s": 6.0}
    assert s["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_wrapped_calls_nest_and_close_on_error():
    t = tr.Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_leaf = t.wrap("leaf", leaf)

    def outer(xs):
        return [traced_leaf(x) for x in xs]

    traced_outer = t.wrap("outer", outer)
    assert traced_outer([1, 2, 3]) == [1, 2, 3]
    with pytest.raises(ValueError):
        traced_outer([1, -1])
    assert list(t.parent) == [-1, 0, 0, 0, -1, 4, 4]
    assert all(e >= s for s, e in zip(t.start, t.end))
    summary = t.summary()
    assert summary["outer"]["calls"] == 2 and summary["leaf"]["calls"] == 5
    assert t._stack == [-1]


def test_emitted_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
    emitted = set(tr.layer_metrics(tr.Tracer())) | {"cli.cpu_s", "trace.overhead_frac", "src.lines"}
    assert emitted == {m["name"] for m in spec["per_layer"]}
    layers = json.loads((BENCH / "layers.json").read_text(encoding="utf8"))
    mapped = [name for group in layers["per_layer"] for name in group["metrics"]]
    assert sorted(mapped) == sorted(emitted)


def test_installed_wraps_submodules_and_restores_them():
    repair_mod = importlib.import_module("odrelease.repair")
    original = repair_mod.marginalize
    with tr.installed(tr.Tracer()) as points:
        assert repair_mod.marginalize is not original
        for module in ("cli", "ingest", "repair", "privacy", "metrics"):
            assert any(p.startswith(f"odrelease.{module}.") for p in points)
    assert repair_mod.marginalize is original
