"""Spans around calls into the odrelease modules, recorded from outside.

The tracer replaces public functions at the module attributes where their
callers look them up (``odrelease.cli.repair``, ``odrelease.repair.marginalize``
and so on) with wrappers that record one span per call: name, start, end and
the enclosing span.  Spans stay in compact in-memory arrays until the run
ends; self time is a span's duration minus the durations of its children.
Nothing in the package itself changes.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Span recorder.  One instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack = [-1]

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, counter=None):
        """fn wrapped to record a span; counter(tracer, args, kwargs, result) adds counts."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        return span_summary(self.names, self.name_id, self.parent, self.start, self.end)


def span_summary(names, name_id, parent, start, end) -> dict[str, dict[str, float]]:
    """Aggregate spans by name.

    A span's self time is its duration minus the summed durations of the
    spans whose parent it is.  Calls are synchronous, so children nest inside
    their parent and never overlap each other.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    child = np.zeros(len(duration))
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=duration, minlength=k)
    self_s = np.bincount(name_id, weights=duration - child, minlength=k)
    return {
        name: {"calls": int(calls[j]), "s": float(total[j]), "self_s": float(self_s[j])}
        for j, name in enumerate(names)
    }


# --- counters fed from the arguments and results of wrapped calls -----------


def _count_synth(t, args, kwargs, result):
    t.count("ingest.synth_generate.buckets_out", len(result))


def _count_taxi(t, args, kwargs, result):
    t.count("ingest.taxi_preprocess.rows", result.stats.rows)
    t.count("ingest.taxi_preprocess.retained", result.stats.retained)
    t.count("ingest.taxi_preprocess.buckets_out", len(result.histogram))


def _count_read(t, args, kwargs, result):
    t.count("histogram.read_csv.buckets", len(result))


def _count_write(t, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    t.count("histogram.write_csv.bytes", os.path.getsize(path))


def _count_repair(t, args, kwargs, result):
    t.count("repair.repair.buckets_in", len(args[0]))
    t.count("repair.repair.buckets_out", len(result.rounded))


def _count_privatize(t, args, kwargs, result):
    t.count("privacy.privatize.buckets_in", len(args[0]))
    t.count("privacy.retained", result.retained_active)
    t.count("privacy.spurious_added", result.spurious_added)


def _count_bootstrap(t, args, kwargs, result):
    t.count("metrics.bootstrap.buckets", len(args[0]))
    t.count("metrics.bootstrap.replicates", len(next(iter(result.values()))))


# (module, attribute, span name, counter).  The same function reached through
# two modules gets one span name, so either path lands in the same layer.
WRAP_POINTS = (
    ("cli", "synth_generate", "ingest.synth_generate", _count_synth),
    ("cli", "taxi_preprocess", "ingest.taxi_preprocess", _count_taxi),
    ("cli", "read_histogram_csv", "histogram.read_csv", _count_read),
    ("cli", "write_histogram_csv", "histogram.write_csv", _count_write),
    ("cli", "repair", "repair.repair", _count_repair),
    ("cli", "random_x_baseline", "repair.random_x_baseline", None),
    ("cli", "privatize", "privacy.privatize", _count_privatize),
    ("cli", "build_distance_report", "metrics.build_distance_report", None),
    ("cli", "bootstrap_distances", "metrics.bootstrap_distances", _count_bootstrap),
    ("cli", "pwkt", "metrics.pwkt", None),
    ("cli", "hellinger", "metrics.hellinger", None),
    ("repair", "marginalize", "histogram.marginalize", None),
    ("repair", "conditional_mutual_information", "repair.cmi", None),
    ("repair", "kl_divergence", "repair.kl", None),
    ("repair", "substream", "rng.substream", None),
    ("privacy", "substream", "rng.substream", None),
    ("metrics", "bootstrap_distances", "metrics.bootstrap_distances", _count_bootstrap),
    ("metrics", "pwkt", "metrics.pwkt", None),
    ("metrics", "hellinger", "metrics.hellinger", None),
    ("metrics", "substream", "rng.substream", None),
    ("ingest", "substream", "rng.substream", None),
)


@contextmanager
def installed(tracer: Tracer):
    """Patch every wrap point for the duration of the block; yields their list.

    Submodules are looked up with importlib because the package attribute
    ``odrelease.repair`` is the repair *function*, which shadows the module.
    A wrap point the package no longer has is reported on stderr and skipped.
    """
    patched = []
    try:
        for module_name, attr, span, counter in WRAP_POINTS:
            module = importlib.import_module(f"odrelease.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                print(f"trace: odrelease.{module_name}.{attr} not found; not traced", file=sys.stderr)
                continue
            setattr(module, attr, tracer.wrap(span, original, counter))
            patched.append((module, attr, original))
        yield [f"{m.__name__}.{a}" for m, a, _ in patched]
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def run_main(tracer: Tracer, argv) -> int:
    """odrelease.cli.main(argv) in this process, traced as the cli.main span."""
    cli = importlib.import_module("odrelease.cli")
    return tracer.wrap("cli.main", cli.main)(list(argv))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metric values of one traced run, keyed by metric name."""
    spans = tracer.summary()
    c = tracer.counters

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    out = {}
    for name in (
        "cli.main", "ingest.synth_generate", "ingest.taxi_preprocess", "histogram.marginalize",
        "histogram.write_csv", "histogram.read_csv", "repair.repair", "repair.cmi", "repair.kl",
        "repair.random_x_baseline", "privacy.privatize", "rng.substream",
        "metrics.bootstrap_distances", "metrics.pwkt", "metrics.hellinger",
        "metrics.build_distance_report",
    ):
        out[f"{name}.s"] = float(span(name, "s"))
    for name in ("cli.main", "repair.repair", "privacy.privatize", "metrics.bootstrap_distances"):
        out[f"{name}.self_s"] = float(span(name, "self_s"))
    for name in ("histogram.marginalize", "repair.cmi", "rng.substream", "metrics.pwkt",
                 "metrics.hellinger", "metrics.bootstrap_distances"):
        out[f"{name}.calls"] = span(name, "calls")
    for name in (
        "ingest.synth_generate.buckets_out", "ingest.taxi_preprocess.rows",
        "ingest.taxi_preprocess.buckets_out", "histogram.write_csv.bytes",
        "histogram.read_csv.buckets", "repair.repair.buckets_in", "repair.repair.buckets_out",
        "privacy.privatize.buckets_in", "privacy.spurious_added", "metrics.bootstrap.buckets",
    ):
        out[name] = c.get(name, 0)
    out["ingest.taxi_preprocess.retained_frac"] = _ratio(
        c.get("ingest.taxi_preprocess.retained", 0), c.get("ingest.taxi_preprocess.rows", 0)
    )
    out["privacy.retained_frac"] = _ratio(c.get("privacy.retained", 0), c.get("privacy.privatize.buckets_in", 0))
    out["metrics.bootstrap.replicates_per_s"] = _ratio(
        c.get("metrics.bootstrap.replicates", 0), span("metrics.bootstrap_distances", "s")
    )
    return out
