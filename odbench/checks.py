"""Output checks for benchmark invocations.

Each check returns a list of failure messages; an empty list means the
outputs are correct.  A check never raises on bad output: whatever goes
wrong while reading it is itself a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Callable, Mapping

import numpy as np
from odrelease import AttributeSchema, SynthConfig, read_histogram_csv, synth_generate, synthetic_od_seed

HELLINGER_TOL = 1e-12


def _guard(check: Callable[[], list[str]], what: str) -> list[str]:
    try:
        return check()
    except Exception as exc:  # any unreadable output is a failed check, not a crash
        return [f"{what}: {type(exc).__name__}: {exc}"]


def read_output_histogram(out: Path, name: str):
    """A histogram CSV of an output directory, parsed against its schema.json."""
    return read_histogram_csv(out / name, AttributeSchema.load(out / "schema.json"))


def m_original(config: Mapping):
    """The synthetic input a pipeline config describes, regenerated here."""
    synth = config["synth"]
    return synth_generate(
        SynthConfig(
            od_seed=synthetic_od_seed(**synth["generate_od"]),
            trips=int(synth["trips"]),
            mode=synth["mode"],
            seed=int(synth["seed"]),
        )
    )


def hellinger_np(a: Mapping, b: Mapping) -> float:
    """Hellinger distance of two count maps, over the union of their keys."""
    keys = sorted(set(a) | set(b))
    p = np.array([a.get(k, 0) for k in keys], dtype=float)
    q = np.array([b.get(k, 0) for k in keys], dtype=float)
    bc = np.sum(np.sqrt((p / p.sum()) * (q / q.sum())))
    return math.sqrt(min(max(1.0 - bc, 0.0), 1.0))


def check_release(out: Path, original) -> list[str]:
    """released.csv, release_report.json and distance_report.json of a release."""

    def check():
        failures = []
        released = read_output_histogram(out, "released.csv")
        report = json.loads((out / "release_report.json").read_text(encoding="utf8"))
        seen = report["retained_active"] + report["suppressed_active"]
        if seen != len(original):
            failures.append(f"retained + suppressed = {seen}, input has {len(original)} active buckets")
        dist = json.loads((out / "distance_report.json").read_text(encoding="utf8"))
        for name, band in dist["band"].items():
            if not band["p2_5"] <= band["mean"] <= band["p97_5"]:
                failures.append(f"{name} band out of order: {band}")
        expected = hellinger_np(dict(original.items()), dict(released.items()))
        if not abs(dist["hellinger"] - expected) <= HELLINGER_TOL:
            failures.append(f"hellinger {dist['hellinger']!r} != recomputed {expected!r}")
        return failures

    return _guard(check, str(out))


def check_sweep(out: Path, rows: int) -> list[str]:
    """sweep.csv holds one row per trial with finite distances."""

    def check():
        with open(out / "sweep.csv", newline="", encoding="utf8") as f:
            records = list(csv.DictReader(f))
        failures = [] if len(records) == rows else [f"sweep.csv has {len(records)} rows, expected {rows}"]
        for rec in records:
            if not (math.isfinite(float(rec["pwkt"])) and 0.0 <= float(rec["hellinger"]) <= 1.0):
                failures.append(f"sweep row has bad distances: {rec}")
            if int(rec["bins_released"]) <= 0:
                failures.append(f"sweep row released nothing: {rec}")
        return failures

    return _guard(check, str(out))


def check_ingest(out: Path, rows: int, retained: int) -> list[str]:
    """histogram.csv parses, and the report counts every row of the input."""

    def check():
        h = read_output_histogram(out, "histogram.csv")
        stats = json.loads((out / "ingest_report.json").read_text(encoding="utf8"))["stats"]
        failures = []
        if (stats["rows"], stats["retained"], h.total) != (rows, retained, retained):
            failures.append(
                f"ingest kept {stats['retained']} of {stats['rows']} rows ({h.total} in histogram), "
                f"expected {retained} of {rows}"
            )
        return failures

    return _guard(check, str(out))


def digest_dir(out: Path) -> dict[str, str]:
    """SHA-256 of every file under out, keyed by its relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
