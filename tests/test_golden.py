"""Byte-level regression check of every CLI command against tests/golden.json.

Each command runs in-process through `cli.main` at a fixed seed on small
generated inputs, and the SHA-256 of every file it writes is compared with
the digests recorded for this numpy `major.minor` (outputs are reproducible
bit for bit only within one numpy version).  A change that alters output
bytes on purpose regenerates the digests with

    PYTHONPATH=src python tests/test_golden.py --write

and says so in CHANGES.md.
"""

import csv
import hashlib
import itertools
import json
import random
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from odrelease import AttributeSchema, Histogram, write_histogram_csv
from odrelease.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
NUMPY_KEY = ".".join(np.__version__.split(".")[:2])
REGENERATE = "PYTHONPATH=src python tests/test_golden.py --write"

# 12 x 12 x 2 x 3 = 864 buckets, about 700 of them active with counts 1..40:
# enough for pwkt to run 10 merge levels, with many tied counts.  The
# destination and gender domains are declared out of lexicographic order, so
# a tie broken by declared (code) order instead of by key shows in the bytes.
SCHEMA = AttributeSchema(
    (
        ("origin", tuple(f"o{i:02d}" for i in range(12))),
        ("destination", tuple(f"d{i:02d}" for i in reversed(range(12)))),
        ("gender", ("m", "f")),
        ("rating", ("1", "2", "3")),
    )
)
REPAIR = {"x": "gender", "y": "rating", "z": ["origin"]}

TAXI_HEADER = (
    "pickup_datetime", "pickup_longitude", "pickup_latitude", "dropoff_longitude",
    "dropoff_latitude", "trip_distance", "fare_amount", "tip_amount", "payment_type", "hack_license",
)


def _histograms():
    rng = random.Random(20180101)
    input_counts, other_counts = {}, {}
    for key in itertools.product(*SCHEMA.domains):
        if rng.random() < 0.8:
            c = rng.randint(1, 40)
            input_counts[key] = c
            other_counts[key] = max(0, c + rng.randint(-3, 3))
        elif rng.random() < 0.3:
            other_counts[key] = rng.randint(1, 5)
    return Histogram(SCHEMA, input_counts), Histogram(SCHEMA, other_counts)


def _taxi_rows():
    good = []
    for i in range(48):
        good.append([
            f"2013-01-{1 + i % 28:02d} {(3 * i) % 24:02d}:{i % 60:02d}:00",
            f"{-74.05 + 0.013 * (i % 9):.4f}", f"{40.62 + 0.017 * (i % 7):.4f}",
            f"{-73.92 + 0.011 * (i % 5):.4f}", f"{40.70 + 0.019 * (i % 6):.4f}",
            f"{0.5 + 0.25 * (i % 13):.2f}", f"{5.0 + 0.5 * (i % 11):.2f}",
            f"{0.5 * (i % 6):.2f}", "CRD", f"driver{i % 5 + (i % 3 == 0)}",
        ])
    rejects = [
        [*good[0][:7], "", *good[0][8:]],  # missing field
        [*good[1][:8], "CSH", good[1][9]],  # not paid by card
        [*good[2][:5], "two", *good[2][6:]],  # unparseable number
        ["yesterday", *good[3][1:]],  # unparseable time
        [*good[4][:6], "0.00", *good[4][7:]],  # nonpositive fare
        [good[5][0], "-75.5000", *good[5][2:]],  # outside the bounding box
    ]
    return good + rejects


def _write_inputs(d: Path) -> None:
    h, other = _histograms()
    SCHEMA.save(d / "schema.json")
    write_histogram_csv(h, d / "input.csv")
    write_histogram_csv(other, d / "other.csv")
    pipeline = {"schema": "schema.json", "input": "input.csv", "repair": REPAIR, "seed": 7,
                "bootstrap": {"replicates": 20}}
    configs = {
        "privacy_first.json": {**pipeline, "privacy": {"epsilon": 1.0, "rho": 0.1}, "order": "privacy-first"},
        "bias_first.json": {**pipeline, "privacy": {"epsilon": 2.0, "rho": 0.9, "n": 400}, "order": "bias-first"},
        "repair.json": {"x": "gender", "y": "rating", "z": ["origin", "destination"]},
        "privatize.json": {"epsilon": 1.0, "rho": 0.9, "seed": 4},
        "privatize_n.json": {"epsilon": 0.5, "rho": 0.05, "n": 300, "seed": 4},
        "synth.json": {"generate_od": {"n_neighborhoods": 6, "n_pairs": 12, "total": 600, "seed": 3},
                       "trips": 2000, "mode": "correlated", "seed": 5},
        "taxi.json": {"kind": "taxi", "trips_csv": "taxi.csv"},
        "bike.json": {"kind": "bike", "trips_csv": "bike_trips.csv", "riders_csv": "bike_riders.csv",
                      "neighborhoods": ["Ballard", "Downtown", "Fremont"], "companies": ["A", "B"]},
    }
    for name, obj in configs.items():
        (d / name).write_text(json.dumps(obj), encoding="utf8")
    with open(d / "taxi.csv", "w", newline="", encoding="utf8") as f:
        csv.writer(f).writerows([TAXI_HEADER, *_taxi_rows()])
    nhoods = ("Ballard", "Downtown", "Fremont")
    with open(d / "bike_trips.csv", "w", newline="", encoding="utf8") as f:
        rows = [["rider_id", "start_nhood", "end_nhood", "start_time", "company"]]
        for i in range(30):  # company A's riders are all female: the constant-gender warning
            rows.append([f"r{i % 8}", nhoods[i % 3], nhoods[(i * 2) % 3], f"{(5 * i) % 24:02d}:15", "AB"[i % 8 // 4]])
        rows += [["ghost", "Ballard", "Fremont", "08:00", "A"], ["r1", "Atlantis", "Ballard", "08:00", "A"],
                 ["r2", "Ballard", "", "08:00", "A"]]
        csv.writer(f).writerows(rows)
    with open(d / "bike_riders.csv", "w", newline="", encoding="utf8") as f:
        riders = [[f"r{i}", "female" if i < 4 or i % 2 else "male", "yes" if i % 3 else "no"] for i in range(8)]
        csv.writer(f).writerows([["rider_id", "gender", "helmet"], *riders])


def _commands(d: Path) -> dict[str, list[str]]:
    hist = ["--schema", str(d / "schema.json"), "--input", str(d / "input.csv")]
    return {
        "release-privacy-first": ["release", "--config", str(d / "privacy_first.json")],
        "release-bias-first-n": ["release", "--config", str(d / "bias_first.json")],
        "sweep": ["sweep", "--config", str(d / "privacy_first.json"), "--epsilons", "0.5,2", "--rhos", "0.9",
                  "--trials", "2"],
        "measure": ["measure", str(d / "input.csv"), str(d / "other.csv"), "--schema", str(d / "schema.json"),
                    "--replicates", "20", "--seed", "5", "--replicates-csv"],
        "repair-largest-remainder": ["repair", "--config", str(d / "repair.json"), *hist],
        "repair-half-even": ["repair", "--config", str(d / "repair.json"), *hist, "--rounding", "half_even"],
        "privatize": ["privatize", "--config", str(d / "privatize.json"), *hist],
        "privatize-n": ["privatize", "--config", str(d / "privatize_n.json"), *hist],
        "ingest-taxi": ["ingest", "--config", str(d / "taxi.json")],
        "ingest-bike": ["ingest", "--config", str(d / "bike.json")],
        "synth": ["synth", "--config", str(d / "synth.json"), "--seed", "8"],
    }


def run_all() -> dict[str, dict]:
    """Exit code and per-file SHA-256 of each command's output directory."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the bike ingest's data-quality warning
        d = Path(tmp)
        _write_inputs(d)
        for name, argv in _commands(d).items():
            out = d / "out" / name
            code = main([*argv, "--out", str(out)])
            files = {
                p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*")) if p.is_file()
            }
            results[name] = {"exit": code, "files": files}
    return results


def test_outputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf8"))
    assert NUMPY_KEY in golden, (
        f"no golden digests for numpy {NUMPY_KEY}; check the outputs, then run: {REGENERATE}"
    )
    expected = golden[NUMPY_KEY]
    actual = run_all()
    changed = sorted(name for name in expected.keys() | actual.keys() if expected.get(name) != actual.get(name))
    assert not changed, f"output bytes changed for {changed}; if intended, run: {REGENERATE}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    golden = json.loads(GOLDEN.read_text(encoding="utf8")) if GOLDEN.exists() else {}
    golden[NUMPY_KEY] = run_all()
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf8")
    print(f"wrote digests for numpy {NUMPY_KEY} to {GOLDEN}")
