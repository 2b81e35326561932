"""Deterministic inputs and CLI invocations for each benchmark workload.

Everything here is a pure function of the workload seed: the same seed
writes the same bytes.  Inputs are built before any timed interval; the
program under test only ever sees the files written here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("release-m", "sweep-m", "taxi-l")

M_TRIPS = 1_000_000
SWEEP_EPSILONS = "0.5,1,2"
SWEEP_RHOS = "0.5,0.9"
SWEEP_TRIALS = 2
SWEEP_ROWS = 3 * 2 * SWEEP_TRIALS
TAXI_ROWS = 1_000_000
TAXI_REPLICATES = 20

# Rows of each rejected kind in the generated taxi CSV, as a share of all
# rows.  Counts are exact, so the retained share is the same for every seed.
TAXI_REJECTS = {
    "missing": 0.02,  # one empty field
    "cash": 0.10,  # payment_type outside card_values
    "bad_number": 0.015,  # float() fails
    "bad_time": 0.005,  # time_bucket() fails
    "bad_fare": 0.01,  # fare <= 0
    "out_of_box": 0.03,  # a coordinate outside the bounding box
}
TAXI_BBOX = (-74.3, -73.6, 40.4, 41.0)
TAXI_COLUMNS = (
    "pickup_datetime",
    "pickup_longitude",
    "pickup_latitude",
    "dropoff_longitude",
    "dropoff_latitude",
    "trip_distance",
    "fare_amount",
    "tip_amount",
    "payment_type",
    "hack_license",
)


def derive(seed: int, label: str) -> int:
    """Stable 31-bit child seed of the workload seed for one input."""
    digest = hashlib.blake2b(f"{int(seed)}/{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 33


def reject_counts(rows: int) -> dict[str, int]:
    return {kind: round(share * rows) for kind, share in TAXI_REJECTS.items()}


def taxi_retained(rows: int) -> int:
    """Rows of a generated CSV that survive taxi preprocessing."""
    return rows - sum(reject_counts(rows).values())


def m_config(seed: int) -> dict:
    """The M-scale pipeline: README config with 4000 OD pairs and 1M trips."""
    return {
        "synth": {
            "generate_od": {
                "n_neighborhoods": 90,
                "n_pairs": 4000,
                "total": 50000,
                "seed": derive(seed, "od"),
            },
            "trips": M_TRIPS,
            "mode": "correlated",
            "seed": derive(seed, "synth"),
        },
        "repair": {"x": "gender", "y": "rating", "z": ["origin", "destination"]},
        "privacy": {"epsilon": 1.0, "rho": 0.5},
        "order": "privacy-first",
        "bootstrap": {"replicates": 200},
        "seed": derive(seed, "pipeline"),
    }


def _fixed(values: np.ndarray, decimals: int) -> list[str]:
    fmt = f"{{:.{decimals}f}}".format
    return [fmt(v) for v in values.tolist()]


def write_taxi_csv(path, seed: int, rows: int = TAXI_ROWS) -> None:
    """A taxi-shaped trip+fare CSV in the January 2013 TLC column layout.

    Pickups and dropoffs cluster around a few hot spots inside the bounding
    box, drivers follow a Zipf-like trip count, and exact numbers of rows
    fall into each rejected kind of TAXI_REJECTS.
    """
    rng = np.random.default_rng(derive(seed, "taxi"))
    lon_min, lon_max, lat_min, lat_max = TAXI_BBOX
    spots = np.array([[-73.98, 40.75], [-73.87, 40.77], [-73.78, 40.64], [-74.1, 40.6]])
    spot_p = np.array([0.55, 0.2, 0.15, 0.1])

    def points():
        which = rng.choice(len(spots), size=rows, p=spot_p)
        xy = spots[which] + rng.normal(0.0, 0.05, size=(rows, 2))
        xy[:, 0] = np.clip(xy[:, 0], lon_min + 1e-3, lon_max - 1e-3)
        xy[:, 1] = np.clip(xy[:, 1], lat_min + 1e-3, lat_max - 1e-3)
        return xy

    pick, drop = points(), points()
    distance = np.round(rng.lognormal(0.6, 0.7, size=rows), 2)
    fare = np.round(2.5 + 2.0 * distance + rng.uniform(0.0, 3.0, size=rows), 2)
    tip = np.round(fare * rng.choice([0.0, 0.1, 0.2, 0.25], size=rows, p=[0.3, 0.2, 0.3, 0.2]), 2)
    ranks = np.arange(1, 8001)
    driver_p = ranks ** -0.6 / np.sum(ranks ** -0.6)
    driver = rng.choice(len(ranks), size=rows, p=driver_p)
    day = rng.integers(1, 32, size=rows)
    second = rng.integers(0, 86400, size=rows)

    cols = {
        "pickup_datetime": [
            f"2013-01-{d:02d} {s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d}"
            for d, s in zip(day.tolist(), second.tolist())
        ],
        "pickup_longitude": _fixed(pick[:, 0], 6),
        "pickup_latitude": _fixed(pick[:, 1], 6),
        "dropoff_longitude": _fixed(drop[:, 0], 6),
        "dropoff_latitude": _fixed(drop[:, 1], 6),
        "trip_distance": _fixed(distance, 2),
        "fare_amount": _fixed(fare, 2),
        "tip_amount": _fixed(tip, 2),
        "payment_type": ["CRD"] * rows,
        "hack_license": [f"D{d:05d}" for d in driver.tolist()],
    }

    order = rng.permutation(rows)
    start = 0
    for kind, count in reject_counts(rows).items():
        for i in order[start : start + count].tolist():
            if kind == "missing":
                cols[TAXI_COLUMNS[i % len(TAXI_COLUMNS)]][i] = ""
            elif kind == "cash":
                cols["payment_type"][i] = "CSH"
            elif kind == "bad_number":
                cols["trip_distance"][i] = "1.2.3"
            elif kind == "bad_time":
                cols["pickup_datetime"][i] = "not-a-time"
            elif kind == "bad_fare":
                cols["fare_amount"][i] = "0.00"
            else:
                cols["dropoff_latitude"][i] = "41.900000"
        start += count

    with open(path, "w", encoding="utf8", newline="") as f:
        f.write(",".join(TAXI_COLUMNS) + "\n")
        f.write("\n".join(map(",".join, zip(*(cols[c] for c in TAXI_COLUMNS)))))
        f.write("\n")


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a workload and the work it stands for."""

    argv: tuple[str, ...]
    out: Path
    kind: str  # "release", "sweep" or "ingest"


def _write_json(obj, path: Path) -> Path:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf8")
    return path


def prepare_inputs(workload: str, seed: int, root: Path) -> dict:
    """Write the seed-derived input files shared by every pass of one run."""
    root.mkdir(parents=True, exist_ok=True)
    if workload in ("release-m", "sweep-m"):
        return {"config": _write_json(m_config(seed), root / "pipeline.json")}
    if workload == "taxi-l":
        trips = root / "trips.csv"
        write_taxi_csv(trips, seed)
        return {"trips_csv": trips, "pipeline_seed": derive(seed, "pipeline")}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def steps(workload: str, inputs: dict, out_root: Path) -> list[Step]:
    """The CLI invocations of one iteration, writing under out_root."""
    out_root.mkdir(parents=True, exist_ok=True)
    if workload == "release-m":
        out = out_root / "release"
        return [Step(("release", "--config", str(inputs["config"]), "--out", str(out)), out, "release")]
    if workload == "sweep-m":
        out = out_root / "sweep"
        argv = (
            "sweep", "--config", str(inputs["config"]), "--epsilons", SWEEP_EPSILONS,
            "--rhos", SWEEP_RHOS, "--trials", str(SWEEP_TRIALS), "--out", str(out),
        )
        return [Step(argv, out, "sweep")]
    ingest_out = out_root / "ingest"
    release_out = out_root / "release"
    ingest_cfg = _write_json(
        {"kind": "taxi", "trips_csv": str(inputs["trips_csv"])}, out_root / "ingest.json"
    )
    release_cfg = _write_json(
        {
            "input": str(ingest_out / "histogram.csv"),
            "schema": str(ingest_out / "schema.json"),
            "repair": {"x": "dist", "y": "tip", "z": ["o_lon", "o_lat", "d_lon", "d_lat"]},
            "privacy": {"epsilon": 1.0, "rho": 0.5},
            "order": "privacy-first",
            "bootstrap": {"replicates": TAXI_REPLICATES},
            "seed": inputs["pipeline_seed"],
        },
        out_root / "release.json",
    )
    return [
        Step(("ingest", "--config", str(ingest_cfg), "--out", str(ingest_out)), ingest_out, "ingest"),
        Step(("release", "--config", str(release_cfg), "--out", str(release_out)), release_out, "release"),
    ]


def work_units(workload: str) -> int:
    """Work done by one iteration: trips, sweep trials or CSV rows."""
    return {"release-m": M_TRIPS, "sweep-m": SWEEP_ROWS, "taxi-l": TAXI_ROWS}[workload]
