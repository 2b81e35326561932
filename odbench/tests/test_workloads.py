import csv
import hashlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402
from odrelease import TaxiConfig, taxi_preprocess  # noqa: E402

ROWS = 4000


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_taxi_csv_is_a_function_of_the_seed(tmp_path):
    for seed in (0, 1, 12345):
        a, b = tmp_path / f"a{seed}.csv", tmp_path / f"b{seed}.csv"
        workloads.write_taxi_csv(a, seed, rows=ROWS)
        workloads.write_taxi_csv(b, seed, rows=ROWS)
        assert _digest(a) == _digest(b)
    assert _digest(tmp_path / "a0.csv") != _digest(tmp_path / "a1.csv")


def test_m_config_is_a_function_of_the_seed():
    for seed in (0, 1, 12345):
        assert workloads.m_config(seed) == workloads.m_config(seed)
    assert workloads.m_config(0) != workloads.m_config(1)


def test_taxi_rejects_reach_every_branch_at_fixed_counts(tmp_path):
    expected = workloads.reject_counts(ROWS)
    for seed in (3, 4):
        path = tmp_path / f"trips{seed}.csv"
        workloads.write_taxi_csv(path, seed, rows=ROWS)
        with open(path, newline="", encoding="utf8") as f:
            stats = taxi_preprocess(csv.DictReader(f), TaxiConfig()).stats
        assert stats.rows == ROWS
        assert stats.retained == workloads.taxi_retained(ROWS)
        assert stats.dropped_missing == expected["missing"]
        assert stats.dropped_filtered == expected["cash"] + expected["out_of_box"]
        assert stats.malformed == expected["bad_number"] + expected["bad_time"] + expected["bad_fare"]


def test_steps_write_only_under_their_roots(tmp_path):
    for name in workloads.WORKLOADS:
        inputs = {"config": tmp_path / "pipeline.json", "trips_csv": tmp_path / "trips.csv", "pipeline_seed": 1}
        for step in workloads.steps(name, inputs, tmp_path / name):
            assert step.out.is_relative_to(tmp_path / name)
            assert step.argv[step.argv.index("--out") + 1] == str(step.out)
