import ast
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odrelease
from odrelease import (
    AttributeSchema,
    ConfigError,
    Histogram,
    derive_seed,
    read_histogram_csv,
    write_histogram_csv,
)
from odrelease import cli, csvio, metrics, parallel
from odrelease.cli import PipelineConfig, main, run_measure, run_release, run_sweep
from helpers import assert_no_child_left, recording_pids


def write_small_input(tmp_path, counts=None):
    schema = AttributeSchema(
        (("origin", ("o1", "o2", "o3")), ("gender", ("m", "f")), ("rating", ("1", "2")))
    )
    if counts is None:
        counts = {
            ("o1", "m", "1"): 40, ("o1", "m", "2"): 12, ("o1", "f", "1"): 14,
            ("o1", "f", "2"): 34, ("o2", "m", "1"): 21, ("o2", "m", "2"): 6,
            ("o2", "f", "1"): 9, ("o2", "f", "2"): 17, ("o3", "m", "1"): 5,
            ("o3", "f", "2"): 4,
        }
    h = Histogram(schema, counts)
    schema.save(tmp_path / "schema.json")
    write_histogram_csv(h, tmp_path / "input.csv")
    return schema, h


def pipeline_obj(**overrides):
    obj = {
        "schema": "schema.json",
        "input": "input.csv",
        "repair": {"x": "gender", "y": "rating", "z": ["origin"]},
        "privacy": {"epsilon": 2.0, "rho": 0.9},
        "seed": 11,
        "bootstrap": {"replicates": 25},
    }
    obj.update(overrides)
    return obj


def write_pipeline_config(tmp_path, **overrides):
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(pipeline_obj(**overrides)))
    return path


class TestPipelineConfig:
    def test_order_inference(self, tmp_path):
        write_small_input(tmp_path)
        cfg = PipelineConfig.load(write_pipeline_config(tmp_path))
        assert cfg.order == "privacy-first"
        cfg = PipelineConfig.load(write_pipeline_config(tmp_path, privacy=None))
        assert cfg.order == "repair-only"
        cfg = PipelineConfig.load(write_pipeline_config(tmp_path, repair=None))
        assert cfg.order == "privacy-only"

    def test_inconsistent_order_rejected(self, tmp_path):
        write_small_input(tmp_path)
        path = write_pipeline_config(tmp_path, privacy=None, order="privacy-first")
        with pytest.raises(Exception):
            PipelineConfig.load(path)

    @pytest.mark.parametrize(
        "repair, privacy, valid_orders",
        [
            (True, True, {"privacy-first", "bias-first"}),
            (True, False, {"repair-only"}),
            (False, True, {"privacy-only"}),
        ],
    )
    def test_order_must_match_configured_stages(self, tmp_path, repair, privacy, valid_orders):
        write_small_input(tmp_path)
        overrides = {}
        if not repair:
            overrides["repair"] = None
        if not privacy:
            overrides["privacy"] = None
        for order in ("privacy-first", "bias-first", "repair-only", "privacy-only"):
            path = write_pipeline_config(tmp_path, order=order, **overrides)
            if order in valid_orders:
                assert PipelineConfig.load(path).order == order
            else:
                with pytest.raises(ConfigError):
                    PipelineConfig.load(path)

    def test_no_stage_rejected(self, tmp_path):
        write_small_input(tmp_path)
        path = write_pipeline_config(tmp_path, privacy=None, repair=None)
        with pytest.raises(Exception):
            PipelineConfig.load(path)


class TestReleaseCommand:
    def test_repair_only_outputs(self, tmp_path):
        write_small_input(tmp_path)
        cfg_path = write_pipeline_config(tmp_path, privacy=None)
        out = tmp_path / "out"
        code = main(["release", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "repair_report.json").read_text())
        assert set(report) == {"cmi_before", "cmi_after", "kl", "total_before", "total_after_rounded"}
        assert report["cmi_after"] <= report["cmi_before"] + 1e-9
        dist = json.loads((out / "distance_report.json").read_text())
        assert dist["baseline"] is not None
        schema = AttributeSchema.load(out / "schema.json")
        released = read_histogram_csv(out / "released.csv", schema)
        assert released.total > 0
        assert not (out / "release_report.json").exists()

    def test_bit_for_bit_reproducible(self, tmp_path):
        write_small_input(tmp_path)
        cfg_path = write_pipeline_config(tmp_path)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["release", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["release", "--config", str(cfg_path), "--out", str(out2)]) == 0
        for name in ("released.csv", "distance_report.json", "release_report.json", "repair_report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_both_orders_succeed(self, tmp_path):
        write_small_input(tmp_path)
        for order in ("privacy-first", "bias-first"):
            cfg_path = write_pipeline_config(tmp_path, order=order)
            out = tmp_path / f"out_{order}"
            assert main(["release", "--config", str(cfg_path), "--out", str(out)]) == 0
            assert (out / "release_report.json").exists()
            assert (out / "repair_report.json").exists()

    def test_empty_release_exit_code(self, tmp_path):
        # epsilon 0.1 with rho 0.99 over this sparse schema pushes tau above
        # every count: empty release, exit 4 by default, 0 when opted out
        schema = AttributeSchema(
            (("origin", tuple(f"o{i}" for i in range(40))), ("gender", ("m", "f")))
        )
        h = Histogram(schema, {("o1", "m"): 5, ("o2", "f"): 3})
        schema.save(tmp_path / "schema.json")
        write_histogram_csv(h, tmp_path / "input.csv")
        cfg_path = write_pipeline_config(
            tmp_path, repair=None, privacy={"epsilon": 0.1, "rho": 0.99}
        )
        out = tmp_path / "out"
        assert main(["release", "--config", str(cfg_path), "--out", str(out)]) == 4
        released = read_histogram_csv(out / "released.csv", schema)
        assert len(released) == 0
        report = json.loads((out / "distance_report.json").read_text())
        assert report["pwkt"] is None and "warning" in report

        cfg_path2 = tmp_path / "pipeline2.json"
        cfg_path2.write_text(
            json.dumps(pipeline_obj(repair=None, privacy={"epsilon": 0.1, "rho": 0.99}, empty_release_ok=True))
        )
        assert main(["release", "--config", str(cfg_path2), "--out", str(tmp_path / "out2")]) == 0

    def test_zero_cmi_input_measures_zero(self, tmp_path):
        # independent gender/rating within each origin stratum
        schema = AttributeSchema(
            (("origin", ("o1",)), ("gender", ("m", "f")), ("rating", ("1", "2")))
        )
        counts = {
            ("o1", "m", "1"): 10, ("o1", "m", "2"): 10,
            ("o1", "f", "1"): 10, ("o1", "f", "2"): 10,
        }
        Histogram(schema, counts)  # sanity
        schema.save(tmp_path / "schema.json")
        write_histogram_csv(Histogram(schema, counts), tmp_path / "input.csv")
        cfg_path = write_pipeline_config(tmp_path, privacy=None)
        out = tmp_path / "out"
        assert main(["release", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "repair_report.json").read_text())
        assert report["cmi_before"] == 0.0
        dist = json.loads((out / "distance_report.json").read_text())
        assert dist["pwkt"] == 0.0 and dist["hellinger"] == 0.0


class TestMeasureCommand:
    def test_identical_files(self, tmp_path):
        schema, h = write_small_input(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "measure", str(tmp_path / "input.csv"), str(tmp_path / "input.csv"),
                "--schema", str(tmp_path / "schema.json"),
                "--replicates", "20", "--out", str(out), "--replicates-csv",
            ]
        )
        assert code == 0
        report = json.loads((out / "distance_report.json").read_text())
        assert report["pwkt"] == 0.0 and report["hellinger"] == 0.0
        # self distance 0 lies below the band whenever the band is positive
        assert report["band"]["hellinger"]["p2_5"] >= 0.0
        lines = (out / "replicate_distances.csv").read_text().strip().splitlines()
        assert lines[0] == "replicate,pwkt,hellinger"
        assert len(lines) == 21

    def test_replicates_csv_reuses_the_report_bootstrap(self, tmp_path, monkeypatch):
        write_small_input(tmp_path)
        calls = []

        original = metrics.bootstrap_distances

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "bootstrap_distances", counting)
        monkeypatch.setattr(metrics, "bootstrap_distances", counting)
        out = tmp_path / "out"
        assert main(
            [
                "measure", str(tmp_path / "input.csv"), str(tmp_path / "input.csv"),
                "--schema", str(tmp_path / "schema.json"),
                "--replicates", "30", "--out", str(out), "--replicates-csv",
            ]
        ) == 0
        assert len(calls) == 1
        report = json.loads((out / "distance_report.json").read_text())
        rows = np.loadtxt(out / "replicate_distances.csv", delimiter=",", skiprows=1)
        for col, name in ((1, "pwkt"), (2, "hellinger")):
            assert report["band"][name]["mean"] == pytest.approx(rows[:, col].mean(), abs=1e-9)

    def test_schema_mismatch_is_data_error(self, tmp_path):
        schema, h = write_small_input(tmp_path)
        other_schema = AttributeSchema((("x", ("a",)),))
        other_schema.save(tmp_path / "other_schema.json")
        write_histogram_csv(Histogram(other_schema, {("a",): 1}), tmp_path / "other.csv")
        code = main(
            [
                "measure", str(tmp_path / "input.csv"), str(tmp_path / "other.csv"),
                "--schema", str(tmp_path / "schema.json"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 3


class TestExitCodes:
    def test_config_error_missing_file(self, tmp_path):
        assert main(["release", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_config_error_bad_order(self, tmp_path):
        write_small_input(tmp_path)
        path = write_pipeline_config(tmp_path, order="sideways")
        assert main(["release", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_data_error_negative_count(self, tmp_path):
        write_small_input(tmp_path)
        (tmp_path / "input.csv").write_text("origin,gender,rating,count\no1,m,1,-2\n")
        path = write_pipeline_config(tmp_path)
        assert main(["release", "--config", str(path), "--out", str(tmp_path / "o")]) == 3


def run_cli(argv, cwd):
    """The CLI in a fresh interpreter, so an escaped exception shows as a traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(odrelease.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "odrelease", *argv], cwd=cwd, env=env, capture_output=True, text=True
    )


def release_argv(tmp_path, **overrides):
    write_small_input(tmp_path)
    return ["release", "--config", str(write_pipeline_config(tmp_path, **overrides))]


def synth_release_argv(tmp_path):
    synth = {"generate_od": {"n_neighborhoods": 4, "n_pairs": 3, "bogus": 1}, "trips": 100}
    return release_argv(tmp_path, input=None, schema=None, synth=synth)


def generate_od_argv(tmp_path, **fields):
    return synth_argv(tmp_path, generate_od={"n_neighborhoods": 4, "n_pairs": 3, **fields})


def taxi_ingest_argv(tmp_path, **fields):
    path = tmp_path / "ingest.json"
    path.write_text(json.dumps({"kind": "taxi", **fields}))
    return ["ingest", "--config", str(path)]


def taxi_config_argv(tmp_path, **fields):
    """A taxi ingest of one valid trip, with the given config fields."""
    trip = {
        "pickup_datetime": "2013-01-11 08:15:00", "pickup_longitude": "-74.0", "pickup_latitude": "40.7",
        "dropoff_longitude": "-73.9", "dropoff_latitude": "40.8", "trip_distance": "2.0",
        "fare_amount": "10.0", "tip_amount": "2.0", "payment_type": "CRD", "hack_license": "d1",
    }
    (tmp_path / "trips.csv").write_text(",".join(trip) + "\n" + ",".join(trip.values()) + "\n")
    return taxi_ingest_argv(tmp_path, trips_csv="trips.csv", **fields)


def sweep_argv(tmp_path):
    return ["sweep", *release_argv(tmp_path)[1:], "--epsilons", "x", "--rhos", "0.5"]


def repair_argv(tmp_path, spec):
    write_small_input(tmp_path)
    path = tmp_path / "repair.json"
    path.write_text(json.dumps(spec))
    return [
        "repair", "--config", str(path), "--schema", str(tmp_path / "schema.json"),
        "--input", str(tmp_path / "input.csv"),
    ]


def with_input_count(tmp_path, argv, raw, other="3"):
    """argv, after replacing the small input with one holding the counts `raw` and `other`."""
    (tmp_path / "input.csv").write_text(f"origin,gender,rating,count\no1,m,1,{raw}\no2,f,2,{other}\n")
    return argv


def with_empty_input(tmp_path, argv):
    """argv, after replacing the small input with one holding no bucket."""
    (tmp_path / "input.csv").write_text("origin,gender,rating,count\n")
    return argv


def repair_argv_with_count(tmp_path, raw):
    return with_input_count(tmp_path, repair_argv(tmp_path, {"x": "gender", "y": "rating", "z": ["origin"]}), raw)


def bike_ingest_argv(tmp_path, **fields):
    """A bike ingest in which company A reports a single gender, with the given config fields."""
    (tmp_path / "trips.csv").write_text(
        "rider_id,start_nhood,end_nhood,start_time,company\n"
        "r1,Ballard,Fremont,08:00,A\nr2,Fremont,Ballard,09:00,B\nr3,Ballard,Ballard,18:00,B\n"
    )
    (tmp_path / "riders.csv").write_text("rider_id,gender,helmet\nr1,female,yes\nr2,female,no\nr3,male,yes\n")
    config = {"kind": "bike", "trips_csv": "trips.csv", "riders_csv": "riders.csv",
              "neighborhoods": ["Ballard", "Fremont"], "companies": ["A", "B"], **fields}
    (tmp_path / "bike.json").write_text(json.dumps(config))
    return ["ingest", "--config", str(tmp_path / "bike.json")]


def synth_argv(tmp_path, **fields):
    """A pipeline over a tiny generated synth source, with the given synth config fields."""
    synth = {"generate_od": {"n_neighborhoods": 4, "n_pairs": 3}, "trips": 100, **fields}
    return release_argv(tmp_path, input=None, schema=None, synth=synth)


def privatize_argv(tmp_path, privacy):
    write_small_input(tmp_path)
    path = tmp_path / "privacy.json"
    path.write_text(json.dumps(privacy))
    return [
        "privatize", "--config", str(path), "--schema", str(tmp_path / "schema.json"),
        "--input", str(tmp_path / "input.csv"),
    ]


def with_replaced(path, argv, old, new):
    """argv, after replacing `old` by `new` in the file at path and writing it in Latin-1: not UTF-8 unless ASCII."""
    path.write_bytes(path.read_text().replace(old, new).encode("latin-1"))
    return argv


def misspelt_pipeline_argv(tmp_path, key, typo):
    """A pipeline whose `key` is spelt `typo`."""
    return with_replaced(tmp_path / "pipeline.json", release_argv(tmp_path), f'"{key}"', f'"{typo}"')


LONG_FIELD = "d" * 200_000  # over the csv module's default field limit of 131,072 characters


MALFORMED_INPUTS = {
    "epsilon-not-a-number": (lambda t: release_argv(t, privacy={"epsilon": "abc", "rho": 0.9}), 2),
    "n-a-string": (lambda t: release_argv(t, privacy={"epsilon": 1.0, "rho": 0.9, "n": "7"}), 2),
    "privatize-rho-not-a-number": (lambda t: privatize_argv(t, {"epsilon": 1.0, "rho": [0.5]}), 2),
    "unknown-generate-od-key": (synth_release_argv, 2),
    "taxi-without-trips-csv": (taxi_ingest_argv, 2),
    "sweep-epsilon-not-a-number": (sweep_argv, 2),
    "one-bootstrap-replicate": (lambda t: release_argv(t, bootstrap={"replicates": 1}), 2),
    "nan-count": (lambda t: repair_argv_with_count(t, "nan"), 3),
    "inf-count": (lambda t: repair_argv_with_count(t, "inf"), 3),
    "count-whose-margin-products-underflow": (lambda t: repair_argv_with_count(t, "1e-200"), 3),
    "count-whose-margin-products-overflow": (lambda t: repair_argv_with_count(t, "1e300"), 3),
    "counts-whose-total-overflows": (lambda t: with_input_count(t, measure_argv(t), "1.7e308", "1.7e308"), 3),
    "n-nan": (lambda t: release_argv(t, privacy={"epsilon": 1.0, "rho": 0.9, "n": math.nan}), 2),
    "n-fractional": (lambda t: release_argv(t, privacy={"epsilon": 1.0, "rho": 0.9, "n": 7.5}), 2),
    "n-infinite": (lambda t: release_argv(t, privacy={"epsilon": 1.0, "rho": 0.9, "n": math.inf}), 2),
    "n-beyond-int64": (lambda t: release_argv(t, privacy={"epsilon": 1.0, "rho": 0.9, "n": 1e30}), 2),
    "bootstrap-a-list": (lambda t: release_argv(t, bootstrap=[1]), 2),
    "taxi-bbox-not-a-number": (lambda t: taxi_config_argv(t, bbox={"lon_min": "west"}), 2),
    "taxi-bbox-three-values": (lambda t: taxi_config_argv(t, bbox=[-74.3, -73.6, 40.4]), 2),
    "taxi-tip-threshold-not-a-number": (lambda t: taxi_config_argv(t, tip_threshold="high"), 2),
    "taxi-columns-not-an-object": (lambda t: taxi_config_argv(t, columns=["pickup_datetime"]), 2),
    "repair-spec-without-x": (lambda t: release_argv(t, repair={"y": "rating", "z": ["origin"]}), 2),
    "repair-spec-x-equals-y": (lambda t: repair_argv(t, {"x": "rating", "y": "rating"}), 2),
    "repair-z-a-string": (lambda t: release_argv(t, repair={"x": "gender", "y": "rating", "z": "origin"}), 2),
    "repair-unknown-attribute": (lambda t: repair_argv(t, {"x": "colour", "y": "rating"}), 3),
    "taxi-card-values-a-number": (lambda t: taxi_config_argv(t, card_values=5), 2),
    "taxi-card-values-a-string": (lambda t: taxi_config_argv(t, card_values="CRD"), 2),
    "replicates-fractional": (lambda t: release_argv(t, bootstrap={"replicates": 2.5}), 2),
    "synth-trips-fractional": (lambda t: release_argv(t, input=None, schema=None, synth={
        "generate_od": {"n_neighborhoods": 4, "n_pairs": 3}, "trips": 2000.7}), 2),
    "seed-fractional": (lambda t: release_argv(t, seed=3.9), 2),
    "empty-release-ok-a-string": (lambda t: release_argv(t, empty_release_ok="false"), 2),
    "count-beyond-int64": (lambda t: with_input_count(t, release_argv(t), "10000000000000000000"), 3),
    "epsilon-infinite": (lambda t: release_argv(t, privacy={"epsilon": math.inf, "rho": 0.9}), 2),
    "epsilon-infinite-empty-input": (lambda t: with_empty_input(
        t, privatize_argv(t, {"epsilon": math.inf, "rho": 0.9, "n": 0})), 2),
    "epsilon-subnormal": (lambda t: privatize_argv(t, {"epsilon": 1e-320, "rho": 0.9}), 2),
    "noised-count-beyond-int64": (lambda t: privatize_argv(t, {"epsilon": 1e-305, "rho": 0.9}), 3),
    "generate-od-seed-fractional": (lambda t: generate_od_argv(t, seed=3.9), 2),
    "generate-od-seed-negative": (lambda t: generate_od_argv(t, seed=-1), 2),
    "generate-od-total-fractional": (lambda t: generate_od_argv(t, total=1000.7), 2),
    "generate-od-n-pairs-fractional": (lambda t: generate_od_argv(t, n_pairs=3.5), 2),
    "generate-od-n-neighborhoods-fractional": (lambda t: generate_od_argv(t, n_neighborhoods=4.5), 2),
    "generate-od-n-pairs-zero": (lambda t: generate_od_argv(t, n_pairs=0), 2),
    "bike-trip-columns-a-number": (lambda t: bike_ingest_argv(t, trip_columns=5), 2),
    "bike-companies-a-number": (lambda t: bike_ingest_argv(t, companies=7), 2),
    "bike-genders-null": (lambda t: bike_ingest_argv(t, genders=None), 2),
    "bike-neighborhoods-a-string": (lambda t: bike_ingest_argv(t, neighborhoods="BallardFremont"), 2),
    "bike-duplicate-neighborhoods": (lambda t: bike_ingest_argv(t, neighborhoods=["Ballard", "Fremont", "Ballard"]), 2),
    "synth-rating-distribution-nan": (lambda t: synth_argv(t, rating_distribution=[math.nan, 0.5, 0.5, 0, 0]), 2),
    "synth-gender-domain-a-string": (lambda t: synth_argv(t, gender_domain="mf"), 2),
    "synth-a-string": (lambda t: release_argv(t, input=None, schema=None, synth="x"), 2),
    "ingest-a-string": (lambda t: release_argv(t, input=None, schema=None, ingest="x"), 2),
    "schema-a-number": (lambda t: release_argv(t, schema=5), 2),
    "input-a-number": (lambda t: release_argv(t, input=5), 2),
    "taxi-bbox-infinite": (lambda t: taxi_config_argv(t, bbox=[-math.inf, -73.6, 40.4, 41.0]), 2),
    "taxi-bbox-nan": (lambda t: taxi_config_argv(t, bbox=[-74.3, -73.6, math.nan, 41.0]), 2),
    "taxi-bbox-unknown-key": (lambda t: taxi_config_argv(t, bbox={"lon_mn": -74.0}), 2),
    "taxi-tip-threshold-nan": (lambda t: taxi_config_argv(t, tip_threshold=math.nan), 2),
    "taxi-column-name-a-number": (lambda t: taxi_config_argv(t, columns={"fare_amount": 5}), 2),
    "taxi-columns-unknown-role": (lambda t: taxi_config_argv(t, columns={"fare": "fare_amount", "tips": "tip"}), 2),
    "bike-trip-columns-unknown-role": (lambda t: bike_ingest_argv(t, trip_columns={"start_time": "start_time"}), 2),
    "epsilon-a-numeric-string": (lambda t: release_argv(t, privacy={"epsilon": "1.5", "rho": 0.9}), 2),
    "epsilon-true": (lambda t: privatize_argv(t, {"epsilon": True, "rho": 0.9}), 2),
    "epsilon-integer-beyond-float": (lambda t: privatize_argv(t, {"epsilon": 10**400, "rho": 0.9}), 2),
    "seed-flag-negative": (lambda t: [*release_argv(t), "--seed", "-1"], 2),
    "taxi-bbox-reversed": (lambda t: taxi_config_argv(t, bbox={"lon_min": 2.5}), 2),
    "taxi-bbox-beyond-globe": (lambda t: taxi_config_argv(t, bbox=[-74.3, -73.6, 40.4, 91.0]), 2),
    "schema-next-to-synth": (lambda t: release_argv(t, input=None, schema="7", synth={
        "generate_od": {"n_neighborhoods": 4, "n_pairs": 3}, "trips": 100}), 2),
    "config-not-utf8": (lambda t: with_replaced(t / "pipeline.json", release_argv(t), "gender", "g\u00e9nder"), 2),
    "config-nested-too-deep": (lambda t: with_replaced(t / "pipeline.json", release_argv(t), "{", "[" * 100_000), 2),
    "schema-not-utf8": (lambda t: with_replaced(t / "schema.json", release_argv(t), "o1", "\u00f61"), 2),
    "histogram-csv-not-utf8": (lambda t: with_replaced(t / "input.csv", release_argv(t), "o1", "\u00f61"), 3),
    "taxi-csv-not-utf8": (lambda t: with_replaced(t / "trips.csv", taxi_config_argv(t), "d1", "d\u00e9"), 3),
    "bike-trips-csv-not-utf8": (lambda t: with_replaced(t / "trips.csv", bike_ingest_argv(t), "r1", "r\u00e91"), 3),
    "histogram-csv-long-field": (lambda t: with_replaced(t / "input.csv", release_argv(t), "o1", LONG_FIELD), 3),
    "taxi-csv-long-field": (lambda t: with_replaced(t / "trips.csv", taxi_config_argv(t), "d1", LONG_FIELD), 3),
    "pipeline-privacy-misspelt": (lambda t: misspelt_pipeline_argv(t, "privacy", "privcy"), 2),
    "privacy-n-capitalised": (lambda t: release_argv(t, privacy={"epsilon": 1.0, "rho": 0.9, "N": 5}), 2),
    "pipeline-bootstrap-misspelt": (lambda t: misspelt_pipeline_argv(t, "bootstrap", "boostrap"), 2),
    "taxi-tip-threshold-misspelt": (lambda t: taxi_config_argv(t, tip_treshold=0.3), 2),
    "bike-helmet-values-misspelt": (lambda t: bike_ingest_argv(t, helmets=["yes", "no"]), 2),
    "bike-neighborhoods-and-a-missing-file": (lambda t: bike_ingest_argv(t, neighborhoods_file="missing.txt"), 2),
    "fractional-input-repair-only": (lambda t: with_input_count(t, release_argv(t, privacy=None), "3.5"), 3),
    "taxi-csv-nul-byte": (lambda t: with_replaced(t / "trips.csv", taxi_config_argv(t), "d1", "d\x00"), 3),
    "bike-trips-csv-nul-byte": (lambda t: with_replaced(t / "trips.csv", bike_ingest_argv(t), "r1", "r\x001"), 3),
    "bike-riders-csv-nul-byte": (lambda t: with_replaced(t / "riders.csv", bike_ingest_argv(t), "r2", "r\x002"), 3),
    "bike-neighborhoods-file-nul-byte": (lambda t: with_replaced(
        t / "nhoods.txt", bike_file_ingest_argv(t), "Fremont\n", "Fremont\nQueen\x00Anne\n"), 3),
    "schema-label-nul": (lambda t: with_replaced(
        t / "schema.json", privatize_argv(t, {"epsilon": 5.0, "rho": 0.9}), '"o3"', '"o3", "o\\u00003"'), 3),
    "synth-both-rating-distributions": (lambda t: synth_command_argv(t, {
        "generate_od": {"n_neighborhoods": 4, "n_pairs": 3}, "trips": 100,
        "rating_distribution": [0.2] * 5, "rating_distributions": [1, 0, 0, 0, 0]}), 2),
    "synth-gender-domain-label-nul": (lambda t: synth_argv(t, gender_domain=["m", "f\0"]), 2),
    "bike-neighborhoods-label-nul": (lambda t: bike_ingest_argv(t, neighborhoods=["Ballard", "Fremont", "Q\0A"]), 2),
    "taxi-card-values-label-nul": (lambda t: taxi_config_argv(t, card_values=["CRD", "C\0"]), 2),
    "repair-name-nul": (lambda t: repair_argv(t, {"x": "gender\0", "y": "rating"}), 2),
    "repair-z-name-nul": (lambda t: release_argv(t, repair={"x": "gender", "y": "rating", "z": ["\0"]}), 2),
    "input-path-nul": (lambda t: release_argv(t, input="input.csv\0"), 2),
    "taxi-trips-csv-path-nul": (lambda t: taxi_ingest_argv(t, trips_csv="trips\0.csv"), 2),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_exits_with_typed_error(tmp_path, case):
    make_argv, code = MALFORMED_INPUTS[case]
    out = tmp_path / "out"
    proc = run_cli([*make_argv(tmp_path), "--out", str(out)], cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert proc.stderr.startswith("config error:" if code == 2 else "data error:")
    assert not out.exists()  # rejected before any output is written


def measure_argv(tmp_path):
    write_small_input(tmp_path)
    inputs = [str(tmp_path / "input.csv")] * 2
    return ["measure", *inputs, "--schema", str(tmp_path / "schema.json"), "--replicates", "2"]


# A valid run of each subcommand, without its --out.
SUBCOMMANDS = {
    "ingest": taxi_config_argv,
    "synth": lambda t: synth_command_argv(t, {"generate_od": {"n_neighborhoods": 4, "n_pairs": 3}, "trips": 100}),
    "repair": lambda t: repair_argv(t, {"x": "gender", "y": "rating", "z": ["origin"]}),
    "privatize": lambda t: privatize_argv(t, {"epsilon": 5.0, "rho": 0.9}),
    "release": release_argv,
    "measure": measure_argv,
    "sweep": lambda t: ["sweep", *release_argv(t)[1:], "--epsilons", "1", "--rhos", "0.5", "--trials", "1"],
}


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_out_that_cannot_be_created_is_a_config_error(tmp_path, command):
    argv = SUBCOMMANDS[command](tmp_path)
    (tmp_path / "a_file").write_text("")
    out = tmp_path / "a_file" / "out"
    proc = run_cli([*argv, "--out", str(out)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:") and str(out) in proc.stderr
    assert "Traceback" not in proc.stderr


def wide_measure_argv(tmp_path, buckets=320):
    """measure of a histogram against itself with enough buckets that its bootstrap forks workers."""
    assert buckets >= metrics._MIN_FORK_BUCKETS
    schema = AttributeSchema((("item", tuple(f"i{j:03d}" for j in range(buckets))),))
    schema.save(tmp_path / "schema.json")
    h = Histogram.from_codes(schema, np.arange(buckets), np.arange(buckets) % 7 + 1)
    write_histogram_csv(h, tmp_path / "h.csv")
    return ["measure", *[str(tmp_path / "h.csv")] * 2, "--schema", str(tmp_path / "schema.json"), "--replicates", "4"]


class TestResourceFaults:
    """A fault of the machine rather than of the input exits 2 with one `resource error:` line."""

    def ended(self, argv, out, capfd):
        code = main([*argv, "--out", str(out)])
        err = capfd.readouterr().err
        assert "Traceback" not in err and not out.exists()
        assert_no_child_left()
        return code, err.splitlines()

    def test_a_worker_that_dies_is_a_resource_error(self, tmp_path, monkeypatch, capfd):
        argv = wide_measure_argv(tmp_path)
        monkeypatch.setattr(parallel, "cpus_available", lambda: 2)
        caller, kernel = os.getpid(), metrics._pwkt_from_vectors
        monkeypatch.setattr(metrics, "_pwkt_from_vectors",
                            lambda *args: kernel(*args) if os.getpid() == caller else os._exit(1))
        assert self.ended(argv, tmp_path / "out", capfd) == (
            2, ["resource error: the worker running chunk 2 of 2 exited with code 1"])

    def test_running_out_of_memory_is_a_resource_error(self, tmp_path, monkeypatch, capfd):
        def read(*args):
            raise MemoryError

        argv = measure_argv(tmp_path)
        monkeypatch.setattr(cli, "read_histogram_csv", read)
        assert self.ended(argv, tmp_path / "out", capfd) == (2, ["resource error: out of memory"])


def synth_command_argv(tmp_path, config):
    """A synth command on the given config."""
    (tmp_path / "synth.json").write_text(json.dumps(config))
    return ["synth", "--config", str(tmp_path / "synth.json")]


def bike_file_ingest_argv(tmp_path):
    """A bike ingest that lists its neighborhoods in a file."""
    argv = bike_ingest_argv(tmp_path)
    config = json.loads((tmp_path / "bike.json").read_text())
    del config["neighborhoods"]
    (tmp_path / "nhoods.txt").write_text("Ballard\nFremont\n")
    (tmp_path / "bike.json").write_text(json.dumps({**config, "neighborhoods_file": "nhoods.txt"}))
    return argv


def od_seed_synth_argv(tmp_path):
    """A synth command whose od_seed is read from a histogram file."""
    schema = AttributeSchema((("origin", ("a", "b")), ("destination", ("a", "b"))))
    schema.save(tmp_path / "od_schema.json")
    write_histogram_csv(Histogram(schema, {("a", "b"): 3, ("b", "a"): 1}), tmp_path / "od.csv")
    return synth_command_argv(tmp_path, {"od_seed": "od.csv", "od_schema": "od_schema.json", "trips": 50, "seed": 5})


# One example of each config, with most optional fields spelled out.
FUZZ_EXAMPLES = {
    "pipeline": lambda t: release_argv(t, order="privacy-first", empty_release_ok=False, bootstrap={"replicates": 2},
                                       privacy={"epsilon": 2.0, "rho": 0.9, "n": 40}),
    "pipeline-synth": lambda t: release_argv(t, input=None, schema=None, bootstrap={"replicates": 2}, synth={
        "generate_od": {"n_neighborhoods": 4, "n_pairs": 3, "total": 500, "seed": 2, "skew": 0.7, "uniform_mix": 0.5},
        "trips": 100, "mode": "uncorrelated", "rating_distribution": [0.2] * 5, "seed": 1,
        "gender_domain": ["m", "f"], "rating_domain": ["1", "2", "3", "4", "5"]}),
    "synth": lambda t: synth_command_argv(t, {
        "generate_od": {"n_neighborhoods": 4, "n_pairs": 3}, "trips": 100, "mode": "correlated", "seed": 4,
        "gender_domain": ["m", "f"], "rating_domain": ["1", "2"],
        "rating_distributions": {"m": [0.7, 0.3], "f": [0.4, 0.6]}}),
    "taxi": lambda t: taxi_config_argv(t, columns={"hack_license": "driver_id"}, card_values=["CRD", "CSH"],
                                       bbox={"lon_min": -74.3, "lon_max": -73.6, "lat_min": 40.4, "lat_max": 41.0},
                                       tip_threshold=0.2),
    "bike": lambda t: bike_ingest_argv(t, genders=["male", "female", "other"], helmet_values=["yes", "no"],
                                       trip_columns={"time": "start_time"}, rider_columns={"helmet": "helmet"}),
    "bike-file": bike_file_ingest_argv,
    "synth-od-seed": od_seed_synth_argv,
    "privatize": lambda t: privatize_argv(t, {"epsilon": 5.0, "rho": 0.9, "n": 40, "seed": 3}),
    "repair": lambda t: repair_argv(t, {"x": "gender", "y": "rating", "z": ["origin"]}),
}
RAW_1E999 = "<1e999>"  # written into the config text as the bare JSON number 1e999, which reads as inf
ADVERSARIAL_VALUES = (math.nan, math.inf, -math.inf, RAW_1E999, -1, 2.5, "7", "", [], {}, True, None)


def json_paths(value, path=()):
    """The path of every object field and list item within value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from json_paths(item, path + (key,))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FUZZ_EXAMPLES)), st.data())
def test_any_one_malformed_config_field_exits_with_a_code(example, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        argv = FUZZ_EXAMPLES[example](tmp_path)
        config_path = Path(argv[argv.index("--config") + 1])
        config = json.loads(config_path.read_text())
        path = data.draw(st.sampled_from(list(json_paths(config))), label="path")
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        original = parent[path[-1]]
        list_as_string = ("".join(map(str, original)),) if isinstance(original, list) else ()
        parent[path[-1]] = data.draw(st.sampled_from(ADVERSARIAL_VALUES + list_as_string), label="value")
        config_path.write_text(json.dumps(config).replace(json.dumps(RAW_1E999), "1e999"))
        out = tmp_path / "out"
        code = main([*argv, "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code == 2:
            assert not out.exists()


# The README value type of each config field, by its key; `?` marks a field that may be null.
FIELD_TYPES = {
    "input": "path?", "schema": "path?", "synth": "object?", "ingest": "object?", "repair": "object?",
    "privacy": "object?", "order": "choice?", "bootstrap": "object", "replicates": "whole", "seed": "whole",
    "empty_release_ok": "flag",
    "epsilon": "number", "rho": "number", "n": "whole?",
    "x": "label", "y": "label", "z": "names",
    "generate_od": "object", "od_seed": "path", "od_schema": "path", "trips": "whole", "mode": "choice",
    "gender_domain": "labels", "rating_domain": "labels", "rating_distribution": "numbers?",
    "rating_distributions": "per-gender?",
    "n_neighborhoods": "whole", "n_pairs": "whole", "total": "whole", "skew": "number", "uniform_mix": "number",
    "kind": "choice", "trips_csv": "path", "riders_csv": "path", "columns": "columns", "bbox": "bbox",
    "lon_min": "number", "lon_max": "number", "lat_min": "number", "lat_max": "number", "card_values": "labels",
    "tip_threshold": "number", "neighborhoods": "labels", "neighborhoods_file": "path", "companies": "labels",
    "genders": "labels", "helmet_values": "labels", "trip_columns": "columns", "rider_columns": "columns",
}
# The type of each item of a list or object of these types; any other object's fields go by FIELD_TYPES.
ITEM_TYPES = {"labels": "label", "names": "label", "numbers": "number", "columns": "string", "per-gender": "numbers"}
OUT_OF_TYPE_VALUES = (None, True, -1, 2.5, math.nan, "", "\0", [], {}, ["a", "a"], ["\0"])
# Of those values, the ones each type admits; a `?` type also admits null.
IN_TYPE = {
    "whole": (), "number": (-1, 2.5), "flag": (True,), "label": ("",), "string": ("", "\0"), "choice": (),
    "path": (), "labels": (), "names": ([],), "numbers": (), "columns": ({},), "object": ({},), "bbox": ({},),
    "per-gender": (),
}


def field_type(path):
    """The README value type of the config field at path (keys and list positions, outermost first)."""
    kind = "object"
    for key in path:
        parent = kind.rstrip("?")
        kind = ITEM_TYPES.get(parent) or ("number" if isinstance(key, int) else FIELD_TYPES[key])
    return kind


def test_every_example_field_has_a_readme_type():
    for example in FUZZ_EXAMPLES.values():
        with tempfile.TemporaryDirectory() as tmp:
            argv = example(Path(tmp))
            config = json.loads(Path(argv[argv.index("--config") + 1]).read_text())
        assert all(field_type(path).rstrip("?") in IN_TYPE for path in json_paths(config))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FUZZ_EXAMPLES)), st.data())
def test_a_field_given_a_value_outside_its_type_is_a_config_error(example, data):
    """One config field, of any config object, given a JSON value its README type excludes exits 2 with one
    `config error:` line and makes no --out."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        argv = FUZZ_EXAMPLES[example](tmp_path)
        config_path = Path(argv[argv.index("--config") + 1])
        config = json.loads(config_path.read_text())
        path = data.draw(st.sampled_from(list(json_paths(config))), label="path")
        kind = field_type(path)
        admitted = IN_TYPE[kind.rstrip("?")] + ((None,) if kind.endswith("?") else ())
        excluded = [v for v in OUT_OF_TYPE_VALUES if json.dumps(v) not in map(json.dumps, admitted)]
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(st.sampled_from(excluded), label="value")
        config_path.write_text(json.dumps(config))
        out, stderr = tmp_path / "out", io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        lines = stderr.getvalue().splitlines()
        assert code == 2 and len(lines) == 1 and lines[0].startswith("config error:"), stderr.getvalue()
        assert not out.exists()


# Each config key tuple (or table), by the module that defines it and the reader of its object.
CONFIG_KEY_TUPLES = {
    "PIPELINE_KEYS": ("cli", "PipelineConfig.from_json_obj"),
    "PRIVACY_KEYS": ("cli", "_parse_privacy"),
    "SYNTH_KEYS": ("ingest", "SynthConfig.from_json_obj"),
    "_GENERATE_OD": ("ingest", "SynthConfig.from_json_obj"),
    "TAXI_KEYS": ("ingest", "TaxiConfig.from_json_obj"),
    "_BBOX_KEYS": ("ingest", "TaxiConfig.from_json_obj"),
    "BIKE_KEYS": ("ingest", "BikeConfig.from_json_obj"),
    "REPAIR_KEYS": ("repair", "RepairSpec.from_json_obj"),
}


def test_each_config_key_tuple_is_defined_once_in_the_module_of_its_reader():
    sources = Path(odrelease.__file__).parent.glob("*.py")
    trees = {path.stem: ast.parse(path.read_text(encoding="utf8")) for path in sources}
    defined = {module: {target.id for node in tree.body if isinstance(node, ast.Assign)
                        for target in node.targets if isinstance(target, ast.Name)} for module, tree in trees.items()}
    for name, (module_name, reader_name) in CONFIG_KEY_TUPLES.items():
        assert [module for module, names in defined.items() if name in names] == [module_name], name
        reader = importlib.import_module(f"odrelease.{module_name}")
        for attr in reader_name.split("."):
            reader = getattr(reader, attr)
        assert inspect.getmodule(reader).__name__ == f"odrelease.{module_name}"
        assert name in inspect.getsource(reader), (name, reader_name)


def test_every_config_key_is_in_the_readme_field_list():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf8")
    fields = readme[readme.index("The fields, with defaults"):readme.index("`--epsilons` and `--rhos` must")]
    for name, (module_name, _) in CONFIG_KEY_TUPLES.items():
        keys = getattr(importlib.import_module(f"odrelease.{module_name}"), name)
        assert [key for key in keys if f"`{key}`" not in fields] == [], name
        assert set(keys) <= set(FIELD_TYPES), name


# Bytes inserted by the input mutations below: NUL, CR, a quote, a BOM, a
# byte that is never UTF-8, an overflowing number and a NaN.
INSERTED_BYTES = (b"\0", b"\r", b'"', b"\xef\xbb\xbf", b"\xff", b"1e999", b"nan")


@st.composite
def mutated_bytes(draw, data):
    """data after 1-4 mutations: a deleted byte, an inserted one or a truncation."""
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("delete", "insert", "truncate")))
        at = draw(st.integers(0, len(data)))
        if kind == "delete":
            data = data[:at] + data[at + 1 :]
        elif kind == "insert":
            data = data[:at] + draw(st.sampled_from(INSERTED_BYTES)) + data[at:]
        else:
            data = data[:at]
    return data


def measure_two_files_argv(tmp_path):
    """measure of the small input against a copy of it."""
    argv = measure_argv(tmp_path)
    (tmp_path / "other.csv").write_bytes((tmp_path / "input.csv").read_bytes())
    argv[2] = str(tmp_path / "other.csv")
    return argv


def taxi_trips_argv(tmp_path):
    """A taxi ingest of six valid trips by three drivers."""
    argv = taxi_config_argv(tmp_path)
    trips = tmp_path / "trips.csv"
    header, trip = trips.read_text().splitlines()
    trips.unlink()  # a new file, not the old one truncated
    trips.write_text("\n".join([header, *(trip.replace("d1", f"d{i % 3}") for i in range(6))]) + "\n")
    return argv


BYTE_FUZZ = {
    "repair": (lambda t: repair_argv(t, {"x": "gender", "y": "rating", "z": ["origin"]}), ("input.csv", "schema.json")),
    "measure": (measure_two_files_argv, ("input.csv", "other.csv", "schema.json")),
    "ingest-taxi": (taxi_trips_argv, ("trips.csv",)),
    "ingest-bike": (bike_ingest_argv, ("trips.csv", "riders.csv")),
    "ingest-bike-file": (bike_file_ingest_argv, ("nhoods.txt",)),
}


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(BYTE_FUZZ)), st.data())
def test_mutated_input_file_bytes_exit_with_a_code(command, data):
    """An input file after one to four byte deletions, insertions or truncations makes each command exit 0,
    2, 3 or 4 with no traceback, and leaves no output directory on exit 2 or 3.  Each taxi trips CSV is read
    in byte ranges, whatever its size, in workers forked as for a large file."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(csvio, "_SPLIT_MIN_BYTES", 0), \
            mock.patch.object(csvio, "MAX_WORKERS", 3), mock.patch.object(parallel, "cpus_available", lambda: 3):
        tmp_path = Path(tmp)
        make_argv, targets = BYTE_FUZZ[command]
        argv = make_argv(tmp_path)
        target = tmp_path / data.draw(st.sampled_from(targets), label="file")
        mutated = data.draw(mutated_bytes(target.read_bytes()), label="bytes")
        target.unlink()  # a new file, not the old one truncated
        target.write_bytes(mutated)
        out, stderr = tmp_path / "out", io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in stderr.getvalue()
        if code in (2, 3):
            assert not out.exists()


def test_each_ingest_warning_is_one_stderr_line(tmp_path):
    proc = run_cli([*bike_ingest_argv(tmp_path), "--out", str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "warning: company 'A' reports a single constant gender value ('female'); "
        "suspect a default value in the source data"
    ]


class TestSweep:
    def test_row_count_and_csv(self, tmp_path):
        write_small_input(tmp_path)
        cfg_path = write_pipeline_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "sweep", "--config", str(cfg_path), "--out", str(out),
                "--epsilons", "1,10", "--rhos", "0.5,0.9", "--trials", "3",
            ]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "epsilon,rho,trial,pwkt,hellinger,bins_released"
        assert len(lines) == 1 + 2 * 2 * 3

    def test_single_cell_matches_release_and_measure(self, tmp_path):
        write_small_input(tmp_path)
        cfg = PipelineConfig.load(write_pipeline_config(tmp_path))
        rows = run_sweep(cfg, epsilons=[2.0], rhos=[0.9], trials=1)
        assert len(rows) == 1
        row = rows[0]

        cell_seed = derive_seed(cfg.seed, "sweep", 2.0, 0.9, 0)
        out = tmp_path / "release_out"
        assert run_release(cfg, out, seed=cell_seed) == 0
        report = run_measure(
            tmp_path / "schema.json",
            tmp_path / "input.csv",
            out / "released.csv",
            replicates=10,
        )
        assert row["pwkt"] == pytest.approx(report.pwkt, abs=1e-12)
        assert row["hellinger"] == pytest.approx(report.hellinger, abs=1e-12)
        schema = AttributeSchema.load(tmp_path / "schema.json")
        released = read_histogram_csv(out / "released.csv", schema)
        assert row["bins_released"] == len(released)

    def test_wiped_out_cells_report_zero_bins(self, tmp_path):
        schema = AttributeSchema(
            (("origin", tuple(f"o{i}" for i in range(50))), ("gender", ("m", "f")))
        )
        h = Histogram(schema, {("o1", "m"): 4, ("o2", "f"): 2})
        schema.save(tmp_path / "schema.json")
        write_histogram_csv(h, tmp_path / "input.csv")
        cfg_path = write_pipeline_config(
            tmp_path, repair=None, privacy={"epsilon": 0.05, "rho": 0.99}
        )
        cfg = PipelineConfig.load(cfg_path)
        rows = run_sweep(cfg, epsilons=[0.05], rhos=[0.99], trials=2)
        for row in rows:
            assert row["bins_released"] == 0
            assert math.isnan(row["pwkt"]) and math.isnan(row["hellinger"])

    def test_rows_and_bytes_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        write_small_input(tmp_path)
        cfg_path = write_pipeline_config(tmp_path)
        pids = tmp_path / "pids"
        monkeypatch.setattr(cli, "_run_stages", recording_pids(pids, cli._run_stages))
        ran = {}
        for cpus in (1, 2, 3, 64):
            monkeypatch.setattr(parallel, "cpus_available", lambda: cpus)
            out = tmp_path / f"out{cpus}"
            argv = ["sweep", "--config", str(cfg_path), "--out", str(out),
                    "--epsilons", "1,10", "--rhos", "0.5,0.9", "--trials", "2"]
            assert main(argv) == 0
            assert len(set(pids.read_text().split())) == min(cpus, parallel.MAX_WORKERS)  # one per chunk of trials
            rows = run_sweep(PipelineConfig.load(cfg_path), [1.0, 10.0], [0.5, 0.9], trials=2)
            ran[cpus] = (repr(rows), (out / "sweep.csv").read_bytes())  # repr: a NaN distance equals itself
            pids.unlink()
        assert ran[1] == ran[2] == ran[3] == ran[64]
        assert_no_child_left()

    def test_each_pair_is_aligned_once(self, tmp_path, monkeypatch):
        schema, h = write_small_input(tmp_path)
        monkeypatch.setattr(parallel, "cpus_available", lambda: 1)
        align = mock.Mock(wraps=metrics.align)
        monkeypatch.setattr(metrics, "align", align)
        other = Histogram(schema, {("o1", "m", "1"): 3, ("o2", "f", "2"): 1})
        metrics.build_distance_report(h, other, replicates=5, seed=1, baseline=h)
        assert align.call_count == 3  # the bootstrap's ranking, the release and the baseline
        align.reset_mock()
        rows = run_sweep(PipelineConfig.load(write_pipeline_config(tmp_path)), [10.0], [0.5], trials=1)
        assert rows[0]["bins_released"] > 0 and align.call_count == 1

    def test_a_data_error_in_a_later_chunk_ends_as_in_a_serial_run(self, tmp_path, monkeypatch, capfd):
        write_small_input(tmp_path)
        cfg_path = write_pipeline_config(tmp_path)
        ended = []
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "cpus_available", lambda: cpus)
            out = tmp_path / f"out{cpus}"
            code = main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         "--epsilons", "1,1e-305", "--rhos", "0.9", "--trials", "1"])  # the second cell overflows
            ended.append((code, capfd.readouterr().err, out.exists()))
        assert ended[0] == ended[1]
        assert ended[0][0] == 3 and ended[0][1].startswith("data error: privacy stage:") and not ended[0][2]
        assert_no_child_left()

    def test_sweep_without_privacy_rejected(self, tmp_path):
        write_small_input(tmp_path)
        cfg = PipelineConfig.load(write_pipeline_config(tmp_path, privacy=None))
        with pytest.raises(Exception):
            run_sweep(cfg, epsilons=[1.0], rhos=[0.5], trials=1)


class TestSynthAndIngestCommands:
    def test_synth_command(self, tmp_path):
        cfg = {
            "generate_od": {"n_neighborhoods": 8, "n_pairs": 10, "total": 400, "seed": 2},
            "trips": 1500,
            "mode": "uncorrelated",
            "seed": 5,
        }
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(path), "--out", str(out)]) == 0
        schema = AttributeSchema.load(out / "schema.json")
        h = read_histogram_csv(out / "histogram.csv", schema)
        assert h.total == 1500

    def test_ingest_taxi_command(self, tmp_path):
        rows = [
            "pickup_datetime,pickup_longitude,pickup_latitude,dropoff_longitude,dropoff_latitude,trip_distance,fare_amount,tip_amount,payment_type,hack_license",
        ]
        for i in range(9):
            rows.append(
                f"2013-01-0{i % 9 + 1} 08:00:00,-74.0,40.7,-73.9{i % 3},40.75,{1 + i}.0,10.0,{2 + (i % 2)}.0,CRD,d{i % 3}"
            )
        (tmp_path / "trips.csv").write_text("\n".join(rows) + "\n")
        cfg = {"kind": "taxi", "trips_csv": "trips.csv"}
        path = tmp_path / "ingest.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["stats"]["retained"] == 9
        schema = AttributeSchema.load(out / "schema.json")
        h = read_histogram_csv(out / "histogram.csv", schema)
        assert h.total == 9

    def test_repair_and_privatize_commands(self, tmp_path):
        write_small_input(tmp_path)
        spec_path = tmp_path / "repair.json"
        spec_path.write_text(json.dumps({"x": "gender", "y": "rating", "z": ["origin"]}))
        out = tmp_path / "rep"
        assert main(
            [
                "repair", "--config", str(spec_path), "--schema", str(tmp_path / "schema.json"),
                "--input", str(tmp_path / "input.csv"), "--out", str(out),
            ]
        ) == 0
        assert (out / "repaired.csv").exists() and (out / "fractional.csv").exists()

        priv_path = tmp_path / "priv.json"
        priv_path.write_text(json.dumps({"epsilon": 5.0, "rho": 0.9, "seed": 3}))
        out2 = tmp_path / "priv"
        assert main(
            [
                "privatize", "--config", str(priv_path), "--schema", str(tmp_path / "schema.json"),
                "--input", str(tmp_path / "input.csv"), "--out", str(out2),
            ]
        ) == 0
        report = json.loads((out2 / "release_report.json").read_text())
        assert report["params"]["epsilon"] == 5.0
        assert report["retained_active"] + report["suppressed_active"] == 10
