import csv
import datetime
import io
import math
import multiprocessing
import os
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from odrelease import (
    ConfigError,
    DataError,
    EmptyInputError,
    Histogram,
    RepairSpec,
    SynthConfig,
    TaxiConfig,
    bike_preprocess,
    conditional_mutual_information,
    marginalize,
    synth_generate,
    synthetic_od_seed,
    taxi_preprocess,
    tertiles,
    time_bucket,
)
from odrelease import cli, csvio, ingest, parallel
from odrelease.ingest import BikeConfig, round_coordinate
from helpers import recording_pids, taxi_preprocess_per_row


class TestTimeBucket:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("06:30", "morning"),
            ("13:00", "day"),
            ("05:00", "morning"),
            ("04:59", "night"),
            ("09:00", "day"),
            ("15:00", "evening"),
            ("18:59", "evening"),
            ("19:00", "night"),
            ("23:30", "night"),
            ("2013-01-11 08:15:00", "morning"),
        ],
    )
    def test_buckets(self, value, expected):
        assert time_bucket(value) == expected

    def test_datetime_objects(self):
        assert time_bucket(datetime.time(5, 0)) == "morning"
        assert time_bucket(datetime.datetime(2013, 1, 5, 20, 0)) == "night"

    def test_unparseable(self):
        with pytest.raises(DataError):
            time_bucket("not a time")


class TestTertiles:
    def test_three_entities(self):
        assert tertiles({"e1": 1, "e2": 2, "e3": 3}) == {
            "e1": "low",
            "e2": "medium",
            "e3": "high",
        }

    def test_ties_break_by_entity_id(self):
        labels = tertiles({f"e{i}": 5 for i in range(6)})
        assert [labels[f"e{i}"] for i in range(6)] == [
            "low", "low", "medium", "medium", "high", "high",
        ]

    def test_remainder_favors_lower_categories(self):
        labels = tertiles({"a": 1, "b": 2, "c": 3, "d": 4})
        sizes = {v: list(labels.values()).count(v) for v in ("low", "medium", "high")}
        assert sizes == {"low": 2, "medium": 1, "high": 1}
        labels5 = tertiles({c: i for i, c in enumerate("abcde")})
        sizes5 = {v: list(labels5.values()).count(v) for v in ("low", "medium", "high")}
        assert sizes5 == {"low": 2, "medium": 2, "high": 1}

    def test_partition_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(1, 40))
            totals = {f"e{i}": int(rng.integers(0, 10)) for i in range(m)}
            labels = tertiles(totals)
            assert set(labels) == set(totals)
            sizes = [list(labels.values()).count(v) for v in ("low", "medium", "high")]
            assert sum(sizes) == m
            assert sizes[0] == math.ceil(m / 3)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            tertiles({})


def test_round_coordinate_half_away_from_zero():
    assert round_coordinate(-73.94) == "-73.9"
    assert round_coordinate(-73.95) == "-74.0"
    assert round_coordinate(40.75) == "40.8"
    assert round_coordinate(40.7499) == "40.7"
    assert round_coordinate(0.04) == "0.0"


def taxi_row(
    pickup="2013-01-11 08:15:00",
    o=(-74.0, 40.7),
    d=(-73.95, 40.75),
    distance=2.0,
    fare=10.0,
    tip=2.0,
    payment="CRD",
    driver="d1",
):
    return {
        "pickup_datetime": pickup,
        "pickup_longitude": str(o[0]),
        "pickup_latitude": str(o[1]),
        "dropoff_longitude": str(d[0]),
        "dropoff_latitude": str(d[1]),
        "trip_distance": str(distance),
        "fare_amount": str(fare),
        "tip_amount": str(tip),
        "payment_type": payment,
        "hack_license": driver,
    }


class TestTaxiPreprocess:
    def test_tip_threshold_inclusive(self):
        rows = [
            taxi_row(tip=2.00, driver="d1"),
            taxi_row(tip=1.99, driver="d2"),
            taxi_row(tip=3.50, driver="d3"),
        ]
        result = taxi_preprocess(rows, TaxiConfig())
        tip = marginalize(result.histogram, ["tip"]).counts
        assert tip == {("high",): 2, ("low",): 1}

    def test_schema_and_aggregation(self):
        rows = [taxi_row(driver=f"d{i % 3}", distance=1.0 + i) for i in range(9)]
        result = taxi_preprocess(rows, TaxiConfig())
        h = result.histogram
        assert h.schema.names == (
            "o_lon", "o_lat", "d_lon", "d_lat", "pickup", "dist", "tip", "freq",
        )
        assert h.total == 9 == result.stats.retained
        # coordinates bucketized to one decimal
        key = next(iter(h.keys()))
        assert key[0] == "-74.0" and key[2] == "-74.0" or key[2] == "-73.9"

    def test_non_card_and_missing_filtered(self):
        rows = [
            taxi_row(),
            taxi_row(payment="CSH"),
            {**taxi_row(), "tip_amount": ""},
        ]
        result = taxi_preprocess(rows, TaxiConfig())
        assert result.stats.retained == 1
        assert result.stats.dropped_filtered == 1
        assert result.stats.dropped_missing == 1

    def test_out_of_bbox_filtered(self):
        rows = [taxi_row(), taxi_row(o=(-80.0, 40.7))]
        result = taxi_preprocess(rows, TaxiConfig())
        assert result.stats.retained == 1
        assert result.stats.dropped_filtered == 1

    def test_malformed_counted_and_majority_fails(self):
        rows = [taxi_row(), taxi_row(fare="abc"), taxi_row(distance="oops")]
        with pytest.raises(DataError):
            taxi_preprocess(rows, TaxiConfig())
        rows = [taxi_row(), taxi_row(), taxi_row(fare="abc")]
        result = taxi_preprocess(rows, TaxiConfig())
        assert result.stats.malformed == 1

    def test_non_finite_numbers_are_malformed(self):
        rows = [taxi_row(distance=1.0 + i, driver=f"d{i}") for i in range(6)]
        rows += [
            taxi_row(fare="nan"),
            taxi_row(distance="nan"),
            taxi_row(tip="inf"),
            taxi_row(o=("-Infinity", 40.7)),
            taxi_row(d=(-73.95, "1e999")),
        ]
        result = taxi_preprocess(rows, TaxiConfig())
        assert result.stats.malformed == 5
        assert result.stats.retained == 6
        # a NaN distance no longer makes the distance cutoffs depend on row order
        assert taxi_preprocess(rows[::-1], TaxiConfig()).histogram == result.histogram
        dist = marginalize(result.histogram, ["dist"]).counts
        assert dist == {("low",): 2, ("medium",): 2, ("high",): 2}

    def test_distance_tertiles_about_one_third(self):
        rng = np.random.default_rng(5)
        rows = [
            taxi_row(distance=float(rng.integers(1, 30)) / 2.0, driver=f"d{i % 7}")
            for i in range(300)
        ]
        result = taxi_preprocess(rows, TaxiConfig())
        dist = marginalize(result.histogram, ["dist"]).counts
        total = result.histogram.total
        distances = sorted(float(r["trip_distance"]) for r in rows)
        max_tie = max(distances.count(v) for v in set(distances))
        for cat in ("low", "medium", "high"):
            share = dist.get((cat,), 0) / total
            assert 1 / 3 - max_tie / total <= share <= 1 / 3 + max_tie / total

    def test_driver_frequency_tertiles(self):
        rows = []
        for i, n in enumerate([1, 2, 3]):
            rows.extend(taxi_row(driver=f"d{i}") for _ in range(n))
        result = taxi_preprocess(rows, TaxiConfig())
        freq = marginalize(result.histogram, ["freq"]).counts
        assert freq == {("low",): 1, ("medium",): 2, ("high",): 3}

    @pytest.mark.parametrize("restkey", [None, "payment_type"])
    def test_a_dict_reader_reads_like_a_list_of_its_records(self, restkey):
        trips = [list(taxi_row(distance=1.0 + i, driver=f"d{i}").values()) for i in range(6)]
        lines = [",".join(taxi_row()), *(",".join(trip[:cut]) for trip, cut in zip(trips, [10, 10, 9, 8, 10, 5]))]
        text = "\n".join(lines) + "\n"

        def reader():
            return csv.DictReader(io.StringIO(text, newline=""), restval="CRD", restkey=restkey)

        got, want = taxi_preprocess(reader(), TaxiConfig()), taxi_preprocess(list(reader()), TaxiConfig())
        assert (got.stats, got.histogram) == (want.stats, want.histogram)
        assert (got.stats.retained, got.stats.malformed) == (5, 1)  # restval pays the rows cut at 9 and 8 by card

    def test_column_mapping_accepts_both_orientations(self):
        by_role = TaxiConfig.from_json_obj({"columns": {"pickup_lon": "plon"}})
        assert by_role.columns["pickup_lon"] == "plon"
        by_column = TaxiConfig.from_json_obj({"columns": {"plon": "pickup_lon", "plat": "pickup_lat"}})
        assert by_column.columns["pickup_lon"] == "plon"
        assert by_column.columns["pickup_lat"] == "plat"


def trips_csv(path, blocks, rows=60):
    """A taxi trips CSV: the header, then per block `rows` valid trips followed
    by the block's extra line, if any (bytes, a newline added).  Returns the
    byte offset of each extra line."""
    header = ",".join(taxi_row()).encode() + b"\n"
    data, offsets = bytearray(header), []
    for b, extra in enumerate(blocks):
        for i in range(rows):
            trip = taxi_row(distance=1.0 + i % 9, tip=i % 3, driver=f"d{(b * rows + i) % 17}")
            data += ",".join(trip.values()).encode() + b"\n"
        if extra is not None:
            offsets.append(len(data))
            data += extra + b"\n"
    Path(path).write_bytes(bytes(data))
    return offsets


def read_in(monkeypatch, ranges):
    """Read paths in up to `ranges` ranges, whatever their size, one process per range."""
    monkeypatch.setattr(csvio, "_SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(csvio, "MAX_WORKERS", ranges)
    monkeypatch.setattr(parallel, "cpus_available", lambda: ranges)


def range_of(path, offset):
    """The 1-based range of the file at path that holds the byte at offset."""
    return sum(start <= offset for start in csvio._range_starts(path))


FAULTS = {  # a bad line, and the error a read of it raises
    "not-utf8": (b"2013-01-11 08:15:00,-74.0,40.7,-73.95,40.75,2.0,10.0,2.0,CRD,d\xff", DataError),
    "long-field": (b"2013-01-11 08:15:00,-74.0,40.7,-73.95,40.75,2.0,10.0,2.0,CRD," + b"d" * 200, csv.Error),
}


class TestTaxiCsvRanges:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    def test_a_csv_path_reads_like_its_dict_reader(self, tmp_path, monkeypatch, cpus):
        path = tmp_path / "trips.csv"
        trips_csv(path, [b"", b"2013-01-11 08:15:00,x,,,,,,,CSH,d1", None])
        monkeypatch.setattr(csvio, "_SPLIT_MIN_BYTES", 0)
        monkeypatch.setattr(parallel, "cpus_available", lambda: cpus)
        assert len(csvio._range_starts(path)) == parallel.MAX_WORKERS
        with open(path, newline="", encoding="utf8") as f:
            want = taxi_preprocess(csv.DictReader(f), TaxiConfig())
        pids = tmp_path / "pids"
        monkeypatch.setattr(ingest, "_scan_taxi", recording_pids(pids, ingest._scan_taxi))
        for records in (path, str(path)):
            got = taxi_preprocess(records, TaxiConfig())
            assert (got.stats, got.histogram) == (want.stats, want.histogram)
            ran = pids.read_text().split()
            assert len(ran) == parallel.MAX_WORKERS and len(set(ran)) == min(cpus, parallel.MAX_WORKERS)
            pids.unlink()
        assert multiprocessing.active_children() == []

    def test_a_file_is_split_only_when_large_and_quote_free_whatever_the_cpus(self, tmp_path, monkeypatch):
        path = tmp_path / "trips.csv"
        trips_csv(path, [None, None])
        assert csvio._range_starts(path) == [0]  # under _SPLIT_MIN_BYTES
        monkeypatch.setattr(csvio, "_SPLIT_MIN_BYTES", 0)
        starts = csvio._range_starts(path)
        assert len(starts) == parallel.MAX_WORKERS
        for cpus in (1, 64):
            monkeypatch.setattr(parallel, "cpus_available", lambda: cpus)
            assert csvio._range_starts(path) == starts
        trips_csv(path, [None, b'2013-01-11 08:15:00,-74.0,40.7,-73.95,40.75,2.0,10.0,2.0,CRD,"d1"', None])
        assert csvio._range_starts(path) == [0]  # a quoted field may hold a newline

    @pytest.mark.parametrize("chunk_bytes,rows", [(1, 60), (50, 60), (1 << 20, 9000)])
    def test_a_quote_first_met_in_a_late_chunk_reads_like_its_dict_reader(self, tmp_path, monkeypatch,
                                                                           chunk_bytes, rows):
        path = tmp_path / "trips.csv"
        quoted = b'2013-01-11 08:15:00,-74.0,40.7,-73.95,40.75,2.0,10.0,2.0,CRD,"d\n1"'  # the field holds a newline
        (offset,) = trips_csv(path, [None, None, quoted, None], rows=rows)
        assert offset > chunk_bytes  # split at commas up to the chunk holding the quote
        monkeypatch.setattr(csvio, "_CHUNK_BYTES", chunk_bytes)
        with open(path, newline="", encoding="utf8") as f:
            want = taxi_preprocess(csv.DictReader(f), TaxiConfig())
        got = taxi_preprocess(path, TaxiConfig())
        assert (got.stats, got.histogram) == (want.stats, want.histogram)
        assert got.stats.retained == 4 * rows + 1

    def test_blank_lines_under_a_one_column_header_are_skipped(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_bytes(b"hack_license\nd1\n\n d2\r\n\r\n")
        (source,) = csvio.block_ranges(path, ["hack_license"])
        assert [column for block in source for column in block] == [["d1", "d2"]]

    def test_a_process_with_other_threads_scans_every_range_itself(self, tmp_path, monkeypatch):
        path = tmp_path / "trips.csv"
        trips_csv(path, [b"", b"2013-01-11 08:15:00,x,,,,,,,CSH,d1", None])
        read_in(monkeypatch, 3)
        assert len(csvio._range_starts(path)) == 3
        want = taxi_preprocess(path, TaxiConfig())
        scanned = []
        scan = ingest._scan_taxi

        def recorded(*args):
            scanned.append(os.getpid())  # seen here only when called in this process
            return scan(*args)

        monkeypatch.setattr(ingest, "_scan_taxi", recorded)
        done = threading.Event()
        other = threading.Thread(target=done.wait)
        other.start()
        try:
            got = taxi_preprocess(path, TaxiConfig())  # no fork while another thread runs
        finally:
            done.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert scanned == [os.getpid()] * 3
        assert (got.stats, got.histogram) == (want.stats, want.histogram)

    @pytest.mark.parametrize("fault", [b"\xff", b"\x00"])
    def test_a_fault_in_the_last_range_ends_as_a_read_of_one_range_does(self, tmp_path, monkeypatch, capfd, fault):
        trips = tmp_path / "trips.csv"
        (offset,) = trips_csv(trips, [None, b"2013-01-11 08:15:00,-74.0,40.7,-73.95,40.75,2.0,10.0,2.0,CRD,d" + fault])
        config = tmp_path / "ingest.json"
        config.write_text('{"kind": "taxi", "trips_csv": "trips.csv"}')
        ended = []
        for ranges in (2, 1):
            read_in(monkeypatch, ranges)
            assert range_of(trips, offset) == ranges
            code = cli.main(["ingest", "--config", str(config), "--out", str(tmp_path / f"out{ranges}")])
            err = capfd.readouterr().err
            assert "Traceback" not in err
            outputs = sorted((p.name, p.read_bytes()) for p in (tmp_path / f"out{ranges}").glob("*"))
            ended.append((code, err.split(":")[0], outputs))
            assert multiprocessing.active_children() == []
        assert ended[0] == ended[1]
        assert ended[0] == (3, "data error", [])

    @pytest.mark.parametrize("ranges", [1, 3])
    def test_a_byte_that_is_not_utf8_is_a_data_error_naming_the_file_and_its_offset(self, tmp_path, monkeypatch,
                                                                                    ranges):
        path = tmp_path / "trips.csv"
        line = FAULTS["not-utf8"][0]
        (offset,) = trips_csv(path, [None, None, line])
        read_in(monkeypatch, ranges)
        monkeypatch.setattr(csvio, "_CHUNK_BYTES", 50)
        assert range_of(path, offset) == ranges
        assert offset - csvio._range_starts(path)[-1] > 50  # in a later chunk of the last range
        bad = offset + line.index(b"\xff")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))} is not UTF-8: invalid start byte at byte {bad}$"):
            taxi_preprocess(path, TaxiConfig())
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("ranges,failing", [(2, (1, 2)), (3, (2, 3))])
    @pytest.mark.parametrize("first,second", [("not-utf8", "long-field"), ("long-field", "not-utf8")])
    def test_the_first_failing_range_gives_the_error(self, tmp_path, monkeypatch, ranges, failing, first, second):
        path = tmp_path / "trips.csv"
        extras = [None] * ranges
        extras[failing[0] - 1], extras[failing[1] - 1] = FAULTS[first][0], FAULTS[second][0]
        offsets = trips_csv(path, extras)
        read_in(monkeypatch, ranges)
        assert [range_of(path, offset) for offset in offsets] == list(failing)
        limit = csv.field_size_limit(100)  # the long field's 200 characters are over it
        try:
            with pytest.raises(FAULTS[first][1]):
                taxi_preprocess(path, TaxiConfig())
        finally:
            csv.field_size_limit(limit)
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_is_an_os_error(self, tmp_path, monkeypatch):
        path = tmp_path / "trips.csv"
        trips_csv(path, [None, None])
        read_in(monkeypatch, 2)
        caller, scan = os.getpid(), ingest._scan_taxi
        monkeypatch.setattr(ingest, "_scan_taxi", lambda *args: scan(*args) if os.getpid() == caller else os._exit(7))
        with pytest.raises(ChildProcessError, match="exited with code 7"):
            taxi_preprocess(path, TaxiConfig())
        assert multiprocessing.active_children() == []



def world_rows(count=40):
    """Valid card-paid trips with both ends anywhere on the globe, the box's
    corners among them."""
    rng = np.random.default_rng(29)
    corners = [(-180.0, -90.0), (180.0, 90.0), (-179.96, 89.96), (179.96, -89.96)]
    rows = []
    for i in range(count):
        if i < len(corners):
            o = d = corners[i]
        else:
            o, d = rng.uniform((-180, -90), (180, 90), (2, 2)).tolist()
        hour, fare = int(rng.integers(0, 24)), round(float(rng.uniform(2.5, 60.0)), 2)
        rows.append(taxi_row(
            pickup=f"2013-01-{i % 28 + 1:02d} {hour:02d}:{i % 60:02d}:00", o=o, d=d,
            distance=float(rng.integers(0, 12)) / 4, fare=fare, tip=round(fare * float(rng.choice([0.0, 0.1, 0.3])), 2),
            driver=f"d{rng.integers(0, 9)}",
        ))
    return rows


class TestTaxiMerge:
    WORLD = TaxiConfig(bbox=(-180.0, 180.0, -90.0, 90.0))

    def test_a_world_box_reads_like_the_per_row_oracle(self, tmp_path, monkeypatch):
        assert ingest._taxi_schema(self.WORLD).global_size > 2**31  # codes past int32
        rows = world_rows()
        want = taxi_preprocess_per_row(rows, self.WORLD)
        assert want.stats.retained == len(rows)
        path = tmp_path / "trips.csv"
        path.write_text("".join(",".join(line) + "\n" for line in [rows[0], *(row.values() for row in rows)]))
        monkeypatch.setattr(csvio, "_SPLIT_MIN_BYTES", 0)
        monkeypatch.setattr(csvio, "MAX_WORKERS", 4)
        monkeypatch.setattr(parallel, "cpus_available", lambda: 2)
        assert len(csvio._range_starts(path)) == 4
        for records in (path, rows):
            got = taxi_preprocess(records, self.WORLD)
            assert (got.stats, got.histogram) == (want.stats, want.histogram)

    def test_merging_scans_takes_at_most_16_bytes_a_retained_row(self):
        # Four scans as four byte ranges of a taxi CSV hand them back: codes
        # without dist and freq, of trips clustered around four hot spots as
        # odbench's taxi CSV is, distances with ties, and Zipf-like drivers.
        schema = ingest._taxi_schema(TaxiConfig())
        rng = np.random.default_rng(30)
        spots = np.array([[3.2, 3.5], [4.3, 3.7], [5.2, 2.4], [2.0, 2.0]])  # (lon, lat) tenths from the box's corner
        pool, scans, rows = [f"D{i:04d}" for i in range(3000)], [], 50_000
        for _ in range(4):
            labels = np.zeros((len(schema.shape), rows), dtype=np.int64)  # dist and freq stay 0: the merge adds them
            for at in (0, 2):  # origin, destination
                xy = spots[rng.choice(4, rows, p=[0.55, 0.2, 0.15, 0.1])] + rng.normal(0.0, 0.5, (rows, 2))
                labels[at:at + 2] = np.clip(np.rint(xy), 0, np.array(schema.shape[at:at + 2]) - 1).T
            labels[4], labels[6] = rng.integers(0, 4, rows), rng.integers(0, 2, rows)
            used, driver = np.unique(np.minimum(rng.zipf(1.3, rows), len(pool)) - 1, return_inverse=True)
            codes = (schema.strides @ labels).astype(np.int32)
            distances, distance = np.unique(np.round(rng.lognormal(0.6, 0.7, rows), 2), return_inverse=True)
            stats = ingest.IngestStats(rows, rows, 0, 0, 0)
            scans.append(ingest._TaxiScan(stats, codes, distance.astype(np.uint16), driver.astype(np.uint16),
                                          distances, [pool[i] for i in used]))
        tracemalloc.start()
        try:
            result = ingest._taxi_result(scans, schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.histogram.total == 4 * rows
        assert peak / (4 * rows) <= 16  # bytes per retained row over what the scans hold; 46 for whole-length copies

    @pytest.mark.parametrize("distinct,dtype", [(256, np.uint8), (257, np.uint16)])
    def test_a_scan_keeps_positions_in_the_narrowest_dtype(self, distinct, dtype):
        rows = [taxi_row(distance=(i % distinct) / 4 or -0.0, driver=f"d{i % 3}") for i in range(2 * distinct + 2)]
        rows[1]["trip_distance"] = "0.0"  # -0.0 and 0.0 are one distance
        schema = ingest._taxi_schema(TaxiConfig())
        (blocks,) = csvio.block_ranges(rows, list(TaxiConfig().columns.values()))
        scan = ingest._scan_taxi(blocks, TaxiConfig(), schema)
        assert (scan.codes.dtype, scan.distance.dtype, scan.driver.dtype) == (np.int32, dtype, np.uint8)
        assert scan.distances.tolist() == sorted({(i % distinct) / 4 for i in range(distinct)})
        assert scan.distances[scan.distance].tolist() == [float(row["trip_distance"]) for row in rows]
        assert [scan.drivers[i] for i in scan.driver.tolist()] == [row["hack_license"] for row in rows]


def ranged_trips_csv(path, ranges):
    """A taxi trips CSV holding the rows of each of ranges as one of its byte
    ranges: lines padded to one length past the header's with trailing
    spaces, which the reader strips, and ranges to one number of lines with
    cash-paid trips."""
    lines = max(map(len, ranges))
    padded = [[*rows, *[taxi_row(payment="CSH")] * (lines - len(rows))] for rows in ranges]
    text = [[",".join(row.values()) for row in rows] for rows in padded]
    header = ",".join(taxi_row())
    width = max(len(header), *(len(line) for rows in text for line in rows))
    data = "".join(line.ljust(width) + "\n" for line in [header, *(line for rows in text for line in rows)])
    Path(path).write_text(data)
    return [len(header) + 1 + (width + 1) * lines * i for i in range(len(ranges))]


TERTILE_CASES = {  # the distances of the retained trips of each of four byte ranges
    "all-equal": [[2.5] * 3, [2.5] * 2, [2.5] * 4, [2.5]],
    "signed-zeros": [[-0.0, 1.0], [0.0, 0.0, 2.0], [-0.0, 3.0], [0.0, -0.0]],
    "one-a-range": [[3.0], [1.0], [2.0], [1.0]],
    "a-range-retains-none": [[1.0, 4.0], [2.0, 2.0, 5.0], [], [3.0]],
}


@pytest.mark.parametrize("case", sorted(TERTILE_CASES))
def test_tertile_cuts_across_ranges_read_like_the_per_row_oracle(tmp_path, monkeypatch, case):
    ranges = [[taxi_row(distance=value, driver=f"d{(r + i) % 3}") for i, value in enumerate(values)]
              for r, values in enumerate(TERTILE_CASES[case])]
    path = tmp_path / "trips.csv"
    offsets = ranged_trips_csv(path, ranges)
    monkeypatch.setattr(csvio, "_SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(csvio, "MAX_WORKERS", 4)
    monkeypatch.setattr(parallel, "cpus_available", lambda: 2)
    assert csvio._range_starts(path) == [0, *offsets[1:]]
    want = taxi_preprocess_per_row([row for rows in ranges for row in rows], TaxiConfig())
    got = taxi_preprocess(path, TaxiConfig())
    assert got.histogram == want.histogram
    assert got.stats.retained == want.stats.retained


def bike_config():
    return BikeConfig(
        neighborhoods=("Downtown", "Ballard", "UDistrict"),
        companies=("A", "B", "C"),
    )


def bike_trip(rider="r1", start="Downtown", end="Ballard", time="08:00", company="A"):
    return {
        "rider_id": rider,
        "start_nhood": start,
        "end_nhood": end,
        "start_time": time,
        "company": company,
    }


def bike_rider(rider="r1", gender="female", helmet="yes"):
    return {"rider_id": rider, "gender": gender, "helmet": helmet}


class TestBikePreprocess:
    def test_join_drops_unknown_riders(self):
        result = bike_preprocess(
            [bike_trip(rider="r1"), bike_trip(rider="ghost")],
            [bike_rider(rider="r1")],
            bike_config(),
        )
        assert result.stats.retained == 1
        assert result.stats.dropped_filtered == 1

    def test_identical_trips_aggregate(self):
        result = bike_preprocess(
            [bike_trip(), bike_trip()], [bike_rider()], bike_config()
        )
        assert len(result.histogram) == 1
        assert result.histogram.total == 2

    def test_constant_gender_warning(self):
        trips = [
            bike_trip(rider="r1", company="A"),
            bike_trip(rider="r2", company="A"),
            bike_trip(rider="r3", company="B"),
            bike_trip(rider="r4", company="B"),
        ]
        riders = [
            bike_rider("r1", gender="female"),
            bike_rider("r2", gender="female"),
            bike_rider("r3", gender="female"),
            bike_rider("r4", gender="male"),
        ]
        with pytest.warns(UserWarning, match="company 'A'"):
            result = bike_preprocess(trips, riders, bike_config())
        assert any("company 'A'" in w for w in result.warnings)
        assert not any("company 'B'" in w for w in result.warnings)

    def test_unknown_neighborhood_is_malformed(self):
        result = bike_preprocess(
            [bike_trip(), bike_trip(start="Atlantis")],
            [bike_rider()],
            bike_config(),
        )
        assert result.stats.malformed == 1


class TestSynth:
    def test_total_matches_trips(self):
        od = synthetic_od_seed(n_neighborhoods=10, n_pairs=12, total=500, seed=1)
        h = synth_generate(SynthConfig(od_seed=od, trips=2000, seed=3))
        assert h.total == 2000
        assert h.schema.names == ("origin", "destination", "gender", "rating")

    def test_deterministic_given_seed(self):
        od = synthetic_od_seed(n_neighborhoods=8, n_pairs=10, total=300, seed=2)
        a = synth_generate(SynthConfig(od_seed=od, trips=1000, seed=9))
        b = synth_generate(SynthConfig(od_seed=od, trips=1000, seed=9))
        assert a == b
        c = synth_generate(SynthConfig(od_seed=od, trips=1000, seed=10))
        assert c != a

    def test_uncorrelated_mode_has_tiny_cmi(self):
        od = synthetic_od_seed(n_neighborhoods=12, n_pairs=20, total=2000, seed=4)
        h = synth_generate(SynthConfig(od_seed=od, trips=100_000, mode="uncorrelated", seed=5))
        cmi = conditional_mutual_information(h, RepairSpec("gender", "rating"))
        assert cmi < 0.001

    def test_correlated_mode_reaches_population_cmi(self):
        od = synthetic_od_seed(n_neighborhoods=12, n_pairs=20, total=2000, seed=4)
        cfg = SynthConfig(od_seed=od, trips=100_000, mode="correlated", seed=6)
        h = synth_generate(cfg)
        # population value: I(gender; rating) of the configured mixture
        dists = cfg.rating_distributions
        genders = cfg.gender_domain
        mix = [
            sum(dists[g][r] for g in genders) / len(genders)
            for r in range(len(cfg.rating_domain))
        ]
        population = sum(
            (1 / len(genders)) * p * math.log(p / mix[r])
            for g in genders
            for r, p in enumerate(dists[g])
            if p > 0
        )
        empirical = conditional_mutual_information(h, RepairSpec("gender", "rating"))
        assert population > 0.05
        assert empirical >= 0.5 * population

    def test_bad_distribution_rejected(self):
        od = synthetic_od_seed(n_neighborhoods=6, n_pairs=4, total=100, seed=0)
        with pytest.raises(ConfigError):
            SynthConfig(od_seed=od, trips=10, rating_distributions=(0.5, 0.5, 0.1, 0.0, 0.0))
        with pytest.raises(ConfigError):
            SynthConfig(od_seed=od, trips=10, mode="correlated", rating_distributions={"m": (0.2,) * 5})

    def test_nan_distribution_rejected(self):
        od = synthetic_od_seed(n_neighborhoods=6, n_pairs=4, total=100, seed=0)
        with pytest.raises(ConfigError):
            SynthConfig(od_seed=od, trips=10, rating_distributions=(math.nan, 0.25, 0.25, 0.25, 0.25))
        with pytest.raises(ConfigError):
            SynthConfig(od_seed=od, trips=10, mode="correlated",
                        rating_distributions={g: (math.nan, 0.5, 0.5, 0.0, 0.0) for g in ("m", "f", "o")})

    def test_od_seed_must_have_two_attributes(self):
        schema_3 = synth_generate(
            SynthConfig(od_seed=synthetic_od_seed(6, 4, 100, 0), trips=10, seed=1)
        )
        with pytest.raises(DataError):
            SynthConfig(od_seed=schema_3, trips=10)

    def test_empty_od_seed_rejected(self):
        od = synthetic_od_seed(n_neighborhoods=6, n_pairs=4, total=100, seed=0)
        empty = Histogram(od.schema, {})
        with pytest.raises(EmptyInputError):
            synth_generate(SynthConfig(od_seed=empty, trips=10))


class TestSyntheticOdSeed:
    def test_shape_and_determinism(self):
        od = synthetic_od_seed(n_neighborhoods=20, n_pairs=30, total=5000, seed=7)
        assert od.schema.names == ("origin", "destination")
        assert od.total == 5000
        assert len(od) <= 30
        assert od == synthetic_od_seed(n_neighborhoods=20, n_pairs=30, total=5000, seed=7)

    def test_too_many_pairs_rejected(self):
        with pytest.raises(ConfigError):
            synthetic_od_seed(n_neighborhoods=3, n_pairs=10, total=100, seed=0)
