"""Loading raw trip records into bucket histograms.

Covers the bucketization rules shared by the real datasets (time-of-day
buckets, per-entity tertiles, coordinate rounding, tip categories) and the
seeded synthetic ride-hailing generator used by the experiments.
"""

from __future__ import annotations

import csv
import datetime as _dt
import functools
import io
import itertools
import math
import operator
import os
import warnings
from dataclasses import asdict, astuple, dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .config import finite, labels, mapping, numbers, text_map
from .errors import ConfigError, DataError, EmptyInputError, SchemaError
from .histogram import AttributeSchema, Histogram
from .parallel import MAX_WORKERS, forked_map
from .rng import substream

TIME_BUCKETS = ("morning", "day", "evening", "night")
TERTILE_LABELS = ("low", "medium", "high")
TIP_LABELS = ("low", "high")

# Column roles expected in the Jan-2013 TLC trip+fare join.
DEFAULT_TAXI_COLUMNS = {
    "pickup_datetime": "pickup_datetime",
    "pickup_lon": "pickup_longitude",
    "pickup_lat": "pickup_latitude",
    "dropoff_lon": "dropoff_longitude",
    "dropoff_lat": "dropoff_latitude",
    "trip_distance": "trip_distance",
    "fare_amount": "fare_amount",
    "tip_amount": "tip_amount",
    "payment_type": "payment_type",
    "driver_id": "hack_license",
}
_BBOX_KEYS = ("lon_min", "lon_max", "lat_min", "lat_max")
TAXI_KEYS = ("kind", "trips_csv", "columns", "bbox", "card_values", "tip_threshold")
BIKE_KEYS = ("kind", "trips_csv", "riders_csv", "neighborhoods", "neighborhoods_file", "companies", "genders",
             "helmet_values", "trip_columns", "rider_columns")

DEFAULT_RATING_DOMAIN = ("1", "2", "3", "4", "5")
DEFAULT_GENDER_DOMAIN = ("m", "f", "o")
# Config defaults only: the source experiments never published theirs.
DEFAULT_RATING_DIST = (0.05, 0.10, 0.20, 0.30, 0.35)
DEFAULT_CORRELATED_DISTS = {
    "m": (0.35, 0.30, 0.20, 0.10, 0.05),
    "f": (0.05, 0.10, 0.20, 0.30, 0.35),
    "o": (0.20, 0.20, 0.20, 0.20, 0.20),
}


@dataclass(frozen=True)
class IngestStats:
    rows: int
    retained: int
    dropped_missing: int
    dropped_filtered: int
    malformed: int

    def to_json_obj(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class IngestResult:
    histogram: Histogram
    stats: IngestStats
    warnings: tuple[str, ...] = ()


def time_bucket(timestamp) -> str:
    """Map a local time of day to morning/day/evening/night.

    Half-open buckets: morning [05:00, 09:00), day [09:00, 15:00),
    evening [15:00, 19:00), night [19:00, 05:00).  Accepts datetime.time,
    datetime.datetime, or a parseable string.
    """
    t = timestamp
    if isinstance(t, str):
        text = t.strip()
        try:
            t = _dt.datetime.fromisoformat(text)
        except ValueError:
            try:
                t = _dt.time.fromisoformat(text)
            except ValueError:
                raise DataError(f"unparseable time {timestamp!r}") from None
    if isinstance(t, _dt.datetime):
        t = t.time()
    if not isinstance(t, _dt.time):
        raise DataError(f"unparseable time {timestamp!r}")
    hour = t.hour
    if 5 <= hour < 9:
        return "morning"
    if 9 <= hour < 15:
        return "day"
    if 15 <= hour < 19:
        return "evening"
    return "night"


def tertiles(totals: Mapping) -> dict:
    """Split entities into low/medium/high thirds by ascending total.

    Ties break by entity id.  When the count is not divisible by 3 the lower
    categories take the extra entities: sizes ceil(m/3), then ceil of half
    the rest, then the remainder.
    """
    if not totals:
        raise EmptyInputError("tertiles of an empty collection")
    order = sorted(totals, key=lambda e: (totals[e], e))
    m = len(order)
    s1 = math.ceil(m / 3)
    s2 = math.ceil((m - s1) / 2)
    out = {}
    for i, entity in enumerate(order):
        if i < s1:
            out[entity] = "low"
        elif i < s1 + s2:
            out[entity] = "medium"
        else:
            out[entity] = "high"
    return out


def _tenths(value: float) -> int:
    """value in tenths, rounded to the nearest integer with halves away from zero."""
    tenths = math.floor(abs(value) * 10.0 + 0.5)
    return -tenths if value < 0 else tenths


def round_coordinate(value: float) -> str:
    """Round to one decimal place, halves away from zero; returned formatted."""
    return f"{_tenths(value) / 10.0:.1f}"


def _tenths_range(lo: float, hi: float) -> tuple[str, ...]:
    return tuple(f"{t / 10.0:.1f}" for t in range(_tenths(lo), _tenths(hi) + 1))


@dataclass(frozen=True)
class TaxiConfig:
    """Column mapping and filters for the taxi trip CSV."""

    columns: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_TAXI_COLUMNS))
    bbox: tuple[float, float, float, float] = (-74.3, -73.6, 40.4, 41.0)  # lon_min, lon_max, lat_min, lat_max
    card_values: tuple[str, ...] = ("CRD",)
    tip_threshold: float = 0.2

    def __post_init__(self):
        wrong = set(DEFAULT_TAXI_COLUMNS) ^ set(self.columns)
        if wrong:
            raise ConfigError(f"taxi column mapping: missing or unknown roles {sorted(wrong)}")

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "TaxiConfig":
        obj = mapping(obj, "taxi", TAXI_KEYS)
        given = text_map(obj.get("columns", {}), "taxi.columns")
        # accept either orientation: {column name: role} or {role: column name}
        if given and set(given.values()) <= set(DEFAULT_TAXI_COLUMNS) and not (
            set(given) <= set(DEFAULT_TAXI_COLUMNS)
        ):
            given = {role: col for col, role in given.items()}
        bbox = obj.get("bbox", {})
        if isinstance(bbox, Mapping):
            bbox = mapping(bbox, "taxi.bbox", _BBOX_KEYS)
            box = tuple(finite(bbox.get(k, d), f"taxi.bbox.{k}") for k, d in zip(_BBOX_KEYS, cls.bbox))
        elif len(box := numbers(bbox, "taxi.bbox")) != 4:
            raise ConfigError(f"taxi.bbox: expected lon_min, lon_max, lat_min, lat_max, got {bbox!r}")
        lon_min, lon_max, lat_min, lat_max = box
        if not (-180 <= lon_min < lon_max <= 180 and -90 <= lat_min < lat_max <= 90):
            raise ConfigError(f"taxi.bbox: expected -180 <= lon_min < lon_max <= 180 and -90 <= lat_min < lat_max <= 90, got {box}")
        return cls(
            columns={**DEFAULT_TAXI_COLUMNS, **given},
            bbox=box,
            card_values=labels(obj.get("card_values", ["CRD"]), "taxi.card_values"),
            tip_threshold=finite(obj.get("tip_threshold", cls.tip_threshold), "taxi.tip_threshold"),
        )


# Rows per block of the columnar taxi ingest.  Blocks of 64k rows ran about
# 1.8x slower than blocks of 2k, partly from cyclic-GC passes over the larger
# transient lists.
_BLOCK_ROWS = 2048
_NUMBER_ROLES = (
    "pickup_lon", "pickup_lat", "dropoff_lon", "dropoff_lat", "trip_distance", "fare_amount", "tip_amount",
)
# The one time form decoded in numpy; 0 marks an ASCII digit.
_STRICT_TIME = np.frombuffer(b"0000-00-00 00:00:00", dtype=np.uint8)
_TIME_FIELDS = ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19))  # year, month, day, hour, minute, second
_HOUR_BUCKETS = np.array([TIME_BUCKETS.index(time_bucket(_dt.time(h))) for h in range(24)])


def _pickup_buckets(times: list[str], dates: dict[int, bool]) -> np.ndarray:
    """TIME_BUCKETS position of each pickup time, -1 where time_bucket rejects it.

    The strict form YYYY-MM-DD HH:MM:SS in ASCII digits, with fields in range
    and a valid date, is decoded in numpy; every other form goes through
    time_bucket.  `dates` holds the validity of each date seen so far.
    """
    out = np.full(len(times), -1, dtype=np.int8)
    strict = np.flatnonzero(np.fromiter(map(len, times), dtype=np.int64, count=len(times)) == len(_STRICT_TIME))
    text = "".join([times[i] for i in strict.tolist()]).encode("ascii", "replace")  # "?" for any other character
    chars = np.frombuffer(text, dtype=np.uint8).reshape(-1, len(_STRICT_TIME))
    digits = chars - _STRICT_TIME[0]  # wraps below "0"
    ok = np.where(_STRICT_TIME == _STRICT_TIME[0], digits <= 9, chars == _STRICT_TIME).all(axis=1)
    fields = [digits[:, a:b].astype(np.int64) @ 10 ** np.arange(b - a - 1, -1, -1) for a, b in _TIME_FIELDS]
    year, month, day, hour, minute, second = fields
    ok &= (hour < 24) & (minute < 60) & (second < 60)
    days, inverse = np.unique(np.where(ok, (year * 100 + month) * 100 + day, 0), return_inverse=True)
    for date in days.tolist():
        if date not in dates:
            dates[date] = _is_date(date)
    ok &= np.array([dates[date] for date in days.tolist()], dtype=bool)[inverse]
    out[strict[ok]] = _HOUR_BUCKETS[hour[ok]]
    for i in np.flatnonzero(out < 0).tolist():
        try:
            out[i] = TIME_BUCKETS.index(time_bucket(times[i]))
        except DataError:
            pass
    return out


def _is_date(yyyymmdd: int) -> bool:
    try:
        _dt.date(yyyymmdd // 10000, yyyymmdd // 100 % 100, yyyymmdd % 100)
    except ValueError:
        return False
    return True


def _empty_positions(values: list[str]) -> list[int]:
    """Positions of the empty strings in values, found by C-level list scans."""
    positions, at = [], -1
    for _ in range(values.count("")):
        at = values.index("", at + 1)
        positions.append(at)
    return positions


def _floats(values: list[str]) -> np.ndarray:
    """float() of each value as float64, NaN where float() rejects it."""
    try:
        return np.array(values, dtype=np.float64)  # numpy parses a str with float()
    except ValueError:
        parsed = []
        for text in values:
            try:
                parsed.append(float(text))
            except ValueError:
                parsed.append(math.nan)
        return np.array(parsed, dtype=np.float64)


def _tenths_of(values: np.ndarray) -> np.ndarray:
    """_tenths of each finite value, by the same IEEE operations."""
    tenths = np.floor(np.abs(values) * 10.0 + 0.5)
    return np.where(values < 0, -tenths, tenths).astype(np.int64)


def _taxi_schema(config: TaxiConfig) -> AttributeSchema:
    lon_min, lon_max, lat_min, lat_max = config.bbox
    return AttributeSchema(
        (
            ("o_lon", _tenths_range(lon_min, lon_max)),
            ("o_lat", _tenths_range(lat_min, lat_max)),
            ("d_lon", _tenths_range(lon_min, lon_max)),
            ("d_lat", _tenths_range(lat_min, lat_max)),
            ("pickup", TIME_BUCKETS),
            ("dist", TERTILE_LABELS),
            ("tip", TIP_LABELS),
            ("freq", TERTILE_LABELS),
        )
    )


class _TaxiScan(NamedTuple):
    """What one run of the block scanner keeps of its rows: their counts, and
    per retained row its bucket code without dist and freq, its distance and
    the position of its driver in `drivers`."""

    stats: IngestStats
    codes: np.ndarray  # int64
    distance: np.ndarray  # float64
    driver: np.ndarray  # int32
    drivers: list[str]


def _rows(records, names: Sequence[str]) -> tuple[Iterator[Sequence[str]], Sequence[str]]:
    """The rows of records and their header: those of the UTF-8 CSV at records
    when it is a path, else per mapping its values under names, by rec.get."""
    if isinstance(records, (str, os.PathLike)):
        rows = csv.reader(text_lines(records))
        return rows, next(rows, [])
    return ([rec.get(name) or "" for name in names] for rec in records), names


def _blocks(rows: Iterator[Sequence[str]], header: Sequence[str], names: Sequence[str]) -> Iterator[list[list[str]]]:
    """Per block of up to _BLOCK_ROWS rows, CSV rows under header, the stripped
    fields under each of names.  Each column is found by header index: the last
    duplicate header wins, a short row reads empty past its end, blank rows are
    skipped and extra fields ignored.  A column the header lacks reads empty."""
    index = {name: i for i, name in enumerate(header)}
    found = [name for name in names if name in index]
    width = 1 + max((index[name] for name in found), default=-1)
    while raw := list(itertools.islice(rows, _BLOCK_ROWS)):
        block = [row for row in raw if row]
        if min(map(len, block), default=width) < width:
            pad = [""] * width
            block = [row if len(row) >= width else row + pad[len(row) :] for row in block]
        stripped = {name: list(map(str.strip, map(operator.itemgetter(index[name]), block))) for name in found}
        yield [stripped.get(name) or [""] * len(block) for name in names]


def _checked(stats: IngestStats, kind: str) -> IngestStats:
    """stats, unless over half the rows it counts are malformed or it retains none."""
    if stats.rows and stats.malformed > 0.5 * stats.rows:
        raise DataError(f"{stats.malformed} of {stats.rows} rows malformed; refusing to continue")
    if not stats.retained:
        raise EmptyInputError(f"no {kind} trips survived preprocessing")
    return stats


def _scan_taxi(
    lines: Iterator[Sequence[str]], header: Sequence[str], config: TaxiConfig, schema: AttributeSchema
) -> _TaxiScan:
    """Check, count and code the taxi rows of lines, CSV rows under header, a
    block at a time, each role's column found by _blocks."""
    lon_min, lon_max, lat_min, lat_max = config.bbox
    card = set(config.card_values)
    strides = schema.strides.tolist()
    origins = [_tenths(lon_min), _tenths(lat_min), _tenths(lon_min), _tenths(lat_min)]

    rows = malformed = dropped_missing = dropped_filtered = 0
    drivers: dict[str, int] = {}
    dates: dict[int, bool] = {}
    kept = []  # per block: the retained rows' codes without dist and freq, distances, driver positions
    for block in _blocks(lines, header, list(config.columns.values())):
        n = len(block[0])
        column = dict(zip(config.columns, block))
        present = np.ones(n, dtype=bool)
        for values in block:
            present[_empty_positions(values)] = False
        paid = present & np.fromiter(map(card.__contains__, column["payment_type"]), dtype=bool, count=n)
        alive = paid.tolist()
        pickup = _pickup_buckets(list(itertools.compress(column["pickup_datetime"], alive)), dates)
        numbers = np.array([_floats(list(itertools.compress(column[role], alive))) for role in _NUMBER_ROLES])
        o_lon, o_lat, d_lon, d_lat, distance, fare, tip = numbers
        ok = (pickup >= 0) & np.isfinite(numbers).all(axis=0) & (fare > 0) & (distance >= 0) & (tip >= 0)
        in_box = ok & (lon_min <= o_lon) & (o_lon <= lon_max) & (lon_min <= d_lon) & (d_lon <= lon_max)
        in_box &= (lat_min <= o_lat) & (o_lat <= lat_max) & (lat_min <= d_lat) & (d_lat <= lat_max)
        retained_drivers = itertools.compress(itertools.compress(column["driver_id"], alive), in_box.tolist())
        ids = [drivers.setdefault(driver, len(drivers)) for driver in retained_drivers]
        tip_high = tip >= config.tip_threshold * fare  # TIP_LABELS: low, high
        codes = pickup[in_box] * strides[4] + tip_high[in_box] * strides[6]
        for values, origin, stride in zip(numbers[:4, in_box], origins, strides):
            codes += (_tenths_of(values) - origin) * stride
        kept.append((codes, distance[in_box], np.array(ids, dtype=np.int32)))
        n_present, n_ok = int(np.count_nonzero(present)), int(np.count_nonzero(ok))
        rows += n
        dropped_missing += n - n_present
        dropped_filtered += n_present - len(pickup) + n_ok - len(ids)  # not paid by card, outside the box
        malformed += len(pickup) - n_ok

    codes, distance, driver = [np.concatenate(parts) for parts in zip(*kept)] or [
        np.zeros(0, dtype=dtype) for dtype in (np.int64, np.float64, np.int32)
    ]
    stats = IngestStats(rows, len(codes), dropped_missing, dropped_filtered, malformed)
    return _TaxiScan(stats, codes, distance, driver, list(drivers))


def _taxi_result(scans: Sequence[_TaxiScan], schema: AttributeSchema) -> IngestResult:
    """The histogram of the scans' retained rows, once their drivers and
    distances are put together, and their summed counts."""
    stats = _checked(IngestStats(*map(sum, zip(*(astuple(scan.stats) for scan in scans)))), "taxi")
    drivers: dict[str, int] = {}
    driver = np.concatenate(
        [np.array([drivers.setdefault(d, len(drivers)) for d in scan.drivers], dtype=np.int64)[scan.driver]
         for scan in scans]
    )
    distance = np.concatenate([scan.distance for scan in scans])
    ordered = np.sort(distance)
    t1, t2 = ordered[math.ceil(len(ordered) / 3) - 1], ordered[math.ceil(2 * len(ordered) / 3) - 1]
    del ordered
    freq = tertiles(dict(zip(drivers, np.bincount(driver).tolist())))
    frequency = np.array([TERTILE_LABELS.index(freq[d]) for d in drivers], dtype=np.int64)
    dist = (distance > t1).astype(np.int64) + (distance > t2)  # low, medium, high
    codes = np.concatenate([scan.codes for scan in scans])
    codes += dist * schema.strides[5] + frequency[driver] * schema.strides[7]
    return IngestResult(Histogram.from_codes(schema, *np.unique(codes, return_counts=True)), stats)


# Reading a taxi CSV from its path.  A file of at least _SPLIT_MIN_BYTES with
# no '"' byte is cut into MAX_WORKERS byte ranges, each ending just after a
# newline, whatever the machine.  With no quote character every line is a
# whole row, so each range parses alone.  The ranges are scanned through
# parallel.forked_map: this process reads the first range, header included.
_SPLIT_MIN_BYTES = 8 << 20
_CHUNK_BYTES = 1 << 20


def _range_starts(path) -> list[int]:
    """The byte offset at which each range of the file at path starts."""
    size = os.path.getsize(path)
    if size < _SPLIT_MIN_BYTES:
        return [0]
    starts = [0]
    with open(path, "rb") as f:
        if any(b'"' in chunk for chunk in iter(functools.partial(f.read, _CHUNK_BYTES), b"")):
            return [0]
        for i in range(1, MAX_WORKERS):
            f.seek(max(size * i // MAX_WORKERS, starts[-1]))
            f.readline()  # to just after the next newline
            if f.tell() >= size:
                break
            starts.append(f.tell())
    return starts


def _range_chunks(path, start: int, stop: int | None) -> Iterator[bytes]:
    """Bytes [start, stop) of the file at path, or from start to its end, in
    chunks of about _CHUNK_BYTES, each but the last ending just after a newline.
    A NUL byte is a DataError on any Python (the csv module of 3.11 would read
    it as a character, where that of 3.10 rejects it)."""
    with open(path, "rb") as f:
        if start:
            f.seek(start)
        rest = b""
        while block := f.read(_CHUNK_BYTES if stop is None else min(_CHUNK_BYTES, stop - f.tell())):
            if b"\0" in block:
                raise DataError(f"{path} holds a NUL byte")
            chunk = rest + block
            cut = chunk.rfind(b"\n") + 1
            rest = chunk[cut:]
            yield chunk[:cut]
        yield rest


def text_lines(path, start: int = 0, stop: int | None = None) -> Iterator[str]:
    """The lines of the UTF-8 text file at path, or of its bytes [start, stop),
    split as in a file opened with newline="", from chunks decoded one at a
    time.  The one reader of every trips, riders and neighbourhood file, so a
    NUL byte in any of them is a DataError naming the file."""
    chunks = _range_chunks(path, start, stop)
    return itertools.chain.from_iterable(io.StringIO(chunk.decode("utf8"), newline="") for chunk in chunks)


def _scan_taxi_csv(path, config: TaxiConfig, schema: AttributeSchema) -> list[_TaxiScan]:
    """The scan of each range of the taxi CSV at path, first to last.

    If more than one range fails, the first range's error is raised, as a
    read of the whole file from the start would raise it.
    """
    starts = _range_starts(path)
    ranges = list(zip(starts, [*starts[1:], None]))
    rows = csv.reader(text_lines(path, *ranges[0]))
    header = next(rows, [])  # read before the workers fork

    def scan(byte_range: tuple[int, int | None]) -> _TaxiScan:
        lines = rows if byte_range == ranges[0] else csv.reader(text_lines(path, *byte_range))
        return _scan_taxi(lines, header, config, schema)

    return forked_map(scan, ranges)


def taxi_preprocess(records: Iterable[Mapping[str, str]] | str | os.PathLike, config: TaxiConfig) -> IngestResult:
    """Bucketize taxi trips into the 8-attribute histogram of the experiments.

    Keeps card-paid trips inside the bounding box, rounds coordinates to one
    decimal, tertiles trip distance by trip count (ties to the lower
    category), marks tips high when tip >= tip_threshold * fare, tertiles
    drivers by trip count, and buckets pickup time of day.  A row missing a
    field, paid otherwise than by card, malformed (a time or number that
    does not parse, a number that is not finite, fare <= 0, distance or tip
    < 0) or outside the box is counted, in that order of checks, and dropped.

    records is the path of a UTF-8 trips CSV or an iterable of mappings, a
    csv.DictReader among them.  Rows are checked a block at a time in numpy.
    A path is read in byte ranges: a CSV of 8 MiB or more with no '"' byte
    in four, by one process per CPU available (at most four), with the same
    result, and any other CSV in one.  Any other iterable is read through
    rec.get, one record at a time, so passing the path is the fast way to
    read a file.
    """
    schema = _taxi_schema(config)
    if isinstance(records, (str, os.PathLike)):
        return _taxi_result(_scan_taxi_csv(records, config, schema), schema)
    return _taxi_result([_scan_taxi(*_rows(records, list(config.columns.values())), config, schema)], schema)


@dataclass(frozen=True)
class BikeConfig:
    """Neighborhood list, survey domains, and column mappings for bike trips."""

    neighborhoods: tuple[str, ...]
    companies: tuple[str, ...]
    genders: tuple[str, ...] = ("male", "female", "other")
    helmet_values: tuple[str, ...] = ("yes", "no")
    trip_columns: Mapping[str, str] = field(
        default_factory=lambda: {
            "rider_id": "rider_id",
            "start": "start_nhood",
            "end": "end_nhood",
            "time": "start_time",
            "company": "company",
        }
    )
    rider_columns: Mapping[str, str] = field(
        default_factory=lambda: {"rider_id": "rider_id", "gender": "gender", "helmet": "helmet"}
    )

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "BikeConfig":
        obj = mapping(obj, "bike", BIKE_KEYS)
        kwargs = {key: labels(obj[key], f"bike.{key}") for key in ("genders", "helmet_values") if key in obj}
        for key in ("trip_columns", "rider_columns"):
            if key in obj:
                roles = cls.__dataclass_fields__[key].default_factory()
                kwargs[key] = {**roles, **text_map(obj[key], f"bike.{key}", tuple(roles))}
        return cls(
            neighborhoods=labels(obj.get("neighborhoods"), "bike.neighborhoods"),
            companies=labels(obj.get("companies"), "bike.companies"),
            **kwargs,
        )


def bike_preprocess(
    trips: Iterable[Mapping[str, str]] | str | os.PathLike,
    riders: Iterable[Mapping[str, str]] | str | os.PathLike,
    config: BikeConfig,
) -> IngestResult:
    """Join trips with rider survey attributes and bucketize.

    trips and riders are each the path of a UTF-8 CSV or an iterable of
    mappings, read as by taxi_preprocess.  A rider row missing a field is
    skipped; a later row of a rider id replaces an earlier one.  Trips whose
    rider id is absent from the survey are dropped and counted.  If some
    company's joined gender column is a single constant value, a data-quality
    warning is emitted (a symptom of per-company default values upstream).
    """
    schema = AttributeSchema(
        (
            ("start_nhood", config.neighborhoods),
            ("end_nhood", config.neighborhoods),
            ("time_of_day", TIME_BUCKETS),
            ("helmet", config.helmet_values),
            ("company", config.companies),
            ("gender", config.genders),
        )
    )
    rider_names = [config.rider_columns[role] for role in ("rider_id", "helmet", "gender")]
    survey = {}  # rider id: helmet, gender
    for block in _blocks(*_rows(riders, rider_names), rider_names):
        survey.update((rider, answers) for rider, *answers in zip(*block) if rider and all(answers))

    trip_names = [config.trip_columns[role] for role in ("rider_id", "start", "end", "time", "company")]
    domains = [set(domain) for domain in schema.domains]
    rows = dropped_missing = dropped_filtered = 0
    keys = []
    for block in _blocks(*_rows(trips, trip_names), trip_names):
        rows += len(block[0])
        for rider, start, end, time, company in zip(*block):
            if not (rider and start and end and time and company):
                dropped_missing += 1
            elif rider not in survey:
                dropped_filtered += 1
            else:
                helmet, gender = survey[rider]
                try:
                    key = (start, end, time_bucket(time), helmet, company, gender)
                except DataError:
                    continue  # malformed
                if all(map(operator.contains, domains, key)):
                    keys.append(key)
    malformed = rows - len(keys) - dropped_missing - dropped_filtered
    stats = _checked(IngestStats(rows, len(keys), dropped_missing, dropped_filtered, malformed), "bike")
    histogram = Histogram.from_codes(schema, *np.unique(schema.encode(keys), return_counts=True))

    pairs = sorted({key[4:] for key in histogram.keys()})  # each (company, gender) of a retained trip
    companies = [company for company, _ in pairs]
    warn_messages = tuple(
        f"company {company!r} reports a single constant gender value ({gender!r}); "
        "suspect a default value in the source data"
        for company, gender in pairs if len(set(companies)) > 1 and companies.count(company) == 1
    )
    for msg in warn_messages:
        warnings.warn(msg)
    return IngestResult(histogram, stats, warn_messages)


def _check_distribution(dist: Sequence[float], size: int, what: str) -> tuple[float, ...]:
    dist = numbers(dist, what)
    if len(dist) != size:
        raise ConfigError(f"{what} must have {size} entries, got {len(dist)}")
    if any(p < 0 for p in dist):
        raise ConfigError(f"{what} has negative probabilities")
    if abs(math.fsum(dist) - 1.0) > 1e-12:
        raise ConfigError(f"{what} must sum to 1 within 1e-12")
    return dist


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic ride-hailing generator settings.

    od_seed supplies the origin-destination traffic shape; each generated
    trip draws an OD pair from its normalized counts, a uniform gender, and
    a rating from either one shared distribution (uncorrelated mode) or a
    per-gender distribution (correlated mode).
    """

    od_seed: Histogram
    trips: int
    mode: str = "uncorrelated"
    gender_domain: tuple[str, ...] = DEFAULT_GENDER_DOMAIN
    rating_domain: tuple[str, ...] = DEFAULT_RATING_DOMAIN
    rating_distributions: object = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("uncorrelated", "correlated"):
            raise ConfigError(f"mode must be uncorrelated or correlated, got {self.mode!r}")
        if self.trips <= 0:
            raise ConfigError(f"trips must be positive, got {self.trips!r}")
        if len(self.od_seed.schema.names) != 2:
            raise SchemaError("od_seed must be a two-attribute (origin, destination) histogram")
        dists = self.rating_distributions
        size = len(self.rating_domain)
        if self.mode == "uncorrelated":
            if dists is None:
                dists = DEFAULT_RATING_DIST
            checked = _check_distribution(dists, size, "rating distribution")
        else:
            if dists is None:
                dists = DEFAULT_CORRELATED_DISTS
            if set(mapping(dists, "rating distributions")) != set(self.gender_domain):
                raise ConfigError(
                    f"correlated mode needs one rating distribution per gender {self.gender_domain}"
                )
            checked = {
                g: _check_distribution(dists[g], size, f"rating distribution for {g!r}")
                for g in self.gender_domain
            }
        object.__setattr__(self, "rating_distributions", checked)


def synth_generate(cfg: SynthConfig) -> Histogram:
    """Draw cfg.trips synthetic trips and aggregate them into a histogram.

    Deterministic given cfg.seed.  The output schema is the od_seed's two
    attributes followed by gender and rating.
    """
    od = cfg.od_seed
    if od.total <= 0:
        raise EmptyInputError("od_seed histogram is empty")
    order = np.argsort(od.schema.lex_rank(od.codes))  # OD pairs in key order
    od_codes, p = od.codes[order], od.counts[order] / od.total

    rng = substream(cfg.seed, "synth")
    od_idx = rng.choice(len(od_codes), size=cfg.trips, p=p)
    gender_idx = rng.integers(0, len(cfg.gender_domain), size=cfg.trips)
    if cfg.mode == "uncorrelated":
        rating_idx = rng.choice(len(cfg.rating_domain), size=cfg.trips, p=cfg.rating_distributions)
    else:
        rating_idx = np.zeros(cfg.trips, dtype=np.int64)
        for gi, g in enumerate(cfg.gender_domain):
            mask = gender_idx == gi
            rating_idx[mask] = rng.choice(
                len(cfg.rating_domain), size=int(mask.sum()), p=cfg.rating_distributions[g]
            )

    schema = AttributeSchema(
        (
            *od.schema.attributes,
            ("gender", cfg.gender_domain),
            ("rating", cfg.rating_domain),
        )
    )
    codes = (od_codes[od_idx] * len(cfg.gender_domain) + gender_idx) * len(cfg.rating_domain) + rating_idx
    return Histogram.from_codes(schema, *np.unique(codes, return_counts=True))


def synthetic_od_seed(
    n_neighborhoods: int = 90,
    n_pairs: int = 200,
    total: int = 50_000,
    seed: int = 0,
    skew: float = 0.7,
    uniform_mix: float = 0.5,
) -> Histogram:
    """A skewed origin-destination histogram standing in for real trip data.

    Draws n_pairs distinct OD pairs, gives them Zipf-like weights blended
    with a uniform floor (so tail strata keep workable mass), and assigns
    counts by one multinomial draw of `total` trips.
    """
    if not 1 <= n_pairs <= n_neighborhoods * n_neighborhoods:
        raise ConfigError(f"n_pairs must be from 1 to n_neighborhoods**2, got {n_pairs}")
    hoods = tuple(f"n{i:02d}" for i in range(n_neighborhoods))
    rng = substream(seed, "od-seed")
    flat = rng.choice(n_neighborhoods * n_neighborhoods, size=n_pairs, replace=False)
    with np.errstate(all="ignore"):  # a skew that overflows the weights is rejected below
        zipf = np.power(np.arange(1, n_pairs + 1, dtype=float), -skew)
        weights = uniform_mix / n_pairs + (1.0 - uniform_mix) * zipf / zipf.sum()
    if not (0 <= uniform_mix <= 1 and np.isfinite(weights).all()):
        raise ConfigError(f"uniform_mix {uniform_mix!r} is outside [0, 1] or skew {skew!r} overflows the weights")
    draws = rng.multinomial(total, weights / weights.sum())

    schema = AttributeSchema((("origin", hoods), ("destination", hoods)))
    return Histogram.from_codes(schema, flat, draws)  # flat is the row-major code of each pair
