"""Loading raw trip records into bucket histograms.

Covers the bucketization rules shared by the real datasets (time-of-day
buckets, per-entity tertiles, coordinate rounding, tip categories) and the
seeded synthetic ride-hailing generator used by the experiments.
"""

from __future__ import annotations

import datetime as _dt
import functools
import itertools
import math
import os
import warnings
from dataclasses import asdict, astuple, dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .config import file_path, finite, labels, mapping, numbers, text_map, whole
from .csvio import Blocks, block_ranges, text_chunks
from .errors import ConfigError, DataError, EmptyInputError, SchemaError
from .histogram import AttributeSchema, Histogram, group_by, merge, read_histogram_csv
from .parallel import forked_map
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
    sizes = (s1, s2, m - s1 - s2)  # of the runs of low, medium and high entities in order
    return dict(zip(order, itertools.chain.from_iterable(map(itertools.repeat, TERTILE_LABELS, sizes))))


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


_NUMBER_ROLES = (
    "pickup_lon", "pickup_lat", "dropoff_lon", "dropoff_lat", "trip_distance", "fare_amount", "tip_amount",
)
# The one time form decoded in numpy; 0 marks an ASCII digit, and the space (at 10) may also be a T.
_STRICT_TIME = np.frombuffer(b"0000-00-00 00:00:00", dtype=np.uint8)
_TIME_FIELDS = ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19))  # year, month, day, hour, minute, second
_HOUR_BUCKETS = np.array([TIME_BUCKETS.index(time_bucket(_dt.time(h))) for h in range(24)])
_TIME_LABELS = np.array([*TIME_BUCKETS, None], dtype=object)  # by TIME_BUCKETS position, and None at -1


def _pickup_buckets(times: list[str], dates: dict[int, bool]) -> np.ndarray:
    """TIME_BUCKETS position of each time, -1 where time_bucket rejects it.

    The strict form YYYY-MM-DD HH:MM:SS in ASCII digits, or the same with T
    for the space (datetime.fromisoformat reads both alike), with fields in
    range and a valid date, is decoded in numpy; every other form goes
    through time_bucket.  `dates` holds the validity of each date seen so far.
    """
    out = np.full(len(times), -1, dtype=np.int8)
    strict = np.flatnonzero(np.fromiter(map(len, times), dtype=np.int64, count=len(times)) == len(_STRICT_TIME))
    text = "".join([times[i] for i in strict.tolist()]).encode("ascii", "replace")  # "?" for any other character
    chars = np.frombuffer(text, dtype=np.uint8).reshape(-1, len(_STRICT_TIME))
    digits = chars - _STRICT_TIME[0]  # wraps below "0"
    ok = np.where(_STRICT_TIME == _STRICT_TIME[0], digits <= 9, chars == _STRICT_TIME)
    ok[:, 10] |= chars[:, 10] == ord("T")
    fields = [digits[:, a:b].astype(np.int64) @ 10 ** np.arange(b - a - 1, -1, -1) for a, b in _TIME_FIELDS]
    year, month, day, hour, minute, second = fields
    ok = ok.all(axis=1) & (hour < 24) & (minute < 60) & (second < 60)
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


def _present(block: list[list[str]]) -> np.ndarray:
    """Whether each row of block has every field, by C-level scans of its columns."""
    present = np.ones(len(block[0]), dtype=bool)
    for values in block:
        at = -1
        for _ in range(values.count("")):
            at = values.index("", at + 1)
            present[at] = False
    return present


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
    per retained row its bucket code without dist and freq, the position of
    its distance in `distances` and that of its driver in `drivers`.  The
    positions take the narrowest unsigned dtype that holds them, so a row
    takes 8 bytes while there are at most 2**16 distinct distances and
    drivers and 2**31 buckets."""

    stats: IngestStats
    codes: np.ndarray  # int32 while the schema has at most 2**31 buckets, else int64
    distance: np.ndarray  # position in distances
    driver: np.ndarray  # position in drivers
    distances: np.ndarray  # the distinct distances, float64, ascending
    drivers: list[str]


def _position_dtype(items) -> np.dtype:
    """The narrowest unsigned dtype that holds every position in items."""
    return np.min_scalar_type(max(len(items) - 1, 0))


def _joined(parts: list[np.ndarray], dtype) -> np.ndarray:
    """The parts end to end as one array of dtype; parts is emptied, so
    each part is freed as soon as it is copied."""
    joined = np.concatenate([np.zeros(0, dtype=dtype), *parts], dtype=dtype)
    parts.clear()
    return joined


def _checked(stats: IngestStats, kind: str) -> IngestStats:
    """stats, unless over half the rows it counts are malformed or it retains none."""
    if stats.rows and stats.malformed > 0.5 * stats.rows:
        raise DataError(f"{stats.malformed} of {stats.rows} rows malformed; refusing to continue")
    if not stats.retained:
        raise EmptyInputError(f"no {kind} trips survived preprocessing")
    return stats


def _scan_taxi(blocks: Blocks, config: TaxiConfig, schema: AttributeSchema) -> _TaxiScan:
    """Check, count and code the taxi rows of blocks, each a block's fields
    under the names of config.columns, as block_ranges gives them.

    Each block's distances are numbered as they are first met and its
    positions kept in the dtype that holds the distinct values so far; at
    the end the numbers are turned into positions in the sorted distinct
    distances, so no array of a float per row is kept past its block."""
    lon_min, lon_max, lat_min, lat_max = config.bbox
    card = set(config.card_values)
    strides = schema.strides.tolist()
    dtype = np.int32 if schema.global_size <= 2**31 else np.int64  # signed, so that int64 adds into it
    origins = [_tenths(lon_min), _tenths(lat_min), _tenths(lon_min), _tenths(lat_min)]

    rows = malformed = dropped_missing = dropped_filtered = 0
    drivers: dict[str, int] = {}
    distances: dict[float, int] = {}  # -0.0 and 0.0 are one key
    dates: dict[int, bool] = {}
    # per block, of the retained rows: codes without dist and freq, distance numbers, driver positions
    kept = ([], [], [])
    for block in blocks:
        n = len(block[0])
        column = dict(zip(config.columns, block))
        present = _present(block)
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
        codes = pickup[in_box] * dtype(strides[4]) + tip_high[in_box] * dtype(strides[6])
        for values, origin, stride in zip(numbers[:4, in_box], origins, strides):
            codes += (_tenths_of(values) - origin) * stride
        met, inverse = np.unique(distance[in_box], return_inverse=True)
        number = np.array([distances.setdefault(value, len(distances)) for value in met.tolist()], dtype=np.int64)
        for part, array in zip(kept, (codes, number.astype(_position_dtype(distances))[inverse],
                                      np.array(ids, dtype=_position_dtype(drivers)))):
            part.append(array)
        n_present, n_ok = int(np.count_nonzero(present)), int(np.count_nonzero(ok))
        rows += n
        dropped_missing += n - n_present
        dropped_filtered += n_present - len(pickup) + n_ok - len(ids)  # not paid by card, outside the box
        malformed += len(pickup) - n_ok

    codes, number, driver = map(_joined, kept, (dtype, _position_dtype(distances), _position_dtype(drivers)))
    values, position = np.unique(np.array(list(distances), dtype=np.float64), return_inverse=True)
    stats = IngestStats(rows, len(codes), dropped_missing, dropped_filtered, malformed)
    return _TaxiScan(stats, codes, position.astype(number.dtype)[number], driver, values, list(drivers))


def _taxi_result(scans: Sequence[_TaxiScan], schema: AttributeSchema) -> IngestResult:
    """The histogram of the scans' retained rows, and their summed counts.

    The scans are merged one at a time, with no array as long as all the
    retained rows or as the bucket domain: each driver's trips and each
    distinct distance's rows are counted per scan; the distance tertile
    cuts, order statistics of all the retained distances, are read off the
    cumulative counts of the distinct distances; and each scan's codes are
    finished in place (so the scans are changed), its dist labels looked up
    from those of its distinct distances, and counted into a histogram of
    its own, which histogram.merge adds to those of the scans before it.
    """
    stats = _checked(IngestStats(*map(sum, zip(*(astuple(scan.stats) for scan in scans)))), "taxi")
    drivers: dict[str, int] = {}
    ids = [np.array([drivers.setdefault(d, len(drivers)) for d in scan.drivers], dtype=np.intp) for scan in scans]
    trips = np.zeros(len(drivers), dtype=np.int64)
    for scan, at in zip(scans, ids):
        trips[at] += np.bincount(scan.driver, minlength=len(at))  # a scan lists each of its drivers once
    freq = tertiles(dict(zip(drivers, trips.tolist())))
    frequency = np.array([TERTILE_LABELS.index(freq[d]) for d in drivers], dtype=np.int64) * schema.strides[7]
    values, inverse = np.unique(np.concatenate([scan.distances for scan in scans]), return_inverse=True)
    rows = np.zeros(len(values), dtype=np.int64)
    for scan, at in zip(scans, np.split(inverse, np.cumsum([len(scan.distances) for scan in scans[:-1]]))):
        rows[at] += np.bincount(scan.distance, minlength=len(at))  # a scan lists each of its distances once
    below = np.cumsum(rows)  # the rows at or below each distinct distance
    cuts = values[np.searchsorted(below, [math.ceil(stats.retained / 3), math.ceil(2 * stats.retained / 3)])]
    for scan, at in zip(scans, ids):
        codes = scan.codes
        codes += frequency[at].astype(codes.dtype)[scan.driver]
        dist = np.searchsorted(cuts, scan.distances) * schema.strides[5]  # the cuts below: low, medium, high
        codes += dist.astype(codes.dtype)[scan.distance]
    counted = (Histogram.from_codes(schema, *np.unique(scan.codes, return_counts=True)) for scan in scans)
    return IngestResult(functools.reduce(merge, counted), stats)  # one scan's histogram at a time


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
    result, and any other CSV in one.  Each range is split at commas where
    that gives the rows csv.reader would, and read by csv.reader elsewhere
    (see csvio._csv_blocks).  Any other iterable is read through rec.get, one
    record at a time, so passing the path is the fast way to read a file.
    If more than one range fails, the first range's error is raised, as a
    read of the whole file from the start would raise it.  Each range hands
    back per retained row a code without dist and freq and the positions of
    its distance and driver in the range's distinct distances and drivers,
    8 bytes a row on TLC-shaped data (see _TaxiScan), and this process
    merges the ranges one at a time, the distance cuts taken from the
    distinct distances and their counts (see _taxi_result), so no box is
    too large to ingest.
    """
    schema = _taxi_schema(config)
    sources = block_ranges(records, list(config.columns.values()))
    return _taxi_result(forked_map(lambda blocks: _scan_taxi(blocks, config, schema), sources), schema)


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
    def from_json_obj(cls, obj: Mapping, base_dir=None) -> "BikeConfig":
        """The bike config in obj; a relative neighborhoods_file is taken from base_dir."""
        if "neighborhoods_file" in mapping(obj, "bike"):
            if "neighborhoods" in obj:
                raise ConfigError("bike: give neighborhoods or neighborhoods_file, not both")
            listed = "".join(text_chunks(file_path(obj["neighborhoods_file"], "bike.neighborhoods_file", base_dir)))
            obj = {**obj, "neighborhoods": [line.strip() for line in listed.splitlines() if line.strip()]}
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
    mappings, read as by taxi_preprocess, a path's byte ranges one after
    another in this process, and trips checked a block at a time in numpy.
    A rider row missing a field is skipped; a later row of a rider id
    replaces an earlier one.  A trip missing a field, then one whose rider
    id the survey lacks, then one malformed (time_bucket rejects its time or
    a label is outside its domain) is counted and dropped.  If some
    company's joined gender column is a single constant value, a
    data-quality warning is emitted (a symptom of per-company default values
    upstream).
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
    for block in itertools.chain.from_iterable(block_ranges(riders, rider_names)):
        survey.update((rider, answers) for rider, *answers in zip(*block) if rider and all(answers))

    trip_names = [config.trip_columns[role] for role in ("rider_id", "start", "end", "time", "company")]
    rows = dropped_missing = dropped_filtered = 0
    dates: dict[int, bool] = {}
    kept = []  # per block, the codes of its retained trips
    for block in itertools.chain.from_iterable(block_ranges(trips, trip_names)):
        present = _present(block).tolist()
        rider, start, end, time, company = (list(itertools.compress(values, present)) for values in block)
        answers = map(survey.get, rider, itertools.repeat((None, None)))  # None for a rider the survey lacks
        helmet, gender = zip(*answers) if rider else ((), ())
        when = _TIME_LABELS[_pickup_buckets(time, dates)]
        codes = schema.encode_columns([start, end, when, helmet, company, gender], len(rider))
        kept.append(codes[codes >= 0])  # -1: a label outside its domain (None: no answers, or a rejected time)
        rows += len(block[0])
        dropped_missing += len(block[0]) - len(rider)
        dropped_filtered += helmet.count(None)
    codes = _joined(kept, np.int64)
    malformed = rows - len(codes) - dropped_missing - dropped_filtered
    stats = _checked(IngestStats(rows, len(codes), dropped_missing, dropped_filtered, malformed), "bike")
    histogram = Histogram.from_codes(schema, *np.unique(codes, return_counts=True))

    pairs = sorted(group_by(histogram, ("company", "gender")).keys())  # each (company, gender) of a retained trip
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
    if n_neighborhoods * n_neighborhoods >= 2**63:  # a domain AttributeSchema refuses: fail before building labels
        raise ConfigError(f"n_neighborhoods**2 must be below 2**63, got n_neighborhoods {n_neighborhoods}")
    if not 1 <= n_pairs <= n_neighborhoods * n_neighborhoods:
        raise ConfigError(f"n_pairs must be from 1 to n_neighborhoods**2, got {n_pairs}")
    total = whole(total, "total")
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


_GENERATE_OD = {"n_neighborhoods": whole, "n_pairs": whole, "total": whole, "seed": whole, "skew": finite,
                "uniform_mix": finite}  # the synthetic_od_seed parameters, with their readers
SYNTH_KEYS = ("generate_od", "od_seed", "od_schema", "trips", "mode", "rating_distribution",
              "rating_distributions", "seed", "gender_domain", "rating_domain")


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
        if not 0 < self.trips < 2**63:
            raise ConfigError(f"trips must be positive and below 2**63, got {self.trips!r}")
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

    @classmethod
    def from_json_obj(cls, obj: Mapping, base_dir=None) -> "SynthConfig":
        """The synth config in obj, its od_seed generated or read; relative paths are taken from base_dir."""
        obj = mapping(obj, "synth", SYNTH_KEYS)
        if "rating_distribution" in obj and "rating_distributions" in obj:
            raise ConfigError("synth: give rating_distribution or rating_distributions, not both")
        if obj.get("generate_od") is not None:
            generate = mapping(obj["generate_od"], "synth.generate_od", tuple(_GENERATE_OD))
            od = synthetic_od_seed(**{key: _GENERATE_OD[key](value, f"synth.generate_od.{key}")
                                      for key, value in generate.items()})
        elif obj.get("od_seed") is not None:
            od_schema = file_path(obj.get("od_schema"), "synth.od_schema", base_dir)
            od = read_histogram_csv(file_path(obj["od_seed"], "synth.od_seed", base_dir),
                                    AttributeSchema.load(od_schema))
        else:
            raise ConfigError("synth config needs od_seed or generate_od")
        domains = {key: labels(obj[key], f"synth.{key}") for key in ("gender_domain", "rating_domain") if key in obj}
        return cls(
            od_seed=od,
            trips=whole(obj.get("trips"), "synth.trips"),
            mode=obj.get("mode", "uncorrelated"),
            rating_distributions=obj.get("rating_distribution", obj.get("rating_distributions")),
            seed=whole(obj.get("seed", 0), "synth.seed"),
            **domains,
        )


# The doubles _draw takes from its generator at a time: its peak memory
# beyond the output stays a few blocks' worth, whatever the number of draws.
_DRAW_BLOCK = 1 << 15


def _draw(rng: np.random.Generator, p, size: int) -> np.ndarray:
    """rng.choice(len(p), size, p=p), bit for bit, leaving rng in the same
    state, in the narrowest unsigned dtype that holds len(p) - 1.

    Generator.choice turns one rng.random double u per draw into the first
    index i with cdf[i] > u by a binary search over the whole cdf.  Here a
    guide table (Chen & Asau 1974) of 2**ceil(log2(4 len(p))) equal bins
    holds, for each bin, the first and last index that a u in it can give;
    only a u whose bin spans several indices is searched, between those two,
    in as many steps as the bit length of the widest bin.
    """
    cdf = np.cumsum(p, dtype=np.float64)
    cdf /= cdf[-1]
    bins = 1 << (4 * len(cdf) - 1).bit_length()
    edges = np.arange(bins + 1) / bins  # exact: bins is a power of two
    dtype = np.min_scalar_type(len(cdf) - 1)
    first = np.searchsorted(cdf, edges[:-1], "right").astype(dtype)
    last = np.searchsorted(cdf, edges[1:], "left").astype(dtype)
    steps = int((last - first).max()).bit_length()
    out = np.empty(size, dtype)
    for start in range(0, size, _DRAW_BLOCK):
        u = rng.random(min(_DRAW_BLOCK, size - start))
        b = (u * bins).astype(np.intp)  # the bin of u, exactly
        out[start:start + len(u)] = first[b]
        if len(wide := np.flatnonzero(first[b] != last[b])):
            u, b = u[wide], b[wide]
            lo, hi = first[b].astype(np.intp), last[b].astype(np.intp)
            for _ in range(steps):  # cdf[lo - 1] <= u < cdf[hi] throughout
                mid = (lo + hi) >> 1
                above = cdf[mid] > u
                lo, hi = np.where(above, lo, mid + 1), np.where(above, mid, hi)
            out[start + wide] = lo
    return out


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
    od_idx = _draw(rng, p, cfg.trips)
    gender_idx = rng.integers(0, len(cfg.gender_domain), size=cfg.trips)
    if cfg.mode == "uncorrelated":
        rating_idx = _draw(rng, cfg.rating_distributions, cfg.trips)
    else:
        rating_idx = np.zeros(cfg.trips, dtype=np.min_scalar_type(len(cfg.rating_domain) - 1))
        for gi, g in enumerate(cfg.gender_domain):
            mask = gender_idx == gi
            rating_idx[mask] = _draw(rng, cfg.rating_distributions[g], int(mask.sum()))

    schema = AttributeSchema(
        (
            *od.schema.attributes,
            ("gender", cfg.gender_domain),
            ("rating", cfg.rating_domain),
        )
    )
    codes = od_codes[od_idx]  # each trip's bucket code, built in place
    codes *= len(cfg.gender_domain)
    codes += gender_idx
    codes *= len(cfg.rating_domain)
    codes += rating_idx
    del od_idx, gender_idx, rating_idx  # freed before np.unique sorts a copy of codes
    return Histogram.from_codes(schema, *np.unique(codes, return_counts=True))
