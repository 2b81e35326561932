"""Shared generators, brute-force oracles and process probes for the test suite."""

import csv
import itertools
import math
import multiprocessing
import os
import warnings

import numpy as np

from odrelease import AttributeSchema, DataError, EmptyInputError, Histogram, RepairSpec, SchemaError
from odrelease.csvio import _lines, text_chunks
from odrelease.histogram import align, bucket_groups
from odrelease.ingest import (
    TERTILE_LABELS,
    TIME_BUCKETS,
    TIP_LABELS,
    IngestResult,
    IngestStats,
    _tenths_range,
    round_coordinate,
    tertiles,
    time_bucket,
)
from odrelease.metrics import _position_weights, _smaller_before
from odrelease.privacy import ReleaseResult, _complement_codes, binomial_sample, exponential_sample, laplace_sample
from odrelease.rng import substream

ATTR_NAMES = ("a0", "a1", "a2", "a3")


def recording_pids(path, fn):
    """fn, which first appends the id of the process it runs in to the file at path."""

    def recorded(*args):
        with open(path, "a") as f:
            f.write(f"{os.getpid()}\n")
        return fn(*args)

    return recorded


def assert_no_child_left():
    """No worker of this process is running or left unreaped."""
    assert multiprocessing.active_children() == []
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process is left")


def read_histogram_csv_per_row(path, schema):
    """read_histogram_csv by one csv.reader over the whole decoded file, a
    row at a time, every key and count kept until the last row is read."""
    reader = csv.reader(_lines(list(text_chunks(path))))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty histogram file") from None
    expected = list(schema.names) + ["count"]
    if header != expected:
        raise SchemaError(f"{path}: header {header!r} does not match schema columns {expected!r}")
    keys, counts, integral = [], [], True
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(expected):
            raise DataError(f"{path}:{lineno}: expected {len(expected)} fields, got {len(row)}")
        raw = row[-1]
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad count {raw!r}") from None
            integral = False
        keys.append(row[:-1])
        counts.append(value)
    return Histogram.from_codes(schema, schema.encode(keys), counts, integral)


def random_full_support_case(rng, binary_xy=False, max_labels=5):
    """Random small histogram plus spec satisfying full conditional support.

    For every active conditioning stratum z, a subset of X labels and a
    subset of Y labels is chosen and every (x, y) pair in their product gets
    at least one positively counted bucket, so the factorization's support
    is a per-stratum product as the repair guarantees require.  With
    binary_xy=True, X and Y get two labels each and both X labels appear in
    every stratum (so overlap holds everywhere).
    """
    n_attrs = int(rng.integers(2, 5))
    names = ATTR_NAMES[:n_attrs]
    sizes = {}
    for name in names:
        sizes[name] = int(rng.integers(2, max_labels + 1))
    order = list(rng.permutation(n_attrs))
    x_name, y_name = names[order[0]], names[order[1]]
    rest = [names[i] for i in order[2:]]
    n_z = int(rng.integers(0, len(rest) + 1))
    z_names = tuple(sorted(rest[:n_z]))
    if binary_xy:
        sizes[x_name] = 2
        sizes[y_name] = 2

    schema = AttributeSchema(
        tuple((name, tuple(f"v{j}" for j in range(sizes[name]))) for name in names)
    )
    spec = RepairSpec(x_name, y_name, z_names)

    xi = schema.position(x_name)
    yi = schema.position(y_name)
    zi = [schema.position(n) for n in z_names]
    ui = [i for i in range(n_attrs) if i != xi and i != yi and i not in zi]

    z_domains = [schema.domains[i] for i in zi]
    u_domains = [schema.domains[i] for i in ui]
    all_strata = list(itertools.product(*z_domains)) if zi else [()]
    n_active = int(rng.integers(1, len(all_strata) + 1))
    strata = [all_strata[i] for i in rng.choice(len(all_strata), size=n_active, replace=False)]

    counts = {}
    for zkey in strata:
        x_labels = list(schema.domains[xi])
        y_labels = list(schema.domains[yi])
        if binary_xy:
            sx = x_labels
        else:
            kx = int(rng.integers(1, len(x_labels) + 1))
            sx = [x_labels[i] for i in rng.choice(len(x_labels), size=kx, replace=False)]
        ky = int(rng.integers(1, len(y_labels) + 1))
        sy = [y_labels[i] for i in rng.choice(len(y_labels), size=ky, replace=False)]
        u_cells = list(itertools.product(*u_domains)) if ui else [()]
        for x_lab, y_lab in itertools.product(sx, sy):
            ku = int(rng.integers(1, len(u_cells) + 1))
            chosen = [u_cells[i] for i in rng.choice(len(u_cells), size=ku, replace=False)]
            for ucell in chosen:
                key = [None] * n_attrs
                key[xi] = x_lab
                key[yi] = y_lab
                for pos, lab in zip(zi, zkey):
                    key[pos] = lab
                for pos, lab in zip(ui, ucell):
                    key[pos] = lab
                counts[tuple(key)] = int(rng.integers(1, 16))
    return Histogram(schema, counts), spec


def largest_remainder(values):
    """Round a group so the rounded sum equals round(sum of values).

    The floors are raised by one in order of decreasing remainder, ties
    going to the lexicographically smaller key.
    """
    target = round(math.fsum(values.values()))
    floors = {key: math.floor(v) for key, v in values.items()}
    short = target - sum(floors.values())
    by_remainder = sorted(values, key=lambda k: (-(values[k] - floors[k]), k))
    for key in by_remainder[:short]:
        floors[key] += 1
    return floors


def largest_remainder_repair(fractional, spec):
    """The rounded repair of a fractional one, rounded group by (x, y, z) group."""
    proj = [fractional.schema.position(a) for a in (spec.x, spec.y, *spec.z)]
    groups = {}
    for key, value in fractional.items():
        groups.setdefault(tuple(key[i] for i in proj), {})[key] = value
    rounded = {}
    for members in groups.values():
        rounded.update(largest_remainder(members))
    return Histogram(fractional.schema, rounded)


def ranking_of(h, union_keys):
    """Count-descending ranking over union_keys, ties broken by key."""
    return sorted(union_keys, key=lambda k: (-h.get(k, 0), k))


def pwkt_bruteforce(ref_ranking, other_ranking, weight=lambda i: 1.0 / i):
    """Sum of (w(i)+w(j))/2 over discordant pairs by direct enumeration."""
    pos_ref = {k: i + 1 for i, k in enumerate(ref_ranking)}
    pos_other = {k: i + 1 for i, k in enumerate(other_ranking)}
    terms = []
    items = list(ref_ranking)
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            u, v = items[a], items[b]
            if (pos_ref[u] - pos_ref[v]) * (pos_other[u] - pos_other[v]) < 0:
                terms.append(0.5 * (weight(pos_ref[u]) + weight(pos_ref[v])))
    return math.fsum(terms)


def pwkt_kernel_lexsort(other_counts, key_rank, weighting="harmonic"):
    """The pwkt kernel with sigma from one lexsort of (key, -count) and math.fsum over a list."""
    m = len(other_counts)
    if m <= 1:
        return 0.0
    weights = _position_weights(m, weighting)
    sigma = np.empty(m, dtype=np.int32)
    sigma[np.lexsort((key_rank, -other_counts))] = np.arange(1, m + 1)
    smaller = _smaller_before(sigma).astype(np.int64)
    participation = np.arange(m, dtype=np.int64) + sigma - 1 - 2 * smaller
    return 0.5 * math.fsum((weights * participation).tolist())


def pwkt_lexsort(reference, other, weighting="harmonic"):
    """pwkt through pwkt_kernel_lexsort."""
    _, _, other_counts, key_order = align(reference, other)
    return pwkt_kernel_lexsort(other_counts, np.argsort(key_order), weighting)


def ranking_lexsort(h):
    """Histogram.ranking through one lexsort of (key, -count)."""
    return np.lexsort((h.schema.lex_rank(h.codes), -h.counts))


def align_union1d(reference, other):
    """align through np.union1d, counts_at and a lexsort: the union's codes in
    the reference ranking, each histogram's counts there and the ranked
    positions in key order."""
    codes = np.union1d(reference.codes, other.codes)
    ref, oth = reference.counts_at(codes), other.counts_at(codes)
    key = reference.schema.lex_rank(codes)
    order = np.lexsort((key, -ref))
    return codes[order], ref[order], oth[order], np.argsort(key[order])


def merge_unique(h1, h2):
    """merge through np.unique and np.add.at."""
    codes, index = np.unique(np.concatenate([h1.codes, h2.codes]), return_inverse=True)
    counts = np.zeros(len(codes), dtype=np.result_type(h1.counts, h2.counts))
    np.add.at(counts, index, np.concatenate([h1.counts, h2.counts]))
    return Histogram.from_codes(h1.schema, codes, counts, integral=h1.integral and h2.integral)


def margins_object(h, spec):
    """Each bucket's count summed over its (x,z), (y,z), z and (x,y,z) groups,
    as object arrays of Python numbers, and the (x,y,z) groups."""
    sums = []
    for attrs in ((spec.x, *spec.z), (spec.y, *spec.z), spec.z, (spec.x, spec.y, *spec.z)):
        groups = bucket_groups(h, attrs)
        sums.append(groups.sum(h.counts).astype(object)[groups.index])
    return sums, groups


def cmi_object(h, spec):
    """conditional_mutual_information with every ratio taken on object arrays of Python numbers."""
    n = h.total
    (xz, yz, z, xyz), groups = margins_object(h, spec)
    first = groups.first
    c = xyz[first]
    ratios = z[first] * c / (xz[first] * yz[first])
    return max(math.fsum((ci / n) * math.log(r) for ci, r in zip(c, ratios)), 0.0)


def kl_object(h, q):
    """kl_divergence with every ratio taken on object arrays of Python numbers."""
    qc = q.counts_at(h.codes)
    if np.any(qc <= 0):
        return math.inf
    p = h.counts.astype(object) / h.total
    ratios = p / (qc.astype(object) / q.total)
    return math.fsum(pi * math.log(r) for pi, r in zip(p, ratios))


def repair_object(h, spec):
    """repair's fractional and rounded histograms and its cmi_before, cmi_after
    and kl_divergence, with every ratio taken on object arrays of Python numbers
    and each group's target rounded from math.fsum."""
    schema = h.schema
    (xz, yz, z, xyz), groups = margins_object(h, spec)
    frac = (h.counts.astype(object) * xz * yz / (z * xyz)).astype(float)
    fractional = Histogram.from_codes(schema, h.codes, frac, integral=False)
    floors = np.floor(frac)
    order = np.lexsort((schema.lex_rank(h.codes), floors - frac, groups.index))
    group_of = groups.index[order]
    starts = np.searchsorted(group_of, np.arange(len(groups.codes)))
    ordered, bounds = frac[order].tolist(), [*starts.tolist(), len(order)]
    targets = np.array([round(math.fsum(ordered[a:b])) for a, b in zip(bounds, bounds[1:])])
    short = targets - groups.sum(floors.astype(np.int64))
    rounded_counts = floors.astype(np.int64)
    rounded_counts[order] += np.arange(len(order)) - starts[group_of] < short[group_of]
    rounded = Histogram.from_codes(schema, h.codes, rounded_counts)
    return fractional, rounded, cmi_object(h, spec), cmi_object(fractional, spec), kl_object(h, fractional)


def label_positions_broadcast(schema, codes):
    """AttributeSchema.label_positions as one broadcast division by the strides array."""
    return np.asarray(codes, dtype=np.int64)[:, None] // schema.strides % np.array(schema.shape, dtype=np.int64)


def ladder_histograms(m):
    """Reference with counts m..1 and its exact reversal, distinct counts."""
    schema = AttributeSchema((("item", tuple(f"i{j:02d}" for j in range(m))),))
    ref = Histogram(schema, {(f"i{j:02d}",): m - j for j in range(m)})
    rev = Histogram(schema, {(f"i{j:02d}",): j + 1 for j in range(m)})
    return ref, rev


def full_reversal_closed_form(m):
    """Sum over all pairs i < j of (1/i + 1/j)/2."""
    return math.fsum(
        0.5 * (1.0 / i + 1.0 / j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
    )


def privatize_per_bin(h, params, seed):
    """privatize with one generator per drawn value: bin i's noise from substream(seed, "active", i)."""
    eps, tau, n = params.epsilon, params.tau, params.n
    order = h.ranking()
    noised = np.array([
        laplace_sample(float(c), 1.0 / eps, substream(seed, "active", i))
        for i, c in enumerate(h.counts[order].tolist())
    ])
    kept = noised >= tau
    codes, values = [h.codes[order][kept]], [noised[kept]]
    k = 0
    if n >= 1:
        k = binomial_sample(n, 0.5 * math.exp(-eps * tau), substream(seed, "spurious-count"))
        codes.append(_complement_codes(h.schema, h.codes, k, substream(seed, "spurious-keys")))
        values.append([tau + exponential_sample(1.0 / eps, substream(seed, "spurious-value", j)) for j in range(k)])
    released = np.maximum(1, np.rint(np.concatenate(values)))
    retained = int(np.count_nonzero(kept))
    return ReleaseResult(
        histogram=Histogram.from_codes(h.schema, np.concatenate(codes), released),
        retained_active=retained,
        suppressed_active=len(h) - retained,
        spurious_added=k,
        seed=seed,
    )


def taxi_preprocess_per_row(records, config):
    """taxi_preprocess one record at a time: a dict of stripped values per row."""
    cols = config.columns
    lon_min, lon_max, lat_min, lat_max = config.bbox
    card = set(config.card_values)

    rows = malformed = dropped_missing = dropped_filtered = 0
    trips = []
    for rec in records:
        rows += 1
        raw = {role: (rec.get(col) or "").strip() for role, col in cols.items()}
        if any(not raw[role] for role in cols):
            dropped_missing += 1
            continue
        if raw["payment_type"] not in card:
            dropped_filtered += 1
            continue
        try:
            pickup = time_bucket(raw["pickup_datetime"])
            o_lon, o_lat = float(raw["pickup_lon"]), float(raw["pickup_lat"])
            d_lon, d_lat = float(raw["dropoff_lon"]), float(raw["dropoff_lat"])
            distance = float(raw["trip_distance"])
            fare = float(raw["fare_amount"])
            tip = float(raw["tip_amount"])
        except (ValueError, DataError):
            malformed += 1
            continue
        finite = all(map(math.isfinite, (o_lon, o_lat, d_lon, d_lat, distance, fare, tip)))
        if not finite or fare <= 0 or distance < 0 or tip < 0:
            malformed += 1
            continue
        in_box = lon_min <= o_lon <= lon_max and lon_min <= d_lon <= lon_max
        in_box = in_box and lat_min <= o_lat <= lat_max and lat_min <= d_lat <= lat_max
        if not in_box:
            dropped_filtered += 1
            continue
        trips.append(
            (
                round_coordinate(o_lon),
                round_coordinate(o_lat),
                round_coordinate(d_lon),
                round_coordinate(d_lat),
                pickup,
                distance,
                "high" if tip >= config.tip_threshold * fare else "low",
                raw["driver_id"],
            )
        )

    if rows and malformed > 0.5 * rows:
        raise DataError(f"{malformed} of {rows} rows malformed; refusing to continue")
    if not trips:
        raise EmptyInputError("no taxi trips survived preprocessing")

    ordered = sorted(t[5] for t in trips)
    t1 = ordered[math.ceil(len(ordered) / 3) - 1]
    t2 = ordered[math.ceil(2 * len(ordered) / 3) - 1]
    driver_totals = {}
    for t in trips:
        driver_totals[t[7]] = driver_totals.get(t[7], 0) + 1
    freq = tertiles(driver_totals)

    schema = AttributeSchema(
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
    counts = {}
    for o_lon, o_lat, d_lon, d_lat, pickup, distance, tip_cat, driver in trips:
        dist_cat = "low" if distance <= t1 else ("medium" if distance <= t2 else "high")
        key = (o_lon, o_lat, d_lon, d_lat, pickup, dist_cat, tip_cat, freq[driver])
        counts[key] = counts.get(key, 0) + 1

    stats = IngestStats(rows, len(trips), dropped_missing, dropped_filtered, malformed)
    return IngestResult(Histogram(schema, counts), stats)


def bike_preprocess_per_row(trips, riders, config):
    """bike_preprocess one record at a time: a dict of stripped values per trip,
    and per company the set of its retained trips' genders."""
    tcols, rcols = config.trip_columns, config.rider_columns
    survey = {}
    for rec in riders:
        rid = (rec.get(rcols["rider_id"]) or "").strip()
        gender = (rec.get(rcols["gender"]) or "").strip()
        helmet = (rec.get(rcols["helmet"]) or "").strip()
        if rid and gender and helmet:
            survey[rid] = (gender, helmet)

    nhoods = set(config.neighborhoods)
    companies = set(config.companies)
    genders = set(config.genders)
    helmets = set(config.helmet_values)

    rows = malformed = dropped_missing = dropped_filtered = 0
    counts = {}
    genders_by_company = {}
    for rec in trips:
        rows += 1
        raw = {role: (rec.get(col) or "").strip() for role, col in tcols.items()}
        if any(not raw[role] for role in tcols):
            dropped_missing += 1
            continue
        if raw["rider_id"] not in survey:
            dropped_filtered += 1
            continue
        gender, helmet = survey[raw["rider_id"]]
        try:
            bucket_time = time_bucket(raw["time"])
        except DataError:
            malformed += 1
            continue
        if (
            raw["start"] not in nhoods
            or raw["end"] not in nhoods
            or raw["company"] not in companies
            or gender not in genders
            or helmet not in helmets
        ):
            malformed += 1
            continue
        key = (raw["start"], raw["end"], bucket_time, helmet, raw["company"], gender)
        counts[key] = counts.get(key, 0) + 1
        genders_by_company.setdefault(raw["company"], set()).add(gender)

    if rows and malformed > 0.5 * rows:
        raise DataError(f"{malformed} of {rows} rows malformed; refusing to continue")
    if not counts:
        raise EmptyInputError("no bike trips survived preprocessing")

    warn_messages = []
    if len(genders_by_company) > 1:
        for company in sorted(genders_by_company):
            seen = genders_by_company[company]
            if len(seen) == 1:
                msg = (
                    f"company {company!r} reports a single constant gender value "
                    f"({next(iter(seen))!r}); suspect a default value in the source data"
                )
                warn_messages.append(msg)
                warnings.warn(msg)

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
    retained = sum(counts.values())
    stats = IngestStats(rows, retained, dropped_missing, dropped_filtered, malformed)
    return IngestResult(Histogram(schema, counts), stats, tuple(warn_messages))


def synth_generate_choice(cfg):
    """synth_generate drawing its OD pairs and ratings by Generator.choice."""
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
