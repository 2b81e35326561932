"""Property tests against the brute-force oracles in helpers.py."""

import csv
import importlib
import io
import itertools
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from odrelease import (
    AttributeSchema,
    BikeConfig,
    DataError,
    EmptyInputError,
    Histogram,
    PrivacyParams,
    RepairSpec,
    SchemaError,
    SynthConfig,
    TaxiConfig,
    bike_preprocess,
    bootstrap_distances,
    conditional_mutual_information,
    group_by,
    hellinger,
    kl_divergence,
    marginalize,
    merge,
    privatize,
    pwkt,
    read_histogram_csv,
    repair,
    support_union,
    synth_generate,
    taxi_preprocess,
    write_histogram_csv,
)
from odrelease import csvio, histogram, ingest, metrics, parallel
from odrelease.histogram import _exact_sum, align, bucket_groups, rank_by_count
from odrelease.ingest import DEFAULT_TAXI_COLUMNS, _tenths_range, round_coordinate
from odrelease.metrics import (
    _position_weights,
    _pwkt_from_vectors,
    _smaller_before,
    _smaller_before_cells,
    pair_distances,
    percentile,
)
from odrelease.rng import substream

from helpers import (
    align_union1d,
    bike_preprocess_per_row,
    cmi_object,
    encode_per_key,
    kl_object,
    label_positions_broadcast,
    largest_remainder_repair,
    merge_unique,
    privatize_per_bin,
    pwkt_bruteforce,
    pwkt_kernel_lexsort,
    pwkt_lexsort,
    ranking_lexsort,
    ranking_of,
    repair_object,
    synth_generate_choice,
    read_histogram_csv_per_row,
    taxi_preprocess_per_row,
)

WEIGHTS = {"harmonic": lambda i: 1.0 / i, "exponential": lambda i: 0.5 ** (i - 1)}

property_settings = settings(max_examples=150, deadline=None)


@st.composite
def schemas(draw, max_attrs=3, max_labels=3):
    sizes = draw(st.lists(st.integers(1, max_labels), min_size=1, max_size=max_attrs))
    return AttributeSchema(
        tuple((f"a{i}", tuple(f"v{j}" for j in range(size))) for i, size in enumerate(sizes))
    )


@st.composite
def histograms(draw, schema=None, max_count=3):
    """Small counts over a small domain, so ties and absent buckets are common."""
    schema = schema if schema is not None else draw(schemas())
    keys = list(itertools.product(*schema.domains))
    counts = draw(st.lists(st.integers(0, max_count), min_size=len(keys), max_size=len(keys)))
    return Histogram(schema, dict(zip(keys, counts)))


# One attribute with 2-300 labels: pwkt runs up to 9 merge levels, over
# sizes that are mostly not powers of two.
wide_schemas = st.integers(2, 300).map(
    lambda size: AttributeSchema((("a0", tuple(f"v{j}" for j in range(size))),))
)


@st.composite
def histogram_pairs(draw, schema_strategy=schemas(), max_count=3):
    schema = draw(schema_strategy)
    reference = draw(histograms(schema, max_count))
    other = draw(histograms(schema, max_count))
    if draw(st.booleans()):  # force disjoint supports
        other = Histogram(schema, {k: c for k, c in other.items() if k not in reference})
    return reference, other


@property_settings
@given(st.integers(1, 300).flatmap(lambda m: st.permutations(range(1, m + 1))))
def test_smaller_before_matches_the_brute_force_count(sigma):
    sigma = np.array(sigma)
    # row j, column i: i < j and sigma[i] < sigma[j]
    expected = np.tril(sigma[None, :] < sigma[:, None], k=-1).sum(axis=1)
    assert _smaller_before(sigma).tolist() == expected.tolist()


@property_settings
@given(st.one_of(histogram_pairs(), histogram_pairs(wide_schemas, max_count=5)), st.sampled_from(sorted(WEIGHTS)))
def test_pwkt_matches_bruteforce(pair, weighting):
    reference, other = pair
    union = support_union(reference, other)
    brute = pwkt_bruteforce(ranking_of(reference, union), ranking_of(other, union), WEIGHTS[weighting])
    assert pwkt(reference, other, weighting=weighting) == pytest.approx(brute, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(histograms(max_count=6), st.integers(0, 2**31))
def test_bootstrap_fast_path_matches_public_metrics(h, seed):
    assume(h.total > 0)
    metrics = {"pwkt": "pwkt", "hellinger": "hellinger", "pwkt_fn": pwkt, "hellinger_fn": hellinger,
               "pwkt_oracle": pwkt_lexsort}
    d = bootstrap_distances(h, metrics, replicates=3, seed=seed)
    assert np.array_equal(d["pwkt"], d["pwkt_fn"])
    assert d["pwkt"].tobytes() == d["pwkt_oracle"].tobytes()
    assert np.allclose(d["hellinger"], d["hellinger_fn"], rtol=0, atol=1e-12)


def count_vectors(m: int):
    """Counts of m items: from a few values, so ties are common, or spread
    over many; whole counts from an offset that puts them below, across or
    above 2**16 or past 2**40, or fractional ones.  Zero counts stand for
    buckets that only the other histogram holds."""
    few_whole = st.lists(st.sampled_from([0, 1, 2, 5, 2**16]), min_size=m, max_size=m)
    whole = st.one_of(few_whole, st.lists(st.integers(0, 10**6), min_size=m, max_size=m))
    offsets = st.sampled_from([0, 0, 2**16 - 3, 70_000, 2**40])
    fractional = st.lists(st.sampled_from([0.0, 0.5, 1.2, 1.5, 1.7, 3.0]), min_size=m, max_size=m)
    return st.one_of(
        st.builds(lambda values, offset: np.array(values, dtype=np.int64) + offset, whole, offsets),
        fractional.map(np.array),
    )


@st.composite
def count_pairs_in_align_order(draw):
    """Reference and other counts of 2-300 items in align's order, (reference
    count desc, key asc), and each item's key rank."""
    m = draw(st.integers(2, 300))
    ref, other = draw(count_vectors(m)), draw(count_vectors(m))
    key_rank = np.array(draw(st.randoms(use_true_random=False)).sample(range(10 * m), m))
    order = np.lexsort((key_rank, -ref))
    return ref[order], other[order], key_rank[order]


def in_other_ranking(other, key_rank):
    """The items listed in the other ranking, and each item's 1-based position there."""
    order = rank_by_count(other, np.argsort(key_rank))
    sigma = np.empty(len(other), dtype=np.int32)
    sigma[order] = np.arange(1, len(other) + 1)
    return order, sigma


@property_settings
@given(count_pairs_in_align_order())
@example((np.zeros(64, dtype=np.int64), np.arange(64) % 5, np.arange(64)))  # one reference group of 2 blocks
def test_cell_kernel_equals_the_merge_bit_for_bit(pair):
    ref, other, key_rank = pair
    order, sigma = in_other_ranking(other, key_rank)
    cells = _smaller_before_cells(ref, other, order, sigma)
    if cells is not None:
        assert cells.tolist() == _smaller_before(sigma).tolist()


@pytest.mark.parametrize("shape,merged", [("narrow", False), ("wide cells", True), ("wide blocks", True)])
def test_pwkt_takes_the_cell_kernel_only_while_its_tables_fit(monkeypatch, shape, merged):
    m = 400
    random = np.random.default_rng(5)
    if shape == "narrow":  # 5 x 7 cells, reference groups of 3 blocks and other groups of 2 or 3
        ref, other = np.repeat([40, 30, 20, 10, 0], m // 5), random.integers(0, 7, m)
    elif shape == "wide cells":  # (m + 1)**2 cells
        ref, other = np.arange(m, 0, -1), random.permutation(m)
    else:  # 2 x (m + 1) cells, but m values in one reference group of 13 blocks
        ref, other = np.zeros(m, dtype=np.int64), random.permutation(m)
    merges = []
    monkeypatch.setattr(metrics, "_smaller_before", lambda sigma: merges.append(sigma) or _smaller_before(sigma))
    key_rank = np.arange(m)
    fast = _pwkt_from_vectors(ref, other, np.argsort(key_rank), _position_weights(m, "harmonic"))
    assert len(merges) == merged
    assert fast.hex() == pwkt_kernel_lexsort(other, key_rank).hex()
    assert (_smaller_before_cells(ref, other, *in_other_ranking(other, key_rank)) is None) == merged


@property_settings
@given(count_pairs_in_align_order(), st.sampled_from(sorted(WEIGHTS)))
def test_pwkt_kernel_equals_the_lexsort_oracle_bit_for_bit(pair, weighting):
    ref, other, key_rank = pair
    fast = _pwkt_from_vectors(ref, other, np.argsort(key_rank), _position_weights(len(other), weighting))
    assert fast.hex() == pwkt_kernel_lexsort(other, key_rank, weighting).hex()


@st.composite
def ranked_histogram_pairs(draw):
    """Two histograms over a schema whose labels are not in lexicographic
    order, each empty, of one bucket or of any size: whole counts from an
    offset, spanning less than 2**16 or at least 2**16, or fractional
    ones, with ties common."""
    labels = draw(st.integers(1, 20).flatmap(lambda n: st.permutations([f"v{j:02d}" for j in range(n)])))
    schema = AttributeSchema((("a0", tuple(labels)), ("a1", ("1", "0"))))
    pair = []
    for size in draw(st.lists(st.sampled_from([0, 1, None]), min_size=2, max_size=2)):
        codes = draw(st.lists(st.integers(0, schema.global_size - 1), min_size=size or 0, max_size=size, unique=True))
        integral = draw(st.booleans())
        values = [1, 2, 5, 2**16, 2**16 + 1] if integral else [0.5, 1.2, 1.5, 1.7, 3.0]
        counts = draw(st.lists(st.sampled_from(values), min_size=len(codes), max_size=len(codes)))
        offset = draw(st.sampled_from([0, 2**16 - 3, 70_000, 2**40])) if integral else 0
        pair.append(Histogram.from_codes(schema, codes, [offset + c for c in counts], integral=integral))
    return tuple(pair)


@property_settings
@given(ranked_histogram_pairs())
def test_ranking_align_and_merge_equal_the_lexsort_and_unique_oracles(pair):
    reference, other = pair
    for h in pair:
        got, want = h.ranking(), ranking_lexsort(h)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for got, want in zip(align(reference, other), align_union1d(reference, other), strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    got, want = merge(reference, other), merge_unique(reference, other)
    assert got == want and got.counts.dtype == want.counts.dtype and got.counts.tobytes() == want.counts.tobytes()


@property_settings
@given(ranked_histogram_pairs(), st.booleans())
def test_pair_distances_equal_pwkt_and_hellinger_bit_for_bit(pair, other_schema):
    reference, other = pair
    if other_schema:  # the same buckets over a schema whose first attribute has another name
        schema = AttributeSchema((("b0", other.schema.domains[0]), *other.schema.attributes[1:]))
        other = Histogram.from_codes(schema, other.codes, other.counts, other.integral)

    def outcome(distances):
        try:
            return {name: d.hex() for name, d in distances().items()}
        except DataError as exc:
            return type(exc)

    got = outcome(lambda: pair_distances(reference, other))
    assert got == outcome(lambda: {"pwkt": pwkt(reference, other), "hellinger": hellinger(reference, other)})
    if other_schema:
        assert got is SchemaError
    elif not (reference.total and other.total):
        assert got is EmptyInputError


# Nonnegative finite floats, with the edges drawn often: zero, subnormals,
# the smallest normal and values near the largest float.
summands = st.one_of(
    st.floats(0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e308, 1.7976931348623157e308]),
    st.floats(0.0, 1e-300),
)


@property_settings
@given(st.lists(summands, min_size=0, max_size=60))
def test_exact_sum_equals_fsum(values):
    try:
        expected = math.fsum(values)
    except OverflowError:
        with pytest.raises(OverflowError):
            _exact_sum(np.array(values, dtype=float))
        return
    assert _exact_sum(np.array(values, dtype=float)).hex() == expected.hex()


# Finite floats of either sign: signed zeros, subnormals, and magnitudes
# spread over exponents from 1e-300 to 1e300.
signed_summands = st.one_of(
    summands,
    summands.map(lambda v: -v),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 300)),
)


@property_settings
@given(st.lists(signed_summands, min_size=1, max_size=60), st.sampled_from(["as drawn", "cancelling", "first only"]))
@example([-0.0], "as drawn")
@example([-0.0, -0.0, 0.0], "as drawn")
@example([5e-324, -1e-300, 1e300, -1e300], "cancelling")
def test_signed_exact_sum_equals_fsum(values, form):
    if form == "cancelling":  # each value and its negation: the sum is exactly 0
        values = values + [-v for v in reversed(values)]
    elif form == "first only":
        values = values[:1]
    try:
        expected = math.fsum(values)
    except OverflowError:
        with pytest.raises(OverflowError):
            _exact_sum(np.array(values, dtype=float))
        return
    assert _exact_sum(np.array(values, dtype=float)).hex() == expected.hex()


@property_settings
@given(st.lists(st.floats(-8e307, 8e307), min_size=1, max_size=30), st.floats(0.0, 100.0))
def test_percentile_has_numpys_bits_where_no_difference_overflows(values, pct):
    assert percentile(values, pct).hex() == float(np.percentile(values, pct)).hex()


@property_settings
@given(st.data())
def test_label_positions_equal_the_broadcast_oracle(data):
    schema = data.draw(schemas(max_attrs=5, max_labels=7))
    size = schema.global_size
    codes = data.draw(st.lists(st.integers(-2 * size, 2 * size), max_size=40))
    assert np.array_equal(schema.label_positions(codes), label_positions_broadcast(schema, codes))
    assert schema.label_positions(codes).shape == (len(codes), len(schema.names))


@property_settings
@given(st.data())
def test_group_by_equals_marginalize(data):
    h = data.draw(histograms(max_count=5))
    names = data.draw(st.permutations(h.schema.names))
    keep = tuple(names[: data.draw(st.integers(0, len(names)))])
    grouped = group_by(h, keep)
    assert grouped.schema.names == keep
    assert dict(grouped.items()) == marginalize(h, keep).counts
    assert grouped.total == h.total
    positions = [h.schema.position(a) for a in keep]
    for sub, c in grouped.items():
        assert c == sum(v for k, v in h.items() if tuple(k[i] for i in positions) == sub)


@property_settings
@given(st.data(), st.booleans())
def test_csv_round_trip(data, integral):
    schema = data.draw(schemas())
    keys = list(itertools.product(*schema.domains))
    if integral:
        values = st.integers(0, 10**12)
    else:  # nine decimals on write: values with at most three survive exactly
        values = st.integers(0, 10**9).map(lambda k: k / 1000)
    counts = data.draw(st.lists(values, min_size=len(keys), max_size=len(keys)))
    h = Histogram(schema, dict(zip(keys, counts)), integral=integral)
    assume(integral or len(h) > 0)  # an empty file reads back in integer mode
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.csv"
        write_histogram_csv(h, path)
        assert read_histogram_csv(path, schema) == h


CSV_LABELS = ["a", "b", " a", "b c", "x,y", 'q"t', "é", "L" * 150]  # the last is over the field limit below
CSV_COUNTS = ["1", "7", "0", "-5", " 7", "1_000", "12.5", "2.0", "-0.5", "inf", "nan", "1e3", "x", "", "٣",
              str(2**62 + 1), str(2**63), str(2**64), "1" * 5000]


@st.composite
def histogram_csv_bytes(draw, names):
    """The bytes of a histogram CSV of the attributes names, mostly well
    formed: rows short or long, blank or quoted, labels outside the domain,
    counts of every kind, any line ending, and a broken header or byte."""
    rows = [[*names, "count"]] if draw(st.integers(0, 9)) else draw(st.sampled_from([[], [[]], [["a", "count"]]]))
    for _ in range(draw(st.integers(0, 8))):
        row = [*(draw(st.sampled_from(CSV_LABELS + ["zz"])) for _ in names), draw(st.sampled_from(CSV_COUNTS))]
        shape = draw(st.sampled_from(["row"] * 6 + ["blank", "short", "long"]))
        rows.append({"row": row, "blank": [], "short": row[:-1], "long": [*row, "1"]}[shape])
    text = io.StringIO()
    for row in rows:
        quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL] * 3 + [csv.QUOTE_ALL]))
        csv.writer(text, quoting=quoting, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"]))).writerow(row)
    data = text.getvalue().encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\0", b"\xff"])) + data[at:]
    return data


def read_outcome(read, path, schema):
    try:
        return read(path, schema)
    except (DataError, SchemaError, csv.Error, OverflowError) as exc:
        return type(exc), str(exc)


@property_settings
@given(st.data(), st.sampled_from([1 << 20, 16, 1]), st.sampled_from([2048, 2, 1]))
def test_a_histogram_csv_reads_like_the_per_row_reader(data, chunk_bytes, block_rows):
    domains = {name: tuple(data.draw(st.lists(st.sampled_from(CSV_LABELS), min_size=1, max_size=4, unique=True)))
               for name in data.draw(st.sampled_from([("o",), ("o", "d")]))}
    schema = AttributeSchema(tuple(domains.items()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.csv"
        path.write_bytes(data.draw(histogram_csv_bytes(schema.names)))
        limit = csv.field_size_limit(100)
        try:
            with mock.patch.object(csvio, "_CHUNK_BYTES", chunk_bytes), \
                    mock.patch.object(csvio, "_BLOCK_ROWS", block_rows), \
                    mock.patch.object(histogram, "_BLOCK_ROWS", block_rows):
                got = read_outcome(read_histogram_csv, path, schema)
            want = read_outcome(read_histogram_csv_per_row, path, schema)
        finally:
            csv.field_size_limit(limit)
    assert got == want


ENCODE_LABELS = ["", " ", "a", " a", "a b", ",", "a,b", "é", "日本", "v0"]


@st.composite
def keyed_schemas(draw):
    """A schema of 1-4 attributes over ENCODE_LABELS and a list of keys,
    maybe empty: most in the schema, some with labels outside their domain
    and some a label short or long."""
    domains = draw(st.lists(st.lists(st.sampled_from(ENCODE_LABELS), min_size=1, max_size=4, unique=True),
                            min_size=1, max_size=4))
    schema = AttributeSchema(tuple((f"a{i}", tuple(domain)) for i, domain in enumerate(domains)))
    keys = []
    for _ in range(draw(st.integers(0, 6))):
        key = [draw(st.sampled_from(domain if draw(st.integers(0, 4)) else ENCODE_LABELS + ["zz"]))
               for domain in domains]
        shape = draw(st.sampled_from(["key"] * 6 + ["short", "long"]))
        keys.append(tuple({"key": key, "short": key[:-1], "long": [*key, draw(st.sampled_from(ENCODE_LABELS))]}[shape]))
    return schema, keys


def encode_outcome(encode, keys):
    """The codes encode gives keys, or the type and message of the error it raised."""
    try:
        return encode(keys).tolist()
    except Exception as exc:
        return type(exc), str(exc)


@property_settings
@given(keyed_schemas())
def test_encode_and_encode_columns_equal_the_per_key_oracle(case):
    schema, keys = case
    assert encode_outcome(schema.encode, keys) == encode_outcome(lambda k: encode_per_key(schema, k), keys)
    full = [key for key in keys if len(key) == len(schema.names)]
    want = []
    for key in full:
        try:
            want.append(int(encode_per_key(schema, [schema.validate_key(key)])[0]))
        except SchemaError:
            want.append(-1)
    columns = [list(column) for column in zip(*full)] or [[] for _ in schema.names]
    assert schema.encode_columns(columns, len(full)).tolist() == want


@property_settings
@given(st.floats(-180, 180), st.floats(0, 5))
def test_rounded_coordinates_lie_in_the_tenths_range(lo, width):
    hi = lo + width
    labels = _tenths_range(lo, hi)
    assert labels[0] == round_coordinate(lo) and labels[-1] == round_coordinate(hi)
    mid = (lo + hi) / 2
    assert round_coordinate(mid) in labels


@st.composite
def repair_cases(draw, full_support=False):
    """A histogram whose label domains are declared out of lexicographic order,
    with a repair spec.  With full_support, every bucket of each active z
    stratum is active, so the repair's marginal guarantees hold."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))
    domains = [draw(st.permutations([f"v{j}" for j in range(size)])) for size in sizes]
    if all(list(d) == sorted(d) for d in domains):
        domains[0] = domains[0][::-1]
    schema = AttributeSchema(tuple((f"a{i}", tuple(d)) for i, d in enumerate(domains)))
    names = draw(st.permutations(schema.names))
    z = tuple(sorted(names[2 : 2 + draw(st.integers(0, len(names) - 2))]))
    spec = RepairSpec(names[0], names[1], z)
    keys = list(itertools.product(*schema.domains))
    counts = draw(st.lists(st.integers(1 if full_support else 0, 4), min_size=len(keys), max_size=len(keys)))
    if full_support:  # empty out whole z strata, keeping at least one
        zi = [schema.position(a) for a in z]
        strata = sorted({tuple(k[i] for i in zi) for k in keys})
        dropped = set(draw(st.lists(st.sampled_from(strata), max_size=len(strata) - 1, unique=True)))
        counts = [0 if tuple(k[i] for i in zi) in dropped else c for k, c in zip(keys, counts)]
    h = Histogram(schema, dict(zip(keys, counts)))
    assume(h.total > 0)
    return h, spec


@property_settings
@given(repair_cases())
def test_rounded_repair_matches_the_largest_remainder_oracle(case):
    h, spec = case
    result = repair(h, spec)
    assert result.rounded == largest_remainder_repair(result.fractional, spec)
    proj = [h.schema.position(a) for a in (spec.x, spec.y, *spec.z)]
    frac_groups, rounded_groups = {}, {}
    for key, value in result.fractional.items():
        frac_groups.setdefault(tuple(key[i] for i in proj), []).append(value)
    for key, value in result.rounded.items():
        group = tuple(key[i] for i in proj)
        rounded_groups[group] = rounded_groups.get(group, 0) + value
    for group, values in frac_groups.items():
        assert rounded_groups.get(group, 0) == round(math.fsum(values))


@property_settings
@given(repair_cases(full_support=True))
def test_fractional_repair_keeps_marginals_and_kl_equals_cmi(case):
    h, spec = case
    result = repair(h, spec)
    for attrs in ((spec.x, *spec.z), (spec.y, *spec.z)):
        after = marginalize(result.fractional, attrs).counts
        for key, value in marginalize(h, attrs).counts.items():
            assert after[key] == pytest.approx(value, rel=1e-12)
    assert result.kl_divergence == pytest.approx(conditional_mutual_information(h, spec), rel=1e-9, abs=1e-12)
    assert result.cmi_after == pytest.approx(0.0, abs=1e-12)


# Integer counts up to 4 << shift: margin products below, across and above
# 2**53, and at the largest shifts totals of 2**53 or more.
COUNT_SHIFTS = (0, 9, 13, 17, 18, 26, 27, 40, 51, 54)


@st.composite
def scaled_repair_cases(draw):
    """repair_cases with its support recounted: large integers, or fractional counts."""
    h, spec = draw(repair_cases())
    if draw(st.booleans()):
        high = 4 << draw(st.sampled_from(COUNT_SHIFTS))
        counts = draw(st.lists(st.integers(1, high), min_size=len(h), max_size=len(h)))
        return Histogram.from_codes(h.schema, h.codes, counts), spec
    fractions = st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False)
    counts = draw(st.lists(fractions, min_size=len(h), max_size=len(h)))
    return Histogram.from_codes(h.schema, h.codes, counts, integral=False), spec


def _bits(*values):
    return [v.counts.tobytes() if isinstance(v, Histogram) else v.hex() for v in values]


@property_settings
@given(scaled_repair_cases())
def test_repair_cmi_and_kl_equal_the_object_oracles_bit_for_bit(case):
    h, spec = case
    result = repair(h, spec)
    fractional, rounded, cmi_before, cmi_after, kl = repair_object(h, spec)
    assert _bits(result.fractional, result.rounded, result.cmi_before, result.cmi_after, result.kl_divergence) == (
        _bits(fractional, rounded, cmi_before, cmi_after, kl)
    )
    assert _bits(conditional_mutual_information(h, spec)) == _bits(cmi_object(h, spec))
    for p, q in ((h, result.rounded), (result.fractional, h), (result.rounded, result.fractional)):
        if q.total > 0 and p.total > 0:
            assert _bits(kl_divergence(p, q)) == _bits(kl_object(p, q))


# Counts over (x, y, u): with z = () the (x, y) groups hold 2, 1, 3 and 1
# active buckets; with z = ("u",) every group holds one.
ROUNDING_COUNTS = (3, 1, 0, 0, 0, 5, 1, 2, 2, 0, 4, 0)


@pytest.mark.parametrize("z", [(), ("u",)], ids=["shared-and-one-bucket-groups", "one-bucket-groups"])
def test_repair_rounds_each_group_size_on_its_own_path_with_the_oracles_bits(z):
    """repair_object sorts every group; repair sorts only the groups of two or more."""
    schema = AttributeSchema((("x", ("b", "a")), ("y", ("1", "0")), ("u", ("w2", "w0", "w1"))))
    h = Histogram.from_codes(schema, range(12), ROUNDING_COUNTS)
    spec = RepairSpec("x", "y", z)
    sizes = np.bincount(bucket_groups(h, ("x", "y", *z)).index)
    module = importlib.import_module("odrelease.repair")
    with mock.patch.object(module, "_largest_remainder", wraps=module._largest_remainder) as shared_path:
        result = repair(h, spec)
    assert (sizes == 1).any()
    assert shared_path.called == (sizes > 1).any() == (z == ())
    fractional, rounded, cmi_before, cmi_after, kl = repair_object(h, spec)
    assert _bits(result.fractional, result.rounded, result.cmi_before, result.cmi_after, result.kl_divergence) == (
        _bits(fractional, rounded, cmi_before, cmi_after, kl)
    )
    assert np.any(result.fractional.counts != np.floor(result.fractional.counts))


@property_settings
@given(repair_cases())
def test_canonical_order_breaks_ties_by_key_not_by_declared_order(case):
    h, _ = case
    assert h.canonical_order() == sorted(h.keys(), key=lambda k: (-h.get(k), k))


EMPTY = Histogram(AttributeSchema((("a0", ("v0", "v1")), ("a1", ("v0",)))), {})


def _release(mechanism, h, params, seed):
    """The mechanism's result, or the message of the DataError it raised."""
    try:
        return mechanism(h, params, seed)
    except DataError as exc:  # more spurious bins drawn than the complement holds
        return str(exc)


@st.composite
def privatize_cases(draw):
    h = draw(histograms(max_count=6))
    epsilon = draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.05, 20.0)))
    rho = draw(st.floats(0.5, 0.98))  # rho >= 0.5 keeps tau >= 0 for every n >= 1
    complement = h.schema.global_size - len(h)
    n = draw(st.one_of(st.none(), st.just(0), st.integers(0, complement + 3)))
    return h, PrivacyParams.for_histogram(h, epsilon, rho, n), draw(st.integers(0, 2**63 - 1))


@property_settings
@given(privatize_cases())
@example((EMPTY, PrivacyParams.for_histogram(EMPTY, 1.0, 0.5), 3))
@example((EMPTY, PrivacyParams.for_histogram(EMPTY, 1.0, 0.5, 0), 3))
def test_privatize_equals_the_per_bin_oracle(case):
    h, params, seed = case
    got, want = _release(privatize, h, params, seed), _release(privatize_per_bin, h, params, seed)
    if isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got.histogram.codes, want.histogram.codes)
    assert np.array_equal(got.histogram.counts, want.histogram.counts)
    assert got.histogram.counts.dtype == want.histogram.counts.dtype
    assert got.histogram.schema is want.histogram.schema and got.histogram.total == want.histogram.total
    assert got.to_report_obj() == want.to_report_obj()


@property_settings
@given(privatize_cases())
def test_privatize_keys_stay_in_the_schema_and_spurious_ones_outside_the_active_domain(case):
    h, params, seed = case
    result = _release(privatize, h, params, seed)
    assume(not isinstance(result, str))
    codes = result.histogram.codes
    assert np.all((codes >= 0) & (codes < h.schema.global_size))
    active = np.isin(codes, h.codes)
    assert np.count_nonzero(active) == result.retained_active
    assert np.count_nonzero(~active) == result.spurious_added
    assert result.retained_active + result.suppressed_active == len(h)
    assert params.n >= 1 or result.spurious_added == 0


TAXI_HEADER = [DEFAULT_TAXI_COLUMNS[role] for role in DEFAULT_TAXI_COLUMNS]


def _decimal(lo, hi, halves):
    """A number in [lo, hi] written with 0-6 decimals, or a value on a tenths half."""
    written = st.builds(lambda d, v: f"{v:.{d}f}", st.integers(0, 6), st.floats(lo, hi))
    return st.one_of(written, st.sampled_from(halves))


LON, LAT = _decimal(-74.3, -73.6, ["-73.95", "-74.05", "-73.65"]), _decimal(40.4, 41.0, ["40.75", "40.45"])
VALID_TIMES = st.builds(
    "2013-{:02d}-{:02d} {:02d}:{:02d}:{:02d}".format,
    st.integers(1, 12), st.integers(1, 28), st.integers(0, 23), st.integers(0, 59), st.integers(0, 59),
)
# Per field of the strict form: values out of range, or valid only in some months and years.
STRICT_EDGES = ([0, 1900, 2012, 9999], [0, 2, 13], [0, 29, 30, 31, 32], [24, 25, 99], [60, 99], [60, 61, 99])


@st.composite
def strict_times_with_an_edge(draw):
    fields = [2013, draw(st.integers(1, 12)), draw(st.integers(1, 28))] + [draw(st.integers(0, 23)), 0, 0]
    at = draw(st.integers(0, len(fields) - 1))
    fields[at] = draw(st.sampled_from(STRICT_EDGES[at]))
    return "{:04d}-{:02d}-{:02d} {:02d}:{:02d}:{:02d}".format(*fields)


# Forms other than the strict one, which time_bucket parses or rejects.
OTHER_TIME_FORMS = [
    "2013-01-11T08:15:00", "2013-01-11 08:15:00.5", "2013-01-11 08:15:00+05:00", "2013-01-11 19:00:00Z",
    "2013-W02-5 08:15", "2013-01-11 \u0660\u0668:15:00", "\uff12013-01-11 08:15:00", "2013-01-11\u00a008:15:00",
    "08:15", "17:30:00", "not-a-time", "2013-01-11 08:15:0?", "2013/01/11 08:15:00",
]
OTHER_TIMES = st.sampled_from(OTHER_TIME_FORMS)
PICKUP_TIMES = st.one_of(VALID_TIMES, VALID_TIMES, VALID_TIMES, strict_times_with_an_edge(), OTHER_TIMES)
BAD_NUMBERS = st.sampled_from(
    ["nan", "-inf", "Infinity", "1e999", "1_000", "1__0", "abc", "1.2.3", "\u0661\u0662", "-0.0", "0", "-1.5", "99"]
)
FIELDS = {
    "pickup_datetime": PICKUP_TIMES,
    "pickup_longitude": LON,
    "pickup_latitude": LAT,
    "dropoff_longitude": LON,
    "dropoff_latitude": LAT,
    "trip_distance": _decimal(0.0, 20.0, ["0", "1.5"]),
    "fare_amount": _decimal(0.01, 40.0, ["2.5", "10"]),
    "tip_amount": _decimal(0.0, 8.0, ["0", "2"]),
    "payment_type": st.just("CRD"),
    "hack_license": st.sampled_from(["d1", "d2", "d3", "d4", "d5"]),
}
SPOILED_FIELDS = {
    "pickup_datetime": strict_times_with_an_edge(),
    **{name: BAD_NUMBERS for name in TAXI_HEADER[1:8]},
    "payment_type": st.sampled_from(["CSH", "crd"]),
    "hack_license": st.just("D1"),
}


@st.composite
def csv_texts(draw, names, fields, spoiled):
    """CSV text under a header of names, of rows drawn from `fields` with 0-2
    fields spoiled (empty, padded, or drawn from `spoiled`: out of range or
    malformed), short and long rows, blank lines, and sometimes a duplicate,
    a missing or an extra header column.  Lines end in "\r\n" or "\n", now
    and then one in a bare "\r", and the last line may have no end."""
    header = list(names)
    shape = draw(st.sampled_from(["plain", "plain", "duplicate", "missing", "extra"]))
    if shape == "duplicate":  # the later column of the name wins
        header.append(draw(st.sampled_from(names)))
    elif shape == "missing":
        header.remove(draw(st.sampled_from(names)))
    elif shape == "extra":
        header.insert(draw(st.integers(0, len(header))), "vendor_id")
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(fields.get(name, st.just("x"))) for name in header]
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(row) - 1))
            how = draw(st.sampled_from(["empty", "padded", "other"]))
            if how == "empty":
                row[i] = draw(st.sampled_from(["", " ", "\t"]))
            elif how == "padded":
                row[i] = f" {row[i]}\t"
            else:
                row[i] = draw(spoiled.get(header[i], st.just("y")))
        kind = draw(st.sampled_from(["full"] * 6 + ["short", "long", "blank"]))
        if kind == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif kind == "long":
            row += ["extra", "fields"]
        lines.append([] if kind == "blank" else row)
    ending = draw(st.sampled_from(["\r\n", "\n"]))
    out = io.StringIO()
    for line in lines:
        end = draw(st.sampled_from([ending] * 9 + ["\r"]))
        csv.writer(out, lineterminator=end).writerow(line)  # a blank line is its end alone
    text = out.getvalue()
    return text[: -len(end)] if draw(st.booleans()) else text


def taxi_csvs():
    return csv_texts(TAXI_HEADER, FIELDS, SPOILED_FIELDS)


def _ingest(preprocess, records):
    """The ingest result, or the type and message of the error it raised."""
    try:
        return preprocess(records, TaxiConfig())
    except (DataError, EmptyInputError) as exc:
        return type(exc), str(exc)


def assert_same_result(got, want):
    """An ingest result, or an error's type and message, equals the oracle's."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.stats == want.stats
    assert got.histogram.schema == want.histogram.schema
    assert np.array_equal(got.histogram.codes, want.histogram.codes)
    assert np.array_equal(got.histogram.counts, want.histogram.counts)
    assert got.histogram.counts.dtype == want.histogram.counts.dtype


def assert_same_ingest(text):
    for records in (lambda: csv.DictReader(io.StringIO(text, newline="")),
                    lambda: list(csv.DictReader(io.StringIO(text, newline="")))):
        assert_same_result(_ingest(taxi_preprocess, records()), _ingest(taxi_preprocess_per_row, records()))


def _edge_times_csv():
    """Each strict-form edge and each other time form once, in otherwise valid
    rows, between as many plain rows."""
    times = list(OTHER_TIME_FORMS)
    for year, at in itertools.product((1900, 2012, 2013), range(len(STRICT_EDGES))):  # only 2012-02-29 is a date
        for edge in STRICT_EDGES[at]:
            fields = [year, 2, 28, 8, 15, 0]
            fields[at] = edge
            times.append("{:04d}-{:02d}-{:02d} {:02d}:{:02d}:{:02d}".format(*fields))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(TAXI_HEADER)
    for i, time in enumerate(times):
        for pickup in (time, "2013-01-11 08:15:00"):
            writer.writerow([pickup, "-73.95", "40.75", "-73.9", "40.7", str(i % 7), "10", "2", "CRD", f"d{i % 4}"])
    return out.getvalue()


@property_settings
@given(taxi_csvs(), st.sampled_from([1, 2, 3, 2048]))
@example(_edge_times_csv(), 5)
def test_columnar_taxi_ingest_equals_the_per_row_oracle(text, block_rows):
    with mock.patch.object(csvio, "_BLOCK_ROWS", block_rows):  # small blocks split rows across blocks
        assert_same_ingest(text)


@property_settings
@given(taxi_csvs(), st.sampled_from([1, 2, 3, 4]), st.sampled_from([1, 2, 3, 64]), st.sampled_from([1, 2048]),
       st.sampled_from([1, 50, 1 << 20]))
def test_taxi_csv_read_in_byte_ranges_equals_the_per_row_oracle(text, ranges, cpus, block_rows, chunk_bytes):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(csvio, "_SPLIT_MIN_BYTES", 0), \
            mock.patch.object(csvio, "MAX_WORKERS", ranges), \
            mock.patch.object(parallel, "cpus_available", lambda: cpus), \
            mock.patch.object(csvio, "_BLOCK_ROWS", block_rows), \
            mock.patch.object(csvio, "_CHUNK_BYTES", chunk_bytes):
        path = Path(tmp) / "trips.csv"
        path.write_text(text, encoding="utf8", newline="")
        got = _ingest(taxi_preprocess, path)
    assert_same_result(got, _ingest(taxi_preprocess_per_row, csv.DictReader(io.StringIO(text, newline=""))))


def test_columnar_taxi_ingest_equals_the_per_row_oracle_across_blocks():
    rng = np.random.default_rng(10)
    rows = 3 * csvio._BLOCK_ROWS + 1000
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(TAXI_HEADER)
    hour = rng.integers(0, 24, rows)
    for i in range(rows):
        lon, lat = rng.uniform(-74.35, -73.55, 2), rng.uniform(40.35, 41.05, 2)
        fare = rng.uniform(-1.0, 30.0)
        row = [
            f"2013-01-{rng.integers(1, 32):02d} {hour[i]:02d}:{rng.integers(0, 60):02d}:00",
            *(f"{v:.6f}" for v in (lon[0], lat[0], lon[1], lat[1])),
            f"{rng.uniform(0, 20):.2f}", f"{fare:.2f}", f"{fare * rng.choice([0.0, 0.1, 0.2, 0.25]):.2f}",
            rng.choice(["CRD"] * 9 + ["CSH"]), f"D{rng.integers(0, 300):03d}",
        ]
        spoil = rng.integers(0, 40)
        if spoil < len(row):
            row[spoil] = rng.choice(["", "nan", "x", "2013-13-01 00:00:00"])
        writer.writerow(row)
    assert_same_ingest(out.getvalue())


BIKE_CONFIG = BikeConfig(neighborhoods=("Ballard", "Fremont", "Downtown"), companies=("A", "B"))
RIDER_IDS = st.sampled_from(["r0", "r1", "r2", "r3"])  # few, so riders repeat
NHOODS = st.sampled_from(BIKE_CONFIG.neighborhoods)
BIKE_TRIP_FIELDS = {
    "rider_id": RIDER_IDS,
    "start_nhood": NHOODS,
    "end_nhood": NHOODS,
    "start_time": st.one_of(VALID_TIMES, st.sampled_from(["08:00", "18:30", "04:59:59"])),
    "company": st.sampled_from(BIKE_CONFIG.companies),
}
SPOILED_BIKE_TRIP_FIELDS = {  # an unknown rider, a label outside its domain or a time that may not parse
    "rider_id": st.sampled_from(["ghost", "R1"]),
    "start_nhood": st.sampled_from(["Atlantis", "ballard"]),
    "end_nhood": st.just("Atlantis"),
    "start_time": st.one_of(strict_times_with_an_edge(), OTHER_TIMES),
    "company": st.just("C"),
}
RIDER_FIELDS = {"rider_id": RIDER_IDS, "gender": st.sampled_from(BIKE_CONFIG.genders),
                "helmet": st.sampled_from(BIKE_CONFIG.helmet_values)}
SPOILED_RIDER_FIELDS = {"rider_id": st.just("r4"), "gender": st.sampled_from(["unknown", "Female"]),
                        "helmet": st.just("maybe")}
WARNING_CASE = (  # company A's trips all have female riders
    "rider_id,start_nhood,end_nhood,start_time,company\r\n"
    "r1,Ballard,Fremont,08:00,A\r\nr2,Fremont,Ballard,09:00,B\r\nr3,Ballard,Ballard,18:00,B\r\n",
    "rider_id,gender,helmet\r\nr1,female,yes\r\nr2,female,no\r\nr3,male,yes\r\n",
)


def _bike(preprocess, trips, riders):
    """The bike ingest result, or the type and message of the error it raised,
    and the category and message of each warning it emitted."""
    with warnings.catch_warnings(record=True) as emitted:
        warnings.simplefilter("always")
        try:
            result = preprocess(trips, riders, BIKE_CONFIG)
        except (DataError, EmptyInputError) as exc:
            result = type(exc), str(exc)
    return result, [(w.category, str(w.message)) for w in emitted]


@property_settings
@given(csv_texts(list(BIKE_TRIP_FIELDS), BIKE_TRIP_FIELDS, SPOILED_BIKE_TRIP_FIELDS),
       csv_texts(list(RIDER_FIELDS), RIDER_FIELDS, SPOILED_RIDER_FIELDS), st.sampled_from([1, 3, 2048]),
       st.sampled_from([1, 2, 3, 4]))
@example(*WARNING_CASE, 2048, 1)
def test_bike_ingest_of_paths_and_mappings_equals_the_per_row_oracle(trips, riders, block_rows, ranges):
    texts = (trips, riders)
    want, want_emitted = _bike(bike_preprocess_per_row, *(csv.DictReader(io.StringIO(t, newline="")) for t in texts))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(csvio, "_BLOCK_ROWS", block_rows), \
            mock.patch.object(csvio, "_SPLIT_MIN_BYTES", 0), mock.patch.object(csvio, "MAX_WORKERS", ranges):
        paths = [Path(tmp) / "trips.csv", Path(tmp) / "riders.csv"]
        for path, text in zip(paths, texts):
            path.write_text(text, encoding="utf8", newline="")
        runs = [_bike(bike_preprocess, *paths),
                _bike(bike_preprocess, *(list(csv.DictReader(io.StringIO(t, newline=""))) for t in texts))]
    for got, emitted in runs:
        assert_same_result(got, want)
        assert emitted == want_emitted
        assert isinstance(want, tuple) or got.warnings == want.warnings


# One bin of _draw's guide table spans indices 0 to 3,999: 12 search steps.
CLUSTERED_TAIL = [1 - 1e-9] + [1e-9 / 3999] * 3999
PAST_ONE_BLOCK = 2 * ingest._DRAW_BLOCK + 1


@st.composite
def probabilities(draw, max_size=300):
    """A probability vector from weights with zeros and 1e-300 entries."""
    weights = draw(st.lists(st.sampled_from([0.0, 1e-300, 1.0, 3.0]) | st.floats(0, 1e6), min_size=1,
                            max_size=max_size))
    assume(sum(weights) > 0)
    return list(np.array(weights) / math.fsum(weights))


@property_settings
@given(probabilities(), st.sampled_from([0, 1, 3, 999, PAST_ONE_BLOCK]), st.integers(0, 2**31))
@example(CLUSTERED_TAIL, PAST_ONE_BLOCK, 1)
@example(CLUSTERED_TAIL[::-1], 999, 2)
@example([1.0], 999, 3)
@example([1e-300, 0.5, 0.0, 1e-300, 0.5, 0.0], PAST_ONE_BLOCK, 4)
def test_draw_equals_generator_choice_and_leaves_the_same_state(p, size, seed):
    want_rng, got_rng = substream(seed, "draw"), substream(seed, "draw")
    want = want_rng.choice(len(p), size, p=p)
    got = ingest._draw(got_rng, p, size)
    assert got.dtype == np.min_scalar_type(len(p) - 1)
    assert np.array_equal(got, want)
    assert got_rng.random() == want_rng.random()


class Replay:
    """A stand-in generator whose random(n) returns the next n of the given doubles."""

    def __init__(self, doubles):
        self.doubles = np.asarray(doubles, dtype=np.float64)

    def random(self, n):
        out, self.doubles = self.doubles[:n], self.doubles[n:]
        return out


@pytest.mark.parametrize("p", [[0.25, 0.0, 0.25, 0.5], [1e-300, 0.5, 1e-300, 0.5], [0.1] * 10, CLUSTERED_TAIL])
def test_draw_gives_a_double_on_a_cdf_value_or_bin_edge_the_index_choice_does(p):
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    bins = 1 << (4 * len(p) - 1).bit_length()
    ties = np.concatenate([cdf, np.arange(bins) / bins])
    doubles = np.unique(np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, 1), [1 - 2.0**-53]]))
    doubles = doubles[(doubles >= 0) & (doubles < 1)]
    with mock.patch.object(ingest, "_DRAW_BLOCK", 7):
        got = ingest._draw(Replay(doubles), p, len(doubles))
    assert np.array_equal(got, np.searchsorted(cdf, doubles, side="right"))  # Generator.choice's rule


@st.composite
def synth_configs(draw):
    """A SynthConfig over an OD seed of 1 to 324 pairs, with ratings that may hold zeros."""
    hoods = tuple(f"n{i}" for i in range(draw(st.integers(1, 18))))
    schema = AttributeSchema((("origin", hoods), ("destination", hoods)))
    counts = draw(st.lists(st.integers(0, 3) | st.integers(0, 10**6), min_size=len(hoods) ** 2,
                           max_size=len(hoods) ** 2))
    assume(any(counts))
    genders = ("m", "f", "o")[:draw(st.integers(1, 3))]
    ratings = tuple(str(r) for r in range(draw(st.integers(1, 6))))

    def rating_distribution():
        weights = draw(st.lists(st.integers(0, 9), min_size=len(ratings), max_size=len(ratings)))
        assume(any(weights))
        return tuple(w / sum(weights) for w in weights)

    mode = draw(st.sampled_from(["uncorrelated", "correlated"]))
    dists = rating_distribution() if mode == "uncorrelated" else {g: rating_distribution() for g in genders}
    return SynthConfig(Histogram.from_codes(schema, np.arange(len(counts)), counts), draw(st.integers(1, 500)),
                       mode, genders, ratings, dists, draw(st.integers(0, 2**31)))


@property_settings
@given(synth_configs(), st.sampled_from([1, 2, 3, ingest._DRAW_BLOCK]))
def test_synth_generate_equals_the_choice_oracle(cfg, block):
    with mock.patch.object(ingest, "_DRAW_BLOCK", block):
        got = synth_generate(cfg)
    want = synth_generate_choice(cfg)
    assert got.schema == want.schema
    assert np.array_equal(got.codes, want.codes) and np.array_equal(got.counts, want.counts)
