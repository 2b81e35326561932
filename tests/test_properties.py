"""Property tests against the brute-force oracles in helpers.py."""

import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from odrelease import (
    AttributeSchema,
    Histogram,
    bootstrap_distances,
    group_by,
    hellinger,
    marginalize,
    pwkt,
    read_histogram_csv,
    support_union,
    write_histogram_csv,
)
from odrelease.ingest import _tenths_range, round_coordinate

from helpers import pwkt_bruteforce, ranking_of

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
    metrics = {"pwkt": "pwkt", "hellinger": "hellinger", "pwkt_fn": pwkt, "hellinger_fn": hellinger}
    d = bootstrap_distances(h, metrics, replicates=3, seed=seed)
    assert np.array_equal(d["pwkt"], d["pwkt_fn"])
    assert np.allclose(d["hellinger"], d["hellinger_fn"], rtol=0, atol=1e-12)


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


@property_settings
@given(st.floats(-180, 180), st.floats(0, 5))
def test_rounded_coordinates_lie_in_the_tenths_range(lo, width):
    hi = lo + width
    labels = _tenths_range(lo, hi)
    assert labels[0] == round_coordinate(lo) and labels[-1] == round_coordinate(hi)
    mid = (lo + hi) / 2
    assert round_coordinate(mid) in labels
