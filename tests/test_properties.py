"""Property tests against the brute-force oracles in helpers.py."""

import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from odrelease import (
    AttributeSchema,
    DataError,
    Histogram,
    PrivacyParams,
    RepairSpec,
    bootstrap_distances,
    conditional_mutual_information,
    group_by,
    hellinger,
    marginalize,
    privatize,
    pwkt,
    read_histogram_csv,
    repair,
    support_union,
    write_histogram_csv,
)
from odrelease.ingest import _tenths_range, round_coordinate

from helpers import largest_remainder_repair, privatize_per_bin, pwkt_bruteforce, ranking_of

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
