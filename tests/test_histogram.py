import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from odrelease import (
    AttributeSchema,
    ConfigError,
    DataError,
    EmptyInputError,
    Histogram,
    SchemaError,
    group_by,
    marginalize,
    merge,
    normalize,
    read_histogram_csv,
    support_union,
    write_histogram_csv,
)
from odrelease import TaxiConfig, csvio, ingest
from odrelease.histogram import align
from helpers import align_union1d


def taxi_sized_histogram():
    """33,867 buckets of the taxi schema, as many as the taxi ingest of the
    benchmark's 1M-row CSV fills, with about its 24 trips a bucket."""
    schema = ingest._taxi_schema(TaxiConfig())
    rng = np.random.default_rng(32)
    codes = rng.choice(schema.global_size, 33_867, replace=False)
    return Histogram.from_codes(schema, codes, rng.geometric(1 / 24, len(codes)))


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory that tracemalloc traces while it runs."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def two_attr_schema():
    return AttributeSchema((("first", ("a", "b", "c")), ("second", ("0", "1"))))


def worked_histogram():
    return Histogram(two_attr_schema(), {("a", "0"): 3, ("a", "1"): 1, ("b", "0"): 1, ("b", "1"): 3})


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            AttributeSchema((("x", ("a",)), ("x", ("b",))))

    def test_empty_domain_rejected(self):
        with pytest.raises(SchemaError):
            AttributeSchema((("x", ()),))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SchemaError):
            AttributeSchema((("x", ("a", "a")),))

    def test_a_label_holding_nul_is_rejected(self):
        with pytest.raises(SchemaError, match="attribute 'x' has a label holding a NUL character"):
            AttributeSchema((("x", ("a", "b\0c")),))

    def test_global_size_overflow_checked(self):
        domain = tuple(str(i) for i in range(256))
        attrs = tuple((f"x{i}", domain) for i in range(8))  # 256**8 == 2**64
        with pytest.raises(SchemaError):
            AttributeSchema(attrs)

    def test_global_size(self):
        assert two_attr_schema().global_size == 6

    def test_index_roundtrip(self):
        schema = AttributeSchema((("x", ("a", "b", "c")), ("y", ("0", "1")), ("z", ("p", "q"))))
        rng = np.random.default_rng(0)
        for _ in range(50):
            idx = int(rng.integers(0, schema.global_size))
            assert schema.index_of(schema.key_at(idx)) == idx

    def test_index_of_rejects_a_key_of_the_wrong_length(self):
        with pytest.raises(SchemaError):
            two_attr_schema().index_of(("a",))

    @pytest.mark.parametrize(
        "keys,message",
        [
            ([("a", "0"), ("d", "1"), ("a",)], "label 'd' not in domain of attribute 'first'"),
            ([("a", "0"), ("a",), ("d", "1")], r"key \('a',\) has 1 values, schema has 2 attributes"),
            ([("b", "1"), ("a", "0", "x")], r"key \('a', '0', 'x'\) has 3 values"),
            ([("b", "2")], "label '2' not in domain of attribute 'second'"),
        ],
    )
    def test_encode_names_the_first_key_outside_the_schema(self, keys, message):
        with pytest.raises(SchemaError, match=message):
            two_attr_schema().encode(keys)
        with pytest.raises(SchemaError, match=message):
            two_attr_schema().encode(iter(keys))

    @pytest.mark.parametrize("domain", ["mf", ["m", 1], 5, None, {"m": "f"}])
    def test_schema_file_domain_must_be_a_list_of_strings(self, domain):
        with pytest.raises(SchemaError, match="list of strings"):
            AttributeSchema.from_json_obj({"attributes": [{"name": "gender", "domain": domain}]})

    def test_json_roundtrip(self, tmp_path):
        schema = two_attr_schema()
        schema.save(tmp_path / "schema.json")
        assert AttributeSchema.load(tmp_path / "schema.json") == schema

    @pytest.mark.parametrize("data", [b'{"attributes": [', b'{"attributes": []}\xff', b"[" * 100_000])
    def test_a_schema_file_that_is_not_utf8_json_is_a_config_error(self, tmp_path, data):
        (tmp_path / "schema.json").write_bytes(data)
        with pytest.raises(ConfigError, match="is not UTF-8 JSON"):
            AttributeSchema.load(tmp_path / "schema.json")


class TestHistogramConstruction:
    def test_zero_counts_dropped(self):
        h = Histogram(two_attr_schema(), {("a", "0"): 2, ("b", "0"): 0})
        assert len(h) == 1 and h.total == 2

    def test_negative_count_rejected(self):
        with pytest.raises(DataError):
            Histogram(two_attr_schema(), {("a", "0"): -1})

    def test_non_integer_count_rejected_in_integer_mode(self):
        with pytest.raises(DataError):
            Histogram(two_attr_schema(), {("a", "0"): 1.5})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("integral", [True, False])
    def test_non_finite_count_rejected(self, value, integral):
        with pytest.raises(DataError, match="non-finite"):
            Histogram(two_attr_schema(), {("a", "0"): value}, integral=integral)

    @pytest.mark.parametrize(
        "counts",
        [{("a", "0"): 2**63}, {("a", "0"): 2**62, ("b", "0"): 2**62}, {("a", "0"): 2**64}, {("a", "0"): 10**400}],
    )
    def test_integer_counts_must_fit_int64(self, counts):
        with pytest.raises(DataError, match="64-bit integer"):
            Histogram(two_attr_schema(), counts)

    @pytest.mark.parametrize(
        "counts, integral, message",
        [
            ({("a", "0"): 2, ("b", "1"): -1, ("c", "0"): math.nan}, True, r"negative count -1 for bucket \('b', '1'\)"),
            ({("a", "0"): 1.5, ("b", "1"): -1}, True, "non-integer count 1.5 in integer mode"),
            ({("c", "1"): -math.inf, ("a", "0"): 1.5}, True, r"non-finite count -inf for bucket \('c', '1'\)"),
            ({("a", "1"): 2.5, ("b", "0"): -1.0}, False, r"negative count -1.0 for bucket \('b', '0'\)"),
        ],
        ids=["negative-before-nan", "fraction-before-negative", "non-finite-before-fraction", "fractional-mode"],
    )
    def test_the_first_faulty_count_in_input_order_is_named(self, counts, integral, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            Histogram(two_attr_schema(), counts, integral=integral)

    @pytest.mark.parametrize("value,message", [(1e307, "does not fit"), (-2.0**63, "does not fit"), (np.nan, "finite")])
    def test_float_counts_are_range_checked_before_the_integer_cast(self, value, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the cast must not be reached and warn
            with pytest.raises(DataError, match=message):
                Histogram.from_codes(two_attr_schema(), [0, 1], np.array([3.0, value]))

    @pytest.mark.parametrize("counts", [[3, 1.5], np.array([3.0, 1.5])])
    def test_from_codes_rejects_a_fraction_in_integer_mode(self, counts):
        with pytest.raises(DataError, match="non-integer count 1.5"):
            Histogram.from_codes(two_attr_schema(), [0, 1], counts)
        assert Histogram.from_codes(two_attr_schema(), [0, 1], counts, integral=False).total == 4.5

    @pytest.mark.parametrize("code", [6, -1, 2**40])
    def test_from_codes_rejects_a_code_outside_the_schema(self, code):
        with pytest.raises(SchemaError, match=r"outside \[0, 6\)"):
            Histogram.from_codes(two_attr_schema(), [0, code], [1, 1])

    @pytest.mark.parametrize("counts", [[1, 2], [1, 0]])
    def test_from_codes_rejects_a_repeated_code(self, counts):
        with pytest.raises(DataError, match="bucket code 4 is given more than once"):
            Histogram.from_codes(two_attr_schema(), [4, 0, 4], [5, *counts])

    @pytest.mark.parametrize("codes,counts", [([0], [1, 2]), ([0, 1], [1]), ([[0, 1]], [1, 2])])
    def test_from_codes_rejects_codes_and_counts_that_do_not_pair(self, codes, counts):
        with pytest.raises(DataError, match="shape"):
            Histogram.from_codes(two_attr_schema(), codes, counts)

    def test_from_codes_takes_codes_in_any_order(self):
        h = Histogram.from_codes(two_attr_schema(), [5, 0, 2], np.array([1.0, 3.0, 0.0]))
        assert h == Histogram(two_attr_schema(), {("c", "1"): 1, ("a", "0"): 3})

    def test_subset_is_one_schema_per_attribute_tuple(self):
        schema = two_attr_schema()
        sub = schema.subset(["second", "first"])
        assert schema.subset(("second", "first")) is sub and sub.names == ("second", "first")
        assert schema.subset(["first"]) is not sub

    def test_unknown_label_rejected(self):
        with pytest.raises(SchemaError):
            Histogram(two_attr_schema(), {("z", "0"): 1})

    def test_wrong_arity_rejected(self):
        with pytest.raises(SchemaError):
            Histogram(two_attr_schema(), {("a",): 1})

    def test_lookup_validates_key(self):
        h = worked_histogram()
        assert h[("c", "0")] == 0
        with pytest.raises(SchemaError):
            h[("nope", "0")]


class TestMarginalize:
    def test_sum_by_first(self):
        m = marginalize(worked_histogram(), ["first"])
        assert m.counts == {("a",): 4, ("b",): 4}

    def test_empty_projection_is_grand_total(self):
        m = marginalize(worked_histogram(), [])
        assert m.counts == {(): 8}

    def test_identity_projection(self):
        h = worked_histogram()
        m = marginalize(h, ["first", "second"])
        assert m.counts == dict(h.items())

    def test_absent_key_is_zero(self):
        m = marginalize(worked_histogram(), ["first"])
        assert m.get(("c",)) == 0

    def test_unknown_attribute(self):
        with pytest.raises(SchemaError):
            marginalize(worked_histogram(), ["nope"])

    def test_random_properties(self):
        rng = np.random.default_rng(7)
        schema = AttributeSchema(
            (("x", ("a", "b", "c")), ("y", ("0", "1")), ("z", ("p", "q", "r")))
        )
        for _ in range(20):
            counts = {}
            for _ in range(int(rng.integers(1, 12))):
                key = tuple(rng.choice(d) for d in schema.domains)
                counts[key] = int(rng.integers(1, 50))
            h = Histogram(schema, counts)
            # total preserved exactly for any projection
            for attrs in (["x"], ["y", "z"], [], ["x", "y", "z"]):
                assert sum(marginalize(h, attrs).counts.values()) == h.total
            # chained projection T <= S equals direct projection
            inner = marginalize(h, ["x", "z"])
            direct = marginalize(h, ["z"])
            chained = {}
            for key, c in inner.counts.items():
                chained[(key[1],)] = chained.get((key[1],), 0) + c
            assert chained == direct.counts


class TestNormalize:
    def test_uniform(self):
        h = Histogram(two_attr_schema(), {("a", "0"): 2, ("b", "0"): 2})
        assert normalize(h) == {("a", "0"): 0.5, ("b", "0"): 0.5}

    def test_division(self):
        h = Histogram(two_attr_schema(), {("a", "0"): 3, ("b", "0"): 1})
        assert normalize(h) == {("a", "0"): 0.75, ("b", "0"): 0.25}

    def test_empty_errors(self):
        with pytest.raises(EmptyInputError):
            normalize(Histogram(two_attr_schema(), {}))

    def test_sums_to_one_and_rescales(self):
        rng = np.random.default_rng(3)
        schema = two_attr_schema()
        for _ in range(20):
            counts = {
                key: float(rng.integers(1, 1000)) / 8.0
                for key in {("a", "0"), ("b", "1"), ("c", "0")}
            }
            h = Histogram(schema, counts, integral=False)
            dist = normalize(h)
            assert abs(sum(dist.values()) - 1.0) <= 1e-12
            for key, p in dist.items():
                assert abs(p * h.total - h.get(key)) <= 1e-12 * h.total


class TestGroupBy:
    def test_od_aggregation_preserves_total(self):
        schema = AttributeSchema(
            (
                ("origin", ("o1", "o2")),
                ("destination", ("d1", "d2")),
                ("gender", ("m", "f")),
                ("rating", ("1", "2")),
            )
        )
        rng = np.random.default_rng(11)
        counts = {}
        for _ in range(10):
            key = tuple(rng.choice(d) for d in schema.domains)
            counts[key] = int(rng.integers(1, 20))
        h = Histogram(schema, counts)
        g = group_by(h, ["origin", "destination"])
        assert g.total == h.total
        assert g.schema.names == ("origin", "destination")
        assert len(g) <= len(h)

    def test_sum_example(self):
        schema = AttributeSchema(
            (("o", ("o1",)), ("d", ("d1",)), ("g", ("m", "f")))
        )
        h = Histogram(schema, {("o1", "d1", "m"): 2, ("o1", "d1", "f"): 3})
        g = group_by(h, ["o", "d"])
        assert dict(g.items()) == {("o1", "d1"): 5}

    def test_keep_all_is_identity(self):
        h = worked_histogram()
        g = group_by(h, ["first", "second"])
        assert g == h


class TestSupportUnion:
    def test_sort_rule(self):
        schema = AttributeSchema((("x", ("a", "b", "c")),))
        h1 = Histogram(schema, {("a",): 5, ("b",): 1})
        h2 = Histogram(schema, {("b",): 2, ("c",): 4})
        assert support_union(h1, h2) == [("a",), ("b",), ("c",)]

    def test_identical_histograms(self):
        h = worked_histogram()
        union = support_union(h, h)
        assert union == sorted(h.keys(), key=lambda k: (-h.get(k), k))

    def test_lexicographic_tiebreak(self):
        schema = AttributeSchema((("x", ("a", "b")),))
        h1 = Histogram(schema, {("a",): 1, ("b",): 1})
        h2 = Histogram(schema, {})
        assert support_union(h1, h2) == [("a",), ("b",)]

    def test_schema_mismatch(self):
        h1 = worked_histogram()
        h2 = Histogram(AttributeSchema((("other", ("a",)),)), {("a",): 1})
        with pytest.raises(SchemaError):
            support_union(h1, h2)


class TestAlign:
    """align's merged union against np.union1d, on the edge cases of a merge."""

    @staticmethod
    def pair(first, second, integral=True):
        schema = AttributeSchema((("x", ("q", "b", "z", "a", "c", "y")), ("s", ("1", "0"))))
        keys = [(x, s) for x in schema.domains[0] for s in schema.domains[1]]
        return tuple(Histogram(schema, {keys[i]: c for i, c in counts.items()}, integral) for counts in (first, second))

    @pytest.mark.parametrize(
        "first, second",
        [
            pytest.param({}, {}, id="empty-union"),
            pytest.param({}, {3: 2, 7: 1, 11: 5}, id="empty-reference"),
            pytest.param({0: 1, 5: 4, 6: 4}, {}, id="empty-other"),
            pytest.param({0: 3, 2: 1, 4: 2}, {1: 2, 3: 3, 11: 1}, id="disjoint"),
            pytest.param({8: 1, 9: 1, 10: 1}, {0: 7, 1: 2}, id="disjoint-other-first"),
            pytest.param({1: 2, 4: 1, 9: 6}, {1: 5, 4: 1, 9: 2}, id="identical-supports"),
            pytest.param({0: 1, 3: 2, 5: 3, 11: 1}, {3: 1, 4: 4, 11: 2}, id="overlapping"),
        ],
    )
    @pytest.mark.parametrize("integral", [True, False], ids=["int", "frac"])
    def test_equals_the_union1d_oracle(self, first, second, integral):
        reference, other = self.pair(first, second, integral)
        got, want = align(reference, other), align_union1d(reference, other)
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


class TestCsv:
    def test_integer_roundtrip(self, tmp_path):
        h = worked_histogram()
        path = tmp_path / "h.csv"
        write_histogram_csv(h, path)
        again = read_histogram_csv(path, h.schema)
        assert again == h

    def test_fractional_roundtrip_nine_decimals(self, tmp_path):
        schema = two_attr_schema()
        h = Histogram(schema, {("a", "0"): 1.5, ("b", "1"): 0.333333333}, integral=False)
        path = tmp_path / "h.csv"
        write_histogram_csv(h, path)
        text = path.read_text()
        assert "1.500000000" in text and "0.333333333" in text
        again = read_histogram_csv(path, schema)
        assert not again.integral
        assert again.get(("a", "0")) == pytest.approx(1.5, abs=1e-9)

    def test_duplicate_keys_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("first,second,count\na,0,1\na,0,2\n")
        with pytest.raises(DataError, match=r"is given more than once: \('a', '0'\)"):
            read_histogram_csv(path, two_attr_schema())

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("first,second,count\nb,1,2\na,0,-1\n")
        with pytest.raises(DataError, match=r"negative count -1 for bucket \('a', '0'\)"):
            read_histogram_csv(path, two_attr_schema())

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_count_rejected(self, tmp_path, raw):
        path = tmp_path / "h.csv"
        path.write_text(f"first,second,count\na,0,{raw}\nb,1,2\n")
        with pytest.raises(DataError):
            read_histogram_csv(path, two_attr_schema())

    @pytest.mark.parametrize("chunk_bytes", [1 << 20, 50])
    def test_a_byte_that_is_not_utf8_is_a_data_error_naming_the_file_and_its_offset(self, tmp_path, monkeypatch,
                                                                                    chunk_bytes):
        # keys repeat from the third row on: the bad byte is found before any row is read
        rows = "".join(f"{'ab'[i % 2]},{i % 2},{i + 1}\n" for i in range(20_000))
        data = ("first,second,count\n" + rows).encode() + b"\xff,0,1\n"
        path = tmp_path / "h.csv"
        path.write_bytes(data)
        assert len(data) > 2 * 65536  # past any one read buffer
        monkeypatch.setattr(csvio, "_CHUNK_BYTES", chunk_bytes)  # at 50, the bad byte is thousands of chunks in
        with pytest.raises(DataError, match=f"^{re.escape(str(path))} is not UTF-8: invalid start byte at byte {len(data) - 6}$"):
            read_histogram_csv(path, two_attr_schema())

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("wrong,second,count\na,0,1\n")
        with pytest.raises(SchemaError):
            read_histogram_csv(path, two_attr_schema())

    @pytest.mark.parametrize("row,message", [("a,0", "expected 3 fields, got 2"), ("a,0,x", "bad count 'x'")])
    def test_a_bad_row_is_named_by_its_line_blank_rows_counted(self, tmp_path, row, message):
        path = tmp_path / "h.csv"
        path.write_text(f"first,second,count\nb,1,2\n\n{row}\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:4: {re.escape(message)}$"):
            read_histogram_csv(path, two_attr_schema())

    def test_an_empty_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_bytes(b"")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: empty histogram file$"):
            read_histogram_csv(path, two_attr_schema())

    def test_a_blank_first_line_is_a_header_mismatch(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("\nfirst,second,count\na,0,1\n")
        with pytest.raises(SchemaError, match=r": header \[\] does not match schema columns"):
            read_histogram_csv(path, two_attr_schema())

    def test_a_nul_byte_is_a_data_error_on_any_python(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_bytes(b"first,second,count\na,0,1\x00\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))} holds a NUL byte$"):
            read_histogram_csv(path, two_attr_schema())

    def test_reading_a_taxi_sized_histogram_takes_at_most_240_bytes_a_row(self, tmp_path):
        h = taxi_sized_histogram()
        path = tmp_path / "h.csv"
        write_histogram_csv(h, path)
        again, peak = traced_peak(read_histogram_csv, path, h.schema)
        assert again == h
        assert peak / len(h) <= 240  # 47 bytes a row in the file; 797 when every row is kept as a Python list


class TestStore:
    def test_storing_codes_in_ranking_order_takes_at_most_32_bytes_a_code(self):
        h = taxi_sized_histogram()
        order = h.ranking()
        stored, peak = traced_peak(Histogram.from_codes, h.schema, h.codes[order], h.counts[order])
        assert stored == h
        assert peak / len(h) <= 32  # the 16 it keeps; 63 with a float copy, four full fault masks and a list sum

    @pytest.mark.parametrize("counts,message", [
        (np.array([1, -2, -3]), "negative count -2 for bucket ('a', '1')"),
        (np.array([1, 2**63, 2], dtype=np.uint64), "a count does not fit in a 64-bit integer"),
        ([1, 2**64, 2], "a count does not fit in a 64-bit integer"),
        (np.array([1.0, np.nan, -1.0]), "non-finite count nan for bucket ('a', '1')"),
        (np.array([1.0, -1.0, 0.5]), "negative count -1.0 for bucket ('a', '1')"),
        (np.array([1.0, 2.0, 0.5]), "non-integer count 0.5 in integer mode"),
        (np.array([1.0, 2.0**63, 0.5]), "a count does not fit in a 64-bit integer"),
    ])
    def test_the_first_faulty_count_is_named_by_its_first_fault(self, counts, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            Histogram.from_codes(two_attr_schema(), [0, 1, 2], counts)

    def test_a_total_past_int64_is_a_data_error(self):
        with pytest.raises(DataError, match="more than a 64-bit integer holds"):
            Histogram.from_codes(two_attr_schema(), [0, 1, 2], np.array([2**62, 2**62, 2**62]))


def test_merge_adds_counts():
    h1 = worked_histogram()
    h2 = Histogram(two_attr_schema(), {("a", "0"): 1, ("c", "1"): 2})
    m = merge(h1, h2)
    assert m.get(("a", "0")) == 4
    assert m.get(("c", "1")) == 2
    assert m.total == h1.total + h2.total


def test_merge_past_the_int64_total_is_a_data_error_before_any_sum_wraps():
    h = Histogram(two_attr_schema(), {("a", "0"): 3 * 2**61, ("b", "1"): 1})
    with pytest.raises(DataError, match=rf"integer counts total {2 * h.total}, more than a 64-bit integer holds"):
        merge(h, h)
    below = Histogram(two_attr_schema(), {("a", "0"): 2**62 - 1})
    assert merge(below, below).total == 2**63 - 2


def test_merge_to_an_infinite_count_is_a_data_error_alone():
    h = Histogram(two_attr_schema(), {("a", "0"): 1.7e308, ("b", "1"): 1.0}, integral=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would be raised here
        with pytest.raises(DataError, match="non-finite count"):
            merge(h, h)
