"""Sparse categorical histograms over declared attribute domains.

A histogram stores only its active domain (buckets with nonzero count), as
sorted row-major bucket codes plus counts.  The global domain, the full cross
product of the attribute domains, lives in the schema and is consulted for
validation, bucket coding, and the out-of-active-domain machinery in the
privacy module.  Ties broken by key use lex_rank, never the code order, and
every (count desc, key asc) order is sorted by one helper, rank_by_count.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .config import load_json
from .errors import DataError, EmptyInputError, SchemaError

BucketKey = tuple[str, ...]

_INT64_LIMIT = 2**63
_COUNT_COLUMN = "count"


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered categorical attributes, each with a declared global domain."""

    attributes: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        norm = tuple(
            (str(name), tuple(str(label) for label in domain))
            for name, domain in self.attributes
        )
        object.__setattr__(self, "attributes", norm)
        names = [name for name, _ in norm]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names: {names}")
        size = 1
        for name, domain in norm:
            if not domain:
                raise SchemaError(f"attribute {name!r} has an empty domain")
            if len(set(domain)) != len(domain):
                raise SchemaError(f"attribute {name!r} has duplicate labels")
            if any("\0" in label for label in domain):
                raise SchemaError(f"attribute {name!r} has a label holding a NUL character")
            size *= len(domain)
            if size >= _INT64_LIMIT:
                raise SchemaError("global bucket space does not fit in 63 bits")

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.attributes)

    @cached_property
    def domains(self) -> tuple[tuple[str, ...], ...]:
        return tuple(domain for _, domain in self.attributes)

    @cached_property
    def global_size(self) -> int:
        return math.prod(len(domain) for domain in self.domains)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(domain) for domain in self.domains)

    @cached_property
    def strides(self) -> np.ndarray:
        """Row-major place value of each attribute's label position in a bucket code."""
        return np.array([math.prod(self.shape[i + 1 :]) for i in range(len(self.shape))], dtype=np.int64)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def _label_indexes(self) -> tuple[dict[str, int], ...]:
        return tuple({label: i for i, label in enumerate(domain)} for domain in self.domains)

    @cached_property
    def _label_ranks(self) -> tuple[np.ndarray, ...]:
        """Each label position's rank among the attribute's labels sorted lexicographically."""
        return tuple(np.argsort(sorted(range(len(d)), key=d.__getitem__)) for d in self.domains)

    def position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def domain(self, name: str) -> tuple[str, ...]:
        return self.domains[self.position(name)]

    def validate_key(self, key: Sequence[str]) -> BucketKey:
        key = tuple(key)
        if len(key) != len(self.names):
            raise SchemaError(f"key {key!r} has {len(key)} values, schema has {len(self.names)} attributes")
        for label, name, labels in zip(key, self.names, self._label_indexes):
            if label not in labels:
                raise SchemaError(f"label {label!r} not in domain of attribute {name!r}")
        return key

    def encode(self, keys: Iterable[Sequence[str]]) -> np.ndarray:
        """Row-major codes of bucket keys; a key outside the schema is a SchemaError."""
        keys, indexes = list(keys), self._label_indexes
        try:  # one dict lookup per label; validate_key names the first fault
            positions = [[labels[label] for label, labels in zip(key, indexes)] for key in keys]
            valid = not set(map(len, keys)) - {len(indexes)}
        except (KeyError, TypeError):
            valid = False
        if not valid:
            for key in keys:
                self.validate_key(key)
        return np.array(positions, dtype=np.int64).reshape(-1, len(self.names)) @ self.strides

    def label_positions(self, codes) -> np.ndarray:
        """The (bucket, attribute) label positions of row-major bucket codes."""
        return np.asarray(codes, dtype=np.int64)[:, None] // self.strides % np.array(self.shape, dtype=np.int64)

    def keys_at(self, codes) -> list[BucketKey]:
        """Bucket keys of row-major codes."""
        positions = self.label_positions(codes)
        columns = [np.array(domain, dtype=object)[positions[:, i]] for i, domain in enumerate(self.domains)]
        return list(zip(*columns)) if columns else [()] * len(positions)

    def lex_rank(self, codes) -> np.ndarray:
        """A number per bucket code that sorts like the bucket keys do, lexicographically."""
        positions = self.label_positions(codes)
        for i, rank in enumerate(self._label_ranks):
            positions[:, i] = rank[positions[:, i]]
        return positions @ self.strides

    def index_of(self, key: Sequence[str]) -> int:
        """Row-major index of a bucket key within the global domain."""
        return int(self.encode([key])[0])

    def key_at(self, index: int) -> BucketKey:
        """Inverse of index_of."""
        if not 0 <= index < self.global_size:
            raise SchemaError(f"bucket index {index} out of range")
        return self.keys_at([index])[0]

    @cached_property
    def _subsets(self) -> dict[tuple[str, ...], "AttributeSchema"]:
        return {}

    def subset(self, names: Sequence[str]) -> "AttributeSchema":
        """Schema restricted to the given attributes, in the given order; one
        instance per attribute tuple, so its cached strides and ranks are reused."""
        names = tuple(names)
        if names not in self._subsets:
            self._subsets[names] = AttributeSchema(tuple((n, self.domain(n)) for n in names))
        return self._subsets[names]

    def to_json_obj(self) -> dict:
        return {"attributes": [{"name": n, "domain": list(d)} for n, d in self.attributes]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "AttributeSchema":
        try:
            attrs = tuple((a["name"], a["domain"]) for a in obj["attributes"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed schema object: {exc}") from None
        for name, domain in attrs:
            if not (isinstance(domain, list) and all(isinstance(label, str) for label in domain)):
                raise SchemaError(f"attribute {name!r}: the domain must be a list of strings, got {domain!r}")
        return cls(tuple((name, tuple(domain)) for name, domain in attrs))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_obj(), indent=2) + "\n", encoding="utf8")

    @classmethod
    def load(cls, path) -> "AttributeSchema":
        return cls.from_json_obj(load_json(path))


def rank_by_count(counts: np.ndarray, key_order: np.ndarray) -> np.ndarray:
    """Positions of the counts in (count desc, key asc) order, given the
    positions in key order.

    One stable sort of the counts taken in key order.  Integer counts sort
    by max - count, as uint16 while they span less than 2**16, which numpy
    sorts by radix; float counts sort by -count, which keeps fractions apart.
    """
    counts = counts[key_order]
    if counts.dtype.kind == "f":
        key = -counts
    else:
        key = counts.max(initial=0) - counts
        if key.max(initial=0) < 2**16:
            key = key.astype(np.uint16)
    return key_order[np.argsort(key, kind="stable")]


class Histogram:
    """Immutable map from bucket keys to positive counts.

    Integer mode holds raw trip counts (int64, totalling less than 2**63);
    fractional mode holds the real-valued intermediates produced by repair and
    noising.  `codes` holds the active buckets' codes in ascending order and
    `counts` their counts; zero counts are dropped at construction.
    """

    __slots__ = ("schema", "integral", "codes", "counts", "total")

    def __init__(self, schema: AttributeSchema, counts: Mapping[BucketKey, float], integral: bool = True):
        self._store(schema, schema.encode(counts), list(counts.values()), integral)

    @classmethod
    def from_codes(cls, schema: AttributeSchema, codes, counts, integral: bool = True) -> "Histogram":
        """Histogram of distinct row-major bucket codes, in any order, and their counts."""
        h = cls.__new__(cls)
        h._store(schema, np.asarray(codes, dtype=np.int64), counts, integral)
        return h

    def _store(self, schema: AttributeSchema, codes: np.ndarray, counts, integral: bool) -> None:
        given = np.asarray(counts)
        if codes.shape != given.shape:
            raise DataError(f"bucket codes of shape {codes.shape} for counts of shape {given.shape}")
        if len(codes) and not 0 <= codes.min() <= codes.max() < schema.global_size:
            raise SchemaError(f"a bucket code is outside [0, {schema.global_size})")
        try:  # an object array holds Python integers past 64 bits
            floats = given.astype(np.float64)
        except OverflowError:  # and past the float range
            raise DataError("a count does not fit in a 64-bit integer") from None
        big = given > _INT64_LIMIT - 1 if given.dtype.kind in "biu" else np.abs(floats) >= _INT64_LIMIT
        faults = {  # a count's faults, in the order it reports them
            "non-finite count {!r} for bucket {!r}": ~np.isfinite(floats),
            "a count does not fit in a 64-bit integer": integral & big,
            "negative count {!r} for bucket {!r}": floats < 0,
            "non-integer count {!r} in integer mode": integral & (floats != np.trunc(floats)),
        }
        if (faulty := np.logical_or.reduce(list(faults.values()))).any():
            i = int(np.argmax(faulty))  # the first faulty count, named by its first fault
            fault = next(message for message, mask in faults.items() if mask[i])
            raise DataError(fault.format(np.asarray(counts, dtype=object)[i], schema.keys_at(codes[i : i + 1])[0]))
        counts = np.asarray(counts, dtype=np.int64 if integral else np.float64)  # as given: a list's ints exactly
        order = np.argsort(codes)
        codes, counts = codes[order], counts[order]
        if len(repeated := np.flatnonzero(codes[1:] == codes[:-1])):
            raise DataError(f"bucket code {codes[repeated[0]].item()} is given more than once")
        nonzero = counts != 0
        self.schema, self.integral = schema, integral
        self.codes, self.counts = codes[nonzero], counts[nonzero]
        values = self.counts.tolist()
        try:
            self.total = sum(values) if integral else math.fsum(values)
        except OverflowError:  # fractional counts whose total is past the float range
            raise DataError("fractional counts total more than a float holds") from None
        if integral and self.total >= _INT64_LIMIT:
            raise DataError(f"integer counts total {self.total}, more than a 64-bit integer holds")
        self.codes.flags.writeable = self.counts.flags.writeable = False

    def counts_at(self, codes) -> np.ndarray:
        """Counts of the buckets with the given codes, 0 where a bucket is not active."""
        at = np.searchsorted(self.codes, codes)  # len(self.codes) past the last: a sentinel
        hit = np.append(self.codes, -1)[at] == codes
        return np.where(hit, np.append(self.counts, 0)[at], 0)

    def get(self, key: Sequence[str], default=0):
        try:
            count = self.counts_at([self.schema.index_of(key)])[0].item()
        except SchemaError:
            return default
        return count if count else default  # active counts are positive

    def __getitem__(self, key: Sequence[str]):
        return self.get(self.schema.validate_key(key))

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, key) -> bool:
        return self.get(key, None) is not None

    def __iter__(self) -> Iterator[BucketKey]:
        return iter(self.keys())

    def keys(self) -> list[BucketKey]:
        """Active bucket keys in code order."""
        return self.schema.keys_at(self.codes)

    def items(self) -> list[tuple[BucketKey, float]]:
        return list(zip(self.keys(), self.counts.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        same_space = self.schema == other.schema and self.integral == other.integral
        return same_space and np.array_equal(self.codes, other.codes) and np.array_equal(self.counts, other.counts)

    def __repr__(self) -> str:
        mode = "int" if self.integral else "frac"
        return f"Histogram({len(self)} buckets, total={self.total}, {mode})"

    def ranking(self) -> np.ndarray:
        """Bucket positions in (count desc, key lexicographic asc) order."""
        return rank_by_count(self.counts, np.argsort(self.schema.lex_rank(self.codes)))

    def canonical_order(self) -> list[BucketKey]:
        """Buckets sorted by (count desc, key lexicographic asc)."""
        return self.schema.keys_at(self.codes[self.ranking()])


@dataclass(frozen=True)
class Marginal:
    """Counts of a histogram projected onto a subset of its attributes."""

    attributes: tuple[str, ...]
    counts: dict[BucketKey, float]

    @property
    def total(self) -> float:
        return math.fsum(self.counts.values())

    def get(self, key: Sequence[str], default=0):
        return self.counts.get(tuple(key), default)


class Groups(NamedTuple):
    """A histogram's buckets grouped by their labels on some attributes: the
    groups' codes over those attributes (`schema`), ascending, one member
    bucket of each group, and each bucket's group."""

    schema: AttributeSchema
    codes: np.ndarray
    first: np.ndarray
    index: np.ndarray

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Per-group sums of per-bucket values, each group's added in bucket-code order."""
        out = np.zeros(len(self.codes), dtype=values.dtype)
        np.add.at(out, self.index, values)
        return out


def bucket_groups(h: Histogram, attrs: Sequence[str], positions: np.ndarray | None = None) -> Groups:
    """Group the active buckets of h by their labels on `attrs`; `positions`,
    when given, is h.schema.label_positions(h.codes)."""
    if len(set(attrs)) != len(attrs):
        raise SchemaError(f"duplicate attributes in projection: {list(attrs)}")
    schema = h.schema.subset(attrs)
    if positions is None:
        positions = h.schema.label_positions(h.codes)
    positions = positions[:, [h.schema.position(a) for a in attrs]]
    codes, first, index = np.unique(positions @ schema.strides, return_index=True, return_inverse=True)
    return Groups(schema, codes, first, index)


def marginalize(h: Histogram, attrs: Sequence[str]) -> Marginal:
    """Project a histogram onto `attrs` and sum counts (group-by semantics)."""
    groups = bucket_groups(h, attrs)
    counts = groups.sum(h.counts).tolist()
    return Marginal(tuple(attrs), dict(zip(groups.schema.keys_at(groups.codes), counts)))


def normalize(h: Histogram) -> dict[BucketKey, float]:
    """Empirical probability of each active bucket; sums to 1."""
    if h.total <= 0:
        raise EmptyInputError("cannot normalize an empty histogram")
    total = h.total
    return {key: c / total for key, c in h.items()}


def group_by(h: Histogram, keep: Sequence[str]) -> Histogram:
    """New histogram over only the `keep` attributes; counts are summed."""
    groups = bucket_groups(h, keep)
    return Histogram.from_codes(groups.schema, groups.codes, groups.sum(h.counts), integral=h.integral)


def check_same_schema(h1: Histogram, h2: Histogram) -> None:
    if h1.schema != h2.schema:
        raise SchemaError("histograms have different schemas")


def _union(h1: Histogram, h2: Histogram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Codes of the union of both active domains, ascending, and each
    histogram's counts there, 0 where a bucket is not active."""
    check_same_schema(h1, h2)
    both = np.concatenate([h1.codes, h2.codes])
    order = np.argsort(both, kind="stable")  # merges the two ascending runs of distinct codes
    merged = both[order]
    first = np.empty(len(merged), dtype=bool)
    first[:1] = True
    first[1:] = merged[1:] != merged[:-1]
    codes, slot = merged[first], np.empty(len(both), dtype=np.int64)
    slot[order] = np.cumsum(first) - 1
    c1, c2 = (np.zeros(len(codes), dtype=h.counts.dtype) for h in (h1, h2))
    c1[slot[: len(h1)]], c2[slot[len(h1) :]] = h1.counts, h2.counts
    return codes, c1, c2


def align(reference: Histogram, other: Histogram) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Codes of the union of both active domains in the reference ranking,
    (reference count desc, key asc), with each histogram's counts there and
    the ranked positions listed in key order."""
    codes, ref, oth = _union(reference, other)
    key_order = np.argsort(reference.schema.lex_rank(codes))
    order = rank_by_count(ref, key_order)
    ranked = np.empty_like(order)  # each code's position in the ranking
    ranked[order] = np.arange(len(order))
    return codes[order], ref[order], oth[order], ranked[key_order]


def support_union(h1: Histogram, h2: Histogram) -> list[BucketKey]:
    """Union of both active domains, ordered by (h1 count desc, key asc)."""
    return h1.schema.keys_at(align(h1, h2)[0])


def merge(h1: Histogram, h2: Histogram) -> Histogram:
    """Bucketwise sum of two histograms over the same schema."""
    codes, c1, c2 = _union(h1, h2)
    with np.errstate(over="ignore"):  # an infinite sum is the DataError of from_codes
        counts = c1 + c2
    return Histogram.from_codes(h1.schema, codes, counts, integral=h1.integral and h2.integral)


def write_histogram_csv(h: Histogram, path) -> None:
    """One bucket per row, attribute columns in schema order then `count`.

    Integer counts are written bare; fractional counts with 9 decimal places.
    Rows are emitted in canonical bucket order so files are reproducible.
    """
    with open(path, "w", newline="", encoding="utf8") as f:
        writer = csv.writer(f)
        writer.writerow(list(h.schema.names) + [_COUNT_COLUMN])
        order = h.ranking()
        fmt = str if h.integral else "{:.9f}".format
        for key, c in zip(h.schema.keys_at(h.codes[order]), h.counts[order].tolist()):
            writer.writerow([*key, fmt(c)])


def read_histogram_csv(path, schema: AttributeSchema) -> Histogram:
    """Inverse of write_histogram_csv; mode is inferred from the count column."""
    with open(path, newline="", encoding="utf8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty histogram file") from None
        expected = list(schema.names) + [_COUNT_COLUMN]
        if header != expected:
            raise SchemaError(f"{path}: header {header!r} does not match schema columns {expected!r}")
        counts: dict[BucketKey, float] = {}
        integral = True
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise DataError(f"{path}:{lineno}: expected {len(expected)} fields, got {len(row)}")
            key = tuple(row[:-1])
            if key in counts:
                raise DataError(f"{path}:{lineno}: duplicate bucket key {key!r}")
            raw = row[-1]
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad count {raw!r}") from None
                integral = False
            if value < 0:
                raise DataError(f"{path}:{lineno}: negative count {raw!r}")
            counts[key] = value
    return Histogram(schema, counts, integral=integral)
