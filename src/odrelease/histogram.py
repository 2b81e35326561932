"""Sparse categorical histograms over declared attribute domains.

A histogram stores only its active domain (buckets with nonzero count), as
sorted row-major bucket codes plus counts.  The global domain, the full cross
product of the attribute domains, lives in the schema and is consulted for
validation, bucket coding, and the out-of-active-domain machinery in the
privacy module.  Ties broken by key use lex_rank, never the code order.
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
        return cls.from_json_obj(json.loads(Path(path).read_text(encoding="utf8")))


class Histogram:
    """Immutable map from bucket keys to positive counts.

    Integer mode holds raw trip counts (int64, totalling less than 2**63);
    fractional mode holds the real-valued intermediates produced by repair and
    noising.  `codes` holds the active buckets' codes in ascending order and
    `counts` their counts; zero counts are dropped at construction.
    """

    __slots__ = ("schema", "integral", "codes", "counts", "total")

    def __init__(self, schema: AttributeSchema, counts: Mapping[BucketKey, float], integral: bool = True):
        codes = schema.encode(counts)
        values = []
        for key, value in counts.items():
            if not -math.inf < value < math.inf:  # NaN fails both comparisons
                raise DataError(f"non-finite count {value!r} for bucket {tuple(key)!r}")
            if value < 0:
                raise DataError(f"negative count {value!r} for bucket {tuple(key)!r}")
            if integral and int(value) != value:
                raise DataError(f"non-integer count {value!r} in integer mode")
            values.append(int(value) if integral else float(value))
        self._store(schema, codes, values, integral)

    @classmethod
    def from_codes(cls, schema: AttributeSchema, codes, counts, integral: bool = True) -> "Histogram":
        """Histogram of distinct row-major bucket codes, in any order, and their counts."""
        h = cls.__new__(cls)
        h._store(schema, np.asarray(codes, dtype=np.int64), counts, integral)
        return h

    def _store(self, schema: AttributeSchema, codes: np.ndarray, counts, integral: bool) -> None:
        if integral and (floats := np.asarray(counts)).dtype.kind == "f":
            # out of int64 range the cast below would wrap, with a RuntimeWarning, and a fraction truncate
            if not np.all(np.isfinite(floats)):
                raise DataError("counts must be finite and nonnegative")
            if np.any(np.abs(floats) >= _INT64_LIMIT):
                raise DataError("a count does not fit in a 64-bit integer")
            if len(fractional := np.flatnonzero(floats != np.trunc(floats))):
                raise DataError(f"non-integer count {floats[fractional[0]].item()!r} in integer mode")
        try:
            counts = np.asarray(counts, dtype=np.int64 if integral else np.float64)
        except OverflowError:
            raise DataError("a count does not fit in a 64-bit integer") from None
        if codes.shape != counts.shape:
            raise DataError(f"bucket codes of shape {codes.shape} for counts of shape {counts.shape}")
        if len(codes) and not 0 <= codes.min() <= codes.max() < schema.global_size:
            raise SchemaError(f"a bucket code is outside [0, {schema.global_size})")
        order = np.argsort(codes)
        codes, counts = codes[order], counts[order]
        if len(repeated := np.flatnonzero(codes[1:] == codes[:-1])):
            raise DataError(f"bucket code {codes[repeated[0]].item()} is given more than once")
        nonzero = counts != 0
        self.schema, self.integral = schema, integral
        self.codes, self.counts = codes[nonzero], counts[nonzero]
        if not np.all(np.isfinite(self.counts) & (self.counts > 0)):
            raise DataError("counts must be finite and nonnegative")
        values = self.counts.tolist()
        self.total = sum(values) if integral else math.fsum(values)
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
        return np.lexsort((self.schema.lex_rank(self.codes), -self.counts))

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


def bucket_groups(h: Histogram, attrs: Sequence[str]) -> Groups:
    """Group the active buckets of h by their labels on `attrs`."""
    if len(set(attrs)) != len(attrs):
        raise SchemaError(f"duplicate attributes in projection: {list(attrs)}")
    schema = h.schema.subset(attrs)
    positions = h.schema.label_positions(h.codes)[:, [h.schema.position(a) for a in attrs]]
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


def align(reference: Histogram, other: Histogram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Codes of the union of both active domains in the reference ranking,
    (reference count desc, key asc), with each histogram's counts there."""
    check_same_schema(reference, other)
    codes = np.union1d(reference.codes, other.codes)
    ref, oth = reference.counts_at(codes), other.counts_at(codes)
    order = np.lexsort((reference.schema.lex_rank(codes), -ref))
    return codes[order], ref[order], oth[order]


def support_union(h1: Histogram, h2: Histogram) -> list[BucketKey]:
    """Union of both active domains, ordered by (h1 count desc, key asc)."""
    return h1.schema.keys_at(align(h1, h2)[0])


def merge(h1: Histogram, h2: Histogram) -> Histogram:
    """Bucketwise sum of two histograms over the same schema."""
    check_same_schema(h1, h2)
    codes, index = np.unique(np.concatenate([h1.codes, h2.codes]), return_inverse=True)
    counts = np.zeros(len(codes), dtype=np.result_type(h1.counts, h2.counts))
    np.add.at(counts, index, np.concatenate([h1.counts, h2.counts]))
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
