"""Sparse categorical histograms over declared attribute domains.

A histogram stores only its active domain (buckets with nonzero count).
The global domain, the full cross product of the attribute domains, lives
in the schema and is consulted for validation, bucket indexing, and the
out-of-active-domain machinery in the privacy module.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .errors import DataError, EmptyInputError, SchemaError

BucketKey = tuple[str, ...]

_MAX_GLOBAL_SIZE = 2**63
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
            size *= len(domain)
            if size >= _MAX_GLOBAL_SIZE:
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
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def _label_indexes(self) -> tuple[dict[str, int], ...]:
        return tuple({label: i for i, label in enumerate(domain)} for domain in self.domains)

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

    def index_of(self, key: Sequence[str]) -> int:
        """Row-major index of a bucket key within the global domain."""
        idx = 0
        for label, domain, labels in zip(key, self.domains, self._label_indexes):
            try:
                pos = labels[label]
            except KeyError:
                raise SchemaError(f"label {label!r} not in domain") from None
            idx = idx * len(domain) + pos
        return idx

    def key_at(self, index: int) -> BucketKey:
        """Inverse of index_of."""
        if not 0 <= index < self.global_size:
            raise SchemaError(f"bucket index {index} out of range")
        out = []
        for domain in reversed(self.domains):
            index, pos = divmod(index, len(domain))
            out.append(domain[pos])
        return tuple(reversed(out))

    def subset(self, names: Sequence[str]) -> "AttributeSchema":
        """Schema restricted to the given attributes, in the given order."""
        return AttributeSchema(tuple((n, self.domain(n)) for n in names))

    def to_json_obj(self) -> dict:
        return {"attributes": [{"name": n, "domain": list(d)} for n, d in self.attributes]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "AttributeSchema":
        try:
            attrs = tuple((a["name"], tuple(a["domain"])) for a in obj["attributes"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed schema object: {exc}") from None
        return cls(attrs)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_obj(), indent=2) + "\n", encoding="utf8")

    @classmethod
    def load(cls, path) -> "AttributeSchema":
        return cls.from_json_obj(json.loads(Path(path).read_text(encoding="utf8")))


class Histogram:
    """Immutable map from bucket keys to positive counts.

    Integer mode holds raw trip counts; fractional mode holds the real-valued
    intermediates produced by repair and noising.  Zero counts are dropped at
    construction so the stored support is always the active domain.
    """

    __slots__ = ("schema", "integral", "_counts", "_total")

    def __init__(self, schema: AttributeSchema, counts: Mapping[BucketKey, float], integral: bool = True):
        store: dict[BucketKey, float] = {}
        for key, value in counts.items():
            key = schema.validate_key(key)
            if value == 0:
                continue
            if not -math.inf < value < math.inf:  # NaN fails both comparisons
                raise DataError(f"non-finite count {value!r} for bucket {key!r}")
            if value < 0:
                raise DataError(f"negative count {value!r} for bucket {key!r}")
            if integral:
                if int(value) != value:
                    raise DataError(f"non-integer count {value!r} in integer mode")
                store[key] = int(value)
            else:
                store[key] = float(value)
        self.schema = schema
        self.integral = integral
        self._counts = store
        self._total = sum(store.values()) if integral else math.fsum(store.values())

    @property
    def total(self) -> float:
        return self._total

    def get(self, key: Sequence[str], default=0):
        return self._counts.get(tuple(key), default)

    def __getitem__(self, key: Sequence[str]):
        key = self.schema.validate_key(key)
        return self._counts.get(key, 0)

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key) -> bool:
        return tuple(key) in self._counts

    def __iter__(self) -> Iterator[BucketKey]:
        return iter(self._counts)

    def keys(self):
        return self._counts.keys()

    def items(self):
        return self._counts.items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.integral == other.integral
            and self._counts == other._counts
        )

    def __repr__(self) -> str:
        mode = "int" if self.integral else "frac"
        return f"Histogram({len(self._counts)} buckets, total={self._total}, {mode})"

    def canonical_order(self) -> list[BucketKey]:
        """Buckets sorted by (count desc, key lexicographic asc)."""
        return sorted(self._counts, key=lambda k: (-self._counts[k], k))


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


def marginalize(h: Histogram, attrs: Sequence[str]) -> Marginal:
    """Project a histogram onto `attrs` and sum counts (group-by semantics)."""
    if len(set(attrs)) != len(attrs):
        raise SchemaError(f"duplicate attributes in projection: {list(attrs)}")
    positions = tuple(h.schema.position(a) for a in attrs)
    out: dict[BucketKey, float] = {}
    for key, c in h.items():
        sub = tuple(key[i] for i in positions)
        out[sub] = out.get(sub, 0) + c
    return Marginal(tuple(attrs), out)


def normalize(h: Histogram) -> dict[BucketKey, float]:
    """Empirical probability of each active bucket; sums to 1."""
    if h.total <= 0:
        raise EmptyInputError("cannot normalize an empty histogram")
    total = h.total
    return {key: c / total for key, c in h.items()}


def group_by(h: Histogram, keep: Sequence[str]) -> Histogram:
    """New histogram over only the `keep` attributes; counts are summed."""
    counts = marginalize(h, keep).counts
    return Histogram(h.schema.subset(keep), counts, integral=h.integral)


def check_same_schema(h1: Histogram, h2: Histogram) -> None:
    if h1.schema != h2.schema:
        raise SchemaError("histograms have different schemas")


def support_union(h1: Histogram, h2: Histogram) -> list[BucketKey]:
    """Union of both active domains, ordered by (h1 count desc, key asc)."""
    check_same_schema(h1, h2)
    keys = set(h1.keys()) | set(h2.keys())
    return sorted(keys, key=lambda k: (-h1.get(k, 0), k))


def merge(h1: Histogram, h2: Histogram) -> Histogram:
    """Bucketwise sum of two histograms over the same schema."""
    check_same_schema(h1, h2)
    out = dict(h1.items())
    for key, c in h2.items():
        out[key] = out.get(key, 0) + c
    return Histogram(h1.schema, out, integral=h1.integral and h2.integral)


def write_histogram_csv(h: Histogram, path) -> None:
    """One bucket per row, attribute columns in schema order then `count`.

    Integer counts are written bare; fractional counts with 9 decimal places.
    Rows are emitted in canonical bucket order so files are reproducible.
    """
    with open(path, "w", newline="", encoding="utf8") as f:
        writer = csv.writer(f)
        writer.writerow(list(h.schema.names) + [_COUNT_COLUMN])
        for key in h.canonical_order():
            c = h.get(key)
            writer.writerow(list(key) + [str(c) if h.integral else f"{c:.9f}"])


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
