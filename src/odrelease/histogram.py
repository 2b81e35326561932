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
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .config import load_json
from .csvio import _BLOCK_ROWS, _csv_header, _line_blocks, text_chunks
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

    def encode_columns(self, columns: Sequence[Iterable[str]], count: int) -> np.ndarray:
        """Row-major codes of count buckets given as one column of count labels
        per attribute, by one dict lookup per label; -1 for a bucket with a
        label outside its attribute's domain.  The one encoder of labels."""
        lookups = (map(index.get, column, itertools.repeat(-1)) for column, index in zip(columns, self._label_indexes))
        positions = np.fromiter(itertools.chain.from_iterable(lookups), dtype=np.int64, count=len(self.names) * count)
        positions = positions.reshape(len(self.names), count)  # a row of label positions per attribute
        codes = self.strides @ positions
        codes[(positions < 0).any(axis=0)] = -1
        return codes

    def encode(self, keys: Iterable[Sequence[str]]) -> np.ndarray:
        """Row-major codes of bucket keys; a key outside the schema is a SchemaError."""
        keys = list(keys)
        try:
            codes = self.encode_columns(list(zip(*keys)), len(keys))
            valid = set(map(len, keys)) <= {len(self.names)} and not (codes < 0).any()
        except (TypeError, ValueError):  # ValueError: a key too short to give every column
            valid = False
        if not valid:  # validate_key names the first fault
            for key in keys:
                self.validate_key(key)
        return codes

    def label_positions(self, codes) -> np.ndarray:
        """The (bucket, attribute) label positions of row-major bucket codes,
        codes // strides % shape.  One attribute at a time from the last, the
        position is the remainder of the codes' quotient by the later sizes:
        division by one scalar, which numpy does without a hardware divide
        per element."""
        rest = np.asarray(codes, dtype=np.int64)
        positions = np.empty((len(rest), len(self.shape)), dtype=np.int64)
        for i in reversed(range(len(self.shape))):
            quotient = rest // self.shape[i]
            np.subtract(rest, quotient * self.shape[i], out=positions[:, i])
            rest = quotient
        return positions

    def keys_at(self, codes) -> list[BucketKey]:
        """Bucket keys of row-major codes."""
        positions = self.label_positions(codes)
        columns = [np.array(domain, dtype=object)[positions[:, i]] for i, domain in enumerate(self.domains)]
        return list(zip(*columns)) if columns else [()] * len(positions)

    def lex_rank(self, codes, positions: np.ndarray | None = None) -> np.ndarray:
        """A number per bucket code that sorts like the bucket keys do,
        lexicographically; `positions`, when given, is label_positions(codes)."""
        ranks = self.label_positions(codes) if positions is None else positions.copy()
        for i, rank in enumerate(self._label_ranks):
            ranks[:, i] = rank[ranks[:, i]]
        return ranks @ self.strides

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


def _check_integer_total(total: int) -> None:
    if total >= _INT64_LIMIT:
        raise DataError(f"integer counts total {total}, more than a 64-bit integer holds")


def _exact_sum(values: np.ndarray) -> float:
    """math.fsum(values.tolist()), the correctly rounded sum, for finite floats of either sign.

    Each value is a signed 53-bit integer mantissa times a power of two, and
    the mantissa is cut into a high 27-bit and a low 26-bit half of its sign.
    np.bincount sums each half per exponent, exactly while no more than
    2**26 values are summed; Python integers add those sums up, and one
    integer true division rounds the total, subnormal results included.
    Nonnegative values and values of mixed sign take the same steps.
    math.fsum itself sums values whose magnitudes may add up past 2**1022
    (it raises OverflowError when a partial sum passes the float range,
    even if the total does not) and a total that cancels to exactly zero
    (its sign of zero is math.fsum's to fix).
    """
    if not 0 < len(values) <= 2**26:
        return math.fsum(values.tolist())
    mantissas, exponents = np.frexp(values)
    low, high = np.modf(mantissas * 2.0**27)
    low *= 2.0**26
    lowest = int(exponents.min())
    exponents -= lowest
    highs = np.bincount(exponents, weights=high).tolist()  # one sum per exponent up to the highest
    if lowest + len(highs) + len(values).bit_length() > 1023:
        return math.fsum(values.tolist())
    lows = np.bincount(exponents, weights=low).tolist()
    total = sum(((int(h) << 26) + int(l)) << e for e, (h, l) in enumerate(zip(highs, lows)) if h or l)
    if not total:
        return math.fsum(values.tolist())
    scale = lowest - 53
    return float(total << scale) if scale >= 0 else total / (1 << -scale)


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


def _maybe_faulty(given: np.ndarray, integral: bool) -> bool:
    """Whether some count may be faulty, by reductions over the counts: an
    integer array can only hold a negative count or, past int64, one too
    big, and a float array also a count that is not finite or, in integer
    mode, integral.  True for any other array."""
    if not len(given):
        return False
    if given.dtype.kind in "biu":
        return bool(given.min() < 0 or integral and given.max() > _INT64_LIMIT - 1)
    if given.dtype.kind != "f":
        return True
    low, high = given.min(), given.max()  # nan if any count is
    if not 0 <= low <= high < math.inf:
        return True
    return integral and bool(high >= _INT64_LIMIT or (given != np.trunc(given)).any())


def _raise_first_fault(schema: AttributeSchema, codes: np.ndarray, counts, given: np.ndarray, integral: bool) -> None:
    """Raise the DataError of the first faulty count, named by its first
    fault, if any count is faulty."""
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
        i = int(np.argmax(faulty))
        fault = next(message for message, mask in faults.items() if mask[i])
        raise DataError(fault.format(np.asarray(counts, dtype=object)[i], schema.keys_at(codes[i : i + 1])[0]))


def _integer_total(counts: np.ndarray) -> int:
    """The exact sum of nonnegative int64 counts: numpy's while it cannot wrap."""
    if len(counts) * int(counts.max(initial=0)) < _INT64_LIMIT:
        return int(counts.sum())
    return sum(counts.tolist())


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
        if _maybe_faulty(given, integral):
            _raise_first_fault(schema, codes, counts, given, integral)
        counts = np.asarray(counts, dtype=np.int64 if integral else np.float64)  # as given: a list's ints exactly
        order = np.argsort(codes)
        codes, counts = codes[order], counts[order]
        if len(repeated := np.flatnonzero(codes[1:] == codes[:-1])):
            code = codes[repeated[0] : repeated[0] + 1]
            raise DataError(f"bucket code {code[0].item()} is given more than once: {schema.keys_at(code)[0]}")
        if not (nonzero := counts != 0).all():
            codes, counts = codes[nonzero], counts[nonzero]
        self.schema, self.integral, self.codes, self.counts = schema, integral, codes, counts
        try:
            self.total = _integer_total(counts) if integral else _exact_sum(counts)
        except OverflowError:  # fractional counts whose total is past the float range
            raise DataError("fractional counts total more than a float holds") from None
        if integral:
            _check_integer_total(self.total)
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
    integral = h1.integral and h2.integral
    if integral:  # below this total no bucket's int64 sum wraps
        _check_integer_total(h1.total + h2.total)
    codes, c1, c2 = _union(h1, h2)
    with np.errstate(over="ignore"):  # an infinite sum is the DataError of from_codes
        counts = c1 + c2
    return Histogram.from_codes(h1.schema, codes, counts, integral=integral)


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


def _count(raw: str, where: str) -> int | float:
    """A count field as int, else as float, else a DataError at where."""
    try:
        return int(raw)
    except ValueError:
        try:
            return float(raw)
        except ValueError:
            raise DataError(f"{where}: bad count {raw!r}") from None


def _count_part(values: list) -> np.ndarray | list:
    """A block's parsed counts as an array of the dtype np.asarray gives a
    list of all the file's counts, which holds them exactly: int64 for ints
    that fit it, float64 for floats; any other block stays a list."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return np.array(values, dtype=np.float64)
    if kinds == {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    return values


def read_histogram_csv(path, schema: AttributeSchema) -> Histogram:
    """Inverse of write_histogram_csv; mode is inferred from the count column.

    The whole file is decoded by text_chunks before a row is parsed, so a
    NUL byte or a byte that is not UTF-8 is a DataError naming the file
    (and, for the latter, its offset in it) whatever else the file holds.
    The rows are read a block of lines at a time: a block that
    csvio._line_blocks splits at commas has one field per column in each
    line, its labels are encoded a column at a time and its counts parsed
    together; csv.reader reads every other block row by row.  Only codes
    and counts are kept of a block.  Errors are those of a read of one row
    at a time: the first row with a wrong field count or a bad count, by
    its path:line (blank rows are skipped but counted), then the first
    label outside its domain, then Histogram's checks of the counts.
    """
    chunks = list(text_chunks(path))
    if not any(chunks):
        raise DataError(f"{path}: empty histogram file")
    chunks.reverse()
    header, rest = _csv_header(chunks.pop() for _ in range(len(chunks)))  # each chunk freed once read
    expected = list(schema.names) + [_COUNT_COLUMN]
    if header != expected:
        raise SchemaError(f"{path}: header {header!r} does not match schema columns {expected!r}")
    width, lineno = len(expected), 1  # lineno: of the last row read
    codes, counts, integral, outside = [], [], True, None

    def add(columns: Sequence[Sequence[str]], values: list) -> None:
        """Keep the codes and counts of a block's label columns and parsed counts."""
        nonlocal integral, outside
        code = schema.encode_columns(columns, len(values))
        if outside is None and (code < 0).any():  # named by validate_key once every row has been read
            outside = list(zip(*columns))[int(np.argmax(code < 0))]
        codes.append(code)
        counts.append(_count_part(values))
        integral = integral and float not in map(type, values)

    for lines, fields in _line_blocks(rest, width):
        if fields is not None:
            try:
                values = list(map(int, fields[width - 1 :: width]))
            except ValueError:
                values = [_count(raw, f"{path}:{lineno + 1 + i}") for i, raw in enumerate(fields[width - 1 :: width])]
            add([fields[i::width] for i in range(width - 1)], values)
            lineno += len(lines)
            continue
        keys, values = [], []
        for row in csv.reader(lines):
            lineno += 1
            if not row:
                continue
            if len(row) != width:
                raise DataError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            keys.append(row[:-1])
            values.append(_count(row[-1], f"{path}:{lineno}"))
            if len(keys) == _BLOCK_ROWS:
                add(list(zip(*keys)), values)
                keys, values = [], []
        if keys:
            add(list(zip(*keys)), values)
    if outside is not None:
        schema.validate_key(outside)
    arrays = bool(counts) and all(isinstance(part, np.ndarray) for part in counts)
    if arrays and not integral:  # to float64, unless a negative int would be named as a float
        arrays = all(part.dtype.kind == "f" or part.min() >= 0 for part in counts)
    if arrays:
        counts = np.concatenate(counts)
    else:  # the Python values, as parsed
        counts = [value for part in counts for value in (part.tolist() if isinstance(part, np.ndarray) else part)]
    codes = np.concatenate([np.zeros(0, dtype=np.int64), *codes])
    return Histogram.from_codes(schema, codes, counts, integral)  # _store checks every count
