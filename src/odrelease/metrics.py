"""Distances between bucket histograms and bootstrap variance bands.

Two complementary metrics: position-weighted Kendall's tau compares the
count-descending bucket rankings (rank sensitive, weight 1/i at reference
position i), and Hellinger distance compares the normalized distributions
(rank insensitive, in [0, 1]).  A bootstrap band resamples the original
histogram and reports the 2.5th percentile, mean, and 97.5th percentile of
the resample distances, the natural-variation yardstick against which a
repair or release is judged.

pwkt counts, for each position, the earlier items that are also earlier in
the other ranking.  Two exact kernels give the same integers.  When both
counts take few distinct values, as in a bootstrap replicate, the items
fall in few (reference count, other count) cells, and tables over those
cells and over 32-item blocks of each count group answer every position at
once.  Otherwise a bottom-up merge sort over the other ranking counts them.
The path is chosen from the input alone: the cell tables are used while
they hold at most _CELL_ENTRIES_PER_ITEM entries per item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, DataError, EmptyInputError
from .histogram import Histogram, _exact_sum, align, rank_by_count
from .parallel import forked_map
from .rng import substream

METRIC_IDS = ("pwkt", "hellinger")
WEIGHTINGS = ("harmonic", "exponential")


@dataclass(frozen=True)
class Band:
    p2_5: float
    mean: float
    p97_5: float

    def to_json_obj(self) -> dict:
        return {"p2_5": self.p2_5, "mean": self.mean, "p97_5": self.p97_5}


@dataclass(frozen=True)
class DistanceReport:
    """Metric values for a pair of histograms plus band and baseline context."""

    pwkt: float
    hellinger: float
    band: dict[str, Band]
    baseline: dict[str, float] | None
    replicates: int
    seed: int

    def to_json_obj(self) -> dict:
        return {
            "pwkt": self.pwkt,
            "hellinger": self.hellinger,
            "band": {name: b.to_json_obj() for name, b in self.band.items()},
            "baseline": dict(self.baseline) if self.baseline is not None else None,
            "replicates": self.replicates,
            "seed": self.seed,
        }


def percentile(values, pct: float) -> float:
    """Percentile with linear interpolation at rank 1 + pct/100 * (m - 1)."""
    if not np.size(values):
        raise EmptyInputError("percentile of an empty collection")
    if not 0 <= pct <= 100:
        raise ConfigError(f"percentile must be in [0, 100], got {pct!r}")
    try:
        values = np.asarray(values, dtype=float)
    except OverflowError:
        raise DataError("percentile of an integer past the float range") from None
    if not np.isfinite(values).all():
        raise DataError("percentile of a value that is not finite")
    with np.errstate(over="raise"):
        try:
            return float(np.percentile(values, pct))
        except FloatingPointError:  # two neighbours more than the float range apart: halving them is exact
            return 2.0 * float(np.percentile(values / 2.0, pct))


def _position_weights(m: int, weighting: str) -> np.ndarray:
    if weighting == "harmonic":
        return 1.0 / np.arange(1, m + 1)
    if weighting == "exponential":
        return np.power(0.5, np.arange(m))
    raise ConfigError(f"unknown weighting {weighting!r}; expected one of {WEIGHTINGS}")


def _smaller_before(sigma: np.ndarray) -> np.ndarray:
    """For each position j, the number of earlier positions i with sigma[i] < sigma[j].

    sigma must be a permutation of 1..m.  A bottom-up merge over position
    blocks of width w = 1, 2, 4, ...: the slots of each block hold its
    positions in value order, and sorting key = slot // 2w * (m + 1) + value
    merges each pair of blocks.  An element of a right block at slot s moves
    to slot merged[s] = s - w + (the number of smaller elements in the left
    block), and the count of each slot moves with it.  After the last pass
    the slots hold the values 1..m in order, so the count of value v is at
    slot v - 1.  Counts take sigma's integer type; the keys need int64.
    """
    m = len(sigma)
    slots = np.arange(m, dtype=sigma.dtype)
    values, count = sigma, np.zeros_like(sigma)
    merged = np.empty_like(sigma)
    shift = 0
    while (width := 1 << shift) < m:
        order = np.argsort((slots >> (shift + 1)).astype(np.int64) * (m + 1) + values, kind="stable")
        merged[order] = slots
        count += np.where(slots & width, merged - slots + width, 0)
        values, count = values[order], count[order]
        shift += 1
    return count[sigma - 1]


# The cell kernel runs while its three tables hold at most this many entries
# per item in all; past that the merge is faster.  Best of 9 runs of each
# kernel alone on a shared 2-core x86-64 machine (numpy 2.4.6), with Pareto
# reference counts scaled to spread them and multinomial samples at m =
# 5,000, 20,000 and 60,000: the cell kernel took 0.45-0.82 of the merge's
# time at 2.6-5.9 entries per item, 0.89-0.98 at 7.6-8.9 and 1.05-1.35 at
# 11.1-12.3.  The seed-11 M bootstrap needs 4.1 entries per item, the taxi-l
# histogram's 12.8.
_CELL_ENTRIES_PER_ITEM = 8

_SWAR = tuple(np.uint32(v) for v in (0x55555555, 0x33333333, 0x0F0F0F0F, 0x01010101))


def _popcount(x: np.ndarray) -> np.ndarray:
    """The set bits of each uint32, by the SWAR sum of adjacent bit fields; x is overwritten."""
    m1, m2, m4, h01 = _SWAR
    x -= (x >> 1) & m1
    x = (x & m2) + ((x >> 2) & m2)
    x += x >> 4
    x &= m4
    x *= h01  # the byte sums add up in the top byte; the product wraps
    x >>= 24
    return x


def _dense_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For sorted values, each one's rank among the distinct values (int32, from 0)
    and the index at which each distinct value starts."""
    new = np.empty(len(values), dtype=bool)
    new[0] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    ranks = np.cumsum(new, dtype=np.int32)
    ranks -= 1
    return ranks, np.flatnonzero(new).astype(np.int32)


def _dominated_before(starts: np.ndarray, value: np.ndarray, bound: np.ndarray, width: int) -> np.ndarray:
    """For each item, the number of earlier items of its group whose value is below its bound.

    Items are listed group after group, starts holding each group's first
    index, and value and bound lie in [0, width].  Each group is cut into
    blocks of 32 items.  Earlier blocks are counted from a table of
    (block, value) counts summed over blocks and over values, less the sum
    at the group's first block.  The item's own block is counted from a
    table of (block, value) bit masks, bit k standing for the block's item
    k: summed over values, which is exact in float64 since no two items
    share a bit, masked to the bits below the item's and popcounted.
    """
    m = len(value)
    sizes = np.diff(starts, append=m)
    first = np.zeros(len(starts) + 1, dtype=np.int32)  # each group's first block
    np.cumsum((sizes + 31) >> 5, out=first[1:])
    blocks, w = int(first[-1]), width + 1
    offset = np.arange(m, dtype=np.int32)
    offset -= np.repeat(starts, sizes)
    group_first = np.repeat(first[:-1], sizes)
    block = offset >> 5
    block += group_first
    cell = block * w
    cell += value
    counts = np.bincount(cell + (w + 1), minlength=(blocks + 1) * w).reshape(blocks + 1, w)
    np.cumsum(counts, axis=0, out=counts)
    np.cumsum(counts, axis=1, out=counts)
    block *= w
    block += bound
    group_first *= w
    group_first += bound
    counts = counts.ravel()
    earlier = counts.take(block)
    earlier -= counts.take(group_first)
    del counts, group_first
    bits = np.ldexp(1.0, offset & 31)
    masks = np.bincount(cell + 1, weights=bits, minlength=blocks * w).reshape(blocks, w)
    np.cumsum(masks, axis=1, out=masks)
    own = masks.ravel().take(block).astype(np.uint32)
    bits -= 1.0
    own &= bits.astype(np.uint32)
    earlier += _popcount(own)
    return earlier


def _smaller_before_cells(ref_counts: np.ndarray, other_counts: np.ndarray, order: np.ndarray,
                          sigma: np.ndarray) -> np.ndarray | None:
    """_smaller_before(sigma) from the (reference count, other count) cells, or
    None when its tables would hold more than _CELL_ENTRIES_PER_ITEM entries per item.

    Items come in the reference ranking, with their counts in ref_counts
    and other_counts; order lists them in the `other` ranking and sigma
    gives each item's 1-based position there.  Both rankings break
    ties by key, so an earlier item i is before item j in both exactly when
      - i's reference count and other count are both higher (D_j), or
      - they share a reference count and i's other count is no lower (Row_j), or
      - they share an other count and i's reference count is higher (Col_j).
    D_j is one lookup in the 2-D exclusive cumulative sum of the table of
    cell sizes, over the dense ranks of both counts.  Row_j and Col_j come
    from _dominated_before: Row over the reference groups in reference
    order, Col over the other-count groups in the `other` order, each with
    values ranked within the group.  Indices are int32, so the tables must
    stay under 2**31 entries.
    """
    m = len(sigma)
    if m * _CELL_ENTRIES_PER_ITEM >= 2**31:
        return None
    ref_rank, ref_starts = _dense_ranks(ref_counts)
    other_rank_sorted, other_starts = _dense_ranks(other_counts.take(order))
    n_ref, n_other = len(ref_starts), len(other_starts)
    budget = _CELL_ENTRIES_PER_ITEM * m - (n_ref + 1) * (n_other + 1)
    if budget < 0:
        return None
    other_rank = other_rank_sorted.take(sigma - 1)
    cell = ref_rank * (n_other + 1)  # the cell's entry, less one row and one column
    cell += other_rank
    table = np.bincount(cell + (n_other + 2), minlength=(n_ref + 1) * (n_other + 1)).reshape(n_ref + 1, n_other + 1)
    occupied = table > 0
    row_rank = np.cumsum(occupied, axis=1, dtype=np.int32)  # 1-based, within each row
    col_rank = np.cumsum(occupied, axis=0, dtype=np.int32)
    del occupied
    row_width, col_width = int(row_rank[:, -1].max()), int(col_rank[-1].max())
    row_blocks = int(((np.diff(ref_starts, append=m) + 31) >> 5).sum())
    col_blocks = int(((np.diff(other_starts, append=m) + 31) >> 5).sum())
    if (row_blocks + 1) * (row_width + 1) + (col_blocks + 1) * (col_width + 1) > budget:
        return None
    row_value = row_rank.ravel().take(cell + (n_other + 2))
    col_value = col_rank.ravel().take((cell + (n_other + 2)).take(order))
    del row_rank, col_rank
    np.cumsum(table, axis=0, out=table)
    np.cumsum(table, axis=1, out=table)
    smaller = table.ravel().take(cell)
    del table, cell
    smaller += _dominated_before(ref_starts, row_value - 1, row_value, row_width)
    col_value -= 1
    smaller += _dominated_before(other_starts, col_value, col_value, col_width).take(sigma - 1)
    return smaller


def _pwkt_from_vectors(ref_counts: np.ndarray, other_counts: np.ndarray, key_order: np.ndarray,
                       weights: np.ndarray) -> float:
    """pwkt of items given in reference ranking order, with their reference and `other` counts.

    key_order lists the items in key order and weights holds the position
    weights, both computed once for every `other` over the same reference.
    Each discordant pair costs half the sum of its two position weights, so
    the total is half the exactly rounded sum of weight times inversion
    participation per position.  Position j (0-based) is inverted with the
    j - L_j earlier larger items and the sigma_j - 1 - L_j later smaller
    ones, where sigma_j is item j's position in the `other` ranking and L_j
    counts the earlier smaller items.

    L comes from the (reference count, other count) cell tables of
    _smaller_before_cells while they hold at most _CELL_ENTRIES_PER_ITEM
    entries per item, as they do when both counts take few distinct values,
    and from the merge of _smaller_before otherwise.  Both give the same
    integers.  sigma is int32 while it can be, which halves the merge's
    memory traffic.
    """
    m = len(other_counts)
    if m <= 1:
        return 0.0
    order = rank_by_count(other_counts, key_order)
    sigma = np.empty(m, dtype=np.int32 if m < 2**31 else np.int64)
    sigma[order] = np.arange(1, m + 1)
    smaller = _smaller_before_cells(ref_counts, other_counts, order, sigma)
    if smaller is None:
        smaller = _smaller_before(sigma)
    participation = np.arange(m, dtype=np.int64) + sigma - 1 - 2 * smaller.astype(np.int64, copy=False)
    return 0.5 * _exact_sum(weights * participation)


def pwkt(reference: Histogram, other: Histogram, weighting: str = "harmonic") -> float:
    """Position-weighted Kendall's tau between the two bucket rankings.

    Rankings run over the union of both supports, absent buckets counting as
    zero, ties broken lexicographically by key.  Each discordant pair costs
    the average of the harmonic weights of its two reference positions, so
    disagreement near the top of the reference ranking dominates.
    """
    codes, ref_counts, other_counts, key_order = align(reference, other)
    return _pwkt_from_vectors(ref_counts, other_counts, key_order, _position_weights(len(codes), weighting))


def _hellinger_from_vectors(p: np.ndarray, q: np.ndarray) -> float:
    bc = float(np.sum(np.sqrt(p * q)))
    return math.sqrt(min(max(1.0 - bc, 0.0), 1.0))


def _hellinger_from_counts(h1: Histogram, h2: Histogram, p: np.ndarray, q: np.ndarray) -> float:
    """Hellinger distance of h1 and h2 from their counts p and q over one aligned union."""
    if h1.total <= 0 or h2.total <= 0:
        raise EmptyInputError("Hellinger distance of an empty histogram")
    return _hellinger_from_vectors(p / h1.total, q / h2.total)


def hellinger(h1: Histogram, h2: Histogram) -> float:
    """sqrt(1 - Bhattacharyya coefficient) of the normalized histograms."""
    _, p, q, _ = align(h1, h2)  # align checks the schemas
    return _hellinger_from_counts(h1, h2, p, q)


def pair_distances(reference: Histogram, other: Histogram) -> dict[str, float]:
    """pwkt(reference, other) and hellinger(reference, other), bit for bit, from one align."""
    codes, ref, oth, key_order = align(reference, other)
    return {
        "pwkt": _pwkt_from_vectors(ref, oth, key_order, _position_weights(len(codes), "harmonic")),
        "hellinger": _hellinger_from_counts(reference, other, ref, oth),
    }


MetricFn = Callable[[Histogram, Histogram], float]


def _resolve_metric(metric) -> str | MetricFn:
    if callable(metric):
        return metric
    if metric in METRIC_IDS:
        return metric
    raise ConfigError(f"unknown metric {metric!r}; expected one of {METRIC_IDS}")


# Below this many buckets the replicates are too short to gain much from a
# forked worker.  200 replicates of both metrics, each run in a fresh process
# (the fork and the multiprocessing import included), medians of 15 runs on 2
# cores: two processes took 38.7 ms against 28.9 ms in one at 10 buckets,
# 49.4 against 48.6 ms at 100, 55.8 against 63.7 ms at 200 and 62.9 against
# 73.6 ms at 300.
_MIN_FORK_BUCKETS = 300


def bootstrap_distances(
    h: Histogram,
    metrics: Mapping[str, object],
    replicates: int = 200,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Distances between h and `replicates` with-replacement resamples of it.

    Resampling total(h) trips with replacement from the trip-level expansion
    of a histogram is distributionally identical to a single multinomial draw
    over its buckets, which is how replicates are drawn here.  Each replicate
    owns an independent substream of (seed, replicate index), so replicates
    are order independent and results for a given seed do not depend on
    which metrics are requested.

    The replicates run through parallel.forked_map, or all in the calling
    process for a histogram of under _MIN_FORK_BUCKETS buckets or when a
    metric is a callable, whose effects a forked worker would not pass back.
    Their distances come back in replicate order, so the output does not
    depend on how many processes ran them.  All substreams are opened in the
    calling process before any worker forks.
    """
    if not h.integral:
        raise DataError("bootstrap resampling requires an integer-mode histogram")
    if h.total <= 0:
        raise EmptyInputError("cannot bootstrap an empty histogram")
    if replicates < 2:
        raise ConfigError(f"need at least 2 replicates, got {replicates!r}")
    resolved = {name: _resolve_metric(metric) for name, metric in metrics.items()}

    codes, counts, _, key_order = align(h, h)  # h in its own ranking, (count desc, key asc)
    total = int(h.total)
    probs = counts.astype(float)
    probs /= probs.sum()
    weights = _position_weights(len(h), "harmonic")

    streams = [substream(seed, "bootstrap", r) for r in range(replicates)]

    def run(r: int) -> list:
        sample = streams[r].multinomial(total, probs)
        replicate_hist = None
        distances = []
        for metric in resolved.values():
            if metric == "pwkt":
                distances.append(_pwkt_from_vectors(counts, sample, key_order, weights))
            elif metric == "hellinger":
                distances.append(_hellinger_from_vectors(probs, sample / total))
            else:
                if replicate_hist is None:
                    replicate_hist = Histogram.from_codes(h.schema, codes, sample)
                distances.append(metric(h, replicate_hist))
        return distances

    serial = len(h) < _MIN_FORK_BUCKETS or any(callable(metric) for metric in resolved.values())
    rows = [run(r) for r in range(replicates)] if serial else forked_map(run, range(replicates))
    return dict(zip(resolved, np.array(rows, dtype=float).T.copy()))


def _band(distances: np.ndarray) -> Band:
    return Band(
        p2_5=percentile(distances, 2.5),
        mean=float(np.mean(distances)),
        p97_5=percentile(distances, 97.5),
    )


def bootstrap_band(h: Histogram, metric, replicates: int = 200, seed: int = 0) -> Band:
    """2.5th percentile, mean, 97.5th percentile of the resample distances."""
    distances = bootstrap_distances(h, {"metric": metric}, replicates, seed)["metric"]
    return _band(distances)


def build_distance_report(
    reference: Histogram,
    other: Histogram,
    replicates: int = 200,
    seed: int = 0,
    baseline: Histogram | None = None,
) -> DistanceReport:
    """Assemble both metrics, their bootstrap bands, and optional baseline.

    `baseline` is typically the random-X rebuild of the reference; its
    distances to the reference are reported per metric when supplied.
    """
    distances = bootstrap_distances(reference, {"pwkt": "pwkt", "hellinger": "hellinger"}, replicates, seed)
    return distance_report(reference, other, distances, seed, baseline)


def distance_report(
    reference: Histogram,
    other: Histogram,
    distances: Mapping[str, np.ndarray],
    seed: int,
    baseline: Histogram | None = None,
) -> DistanceReport:
    """The report of build_distance_report from bootstrap distances already drawn with `seed`."""
    baseline_values = pair_distances(reference, baseline) if baseline is not None else None
    return DistanceReport(
        **pair_distances(reference, other),
        band={name: _band(d) for name, d in distances.items()},
        baseline=baseline_values,
        replicates=len(distances["pwkt"]),
        seed=seed,
    )
