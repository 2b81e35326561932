"""Distances between bucket histograms and bootstrap variance bands.

Two complementary metrics: position-weighted Kendall's tau compares the
count-descending bucket rankings (rank sensitive, weight 1/i at reference
position i), and Hellinger distance compares the normalized distributions
(rank insensitive, in [0, 1]).  A bootstrap band resamples the original
histogram and reports the 2.5th percentile, mean, and 97.5th percentile of
the resample distances, the natural-variation yardstick against which a
repair or release is judged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, DataError, EmptyInputError
from .histogram import Histogram, align, check_same_schema, rank_by_count
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
    return float(np.percentile(np.asarray(values, dtype=float), pct))


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


def _exact_sum(values: np.ndarray) -> float:
    """math.fsum(values.tolist()), the correctly rounded sum, for nonnegative finite floats.

    Each value is a 53-bit integer mantissa times a power of two, and the
    mantissa is cut into a high 27-bit and a low 26-bit half.  np.bincount
    sums each half per exponent, exactly while no more than 2**26 values
    are summed; Python integers add those sums up, and one integer true
    division rounds the total, subnormal results included.
    """
    if not 0 < len(values) <= 2**26:
        return math.fsum(values.tolist())
    mantissas, exponents = np.frexp(values)
    low, high = np.modf(mantissas * 2.0**27)
    low *= 2.0**26
    lowest = int(exponents.min())
    exponents -= lowest
    highs = np.bincount(exponents, weights=high).tolist()
    lows = np.bincount(exponents, weights=low).tolist()
    total = sum(((int(h) << 26) + int(l)) << e for e, (h, l) in enumerate(zip(highs, lows)) if h or l)
    scale = lowest - 53
    return float(total << scale) if scale >= 0 else total / (1 << -scale)


def _pwkt_from_vectors(other_counts: np.ndarray, key_order: np.ndarray, weights: np.ndarray) -> float:
    """pwkt of items given in reference ranking order against their `other` counts.

    key_order lists the items in key order and weights holds the position
    weights, both computed once for every `other` over the same reference.
    Each discordant pair costs half the sum of its two position weights, so
    the total is half the exactly rounded sum of weight times inversion
    participation per position.  Position j (0-based) is inverted with the
    j - L_j earlier larger items and the sigma_j - 1 - L_j later smaller
    ones, where sigma_j is item j's position in the `other` ranking and L_j
    counts the earlier smaller items.  sigma is int32 while it can be, which
    halves the merge's memory traffic.
    """
    m = len(other_counts)
    if m <= 1:
        return 0.0
    sigma = np.empty(m, dtype=np.int32 if m < 2**31 else np.int64)
    sigma[rank_by_count(other_counts, key_order)] = np.arange(1, m + 1)
    smaller = _smaller_before(sigma).astype(np.int64)
    participation = np.arange(m, dtype=np.int64) + sigma - 1 - 2 * smaller
    return 0.5 * _exact_sum(weights * participation)


def pwkt(reference: Histogram, other: Histogram, weighting: str = "harmonic") -> float:
    """Position-weighted Kendall's tau between the two bucket rankings.

    Rankings run over the union of both supports, absent buckets counting as
    zero, ties broken lexicographically by key.  Each discordant pair costs
    the average of the harmonic weights of its two reference positions, so
    disagreement near the top of the reference ranking dominates.
    """
    codes, _, other_counts, key_order = align(reference, other)
    return _pwkt_from_vectors(other_counts, key_order, _position_weights(len(codes), weighting))


def _hellinger_from_vectors(p: np.ndarray, q: np.ndarray) -> float:
    bc = float(np.sum(np.sqrt(p * q)))
    return math.sqrt(min(max(1.0 - bc, 0.0), 1.0))


def hellinger(h1: Histogram, h2: Histogram) -> float:
    """sqrt(1 - Bhattacharyya coefficient) of the normalized histograms."""
    check_same_schema(h1, h2)
    if h1.total <= 0 or h2.total <= 0:
        raise EmptyInputError("Hellinger distance of an empty histogram")
    _, p, q, _ = align(h1, h2)
    return _hellinger_from_vectors(p / h1.total, q / h2.total)


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
    counts, total = counts.astype(float), int(h.total)
    probs = counts / counts.sum()
    weights = _position_weights(len(h), "harmonic")

    streams = [substream(seed, "bootstrap", r) for r in range(replicates)]

    def run(r: int) -> list:
        sample = streams[r].multinomial(total, probs)
        replicate_hist = None
        distances = []
        for metric in resolved.values():
            if metric == "pwkt":
                distances.append(_pwkt_from_vectors(sample, key_order, weights))
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
    baseline_values = None
    if baseline is not None:
        baseline_values = {
            "pwkt": pwkt(reference, baseline),
            "hellinger": hellinger(reference, baseline),
        }
    return DistanceReport(
        pwkt=pwkt(reference, other),
        hellinger=hellinger(reference, other),
        band={name: _band(d) for name, d in distances.items()},
        baseline=baseline_values,
        replicates=len(distances["pwkt"]),
        seed=seed,
    )
