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
from .histogram import Histogram, align, check_same_schema
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
    positions in value order, so with key = slot // 2w * (m + 1) + value the
    left blocks form one sorted array, two searchsorted calls count for each
    element of a right block the smaller ones of the left block it merges
    with, and sorting the keys merges every pair.
    """
    m = len(sigma)
    smaller = np.zeros(m, dtype=np.int64)
    slots = np.arange(m)
    pos = slots
    width = 1
    while width < m:
        key = slots // (2 * width) * (m + 1) + sigma[pos]
        right = slots // width % 2 == 1
        left_keys, right_keys, right_pos = key[~right], key[right], pos[right]
        block_start = right_keys - sigma[right_pos]
        smaller[right_pos] += np.searchsorted(left_keys, right_keys) - np.searchsorted(left_keys, block_start)
        pos = pos[np.argsort(key, kind="stable")]
        width *= 2
    return smaller


def _ranking_sigma(other_counts: np.ndarray, key_rank: np.ndarray) -> np.ndarray:
    """Positions in the `other` ranking of the items in reference order.

    Both rankings sort by (count descending, key ascending).  The items are
    given in reference ranking order, so only the other ranking needs
    sorting; key_rank sorts the items like their keys do.
    """
    sigma = np.empty(len(other_counts), dtype=np.int64)
    sigma[np.lexsort((key_rank, -other_counts))] = np.arange(1, len(other_counts) + 1)
    return sigma


def _pwkt_from_vectors(other_counts: np.ndarray, key_rank: np.ndarray, weighting: str = "harmonic") -> float:
    """pwkt of items given in reference ranking order against their `other` counts.

    Each discordant pair costs half the sum of its two position weights, so
    the total is half the exactly rounded sum of weight times inversion
    participation per position.  Position j (0-based) is inverted with the
    j - L_j earlier larger items and the sigma_j - 1 - L_j later smaller
    ones, where L_j counts the earlier smaller items.
    """
    m = len(other_counts)
    if m <= 1:
        return 0.0
    weights = _position_weights(m, weighting)
    sigma = _ranking_sigma(other_counts, key_rank)
    participation = np.arange(m) + sigma - 1 - 2 * _smaller_before(sigma)
    return 0.5 * math.fsum((weights * participation).tolist())


def pwkt(reference: Histogram, other: Histogram, weighting: str = "harmonic") -> float:
    """Position-weighted Kendall's tau between the two bucket rankings.

    Rankings run over the union of both supports, absent buckets counting as
    zero, ties broken lexicographically by key.  Each discordant pair costs
    the average of the harmonic weights of its two reference positions, so
    disagreement near the top of the reference ranking dominates.
    """
    codes, _, other_counts = align(reference, other)
    return _pwkt_from_vectors(other_counts, reference.schema.lex_rank(codes), weighting)


def _hellinger_from_vectors(p: np.ndarray, q: np.ndarray) -> float:
    bc = float(np.sum(np.sqrt(p * q)))
    return math.sqrt(min(max(1.0 - bc, 0.0), 1.0))


def hellinger(h1: Histogram, h2: Histogram) -> float:
    """sqrt(1 - Bhattacharyya coefficient) of the normalized histograms."""
    check_same_schema(h1, h2)
    if h1.total <= 0 or h2.total <= 0:
        raise EmptyInputError("Hellinger distance of an empty histogram")
    _, p, q = align(h1, h2)
    return _hellinger_from_vectors(p / h1.total, q / h2.total)


MetricFn = Callable[[Histogram, Histogram], float]


def _resolve_metric(metric) -> str | MetricFn:
    if callable(metric):
        return metric
    if metric in METRIC_IDS:
        return metric
    raise ConfigError(f"unknown metric {metric!r}; expected one of {METRIC_IDS}")


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
    """
    if not h.integral:
        raise DataError("bootstrap resampling requires an integer-mode histogram")
    if h.total <= 0:
        raise EmptyInputError("cannot bootstrap an empty histogram")
    if replicates < 2:
        raise ConfigError(f"need at least 2 replicates, got {replicates!r}")
    resolved = {name: _resolve_metric(metric) for name, metric in metrics.items()}

    order = h.ranking()  # the reference ranking: (count desc, key asc)
    codes, counts = h.codes[order], h.counts[order].astype(float)
    total = int(h.total)
    probs = counts / counts.sum()
    key_rank = h.schema.lex_rank(codes)

    out = {name: np.empty(replicates) for name in resolved}
    for r in range(replicates):
        sample = substream(seed, "bootstrap", r).multinomial(total, probs).astype(float)
        replicate_hist = None
        for name, metric in resolved.items():
            if metric == "pwkt":
                out[name][r] = _pwkt_from_vectors(sample, key_rank)
            elif metric == "hellinger":
                out[name][r] = _hellinger_from_vectors(probs, sample / total)
            else:
                if replicate_hist is None:
                    replicate_hist = Histogram.from_codes(h.schema, codes, sample)
                out[name][r] = metric(h, replicate_hist)
    return out


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
