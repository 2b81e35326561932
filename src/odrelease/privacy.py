"""Epsilon-differentially-private release of categorical histograms over a
sparse global domain.

The mechanism adds Laplace(1/epsilon) noise to every active bin and keeps
only noised values at or above a threshold tau.  Bins outside the active
domain enter the release through a Binomial(n, exp(-epsilon*tau)/2) draw of
how many appear, each placed uniformly over the unseen part of the global
domain with count tau + Exponential(mean 1/epsilon).  tau is derived from a
user tolerance rho, the probability that the release contains no such
out-of-active-domain bin at all:

    tau = -ln(2 * (1 - rho**(1/n))) / epsilon
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .histogram import AttributeSchema, BucketKey, Histogram
from .rng import substream


def _check_rho_epsilon(rho: float, epsilon: float) -> None:
    if not 0.0 < rho < 1.0:
        raise ConfigError(f"rho must be in (0, 1), got {rho!r}")
    if not epsilon > 0.0:
        raise ConfigError(f"epsilon must be positive, got {epsilon!r}")


def threshold(n: int, rho: float, epsilon: float) -> float:
    """Minimum released count so P(zero spurious bins) = rho over n unseen bins.

    Evaluated via expm1 so 1 - rho**(1/n) stays accurate for large n.
    Raises if the derived threshold is negative, since the spurious-bin
    probability exp(-epsilon*tau)/2 is only the Laplace tail for tau >= 0.
    """
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n!r}")
    _check_rho_epsilon(rho, epsilon)
    one_minus = -math.expm1(math.log(rho) / n)
    tau = -math.log(2.0 * one_minus) / epsilon
    if tau < 0:
        raise ConfigError(
            f"derived threshold is negative (rho={rho}, n={n}); "
            "increase rho or the unseen-domain size"
        )
    return tau + 0.0  # normalizes -0.0 at the rho boundary


def domain_size_for_threshold(tau: float, rho: float, epsilon: float) -> float:
    """Inverse of threshold() in n: the unseen-bin count that yields tau."""
    _check_rho_epsilon(rho, epsilon)
    if tau < 0:
        raise ConfigError(f"tau must be nonnegative, got {tau!r}")
    return math.log(rho) / math.log1p(-0.5 * math.exp(-epsilon * tau))


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget and the sparse-domain release parameters derived from it."""

    epsilon: float
    rho: float
    n: int
    tau: float

    @classmethod
    def derive(cls, epsilon: float, rho: float, n: int) -> "PrivacyParams":
        """Compute tau from (epsilon, rho, n); n = 0 disables spurious bins."""
        _check_rho_epsilon(rho, epsilon)
        if n < 0:
            raise ConfigError(f"n must be nonnegative, got {n!r}")
        tau = threshold(n, rho, epsilon) if n >= 1 else 0.0
        return cls(epsilon=epsilon, rho=rho, n=n, tau=tau)

    @classmethod
    def for_histogram(
        cls, h: Histogram, epsilon: float, rho: float, n: int | None = None
    ) -> "PrivacyParams":
        """Default n is the global domain size minus the active bucket count."""
        if n is None:
            n = h.schema.global_size - len(h)
        return cls.derive(epsilon, rho, n)


@dataclass(frozen=True)
class ReleaseResult:
    """A private release plus the bookkeeping of what the mechanism did."""

    histogram: Histogram
    retained_active: int
    suppressed_active: int
    spurious_added: int
    seed: int

    def to_report_obj(self) -> dict:
        return {
            "retained_active": self.retained_active,
            "suppressed_active": self.suppressed_active,
            "spurious_added": self.spurious_added,
            "seed": self.seed,
        }


def laplace_sample(location: float, scale: float, rng: np.random.Generator, size=None):
    """Laplace draw(s) via inverse CDF on a uniform; scale is the diversity b."""
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale!r}")
    u = rng.random(size) - 0.5
    tail = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(float).tiny)
    value = location - scale * np.sign(u) * np.log(tail)
    return float(value) if size is None else value


def exponential_sample(mean: float, rng: np.random.Generator, size=None):
    """Exponential draw(s) with the given mean (rate 1/mean)."""
    if mean <= 0:
        raise ConfigError(f"mean must be positive, got {mean!r}")
    value = -mean * np.log1p(-rng.random(size))
    return float(value) if size is None else value


def binomial_sample(n: int, p: float, rng: np.random.Generator) -> int:
    """Exact Binomial(n, p) draw."""
    if n < 0:
        raise ConfigError(f"n must be nonnegative, got {n!r}")
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"p must be in [0, 1], got {p!r}")
    return int(rng.binomial(n, p))


def complement_sample(
    schema: AttributeSchema,
    active: Sequence[BucketKey] | set[BucketKey],
    k: int,
    rng: np.random.Generator,
) -> list[BucketKey]:
    """k distinct bucket keys drawn uniformly from outside the active domain."""
    return schema.keys_at(_complement_codes(schema, schema.encode(active), k, rng))


def _complement_codes(schema: AttributeSchema, active: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct bucket codes drawn uniformly from outside the `active` codes.

    Rejection-samples global bucket indexes while the complement is large
    (the usual sparse regime); enumerates the complement outright when it is
    smaller than 2k.
    """
    if k < 0:
        raise ConfigError(f"k must be nonnegative, got {k!r}")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    seen = set(active.tolist())
    total = schema.global_size
    complement = total - len(seen)
    if k > complement:
        raise DataError(f"cannot sample {k} keys from a complement of size {complement}")

    if complement < 2 * k:
        pool = np.setdiff1d(np.arange(total, dtype=np.int64), active)
        return pool[rng.choice(len(pool), size=k, replace=False)]
    picked = []
    while len(picked) < k:
        for idx in rng.integers(0, total, size=2 * (k - len(picked))).tolist():
            if idx not in seen:
                seen.add(idx)
                picked.append(idx)
                if len(picked) == k:
                    break
    return np.array(picked, dtype=np.int64)


def privatize(h: Histogram, params: PrivacyParams, seed: int) -> ReleaseResult:
    """Run the categorical release mechanism on an integer-mode histogram.

    Each active bin draws its Laplace noise from an independent substream of
    (seed, bucket index in canonical order), so per-bin noising is order
    independent.  Released counts are rounded half to even with a floor of 1
    at emission; the threshold test itself happens on the real noised value.
    """
    if not h.integral:
        raise DataError("privatize expects an integer-mode histogram")
    schema = h.schema
    eps, tau, n = params.epsilon, params.tau, params.n
    order = h.ranking()
    noised = np.array([
        laplace_sample(float(c), 1.0 / eps, substream(seed, "active", i))
        for i, c in enumerate(h.counts[order].tolist())
    ])
    kept = noised >= tau
    codes, values = [h.codes[order][kept]], [noised[kept]]

    k = 0
    if n >= 1:
        k = binomial_sample(n, 0.5 * math.exp(-eps * tau), substream(seed, "spurious-count"))
        codes.append(_complement_codes(schema, h.codes, k, substream(seed, "spurious-keys")))
        values.append([tau + exponential_sample(1.0 / eps, substream(seed, "spurious-value", j)) for j in range(k)])

    released = np.maximum(1, np.rint(np.concatenate(values)))
    retained = int(np.count_nonzero(kept))
    return ReleaseResult(
        histogram=Histogram.from_codes(schema, np.concatenate(codes), released),
        retained_active=retained,
        suppressed_active=len(h) - retained,
        spurious_added=k,
        seed=seed,
    )
