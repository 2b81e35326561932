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
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .histogram import AttributeSchema, BucketKey, Histogram
from .rng import first_uniforms, substream


# The largest log magnitude the mechanism multiplies by 1/epsilon: a Laplace
# tail is floored at the smallest normal double, and threshold numerators and
# exponential draws stay far below it.  Twice it over epsilon must be finite,
# so a noised count or tau plus an exponential draw is finite too.
_MAX_LOG = -math.log(np.finfo(float).tiny)


def _check_rho_epsilon(rho: float, epsilon: float) -> None:
    if not 0.0 < rho < 1.0:
        raise ConfigError(f"rho must be in (0, 1), got {rho!r}")
    if not 0.0 < epsilon <= sys.float_info.max:  # compared, not converted: an int may be past the float range
        raise ConfigError(f"epsilon must be positive and finite, got {epsilon!r}")
    if not math.isfinite(2.0 * _MAX_LOG / epsilon):
        raise ConfigError(f"epsilon {epsilon!r} is so small that noise of scale 1/epsilon overflows")


def threshold(n: int, rho: float, epsilon: float) -> float:
    """Minimum released count so P(zero spurious bins) = rho over n unseen bins.

    Evaluated via expm1 so 1 - rho**(1/n) stays accurate for large n.
    Raises if the derived threshold is negative, since the spurious-bin
    probability exp(-epsilon*tau)/2 is only the Laplace tail for tau >= 0.
    """
    if not 1 <= n <= sys.float_info.max:
        raise ConfigError(f"n must be at least 1 and within the float range, got {n!r}")
    _check_rho_epsilon(rho, epsilon)
    one_minus = -math.expm1(math.log(rho) / n)
    if one_minus == 0:
        raise ConfigError(f"n {n!r} is so large that 1 - rho**(1/n) rounds to 0")
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
    if not 0 <= tau <= sys.float_info.max:
        raise ConfigError(f"tau must be nonnegative and finite, got {tau!r}")
    tail = math.log1p(-0.5 * math.exp(-epsilon * tau))
    n = math.log(rho) / tail if tail else math.inf
    if not math.isfinite(n):
        raise ConfigError(f"tau {tau!r} is so large that its unseen-bin count is past the float range")
    return n


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
        if not (n >= 0 and n % 1 == 0):  # nan, inf and 2.5 fail too
            raise ConfigError(f"n must be a nonnegative whole number, got {n!r}")
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


def _laplace(location, scale: float, uniform):
    """Laplace(location, scale) by inverse CDF of uniform(s) in [0, 1)."""
    u = uniform - 0.5
    tail = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(float).tiny)
    return location - scale * np.sign(u) * np.log(tail)


def _exponential(mean: float, uniform):
    """Exponential with the given mean by inverse CDF of uniform(s) in [0, 1)."""
    return -mean * np.log1p(-uniform)


def laplace_sample(location: float, scale: float, rng: np.random.Generator, size=None):
    """Laplace draw(s) via inverse CDF on a uniform; scale is the diversity b."""
    if not 0 < scale <= sys.float_info.max:
        raise ConfigError(f"scale must be positive and finite, got {scale!r}")
    if not abs(location) <= sys.float_info.max:
        raise ConfigError(f"location must be finite, got {location!r}")
    value = _laplace(location, scale, rng.random(size))
    return float(value) if size is None else value


def exponential_sample(mean: float, rng: np.random.Generator, size=None):
    """Exponential draw(s) with the given mean (rate 1/mean)."""
    if not 0 < mean <= sys.float_info.max:
        raise ConfigError(f"mean must be positive and finite, got {mean!r}")
    value = _exponential(mean, rng.random(size))
    return float(value) if size is None else value


def binomial_sample(n: int, p: float, rng: np.random.Generator) -> int:
    """Exact Binomial(n, p) draw."""
    if not 0 <= n < 2**63:
        raise ConfigError(f"n must be in [0, 2**63), got {n!r}")
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

    Each active bin draws its Laplace noise from the first uniform of the
    substream (seed, "active", bucket index in canonical order), and spurious
    value j from that of (seed, "spurious-value", j), so per-bin noising is
    order independent; each label's uniforms come from one
    `first_uniforms(seed, label, count)` pass.  Released counts are rounded
    half to even with a floor of 1 at emission; the threshold test itself
    happens on the real noised value.
    """
    if not h.integral:
        raise DataError("privatize expects an integer-mode histogram")
    schema = h.schema
    eps, tau, n = params.epsilon, params.tau, params.n
    _check_rho_epsilon(params.rho, eps)
    order = h.ranking()
    uniforms = first_uniforms(seed, "active", len(h))
    noised = _laplace(h.counts[order].astype(np.float64), 1.0 / eps, uniforms)
    kept = noised >= tau
    codes, values = [h.codes[order][kept]], [noised[kept]]

    k = 0
    if n >= 1:
        k = binomial_sample(n, 0.5 * math.exp(-eps * tau), substream(seed, "spurious-count"))
        codes.append(_complement_codes(schema, h.codes, k, substream(seed, "spurious-keys")))
        uniforms = first_uniforms(seed, "spurious-value", k)
        values.append(tau + _exponential(1.0 / eps, uniforms))

    released = np.maximum(1, np.rint(np.concatenate(values)))
    retained = int(np.count_nonzero(kept))
    return ReleaseResult(
        histogram=Histogram.from_codes(schema, np.concatenate(codes), released),
        retained_active=retained,
        suppressed_active=len(h) - retained,
        spurious_added=k,
        seed=seed,
    )
