"""Removal of a causal dependency (X not independent of Y given Z) from a
bucket histogram, plus the diagnostics used to judge it.

The repaired counts follow the chain-rule factorization
P(X,Z) * P(Y|Z) * P(U|X,Y,Z) restricted to the active domain, rebuilt from
the contingency-table marginals of the input:

    new(x,y,z,u) = C_xz(x,z) * C_yz(y,z) * c(x,y,z,u) / (C_z(z) * C_xyz(x,y,z))

Because the factorization runs over active buckets only, every marginal on
the right is at least the bucket count itself and no division by zero can
occur.  Marginals are group-by sums over bucket codes, added in code order.

Every ratio of counts has the bits Python arithmetic on the counts gives:
float counts multiply and divide as IEEE doubles, left to right, and
integer counts multiply exactly and divide with one correct rounding.
numpy float64 computes both while each integer product is below 2**53,
where doubles hold integers exactly; an integer ratio whose numerator or
denominator reaches 2**53 (for instance, any histogram totalling 2**53 or
more) is computed on Python integers instead.  Logarithms and sums stay
math.log and math.fsum, term by term.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, EmptyInputError, SchemaError
from .histogram import AttributeSchema, Groups, Histogram, bucket_groups, check_same_schema
from .histogram import marginalize  # noqa: F401  odbench/tracer.py wraps repair.marginalize
from .rng import substream

ROUNDING_MODES = ("largest_remainder", "half_even")

# Below this, float64 holds every integer exactly.
_EXACT_INTEGERS = 2.0**53


@dataclass(frozen=True)
class RepairSpec:
    """The (x, y, z) attribute designation of one dependency to eliminate.

    The remainder attributes U are implied: everything in the schema that is
    not x, y, or in z.
    """

    x: str
    y: str
    z: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(self.z))
        if self.x == self.y:
            raise SchemaError("treatment and outcome attributes must differ")
        if self.x in self.z or self.y in self.z:
            raise SchemaError("conditioning set must not contain x or y")
        if len(set(self.z)) != len(self.z):
            raise SchemaError("duplicate attributes in conditioning set")

    def validate(self, schema: AttributeSchema) -> None:
        for name in (self.x, self.y, *self.z):
            schema.position(name)

    def u_attributes(self, schema: AttributeSchema) -> tuple[str, ...]:
        used = {self.x, self.y, *self.z}
        return tuple(n for n in schema.names if n not in used)

    def to_json_obj(self) -> dict:
        return {"x": self.x, "y": self.y, "z": list(self.z)}


@dataclass(frozen=True)
class FractionalRepairResult:
    """Fractional and rounded repaired histograms with their diagnostics.

    cmi values are in nats; kl_divergence is KL(input || fractional), which
    for inputs with full conditional support equals cmi_before exactly.
    """

    fractional: Histogram
    rounded: Histogram
    cmi_before: float
    cmi_after: float
    kl_divergence: float


class ATEResult(NamedTuple):
    ate: float
    skipped_strata: int


def _groupings(h: Histogram, spec: RepairSpec) -> tuple[Groups, Groups, Groups, Groups]:
    """The buckets of h grouped by (x,z), (y,z), z and (x,y,z)."""
    xyz, positions = (spec.x, spec.y, *spec.z), h.schema.label_positions(h.codes)
    return tuple(bucket_groups(h, attrs, positions) for attrs in ((spec.x, *spec.z), (spec.y, *spec.z), spec.z, xyz))


def _margins(groupings: Sequence[Groups], counts: np.ndarray) -> list[np.ndarray]:
    """Each bucket's count summed over each of its groups, in the counts' dtype."""
    return [groups.sum(counts)[groups.index] for groups in groupings]


def _quotients(numerators, denominators, integral: bool) -> np.ndarray:
    """Elementwise product of the numerators over product of the denominators,
    each product taken left to right, as Python arithmetic on the counts gives it.

    Factors are arrays or scalars of counts.  Float counts: float64 is
    Python's float arithmetic.  Integer counts are at least 1, so each
    product is at least each of its factors; while both float64 products
    stay below 2**53 they are exact and the division rounds the exact
    quotient once, as Python's int true division does.  Otherwise the
    products are taken on Python integers.
    """
    factors = (numerators, denominators)
    with np.errstate(over="ignore"):  # a float product past the float range is refused below
        num, den = (reduce(np.multiply, [np.asarray(f, dtype=np.float64) for f in fs]) for fs in factors)
    if integral and not (np.all(num < _EXACT_INTEGERS) and np.all(den < _EXACT_INTEGERS)):
        num, den = (reduce(operator.mul, [np.asarray(f).astype(object) for f in fs]) for fs in factors)
        return np.asarray(num / den, dtype=np.float64)
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        raise DataError("counts too large: a product of margins overflows")
    if not np.all(den):  # a float product can underflow to 0, which Python would refuse to divide by
        raise DataError("counts too small: a product of margins underflows to zero")
    return num / den


def _sum_p_log(p: np.ndarray, ratios: np.ndarray) -> float:
    """math.fsum of p * math.log(ratio), term by term."""
    return math.fsum(map(operator.mul, p.tolist(), map(math.log, ratios.tolist())))


def _cmi(groupings: Sequence[Groups], margins: Sequence[np.ndarray], total, integral: bool) -> float:
    """I(X;Y|Z) from the groupings and the per-bucket margins of one histogram."""
    first = groupings[3].first
    xz, yz, z, c = (margin[first] for margin in margins)
    ratios = _quotients((z, c), (xz, yz), integral)
    return max(_sum_p_log(_quotients((c,), (total,), integral), ratios), 0.0)


def conditional_mutual_information(h: Histogram, spec: RepairSpec) -> float:
    """I(X;Y|Z) in nats over the active domain; absent buckets contribute 0.

    Computed as sum over (x,y,z) of p(x,y,z) * ln[p(z)p(x,y,z) / (p(x,z)p(y,z))],
    with the convention 0*ln(0/q) = 0.  Tiny negative totals from floating
    point are clamped to zero.  Integer counts enter the ratio exactly.
    """
    spec.validate(h.schema)
    if h.total <= 0:
        raise EmptyInputError("conditional mutual information of an empty histogram")
    groupings = _groupings(h, spec)
    return _cmi(groupings, _margins(groupings, h.counts), h.total, h.integral)


def kl_divergence(h: Histogram, q: Histogram) -> float:
    """KL(P_h || P_q) in nats over the active domain of h.

    Returns inf when some active bucket of h has zero mass in q.
    """
    check_same_schema(h, q)
    if h.total <= 0 or q.total <= 0:
        raise EmptyInputError("KL divergence of an empty histogram")
    qc = q.counts_at(h.codes)
    if np.any(qc <= 0):
        return math.inf
    p = _quotients((h.counts,), (h.total,), h.integral)
    q_p = _quotients((qc,), (q.total,), q.integral)
    return _sum_p_log(p, _quotients((p,), (q_p,), False))


def repair(h: Histogram, spec: RepairSpec, rounding: str = "largest_remainder") -> FractionalRepairResult:
    """Rebuild counts so X and Y are conditionally independent given Z.

    The fractional result applies the factorization above to every active
    bucket.  The rounded result integerizes it: by default with largest
    remainder rounding inside each (x, y, z) group, which preserves each
    group's total mass (round of its exact sum), the largest remainders
    rounding up first and ties going to the lexicographically smaller key;
    `rounding="half_even"` instead rounds each bucket independently.
    Buckets that round to zero are dropped.
    """
    if rounding not in ROUNDING_MODES:
        raise DataError(f"unknown rounding mode {rounding!r}; expected one of {ROUNDING_MODES}")
    spec.validate(h.schema)
    if h.total <= 0:
        raise EmptyInputError("cannot repair an empty histogram")
    schema = h.schema
    groupings = _groupings(h, spec)
    margins = _margins(groupings, h.counts)
    xz, yz, z, xyz = margins
    frac = _quotients((h.counts, xz, yz), (z, xyz), h.integral)
    fractional = Histogram.from_codes(schema, h.codes, frac, integral=False)
    groups = groupings[3]

    if rounding == "largest_remainder":
        floors = np.floor(frac)
        order = np.lexsort((schema.lex_rank(h.codes), floors - frac, groups.index))  # remainder desc, then key
        group_of = groups.index[order]
        starts = np.searchsorted(group_of, np.arange(len(groups.codes)))
        ordered, bounds = frac[order].tolist(), [*starts.tolist(), len(order)]
        sums = frac[groups.first]  # a one-bucket group's sum is its count
        for g in np.flatnonzero(np.diff(bounds) > 1).tolist():
            sums[g] = math.fsum(ordered[bounds[g]:bounds[g + 1]])
        short = np.rint(sums).astype(np.int64) - groups.sum(floors.astype(np.int64))
        rounded_counts = floors.astype(np.int64)
        rounded_counts[order] += np.arange(len(order)) - starts[group_of] < short[group_of]
    else:
        rounded_counts = np.rint(frac)
    rounded = Histogram.from_codes(schema, h.codes, rounded_counts)

    # fractional has h's buckets unless a float product underflowed to zero
    after = groupings if len(fractional) == len(h) else _groupings(fractional, spec)
    return FractionalRepairResult(
        fractional=fractional,
        rounded=rounded,
        cmi_before=_cmi(groupings, margins, h.total, h.integral),
        cmi_after=_cmi(after, _margins(after, fractional.counts), fractional.total, False),
        kl_divergence=kl_divergence(h, fractional),
    )


def average_treatment_effect(
    h: Histogram,
    spec: RepairSpec,
    outcome_coding: Mapping[str, float],
    x1: str,
    x0: str,
) -> ATEResult:
    """Covariate-adjusted expected outcome difference between X levels.

    ATE = sum over strata z of (E[Y|x1,z] - E[Y|x0,z]) * P(z), with
    expectations taken under `outcome_coding` and P(z) renormalized over the
    strata where both designated levels are observed (overlap).  Strata
    violating overlap are skipped; their number is reported.
    """
    spec.validate(h.schema)
    if h.total <= 0:
        raise EmptyInputError("average treatment effect of an empty histogram")
    schema = h.schema
    x_domain, y_domain = schema.domain(spec.x), schema.domain(spec.y)
    positions = schema.label_positions(h.codes)
    x_pos, y_pos = positions[:, schema.position(spec.x)], positions[:, schema.position(spec.y)]

    observed_x = sorted(x_domain[i] for i in np.unique(x_pos).tolist())
    if len(observed_x) != 2:
        raise DataError(f"treatment attribute {spec.x!r} must have exactly two observed labels, got {observed_x}")
    if {x1, x0} != set(observed_x):
        raise DataError(f"designated levels ({x1!r}, {x0!r}) do not match observed labels {observed_x}")

    missing = {y_domain[i] for i in np.unique(y_pos).tolist()} - set(outcome_coding)
    if missing:
        raise DataError(f"outcome coding missing labels: {sorted(missing)}")

    # per-stratum treated/control mass and coded outcome sums
    strata = bucket_groups(h, spec.z)
    coding = np.array([outcome_coding.get(label, 0.0) for label in y_domain], dtype=float)
    if not np.isfinite(coding).all():
        raise ConfigError(f"outcome coding holds a code that is not a finite number: {dict(outcome_coding)}")
    coding = coding[y_pos]
    sums = []
    for level in (x1, x0):
        mass = np.where(x_pos == x_domain.index(level), h.counts, 0)
        sums.append((strata.sum(mass), strata.sum(mass * coding)))
    (m1, y1), (m0, y0) = sums
    overlap = (m1 > 0) & (m0 > 0)
    if not overlap.any():
        raise DataError("no stratum satisfies overlap for the designated levels")
    diff = y1[overlap] / m1[overlap] - y0[overlap] / m0[overlap]
    z_total = strata.sum(h.counts)[overlap]
    ate = math.fsum((diff * z_total).tolist()) / math.fsum(z_total.tolist())
    return ATEResult(ate, int(np.count_nonzero(~overlap)))


def random_x_baseline(h: Histogram, spec: RepairSpec, seed: int) -> Histogram:
    """Reassign every trip's X label by sampling the empirical X marginal.

    Trips are grouped by their non-X attributes; each group's trips draw new
    X labels independently from the global X marginal (one multinomial per
    group, in key order, which is distributionally identical to per-trip
    sampling).  The total count is preserved exactly.  Deterministic given
    the seed.
    """
    spec.validate(h.schema)
    if not h.integral:
        raise DataError("random-X baseline requires an integer-mode histogram")
    if h.total <= 0:
        raise EmptyInputError("cannot rebuild an empty histogram")
    schema = h.schema
    labels = bucket_groups(h, (spec.x,))  # group codes are the X label positions
    if len(labels.codes) == 1:
        return h
    probs = (labels.sum(h.counts).astype(object) / h.total).tolist()

    rest = bucket_groups(h, [a for a in schema.names if a != spec.x])
    order = np.argsort(rest.schema.lex_rank(rest.codes))
    draws = substream(seed, "random-x").multinomial(rest.sum(h.counts)[order], probs)
    ix = schema.position(spec.x)
    stride = schema.strides[ix]
    x_free = h.codes - schema.label_positions(h.codes)[:, ix] * stride  # codes with X at position 0
    codes = x_free[rest.first[order], None] + labels.codes * stride
    return Histogram.from_codes(schema, codes.ravel(), draws.ravel())
