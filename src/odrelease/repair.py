"""Removal of a causal dependency (X not independent of Y given Z) from a
bucket histogram, plus the diagnostics used to judge it.

The repaired counts follow the chain-rule factorization
P(X,Z) * P(Y|Z) * P(U|X,Y,Z) restricted to the active domain, rebuilt from
the contingency-table marginals of the input:

    new(x,y,z,u) = C_xz(x,z) * C_yz(y,z) * c(x,y,z,u) / (C_z(z) * C_xyz(x,y,z))

Because iteration runs over active buckets only, every marginal on the right
is at least the bucket count itself and no division by zero can occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .errors import DataError, EmptyInputError, SchemaError
from .histogram import AttributeSchema, BucketKey, Histogram, marginalize
from .rng import substream

ROUNDING_MODES = ("largest_remainder", "half_even")


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


def _projection_tables(h: Histogram, spec: RepairSpec):
    xz = marginalize(h, (spec.x, *spec.z)).counts
    yz = marginalize(h, (spec.y, *spec.z)).counts
    z = marginalize(h, spec.z).counts
    xyz = marginalize(h, (spec.x, spec.y, *spec.z)).counts
    return xz, yz, z, xyz


def conditional_mutual_information(h: Histogram, spec: RepairSpec) -> float:
    """I(X;Y|Z) in nats over the active domain; absent buckets contribute 0.

    Computed as sum over (x,y,z) of p(x,y,z) * ln[p(z)p(x,y,z) / (p(x,z)p(y,z))],
    with the convention 0*ln(0/q) = 0.  Tiny negative totals from floating
    point are clamped to zero.
    """
    spec.validate(h.schema)
    n = h.total
    if n <= 0:
        raise EmptyInputError("conditional mutual information of an empty histogram")
    xz, yz, z, xyz = _projection_tables(h, spec)
    terms = []
    for key, c in xyz.items():
        kx, ky, kz = key[0], key[1], key[2:]
        terms.append((c / n) * math.log(z[kz] * c / (xz[(kx, *kz)] * yz[(ky, *kz)])))
    return max(math.fsum(terms), 0.0)


def kl_divergence(h: Histogram, q: Histogram) -> float:
    """KL(P_h || P_q) in nats over the active domain of h.

    Returns inf when some active bucket of h has zero mass in q.
    """
    if h.schema != q.schema:
        raise SchemaError("histograms have different schemas")
    if h.total <= 0 or q.total <= 0:
        raise EmptyInputError("KL divergence of an empty histogram")
    nh, nq = h.total, q.total
    terms = []
    for key, c in h.items():
        qc = q.get(key)
        if qc <= 0:
            return math.inf
        terms.append((c / nh) * math.log((c / nh) / (qc / nq)))
    return math.fsum(terms)


def _largest_remainder(values: dict[BucketKey, float]) -> dict[BucketKey, int]:
    """Round a group so the rounded sum equals round(sum of values)."""
    target = round(math.fsum(values.values()))
    floors = {key: math.floor(v) for key, v in values.items()}
    short = target - sum(floors.values())
    by_remainder = sorted(values, key=lambda k: (-(values[k] - floors[k]), k))
    for key in by_remainder[:short]:
        floors[key] += 1
    return floors


def repair(h: Histogram, spec: RepairSpec, rounding: str = "largest_remainder") -> FractionalRepairResult:
    """Rebuild counts so X and Y are conditionally independent given Z.

    The fractional result applies the factorization above to every active
    bucket.  The rounded result integerizes it: by default with largest
    remainder rounding inside each (x, y, z) group, which preserves each
    group's total mass; `rounding="half_even"` instead rounds each bucket
    independently.  Buckets that round to zero are dropped.
    """
    if rounding not in ROUNDING_MODES:
        raise DataError(f"unknown rounding mode {rounding!r}; expected one of {ROUNDING_MODES}")
    spec.validate(h.schema)
    if h.total <= 0:
        raise EmptyInputError("cannot repair an empty histogram")
    schema = h.schema
    ix = schema.position(spec.x)
    iy = schema.position(spec.y)
    iz = tuple(schema.position(a) for a in spec.z)
    xz, yz, z, xyz = _projection_tables(h, spec)

    frac: dict[BucketKey, float] = {}
    groups: dict[BucketKey, dict[BucketKey, float]] = {}
    for key, c in h.items():
        kz = tuple(key[i] for i in iz)
        gkey = (key[ix], key[iy], *kz)
        value = c * xz[(key[ix], *kz)] * yz[(key[iy], *kz)] / (z[kz] * xyz[gkey])
        frac[key] = value
        groups.setdefault(gkey, {})[key] = value

    fractional = Histogram(schema, frac, integral=False)
    if rounding == "largest_remainder":
        rounded_counts: dict[BucketKey, int] = {}
        for members in groups.values():
            rounded_counts.update(_largest_remainder(members))
    else:
        rounded_counts = {key: round(v) for key, v in frac.items()}
    rounded = Histogram(schema, rounded_counts, integral=True)

    cmi_before = conditional_mutual_information(h, spec)
    cmi_after = conditional_mutual_information(fractional, spec)
    return FractionalRepairResult(
        fractional=fractional,
        rounded=rounded,
        cmi_before=cmi_before,
        cmi_after=cmi_after,
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
    ix = schema.position(spec.x)
    iy = schema.position(spec.y)
    iz = tuple(schema.position(a) for a in spec.z)

    observed_x = sorted({key[ix] for key in h.keys()})
    if len(observed_x) != 2:
        raise DataError(f"treatment attribute {spec.x!r} must have exactly two observed labels, got {observed_x}")
    if {x1, x0} != set(observed_x):
        raise DataError(f"designated levels ({x1!r}, {x0!r}) do not match observed labels {observed_x}")

    missing = {key[iy] for key in h.keys()} - set(outcome_coding)
    if missing:
        raise DataError(f"outcome coding missing labels: {sorted(missing)}")

    # per-stratum treated/control mass and coded outcome sums
    mass: dict[BucketKey, dict[str, float]] = {}
    coded: dict[BucketKey, dict[str, float]] = {}
    z_total: dict[BucketKey, float] = {}
    for key, c in h.items():
        kz = tuple(key[i] for i in iz)
        kx = key[ix]
        z_total[kz] = z_total.get(kz, 0) + c
        if kx in (x1, x0):
            mass.setdefault(kz, {}).setdefault(kx, 0)
            coded.setdefault(kz, {}).setdefault(kx, 0.0)
            mass[kz][kx] += c
            coded[kz][kx] += c * outcome_coding[key[iy]]

    skipped = 0
    weighted = 0.0
    included_mass = 0.0
    for kz in sorted(z_total):
        m = mass.get(kz, {})
        if m.get(x1, 0) <= 0 or m.get(x0, 0) <= 0:
            skipped += 1
            continue
        diff = coded[kz][x1] / m[x1] - coded[kz][x0] / m[x0]
        weighted += diff * z_total[kz]
        included_mass += z_total[kz]
    if included_mass <= 0:
        raise DataError("no stratum satisfies overlap for the designated levels")
    return ATEResult(weighted / included_mass, skipped)


def random_x_baseline(h: Histogram, spec: RepairSpec, seed: int) -> Histogram:
    """Reassign every trip's X label by sampling the empirical X marginal.

    Trips are grouped by their non-X attributes; each group's trips draw new
    X labels independently from the global X marginal (one multinomial per
    group, which is distributionally identical to per-trip sampling).  The
    total count is preserved exactly.  Deterministic given the seed.
    """
    spec.validate(h.schema)
    if not h.integral:
        raise DataError("random-X baseline requires an integer-mode histogram")
    if h.total <= 0:
        raise EmptyInputError("cannot rebuild an empty histogram")
    schema = h.schema
    ix = schema.position(spec.x)

    x_marg = marginalize(h, (spec.x,)).counts
    labels = [lbl for lbl in schema.domain(spec.x) if (lbl,) in x_marg]
    if len(labels) == 1:
        return h
    probs = [x_marg[(lbl,)] / h.total for lbl in labels]

    rest = marginalize(h, [a for a in schema.names if a != spec.x]).counts

    rng = substream(seed, "random-x")
    out: dict[BucketKey, int] = {}
    for r in sorted(rest):
        draw = rng.multinomial(rest[r], probs)
        for lbl, c in zip(labels, draw):
            if c:
                key = r[:ix] + (lbl,) + r[ix:]
                out[key] = out.get(key, 0) + int(c)
    return Histogram(schema, out, integral=True)
