import math
from math import comb, log

import numpy as np
import pytest

from odrelease import (
    AttributeSchema,
    ConfigError,
    DataError,
    EmptyInputError,
    Histogram,
    RepairSpec,
    average_treatment_effect,
    conditional_mutual_information,
    kl_divergence,
    marginalize,
    random_x_baseline,
    repair,
)
from helpers import random_full_support_case, repair_object

# evaluated by hand: (3/4) ln 1.5 + (1/4) ln 0.5
WORKED_CMI = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)


def xy_schema():
    return AttributeSchema((("x", ("a", "b")), ("y", ("0", "1"))))


def worked_histogram():
    return Histogram(xy_schema(), {("a", "0"): 3, ("a", "1"): 1, ("b", "0"): 1, ("b", "1"): 3})


def stratified_schema():
    return AttributeSchema((("x", ("a", "b")), ("y", ("0", "1")), ("s", ("z1", "z2"))))


class TestSpec:
    def test_x_equals_y_rejected(self):
        with pytest.raises(DataError):
            RepairSpec("x", "x")

    def test_z_containing_xy_rejected(self):
        with pytest.raises(DataError):
            RepairSpec("x", "y", ("x",))

    def test_unknown_attribute_rejected(self):
        with pytest.raises(DataError):
            RepairSpec("x", "nope").validate(xy_schema())

    def test_u_attributes(self):
        schema = AttributeSchema(
            (("a", ("1",)), ("b", ("1",)), ("c", ("1",)), ("d", ("1",)))
        )
        assert RepairSpec("b", "d", ("a",)).u_attributes(schema) == ("c",)


class TestConditionalMutualInformation:
    def test_exact_independence_is_zero(self):
        h = Histogram(xy_schema(), {("a", "0"): 2, ("a", "1"): 2, ("b", "0"): 2, ("b", "1"): 2})
        assert conditional_mutual_information(h, RepairSpec("x", "y")) == 0.0

    def test_worked_example(self):
        value = conditional_mutual_information(worked_histogram(), RepairSpec("x", "y"))
        assert value == pytest.approx(WORKED_CMI, abs=1e-12)
        assert value == pytest.approx(0.130812, abs=1e-6)

    def test_per_stratum_independence_is_zero(self):
        # each stratum is an exact product table with different marginals
        h = Histogram(
            stratified_schema(),
            {
                ("a", "0", "z1"): 4, ("a", "1", "z1"): 2, ("b", "0", "z1"): 2, ("b", "1", "z1"): 1,
                ("a", "0", "z2"): 1, ("a", "1", "z2"): 1, ("b", "0", "z2"): 1, ("b", "1", "z2"): 1,
            },
        )
        assert conditional_mutual_information(h, RepairSpec("x", "y", ("s",))) == 0.0

    def test_empty_errors(self):
        with pytest.raises(EmptyInputError):
            conditional_mutual_information(Histogram(xy_schema(), {}), RepairSpec("x", "y"))


class TestRepair:
    def test_fixed_point_on_independent_data(self):
        h = Histogram(xy_schema(), {("a", "0"): 2, ("a", "1"): 2, ("b", "0"): 2, ("b", "1"): 2})
        result = repair(h, RepairSpec("x", "y"))
        assert dict(result.fractional.items()) == dict(h.items())
        assert result.rounded == h
        assert result.cmi_before == 0.0 and result.cmi_after == 0.0

    def test_worked_example(self):
        # oracle: |R| * P(x) * P(y) = 8 * 0.5 * 0.5 = 2 for every bucket
        result = repair(worked_histogram(), RepairSpec("x", "y"))
        for key in worked_histogram().keys():
            assert result.fractional.get(key) == pytest.approx(2.0, abs=1e-12)
            assert result.rounded.get(key) == 2
        assert result.cmi_after == 0.0
        assert result.cmi_before == pytest.approx(WORKED_CMI, abs=1e-12)
        assert result.kl_divergence == pytest.approx(result.cmi_before, abs=1e-12)

    def test_two_strata_example(self):
        # oracle per stratum: |R_z| * P(x|z) * P(y|z) = 6 * (1/2) * (1/2) = 1.5
        counts = {}
        for s in ("z1", "z2"):
            counts.update(
                {("a", "0", s): 2, ("a", "1", s): 1, ("b", "0", s): 1, ("b", "1", s): 2}
            )
        h = Histogram(stratified_schema(), counts)
        result = repair(h, RepairSpec("x", "y", ("s",)))
        for key in counts:
            assert result.fractional.get(key) == pytest.approx(1.5, abs=1e-12)

    def test_full_support_properties(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            h, spec = random_full_support_case(rng)
            result = repair(h, spec)
            frac = result.fractional
            assert result.cmi_after <= 1e-9
            assert result.cmi_after <= result.cmi_before + 1e-9
            assert abs(frac.total - h.total) <= 1e-9
            # X-Z, Y-Z, and Z marginals preserved per cell
            for attrs in ((spec.x, *spec.z), (spec.y, *spec.z), spec.z):
                before = marginalize(h, attrs).counts
                after = marginalize(frac, attrs).counts
                assert set(after) <= set(before)
                for key, value in before.items():
                    assert abs(after.get(key, 0.0) - value) <= 1e-9
            # KL(input || fractional) equals the dependency strength
            assert abs(result.kl_divergence - result.cmi_before) <= 1e-9
            # repairing the fractional output again changes nothing
            again = repair(frac, spec)
            for key, value in frac.items():
                assert abs(again.fractional.get(key) - value) <= 1e-9

    def test_support_never_grows(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h, spec = random_full_support_case(rng)
            result = repair(h, spec)
            assert set(result.fractional.keys()) <= set(h.keys())
            assert set(result.rounded.keys()) <= set(result.fractional.keys())

    def test_sparse_supports_never_increase_cmi(self):
        # no full-support guarantee here: arbitrary sparse active domains
        import itertools

        rng = np.random.default_rng(31)
        for _ in range(100):
            schema = AttributeSchema(
                (("x", ("p", "q", "r")), ("y", ("0", "1", "2")), ("u", ("s", "t")))
            )
            all_keys = list(itertools.product(*schema.domains))
            k = int(rng.integers(2, len(all_keys) + 1))
            chosen = [all_keys[i] for i in rng.choice(len(all_keys), size=k, replace=False)]
            h = Histogram(schema, {key: int(rng.integers(1, 20)) for key in chosen})
            result = repair(h, RepairSpec("x", "y"))
            assert result.cmi_after <= result.cmi_before + 1e-9
            assert set(result.fractional.keys()) <= set(h.keys())
            assert set(result.rounded.keys()) <= set(result.fractional.keys())

    def test_largest_remainder_preserves_group_totals(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            h, spec = random_full_support_case(rng)
            result = repair(h, spec)
            frac_groups = {}
            rounded_groups = {}
            schema = h.schema
            proj = [schema.position(a) for a in (spec.x, spec.y, *spec.z)]
            for key, value in result.fractional.items():
                g = tuple(key[i] for i in proj)
                frac_groups[g] = frac_groups.get(g, 0.0) + value
            for key, value in result.rounded.items():
                g = tuple(key[i] for i in proj)
                rounded_groups[g] = rounded_groups.get(g, 0) + value
            for g, total in frac_groups.items():
                assert rounded_groups.get(g, 0) == round(total)

    def test_largest_remainder_ties_go_to_the_smaller_key(self):
        # u is declared (q, p): the tied unit of group (a, 0) goes to the
        # lexicographically smaller key (a, 0, p), not to the first code.
        schema = AttributeSchema((("x", ("a", "b")), ("y", ("0", "1")), ("u", ("q", "p"))))
        h = Histogram(schema, {
            ("a", "0", "q"): 1, ("a", "0", "p"): 1, ("a", "1", "q"): 1,
            ("b", "0", "q"): 1, ("b", "1", "p"): 2, ("b", "1", "q"): 1,
        })
        result = repair(h, RepairSpec("x", "y"))
        assert result.fractional.get(("a", "0", "q")) == result.fractional.get(("a", "0", "p"))
        assert result.rounded.get(("a", "0", "p")) == 1
        assert result.rounded.get(("a", "0", "q")) == 0

    def test_half_even_rounding_flag(self):
        h = worked_histogram()
        result = repair(h, RepairSpec("x", "y"), rounding="half_even")
        for key in h.keys():
            assert result.rounded.get(key) == round(result.fractional.get(key))
        with pytest.raises(DataError):
            repair(h, RepairSpec("x", "y"), rounding="nearest")

    def test_empty_errors(self):
        with pytest.raises(EmptyInputError):
            repair(Histogram(xy_schema(), {}), RepairSpec("x", "y"))

    @pytest.mark.parametrize("rounding", ["largest_remainder", "half_even"])
    @pytest.mark.parametrize("z", [(), ("s",)], ids=["shared-groups", "one-bucket-groups"])
    def test_a_rounded_count_past_int64_is_a_data_error(self, z, rounding):
        h = Histogram.from_codes(stratified_schema(), range(8), [2.0**63] * 8, integral=False)
        with pytest.raises(DataError, match="^a rounded count does not fit in a 64-bit integer$"):
            repair(h, RepairSpec("x", "y", z), rounding=rounding)

    def test_a_group_rounding_past_int64_is_a_data_error(self):
        # each bucket's count fits, but its (x, y) group of two rounds to 10**19
        h = Histogram.from_codes(stratified_schema(), range(8), [5e18] * 8, integral=False)
        with pytest.raises(DataError, match="^a rounded count does not fit in a 64-bit integer$"):
            repair(h, RepairSpec("x", "y"))
        with pytest.raises(DataError, match="^integer counts total 40000000000000000000, more than"):
            repair(h, RepairSpec("x", "y"), rounding="half_even")


def outputs(result):
    """The bits of a repair's histograms and diagnostics."""
    fractional, rounded, *diagnostics = result
    return fractional.counts.tobytes(), rounded.counts.tobytes(), [value.hex() for value in diagnostics]


class TestRatiosPast2To53:
    """Integer ratios whose products or totals reach 2**53 are exact; float64
    products there would round, and these cases would then change bits."""

    @pytest.mark.parametrize(
        "counts",
        [
            pytest.param((3145730, 1048585, 1048628, 3145788), id="products-past-2-53"),
            pytest.param(
                (2251799813685265, 2251799813685300, 2251799813685264, 2251799813685274), id="total-past-2-53"
            ),
        ],
    )
    def test_repair_equals_the_object_oracle(self, counts):
        keys = (("a", "0"), ("a", "1"), ("b", "0"), ("b", "1"))
        h, spec = Histogram(xy_schema(), dict(zip(keys, counts))), RepairSpec("x", "y")
        result = repair(h, spec)
        fields = (result.fractional, result.rounded, result.cmi_before, result.cmi_after, result.kl_divergence)
        assert outputs(fields) == outputs(repair_object(h, spec))


class TestKLDivergence:
    def test_identical_is_zero(self):
        h = worked_histogram()
        assert kl_divergence(h, h) == 0.0

    def test_missing_support_is_infinite(self):
        h = worked_histogram()
        q = Histogram(xy_schema(), {("a", "0"): 1})
        assert kl_divergence(h, q) == math.inf


class TestAverageTreatmentEffect:
    def test_worked_example(self):
        result = average_treatment_effect(
            worked_histogram(), RepairSpec("x", "y"), {"0": 0.0, "1": 1.0}, x1="a", x0="b"
        )
        assert result.ate == pytest.approx(-0.5, abs=1e-15)
        assert result.skipped_strata == 0

    def test_repaired_histogram_has_zero_ate(self):
        result = repair(worked_histogram(), RepairSpec("x", "y"))
        ate = average_treatment_effect(
            result.fractional, RepairSpec("x", "y"), {"0": 0.0, "1": 1.0}, x1="a", x0="b"
        )
        assert abs(ate.ate) <= 1e-9

    def test_stratified_example(self):
        # z1: E[Y|a]=1, E[Y|b]=0; z2: both 0; equal stratum mass -> ATE = 0.5
        h = Histogram(
            stratified_schema(),
            {
                ("a", "1", "z1"): 2, ("b", "0", "z1"): 2,
                ("a", "0", "z2"): 2, ("b", "0", "z2"): 2,
            },
        )
        result = average_treatment_effect(
            h, RepairSpec("x", "y", ("s",)), {"0": 0.0, "1": 1.0}, x1="a", x0="b"
        )
        assert result.ate == pytest.approx(0.5, abs=1e-15)

    def test_overlap_violations_skipped_and_renormalized(self):
        h = Histogram(
            stratified_schema(),
            {
                ("a", "1", "z1"): 1, ("b", "0", "z1"): 1,
                ("a", "0", "z2"): 6,  # no b in z2: skipped
            },
        )
        result = average_treatment_effect(
            h, RepairSpec("x", "y", ("s",)), {"0": 0.0, "1": 1.0}, x1="a", x0="b"
        )
        assert result.skipped_strata == 1
        assert result.ate == pytest.approx(1.0, abs=1e-15)

    def test_non_binary_x_rejected(self):
        schema = AttributeSchema((("x", ("a", "b", "c")), ("y", ("0", "1"))))
        h = Histogram(schema, {("a", "0"): 1, ("b", "0"): 1, ("c", "0"): 1})
        with pytest.raises(DataError):
            average_treatment_effect(h, RepairSpec("x", "y"), {"0": 0.0}, x1="a", x0="b")

    def test_designated_levels_must_be_observed(self):
        with pytest.raises(DataError):
            average_treatment_effect(
                worked_histogram(), RepairSpec("x", "y"), {"0": 0.0, "1": 1.0}, x1="a", x0="c"
            )

    def test_no_overlap_anywhere_rejected(self):
        h = Histogram(
            stratified_schema(),
            {("a", "0", "z1"): 1, ("b", "0", "z2"): 1},
        )
        with pytest.raises(DataError):
            average_treatment_effect(
                h, RepairSpec("x", "y", ("s",)), {"0": 0.0}, x1="a", x0="b"
            )

    def test_weighted_differences_summing_past_the_float_range_are_a_config_error(self):
        h = Histogram(
            stratified_schema(),
            {("a", "0", "z1"): 1, ("b", "1", "z1"): 1, ("a", "0", "z2"): 1, ("b", "1", "z2"): 1},
        )
        with pytest.raises(ConfigError, match="outcome coding"):  # 1.6e308 in each stratum
            average_treatment_effect(h, RepairSpec("x", "y", ("s",)), {"0": 8e307, "1": 0.0}, x1="a", x0="b")

    def test_an_overflow_in_a_stratum_without_overlap_is_not_used(self):
        h = Histogram(
            stratified_schema(),
            {("a", "1", "z1"): 1, ("b", "0", "z1"): 1, ("a", "1", "z2"): 10},  # no b in z2
        )
        result = average_treatment_effect(h, RepairSpec("x", "y", ("s",)), {"0": 0.0, "1": 5e307}, x1="a", x0="b")
        assert result.ate == 5e307 and result.skipped_strata == 1  # z2's coded sum, 5e308, is not a float

    def test_missing_outcome_coding_rejected(self):
        with pytest.raises(DataError):
            average_treatment_effect(
                worked_histogram(), RepairSpec("x", "y"), {"0": 0.0}, x1="a", x0="b"
            )


def exact_random_x_cmi_moments(counts_per_group):
    """Exact mean/std of CMI after random X reassignment of the worked shape.

    The worked histogram has two y groups of g trips each and a balanced X
    marginal, so each group's number of 'a' trips is Binomial(g, 1/2)
    independently; enumerate both binomials and evaluate the 2x2 mutual
    information of every outcome.
    """
    g = counts_per_group
    total = 2 * g

    def mi(k1, k2):
        cells = {("a", "0"): k1, ("b", "0"): g - k1, ("a", "1"): k2, ("b", "1"): g - k2}
        value = 0.0
        for (x, _), c in cells.items():
            if c == 0:
                continue
            px = (cells[(x, "0")] + cells[(x, "1")]) / total
            value += c / total * log((c / total) / (px * 0.5))
        return value

    mean = var = 0.0
    for k1 in range(g + 1):
        for k2 in range(g + 1):
            pr = comb(g, k1) * comb(g, k2) / 4.0**g
            value = mi(k1, k2)
            mean += pr * value
            var += pr * value * value
    var -= mean * mean
    return mean, math.sqrt(max(var, 0.0))


class TestRandomXBaseline:
    def test_single_active_label_is_identity(self):
        h = Histogram(xy_schema(), {("a", "0"): 3, ("a", "1"): 2})
        assert random_x_baseline(h, RepairSpec("x", "y"), seed=1) == h

    def test_total_preserved(self):
        h = worked_histogram()
        for seed in range(20):
            out = random_x_baseline(h, RepairSpec("x", "y"), seed)
            assert out.total == h.total

    def test_deterministic_given_seed(self):
        h = worked_histogram()
        a = random_x_baseline(h, RepairSpec("x", "y"), 123)
        b = random_x_baseline(h, RepairSpec("x", "y"), 123)
        assert a == b

    def test_mean_cmi_matches_exact_enumeration(self):
        # the 8-trip worked example sits at a noise floor of ~0.0844 nats;
        # the Monte Carlo mean must match the exact enumeration
        h = worked_histogram()
        spec = RepairSpec("x", "y")
        exact_mean, exact_std = exact_random_x_cmi_moments(4)
        assert exact_mean == pytest.approx(0.08442753182298515, abs=1e-12)
        seeds = 10_000
        values = [
            conditional_mutual_information(random_x_baseline(h, spec, seed), spec)
            for seed in range(seeds)
        ]
        se = exact_std / math.sqrt(seeds)
        assert abs(np.mean(values) - exact_mean) <= 5 * se

    def test_noise_floor_shrinks_with_total(self):
        # scaling the worked example by 10 puts the floor well under 0.02 nats
        h = Histogram(
            xy_schema(), {("a", "0"): 30, ("a", "1"): 10, ("b", "0"): 10, ("b", "1"): 30}
        )
        spec = RepairSpec("x", "y")
        values = [
            conditional_mutual_information(random_x_baseline(h, spec, seed), spec)
            for seed in range(2000)
        ]
        assert np.mean(values) < 0.02

    def test_fractional_input_rejected(self):
        h = Histogram(xy_schema(), {("a", "0"): 1.5}, integral=False)
        with pytest.raises(DataError):
            random_x_baseline(h, RepairSpec("x", "y"), 0)
