import math

import numpy as np
import pytest

from odrelease import (
    AttributeSchema,
    ConfigError,
    DataError,
    EmptyInputError,
    Histogram,
    PrivacyParams,
    RepairSpec,
    SynthConfig,
    average_treatment_effect,
    binomial_sample,
    complement_sample,
    derive_seed,
    domain_size_for_threshold,
    exponential_sample,
    laplace_sample,
    percentile,
    privatize,
    substream,
    synth_generate,
    synthetic_od_seed,
    threshold,
)

# frozen from the stable evaluation -ln(2*(-expm1(ln(0.9)/1e6)))
TAU_1E6 = 15.372730757397031


def small_schema(n_labels=6):
    return AttributeSchema((("x", tuple(f"v{i}" for i in range(n_labels))),))


def ate_args(counts, coding):
    """average_treatment_effect's arguments over a 2x2 histogram, levels a against b."""
    h = Histogram(AttributeSchema((("x", ("a", "b")), ("y", ("0", "1")))), counts)
    return h, RepairSpec("x", "y"), coding, "a", "b"


ONE_EACH = {("a", "0"): 1, ("b", "1"): 1}


@pytest.mark.parametrize("fn,args,error", [
    (percentile, ([], 50), EmptyInputError),
    (percentile, ([1.0, 2.0], 200), ConfigError),
    (percentile, ([1.0, 2.0], math.nan), ConfigError),
    (PrivacyParams.derive, (1.0, 0.5, math.nan), ConfigError),  # would give tau = 0.0
    (PrivacyParams.derive, (1.0, 0.5, 2.5), ConfigError),
    (synthetic_od_seed, (10, 12, -1), ConfigError),
    (synthetic_od_seed, (10, 12, 2**70), ConfigError),
    (synthetic_od_seed, (2**40, 3), ConfigError),  # before building 2**40 labels
    (lambda trips: synth_generate(SynthConfig(synthetic_od_seed(10, 12, 100), trips)), (2**70,), ConfigError),
    (threshold, (10**400, 0.5, 1.0), ConfigError),
    (domain_size_for_threshold, (math.inf, 0.5, 1.0), ConfigError),
    (binomial_sample, (2**70, 0.5, substream(1, "b")), ConfigError),
    (substream, (math.nan, "x"), ConfigError),
    (derive_seed, (math.inf, "x"), ConfigError),
    (laplace_sample, (0.0, math.nan, substream(1, "l")), ConfigError),
    (exponential_sample, (math.inf, substream(1, "e")), ConfigError),
    # a Python integer past the float range, compared before any conversion
    (threshold, (10, 0.5, 10**400), ConfigError),
    (domain_size_for_threshold, (10**400, 0.5, 1.0), ConfigError),
    (PrivacyParams.derive, (10**400, 0.5, 10), ConfigError),
    (laplace_sample, (10**400, 1.0, substream(1, "l")), ConfigError),
    (laplace_sample, (0.0, 10**400, substream(1, "l")), ConfigError),
    (exponential_sample, (10**400, substream(1, "e")), ConfigError),
    # a location that is not finite gives a draw that is not finite
    (laplace_sample, (math.inf, 1.0, substream(1, "l")), ConfigError),
    (laplace_sample, (math.nan, 1.0, substream(1, "l")), ConfigError),
    (average_treatment_effect, ate_args({("a", "0"): 2, ("a", "1"): 1, ("b", "0"): 1, ("b", "1"): 2},
                                        {"0": 0.0, "1": math.inf}), ConfigError),
    # a finite code whose product with a count, stratum difference or weighted difference overflows
    (average_treatment_effect, ate_args({("a", "0"): 10, ("a", "1"): 10, ("b", "0"): 10, ("b", "1"): 10},
                                        {"0": 0.0, "1": 1e308}), ConfigError),
    (average_treatment_effect, ate_args(ONE_EACH, {"0": 1e308, "1": -1e308}), ConfigError),
    (average_treatment_effect, ate_args(ONE_EACH, {"0": 1e308, "1": 0.0}), ConfigError),
])
def test_extreme_arguments_raise_typed_errors(fn, args, error):
    with pytest.raises(error):
        fn(*args)


class TestThreshold:
    def test_derived_example(self):
        assert threshold(10**6, 0.9, 1.0) == pytest.approx(TAU_1E6, abs=1e-12)
        assert threshold(10**6, 0.9, 1.0) == pytest.approx(15.373, abs=1e-3)

    def test_boundary_zero(self):
        for eps in (0.1, 1.0, 7.3, 1000.0):
            assert threshold(1, 0.5, eps) == 0.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            threshold(1, 0.4, 1.0)

    def test_parameter_ranges(self):
        with pytest.raises(ConfigError):
            threshold(0, 0.5, 1.0)
        with pytest.raises(ConfigError):
            threshold(10, 0.0, 1.0)
        with pytest.raises(ConfigError):
            threshold(10, 1.0, 1.0)
        with pytest.raises(ConfigError):
            threshold(10, 0.9, 0.0)

    def test_monotone_in_rho(self):
        taus = [threshold(10**4, rho, 1.0) for rho in (0.5, 0.7, 0.9, 0.99, 0.9999)]
        assert all(a < b for a, b in zip(taus, taus[1:]))

    def test_large_n_stability(self):
        # naive 1 - rho**(1/n) underflows here; expm1 keeps digits
        tau = threshold(10**12, 0.999999, 1.0)
        expected = -math.log(2.0 * (-math.expm1(math.log(0.999999) / 10**12)))
        assert tau == pytest.approx(expected, rel=1e-12)
        assert tau > 0

    def test_back_derivation_of_paper_taxi_threshold(self):
        # the n that makes tau = 245 at eps=0.1, rho=0.99 round-trips
        n = domain_size_for_threshold(245.0, 0.99, 0.1)
        assert 1e8 < n < 1e10
        assert threshold(round(n), 0.99, 0.1) == pytest.approx(245.0, abs=0.5)


class TestParams:
    def test_default_n_from_schema(self):
        h = Histogram(small_schema(), {("v0",): 5, ("v1",): 3})
        params = PrivacyParams.for_histogram(h, epsilon=1.0, rho=0.9)
        assert params.n == 4
        assert params.tau == pytest.approx(threshold(4, 0.9, 1.0))

    def test_zero_n_disables_spurious_bins(self):
        params = PrivacyParams.derive(epsilon=1.0, rho=0.9, n=0)
        assert params.tau == 0.0

    def test_negative_n_rejected(self):
        with pytest.raises(ConfigError):
            PrivacyParams.derive(epsilon=1.0, rho=0.9, n=-1)

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0, -1.0, 1e-320, 5e-306])
    def test_epsilon_must_be_finite_and_not_overflow_the_noise_scale(self, epsilon):
        for n in (0, 10**6):
            with pytest.raises(ConfigError):
                PrivacyParams.derive(epsilon=epsilon, rho=0.9, n=n)

    def test_smallest_accepted_epsilon_keeps_scale_and_threshold_finite(self):
        params = PrivacyParams.derive(epsilon=1e-305, rho=0.999999, n=2**63 - 1)
        assert math.isfinite(1.0 / params.epsilon) and math.isfinite(params.tau)


class TestSamplers:
    def test_laplace_moments(self):
        scale = 2.5
        draws = laplace_sample(0.0, scale, substream(101, "lap"), size=10**6)
        assert abs(float(np.mean(draws))) <= 5e-3 * scale
        assert float(np.var(draws)) == pytest.approx(2.0 * scale * scale, rel=0.02)

    def test_laplace_location_shift(self):
        draws = laplace_sample(40.0, 1.0, substream(7, "lap"), size=10**5)
        assert float(np.mean(draws)) == pytest.approx(40.0, abs=0.05)

    def test_exponential_mean(self):
        mean = 3.0
        draws = exponential_sample(mean, substream(11, "exp"), size=10**6)
        assert float(np.mean(draws)) == pytest.approx(mean, rel=0.01)
        assert float(np.min(draws)) >= 0.0

    def test_binomial_degenerate(self):
        rng = substream(3, "binom")
        assert binomial_sample(100, 0.0, rng) == 0
        assert binomial_sample(100, 1.0, rng) == 100

    def test_parameter_validation(self):
        rng = substream(0)
        with pytest.raises(ConfigError):
            laplace_sample(0.0, 0.0, rng)
        with pytest.raises(ConfigError):
            exponential_sample(-1.0, rng)
        with pytest.raises(ConfigError):
            binomial_sample(10, 1.5, rng)
        with pytest.raises(ConfigError):
            binomial_sample(-1, 0.5, rng)


class TestComplementSample:
    def test_zero_k(self):
        assert complement_sample(small_schema(), set(), 0, substream(0)) == []

    def test_forced_single_missing_key(self):
        schema = AttributeSchema((("x", ("a", "b")), ("y", ("0", "1"))))
        active = {("a", "0"), ("a", "1"), ("b", "0")}
        picked = complement_sample(schema, active, 1, substream(5))
        assert picked == [("b", "1")]

    def test_enumeration_fallback_returns_whole_complement(self):
        schema = small_schema(6)
        active = {("v0",), ("v1",)}
        picked = complement_sample(schema, active, 4, substream(9))
        assert sorted(picked) == [("v2",), ("v3",), ("v4",), ("v5",)]

    def test_rejection_path_distinct_and_disjoint(self):
        schema = small_schema(50)
        active = {(f"v{i}",) for i in range(10)}
        picked = complement_sample(schema, active, 5, substream(13))
        assert len(picked) == len(set(picked)) == 5
        assert not (set(picked) & active)

    def test_k_exceeding_complement_rejected(self):
        schema = small_schema(3)
        with pytest.raises(DataError):
            complement_sample(schema, {("v0",)}, 3, substream(0))

    def test_uniformity(self):
        schema = small_schema(12)
        active = {("v0",), ("v1",)}
        rng = substream(21, "uniform")
        freq = {}
        draws = 10**5
        for _ in range(draws):
            (key,) = complement_sample(schema, active, 1, rng)
            freq[key] = freq.get(key, 0) + 1
        assert len(freq) == 10
        for key, count in freq.items():
            assert count / draws == pytest.approx(0.1, abs=0.01)


class TestPrivatize:
    def test_vanishing_noise_limit(self):
        h = Histogram(small_schema(), {("v0",): 50, ("v1",): 20, ("v2",): 7})
        params = PrivacyParams.for_histogram(h, epsilon=1e6, rho=0.5)
        result = privatize(h, params, seed=4)
        for key, c in h.items():
            assert result.histogram.get(key) == c
        assert result.retained_active == 3 and result.suppressed_active == 0

    def test_high_count_bin_always_retained(self):
        # retention probability 1 - exp(-eps*(1000-tau))/2 is ~1 here
        schema = small_schema(2)
        h = Histogram(schema, {("v0",): 1000})
        params = PrivacyParams(epsilon=1.0, rho=0.9, n=1, tau=15.373)
        for seed in range(1000):
            result = privatize(h, params, seed)
            assert result.histogram.get(("v0",)) >= 1
            assert result.retained_active == 1

    def test_retention_probability_above_threshold(self):
        schema = small_schema(2)
        h = Histogram(schema, {("v0",): 17})
        params = PrivacyParams(epsilon=1.0, rho=0.9, n=0, tau=15.0)
        expected = 1.0 - 0.5 * math.exp(-1.0 * (17 - 15.0))
        kept = sum(privatize(h, params, seed).retained_active for seed in range(2000))
        se = math.sqrt(expected * (1 - expected) / 2000)
        assert kept / 2000 == pytest.approx(expected, abs=3.5 * se)

    def test_retention_probability_below_threshold(self):
        schema = small_schema(2)
        h = Histogram(schema, {("v0",): 13})
        params = PrivacyParams(epsilon=1.0, rho=0.9, n=0, tau=15.0)
        expected = 0.5 * math.exp(-1.0 * (15.0 - 13))
        kept = sum(privatize(h, params, seed).retained_active for seed in range(2000))
        se = math.sqrt(expected * (1 - expected) / 2000)
        assert kept / 2000 == pytest.approx(expected, abs=3.5 * se)

    def test_released_counts_bounded_below(self):
        # pre-rounding values are >= tau, so integers are >= ceil(tau - 0.5) and >= 1
        schema = small_schema(40)
        h = Histogram(schema, {(f"v{i}",): 20 + i for i in range(20)})
        params = PrivacyParams.for_histogram(h, epsilon=0.7, rho=0.9)
        floor = max(1, math.ceil(params.tau - 0.5))
        for seed in range(50):
            result = privatize(h, params, seed)
            for key, c in result.histogram.items():
                assert c >= floor

    def test_spurious_keys_disjoint_from_active(self):
        schema = small_schema(30)
        h = Histogram(schema, {("v0",): 40, ("v1",): 35})
        params = PrivacyParams.for_histogram(h, epsilon=2.0, rho=0.5)
        for seed in range(200):
            result = privatize(h, params, seed)
            released = set(result.histogram.keys())
            extra = released - set(h.keys())
            assert len(extra) <= result.spurious_added
            assert result.retained_active + result.suppressed_active == len(h)

    def test_deterministic_given_seed(self):
        schema = small_schema(30)
        h = Histogram(schema, {(f"v{i}",): 10 * (i + 1) for i in range(5)})
        params = PrivacyParams.for_histogram(h, epsilon=0.5, rho=0.9)
        a = privatize(h, params, seed=77)
        b = privatize(h, params, seed=77)
        assert a.histogram == b.histogram and a.to_report_obj() == b.to_report_obj()
        c = privatize(h, params, seed=78)
        assert c.histogram != a.histogram or c.to_report_obj() != a.to_report_obj()

    def test_mean_spurious_bins(self):
        # E[k] = n * exp(-eps*tau)/2; desk-scale Monte Carlo
        schema = small_schema(600)
        h = Histogram(schema, {})
        params = PrivacyParams.derive(epsilon=1.0, rho=0.5, n=500)
        p = 0.5 * math.exp(-params.epsilon * params.tau)
        expected = 500 * p
        seeds = 1000
        ks = [privatize(h, params, seed).spurious_added for seed in range(seeds)]
        se = math.sqrt(500 * p * (1 - p) / seeds)
        assert float(np.mean(ks)) == pytest.approx(expected, abs=4 * se)

    def test_fractional_input_rejected(self):
        h = Histogram(small_schema(), {("v0",): 1.5}, integral=False)
        params = PrivacyParams.derive(epsilon=1.0, rho=0.5, n=1)
        with pytest.raises(DataError):
            privatize(h, params, 0)

    @pytest.mark.parametrize("counts", [{}, {("v0",): 4}])
    def test_hand_built_params_with_infinite_epsilon_rejected(self, counts):
        h = Histogram(small_schema(), counts)
        with pytest.raises(ConfigError):
            privatize(h, PrivacyParams(epsilon=math.inf, rho=0.9, n=0, tau=0.0), 0)
