import math
import os
import threading

import numpy as np
import pytest

from odrelease import (
    AttributeSchema,
    ConfigError,
    DataError,
    EmptyInputError,
    Histogram,
    SchemaError,
    bootstrap_band,
    bootstrap_distances,
    build_distance_report,
    hellinger,
    percentile,
    pwkt,
    support_union,
)
from odrelease import metrics, parallel
from odrelease.metrics import _smaller_before
from helpers import (
    full_reversal_closed_form,
    ladder_histograms,
    pwkt_bruteforce,
    pwkt_lexsort,
    ranking_of,
    recording_pids,
)


def one_attr(labels):
    return AttributeSchema((("item", tuple(labels)),))


def hist(labels, counts, integral=True):
    schema = one_attr(labels)
    return Histogram(schema, {(l,): c for l, c in counts.items()}, integral=integral)


class TestHellinger:
    def test_identical_is_zero(self):
        h = hist("abc", {"a": 3, "b": 1})
        assert hellinger(h, h) == 0.0

    def test_disjoint_supports_is_one(self):
        h1 = hist("abcd", {"a": 3, "b": 1})
        h2 = hist("abcd", {"c": 2, "d": 5})
        assert hellinger(h1, h2) == 1.0

    def test_worked_example(self):
        # sqrt(1 - (sqrt(0.125) + sqrt(0.375)))
        h1 = hist("ab", {"a": 2, "b": 2})
        h2 = hist("ab", {"a": 1, "b": 3})
        expected = math.sqrt(1.0 - (math.sqrt(0.125) + math.sqrt(0.375)))
        assert hellinger(h1, h2) == pytest.approx(expected, abs=1e-12)
        assert hellinger(h1, h2) == pytest.approx(0.18459, abs=1e-5)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(17)
        labels = "abcdefgh"
        for _ in range(30):
            hs = []
            for _ in range(3):
                counts = {
                    l: int(c)
                    for l, c in zip(labels, rng.integers(0, 30, size=len(labels)))
                    if c > 0
                }
                if not counts:
                    counts = {"a": 1}
                hs.append(hist(labels, counts))
            d01, d10 = hellinger(hs[0], hs[1]), hellinger(hs[1], hs[0])
            assert abs(d01 - d10) <= 1e-12
            d02, d12 = hellinger(hs[0], hs[2]), hellinger(hs[1], hs[2])
            assert d01 <= d02 + d12 + 1e-9
            assert 0.0 <= d01 <= 1.0

    def test_schema_mismatch_and_empty(self):
        h1 = hist("ab", {"a": 1})
        h2 = hist("abc", {"a": 1})
        with pytest.raises(SchemaError):
            hellinger(h1, h2)
        with pytest.raises(EmptyInputError):
            hellinger(h1, hist("ab", {}))


class TestPwkt:
    def test_identical_rankings_zero(self):
        h = hist("abcd", {"a": 9, "b": 5, "c": 2})
        assert pwkt(h, h) == 0.0

    def test_top_swap(self):
        ref = hist("abc", {"a": 3, "b": 2, "c": 1})
        other = hist("abc", {"a": 2, "b": 3, "c": 1})
        assert pwkt(ref, other) == pytest.approx(0.75, abs=1e-12)

    def test_bottom_swap(self):
        ref = hist("abc", {"a": 3, "b": 2, "c": 1})
        other = hist("abc", {"a": 3, "b": 1, "c": 2})
        assert pwkt(ref, other) == pytest.approx(0.41667, abs=1e-5)
        assert pwkt(ref, other) == pytest.approx((0.5 + 1.0 / 3.0) / 2.0, abs=1e-12)

    def test_full_reversal_matches_closed_form_and_bruteforce(self):
        for m in range(2, 9):
            ref, rev = ladder_histograms(m)
            value = pwkt(ref, rev)
            union = support_union(ref, rev)
            brute = pwkt_bruteforce(ranking_of(ref, union), ranking_of(rev, union))
            assert value == brute
            assert value == pytest.approx(full_reversal_closed_form(m), abs=1e-12)

    def test_random_rankings_match_bruteforce(self):
        rng = np.random.default_rng(23)
        labels = [f"i{j:02d}" for j in range(12)]
        for _ in range(40):
            c1 = {l: int(c) for l, c in zip(labels, rng.integers(0, 40, size=12)) if c}
            c2 = {l: int(c) for l, c in zip(labels, rng.integers(0, 40, size=12)) if c}
            if not c1 or not c2:
                continue
            ref, other = hist(labels, c1), hist(labels, c2)
            union = support_union(ref, other)
            brute = pwkt_bruteforce(ranking_of(ref, union), ranking_of(other, union))
            assert pwkt(ref, other) == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 64, 1000, 1025])
    def test_smaller_before_counts_earlier_smaller_values(self, m):
        sigma = np.random.default_rng(m).permutation(m) + 1
        expected = [int(np.sum(sigma[:j] < sigma[j])) for j in range(m)]
        assert _smaller_before(sigma).tolist() == expected

    def test_invariant_under_rescaling_other(self):
        ref = hist("abcdef", {"a": 30, "b": 12, "c": 7, "d": 2})
        other = hist("abcdef", {"a": 4, "b": 14, "c": 6, "d": 1})
        scaled = hist(
            "abcdef", {"a": 28, "b": 98, "c": 42, "d": 7}
        )  # other scaled by 7
        assert pwkt(ref, other) == pwkt(ref, scaled)

    def test_exponential_weighting_flag(self):
        ref, rev = ladder_histograms(4)
        union = support_union(ref, rev)
        brute = pwkt_bruteforce(
            ranking_of(ref, union), ranking_of(rev, union), weight=lambda i: 0.5 ** (i - 1)
        )
        assert pwkt(ref, rev, weighting="exponential") == pytest.approx(brute, abs=1e-12)
        with pytest.raises(ConfigError):
            pwkt(ref, rev, weighting="linear")

    @pytest.mark.parametrize("counts", [{}, {"a": 4}, {"a": 4, "b": 1}])
    def test_unknown_weighting_is_rejected_for_any_union_size(self, counts):
        h = hist("abc", counts)
        with pytest.raises(ConfigError):
            pwkt(h, h, weighting="bogus")

    def test_fractional_counts_are_ranked_unrounded(self):
        ref = hist("pqr", {"p": 3, "q": 2, "r": 1})
        other = hist("pqr", {"p": 1.2, "q": 1.7, "r": 1.5}, integral=False)
        assert pwkt(ref, other) == 1.4166666666666667  # q, r, p: (1 + 1/2)/2 + (1 + 1/3)/2

    def test_counts_spanning_2_16_or_more(self):
        ref = hist("pqrst", {"p": 70_000, "q": 69_990, "r": 40_000, "s": 5, "t": 3})
        other = hist("pqrst", {"p": 3, "q": 70_001, "r": 69_000, "s": 40_000, "t": 5})
        union = support_union(ref, other)
        brute = pwkt_bruteforce(ranking_of(ref, union), ranking_of(other, union))
        assert pwkt(ref, other) == pwkt_lexsort(ref, other) == brute
        distances = bootstrap_distances(ref, {"pwkt": "pwkt", "oracle": pwkt_lexsort}, 20, seed=6)
        assert distances["pwkt"].tobytes() == distances["oracle"].tobytes()
        assert np.count_nonzero(distances["pwkt"]) > 0  # the resamples do reorder p, q and r

    def test_exponential_ladder_with_subnormal_terms_matches_the_oracle(self):
        # The exponential weights of positions 1,024 to 1,075 are subnormal, and later ones 0.
        ref, rev = ladder_histograms(1100)
        assert pwkt(ref, rev, weighting="exponential") == pwkt_lexsort(ref, rev, weighting="exponential")


class TestPercentile:
    def test_linear_interpolation_rule(self):
        assert percentile(list(range(1, 101)), 2.5) == pytest.approx(3.475, abs=1e-12)

    def test_endpoints(self):
        values = [4.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 4.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 10**400])
    def test_a_value_that_is_not_a_finite_float_is_a_data_error(self, bad):
        with pytest.raises(DataError, match="^percentile of "):
            percentile([1.0, bad], 50)

    def test_neighbours_further_apart_than_the_float_range(self):
        values = [1.7e308, -1.7e308]
        assert percentile(values, 50) == 0.0
        assert percentile(values, 30) == pytest.approx(-6.8e307, rel=1e-15)
        assert percentile(values, 97.5) == pytest.approx(1.615e308, rel=1e-15)
        assert percentile(values, 100) == 1.7e308


class TestBootstrap:
    def test_single_bucket_band_is_zero(self):
        h = hist("ab", {"a": 50})
        for metric in ("pwkt", "hellinger"):
            band = bootstrap_band(h, metric, replicates=50, seed=3)
            assert band.p2_5 == band.mean == band.p97_5 == 0.0

    def test_deterministic_given_seed(self):
        h = hist("abcdef", {"a": 40, "b": 25, "c": 12, "d": 6, "e": 2})
        b1 = bootstrap_band(h, "hellinger", replicates=100, seed=9)
        b2 = bootstrap_band(h, "hellinger", replicates=100, seed=9)
        assert b1 == b2
        b3 = bootstrap_band(h, "hellinger", replicates=100, seed=10)
        assert b3 != b1

    def test_shared_stream_across_metrics(self):
        # requesting one metric or both must not change the resamples
        h = hist("abcdef", {"a": 40, "b": 25, "c": 12, "d": 6, "e": 2})
        both = bootstrap_distances(h, {"pwkt": "pwkt", "hellinger": "hellinger"}, 50, seed=4)
        alone = bootstrap_distances(h, {"hellinger": "hellinger"}, 50, seed=4)
        assert np.array_equal(both["hellinger"], alone["hellinger"])

    def test_replicate_totals_preserved(self):
        h = hist("abcde", {"a": 13, "b": 9, "c": 4})
        seen = []

        def probe(reference, replicate):
            seen.append(replicate.total)
            return 0.0

        bootstrap_band(h, probe, replicates=25, seed=1)
        assert seen == [h.total] * 25

    @pytest.mark.parametrize("cpus", [2, 3, 64])
    def test_distances_do_not_depend_on_the_cpu_count(self, monkeypatch, tmp_path, cpus):
        h = hist("abcdefgh", {"a": 40, "b": 25, "c": 25, "d": 6, "e": 6, "f": 6, "g": 1})  # tied counts
        wanted = {"pwkt": "pwkt", "hellinger": "hellinger"}
        monkeypatch.setattr(metrics, "_MIN_FORK_BUCKETS", 0)  # forks even for this small histogram
        monkeypatch.setattr(parallel, "cpus_available", lambda: 1)
        serial = bootstrap_distances(h, wanted, 5, seed=8)
        pids = tmp_path / "pids"
        monkeypatch.setattr(metrics, "_pwkt_from_vectors", recording_pids(pids, metrics._pwkt_from_vectors))
        monkeypatch.setattr(parallel, "cpus_available", lambda: cpus)
        split = bootstrap_distances(h, wanted, 5, seed=8)
        ran = pids.read_text().split()
        assert len(ran) == 5 and len(set(ran)) == min(cpus, parallel.MAX_WORKERS)
        for name in wanted:
            assert serial[name].tobytes() == split[name].tobytes()

    @pytest.mark.parametrize("buckets,processes", [(metrics._MIN_FORK_BUCKETS - 1, 1), (metrics._MIN_FORK_BUCKETS, 2)])
    def test_only_a_histogram_of_min_fork_buckets_or_more_forks(self, monkeypatch, tmp_path, buckets, processes):
        monkeypatch.setattr(parallel, "cpus_available", lambda: 2)
        labels = [f"v{i}" for i in range(metrics._MIN_FORK_BUCKETS)]
        h = hist(labels, {label: 1 + i % 7 for i, label in enumerate(labels[:buckets])})
        pids = tmp_path / "pids"
        monkeypatch.setattr(metrics, "_pwkt_from_vectors", recording_pids(pids, metrics._pwkt_from_vectors))
        bootstrap_distances(h, {"pwkt": "pwkt"}, 6, seed=8)
        ran = pids.read_text().split()
        assert len(ran) == 6 and ran[0] == str(os.getpid()) and len(set(ran)) == processes

    def test_a_callable_metric_runs_on_the_calling_thread(self, monkeypatch, tmp_path):
        monkeypatch.setattr(parallel, "cpus_available", lambda: 64)
        monkeypatch.setattr(metrics, "_MIN_FORK_BUCKETS", 0)  # forks even for this small histogram
        h = hist("abcde", {"a": 13, "b": 9, "c": 4})
        pids = tmp_path / "pids"
        bootstrap_distances(h, {"pwkt": "pwkt", "probe": recording_pids(pids, lambda reference, replicate: 0.0)},
                            12, seed=1)
        assert pids.read_text().split() == [str(os.getpid())] * 12

    def test_every_substream_is_opened_on_the_calling_thread(self, monkeypatch):
        h = hist("abcdef", {"a": 40, "b": 25, "c": 12, "d": 6, "e": 2})
        threads = []
        opened = metrics.substream

        def recorder(*args):
            threads.append(threading.get_ident())
            return opened(*args)

        monkeypatch.setattr(metrics, "substream", recorder)
        monkeypatch.setattr(metrics, "_MIN_FORK_BUCKETS", 0)
        monkeypatch.setattr(parallel, "cpus_available", lambda: 3)
        bootstrap_distances(h, {"pwkt": "pwkt", "hellinger": "hellinger"}, 12, seed=2)
        assert threads == [threading.get_ident()] * 12

    def test_band_matches_percentiles_of_distances(self):
        h = hist("abcdef", {"a": 40, "b": 25, "c": 12, "d": 6, "e": 2})
        distances = bootstrap_distances(h, {"m": "pwkt"}, 80, seed=2)["m"]
        band = bootstrap_band(h, "pwkt", replicates=80, seed=2)
        assert band.p2_5 == percentile(distances, 2.5)
        assert band.mean == pytest.approx(float(np.mean(distances)), abs=1e-15)
        assert band.p97_5 == percentile(distances, 97.5)

    def test_bad_arguments(self):
        h = hist("ab", {"a": 5})
        with pytest.raises(ConfigError):
            bootstrap_band(h, "nope", replicates=10)
        with pytest.raises(ConfigError):
            bootstrap_band(h, "pwkt", replicates=1)
        with pytest.raises(EmptyInputError):
            bootstrap_band(hist("ab", {}), "pwkt", replicates=10)


class TestDistanceReport:
    def test_report_fields_and_json(self):
        ref = hist("abcdef", {"a": 40, "b": 25, "c": 12, "d": 6})
        other = hist("abcdef", {"a": 38, "b": 27, "c": 11, "d": 7})
        report = build_distance_report(ref, other, replicates=40, seed=5)
        obj = report.to_json_obj()
        assert set(obj) == {"pwkt", "hellinger", "band", "baseline", "replicates", "seed"}
        assert obj["baseline"] is None
        assert obj["band"]["pwkt"]["p2_5"] <= obj["band"]["pwkt"]["p97_5"]
        assert obj["band"]["hellinger"]["p2_5"] <= obj["band"]["hellinger"]["p97_5"]
        assert obj["pwkt"] == pwkt(ref, other)
        assert obj["hellinger"] == hellinger(ref, other)

    def test_baseline_distances_included(self):
        ref = hist("abcd", {"a": 9, "b": 5, "c": 2})
        baseline = hist("abcd", {"a": 8, "b": 6, "c": 2})
        report = build_distance_report(ref, ref, replicates=10, seed=0, baseline=baseline)
        assert report.baseline == {
            "pwkt": pwkt(ref, baseline),
            "hellinger": hellinger(ref, baseline),
        }
