"""The vectorized first draw of many substreams against numpy's own Philox."""

import numpy as np
import pytest

from odrelease.rng import first_uniforms, substream

SEEDS = (0, 1, 2**63 - 1)


def label_paths():
    """10,000 privatize-style paths, plus string, float, mixed and empty ones."""
    paths = [("active", i) for i in range(10_000)]
    paths += [("spurious-value", j) for j in range(200)]
    paths += [(f"label-{i}",) for i in range(100)] + [(i, "x", -i) for i in range(100)]
    paths += [("sweep", 0.5, 0.9, 3), ("é", 2**70), ()]
    return paths


@pytest.fixture(scope="module", params=SEEDS)
def draws(request):
    seed, paths = request.param, label_paths()
    scalar = np.array([substream(seed, *labels).random() for labels in paths])
    return first_uniforms(seed, paths), scalar


def test_first_uniform_equals_the_substream_draw(draws):
    vectorized, scalar = draws
    assert vectorized.dtype == np.float64
    assert np.array_equal(vectorized, scalar)


def test_vectorized_and_per_element_logs_agree(draws):
    """Different ufunc loops (SIMD over an array, one element at a time) give the same bits."""
    u, _ = draws
    tail = np.maximum(1.0 - 2.0 * np.abs(u - 0.5), np.finfo(float).tiny)
    per_element_log = np.array([np.log(t) for t in tail])
    per_element_log1p = np.array([np.log1p(-x) for x in u])
    assert np.array_equal(np.log(tail), per_element_log)
    assert np.array_equal(np.log1p(-u), per_element_log1p)


def test_empty_path_list():
    out = first_uniforms(5, [])
    assert out.dtype == np.float64 and out.shape == (0,)


def test_paths_are_read_once_from_an_iterator():
    paths = [("active", i) for i in range(5)]
    assert np.array_equal(first_uniforms(9, iter(paths)), first_uniforms(9, paths))
