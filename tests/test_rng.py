"""The vectorized first draw of many substreams against numpy's own Philox."""

import numpy as np
import pytest

from odrelease.rng import _PHILOX_BLOCK, first_uniforms, substream

SEEDS = (0, 1, 2**63 - 1)
LABELS = ("active", "spurious-value")
# Indexes of 1 to 5 digits; the largest count spans three blocks of Philox rounds.
COUNTS = (0, 1, 200, 10_000, 20_000)


@pytest.fixture(scope="module", params=SEEDS)
def draws(request):
    """For each label, first_uniforms of every count and the scalar draws of indexes 0 .. 19,999."""
    seed = request.param
    return {
        label: (
            {count: first_uniforms(seed, label, count) for count in COUNTS},
            np.array([substream(seed, label, i).random() for i in range(max(COUNTS))]),
        )
        for label in LABELS
    }


def test_first_uniform_equals_the_substream_draw(draws):
    assert max(COUNTS) > 2 * _PHILOX_BLOCK
    for vectorized, scalar in draws.values():
        for count, draw in vectorized.items():
            assert draw.dtype == np.float64
            assert np.array_equal(draw, scalar[:count])


def test_vectorized_and_per_element_logs_agree(draws):
    """Different ufunc loops (SIMD over an array, one element at a time) give the same bits."""
    u = np.concatenate([vectorized[max(COUNTS)] for vectorized, _ in draws.values()])
    tail = np.maximum(1.0 - 2.0 * np.abs(u - 0.5), np.finfo(float).tiny)
    per_element_log = np.array([np.log(t) for t in tail])
    per_element_log1p = np.array([np.log1p(-x) for x in u])
    assert np.array_equal(np.log(tail), per_element_log)
    assert np.array_equal(np.log1p(-u), per_element_log1p)


def test_empty_path_list():
    out = first_uniforms(5, "active", 0)
    assert out.dtype == np.float64 and out.shape == (0,)
