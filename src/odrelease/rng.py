"""Deterministic labelled random substreams.

Every randomized operation takes an integer seed and derives independent
counter-based (Philox) streams from (seed, label, ...) paths.  Streams are
keyed by a hash of the path, so they do not depend on the order in which
they are created: toggling one pipeline stage never perturbs the randomness
of another, and per-bucket streams can be drawn concurrently.

Compatibility contract: the Laplace noise of the active bin at position i of
the canonical order is built from the first draw of
``substream(seed, "active", i)``, and spurious value j from the first draw of
``substream(seed, "spurious-value", j)``.  ``first_uniforms(seed, label,
count)`` computes those draws for i = 0 .. count - 1 at once, bit for bit;
a release must not change when it does.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError

# Philox-4x64 round multipliers and Weyl key increments (Salmon et al. 2011),
# as numpy's Philox uses them.
_M0, _M1 = np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)
_W0, _W1 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B)
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _seed_text(seed: int) -> str:
    try:
        return repr(int(seed))
    except (ValueError, OverflowError):  # a NaN or infinite seed
        raise ConfigError(f"seed must be a finite number, got {seed!r}") from None


def _digest(seed: int, labels: tuple) -> bytes:
    parts = [_seed_text(seed)]
    parts.extend(repr(lab) for lab in labels)
    return hashlib.blake2b("\x1f".join(parts).encode("utf8"), digest_size=16).digest()


def substream(seed: int, *labels) -> np.random.Generator:
    """Independent generator for the given seed and label path.

    Labels may be strings, ints, or floats; their repr() feeds the hash, so
    the stream is stable across runs and platforms.
    """
    key = int.from_bytes(_digest(seed, labels), "big")
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, *labels) -> int:
    """Stable 63-bit child seed for APIs that take a plain integer seed."""
    return int.from_bytes(_digest(seed, labels), "big") >> 65


def _indexed_digests(seed: int, label: str, count: int) -> bytes:
    """The _digest of (label, i) for i in range(count), concatenated.  The
    shared prefix is hashed once and each index on a copy of that state."""
    head = hashlib.blake2b("\x1f".join([_seed_text(seed), repr(label), ""]).encode("utf8"), digest_size=16)
    digests = bytearray()
    for i in range(count):
        path = head.copy()
        path.update(str(i).encode("utf8"))
        digests += path.digest()
    return bytes(digests)


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64 bits of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi = m & _LOW32, m >> _32
    x_lo, x_hi = x & _LOW32, x >> _32
    lo_lo, lo_hi, hi_lo = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    carry = ((lo_lo >> _32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)) >> _32
    return x_hi * m_hi + (lo_hi >> _32) + (hi_lo >> _32) + carry, m * x


def first_uniforms(seed: int, label: str, count: int) -> np.ndarray:
    """``substream(seed, label, i).random()`` for i in range(count), in one numpy pass.

    numpy's Philox keys a stream by the path digest split as (low 64, high
    64) bits and increments its counter before the first block, so the first
    draw is word 0 of ten Philox-4x64 rounds on the counter (1, 0, 0, 0),
    turned into a double in [0, 1) by its top 53 bits.
    """
    words = np.frombuffer(_indexed_digests(seed, label, count), dtype=">u8").astype(np.uint64).reshape(-1, 2)
    k0, k1 = words[:, 1], words[:, 0]
    c0 = np.ones(len(words), dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(len(words), dtype=np.uint64)
    for r in range(10):
        if r:
            k0, k1 = k0 + _W0, k1 + _W1
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return (c0 >> np.uint64(11)) * 2.0**-53
