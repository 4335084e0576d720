"""Deterministic counter-based random streams.

Every sampler derives values statelessly from (seed, stream tag, per-entry
counter) through a 64-bit mixing function, so a given spec + seed reproduces
bit-identical matrices regardless of traversal order, chunking, or platform.
Distinct tags give independent streams off one seed (e.g. sparsity masks are
independent of the entry values they mask).
"""

from __future__ import annotations

import numpy as np

# stream tags
TAG_VALUES = 1  # matrix entry values
TAG_MASK = 2    # Bernoulli sparsity masks
TAG_EDGES = 3   # block-model edge indicators
TAG_GAUSS = 4   # gaussian draws (orthogonal-basis generation)
TAG_AUX = 5     # scratch streams for verification harnesses

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0 ** -53)


def _fmix(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """splitmix64 finalizer, in place after its first step; bijective on uint64 (wraparound intended)."""
    with np.errstate(over="ignore"):
        x = x ^ (x >> np.uint64(30))
        x *= _MIX1
        x ^= x >> np.uint64(27)
        x *= _MIX2
        return x ^ (x >> np.uint64(31))


def stream_key(seed: int, tag: int) -> np.uint64:
    """Derive the 64-bit key of one named stream from a user seed."""
    s = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    t = np.uint64(int(tag) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        return _fmix(_fmix(s + _GOLDEN) ^ (t * _GOLDEN + _MIX2))


def pair_counters(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pack index pairs into unique uint64 counters (requires indices < 2^32)."""
    return (np.asarray(rows, dtype=np.uint64) << np.uint64(32)) | np.asarray(
        cols, dtype=np.uint64
    )


def hash_u64(key: np.uint64, counters: np.ndarray) -> np.ndarray:
    counters = np.asarray(counters, dtype=np.uint64)
    h = _fmix(counters ^ key)
    return _fmix(h + (key ^ _GOLDEN))


def uniforms(key: np.uint64, counters: np.ndarray) -> np.ndarray:
    """i.i.d. uniforms on [0, 1) with 53-bit resolution."""
    return (hash_u64(key, counters) >> np.uint64(11)).astype(np.float64) * _INV_2_53


def rademacher(key: np.uint64, counters: np.ndarray) -> np.ndarray:
    """i.i.d. +/-1 values."""
    bit = (hash_u64(key, counters) >> np.uint64(63)).astype(np.float64)
    return 2.0 * bit - 1.0


def normals(key: np.uint64, counters: np.ndarray) -> np.ndarray:
    """i.i.d. standard normals via Box-Muller on two derived uniform words."""
    counters = np.asarray(counters, dtype=np.uint64)
    h1 = hash_u64(key, counters)
    h2 = hash_u64(_fmix(key ^ _MIX1), counters)
    # u1 in (0, 1] so the log is finite
    u1 = ((h1 >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u2 = (h2 >> np.uint64(11)).astype(np.float64) * _INV_2_53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
