"""Deterministic randomness built on SplitMix64.

Every seeded component of the system draws from SplitMix64 (Steele, Lea &
Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014): the
state advances by the 64-bit golden-gamma constant and is passed through a
two-round multiply-xorshift finalizer. The same bit stream is produced on
every platform, which is what makes trained models and built indexes
byte-identical across runs.

Two access patterns:

* **counter mode** (`u64_at` / `u64_block` / `unit_block`): draw ``i`` is
  ``finalize(seed + GAMMA * (i + 1))``. Random access lets schedules be
  replayed without storing any draws.
* **sequential mode** (:class:`SplitMix64`): the classic stateful walk of
  the same stream, used where draws are consumed one at a time.

Independent consumers (vector init, window sizes, negative sampling, tree
construction, ...) get their own substream via :func:`derive`, which folds
a label path into the seed so streams never overlap by accident.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

_U_GAMMA = np.uint64(GAMMA)
_U_MUL1 = np.uint64(_MUL1)
_U_MUL2 = np.uint64(_MUL2)
# 2^-53, scales a 53-bit integer into [0, 1)
_UNIT_SCALE = 1.0 / float(1 << 53)


def _finalize_scalar(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def _finalize_array(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _U_MUL1
        z = (z ^ (z >> np.uint64(27))) * _U_MUL2
        return z ^ (z >> np.uint64(31))


def derive(seed: int, *path: int | str) -> int:
    """Derive a substream seed by folding a label path into ``seed``.

    String labels are hashed with BLAKE2b (8-byte digest) so the mapping is
    stable across processes; integer labels are used directly. Each step
    applies ``finalize((state ^ label) + GAMMA)``.
    """
    state = seed & _MASK
    for label in path:
        if isinstance(label, str):
            value = int.from_bytes(
                hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(),
                "little",
            )
        else:
            value = label & _MASK
        state = _finalize_scalar(((state ^ value) + GAMMA) & _MASK)
    return state


def u64_at(seed: int, counters: np.ndarray) -> np.ndarray:
    """Draws at the given stream positions (any uint64 array), as uint64."""
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _MASK) + _U_GAMMA * (counters + np.uint64(1))
    return _finalize_array(z)


def u64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Draws ``start .. start+count-1`` of the stream, as uint64."""
    return u64_at(seed, np.arange(start, start + count, dtype=np.uint64))


def unit_block(seed: int, start: int, count: int) -> np.ndarray:
    """Same draws mapped to float64 in [0, 1)."""
    bits = u64_block(seed, start, count) >> np.uint64(11)
    return bits.astype(np.float64) * _UNIT_SCALE


def uniform_block(
    seed: int, start: int, count: int, low: float, high: float
) -> np.ndarray:
    """Same draws mapped to float64 in [low, high)."""
    return low + unit_block(seed, start, count) * (high - low)


def normal_block(seed: int, start: int, count: int) -> np.ndarray:
    """Standard normal draws via Box-Muller on counter-mode uniforms.

    Draw ``i`` consumes stream positions ``2i`` and ``2i+1``, so blocks can
    be requested independently and still tile into one stream.
    """
    u_bits = u64_block(seed, 2 * start, 2 * count)
    # (0, 1] for the log, [0, 1) for the angle
    u1 = (u_bits[0::2] >> np.uint64(11)).astype(np.float64)
    u1 = (u1 + 1.0) * _UNIT_SCALE
    u2 = (u_bits[1::2] >> np.uint64(11)).astype(np.float64) * _UNIT_SCALE
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


class SplitMix64:
    """Sequential view of the stream: draw ``n`` equals ``u64_block(seed, n, 1)``."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & _MASK
        return _finalize_scalar(self._state)

    def next_below(self, n: int) -> int:
        """Uniform int in [0, n). Modulo bias is ~n/2^64, negligible here."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n
