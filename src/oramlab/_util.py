"""Shared helpers: deterministic seed derivation, bulk random draws, exact-arithmetic utilities."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class ModelViolationError(ValueError):
    """A parameter or workload breaks the simulated machine model."""


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base: int, *indices: int) -> int:
    """Mix a base seed with trial/arm indices into a fresh 64-bit seed.

    A fixed mixing function, so concurrent trials with distinct indices never
    share randomness and every rerun is bit-reproducible.
    """
    h = _splitmix64(base & _MASK64)
    for ix in indices:
        h = _splitmix64(h ^ ((ix & _MASK64) * _GOLDEN & _MASK64))
    return h


def draw_bits(rng: random.Random, w: int, count: int) -> np.ndarray:
    """[rng.getrandbits(w) for _ in range(count)] as an int64 array, for w in [1, 63], from one getrandbits call.

    CPython builds a w-bit draw from c = ceil(w/32) 32-bit outputs, the first
    the least significant, keeping the top bits of the last.  One draw of
    32 * c * count bits takes the same outputs, in order, whole, and leaves
    the RNG where the count draws leave it.
    """
    c = (w + 31) // 32
    raw = rng.getrandbits(32 * c * count).to_bytes(4 * c * count, "little")
    words = np.frombuffer(raw, dtype="<u4").reshape(count, c)
    out = (words[:, -1] >> (32 * c - w)).astype(np.int64)
    return (out << 32) | words[:, 0] if c == 2 else out


def draw_below(rng: random.Random, n: int, count: int) -> np.ndarray:
    """[rng.randrange(n) for _ in range(count)] as an int64 array, for n in [1, 2^63).

    CPython's randrange(n) draws n.bit_length() bits until a draw falls below
    n.  Rounds of exactly as many draws as are still missing keep the same
    draws and never draw past the last one used, so the RNG ends where the
    per-call loop leaves it.
    """
    k, parts, missing = n.bit_length(), [np.empty(0, dtype=np.int64)], count
    while missing:
        got = draw_bits(rng, k, missing)
        parts.append(got[got < n])
        missing -= len(parts[-1])
    return np.concatenate(parts)


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"threshold {x!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {x!r} as an exact threshold")


def frac_ceil(x) -> int:
    return math.ceil(as_fraction(x))


def is_power_of_4(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0 and (k.bit_length() - 1) % 2 == 0


def powers_of_4_up_to(limit: int) -> list[int]:
    out = []
    k = 1
    while k <= limit:
        out.append(k)
        k *= 4
    return out

