"""Shared helpers: deterministic seed derivation, exact-arithmetic utilities."""

from __future__ import annotations

import math
from fractions import Fraction

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


def floor_log4(t: int) -> int:
    if t < 1:
        raise ValueError("floor_log4 needs t >= 1")
    return (t.bit_length() - 1) // 2


def ceil_log4(s: int) -> int:
    if s < 1:
        raise ValueError("ceil_log4 needs s >= 1")
    e = floor_log4(s)
    return e if 4**e == s else e + 1
