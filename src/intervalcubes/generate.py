"""Deterministic random interval models.

The same configuration always yields the same model, bit for bit: seeds
are combined arithmetically (never via object hashing, which varies
across processes) and endpoints are exact: ints, and quarters and
sixteenths for `unit-jitter`, made as int pairs without `fractions`.
"""

from __future__ import annotations

import random
from math import gcd

from .graphs import DISTRIBUTIONS, Record
from .intervals import IntervalModel, _ranked


class GenConfig(Record):
    __slots__ = ("n", "seed", "dist")

    def __init__(self, n: int, seed: int, dist: str = "uniform"):
        if dist not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {dist!r}; choose from {DISTRIBUTIONS}")
        super().__init__(n, seed, dist)


def _rng(cfg: GenConfig) -> random.Random:
    mix = cfg.seed * 1_000_003 + cfg.n * 10_007 + DISTRIBUTIONS.index(cfg.dist)
    return random.Random(mix)


def random_interval_model(cfg: GenConfig) -> IntervalModel:
    if cfg.n < 1:
        raise ValueError("need at least one interval")
    rng = _rng(cfg)
    n = cfg.n
    ends = []  # lo_0, hi_0, lo_1, ... as reduced (numerator, denominator) pairs
    if cfg.dist == "uniform":
        span = 2 * n
        for _ in range(n):
            lo = rng.randint(0, span)
            ends += (lo, 1), (lo + rng.randint(1, n), 1)
    elif cfg.dist == "unit-jitter":
        # lo = a/4 and the length 1 + b/16, so hi = (4a + 16 + b)/16
        for _ in range(n):
            a = rng.randint(0, 3 * n)
            hi = 4 * a + 16 + rng.randint(-4, 4)
            g, h = gcd(a, 4), gcd(hi, 16)
            ends += (a // g, 4 // g), (hi // h, 16 // h)
    else:  # nested-heavy: wide spread of lengths around shared centers
        span = 4 * n
        for _ in range(n):
            center = rng.randint(0, span)
            width = max(1, span >> rng.randint(0, span.bit_length() - 1))
            ends += (center - width, 1), (center + width, 1)
    return _ranked(IntervalModel.__new__(IntervalModel), ends)
