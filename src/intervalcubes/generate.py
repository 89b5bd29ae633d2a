"""Deterministic random interval models.

The same configuration always yields the same model, bit for bit: seeds
are combined arithmetically (never via object hashing, which varies
across processes) and endpoints are exact: ints, and Fractions for
`unit-jitter`.
"""

from __future__ import annotations

import random

from .graphs import Record
from .intervals import DISTRIBUTIONS, IntervalModel


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
    intervals = []
    if cfg.dist == "uniform":
        span = 2 * n
        for _ in range(n):
            lo = rng.randint(0, span)
            intervals.append((lo, lo + rng.randint(1, n)))
    elif cfg.dist == "unit-jitter":
        from fractions import Fraction

        for _ in range(n):
            lo = Fraction(rng.randint(0, 3 * n), 4)
            length = 1 + Fraction(rng.randint(-4, 4), 16)
            intervals.append((lo, lo + length))
    else:  # nested-heavy: wide spread of lengths around shared centers
        span = 4 * n
        for _ in range(n):
            center = rng.randint(0, span)
            width = max(1, span >> rng.randint(0, span.bit_length() - 1))
            intervals.append((center - width, center + width))
    return IntervalModel(tuple(intervals))
