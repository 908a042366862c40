"""Small shared utilities."""

from __future__ import annotations

import operator
import random
from functools import reduce
from typing import Dict, Iterable, Tuple


def stable_rng(*key: object) -> random.Random:
    """A deterministic RNG derived from a structured key.

    ``random.Random`` accepts string seeds (hashed with SHA-512 internally,
    unaffected by ``PYTHONHASHSEED``), so rendering the key via ``repr``
    gives stable streams across processes and platforms.
    """
    return random.Random(repr(key))


class KeyedUniform:
    """``center + stable_rng(*key).uniform(-spread, spread)``, memoized per key.

    A hidden draw that depends on its key alone is the same value on every
    call, so seeding a fresh RNG (SHA-512 and ``Random.seed``) each time is
    waste wherever keys repeat: ``draws(*key)`` seeds once per key and then
    returns the stored value, bit for bit what the fresh RNG would give.
    """

    __slots__ = ("center", "spread", "_values")

    def __init__(self, center: float, spread: float) -> None:
        self.center = center
        self.spread = spread
        self._values: Dict[Tuple[object, ...], float] = {}

    def __call__(self, *key: object) -> float:
        value = self._values.get(key)
        if value is None:
            rng = stable_rng(*key)
            value = self._values[key] = self.center + rng.uniform(-self.spread, self.spread)
        return value


def sequential_sum(values: Iterable[float], start: float = 0.0) -> float:
    """``start`` plus each value, one ``+`` at a time in order.

    From Python 3.12 on, the builtin ``sum`` of floats is compensated, so
    its last bits differ from 3.10/3.11; every version computes this sum
    alike, and it equals what the builtin gave up to 3.11.
    """
    return reduce(operator.add, values, start)


def percentile(sorted_values, fraction: float) -> float:
    """Linear-interpolated percentile of an ascending-sorted sequence."""
    if not sorted_values:
        raise ValueError("no values")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0,1]")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = fraction * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    weight = position - low
    return float(sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight)
