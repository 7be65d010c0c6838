"""Small numeric helpers used across the library."""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer division rounding up.

    >>> ceil_div(7, 4)
    2
    """
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)


def prod(values: Iterable[float]) -> float:
    """Product of an iterable (like :func:`math.prod` but float-friendly)."""
    result = 1.0
    for value in values:
        result *= value
    return result


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of a sequence of positive values.

    The paper reports geomean EDP/energy/latency gains (Fig. 14); this is
    the single implementation used everywhere.
    """
    if not values:
        raise ValueError("geomean of an empty sequence is undefined")
    for value in values:
        if value <= 0:
            raise ValueError(f"geomean requires positive values, got {value}")
    return math.exp(sum(map(math.log, values)) / len(values))


def is_power_of_two(value: int) -> bool:
    """Whether ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def round_up_to_multiple(value: int, multiple: int) -> int:
    """Round ``value`` up to the nearest multiple of ``multiple``."""
    if multiple <= 0:
        raise ValueError(f"multiple must be positive, got {multiple}")
    return ceil_div(value, multiple) * multiple
